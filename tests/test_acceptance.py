"""Acceptance gate: exact oracles, invariants, and protocol reproductions.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion. The expensive criteria (overfit probe, ablation ordering,
end-to-end determinism) live at the bottom of the file.
"""

import json
import math
import time

import numpy as np
import pytest

from oracles import assert_gradients_match, mm1_mean_sojourn, nearest_rank_p95

from tailcast import tensor as T
from tailcast.cli import main
from tailcast.encoders import (
    AttentionPool,
    GmlpBlock,
    GraphTransformerLayer,
    MessageRouting,
)
from tailcast.fusion import CrossTokenAttention, DemandCapacityFusion, LatencyModel, ModelConfig
from tailcast.nn import MLP
from tailcast.simulator import (
    ClusterSpec,
    IntensityProfile,
    RequestType,
    Segment,
    ServiceCapacity,
    preset_topologies,
    run_simulation,
    run_scenario,
    sample_workload,
    scenario_from_dict,
)
from tailcast.statgraph import Topology, fit_normalizer, normalize_dataset
from tailcast.telemetry import WindowSpec, build_snapshots, parse_exposition, sliding_windows, window_p95
from tailcast.tensor import Adam, Tensor
from tailcast.training import (
    LossParams,
    TrainConfig,
    aph_loss_tensor,
    batch_loss,
    center_output_bias,
    metrics,
    train,
)

from test_encoders import layer_weights, run_layer  # dense-oracle plumbing
from oracles import aph_loss, dense_graph_attention


def _verdict(number: int, description: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {number}: {status} - {description}{suffix}")
    assert passed, f"criterion {number} failed: {description} {suffix}"


# ---------------------------------------------------------------------------
# 1. gradient integrity for every layer type
# ---------------------------------------------------------------------------


def _grad_graph_layer(seed):
    rng = np.random.default_rng(seed)
    layer = GraphTransformerLayer(8, 3, 2, rng)
    h = Tensor(rng.normal(size=(4, 8))[None], requires_grad=True)
    ef = Tensor(rng.normal(size=(3, 3))[None], requires_grad=True)
    probe = Tensor(rng.normal(size=(4, 8))[None])
    routing = MessageRouting.from_edges(4, [(0, 1), (1, 2), (0, 2)])  # self loops on 0 and 3
    leaves = [h, ef] + list(layer.parameters().values())
    return lambda: T.tsum(T.mul(layer(h, ef, routing), probe)), leaves


def _grad_attention_pool(seed):
    rng = np.random.default_rng(seed)
    pool = AttentionPool(6, rng)
    h = Tensor(rng.normal(size=(2, 3, 6)), requires_grad=True)
    probe = Tensor(rng.normal(size=(2, 6)))
    leaves = [h] + list(pool.parameters().values())
    return lambda: T.tsum(T.mul(pool(h), probe)), leaves


def _grad_gmlp_block(seed):
    rng = np.random.default_rng(seed)
    block = GmlpBlock(6, 12, 3, rng)
    block.w_spatial.data[:] = rng.normal(size=(3, 3)) * 0.3
    z = Tensor(rng.normal(size=(2, 3, 6)), requires_grad=True)
    probe = Tensor(rng.normal(size=(2, 3, 6)))
    leaves = [z] + list(block.parameters().values())
    return lambda: T.tsum(T.mul(block(z), probe)), leaves


def _grad_cross_attention(seed):
    rng = np.random.default_rng(seed)
    attn = CrossTokenAttention(8, 2, rng)
    q = Tensor(rng.normal(size=(2, 8)), requires_grad=True)
    kv = Tensor(rng.normal(size=(2, 8)), requires_grad=True)
    probe = Tensor(rng.normal(size=(2, 8)))
    leaves = [q, kv] + list(attn.parameters().values())
    return lambda: T.tsum(T.mul(attn(q, kv), probe)), leaves


def _grad_low_rank_fusion(seed):
    rng = np.random.default_rng(seed)
    fusion = DemandCapacityFusion(8, 2, 3, 4, rng)
    z_t = Tensor(rng.normal(size=(2, 8)), requires_grad=True)
    z_r = Tensor(rng.normal(size=(2, 8)), requires_grad=True)
    probe = Tensor(rng.normal(size=(2, 4)))
    leaves = [z_t, z_r] + list(fusion.parameters().values())
    return lambda: T.tsum(T.mul(fusion(z_t, z_r), probe)), leaves


def _grad_head(seed):
    rng = np.random.default_rng(seed)
    head = MLP([8, 8, 1], rng)
    x = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
    probe = Tensor(rng.normal(size=(4, 1)))
    leaves = [x] + list(head.parameters().values())
    return lambda: T.tsum(T.mul(T.softplus(head(x)), probe)), leaves


def _grad_aph_composite(seed):
    rng = np.random.default_rng(seed)
    labels = rng.uniform(0.05, 1.0, size=6)
    preds = rng.uniform(0.05, 1.5, size=(6, 1))
    # nudge any sample sitting on a loss-branch boundary
    e = (preds.reshape(-1) - labels) / (labels + 1e-8)
    preds[np.abs(np.abs(e) - 0.2) < 1e-3] += 0.01
    pred = Tensor(preds, requires_grad=True)
    return lambda: batch_loss(pred, labels, LossParams()), [pred]


LAYER_GRAD_CASES = {
    "graph transformer layer": _grad_graph_layer,
    "attention pooling": _grad_attention_pool,
    "gMLP block": _grad_gmlp_block,
    "cross-attention": _grad_cross_attention,
    "low-rank fusion": _grad_low_rank_fusion,
    "head": _grad_head,
    "aph loss composite": _grad_aph_composite,
}


def test_criterion_1_gradient_integrity():
    start = time.monotonic()
    worst = 0.0
    for name, case in LAYER_GRAD_CASES.items():
        for seed in range(20):
            build, leaves = case(seed)
            worst = max(worst, assert_gradients_match(build, leaves, tol=1e-4, h=1e-5))
    elapsed = time.monotonic() - start
    _verdict(1, "reverse-mode gradients match finite differences (7 layer types x 20 seeds)",
             worst < 1e-4 and elapsed < 120.0,
             f"worst rel err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. loss fidelity
# ---------------------------------------------------------------------------


def test_criterion_2_loss_fidelity():
    params = LossParams()  # theta 0.2/0.2, alpha 8/4
    cases = {0.0: 0.0, 0.1: 0.01, 0.5: 0.36, -0.5: 0.76}
    exact = all(abs(aph_loss(e, params) - expected) <= 1e-12 for e, expected in cases.items())
    tensor_vals = aph_loss_tensor(Tensor(list(cases)), params).data
    exact_tensor = all(abs(v - expected) <= 1e-12
                       for v, expected in zip(tensor_vals, cases.values()))
    asymmetric = all(aph_loss(-e, params) > aph_loss(e, params) for e in (0.21, 0.3, 1.0, 5.0))
    over = np.asarray([0.21, 0.3, 1.0, 5.0])
    asymmetric_tensor = bool(np.all(aph_loss_tensor(Tensor(-over), params).data
                                    > aph_loss_tensor(Tensor(over), params).data))
    _verdict(2, "aph loss reproduces hand-substituted values and the asymmetry ordering",
             exact and exact_tensor and asymmetric and asymmetric_tensor)


# ---------------------------------------------------------------------------
# 3. percentile oracle
# ---------------------------------------------------------------------------


def test_criterion_3_percentile_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(2718)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 5001))
        values = rng.exponential(0.3, size=n)
        if window_p95(values) != nearest_rank_p95(values):
            ok = False
            break
    elapsed = time.monotonic() - start
    _verdict(3, "window P95 equals the full-sort nearest-rank oracle on 1000 random windows",
             ok and elapsed < 10.0, f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. window protocol
# ---------------------------------------------------------------------------


def test_criterion_4_window_protocol(tmp_path):
    spec = WindowSpec(30.0, 5.0)
    expected = {30: 1, 35: 2, 300: 55, 3600: 715}
    counts_ok = all(len(sliding_windows(float(d), spec)) == e for d, e in expected.items())

    # end-to-end check: a simulated stream of each duration yields exactly
    # floor((d-30)/5)+1 snapshots when every window has data
    pipeline_ok = True
    topo_spec = preset_topologies()["online_boutique_like"]
    for duration, want in expected.items():
        workload = sample_workload(
            IntensityProfile((Segment("plateau", float(duration), 30.0, 30.0),)),
            topo_spec.request_types, np.random.default_rng(duration))
        result = run_simulation(topo_spec, workload, float(duration),
                                rng=np.random.default_rng(duration + 1),
                                noise_rng=None, noise_sigma=0.0, queue_cap=500)
        samples = parse_exposition(result.exposition_text).samples
        ds, stats = build_snapshots(samples, topo_spec.topology, spec, result.latency_records)
        if len(ds) != want or stats.windows_total != want:
            pipeline_ok = False
            break
    _verdict(4, "snapshot counts follow floor((d-30)/5)+1 for d in {30, 35, 300, 3600}",
             counts_ok and pipeline_ok)


# ---------------------------------------------------------------------------
# 5. graph-attention oracle
# ---------------------------------------------------------------------------


def test_criterion_5_graph_attention_oracle():
    rng = np.random.default_rng(31415)
    worst = 0.0
    for trial in range(200):
        n = int(rng.integers(2, 7))
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        rng.shuffle(pairs)
        edges = pairs[:int(rng.integers(0, len(pairs) + 1))]
        layer = GraphTransformerLayer(8, 3, 2, rng)
        h = rng.normal(size=(n, 8))
        ef = rng.normal(size=(len(edges), 3))
        out, iso = run_layer(layer, h, ef, edges, n)
        expected = dense_graph_attention(h, ef, edges, iso, layer.self_edge.data,
                                         layer_weights(layer), 2)
        worst = max(worst, float(np.max(np.abs(out - expected))))
    _verdict(5, "sparse graph attention equals the dense masked oracle on 200 graphs",
             worst < 1e-10, f"worst abs diff {worst:.2e}")


# ---------------------------------------------------------------------------
# 6. queueing sanity
# ---------------------------------------------------------------------------


def test_criterion_6_queueing_sanity():
    start = time.monotonic()
    mu, lam = 4.0, 2.0  # rho = 0.5
    duration = 27000.0  # ~54k expected arrivals
    topo = Topology.create(["svc"], [])
    spec = ClusterSpec(
        topology=topo,
        capacities={"svc": ServiceCapacity(pods=1, service_rate=mu)},
        request_types=(RequestType("only", ("svc",), 1.0),),
    )
    workload = sample_workload(IntensityProfile((Segment("plateau", duration, lam, lam),)),
                               spec.request_types, np.random.default_rng(1009))
    result = run_simulation(spec, workload, duration, rng=np.random.default_rng(1010),
                            noise_rng=None, noise_sigma=0.0, queue_cap=500)
    lat = np.asarray([v for _, v in result.latency_records])
    expected = mm1_mean_sojourn(lam, mu)
    rel = abs(lat.mean() - expected) / expected
    elapsed = time.monotonic() - start
    _verdict(6, "M/M/1 at rho=0.5 reproduces the analytic mean sojourn within 5%",
             lat.size >= 50000 and rel < 0.05 and elapsed < 30.0,
             f"n={lat.size}, rel err {rel:.3%}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 9. disconnection exactness (cheap; runs before the heavy criteria)
# ---------------------------------------------------------------------------


def test_criterion_9_disconnection_exactness():
    topo = preset_topologies()["online_boutique_like"].topology
    rng = np.random.default_rng(0)
    from tailcast.statgraph import Snapshot
    snaps = [Snapshot(5.0 * i, rng.random((11, 3)), rng.random((15, 3)),
                      rng.random((11, 5)), 0.5) for i in range(3)]

    traffic_model = LatencyModel(ModelConfig(variant="traffic_only"), topo, seed=1)
    traffic_model.eval()
    batch = traffic_model.collate(snaps)
    batch.resources.requires_grad = True
    T.tsum(traffic_model.forward(batch)).backward()
    traffic_ok = np.array_equal(batch.resources.grad_array(),
                                np.zeros_like(batch.resources.data))

    resource_model = LatencyModel(ModelConfig(variant="resource_only"), topo, seed=2)
    resource_model.eval()
    batch = resource_model.collate(snaps)
    batch.node_features.requires_grad = True
    batch.edge_features.requires_grad = True
    T.tsum(resource_model.forward(batch)).backward()
    resource_ok = (np.array_equal(batch.node_features.grad_array(),
                                  np.zeros_like(batch.node_features.data))
                   and np.array_equal(batch.edge_features.grad_array(),
                                      np.zeros_like(batch.edge_features.data)))
    _verdict(9, "stream-ablated variants have exactly zero gradients w.r.t. unused inputs",
             traffic_ok and resource_ok)


# ---------------------------------------------------------------------------
# 7. overfit probe
# ---------------------------------------------------------------------------


def _probe_dataset():
    scenario = scenario_from_dict({
        "preset": "online_boutique_like",
        "seed": 99,
        "noise_sigma": 0.01,
        "capacities": {"productcatalogservice": {"pods": 1, "service_rate": 15.0}},
        "profile": [
            {"kind": "ramp", "duration_s": 140.0, "start_rate": 4.0, "end_rate": 20.0},
            {"kind": "spike", "duration_s": 50.0, "start_rate": 20.0, "end_rate": 24.0},
            {"kind": "ramp", "duration_s": 155.0, "start_rate": 20.0, "end_rate": 5.0},
        ],
        "duration_s": 345.0,  # exactly 64 sliding windows
    })
    result = run_scenario(scenario)
    samples = parse_exposition(result.exposition_text).samples
    ds, _ = build_snapshots(samples, scenario.cluster.topology, WindowSpec(),
                            result.latency_records)
    return ds


def test_criterion_7_overfit_probe():
    start = time.monotonic()
    ds = _probe_dataset()
    assert len(ds) == 64
    stats = fit_normalizer(ds)
    snaps = list(normalize_dataset(ds, stats).snapshots)
    labels = np.asarray([s.label for s in snaps])

    # architecture defaults: d_emb=16, 4 traffic layers, rank 4, batch 32, lr 1e-3
    model = LatencyModel(ModelConfig(variant="full"), ds.topology, seed=7)
    center_output_bias(model, snaps)
    optimizer = Adam(model.parameters())
    shuffle_rng = np.random.default_rng(123)
    loss_params = LossParams()

    reached = None
    for epoch in range(1, 501):
        model.train()
        order = shuffle_rng.permutation(len(snaps))
        for i in range(0, len(order), 32):
            chunk = [snaps[j] for j in order[i:i + 32]]
            pred = model.forward_snapshots(chunk)
            loss = batch_loss(pred, np.asarray([s.label for s in chunk]), loss_params)
            loss.backward()
            optimizer.step()
            optimizer.zero_grad()
        if epoch % 10 == 0:
            mape = metrics(model.predict(snaps), labels).mape
            if mape < 5.0:
                reached = epoch
                break
    elapsed = time.monotonic() - start
    _verdict(7, "full model overfits 64 simulator snapshots to <5% training MAPE",
             reached is not None and elapsed < 600.0,
             f"reached at epoch {reached}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 8. ablation direction on synthetic data
# ---------------------------------------------------------------------------


def _ablation_dataset():
    """~5000 windows of ramps+spikes against a capacity-limited catalog tier.

    Latency here is queueing delay. Every capacity (pods x service rate) is
    held fixed for the whole run, so only demand (arrival rate) varies,
    against the fixed capacity of the catalog tier.
    """
    cycle = [
        {"kind": "ramp", "duration_s": 800.0, "start_rate": 4.0, "end_rate": 20.0},
        {"kind": "plateau", "duration_s": 600.0, "start_rate": 20.0},
        {"kind": "spike", "duration_s": 200.0, "start_rate": 20.0, "end_rate": 32.0},
        {"kind": "ramp", "duration_s": 800.0, "start_rate": 20.0, "end_rate": 6.0},
        {"kind": "plateau", "duration_s": 733.0, "start_rate": 6.0},
    ]
    scenario = scenario_from_dict({
        "preset": "online_boutique_like",
        "seed": 20250810,
        "noise_sigma": 0.01,
        "capacities": {
            "frontend": {"pods": 2, "service_rate": 40.0},
            "productcatalogservice": {"pods": 1, "service_rate": 15.0},
            "recommendationservice": {"pods": 1, "service_rate": 40.0},
            "cartservice": {"pods": 1, "service_rate": 40.0},
            "checkoutservice": {"pods": 1, "service_rate": 40.0},
        },
        "profile": cycle * 8,
        "duration_s": 25064.0,
    })
    result = run_scenario(scenario)
    samples = parse_exposition(result.exposition_text).samples
    ds, _ = build_snapshots(samples, scenario.cluster.topology, WindowSpec(),
                            result.latency_records)
    return ds


def test_criterion_8_ablation_direction():
    ds = _ablation_dataset()
    assert len(ds) > 4500
    variants = ("full", "simple_fused", "resource_only", "traffic_only", "single_stream")
    mean_mape = {}
    for variant in variants:
        mapes = []
        for seed in (0, 1, 2):
            report, _ = train(ds, variant, TrainConfig(epochs=25, batch_size=64, seed=seed))
            mapes.append(report.test_mape)
        mean_mape[variant] = float(np.mean(mapes))
        print(f"  {variant}: seeds (0,1,2) MAPE {['%.2f' % m for m in mapes]} "
              f"-> mean {mean_mape[variant]:.2f}%")

    gap_fusion = mean_mape["simple_fused"] - mean_mape["full"]
    gap_traffic = mean_mape["traffic_only"] - mean_mape["resource_only"]
    gap_single = mean_mape["single_stream"] - mean_mape["resource_only"]
    _verdict(8, "ablation ordering: full <= simple_fused; traffic_only and "
                "single_stream underperform resource_only (3-seed means)",
             gap_fusion >= 0 and gap_traffic >= 0 and gap_single >= 0,
             f"gaps: fusion {gap_fusion:+.2f}pp, traffic {gap_traffic:+.2f}pp, "
             f"single {gap_single:+.2f}pp")


# ---------------------------------------------------------------------------
# 10. end-to-end determinism
# ---------------------------------------------------------------------------


def test_criterion_10_end_to_end_determinism(tmp_path):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps({
        "preset": "sockshop_like",
        "seed": 5,
        "duration_s": 150.0,
        "noise_sigma": 0.01,
        "profile": [
            {"kind": "ramp", "duration_s": 60.0, "start_rate": 5.0, "end_rate": 30.0},
            {"kind": "plateau", "duration_s": 90.0, "start_rate": 30.0},
        ],
    }))

    def run_pipeline(root):
        sim = root / "sim"
        assert main(["simulate", "--scenario", str(scenario_path), "--out-dir", str(sim)]) == 0
        dataset = root / "data.jsonl"
        assert main(["ingest", "--telemetry", str(sim), "--topology",
                     str(sim / "topology.json"), "--dataset", str(dataset),
                     "--report", str(root / "ingest.json")]) == 0
        tr = root / "train"
        assert main(["train", "--dataset", str(dataset), "--out-dir", str(tr),
                     "--variant", "full", "--epochs", "2", "--seed", "3"]) == 0
        ev = root / "eval"
        assert main(["eval", "--dataset", str(dataset), "--checkpoint",
                     str(tr / "checkpoint.json"), "--out-dir", str(ev)]) == 0
        return {
            "telemetry.prom": (sim / "telemetry.prom").read_bytes(),
            "latency.csv": (sim / "latency.csv").read_bytes(),
            "dataset": dataset.read_bytes(),
            "ingest.json": (root / "ingest.json").read_bytes(),
            "checkpoint.json": (tr / "checkpoint.json").read_bytes(),
            "report.json": (tr / "report.json").read_bytes(),
            "epochs.csv": (tr / "epochs.csv").read_bytes(),
            "metrics.json": (ev / "metrics.json").read_bytes(),
            "predictions.csv": (ev / "predictions.csv").read_bytes(),
        }

    a = run_pipeline(tmp_path / "a")
    b = run_pipeline(tmp_path / "b")
    mismatched = [name for name in a if a[name] != b[name]]
    _verdict(10, "simulate->ingest->train->eval is byte-identical across reruns",
             not mismatched, f"mismatched: {mismatched}" if mismatched else "9 artifacts compared")
