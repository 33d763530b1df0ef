"""Cross-attention, multiplicative fusion, model variants, export, checkpoints."""

import hashlib
import json

import numpy as np
import pytest

from oracles import max_rel_error, read_embeddings_csv

from tailcast import tensor as T
from tailcast.errors import CheckpointError
from tailcast.fusion import (
    VARIANTS,
    CrossTokenAttention,
    DemandCapacityFusion,
    LatencyModel,
    ModelConfig,
    SystemEmbedding,
    build_variant,
    export_embeddings,
    load_model,
    predict_latency,
    save_model,
    write_embeddings_csv,
)
from tailcast.nn import EVAL_BATCH
from tailcast.simulator import preset_topologies
from tailcast.statgraph import NormStats, Snapshot, Topology
from tailcast.tensor import Tape, Tensor
from tailcast.training import LossParams, _split_loss, batch_loss


def small_topology():
    return Topology.create(["a", "b", "c"], [("a", "b"), ("b", "c")])


def make_snapshots(topo, count=3, seed=0, label=True):
    rng = np.random.default_rng(seed)
    return [
        Snapshot(
            window_start=float(5 * i),
            node_features=rng.random((topo.num_services, 3)),
            edge_features=rng.random((topo.num_edges, 3)),
            resource_features=rng.random((topo.num_services, 5)),
            label=(0.1 + rng.random()) if label else None,
        )
        for i in range(count)
    ]


class TestCrossTokenAttention:
    def test_identical_kv_tokens_ignore_query(self):
        rng = np.random.default_rng(0)
        attn = CrossTokenAttention(8, 4, rng)
        token = rng.normal(size=2)
        kv = Tensor(np.tile(token, 4).reshape(1, 8))
        out1 = attn(Tensor(rng.normal(size=(1, 8))), kv)
        out2 = attn(Tensor(rng.normal(size=(1, 8))), kv)
        assert np.allclose(out1.data, out2.data, atol=1e-12)
        expected = token @ attn.wv.w.data + attn.wv.b.data
        assert np.allclose(out1.data.reshape(4, 2), np.tile(expected, (4, 1)), atol=1e-12)

    def test_single_token_degenerates_to_value_projection(self):
        rng = np.random.default_rng(1)
        attn = CrossTokenAttention(8, 1, rng)
        q = Tensor(rng.normal(size=(2, 8)))
        kv_arr = rng.normal(size=(2, 8))
        out = attn(q, Tensor(kv_arr))
        expected = kv_arr @ attn.wv.w.data + attn.wv.b.data
        assert np.allclose(out.data, expected, atol=1e-12)


class TestDemandCapacityFusion:
    def test_residual_identity_with_zero_values(self):
        rng = np.random.default_rng(3)
        fusion = DemandCapacityFusion(8, 4, 4, 8, rng)
        for attn in (fusion.attend_demand, fusion.attend_capacity):
            attn.wv.w.data[:] = 0.0
            attn.wv.b.data[:] = 0.0
        z_t = Tensor(rng.normal(size=(2, 8)))
        z_r = Tensor(rng.normal(size=(2, 8)))
        zt_e, zr_e = fusion.enhance(z_t, z_r)
        assert np.array_equal(zt_e.data, z_t.data)
        assert np.array_equal(zr_e.data, z_r.data)

    def test_multiplicative_gating_scales_exactly(self):
        rng = np.random.default_rng(4)
        fusion = DemandCapacityFusion(8, 4, 4, 8, rng)
        zt_e = Tensor(rng.normal(size=(2, 8)))
        zr_e = Tensor(rng.normal(size=(2, 8)))
        f_t, f_r = fusion.factors(zt_e, zr_e)
        base = f_t.data * f_r.data
        scaled = (2.0 * f_t.data) * f_r.data  # power of two: bit-exact
        assert np.array_equal(scaled, 2.0 * base)

    def test_zero_capacity_factor_annihilates(self):
        rng = np.random.default_rng(5)
        fusion = DemandCapacityFusion(8, 4, 4, 8, rng)
        # zero the capacity projection: f_r = 0 so only the bias path remains
        for layer in fusion.project_capacity.layers:
            layer.w.data[:] = 0.0
            layer.b.data[:] = 0.0
        z = Tensor(rng.normal(size=(3, 8)))
        out = fusion(z, Tensor(rng.normal(size=(3, 8))))
        bias_path = fusion.mix(Tensor(np.zeros((3, 4))))
        assert np.allclose(out.data, bias_path.data, atol=1e-12)

    def test_fresh_factors_start_at_unit_bias(self):
        rng = np.random.default_rng(8)
        fusion = DemandCapacityFusion(8, 4, 4, 8, rng)
        for project in (fusion.project_demand, fusion.project_capacity):
            assert np.array_equal(project.layers[-1].b.data, np.ones(4))
        # with both final weights zeroed each factor is exactly its bias, 1,
        # so the fused product is the all-ones rank vector
        for project in (fusion.project_demand, fusion.project_capacity):
            project.layers[-1].w.data[:] = 0.0
        out = fusion(Tensor(rng.normal(size=(3, 8))), Tensor(rng.normal(size=(3, 8))))
        ones_path = fusion.mix(Tensor(np.ones((3, 4))))
        assert np.allclose(out.data, ones_path.data, rtol=0.0, atol=1e-12)

    def test_both_streams_receive_gradient(self):
        rng = np.random.default_rng(6)
        fusion = DemandCapacityFusion(8, 4, 4, 8, rng)
        z_t = Tensor(rng.normal(size=(1, 8)), requires_grad=True)
        z_r = Tensor(rng.normal(size=(1, 8)), requires_grad=True)
        T.tsum(fusion(z_t, z_r)).backward()
        assert np.any(z_t.grad != 0)
        assert np.any(z_r.grad != 0)

    def test_fusion_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        fusion = DemandCapacityFusion(8, 2, 3, 4, rng)
        z_t = Tensor(rng.normal(size=(1, 8)), requires_grad=True)
        z_r = Tensor(rng.normal(size=(1, 8)), requires_grad=True)
        probe = Tensor(rng.normal(size=(1, 4)))

        def build():
            return T.tsum(T.mul(fusion(z_t, z_r), probe))

        build().backward()
        ad_t = z_t.grad_array().copy()
        h = 1e-5
        fd = np.zeros(8)
        for i in range(8):
            orig = z_t.data[0, i]
            z_t.data[0, i] = orig + h
            fp = build().item()
            z_t.data[0, i] = orig - h
            fm = build().item()
            z_t.data[0, i] = orig
            fd[i] = (fp - fm) / (2 * h)
        assert max_rel_error(ad_t.reshape(-1), fd) < 1e-4


class TestVariants:
    def test_all_variants_forward(self):
        topo = small_topology()
        snaps = make_snapshots(topo)
        for kind in VARIANTS:
            model = build_variant(kind, ModelConfig(), topo, seed=1)
            model.eval()
            out = model.forward_snapshots(snaps)
            assert out.shape == (3, 1)
            assert np.all(out.data > 0), f"{kind}: predictions must be positive"

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            build_variant("bogus", ModelConfig(), small_topology())

    @pytest.mark.parametrize("field", ["dropout_traffic", "dropout_resource"])
    @pytest.mark.parametrize("p", [1.0, 1.5, -0.1, float("nan"), float("inf")])
    def test_dropout_outside_unit_interval_rejected(self, field, p):
        with pytest.raises(ValueError, match=f"{field} must be finite and in \\[0, 1\\)"):
            ModelConfig(**{field: p})
        assert ModelConfig(**{field: 0.0}) and ModelConfig(**{field: 0.99})

    def test_encoder_sizes_checked_only_where_the_encoder_is_built(self):
        config = ModelConfig(traffic_layers=0, resource_blocks=0)
        with pytest.raises(ValueError, match="num_layers must be >= 1"):
            build_variant("traffic_only", config, small_topology())
        with pytest.raises(ValueError, match="num_blocks must be >= 1"):
            build_variant("resource_only", config, small_topology())
        assert build_variant("resource_only", ModelConfig(traffic_layers=0), small_topology())
        assert build_variant("traffic_only", ModelConfig(resource_blocks=0), small_topology())

    def test_traffic_only_ignores_resources_exactly(self):
        topo = small_topology()
        snaps = make_snapshots(topo)
        model = build_variant("traffic_only", ModelConfig(), topo, seed=2)
        model.eval()
        batch = model.collate(snaps)
        batch.resources.requires_grad = True
        T.tsum(model.forward(batch)).backward()
        assert batch.resources.grad is None
        assert np.array_equal(batch.resources.grad_array(), np.zeros_like(batch.resources.data))

    def test_resource_only_ignores_traffic_exactly(self):
        topo = small_topology()
        snaps = make_snapshots(topo)
        model = build_variant("resource_only", ModelConfig(), topo, seed=3)
        model.eval()
        batch = model.collate(snaps)
        batch.node_features.requires_grad = True
        batch.edge_features.requires_grad = True
        T.tsum(model.forward(batch)).backward()
        assert batch.node_features.grad is None
        assert batch.edge_features.grad is None

    def test_full_uses_both_streams(self):
        topo = small_topology()
        snaps = make_snapshots(topo)
        model = build_variant("full", ModelConfig(), topo, seed=4)
        model.eval()
        batch = model.collate(snaps)
        batch.resources.requires_grad = True
        batch.node_features.requires_grad = True
        T.tsum(model.forward(batch)).backward()
        assert np.any(batch.resources.grad_array() != 0)
        assert np.any(batch.node_features.grad_array() != 0)

    def test_simple_fused_with_zero_capacity_equals_traffic_only(self):
        topo = small_topology()
        snaps = make_snapshots(topo)
        fused = build_variant("simple_fused", ModelConfig(), topo, seed=5)
        fused.eval()
        # zero out everything the resource stream contributes
        for name, p in fused.resource.parameters().items():
            p.data[:] = 0.0
        batch = fused.collate(snaps)
        out_fused = fused.forward(batch)
        # same traffic weights + same head, direct routing
        solo = build_variant("traffic_only", ModelConfig(), topo, seed=5)
        solo.eval()
        solo_params = solo.parameters()
        for name, p in fused.traffic.parameters().items():
            solo_params[f"traffic.{name}"].data = p.data.copy()
        for name, p in fused.head.parameters().items():
            solo_params[f"head.{name}"].data = p.data.copy()
        out_solo = solo.forward(solo.collate(snaps))
        assert np.allclose(out_fused.data, out_solo.data, atol=1e-12)

    def test_single_stream_consumes_resources_via_node_features(self):
        topo = small_topology()
        snaps = make_snapshots(topo)
        model = build_variant("single_stream", ModelConfig(), topo, seed=6)
        model.eval()
        batch = model.collate(snaps)
        batch.resources.requires_grad = True
        T.tsum(model.forward(batch)).backward()
        assert np.any(batch.resources.grad_array() != 0)

    def test_gnn_fused_sees_resources_but_zero_edge_features(self):
        topo = small_topology()
        snaps = make_snapshots(topo)
        model = build_variant("gnn_fused", ModelConfig(), topo, seed=7)
        model.eval()
        batch = model.collate(snaps)
        batch.resources.requires_grad = True
        T.tsum(model.forward(batch)).backward()
        assert np.any(batch.resources.grad_array() != 0)

    def test_deterministic_prediction(self):
        topo = small_topology()
        snaps = make_snapshots(topo)
        model = build_variant("full", ModelConfig(), topo, seed=8)
        p1 = model.predict(snaps)
        p2 = model.predict(snaps)
        assert np.array_equal(p1, p2)

    def test_predict_latency_positive(self):
        topo = small_topology()
        snap = make_snapshots(topo, count=1)[0]
        model = build_variant("full", ModelConfig(), topo, seed=9)
        assert predict_latency(snap, model) > 0

    def test_full_model_gradcheck_through_everything(self):
        topo = small_topology()
        snaps = make_snapshots(topo, count=1, seed=11)
        config = ModelConfig(traffic_layers=1, resource_blocks=1, num_heads=2, d_emb=8,
                             fusion_tokens=2, fusion_rank=3, fused_width=8, head_hidden=8)
        model = build_variant("full", config, topo, seed=10)
        model.eval()
        batch = model.collate(snaps)
        batch.node_features.requires_grad = True
        batch.edge_features.requires_grad = True
        batch.resources.requires_grad = True

        def build():
            return T.tsum(model.forward(batch))

        build().backward()
        h = 1e-5
        for leaf in (batch.node_features, batch.edge_features, batch.resources):
            ad = leaf.grad_array().copy().reshape(-1)
            flat = leaf.data.reshape(-1)
            fd = np.zeros_like(flat)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                fp = build().item()
                flat[i] = orig - h
                fm = build().item()
                flat[i] = orig
                fd[i] = (fp - fm) / (2 * h)
            assert max_rel_error(ad, fd) < 1e-4


class TestBatchInvariance:
    @pytest.mark.parametrize("preset", ["online_boutique_like", "sockshop_like"])
    def test_batched_equals_per_snapshot_on_presets(self, preset):
        topo = preset_topologies()[preset].topology
        snaps = make_snapshots(topo, count=5, seed=17)
        for variant in VARIANTS:
            model = build_variant(variant, ModelConfig(), topo, seed=18)
            batched = model.predict(snaps)
            singles = np.concatenate([model.predict([s]) for s in snaps])
            assert np.max(np.abs(batched - singles)) < 1e-12, variant

    def test_predict_and_export_keep_the_training_mode(self):
        topo = small_topology()
        snaps = make_snapshots(topo, count=2)
        model = build_variant("full", ModelConfig(), topo, seed=19)
        for mode in (True, False):
            model.train(mode)
            first = model.predict(snaps)
            export_embeddings(snaps, model)
            assert all(m.training is mode for m in model.modules())
            assert np.array_equal(model.predict(snaps), first)


# nodes of a recorded single-snapshot eval forward per variant, as the
# benchmark's tensor.tape_nodes.b1 probe counts them (either preset)
EVAL_TAPE_NODES = {"full": 191, "traffic_only": 78, "resource_only": 61,
                   "simple_fused": 132, "gnn_fused": 208, "single_stream": 78}


class TestNoGradInference:
    @pytest.mark.parametrize("preset", ["online_boutique_like", "sockshop_like"])
    def test_predict_and_export_equal_the_recorded_forward(self, preset):
        topo = preset_topologies()[preset].topology
        snaps = make_snapshots(topo, count=5, seed=23)
        for variant in VARIANTS:
            model = build_variant(variant, ModelConfig(), topo, seed=24).eval()
            recorded = model.forward_snapshots(snaps)
            fused = model.embed(model.collate(snaps))
            assert recorded.requires_grad
            assert np.array_equal(model.predict(snaps), recorded.data.reshape(-1)), variant
            for j, emb in enumerate(export_embeddings(snaps, model)):
                assert np.array_equal(emb.fused, fused.data[j]), variant

    def test_inference_records_no_graph(self):
        topo = small_topology()
        snaps = make_snapshots(topo, count=3)
        model = build_variant("full", ModelConfig(), topo, seed=25)
        outputs = []
        embed = model.embed

        def recording_embed(batch):
            outputs.append(embed(batch))
            return outputs[-1]

        model.embed = recording_embed
        model.predict(snaps)
        export_embeddings(snaps, model)
        _split_loss(model, snaps, LossParams())
        assert len(outputs) == 3
        assert all(not t.requires_grad and t._parents == () for t in outputs)
        assert model.forward_snapshots(snaps).requires_grad

    @pytest.mark.parametrize("preset", ["online_boutique_like", "sockshop_like"])
    def test_recorded_eval_forward_tape_is_pinned(self, preset):
        topo = preset_topologies()[preset].topology
        snaps = make_snapshots(topo, count=2, seed=1)
        for variant, nodes in EVAL_TAPE_NODES.items():
            model = build_variant(variant, ModelConfig(), topo, seed=0).eval()
            model.predict(snaps)
            assert len(Tape(model.forward_snapshots(snaps[:1])).nodes) == nodes, variant


class TestInferenceSlices:
    def test_each_path_runs_two_slices_across_the_boundary(self):
        topo = small_topology()
        snaps = make_snapshots(topo, count=EVAL_BATCH + 1, seed=27)
        parts = (snaps[:EVAL_BATCH], snaps[EVAL_BATCH:])
        model = build_variant("full", ModelConfig(), topo, seed=28).eval()
        recorded = [model.forward_snapshots(part) for part in parts]
        params = LossParams()
        total = 0.0
        for part, pred in zip(parts, recorded):
            total += batch_loss(pred, np.asarray([s.label for s in part]), params).item() * len(part)
        want = {
            "predict": np.concatenate([pred.data.reshape(-1) for pred in recorded]),
            "export": np.concatenate([model.embed(model.collate(part)).data for part in parts]),
            "split_loss": total / len(snaps),
        }
        runs = {
            "predict": lambda: model.predict(snaps),
            "export": lambda: np.stack([e.fused for e in export_embeddings(snaps, model)]),
            "split_loss": lambda: _split_loss(model, snaps, params),
        }
        sizes = []
        embed = model.embed

        def counting_embed(batch):
            sizes.append(batch.node_features.shape[0])
            return embed(batch)

        model.embed = counting_embed
        for mode in (True, False):
            model.train(mode)
            for name, run in runs.items():
                sizes.clear()
                assert np.array_equal(run(), want[name]), name
                assert sizes == [EVAL_BATCH, 1], name
                assert all(m.training is mode for m in model.modules()), name


class TestEmbeddingExport:
    def test_export_length_matches_config(self):
        topo = small_topology()
        snaps = make_snapshots(topo, count=4)
        model = build_variant("full", ModelConfig(), topo, seed=12)
        embeddings = export_embeddings(snaps, model)
        assert len(embeddings) == 4
        assert all(isinstance(e, SystemEmbedding) for e in embeddings)
        assert embeddings[0].fused.shape == (16,)

    def test_export_byte_stable(self, tmp_path):
        topo = small_topology()
        snaps = make_snapshots(topo, count=3)
        model = build_variant("full", ModelConfig(), topo, seed=13)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_embeddings_csv(p1, export_embeddings(snaps, model))
        write_embeddings_csv(p2, export_embeddings(snaps, model))
        assert p1.read_bytes() == p2.read_bytes()

    def test_export_roundtrip(self, tmp_path):
        topo = small_topology()
        snaps = make_snapshots(topo, count=3)
        model = build_variant("resource_only", ModelConfig(), topo, seed=14)
        embeddings = export_embeddings(snaps, model)
        path = tmp_path / "emb.csv"
        write_embeddings_csv(path, embeddings)
        starts, matrix = read_embeddings_csv(path)
        assert np.array_equal(starts, [s.window_start for s in snaps])
        assert np.array_equal(matrix, np.stack([e.fused for e in embeddings]))


class TestModelCheckpoint:
    def _stats(self, topo):
        return NormStats(
            node_mean=np.zeros(3), node_std=np.ones(3),
            edge_mean=np.zeros(3), edge_std=np.ones(3),
            resource_mean=np.zeros(5), resource_std=np.ones(5))

    def test_save_load_reproduces_predictions(self, tmp_path):
        topo = small_topology()
        snaps = make_snapshots(topo, count=3)
        model = build_variant("full", ModelConfig(), topo, seed=15)
        path = tmp_path / "ckpt.json"
        save_model(path, model, self._stats(topo))
        loaded, stats = load_model(path)
        assert np.array_equal(loaded.predict(snaps), model.predict(snaps))
        assert loaded.config == model.config
        assert loaded.topology == topo

    def test_config_json_roundtrip(self):
        config = ModelConfig(variant="gnn_fused", fusion_rank=8)
        assert ModelConfig.from_dict(config.to_dict()) == config

    def test_old_reverse_messages_field(self, tmp_path):
        # checkpoints written before messages were fixed to call direction
        # carry "reverse_messages": false; true named a model that no longer exists
        topo = small_topology()
        snaps = make_snapshots(topo, count=3)
        path = tmp_path / "ckpt.json"
        save_model(path, build_variant("full", ModelConfig(), topo, seed=15), self._stats(topo))
        payload = json.loads(path.read_text())
        assert "reverse_messages" not in payload["meta"]["model_config"]
        expected = load_model(path)[0].predict(snaps)
        for value in (False, True):
            payload["meta"]["model_config"]["reverse_messages"] = value
            old = tmp_path / f"old_{value}.json"
            old.write_text(json.dumps(payload))
            if value:
                with pytest.raises(CheckpointError, match="reverse_messages"):
                    load_model(old)
            else:
                assert np.array_equal(load_model(old)[0].predict(snaps), expected)

    def test_missing_meta_rejected(self, tmp_path):
        from tailcast.tensor import save_checkpoint
        path = tmp_path / "bad.json"
        model = build_variant("full", ModelConfig(), small_topology(), seed=16)
        save_checkpoint(path, model.parameters(), meta={})
        with pytest.raises(CheckpointError):
            load_model(path)

    def test_fresh_parameters_are_pinned(self):
        # (count, SHA-256 of the sorted "name shape" lines, SHA-256 of the
        # float64 values in that order) of every variant at seed 0, recorded
        # before the variant table replaced the per-variant branches: a
        # renamed parameter or a reordered random draw breaks old checkpoints
        # and seeded runs, and shows here
        def digests(model):
            params = model.parameters()
            names = sorted(params)
            layout = "\n".join(f"{name} {params[name].shape}" for name in names)
            values = b"".join(params[name].data.tobytes() for name in names)
            return (len(names), hashlib.sha256(layout.encode()).hexdigest(),
                    hashlib.sha256(values).hexdigest())

        got = {
            (preset, variant): digests(build_variant(variant, ModelConfig(), spec.topology, seed=0))
            for preset, spec in sorted(preset_topologies().items())
            for variant in VARIANTS
        }
        assert got == {
            ("online_boutique_like", "full"): (
                129, "1b106cb775985ac497ed92fbd7d274fff06cc21cc8513769a258cf77fca95759",
                "0a056a3eac16a8cf26db6467a41a434cbb096574b8ee8576aa32c5ac72773983"),
            ("online_boutique_like", "traffic_only"): (
                61, "fe598a796c896818441c7e171d3bcb22bfeafdae67495a824614c87a5558ff08",
                "5996bae6310e850a2038dd1df0074189e25028e8cbe9c24d65b7614ac6901690"),
            ("online_boutique_like", "resource_only"): (
                48, "7a593aab3733544c732632546ec97362697e664fe83920081957b8dc3e9043a7",
                "7da8930c70ee2382434e8f528fffd1f56b2bd6c235e1cf0444a707cff21d528d"),
            ("online_boutique_like", "simple_fused"): (
                105, "bc8a069e35456faa0553343988512e150c76007225e882d4ac174b4256c6ef0e",
                "28b1509a86a052ee1f8031b71438e3666743b2208f6c809fefb88101cef3d5a4"),
            ("online_boutique_like", "gnn_fused"): (
                142, "bca9a9430aaeff26eb991077e960206d7a918c5d11d99ec0885c09a713a639f7",
                "0f6863a36a1dde0b423b35202a4640f33a1412086c0e679bf22bb5409de6a39d"),
            ("online_boutique_like", "single_stream"): (
                61, "ef276ac716daceb0b696a5760eb12d9258ef65c80629c2f1492b8b60641ca74f",
                "8f8d5ff863b8c7b022299cc529104d5587258bdc8d4eb130f1d91c6c6fdb5a3e"),
            ("sockshop_like", "full"): (
                129, "e4c21f7dcce4d4d36a8225ee78c596d3b858be397292f772e7594be8bfe6ddbf",
                "5e4c732ef670f97b001d6e9759c999d9b29c5f184a96d7b14b87d05d4b0ae102"),
            ("sockshop_like", "traffic_only"): (
                61, "fe598a796c896818441c7e171d3bcb22bfeafdae67495a824614c87a5558ff08",
                "5996bae6310e850a2038dd1df0074189e25028e8cbe9c24d65b7614ac6901690"),
            ("sockshop_like", "resource_only"): (
                48, "458874ae4e9adb94ee30d1d03a18607789b8d4c8a6c2d6fac60ae4d194cc62ba",
                "5d7de68eb09ac2ab2d525f2a2e88b50b000d46b2e3ae7ab2c884f08750eb977e"),
            ("sockshop_like", "simple_fused"): (
                105, "974558f35021383fc339c6ca224ea7f1461ce1cb1c9d81afeb0b3fc41e12a637",
                "ad4e3663de1a4a992f185a6e76f0bff599f74b3f0988959b620e5d124a570272"),
            ("sockshop_like", "gnn_fused"): (
                142, "bca9a9430aaeff26eb991077e960206d7a918c5d11d99ec0885c09a713a639f7",
                "0f6863a36a1dde0b423b35202a4640f33a1412086c0e679bf22bb5409de6a39d"),
            ("sockshop_like", "single_stream"): (
                61, "ef276ac716daceb0b696a5760eb12d9258ef65c80629c2f1492b8b60641ca74f",
                "8f8d5ff863b8c7b022299cc529104d5587258bdc8d4eb130f1d91c6c6fdb5a3e"),
        }
