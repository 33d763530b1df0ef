"""Loss fidelity, metrics, training loop behavior, and the flat baselines."""

import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import aph_loss, composed_aph_loss, max_rel_error, reference_adam_step

import tailcast.training as tr
from tailcast import tensor as T
from tailcast.errors import TrainingError
from tailcast.fusion import LatencyModel, ModelConfig
from tailcast.simulator import preset_topologies
from tailcast.statgraph import Dataset, Snapshot, Topology
from tailcast.tensor import Adam, Tape, Tensor
from tailcast.training import (
    LossParams,
    TrainConfig,
    aph_loss_tensor,
    batch_loss,
    flat_features,
    linear_regression,
    metrics,
    mlp_baseline,
    tail_metrics,
    train,
)

DEFAULTS = LossParams()


class TestAphLoss:
    def test_zero_error_zero_loss(self):
        assert aph_loss(0.0, DEFAULTS) == 0.0

    def test_quadratic_branch(self):
        assert aph_loss(0.1, DEFAULTS) == pytest.approx(0.01, abs=1e-15)

    def test_right_linear_branch(self):
        # theta_R (alpha_R e - theta_R) = 0.2 * (2.0 - 0.2) = 0.36
        assert aph_loss(0.5, DEFAULTS) == pytest.approx(0.36, abs=1e-12)

    def test_left_linear_branch(self):
        # -theta_L (alpha_L e + theta_L) = -0.2 * (-4.0 + 0.2) = 0.76
        assert aph_loss(-0.5, DEFAULTS) == pytest.approx(0.76, abs=1e-12)

    @pytest.mark.parametrize("e", [0.21, 0.3, 1.0, 5.0])
    def test_asymmetry_under_prediction_costs_more(self, e):
        assert aph_loss(-e, DEFAULTS) > aph_loss(e, DEFAULTS)

    def test_discontinuity_documented_at_boundaries(self):
        # the printed piecewise form jumps upward at both thresholds
        just_inside = aph_loss(0.2 - 1e-12, DEFAULTS)
        at_boundary = aph_loss(0.2, DEFAULTS)
        assert at_boundary == pytest.approx(0.12, abs=1e-12)
        assert at_boundary > just_inside
        left_inside = aph_loss(-0.2, DEFAULTS)      # boundary point is quadratic
        left_outside = aph_loss(-0.2 - 1e-12, DEFAULTS)
        assert left_inside == pytest.approx(0.04, abs=1e-12)
        assert left_outside > left_inside

    @given(st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
    @settings(max_examples=300, deadline=None)
    def test_nonnegative_everywhere(self, e):
        assert aph_loss(e, DEFAULTS) >= 0.0

    def test_monotone_on_each_side(self):
        grid = np.linspace(-8.0, 0.0, 4001)
        vals = [aph_loss(e, DEFAULTS) for e in grid]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
        grid = np.linspace(0.0, 8.0, 4001)
        vals = [aph_loss(e, DEFAULTS) for e in grid]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            LossParams(alpha_left=4.0, alpha_right=8.0)
        with pytest.raises(ValueError):
            LossParams(theta_left=0.0)
        with pytest.raises(ValueError):
            LossParams(eps=0.0)

    def test_tensor_path_matches_scalar_path(self):
        rng = np.random.default_rng(0)
        es = np.concatenate([rng.uniform(-3, 3, size=200), [-0.2, 0.2, 0.0]])
        out = aph_loss_tensor(Tensor(es), DEFAULTS).data
        expected = np.asarray([aph_loss(float(e), DEFAULTS) for e in es])
        assert np.max(np.abs(out - expected)) < 1e-15

    def test_gradient_matches_branch_derivative_off_boundaries(self):
        rng = np.random.default_rng(1)
        es = rng.uniform(-3, 3, size=500)
        es = es[(np.abs(es + 0.2) > 1e-6) & (np.abs(es - 0.2) > 1e-6)]
        e = Tensor(es, requires_grad=True)
        T.tsum(aph_loss_tensor(e, DEFAULTS)).backward()
        expected = np.where(es < -0.2, -0.2 * 8.0, np.where(es < 0.2, 2 * es, 0.2 * 4.0))
        assert np.max(np.abs(e.grad - expected)) < 1e-12

    def test_op_equals_the_composition(self):
        # values and gradients with ==, over the three branches and both
        # boundaries (each taken by the branch its comparison picks)
        rng = np.random.default_rng(3)
        es = np.concatenate([rng.uniform(-1.0, 1.0, size=300), [-0.2, 0.0, 0.2]])
        probe = Tensor(rng.uniform(0.5, 2.0, size=es.shape))
        op_e, ref_e = (Tensor(es.copy(), requires_grad=True) for _ in range(2))
        op, ref = aph_loss_tensor(op_e, DEFAULTS), composed_aph_loss(ref_e, DEFAULTS)
        assert np.array_equal(op.data, ref.data)
        T.tsum(T.mul(op, probe)).backward()
        T.tsum(T.mul(ref, probe)).backward()
        assert np.array_equal(op_e.grad, ref_e.grad)

    def test_batch_loss_gradient_equals_the_composition(self):
        rng = np.random.default_rng(4)
        preds0 = rng.uniform(0.05, 1.5, size=(64, 1))
        labels = rng.uniform(0.05, 1.0, size=64)
        pred = Tensor(preds0.copy(), requires_grad=True)
        loss = batch_loss(pred, labels, DEFAULTS)
        loss.backward()
        ref_pred = Tensor(preds0.copy(), requires_grad=True)
        y = labels.reshape(-1, 1)
        e = T.mul(T.sub(ref_pred, Tensor(y)), Tensor(1.0 / (y + DEFAULTS.eps)))
        ref = T.tmean(composed_aph_loss(e, DEFAULTS))
        ref.backward()
        assert loss.item() == ref.item()
        assert np.array_equal(pred.grad, ref_pred.grad)

    def test_loss_tape(self):
        # besides pred: the label and inverse-label constants, sub, mul, the
        # loss op, and the mean's tsum and scale (21 with the loss composed
        # of plain ops)
        pred = Tensor(np.full((8, 1), 0.5), requires_grad=True)
        nodes = Tape(batch_loss(pred, np.linspace(0.1, 1.0, 8), DEFAULTS)).nodes
        assert len(nodes) - 1 == 7

    def test_composite_loss_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(2)
        preds0 = rng.uniform(0.05, 1.5, size=(12, 1))
        labels = rng.uniform(0.05, 1.0, size=12)
        pred = Tensor(preds0.copy(), requires_grad=True)
        batch_loss(pred, labels, DEFAULTS).backward()
        ad = pred.grad.reshape(-1)
        h = 1e-7
        fd = np.zeros(12)
        for i in range(12):
            for sign, slot in ((1, 0), (-1, 1)):
                p = preds0.copy()
                p[i, 0] += sign * h
                val = batch_loss(Tensor(p), labels, DEFAULTS).item()
                fd[i] += val if slot == 0 else -val
            fd[i] /= 2 * h
        assert max_rel_error(ad, fd, floor=1e-3) < 1e-4


class TestMetrics:
    def test_direct_substitution_mape(self):
        m = metrics([90.0, 220.0], [100.0, 200.0])
        assert m.mape == pytest.approx(10.0, abs=1e-12)

    def test_rmse_of_3_4(self):
        # error magnitudes 3 and 4 -> RMSE sqrt(12.5)
        m = metrics([4.0, 8.0], [1.0, 4.0])
        assert m.rmse == pytest.approx(math.sqrt(12.5), abs=1e-12)
        assert m.mae == pytest.approx(3.5, abs=1e-12)

    def test_perfect_predictions(self):
        m = metrics([1.0, 2.0], [1.0, 2.0])
        assert (m.mae, m.rmse, m.mape) == (0.0, 0.0, 0.0)

    def test_zero_label_rejected(self):
        with pytest.raises(ValueError):
            metrics([1.0], [0.0])

    def test_tail_split_by_sign_and_top_decile(self):
        labels = np.arange(1.0, 11.0)
        preds = labels.copy()
        preds[[0, 2, 8, 9]] = [0.5, 3.3, 9.9, 8.0]  # errors -50%, +10%, +10%, -20%
        tail = tail_metrics(preds, labels)
        assert (tail["under_count"], tail["over_count"]) == (2, 2)  # exact hits in neither
        assert tail["under_mape_pct"] == pytest.approx(35.0, abs=1e-9)
        assert tail["over_mape_pct"] == pytest.approx(10.0, abs=1e-9)
        # nearest-rank P90 of 1..10 is the 9th order statistic: labels 9 and 10
        assert tail["top_decile_mape_pct"] == pytest.approx(15.0, abs=1e-9)

    def test_tail_empty_side_is_none(self):
        tail = tail_metrics([2.0, 3.0], [2.0, 4.0])
        assert tail["under_mape_pct"] == pytest.approx(25.0) and tail["under_count"] == 1
        assert tail["over_mape_pct"] is None and tail["over_count"] == 0

    def test_matches_single_pass_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 50))
            y = rng.uniform(0.01, 2.0, size=n)
            p = rng.uniform(0.0, 2.0, size=n)
            mae = sum(abs(a - b) for a, b in zip(y, p)) / n
            rmse = math.sqrt(sum((a - b) ** 2 for a, b in zip(y, p)) / n)
            mape = 100.0 / n * sum(abs(a - b) / a for a, b in zip(y, p))
            m = metrics(p, y)
            assert abs(m.mae - mae) < 1e-12
            assert abs(m.rmse - rmse) < 1e-12
            assert abs(m.mape - mape) < 1e-12


def tiny_topology():
    return Topology.create(["a", "b"], [("a", "b")])


def synthetic_dataset(n=24, seed=0, linear=False):
    """Labels either random or an exact linear function of the features."""
    topo = tiny_topology()
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(0.1, 0.5, size=2 * 3 + 1 * 3 + 2 * 5)
    snaps = []
    for i in range(n):
        x = rng.random((2, 3))
        e = rng.random((1, 3))
        r = rng.random((2, 5))
        flat = np.concatenate([x.reshape(-1), e.reshape(-1), r.reshape(-1)])
        label = float(flat @ coeffs + 0.05) if linear else float(0.1 + rng.random())
        snaps.append(Snapshot(5.0 * i, x, e, r, label))
    return Dataset(topology=topo, snapshots=tuple(snaps))


class TestTrainLoop:
    def test_identical_seeds_identical_reports(self):
        ds = synthetic_dataset(n=20, seed=1)
        cfg = TrainConfig(epochs=3, batch_size=8, seed=7)
        r1, t1 = train(ds, "resource_only", cfg)
        r2, t2 = train(ds, "resource_only", cfg)
        assert r1.to_dict() == r2.to_dict()
        for name, p in t1.model.parameters().items():
            assert np.array_equal(p.data, t2.model.parameters()[name].data)

    def test_best_val_checkpoint_restored(self):
        ds = synthetic_dataset(n=20, seed=2)
        cfg = TrainConfig(epochs=4, batch_size=8, seed=3)
        report, trained = train(ds, "resource_only", cfg)
        assert report.best_epoch is not None
        assert report.best_val_loss == min(e.val_loss for e in report.epochs)

    def test_report_has_test_metrics(self):
        ds = synthetic_dataset(n=20, seed=3)
        report, _ = train(ds, "traffic_only", TrainConfig(epochs=2, batch_size=8, seed=1))
        assert report.test_mae is not None
        assert report.test_snapshots == 4  # 20 -> (14, 2, 4)

    def test_test_split_untouched_until_final_eval(self, monkeypatch):
        ds = synthetic_dataset(n=20, seed=4)
        train_ds_starts = {s.window_start for s in ds.snapshots[:14]}
        val_starts = {s.window_start for s in ds.snapshots[14:16]}
        test_starts = {s.window_start for s in ds.snapshots[16:]}
        seen_phases = []

        real_metrics = tr.metrics

        def counting_metrics(p, y):
            seen_phases.append("metrics")
            return real_metrics(p, y)

        real_forward = LatencyModel.forward_snapshots

        def watching_forward(self, snapshots):
            starts = {s.window_start for s in snapshots}
            if starts & test_starts:
                # test windows may only be forwarded after metrics started
                assert starts <= test_starts
                seen_phases.append("test_forward")
            else:
                assert starts <= (train_ds_starts | val_starts)
                assert "test_forward" not in seen_phases
            return real_forward(self, snapshots)

        monkeypatch.setattr(tr, "metrics", counting_metrics)
        monkeypatch.setattr(LatencyModel, "forward_snapshots", watching_forward)
        tr.train(ds, "resource_only", TrainConfig(epochs=2, batch_size=8, seed=5))
        assert seen_phases.count("metrics") == 1
        assert seen_phases[-1] == "metrics"
        assert "test_forward" in seen_phases

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_nan_explosion_aborts_with_diagnostics(self):
        cfg = TrainConfig(epochs=2, batch_size=8, seed=6)

        # poison the loss with a non-finite label; training must abort
        bad = synthetic_dataset(n=20, seed=5)
        bad.snapshots[3].label = float("nan")
        with pytest.raises(TrainingError) as err:
            tr.train(bad, "resource_only", cfg)
        assert "epoch" in str(err.value)

    def test_no_finite_validation_loss_raises(self, monkeypatch):
        # every epoch's validation loss is NaN: there are no parameters to keep
        monkeypatch.setattr(tr, "_split_loss", lambda model, snaps, params: math.nan)
        with pytest.raises(TrainingError) as err:
            tr.train(synthetic_dataset(n=20, seed=5), "resource_only",
                     TrainConfig(epochs=2, batch_size=8, seed=6))
        assert "no epoch reached a finite validation loss" in str(err.value)
        assert "epoch 2, was nan" in str(err.value)

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_diverged_single_batch_epoch_raises(self):
        # one batch per epoch, of the training split's labels of 1e300: its
        # loss is finite; against the other labels of 1e-300 the predictions
        # of 1e300 overflow every validation loss
        ds = synthetic_dataset(n=20, seed=5)
        for i, snap in enumerate(ds.snapshots):
            snap.label = 1e300 if i < 14 else 1e-300
        with pytest.raises(TrainingError, match="no epoch reached a finite validation loss"):
            tr.train(ds, "resource_only", TrainConfig(epochs=1, batch_size=64, seed=6))

    def test_too_small_dataset_rejected(self):
        with pytest.raises(ValueError):
            train(synthetic_dataset(n=9), "full", TrainConfig(epochs=1))


def preset_snapshots(topo, count, seed):
    rng = np.random.default_rng(seed)
    return [Snapshot(5.0 * i, rng.random((topo.num_services, 3)),
                     rng.random((topo.num_edges, 3)), rng.random((topo.num_services, 5)),
                     float(0.1 + rng.random()))
            for i in range(count)]


class RecordingAdam(Adam):
    """``Adam`` that keeps every instance and the grad norm of every step."""

    made: list = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.norms = []
        RecordingAdam.made.append(self)

    def step(self):
        super().step()
        self.norms.append(self.grad_norm)


class TestFlatAdam:
    """The flat-buffer ``Adam`` against the per-parameter oracle on real steps."""

    @staticmethod
    def _steps(preset, variant):
        topo = preset_topologies()[preset].topology
        snaps = preset_snapshots(topo, 40, seed=3)
        model = LatencyModel(ModelConfig(variant=variant), topo, seed=4)
        params = model.parameters()
        ref = {name: p.data.copy() for name, p in params.items()}
        m = {name: np.zeros_like(a) for name, a in ref.items()}
        v = {name: np.zeros_like(a) for name, a in ref.items()}
        opt = Adam(params)
        for t in range(1, 11):
            chunk = [snaps[(8 * t + i) % len(snaps)] for i in range(16)]
            loss = batch_loss(model.forward_snapshots(chunk),
                              np.asarray([s.label for s in chunk]), DEFAULTS)
            loss.backward()
            grads = {name: p.grad_array().copy() for name, p in params.items()}
            opt.step()
            opt.zero_grad()
            norm = reference_adam_step(ref, grads, m, v, t)
            yield opt, params, ref, norm

    @pytest.mark.parametrize("preset", ["online_boutique_like", "sockshop_like"])
    @pytest.mark.parametrize("variant", ["full", "resource_only"])
    def test_trajectory_equals_the_oracle(self, preset, variant):
        for opt, params, ref, norm in self._steps(preset, variant):
            assert abs(opt.grad_norm - norm) <= 1e-12 * norm
            for name, p in params.items():
                assert np.array_equal(p.data, ref[name]), name
                assert np.shares_memory(p.data, opt.flat)

    def test_best_epoch_restore_writes_in_place(self, monkeypatch):
        monkeypatch.setattr(RecordingAdam, "made", [])
        monkeypatch.setattr(tr, "Adam", RecordingAdam)
        ds = synthetic_dataset(n=40, seed=8)
        cfg = TrainConfig(epochs=4, batch_size=8, seed=2)
        report, trained = train(ds, "full", cfg)
        (opt,) = RecordingAdam.made
        assert report.best_epoch < cfg.epochs  # the restore moved the parameters
        for p in trained.model.parameters().values():
            assert np.shares_memory(p.data, opt.flat)
        _, val_snaps, _, _ = tr._prepare_splits(ds)
        assert tr._split_loss(trained.model, val_snaps, DEFAULTS) == report.best_val_loss

    def test_epoch_grad_norm_max(self, monkeypatch):
        monkeypatch.setattr(RecordingAdam, "made", [])
        monkeypatch.setattr(tr, "Adam", RecordingAdam)
        ds = synthetic_dataset(n=40, seed=9)
        report, _ = train(ds, "resource_only", TrainConfig(epochs=3, batch_size=8, seed=4))
        (opt,) = RecordingAdam.made
        steps = math.ceil(report.train_snapshots / 8)
        assert len(opt.norms) == 3 * steps
        for i, rec in enumerate(report.epochs):
            assert rec.grad_norm_max == max(opt.norms[i * steps:(i + 1) * steps]) > 0.0
            assert report.to_dict()["epochs"][i]["grad_norm_max"] == rec.grad_norm_max


class TestTrainingMemory:
    """What one ``train()`` call holds at its peak, in step graphs."""

    def test_peak_stays_under_two_step_graphs(self):
        # Measured on this dataset (42 training windows, four batches of up
        # to 12 per epoch): 2.37 graphs when a step's graph stayed alive
        # while the next step's forward was built, 1.50 once backward()
        # releases the graph it consumed. On the train-ablation model
        # stream (308 windows, batches of 64): 2.2 and 1.3.
        topo = preset_topologies()["online_boutique_like"].topology
        snaps = preset_snapshots(topo, 60, seed=3)
        dataset = Dataset(topology=topo, snapshots=tuple(snaps))
        config = TrainConfig(epochs=2, batch_size=12, seed=1)
        chunk = snaps[:config.batch_size]
        model = LatencyModel(ModelConfig(variant="full"), topo, seed=4)
        gc.collect()
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            loss = batch_loss(model.forward_snapshots(chunk),
                              np.asarray([s.label for s in chunk]), DEFAULTS)
            graph = tracemalloc.get_traced_memory()[0] - base
            del loss
            gc.collect()
            base, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            report, _ = train(dataset, "full", config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.train_snapshots == 42
        ratio = (peak - base) / graph
        assert ratio < 1.9, f"peak {(peak - base) / 1e6:.2f} MB is {ratio:.2f} step graphs"


class TestBaselines:
    def test_flat_feature_length(self):
        ds = synthetic_dataset(n=12)
        flat = flat_features(ds.snapshots[0])
        v, e = 2, 1
        assert flat.shape == (v * 3 + e * 3 + v * 5,)

    def test_linear_baseline_recovers_linear_labels(self):
        ds = synthetic_dataset(n=200, seed=6, linear=True)
        report, _ = linear_regression(ds)
        assert report.test_mape < 1.0

    def test_linear_solution_matches_lstsq_oracle(self):
        ds = synthetic_dataset(n=80, seed=7, linear=True)
        _, weights = linear_regression(ds)

        # oracle: normalized features -> pseudo-inverse fit
        from tailcast.statgraph import chronological_split, fit_normalizer, normalize_dataset
        train_ds, _, _ = chronological_split(ds)
        stats = fit_normalizer(train_ds)
        snaps = normalize_dataset(train_ds, stats).snapshots
        a = np.hstack([np.stack([flat_features(s) for s in snaps]),
                       np.ones((len(snaps), 1))])
        y = np.asarray([s.label for s in snaps])
        oracle, *_ = np.linalg.lstsq(a, y, rcond=None)
        assert np.max(np.abs(weights - oracle)) < 1e-6

    def test_mlp_baseline_trains(self):
        ds = synthetic_dataset(n=40, seed=8, linear=True)
        report, model = mlp_baseline(ds, TrainConfig(epochs=30, batch_size=8, seed=2))
        assert report.variant == "mlp"
        assert report.test_mape is not None
        assert len(report.epochs) == 30
