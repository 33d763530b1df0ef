"""Asymmetric percentage loss, metrics, the training loop, and flat baselines.

The loss operates on the relative error e_p = (pred - truth) / (truth + eps)
and is piecewise: linear with slope alpha_L * theta_L left of -theta_L,
quadratic in between, linear with slope alpha_R * theta_R right of theta_R.
With alpha_L > alpha_R under-prediction costs more than over-prediction,
which is the right asymmetry when a missed latency spike means a missed
scaling action. The printed piecewise form is implemented verbatim, jumps
at the region boundaries included.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import tensor as T
from .errors import SchemaError, TrainingError
from .fusion import LatencyModel, ModelConfig
from .nn import MLP, Predictor
from .statgraph import (
    Dataset,
    NormStats,
    Snapshot,
    chronological_split,
    fit_normalizer,
    normalize_dataset,
)
from .tensor import Adam, Tensor

logger = logging.getLogger(__name__)

RIDGE_DAMPING = 1e-8  # added to the diagonal of the linear baseline's normal matrix
MLP_HIDDEN = 64  # width of both hidden layers of the flat MLP baseline


@dataclass(frozen=True)
class LossParams:
    theta_left: float = 0.2
    theta_right: float = 0.2
    alpha_left: float = 8.0
    alpha_right: float = 4.0
    eps: float = 1e-8

    def __post_init__(self):
        if self.theta_left <= 0 or self.theta_right <= 0:
            raise ValueError("thresholds must be > 0")
        if not (self.alpha_left > self.alpha_right >= 1.0):
            raise ValueError(
                f"need alpha_left > alpha_right >= 1, got {self.alpha_left}, {self.alpha_right}")
        if self.eps <= 0:
            raise ValueError("eps must be > 0")


def aph_loss_tensor(e: Tensor, params: LossParams) -> Tensor:
    """Elementwise loss as one differentiable tensor op.

    Branch membership is decided on values, so the gradient is the active
    branch's derivative; the two boundary points take the subgradient of
    whichever branch the comparison assigns them to. The forward pass is the
    arithmetic of the masked sum of the three branches, in its order, so
    every value, NaN included, is that sum's; with finite values the other
    two branches' terms of the gradient are exact zeros, so the gradient is
    that sum's too.
    """
    tl, tr = params.theta_left, params.theta_right
    slope_left, slope_right = -tl * params.alpha_left, tr * params.alpha_right
    d = e.data
    left = d < -tl
    right = d >= tr
    out = left * (d * slope_left + -tl * tl) + ((d >= -tl) & (d < tr)) * (d * d)
    out += right * (d * slope_right + -tr * tr)

    def backward(g):
        return (np.where(left, g * slope_left, np.where(right, g * slope_right, 2.0 * d * g)),)

    return T._from_op(out, (e,), backward)


def batch_loss(pred: Tensor, labels: np.ndarray, params: LossParams) -> Tensor:
    """Mean loss of a (B, 1) prediction tensor against (B,) labels."""
    y = labels.reshape(-1, 1)
    e = T.mul(T.sub(pred, Tensor(y)), Tensor(1.0 / (y + params.eps)))
    return T.tmean(aph_loss_tensor(e, params))


@dataclass(frozen=True)
class Metrics:
    mae: float    # seconds
    rmse: float   # seconds
    mape: float   # percent


def metrics(preds, labels) -> Metrics:
    """MAE / RMSE (seconds) and MAPE (%); labels must be strictly positive."""
    preds = np.asarray(preds, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if preds.shape != labels.shape or preds.size == 0:
        raise ValueError(f"need equal nonempty shapes, got {preds.shape} vs {labels.shape}")
    if np.any(labels <= 0):
        raise ValueError("labels must be > 0 for MAPE")
    err = labels - preds
    mae = float(np.mean(np.abs(err)))
    rmse = float(np.sqrt(np.mean(err * err)))
    mape = float(100.0 * np.mean(np.abs(err) / labels))
    return Metrics(mae=mae, rmse=rmse, mape=mape)


def tail_metrics(preds, labels) -> dict[str, float | int | None]:
    """MAPE (%) on the windows the asymmetric loss exists for.

    ``under`` holds the windows with y_hat < y and ``over`` those with
    y_hat > y (an exact hit is in neither), each with its count; an empty
    side reports ``None``. The top decile is every window whose label is at
    least the nearest-rank P90 label. Inputs are as :func:`metrics` accepts.
    """
    preds = np.asarray(preds, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    rel = np.abs(labels - preds) / labels
    p90 = np.sort(labels)[math.ceil(0.9 * labels.size) - 1]
    out: dict[str, float | int | None] = {}
    for side, mask in (("under", preds < labels), ("over", preds > labels)):
        out[f"{side}_mape_pct"] = float(100.0 * np.mean(rel[mask])) if mask.any() else None
        out[f"{side}_count"] = int(mask.sum())
    out["top_decile_mape_pct"] = float(100.0 * np.mean(rel[labels >= p90]))
    return out


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 500
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float
    grad_norm_max: float  # largest global gradient norm over the epoch's steps


@dataclass
class TrainReport:
    """A run's record; its fields are ``report.json``'s keys, in order, but
    the wall clock, which goes to stdout only, so that fixed-seed reruns
    write byte-identical report files."""

    variant: str
    best_epoch: int | None = None
    best_val_loss: float | None = None
    test_mae: float | None = None
    test_rmse: float | None = None
    test_mape: float | None = None
    train_snapshots: int = 0
    val_snapshots: int = 0
    test_snapshots: int = 0
    checkpoint_path: str | None = None
    epochs: list[EpochRecord] = field(default_factory=list)
    wall_clock_s: float | None = None

    def to_dict(self) -> dict:
        out = asdict(self)
        del out["wall_clock_s"]
        return out


def _param_norms(model) -> str:
    norms = {name: float(np.sqrt((p.data ** 2).sum())) for name, p in model.parameters().items()}
    worst = sorted(norms.items(), key=lambda kv: -kv[1])[:3]
    return ", ".join(f"{k}={v:.3g}" for k, v in worst)


def _split_loss(model: Predictor, snapshots, params: LossParams) -> float:
    def slice_loss(chunk):
        labels = np.asarray([s.label for s in chunk])
        return batch_loss(model.forward_snapshots(chunk), labels, params).item() * len(chunk)

    total = 0.0
    for loss in model.infer(snapshots, slice_loss):
        total += loss
    return total / len(snapshots)


def run_training(
    model: Predictor,
    train_snaps: list[Snapshot],
    val_snaps: list[Snapshot],
    test_snaps: list[Snapshot],
    config: TrainConfig,
    shuffle_rng: np.random.Generator,
    variant: str,
) -> TrainReport:
    """Mini-batch Adam over shuffled training windows with best-val selection.

    Snapshots are independent supervised examples, so shuffling is valid.
    The test list is only touched once, after the best-validation parameters
    have been restored. Raises :class:`TrainingError` if no epoch ends with a
    finite validation loss, since there are then no parameters to keep.
    """
    start = time.monotonic()
    report = TrainReport(
        variant=variant,
        train_snapshots=len(train_snaps),
        val_snapshots=len(val_snaps),
        test_snapshots=len(test_snaps),
    )
    loss_params = LossParams()
    optimizer = Adam(model.parameters())
    best_val = math.inf
    best_params: np.ndarray | None = None

    for epoch in range(1, config.epochs + 1):
        model.train()
        order = shuffle_rng.permutation(len(train_snaps))
        epoch_loss = 0.0
        grad_norm_max = 0.0
        for b_start in range(0, len(order), config.batch_size):
            idx = order[b_start:b_start + config.batch_size]
            chunk = [train_snaps[i] for i in idx]
            pred = model.forward_snapshots(chunk)
            labels = np.asarray([s.label for s in chunk])
            loss = batch_loss(pred, labels, loss_params)
            loss_val = loss.item()
            if not math.isfinite(loss_val):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch}, batch {b_start // config.batch_size}; "
                    f"largest parameter norms: {_param_norms(model)}")
            loss.backward()
            optimizer.step()
            optimizer.zero_grad()
            grad_norm_max = max(grad_norm_max, optimizer.grad_norm)
            epoch_loss += loss_val * len(chunk)
        model.eval()
        train_loss = epoch_loss / len(train_snaps)
        val_loss = _split_loss(model, val_snaps, loss_params)
        report.epochs.append(EpochRecord(epoch=epoch, train_loss=train_loss, val_loss=val_loss,
                                         grad_norm_max=grad_norm_max))
        if val_loss < best_val:
            best_val = val_loss
            best_params = optimizer.flat.copy()
            report.best_epoch = epoch

    if best_params is None:
        raise TrainingError(f"no epoch reached a finite validation loss; the last one, "
                            f"epoch {config.epochs}, was {val_loss!r}")
    optimizer.flat[...] = best_params
    report.best_val_loss = best_val

    preds = model.predict(test_snaps)
    labels = np.asarray([s.label for s in test_snaps])
    m = metrics(preds, labels)
    report.test_mae, report.test_rmse, report.test_mape = m.mae, m.rmse, m.mape
    report.wall_clock_s = time.monotonic() - start
    return report


def center_output_bias(model, train_snaps: list[Snapshot]) -> None:
    """Start the head at the train-split mean label (softplus-inverse bias).

    The first prediction then equals the mean predictor, which removes the
    long initial climb from softplus(~0) toward the label scale. Uses the
    training split only.
    """
    mean_label = float(np.mean([s.label for s in train_snaps]))
    # inverse of softplus: log(exp(y) - 1), stable form
    inv = mean_label + math.log1p(-math.exp(-mean_label))
    final = model.head.layers[-1]
    final.b.data[:] = inv


@dataclass
class TrainedModel:
    model: LatencyModel
    norm_stats: NormStats


def _prepare_splits(dataset: Dataset):
    if len(dataset) < 10:
        raise ValueError(f"need at least 10 snapshots to train, got {len(dataset)}")
    if any(s.label is None for s in dataset.snapshots):
        raise SchemaError("training requires labels on every snapshot")
    train_ds, val_ds, test_ds = chronological_split(dataset)
    stats = fit_normalizer(train_ds)
    return (
        list(normalize_dataset(train_ds, stats).snapshots),
        list(normalize_dataset(val_ds, stats).snapshots),
        list(normalize_dataset(test_ds, stats).snapshots),
        stats,
    )


def train(
    dataset: Dataset,
    variant: str = "full",
    config: TrainConfig = TrainConfig(),
) -> tuple[TrainReport, TrainedModel]:
    """Split chronologically, standardize on the training split, fit, report.

    Fully seed-deterministic: parameter init, batch shuffling, and dropout
    all derive from ``config.seed``.
    """
    train_snaps, val_snaps, test_snaps, stats = _prepare_splits(dataset)
    seed_model, seed_shuffle = np.random.SeedSequence(config.seed).spawn(2)
    model = LatencyModel(ModelConfig(variant), dataset.topology, seed=seed_model)
    center_output_bias(model, train_snaps)
    report = run_training(
        model, train_snaps, val_snaps, test_snaps, config,
        shuffle_rng=np.random.default_rng(seed_shuffle), variant=variant,
    )
    return report, TrainedModel(model=model, norm_stats=stats)


# ---------------------------------------------------------------------------
# flat baselines
# ---------------------------------------------------------------------------


def flat_features(snapshot: Snapshot) -> np.ndarray:
    """X, E, R flattened into one vector (length |V|d_n + |E|d_e + |V|d_r)."""
    return np.concatenate([
        snapshot.node_features.reshape(-1),
        snapshot.edge_features.reshape(-1),
        snapshot.resource_features.reshape(-1),
    ])


def linear_regression(dataset: Dataset) -> tuple[TrainReport, np.ndarray]:
    """Least-squares on flat features via damped normal equations.

    The ridge damping is always applied; a warning is logged when the normal
    matrix is ill-conditioned enough for the damping to matter.
    """
    train_snaps, val_snaps, test_snaps, _ = _prepare_splits(dataset)

    def design(snaps):
        rows = np.stack([flat_features(s) for s in snaps])
        return np.hstack([rows, np.ones((len(snaps), 1))])

    a = design(train_snaps)
    y = np.asarray([s.label for s in train_snaps])
    gram = a.T @ a
    cond = np.linalg.cond(gram)
    if cond > 1e12:
        logger.warning("normal matrix is near-singular (cond=%.3g); ridge damping %.1g applied",
                       cond, RIDGE_DAMPING)
    weights = np.linalg.solve(gram + RIDGE_DAMPING * np.eye(gram.shape[0]), a.T @ y)

    preds = design(test_snaps) @ weights
    labels = np.asarray([s.label for s in test_snaps])
    m = metrics(preds, labels)
    report = TrainReport(
        variant="linear",
        train_snapshots=len(train_snaps),
        val_snapshots=len(val_snaps),
        test_snapshots=len(test_snaps),
        test_mae=m.mae, test_rmse=m.rmse, test_mape=m.mape,
    )
    return report, weights


class FlatRegressor(Predictor):
    """Two-hidden-layer MLP on flattened features with a softplus output."""

    def __init__(self, num_features: int, seed=0):
        rng = np.random.default_rng(seed)
        self.head = MLP([num_features, MLP_HIDDEN, MLP_HIDDEN, 1], rng)

    def forward_snapshots(self, snapshots: list[Snapshot]) -> Tensor:
        rows = np.stack([flat_features(s) for s in snapshots])
        return T.softplus(self.head(Tensor(rows)))


def mlp_baseline(
    dataset: Dataset,
    config: TrainConfig = TrainConfig(),
) -> tuple[TrainReport, FlatRegressor]:
    """Flat-vector MLP trained with the same loss and optimizer as the model."""
    train_snaps, val_snaps, test_snaps, _ = _prepare_splits(dataset)
    seed_model, seed_shuffle = np.random.SeedSequence(config.seed).spawn(2)
    model = FlatRegressor(len(flat_features(train_snaps[0])), seed=seed_model)
    center_output_bias(model, train_snaps)
    report = run_training(
        model, train_snaps, val_snaps, test_snaps, config,
        shuffle_rng=np.random.default_rng(seed_shuffle), variant="mlp",
    )
    return report, model
