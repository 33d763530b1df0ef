"""Service topology, per-window snapshots, datasets, and their file format.

A dataset is a static service-dependency graph plus a time-ordered sequence
of observation windows. Each window carries three feature blocks (per-node
traffic, per-edge traffic, per-node resources) and the window's ground-truth
P95 latency in seconds. ``FEATURE_SCHEMA`` names the metric behind each
column; the block widths, and so the model's input widths, follow from it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from . import jsonfields
from .errors import ParseError, SchemaError

DATASET_FORMAT = "tailcast-dataset"
DATASET_VERSION = 1


class Metric(NamedTuple):
    """One scraped metric of the feature schema."""

    name: str
    kind: str       # "counter" windows to a per-second rate, "gauge" to its in-window mean
    block: str      # "traffic" fills an edge column and sums into a node column; or "resource"
    column: int     # its column in the block
    row_label: str  # the label naming the service whose node or resource row it fills


# The one feature schema: every metric the ingest reads and the simulator
# writes, in exposition order. Response bytes sum into the caller's node row.
FEATURE_SCHEMA = (
    Metric("istio_requests_total", "counter", "traffic", 0, "destination_workload"),
    Metric("istio_request_bytes_sum", "counter", "traffic", 1, "destination_workload"),
    Metric("istio_response_bytes_sum", "counter", "traffic", 2, "source_workload"),
    Metric("container_cpu_usage_seconds_total", "counter", "resource", 0, "workload"),
    Metric("container_memory_usage_bytes", "gauge", "resource", 1, "workload"),
    Metric("container_spec_cpu_period", "gauge", "resource", 2, "workload"),
    Metric("container_network_receive_bytes_total", "counter", "resource", 3, "workload"),
    Metric("container_network_transmit_bytes_total", "counter", "resource", 4, "workload"),
)
TRAFFIC_METRICS = tuple(m for m in FEATURE_SCHEMA if m.block == "traffic")
RESOURCE_METRICS = tuple(m for m in FEATURE_SCHEMA if m.block == "resource")
# the node, edge and resource feature widths, as the dataset header's dims
FEATURE_WIDTHS = {"node": len(TRAFFIC_METRICS), "edge": len(TRAFFIC_METRICS),
                  "resource": len(RESOURCE_METRICS)}


@dataclass(frozen=True)
class Topology:
    """Static service-dependency graph with a frozen canonical ordering.

    ``services`` is the canonical node order (index = node id); ``edges`` are
    ``(source_index, destination_index)`` caller->callee pairs. The ordering
    is part of the dataset contract: position-dependent model weights (the
    resource encoder's spatial gating) rely on it, so it must never change
    once a dataset references the topology. Self-loops are rejected by
    :meth:`create`; constructing directly is the explicit opt-in.
    """

    services: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if len(set(self.services)) != len(self.services):
            raise SchemaError("duplicate service names in topology")
        n = len(self.services)
        seen = set()
        for src, dst in self.edges:
            if not (0 <= src < n and 0 <= dst < n):
                raise SchemaError(f"edge ({src}, {dst}) out of range for {n} services")
            if (src, dst) in seen:
                raise SchemaError(f"duplicate edge ({src}, {dst})")
            seen.add((src, dst))

    @classmethod
    def create(cls, services, edges_by_name) -> "Topology":
        """Build a topology from names; services are sorted alphabetically.

        ``edges_by_name`` is an iterable of (source_name, destination_name).
        Edge order is preserved as given (it defines the edge-feature row
        order). Self-loops are rejected here.
        """
        ordered = tuple(sorted(services))
        index = {name: i for i, name in enumerate(ordered)}
        edges = []
        for src, dst in edges_by_name:
            if src not in index or dst not in index:
                raise SchemaError(f"edge ({src!r}, {dst!r}) references unknown service")
            if src == dst:
                raise SchemaError(f"self-loop on {src!r} not allowed")
            edges.append((index[src], index[dst]))
        return cls(services=ordered, edges=tuple(edges))

    @property
    def num_services(self) -> int:
        return len(self.services)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def index_of(self, service: str) -> int:
        try:
            return self.services.index(service)
        except ValueError:
            raise SchemaError(f"unknown service {service!r}") from None

    def edge_index(self) -> dict[tuple[int, int], int]:
        return {edge: i for i, edge in enumerate(self.edges)}

    def to_dict(self) -> dict:
        return {"services": list(self.services), "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_dict(cls, d: dict) -> "Topology":
        """A topology from its JSON form: ``services`` a list of names and
        ``edges`` a list of (source index, destination index) pairs."""
        services, edges = topology_lists(d, endpoint=int)
        return cls(services=tuple(services), edges=tuple(edges))


def topology_lists(d, endpoint: type) -> tuple[list[str], list[tuple]]:
    """The ``services`` and ``edges`` of a JSON topology object, checked:
    services must be a list of strings and edges a list of pairs, each a
    list of two ``endpoint`` values (service indices or names)."""
    d = jsonfields.obj(d, "malformed topology")
    services = jsonfields.each(d.get("services"), jsonfields.string, "strings", "malformed topology: services")
    rule = {int: jsonfields.integer, str: jsonfields.string}[endpoint]

    def pair(edge, what: str) -> tuple:
        ends = tuple(jsonfields.each(edge, rule, "endpoints", what))
        if len(ends) != 2:
            raise SchemaError(what)
        return ends

    name = endpoint.__name__
    edges = jsonfields.each(d.get("edges"), pair, f"[{name}, {name}] pairs",
                            "malformed topology: edges")
    return services, edges


@dataclass
class Snapshot:
    """One observation window: features plus an optional P95 latency label."""

    window_start: float
    node_features: np.ndarray      # |V| x d_n
    edge_features: np.ndarray      # |E| x d_e
    resource_features: np.ndarray  # |V| x d_r
    label: float | None = None     # P95 latency, seconds; None for inference


@dataclass
class NormStats:
    """Per-column z-score statistics, fit on the training split only."""

    node_mean: np.ndarray
    node_std: np.ndarray
    edge_mean: np.ndarray
    edge_std: np.ndarray
    resource_mean: np.ndarray
    resource_std: np.ndarray

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name).tolist() for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "NormStats":
        """Stats from their JSON form; each mean and std must be a list of
        JSON numbers of its block's feature width, each mean finite and each
        std finite and > 0."""
        jsonfields.obj(d, "normalization")
        vectors = {}
        for block, width in FEATURE_WIDTHS.items():
            for key in (f"{block}_mean", f"{block}_std"):
                values = vectors[key] = jsonfields.numbers(d.get(key), f"normalization {key}")
                if values.shape != (width,):
                    raise SchemaError(f"normalization {key} has shape {values.shape}, "
                                      f"expected ({width},)")
                if key.endswith("_std") and not (values > 0).all():
                    raise SchemaError(f"normalization {key} must be finite and > 0, "
                                      f"got {values.tolist()}")
        return cls(**vectors)


# Dataset.validate's checks in order, formatted with the snapshot index i,
# the snapshot and the expected (node, edge, resource) shapes
_CHECK_MESSAGES = (
    "snapshot {i}: window_start must be finite, got {snap.window_start}",
    "snapshot {i} out of chronological order",
    "snapshot {i}: node features {snap.node_features.shape}, expected {expected[0]}",
    "snapshot {i}: edge features {snap.edge_features.shape}, expected {expected[1]}",
    "snapshot {i}: resource features {snap.resource_features.shape}, expected {expected[2]}",
    "snapshot {i}: non-finite feature values",
    "snapshot {i}: negative raw feature values",
    "snapshot {i}: label must be finite and > 0, got {snap.label}",
)


@dataclass
class Dataset:
    """A topology plus strictly time-ordered snapshots.

    ``norm_stats`` is set once features have been standardized (normalization
    is one-shot; applying stats twice is not the identity).
    """

    topology: Topology
    snapshots: tuple[Snapshot, ...]
    norm_stats: NormStats | None = None

    def __len__(self) -> int:
        return len(self.snapshots)

    def validate(self) -> None:
        """Raise :class:`SchemaError` for the first bad snapshot, naming the
        first check it fails.

        The checks, in order: a finite ``window_start``, strictly increasing
        ``window_start``, the node, edge and resource block shapes, finite
        feature values, non-negative raw feature values (skipped once
        normalised), and a label that is None or finite and > 0. Shapes are
        compared per snapshot; the blocks of every snapshot before the first
        shape mismatch are then stacked, and each check is one mask over the
        snapshots.
        """
        v, e = self.topology.num_services, self.topology.num_edges
        expected = tuple(zip((v, e, v), FEATURE_WIDTHS.values()))  # node, edge, resource
        snaps = self.snapshots
        n = len(snaps)
        shapes = [(s.node_features.shape, s.edge_features.shape, s.resource_features.shape)
                  for s in snaps]
        # snapshots [0, shaped) have the expected shapes
        shaped = next((i for i, got in enumerate(shapes) if got != expected), n)
        # row c is check c of _CHECK_MESSAGES; column i is snapshot i
        bad = np.zeros((len(_CHECK_MESSAGES), n), dtype=bool)
        starts = np.array([s.window_start for s in snaps], dtype=np.float64)
        bad[0] = ~np.isfinite(starts)
        bad[1] = starts <= np.concatenate(([-np.inf], starts[:-1]))
        if shaped < n:
            bad[2:5, shaped] = [got != want for got, want in zip(shapes[shaped], expected)]
        if shaped:
            values = np.concatenate([
                np.stack([getattr(s, block) for s in snaps[:shaped]]).reshape(shaped, -1)
                for block in ("node_features", "edge_features", "resource_features")], axis=1)
            bad[5, :shaped] = ~np.isfinite(values).all(axis=1)
            if self.norm_stats is None:
                bad[6, :shaped] = ~(values >= 0).all(axis=1)
        # an unlabelled snapshot passes as the label 1.0
        labels = np.array([1.0 if s.label is None else s.label for s in snaps], dtype=np.float64)
        bad[7] = ~(np.isfinite(labels) & (labels > 0))
        failing = np.flatnonzero(bad.any(axis=0))
        if failing.size:
            i = int(failing[0])
            message = _CHECK_MESSAGES[int(np.argmax(bad[:, i]))]
            raise SchemaError(message.format(i=i, snap=snaps[i], expected=expected))

    def labels(self) -> np.ndarray:
        return np.asarray([s.label for s in self.snapshots], dtype=np.float64)


# ---------------------------------------------------------------------------
# chronological splitting
# ---------------------------------------------------------------------------


SPLIT_FRACTIONS = (0.70, 0.10, 0.20)  # train, val, test


def chronological_split(dataset: Dataset) -> tuple[Dataset, Dataset, Dataset]:
    """Split 70/10/20 into contiguous (train, val, test) partitions, oldest first.

    Sizes are floor(fraction * T) for train and val; the remainder goes to
    test, so the unseen-future side never shrinks from rounding.
    """
    t = len(dataset.snapshots)
    if t < 10:
        raise ValueError(f"need at least 10 snapshots to split, got {t}")
    n_train = int(np.floor(SPLIT_FRACTIONS[0] * t))
    n_val = int(np.floor(SPLIT_FRACTIONS[1] * t))
    parts = (
        dataset.snapshots[:n_train],
        dataset.snapshots[n_train:n_train + n_val],
        dataset.snapshots[n_train + n_val:],
    )
    return tuple(replace(dataset, snapshots=part, norm_stats=dataset.norm_stats) for part in parts)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

STD_FLOOR = 1e-8


def _column_stats(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = rows.mean(axis=0)
    std = rows.std(axis=0)  # population std
    return mean, np.maximum(std, STD_FLOOR)


def fit_normalizer(train: Dataset) -> NormStats:
    """Per-column mean/std over every training snapshot; std floored at 1e-8.

    Labels are never touched: the training loss is scale-relative already,
    and label statistics must not leak through preprocessing. A column
    whose mean or std is not finite (its values overflow when squared) is a
    :class:`SchemaError` naming its block and column: no checkpoint could
    hold such stats.
    """
    if not train.snapshots:
        raise ValueError("cannot fit a normalizer on an empty split")
    vectors = {}
    for block, width in FEATURE_WIDTHS.items():
        rows = np.concatenate([getattr(s, f"{block}_features") for s in train.snapshots])
        if not len(rows):  # a topology without edges
            mean, std = np.zeros(width), np.ones(width)
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                mean, std = _column_stats(rows)
        bad = ~(np.isfinite(mean) & np.isfinite(std))
        if bad.any():
            col = int(np.argmax(bad))
            raise SchemaError(f"{block} feature column {col} has non-finite statistics on the "
                              f"training split (mean {float(mean[col])}, std {float(std[col])})")
        vectors[f"{block}_mean"], vectors[f"{block}_std"] = mean, std
    return NormStats(**vectors)


def apply_normalizer(snapshot: Snapshot, stats: NormStats) -> Snapshot:
    """Z-score one snapshot's features (one-shot; labels pass through)."""
    return Snapshot(
        window_start=snapshot.window_start,
        node_features=(snapshot.node_features - stats.node_mean) / stats.node_std,
        edge_features=(snapshot.edge_features - stats.edge_mean) / stats.edge_std,
        resource_features=(snapshot.resource_features - stats.resource_mean) / stats.resource_std,
        label=snapshot.label,
    )


def normalize_dataset(dataset: Dataset, stats: NormStats) -> Dataset:
    if dataset.norm_stats is not None:
        raise ValueError("dataset is already normalized; normalization is one-shot")
    snaps = tuple(apply_normalizer(s, stats) for s in dataset.snapshots)
    return replace(dataset, snapshots=snaps, norm_stats=stats)


# ---------------------------------------------------------------------------
# serialization: one JSON header line, then one JSON line per snapshot
# ---------------------------------------------------------------------------

_HEADER_FIELDS = {"format", "version", "topology", "dims", "normalization"}
_SNAPSHOT_FIELDS = {"window_start", "X", "E", "R", "y"}


def save_dataset(dataset: Dataset, path) -> None:
    header = {
        "format": DATASET_FORMAT,
        "version": DATASET_VERSION,
        "topology": dataset.topology.to_dict(),
        "dims": FEATURE_WIDTHS,
        "normalization": dataset.norm_stats.to_dict() if dataset.norm_stats else None,
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for snap in dataset.snapshots:
            row = {
                "window_start": snap.window_start,
                "X": snap.node_features.tolist(),
                "E": snap.edge_features.tolist(),
                "R": snap.resource_features.tolist(),
                "y": snap.label,
            }
            fh.write(json.dumps(row) + "\n")


def load_dataset(path) -> Dataset:
    """Load a dataset file; raises :class:`ParseError` with the line number
    on malformed JSON and on a snapshot value that is not a JSON number, and
    :class:`SchemaError` on structural problems, unknown fields and a header
    value that breaks its rule (``dims`` must be :data:`FEATURE_WIDTHS`)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError("empty dataset file", line_number=1)

    def parse_json(line_no: int) -> dict:
        try:
            obj = json.loads(lines[line_no - 1])
        except ValueError as exc:  # also a number of more digits than int() reads
            raise ParseError(str(exc), line_number=line_no, line=lines[line_no - 1][:80]) from exc
        if not isinstance(obj, dict):
            raise ParseError("expected a JSON object", line_number=line_no)
        return obj

    header = jsonfields.fields(parse_json(1), _HEADER_FIELDS, "line 1")
    if header.get("format") != DATASET_FORMAT:
        raise SchemaError(f"unexpected dataset format {header.get('format')!r}")
    if header.get("version") != DATASET_VERSION:
        raise SchemaError(f"unsupported dataset version {header.get('version')!r}")
    norm = header.get("normalization")
    try:
        topology = Topology.from_dict(header.get("topology", {}))
        jsonfields.fixed(header.get("dims"), FEATURE_WIDTHS, "dims")
        norm_stats = None if norm is None else NormStats.from_dict(norm)
    except SchemaError as exc:
        raise SchemaError(f"line 1: {exc}") from exc

    snapshots = []
    for line_no in range(2, len(lines) + 1):
        if not lines[line_no - 1].strip():
            continue
        row = parse_json(line_no)
        jsonfields.fields(row, _SNAPSHOT_FIELDS, f"line {line_no}")
        # float() and numpy read a string or a boolean as a number. Only a
        # row's keys are JSON strings, so any other string adds quotes, and a
        # boolean is a bare true or false: three scans of the line find
        # either, where a check per value would cost a loop.
        text = lines[line_no - 1]
        if text.count('"') != 2 * len(row) or "true" in text or "false" in text:
            raise ParseError("window_start, y, X, E and R must hold JSON numbers only",
                             line_number=line_no)
        try:
            snap = Snapshot(
                window_start=float(row["window_start"]),
                node_features=np.asarray(row["X"], dtype=np.float64),
                edge_features=np.asarray(row["E"], dtype=np.float64).reshape(
                    -1, FEATURE_WIDTHS["edge"]),
                resource_features=np.asarray(row["R"], dtype=np.float64),
                label=None if row.get("y") is None else float(row["y"]),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"malformed snapshot: {exc}", line_number=line_no) from exc
        snapshots.append(snap)

    dataset = Dataset(topology=topology, snapshots=tuple(snapshots), norm_stats=norm_stats)
    dataset.validate()
    return dataset
