"""Turn raw metric streams into supervised snapshots.

The ingestion path: parse exposition-format text into samples, group them
into per-series time sequences, slide a 30 s window every 5 s, convert
cumulative counters to rates, average gauges, attach the window's P95
latency label, and emit a :class:`~tailcast.statgraph.Dataset`.

Assembly is one loop over the series in order of first appearance: each
series is classified from its metric and labels, windowed once, and written
into its node, edge or resource cell, so its contribution is computed apart
from every other series. :class:`IngestStats` reports what was kept and
dropped: window counts, unlabelled and under-covered windows, series with
unknown labels, skipped malformed lines, and per series the labelled windows
it left under-covered.

Both hot paths do per-series work. The parser runs its exact character
grammar once per distinct ``name{labels}`` head and reuses the result for
later lines with the same head. Windowing finds every window's sample range
in a series with one ``searchsorted`` and computes each feature for all
windows at once; a window holding a counter reset goes through
:func:`counter_to_rate`, the one definition of the reset rule. The
features equal the per-window definitions bit for bit.
"""

from __future__ import annotations

import csv
import logging
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError, SchemaError
from .statgraph import Dataset, Snapshot, Topology

logger = logging.getLogger(__name__)

# Metric names scraped from a service mesh + container runtime.
METRIC_REQUESTS = "istio_requests_total"
METRIC_REQUEST_BYTES = "istio_request_bytes_sum"
METRIC_RESPONSE_BYTES = "istio_response_bytes_sum"
METRIC_CPU = "container_cpu_usage_seconds_total"
METRIC_MEMORY = "container_memory_usage_bytes"
METRIC_CPU_PERIOD = "container_spec_cpu_period"
METRIC_NET_RX = "container_network_receive_bytes_total"
METRIC_NET_TX = "container_network_transmit_bytes_total"

EDGE_METRICS = (METRIC_REQUESTS, METRIC_REQUEST_BYTES, METRIC_RESPONSE_BYTES)
# (metric, kind): counters become rates, gauges become in-window means.
RESOURCE_METRICS = (
    (METRIC_CPU, "counter"),
    (METRIC_MEMORY, "gauge"),
    (METRIC_CPU_PERIOD, "gauge"),
    (METRIC_NET_RX, "counter"),
    (METRIC_NET_TX, "counter"),
)


@dataclass
class MetricSample:
    """One parsed exposition line."""

    name: str
    labels: dict[str, str]
    value: float
    timestamp: float | None = None


@dataclass(frozen=True)
class WindowSpec:
    """Sliding-window geometry: 30 s windows emitted every 5 s by default."""

    length: float = 30.0
    stride: float = 5.0

    def __post_init__(self):
        if not (0 < self.stride <= self.length):
            raise ValueError(f"need 0 < stride <= length, got stride={self.stride} length={self.length}")


@dataclass
class ParseResult:
    samples: list[MetricSample]
    skipped: list[tuple[int, str]] = field(default_factory=list)


# ---------------------------------------------------------------------------
# exposition text parsing
# ---------------------------------------------------------------------------

_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_:")
_NAME_CHARS = _NAME_START | set("0123456789")


def _parse_label_block(text: str, start: int, line_no: int) -> tuple[dict[str, str], int]:
    """Parse '{k="v",...}' starting at the '{'; returns (labels, index past '}')."""
    labels: dict[str, str] = {}
    i = start + 1
    n = len(text)
    while True:
        while i < n and text[i] == " ":
            i += 1
        if i < n and text[i] == "}":
            return labels, i + 1
        j = i
        while j < n and text[j] in _NAME_CHARS:
            j += 1
        if j == i or j >= n or text[j] != "=":
            raise ParseError("malformed label name", line_number=line_no, line=text)
        key = text[i:j]
        if j + 1 >= n or text[j + 1] != '"':
            raise ParseError("label value must be quoted", line_number=line_no, line=text)
        i = j + 2
        out = []
        while i < n:
            ch = text[i]
            if ch == "\\":
                if i + 1 >= n:
                    raise ParseError("dangling escape in label value", line_number=line_no, line=text)
                nxt = text[i + 1]
                if nxt == "\\":
                    out.append("\\")
                elif nxt == '"':
                    out.append('"')
                elif nxt == "n":
                    out.append("\n")
                else:
                    raise ParseError(f"unsupported escape \\{nxt}", line_number=line_no, line=text)
                i += 2
                continue
            if ch == '"':
                break
            out.append(ch)
            i += 1
        if i >= n or text[i] != '"':
            raise ParseError("unterminated label value", line_number=line_no, line=text)
        labels[key] = "".join(out)
        i += 1
        if i < n and text[i] == ",":
            i += 1


def _parse_head(line: str, line_no: int) -> tuple[str, dict[str, str], int]:
    """Parse the 'name{labels}' head of a line; returns (name, labels, index past it)."""
    i = 0
    n = len(line)
    if n == 0 or line[0] not in _NAME_START:
        raise ParseError("metric name must start with [a-zA-Z_:]", line_number=line_no, line=line)
    while i < n and line[i] in _NAME_CHARS:
        i += 1
    name = line[:i]
    labels: dict[str, str] = {}
    if i < n and line[i] == "{":
        labels, i = _parse_label_block(line, i, line_no)
    return name, labels, i


def _parse_line(line: str, line_no: int, heads: dict[str, tuple[str, dict[str, str]]]) -> MetricSample:
    """Parse one line, reusing a head that ``heads`` holds from an earlier line.

    The lookup key is the line up to its last '}', where a labelled head ends
    (a value or timestamp holds none). A key is stored only as the exact text
    :func:`_parse_head` consumed, and that parse reads nothing past the
    closing '}', so a hit would parse the same way again; a miss, and every
    head error, goes through :func:`_parse_head`. Heads without labels are
    stored but never found: a key ends with '}' or is empty.
    """
    end = line.rfind("}") + 1
    head = heads.get(line[:end])
    if head is None:
        name, labels, end = _parse_head(line, line_no)
        head = heads[line[:end]] = (name, labels)
    name, labels = head[0], dict(head[1])
    rest = line[end:].split()
    if len(rest) not in (1, 2):
        raise ParseError("expected 'value [timestamp]' after metric", line_number=line_no, line=line)
    try:
        value = float(rest[0])
    except ValueError:
        raise ParseError(f"bad sample value {rest[0]!r}", line_number=line_no, line=line) from None
    timestamp = None
    if len(rest) == 2:
        try:
            timestamp = float(rest[1])
        except ValueError:
            raise ParseError(f"bad timestamp {rest[1]!r}", line_number=line_no, line=line) from None
        if not math.isfinite(timestamp):
            raise ParseError("non-finite timestamp", line_number=line_no, line=line)
    if math.isnan(value):
        raise ParseError("NaN sample value", line_number=line_no, line=line)
    return MetricSample(name=name, labels=labels, value=value, timestamp=timestamp)


def parse_exposition(text: str, strict: bool = True) -> ParseResult:
    """Parse exposition-format text (timestamps are seconds).

    Comment (``#``) and blank lines are skipped. In strict mode a malformed
    line raises :class:`ParseError` carrying the line number; in lenient mode
    it is skipped and recorded in ``result.skipped``. Samples never share a
    label dict.
    """
    result = ParseResult(samples=[])
    heads: dict[str, tuple[str, dict[str, str]]] = {}
    # split on newlines only: splitlines() would also break on exotic
    # separators (\x1c..\x1e etc.) that are legal inside label values
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            result.samples.append(_parse_line(line, line_no, heads))
        except ParseError as exc:
            if strict:
                raise
            result.skipped.append((line_no, str(exc)))
            logger.warning("skipping malformed line %d: %s", line_no, exc)
    return result


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def format_sample(sample: MetricSample) -> str:
    """Inverse of the parser: format one sample as an exposition line."""
    label_part = ""
    if sample.labels:
        inner = ",".join(f'{k}="{_escape(v)}"' for k, v in sample.labels.items())
        label_part = "{" + inner + "}"
    line = f"{sample.name}{label_part} {sample.value!r}"
    if sample.timestamp is not None:
        line += f" {sample.timestamp!r}"
    return line


def format_exposition(samples: list[MetricSample]) -> str:
    return "\n".join(format_sample(s) for s in samples) + ("\n" if samples else "")


# ---------------------------------------------------------------------------
# windowing primitives
# ---------------------------------------------------------------------------


def sliding_windows(stream_duration: float, spec: WindowSpec) -> list[tuple[float, float]]:
    """Windows [k*stride, k*stride + length] whose end fits in the stream."""
    if stream_duration < spec.length:
        logger.warning(
            "stream duration %.3fs shorter than window length %.3fs; no windows",
            stream_duration, spec.length)
        return []
    count = int(math.floor((stream_duration - spec.length) / spec.stride)) + 1
    return [(k * spec.stride, k * spec.stride + spec.length) for k in range(count)]


def counter_to_rate(
    series: list[tuple[float, float]], window: tuple[float, float]
) -> float | None:
    """Per-second rate of a cumulative counter over one window.

    Uses samples with timestamps inside [start, end]; series must be
    time-sorted. A decrease between consecutive samples is a counter reset;
    the post-reset value counts as the increase for that step. Returns None
    when fewer than two samples cover the window (the caller drops the
    snapshot).
    """
    start, end = window
    in_win = series[bisect_left(series, (start, -math.inf)):bisect_right(series, (end, math.inf))]
    if len(in_win) < 2:
        return None
    # Telescope each monotone run (last - first) instead of summing per-step
    # deltas: a monotone counter then yields a bit-exact increase, so
    # refining the sampling cannot change the rate.
    increase = 0.0
    run_first = in_win[0][1]
    prev = in_win[0][1]
    for _, cur in in_win[1:]:
        if cur < prev:  # counter reset; the new run contributes from zero
            increase += prev - run_first
            run_first = 0.0
        prev = cur
    increase += prev - run_first
    return increase / (end - start)


def window_p95(latency_samples) -> float:
    """Nearest-rank 95th percentile: the ceil(0.95*n)-th order statistic."""
    values = sorted(latency_samples)
    if not values:
        raise ValueError("cannot take the P95 of an empty window")
    rank = math.ceil(0.95 * len(values))
    return values[rank - 1]


# ---------------------------------------------------------------------------
# latency sidecar
# ---------------------------------------------------------------------------

LATENCY_CSV_HEADER = ("timestamp", "latency_seconds")


def read_latency_csv(path) -> list[tuple[float, float]]:
    """Read the ground-truth sidecar: one (timestamp, latency_seconds) row each."""
    rows: list[tuple[float, float]] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != LATENCY_CSV_HEADER:
            raise ParseError(f"expected header {','.join(LATENCY_CSV_HEADER)!r}", line_number=1)
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise ParseError(f"expected 2 fields, got {len(row)}", line_number=line_no)
            try:
                t, v = float(row[0]), float(row[1])
            except ValueError as exc:
                raise ParseError(f"bad latency row: {exc}", line_number=line_no) from exc
            if not math.isfinite(t):
                raise ParseError(f"timestamp must be finite, got {t}", line_number=line_no)
            if not (math.isfinite(v) and v > 0):
                raise ParseError(f"latency must be finite and > 0, got {v}", line_number=line_no)
            rows.append((t, v))
    return rows


def write_latency_csv(path, records: list[tuple[float, float]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(LATENCY_CSV_HEADER) + "\n")
        for t, v in records:
            fh.write(f"{t!r},{v!r}\n")


# ---------------------------------------------------------------------------
# snapshot assembly
# ---------------------------------------------------------------------------


@dataclass
class IngestStats:
    """Counters describing what the ingestion pass kept and dropped."""

    windows_total: int = 0
    windows_built: int = 0
    dropped_no_label: int = 0
    dropped_missing_data: int = 0
    unknown_label_series: int = 0
    # 'metric{service}' or 'metric{source->destination}' -> labelled windows
    # the series left under-covered (one window may name several series)
    dropped_missing_by_series: dict[str, int] = field(default_factory=dict)
    parse_skipped: int = 0  # malformed lines a lenient parse skipped; set by the caller


SeriesKey = tuple[str, tuple[tuple[str, str], ...]]


def _series_key(sample: MetricSample) -> SeriesKey:
    return sample.name, tuple(sorted(sample.labels.items()))


def group_series(samples: list[MetricSample]) -> dict[SeriesKey, list[tuple[float, float]]]:
    """Group samples into per-series (timestamp, value) sequences, time-sorted."""
    series: dict[SeriesKey, list[tuple[float, float]]] = {}
    for s in samples:
        if s.timestamp is None:
            raise SchemaError(f"sample of {s.name!r} lacks a timestamp; cannot window it")
        series.setdefault(_series_key(s), []).append((s.timestamp, s.value))
    for values in series.values():
        values.sort(key=lambda tv: tv[0])
    return series


def _window_bounds(series, starts, ends):
    """Values of a time-sorted series, and per window the [lo, hi) index range
    of its samples with start <= timestamp <= end."""
    ts, vs = np.array(series, dtype=np.float64).T.copy()
    return vs, np.searchsorted(ts, starts, side="left"), np.searchsorted(ts, ends, side="right")


def _counter_rates(series, starts, ends) -> tuple[np.ndarray, np.ndarray]:
    """:func:`counter_to_rate` over every window at once, bit for bit.

    Returns the rates and the mask of windows with at least two samples
    (rates elsewhere are 0). A window without a decrease is one monotone run,
    whose telescoped increase is last - first; a window with a reset goes
    through :func:`counter_to_rate`.
    """
    vs, lo, hi = _window_bounds(series, starts, ends)
    covered = hi - lo >= 2
    decreases = np.concatenate(([0], np.cumsum(vs[1:] < vs[:-1])))
    lo, last = lo[covered], hi[covered] - 1
    rates = np.zeros(len(starts))
    # + 0.0 as the loop's 0.0 + increase: a -0.0 difference becomes 0.0
    rates[covered] = (vs[last] - vs[lo] + 0.0) / (ends[covered] - starts[covered])
    for w in np.flatnonzero(covered)[decreases[last] > decreases[lo]]:
        rates[w] = counter_to_rate(series, (float(starts[w]), float(ends[w])))
    return rates, covered


def _gauge_means(series, starts, ends) -> tuple[np.ndarray, np.ndarray]:
    """Mean of each window's samples, and the mask of windows with any.

    Windows are grouped by sample count n and each group's (windows, n)
    block is reduced along its rows, which numpy sums as it does the 1-D
    ``np.mean`` of one window's samples.
    """
    vs, lo, hi = _window_bounds(series, starts, ends)
    counts = hi - lo
    means = np.zeros(len(starts))
    for n in np.unique(counts[counts > 0]):
        group = np.flatnonzero(counts == n)
        means[group] = vs[lo[group, None] + np.arange(n)].mean(axis=1)
    return means, counts > 0


def build_snapshots(
    samples: list[MetricSample],
    topology: Topology,
    spec: WindowSpec,
    latency_samples: list[tuple[float, float]],
    strict: bool = True,
) -> tuple[Dataset, IngestStats]:
    """Assemble windowed snapshots from parsed metric samples.

    Per window: node rows carry the request rate and request-byte rate a
    service receives and the response-byte rate of the calls it makes; edge
    rows carry the three rates per declared dependency; resource rows carry
    (cpu rate, memory bytes, cpu period, net receive rate, net transmit
    rate). The label is the window's nearest-rank P95 over latency samples
    completing inside it.

    One pass over the series, in order of first appearance, classifies each
    series by its metric and labels, computes its window values once and
    writes them into its cells: a node cell sums its series in that order,
    and a later duplicate of an edge row or resource cell replaces the
    earlier one. A series naming an unknown service or metric raises
    :class:`SchemaError` (strict) or is counted in ``unknown_label_series``.
    Windows with no label or with an under-covered series are dropped and
    counted, never imputed; a resource slot without a series under-covers
    every window.
    """
    stats = IngestStats()
    series = group_series(samples)
    if not series:
        return Dataset(topology=topology, snapshots=()), stats
    # each series is time-sorted, so its first and last samples bound it
    t0 = min(values[0][0] for values in series.values())
    duration = max(values[-1][0] for values in series.values()) - t0

    windows = np.array(sliding_windows(duration, spec), dtype=np.float64).reshape(-1, 2)
    starts, ends = t0 + windows[:, 0], t0 + windows[:, 1]
    num_w = stats.windows_total = len(starts)

    # Label samples attach to the window (start, end]: a request whose
    # completion time equals the window start belongs to the previous one.
    latency = np.array(latency_samples, dtype=np.float64).reshape(-1, 2)
    order = np.argsort(latency[:, 0], kind="stable")
    latency_t, latency_v = latency[order, 0], latency[order, 1].tolist()
    label_lo = np.searchsorted(latency_t, starts, side="right")
    label_hi = np.searchsorted(latency_t, ends, side="right")
    labelled = label_hi > label_lo
    stats.dropped_no_label = int(np.count_nonzero(~labelled))

    num_v = topology.num_services
    node = np.zeros((num_w, num_v, 3))
    edge = np.zeros((num_w, topology.num_edges, 3))
    res = np.zeros((num_w, num_v, len(RESOURCE_METRICS)))
    service_pos = {service: i for i, service in enumerate(topology.services)}
    edge_pos = topology.edge_index()
    resource_cols = {metric: (col, _counter_rates if kind == "counter" else _gauge_means)
                     for col, (metric, kind) in enumerate(RESOURCE_METRICS)}
    # series name -> windows it leaves under-covered, for every series read
    short: dict[str, np.ndarray] = {}

    def unknown(message: str) -> None:
        if strict:
            raise SchemaError(message)
        stats.unknown_label_series += 1

    for (name, label_items), values in series.items():
        labels = dict(label_items)
        if name in EDGE_METRICS:
            src_name = labels.get("source_workload")
            dst_name = labels.get("destination_workload")
            src, dst = service_pos.get(src_name), service_pos.get(dst_name)
            if dst is None:
                unknown(f"{name}: unknown destination_workload {dst_name!r}")
                continue
            # A source outside the topology is an external caller (user
            # traffic): it has no edge row. Known services must be an edge.
            if src is not None and (src, dst) not in edge_pos:
                unknown(f"{name}: ({src_name}, {dst_name}) is not a topology edge")
                continue
            # response bytes sum by the calling side, which an external
            # caller lacks: such a series feeds no row and is not read
            row = src if name == METRIC_RESPONSE_BYTES else dst
            if row is None:
                continue
            col = EDGE_METRICS.index(name)
            rates, covered = _counter_rates(values, starts, ends)
            key = f"{name}{{{src_name}->{dst_name}}}"
            short[key] = short.get(key, False) | ~covered
            # node sums add series in order, as a running total from 0.0
            node[:, row, col] += rates
            if src is not None:
                edge[:, edge_pos[(src, dst)], col] = rates  # a later duplicate wins
        elif name in resource_cols:
            workload = labels.get("workload")
            svc = service_pos.get(workload)
            if svc is None:
                unknown(f"{name}: unknown workload {workload!r}")
                continue
            col, window_values = resource_cols[name]
            res[:, svc, col], covered = window_values(values, starts, ends)
            short[f"{name}{{{workload}}}"] = ~covered  # a later duplicate wins
        else:
            unknown(f"unknown metric {name!r}")
    # a resource slot without a series leaves every window under-covered
    for service in topology.services:
        for metric, _ in RESOURCE_METRICS:
            short.setdefault(f"{metric}{{{service}}}", np.ones(num_w, dtype=bool))

    keep = labelled.copy()
    for name, mask in short.items():
        dropped = int(np.count_nonzero(mask & labelled))
        if dropped:
            stats.dropped_missing_by_series[name] = dropped
            keep &= ~mask
    stats.dropped_missing_data = int(np.count_nonzero(labelled & ~keep))
    stats.windows_built = int(np.count_nonzero(keep))

    window_starts = starts.tolist()
    snapshots = tuple(
        Snapshot(
            window_start=window_starts[w],
            node_features=node[w],
            edge_features=edge[w],
            resource_features=res[w],
            label=window_p95(latency_v[label_lo[w]:label_hi[w]]),
        )
        for w in np.flatnonzero(keep))
    dataset = Dataset(topology=topology, snapshots=snapshots)
    dataset.validate()
    return dataset, stats
