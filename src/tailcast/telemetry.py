"""Turn raw metric streams into supervised snapshots.

The ingestion path: parse exposition-format text into samples, group them
into per-series time sequences, slide a 30 s window every 5 s, convert
cumulative counters to rates, average gauges, attach the window's P95
latency label, and emit a :class:`~tailcast.statgraph.Dataset`.
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


def _parse_line(line: str, line_no: int) -> MetricSample:
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
    rest = line[i:].split()
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
    it is skipped and recorded in ``result.skipped``.
    """
    result = ParseResult(samples=[])
    # split on newlines only: splitlines() would also break on exotic
    # separators (\x1c..\x1e etc.) that are legal inside label values
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            result.samples.append(_parse_line(line, line_no))
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


def _window_slice(series: list[tuple[float, float]], window: tuple[float, float]) -> list[tuple[float, float]]:
    """Samples with start <= timestamp <= end; series must be time-sorted."""
    start, end = window
    lo = bisect_left(series, (start, -math.inf))
    hi = bisect_right(series, (end, math.inf))
    return series[lo:hi]


def counter_to_rate(
    series: list[tuple[float, float]], window: tuple[float, float]
) -> float | None:
    """Per-second rate of a cumulative counter over one window.

    Uses samples with timestamps inside [start, end]. A decrease between
    consecutive samples is a counter reset; the post-reset value counts as
    the increase for that step. Returns None when fewer than two samples
    cover the window (the caller drops the snapshot).
    """
    in_win = _window_slice(series, window)
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
    start, end = window
    return increase / (end - start)


def gauge_mean(series: list[tuple[float, float]], window: tuple[float, float]) -> float | None:
    in_win = _window_slice(series, window)
    if not in_win:
        return None
    return float(np.mean([v for _, v in in_win]))


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
            try:
                t, v = float(row[0]), float(row[1])
            except (IndexError, ValueError) as exc:
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
    parse_skipped: int = 0


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


class _EdgeTable:
    """Traffic series split into topology edges and node-level aggregates."""

    def __init__(self, topology: Topology, strict: bool):
        self.topology = topology
        self.strict = strict
        self.edge_pos = topology.edge_index()
        # metric -> edge row -> series
        self.per_edge: dict[str, dict[int, list[tuple[float, float]]]] = {m: {} for m in EDGE_METRICS}
        # metric -> destination node -> list of series (summed as rates)
        self.by_destination: dict[str, dict[int, list[list[tuple[float, float]]]]] = {
            m: {} for m in EDGE_METRICS}
        # response bytes aggregate keyed by the calling side
        self.by_source: dict[int, list[list[tuple[float, float]]]] = {}
        self.unknown = 0

    def add(self, key: SeriesKey, series: list[tuple[float, float]]) -> None:
        name, label_items = key
        labels = dict(label_items)
        src_name = labels.get("source_workload")
        dst_name = labels.get("destination_workload")
        if dst_name is None or dst_name not in self.topology.services:
            if self.strict:
                raise SchemaError(f"{name}: unknown destination_workload {dst_name!r}")
            self.unknown += 1
            return
        dst = self.topology.services.index(dst_name)
        # Sources outside the topology are external callers (user traffic):
        # they count toward the destination aggregates but have no edge row.
        src = None
        if src_name is not None and src_name in self.topology.services:
            src = self.topology.services.index(src_name)
            if (src, dst) not in self.edge_pos:
                # A pair of known services that is not a declared dependency.
                if self.strict:
                    raise SchemaError(f"{name}: ({src_name}, {dst_name}) is not a topology edge")
                self.unknown += 1
                return
        self.by_destination[name].setdefault(dst, []).append(series)
        if src is not None:
            self.per_edge[name][self.edge_pos[(src, dst)]] = series
            if name == METRIC_RESPONSE_BYTES:
                self.by_source.setdefault(src, []).append(series)


def _sum_rates(series_list, window) -> float | None:
    """Sum of counter rates across series; absent series contribute zero."""
    total = 0.0
    for series in series_list:
        rate = counter_to_rate(series, window)
        if rate is None:
            return None
        total += rate
    return total


def build_snapshots(
    samples: list[MetricSample],
    topology: Topology,
    spec: WindowSpec,
    latency_samples: list[tuple[float, float]],
    strict: bool = True,
) -> tuple[Dataset, IngestStats]:
    """Assemble windowed snapshots from parsed metric samples.

    Per window: node rows carry (request rate, request-byte rate,
    response-byte rate) per destination service; edge rows the same per
    declared dependency; resource rows carry (cpu rate, memory bytes, cpu
    period, net receive rate, net transmit rate). The label is the window's
    nearest-rank P95 over latency samples completing inside it. Windows with
    no label or with under-covered series are dropped and counted, never
    imputed.
    """
    stats = IngestStats()
    series = group_series(samples)

    edges = _EdgeTable(topology, strict)
    resource: dict[tuple[str, int], list[tuple[float, float]]] = {}
    for key, values in series.items():
        name, label_items = key
        labels = dict(label_items)
        if name in EDGE_METRICS:
            edges.add(key, values)
        elif name in {m for m, _ in RESOURCE_METRICS}:
            workload = labels.get("workload")
            if workload is None or workload not in topology.services:
                if strict:
                    raise SchemaError(f"{name}: unknown workload {workload!r}")
                stats.unknown_label_series += 1
                continue
            resource[(name, topology.services.index(workload))] = values
        else:
            if strict:
                raise SchemaError(f"unknown metric {name!r}")
            stats.unknown_label_series += 1
    stats.unknown_label_series += edges.unknown

    scrape_times = [t for values in series.values() for t, _ in values]
    if not scrape_times:
        return Dataset(topology=topology, snapshots=()), stats
    t0 = min(scrape_times)
    duration = max(scrape_times) - t0

    windows = [(t0 + a, t0 + b) for a, b in sliding_windows(duration, spec)]
    stats.windows_total = len(windows)

    num_v, num_e = topology.num_services, topology.num_edges
    latency_sorted = sorted(latency_samples)
    snapshots = []
    for window in windows:
        start, end = window
        # Label samples attach to the window (start, end]: a request whose
        # completion time equals the window start belongs to the previous one.
        lo = bisect_right(latency_sorted, (start, math.inf))
        hi = bisect_right(latency_sorted, (end, math.inf))
        in_win = [v for _, v in latency_sorted[lo:hi]]
        if not in_win:
            stats.dropped_no_label += 1
            continue
        label = window_p95(in_win)

        ok = True
        node = np.zeros((num_v, 3))
        for col, metric in enumerate(EDGE_METRICS):
            for svc in range(num_v):
                if metric == METRIC_RESPONSE_BYTES:
                    series_list = edges.by_source.get(svc, [])
                else:
                    series_list = edges.by_destination[metric].get(svc, [])
                rate = _sum_rates(series_list, window)
                if rate is None:
                    ok = False
                    break
                node[svc, col] = rate
            if not ok:
                break

        edge = np.zeros((num_e, 3))
        if ok:
            for col, metric in enumerate(EDGE_METRICS):
                for pos, ser in edges.per_edge[metric].items():
                    rate = counter_to_rate(ser, window)
                    if rate is None:
                        ok = False
                        break
                    edge[pos, col] = rate
                if not ok:
                    break

        res = np.zeros((num_v, len(RESOURCE_METRICS)))
        if ok:
            for svc in range(num_v):
                for col, (metric, kind) in enumerate(RESOURCE_METRICS):
                    ser = resource.get((metric, svc))
                    if ser is None:
                        ok = False
                        break
                    value = counter_to_rate(ser, window) if kind == "counter" else gauge_mean(ser, window)
                    if value is None:
                        ok = False
                        break
                    res[svc, col] = value
                if not ok:
                    break

        if not ok:
            stats.dropped_missing_data += 1
            continue

        snapshots.append(Snapshot(
            window_start=start,
            node_features=node,
            edge_features=edge,
            resource_features=res,
            label=label,
        ))
        stats.windows_built += 1

    dataset = Dataset(topology=topology, snapshots=tuple(snapshots))
    dataset.validate()
    return dataset, stats
