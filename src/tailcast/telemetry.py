"""Turn raw metric streams into supervised snapshots.

The ingestion path: parse exposition-format text straight into per-series
columns, slide a 30 s window every 5 s, convert cumulative counters to
rates, average gauges, attach the window's P95 latency label, and emit a
:class:`~tailcast.statgraph.Dataset`.

The parser fills a :class:`SeriesColumns`, one pair of ``array('d')``
buffers (timestamps, values) per series. Its exact character grammar runs
once per distinct ``name{labels}`` head text, which is then mapped to its
series: no per-sample object, label dict or series key is made.

Assembly is one loop over the series in order of first appearance: each
series is sorted by time with one stable ``argsort``, classified from its
metric and labels, windowed once, and written into its node, edge or
resource cell, so its contribution is computed apart from every other
series. Windowing finds every window's sample range in a series with one
``searchsorted`` and computes each feature for all windows at once; a
window holding a counter reset goes through :func:`counter_to_rate`, the
one definition of the reset rule. The features equal the per-window
definitions bit for bit. :class:`IngestStats` reports what was kept and
dropped: window counts, unlabelled and under-covered windows, series with
unknown labels, skipped malformed lines, and per series the labelled
windows it left under-covered.

The ground-truth latency arrives as one ``(N, 2)`` float64 array of
(completion time, latency) rows: :func:`read_latency_csv` returns it, and
:func:`build_snapshots` takes that array or a list of pairs through one
``np.asarray``. The latency column is sorted by time once, each window's
samples are one ``searchsorted`` range of it, and each label is
:func:`window_p95` of that float64 slice, the nearest-rank order statistic
found by ``np.partition``. The finished dataset is checked by
:meth:`~tailcast.statgraph.Dataset.validate` in whole-array passes.
"""

from __future__ import annotations

import csv
import logging
import math
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError, SchemaError
from .statgraph import FEATURE_SCHEMA, FEATURE_WIDTHS, RESOURCE_METRICS, Dataset, Snapshot, Topology

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class WindowSpec:
    """Sliding-window geometry: 30 s windows emitted every 5 s by default."""

    length: float = 30.0
    stride: float = 5.0

    def __post_init__(self):
        if not (0 < self.stride <= self.length):
            raise ValueError(f"need 0 < stride <= length, got stride={self.stride} length={self.length}")


SeriesKey = tuple[str, tuple[tuple[str, str], ...]]


@dataclass
class SeriesColumns:
    """Parsed samples by series: one pair of float64 buffers per series.

    ``series`` maps ``(name, sorted label items)`` to its (timestamps,
    values) ``array('d')`` buffers, in order of first appearance; a series
    keeps its samples in line order. A sample without a timestamp is held
    with a NaN timestamp, and ``untimed`` is the metric name of the first
    such sample in line order. ``len()`` is the number of samples.
    """

    series: dict[SeriesKey, tuple[array, array]] = field(default_factory=dict)
    untimed: str | None = None

    def __len__(self) -> int:
        return sum(len(ts) for ts, _ in self.series.values())

    def extend(self, other: SeriesColumns) -> None:
        """Append ``other``'s samples after these, as if its lines came next."""
        for key, (ts, vs) in other.series.items():
            mine_ts, mine_vs = self.series.setdefault(key, (array("d"), array("d")))
            mine_ts.extend(ts)
            mine_vs.extend(vs)
        if self.untimed is None:
            self.untimed = other.untimed


@dataclass
class ParseResult:
    samples: SeriesColumns
    skipped: list[tuple[int, str]] = field(default_factory=list)


# ---------------------------------------------------------------------------
# exposition text parsing
# ---------------------------------------------------------------------------

_PARSE_BLOCK = 1 << 20  # characters of text split into lines at a time by parse_exposition
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


def _line_blocks(text: str) -> Iterator[list[str]]:
    """``text.split("\\n")`` as consecutive lists of lines, one per block of
    about ``_PARSE_BLOCK`` characters: a block ends at the first newline at
    least that far into it (or at the end of the text), so no line is cut."""
    start = 0
    while start <= len(text):
        stop = text.find("\n", start + _PARSE_BLOCK)
        if stop < 0:
            stop = len(text)
        # split on newlines only: splitlines() would also break on exotic
        # separators (\x1c..\x1e etc.) that are legal inside label values
        yield text[start:stop].split("\n")
        start = stop + 1


def parse_exposition(text: str, strict: bool = True) -> ParseResult:
    """Parse exposition-format text (timestamps are seconds) into columns.

    Comment (``#``) and blank lines are skipped. In strict mode a malformed
    line raises :class:`ParseError` carrying the line number; in lenient mode
    it is skipped and recorded in ``result.skipped``.

    A line's head is looked up by the line up to its last '}', where a
    labelled head ends (a value or timestamp holds none). A head text is
    stored only as the exact text :func:`_parse_head` consumed, from a line
    that parsed, and that parse reads nothing past the closing '}', so a hit
    would parse the same way again; a miss, and every head error, goes
    through :func:`_parse_head`. Heads without labels are stored but never
    found: a lookup key ends with '}' or is empty.

    The lines are ``text.split("\\n")``'s, but no list of every line is
    held: :func:`_line_blocks` splits the text one block at a time, so the
    parse holds one block's lines besides the columns it fills.
    """
    columns = SeriesColumns()
    result = ParseResult(samples=columns)
    # head text -> (metric name, timestamp buffer, value buffer) of its series
    heads: dict[str, tuple[str, array, array]] = {}
    line_no = 0
    for lines in _line_blocks(text):
        for line_no, raw in enumerate(lines, start=line_no + 1):
            line = raw.strip()
            if not line or line[0] == "#":
                continue
            end = line.rfind("}") + 1
            head = heads.get(line[:end])
            try:
                if head is None:
                    name, labels, end = _parse_head(line, line_no)
                rest = line[end:].split()
                if not 0 < len(rest) < 3:
                    raise ParseError("expected 'value [timestamp]' after metric", line_number=line_no, line=line)
                try:
                    value = float(rest[0])
                except ValueError:
                    raise ParseError(f"bad sample value {rest[0]!r}", line_number=line_no, line=line) from None
                timestamp = math.nan
                if len(rest) == 2:
                    try:
                        timestamp = float(rest[1])
                    except ValueError:
                        raise ParseError(f"bad timestamp {rest[1]!r}", line_number=line_no, line=line) from None
                    if not math.isfinite(timestamp):
                        raise ParseError("non-finite timestamp", line_number=line_no, line=line)
                if value != value:
                    raise ParseError("NaN sample value", line_number=line_no, line=line)
            except ParseError as exc:
                if strict:
                    raise
                result.skipped.append((line_no, str(exc)))
                logger.warning("skipping malformed line %d: %s", line_no, exc)
                continue
            if head is None:
                key = (name, tuple(sorted(labels.items())))
                head = heads[line[:end]] = (name, *columns.series.setdefault(key, (array("d"), array("d"))))
            head[1].append(timestamp)
            head[2].append(value)
            if len(rest) == 1 and columns.untimed is None:
                columns.untimed = head[0]
        del lines  # before the next block is split, so one block's lines are alive at a time
    return result


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
    """Nearest-rank 95th percentile: the ceil(0.95*n)-th order statistic.

    ``np.partition`` (introselect) puts that order statistic where a full
    sort would, so the value is the sorted one's without a sort.
    """
    values = np.asarray(latency_samples, dtype=np.float64)
    if not values.size:
        raise ValueError("cannot take the P95 of an empty window")
    k = math.ceil(0.95 * values.size) - 1
    return float(np.partition(values, k)[k])


# ---------------------------------------------------------------------------
# latency sidecar
# ---------------------------------------------------------------------------

LATENCY_CSV_HEADER = ("timestamp", "latency_seconds")
_CSV_BLOCK = 4096  # rows turned into Python floats at a time by write_latency_csv


def read_latency_csv(path) -> np.ndarray:
    """Read the ground-truth sidecar as an ``(N, 2)`` float64 array of
    (timestamp, latency_seconds) rows, in file order.

    Rows are checked one at a time, so the first bad row in the file raises
    :class:`ParseError` with its line number. A checked row is appended to
    two ``array('d')`` columns, so no Python float per value is kept.
    """
    ts, vs = array("d"), array("d")
    add_t, add_v = ts.append, vs.append
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
            add_t(t)
            add_v(v)
    return np.column_stack((np.frombuffer(ts), np.frombuffer(vs)))


def write_latency_csv(path, records) -> None:
    """Write (timestamp, latency_seconds) rows, a list of pairs or an ``(N, 2)``
    array, each float as its shortest ``repr``.

    Rows are converted and written ``_CSV_BLOCK`` at a time, so no Python
    copy of every row is held at once.
    """
    rows = np.asarray(records, dtype=np.float64).reshape(-1, 2)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(LATENCY_CSV_HEADER) + "\n")
        for start in range(0, len(rows), _CSV_BLOCK):
            fh.writelines(f"{t!r},{v!r}\n" for t, v in rows[start:start + _CSV_BLOCK].tolist())


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


def _counter_rates(ts, vs, starts, ends) -> tuple[np.ndarray, np.ndarray]:
    """:func:`counter_to_rate` over every window at once, bit for bit.

    Returns the rates and the mask of windows with at least two samples
    (rates elsewhere are 0). A window without a decrease is one monotone run,
    whose telescoped increase is last - first; a window with a reset goes
    through :func:`counter_to_rate`, given that window's (t, v) pairs.
    """
    # per window, the [lo, hi) range of samples with start <= t <= end
    lo, hi = np.searchsorted(ts, starts, side="left"), np.searchsorted(ts, ends, side="right")
    covered = hi - lo >= 2
    decreases = np.concatenate(([0], np.cumsum(vs[1:] < vs[:-1])))
    first, last = lo[covered], hi[covered] - 1
    rates = np.zeros(len(starts))
    # + 0.0 as the loop's 0.0 + increase: a -0.0 difference becomes 0.0
    rates[covered] = (vs[last] - vs[first] + 0.0) / (ends[covered] - starts[covered])
    for w in np.flatnonzero(covered)[decreases[last] > decreases[first]]:
        window = slice(lo[w], hi[w])
        pairs = list(zip(ts[window].tolist(), vs[window].tolist()))
        rates[w] = counter_to_rate(pairs, (float(starts[w]), float(ends[w])))
    return rates, covered


def _gauge_means(ts, vs, starts, ends) -> tuple[np.ndarray, np.ndarray]:
    """Mean of each window's samples, and the mask of windows with any.

    Windows are grouped by sample count n and each group's (windows, n)
    block is reduced along its rows, which numpy sums as it does the 1-D
    ``np.mean`` of one window's samples.
    """
    lo, hi = np.searchsorted(ts, starts, side="left"), np.searchsorted(ts, ends, side="right")
    counts = hi - lo
    means = np.zeros(len(starts))
    for n in np.unique(counts[counts > 0]):
        group = np.flatnonzero(counts == n)
        means[group] = vs[lo[group, None] + np.arange(n)].mean(axis=1)
    return means, counts > 0


def build_snapshots(
    samples: SeriesColumns,
    topology: Topology,
    spec: WindowSpec,
    latency_samples,
    strict: bool = True,
) -> tuple[Dataset, IngestStats]:
    """Assemble windowed snapshots from parsed per-series columns.

    Per window: node rows carry the request rate and request-byte rate a
    service receives and the response-byte rate of the calls it makes; edge
    rows carry the three rates per declared dependency; resource rows carry
    (cpu rate, memory bytes, cpu period, net receive rate, net transmit
    rate). The label is the window's nearest-rank P95 (:func:`window_p95`)
    over the latency samples completing inside it.

    ``latency_samples`` holds (completion time, latency) pairs, as a list of
    pairs or as the ``(N, 2)`` array :func:`read_latency_csv` returns. A
    pair whose time is not finite, or whose latency is not finite and > 0,
    raises :class:`SchemaError` before any window is labelled.

    Each series is sorted by time with one stable ``argsort`` (equal
    timestamps keep line order). One pass over the series, in order of
    first appearance, classifies each series by its metric and labels,
    computes its window values once and writes them into its cells: a node
    cell sums its series in that order, and a later duplicate of an edge row
    or resource cell replaces the earlier one. A series naming an unknown service or metric raises
    :class:`SchemaError` (strict) or is counted in ``unknown_label_series``.
    Windows with no label or with an under-covered series are dropped and
    counted, never imputed; a resource slot without a series under-covers
    every window.
    """
    stats = IngestStats()
    if samples.untimed is not None:
        raise SchemaError(f"sample of {samples.untimed!r} lacks a timestamp; cannot window it")
    latency = np.asarray(latency_samples, dtype=np.float64).reshape(-1, 2)
    finite = np.isfinite(latency)
    bad = ~(finite.all(axis=1) & (latency[:, 1] > 0))
    if bad.any():
        i = int(np.argmax(bad))
        t, v = latency[i].tolist()
        what = (f"timestamp must be finite, got {t}" if not finite[i, 0]
                else f"latency must be finite and > 0, got {v}")
        raise SchemaError(f"latency sample {i}: {what}")
    if not samples.series:
        return Dataset(topology=topology, snapshots=()), stats
    series = {}
    for key, (ts, vs) in samples.series.items():
        ts, vs = np.frombuffer(ts), np.frombuffer(vs)
        order = np.argsort(ts, kind="stable")
        series[key] = ts[order], vs[order]
    # each series is time-sorted, so its first and last samples bound it
    t0 = float(min(ts[0] for ts, _ in series.values()))
    duration = float(max(ts[-1] for ts, _ in series.values())) - t0

    windows = np.array(sliding_windows(duration, spec), dtype=np.float64).reshape(-1, 2)
    starts, ends = t0 + windows[:, 0], t0 + windows[:, 1]
    num_w = stats.windows_total = len(starts)

    # Label samples attach to the window (start, end]: a request whose
    # completion time equals the window start belongs to the previous one.
    order = np.argsort(latency[:, 0], kind="stable")
    latency_t, latency_v = latency[order, 0], latency[order, 1]
    label_lo = np.searchsorted(latency_t, starts, side="right")
    label_hi = np.searchsorted(latency_t, ends, side="right")
    labelled = label_hi > label_lo
    stats.dropped_no_label = int(np.count_nonzero(~labelled))

    num_v = topology.num_services
    node = np.zeros((num_w, num_v, FEATURE_WIDTHS["node"]))
    edge = np.zeros((num_w, topology.num_edges, FEATURE_WIDTHS["edge"]))
    res = np.zeros((num_w, num_v, FEATURE_WIDTHS["resource"]))
    service_pos = {service: i for i, service in enumerate(topology.services)}
    edge_pos = topology.edge_index()
    schema = {metric.name: metric for metric in FEATURE_SCHEMA}
    window_values = {"counter": _counter_rates, "gauge": _gauge_means}
    # series name -> windows it leaves under-covered, for every series read
    short: dict[str, np.ndarray] = {}

    def unknown(message: str) -> None:
        if strict:
            raise SchemaError(message)
        stats.unknown_label_series += 1

    for (name, label_items), (ts, vs) in series.items():
        labels = dict(label_items)
        metric = schema.get(name)
        if metric is None:
            unknown(f"unknown metric {name!r}")
        elif metric.block == "traffic":
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
            # a metric summed by the calling side (response bytes) feeds no
            # row of an external caller, and is then not read
            row = service_pos.get(labels.get(metric.row_label))
            if row is None:
                continue
            rates, covered = window_values[metric.kind](ts, vs, starts, ends)
            key = f"{name}{{{src_name}->{dst_name}}}"
            short[key] = short.get(key, False) | ~covered
            # node sums add series in order, as a running total from 0.0
            node[:, row, metric.column] += rates
            if src is not None:
                edge[:, edge_pos[(src, dst)], metric.column] = rates  # a later duplicate wins
        else:
            workload = labels.get(metric.row_label)
            svc = service_pos.get(workload)
            if svc is None:
                unknown(f"{name}: unknown {metric.row_label} {workload!r}")
                continue
            res[:, svc, metric.column], covered = window_values[metric.kind](ts, vs, starts, ends)
            short[f"{name}{{{workload}}}"] = ~covered  # a later duplicate wins
    # a resource slot without a series leaves every window under-covered
    for service in topology.services:
        for metric in RESOURCE_METRICS:
            short.setdefault(f"{metric.name}{{{service}}}", np.ones(num_w, dtype=bool))

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
