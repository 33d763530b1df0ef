"""Exposition parsing, counter rates, window arithmetic, P95, ingestion."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import (
    MetricSample,
    format_exposition,
    format_sample,
    gauge_mean,
    group_series,
    nearest_rank_p95,
    parse_lines,
)

from tailcast.errors import ParseError, SchemaError
from tailcast.statgraph import Topology
from tailcast.telemetry import (
    _CSV_BLOCK,
    WindowSpec,
    build_snapshots,
    counter_to_rate,
    parse_exposition,
    read_latency_csv,
    sliding_windows,
    window_p95,
    write_latency_csv,
)


def _samples(columns):
    """Parsed columns as sample objects, series by series, each in line order."""
    return [MetricSample(name, dict(items), v, None if math.isnan(t) else t)
            for (name, items), (ts, vs) in columns.series.items() for t, v in zip(ts, vs)]


def _columns(samples):
    """Hand-built samples, written as exposition text and parsed."""
    return parse_exposition(format_exposition(samples)).samples


class TestParser:
    def test_basic_line(self):
        text = 'istio_requests_total{source_workload="frontend",destination_workload="cart"} 42 1700000000'
        result = parse_exposition(text)
        assert len(result.samples) == 1
        [s] = _samples(result.samples)
        assert s.name == "istio_requests_total"
        assert s.labels == {"source_workload": "frontend", "destination_workload": "cart"}
        assert s.value == 42.0
        assert s.timestamp == 1700000000.0

    def test_comments_and_blanks_skipped(self):
        text = "# HELP istio_requests_total count\n# TYPE istio_requests_total counter\n\n"
        samples = parse_exposition(text).samples
        assert len(samples) == 0 and samples.series == {}

    def test_no_labels_no_timestamp(self):
        result = parse_exposition("up 1")
        assert _samples(result.samples) == [MetricSample("up", {}, 1.0, None)]
        assert result.samples.untimed == "up"

    def test_escaped_quote_roundtrips(self):
        sample = MetricSample("m", {"k": 'a"b'}, 1.5, 2.0)
        line = format_sample(sample)
        [parsed] = _samples(parse_exposition(line).samples)
        assert parsed == sample

    def test_escapes_backslash_and_newline(self):
        sample = MetricSample("m", {"k": 'a\\b\nc"d'}, 1.0, None)
        [parsed] = _samples(parse_exposition(format_sample(sample)).samples)
        assert parsed == sample

    def test_malformed_line_strict_raises_with_line_number(self):
        text = "good_metric 1 2\nbad metric line\n"
        with pytest.raises(ParseError) as err:
            parse_exposition(text)
        assert err.value.line_number == 2

    def test_malformed_line_lenient_skips_and_counts(self):
        text = "good_metric 1 2\nbad metric line\nother_metric 3 4\n"
        result = parse_exposition(text, strict=False)
        assert len(result.samples) == 2
        assert len(result.skipped) == 1
        assert result.skipped[0][0] == 2

    def test_bad_value_rejected(self):
        with pytest.raises(ParseError):
            parse_exposition("metric notanumber")

    def test_nan_value_rejected(self):
        with pytest.raises(ParseError):
            parse_exposition("metric nan")

    @pytest.mark.parametrize("stamp", ["nan", "NaN", "inf", "-inf", "+Inf"])
    def test_non_finite_timestamp_rejected_with_line_number(self, stamp):
        with pytest.raises(ParseError) as err:
            parse_exposition(f"good 1 5\nmetric 1 {stamp}\n")
        assert err.value.line_number == 2

    @given(st.dictionaries(
        st.text(alphabet="abc_", min_size=1, max_size=5),
        st.text(st.characters(codec="utf-8", exclude_characters="\r"), max_size=12),
        max_size=3),
        st.floats(allow_nan=False, allow_infinity=False),
        st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False)))
    @settings(max_examples=150, deadline=None)
    def test_print_parse_identity(self, labels, value, timestamp):
        # the second line reuses the head parsed on the first
        sample = MetricSample("some_metric", labels, value, timestamp)
        line = format_sample(sample)
        assert _samples(parse_exposition(line + "\n" + line).samples) == [sample, sample]

    def test_samples_sharing_a_head_share_one_series(self):
        # one label set in either order is one series; parses share no buffer
        text = "".join(f'm{{a="b",c="d"}} {i} {i}\n' for i in range(3)) + 'm{c="d",a="b"} 3 3\n'
        first, second = parse_exposition(text).samples, parse_exposition(text).samples
        key = ("m", (("a", "b"), ("c", "d")))
        assert list(first.series) == [key]
        ts, vs = first.series[key]
        assert ts.tolist() == vs.tolist() == [0.0, 1.0, 2.0, 3.0]
        vs[0] = -1.0
        assert second.series[key][1].tolist() == [0.0, 1.0, 2.0, 3.0]

    @pytest.mark.parametrize("bad", ['m{a="b"} 1 2 3', 'm{a="b"} x', 'm{a="b"} 1 nan',
                                     'm{a="b"} nan 1', 'm{a="b"}} 1', 'm{a="b"}x 1'])
    def test_malformed_line_after_a_repeated_head(self, bad):
        good = "".join(f'm{{a="b"}} {i} {i}\n' for i in range(50))
        text = good + bad + "\nm{a=\"b\"} 50 50\n"
        with pytest.raises(ParseError) as alone:
            parse_exposition(bad)
        with pytest.raises(ParseError) as err:
            parse_exposition(text)
        assert err.value.line_number == 51
        assert str(err.value) == str(alone.value).replace("line 1:", "line 51:", 1)
        result = parse_exposition(text, strict=False)
        assert [line_no for line_no, _ in result.skipped] == [51]
        assert len(result.samples) == 51

    def test_format_exposition_multiline(self):
        samples = [MetricSample("a", {}, 1.0, 0.0), MetricSample("b", {"x": "y"}, 2.0, 5.0)]
        assert _samples(_columns(samples)) == samples


_LABEL_VALUES = st.sampled_from(["", "x", 'a"b', "a\\b", "l\nm", "}", "{,=}", " sp "])
_MALFORMED = ['m{a="b"} 1 2 3', 'm{a="b"} x', "bad metric line", "m{a=b} 1", 'm{a="b"} 1 nan',
              "m nan", '{a="b"} 1', 'm{a="b"}} 1', 'm{a="b"} 1 inf', 'm{a="b\\q"} 1', 'm{a="b',
              "9m 1", 'm{a="b"} 1 }', 'm{a="b"} 1 2}', "m"]


@st.composite
def _exposition(draw):
    """Lines of a few series (each label set written in drawn orders, values
    and timestamps with duplicates, -0.0 and disorder, some lines without a
    timestamp when drawn) mixed with comment, blank and malformed lines."""
    series = draw(st.lists(st.tuples(
        st.sampled_from(["m", "node_cpu:rate"]),
        st.dictionaries(st.sampled_from("abc"), _LABEL_VALUES, max_size=3)), min_size=1, max_size=4))
    stamps = st.one_of(st.sampled_from([-0.0, 0.0, 1.5, 2.0, 1e9]),
                       st.floats(allow_nan=False, allow_infinity=False))
    if draw(st.booleans()):
        stamps = st.one_of(st.none(), stamps)
    values = st.one_of(st.just(-0.0), st.floats(allow_nan=False))
    lines = []
    for kind in draw(st.lists(st.sampled_from(["sample"] * 4 + ["comment", "blank", "malformed"]),
                              max_size=40)):
        if kind == "sample":
            name, labels = draw(st.sampled_from(series))
            order = draw(st.permutations(list(labels)))
            lines.append(format_sample(MetricSample(
                name, {k: labels[k] for k in order}, draw(values), draw(stamps))))
        elif kind == "comment":
            lines.append(draw(st.sampled_from(["# HELP m help", "# TYPE m counter", "#"])))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", "   ", "\t"])))
        else:
            lines.append(draw(st.sampled_from(_MALFORMED)))
    return "\n".join(lines)


def _hex_pairs(pairs):
    return [(None if t is None or math.isnan(t) else t.hex(), v.hex()) for t, v in pairs]


def _error(parse, text):
    try:
        parse(text)
    except ParseError as exc:
        return str(exc), exc.line_number
    return None


class TestColumnarParse:
    """parse_exposition against the per-line oracle (parse_lines + group_series)."""

    @given(_exposition())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_per_line_oracle(self, text):
        samples, skipped = parse_lines(text, strict=False)
        result = parse_exposition(text, strict=False)
        columns = result.samples
        assert result.skipped == skipped
        assert len(columns) == len(samples)
        in_line_order = {}
        for s in samples:
            in_line_order.setdefault((s.name, tuple(sorted(s.labels.items()))), []).append(
                (s.timestamp, s.value))
        assert list(columns.series) == list(in_line_order)
        assert {key: _hex_pairs(zip(ts, vs)) for key, (ts, vs) in columns.series.items()} == {
            key: _hex_pairs(pairs) for key, pairs in in_line_order.items()}
        untimed = next((s.name for s in samples if s.timestamp is None), None)
        assert columns.untimed == untimed
        if untimed is None:
            by_time = {key: _hex_pairs(sorted(zip(ts, vs), key=lambda tv: tv[0]))
                       for key, (ts, vs) in columns.series.items()}
            assert by_time == {key: _hex_pairs(pairs) for key, pairs in group_series(samples).items()}
        else:
            with pytest.raises(SchemaError) as want:
                group_series(samples)
            with pytest.raises(SchemaError) as got:
                build_snapshots(columns, _mini_topology(), WindowSpec(), [(1.0, 0.1)])
            assert str(got.value) == str(want.value)
        assert _error(parse_exposition, text) == _error(parse_lines, text)


class TestCounterToRate:
    def test_plain_increase(self):
        series = [(0.0, 100.0), (30.0, 160.0)]
        assert counter_to_rate(series, (0.0, 30.0)) == pytest.approx(2.0)

    def test_reset_contributes_post_reset_value(self):
        # 100 -> 20 is a reset (increase 20), then 20 -> 50 adds 30
        series = [(0.0, 100.0), (10.0, 20.0), (30.0, 50.0)]
        assert counter_to_rate(series, (0.0, 30.0)) == pytest.approx(50.0 / 30.0)

    def test_constant_series_is_zero(self):
        series = [(0.0, 7.0), (15.0, 7.0), (30.0, 7.0)]
        assert counter_to_rate(series, (0.0, 30.0)) == 0.0

    def test_insufficient_samples_returns_none(self):
        assert counter_to_rate([(10.0, 5.0)], (0.0, 30.0)) is None
        assert counter_to_rate([], (0.0, 30.0)) is None

    def test_refinement_invariance(self):
        # adding intermediate samples of a monotone counter changes nothing
        rng = np.random.default_rng(0)
        for trial in range(25):
            base_times = [0.0, 30.0]
            base_vals = sorted(rng.uniform(0, 100, size=2))
            series = list(zip(base_times, base_vals))
            coarse = counter_to_rate(series, (0.0, 30.0))
            extra_t = np.sort(rng.uniform(0.0, 30.0, size=rng.integers(1, 6)))
            extra_v = np.sort(rng.uniform(base_vals[0], base_vals[1], size=extra_t.size))
            refined = sorted(series + list(zip(extra_t, extra_v)))
            assert counter_to_rate(refined, (0.0, 30.0)) == pytest.approx(coarse, abs=0)

    def test_gauge_mean(self):
        series = [(0.0, 2.0), (10.0, 4.0), (40.0, 100.0)]
        assert gauge_mean(series, (0.0, 30.0)) == pytest.approx(3.0)
        assert gauge_mean(series, (50.0, 80.0)) is None


class TestSlidingWindows:
    def test_duration_300(self):
        windows = sliding_windows(300.0, WindowSpec(30.0, 5.0))
        assert len(windows) == 55
        assert windows[-1] == (270.0, 300.0)

    def test_duration_exactly_window(self):
        assert sliding_windows(30.0, WindowSpec(30.0, 5.0)) == [(0.0, 30.0)]

    def test_duration_too_short(self):
        assert sliding_windows(29.0, WindowSpec(30.0, 5.0)) == []

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            WindowSpec(30.0, 0.0)
        with pytest.raises(ValueError):
            WindowSpec(30.0, 31.0)

    @given(st.floats(min_value=30.0, max_value=100000.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_count_formula(self, duration):
        spec = WindowSpec(30.0, 5.0)
        windows = sliding_windows(duration, spec)
        assert len(windows) == math.floor((duration - spec.length) / spec.stride) + 1

    def test_overlap_is_25s(self):
        windows = sliding_windows(60.0, WindowSpec(30.0, 5.0))
        a, b = windows[0], windows[1]
        assert a[1] - b[0] == pytest.approx(25.0)


class TestWindowP95:
    def test_one_to_hundred(self):
        assert window_p95(range(1, 101)) == 95

    def test_single_sample(self):
        assert window_p95([7.5]) == 7.5

    def test_all_equal(self):
        assert window_p95([0.3] * 17) == 0.3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            window_p95([])

    def test_matches_sort_oracle_on_random_windows(self):
        rng = np.random.default_rng(33)
        for _ in range(300):
            n = int(rng.integers(1, 500))
            values = rng.exponential(0.2, size=n)
            assert window_p95(values) == nearest_rank_p95(values)

    def test_matches_sort_oracle_on_windows_with_many_ties(self):
        # a few distinct values, so the order statistic sits inside a run of
        # equal values, at its edges, or on a value held once
        rng = np.random.default_rng(34)
        for _ in range(300):
            n = int(rng.integers(1, 500))
            distinct = rng.exponential(0.2, size=int(rng.integers(1, 5)))
            values = rng.choice(distinct, size=n)
            assert window_p95(values) == nearest_rank_p95(values)
            assert window_p95(values.tolist()) == nearest_rank_p95(values)


class TestLatencyCsv:
    def test_roundtrip(self, tmp_path):
        records = [(1.5, 0.25), (2.0, 0.1 + 0.2)]
        path = tmp_path / "latency.csv"
        write_latency_csv(path, records)
        assert read_latency_csv(path).tolist() == [list(r) for r in records]

    def test_nan_row_before_a_three_field_row_names_the_nan_row(self, tmp_path):
        path = tmp_path / "latency.csv"
        path.write_text("timestamp,latency_seconds\n0.5,0.25\n1.0,nan\n1.0,0.5,junk\n")
        with pytest.raises(ParseError, match="latency must be finite and > 0, got nan") as err:
            read_latency_csv(path)
        assert err.value.line_number == 3

    def test_bad_header(self, tmp_path):
        path = tmp_path / "latency.csv"
        path.write_text("time,lat\n1,2\n")
        with pytest.raises(ParseError):
            read_latency_csv(path)

    @pytest.mark.parametrize("row", ["1.0,nan", "1.0,inf", "1.0,-inf", "nan,0.5", "inf,0.5",
                                     "-inf,0.5"])
    def test_non_finite_row_rejected_with_line_number(self, tmp_path, row):
        path = tmp_path / "latency.csv"
        path.write_text(f"timestamp,latency_seconds\n0.5,0.25\n{row}\n")
        with pytest.raises(ParseError) as err:
            read_latency_csv(path)
        assert err.value.line_number == 3

    @pytest.mark.parametrize("row", ["1.0,0.5,junk", "1.0,0.5,", "1.0"])
    def test_row_without_two_fields_rejected_with_line_number(self, tmp_path, row):
        path = tmp_path / "latency.csv"
        path.write_text(f"timestamp,latency_seconds\n0.5,0.25\n{row}\n")
        with pytest.raises(ParseError, match="expected 2 fields") as err:
            read_latency_csv(path)
        assert err.value.line_number == 3

    @given(st.lists(st.tuples(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))))
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_roundtrip_fuzz(self, tmp_path, records):
        path = tmp_path / "latency.csv"
        write_latency_csv(path, records)
        rows = read_latency_csv(path)
        assert (rows.shape, rows.dtype) == ((len(records), 2), np.float64)
        assert rows.tolist() == [list(r) for r in records]
        # written back from the array, each float64 prints as its Python
        # float repr, never as numpy's "np.float64(...)": the same bytes
        again = tmp_path / "again.csv"
        write_latency_csv(again, rows)
        assert again.read_bytes() == path.read_bytes()

    def test_rows_past_one_block_match_per_row_repr(self, tmp_path):
        rng = np.random.default_rng(35)
        rows = np.column_stack((np.cumsum(rng.exponential(0.01, 2 * _CSV_BLOCK + 7)),
                                rng.exponential(0.2, 2 * _CSV_BLOCK + 7)))
        path = tmp_path / "latency.csv"
        for records in (rows, [tuple(map(float, r)) for r in rows], rows[:_CSV_BLOCK]):
            write_latency_csv(path, records)
            expected = "timestamp,latency_seconds\n" + "".join(
                f"{float(t)!r},{float(v)!r}\n" for t, v in records)
            assert path.read_bytes() == expected.encode()

    def test_nonpositive_latency_rejected(self, tmp_path):
        path = tmp_path / "latency.csv"
        path.write_text("timestamp,latency_seconds\n1.0,0.0\n")
        with pytest.raises(ParseError):
            read_latency_csv(path)


def _mini_topology():
    return Topology.create(["front", "back"], [("front", "back")])


def _mini_samples(duration=40.0, step=5.0):
    """Hand-built counter streams for a 2-service chain."""
    lines = []
    t = 0.0
    while t <= duration:
        req = 2.0 * t            # 2 req/s on every edge
        lines.append(f'istio_requests_total{{source_workload="client",destination_workload="front"}} {req!r} {t!r}')
        lines.append(f'istio_request_bytes_sum{{source_workload="client",destination_workload="front"}} {req * 100!r} {t!r}')
        lines.append(f'istio_response_bytes_sum{{source_workload="client",destination_workload="front"}} {req * 500!r} {t!r}')
        lines.append(f'istio_requests_total{{source_workload="front",destination_workload="back"}} {req!r} {t!r}')
        lines.append(f'istio_request_bytes_sum{{source_workload="front",destination_workload="back"}} {req * 100!r} {t!r}')
        lines.append(f'istio_response_bytes_sum{{source_workload="front",destination_workload="back"}} {req * 500!r} {t!r}')
        for svc in ("front", "back"):
            lines.append(f'container_cpu_usage_seconds_total{{workload="{svc}"}} {0.5 * t!r} {t!r}')
            lines.append(f'container_memory_usage_bytes{{workload="{svc}"}} {2.56e8!r} {t!r}')
            lines.append(f'container_spec_cpu_period{{workload="{svc}"}} 100000.0 {t!r}')
            lines.append(f'container_network_receive_bytes_total{{workload="{svc}"}} {200.0 * t!r} {t!r}')
            lines.append(f'container_network_transmit_bytes_total{{workload="{svc}"}} {1000.0 * t!r} {t!r}')
        t += step
    return parse_lines("\n".join(lines))[0]


class TestBuildSnapshots:
    def test_shapes_and_rates(self):
        topo = _mini_topology()
        samples = _mini_samples()
        latency = [(float(t), 0.05 + 0.001 * (t % 7)) for t in range(1, 41)]
        ds, stats = build_snapshots(_columns(samples), topo, WindowSpec(30.0, 5.0), latency)
        assert stats.windows_total == 3
        assert stats.windows_built == 3
        snap = ds.snapshots[0]
        assert snap.node_features.shape == (2, 3)
        assert snap.edge_features.shape == (1, 3)
        assert snap.resource_features.shape == (2, 5)
        front = topo.index_of("front")
        back = topo.index_of("back")
        # front receives client+0 edges at 2/s; back receives 2/s from front
        assert snap.node_features[front, 0] == pytest.approx(2.0)
        assert snap.node_features[back, 0] == pytest.approx(2.0)
        # response-bytes node column groups by calling side: front calls back
        assert snap.node_features[front, 2] == pytest.approx(1000.0)
        assert snap.node_features[back, 2] == 0.0
        assert snap.edge_features[0, 0] == pytest.approx(2.0)
        # resources: cpu rate 0.5/s, memory gauge, period, net rates
        assert snap.resource_features[front].tolist() == pytest.approx(
            [0.5, 2.56e8, 100000.0, 200.0, 1000.0])

    def test_zero_traffic_edge_gives_zero_row_not_missing(self):
        topo = Topology.create(["front", "back", "idle"], [("front", "back"), ("front", "idle")])
        samples = [s for s in _mini_samples() if s.labels.get("destination_workload") != "idle"]
        # add resource series for idle so the window stays covered
        extra = []
        t = 0.0
        while t <= 40.0:
            extra.extend(parse_lines(
                f'container_cpu_usage_seconds_total{{workload="idle"}} 0.0 {t!r}\n'
                f'container_memory_usage_bytes{{workload="idle"}} 1.0 {t!r}\n'
                f'container_spec_cpu_period{{workload="idle"}} 100000.0 {t!r}\n'
                f'container_network_receive_bytes_total{{workload="idle"}} 0.0 {t!r}\n'
                f'container_network_transmit_bytes_total{{workload="idle"}} 0.0 {t!r}')[0])
            t += 5.0
        latency = [(float(t), 0.05) for t in range(1, 41)]
        ds, _ = build_snapshots(_columns(samples + extra), topo, WindowSpec(30.0, 5.0), latency)
        idle_edge = topo.edge_index()[(topo.index_of("front"), topo.index_of("idle"))]
        assert np.array_equal(ds.snapshots[0].edge_features[idle_edge], np.zeros(3))

    def test_latency_array_and_list_of_pairs_build_the_same_dataset(self):
        columns = _columns(_mini_samples())
        latency = [(float(t), 0.05 + 0.001 * (t % 7)) for t in range(40, 0, -1)]
        from_list, _ = build_snapshots(columns, _mini_topology(), WindowSpec(30.0, 5.0), latency)
        from_array, _ = build_snapshots(columns, _mini_topology(), WindowSpec(30.0, 5.0),
                                        np.array(latency))
        assert [s.label for s in from_array.snapshots] == [s.label for s in from_list.snapshots]
        assert all(type(s.label) is float for s in from_array.snapshots)

    @pytest.mark.parametrize("pair, message", [
        ((math.nan, 0.05), "latency sample 3: timestamp must be finite, got nan"),
        ((-math.inf, 0.05), "latency sample 3: timestamp must be finite, got -inf"),
        ((4.0, math.nan), "latency sample 3: latency must be finite and > 0, got nan"),
        ((4.0, math.inf), "latency sample 3: latency must be finite and > 0, got inf"),
        ((4.0, 0.0), "latency sample 3: latency must be finite and > 0, got 0.0"),
        ((4.0, -0.5), "latency sample 3: latency must be finite and > 0, got -0.5"),
    ])
    def test_bad_latency_refused_before_labelling(self, pair, message):
        latency = [(float(t), 0.05) for t in range(1, 41)]
        latency[3] = pair
        latency[7] = (8.0, -1.0)  # a later bad pair is not the one named
        for given_as in (latency, np.array(latency)):
            with pytest.raises(SchemaError) as err:
                build_snapshots(_columns(_mini_samples()), _mini_topology(),
                                WindowSpec(30.0, 5.0), given_as)
            assert str(err.value) == message

    def test_windows_without_labels_are_dropped_and_counted(self):
        topo = _mini_topology()
        samples = _mini_samples()
        latency = [(t, 0.05) for t in (31.0, 32.0, 40.0)]  # nothing in (0, 30]
        ds, stats = build_snapshots(_columns(samples), topo, WindowSpec(30.0, 5.0), latency)
        assert stats.dropped_no_label == 1
        assert stats.windows_built == 2
        assert len(ds.snapshots) == 2

    def test_unknown_service_strict_vs_lenient(self):
        topo = _mini_topology()
        samples = _mini_samples()
        rogue = parse_lines(
            'istio_requests_total{source_workload="front",destination_workload="ghost"} 1 0.0')[0]
        columns = _columns(samples + rogue)
        latency = [(float(t), 0.05) for t in range(1, 41)]
        with pytest.raises(SchemaError):
            build_snapshots(columns, topo, WindowSpec(30.0, 5.0), latency, strict=True)
        ds, stats = build_snapshots(columns, topo, WindowSpec(30.0, 5.0), latency, strict=False)
        assert stats.unknown_label_series == 1
        assert len(ds.snapshots) == 3

    def test_missing_resource_series_drops_windows(self):
        topo = _mini_topology()
        samples = [s for s in _mini_samples() if not (
            s.name == "container_memory_usage_bytes" and s.labels.get("workload") == "back")]
        latency = [(float(t), 0.05) for t in range(1, 41)]
        ds, stats = build_snapshots(_columns(samples), topo, WindowSpec(30.0, 5.0), latency)
        assert len(ds.snapshots) == 0
        assert stats.dropped_missing_data == 3
        assert stats.dropped_missing_by_series == {"container_memory_usage_bytes{back}": 3}

    @pytest.mark.parametrize("at", [10.0, 40.0])  # inside a reset window; the last sample
    def test_inf_counter_sample_raises_schema_error(self, at):
        samples = [MetricSample(s.name, s.labels, math.inf, s.timestamp)
                   if s.name == "container_cpu_usage_seconds_total" and s.timestamp == at else s
                   for s in _mini_samples()]
        latency = [(float(t), 0.05) for t in range(1, 41)]
        with pytest.raises(SchemaError):
            build_snapshots(_columns(samples), _mini_topology(), WindowSpec(30.0, 5.0), latency)


_SPAN = 80.0  # the dense mini streams cover [0, 80]: eleven 30 s windows
_times = st.one_of(st.integers(0, 4 * int(_SPAN)).map(lambda k: k / 4.0),  # duplicates
                   st.floats(0.0, _SPAN))


@st.composite
def _counter_points(draw):
    """(t, v) in random order: increments, resets to a fresh start, -0.0 values."""
    steps = draw(st.lists(st.tuples(
        _times, st.one_of(st.just(-0.0), st.floats(0.0, 1e6)), st.integers(0, 5)),
        min_size=1, max_size=30))
    points, total = [], 0.0
    for t, delta, reset in steps:
        total = delta if reset == 0 else total + delta
        points.append((t, total))
    return points


# at least one sample each: an absent series is a different case (tests above)
_gauge_points = st.lists(st.tuples(_times, st.floats(0.0, 1e12)), min_size=1, max_size=60)


def _bits(x):
    return None if x is None else float(x).hex()


class TestVectorisedWindowing:
    """build_snapshots against the per-window oracles, bit for bit."""

    @staticmethod
    def _ingest(a, b, cpu, mem):
        """Mini streams with client->front requests from series ``a`` plus an
        external caller ``b``, and back's cpu counter and memory gauge."""
        replaced = {("istio_requests_total", "front"), ("container_cpu_usage_seconds_total", "back"),
                    ("container_memory_usage_bytes", "back")}
        samples = [s for s in _mini_samples(duration=_SPAN) if (
            s.name, s.labels.get("destination_workload", s.labels.get("workload"))) not in replaced]

        def add(name, labels, points):
            samples.extend(MetricSample(name, labels, v, t) for t, v in points)
        add("istio_requests_total", {"source_workload": "client", "destination_workload": "front"}, a)
        add("istio_requests_total", {"source_workload": "other", "destination_workload": "front"}, b)
        add("container_cpu_usage_seconds_total", {"workload": "back"}, cpu)
        add("container_memory_usage_bytes", {"workload": "back"}, mem)
        latency = [(t + 0.5, 0.05) for t in range(int(_SPAN))]
        return build_snapshots(_columns(samples), _mini_topology(), WindowSpec(30.0, 5.0), latency)

    def _check(self, a, b, cpu, mem):
        ds, stats = self._ingest(a, b, cpu, mem)
        front, back = _mini_topology().index_of("front"), _mini_topology().index_of("back")

        def by_time(points):  # the stable time sort build_snapshots windows
            return sorted(points, key=lambda tv: tv[0])

        oracles = {
            "istio_requests_total{client->front}": lambda w: counter_to_rate(by_time(a), w),
            "istio_requests_total{other->front}": lambda w: counter_to_rate(by_time(b), w),
            "container_cpu_usage_seconds_total{back}": lambda w: counter_to_rate(by_time(cpu), w),
            "container_memory_usage_bytes{back}": lambda w: gauge_mean(by_time(mem), w),
        }
        windows = sliding_windows(_SPAN, WindowSpec(30.0, 5.0))
        want = {w: {name: f(w) for name, f in oracles.items()} for w in windows}
        covered = [w for w in windows if None not in want[w].values()]
        assert [s.window_start for s in ds.snapshots] == [w[0] for w in covered]
        assert stats.dropped_missing_data == len(windows) - len(covered)
        assert stats.dropped_missing_by_series == {
            name: n for name in oracles
            if (n := sum(want[w][name] is None for w in windows))}
        for snap in ds.snapshots:
            w = want[(snap.window_start, snap.window_start + 30.0)]
            node_rate = 0.0 + w["istio_requests_total{client->front}"]
            node_rate += w["istio_requests_total{other->front}"]
            assert _bits(snap.node_features[front, 0]) == _bits(node_rate)
            assert _bits(snap.resource_features[back, 0]) == _bits(
                w["container_cpu_usage_seconds_total{back}"])
            assert _bits(snap.resource_features[back, 1]) == _bits(
                w["container_memory_usage_bytes{back}"])

    @given(_counter_points(), _counter_points(), _counter_points(), _gauge_points)
    @settings(max_examples=150, deadline=None)
    def test_matches_per_window_oracles(self, a, b, cpu, mem):
        self._check(a, b, cpu, mem)

    def test_two_resets_in_one_window(self):
        a = [(0.0, 5.0), (6.0, 9.0), (12.0, 2.0), (18.0, 7.0), (24.0, 1.0), (30.0, 4.0),
             (80.0, 10.0)]
        dense = [(5.0 * k, float(k)) for k in range(17)]
        self._check(a, dense, dense, dense)
        ds, _ = self._ingest(a, dense, dense, dense)
        # increase 4 (5 -> 9) + 7 (reset to 2, on to 7) + 4 (reset to 1, on to 4)
        assert counter_to_rate(a, (0.0, 30.0)) == 0.5
        front = _mini_topology().index_of("front")
        assert ds.snapshots[0].node_features[front, 0] == 0.5 + 6.0 / 30.0

    def test_negative_zero_increase_is_positive_zero(self):
        # 0.0 -> -0.0 is no decrease; the loop's 0.0 + (-0.0 - 0.0) is 0.0,
        # which a dataset file writes as "0.0", not "-0.0"
        dense = [(5.0 * k, float(k)) for k in range(17)]
        cpu = [(5.0 * k, 0.0 if k == 0 else -0.0) for k in range(17)]
        self._check(dense, dense, cpu, dense)

    def test_gauge_block_means_match_np_mean(self):
        # windows of 1..12 samples each, values spread over many magnitudes
        rng = np.random.default_rng(4)
        dense = [(5.0 * k, float(k)) for k in range(17)]
        for n in range(1, 13):
            times = np.sort(rng.uniform(0.0, _SPAN, size=n * 11))
            values = rng.exponential(1.0, size=times.size) * 10.0 ** rng.integers(-8, 9, times.size)
            self._check(dense, dense, dense, list(zip(times.tolist(), values.tolist())))
