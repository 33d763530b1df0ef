"""Exposition parsing, counter rates, window arithmetic, P95, ingestion."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import nearest_rank_p95

from tailcast.errors import ParseError, SchemaError
from tailcast.statgraph import Topology
from tailcast.telemetry import (
    MetricSample,
    WindowSpec,
    build_snapshots,
    counter_to_rate,
    format_exposition,
    format_sample,
    gauge_mean,
    parse_exposition,
    read_latency_csv,
    sliding_windows,
    window_p95,
    write_latency_csv,
)


class TestParser:
    def test_basic_line(self):
        text = 'istio_requests_total{source_workload="frontend",destination_workload="cart"} 42 1700000000'
        result = parse_exposition(text)
        assert len(result.samples) == 1
        s = result.samples[0]
        assert s.name == "istio_requests_total"
        assert s.labels == {"source_workload": "frontend", "destination_workload": "cart"}
        assert s.value == 42.0
        assert s.timestamp == 1700000000.0

    def test_comments_and_blanks_skipped(self):
        text = "# HELP istio_requests_total count\n# TYPE istio_requests_total counter\n\n"
        assert parse_exposition(text).samples == []

    def test_no_labels_no_timestamp(self):
        result = parse_exposition("up 1")
        assert result.samples[0].labels == {}
        assert result.samples[0].timestamp is None

    def test_escaped_quote_roundtrips(self):
        sample = MetricSample("m", {"k": 'a"b'}, 1.5, 2.0)
        line = format_sample(sample)
        parsed = parse_exposition(line).samples[0]
        assert parsed == sample

    def test_escapes_backslash_and_newline(self):
        sample = MetricSample("m", {"k": 'a\\b\nc"d'}, 1.0, None)
        parsed = parse_exposition(format_sample(sample)).samples[0]
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
        sample = MetricSample("some_metric", labels, value, timestamp)
        parsed = parse_exposition(format_sample(sample)).samples[0]
        assert parsed == sample

    def test_format_exposition_multiline(self):
        samples = [MetricSample("a", {}, 1.0, 0.0), MetricSample("b", {"x": "y"}, 2.0, 5.0)]
        text = format_exposition(samples)
        assert parse_exposition(text).samples == samples


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


class TestLatencyCsv:
    def test_roundtrip(self, tmp_path):
        records = [(1.5, 0.25), (2.0, 0.1 + 0.2)]
        path = tmp_path / "latency.csv"
        write_latency_csv(path, records)
        assert read_latency_csv(path) == records

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
    return parse_exposition("\n".join(lines)).samples


class TestBuildSnapshots:
    def test_shapes_and_rates(self):
        topo = _mini_topology()
        samples = _mini_samples()
        latency = [(float(t), 0.05 + 0.001 * (t % 7)) for t in range(1, 41)]
        ds, stats = build_snapshots(samples, topo, WindowSpec(30.0, 5.0), latency)
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
            extra.extend(parse_exposition(
                f'container_cpu_usage_seconds_total{{workload="idle"}} 0.0 {t!r}\n'
                f'container_memory_usage_bytes{{workload="idle"}} 1.0 {t!r}\n'
                f'container_spec_cpu_period{{workload="idle"}} 100000.0 {t!r}\n'
                f'container_network_receive_bytes_total{{workload="idle"}} 0.0 {t!r}\n'
                f'container_network_transmit_bytes_total{{workload="idle"}} 0.0 {t!r}').samples)
            t += 5.0
        latency = [(float(t), 0.05) for t in range(1, 41)]
        ds, _ = build_snapshots(samples + extra, topo, WindowSpec(30.0, 5.0), latency)
        idle_edge = topo.edge_index()[(topo.index_of("front"), topo.index_of("idle"))]
        assert np.array_equal(ds.snapshots[0].edge_features[idle_edge], np.zeros(3))

    def test_windows_without_labels_are_dropped_and_counted(self):
        topo = _mini_topology()
        samples = _mini_samples()
        latency = [(t, 0.05) for t in (31.0, 32.0, 40.0)]  # nothing in (0, 30]
        ds, stats = build_snapshots(samples, topo, WindowSpec(30.0, 5.0), latency)
        assert stats.dropped_no_label == 1
        assert stats.windows_built == 2
        assert len(ds.snapshots) == 2

    def test_unknown_service_strict_vs_lenient(self):
        topo = _mini_topology()
        samples = _mini_samples()
        rogue = parse_exposition(
            'istio_requests_total{source_workload="front",destination_workload="ghost"} 1 0.0').samples
        latency = [(float(t), 0.05) for t in range(1, 41)]
        with pytest.raises(SchemaError):
            build_snapshots(samples + rogue, topo, WindowSpec(30.0, 5.0), latency, strict=True)
        ds, stats = build_snapshots(samples + rogue, topo, WindowSpec(30.0, 5.0), latency, strict=False)
        assert stats.unknown_label_series == 1
        assert len(ds.snapshots) == 3

    def test_missing_resource_series_drops_windows(self):
        topo = _mini_topology()
        samples = [s for s in _mini_samples() if not (
            s.name == "container_memory_usage_bytes" and s.labels.get("workload") == "back")]
        latency = [(float(t), 0.05) for t in range(1, 41)]
        ds, stats = build_snapshots(samples, topo, WindowSpec(30.0, 5.0), latency)
        assert len(ds.snapshots) == 0
        assert stats.dropped_missing_data == 3
