"""Workload sampling, queueing behavior, telemetry conservation, presets."""

import dataclasses
import math
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    mm1_mean_sojourn,
    nearest_rank_p95,
    reference_rate_at,
    reference_run_simulation,
    reference_sample_workload,
)

from tailcast.errors import SchemaError
from tailcast.simulator import (
    ClusterSpec,
    IntensityProfile,
    RequestType,
    Scenario,
    Segment,
    ServiceCapacity,
    SimulationResult,
    Workload,
    load_scenario,
    preset_topologies,
    run_scenario,
    run_simulation,
    sample_workload,
    scenario_from_dict,
)
from tailcast.statgraph import Topology
from tailcast.telemetry import WindowSpec, group_series, parse_exposition, window_p95


def single_service_spec(pods=1, rate=2.0):
    topo = Topology.create(["svc"], [])
    return ClusterSpec(
        topology=topo,
        capacities={"svc": ServiceCapacity(pods=pods, service_rate=rate)},
        request_types=(RequestType("only", ("svc",), 1.0),),
    )


def plateau(rate, duration):
    return IntensityProfile((Segment("plateau", duration, rate, rate),))


def latency_p95(result, window):
    """Nearest-rank P95 over the latencies completing in (start, end], or None."""
    start, end = window
    lo = bisect_right(result.latency_records, (start, math.inf))
    hi = bisect_right(result.latency_records, (end, math.inf))
    values = [lat for _, lat in result.latency_records[lo:hi]]
    return nearest_rank_p95(values) if values else None


class TestIntensityProfile:
    def test_ramp_interpolates(self):
        prof = IntensityProfile((Segment("ramp", 10.0, 0.0, 10.0),))
        assert prof.rate_at(5.0) == pytest.approx(5.0)

    def test_spike_peaks_at_midpoint(self):
        prof = IntensityProfile((Segment("spike", 10.0, 2.0, 12.0),))
        assert prof.rate_at(5.0) == pytest.approx(12.0)
        assert prof.rate_at(0.0) == pytest.approx(2.0)
        assert prof.rate_at(10.0) == pytest.approx(2.0)

    def test_rate_at_segment_boundaries(self):
        # durations whose running sums are inexact in binary
        prof = IntensityProfile((
            Segment("plateau", 0.1, 3.0, 3.0),
            Segment("ramp", 0.2, 5.0, 9.0),
            Segment("spike", 0.3, 2.0, 12.0),
            Segment("plateau", 0.7, 4.0, 4.0),
        ))
        boundaries = []
        offset = 0.0
        for s in prof.segments:
            offset += s.duration
            boundaries.append(offset)
        assert boundaries[1] != 0.3
        # a boundary instant belongs to the earlier segment, the next float to the later
        earlier_end = (3.0, 9.0, 2.0)
        for b, end_rate, later in zip(boundaries, earlier_end, prof.segments[1:]):
            assert prof.rate_at(b) == reference_rate_at(prof, b)
            assert prof.rate_at(b) == pytest.approx(end_rate)
            after = float(np.nextafter(b, math.inf))
            assert prof.rate_at(after) == reference_rate_at(prof, after)
            assert prof.rate_at(after) == pytest.approx(later.start_rate)
        assert prof.rate_at(0.0) == reference_rate_at(prof, 0.0) == 3.0
        last = boundaries[-1]
        assert prof.rate_at(last) == reference_rate_at(prof, last) == 4.0
        total = prof.total_duration
        for t in (float(np.nextafter(total, math.inf)), total + 1.0, 1e12):
            assert prof.rate_at(t) == reference_rate_at(prof, t) == 0.0

    def test_invalid_segment(self):
        with pytest.raises(SchemaError):
            Segment("wiggle", 10.0, 1.0, 1.0)
        with pytest.raises(SchemaError):
            Segment("ramp", 0.0, 1.0, 1.0)


class TestWorkload:
    def test_zero_rate_no_arrivals(self):
        spec = single_service_spec()
        workload = sample_workload(plateau(0.0, 100.0), spec.request_types,
                                   np.random.default_rng(0))
        assert workload.arrivals == []

    def test_poisson_count_within_3_sigma(self):
        spec = single_service_spec()
        workload = sample_workload(plateau(10.0, 100.0), spec.request_types,
                                   np.random.default_rng(7))
        n = len(workload.arrivals)
        assert abs(n - 1000) <= 3 * math.sqrt(1000)

    def test_same_seed_identical(self):
        spec = single_service_spec()
        w1 = sample_workload(plateau(5.0, 50.0), spec.request_types, np.random.default_rng(3))
        w2 = sample_workload(plateau(5.0, 50.0), spec.request_types, np.random.default_rng(3))
        assert w1.arrivals == w2.arrivals

    def test_mix_weights_respected(self):
        types = (
            RequestType("a", ("svc",), 0.8),
            RequestType("b", ("svc",), 0.2),
        )
        prof = plateau(50.0, 200.0)
        workload = sample_workload(prof, types, np.random.default_rng(5))
        kinds = np.asarray([k for _, k in workload.arrivals])
        share = (kinds == 0).mean()
        assert abs(share - 0.8) < 0.02


class TestQueueing:
    def test_light_load_latency_near_service_time(self):
        # lambda << mu: almost no queueing, sojourn ~ 1/mu
        spec = single_service_spec(rate=100.0)
        workload = sample_workload(plateau(1.0, 2000.0), spec.request_types,
                                   np.random.default_rng(11))
        result = run_simulation(spec, workload, 2000.0, rng=np.random.default_rng(12))
        lat = np.asarray([lat for _, lat in result.latency_records])
        assert lat.size > 1500
        assert abs(lat.mean() - mm1_mean_sojourn(1.0, 100.0)) / mm1_mean_sojourn(1.0, 100.0) < 0.10

    def test_mm1_analytic_sojourn(self):
        # rho = 0.5; mean sojourn = 1/(mu - lambda)
        mu, lam = 4.0, 2.0
        spec = single_service_spec(rate=mu)
        workload = sample_workload(plateau(lam, 6000.0), spec.request_types,
                                   np.random.default_rng(21))
        result = run_simulation(spec, workload, 6000.0, rng=np.random.default_rng(22))
        lat = np.asarray([lat for _, lat in result.latency_records])
        expected = mm1_mean_sojourn(lam, mu)
        assert abs(lat.mean() - expected) / expected < 0.05

    def test_zero_arrivals_all_counters_constant(self):
        spec = single_service_spec()
        workload = sample_workload(plateau(0.0, 100.0), spec.request_types,
                                   np.random.default_rng(0))
        result = run_simulation(spec, workload, 100.0, rng=np.random.default_rng(1))
        assert result.latency_records == []
        series = group_series(parse_exposition(result.exposition_text).samples)
        for key, values in series.items():
            vals = {v for _, v in values}
            assert len(vals) == 1, f"series {key} moved with zero arrivals"

    def test_doubling_load_increases_p95(self):
        mu = 4.0
        spec = single_service_spec(rate=mu)
        results = {}
        for lam in (1.5, 3.0):
            workload = sample_workload(plateau(lam, 1500.0), spec.request_types,
                                       np.random.default_rng(31))
            results[lam] = run_simulation(spec, workload, 1500.0, rng=np.random.default_rng(32))
        windows = [(k * 5.0, k * 5.0 + 30.0) for k in range(0, 280)]
        p95_low = np.mean([latency_p95(results[1.5], w) or 0.0 for w in windows])
        p95_high = np.mean([latency_p95(results[3.0], w) or 0.0 for w in windows])
        assert p95_high > p95_low

    def test_monotone_stress_response(self):
        mu = 5.0
        spec = single_service_spec(rate=mu)
        means = []
        for lam in (1.0, 2.0, 3.5):
            workload = sample_workload(plateau(lam, 800.0), spec.request_types,
                                       np.random.default_rng(41))
            result = run_simulation(spec, workload, 800.0, rng=np.random.default_rng(42))
            windows = [(k * 5.0, k * 5.0 + 30.0) for k in range(0, 150)]
            vals = [latency_p95(result, w) for w in windows]
            means.append(np.mean([v for v in vals if v is not None]))
        assert means[0] <= means[1] <= means[2]

    def test_determinism(self):
        spec = preset_topologies()["online_boutique_like"]
        prof = IntensityProfile((
            Segment("ramp", 30.0, 2.0, 20.0),
            Segment("spike", 20.0, 20.0, 60.0),
            Segment("plateau", 30.0, 10.0, 10.0),
        ))

        def run():
            workload = sample_workload(prof, spec.request_types, np.random.default_rng(5))
            return run_simulation(spec, workload, 80.0, rng=np.random.default_rng(6),
                                  noise_rng=np.random.default_rng(7), noise_sigma=0.01)

        r1, r2 = run(), run()
        assert r1.exposition_text == r2.exposition_text
        assert r1.latency_records == r2.latency_records

    def test_saturation_flagged_not_fatal(self):
        spec = single_service_spec(rate=2.0)
        workload = sample_workload(plateau(20.0, 60.0), spec.request_types,
                                   np.random.default_rng(51))
        result = run_simulation(spec, workload, 60.0, rng=np.random.default_rng(52),
                                queue_cap=50)
        assert len(result.saturated_scrape_times) > 0
        assert result.completed_total > 0


def assert_matches_reference(spec, duration, seed, profile=None, workload=None, **kwargs):
    """Run the simulator and the reference from identically seeded generators
    and compare the arrivals, every result field and the final state of the
    workload, service and noise generators. A given ``workload`` replaces
    the sampled one. Returns the simulator's result."""
    runs = []
    for sample, simulate in ((sample_workload, run_simulation),
                             (reference_sample_workload, reference_run_simulation)):
        rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)]
        wl = workload if workload is not None else sample(profile, spec.request_types, rngs[0])
        result = simulate(spec, wl, duration, rng=rngs[1], noise_rng=rngs[2], **kwargs)
        runs.append((wl.arrivals, result, [g.bit_generator.state for g in rngs]))
    (arrivals, result, states), (ref_arrivals, ref_result, ref_states) = runs
    assert arrivals == ref_arrivals
    for f in dataclasses.fields(SimulationResult):
        assert getattr(result, f.name) == getattr(ref_result, f.name), f.name
    assert states == ref_states
    return result


def two_hop_spec():
    """a -> b, one slow pod in front of one fast pod."""
    return ClusterSpec(
        topology=Topology.create(["a", "b"], [("a", "b")]),
        capacities={"a": ServiceCapacity(pods=1, service_rate=2.0),
                    "b": ServiceCapacity(pods=1, service_rate=50.0)},
        request_types=(RequestType("ab", ("a", "b"), 0.7), RequestType("a", ("a",), 0.3)),
    )


MIXED_PROFILE = IntensityProfile((
    Segment("ramp", 30.0, 2.0, 25.0),
    Segment("spike", 20.0, 25.0, 70.0),
    Segment("plateau", 30.0, 15.0, 15.0),
))


@st.composite
def small_specs(draw):
    """A chain of 1-4 services, request types over sub-chains, a short profile."""
    n = draw(st.integers(1, 4))
    names = [f"s{i}" for i in range(n)]
    capacities = {name: ServiceCapacity(pods=draw(st.integers(1, 4)),
                                        service_rate=draw(st.sampled_from([1.5, 4.0, 20.0, 200.0])))
                  for name in names}
    spans = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, n)), min_size=1, max_size=3))
    shares = draw(st.lists(st.integers(1, 9), min_size=len(spans), max_size=len(spans)))
    request_types = tuple(
        RequestType(f"r{k}", tuple(names[start:start + length]), share / sum(shares))
        for k, ((start, length), share) in enumerate(zip(spans, shares)))
    spec = ClusterSpec(Topology.create(names, list(zip(names, names[1:]))), capacities, request_types)
    segments = tuple(
        Segment(draw(st.sampled_from(["ramp", "spike", "plateau"])),
                draw(st.sampled_from([0.7, 3.3, 6.0, 12.5])),
                draw(st.sampled_from([0.0, 2.0, 15.0])),
                draw(st.sampled_from([0.0, 10.0, 40.0])))
        for _ in range(draw(st.integers(1, 3))))
    interval = draw(st.sampled_from([1.0, 2.5, 5.0]))
    duration = draw(st.integers(1, 8)) * interval + draw(st.sampled_from([0.1, 0.5, 0.9])) * interval
    return spec, IntensityProfile(segments), duration, interval


class TestReferenceEquivalence:
    """The simulator against the pre-flattening event loop in ``oracles``:
    every result field and every generator's final state compared with ==."""

    @pytest.mark.parametrize("preset", ["online_boutique_like", "sockshop_like"])
    @pytest.mark.parametrize("noise_sigma", [0.0, 0.01])
    def test_presets(self, preset, noise_sigma):
        spec = preset_topologies()[preset]
        result = assert_matches_reference(spec, 80.0, 5, MIXED_PROFILE, noise_sigma=noise_sigma)
        assert result.completed_total > 1000

    def test_saturating_queue_cap(self):
        spec = preset_topologies()["online_boutique_like"]
        spec = dataclasses.replace(spec, capacities={**spec.capacities, "frontend": ServiceCapacity(pods=1)})
        result = assert_matches_reference(spec, 80.0, 9, MIXED_PROFILE, noise_sigma=0.01, queue_cap=20)
        assert result.saturated_scrape_times
        result = assert_matches_reference(single_service_spec(rate=2.0), 60.0, 51, plateau(20.0, 60.0),
                                          noise_sigma=0.01, queue_cap=50)
        assert result.saturated_scrape_times

    def test_zero_rate_segment(self):
        spec = preset_topologies()["sockshop_like"]
        prof = IntensityProfile((
            Segment("ramp", 20.0, 0.0, 20.0),
            Segment("plateau", 20.0, 0.0, 0.0),
            Segment("spike", 20.0, 0.0, 30.0),
        ))
        result = assert_matches_reference(spec, 60.0, 13, prof, noise_sigma=0.01)
        assert result.completed_total > 0
        assert not any(20.0 < r.arrival_time <= 40.0 for r in result.requests)
        empty = assert_matches_reference(spec, 60.0, 13, plateau(0.0, 60.0), noise_sigma=0.01)
        assert empty.arrivals_total == 0

    def test_mm1_single_service(self):
        result = assert_matches_reference(single_service_spec(rate=4.0), 500.0, 21, plateau(2.0, 500.0),
                                          noise_sigma=0.01)
        assert result.completed_total > 800

    def test_arrivals_at_scrape_instants_and_duplicate_times(self):
        arrivals = [(0.0, 0), (0.0, 1), (5.0, 0), (5.0, 0), (5.0, 1), (7.25, 0), (10.0, 1),
                    (10.0, 0), (10.0, 0), (12.5, 0), (15.0, 1), (15.0, 0)]
        for noise_sigma in (0.0, 0.01):
            result = assert_matches_reference(two_hop_spec(), 15.0, 3, workload=Workload(arrivals),
                                              noise_sigma=noise_sigma)
            assert result.completed_total == len(arrivals)
        # arrivals past the last scrape are drained too
        assert_matches_reference(two_hop_spec(), 12.0, 3, workload=Workload(arrivals))

    def test_arrival_ties_with_a_completion(self):
        # the second arrival lands exactly when the first request leaves ``a``:
        # the arrival goes first and queues, so ``a`` draws the next service time
        seed = 4
        z = np.random.default_rng(np.random.SeedSequence(seed).spawn(3)[1]).standard_exponential()
        leave_a = 0.0 + 0.5 * z
        workload = Workload([(0.0, 0), (leave_a, 0), (leave_a, 1)])
        result = assert_matches_reference(two_hop_spec(), 10.0, seed, workload=workload)
        assert result.requests[0].hop_arrival_times == (0.0, leave_a)

    def test_unsorted_workload(self):
        arrivals = [(9.0, 0), (1.0, 1), (4.0, 0), (1.0, 0), (4.0, 1), (0.5, 0)]
        assert_matches_reference(two_hop_spec(), 10.0, 6, workload=Workload(arrivals), noise_sigma=0.01)

    @given(small_specs(), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.01]),
           st.sampled_from([3, 500]))
    @settings(max_examples=40, deadline=None)
    def test_small_random_specs(self, case, seed, noise_sigma, queue_cap):
        spec, profile, duration, interval = case
        assert_matches_reference(spec, duration, seed, profile, noise_sigma=noise_sigma,
                                 scrape_interval=interval, queue_cap=queue_cap)


class TestConservation:
    def test_edge_counters_equal_traversal_counts(self):
        spec = preset_topologies()["online_boutique_like"]
        workload = sample_workload(plateau(20.0, 120.0), spec.request_types,
                                   np.random.default_rng(61))
        result = run_simulation(spec, workload, 120.0, rng=np.random.default_rng(62))
        series = group_series(parse_exposition(result.exposition_text).samples)
        topo = spec.topology

        # oracle: count hop arrivals from the request records
        for check_t in (30.0, 60.0, 115.0):
            counts: dict[tuple[str, str], int] = {}
            for req in result.requests:
                prev = "client"
                for svc, t_arr in zip(req.hop_services, req.hop_arrival_times):
                    name = topo.services[svc]
                    if t_arr <= check_t:
                        counts[(prev, name)] = counts.get((prev, name), 0) + 1
                    prev = name
            for (src, dst), expected in counts.items():
                key = ("istio_requests_total",
                       (("destination_workload", dst), ("source_workload", src)))
                values = dict(series[key])
                assert values[check_t] == float(expected)

    def test_telemetry_p95_matches_simulator_p95(self):
        spec = preset_topologies()["sockshop_like"]
        workload = sample_workload(plateau(15.0, 120.0), spec.request_types,
                                   np.random.default_rng(71))
        result = run_simulation(spec, workload, 120.0, rng=np.random.default_rng(72))
        windows = [(k * 5.0, k * 5.0 + 30.0) for k in range(19)]
        for window in windows:
            own = latency_p95(result, window)
            start, end = window
            samples = [lat for t, lat in result.latency_records if start < t <= end]
            if own is None:
                assert samples == []
                continue
            assert window_p95(samples) == own
            assert nearest_rank_p95(samples) == own


class TestPresets:
    def test_boutique_has_11_services(self):
        assert preset_topologies()["online_boutique_like"].topology.num_services == 11

    def test_sockshop_has_13_services(self):
        assert preset_topologies()["sockshop_like"].topology.num_services == 13

    def test_all_paths_validate(self):
        for name, spec in preset_topologies().items():
            spec.validate()
            edges = set(spec.topology.edges)
            for rt in spec.request_types:
                idx = [spec.topology.index_of(s) for s in rt.path]
                for pair in zip(idx, idx[1:]):
                    assert pair in edges, f"{name}: {rt.name} hop {pair} missing"

    def test_browsing_heavy_mix(self):
        for spec in preset_topologies().values():
            weights = {rt.name: rt.weight for rt in spec.request_types}
            assert weights["browse"] == max(weights.values())


class TestScenarioFile:
    def test_load_and_run(self, tmp_path):
        scenario = {
            "preset": "online_boutique_like",
            "seed": 3,
            "duration_s": 40.0,
            "noise_sigma": 0.0,
            "profile": [{"kind": "plateau", "duration_s": 40.0, "start_rate": 5.0}],
        }
        path = tmp_path / "scenario.json"
        import json
        path.write_text(json.dumps(scenario))
        loaded = load_scenario(path)
        assert isinstance(loaded, Scenario)
        result = run_scenario(loaded)
        assert result.completed_total > 0

    def test_unknown_preset_rejected(self):
        with pytest.raises(SchemaError):
            scenario_from_dict({"preset": "nope", "profile": [
                {"kind": "plateau", "duration_s": 10.0, "start_rate": 1.0}]})

    def test_zero_duration_rejected(self):
        with pytest.raises(SchemaError):
            scenario_from_dict({
                "preset": "online_boutique_like",
                "duration_s": 0.0,
                "profile": [{"kind": "plateau", "duration_s": 10.0, "start_rate": 1.0}],
            })

    def test_capacity_override(self):
        scenario = scenario_from_dict({
            "preset": "online_boutique_like",
            "profile": [{"kind": "plateau", "duration_s": 10.0, "start_rate": 1.0}],
            "capacities": {"frontend": {"pods": 9, "service_rate": 33.0}},
        })
        assert scenario.cluster.capacities["frontend"].pods == 9

    def test_custom_topology_requires_mix(self):
        with pytest.raises(SchemaError):
            scenario_from_dict({
                "topology": {"services": ["a", "b"], "edges": [["a", "b"]]},
                "profile": [{"kind": "plateau", "duration_s": 10.0, "start_rate": 1.0}],
            })

    def test_custom_topology_with_mix(self):
        scenario = scenario_from_dict({
            "topology": {"services": ["a", "b"], "edges": [["a", "b"]]},
            "request_mix": [{"name": "ping", "path": ["a", "b"], "weight": 1.0}],
            "profile": [{"kind": "plateau", "duration_s": 10.0, "start_rate": 1.0}],
        })
        result = run_scenario(scenario)
        assert result.arrivals_total >= 0


def _scenario_with(path, value):
    """A small valid scenario with the field at ``path`` (keys and indices) set."""
    raw = {
        "preset": "online_boutique_like",
        "duration_s": 10.0,
        "noise_sigma": 0.01,
        "profile": [{"kind": "ramp", "duration_s": 10.0, "start_rate": 1.0, "end_rate": 2.0}],
        "capacities": {"frontend": {"pods": 2}},
        "request_mix": [{"name": "browse", "path": ["frontend"], "weight": 1.0}],
    }
    target = raw
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return raw


_CAPACITY_FIELDS = [f.name for f in dataclasses.fields(ServiceCapacity)]


class TestNonFiniteScenario:
    """NaN and infinities are rejected before a simulation could start on them."""

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("path", [
        ("profile", 0, "duration_s"),
        ("profile", 0, "start_rate"),
        ("profile", 0, "end_rate"),
        ("duration_s",),
        ("noise_sigma",),
        ("seed",),
        ("queue_cap",),
        ("request_mix", 0, "weight"),
        *[("capacities", "frontend", name) for name in _CAPACITY_FIELDS],
    ], ids=lambda p: ".".join(map(str, p)))
    def test_rejected(self, path, value):
        with pytest.raises(SchemaError):
            scenario_from_dict(_scenario_with(path, value))

    def test_finite_values_still_load(self):
        scenario = scenario_from_dict(_scenario_with(("noise_sigma",), 0.0))
        assert scenario.duration_s == 10.0 and scenario.noise_sigma == 0.0
