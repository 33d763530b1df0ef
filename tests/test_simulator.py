"""Workload sampling, queueing behavior, telemetry conservation, presets."""

import dataclasses
import gc
import heapq
import math
import sys
import tracemalloc
import weakref
from bisect import bisect_right
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    ReferenceResult,
    mm1_mean_sojourn,
    nearest_rank_p95,
    reference_rate_at,
    reference_run_simulation,
    reference_sample_workload,
)

from tailcast import simulator
from tailcast.errors import SchemaError
from tailcast.simulator import (
    MAX_CANDIDATES,
    SCRAPE_INTERVAL,
    ClusterSpec,
    IntensityProfile,
    RequestType,
    Scenario,
    Segment,
    ServiceCapacity,
    Workload,
    load_scenario,
    preset_topologies,
    run_scenario,
    run_simulation,
    sample_workload,
    scenario_from_dict,
)
from tailcast.statgraph import Topology
from tailcast.telemetry import WindowSpec, parse_exposition, window_p95


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
    """The rate definition ``sample_workload`` evaluates inline, in ``oracles``."""

    def test_ramp_interpolates(self):
        prof = IntensityProfile((Segment("ramp", 10.0, 0.0, 10.0),))
        assert reference_rate_at(prof, 5.0) == pytest.approx(5.0)

    def test_spike_peaks_at_midpoint(self):
        prof = IntensityProfile((Segment("spike", 10.0, 2.0, 12.0),))
        assert reference_rate_at(prof, 5.0) == pytest.approx(12.0)
        assert reference_rate_at(prof, 0.0) == pytest.approx(2.0)
        assert reference_rate_at(prof, 10.0) == pytest.approx(2.0)

    def test_rate_at_segment_boundaries(self):
        prof = BOUNDARY_PROFILE
        boundaries = segment_ends(prof)
        assert boundaries[1] != 0.3
        # a boundary instant belongs to the earlier segment, the next float to the later
        earlier_end = (3.0, 9.0, 2.0)
        for b, end_rate, later in zip(boundaries, earlier_end, prof.segments[1:]):
            assert reference_rate_at(prof, b) == pytest.approx(end_rate)
            after = float(np.nextafter(b, math.inf))
            assert reference_rate_at(prof, after) == pytest.approx(later.start_rate)
        assert reference_rate_at(prof, 0.0) == 3.0
        last = boundaries[-1]
        assert reference_rate_at(prof, last) == 4.0
        for t in (float(np.nextafter(last, math.inf)), last + 1.0, 1e12):
            assert reference_rate_at(prof, t) == 0.0

    def test_invalid_segment(self):
        with pytest.raises(SchemaError):
            Segment("wiggle", 10.0, 1.0, 1.0)
        with pytest.raises(SchemaError):
            Segment("ramp", 0.0, 1.0, 1.0)


# durations whose running sums are inexact in binary
BOUNDARY_PROFILE = IntensityProfile((
    Segment("plateau", 0.1, 3.0, 3.0),
    Segment("ramp", 0.2, 5.0, 9.0),
    Segment("spike", 0.3, 2.0, 12.0),
    Segment("plateau", 0.7, 4.0, 4.0),
))


def segment_ends(profile):
    """Each segment's end, summed left to right from 0.0."""
    ends, offset = [], 0.0
    for s in profile.segments:
        offset += s.duration
        ends.append(offset)
    return ends


class ScriptedRng:
    """A stand-in generator whose ``exponential`` and ``random`` return chosen values."""

    def __init__(self, gaps, uniforms):
        self.gaps, self.uniforms = list(gaps), list(uniforms)

    def exponential(self, scale):
        return self.gaps.pop(0)

    def random(self):
        return self.uniforms.pop(0)


def gap_to(t, target):
    """A gap ``g`` with ``t + g == target`` in floating point."""
    g = target - t
    while t + g != target:
        g = float(np.nextafter(g, math.inf if t + g < target else -math.inf))
    return g


class TestSamplerExactness:
    """``sample_workload`` walks the profile once; ``oracles.reference_sample_workload``
    looks every candidate's rate up from the start. Their arrivals and draws agree."""

    def test_candidates_on_and_just_past_each_segment_end(self):
        prof = BOUNDARY_PROFILE
        assert prof.max_rate == 12.0
        b1, b2, b3, last = segment_ends(prof)
        after = [float(np.nextafter(b, math.inf)) for b in (b1, b2, b3)]
        # (candidate time, thinning uniform, kept): each uniform times the peak
        # rate lies between the earlier and the later segment's rate there, so
        # only the segment a boundary instant belongs to keeps or drops it
        script = [
            (b1, 4 / 12, False),        # plateau 3.0, not ramp 5.0
            (after[0], 4 / 12, True),   # ramp from 5.0
            (b2, 5 / 12, True),         # ramp end 9.0, not spike 2.0
            (after[1], 5 / 12, False),  # spike from 2.0
            (b3, 3 / 12, False),        # spike end 2.0, not plateau 4.0
            (after[2], 3 / 12, True),   # plateau 4.0
            (last, 3 / 12, True),       # the profile's last instant: plateau 4.0
        ]
        gaps, uniforms, t = [], [], 0.0
        for target, u, kept in script:
            gaps.append(gap_to(t, target))
            t = target
            uniforms += [u, 0.5] if kept else [u]
        gaps.append(gap_to(last, float(np.nextafter(last, math.inf))))  # past the end: stop
        types = (RequestType("only", ("svc",), 1.0),)
        expected = [(target, 0) for target, _, kept in script if kept]
        for sample in (sample_workload, reference_sample_workload):
            rng = ScriptedRng(gaps, uniforms)
            assert sample(prof, types, rng).arrivals == expected
            assert rng.gaps == [] and rng.uniforms == []

    def test_a_total_past_the_last_end_has_rate_zero_there(self):
        # Python 3.12's sum() compensates its rounding, so total_duration can
        # end one float after the left-to-right sum of the segments
        class Compensated(IntensityProfile):
            @property
            def total_duration(self):
                return float(np.nextafter(segment_ends(self)[-1], math.inf))

        prof = Compensated(BOUNDARY_PROFILE.segments)
        last = segment_ends(prof)[-1]
        gaps = [gap_to(0.0, last), gap_to(last, prof.total_duration), 1.0]
        uniforms = [3 / 12, 0.5, 3 / 12]  # kept at plateau 4.0, dropped at rate 0
        types = (RequestType("only", ("svc",), 1.0),)
        for sample in (sample_workload, reference_sample_workload):
            rng = ScriptedRng(gaps, uniforms)
            assert sample(prof, types, rng).arrivals == [(last, 0)]
            assert rng.gaps == [] and rng.uniforms == []

    @given(
        st.lists(
            st.tuples(st.sampled_from(["ramp", "spike", "plateau"]),
                      st.one_of(st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.0]),
                                st.floats(0.01, 6.0)),
                      st.one_of(st.just(0.0), st.floats(0.0, 40.0)),
                      st.one_of(st.just(0.0), st.floats(0.0, 40.0))),
            min_size=1, max_size=6),
        st.lists(st.integers(1, 9), min_size=1, max_size=3),
        st.integers(0, 2**32 - 1),
    )
    @settings(derandomize=True, max_examples=150, deadline=None)
    def test_matches_the_reference(self, segments, shares, seed):
        prof = IntensityProfile(tuple(Segment(*s) for s in segments))
        types = tuple(RequestType(f"r{k}", ("svc",), share / sum(shares))
                      for k, share in enumerate(shares))
        runs = []
        for sample in (sample_workload, reference_sample_workload):
            rng = np.random.default_rng(seed)
            runs.append((sample(prof, types, rng).arrivals, rng.bit_generator.state))
        assert runs[0] == runs[1]


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
        result = run_simulation(spec, workload, 2000.0, rng=np.random.default_rng(12),
                                noise_rng=None, noise_sigma=0.0, queue_cap=500)
        lat = np.asarray([lat for _, lat in result.latency_records])
        assert lat.size > 1500
        assert abs(lat.mean() - mm1_mean_sojourn(1.0, 100.0)) / mm1_mean_sojourn(1.0, 100.0) < 0.10

    def test_mm1_analytic_sojourn(self):
        # rho = 0.5; mean sojourn = 1/(mu - lambda)
        mu, lam = 4.0, 2.0
        spec = single_service_spec(rate=mu)
        workload = sample_workload(plateau(lam, 6000.0), spec.request_types,
                                   np.random.default_rng(21))
        result = run_simulation(spec, workload, 6000.0, rng=np.random.default_rng(22),
                                noise_rng=None, noise_sigma=0.0, queue_cap=500)
        lat = np.asarray([lat for _, lat in result.latency_records])
        expected = mm1_mean_sojourn(lam, mu)
        assert abs(lat.mean() - expected) / expected < 0.05

    def test_zero_arrivals_all_counters_constant(self):
        spec = single_service_spec()
        workload = sample_workload(plateau(0.0, 100.0), spec.request_types,
                                   np.random.default_rng(0))
        result = run_simulation(spec, workload, 100.0, rng=np.random.default_rng(1),
                                noise_rng=None, noise_sigma=0.0, queue_cap=500)
        assert result.latency_records == []
        series = parse_exposition(result.exposition_text).samples.series
        for key, (_, values) in series.items():
            vals = set(values)
            assert len(vals) == 1, f"series {key} moved with zero arrivals"

    def test_doubling_load_increases_p95(self):
        mu = 4.0
        spec = single_service_spec(rate=mu)
        results = {}
        for lam in (1.5, 3.0):
            workload = sample_workload(plateau(lam, 1500.0), spec.request_types,
                                       np.random.default_rng(31))
            results[lam] = run_simulation(spec, workload, 1500.0, rng=np.random.default_rng(32),
                                           noise_rng=None, noise_sigma=0.0, queue_cap=500)
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
            result = run_simulation(spec, workload, 800.0, rng=np.random.default_rng(42),
                                    noise_rng=None, noise_sigma=0.0, queue_cap=500)
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
                                  noise_rng=np.random.default_rng(7), noise_sigma=0.01,
                                  queue_cap=500)

        r1, r2 = run(), run()
        assert r1.exposition_text == r2.exposition_text
        assert r1.latency_records == r2.latency_records

    def test_saturation_flagged_not_fatal(self):
        spec = single_service_spec(rate=2.0)
        workload = sample_workload(plateau(20.0, 60.0), spec.request_types,
                                   np.random.default_rng(51))
        result = run_simulation(spec, workload, 60.0, rng=np.random.default_rng(52),
                                noise_rng=None, noise_sigma=0.0, queue_cap=50)
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
        result = simulate(spec, wl, duration, rng=rngs[1], noise_rng=rngs[2],
                          **{"noise_sigma": 0.0, "queue_cap": 500, **kwargs})
        runs.append((wl.arrivals, result, [g.bit_generator.state for g in rngs]))
    (arrivals, result, states), (ref_arrivals, ref_result, ref_states) = runs
    assert arrivals == ref_arrivals
    for f in dataclasses.fields(ReferenceResult):
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
    duration = (draw(st.integers(1, 8)) + draw(st.sampled_from([0.1, 0.5, 0.9]))) * SCRAPE_INTERVAL
    return spec, IntensityProfile(segments), duration


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

    def test_arrivals_at_infinity_are_drained(self):
        # inf - inf makes their latencies NaN, so the requests are compared
        arrivals = [(1.0, 0), (math.inf, 1), (math.inf, 0)]
        results = [simulate(two_hop_spec(), Workload(arrivals), 10.0, rng=np.random.default_rng(8),
                            noise_rng=None, noise_sigma=0.0, queue_cap=500)
                   for simulate in (run_simulation, reference_run_simulation)]
        assert results[0].requests == results[1].requests
        assert results[0].exposition_text == results[1].exposition_text
        assert results[0].completed_total == 3

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
        spec, profile, duration = case
        assert_matches_reference(spec, duration, seed, profile, noise_sigma=noise_sigma,
                                 queue_cap=queue_cap)


class TestConservation:
    def test_edge_counters_equal_traversal_counts(self):
        spec = preset_topologies()["online_boutique_like"]
        workload = sample_workload(plateau(20.0, 120.0), spec.request_types,
                                   np.random.default_rng(61))
        result = run_simulation(spec, workload, 120.0, rng=np.random.default_rng(62),
                                noise_rng=None, noise_sigma=0.0, queue_cap=500)
        series = parse_exposition(result.exposition_text).samples.series
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
                values = dict(zip(*series[key]))
                assert values[check_t] == float(expected)

    def test_telemetry_p95_matches_simulator_p95(self):
        spec = preset_topologies()["sockshop_like"]
        workload = sample_workload(plateau(15.0, 120.0), spec.request_types,
                                   np.random.default_rng(71))
        result = run_simulation(spec, workload, 120.0, rng=np.random.default_rng(72),
                                noise_rng=None, noise_sigma=0.0, queue_cap=500)
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


class TestTransientMemory:
    """What ``run_scenario`` holds beyond the result it returns."""

    # the criterion-8 boutique sizing and load cycle at 1/8 length, spike
    # at 40 req/s; queue cap 50, so four scrapes are saturated
    SATURATING = {
        "preset": "online_boutique_like", "seed": 1, "noise_sigma": 0.01, "queue_cap": 50,
        "capacities": {
            "frontend": {"pods": 2, "service_rate": 40.0},
            "productcatalogservice": {"pods": 1, "service_rate": 15.0},
            "recommendationservice": {"pods": 1, "service_rate": 40.0},
            "cartservice": {"pods": 1, "service_rate": 40.0},
            "checkoutservice": {"pods": 1, "service_rate": 40.0},
        },
        "profile": [
            {"kind": "ramp", "duration_s": 100.0, "start_rate": 4.0, "end_rate": 20.0},
            {"kind": "plateau", "duration_s": 75.0, "start_rate": 20.0},
            {"kind": "spike", "duration_s": 25.0, "start_rate": 20.0, "end_rate": 40.0},
            {"kind": "ramp", "duration_s": 100.0, "start_rate": 20.0, "end_rate": 6.0},
            {"kind": "plateau", "duration_s": 91.625, "start_rate": 6.0},
        ],
    }

    def test_peak_above_the_result_stays_under_twice_the_text(self):
        # Measured on this scenario: 1.29 with no object per request in
        # the loop (hop times in one flat list, hop counts freed before
        # the join); 1.68 with a SimRequest per completed request and hop
        # lists released at completion (1.64 when first measured); 3.91
        # with one string per exposition line held to the end of the run;
        # 2.68 with a second copy of the text made after the join; 2.32
        # with every completed request's hop list kept.
        scenario = scenario_from_dict(self.SATURATING)
        gc.collect()
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            result = run_scenario(scenario)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result.saturated_scrape_times) == 4
        ratio = (peak - retained) / len(result.exposition_text)
        assert ratio < 2.0, f"transient {(peak - retained) / 1e6:.2f} MB is {ratio:.2f}x the text"
        assert retained - base > len(result.exposition_text)

    def test_result_holds_columns_besides_the_text_and_records(self):
        # Bytes per completed request the result keeps besides
        # exposition_text and latency_records, measured on this scenario:
        # 53 with arrival times, hop times and the completion order in typed
        # arrays and a list of kinds; 201 with the sampled (time, kind)
        # tuples, a list of hop-time floats and a list of rids.
        scenario = scenario_from_dict(self.SATURATING)
        gc.collect()
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            result = run_scenario(scenario)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        records = result.latency_records
        shown = (sys.getsizeof(result.exposition_text) + sys.getsizeof(records)
                 + sum(sys.getsizeof(pair) + sum(map(sys.getsizeof, pair)) for pair in records))
        assert result.completed_total == result.arrivals_total > 5000
        per_request = (retained - base - shown) / result.completed_total
        assert per_request < 100, f"{per_request:.0f} bytes kept per completed request"

    def test_sampled_arrivals_are_freed_before_the_first_event(self, monkeypatch):
        # run_scenario passes the sampled workload on without keeping it,
        # and run_simulation drops its (time, kind) tuples once the columns
        # are built: when the first hop is scheduled, no sampled time, and
        # so no tuple holding one, is alive.
        class Time(float):
            pass

        sample, times, alive = simulator.sample_workload, [], []

        def tracked_sample(*args):
            arrivals = [(Time(t), kind) for t, kind in sample(*args).arrivals]
            times.extend(weakref.ref(t) for t, _ in arrivals)
            return Workload(arrivals)

        def heappush(heap, item):
            if not alive:
                alive.append(sum(ref() is not None for ref in times))
            heapq.heappush(heap, item)

        monkeypatch.setattr(simulator, "sample_workload", tracked_sample)
        monkeypatch.setattr(simulator, "heapq", SimpleNamespace(heappush=heappush, heappop=heapq.heappop))
        result = run_scenario(scenario_from_dict(self.SATURATING))
        assert len(times) == result.arrivals_total > 5000
        assert alive == [0]


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


class TestOutOfRangeScenario:
    """Finite values outside a field's range are rejected, not rounded or ignored."""

    @pytest.mark.parametrize("path,value", [
        (("capacities", "frontend", "pods"), 2.5),  # would run 3 servers (busy < pods)
        (("queue_cap",), -3),
        (("queue_cap",), 2.5),
        (("noise_sigma",), -0.5),
        (("seed",), 1.9),  # would run as seed 1
        (("seed",), -1),  # would fail later, in SeedSequence
        (("seed",), "3"),
        (("seed",), True),  # would run as seed 1
        (("queue_cap",), True),  # would cap queues at 1
        # float() reads a numeric string or a boolean as a number
        (("duration_s",), "10"),
        (("duration_s",), True),
        (("noise_sigma",), "0.01"),
        (("noise_sigma",), True),
        (("profile", 0, "duration_s"), "10"),
        (("profile", 0, "duration_s"), True),
        (("profile", 0, "start_rate"), "1"),
        (("profile", 0, "start_rate"), True),
        (("request_mix", 0, "weight"), "1"),
        (("request_mix", 0, "weight"), True),
        (("capacities", "frontend", "pods"), True),  # would run one server
        (("capacities", "frontend", "service_rate"), True),  # would serve 1 request/s
        (("duration_s",), 1e300),  # the profile is 10 s long: would scrape without end
        (("duration_s",), 10.5),
        # str() read any JSON value as a name
        (("request_mix", 0, "name"), None),  # would load as request type "None"
        (("request_mix", 0, "name"), 5),  # would load as request type "5"
        (("profile", 0, "kind"), None),
        (("profile", 0, "kind"), ["ramp"]),
        (("preset",), ["online_boutique_like"]),  # raised TypeError: unhashable
    ], ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else repr(v))
    def test_rejected(self, path, value):
        with pytest.raises(SchemaError, match=path[-1]):
            scenario_from_dict(_scenario_with(path, value))

    def test_duration_longer_than_the_profile_names_both(self):
        message = r"duration_s 10\.5 is longer than the profile's 10\.0 s"
        with pytest.raises(SchemaError, match=message):
            scenario_from_dict(_scenario_with(("duration_s",), 10.5))

    @pytest.mark.parametrize("path, value, candidates", [
        (("profile", 0, "start_rate"), 1e300, r"1e\+301"),  # would draw without end
        (("profile", 0, "end_rate"), 1e6 + 1, r"10000010\.0"),
    ], ids=["start_rate_1e300", "end_rate_over_the_bound"])
    def test_profile_asking_for_too_many_candidates_names_both(self, path, value, candidates):
        message = rf"asks for {candidates} candidate arrivals .* more than the 1e\+07 allowed"
        with pytest.raises(SchemaError, match=message):
            scenario_from_dict(_scenario_with(path, value))

    def test_profile_at_the_candidate_bound_loads(self):
        # a 10 s profile at 1e6 req/s: exactly MAX_CANDIDATES
        scenario = scenario_from_dict(_scenario_with(("profile", 0, "end_rate"), 1e6))
        assert scenario.profile.max_rate * scenario.profile.total_duration == MAX_CANDIDATES

    def test_duration_equal_to_the_profile_up_to_rounding_loads(self):
        raw = _scenario_with(("duration_s",), 0.8)
        raw["profile"] = [{"kind": "plateau", "duration_s": d, "start_rate": 1.0}
                          for d in (0.1, 0.7)]
        assert 0.1 + 0.7 < 0.8  # the sum of the segments rounds below the duration
        assert scenario_from_dict(raw).duration_s == 0.8

    def test_integral_values_load_as_integers(self):
        raw = _scenario_with(("seed",), 7.0)
        raw["queue_cap"] = 0
        raw["capacities"]["frontend"]["pods"] = 3
        scenario = scenario_from_dict(raw)
        assert (scenario.seed, scenario.queue_cap) == (7, 0)
        assert type(scenario.seed) is int and scenario.cluster.capacities["frontend"].pods == 3
