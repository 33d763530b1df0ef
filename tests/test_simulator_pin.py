"""Pinned simulator output: the SHA-256 of the exposition text and of the
latency CSV for four short scenarios.

The reference comparison in ``test_simulator.py`` checks the simulator
against ``oracles``, and a rerun checks it against itself; neither would
notice a change that moves both. These digests move only when the bytes a
scenario simulates to move, so a change to the draws, the event order or
the number formats must change them here, in its own diff.

Scenarios:
  boutique    - the boutique preset on a ramp, spike and plateau
  sockshop    - the sockshop preset on the same shape
  saturating  - the boutique preset with one frontend pod under a spike,
                queue cap 20: several scrapes are saturated
  zero-noisy  - sockshop through a ramp, a zero-rate plateau and a spike
                from zero, with inexact segment lengths and noise_sigma 0.05
"""

import hashlib

import numpy as np
import pytest

from tailcast.simulator import run_scenario, sample_workload, scenario_from_dict
from tailcast.telemetry import write_latency_csv


def _segment(kind, duration, start, end=None):
    return {"kind": kind, "duration_s": duration, "start_rate": start,
            "end_rate": start if end is None else end}


_SHAPE = [_segment("ramp", 30.0, 2.0, 20.0), _segment("spike", 20.0, 20.0, 50.0),
          _segment("plateau", 30.0, 10.0)]

SCENARIOS = {
    "boutique": {"preset": "online_boutique_like", "seed": 3, "profile": _SHAPE},
    "sockshop": {"preset": "sockshop_like", "seed": 4, "profile": _SHAPE},
    "saturating": {
        "preset": "online_boutique_like", "seed": 7, "queue_cap": 20,
        "capacities": {"frontend": {"pods": 1, "service_rate": 30.0}},
        "profile": [_segment("plateau", 20.0, 10.0), _segment("spike", 30.0, 10.0, 60.0),
                    _segment("plateau", 20.0, 10.0)],
    },
    "zero-noisy": {
        "preset": "sockshop_like", "seed": 11, "noise_sigma": 0.05,
        "profile": [_segment("ramp", 20.1, 0.0, 20.0), _segment("plateau", 15.7, 0.0),
                    _segment("spike", 25.3, 0.0, 40.0)],
    },
}

# (exposition text, latency CSV), each a SHA-256 hex digest
PINS = {
    "boutique": ("c8f66e666927451374ebf09b988b9fbcd060dc65393badf39b086218774e9535",
                 "1b6e406b541ccb12a87c84a994f9fe544d6cf747f705dd99603ca3e62f158434"),
    "sockshop": ("73bac05064a16302349a98be4d43924a8f5f9230d781eec61ed14346aa1c30e0",
                 "db821a91ce314b486789ad24a9075e372356f918d9def8b96ac87910a6248e7a"),
    "saturating": ("f561acc30947e12d9df7db2eaab927a2d89d57c32dee1a17203f712dd4c5640d",
                   "ec5cbaea78270d0652e55d49b8a830511acefe234c50fb8aaaf3fa0be56d95ec"),
    "zero-noisy": ("a3dce14a5b54671fbe03248ff20719010e72045450fa0be484fef37504e3a064",
                   "450317974e6a2d59cabc90968e64b62604708ed4ecb1b6f2e5bc56b2c5489913"),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_simulated_bytes_are_pinned(name, tmp_path):
    result = run_scenario(scenario_from_dict(SCENARIOS[name]))
    assert result.completed_total == result.arrivals_total > 0
    if name == "saturating":
        assert result.saturated_scrape_times
    if name == "zero-noisy":
        assert not any(20.1 < r.arrival_time <= 35.8 for r in result.requests)
    csv_path = tmp_path / "latency.csv"
    write_latency_csv(csv_path, result.latency_records)
    digests = (hashlib.sha256(result.exposition_text.encode("utf-8")).hexdigest(),
               hashlib.sha256(csv_path.read_bytes()).hexdigest())
    assert digests == PINS[name]


def test_request_records_cover_every_hop_under_deep_queues():
    # ``requests`` is built from the run's columns when read: one record per
    # completed request, one hop per service on its path, the same on a
    # second read
    scenario = scenario_from_dict(SCENARIOS["saturating"])
    result = run_scenario(scenario)
    assert result.saturated_scrape_times
    workload = sample_workload(scenario.profile, scenario.cluster.request_types,
                               np.random.default_rng(np.random.SeedSequence(scenario.seed).spawn(3)[0]))
    path_lengths = [len(rt.path) for rt in scenario.cluster.request_types]
    hops = sum(path_lengths[kind] for _, kind in workload.arrivals)
    requests = result.requests
    assert len(requests) == result.completed_total
    assert sum(len(r.hop_services) for r in requests) == hops
    assert sum(len(r.hop_arrival_times) for r in requests) == hops
    for r in requests:
        times = r.hop_arrival_times
        assert times[0] == r.arrival_time
        assert list(times) == sorted(times) and times[-1] <= r.completion_time
    assert [r.completion_time for r in requests] == [t for t, _ in result.latency_records]
    assert result.requests == requests
