"""Pinned ingest output: dataset bytes, ingest stats and strict errors.

The streams are synthetic, built from each preset topology and a seed, so
these pins move only when ingestion changes, not when the simulator does.
Each scrape emits every series in one seed-shuffled order, so series order
(which decides node-sum order, which duplicate wins and which bad series a
strict ingest names) differs per seed. Counters reset now and then, scrape
times jitter, and a stretch of the stream has no latency samples.

Streams:
  plain    - every topology series, plus an external caller per entry service
  rogue    - plain plus an unknown destination, a pair that is not an edge,
             an unknown workload, an unknown metric, a duplicate edge series,
             a duplicate response-bytes edge series, a duplicate resource
             series and a traffic series without a source label, each at a
             seeded place in series order
  holes    - plain with stretches cut out of a resource series, an edge
             series and an external caller's response bytes (which feed no
             row and so cost no window)
  missing  - plain without one resource series: every window is dropped
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from tailcast.errors import SchemaError
from tailcast.simulator import preset_topologies
from tailcast.statgraph import save_dataset
from tailcast.telemetry import WindowSpec, build_snapshots, parse_exposition

T0 = 1000.0
SCRAPES = 31  # 150 s of 5 s scrapes: 25 windows of 30 s every 5 s
COUNTERS = {"istio_requests_total", "istio_request_bytes_sum", "istio_response_bytes_sum",
            "container_cpu_usage_seconds_total", "container_network_receive_bytes_total",
            "container_network_transmit_bytes_total", "mystery_total"}


def _labels(**kv):
    return "{" + ",".join(f'{k}="{v}"' for k, v in kv.items()) + "}"


def _series(topology, stream, rng):
    """(name, label text) of every series in the stream, in series order."""
    services = topology.services
    callees = {dst for _, dst in topology.edges}
    pairs = [(services[s], services[d]) for s, d in topology.edges]
    pairs += [("client", svc) for svc in services if topology.services.index(svc) not in callees]
    traffic = [(m, _labels(source_workload=s, destination_workload=d))
               for s, d in pairs
               for m in ("istio_requests_total", "istio_request_bytes_sum", "istio_response_bytes_sum")]
    resources = [(m, _labels(workload=svc)) for svc in services
                 for m in ("container_cpu_usage_seconds_total", "container_memory_usage_bytes",
                           "container_spec_cpu_period", "container_network_receive_bytes_total",
                           "container_network_transmit_bytes_total")]
    series = [traffic[i] for i in rng.permutation(len(traffic))]
    series += [resources[i] for i in rng.permutation(len(resources))]
    series = [series[i] for i in rng.permutation(len(series))]
    if stream == "missing":
        series.remove(("container_memory_usage_bytes", _labels(workload=services[1])))
    if stream == "rogue":
        (s0, d0), (s1, d1) = pairs[0], pairs[-1]
        extra = [
            ("istio_requests_total", _labels(source_workload=s0, destination_workload="ghost")),
            ("istio_request_bytes_sum", _labels(source_workload=d0, destination_workload=s0)),
            ("container_cpu_usage_seconds_total", _labels(workload="ghost")),
            ("mystery_total", _labels(workload=services[0])),
            ("istio_requests_total", _labels(source_workload=s0, destination_workload=d0, pod="b")),
            ("istio_response_bytes_sum", _labels(source_workload=s0, destination_workload=d0,
                                                 pod="b")),
            ("container_memory_usage_bytes", _labels(workload=services[2], pod="b")),
            ("istio_requests_total", _labels(destination_workload=d1)),
        ]
        for entry in extra:
            series.insert(int(rng.integers(0, len(series) + 1)), entry)
    return series


def _holes(topology, series):
    """Per series, the scrape indices a 'holes' stream leaves out."""
    services = topology.services
    edge = next(key for key in series if key[0] == "istio_request_bytes_sum"
                and "client" not in key[1])
    external = next(key for key in series if key[0] == "istio_response_bytes_sum"
                    and "client" in key[1])
    return {
        ("container_cpu_usage_seconds_total", _labels(workload=services[0])): range(4, 9),
        ("container_spec_cpu_period", _labels(workload=services[-1])): range(18, 26),
        edge: range(11, 18),
        external: range(5, 25),
    }


def _stream(preset, seed, stream):
    """Exposition text and latency samples of one synthetic stream."""
    topology = preset_topologies()[preset].topology
    rng = np.random.default_rng(seed)
    series = _series(topology, stream, rng)
    holes = _holes(topology, series) if stream == "holes" else {}
    times = T0 + 5.0 * np.arange(SCRAPES) + rng.uniform(0.0, 0.5, SCRAPES)
    values = {}
    for key in series:
        if key[0] in COUNTERS:
            steps = rng.exponential(rng.uniform(1.0, 500.0), SCRAPES)
            total = np.cumsum(steps)
            reset = int(rng.integers(0, 3 * SCRAPES))  # one series in three resets
            if reset < SCRAPES:
                total[reset:] -= total[reset] - steps[reset]
            values[key] = total
        elif key[0] == "container_spec_cpu_period":
            values[key] = np.full(SCRAPES, 100000.0)
        else:
            values[key] = rng.uniform(1e8, 5e8, SCRAPES)
    lines = []
    for k, t in enumerate(times.tolist()):
        for key in series:
            if k not in holes.get(key, ()):
                lines.append(f"{key[0]}{key[1]} {float(values[key][k])!r} {t!r}")
    arrivals = np.sort(rng.uniform(T0, T0 + 5.0 * SCRAPES, 40 * SCRAPES))
    arrivals = arrivals[(arrivals < T0 + 60.0) | (arrivals > T0 + 100.0)]
    latency = list(zip(arrivals.tolist(), rng.lognormal(-3.0, 0.7, arrivals.size).tolist()))
    return topology, "\n".join(lines) + "\n", latency


def _ingest(tmp_path, preset, seed, stream, strict):
    topology, text, latency = _stream(preset, seed, stream)
    samples = parse_exposition(text).samples
    dataset, stats = build_snapshots(samples, topology, WindowSpec(), latency, strict=strict)
    path = tmp_path / "dataset.jsonl"
    save_dataset(dataset, path)
    return hashlib.sha256(path.read_bytes()).hexdigest(), dataclasses.asdict(stats)


def _stats(total, built, no_label, missing, unknown, by_series):
    return {"windows_total": total, "windows_built": built, "dropped_no_label": no_label,
            "dropped_missing_data": missing, "unknown_label_series": unknown,
            "dropped_missing_by_series": by_series, "parse_skipped": 0}


# Literals from a reference run: a changed value is a change in ingest output.
# (preset, seed, stream, strict) -> (save_dataset SHA-256, IngestStats as a dict)
PINNED = {
    ('online_boutique_like', 0, 'plain', True): (
        'cbb85c007d5f342a1b76ff5336af388062c6f9fc26ef210af0c166cffdd7aa62',
        _stats(25, 22, 3, 0, 0, {})),
    ('online_boutique_like', 0, 'plain', False): (
        'cbb85c007d5f342a1b76ff5336af388062c6f9fc26ef210af0c166cffdd7aa62',
        _stats(25, 22, 3, 0, 0, {})),
    ('online_boutique_like', 0, 'rogue', False): (
        'b7f6639985468c67ac8c721f0a306d7bafa71db30811b8c727cd9e22d007a1b7',
        _stats(25, 22, 3, 0, 4, {})),
    ('online_boutique_like', 0, 'holes', True): (
        '77ebd7cd70ee9731ace7bdcc07e7c435e6fd8fb622f08a2bc27c32419a3dd781',
        _stats(25, 15, 3, 7, 0, {
            'istio_request_bytes_sum{frontend->cartservice}': 2,
            'container_cpu_usage_seconds_total{adservice}': 2,
            'container_spec_cpu_period{shippingservice}': 3,
        })),
    ('online_boutique_like', 0, 'holes', False): (
        '77ebd7cd70ee9731ace7bdcc07e7c435e6fd8fb622f08a2bc27c32419a3dd781',
        _stats(25, 15, 3, 7, 0, {
            'istio_request_bytes_sum{frontend->cartservice}': 2,
            'container_cpu_usage_seconds_total{adservice}': 2,
            'container_spec_cpu_period{shippingservice}': 3,
        })),
    ('online_boutique_like', 0, 'missing', True): (
        'aabedc5e90b4168428d511fe14cff08ea773b7554b5adaec314e95322f5a0d14',
        _stats(25, 0, 3, 22, 0, {
            'container_memory_usage_bytes{cartservice}': 22,
        })),
    ('online_boutique_like', 0, 'missing', False): (
        'aabedc5e90b4168428d511fe14cff08ea773b7554b5adaec314e95322f5a0d14',
        _stats(25, 0, 3, 22, 0, {
            'container_memory_usage_bytes{cartservice}': 22,
        })),
    ('online_boutique_like', 7919, 'plain', True): (
        'b1b21358e1282867cd16a24b0cf1d9d250bf648f8132532d12a9a2f76f0b7abe',
        _stats(25, 22, 3, 0, 0, {})),
    ('online_boutique_like', 7919, 'plain', False): (
        'b1b21358e1282867cd16a24b0cf1d9d250bf648f8132532d12a9a2f76f0b7abe',
        _stats(25, 22, 3, 0, 0, {})),
    ('online_boutique_like', 7919, 'rogue', False): (
        '51dd8de32f4f81fafee6f0ce62029a573996a7996a096153d3bf71812157e20e',
        _stats(25, 23, 2, 0, 4, {})),
    ('online_boutique_like', 7919, 'holes', True): (
        '27ff99b3784851f32a4843b6cbe30b390f676ea964b78123e62ca3dbc6850848',
        _stats(25, 14, 3, 8, 0, {
            'istio_request_bytes_sum{frontend->shippingservice}': 2,
            'container_cpu_usage_seconds_total{adservice}': 2,
            'container_spec_cpu_period{shippingservice}': 4,
        })),
    ('online_boutique_like', 7919, 'holes', False): (
        '27ff99b3784851f32a4843b6cbe30b390f676ea964b78123e62ca3dbc6850848',
        _stats(25, 14, 3, 8, 0, {
            'istio_request_bytes_sum{frontend->shippingservice}': 2,
            'container_cpu_usage_seconds_total{adservice}': 2,
            'container_spec_cpu_period{shippingservice}': 4,
        })),
    ('online_boutique_like', 7919, 'missing', True): (
        'aabedc5e90b4168428d511fe14cff08ea773b7554b5adaec314e95322f5a0d14',
        _stats(25, 0, 3, 22, 0, {
            'container_memory_usage_bytes{cartservice}': 22,
        })),
    ('online_boutique_like', 7919, 'missing', False): (
        'aabedc5e90b4168428d511fe14cff08ea773b7554b5adaec314e95322f5a0d14',
        _stats(25, 0, 3, 22, 0, {
            'container_memory_usage_bytes{cartservice}': 22,
        })),
    ('sockshop_like', 0, 'plain', True): (
        'c908e185758774fd8799f95cc2c088f51ea1361f52f6d34081bd4bf401c8d1c1',
        _stats(24, 22, 2, 0, 0, {})),
    ('sockshop_like', 0, 'plain', False): (
        'c908e185758774fd8799f95cc2c088f51ea1361f52f6d34081bd4bf401c8d1c1',
        _stats(24, 22, 2, 0, 0, {})),
    ('sockshop_like', 0, 'rogue', False): (
        '3785752eaef4f8071530131d6f8c566dbdf078ffd85f54a3ec5f2a8b19edb617',
        _stats(25, 23, 2, 0, 4, {})),
    ('sockshop_like', 0, 'holes', True): (
        '0e530111fd0ab761f464c58b10c27a664338fb0f83d598ea2a1cd4285fd8a106',
        _stats(24, 16, 2, 6, 0, {
            'istio_request_bytes_sum{front-end->catalogue}': 2,
            'container_cpu_usage_seconds_total{carts}': 1,
            'container_spec_cpu_period{user-db}': 3,
        })),
    ('sockshop_like', 0, 'holes', False): (
        '0e530111fd0ab761f464c58b10c27a664338fb0f83d598ea2a1cd4285fd8a106',
        _stats(24, 16, 2, 6, 0, {
            'istio_request_bytes_sum{front-end->catalogue}': 2,
            'container_cpu_usage_seconds_total{carts}': 1,
            'container_spec_cpu_period{user-db}': 3,
        })),
    ('sockshop_like', 0, 'missing', True): (
        '6396caa427010efbfdd821dcdad03fceeb217768c986f4cc94a4511d15b393fa',
        _stats(24, 0, 2, 22, 0, {
            'container_memory_usage_bytes{carts-db}': 22,
        })),
    ('sockshop_like', 0, 'missing', False): (
        '6396caa427010efbfdd821dcdad03fceeb217768c986f4cc94a4511d15b393fa',
        _stats(24, 0, 2, 22, 0, {
            'container_memory_usage_bytes{carts-db}': 22,
        })),
    ('sockshop_like', 7919, 'plain', True): (
        'd82c837b8c63eb37f5b3096f4275f8c238285004a3f59cf58f25e5635b65bdaa',
        _stats(24, 21, 3, 0, 0, {})),
    ('sockshop_like', 7919, 'plain', False): (
        'd82c837b8c63eb37f5b3096f4275f8c238285004a3f59cf58f25e5635b65bdaa',
        _stats(24, 21, 3, 0, 0, {})),
    ('sockshop_like', 7919, 'rogue', False): (
        '43b8c9e6799d0dd4fee03afb0528ce57b5a8ce54fba2523f747c31b249a2bc00',
        _stats(25, 22, 3, 0, 4, {})),
    ('sockshop_like', 7919, 'holes', True): (
        '545f97280c2b19b6f90ad80d41bc9430b01a9db65f3984cd1158093b22ad863b',
        _stats(24, 14, 3, 7, 0, {
            'istio_request_bytes_sum{orders->shipping}': 2,
            'container_cpu_usage_seconds_total{carts}': 2,
            'container_spec_cpu_period{user-db}': 3,
        })),
    ('sockshop_like', 7919, 'holes', False): (
        '545f97280c2b19b6f90ad80d41bc9430b01a9db65f3984cd1158093b22ad863b',
        _stats(24, 14, 3, 7, 0, {
            'istio_request_bytes_sum{orders->shipping}': 2,
            'container_cpu_usage_seconds_total{carts}': 2,
            'container_spec_cpu_period{user-db}': 3,
        })),
    ('sockshop_like', 7919, 'missing', True): (
        '6396caa427010efbfdd821dcdad03fceeb217768c986f4cc94a4511d15b393fa',
        _stats(24, 0, 3, 21, 0, {
            'container_memory_usage_bytes{carts-db}': 21,
        })),
    ('sockshop_like', 7919, 'missing', False): (
        '6396caa427010efbfdd821dcdad03fceeb217768c986f4cc94a4511d15b393fa',
        _stats(24, 0, 3, 21, 0, {
            'container_memory_usage_bytes{carts-db}': 21,
        })),
}

# (preset, seed) -> the strict error of the rogue stream
PINNED_ROGUE_STRICT = {
    ('online_boutique_like', 0): "container_cpu_usage_seconds_total: unknown workload 'ghost'",
    ('online_boutique_like', 7919): "unknown metric 'mystery_total'",
    ('sockshop_like', 0): "istio_requests_total: unknown destination_workload 'ghost'",
    ('sockshop_like', 7919): "unknown metric 'mystery_total'",
}


@pytest.mark.parametrize("key", sorted(PINNED), ids=lambda k: "-".join(map(str, k)))
def test_dataset_and_stats_pinned(tmp_path, key):
    assert _ingest(tmp_path, *key) == PINNED[key]


@pytest.mark.parametrize("key", sorted(PINNED_ROGUE_STRICT), ids=lambda k: "-".join(map(str, k)))
def test_rogue_stream_strict_error_pinned(key):
    topology, text, latency = _stream(*key, "rogue")
    with pytest.raises(SchemaError) as err:
        build_snapshots(parse_exposition(text).samples, topology, WindowSpec(), latency)
    assert str(err.value) == PINNED_ROGUE_STRICT[key]


_BAD = {
    "edge": 'istio_requests_total{source_workload="cartservice",destination_workload="ghost"}',
    "resource": 'container_memory_usage_bytes{workload="ghost"}',
    "metric": 'mystery_total{workload="frontend"}',
    "pair": 'istio_request_bytes_sum{source_workload="adservice",destination_workload="frontend"}',
}


@pytest.mark.parametrize("first,error", [
    ("edge", "istio_requests_total: unknown destination_workload 'ghost'"),
    ("resource", "container_memory_usage_bytes: unknown workload 'ghost'"),
    ("metric", "unknown metric 'mystery_total'"),
    ("pair", "istio_request_bytes_sum: (adservice, frontend) is not a topology edge"),
])
def test_strict_error_names_the_first_bad_series(first, error):
    """Bad series of every kind after good ones: the first in series order is named."""
    topology, text, latency = _stream("online_boutique_like", 0, "plain")
    order = [first] + [kind for kind in _BAD if kind != first]
    bad = "".join(f"{_BAD[kind]} 1.0 {T0 + i!r}\n" for i, kind in enumerate(order))
    samples = parse_exposition(text + bad).samples
    with pytest.raises(SchemaError) as err:
        build_snapshots(samples, topology, WindowSpec(), latency)
    assert str(err.value) == error
    _, stats = build_snapshots(samples, topology, WindowSpec(), latency, strict=False)
    assert stats.unknown_label_series == len(_BAD)
