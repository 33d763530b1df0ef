"""Seeded discrete-event queueing simulator of a microservice cluster.

Each service is a multi-server FIFO queue (pod count servers, exponential
service times). A request walks its call path one hop at a time; end-to-end
latency is the sum of per-hop queueing and service times. The simulator
emits exposition-format telemetry every scrape interval plus a latency CSV,
so the ingestion pipeline consumes synthetic clusters and real scrapes
identically.
"""

from __future__ import annotations

import heapq
import json
import math
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import chain
from operator import itemgetter

import numpy as np

from .errors import SchemaError
from .statgraph import Topology

CLIENT = "client"  # pseudo-source for external arrivals
CPU_PERIOD_US = 100000.0

_DRAW_BLOCK = 4096  # service times drawn per rng call


@dataclass(frozen=True)
class ServiceCapacity:
    """Static sizing of one service."""

    pods: int = 2
    service_rate: float = 40.0        # per-pod service rate, requests/s
    cpu_per_request: float = 0.8      # cpu-seconds consumed per second of service time
    request_bytes: float = 800.0      # payload consumed per request
    response_bytes: float = 4000.0    # payload produced per response
    memory_base: float = 256e6       # resident bytes when idle
    memory_per_queued: float = 8e6   # additional bytes per in-flight request

    def __post_init__(self):
        if not all(math.isfinite(getattr(self, f.name)) for f in fields(self)):
            raise SchemaError(f"capacity fields must be finite: {self}")
        if self.pods < 1 or self.service_rate <= 0:
            raise SchemaError(f"invalid capacity: pods={self.pods}, service_rate={self.service_rate}")


@dataclass(frozen=True)
class RequestType:
    """A user-facing API call: an ordered walk through the topology."""

    name: str
    path: tuple[str, ...]
    weight: float


@dataclass(frozen=True)
class ClusterSpec:
    topology: Topology
    capacities: dict[str, ServiceCapacity]
    request_types: tuple[RequestType, ...]

    def validate(self) -> None:
        names = set(self.topology.services)
        if CLIENT in names:
            raise SchemaError(f"service name {CLIENT!r} is reserved for external callers")
        missing = sorted(names - set(self.capacities))
        if missing:
            raise SchemaError(f"missing capacities for services {missing}")
        if not self.request_types:
            raise SchemaError("at least one request type is required")
        total = sum(rt.weight for rt in self.request_types)
        if not all(math.isfinite(rt.weight) and rt.weight > 0 for rt in self.request_types):
            raise SchemaError("request-type weights must be finite and positive")
        if abs(total - 1.0) > 1e-9:
            raise SchemaError(f"request-type weights must sum to 1, got {total}")
        edges = set(self.topology.edges)
        for rt in self.request_types:
            if not rt.path:
                raise SchemaError(f"request type {rt.name!r} has an empty path")
            idx = [self.topology.index_of(s) for s in rt.path]
            for a, b in zip(idx, idx[1:]):
                if (a, b) not in edges:
                    raise SchemaError(
                        f"request type {rt.name!r}: hop "
                        f"{self.topology.services[a]}->{self.topology.services[b]} is not a topology edge")


@dataclass(frozen=True)
class Segment:
    """One piece of the arrival-intensity profile.

    ``ramp`` interpolates linearly from start to end rate; ``plateau`` holds
    the start rate; ``spike`` rises from the start rate to the end rate at
    the segment midpoint and falls back (a triangular burst).
    """

    kind: str
    duration: float
    start_rate: float
    end_rate: float

    def __post_init__(self):
        if self.kind not in ("ramp", "spike", "plateau"):
            raise SchemaError(f"unknown segment kind {self.kind!r}")
        if not all(map(math.isfinite, (self.duration, self.start_rate, self.end_rate))):
            raise SchemaError(f"segment fields must be finite: {self}")
        if self.duration <= 0:
            raise SchemaError(f"segment duration must be > 0, got {self.duration}")
        if self.start_rate < 0 or self.end_rate < 0:
            raise SchemaError("segment rates must be >= 0")


@dataclass(frozen=True)
class IntensityProfile:
    segments: tuple[Segment, ...]

    @property
    def total_duration(self) -> float:
        return sum(s.duration for s in self.segments)

    @property
    def max_rate(self) -> float:
        peak = 0.0
        for s in self.segments:
            peak = max(peak, s.start_rate, s.end_rate if s.kind != "plateau" else s.start_rate)
        return peak

    @cached_property
    def _segment_ends(self) -> tuple[float, ...]:
        """Cumulative end offset of each segment, summed left to right."""
        ends = []
        offset = 0.0
        for s in self.segments:
            offset += s.duration
            ends.append(offset)
        return tuple(ends)

    def rate_at(self, t: float) -> float:
        """Rate of the first segment whose end is at or after ``t``; 0 past the end.

        A boundary instant belongs to the earlier segment.
        """
        ends = self._segment_ends
        i = bisect_left(ends, t)
        if i == len(ends):
            return 0.0
        s = self.segments[i]
        tau = (t - (ends[i - 1] if i else 0.0)) / s.duration
        if s.kind == "plateau":
            return s.start_rate
        if s.kind == "ramp":
            return s.start_rate + (s.end_rate - s.start_rate) * tau
        # spike: triangular excursion peaking at the midpoint
        return s.start_rate + (s.end_rate - s.start_rate) * (1.0 - abs(2.0 * tau - 1.0))


@dataclass
class Workload:
    """Sampled arrival process: (time, request-type index), time-ascending."""

    arrivals: list[tuple[float, int]]


def sample_workload(
    profile: IntensityProfile,
    request_types: tuple[RequestType, ...],
    rng: np.random.Generator,
) -> Workload:
    """Nonhomogeneous Poisson arrivals via thinning, typed by mix weights.

    Each candidate draws ``rng.exponential`` (the gap) then ``rng.random``
    (the thinning test); a kept one draws ``rng.random`` once more for its
    request type. The ziggurat reads a variable number of words, so the
    draws stay scalar and in this order.
    """
    total = profile.total_duration
    lam_max = profile.max_rate
    arrivals: list[tuple[float, int]] = []
    if lam_max <= 0:
        return Workload(arrivals)
    weights = np.cumsum([rt.weight for rt in request_types]).tolist()
    last = len(request_types) - 1
    scale = 1.0 / lam_max
    exponential, uniform, rate_at, append = rng.exponential, rng.random, profile.rate_at, arrivals.append
    t = 0.0
    while True:
        t += exponential(scale)
        if t > total:
            break
        if uniform() * lam_max <= rate_at(t):
            append((t, min(bisect_right(weights, uniform()), last)))
    return Workload(arrivals)


@dataclass(slots=True)
class SimRequest:
    """Completed request with its hop timeline (for exact counter oracles)."""

    type_index: int
    arrival_time: float
    completion_time: float
    hop_services: tuple[int, ...]
    hop_arrival_times: tuple[float, ...]

    @property
    def latency(self) -> float:
        return self.completion_time - self.arrival_time


@dataclass
class SimulationResult:
    topology: Topology
    duration: float
    scrape_interval: float
    arrivals_total: int
    completed_total: int
    requests: list[SimRequest]
    latency_records: list[tuple[float, float]]  # (completion time, latency)
    exposition_text: str
    saturated_scrape_times: list[float] = field(default_factory=list)


def run_simulation(
    spec: ClusterSpec,
    workload: Workload,
    duration: float,
    rng: np.random.Generator,
    noise_rng: np.random.Generator | None = None,
    noise_sigma: float = 0.0,
    scrape_interval: float = 5.0,
    queue_cap: int = 500,
) -> SimulationResult:
    """Run the event loop and scrape telemetry every ``scrape_interval``.

    Overload does not stop the run: scrapes where any service backlog
    exceeds ``queue_cap`` are flagged as saturated (those are the tail
    events worth learning). Request counters are exact; resource counters
    and gauges get multiplicative Gaussian observation noise of relative
    scale ``noise_sigma`` (clipped so counters stay monotone).

    Events run in time order; at equal times arrivals (in workload order)
    go before completions (in the order they were scheduled). Draw order,
    which fixed-seed byte identity rests on: ``rng`` gives one service time
    per hop, ``mean_service * standard_exponential``, in the order services
    start; ``noise_rng`` gives, when ``noise_sigma > 0``, four standard
    normals per service per scrape, in service order and within a service
    in the order cpu, rx, tx, mem.
    """
    spec.validate()
    if duration <= 0:
        raise SchemaError(f"duration must be > 0, got {duration}")
    if noise_sigma > 0 and noise_rng is None:
        raise ValueError("noise_sigma > 0 requires a noise_rng")

    topo = spec.topology
    n = topo.num_services
    caps = [spec.capacities[name] for name in topo.services]
    pods = [c.pods for c in caps]
    mean_service = [1.0 / c.service_rate for c in caps]
    cpu_per_request = [c.cpu_per_request for c in caps]
    request_bytes = [c.request_bytes for c in caps]
    response_bytes = [c.response_bytes for c in caps]
    paths = [tuple(topo.index_of(s) for s in rt.path) for rt in spec.request_types]

    # per-service queue state
    busy = [0] * n
    queues: list[deque[int]] = [deque() for _ in range(n)]

    # exact internal counters
    cpu_seconds = [0.0] * n
    net_rx = [0.0] * n
    net_tx = [0.0] * n
    edge_keys: list[tuple[str, str]] = []
    for src, dst in topo.edges:
        edge_keys.append((topo.services[src], topo.services[dst]))
    for entry in sorted({rt.path[0] for rt in spec.request_types}):
        edge_keys.append((CLIENT, entry))
    edge_of: dict[tuple[int, int], int] = {e: i for i, e in enumerate(topo.edges)}
    client_edge_of: dict[int, int] = {}
    for i, (src, dst) in enumerate(edge_keys):
        if src == CLIENT:
            client_edge_of[topo.index_of(dst)] = i
    edge_requests = [0.0] * len(edge_keys)
    edge_req_bytes = [0.0] * len(edge_keys)
    edge_resp_bytes = [0.0] * len(edge_keys)

    # per request type: (service, upstream edge) of each hop
    hop_table = [
        tuple((svc, client_edge_of[svc] if h == 0 else edge_of[(path[h - 1], svc)])
              for h, svc in enumerate(path))
        for path in paths
    ]

    # noisy observed counters (exact value at the previous scrape + noised increments)
    obs_cpu = [0.0] * n
    obs_rx = [0.0] * n
    obs_tx = [0.0] * n
    prev_cpu = [0.0] * n
    prev_rx = [0.0] * n
    prev_tx = [0.0] * n

    # request ``rid`` is arrival ``rid``; its hop arrival times so far also
    # give the hop it is on
    req_hop_times: list[list[float]] = []

    completed: list[SimRequest] = []
    latency_records: list[tuple[float, float]] = []

    # arrivals are read in time order (stable, so ties keep workload order);
    # the heap holds only in-flight completions: (time, seq, request id, service time)
    arrivals = sorted(workload.arrivals, key=itemgetter(0))
    num_arrivals = len(arrivals)
    next_arrival = 0
    heap: list[tuple[float, int, int, float]] = []
    seq = num_arrivals
    heappush, heappop = heapq.heappush, heapq.heappop

    # one exponential per hop, drawn in blocks that add up to the hop count
    hops_total = sum(len(paths[kind]) for _, kind in arrivals)
    block_sizes = [min(_DRAW_BLOCK, hops_total - i) for i in range(0, hops_total, _DRAW_BLOCK)]
    next_z = chain.from_iterable(rng.standard_exponential(k).tolist() for k in block_sizes).__next__

    lines: list[str] = []
    saturated: list[float] = []

    def scrape(now: float) -> None:
        noise = noise_rng.standard_normal(4 * n).tolist() if noise_sigma > 0 else None
        overloaded = False
        for i, name in enumerate(topo.services):
            backlog = len(queues[i]) + busy[i]
            if backlog > queue_cap:
                overloaded = True
            observed = (cpu_seconds[i] - prev_cpu[i], net_rx[i] - prev_rx[i], net_tx[i] - prev_tx[i],
                        caps[i].memory_base + caps[i].memory_per_queued * backlog)
            if noise is not None:
                observed = [max(0.0, v * (1.0 + noise_sigma * z))
                            for v, z in zip(observed, noise[4 * i:4 * i + 4])]
            d_cpu, d_rx, d_tx, mem = observed
            obs_cpu[i] += d_cpu
            obs_rx[i] += d_rx
            obs_tx[i] += d_tx
            prev_cpu[i], prev_rx[i], prev_tx[i] = cpu_seconds[i], net_rx[i], net_tx[i]
            lines.append(f'container_cpu_usage_seconds_total{{workload="{name}"}} {obs_cpu[i]!r} {now!r}')
            lines.append(f'container_memory_usage_bytes{{workload="{name}"}} {mem!r} {now!r}')
            lines.append(f'container_spec_cpu_period{{workload="{name}"}} {CPU_PERIOD_US!r} {now!r}')
            lines.append(f'container_network_receive_bytes_total{{workload="{name}"}} {obs_rx[i]!r} {now!r}')
            lines.append(f'container_network_transmit_bytes_total{{workload="{name}"}} {obs_tx[i]!r} {now!r}')
        for i, (src, dst) in enumerate(edge_keys):
            labels = f'{{source_workload="{src}",destination_workload="{dst}"}}'
            lines.append(f"istio_requests_total{labels} {edge_requests[i]!r} {now!r}")
            lines.append(f"istio_request_bytes_sum{labels} {edge_req_bytes[i]!r} {now!r}")
            lines.append(f"istio_response_bytes_sum{labels} {edge_resp_bytes[i]!r} {now!r}")
        if overloaded:
            saturated.append(now)

    num_scrapes = int(math.floor(duration / scrape_interval)) + 1
    for k in range(num_scrapes + 1):
        # run every event up to the scrape instant; after the last scrape, drain
        until = k * scrape_interval if k < num_scrapes else math.inf
        while True:
            if next_arrival < num_arrivals and (not heap or arrivals[next_arrival][0] <= heap[0][0]):
                now, kind = arrivals[next_arrival]
                if now > until:
                    break
                rid = next_arrival
                next_arrival += 1
                times = []
                req_hop_times.append(times)
                svc, e = hop_table[kind][0]
            elif heap and heap[0][0] <= until:
                # completion of one hop
                now, _, rid, st = heappop(heap)
                start, kind = arrivals[rid]
                hops = hop_table[kind]
                times = req_hop_times[rid]
                hop = len(times)
                svc, e = hops[hop - 1]
                cpu_seconds[svc] += st * cpu_per_request[svc]
                edge_resp_bytes[e] += response_bytes[svc]
                net_tx[svc] += response_bytes[svc]
                if queues[svc]:  # the freed server takes the head of the queue
                    st = mean_service[svc] * next_z()
                    heappush(heap, (now + st, seq, queues[svc].popleft(), st))
                    seq += 1
                else:
                    busy[svc] -= 1
                if hop == len(hops):
                    completed.append(SimRequest(kind, start, now, paths[kind], tuple(times)))
                    latency_records.append((now, now - start))
                    continue
                svc, e = hops[hop]
            else:
                break
            # request ``rid`` arrives at hop service ``svc`` over edge ``e``
            edge_requests[e] += 1
            edge_req_bytes[e] += request_bytes[svc]
            net_rx[svc] += request_bytes[svc]
            times.append(now)
            if busy[svc] < pods[svc]:
                busy[svc] += 1
                st = mean_service[svc] * next_z()
                heappush(heap, (now + st, seq, rid, st))
                seq += 1
            else:
                queues[svc].append(rid)
        if k < num_scrapes:
            scrape(until)

    return SimulationResult(
        topology=topo,
        duration=duration,
        scrape_interval=scrape_interval,
        arrivals_total=len(workload.arrivals),
        completed_total=len(completed),
        requests=completed,
        latency_records=latency_records,
        exposition_text="\n".join(lines) + ("\n" if lines else ""),
        saturated_scrape_times=saturated,
    )


# ---------------------------------------------------------------------------
# preset clusters
# ---------------------------------------------------------------------------


def _uniform_capacities(services, overrides: dict[str, ServiceCapacity] | None = None) -> dict[str, ServiceCapacity]:
    caps = {name: ServiceCapacity() for name in services}
    if overrides:
        caps.update(overrides)
    return caps


def preset_topologies() -> dict[str, ClusterSpec]:
    """Two ready-to-run clusters shaped like well-known demo storefronts.

    Edge sets are approximations of the public architecture diagrams of
    those demos; the request mix (browse 0.60 / view-cart 0.25 /
    checkout 0.15) is a repo default chosen to be browsing-heavy.
    """
    boutique_services = [
        "adservice", "cartservice", "checkoutservice", "currencyservice",
        "emailservice", "frontend", "paymentservice", "productcatalogservice",
        "recommendationservice", "redis-cart", "shippingservice",
    ]
    boutique_edges = [
        ("frontend", "adservice"),
        ("frontend", "cartservice"),
        ("frontend", "checkoutservice"),
        ("frontend", "currencyservice"),
        ("frontend", "productcatalogservice"),
        ("frontend", "recommendationservice"),
        ("frontend", "shippingservice"),
        ("checkoutservice", "cartservice"),
        ("checkoutservice", "currencyservice"),
        ("checkoutservice", "emailservice"),
        ("checkoutservice", "paymentservice"),
        ("checkoutservice", "productcatalogservice"),
        ("checkoutservice", "shippingservice"),
        ("cartservice", "redis-cart"),
        ("recommendationservice", "productcatalogservice"),
    ]
    boutique = ClusterSpec(
        topology=Topology.create(boutique_services, boutique_edges),
        capacities=_uniform_capacities(boutique_services, {
            "frontend": ServiceCapacity(pods=4),
            "redis-cart": ServiceCapacity(pods=2, service_rate=200.0, cpu_per_request=0.2),
        }),
        request_types=(
            RequestType("browse", ("frontend", "recommendationservice", "productcatalogservice"), 0.60),
            RequestType("view_cart", ("frontend", "cartservice", "redis-cart"), 0.25),
            RequestType("checkout", ("frontend", "checkoutservice", "paymentservice"), 0.15),
        ),
    )

    sockshop_services = [
        "carts", "carts-db", "catalogue", "catalogue-db", "front-end",
        "orders", "orders-db", "payment", "queue-master", "rabbitmq",
        "shipping", "user", "user-db",
    ]
    sockshop_edges = [
        ("front-end", "carts"),
        ("front-end", "catalogue"),
        ("front-end", "orders"),
        ("front-end", "user"),
        ("carts", "carts-db"),
        ("catalogue", "catalogue-db"),
        ("orders", "carts"),
        ("orders", "orders-db"),
        ("orders", "payment"),
        ("orders", "shipping"),
        ("orders", "user"),
        ("shipping", "rabbitmq"),
        ("queue-master", "rabbitmq"),
        ("user", "user-db"),
    ]
    sockshop = ClusterSpec(
        topology=Topology.create(sockshop_services, sockshop_edges),
        capacities=_uniform_capacities(sockshop_services, {
            "front-end": ServiceCapacity(pods=4),
            "carts-db": ServiceCapacity(pods=2, service_rate=200.0, cpu_per_request=0.2),
            "catalogue-db": ServiceCapacity(pods=2, service_rate=200.0, cpu_per_request=0.2),
        }),
        request_types=(
            RequestType("browse", ("front-end", "catalogue", "catalogue-db"), 0.60),
            RequestType("view_cart", ("front-end", "carts", "carts-db"), 0.25),
            RequestType("checkout", ("front-end", "orders", "payment"), 0.15),
        ),
    )
    for preset in (boutique, sockshop):
        preset.validate()
    return {"online_boutique_like": boutique, "sockshop_like": sockshop}


# ---------------------------------------------------------------------------
# scenario files
# ---------------------------------------------------------------------------


@dataclass
class Scenario:
    cluster: ClusterSpec
    profile: IntensityProfile
    duration_s: float
    seed: int = 0
    noise_sigma: float = 0.01
    queue_cap: int = 500


def _segment_from_dict(d: dict) -> Segment:
    try:
        return Segment(
            kind=str(d["kind"]),
            duration=float(d["duration_s"]),
            start_rate=float(d["start_rate"]),
            end_rate=float(d.get("end_rate", d["start_rate"])),
        )
    except KeyError as exc:
        raise SchemaError(f"profile segment missing field {exc}") from exc


def load_scenario(path) -> Scenario:
    """Read a scenario JSON file; preset fields may be selectively overridden."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"scenario is not valid JSON: {exc}") from exc
    return scenario_from_dict(raw)


def scenario_from_dict(raw: dict) -> Scenario:
    presets = preset_topologies()
    if "preset" in raw:
        name = raw["preset"]
        if name not in presets:
            raise SchemaError(f"unknown preset {name!r}; have {sorted(presets)}")
        base = presets[name]
        topology = base.topology
        capacities = dict(base.capacities)
        request_types = base.request_types
    elif "topology" in raw:
        t = raw["topology"]
        try:
            topology = Topology.create(t["services"], [tuple(e) for e in t["edges"]])
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"malformed scenario topology: {exc}") from exc
        capacities = _uniform_capacities(topology.services)
        request_types = ()
    else:
        raise SchemaError("scenario needs either 'preset' or 'topology'")

    for name, overrides in raw.get("capacities", {}).items():
        if name not in topology.services:
            raise SchemaError(f"capacity override for unknown service {name!r}")
        try:
            capacities[name] = ServiceCapacity(**overrides)
        except TypeError as exc:
            raise SchemaError(f"bad capacity fields for {name!r}: {exc}") from exc

    if "request_mix" in raw:
        request_types = tuple(
            RequestType(name=str(r["name"]), path=tuple(r["path"]), weight=float(r["weight"]))
            for r in raw["request_mix"]
        )
    if not request_types:
        raise SchemaError("scenario has no request mix")

    if "profile" not in raw or not raw["profile"]:
        raise SchemaError("scenario needs a non-empty intensity profile")
    profile = IntensityProfile(tuple(_segment_from_dict(s) for s in raw["profile"]))

    duration = float(raw.get("duration_s", profile.total_duration))
    if not (math.isfinite(duration) and duration > 0):
        raise SchemaError(f"scenario duration must be finite and > 0, got {duration}")
    noise_sigma = float(raw.get("noise_sigma", 0.01))
    if not math.isfinite(noise_sigma):
        raise SchemaError(f"scenario noise_sigma must be finite, got {noise_sigma}")
    try:
        seed, queue_cap = int(raw.get("seed", 0)), int(raw.get("queue_cap", 500))
    except (OverflowError, ValueError) as exc:
        raise SchemaError(f"scenario seed and queue_cap must be integers: {exc}") from exc

    cluster = ClusterSpec(topology=topology, capacities=capacities, request_types=request_types)
    cluster.validate()
    return Scenario(
        cluster=cluster,
        profile=profile,
        duration_s=duration,
        seed=seed,
        noise_sigma=noise_sigma,
        queue_cap=queue_cap,
    )


def run_scenario(scenario: Scenario) -> SimulationResult:
    """Sample the workload and run the cluster, all from the scenario seed."""
    streams = np.random.SeedSequence(scenario.seed).spawn(3)
    rng_workload = np.random.default_rng(streams[0])
    rng_service = np.random.default_rng(streams[1])
    rng_noise = np.random.default_rng(streams[2])
    workload = sample_workload(scenario.profile, scenario.cluster.request_types, rng_workload)
    return run_simulation(
        scenario.cluster,
        workload,
        scenario.duration_s,
        rng=rng_service,
        noise_rng=rng_noise,
        noise_sigma=scenario.noise_sigma,
        queue_cap=scenario.queue_cap,
    )
