"""Seeded discrete-event queueing simulator of a microservice cluster.

Each service is a multi-server FIFO queue (pod count servers, exponential
service times). A request walks its call path one hop at a time; end-to-end
latency is the sum of per-hop queueing and service times. The simulator
emits exposition-format telemetry every 5 s plus a latency CSV,
so the ingestion pipeline consumes synthetic clusters and real scrapes
identically.
"""

from __future__ import annotations

import heapq
import json
import math
from array import array
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, fields
from itertools import accumulate, chain
from operator import itemgetter

import numpy as np

from . import jsonfields
from .errors import SchemaError
from .statgraph import RESOURCE_METRICS, TRAFFIC_METRICS, Topology, topology_lists

CLIENT = "client"  # pseudo-source for external arrivals
CPU_PERIOD_US = 100000.0
SCRAPE_INTERVAL = 5.0  # seconds between telemetry scrapes

_DRAW_BLOCK = 4096  # service times drawn per rng call
# candidate arrivals (peak rate x profile length) a scenario file may ask the
# sampler for: about 12x the 0.8 M of the criterion-8 stress test
MAX_CANDIDATES = 1e7


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
        if self.pods < 1 or self.pods != int(self.pods) or self.service_rate <= 0:
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
    draws stay scalar and in this order; those two or three generator calls
    are most of the cost of a candidate.

    Candidate times only grow, so the profile is walked once: the segment
    holding ``t`` is kept in locals and advanced while ``t`` is past its
    end, and the rate is evaluated inline. A boundary instant belongs to
    the earlier segment. Segment ends are summed left to right from 0.0;
    past the last end the rate is 0.
    """
    total = profile.total_duration
    lam_max = profile.max_rate
    arrivals: list[tuple[float, int]] = []
    if lam_max <= 0:
        return Workload(arrivals)
    weights = np.cumsum([rt.weight for rt in request_types]).tolist()
    last = len(request_types) - 1
    scale = 1.0 / lam_max
    # (end, start, duration, kind, start rate, end rate - start rate) per segment
    walk = []
    end = 0.0
    for s in profile.segments:
        start, end = end, end + s.duration
        walk.append((end, start, s.duration, s.kind, s.start_rate, s.end_rate - s.start_rate))
    # rate 0 past the last end: Python 3.12's sum() compensates its rounding,
    # so total_duration may end one float after this left-to-right sum
    walk.append((math.inf, end, 1.0, "plateau", 0.0, 0.0))
    next_segment = iter(walk).__next__
    end, start, duration, kind, rate0, rise = next_segment()
    exponential, uniform, append = rng.exponential, rng.random, arrivals.append
    t = 0.0
    while True:
        t += exponential(scale)
        if t > total:
            break
        while t > end:
            end, start, duration, kind, rate0, rise = next_segment()
        if kind == "plateau":
            rate = rate0
        elif kind == "ramp":
            rate = rate0 + rise * ((t - start) / duration)
        else:  # spike: triangular excursion peaking at the midpoint
            rate = rate0 + rise * (1.0 - abs(2.0 * ((t - start) / duration) - 1.0))
        if uniform() * lam_max <= rate:
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


@dataclass
class SimulationResult:
    """What a run returns. The request records are kept as columns, with
    no object per request, hop or arrival: request ``rid`` is arrival
    ``rid`` of the time-sorted arrivals, which arrived at ``arrivals[0][rid]``
    (an ``array('d')``) and has request type ``arrivals[1][rid]`` (a list of
    ints); the arrival times of each request's hops follow one another in
    ``hop_times`` (an ``array('d')``), request by request in rid order; and
    ``completion_order`` (an ``array('q')``) lists the rids in the order of
    ``latency_records``."""

    topology: Topology
    latency_records: list[tuple[float, float]]  # (completion time, latency), completion order
    exposition_text: str
    saturated_scrape_times: list[float]
    arrivals: tuple[array, list[int]]  # (times, request-type indices), time-ascending
    paths: list[tuple[int, ...]]  # service indices of each request type's path
    hop_times: array
    completion_order: array

    @property
    def arrivals_total(self) -> int:
        return len(self.arrivals[1])

    @property
    def completed_total(self) -> int:
        return len(self.completion_order)

    @property
    def requests(self) -> list[SimRequest]:
        """Every completed request, in completion order, built when read."""
        (times, kinds), paths, hop_times = self.arrivals, self.paths, self.hop_times
        first_hop = list(accumulate((len(paths[kind]) for kind in kinds), initial=0))
        requests = []
        for rid, (now, _) in zip(self.completion_order, self.latency_records):
            kind = kinds[rid]
            requests.append(SimRequest(kind, times[rid], now, paths[kind],
                                       tuple(hop_times[first_hop[rid]:first_hop[rid + 1]])))
        return requests


def run_simulation(
    spec: ClusterSpec,
    workload: Workload,
    duration: float,
    rng: np.random.Generator,
    noise_rng: np.random.Generator | None,
    noise_sigma: float,
    queue_cap: int,
) -> SimulationResult:
    """Run the event loop and scrape telemetry every ``SCRAPE_INTERVAL`` seconds.

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

    What the run holds while it runs, beyond the result it returns: one
    exposition chunk per scrape (a scrape joins its newline-ended lines
    when it ends, so no string per line outlives its scrape), and a hop
    count and a first-hop offset per request, both freed before the join.
    No request, hop or arrival has an object of its own while the loop
    runs. The workload's ``(time, kind)`` tuples become a time column and
    a list of kinds, and the run drops its reference to ``workload``, so
    a caller that passes a workload it does not keep (``run_scenario``)
    frees the tuples before the first event. The result keeps every hop's
    arrival time in one ``array('d')``, cut per request by running sums
    of the path lengths, and builds ``requests`` from those columns only
    when it is read. The text is one join of the chunks, so the memory
    peak of the run is the result plus the chunks: about one more copy of
    the text.
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

    # arrivals are read in time order (stable, so ties keep workload order)
    # from two columns; the heap holds only in-flight completions:
    # (time, seq, request id, service time)
    arrivals = sorted(workload.arrivals, key=itemgetter(0))
    del workload
    # array() of a list, not of an iterator, which it appends item by item
    arrival_times = array("d", list(map(itemgetter(0), arrivals)))
    kinds = list(map(itemgetter(1), arrivals))
    del arrivals
    num_arrivals = len(kinds)
    # the next arrival's index and time; past the last one its time is inf
    next_arrival = 0
    next_time = chain(arrival_times, (math.inf,)).__next__
    next_t = next_time()
    heap: list[tuple[float, int, int, float]] = []
    seq = num_arrivals
    heappush, heappop = heapq.heappush, heapq.heappop

    # request ``rid`` is arrival ``rid``: ``hop_of[rid]`` counts the hops it has
    # arrived at, and its hop ``h`` arrives at ``hop_times[first_hop[rid] + h]``
    first_hop = list(accumulate((len(paths[kind]) for kind in kinds), initial=0))
    hops_total = first_hop[-1]
    hop_of = [0] * num_arrivals
    hop_times = array("d", bytes(8 * hops_total))
    # a memoryview stores a float about twice as fast as array's own item assignment
    hop_time_slots = memoryview(hop_times)
    completion_order = array("q")
    latency_records: list[tuple[float, float]] = []
    complete, record = completion_order.append, latency_records.append

    # one exponential per hop, drawn in blocks that add up to the hop count
    block_sizes = [min(_DRAW_BLOCK, hops_total - i) for i in range(0, hops_total, _DRAW_BLOCK)]
    next_z = chain.from_iterable(rng.standard_exponential(k).tolist() for k in block_sizes).__next__

    # each series' text up to its value, built once; a scrape appends each
    # value and " {now!r}\n", and joins its lines into one chunk. The cpu
    # period is constant, so its line holds its value.
    service_heads = []
    for name in topo.services:
        cpu, mem, period, rx, tx = (f'{metric.name}{{workload="{name}"}} '
                                    for metric in RESOURCE_METRICS)
        service_heads.append((cpu, mem, f"{period}{CPU_PERIOD_US!r}", rx, tx))
    edge_heads = [
        tuple(f'{metric.name}{{source_workload="{src}",destination_workload="{dst}"}} '
              for metric in TRAFFIC_METRICS)
        for src, dst in edge_keys
    ]
    chunks: list[str] = []
    saturated: list[float] = []

    def scrape(now: float) -> None:
        noise = noise_rng.standard_normal(4 * n).tolist() if noise_sigma > 0 else None
        at = f" {now!r}\n"
        lines = []
        overloaded = False
        for i, (cpu_head, mem_head, period_line, rx_head, tx_head) in enumerate(service_heads):
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
            lines.append(f"{cpu_head}{obs_cpu[i]!r}{at}")
            lines.append(f"{mem_head}{mem!r}{at}")
            lines.append(period_line + at)
            lines.append(f"{rx_head}{obs_rx[i]!r}{at}")
            lines.append(f"{tx_head}{obs_tx[i]!r}{at}")
        for i, (count_head, req_head, resp_head) in enumerate(edge_heads):
            lines.append(f"{count_head}{edge_requests[i]!r}{at}")
            lines.append(f"{req_head}{edge_req_bytes[i]!r}{at}")
            lines.append(f"{resp_head}{edge_resp_bytes[i]!r}{at}")
        chunks.append("".join(lines))
        if overloaded:
            saturated.append(now)

    num_scrapes = int(math.floor(duration / SCRAPE_INTERVAL)) + 1
    for k in range(num_scrapes + 1):
        # run every event up to the scrape instant; after the last scrape, drain
        until = k * SCRAPE_INTERVAL if k < num_scrapes else math.inf
        while True:
            if heap and (heap[0][0] < next_t or next_arrival == num_arrivals):
                # completion of one hop (an arrival at the same time goes first)
                if heap[0][0] > until:
                    break
                now, _, rid, st = heappop(heap)
                hops = hop_table[kinds[rid]]
                hop = hop_of[rid]
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
                    complete(rid)
                    record((now, now - arrival_times[rid]))
                    continue
                svc, e = hops[hop]
            else:
                if next_arrival == num_arrivals or next_t > until:
                    break
                now = next_t
                rid = next_arrival
                next_arrival += 1
                next_t = next_time()
                hop = 0
                svc, e = hop_table[kinds[rid]][0]
            # request ``rid`` arrives at hop service ``svc`` over edge ``e``
            edge_requests[e] += 1
            edge_req_bytes[e] += request_bytes[svc]
            net_rx[svc] += request_bytes[svc]
            hop_time_slots[first_hop[rid] + hop] = now
            hop_of[rid] = hop + 1
            if busy[svc] < pods[svc]:
                busy[svc] += 1
                st = mean_service[svc] * next_z()
                heappush(heap, (now + st, seq, rid, st))
                seq += 1
            else:
                queues[svc].append(rid)
        if k < num_scrapes:
            scrape(until)

    del first_hop, hop_of  # freed before the text is joined: the join is the run's memory peak
    return SimulationResult(
        topology=topo,
        latency_records=latency_records,
        exposition_text="".join(chunks),
        saturated_scrape_times=saturated,
        arrivals=(arrival_times, kinds),
        paths=paths,
        hop_times=hop_times,
        completion_order=completion_order,
    )


# ---------------------------------------------------------------------------
# preset clusters
# ---------------------------------------------------------------------------


def _uniform_capacities(services) -> dict[str, ServiceCapacity]:
    return {name: ServiceCapacity() for name in services}


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
        capacities={
            **_uniform_capacities(boutique_services),
            "frontend": ServiceCapacity(pods=4),
            "redis-cart": ServiceCapacity(pods=2, service_rate=200.0, cpu_per_request=0.2),
        },
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
        capacities={
            **_uniform_capacities(sockshop_services),
            "front-end": ServiceCapacity(pods=4),
            "carts-db": ServiceCapacity(pods=2, service_rate=200.0, cpu_per_request=0.2),
            "catalogue-db": ServiceCapacity(pods=2, service_rate=200.0, cpu_per_request=0.2),
        },
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


_SCENARIO_FIELDS = {"preset", "topology", "capacities", "request_mix", "profile", "duration_s",
                    "noise_sigma", "seed", "queue_cap"}
_SEGMENT_FIELDS = {"kind", "duration_s", "start_rate", "end_rate"}
_REQUEST_TYPE_FIELDS = {"name", "path", "weight"}
_CAPACITY_FIELDS = {f.name for f in fields(ServiceCapacity)}


def _segment_from_dict(d: dict) -> Segment:
    jsonfields.fields(d, _SEGMENT_FIELDS, "profile segment")
    try:
        return Segment(
            kind=jsonfields.string(d["kind"], "profile segment kind"),
            duration=jsonfields.number(d["duration_s"], "profile segment duration_s"),
            start_rate=jsonfields.number(d["start_rate"], "profile segment start_rate"),
            end_rate=jsonfields.number(d.get("end_rate", d["start_rate"]), "profile segment end_rate"),
        )
    except KeyError as exc:
        raise SchemaError(f"profile segment missing field {exc}") from exc


def _request_type_from_dict(d: dict) -> RequestType:
    jsonfields.fields(d, _REQUEST_TYPE_FIELDS, "request_mix entry")
    try:
        name = jsonfields.string(d["name"], "request_mix entry name")
        weight = jsonfields.number(d["weight"], f"request_mix entry {name!r} weight")
        path = jsonfields.each(d["path"], jsonfields.string, "service names", f"request_mix entry {name!r}: path")
    except KeyError as exc:
        raise SchemaError(f"request_mix entry missing field {exc}") from exc
    return RequestType(name=name, path=tuple(path), weight=weight)


def load_scenario(path) -> Scenario:
    """Read a scenario JSON file; preset fields may be selectively overridden."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:  # also a number of more digits than int() reads
            raise SchemaError(f"scenario is not valid JSON: {exc}") from exc
    return scenario_from_dict(raw)


def scenario_from_dict(raw: dict) -> Scenario:
    jsonfields.fields(raw, _SCENARIO_FIELDS, "scenario")
    presets = preset_topologies()
    if "preset" in raw:
        name = jsonfields.string(raw["preset"], "scenario preset")
        if name not in presets:
            raise SchemaError(f"unknown preset {name!r}; have {sorted(presets)}")
        base = presets[name]
        topology = base.topology
        capacities = dict(base.capacities)
        request_types = base.request_types
    elif "topology" in raw:
        services, edges = topology_lists(raw["topology"], endpoint=str)
        topology = Topology.create(services, edges)
        capacities = _uniform_capacities(topology.services)
        request_types = ()
    else:
        raise SchemaError("scenario needs either 'preset' or 'topology'")

    for name, overrides in jsonfields.obj(raw.get("capacities", {}), "scenario capacities").items():
        if name not in topology.services:
            raise SchemaError(f"capacity override for unknown service {name!r}")
        jsonfields.fields(overrides, _CAPACITY_FIELDS, f"capacity override for {name!r}")
        for key, value in overrides.items():
            jsonfields.number(value, f"capacity {name}.{key}")
        capacities[name] = ServiceCapacity(**overrides)

    if "request_mix" in raw:
        request_types = tuple(map(_request_type_from_dict, jsonfields.array(raw["request_mix"], "scenario request_mix")))
    if not request_types:
        raise SchemaError("scenario has no request mix")

    if "profile" not in raw or not raw["profile"]:
        raise SchemaError("scenario needs a non-empty intensity profile")
    profile = IntensityProfile(tuple(map(_segment_from_dict, jsonfields.array(raw["profile"], "scenario profile"))))

    duration = jsonfields.number(raw.get("duration_s", profile.total_duration), "scenario duration_s")
    if not duration > 0:
        raise SchemaError(f"scenario duration_s must be > 0, got {duration}")
    # arrivals stop where the profile ends: a longer run only scrapes an idle
    # cluster, and one of 1e300 s scrapes without end. A duration equal to
    # the profile's up to rounding in the sum of its segments is allowed.
    if duration > profile.total_duration and not math.isclose(duration, profile.total_duration):
        raise SchemaError(f"scenario duration_s {duration} is longer than the profile's "
                          f"{profile.total_duration} s")
    # the sampler draws a candidate per 1/max_rate s of the profile, so a
    # rate of 1e300 would draw without end
    candidates = profile.max_rate * profile.total_duration
    if candidates > MAX_CANDIDATES:
        raise SchemaError(f"scenario profile asks for {candidates} candidate arrivals "
                          f"(peak rate {profile.max_rate} req/s x {profile.total_duration} s), "
                          f"more than the {MAX_CANDIDATES:g} allowed")
    noise_sigma = jsonfields.number(raw.get("noise_sigma", 0.01), "scenario noise_sigma")
    seed = jsonfields.integer(raw.get("seed", 0), "scenario seed")
    queue_cap = jsonfields.integer(raw.get("queue_cap", 500), "scenario queue_cap")
    for key, value in {"noise_sigma": noise_sigma, "seed": seed, "queue_cap": queue_cap}.items():
        if value < 0:
            raise SchemaError(f"scenario {key} must be >= 0, got {value}")

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
    # the workload is passed on, not kept: run_simulation frees its tuples
    return run_simulation(
        scenario.cluster,
        sample_workload(scenario.profile, scenario.cluster.request_types, rng_workload),
        scenario.duration_s,
        rng=rng_service,
        noise_rng=rng_noise,
        noise_sigma=scenario.noise_sigma,
        queue_cap=scenario.queue_cap,
    )
