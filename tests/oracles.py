"""Independent reference implementations used to check the real code.

Everything here is deliberately written the slow, obvious way (loops,
full sorts, dense masks, finite differences) and never imports the code
paths it is used to verify beyond the public entry points under test. The
one exception is at the end: the encoder blocks composed of plain tensor
ops, which reuse the package's own op arithmetic because what they pin is
the order of that arithmetic in the fused block ops (the dense attention
oracle and finite differences check the math itself).
"""

import csv
import heapq
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from tailcast import tensor as T
from tailcast.errors import ParseError, SchemaError, ShapeError
from tailcast.simulator import (
    CLIENT,
    CPU_PERIOD_US,
    SCRAPE_INTERVAL,
    SimRequest,
    SimulationResult,
    Workload,
)
from tailcast.telemetry import _parse_head
from tailcast.tensor import Tensor


def fd_gradient(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of an array."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def max_rel_error(a: np.ndarray, b: np.ndarray, floor: float = 1e-4) -> float:
    """Worst-case elementwise relative error with a small-magnitude floor."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def naive_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Scalar triple-loop matrix product."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def nearest_rank_p95(values) -> float:
    """Brute force: full sort, pick the ceil(0.95 n)-th order statistic."""
    arr = np.sort(np.asarray(list(values), dtype=np.float64))
    rank = math.ceil(0.95 * arr.size)
    return float(arr[rank - 1])


def validate_snapshots(dataset) -> None:
    """One snapshot at a time, every check in order: raise SchemaError for
    the first check the first bad snapshot fails, as Dataset.validate must."""
    v, e = dataset.topology.num_services, dataset.topology.num_edges
    prev = -np.inf
    for i, snap in enumerate(dataset.snapshots):
        if not np.isfinite(snap.window_start):
            raise SchemaError(f"snapshot {i}: window_start must be finite, got {snap.window_start}")
        if snap.window_start <= prev:
            raise SchemaError(f"snapshot {i} out of chronological order")
        prev = snap.window_start
        if snap.node_features.shape != (v, dataset.node_dim):
            raise SchemaError(
                f"snapshot {i}: node features {snap.node_features.shape}, expected {(v, dataset.node_dim)}")
        if snap.edge_features.shape != (e, dataset.edge_dim):
            raise SchemaError(
                f"snapshot {i}: edge features {snap.edge_features.shape}, expected {(e, dataset.edge_dim)}")
        if snap.resource_features.shape != (v, dataset.resource_dim):
            raise SchemaError(
                f"snapshot {i}: resource features {snap.resource_features.shape}, "
                f"expected {(v, dataset.resource_dim)}")
        blocks = (snap.node_features, snap.edge_features, snap.resource_features)
        if not all(np.all(np.isfinite(b)) for b in blocks):
            raise SchemaError(f"snapshot {i}: non-finite feature values")
        if dataset.norm_stats is None and not all(np.all(b >= 0) for b in blocks):
            raise SchemaError(f"snapshot {i}: negative raw feature values")
        if snap.label is not None and not (np.isfinite(snap.label) and snap.label > 0):
            raise SchemaError(f"snapshot {i}: label must be finite and > 0, got {snap.label}")


def gauge_mean(series, window) -> float | None:
    """One window at a time: np.mean of the samples with start <= t <= end,
    or None when the window holds none."""
    start, end = window
    in_win = [v for t, v in series if start <= t <= end]
    if not in_win:
        return None
    return float(np.mean(in_win))


@dataclass
class MetricSample:
    """One parsed exposition line."""

    name: str
    labels: dict[str, str]
    value: float
    timestamp: float | None = None


def _parse_line(line: str, line_no: int) -> MetricSample:
    name, labels, end = _parse_head(line, line_no)
    rest = line[end:].split()
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


def parse_lines(text: str, strict: bool = True) -> tuple[list[MetricSample], list[tuple[int, str]]]:
    """One sample object per exposition line, in line order, and the skipped
    (line number, message) entries of a lenient parse.

    Every line's head goes through the package's own head grammar
    (``telemetry._parse_head``), which the print-parse round trips pin; this
    oracle is the per-line plumbing the columnar parse must equal.
    """
    samples, skipped = [], []
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            samples.append(_parse_line(line, line_no))
        except ParseError as exc:
            if strict:
                raise
            skipped.append((line_no, str(exc)))
    return samples, skipped


def group_series(samples: list[MetricSample]) -> dict[tuple, list[tuple[float, float]]]:
    """Per-series (timestamp, value) lists, keyed by (name, sorted label
    items) in order of first appearance, each stably sorted by time."""
    series: dict[tuple, list[tuple[float, float]]] = {}
    for s in samples:
        if s.timestamp is None:
            raise SchemaError(f"sample of {s.name!r} lacks a timestamp; cannot window it")
        series.setdefault((s.name, tuple(sorted(s.labels.items()))), []).append((s.timestamp, s.value))
    for values in series.values():
        values.sort(key=lambda tv: tv[0])
    return series


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


def dense_graph_attention(
    h: np.ndarray,
    edge_feats: np.ndarray,
    edges: list[tuple[int, int]],
    self_loop_nodes: np.ndarray,
    self_edge_feat: np.ndarray,
    weights: dict,
    num_heads: int,
    eps_ln: float = 1e-5,
) -> np.ndarray:
    """Dense masked-attention reference for one graph transformer layer.

    Builds the full |V| x |V| score matrix per head with -inf on non-edges,
    softmaxes rows, and mixes value vectors; then residual + layer norm.
    ``weights`` holds wq/wk/wv/we_k/we_v (with *_b biases) and norm gain/bias.
    """
    n, d = h.shape
    d_head = d // num_heads
    q = h @ weights["wq"] + weights["wq_b"]
    k = h @ weights["wk"] + weights["wk_b"]
    v = h @ weights["wv"] + weights["wv_b"]
    ek_all = edge_feats @ weights["we_k"] + weights["we_k_b"]
    ev_all = edge_feats @ weights["we_v"] + weights["we_v_b"]
    ek_self = self_edge_feat @ weights["we_k"] + weights["we_k_b"]
    ev_self = self_edge_feat @ weights["we_v"] + weights["we_v_b"]

    attn_out = np.zeros((n, d))
    for head in range(num_heads):
        sl = slice(head * d_head, (head + 1) * d_head)
        scores = np.full((n, n), -np.inf)
        values = np.zeros((n, n, d_head))
        for e, (src, dst) in enumerate(edges):
            key = k[src, sl] + ek_all[e, sl]
            scores[dst, src] = q[dst, sl] @ key / math.sqrt(d_head)
            values[dst, src] = v[src, sl] + ev_all[e, sl]
        for node in self_loop_nodes:
            key = k[node, sl] + ek_self[0, sl]
            scores[node, node] = q[node, sl] @ key / math.sqrt(d_head)
            values[node, node] = v[node, sl] + ev_self[0, sl]
        for i in range(n):
            row = scores[i]
            finite = np.isfinite(row)
            if not finite.any():
                continue
            shifted = row[finite] - row[finite].max()
            weights_row = np.exp(shifted) / np.exp(shifted).sum()
            attn_out[i, sl] = weights_row @ values[i, finite]

    pre = h + attn_out
    mu = pre.mean(axis=-1, keepdims=True)
    var = ((pre - mu) ** 2).mean(axis=-1, keepdims=True)
    xhat = (pre - mu) / np.sqrt(var + eps_ln)
    return xhat * weights["norm_gain"] + weights["norm_bias"]


def mm1_mean_sojourn(lam: float, mu: float) -> float:
    """Analytic mean time in system for a stable M/M/1 queue."""
    assert lam < mu
    return 1.0 / (mu - lam)


def assert_gradients_match(build_loss, leaves, tol: float = 1e-4, h: float = 1e-5) -> float:
    """Check AD gradients of every leaf tensor against central differences.

    ``build_loss()`` must rebuild the scalar loss from the leaves' current
    ``data`` (which this helper perturbs in place). Returns the worst
    relative error seen.
    """
    loss = build_loss()
    loss.backward()
    ad = {id(t): t.grad_array().copy() for t in leaves}
    worst = 0.0
    for t in leaves:
        flat = t.data.reshape(-1)
        fd = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = build_loss().item()
            flat[i] = orig - h
            fm = build_loss().item()
            flat[i] = orig
            fd[i] = (fp - fm) / (2.0 * h)
        err = max_rel_error(ad[id(t)].reshape(-1), fd)
        worst = max(worst, err)
        assert err < tol, f"gradient mismatch: relative error {err}"
    return worst


def reference_adam_step(params, grads, m, v, t, learning_rate=1e-3, beta1=0.9, beta2=0.999,
                        eps=1e-8) -> float:
    """One Adam step, parameter by parameter, on dicts of arrays in place.

    This is the per-parameter arithmetic ``tensor.Adam`` ran before it kept
    one flat buffer: the global norm is a sum of per-parameter sums, and
    every update is the same elementwise sequence. ``t`` is the 1-based
    step number. Returns the global gradient norm.
    """
    total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for name, p in params.items():
        g = grads[name]
        m[name] *= beta1
        m[name] += (1.0 - beta1) * g
        v[name] *= beta2
        v[name] += (1.0 - beta2) * (g * g)
        m_hat = m[name] / bc1
        v_hat = v[name] / bc2
        p -= learning_rate * m_hat / (np.sqrt(v_hat) + eps)
    return total


# ---------------------------------------------------------------------------
# the simulator as it was before its event loop was flattened: the reference
# that ``tailcast.simulator`` must reproduce value for value, random draw for
# random draw
# ---------------------------------------------------------------------------

_ARRIVAL = 0
_COMPLETE = 1


def reference_rate_at(profile, t: float) -> float:
    """Linear scan over the segments with a running offset."""
    offset = 0.0
    for s in profile.segments:
        if t <= offset + s.duration:
            tau = (t - offset) / s.duration
            if s.kind == "plateau":
                return s.start_rate
            if s.kind == "ramp":
                return s.start_rate + (s.end_rate - s.start_rate) * tau
            # spike: triangular excursion peaking at the midpoint
            return s.start_rate + (s.end_rate - s.start_rate) * (1.0 - abs(2.0 * tau - 1.0))
        offset += s.duration
    return 0.0


def reference_sample_workload(
    profile,
    request_types,
    rng: np.random.Generator,
) -> Workload:
    """Thinning with one ``rng.exponential``, one ``rng.random`` and, for a kept
    arrival, one more ``rng.random`` and an ``np.searchsorted`` per candidate."""
    total = profile.total_duration
    lam_max = profile.max_rate
    arrivals: list[tuple[float, int]] = []
    if lam_max <= 0:
        return Workload(arrivals)
    weights = np.cumsum([rt.weight for rt in request_types])
    t = 0.0
    while True:
        t += rng.exponential(1.0 / lam_max)
        if t > total:
            break
        if rng.random() * lam_max <= reference_rate_at(profile, t):
            kind = int(np.searchsorted(weights, rng.random(), side="right"))
            kind = min(kind, len(request_types) - 1)
            arrivals.append((t, kind))
    return Workload(arrivals)


def reference_run_simulation(
    spec,
    workload: Workload,
    duration: float,
    rng: np.random.Generator,
    noise_rng: np.random.Generator | None = None,
    noise_sigma: float = 0.0,
    queue_cap: int = 500,
) -> SimulationResult:
    """One heap of every arrival and completion, processed by closures that
    draw each service time and each noise factor with a scalar call.

    Overload does not stop the run: scrapes where any service backlog
    exceeds ``queue_cap`` are flagged as saturated (those are the tail
    events worth learning). Request counters are exact; resource counters
    and gauges get multiplicative Gaussian observation noise of relative
    scale ``noise_sigma`` (clipped so counters stay monotone).
    """
    spec.validate()
    if duration <= 0:
        raise SchemaError(f"duration must be > 0, got {duration}")
    if noise_sigma > 0 and noise_rng is None:
        raise ValueError("noise_sigma > 0 requires a noise_rng")

    topo = spec.topology
    n = topo.num_services
    caps = [spec.capacities[name] for name in topo.services]
    mean_service = [1.0 / c.service_rate for c in caps]
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

    # noisy observed counters (exact value at the previous scrape + noised increments)
    obs_cpu = [0.0] * n
    obs_rx = [0.0] * n
    obs_tx = [0.0] * n
    prev_cpu = [0.0] * n
    prev_rx = [0.0] * n
    prev_tx = [0.0] * n

    # request state, indexed by request id
    req_path: list[tuple[int, ...]] = []
    req_type: list[int] = []
    req_hop: list[int] = []
    req_arrival: list[float] = []
    req_hop_times: list[list[float]] = []

    completed: list[SimRequest] = []
    latency_records: list[tuple[float, float]] = []

    heap: list[tuple[float, int, int, int, float]] = []
    seq = 0
    for t, kind in workload.arrivals:
        heap.append((t, seq, _ARRIVAL, kind, 0.0))
        seq += 1
    heapq.heapify(heap)

    def upstream_edge(rid: int, hop: int) -> int:
        path = req_path[rid]
        if hop == 0:
            return client_edge_of[path[0]]
        return edge_of[(path[hop - 1], path[hop])]

    def start_service(svc: int, rid: int, now: float) -> None:
        nonlocal seq
        busy[svc] += 1
        st = rng.exponential(mean_service[svc])
        heapq.heappush(heap, (now + st, seq, _COMPLETE, rid, st))
        seq += 1

    def arrive_at_hop(rid: int, now: float) -> None:
        hop = req_hop[rid]
        svc = req_path[rid][hop]
        cap = caps[svc]
        e = upstream_edge(rid, hop)
        edge_requests[e] += 1
        edge_req_bytes[e] += cap.request_bytes
        net_rx[svc] += cap.request_bytes
        req_hop_times[rid].append(now)
        if busy[svc] < cap.pods:
            start_service(svc, rid, now)
        else:
            queues[svc].append(rid)

    def process(event: tuple[float, int, int, int, float]) -> None:
        nonlocal seq
        now, _, kind, a, b = event
        if kind == _ARRIVAL:
            rid = len(req_path)
            req_path.append(paths[a])
            req_type.append(a)
            req_hop.append(0)
            req_arrival.append(now)
            req_hop_times.append([])
            arrive_at_hop(rid, now)
            return
        # completion of one hop
        rid = a
        hop = req_hop[rid]
        svc = req_path[rid][hop]
        cap = caps[svc]
        cpu_seconds[svc] += b * cap.cpu_per_request
        e = upstream_edge(rid, hop)
        edge_resp_bytes[e] += cap.response_bytes
        net_tx[svc] += cap.response_bytes
        busy[svc] -= 1
        if queues[svc]:
            start_service(svc, queues[svc].popleft(), now)
        if hop + 1 < len(req_path[rid]):
            req_hop[rid] = hop + 1
            arrive_at_hop(rid, now)
        else:
            completed.append(SimRequest(
                type_index=req_type[rid],
                arrival_time=req_arrival[rid],
                completion_time=now,
                hop_services=req_path[rid],
                hop_arrival_times=tuple(req_hop_times[rid]),
            ))
            latency_records.append((now, now - req_arrival[rid]))

    def noised(value: float) -> float:
        if noise_sigma <= 0:
            return value
        return max(0.0, value * (1.0 + noise_sigma * noise_rng.standard_normal()))

    lines: list[str] = []
    saturated: list[float] = []

    def scrape(now: float) -> None:
        overloaded = False
        for i, name in enumerate(topo.services):
            backlog = len(queues[i]) + busy[i]
            if backlog > queue_cap:
                overloaded = True
            obs_cpu[i] += noised(cpu_seconds[i] - prev_cpu[i])
            obs_rx[i] += noised(net_rx[i] - prev_rx[i])
            obs_tx[i] += noised(net_tx[i] - prev_tx[i])
            prev_cpu[i], prev_rx[i], prev_tx[i] = cpu_seconds[i], net_rx[i], net_tx[i]
            mem = noised(caps[i].memory_base + caps[i].memory_per_queued * backlog)
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

    num_scrapes = int(math.floor(duration / SCRAPE_INTERVAL)) + 1
    for k in range(num_scrapes):
        scrape_t = k * SCRAPE_INTERVAL
        while heap and heap[0][0] <= scrape_t:
            process(heapq.heappop(heap))
        scrape(scrape_t)
    while heap:  # drain in-flight work past the last scrape
        process(heapq.heappop(heap))

    return SimulationResult(
        topology=topo,
        arrivals_total=len(workload.arrivals),
        completed_total=len(completed),
        requests=completed,
        latency_records=latency_records,
        exposition_text="\n".join(lines) + ("\n" if lines else ""),
        saturated_scrape_times=saturated,
    )


def read_embeddings_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of ``fusion.write_embeddings_csv``: (window_starts, matrix)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if not header or header[0] != "window_start":
            raise SchemaError("not an embedding export file")
        starts, rows = [], []
        for row in reader:
            starts.append(float(row[0]))
            rows.append([float(x) for x in row[1:]])
    return np.asarray(starts), np.asarray(rows)


# ---------------------------------------------------------------------------
# the tensor ops the encoder blocks were composed of before each block became
# one op, and the two compositions themselves: tensor.gmlp_block and
# tensor.graph_attention_layer must equal these value for value and gradient
# for gradient
# ---------------------------------------------------------------------------


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)

    def backward(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        return (full,)

    return T._from_op(a.data[idx].copy(), (a,), backward)


def spatial_mix(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Mix along axis 1: ``out[:, v, c] = sum_u x[:, u, c] * w[u, v] + b[v]``,
    as one batched ``w.T @ x``."""
    n_in, _ = w.shape
    if x.ndim != 3 or x.shape[1] != n_in:
        raise ShapeError(f"spatial_mix: input {x.shape} does not match weight {w.shape}")
    xd, wd = x.data, w.data
    out = wd.T @ xd
    out += b.data[:, None]

    def backward(g):
        return wd @ g, (xd @ np.swapaxes(g, 1, 2)).sum(axis=0), g.sum(axis=(0, 2))

    return T._from_op(out, (x, w, b), backward)


def broadcast_to(a: Tensor, shape) -> Tensor:
    """Repeat ``a`` along broadcast axes; the backward pass sums them back."""
    shape = tuple(shape)
    return T._from_op(np.broadcast_to(a.data, shape), (a,),
                      lambda g: (T._unbroadcast(g, a.shape),))


def gather(a: Tensor, index: np.ndarray, incidence: np.ndarray) -> Tensor:
    """Select along axis 1: ``out[:, m] = a[:, index[m]]``; ``incidence`` is
    the one-hot ``(a.shape[1], len(index))`` matrix of ``index``."""
    return T._from_op(np.take(a.data, index, axis=1), (a,), lambda g: (incidence @ g,))


def edge_attention(q: Tensor, key: Tensor, val: Tensor, routing, num_heads: int) -> Tensor:
    """``tensor._edge_attention_forward`` as an op of its own."""
    out, alpha, q4 = T._edge_attention_forward(q.data, key.data, val.data, routing, num_heads)
    kd, vd = key.data, val.data
    return T._from_op(out, (q, key, val),
                      lambda g: T._edge_attention_backward(g, alpha, q4, kd, vd, routing))


def dropout(a: Tensor, p: float, training: bool, rng=None) -> Tensor:
    """Inverted dropout: identity at inference, 1/(1-p) scaling while training."""
    mask = T.dropout_mask(p, training, rng, a.shape)
    if mask is None:
        return a
    return T._from_op(a.data * mask, (a,), lambda g: (g * mask,))


def composed_graph_layer(layer, h: Tensor, edge_features: Tensor, routing, rng=None) -> Tensor:
    """``GraphTransformerLayer.__call__`` as thirteen-odd plain ops."""
    if routing.num_self_loops:
        loops = broadcast_to(layer.self_edge, (h.shape[0], routing.num_self_loops,
                                               layer.self_edge.shape[1]))
        edge_features = T.concat([edge_features, loops], axis=1)
    key = T.add(gather(layer.wk(h), routing.src, routing.src_incidence),
                layer.we_key(edge_features))
    val = T.add(gather(layer.wv(h), routing.src, routing.src_incidence),
                layer.we_val(edge_features))
    attn = edge_attention(layer.wq(h), key, val, routing, layer.num_heads)
    attn = dropout(attn, layer.drop_p, layer.training, rng)
    return layer.norm(T.add(h, attn))


def composed_gmlp_block(block, z: Tensor, rng=None) -> Tensor:
    """``GmlpBlock.__call__`` as ten-odd plain ops."""
    half = block.proj_out.w.shape[0]
    u = T.gelu(block.proj_in(block.norm_in(z)))      # (B, V, d_ffn)
    u1 = slice_axis(u, 2, 0, half)
    u2 = slice_axis(u, 2, half, 2 * half)
    gate = block.gate_norm(u2)
    gate = spatial_mix(gate, block.w_spatial, block.b_spatial)
    out = block.proj_out(T.mul(u1, gate))
    out = dropout(out, block.drop_p, block.training, rng)
    return T.add(z, out)
