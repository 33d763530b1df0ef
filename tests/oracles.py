"""Independent reference implementations used to check the real code.

Everything here is deliberately written the slow, obvious way (loops,
full sorts, dense masks, finite differences) and never imports the code
paths it is used to verify beyond the public entry points under test.
"""

import math

import numpy as np


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


def gauge_mean(series, window) -> float | None:
    """One window at a time: np.mean of the samples with start <= t <= end,
    or None when the window holds none."""
    start, end = window
    in_win = [v for t, v in series if start <= t <= end]
    if not in_win:
        return None
    return float(np.mean(in_win))


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
