"""Dense float64 tensors with reverse-mode automatic differentiation.

Every model computation in this package runs through the ops defined here.
The design is deliberately small: eager numpy forward passes, a closure per
op for the backward pass, and a :class:`Tape` that replays the recorded ops
in reverse topological order. Everything is 64-bit so gradient checks
against finite differences can be tight. Inference runs inside
:func:`no_grad`, where ops record nothing.

Each encoder block is one op: :func:`graph_attention_layer` and
:func:`gmlp_block` record one tape node each. They and the plain ops share
private forward/backward helpers (linear, layer norm, GELU, edge attention)
and :func:`dropout_mask`, so each piece of arithmetic is written once, and
a block's values and gradients equal those of the plain-op composition it
replaced bit for bit.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy.special import erf, expit

from .errors import CheckpointError, ShapeError, TrainingError

Array = np.ndarray

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class Tensor:
    """A dense float64 array plus the bookkeeping needed for backprop.

    ``requires_grad`` marks leaves that should accumulate gradients; outputs
    of ops inherit it from their inputs. ``grad`` stays ``None`` until a
    backward pass deposits something, so a tensor that never influences the
    loss keeps a ``None`` gradient (read it through :meth:`grad_array` to get
    explicit zeros).
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: Array | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Callable[[Array], tuple] | None = None

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def grad_array(self) -> Array:
        """Gradient as an array; exact zeros if nothing reached this tensor."""
        if self.grad is None:
            return np.zeros_like(self.data)
        return self.grad

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- autodiff ------------------------------------------------------------

    def backward(self) -> None:
        """Backpropagate from a scalar; accumulates into ``grad`` of leaves."""
        if self.data.size != 1:
            raise ShapeError(f"backward() requires a scalar loss, got shape {self.shape}")
        if not self.requires_grad:
            raise TrainingError("backward() from a tensor that recorded no graph "
                                "(built under no_grad, or from constants only)")
        Tape(self).backward()


_grad_enabled = True


@contextmanager
def no_grad():
    """Run the body without recording the autodiff graph.

    Ops inside it return plain tensors: no parents, no backward closure and
    ``requires_grad`` False, so nothing is kept alive for a backward pass
    that inference never runs. The values are the same as with recording
    on. The previous state is restored on exit, exceptions included, so the
    context nests.
    """
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def _from_op(data: Array, parents: Sequence[Tensor], backward_fn: Callable[[Array], tuple]) -> Tensor:
    if not _grad_enabled:
        return Tensor(data)
    out = Tensor(data, requires_grad=any(p.requires_grad for p in parents))
    if out.requires_grad:
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


class Tape:
    """Topologically ordered record of the ops reachable from a root tensor.

    Construction walks the op graph iteratively (no recursion limits) and
    stores every node with parents before children; ``backward`` replays the
    record once in reverse, accumulating gradients additively across fan-out.
    A tape belongs to the thread that built it; parameter tensors may be
    read concurrently, but only one owner may run backward/optimizer steps.
    The :func:`no_grad` flag is process-wide, not per thread: while any
    thread is inside it, ops in every thread record nothing, so a graph
    being built for training must not overlap inference in another thread.
    """

    def __init__(self, root: Tensor):
        self.root = root
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self.nodes = order  # parents precede children

    def backward(self) -> None:
        root = self.root
        seed = np.ones_like(root.data)
        root.grad = seed if root.grad is None else root.grad + seed
        for node in reversed(self.nodes):
            if node._backward_fn is None or node.grad is None:
                continue
            grads = node._backward_fn(node.grad)
            for parent, g in zip(node._parents, grads):
                if g is None or not parent.requires_grad:
                    continue
                parent.grad = g if parent.grad is None else parent.grad + g


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Reduce ``grad`` back down to ``shape`` (inverse of numpy broadcasting)."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _broadcast_data(a: Tensor, b: Tensor, op_name: str) -> tuple[Array, Array]:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{op_name}: shapes {a.shape} and {b.shape} are not compatible") from None
    return a.data, b.data


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    da, db = _broadcast_data(a, b, "add")

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _from_op(da + db, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    da, db = _broadcast_data(a, b, "sub")

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _from_op(da - db, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    da, db = _broadcast_data(a, b, "mul")

    def backward(g):
        return _unbroadcast(g * db, a.shape), _unbroadcast(g * da, b.shape)

    return _from_op(da * db, (a, b), backward)


def scale(a: Tensor, factor: float) -> Tensor:
    """Multiply by a python scalar constant."""
    factor = float(factor)
    return _from_op(a.data * factor, (a,), lambda g: (g * factor,))


def square(a: Tensor) -> Tensor:
    da = a.data
    return _from_op(da * da, (a,), lambda g: (2.0 * da * g,))


# ---------------------------------------------------------------------------
# matrix products
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")
    da, db = a.data, b.data

    def backward(g):
        ga = g @ np.swapaxes(db, -1, -2)
        gb = np.swapaxes(da, -1, -2) @ g
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return _from_op(da @ db, (a, b), backward)


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------


def gelu(a: Tensor) -> Tensor:
    """Gaussian error linear unit, exact (erf) form."""
    x = a.data
    y, cdf = _gelu_forward(x)
    return _from_op(y, (a,), lambda g: (_gelu_backward(g, x, cdf),))


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    return _from_op(y, (a,), lambda g: (g * (1.0 - y * y),))


def softplus(a: Tensor) -> Tensor:
    """log(1 + exp(x)), computed without overflow; derivative is sigmoid."""
    x = a.data
    return _from_op(np.logaddexp(0.0, x), (a,), lambda g: (g * expit(x),))


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def tsum(a: Tensor, axis=None) -> Tensor:
    data = a.data.sum(axis=axis)

    def backward(g):
        g_exp = g
        if axis is not None:
            g_exp = np.expand_dims(g, axis)
        return (np.broadcast_to(g_exp, a.shape).copy(),)

    return _from_op(data, (a,), backward)


def tmean(a: Tensor, axis=None) -> Tensor:
    if axis is None:
        count = a.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = 1
        for ax in axes:
            count *= a.shape[ax]
    return scale(tsum(a, axis=axis), 1.0 / count)


# ---------------------------------------------------------------------------
# shape manipulation
# ---------------------------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    data = a.data.reshape(shape)
    return _from_op(data, (a,), lambda g: (g.reshape(a.shape),))


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(int(i) for i in np.argsort(axes))

    def backward(g):
        return (np.transpose(g, inv),)

    return _from_op(np.transpose(a.data, axes), (a,), backward)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        out = []
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(start, stop)
            out.append(g[tuple(idx)])
        return tuple(out)

    return _from_op(np.concatenate([t.data for t in tensors], axis=axis), tensors, backward)


# ---------------------------------------------------------------------------
# the arithmetic of linear, layer norm, GELU, edge attention and dropout:
# the plain ops and the fused encoder blocks below all call these, so each
# value and gradient is computed one way
# ---------------------------------------------------------------------------


def _linear_forward(x: Array, w: Array, b: Array | None) -> Array:
    """``x @ w + b`` as one 2-D GEMM over the flattened leading dims of ``x``."""
    d_in, d_out = w.shape
    out = x.reshape(-1, d_in) @ w
    if b is not None:
        out += b
    return out.reshape(x.shape[:-1] + (d_out,))


def _linear_backward(g: Array, x: Array, w: Array, b: Array | None) -> tuple:
    """Gradients of :func:`_linear_forward` for ``x``, ``w`` and ``b``
    (``None`` for an absent bias)."""
    d_in, d_out = w.shape
    g2 = g.reshape(-1, d_out)
    gx = (g2 @ w.T).reshape(x.shape)
    return gx, x.reshape(-1, d_in).T @ g2, None if b is None else g2.sum(axis=0)


LAYER_NORM_EPS = 1e-5


def _layer_norm_forward(x: Array, gain: Array, bias: Array) -> tuple[Array, Array, Array]:
    """Normalize the last axis to zero mean / unit variance, then affine.

    Uses the population variance of each slice; ``LAYER_NORM_EPS`` guards
    the division. Each mean is a sum divided by the width, which is what
    ``np.mean`` computes, without its Python wrapper. Returns the output,
    the normalized input and the inverse standard deviation.
    """
    n = x.shape[-1]
    xhat = x - x.sum(axis=-1, keepdims=True) / n
    var = (xhat * xhat).sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat *= inv
    y = xhat * gain
    y += bias
    return y, xhat, inv


def _layer_norm_backward(g: Array, xhat: Array, inv: Array, gain: Array) -> tuple:
    """Gradients of :func:`_layer_norm_forward` for the input, gain and bias."""
    n = xhat.shape[-1]
    dgain = _unbroadcast(g * xhat, gain.shape)
    dbias = _unbroadcast(g, gain.shape)
    dxhat = g * gain
    m1 = dxhat.sum(axis=-1, keepdims=True) / n
    m2 = (dxhat * xhat).sum(axis=-1, keepdims=True) / n
    dxhat -= m1
    dxhat -= xhat * m2
    dxhat *= inv
    return dxhat, dgain, dbias


def _gelu_forward(x: Array) -> tuple[Array, Array]:
    """``x * Phi(x)``, the exact (erf) form; returns it and
    ``Phi(x) = 0.5 * (1 + erf(x / sqrt(2)))``, computed in one buffer."""
    cdf = x * _INV_SQRT2
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    return x * cdf, cdf


def _gelu_backward(g: Array, x: Array, cdf: Array) -> Array:
    """``g * (Phi(x) + x * phi(x))``, in one buffer."""
    grad = -0.5 * x
    grad *= x
    np.exp(grad, out=grad)
    grad *= _INV_SQRT_2PI
    grad *= x
    grad += cdf
    grad *= g
    return grad


def _edge_attention_forward(q: Array, key: Array, val: Array, routing,
                            num_heads: int) -> tuple[Array, Array, Array]:
    """Multi-head attention of each node over its incoming messages.

    ``q`` is ``(B, |V|, d)``; ``key`` and ``val`` are ``(B, M, d)``, one row
    per message. ``routing`` (an :class:`~tailcast.encoders.MessageRouting`)
    names each message's destination (``dst``), their one-hot
    ``(|V|, M)`` ``dst_incidence``, and each node's in-messages padded with
    ``M`` (``in_messages``). Per head, a message's score is
    ``<q_dst, key> / sqrt(d_head)``; scores are softmaxed over each node's
    in-messages, shifted by the detached per-destination maximum (softmax
    is shift-invariant), and the weighted values are summed into their
    destination. A node without in-messages gets zeros. Returns the output,
    the attention weights ``(B, M, H)`` and the gathered queries, which the
    backward pass reads.
    """
    b, m, d = key.shape
    d_head = d // num_heads
    dst, incidence = routing.dst, routing.dst_incidence
    q4 = np.take(q, dst, axis=1).reshape(b, m, num_heads, d_head)
    alpha = (q4 * key.reshape(b, m, num_heads, d_head)).sum(axis=3) * (1.0 / math.sqrt(d_head))
    padded = np.concatenate([alpha, np.full((b, 1, num_heads), -np.inf)], axis=1)
    alpha -= np.take(np.take(padded, routing.in_messages, axis=1).max(axis=2, initial=-np.inf),
                     dst, axis=1)
    np.exp(alpha, out=alpha)
    alpha /= np.take(incidence @ alpha, dst, axis=1)                 # (B, M, H)
    out = incidence @ (alpha[..., None] * val.reshape(b, m, num_heads, d_head)).reshape(b, m, d)
    return out, alpha, q4


def _edge_attention_backward(g: Array, alpha: Array, q4: Array, key: Array, val: Array,
                             routing) -> tuple[Array, Array, Array]:
    """Gradients of :func:`_edge_attention_forward` for ``q``, ``key`` and ``val``."""
    b, m, num_heads, d_head = q4.shape
    d = num_heads * d_head
    dst, incidence = routing.dst, routing.dst_incidence
    g4 = np.take(g, dst, axis=1).reshape(b, m, num_heads, d_head)
    g_val = (alpha[..., None] * g4).reshape(b, m, d)
    g_alpha = (g4 * val.reshape(b, m, num_heads, d_head)).sum(axis=3)
    g_scores = alpha * (g_alpha - np.take(incidence @ (alpha * g_alpha), dst, axis=1))
    g_scores = (g_scores * (1.0 / math.sqrt(d_head)))[..., None]
    g_q = incidence @ (g_scores * key.reshape(b, m, num_heads, d_head)).reshape(b, m, d)
    return g_q, (g_scores * q4).reshape(b, m, d), g_val


def dropout_mask(p: float, training: bool, rng: np.random.Generator | None,
                 shape: tuple[int, ...]) -> Array | None:
    """The inverted-dropout multiplier, 0 or 1/(1-p) per element, or None
    (the identity) at inference or when ``p`` is 0. The caller checks that
    ``p`` is in [0, 1)."""
    if not training or p <= 0.0:
        return None
    if rng is None:
        raise ValueError("dropout in training mode needs an explicit rng")
    return (rng.random(shape) >= p) / (1.0 - p)


# ---------------------------------------------------------------------------
# fused affine map and normalization ops
# ---------------------------------------------------------------------------


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """``x @ w + b`` as one 2-D GEMM over the flattened leading dims of ``x``."""
    if x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear: input {x.shape} does not match weight {w.shape}")
    xd, wd, bd = x.data, w.data, None if b is None else b.data
    parents = (x, w) if b is None else (x, w, b)
    return _from_op(_linear_forward(xd, wd, bd), parents,
                    lambda g: _linear_backward(g, xd, wd, bd))


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis`` (max-subtracted)."""
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return ((g - dot) * y,)

    return _from_op(y, (a,), backward)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Layer norm over the last axis, as :func:`_layer_norm_forward`."""
    y, xhat, inv = _layer_norm_forward(a.data, gain.data, bias.data)
    gd = gain.data
    return _from_op(y, (a, gain, bias), lambda g: _layer_norm_backward(g, xhat, inv, gd))


# ---------------------------------------------------------------------------
# one op per encoder block
# ---------------------------------------------------------------------------


def gmlp_block(z: Tensor, params: Sequence[Tensor], mask: Array | None) -> Tensor:
    """One gated-MLP block with a spatial gating unit, as a single op.

    ``z`` is ``(B, V, d)``. ``params`` are, in order: the input layer
    norm's gain and bias, the input projection's weight ``(d, d_ffn)`` and
    bias, the gate layer norm's gain and bias, the spatial map ``(V, V)``
    and its bias ``(V,)``, and the output projection's weight
    ``(d_ffn/2, d)`` and bias. ``mask`` is a :func:`dropout_mask` of
    ``z``'s shape or None. The block computes::

        u = gelu(linear(layer_norm(z)))            # (B, V, d_ffn)
        gate = w_s.T @ layer_norm(u[..., d_ffn/2:]) + b_s[:, None]
        z + linear(u[..., :d_ffn/2] * gate) * mask

    Forward and backward run the arithmetic of the plain-op composition
    the block replaced, in the same order, so every value and gradient
    equals that composition's bit for bit. The gradients of the two halves
    of ``u`` are written into one buffer.
    """
    (norm_gain, norm_bias, w_in, b_in, gate_gain, gate_bias,
     w_s, b_s, w_out, b_out) = (p.data for p in params)
    zd = z.data
    normed, xhat_in, inv_in = _layer_norm_forward(zd, norm_gain, norm_bias)
    pre = _linear_forward(normed, w_in, b_in)
    u, cdf = _gelu_forward(pre)
    if not _grad_enabled:  # no backward pass: release what only it would read
        del normed, xhat_in, inv_in, pre, cdf
    half = u.shape[-1] // 2
    gate_in, xhat_gate, inv_gate = _layer_norm_forward(u[..., half:], gate_gain, gate_bias)
    gate = w_s.T @ gate_in
    gate += b_s[:, None]
    gated = u[..., :half] * gate
    if not _grad_enabled:
        del u, gate_in, xhat_gate, inv_gate, gate
    out = _linear_forward(gated, w_out, b_out)
    if mask is not None:
        out *= mask
    out += zd

    def backward(g):
        g_out = g if mask is None else g * mask
        g_gated, g_w_out, g_b_out = _linear_backward(g_out, gated, w_out, b_out)
        g_u = np.empty_like(u)
        np.multiply(g_gated, gate, out=g_u[..., :half])
        g_gate = g_gated * u[..., :half]
        g_u[..., half:], g_gate_gain, g_gate_bias = _layer_norm_backward(
            w_s @ g_gate, xhat_gate, inv_gate, gate_gain)
        g_w_s = (gate_in @ np.swapaxes(g_gate, 1, 2)).sum(axis=0)
        g_pre = _gelu_backward(g_u, pre, cdf)
        g_normed, g_w_in, g_b_in = _linear_backward(g_pre, normed, w_in, b_in)
        g_z, g_norm_gain, g_norm_bias = _layer_norm_backward(g_normed, xhat_in, inv_in, norm_gain)
        g_z += g
        return (g_z, g_norm_gain, g_norm_bias, g_w_in, g_b_in, g_gate_gain, g_gate_bias,
                g_w_s, g_gate.sum(axis=(0, 2)), g_w_out, g_b_out)

    return _from_op(out, (z, *params), backward)


def graph_attention_layer(h: Tensor, edge_features: Tensor, params: Sequence[Tensor], routing,
                          num_heads: int, mask: Array | None) -> Tensor:
    """One graph transformer layer over the messages of ``routing``, as a
    single op.

    ``h`` is ``(B, |V|, d)`` and ``edge_features`` ``(B, |E|, d_edge)``.
    ``params`` are, in order: the weight and bias of the query, key and
    value projections, of the key and value edge projections (``d_edge`` to
    ``d``), the self-loop edge feature ``(1, d_edge)``, and the layer norm's
    gain and bias. The self loops of ``routing`` follow the edges and carry
    the self-loop feature. ``mask`` is a :func:`dropout_mask` of ``h``'s
    shape or None. With ``e`` the edge features (then the self-loop ones)
    and ``src`` each message's source node, the layer computes::

        key = linear_k(h)[:, src] + linear_ek(e)
        val = linear_v(h)[:, src] + linear_ev(e)
        layer_norm(h + edge_attention(linear_q(h), key, val) * mask)

    Forward and backward run the arithmetic of the plain-op composition
    the layer replaced, in the same order, so every value and gradient
    equals that composition's bit for bit (``h``'s four gradients are
    summed residual, query, key, value).
    """
    (w_q, b_q, w_k, b_k, w_v, b_v, w_ek, b_ek, w_ev, b_ev,
     self_edge, gain, bias) = (p.data for p in params)
    hd = h.data
    edges = edge_features.data
    num_edges = edges.shape[1]
    if routing.num_self_loops:
        loops = np.broadcast_to(self_edge, (hd.shape[0], routing.num_self_loops,
                                            self_edge.shape[1]))
        edges = np.concatenate([edges, loops], axis=1)
    key = np.take(_linear_forward(hd, w_k, b_k), routing.src, axis=1)
    key += _linear_forward(edges, w_ek, b_ek)
    val = np.take(_linear_forward(hd, w_v, b_v), routing.src, axis=1)
    val += _linear_forward(edges, w_ev, b_ev)
    pre, alpha, q4 = _edge_attention_forward(_linear_forward(hd, w_q, b_q), key, val,
                                             routing, num_heads)
    if not _grad_enabled:  # no backward pass: release what only it would read
        del edges, key, val, alpha, q4
    if mask is not None:
        pre *= mask
    pre += hd
    out, xhat, inv = _layer_norm_forward(pre, gain, bias)

    def backward(g):
        g_pre, g_gain, g_bias = _layer_norm_backward(g, xhat, inv, gain)
        g_attn = g_pre if mask is None else g_pre * mask
        g_q, g_key, g_val = _edge_attention_backward(g_attn, alpha, q4, key, val, routing)
        g_hq, g_w_q, g_b_q = _linear_backward(g_q, hd, w_q, b_q)
        g_ek, g_w_ek, g_b_ek = _linear_backward(g_key, edges, w_ek, b_ek)
        g_hk, g_w_k, g_b_k = _linear_backward(routing.src_incidence @ g_key, hd, w_k, b_k)
        g_ev, g_w_ev, g_b_ev = _linear_backward(g_val, edges, w_ev, b_ev)
        g_hv, g_w_v, g_b_v = _linear_backward(routing.src_incidence @ g_val, hd, w_v, b_v)
        g_h = g_pre + g_hq
        g_h += g_hk
        g_h += g_hv
        g_ek += g_ev
        g_self = _unbroadcast(g_ek[:, num_edges:], self_edge.shape) if routing.num_self_loops else None
        return (g_h, g_ek[:, :num_edges], g_w_q, g_b_q, g_w_k, g_b_k, g_w_v, g_b_v,
                g_w_ek, g_b_ek, g_w_ev, g_b_ev, g_self, g_gain, g_bias)

    return _from_op(out, (h, edge_features, *params), backward)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


# Adam's moment decay rates and the guard added to the denominator
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Adam with bias correction over a named parameter dict.

    The optimizer owns the parameters' storage: construction copies every
    parameter into one contiguous float64 vector, ``flat``, and rebinds each
    ``p.data`` to a reshaped view of it, so a step is a handful of
    whole-vector ops. Rebinding a parameter's ``data`` afterwards detaches it
    from the optimizer; restores must write in place (``p.data[...] = ...``).
    ``_m`` and ``_v`` are the flat moment vectors, in the same layout.

    Missing gradients are treated as exact zeros (the moments still decay).
    ``grad_norm`` is the global norm of the last step's gradient.
    """

    def __init__(self, params: Mapping[str, Tensor], learning_rate: float = 1e-3):
        self.params = dict(params)
        self.learning_rate = learning_rate
        self.step_count = 0
        self.grad_norm: float | None = None
        total = sum(p.data.size for p in self.params.values())
        self.flat = np.empty(total)
        self._m = np.zeros(total)
        self._v = np.zeros(total)
        start = 0
        for p in self.params.values():
            stop = start + p.data.size
            shape = p.data.shape
            self.flat[start:stop] = p.data.reshape(-1)
            p.data = self.flat[start:stop].reshape(shape)
            start = stop

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        grad = np.concatenate([p.grad_array().reshape(-1) for p in self.params.values()])
        if not np.isfinite(grad).all():
            for name, p in self.params.items():
                if not np.isfinite(p.grad_array()).all():
                    raise TrainingError(f"NaN/Inf gradient for parameter {name!r} at step {t}")
        self.grad_norm = math.sqrt(float(np.dot(grad, grad)))
        bc1 = 1.0 - ADAM_BETA1**t
        bc2 = 1.0 - ADAM_BETA2**t
        m, v = self._m, self._v
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * grad
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (grad * grad)
        m_hat = m / bc1
        v_hat = v / bc2
        self.flat -= self.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


# ---------------------------------------------------------------------------
# parameter checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_FORMAT = "tailcast-checkpoint"
CHECKPOINT_VERSION = 1


def save_checkpoint(path, params: Mapping[str, Tensor], meta: dict | None = None) -> None:
    """Write parameters as a flat, versioned JSON container.

    Values are serialized with ``repr`` precision (shortest round-trip), so a
    save/load cycle reproduces every float64 bit-exactly.
    """
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "meta": meta or {},
        "params": {
            name: {"shape": list(p.data.shape), "data": p.data.reshape(-1).tolist()}
            for name, p in sorted(params.items())
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_checkpoint(path) -> tuple[dict[str, Array], dict]:
    """Read a checkpoint; returns (name -> array, meta)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"not a valid checkpoint file: {exc}") from exc
    if not isinstance(payload, dict):
        raise CheckpointError(f"checkpoint must be a JSON object, got {type(payload).__name__}")
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"unexpected checkpoint format {payload.get('format')!r}")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {payload.get('version')!r}")
    entries, meta = payload.get("params"), payload.get("meta", {})
    if not isinstance(entries, dict):
        raise CheckpointError("checkpoint field 'params' is missing or not an object")
    if not isinstance(meta, dict):
        raise CheckpointError("checkpoint field 'meta' is not an object")
    params = {}
    for name, entry in entries.items():
        try:
            params[name] = np.asarray(entry["data"], dtype=np.float64).reshape(entry["shape"])
        except KeyError as exc:
            raise CheckpointError(f"checkpoint param {name!r} missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise CheckpointError(f"checkpoint param {name!r} is malformed: {exc}") from exc
    return params, meta


def load_params_into(params: Mapping[str, Tensor], arrays: Mapping[str, Array]) -> None:
    """Copy checkpoint arrays into live parameter tensors, strictly by name.

    Values are written in place, so parameters stay views of an optimizer's
    flat buffer.
    """
    missing = sorted(set(params) - set(arrays))
    extra = sorted(set(arrays) - set(params))
    if missing or extra:
        raise CheckpointError(f"parameter names do not match (missing={missing}, unexpected={extra})")
    for name, p in params.items():
        arr = arrays[name]
        if arr.shape != p.data.shape:
            raise CheckpointError(f"shape mismatch for {name!r}: checkpoint {arr.shape}, model {p.data.shape}")
        p.data[...] = arr
