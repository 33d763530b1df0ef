"""Dense float64 tensors with reverse-mode automatic differentiation.

Every model computation in this package runs through the ops defined here.
The design is deliberately small: eager numpy forward passes, a closure per
op for the backward pass, and a :class:`Tape` that replays the recorded ops
in reverse topological order. Everything is 64-bit so gradient checks
against finite differences can be tight. Inference runs inside
:func:`no_grad`, where ops record nothing.
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
    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))

    def backward(g):
        pdf = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
        return (g * (cdf + x * pdf),)

    return _from_op(x * cdf, (a,), backward)


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


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        g_exp = g
        if axis is not None and not keepdims:
            g_exp = np.expand_dims(g, axis)
        return (np.broadcast_to(g_exp, a.shape).copy(),)

    return _from_op(data, (a,), backward)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        count = a.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = 1
        for ax in axes:
            count *= a.shape[ax]
    return scale(tsum(a, axis=axis, keepdims=keepdims), 1.0 / count)


# ---------------------------------------------------------------------------
# shape manipulation
# ---------------------------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    data = a.data.reshape(shape)
    return _from_op(data, (a,), lambda g: (g.reshape(a.shape),))


def transpose(a: Tensor, axes=None) -> Tensor:
    if axes is None:
        inv = None
    else:
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


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)

    def backward(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        return (full,)

    return _from_op(a.data[idx].copy(), (a,), backward)


# ---------------------------------------------------------------------------
# fused affine map and batch-major message passing
# ---------------------------------------------------------------------------


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """``x @ w + b`` as one 2-D GEMM over the flattened leading dims of ``x``."""
    d_in, d_out = w.shape
    if x.shape[-1] != d_in:
        raise ShapeError(f"linear: input {x.shape} does not match weight {w.shape}")
    x2 = x.data.reshape(-1, d_in)
    out = x2 @ w.data
    if b is not None:
        out += b.data

    def backward(g):
        g2 = g.reshape(-1, d_out)
        gx = (g2 @ w.data.T).reshape(x.shape)
        return gx, x2.T @ g2, None if b is None else g2.sum(axis=0)

    parents = (x, w) if b is None else (x, w, b)
    return _from_op(out.reshape(x.shape[:-1] + (d_out,)), parents, backward)


def spatial_mix(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Mix along axis 1: ``out[:, v, c] = sum_u x[:, u, c] * w[u, v] + b[v]``.

    ``x`` is ``(B, U, C)``, ``w`` is ``(U, V)`` and ``b`` is ``(V,)``: the
    affine map of :func:`linear` applied across positions instead of
    channels, as one batched ``w.T @ x`` with no transposed copies.
    """
    n_in, _ = w.shape
    if x.ndim != 3 or x.shape[1] != n_in:
        raise ShapeError(f"spatial_mix: input {x.shape} does not match weight {w.shape}")
    xd, wd = x.data, w.data
    out = wd.T @ xd
    out += b.data[:, None]

    def backward(g):
        return wd @ g, (xd @ np.swapaxes(g, 1, 2)).sum(axis=0), g.sum(axis=(0, 2))

    return _from_op(out, (x, w, b), backward)


def broadcast_to(a: Tensor, shape) -> Tensor:
    """Repeat ``a`` along broadcast axes; the backward pass sums them back."""
    shape = tuple(shape)
    return _from_op(np.broadcast_to(a.data, shape), (a,), lambda g: (_unbroadcast(g, a.shape),))


def gather(a: Tensor, index: Array, incidence: Array) -> Tensor:
    """Select along axis 1: ``out[:, m] = a[:, index[m]]``.

    ``incidence`` is the one-hot ``(a.shape[1], len(index))`` matrix of
    ``index``, so the backward pass, a sum of each output row into its
    source row, is the single matmul ``incidence @ g``.
    """
    return _from_op(np.take(a.data, index, axis=1), (a,), lambda g: (incidence @ g,))


def edge_attention(q: Tensor, key: Tensor, val: Tensor, routing, num_heads: int) -> Tensor:
    """Multi-head attention of each node over its incoming messages.

    ``q`` is ``(B, |V|, d)``; ``key`` and ``val`` are ``(B, M, d)``, one row
    per message. ``routing`` (an :class:`~tailcast.encoders.MessageRouting`)
    names each message's destination (``dst``), their one-hot
    ``(|V|, M)`` ``dst_incidence``, and each node's in-messages padded with
    ``M`` (``in_messages``). Per head, a message's score is
    ``<q_dst, key> / sqrt(d_head)``; scores are softmaxed over each node's
    in-messages, shifted by the detached per-destination maximum (softmax
    is shift-invariant), and the weighted values are summed into their
    destination. A node without in-messages gets zeros.
    """
    b, m, d = key.shape
    d_head = d // num_heads
    inv_scale = 1.0 / math.sqrt(d_head)
    dst, incidence = routing.dst, routing.dst_incidence
    q4 = np.take(q.data, dst, axis=1).reshape(b, m, num_heads, d_head)
    k4 = key.data.reshape(b, m, num_heads, d_head)
    v4 = val.data.reshape(b, m, num_heads, d_head)
    scores = (q4 * k4).sum(axis=3) * inv_scale                      # (B, M, H)
    padded = np.concatenate([scores, np.full((b, 1, num_heads), -np.inf)], axis=1)
    shift = np.take(padded, routing.in_messages, axis=1).max(axis=2, initial=-np.inf)
    z = np.exp(scores - np.take(shift, dst, axis=1))
    alpha = z / np.take(incidence @ z, dst, axis=1)                 # (B, M, H)
    out = incidence @ (alpha[..., None] * v4).reshape(b, m, d)

    def backward(g):
        g4 = np.take(g, dst, axis=1).reshape(b, m, num_heads, d_head)
        g_val = (alpha[..., None] * g4).reshape(b, m, d)
        g_alpha = (g4 * v4).sum(axis=3)
        g_scores = alpha * (g_alpha - np.take(incidence @ (alpha * g_alpha), dst, axis=1))
        g_scores = (g_scores * inv_scale)[..., None]
        g_q = incidence @ (g_scores * k4).reshape(b, m, d)
        return g_q, (g_scores * q4).reshape(b, m, d), g_val

    return _from_op(out, (q, key, val), backward)


# ---------------------------------------------------------------------------
# fused normalization ops
# ---------------------------------------------------------------------------


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis`` (max-subtracted)."""
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return ((g - dot) * y,)

    return _from_op(y, (a,), backward)


LAYER_NORM_EPS = 1e-5


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.

    Uses the population variance of each slice; ``LAYER_NORM_EPS`` guards
    the division. Each mean is a sum divided by the width, which is what
    ``np.mean`` computes, without its Python wrapper.
    """
    x = a.data
    n = x.shape[-1]
    mu = x.sum(axis=-1, keepdims=True) / n
    xc = x - mu
    var = (xc * xc).sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = xc * inv
    y = xhat * gain.data + bias.data

    def backward(g):
        dgain = _unbroadcast(g * xhat, gain.shape)
        dbias = _unbroadcast(g, bias.shape)
        dxhat = g * gain.data
        m1 = dxhat.sum(axis=-1, keepdims=True) / n
        m2 = (dxhat * xhat).sum(axis=-1, keepdims=True) / n
        dx = (dxhat - m1 - xhat * m2) * inv
        return dx, dgain, dbias

    return _from_op(y, (a, gain, bias), backward)


def dropout(a: Tensor, p: float, training: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: identity at inference, 1/(1-p) scaling while training."""
    if not training or p <= 0.0:
        return a
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if rng is None:
        raise ValueError("dropout in training mode needs an explicit rng")
    mask = (rng.random(a.shape) >= p) / (1.0 - p)
    return _from_op(a.data * mask, (a,), lambda g: (g * mask,))


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
    ``m`` and ``v`` map each name to a view of the flat moment vectors.

    Missing gradients are treated as exact zeros (the moments still decay).
    ``clip_norm`` enables global-norm gradient clipping; it is off by default.
    ``grad_norm`` is the global norm of the last step's gradient, before
    clipping.
    """

    def __init__(
        self,
        params: Mapping[str, Tensor],
        learning_rate: float = 1e-3,
        clip_norm: float | None = None,
    ):
        self.params = dict(params)
        self.learning_rate = learning_rate
        self.clip_norm = clip_norm
        self.step_count = 0
        self.grad_norm: float | None = None
        total = sum(p.data.size for p in self.params.values())
        self.flat = np.empty(total)
        self._m = np.zeros(total)
        self._v = np.zeros(total)
        self.m: dict[str, Array] = {}
        self.v: dict[str, Array] = {}
        start = 0
        for name, p in self.params.items():
            stop = start + p.data.size
            shape = p.data.shape
            self.flat[start:stop] = p.data.reshape(-1)
            p.data = self.flat[start:stop].reshape(shape)
            self.m[name] = self._m[start:stop].reshape(shape)
            self.v[name] = self._v[start:stop].reshape(shape)
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
        norm = math.sqrt(float(np.dot(grad, grad)))
        self.grad_norm = norm
        if self.clip_norm is not None and norm > self.clip_norm and norm != 0.0:
            grad *= self.clip_norm / norm
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
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"unexpected checkpoint format {payload.get('format')!r}")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {payload.get('version')!r}")
    params = {}
    for name, entry in payload["params"].items():
        arr = np.asarray(entry["data"], dtype=np.float64).reshape(entry["shape"])
        params[name] = arr
    return params, payload.get("meta", {})


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
