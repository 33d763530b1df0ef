"""Minimal module/parameter plumbing on top of the tensor ops.

A :class:`Module` collects named parameter tensors by walking its attributes;
construction order gives stable, checkpoint-friendly names. There is no
autograd magic here; modules are just containers for parameters plus a
``__call__`` that builds the op graph. A :class:`Predictor` adds the one
batched inference loop that every snapshot model shares.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import numpy as np

from . import tensor as T
from .tensor import Tensor


class Module:
    """Base class tracking parameters, submodules, and the training flag."""

    def __init__(self):
        self.training = True

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        for key, val in vars(self).items():
            if key == "training":
                continue
            yield from _walk(f"{prefix}{key}", val)

    def parameters(self) -> dict[str, Tensor]:
        return dict(self.named_parameters())

    def modules(self) -> Iterator["Module"]:
        yield self
        for _, val in vars(self).items():
            if isinstance(val, Module):
                yield from val.modules()
            elif isinstance(val, (list, tuple)):
                for item in val:
                    if isinstance(item, Module):
                        yield from item.modules()

    def train(self, mode: bool = True) -> "Module":
        for m in self.modules():
            m.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)


EVAL_BATCH = 256  # snapshots per forward pass when nothing is trained


@contextmanager
def _eval_mode(model: Module):
    """Run the body in eval mode, then restore the mode; the two module-tree
    walks are skipped when the model is in eval mode already."""
    if not model.training:
        yield
        return
    model.eval()
    try:
        yield
    finally:
        model.train()


class Predictor(Module):
    """A module mapping a list of snapshots to (B, 1) predictions."""

    def forward_snapshots(self, snapshots: list) -> Tensor:  # pragma: no cover
        raise NotImplementedError

    def predict(self, snapshots: list) -> np.ndarray:
        """Inference over many snapshots; dropout off, no graph recorded."""
        with _eval_mode(self), T.no_grad():
            preds = []
            for i in range(0, len(snapshots), EVAL_BATCH):
                out = self.forward_snapshots(snapshots[i:i + EVAL_BATCH])
                preds.append(out.data.reshape(-1))
            return np.concatenate(preds) if preds else np.zeros(0)


def _walk(name: str, val) -> Iterator[tuple[str, Tensor]]:
    if isinstance(val, Tensor):
        if val.requires_grad:
            yield name, val
    elif isinstance(val, Module):
        yield from val.named_parameters(f"{name}.")
    elif isinstance(val, (list, tuple)):
        for i, item in enumerate(val):
            yield from _walk(f"{name}.{i}", item)


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape: tuple[int, ...] | None = None) -> Tensor:
    """Glorot/Xavier uniform initialization."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    if shape is None:
        shape = (fan_in, fan_out)
    return parameter(rng.uniform(-limit, limit, size=shape))


class Linear(Module):
    """Affine map ``x @ w + b``; works on any leading batch dims."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator, bias: bool = True):
        super().__init__()
        self.w = glorot(rng, d_in, d_out)
        self.b = parameter(np.zeros(d_out)) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        return T.linear(x, self.w, self.b)


class MLP(Module):
    """Stack of Linear layers with GELU between them (none after the last)."""

    def __init__(self, widths: list[int], rng: np.random.Generator):
        super().__init__()
        if len(widths) < 2:
            raise ValueError("MLP needs at least an input and an output width")
        self.layers = [Linear(widths[i], widths[i + 1], rng) for i in range(len(widths) - 1)]

    def __call__(self, x: Tensor) -> Tensor:
        for i, layer in enumerate(self.layers):
            x = layer(x)
            if i < len(self.layers) - 1:
                x = T.gelu(x)
        return x


class LayerNorm(Module):
    """Learnable affine layer normalization over the last axis."""

    def __init__(self, width: int):
        super().__init__()
        self.gain = parameter(np.ones(width))
        self.bias = parameter(np.zeros(width))

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gain, self.bias)
