"""Minimal module/parameter plumbing on top of the tensor ops.

A :class:`Module` collects named parameter tensors by walking its attributes;
construction order gives stable, checkpoint-friendly names. There is no
autograd magic here; modules are just containers for parameters, most with a
``__call__`` that builds the op graph. A :class:`Predictor` holds the
model's one training flag, and :meth:`Predictor.infer` is the one batched
inference loop: ``predict``, embedding export and the validation loss each
hand it a function of one slice of snapshots.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from . import tensor as T
from .tensor import Tensor


class Module:
    """Base class collecting named parameters from its attributes."""

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        for key, val in vars(self).items():
            yield from _walk(f"{prefix}{key}", val)

    def parameters(self) -> dict[str, Tensor]:
        return dict(self.named_parameters())


EVAL_BATCH = 256  # snapshots per forward pass when nothing is trained


class Predictor(Module):
    """A module mapping a list of snapshots to (B, 1) predictions. It holds
    the model's one training flag: only a training-mode forward draws dropout."""

    training = True

    def train(self) -> "Predictor":
        self.training = True
        return self

    def eval(self) -> "Predictor":
        self.training = False
        return self

    def forward_snapshots(self, snapshots: list) -> Tensor:  # pragma: no cover
        raise NotImplementedError

    def infer(self, snapshots: list, fn) -> list:
        """``fn`` of each successive ``EVAL_BATCH`` slice of ``snapshots``, in
        order, run in eval mode with no graph recorded; the training flag is
        restored afterwards."""
        training, self.training = self.training, False
        try:
            with T.no_grad():
                return [fn(snapshots[i:i + EVAL_BATCH])
                        for i in range(0, len(snapshots), EVAL_BATCH)]
        finally:
            self.training = training

    def predict(self, snapshots: list) -> np.ndarray:
        """Predictions over many snapshots; dropout off, no graph recorded."""
        preds = self.infer(snapshots, lambda chunk: self.forward_snapshots(chunk).data.reshape(-1))
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


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> Tensor:
    """Glorot/Xavier uniform initialization of a ``(fan_in, fan_out)`` weight."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return parameter(rng.uniform(-limit, limit, size=(fan_in, fan_out)))


class Linear(Module):
    """Affine map ``x @ w + b``; works on any leading batch dims."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator, bias: bool = True):
        self.w = glorot(rng, d_in, d_out)
        self.b = parameter(np.zeros(d_out)) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        return T.linear(x, self.w, self.b)


class MLP(Module):
    """Stack of Linear layers with GELU between them (none after the last)."""

    def __init__(self, widths: list[int], rng: np.random.Generator):
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
    """The learnable gain and bias of a layer normalization over the last
    axis; the encoder block ops that hold one apply it."""

    def __init__(self, width: int):
        self.gain = parameter(np.ones(width))
        self.bias = parameter(np.zeros(width))
