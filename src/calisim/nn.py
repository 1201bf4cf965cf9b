"""Trainable building blocks on top of the autodiff core.

Affine layers, a stacked LSTM, and parameter-collection helpers shared by
the surrogate net and the calibrator.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    lim = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-lim, lim, size=(fan_in, fan_out))


class Affine:
    """y = x @ W + b, weights Glorot-uniform, biases zero."""

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator, name: str):
        self.W = ad.parameter(glorot(rng, n_in, n_out), f"{name}.W")
        self.b = ad.parameter(np.zeros(n_out), f"{name}.b")

    def __call__(self, x: Tensor) -> Tensor:
        return ad.affine(x, self.W, self.b)

    def params(self) -> list[Tensor]:
        return [self.W, self.b]


class LSTMCell:
    """One layer's parameters of a `StackedLSTM`: W (n_in, 4H), U (H, 4H)
    and b (4H,), gate order (input, forget, cell, output).

    Forget-gate bias starts at +1 for stable early training.
    """

    def __init__(self, n_in: int, n_hidden: int, rng: np.random.Generator, name: str):
        self.W = ad.parameter(glorot(rng, n_in, 4 * n_hidden), f"{name}.W")
        self.U = ad.parameter(glorot(rng, n_hidden, 4 * n_hidden), f"{name}.U")
        bias = np.zeros(4 * n_hidden)
        bias[n_hidden:2 * n_hidden] = 1.0
        self.b = ad.parameter(bias, f"{name}.b")

    def params(self) -> list[Tensor]:
        return [self.W, self.U, self.b]


class StackedLSTM:
    """Multi-layer LSTM; returns the final top-layer hidden state."""

    def __init__(self, n_in: int, n_hidden: int, n_layers: int,
                 rng: np.random.Generator, name: str):
        self.cells = [
            LSTMCell(n_in if k == 0 else n_hidden, n_hidden, rng, f"{name}.layer{k}")
            for k in range(n_layers)
        ]
        self.n_hidden = n_hidden

    def run(self, xs: list[Tensor]) -> Tensor:
        """xs: sequence of (batch, n_in) or (n_in,) constant tensors. Returns
        the final top-layer hidden state, (batch, n_hidden) or (n_hidden,),
        recorded as one tape node. An input that requires a gradient or was
        recorded raises ValueError: no gradient flows back into xs."""
        if any(ad.wants_grad(x) for x in xs):
            raise ValueError("StackedLSTM.run takes constant inputs, got one that needs a gradient")
        seq = np.stack([x.data for x in xs], axis=-2)
        weights = [cell.params() for cell in self.cells]
        if seq.ndim == 2:  # one sequence: a batch of one
            return ad.reshape(ad.lstm(seq[None], weights), (self.n_hidden,))
        return ad.lstm(seq, weights)

    def params(self) -> list[Tensor]:
        return [p for cell in self.cells for p in cell.params()]


def collect(*blocks) -> list[Tensor]:
    out: list[Tensor] = []
    for blk in blocks:
        out.extend(blk.params())
    return out


def named_params(params: list[Tensor]) -> dict[str, np.ndarray]:
    seen: dict[str, np.ndarray] = {}
    for p in params:
        if p.name is None:
            raise ValueError("checkpointed parameters must be named")
        if p.name in seen:
            raise ValueError(f"duplicate parameter name {p.name}")
        seen[p.name] = p.data
    return seen


def load_into(params: list[Tensor], tensors: dict[str, np.ndarray]):
    for p in params:
        if p.name not in tensors:
            raise KeyError(f"checkpoint missing tensor {p.name}")
        arr = tensors[p.name]
        if arr.shape != p.data.shape:
            raise ValueError(f"shape mismatch for {p.name}: {arr.shape} vs {p.data.shape}")
        p.data[...] = arr
