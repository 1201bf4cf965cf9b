"""Trainable building blocks on top of the autodiff core.

Affine layers, a stacked LSTM, and parameter-collection helpers shared by
the surrogate net and the calibrator.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape=None) -> np.ndarray:
    lim = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-lim, lim, size=shape if shape is not None else (fan_in, fan_out))


class Affine:
    """y = x @ W + b, weights Glorot-uniform, biases zero."""

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator, name: str):
        self.W = ad.parameter(glorot(rng, n_in, n_out), f"{name}.W")
        self.b = ad.parameter(np.zeros(n_out), f"{name}.b")

    def __call__(self, x: Tensor) -> Tensor:
        return ad.add(ad.matmul(x, self.W), self.b)

    def params(self) -> list[Tensor]:
        return [self.W, self.b]


class LSTMCell:
    """Single gated recurrent layer; gate order (input, forget, cell, output).

    Forget-gate bias starts at +1 for stable early training.
    """

    def __init__(self, n_in: int, n_hidden: int, rng: np.random.Generator, name: str):
        self.n_hidden = n_hidden
        self.W = ad.parameter(glorot(rng, n_in, 4 * n_hidden, (n_in, 4 * n_hidden)), f"{name}.W")
        self.U = ad.parameter(glorot(rng, n_hidden, 4 * n_hidden, (n_hidden, 4 * n_hidden)), f"{name}.U")
        bias = np.zeros(4 * n_hidden)
        bias[n_hidden:2 * n_hidden] = 1.0
        self.b = ad.parameter(bias, f"{name}.b")

    def step(self, x: Tensor, h: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
        H = self.n_hidden
        gates = ad.add(ad.add(ad.matmul(x, self.W), ad.matmul(h, self.U)), self.b)
        i = ad.sigmoid(gates[..., 0:H])
        f = ad.sigmoid(gates[..., H:2 * H])
        g = ad.tanh(gates[..., 2 * H:3 * H])
        o = ad.sigmoid(gates[..., 3 * H:4 * H])
        c_new = ad.add(ad.mul(f, c), ad.mul(i, g))
        h_new = ad.mul(o, ad.tanh(c_new))
        return h_new, c_new

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
        """xs: sequence of (batch, n_in) or (n_in,) tensors. Returns the final
        top-layer hidden state, (batch, n_hidden) or (n_hidden,)."""
        shape = xs[0].data.shape[:-1] + (self.n_hidden,)
        states = [(Tensor(np.zeros(shape)), Tensor(np.zeros(shape))) for _ in self.cells]
        h_top = states[-1][0]
        for x in xs:
            inp = x
            for k, cell in enumerate(self.cells):
                h, c = cell.step(inp, *states[k])
                states[k] = (h, c)
                inp = h
            h_top = inp
        return h_top

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
