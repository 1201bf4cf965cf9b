"""Minimal reverse-mode automatic differentiation over numpy arrays.

Everything trainable in this project (surrogate net, recurrent feature
extractor, hypernetwork) runs on this core: float64 tensors, a tape of
recorded operations, and a backward pass that accumulates gradients.
"""

from __future__ import annotations

import math
import struct
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np

_GRAD_ENABLED = True


@contextmanager
def no_grad():
    """Disable tape recording; forward values are unaffected."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    """A float64 array with an optional gradient and a backward closure.

    Graph edges are stored on the nodes themselves; `backward` performs a
    topological sweep, so the "tape" is the implicit recorded graph.
    """

    __slots__ = ("data", "grad", "requires_grad", "name", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data) if requires_grad else None
        self.requires_grad = requires_grad
        self.name = name
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()

    # -- basic introspection -------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        tag = f" name={self.name}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag}, requires_grad={self.requires_grad})"

    def zero_grad(self):
        if self.grad is not None:
            self.grad[...] = 0.0

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def item(self) -> float:
        return float(self.data)

    # -- graph plumbing --------------------------------------------------------
    def _needs_graph(self) -> bool:
        return _GRAD_ENABLED and (self.requires_grad or self._parents != () or self._backward is not None)

    def backward(self, seed: np.ndarray | None = None):
        """Accumulate gradients of this (scalar) tensor into every parameter."""
        if seed is None:
            if self.data.size != 1:
                raise ValueError("backward() without seed requires a scalar tensor")
            seed = np.ones_like(self.data)
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        grads: dict[int, np.ndarray] = {id(self): np.asarray(seed, dtype=np.float64)}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad:
                node.grad += g
            if node._backward is None:
                continue
            for parent, pg in zip(node._parents, node._backward(g)):
                if pg is None:
                    continue
                acc = grads.get(id(parent))
                if acc is None:
                    grads[id(parent)] = pg.copy() if pg.base is not None or pg is g else pg
                else:
                    acc += pg

    def __getitem__(self, idx):
        return index(self, idx)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def parameter(data, name: str) -> Tensor:
    """A trainable tensor with a stable name (used for checkpoints)."""
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True, name=name)


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    if any(p._needs_graph() for p in parents):
        out._parents = parents
        out._backward = backward
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum grad over axes that were broadcast in the forward pass."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# -- elementwise / linear ops ------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make(
        a.data + b.data,
        (a, b),
        lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)),
    )


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make(
        a.data - b.data,
        (a, b),
        lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)),
    )


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make(
        a.data * b.data,
        (a, b),
        lambda g: (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        ),
    )


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def back(g):
        ad = a.data
        gb = np.outer(ad, g) if ad.ndim == 1 else ad.T @ g
        return g @ b.data.T, gb

    return _make(a.data @ b.data, (a, b), back)


def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0
    return _make(a.data * mask, (a,), lambda g: (g * mask,))


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    # exp(-a) overflows to inf for a < -709, and 1 / (1 + inf) is exactly 0.0
    with np.errstate(over="ignore"):
        s = 1.0 / (1.0 + np.exp(-a.data))
    return _make(s, (a,), lambda g: (g * s * (1.0 - s),))


def tanh(a) -> Tensor:
    a = as_tensor(a)
    t = np.tanh(a.data)
    return _make(t, (a,), lambda g: (g * (1.0 - t * t),))


def sqrt(a, eps: float = 0.0) -> Tensor:
    a = as_tensor(a)
    r = np.sqrt(a.data + eps)
    return _make(r, (a,), lambda g: (g * 0.5 / r,))


def square(a) -> Tensor:
    a = as_tensor(a)
    return _make(a.data * a.data, (a,), lambda g: (g * 2.0 * a.data,))


def vsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def back(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.data.shape),)

    return _make(out, (a,), back)


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    n = a.data.size if axis is None else a.data.shape[axis]
    return mul(vsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def concat(parts: Sequence[Tensor], axis: int = -1) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    sizes = [p.data.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def back(g):
        return tuple(np.split(g, splits, axis=axis))

    return _make(np.concatenate([p.data for p in parts], axis=axis), tuple(parts), back)


def index(a, idx) -> Tensor:
    a = as_tensor(a)

    def back(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, idx, g)
        return (ga,)

    return _make(a.data[idx], (a,), back)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    return _make(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.data.shape),))


def sum_squares(a) -> Tensor:
    """Squared L2 norm of a tensor (flattened)."""
    return vsum(square(a))


# -- Adam -------------------------------------------------------------------------


class Adam:
    """Bias-corrected Adam over a fixed list of parameters.

    A step with any non-finite gradient is aborted (parameters untouched)
    and reported via the return value.
    """

    def __init__(self, params: Iterable[Tensor], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = [p for p in params if p.requires_grad]
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self) -> bool:
        for p in self.params:
            if not np.all(np.isfinite(p.grad)):
                return False
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)
        return True


# -- gradient checking ---------------------------------------------------------


def grad_check(loss_fn: Callable[[], Tensor], params: Sequence[Tensor],
               h: float = 1e-5, max_entries: int = 40,
               rng: np.random.Generator | None = None) -> float:
    """Max relative error between analytic and central-difference gradients.

    `loss_fn` must be a deterministic closure over `params` returning a
    scalar Tensor. Per parameter, the entries with the largest analytic
    gradients are probed: that keeps large blocks cheap and avoids entries
    whose true gradient sits below the roundoff floor of central
    differences, where no finite-difference oracle can resolve anything.
    """
    rng = rng or np.random.default_rng(0)
    for p in params:
        p.zero_grad()
    loss = loss_fn()
    loss.backward()
    analytic = [p.grad.copy() for p in params]
    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.data.reshape(-1)
        gflat = ga.reshape(-1)
        n = flat.size
        picks = (np.arange(n) if n <= max_entries
                 else np.argsort(np.abs(gflat))[-max_entries:])
        for i in picks:
            orig = flat[i]
            step = h * max(1.0, abs(orig))
            flat[i] = orig + step
            with no_grad():
                up = loss_fn().item()
            flat[i] = orig - step
            with no_grad():
                dn = loss_fn().item()
            flat[i] = orig
            numeric = (up - dn) / (2.0 * step)
            denom = max(abs(numeric), abs(gflat[i]), 1e-8)
            worst = max(worst, abs(numeric - gflat[i]) / denom)
    return worst


# -- checkpoint serialization --------------------------------------------------

_MAGIC = b"CSCK"
_VERSION = 1


def save_tensors(path, tensors: dict[str, np.ndarray]):
    """Write named float64 tensors: magic, version, count, then per tensor
    name length+bytes, rank, dims, little-endian doubles row-major."""
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<II", _VERSION, len(tensors)))
        for name, arr in tensors.items():
            arr = np.asarray(arr, dtype="<f8", order="C")
            nb = name.encode("utf-8")
            f.write(struct.pack("<I", len(nb)))
            f.write(nb)
            f.write(struct.pack("<I", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            f.write(arr.tobytes(order="C"))


def load_tensors(path) -> dict[str, np.ndarray]:
    """Read a `save_tensors` file; a truncated file or trailing bytes raise
    ValueError naming the path."""
    with open(path, "rb") as f:
        buf = f.read()
    if not buf.startswith(_MAGIC):
        raise ValueError(f"{path}: not a checkpoint file")
    pos = len(_MAGIC)

    def take(n: int) -> bytes:
        nonlocal pos
        if n > len(buf) - pos:
            raise ValueError(f"{path}: checkpoint truncated at byte {len(buf)}")
        pos += n
        return buf[pos - n: pos]

    version, count = struct.unpack("<II", take(8))
    if version != _VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (nlen,) = struct.unpack("<I", take(4))
        name = take(nlen).decode("utf-8")
        (rank,) = struct.unpack("<I", take(4))
        dims = struct.unpack(f"<{rank}Q", take(8 * rank))
        data = np.frombuffer(take(8 * math.prod(dims)), dtype="<f8").reshape(dims)
        out[name] = np.array(data, dtype=np.float64)
    if pos != len(buf):
        raise ValueError(f"{path}: {len(buf) - pos} trailing bytes after the last tensor")
    return out
