"""Minimal reverse-mode automatic differentiation over numpy arrays.

Everything trainable in this project (surrogate net, recurrent feature
extractor, hypernetwork) runs on this core: float64 tensors, a tape of
recorded operations, and a backward pass that accumulates gradients and
consumes the tape it walks, so a training step's graph is freed once its
gradients are in, even while the loss and other outputs are still held.
"""

from __future__ import annotations

import math
import struct
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np


@contextmanager
def frozen(params: Iterable[Tensor]):
    """Hold `params` out of the graph: `requires_grad` is False inside the
    block and back to each one's earlier flag on exit. A forward over frozen
    parameters and constant inputs records nothing and has the same values."""
    prev = [(p, p.requires_grad) for p in params]
    for p, _ in prev:
        p.requires_grad = False
    try:
        yield
    finally:
        for p, flag in prev:
            p.requires_grad = flag


def _consumed(g):
    raise RuntimeError("backward() through a graph that an earlier backward() consumed")


class Tensor:
    """A float64 array with an optional gradient and a backward closure.

    `grad` is None until a backward that reaches the tensor allocates it,
    or an open `Adam` points it at its flat gradient buffer.

    Graph edges are stored on the nodes themselves; `backward` performs a
    topological sweep, so the "tape" is the implicit recorded graph.
    """

    __slots__ = ("data", "grad", "requires_grad", "name", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
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

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def item(self) -> float:
        return float(self.data)

    # -- graph plumbing --------------------------------------------------------
    def backward(self):
        """Accumulate gradients of this scalar tensor into every parameter.

        Consumes the graph: every recorded node it walks loses its parents
        and its backward closure, so only the `.data` of tensors still held
        outlives the call. A second backward through any of them raises
        RuntimeError instead of adding nothing. A non-finite value raises
        FloatingPointError before any gradient is touched."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        if not np.isfinite(self.data):
            raise FloatingPointError(f"backward() of a non-finite loss {self.item()}")
        # Tensors hash by identity, so they key the sets and dicts directly
        topo: list[Tensor] = []
        seen: set[Tensor] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if node in seen:
                continue
            seen.add(node)
            stack.append((node, True))
            for p in node._parents:
                if p not in seen:
                    stack.append((p, False))
        grads: dict[Tensor, np.ndarray] = {self: np.ones_like(self.data)}
        for node in reversed(topo):
            back, parents = node._backward, node._parents
            if back is not None:
                node._backward, node._parents = _consumed, ()
            g = grads.pop(node, None)
            if g is None:
                continue
            if node.requires_grad:
                if node.grad is None:
                    node.grad = np.zeros_like(node.data)
                node.grad += g
            if back is None:
                continue
            for parent, pg in zip(parents, back(g)):
                if pg is None:
                    continue
                acc = grads.get(parent)
                if acc is None:
                    grads[parent] = pg.copy() if pg.base is not None or pg is g else pg
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
    """A new tensor that joins the graph when a parent requires a gradient or was recorded."""
    out = Tensor(data)
    for p in parents:
        if wants_grad(p):
            out._parents = parents
            out._backward = backward
            break
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


def sqrt(a, eps: float = 0.0) -> Tensor:
    a = as_tensor(a)
    r = np.sqrt(a.data + eps)
    return _make(r, (a,), lambda g: (g * 0.5 / r,))


def square(a) -> Tensor:
    a = as_tensor(a)
    return _make(a.data * a.data, (a,), lambda g: (g * 2.0 * a.data,))


def vsum(a, axis=None) -> Tensor:
    a = as_tensor(a)

    def back(g):
        g = np.asarray(g)
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.data.shape),)

    return _make(a.data.sum(axis=axis), (a,), back)


def mean(a) -> Tensor:
    a = as_tensor(a)
    return mul(vsum(a), 1.0 / a.data.size)


def concat(parts: Sequence[Tensor]) -> Tensor:
    """`parts` joined along their last axis."""
    parts = [as_tensor(p) for p in parts]
    splits = np.cumsum([p.data.shape[-1] for p in parts])[:-1]

    def back(g):
        return tuple(np.split(g, splits, axis=-1))

    return _make(np.concatenate([p.data for p in parts], axis=-1), tuple(parts), back)


def _is_basic_index(idx) -> bool:
    """Ints, slices, Ellipsis and None, alone or in a tuple: numpy's basic
    indexing, which selects every element at most once."""
    for part in idx if isinstance(idx, tuple) else (idx,):
        if not (part is None or part is Ellipsis or isinstance(part, slice)
                or (isinstance(part, (int, np.integer)) and not isinstance(part, bool))):
            return False
    return True


def index(a, idx) -> Tensor:
    """a[idx] for a basic index. An array or boolean index raises TypeError:
    it may select an element twice, and the backward's in-place add would
    then drop all but one of that element's gradients."""
    a = as_tensor(a)
    if not _is_basic_index(idx):
        raise TypeError(f"index supports ints, slices, Ellipsis and None only, got {idx!r}")

    def back(g):
        ga = np.zeros_like(a.data)
        ga[idx] += g
        return (ga,)

    return _make(a.data[idx], (a,), back)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    return _make(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.data.shape),))


def sum_squares(a) -> Tensor:
    """Squared L2 norm of a tensor (flattened)."""
    return vsum(square(a))


# -- fused layers -------------------------------------------------------------------
#
# One node each where the elementwise ops above would record several. Every
# forward and backward keeps the op order of the unfused chain, so results
# are bit-identical to it; a parent that is a constant gets no gradient work.


def wants_grad(t: Tensor) -> bool:
    """Whether a backward has work for `t`: it requires a gradient or was recorded."""
    return t.requires_grad or t._backward is not None


def _weight_grad(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    return np.outer(x, g) if x.ndim == 1 else x.T @ g


def mlp(x, layers: Sequence[Sequence[Tensor]]) -> Tensor:
    """h @ W + b for each (W, b) in `layers` in turn, from h = x, with a ReLU
    between each two layers and none after the last. x is (n_in,) or
    (batch, n_in); a stack of batches runs forward only. One tape node,
    whose backward hands x and each W and b the gradient of the chain of
    affine and relu nodes, with the same ops in the same order; it stops
    below the lowest layer that wants one, and a frozen layer gets None."""
    x = as_tensor(x)
    ins, masks = [x.data], []   # each layer's input; the ReLU masks between layers
    for w, b in layers[:-1]:
        h = ins[-1] @ w.data
        h += b.data
        mask = h > 0
        h *= mask
        ins.append(h)
        masks.append(mask)
    w, b = layers[-1]
    out = ins[-1] @ w.data
    out += b.data

    def back(g):
        grads = [None] * (1 + 2 * len(layers))
        lowest = 0 if wants_grad(x) else next(
            k for k, layer in enumerate(layers) if any(map(wants_grad, layer)))
        for k in reversed(range(lowest, len(layers))):
            w, b = layers[k]
            if wants_grad(w):
                grads[1 + 2 * k] = _weight_grad(ins[k], g)
            if wants_grad(b):
                grads[2 + 2 * k] = _unbroadcast(g, b.data.shape)
            if k > lowest:
                g = g @ w.data.T
                g *= masks[k - 1]
        if wants_grad(x):
            grads[0] = g @ layers[0][0].data.T
        return tuple(grads)

    return _make(out, (x, *(p for layer in layers for p in layer)), back)


def mse(pred, target) -> Tensor:
    """The mean over rows of the row-summed squared error of `pred` against
    `target`, a row being the last axis: the node of
    mean(vsum(square(sub(pred, target)), axis=-1)), with its op order."""
    pred, target = as_tensor(pred), as_tensor(target)
    d = pred.data - target.data
    rows = (d * d).sum(axis=-1)
    scale = 1.0 / rows.size

    def back(g):
        gd = (g * scale) * 2.0 * d
        return (gd if wants_grad(pred) else None,
                -gd if wants_grad(target) else None)

    return _make(rows.sum() * scale, (pred, target), back)


def lstm(xs: np.ndarray, weights: Sequence[Sequence[Tensor]]) -> Tensor:
    """The last top-layer hidden state, (batch, H), of a stacked LSTM run from
    zero states over the constant `xs`, (batch, T, n_in).

    Layer k, with (W, U, b) = weights[k], takes z = x @ W + h @ U + b with
    gate order (input, forget, cell, output): sigmoid on z's i, f and o
    quarters, tanh on its cell quarter g; then c = f * c + i * g and
    h = o * tanh(c). One tape node, whose backward runs back through time
    and hands each W, U and b its gradient summed from the last step down,
    in the op order of a chain of gate, cell and hidden-state nodes.
    """
    batch, steps = xs.shape[:2]
    n, H = len(weights), weights[0][1].data.shape[0]
    i, f, g, o = (slice(q * H, (q + 1) * H) for q in range(4))
    i_f = slice(0, 2 * H)
    saved = []   # per step and layer: input, h and c before, gates, tanh(c)
    zero = np.zeros((batch, H))
    hs, cs = [zero] * n, [zero] * n
    with np.errstate(over="ignore"):  # as in `sigmoid`
        for t in range(steps):
            x = xs[:, t]
            for k, (w, u, b) in enumerate(weights):
                z = x @ w.data
                z += hs[k] @ u.data
                z += b.data
                act = np.negative(z)
                np.exp(act, out=act)
                act += 1.0
                np.divide(1.0, act, out=act)
                np.tanh(z[:, g], out=act[:, g])
                c = act[:, f] * cs[k]
                c += act[:, i] * act[:, g]
                tc = np.tanh(c)
                saved.append((x, hs[k], cs[k], act, tc))
                x = hs[k] = act[:, o] * tc
                cs[k] = c

    def back(dh_top):
        grads = [None] * (3 * n)
        dh, dc = [None] * n, [None] * n   # each layer's h and c gradient from the step after
        dz, d_act = np.empty((batch, 4 * H)), np.empty((batch, 4 * H))
        for t in reversed(range(steps)):
            up = dh_top if t == steps - 1 else None   # h's gradient from the layer above
            for k in reversed(range(n)):
                x, h, c, act, tc = saved[t * n + k]
                w, u, _ = weights[k]
                gh = up if dh[k] is None else dh[k] if up is None else dh[k] + up
                gc = gh * act[:, o]
                gc *= 1.0 - tc * tc
                if dc[k] is not None:
                    gc += dc[k]
                # the gates' gradients, then the pre-activations', +0.0 for -0.0
                np.multiply(gc, act[:, g], out=dz[:, i])
                np.multiply(gc, c, out=dz[:, f])
                np.multiply(gc, act[:, i], out=dz[:, g])
                np.multiply(gh, tc, out=dz[:, o])
                np.subtract(1.0, act, out=d_act)
                np.multiply(act[:, g], act[:, g], out=d_act[:, g])
                np.subtract(1.0, d_act[:, g], out=d_act[:, g])
                dz[:, i_f] *= act[:, i_f]
                dz[:, o] *= act[:, o]
                dz *= d_act
                dz += 0.0
                terms = (x.T @ dz, h.T @ dz, dz.sum(axis=0))
                if t == steps - 1:
                    grads[3 * k: 3 * k + 3] = terms
                else:
                    for acc, term in zip(grads[3 * k: 3 * k + 3], terms):
                        acc += term
                up = dz @ w.data.T if k else None
                dh[k] = dz @ u.data.T if t else None
                dc[k] = gc * act[:, f] if t else None
        return tuple(grads)

    return _make(hs[-1], tuple(p for layer in weights for p in layer), back)


# -- Adam -------------------------------------------------------------------------

# Adam gives up, raising FloatingPointError, once this many of its steps in
# a row were skipped on non-finite gradients.
MAX_SKIPPED_IN_ROW = 10

# decay rates of Adam's first and second moment estimates, and the
# denominator's guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Bias-corrected Adam over a fixed list of parameters.

    The gradients, like the moments, live in one flat vector in parameter
    order, and each parameter's `.grad` is a view of its slice while the
    optimizer is open. Use it as a context manager: on exit every
    parameter's `.grad` is None again, also when training raises.

    A step with any non-finite gradient is skipped (parameters untouched),
    counted in `skipped` and reported via the return value; the
    MAX_SKIPPED_IN_ROW-th skip in a row raises FloatingPointError.
    """

    def __init__(self, params: Iterable[Tensor], lr: float = 1e-3):
        self.params = [p for p in params if p.requires_grad]
        self.lr = lr
        self.t = 0
        self.skipped = 0
        self.skipped_in_row = 0
        offs = np.cumsum([0] + [p.data.size for p in self.params]).tolist()
        self.slices = [slice(a, b) for a, b in zip(offs, offs[1:])]
        self.m = np.zeros(offs[-1])
        self.v = np.zeros(offs[-1])
        self.grad = np.zeros(offs[-1])
        for p, sl in zip(self.params, self.slices):
            p.grad = self.grad[sl].reshape(p.data.shape)

    def __enter__(self) -> "Adam":
        return self

    def __exit__(self, *exc):
        for p in self.params:
            p.grad = None

    def zero_grad(self):
        self.grad.fill(0.0)

    def step(self) -> bool:
        g = self.grad
        if not np.all(np.isfinite(g)):
            self.skipped += 1
            self.skipped_in_row += 1
            if self.skipped_in_row == MAX_SKIPPED_IN_ROW:
                raise FloatingPointError(
                    f"{MAX_SKIPPED_IN_ROW} Adam steps in a row skipped on "
                    f"non-finite gradients after step {self.t}")
            return False
        self.skipped_in_row = 0
        self.t += 1
        c1 = 1.0 - ADAM_BETA1 ** self.t
        c2 = 1.0 - ADAM_BETA2 ** self.t
        m, v = self.m, self.v
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        upd = self.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
        for p, sl in zip(self.params, self.slices):
            p.data -= upd[sl].reshape(p.data.shape)
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
        p.grad = None
    loss_fn().backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad for p in params]
    worst = 0.0
    with frozen(params):
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
                up = loss_fn().item()
                flat[i] = orig - step
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
