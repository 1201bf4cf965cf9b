"""Autodiff core: finite-difference gradient checks for every building
block, Adam closed-form behavior, and checkpoint serialization."""

import weakref

import numpy as np
import pytest

from calisim import autodiff as ad
from calisim import metamarket as mm
from calisim import nn
from calisim.autodiff import Adam, Tensor, grad_check, load_tensors, save_tensors

TOL = 1e-5


def test_relu_sigmoid_values():
    assert np.array_equal(ad.relu(Tensor([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])
    assert ad.sigmoid(Tensor(0.0)).item() == 0.5
    assert ad.sigmoid(Tensor(-1000.0)).item() == 0.0  # exp overflows, no warning


def test_affine_identity():
    x = Tensor([1.0, -2.0, 3.0])
    out = ad.affine(x, Tensor(np.eye(3)), Tensor(np.zeros(3)))
    assert np.array_equal(out.data, x.data)


@pytest.mark.parametrize("seed", range(10))
def test_grad_affine_relu_chain(seed):
    rng = np.random.default_rng(seed)
    layer1 = nn.Affine(4, 6, rng, "l1")
    layer2 = nn.Affine(6, 2, rng, "l2")
    x = Tensor(rng.normal(size=4) + 0.1)  # avoid exact relu kinks

    def loss():
        return ad.sum_squares(layer2(ad.relu(layer1(x))))

    assert grad_check(loss, nn.collect(layer1, layer2), rng=rng) < TOL


@pytest.mark.parametrize("seed", range(10))
def test_grad_lstm_two_layers_over_sequence(seed):
    rng = np.random.default_rng(seed)
    net = nn.StackedLSTM(3, 5, 2, rng, "lstm")
    xs = [Tensor(rng.normal(size=3)) for _ in range(20)]

    def loss():
        return ad.sum_squares(net.run(xs))

    assert grad_check(loss, net.params(), rng=rng, max_entries=10) < TOL


@pytest.mark.parametrize("seed", range(10))
def test_grad_sigmoid_tanh_concat_index(seed):
    """tanh has no op of its own any more; the fused LSTM tests below
    check it inside `ad.lstm`."""
    rng = np.random.default_rng(seed)
    a = ad.parameter(rng.normal(size=5), "a")
    b = ad.parameter(rng.normal(size=3), "b")

    def loss():
        joined = ad.concat([ad.sigmoid(a), b])
        return ad.add(ad.sum_squares(joined[1:6]), ad.mean(joined))

    assert grad_check(loss, [a, b], rng=rng) < TOL


@pytest.mark.parametrize("seed", range(10))
def test_grad_triplet_loss_non_kink(seed):
    """The hinge of metamarket.loss_stat, on one row."""
    rng = np.random.default_rng(seed)
    anchor = ad.parameter(rng.normal(size=(1, 4)), "anchor")
    pos = ad.parameter(rng.normal(size=(1, 4)), "pos")
    neg = ad.parameter(rng.normal(size=(1, 4)), "neg")

    def loss():
        d_pos = mm._rowwise_norm(ad.sub(anchor, pos))
        d_neg = mm._rowwise_norm(ad.sub(anchor, neg))
        return ad.mean(ad.relu(ad.add(ad.sub(d_pos, d_neg), 0.5)))

    if loss().item() == 0.0:  # hinge kink or inactive region: resample
        pos.data += 10.0 * np.sign(pos.data - anchor.data)
    assert loss().item() > 0
    assert grad_check(loss, [anchor, pos, neg], rng=rng) < TOL


@pytest.mark.parametrize("shape, idx", [
    ((7,), slice(1, 6)),
    ((7,), slice(None, None, -2)),
    ((7,), 3),
    ((3, 8), (slice(None), slice(2, 5))),
    ((3, 8), (Ellipsis, slice(4, 8))),
    ((2, 3, 8), (Ellipsis, slice(0, 2))),
    ((3, 8), (1, None, slice(None, None, 3))),
])
def test_index_backward_matches_add_at(shape, idx):
    """The in-place add of index's backward writes what np.add.at writes,
    bit for bit, including a -0.0 gradient entry (stored as +0.0)."""
    rng = np.random.default_rng(0)
    a = ad.parameter(rng.normal(size=shape), "a")
    out = a[idx]
    g = rng.normal(size=out.shape)
    g.reshape(-1)[::2] = -0.0
    (ga,) = out._backward(g)
    ref = np.zeros(shape)
    np.add.at(ref, idx, g)
    assert ga.tobytes() == ref.tobytes()
    assert not np.any(np.signbit(ga[ga == 0.0]))


@pytest.mark.parametrize("idx", [np.array([0, 0, 2]), [1, 1], np.array([True, False, True]),
                                 (slice(None), np.array([0, 0])), True])
def test_index_rejects_non_basic_index(idx):
    """An array or boolean index may select an element twice; index refuses it."""
    with pytest.raises(TypeError, match="slices"):
        ad.parameter(np.zeros((3, 3)), "a")[idx]


def test_frozen_forward_records_nothing():
    """A forward over frozen parameters and constant inputs records no node,
    and gives the values of a recording forward."""
    rng = np.random.default_rng(1)
    layer = nn.Affine(3, 2, rng, "a")
    p = ad.parameter([1.0, 2.0], "p")
    x = Tensor(rng.normal(size=(4, 3)))
    with ad.frozen([p, *layer.params()]):
        out = ad.mul(ad.add(p, 1.0), p)
        h = ad.relu(layer(x))
    assert out._backward is None and out._parents == ()
    assert h._backward is None and h._parents == ()
    assert ad.add(out, 1.0)._backward is None      # no parameter upstream
    assert ad.add(p, 1.0)._parents[0] is p
    assert _same_bits(h.data, ad.relu(layer(x)).data)


def test_frozen_restores_each_flag():
    """Each parameter gets back the flag it had on entry: on a normal exit,
    on an exception, and when frozen blocks nest."""
    p, q = ad.parameter([1.0], "p"), Tensor([2.0])
    with ad.frozen([p, q]):
        assert not p.requires_grad and not q.requires_grad
    assert p.requires_grad and not q.requires_grad
    with pytest.raises(KeyError):
        with ad.frozen([p]):
            raise KeyError("inside")
    assert p.requires_grad
    with ad.frozen([p]):
        with ad.frozen([p]):
            assert not p.requires_grad
        assert not p.requires_grad
    assert p.requires_grad


def test_lstm_zero_weights_gives_zero_hidden():
    rng = np.random.default_rng(0)
    net = nn.StackedLSTM(3, 4, 2, rng, "l")
    for p in net.params():
        p.data[...] = 0.0
    h = net.run([Tensor(np.ones(3))] * 3)
    assert np.array_equal(h.data, np.zeros(4))


def test_lstm_saturated_forget_gate():
    """Forget-gate bias 20 ~ +inf: the second step's c ~ c + i*g to 1e-6."""
    rng = np.random.default_rng(1)
    cell = nn.LSTMCell(3, 4, rng, "c")
    H = 4
    cell.b.data[H:2 * H] = 20.0
    xs = rng.normal(size=(1, 2, 3))
    h2 = ad.lstm(xs, [(cell.W, cell.U, cell.b)]).data[0]
    h, c = np.zeros(H), np.zeros(H)
    for t, f in enumerate((1.0 / (1.0 + np.exp(-20.0)), 1.0)):  # exact, then saturated
        z = xs[0, t] @ cell.W.data + h @ cell.U.data + cell.b.data
        i, o = (1.0 / (1.0 + np.exp(-z[sl])) for sl in (slice(0, H), slice(3 * H, 4 * H)))
        c = f * c + i * np.tanh(z[2 * H:3 * H])
        h = o * np.tanh(c)
    assert np.max(np.abs(h2 - h)) < 1e-6


def test_lstm_run_refuses_an_input_that_needs_a_gradient():
    rng = np.random.default_rng(0)
    net = nn.StackedLSTM(3, 2, 2, rng, "l")
    p = ad.parameter(rng.normal(size=3), "x")
    for bad in (p, ad.mul(p, 2.0)):   # a parameter, and a recorded tensor
        with pytest.raises(ValueError, match="constant inputs"):
            net.run([Tensor(np.ones(3)), bad])


# -- fused layers ---------------------------------------------------------------

SHAPES = [(), (6,)]  # batch dims: 1-D inputs and a batch of 6 rows


@pytest.mark.parametrize("batch", SHAPES)
@pytest.mark.parametrize("seed", range(5))
def test_grad_affine(seed, batch):
    rng = np.random.default_rng(seed)
    x = ad.parameter(rng.normal(size=batch + (4,)), "x")
    w = ad.parameter(rng.normal(size=(4, 3)), "w")
    b = ad.parameter(rng.normal(size=3), "b")

    def loss():
        return ad.sum_squares(ad.affine(x, w, b))

    assert grad_check(loss, [x, w, b], rng=rng) < TOL


@pytest.mark.parametrize("batch", SHAPES)
@pytest.mark.parametrize("seed", range(5))
def test_grad_lstm_step(seed, batch):
    """Every layer's W, U and b through a 4-step, 2-layer pass, on one
    sequence and on a batch, under a loss that weighs each unit of the final
    hidden state differently."""
    rng = np.random.default_rng(seed)
    net = nn.StackedLSTM(3, 4, 2, rng, "l")
    for cell in net.cells:
        cell.b.data[...] = rng.normal(size=16)
    xs = [Tensor(rng.normal(size=batch + (3,))) for _ in range(4)]
    wh = Tensor(rng.normal(size=batch + (4,)))

    def loss():
        return ad.vsum(ad.mul(net.run(xs), wh))

    assert grad_check(loss, net.params(), rng=rng) < TOL


def _sig(z):
    return 1.0 / (1.0 + np.exp(-z))


def _unfused_lstm_step(x, h, c, W, U, b, gh, gc):
    """One LSTM step and its backward in numpy, op for op as the tape of
    matmul, add, index, sigmoid, tanh and mul nodes computed them. Returns
    the forward, the activated gates, the gradients of the activated gates
    given the upstream gradients gh of h_new and gc of c_new from outside
    the step, and the gradient of c_prev."""
    H = h.shape[-1]
    z = x @ W + h @ U + b
    q = [z[..., k * H:(k + 1) * H] for k in range(4)]
    act = {"i": _sig(q[0]), "f": _sig(q[1]), "g": np.tanh(q[2]), "o": _sig(q[3])}
    c_new = act["f"] * c + act["i"] * act["g"]
    t = np.tanh(c_new)
    h_new = act["o"] * t
    gc_total = gc + gh * act["o"] * (1.0 - t * t)
    d = {"i": gc_total * act["g"], "f": gc_total * c, "g": gc_total * act["i"],
         "o": gh * t}
    return h_new, c_new, act, d, gc_total * act["f"]


def _unfused_gates_backward(act, d, x, h, W, U):
    """The gradients of x, h, W, U and b from those of the activated gates:
    the pre-activation gradient of each gate lands in its own zeroed index
    array, and the four are summed."""
    pre = [d["i"] * act["i"] * (1.0 - act["i"]), d["f"] * act["f"] * (1.0 - act["f"]),
           d["g"] * (1.0 - act["g"] * act["g"]), d["o"] * act["o"] * (1.0 - act["o"])]
    H = h.shape[-1]
    parts = []
    for k in range(4):
        part = np.zeros(h.shape[:-1] + (4 * H,))
        part[..., k * H:(k + 1) * H] += pre[k]
        parts.append(part)
    dz = parts[0] + parts[1] + parts[2] + parts[3]

    def outer(a):
        return np.outer(a, dz) if a.ndim == 1 else a.T @ dz

    return {"x": dz @ W.T, "h": dz @ U.T, "W": outer(x), "U": outer(h),
            "b": dz if dz.ndim == 1 else dz.sum(axis=0)}


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def _unfused_lstm_pass(xs, layers, g_out):
    """A stacked LSTM over xs, (batch, T, n_in), from zero states, and its
    backward for the gradient g_out of the last top-layer h, one
    `_unfused_lstm_step` and `_unfused_gates_backward` per step and layer in
    the tape's order: from the last step back, the top layer first, and
    each parameter's gradient summed from the last step's term down. A
    gradient that no consumer sent is -0.0, the identity of +. Returns the
    last top-layer h and every layer's W, U and b gradient."""
    batch, T = xs.shape[:2]
    n = len(layers)
    H = layers[0][1].shape[0]
    zero, none = np.zeros((batch, H)), np.full((batch, H), -0.0)
    ins = []   # per step and layer: x, h and c before the step
    hs, cs = [zero] * n, [zero] * n
    with np.errstate(over="ignore"):
        for t in range(T):
            x = xs[:, t]
            for k, (W, U, b) in enumerate(layers):
                ins.append((x, hs[k], cs[k]))
                hs[k], cs[k], *_ = _unfused_lstm_step(x, hs[k], cs[k], W, U, b, none, none)
                x = hs[k]
        grads = [None] * (3 * n)
        dh, dc = [none] * n, [none] * n   # from step t + 1
        for t in reversed(range(T)):
            up = g_out if t == T - 1 else none   # from the layer above
            for k in reversed(range(n)):
                W, U, b = layers[k]
                x, h, c = ins[t * n + k]
                _, _, act, d, dc[k] = _unfused_lstm_step(x, h, c, W, U, b, dh[k] + up, dc[k])
                g = _unfused_gates_backward(act, d, x, h, W, U)
                for j, name in enumerate("WUb"):
                    if t == T - 1:
                        grads[3 * k + j] = g[name]
                    else:
                        grads[3 * k + j] += g[name]
                up, dh[k] = g["x"], g["h"]
    return hs[-1], grads


@pytest.mark.parametrize("batch", [(1,), (3,)])
@pytest.mark.parametrize("seed", range(10))
def test_fused_lstm_step_is_bit_identical_to_unfused(seed, batch):
    """`ad.lstm` over 6 steps of 2 layers equals the unfused reference bit
    for bit, signed zeros included: the last top-layer h, every W, U and b
    gradient its backward hands back, and the ones the tape accumulates.
    The upstream gradient holds -0.0 entries, one input column is -0.0, and
    pre-activations of an input and an output gate unit lie below -709,
    where the sigmoid is exactly 0.0."""
    rng = np.random.default_rng(seed)
    H = 5
    net = nn.StackedLSTM(3, H, 2, rng, "l")
    for cell in net.cells:
        cell.b.data[...] = rng.normal(size=4 * H)
        cell.b.data[[0, 3 * H + 1]] = -800.0
    xs = rng.normal(size=batch + (6, 3))
    xs[..., 2] = -0.0
    g_out = rng.normal(size=batch + (H,))
    g_out[..., 0:2] = -0.0
    weights = [(cell.W, cell.U, cell.b) for cell in net.cells]

    layers = [[p.data for p in w] for w in weights]
    h_ref, g_ref = _unfused_lstm_pass(xs, layers, g_out)
    h = ad.lstm(xs, weights)
    assert _same_bits(h.data, h_ref)
    for p, got, want in zip(net.params(), h._backward(g_out), g_ref):
        assert _same_bits(got, want), p.name
    ad.vsum(ad.mul(h, Tensor(g_out))).backward()
    for p, want in zip(net.params(), g_ref):
        assert _same_bits(p.grad, np.zeros_like(p.data) + want), p.name


def test_constant_inputs_get_no_gradient_work():
    """A parent that is neither a parameter nor recorded (the window
    inputs, a frozen layer's weights and bias) gets None from the fused
    nodes' backward, so the tape stores no gradient for it; an LSTM pass
    keeps its inputs off the tape."""
    rng = np.random.default_rng(0)
    layer = nn.Affine(3, 2, rng, "a")
    x = Tensor(rng.normal(size=(4, 3)))
    out = layer(x)
    assert out._backward(np.ones((4, 2)))[0] is None
    assert nn.Affine(2, 2, rng, "b")(out)._backward(np.ones((4, 2)))[0] is not None
    frozen = nn.Affine(2, 2, rng, "f")
    with ad.frozen(frozen.params()):
        back = frozen(out)._backward(np.ones((4, 2)))
    assert back[0] is not None and back[1:] == (None, None)

    net = nn.StackedLSTM(3, 2, 2, rng, "l")
    h = net.run([x, x])
    assert h._parents == tuple(net.params())
    assert all(g is not None for g in h._backward(np.ones((4, 2))))
    with ad.frozen(net.params()):
        assert net.run([x, x])._backward is None


def test_forward_identical_with_and_without_tape():
    rng = np.random.default_rng(3)
    net = nn.Affine(4, 4, rng, "a")
    x = Tensor(rng.normal(size=4))
    with_tape = ad.sum_squares(net(ad.relu(x))).item()
    with ad.frozen(net.params()):
        without = ad.sum_squares(net(ad.relu(x))).item()
    assert with_tape == without


def test_detach_blocks_gradient():
    p = ad.parameter([2.0, -1.0], "p")
    loss = ad.sum_squares(p.detach())
    loss.backward()
    assert p.grad is None


def test_backward_frees_the_graph_while_the_loss_is_held():
    """Once backward returns, an intermediate that only the graph held is
    gone, though the loss built from it is still referenced."""
    p = ad.parameter([2.0, -1.0], "p")
    h = ad.sigmoid(ad.mul(p, 3.0))
    alive = weakref.ref(h.data)   # Tensor has __slots__; its array takes a weakref
    loss = ad.sum_squares(h)
    del h
    loss.backward()
    assert alive() is None
    assert loss.data.size == 1 and loss._parents == ()


def test_second_backward_raises_and_leaves_grads():
    p = ad.parameter([2.0, -1.0], "p")
    loss = ad.sum_squares(ad.mul(p, 3.0))
    loss.backward()
    first = p.grad.copy()
    with pytest.raises(RuntimeError, match="consumed"):
        loss.backward()
    assert np.array_equal(p.grad, first)


def test_consumed_intermediate_in_a_new_graph_raises():
    p = ad.parameter([2.0, -1.0], "p")
    h = ad.mul(p, 3.0)
    ad.sum_squares(h).backward()
    loss = ad.sum_squares(ad.add(h, 1.0))
    with pytest.raises(RuntimeError, match="consumed"):
        loss.backward()


def test_backward_requires_a_scalar():
    p = ad.parameter([2.0, -1.0], "p")
    with pytest.raises(ValueError, match="scalar"):
        ad.square(p).backward()
    assert p.grad is None


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_backward_refuses_a_non_finite_loss(bad):
    """A NaN or infinite loss raises naming its value, before any gradient
    is touched and without consuming the graph."""
    p = ad.parameter([2.0, -1.0], "p")
    loss = ad.mul(ad.sum_squares(p), bad)
    with pytest.raises(FloatingPointError,
                       match=f"^backward\\(\\) of a non-finite loss {bad}$"):
        loss.backward()
    assert p.grad is None and loss._parents


def test_selective_update_masked_group_gets_zero_grad():
    """A loss that flows only through one parameter group allocates no
    gradient on the other."""
    a = ad.parameter([1.0, 2.0], "a")
    b = ad.parameter([3.0, 4.0], "b")
    ad.sum_squares(ad.add(a, b.detach())).backward()
    assert b.grad is None
    assert np.array_equal(a.grad, 2.0 * (a.data + b.data))


# -- Adam -----------------------------------------------------------------------


def test_adam_zero_gradient_no_change():
    p = ad.parameter([1.0, -2.0], "p")
    before = p.data.copy()
    opt = Adam([p], lr=1e-3)
    assert opt.step() is True
    assert np.array_equal(p.data, before)


def test_adam_first_step_closed_form():
    """From zero moments with constant gradient g, the bias-corrected
    first step is -lr * g / (|g| + ADAM_EPS)."""
    g = np.array([0.3, -2.0, 5.0])
    p = ad.parameter(np.zeros(3), "p")
    lr = 1e-3
    opt = Adam([p], lr=lr)
    p.grad[...] = g
    opt.step()
    # m/c1 = g, sqrt(v/c2) = |g|
    expected = -lr * g / (np.abs(g) + ad.ADAM_EPS)
    assert np.max(np.abs(p.data - expected)) < 1e-15


def test_adam_reduces_convex_quadratic():
    p = ad.parameter([3.0, -4.0], "p")
    opt = Adam([p], lr=1e-2)

    def loss():
        return ad.sum_squares(p)

    l0 = loss().item()
    for _ in range(2):
        opt.zero_grad()
        loss().backward()
        assert opt.step()
    assert loss().item() < l0


def test_adam_nonfinite_gradient_aborts():
    """A NaN in any one parameter's gradient leaves every parameter and
    both moments untouched."""
    params = [ad.parameter(np.ones(3), "a"), ad.parameter(np.ones((2, 2)), "b")]
    opt = Adam(params)
    params[0].grad[...] = 1.0
    assert opt.step() is True
    before = [p.data.copy() for p in params]
    m, v = opt.m.copy(), opt.v.copy()
    params[1].grad[1, 0] = np.nan
    assert opt.step() is False
    assert all(np.array_equal(p.data, b) for p, b in zip(params, before))
    assert np.array_equal(opt.m, m) and np.array_equal(opt.v, v) and opt.t == 1


def test_adam_counts_skipped_steps_and_gives_up():
    """Every skipped step is counted; a finite step resets the run, and the
    MAX_SKIPPED_IN_ROW-th skip in a row raises naming Adam's step."""
    p = ad.parameter(np.ones(3), "p")
    opt = Adam([p])
    for poisoned in [False, True, True, False] + [True] * (ad.MAX_SKIPPED_IN_ROW - 1):
        opt.zero_grad()
        p.grad[1] = np.nan if poisoned else 1.0
        assert opt.step() is not poisoned
    assert (opt.skipped, opt.t) == (ad.MAX_SKIPPED_IN_ROW + 1, 2)
    opt.grad[0] = np.inf
    with pytest.raises(FloatingPointError, match=(
            f"^{ad.MAX_SKIPPED_IN_ROW} Adam steps in a row skipped on "
            "non-finite gradients after step 2$")):
        opt.step()
    assert (opt.skipped, opt.t) == (ad.MAX_SKIPPED_IN_ROW + 2, 2)


def test_flat_adam_matches_per_parameter_reference():
    """Five steps over three parameters of different shapes equal the
    per-parameter update, bit for bit."""
    rng = np.random.default_rng(4)
    shapes = [(3, 4), (4,), ()]
    params = [ad.parameter(rng.normal(size=s), f"p{k}") for k, s in enumerate(shapes)]
    ref = [p.data.copy() for p in params]
    m = [np.zeros(s) for s in shapes]
    v = [np.zeros(s) for s in shapes]
    lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
    opt = Adam(params, lr=lr)
    for t in range(1, 6):
        grads = [rng.normal(size=s) for s in shapes]
        for p, g in zip(params, grads):
            p.grad[...] = g
        assert opt.step() is True
        c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
        for k, g in enumerate(grads):
            m[k] *= b1
            m[k] += (1.0 - b1) * g
            v[k] *= b2
            v[k] += (1.0 - b2) * g * g
            ref[k] -= lr * (m[k] / c1) / (np.sqrt(v[k] / c2) + eps)
        for p, r in zip(params, ref):
            assert p.data.tobytes() == r.tobytes()


def test_adam_holds_the_gradients_only_while_open():
    """While an Adam is open each parameter's grad is a view of its one flat
    buffer: backward accumulates into it, and zero_grad and step keep it.
    On exit, also on an exception, every grad is None again."""
    params = [ad.parameter(np.ones((2, 3)), "a"), ad.parameter(np.ones(4), "b"),
              ad.parameter(0.5, "c")]
    assert all(p.grad is None for p in params)
    with Adam(params) as opt:
        views = [p.grad for p in params]
        assert opt.grad.shape == (11,)
        for p in params:
            assert np.shares_memory(p.grad, opt.grad) and p.grad.shape == p.data.shape
        ad.sum_squares(ad.mul(params[0], 2.0)).backward()
        assert np.array_equal(opt.grad, [8.0] * 6 + [0.0] * 5)
        assert opt.step()
        opt.zero_grad()
        assert all(p.grad is g for p, g in zip(params, views)) and not opt.grad.any()
    assert all(p.grad is None for p in params)
    with pytest.raises(FloatingPointError):
        with Adam(params):
            raise FloatingPointError
    assert all(p.grad is None for p in params)


def test_grad_check_catches_corrupted_gradient():
    """Negative control: a block whose backward is deliberately wrong
    must fail the finite-difference check."""
    p = ad.parameter([1.0, 2.0], "p")

    def bad_square(t):
        # wrong backward: reports 3*x instead of 2*x
        return ad._make(t.data * t.data, (t,), lambda g: (g * 3.0 * t.data,))

    def loss():
        return ad.vsum(bad_square(p))

    assert grad_check(loss, [p]) > 1e-2


# -- checkpoints ------------------------------------------------------------------


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    tensors = {
        "scalar": np.array(3.5),
        "vec": rng.normal(size=7),
        "mat": rng.normal(size=(3, 4)),
    }
    path = tmp_path / "x.ck"
    save_tensors(path, tensors)
    back = load_tensors(path)
    assert set(back) == set(tensors)
    for k in tensors:
        assert np.array_equal(back[k], tensors[k])


@pytest.mark.parametrize("change", ["cut", "append"])
def test_checkpoint_corruption_names_the_file(tmp_path, change):
    path = tmp_path / "x.ck"
    save_tensors(path, {"vec": np.arange(4.0), "mat": np.ones((2, 3))})
    data = path.read_bytes()
    path.write_bytes(data[:-1] if change == "cut" else data + b"\x00")
    match = "truncated" if change == "cut" else "1 trailing bytes"
    with pytest.raises(ValueError, match=f"x.ck: .*{match}"):
        load_tensors(path)


def test_checkpoint_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.ck"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="not a checkpoint"):
        load_tensors(path)


def test_named_params_rejects_duplicates():
    a = ad.parameter([1.0], "same")
    b = ad.parameter([2.0], "same")
    with pytest.raises(ValueError, match="duplicate"):
        nn.named_params([a, b])


def test_load_into_shape_mismatch():
    p = ad.parameter(np.zeros(3), "p")
    with pytest.raises(ValueError, match="shape mismatch"):
        nn.load_into([p], {"p": np.zeros(4)})
    with pytest.raises(KeyError):
        nn.load_into([p], {})
