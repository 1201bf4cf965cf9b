"""Autodiff core: finite-difference gradient checks for every building
block, Adam closed-form behavior, and checkpoint serialization."""

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
    out = ad.add(ad.matmul(x, Tensor(np.eye(3))), Tensor(np.zeros(3)))
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
    rng = np.random.default_rng(seed)
    a = ad.parameter(rng.normal(size=5), "a")
    b = ad.parameter(rng.normal(size=3), "b")

    def loss():
        joined = ad.concat([ad.sigmoid(a), ad.tanh(b)])
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


def test_lstm_zero_weights_gives_zero_hidden():
    rng = np.random.default_rng(0)
    cell = nn.LSTMCell(3, 4, rng, "c")
    for p in cell.params():
        p.data[...] = 0.0
    h, c = cell.step(Tensor(np.ones(3)), Tensor(np.zeros(4)), Tensor(np.zeros(4)))
    assert np.array_equal(h.data, np.zeros(4))


def test_lstm_saturated_forget_gate():
    """Forget-gate bias 20 ~ +inf: c' ~ c + i*g to 1e-6."""
    rng = np.random.default_rng(1)
    cell = nn.LSTMCell(3, 4, rng, "c")
    H = 4
    cell.b.data[H:2 * H] = 20.0
    x = Tensor(rng.normal(size=3))
    h0, c0 = Tensor(rng.normal(size=4)), Tensor(rng.normal(size=4))
    _, c1 = cell.step(x, h0, c0)
    gates = (x.data @ cell.W.data) + (h0.data @ cell.U.data) + cell.b.data
    i = 1.0 / (1.0 + np.exp(-gates[0:H]))
    g = np.tanh(gates[2 * H:3 * H])
    assert np.max(np.abs(c1.data - (c0.data + i * g))) < 1e-6


def test_forward_identical_with_and_without_tape():
    rng = np.random.default_rng(3)
    net = nn.Affine(4, 4, rng, "a")
    x = Tensor(rng.normal(size=4))
    with_tape = ad.sum_squares(net(ad.relu(x))).item()
    with ad.no_grad():
        without = ad.sum_squares(net(ad.relu(x))).item()
    assert with_tape == without


def test_detach_blocks_gradient():
    p = ad.parameter([2.0, -1.0], "p")
    loss = ad.sum_squares(p.detach())
    loss.backward()
    assert np.array_equal(p.grad, np.zeros(2))


def test_selective_update_masked_group_gets_zero_grad():
    """A loss that flows only through one parameter group leaves exactly
    zero accumulated gradient on the other."""
    a = ad.parameter([1.0, 2.0], "a")
    b = ad.parameter([3.0, 4.0], "b")
    ad.sum_squares(ad.add(a, b.detach())).backward()
    assert np.array_equal(b.grad, np.zeros(2))
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
    first step is -lr * g / (|g| + eps * sqrt(1 - beta2))."""
    g = np.array([0.3, -2.0, 5.0])
    p = ad.parameter(np.zeros(3), "p")
    p.grad[...] = g
    lr, eps, beta2 = 1e-3, 1e-8, 0.999
    Adam([p], lr=lr, eps=eps).step()
    expected = -lr * (g / (1 - 0.9)) * (1 - 0.9) / (
        np.sqrt(g * g) + eps)
    # m/c1 = g, sqrt(v/c2) = |g|
    expected = -lr * g / (np.abs(g) + eps)
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
    p = ad.parameter([1.0], "p")
    before = p.data.copy()
    opt = Adam([p])
    p.grad[...] = np.nan
    assert opt.step() is False
    assert np.array_equal(p.data, before)


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
