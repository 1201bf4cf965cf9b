"""Surrogate regressor: memorization, gradient flow into the behavior
input, dataset construction accounting, and training-machinery checks on
synthetic data (the full simulator-driven fit is covered by the
acceptance suite)."""

import re

import numpy as np
import pytest

from calisim import autodiff as ad
from calisim import surrogate as sur
from calisim.autodiff import Tensor
from calisim.features import FeatureNormalizer
from calisim.metamarket import MetaMarket
from calisim.simulator import FundamentalSeries, SimConfig
from calisim.surrogate import (
    SurrogateDataset,
    SurrogateNet,
    build_dataset,
    constant_mean_loss,
    normalize_fundamental,
    train_surrogate,
)

FUND_DIM = 6


def unit_norm() -> FeatureNormalizer:
    return FeatureNormalizer(np.zeros(13), np.ones(13))


def synth_dataset(n=80, seed=0, shuffle_labels=False) -> SurrogateDataset:
    """Synthetic learnable dataset: features are a fixed linear map of the
    behavior coordinates plus small noise."""
    rng = np.random.default_rng(seed)
    b = rng.random((n, 5))
    f = rng.normal(0.0, 0.05, (n, FUND_DIM))
    f[:, 0] = 0.0
    M = rng.normal(size=(5, 13))
    q = b @ M + rng.normal(0.0, 0.05, (n, 13))
    if shuffle_labels:
        q = q[rng.permutation(n)]
    val = np.zeros(n, dtype=bool)
    val[rng.permutation(n)[: n // 5]] = True
    norm = FeatureNormalizer.fit(q[~val])
    return SurrogateDataset(b, f, norm.transform(q), norm, val)


def test_normalize_fundamental():
    fund = FundamentalSeries(np.array([100.0, 110.0, 90.0]))
    out = normalize_fundamental(fund)
    assert out[0] == 0.0
    assert out[1] == pytest.approx(np.log(1.1))
    assert out[2] == pytest.approx(np.log(0.9))


def test_memorize_single_row():
    """One row, trained long enough, is fitted to < 1e-4 error."""
    rng = np.random.default_rng(3)
    net = SurrogateNet(FUND_DIM, rng, unit_norm())
    b = rng.random(5)
    f = rng.normal(size=FUND_DIM)
    q = rng.normal(size=13)
    opt = ad.Adam(net.params(), lr=1e-2)
    for _ in range(400):
        opt.zero_grad()
        loss = ad.sum_squares(ad.sub(net.forward(Tensor(b), Tensor(f)), Tensor(q)))
        loss.backward()
        opt.step()
    assert loss.item() < 1e-4


def test_forward_gradient_wrt_behavior_matches_fd():
    """The calibrator trains through d(features)/d(b): check it against
    central differences."""
    rng = np.random.default_rng(4)
    net = SurrogateNet(FUND_DIM, rng, unit_norm())
    b = ad.parameter(rng.random(5) * 0.8 + 0.1, "b")
    f = rng.normal(size=FUND_DIM)

    def loss():
        return ad.sum_squares(net.forward(b, Tensor(f)))

    assert ad.grad_check(loss, [b], rng=rng) < 1e-5


def test_predict_deterministic_and_clamps():
    rng = np.random.default_rng(5)
    net = SurrogateNet(FUND_DIM, rng, unit_norm())
    f = rng.normal(size=FUND_DIM)
    inside = net.predict(np.full(5, 1.0), f)
    outside = net.predict(np.full(5, 7.0), f)
    assert np.array_equal(inside, outside)  # out-of-range b is clamped
    assert np.array_equal(net.predict(np.full(5, 0.5), f),
                          net.predict(np.full(5, 0.5), f))


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(6)
    net = SurrogateNet(FUND_DIM, rng, FeatureNormalizer(np.arange(13.0), np.ones(13)))
    path = tmp_path / "sur.ck"
    net.save(path)
    back = SurrogateNet.load(path)
    assert back.fund_dim == FUND_DIM
    assert np.array_equal(back.norm.mean, net.norm.mean)
    b, f = rng.random(5), rng.normal(size=FUND_DIM)
    assert np.array_equal(back.predict(b, f), net.predict(b, f))


@pytest.mark.parametrize("fault, message", [
    ("dropped", "checkpoint missing tensor sur.t1.W"),
    ("reshaped", "shape mismatch for sur.t1.W: (3, 3) vs (50, 100)"),
    ("calibrator's", "checkpoint missing tensor sur.fund_dim"),
], ids=["dropped", "reshaped", "calibrator"])
def test_load_of_a_wrong_checkpoint_names_the_file(tmp_path, fault, message):
    """A checkpoint that parses but does not fit the net (a tensor dropped
    or reshaped, or the calibrator's checkpoint) raises ValueError naming
    its path."""
    rng = np.random.default_rng(6)
    path = tmp_path / "sur.ck"
    if fault == "calibrator's":
        state_norm = FeatureNormalizer(np.zeros(5), np.ones(5))
        MetaMarket(FUND_DIM, rng, unit_norm(), state_norm).save(path)
    else:
        SurrogateNet(FUND_DIM, rng, unit_norm()).save(path)
        tensors = ad.load_tensors(path)
        if fault == "dropped":
            del tensors["sur.t1.W"]
        else:
            tensors["sur.t1.W"] = np.zeros((3, 3))
        ad.save_tensors(path, tensors)
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        SurrogateNet.load(path)


# -- dataset construction -----------------------------------------------------------


def small_cfg() -> SimConfig:
    return SimConfig(slots_per_day=600, n_agents=20)


def test_build_dataset_counts_and_split():
    cfg = small_cfg()
    funds = [FundamentalSeries(np.full(cfg.fundamental_len, 100.0))] * 3
    ds = build_dataset(cfg, funds, per_day=4, seed=0)
    assert ds.b_norm.shape == (12, 5)
    assert ds.fund_norm.shape == (12, cfg.fundamental_len)
    assert ds.feats_z.shape == (12, 13)
    assert ds.val_mask.sum() == round(0.2 * 12)
    (tb, _, tq), (vb, _, vq) = ds.split()
    assert len(tb) + len(vb) == 12
    # normalizer fitted on the training split only
    assert np.allclose(tq.mean(axis=0), 0.0, atol=1e-9)


def test_build_dataset_deterministic():
    cfg = small_cfg()
    funds = [FundamentalSeries(np.full(cfg.fundamental_len, 100.0))] * 2
    a = build_dataset(cfg, funds, per_day=3, seed=11)
    b = build_dataset(cfg, funds, per_day=3, seed=11)
    assert np.array_equal(a.b_norm, b.b_norm)
    assert np.array_equal(a.feats_z, b.feats_z)
    assert np.array_equal(a.val_mask, b.val_mask)


def test_write_dataset_layout(tmp_path):
    cfg = small_cfg()
    funds = [FundamentalSeries(np.full(cfg.fundamental_len, 100.0))]
    ds = build_dataset(cfg, funds, per_day=3, seed=0)
    path = tmp_path / "ds.csv"
    sur.write_dataset(ds, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 4
    header = lines[0].split(",")
    assert header[:2] == ["row", "split"]
    assert header[2:7] == ["b1", "b2", "b3", "b4", "b5"]
    assert header[-1] == "q13"


# -- training machinery --------------------------------------------------------------


def test_training_learns_linear_map():
    ds = synth_dataset()
    net, curves = train_surrogate(ds, epochs=60, lr=3e-3, seed=0)
    assert min(curves.val_loss) < 0.5 * curves.val_loss[0]
    assert min(curves.val_loss) < constant_mean_loss(ds.feats_z[ds.val_mask])
    # the returned net carries the best-validation weights
    (vb, vf, vq) = (ds.b_norm[ds.val_mask], ds.fund_norm[ds.val_mask],
                    ds.feats_z[ds.val_mask])
    final = np.mean([np.sum((net.predict(vb[i], vf[i]) - vq[i]) ** 2)
                     for i in range(len(vq))])
    assert final == pytest.approx(min(curves.val_loss), rel=1e-9)
    assert curves.best_epoch == int(np.argmin(curves.val_loss))


def test_shuffled_labels_cannot_beat_constant_mean():
    """Negative control: with labels decoupled from inputs the net cannot
    beat the constant-mean predictor by the margin real training must."""
    ds = synth_dataset(shuffle_labels=True)
    _, curves = train_surrogate(ds, epochs=60, lr=3e-3, seed=0)
    floor = constant_mean_loss(ds.feats_z[ds.val_mask])
    assert min(curves.val_loss) > 0.7 * floor


def test_training_deterministic():
    ds = synth_dataset()
    _, c1 = train_surrogate(ds, epochs=5, seed=4)
    _, c2 = train_surrogate(ds, epochs=5, seed=4)
    assert c1.val_loss == c2.val_loss and c1.train_loss == c2.train_loss


def keep_nets(monkeypatch) -> list[SurrogateNet]:
    """The nets that `train_surrogate` builds from here on, also when it raises."""
    made = []

    class Kept(SurrogateNet):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(sur, "SurrogateNet", Kept)
    return made


def test_training_counts_skipped_steps_and_gives_up(poison_adam):
    """Adam steps skipped on non-finite gradients are counted, and
    MAX_SKIPPED_IN_ROW of them in a row end the run naming Adam's step."""
    ds = synth_dataset()     # 64 train rows: two batches of 32 per epoch
    poison_adam(lambda i: i % 2 == 0)
    _, curves = train_surrogate(ds, epochs=4, seed=0)
    assert curves.skipped_steps == 4
    poison_adam(lambda i: i >= 3)
    with pytest.raises(FloatingPointError, match=(
            f"^{ad.MAX_SKIPPED_IN_ROW} Adam steps in a row skipped on "
            "non-finite gradients after step 3$")):
        train_surrogate(ds, epochs=ad.MAX_SKIPPED_IN_ROW, seed=0)


def test_trained_raised_and_loaded_nets_hold_no_gradients(tmp_path, monkeypatch,
                                                         poison_adam):
    """`train_surrogate` returns, or gives up on skipped steps, with every
    parameter's grad None, and a loaded checkpoint holds none either."""
    ds = synth_dataset()
    net, _ = train_surrogate(ds, epochs=2, seed=0)
    assert all(p.grad is None for p in net.params())
    net.save(tmp_path / "sur.ck")
    assert all(p.grad is None for p in SurrogateNet.load(tmp_path / "sur.ck").params())
    made = keep_nets(monkeypatch)
    poison_adam(lambda i: True)
    with pytest.raises(FloatingPointError):
        train_surrogate(ds, epochs=ad.MAX_SKIPPED_IN_ROW, seed=0)
    (net,) = made
    assert all(p.grad is None for p in net.params())


def test_non_finite_loss_stops_training_with_no_gradients_left(monkeypatch):
    """One NaN target row makes its batch's loss NaN: training raises
    naming the value, and every parameter's grad is None."""
    ds = synth_dataset()
    ds.feats_z[np.flatnonzero(~ds.val_mask)[0]] = np.nan
    made = keep_nets(monkeypatch)
    with pytest.raises(FloatingPointError, match=r"^backward\(\) of a non-finite loss nan$"):
        train_surrogate(ds, epochs=1, seed=0)
    (net,) = made
    assert all(p.grad is None for p in net.params())


def test_empty_split_rejected():
    ds = synth_dataset()
    ds.val_mask[:] = False
    with pytest.raises(ValueError):
        train_surrogate(ds, epochs=1)
