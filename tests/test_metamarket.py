"""One-shot calibrator: hypernetwork wiring, the three losses (including
selective gradient flow), training machinery, and persistence."""

import re
import tracemalloc

import numpy as np
import pytest

from calisim import autodiff as ad
from calisim import metamarket as mm
from calisim import nn
from calisim.autodiff import Tensor
from calisim.features import FeatureNormalizer
from calisim.metamarket import (
    WINDOW_DAYS,
    MetaMarket,
    loss_repr,
    loss_stat,
    loss_temp,
    make_triplets,
    train,
)
from calisim.surrogate import SurrogateNet

FUND_DIM = 6


def make_k(seed=0) -> MetaMarket:
    return MetaMarket(FUND_DIM, np.random.default_rng(seed),
                      FeatureNormalizer(np.zeros(13), np.ones(13)),
                      FeatureNormalizer(np.zeros(5), np.ones(5)))


def make_surrogate(seed=1) -> SurrogateNet:
    return SurrogateNet(FUND_DIM, np.random.default_rng(seed),
                        FeatureNormalizer(np.zeros(13), np.ones(13)))


def window(rng, n=WINDOW_DAYS):
    return rng.normal(size=(n, 13))


# -- wiring -----------------------------------------------------------------------


def test_implicit_rejects_short_window():
    k = make_k()
    with pytest.raises(ValueError, match="20 days"):
        k.implicit(np.zeros((1, WINDOW_DAYS - 1, 13)))


def test_batched_forward_matches_per_sample():
    """The all-windows batch must agree with batches of one window."""
    k = make_k()
    rng = np.random.default_rng(2)
    wins = rng.normal(size=(4, WINDOW_DAYS, 13))
    states = rng.normal(size=(4, 5))
    with ad.frozen(k.params()):
        batch = k.forward(wins, states).data
        singles = np.concatenate([k.forward(wins[i][None], states[i][None]).data
                                  for i in range(4)])
    assert np.allclose(batch, singles, atol=1e-12)


def test_estimator_output_in_unit_cube():
    k = make_k()
    rng = np.random.default_rng(3)
    b = k.infer(window(rng), rng.normal(size=5))
    z = b.normalized()
    assert np.all((z >= 0) & (z <= 1))


def test_analyzer_theta2_shape():
    k = make_k()
    theta2 = k.analyze(Tensor(np.zeros(5)))
    assert theta2.shape == (mm.ESTIMATOR_PARAMS,)


def test_hypothesize_delta_consistency():
    k = make_k()
    rng = np.random.default_rng(5)
    win = window(rng)
    x = rng.normal(size=5)
    b0, b1, delta = k.hypothesize(win, x, x + np.array([1.0, 0, 0, 0, 0]))
    assert np.allclose(delta, b1.normalized() - b0.normalized())
    same0, same1, zero = k.hypothesize(win, x, x.copy())
    assert np.array_equal(zero, np.zeros(5))


# -- losses -----------------------------------------------------------------------


def test_loss_temp_examples():
    assert loss_temp(Tensor(np.tile([0.3, 0.4, 0.5, 0.6, 0.7], (4, 1)))).item() == 0.0
    seq = np.zeros((2, 5))
    seq[1, 0] = 1.0
    assert loss_temp(Tensor(seq)).item() == pytest.approx(1.0)
    seq3 = np.zeros((3, 5))
    seq3[1, 0] = 0.5
    seq3[2, 0] = 1.0
    assert loss_temp(Tensor(seq3)).item() == pytest.approx(0.5)
    with pytest.raises(ValueError):
        loss_temp(Tensor(np.zeros((1, 5))))


def test_make_triplets_orders_distances():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(200, 5))
        before = x.copy()
        t = make_triplets(x, rng)
        assert np.all(np.linalg.norm(x - t.dissimilar, axis=1)
                      > np.linalg.norm(x - t.similar, axis=1))
        assert np.array_equal(t.real, before) and np.array_equal(x, before)


class ScriptedNormal:
    """Stands in for a Generator: `normal` returns the scripted arrays in
    order and records the requested sizes."""

    def __init__(self, *draws):
        self.draws = list(draws)
        self.sizes = []

    def normal(self, loc, scale, size):
        self.sizes.append(size)
        out = np.asarray(self.draws.pop(0), dtype=float)
        assert out.shape == tuple(size)
        return out


def test_make_triplets_redraws_only_offending_rows():
    x = np.zeros((3, 2))
    rng = ScriptedNormal([[0.1, 0.0], [0.1, 0.0], [0.1, 0.0]],   # similar
                         [[1.0, 0.0], [0.0, 0.1], [0.05, 0.0]],  # dissimilar
                         [[0.0, 0.01], [2.0, 0.0]],              # rows 1, 2
                         [[0.0, 3.0]])                           # row 1 again
    t = make_triplets(x, rng)
    assert rng.sizes == [(3, 2), (3, 2), (2, 2), (1, 2)] and not rng.draws
    assert np.array_equal(t.dissimilar, [[1.0, 0.0], [0.0, 3.0], [2.0, 0.0]])


def test_loss_stat_trains_only_omega():
    """The implicit feature is detached inside the state-consistency loss:
    its backward reaches no extractor parameter."""
    k = make_k()
    rng = np.random.default_rng(7)
    win = window(rng)[None]
    trip = make_triplets(rng.normal(size=(1, 5)), rng)
    loss = loss_stat(k, k.implicit(win), trip)
    if loss.item() == 0.0:  # inactive hinge: tighten the margin until active
        loss = loss_stat(k, k.implicit(win), trip, margin=10.0)
    loss.backward()
    for p in k.theta1_params():
        assert p.grad is None, p.name
    assert any(np.any(p.grad != 0) for p in k.omega_params())


def test_loss_repr_frozen_surrogate_single_and_batch():
    k = make_k()
    net = make_surrogate()
    rng = np.random.default_rng(8)
    b1 = k.forward(window(rng)[None], rng.normal(size=5)[None])
    single = loss_repr(b1, rng.normal(size=FUND_DIM)[None], rng.normal(size=13)[None], net)
    assert single.data.ndim == 0 and np.isfinite(single.item())
    wins = rng.normal(size=(3, WINDOW_DAYS, 13))
    states = rng.normal(size=(3, 5))
    batch = loss_repr(k.forward(wins, states), rng.normal(size=(3, FUND_DIM)),
                      rng.normal(size=(3, 13)), net)
    assert batch.data.ndim == 0 and np.isfinite(batch.item())


def test_composite_loss_gradient_check():
    """Analytic gradients of L_repr + w_t*L_temp + w_s*L_stat w.r.t. every
    calibrator parameter match central finite differences."""
    k = make_k()
    # undo the rough-start gain: saturated gates leave true gradients below
    # what central differences can resolve, which is noise, not wiring
    for cell in k.extractor.cells:
        cell.W.data /= mm.INIT_GAIN_EXTRACTOR
        cell.U.data /= mm.INIT_GAIN_EXTRACTOR
    k.a3.W.data /= mm.INIT_GAIN_HEAD
    net = make_surrogate()
    for p in net.params():
        p.requires_grad = False
    rng = np.random.default_rng(9)
    wins = rng.normal(size=(3, WINDOW_DAYS, 13))
    states = rng.normal(size=(3, 5))
    funds = rng.normal(size=(3, FUND_DIM))
    targets = rng.normal(size=(3, 13))
    trip = mm.StateTriplet(states, states + rng.normal(0, 0.05, (3, 5)),
                           states + rng.normal(0, 2.0, (3, 5)))
    # the state-consistency loss detaches the implicit feature, so for the
    # finite-difference oracle u must be held fixed inside that term
    with ad.frozen(k.theta1_params()):
        u_fixed = Tensor(k.implicit(wins).data.copy())

    def stat_term():
        b = MetaMarket.estimate(u_fixed, k.analyze(Tensor(trip.real)))
        b_a = MetaMarket.estimate(u_fixed, k.analyze(Tensor(trip.similar)))
        b_b = MetaMarket.estimate(u_fixed, k.analyze(Tensor(trip.dissimilar)))
        hinge = ad.relu(ad.add(ad.sub(mm._rowwise_norm(ad.sub(b, b_a)),
                                      mm._rowwise_norm(ad.sub(b, b_b))), 10.0))
        return ad.mean(hinge)

    def loss():
        b = k.forward(wins, states)
        out = loss_repr(b, funds, targets, net)
        out = ad.add(out, ad.mul(loss_temp(b), 0.1))
        return ad.add(out, ad.mul(stat_term(), 1.0))

    assert ad.grad_check(loss, k.params(), rng=rng, max_entries=4) < 1e-5

    # and the detach contract itself: loss_stat alone leaves exactly zero
    # gradient on every extractor parameter (checked in
    # test_loss_stat_trains_only_omega) while matching stat_term in value
    assert loss_stat(k, k.implicit(wins), trip, margin=10.0).item() == pytest.approx(
        stat_term().item())


# -- training ---------------------------------------------------------------------


def make_corpus(n_days=WINDOW_DAYS + 4, seed=10):
    """(wins, states, funds): the sliding windows over `n_days` random days,
    and the states and fundamentals of the days the windows end on."""
    rng = np.random.default_rng(seed)
    days = [(rng.normal(size=13), rng.normal(0, 0.05, FUND_DIM), rng.normal(size=5))
            for _ in range(n_days)]
    feats, funds, states = (np.stack(col) for col in zip(*days))
    wins = np.stack([feats[t - WINDOW_DAYS + 1: t + 1] for t in range(WINDOW_DAYS - 1, n_days)])
    return wins, states[WINDOW_DAYS - 1:], funds[WINDOW_DAYS - 1:]


def test_train_rejects_short_corpus():
    """The temporal loss needs two consecutive days: one window is refused,
    two train."""
    with pytest.raises(ValueError, match="at least 2 windows, got 1"):
        train(make_k(), *make_corpus(WINDOW_DAYS), make_surrogate(),
              w_t=0.1, w_s=1.0, epochs=1)
    curves = train(make_k(), *make_corpus(WINDOW_DAYS + 1), make_surrogate(),
                   w_t=0.1, w_s=1.0, epochs=1)
    assert len(curves.recon) == 2


def test_train_logs_and_restores_surrogate_flags():
    k = make_k()
    net = make_surrogate()
    curves = train(k, *make_corpus(), net, w_t=0.1, w_s=1.0, epochs=3, seed=0)
    assert len(curves.recon) == 4 and len(curves.variation) == 4  # epoch 0 + 3
    assert all(np.isfinite(curves.recon)) and all(np.isfinite(curves.variation))
    assert all(p.requires_grad for p in net.params())


def test_train_freezes_the_surrogate_across_its_predicts(monkeypatch):
    """The log's `predict` inside training freezes the surrogate again and,
    on exit, leaves it frozen until training ends; no backward reaches the
    surrogate, so it never holds a gradient."""
    k, net = make_k(), make_surrogate()
    flags_after_predict = []
    predict = net.predict

    def spy(*args):
        out = predict(*args)
        flags_after_predict.append([p.requires_grad for p in net.params()])
        assert all(p.grad is None for p in net.params())
        return out

    monkeypatch.setattr(net, "predict", spy)
    train(k, *make_corpus(), net, w_t=0.1, w_s=1.0, epochs=3, seed=0)
    assert len(flags_after_predict) == 4   # epoch 0 to 2 in training, then the last log
    assert not any(any(flags) for flags in flags_after_predict[:3])
    assert all(p.requires_grad for p in net.params())
    assert all(p.grad is None for p in net.params())


def test_train_pure_reproduction_configuration():
    """w_t = w_s = 0 reduces to reproduction-only training and the
    reconstruction log still descends on a learnable corpus."""
    k = make_k()
    curves = train(k, *make_corpus(), make_surrogate(), w_t=0.0, w_s=0.0,
                   epochs=25, seed=0)
    assert curves.recon[-1] < curves.recon[0]


def test_train_deterministic():
    c1 = train(make_k(), *make_corpus(), make_surrogate(), w_t=0.1, w_s=1.0, epochs=3, seed=5)
    c2 = train(make_k(), *make_corpus(), make_surrogate(), w_t=0.1, w_s=1.0, epochs=3, seed=5)
    assert c1.recon == c2.recon and c1.variation == c2.variation


@pytest.mark.parametrize("epochs", [0, 3])
def test_train_runs_the_extractor_once_per_epoch(monkeypatch, epochs):
    """One extractor pass per epoch feeds the losses and that epoch's log
    entry; one more pass logs the trained parameters."""
    calls = []
    run = nn.StackedLSTM.run

    def counted(self, xs):
        calls.append(len(xs))
        return run(self, xs)

    monkeypatch.setattr(nn.StackedLSTM, "run", counted)
    curves = train(make_k(), *make_corpus(), make_surrogate(), w_t=0.1, w_s=1.0,
                   epochs=epochs, seed=0)
    assert len(calls) == epochs + 1
    assert len(curves.recon) == len(curves.variation) == epochs + 1


def test_train_log_is_the_forward_of_each_epochs_parameters():
    """Entry e of the log is a frozen forward of the parameters after e
    steps, bit for bit."""
    corpus, net = make_corpus(), make_surrogate()
    wins, states, funds = corpus
    targets = wins[:, -1]
    expected = []
    for epochs in range(3):
        k = make_k()
        train(k, *corpus, net, w_t=0.1, w_s=1.0, epochs=epochs, seed=0)
        with ad.frozen(k.params()):
            b = k.forward(wins, states).data
        expected.append(float(np.mean([np.sum((net.predict(b[i], funds[i]) - targets[i]) ** 2)
                                       for i in range(len(b))])))
    assert train(make_k(), *corpus, net, w_t=0.1, w_s=1.0, epochs=2, seed=0).recon == expected


def test_train_holds_one_epochs_graph():
    """backward consumes each epoch's graph, so the traced peak of training
    does not grow with the epochs: the next epoch never builds its graph
    while the last one is still alive."""
    def peak(epochs):
        k, net, corpus = make_k(), make_surrogate(), make_corpus(WINDOW_DAYS + 40)
        tracemalloc.start()
        try:
            train(k, *corpus, net, w_t=0.1, w_s=1.0, epochs=epochs, seed=0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(4) <= 1.1 * peak(1)


def test_stacked_predict_matches_per_row_bitwise():
    """The epoch log predicts all rows as one (n, 1, d) stack; each row of it
    must equal a lone-row `predict`, bit for bit, across surrogates and
    batch sizes, clipped rows included."""
    rng = np.random.default_rng(7)
    for trial in range(20):
        net = make_surrogate(seed=trial)
        n = int(rng.integers(1, 40))
        b = rng.uniform(-0.2, 1.2, size=(n, 5))
        funds = rng.normal(size=(n, FUND_DIM))
        stacked = net.predict(b[:, None, :], funds[:, None, :])[:, 0]
        rows = np.stack([net.predict(b[i], funds[i]) for i in range(n)])
        assert stacked.tobytes() == rows.tobytes()


def test_train_counts_skipped_steps_and_gives_up(poison_adam):
    """Adam steps skipped on non-finite gradients are counted, and
    MAX_SKIPPED_IN_ROW of them in a row end the run naming Adam's step."""
    poison_adam(lambda i: i % 2 == 0)
    curves = train(make_k(), *make_corpus(), make_surrogate(),
                   w_t=0.1, w_s=1.0, epochs=6, seed=0)
    assert curves.skipped_steps == 3
    poison_adam(lambda i: i >= 2)
    with pytest.raises(FloatingPointError, match=(
            f"^{ad.MAX_SKIPPED_IN_ROW} Adam steps in a row skipped on "
            "non-finite gradients after step 2$")):
        train(make_k(), *make_corpus(), make_surrogate(),
              w_t=0.1, w_s=1.0, epochs=ad.MAX_SKIPPED_IN_ROW + 5, seed=0)


def test_trained_raised_and_loaded_calibrators_hold_no_gradients(tmp_path, poison_adam):
    """`train` returns, or gives up on skipped steps, with every
    parameter's grad None, and a loaded checkpoint holds none either."""
    k = make_k()
    train(k, *make_corpus(), make_surrogate(), w_t=0.1, w_s=1.0, epochs=2, seed=0)
    assert all(p.grad is None for p in k.params())
    k.save(tmp_path / "mm.ck")
    assert all(p.grad is None for p in MetaMarket.load(tmp_path / "mm.ck").params())
    poison_adam(lambda i: True)
    k = make_k()
    with pytest.raises(FloatingPointError):
        train(k, *make_corpus(), make_surrogate(), w_t=0.1, w_s=1.0,
              epochs=ad.MAX_SKIPPED_IN_ROW, seed=0)
    assert all(p.grad is None for p in k.params())


def test_non_finite_loss_stops_training_with_no_gradients_left():
    """One NaN target row makes the loss NaN: training raises naming the
    value, and every parameter's grad is None."""
    wins, states, funds = make_corpus()
    wins[1, -1] = np.nan
    k, surrogate = make_k(), make_surrogate()
    with pytest.raises(FloatingPointError, match=r"^backward\(\) of a non-finite loss nan$"):
        train(k, wins, states, funds, surrogate, w_t=0.1, w_s=1.0, epochs=2, seed=0)
    assert all(p.grad is None for p in [*k.params(), *surrogate.params()])


def test_trained_calibrator_retains_only_its_parameters():
    """What a trained calibrator keeps allocated is its parameters' data:
    no gradient buffer outlives training."""
    net, corpus = make_surrogate(), make_corpus()
    tracemalloc.start()
    try:
        k = make_k()
        train(k, *corpus, net, w_t=0.1, w_s=1.0, epochs=2, seed=0)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained <= 1.1 * sum(p.data.nbytes for p in k.params())


def test_surrogate_frozen_during_training():
    k = make_k()
    net = make_surrogate()
    before = {p.name: p.data.copy() for p in net.params()}
    train(k, *make_corpus(), net, w_t=0.1, w_s=1.0, epochs=3, seed=0)
    for p in net.params():
        assert np.array_equal(p.data, before[p.name]), p.name


# -- persistence --------------------------------------------------------------------


def test_checkpoint_roundtrip(tmp_path):
    k = make_k(seed=11)
    path = tmp_path / "mm.ck"
    k.save(path)
    back = MetaMarket.load(path)
    rng = np.random.default_rng(12)
    win, x = window(rng), rng.normal(size=5)
    assert np.array_equal(back.infer(win, x).as_array(), k.infer(win, x).as_array())
    assert np.array_equal(back.feat_norm.mean, k.feat_norm.mean)
    assert np.array_equal(back.state_norm.std, k.state_norm.std)


@pytest.mark.parametrize("fault, message", [
    ("dropped", "checkpoint missing tensor mm.a2.W"),
    ("reshaped", "shape mismatch for mm.a2.W: (3, 3) vs (200, 100)"),
    ("surrogate's", "checkpoint missing tensor mm.fund_dim"),
], ids=["dropped", "reshaped", "surrogate"])
def test_load_of_a_wrong_checkpoint_names_the_file(tmp_path, fault, message):
    """A checkpoint that parses but does not fit the calibrator (a tensor
    dropped or reshaped, or the surrogate's checkpoint) raises ValueError
    naming its path."""
    path = tmp_path / "mm.ck"
    if fault == "surrogate's":
        make_surrogate().save(path)
    else:
        make_k().save(path)
        tensors = ad.load_tensors(path)
        if fault == "dropped":
            del tensors["mm.a2.W"]
        else:
            tensors["mm.a2.W"] = np.zeros((3, 3))
        ad.save_tensors(path, tensors)
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        MetaMarket.load(path)


def test_calibration_csv_roundtrip(tmp_path):
    from calisim.agents import BehaviorVector
    rows = [(40, BehaviorVector.from_normalized([0.2, 0.4, 0.6, 0.8, 0.1]), "calisim"),
            (41, BehaviorVector.from_normalized([0.5] * 5), "calisim")]
    path = tmp_path / "cal.csv"
    mm.write_calibration(path, rows)
    back = mm.read_calibration(path)
    assert set(back) == {"calisim"}
    for day, b, _ in rows:
        assert np.allclose(back["calisim"][day].as_array(), b.as_array())
