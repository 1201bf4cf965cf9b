"""Acceptance suite: ten pass/fail criteria covering gradient fidelity,
order-book invariants, feature-extraction exactness, surrogate and
calibrator training, and the full benchmark comparison against the search
baselines.

The first pipeline-backed test triggers one end-to-end CI-profile run,
`harness.run_pipeline` (benchmark -> surrogate -> calibrator + ablation
arm -> all calibrations -> evaluation); later criteria reuse its artifacts
and read each stage's numbers from its `manifest.yaml`. Each criterion
emits one PASS/FAIL line, repeated in the run's terminal summary. The
whole file takes about 3 minutes on a 2-vCPU VM, nearly all of it the
pipeline.
"""

import csv
import time
from types import SimpleNamespace

import numpy as np
import pytest

import acceptance_log
import test_features as tf
from calisim import autodiff as ad
from calisim import harness
from calisim import metamarket as mm
from calisim import nn
from calisim import surrogate as sur
from calisim.autodiff import Tensor, grad_check
from calisim.features import FeatureNormalizer
from calisim.lob import Book, LimitOrder, NoLiquidityError, Side
from calisim.marketstate import STATE_NAMES
from calisim.metamarket import MetaMarket, loss_repr, loss_temp
from calisim.surrogate import SurrogateNet

GRAD_TOL = 1e-5
N_SEEDS = 10
FUND_DIM = 6


def report(num: int, name: str, ok: bool, detail: str):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line, flush=True)
    acceptance_log.lines.append(line)
    assert ok, line


# -- full-pipeline fixture -----------------------------------------------------------


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    out = tmp_path_factory.mktemp("ci_run")
    cfg = harness.load_config(None)
    t0 = time.time()
    summary = harness.run_pipeline(cfg, out)
    total = time.time() - t0
    return SimpleNamespace(out=out, cfg=cfg, bench=harness._load_benchmark(out),
                           man=harness.read_manifest(out), summary=summary, total=total)


# -- criterion 1: gradient fidelity of every trainable block --------------------------


def _composite_rel_err(seed: int) -> float:
    """Finite-difference check of the full calibrator composite loss
    (reproduction + temporal + state-consistency) on one seed."""
    unit_f = FeatureNormalizer(np.zeros(13), np.ones(13))
    unit_s = FeatureNormalizer(np.zeros(5), np.ones(5))
    rng = np.random.default_rng(seed)
    k = MetaMarket(FUND_DIM, rng, unit_f, unit_s)
    # undo the rough-start init gain: saturated gates leave true gradients
    # below finite-difference resolution, which is conditioning, not wiring
    for cell in k.extractor.cells:
        cell.W.data /= mm.INIT_GAIN_EXTRACTOR
        cell.U.data /= mm.INIT_GAIN_EXTRACTOR
    k.a3.W.data /= mm.INIT_GAIN_HEAD
    net = SurrogateNet(FUND_DIM, np.random.default_rng(seed + 1000), unit_f)
    for p in net.params():
        p.requires_grad = False
    wins = rng.normal(size=(3, mm.WINDOW_DAYS, 13))
    states = rng.normal(size=(3, 5))
    funds = rng.normal(size=(3, FUND_DIM))
    targets = rng.normal(size=(3, 13))
    trip = mm.StateTriplet(states, states + rng.normal(0, 0.05, (3, 5)),
                           states + rng.normal(0, 2.0, (3, 5)))
    # the state-consistency loss detaches the implicit feature, so the
    # finite-difference oracle must hold it fixed inside that term
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

    return grad_check(loss, k.params(), rng=rng, max_entries=3)


def test_criterion_01_gradient_suite():
    t0 = time.time()
    worst = 0.0
    for seed in range(N_SEEDS):
        rng = np.random.default_rng(seed)
        # affine + relu chain
        l1, l2 = nn.Affine(4, 6, rng, "l1"), nn.Affine(6, 2, rng, "l2")
        x = Tensor(rng.normal(size=4) + 0.1)
        worst = max(worst, grad_check(
            lambda: ad.sum_squares(l2(ad.relu(l1(x)))), nn.collect(l1, l2), rng=rng))
        # two-layer LSTM over a sequence
        lstm = nn.StackedLSTM(3, 5, 2, rng, "lstm")
        xs = [Tensor(rng.normal(size=3)) for _ in range(15)]
        worst = max(worst, grad_check(
            lambda: ad.sum_squares(lstm.run(xs)), lstm.params(), rng=rng,
            max_entries=5))
        # full surrogate, including the gradient into the behavior input
        net = SurrogateNet(FUND_DIM, rng, FeatureNormalizer(np.zeros(13), np.ones(13)))
        b = ad.parameter(rng.random(5) * 0.8 + 0.1, "b_in")
        f = rng.normal(size=FUND_DIM)
        worst = max(worst, grad_check(
            lambda: ad.sum_squares(net.forward(b, Tensor(f))),
            [b, *net.params()], rng=rng, max_entries=3))
        # full hypernetwork composite with all three losses
        worst = max(worst, _composite_rel_err(seed))
    dt = time.time() - t0
    report(1, "gradient suite", worst < GRAD_TOL and dt < 60.0,
           f"worst rel err {worst:.2e} (tol {GRAD_TOL:.0e}) over {N_SEEDS} seeds "
           f"in {dt:.1f}s (limit 60s)")


# -- criterion 2: order-book invariants over 10^4 random operations --------------------


def test_criterion_02_lob_invariants():
    t0 = time.time()

    def run_script(seed):
        rng = np.random.default_rng(seed)
        book = Book(open_price_ticks=10000)
        placed = traded = cancelled = discarded = 0
        live, trades_log, mids = [], [], []
        for oid in range(10 ** 4):
            kind = int(rng.integers(0, 3))
            if kind == 1 and live:
                victim = live[int(rng.integers(len(live)))]
                order = book.order(victim)
                if order is not None and book.cancel(victim):
                    cancelled += order.size
            else:
                side = Side.BID if rng.integers(2) == 0 else Side.ASK
                size = int(rng.integers(1, 21))
                best_before = book._best(side.opposite)
                if kind == 2:
                    try:
                        trades = book.place_market(side, size, agent=0,
                                                   order_id=oid, slot=0)
                    except NoLiquidityError:
                        continue
                    placed += size
                    discarded += size - sum(t.size for t in trades)
                else:
                    price = int(9950 + rng.integers(0, 101))
                    placed += size
                    trades = book.place_limit(
                        LimitOrder(oid, 0, side, price, size, 0))
                    if book.order(oid) is not None:
                        live.append(oid)
                traded += 2 * sum(t.size for t in trades)
                if trades:  # price priority: first fill at the then-best level
                    assert trades[0].price == best_before
                trades_log.extend((t.maker, t.taker, t.price, t.size)
                                  for t in trades)
            bb, ba = book.best_bid(), book.best_ask()
            assert bb is None or ba is None or bb < ba, "book crossed"
            mids.append(book.mid_price())
        resting = sum(o.size for o in book._resting.values())
        assert placed == resting + traded + cancelled + discarded, "lots lost"
        return trades_log, mids

    t1, m1 = run_script(2024)
    t2, m2 = run_script(2024)
    assert t1 == t2 and m1 == m2, "replay not deterministic"
    dt = time.time() - t0
    report(2, "order-book invariants", dt < 60.0,
           f"10^4 ops x2 replays: conservation, never-crossed, price-time "
           f"priority, determinism all held in {dt:.1f}s (limit 60s)")


# -- criterion 3: feature extraction vs brute-force recount ----------------------------


def test_criterion_03_feature_recount():
    from calisim import features as feat
    rng = np.random.default_rng(31)
    n_cases, worst = 60, 0.0
    for _ in range(n_cases):
        n_min = int(rng.integers(2, 16))
        mids = rng.integers(9900, 10100, n_min).astype(float)
        slots = 60 * n_min
        events = sorted(
            (tf.place(int(rng.integers(0, slots)), oid,
                      int(rng.integers(9890, 10110)), int(rng.integers(1, 200)))
             for oid in range(int(rng.integers(0, 11)))),
            key=lambda e: e.slot)
        s = tf.make_stream(mids, events, slots_per_day=slots,
                           mid_slot=np.repeat(mids, 60))
        worst = max(worst, float(np.max(np.abs(
            feat.extract(s) - tf.brute_force_features(s)))))
    # hand-worked example: sizes {1,7,60} at tick distances {1,7,12}
    s = tf.make_stream([10000.0] * 10, [tf.place(60, 1, 10001, 1),
                                        tf.place(60, 2, 10007, 7),
                                        tf.place(60, 3, 10012, 60)])
    by = dict(zip(feat.FEATURE_NAMES, feat.extract(s)))
    hand_ok = (by["size_le_1"] == pytest.approx(1 / 3)
               and by["size_le_10"] == pytest.approx(2 / 3)
               and by["px_within_1_tick"] == pytest.approx(1 / 2)
               and by["px_within_5_ticks"] == pytest.approx(1 / 2))
    report(3, "feature extraction recount", worst <= 1e-12 and hand_ok,
           f"max |diff| {worst:.1e} over {n_cases} micro-streams "
           f"(>= 50 required, exact match), hand example {'ok' if hand_ok else 'WRONG'}")


# -- criteria 4-10: pipeline-backed ---------------------------------------------------


def test_criterion_04_surrogate_training(pipeline):
    val0, best = pipeline.man["surrogate_val0"], pipeline.man["surrogate_val_best"]
    with open(pipeline.out / "surrogate_dataset.csv") as f:
        rows = list(csv.DictReader(f))
    val_q = np.array([[float(r[f"q{i + 1}"]) for i in range(13)]
                      for r in rows if r["split"] == "val"])
    floor = sur.constant_mean_loss(val_q)
    dt = pipeline.man["surrogate_wall_s"]
    ok = best <= 0.7 * val0 and best <= floor and dt < 300.0
    report(4, "surrogate training", ok,
           f"best val {best:.4f} vs 0.7*epoch0 {0.7 * val0:.4f} "
           f"and constant-mean {floor:.4f}, in {dt:.0f}s (limit 300s)")


def test_criterion_05_metamarket_training(pipeline):
    r0, r1, v0, v1, dt = (pipeline.man[f"metamarket_{k}"] for k in
                          ("recon0", "recon_final", "var0", "var_final", "wall_s"))
    ok = r1 < r0 and v1 < v0 and dt < 600.0
    report(5, "calibrator training", ok,
           f"recon {r0:.2f} -> {r1:.2f}, "
           f"variation {v0:.4f} -> {v1:.4f} "
           f"(both must strictly drop), in {dt:.0f}s (limit 600s)")


def test_criterion_06_reconstruction_and_variation(pipeline):
    m = pipeline.summary["methods"]
    cs, rs, bo = m["calisim"], m["randsearch"], m["bayesopt"]
    ok = (cs["median_variation"] < rs["median_variation"]
          and cs["median_variation"] < bo["median_variation"]
          and cs["mean_recon"] < rs["mean_recon"]
          and cs["mean_recon"] <= 1.15 * bo["mean_recon"])
    report(6, "test-set comparison", ok,
           f"median variation {cs['median_variation']:.4f} vs "
           f"{rs['median_variation']:.4f}/{bo['median_variation']:.4f}; "
           f"mean recon {cs['mean_recon']:.2f} vs {rs['mean_recon']:.2f} "
           f"and 1.15x{bo['mean_recon']:.2f}={1.15 * bo['mean_recon']:.2f} "
           f"(3 search seeds)")


def test_criterion_07_state_correlation(pipeline):
    m = pipeline.summary["methods"]
    rows = []
    ok = True
    for ind in STATE_NAMES:
        cs = m["calisim"]["mean_abs_rho_per_indicator"][ind]
        rs = m["randsearch"]["mean_abs_rho_per_indicator"][ind]
        bo = m["bayesopt"]["mean_abs_rho_per_indicator"][ind]
        ok = ok and cs > rs and cs > bo
        rows.append(f"{ind} {cs:.3f}>{max(rs, bo):.3f}")
    report(7, "behavior-state correlation", ok,
           "per-indicator mean |rho| one-shot vs best baseline: " + ", ".join(rows)
           + " (reference magnitudes 0.3266 vs 0.0921)")


def test_criterion_08_simulator_call_budget(pipeline):
    """Counter-verified via `DayScore.calls`, counted where each day is
    simulated, independent of the search implementations' own loop
    accounting."""
    counters = pipeline.man["sim_calls"]
    n_days = len(pipeline.bench.test_days)
    trials = pipeline.cfg["baselines"]["trials"]
    ok = counters["calisim"]["total"] == 0 and counters["calisim"]["per_day"] == 0
    for seed in pipeline.cfg["baselines"]["seeds"]:
        for method in ("randsearch", "bayesopt"):
            c = counters[f"{method}_seed{seed}"]
            ok = ok and c["per_day"] == trials and c["total"] == trials * n_days
    report(8, "simulator-call budget", ok,
           f"one-shot 0/day; each baseline exactly {trials}/day over "
           f"{n_days} days x {len(pipeline.cfg['baselines']['seeds'])} seeds")


def test_criterion_09_state_loss_ablation(pipeline):
    m = pipeline.summary["methods"]
    ws1, ws0 = m["calisim"]["mean_recon"], m[harness.ABLATION]["mean_recon"]
    report(9, "state-consistency ablation", ws1 < ws0,
           f"mean test recon with state loss {ws1:.2f} < without {ws0:.2f}")


def test_criterion_10_behavior_recovery(pipeline):
    m = pipeline.summary["methods"]
    cs = m["calisim"]["mean_recovery"]
    rs = m["randsearch"]["mean_recovery"]
    bo = m["bayesopt"]["mean_recovery"]
    total = pipeline.total
    ok = cs < rs and cs < bo and total < 1800.0
    report(10, "planted-behavior recovery", ok,
           f"mean ||b_hat - b*||^2 {cs:.4f} vs {rs:.4f}/{bo:.4f}; "
           f"full pipeline {total:.0f}s (limit 1800s)")
