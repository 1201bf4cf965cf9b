"""Search baselines: simulator-call accounting, Gaussian-process
regression sanity, expected improvement, and search quality on a cheap
synthetic objective."""

import math

import numpy as np
import pytest
from scipy import linalg, special, stats

from calisim import baselines as bl
from calisim.baselines import (
    WARM_STARTS,
    DayScore,
    GPModel,
    bayes_opt,
    expected_improvement,
    random_search,
)
from calisim.features import FeatureNormalizer
from calisim.simulator import FundamentalSeries, SimConfig

CFG = SimConfig(slots_per_day=600, n_agents=20)
NORM = FeatureNormalizer(np.zeros(13), np.ones(13))


def flat_fund() -> FundamentalSeries:
    return FundamentalSeries(np.full(CFG.fundamental_len, 100.0))


def quadratic_score(b, seed) -> float:
    """Cheap stand-in objective: distance to an interior optimum."""
    return float(np.sum((b.normalized() - 0.3) ** 2))


# -- budget accounting ------------------------------------------------------------


def test_random_search_uses_exactly_trials_sim_calls():
    score = DayScore(CFG, flat_fund(), np.zeros(13), NORM)
    random_search(score, trials=3, seed=0)
    assert score.calls == 3


def test_bayes_opt_uses_exactly_trials_sim_calls():
    score = DayScore(CFG, flat_fund(), np.zeros(13), NORM)
    bayes_opt(score, trials=5, seed=0)
    assert score.calls == 5


def test_budget_validation():
    with pytest.raises(ValueError):
        random_search(quadratic_score, trials=0)
    with pytest.raises(ValueError):
        bayes_opt(quadratic_score, trials=WARM_STARTS)


def test_random_search_deterministic():
    b1, s1 = random_search(quadratic_score, trials=10, seed=4)
    b2, s2 = random_search(quadratic_score, trials=10, seed=4)
    assert s1 == s2 and np.array_equal(b1.as_array(), b2.as_array())


def test_random_search_monotone_in_budget():
    """With the same seed the candidate sequence is a prefix, so a larger
    budget can never return a worse score."""
    scores = [random_search(quadratic_score, trials=t, seed=7)[1] for t in (5, 10, 20)]
    assert scores[0] >= scores[1] >= scores[2]


# -- Gaussian process --------------------------------------------------------------


def test_gp_interpolates_training_points():
    rng = np.random.default_rng(0)
    x = rng.random((12, 5))
    y = np.sin(3.0 * x[:, 0]) + x[:, 1] ** 2
    gp = GPModel.fit(x, y)
    mu, var = gp.posterior(x)
    assert np.max(np.abs(mu - y)) < 1e-3
    assert np.all(var < 1e-3)


def test_gp_reverts_to_mean_far_away():
    rng = np.random.default_rng(1)
    x = rng.random((8, 5)) * 0.1
    y = rng.normal(size=8)
    gp = GPModel.fit(x, y)
    mu, var = gp.posterior(np.full((1, 5), 1e6))
    assert mu[0] == pytest.approx(y.mean(), abs=1e-8)
    assert var[0] == pytest.approx(gp.signal + bl.NOISE_VAR)


def test_expected_improvement_zero_at_zero_variance():
    mu = np.array([0.5, 2.0])
    var = np.zeros(2)
    assert np.array_equal(expected_improvement(mu, var, best=1.0), np.zeros(2))


def _scipy_expected_improvement(mu, var, best):
    """The oracle: EI written with scipy.stats.norm."""
    sd = np.sqrt(var)
    ei = np.zeros_like(mu)
    pos = sd > 0
    z = (best - mu[pos]) / sd[pos]
    ei[pos] = (best - mu[pos]) * stats.norm.cdf(z) + sd[pos] * stats.norm.pdf(z)
    return np.maximum(ei, 0.0)


def test_expected_improvement_bit_identical_to_scipy_norm():
    rng = np.random.default_rng(5150)
    best = 0.25
    sd = rng.exponential(1.0, 4000) * 10.0 ** rng.integers(-6, 3, 4000)
    z = np.concatenate([rng.normal(0.0, 3.0, 2000), rng.uniform(-1e3, 1e3, 1990),
                        [-1e3, 1e3, -40.0, 40.0, 0.0, -8.5, 8.5, -38.5, 38.5, 1e-300]])
    mu = best - z * sd
    var = sd * sd
    var[::7] = 0.0
    ours = expected_improvement(mu, var, best)
    assert ours.tobytes() == _scipy_expected_improvement(mu, var, best).tobytes()
    assert np.all(ours[::7] == 0.0)
    assert np.max(np.abs((best - mu[var > 0]) / np.sqrt(var[var > 0]))) > 900


def test_ndtr_bit_identical_to_scipy():
    """The cephes port against scipy.special.ndtr on a wide sample, both
    sides of every branch edge (|x| = 1, |x| = 8 and exp(-x^2) underflow,
    x = a / sqrt(2)), signed zeros, subnormals, infinities and nan."""
    rng = np.random.default_rng(2323)
    edges = [0.0, 5e-324, 1.0, math.sqrt(2), 8 * math.sqrt(2), math.sqrt(2 * bl._MAXLOG),
             1e3, 1e200]
    steps = [np.nextafter(e, d) for e in edges for d in (0.0, np.inf)]
    near = np.array([*edges, *steps, *np.linspace(37.5, 38.5, 41), np.inf])
    a = np.concatenate([rng.normal(0.0, 1.0, 20000), rng.normal(0.0, 8.0, 20000),
                        rng.uniform(-1e3, 1e3, 20000), rng.standard_cauchy(20000),
                        near, -near, [np.nan]])
    ours = bl._ndtr(a)
    assert ours.tobytes() == special.ndtr(a).tobytes()
    assert np.isnan(ours[-1]) and ours[np.isinf(a)].tolist() == [1.0, 0.0]


def _gp_factors(rng, n_sets):
    """Cholesky factors as GPModel.fit makes them, at every length scale of
    its grid: n = 9 points, three of them 1e-9 from another, and score
    scales up to 1e7 (signal variance 1e14), at which K + NOISE_VAR I is
    not positive definite and `_chol_solve` adds more jitter."""
    jittered = 0
    for _ in range(n_sets):
        x = rng.random((9, 5))
        x[6:] = np.clip(x[:3] + rng.normal(0.0, 1e-9, (3, 5)), 0.0, 1.0)
        yc = rng.normal(size=9) * 10.0 ** rng.integers(-2, 8)
        yc -= yc.mean()
        signal = max(float(yc.var()), 1e-12)
        for length in np.geomspace(0.05, 5.0, 12):
            k = GPModel._kernel(x, x, length, signal)
            try:
                np.linalg.cholesky(k + bl.NOISE_VAR * np.eye(9))
            except np.linalg.LinAlgError:
                jittered += 1
            chol, _ = bl._chol_solve(k, yc)
            yield chol, yc, GPModel._kernel(x, rng.random((bl.EI_CANDIDATES, 5)), length, signal)
    assert jittered > 0


def test_triangular_solves_agree_with_scipy():
    """Forward and back substitution, with a vector and a 1024-column right
    side, have a componentwise backward error of a few ulps, as scipy's
    solve_triangular does on the same systems: the bits may differ (BLAS
    kernels order their sums per CPU), the accuracy does not."""
    eps = np.finfo(float).eps

    def backward_error(t, x, b):
        return np.max(np.abs(b - t @ x) / (np.abs(t) @ np.abs(x))) / eps

    for chol, y, ks in _gp_factors(np.random.default_rng(31), 20):
        for t, lower in ((chol, True), (chol.T, False)):
            for b in (y, ks):
                ours = bl._solve_triangular(t, b, lower=lower)
                ref = linalg.solve_triangular(t, b, lower=lower)
                assert backward_error(t, ours, b) < 8.0
                assert backward_error(t, ref, b) < 8.0


def test_bayes_opt_same_choices_as_with_scipy_numerics(monkeypatch):
    """On 300 seeded objectives (smooth, multimodal and noisy), GP-BO with
    the numpy solves and CDF returns the same candidate and score as with
    scipy's solve_triangular and ndtr."""
    rng = np.random.default_rng(7)
    objectives = []
    for i in range(300):
        center, freq = rng.random(5), rng.uniform(2.0, 12.0, 5)
        if i % 3 == 0:
            objectives.append(lambda b, seed, c=center: float(np.sum((b.normalized() - c) ** 2)))
        elif i % 3 == 1:
            objectives.append(lambda b, seed, c=center, w=freq: float(
                np.sum(np.sin(w * (b.normalized() - c))) + np.sum((b.normalized() - c) ** 2)))
        else:
            objectives.append(lambda b, seed, c=center: float(
                np.sum((b.normalized() - c) ** 2)
                + 0.05 * np.random.default_rng(seed).normal()))
    ours = [bayes_opt(f, trials=10, seed=i) for i, f in enumerate(objectives)]
    monkeypatch.setattr(bl, "_solve_triangular", lambda t, b, lower:
                        linalg.solve_triangular(t, b, lower=lower))
    monkeypatch.setattr(bl, "_ndtr", special.ndtr)
    ref = [bayes_opt(f, trials=10, seed=i) for i, f in enumerate(objectives)]
    for (b, s), (b_ref, s_ref) in zip(ours, ref):
        assert s == s_ref and b.as_array().tobytes() == b_ref.as_array().tobytes()


def test_expected_improvement_prefers_low_mean_at_equal_variance():
    mu = np.array([0.2, 0.8])
    var = np.array([0.1, 0.1])
    ei = expected_improvement(mu, var, best=1.0)
    assert ei[0] > ei[1] > 0.0


# -- search quality -----------------------------------------------------------------


def test_bayes_opt_beats_random_search_on_synthetic_objective():
    """On a smooth unimodal objective, model-guided search should win most
    head-to-head runs at equal budget."""
    wins = 0
    for seed in range(50):
        _, s_rand = random_search(quadratic_score, trials=10, seed=seed)
        _, s_bo = bayes_opt(quadratic_score, trials=10, seed=seed)
        wins += s_bo < s_rand
    assert wins >= 30
