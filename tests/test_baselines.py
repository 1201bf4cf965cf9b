"""Search baselines: simulator-call accounting, Gaussian-process
regression sanity, expected improvement, and search quality on a cheap
synthetic objective."""

import numpy as np
import pytest

from calisim import baselines as bl
from calisim import simulator as sim
from calisim.baselines import (
    WARM_STARTS,
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


def quadratic_score(b, *args, **kwargs) -> float:
    """Cheap stand-in objective: distance to an interior optimum."""
    return float(np.sum((b.normalized() - 0.3) ** 2))


# -- budget accounting ------------------------------------------------------------


def test_random_search_uses_exactly_trials_sim_calls():
    sim.reset_sim_calls()
    random_search(CFG, flat_fund(), np.zeros(13), NORM, trials=3, seed=0)
    assert sim.sim_call_count() == 3


def test_bayes_opt_uses_exactly_trials_sim_calls():
    sim.reset_sim_calls()
    bayes_opt(CFG, flat_fund(), np.zeros(13), NORM, trials=5, seed=0)
    assert sim.sim_call_count() == 5


def test_budget_validation():
    with pytest.raises(ValueError):
        random_search(CFG, flat_fund(), np.zeros(13), NORM, trials=0)
    with pytest.raises(ValueError):
        bayes_opt(CFG, flat_fund(), np.zeros(13), NORM, trials=WARM_STARTS)


def test_random_search_deterministic(monkeypatch):
    monkeypatch.setattr(bl, "_score", quadratic_score)
    b1, s1 = random_search(CFG, flat_fund(), np.zeros(13), NORM, trials=10, seed=4)
    b2, s2 = random_search(CFG, flat_fund(), np.zeros(13), NORM, trials=10, seed=4)
    assert s1 == s2 and np.array_equal(b1.as_array(), b2.as_array())


def test_random_search_monotone_in_budget(monkeypatch):
    """With the same seed the candidate sequence is a prefix, so a larger
    budget can never return a worse score."""
    monkeypatch.setattr(bl, "_score", quadratic_score)
    scores = [random_search(CFG, flat_fund(), np.zeros(13), NORM,
                            trials=t, seed=7)[1] for t in (5, 10, 20)]
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


def test_expected_improvement_prefers_low_mean_at_equal_variance():
    mu = np.array([0.2, 0.8])
    var = np.array([0.1, 0.1])
    ei = expected_improvement(mu, var, best=1.0)
    assert ei[0] > ei[1] > 0.0


# -- search quality -----------------------------------------------------------------


def test_bayes_opt_beats_random_search_on_synthetic_objective(monkeypatch):
    """On a smooth unimodal objective, model-guided search should win most
    head-to-head runs at equal budget."""
    monkeypatch.setattr(bl, "_score", quadratic_score)
    wins = 0
    for seed in range(50):
        _, s_rand = random_search(CFG, flat_fund(), np.zeros(13), NORM,
                                  trials=10, seed=seed)
        _, s_bo = bayes_opt(CFG, flat_fund(), np.zeros(13), NORM,
                            trials=10, seed=seed)
        wins += s_bo < s_rand
    assert wins >= 30
