"""Agent population: behavior-vector bounds and metrics, folded-Laplacian
type weights, derived horizon/risk-aversion identities, trailing history
statistics, price estimation, CARA demand, and order-intent clamps."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calisim import agents as ag
from calisim.agents import (
    AgentAccount,
    AgentProfile,
    BehaviorVector,
    MinuteHistory,
    build_population,
    derived_horizon,
    derived_risk_aversion,
    desired_holding,
)
from calisim.lob import Side


# -- behavior vector -----------------------------------------------------------


def test_behavior_bounds_enforced():
    BehaviorVector(0.05, 2.0, 1.0, 60.0, 0.5)  # extremes are legal
    with pytest.raises(ValueError, match="delta_f"):
        BehaviorVector(0.01, 1.0, 1.0, 600.0, 0.1)
    with pytest.raises(ValueError, match="tau"):
        BehaviorVector(1.0, 1.0, 1.0, 10.0, 0.1)


def test_normalized_roundtrip():
    b = BehaviorVector(0.3, 1.7, 0.05, 1234.0, 0.25)
    z = b.normalized()
    assert np.all((0.0 <= z) & (z <= 1.0))
    back = BehaviorVector.from_normalized(z)
    assert np.allclose(back.as_array(), b.as_array())


def test_from_normalized_clips():
    b = BehaviorVector.from_normalized([-1.0, 2.0, 0.5, 0.5, 0.5])
    assert b.delta_f == 0.05 and b.delta_c == 2.0


def test_behavior_variation_examples():
    """Day-to-day variation as the evaluation and the calibrator's curves
    compute it: squared steps between consecutive normalized vectors."""
    def variation(*coords):
        bs = np.array([BehaviorVector.from_normalized(c).normalized() for c in coords])
        return np.sum(np.diff(bs, axis=0) ** 2, axis=1)

    assert variation([0.5] * 5, [0.5] * 5)[0] == 0.0
    # one coordinate moved by a full unit of normalized range, then back by half
    steps = variation([0, 0.5, 0.5, 0.5, 0.5], [1, 0.5, 0.5, 0.5, 0.5], [0.5] * 5)
    assert steps == pytest.approx([1.0, 0.25])
    # all five coordinates moved by 0.5: 5 * 0.25 = 1.25
    assert variation([0.0] * 5, [0.5] * 5)[0] == pytest.approx(1.25)


# -- population draws ------------------------------------------------------------


def test_folded_laplacian_mean_within_2pct():
    """|Laplace(0, delta)| has mean delta; check each weight over 1e5 draws."""
    b = BehaviorVector(0.8, 0.3, 1.5, 600.0, 0.0)
    rng = np.random.default_rng(42)
    profiles, _ = build_population(b, 100_000, 2.5e-5, 10000, rng)
    for attr, delta in (("g_f", 0.8), ("g_c", 0.3), ("g_n", 1.5)):
        mean = np.mean([getattr(p, attr) for p in profiles])
        assert abs(mean - delta) / delta < 0.02


def test_derived_horizon_identities():
    assert derived_horizon(600.0, 1.0, 0.0) == 1200           # (1+1)/(1+0) doubles
    assert derived_horizon(600.0, 0.7, 0.7) == 600            # equal weights cancel
    assert derived_horizon(1.0, 0.0, 5.0) == 1                # floored at one slot
    assert derived_risk_aversion(0.1, 1.0, 0.0) == pytest.approx(0.2)
    assert derived_risk_aversion(0.1, 0.7, 0.7) == pytest.approx(0.1)


def test_p_inst_zero_means_no_institutions():
    b = BehaviorVector(1.0, 1.0, 1.0, 600.0, 0.0)
    profiles, _ = build_population(b, 5000, 2.5e-5, 10000, np.random.default_rng(0))
    assert not any(p.institutional for p in profiles)


def test_institutional_probability_respected():
    b = BehaviorVector(1.0, 1.0, 1.0, 600.0, 0.5)
    profiles, _ = build_population(b, 50_000, 2.5e-5, 10000, np.random.default_rng(1))
    frac = np.mean([p.institutional for p in profiles])
    assert abs(frac - 0.5) < 0.02


def test_accounts_integral_and_positive():
    b = BehaviorVector(1.0, 1.0, 1.0, 600.0, 0.3)
    _, accounts = build_population(b, 1000, 2.5e-5, 10000, np.random.default_rng(2))
    for a in accounts:
        assert a.cash > 0 and a.holdings > 0
        assert a.cash % 10000 == 0  # cash granted in whole open-price units
        assert a.reserved_cash == 0 and a.reserved_lots == 0


def test_population_holds_python_scalars():
    """Every profile and account field is a Python float/int/bool even when
    the behavior vector holds numpy scalars (as `from_normalized` gives):
    a numpy scalar there would put numpy arithmetic on every wake."""
    for seed, z in enumerate(([0.5] * 5, [0.1, 0.9, 0.3, 0.7, 1.0], [0.0] * 5)):
        b = BehaviorVector.from_normalized(z)
        assert type(b.tau) is np.float64
        profiles, accounts = build_population(b, 50, 2.5e-5, 10000,
                                               np.random.default_rng(seed))
        for obj in (*profiles, *accounts):
            for name in obj.__dataclass_fields__:
                assert type(getattr(obj, name)) in (float, int, bool), (
                    f"{type(obj).__name__}.{name} is {type(getattr(obj, name))}")


# -- price estimation ----------------------------------------------------------------


def ramp_history(n: int, start: float, slope: float) -> MinuteHistory:
    h = MinuteHistory()
    for i in range(n):
        h.append(start + slope * i)
    return h


def chartist_price(history: MinuteHistory, minutes: int) -> float:
    """The chartist price run_day hands an agent with a `minutes` horizon."""
    intercept, slope, k, _ = history.trend(min(minutes, len(history)), 1e-4, 1e-2)
    return intercept + slope * (k - 1 + minutes)


def decide(profile: AgentProfile, *, fundamental_now: float = 100.0, p_c: float = 0.0,
           mid: float = 100.0, sigma_noise: float = 1.0, var: float = 1e-4,
           account: AgentAccount | None = None, band=(0.95, 1.05), seed: int = 0):
    """One make_order call with test defaults."""
    account = account or AgentAccount(cash=10 ** 9, holdings=100)
    return ag.make_order(profile, account, mid=mid, p_c=p_c, var=var,
                         fundamental_now=fundamental_now, sigma_noise=sigma_noise,
                         band=band, tick_size=0.01, lot_size=1,
                         rng=np.random.default_rng(seed))


def pure(kind: str, alpha: float = 1e-4) -> AgentProfile:
    weights = {"f": (1.0, 0.0, 0.0), "c": (0.0, 1.0, 0.0), "n": (0.0, 0.0, 1.0)}[kind]
    return AgentProfile(*weights, 600, alpha, False)


def test_profile_derived_constants():
    p = AgentProfile(0.5, 0.25, 2.0, 630, 1e-4, False)
    assert p.minutes == 10 and p.total == 0.5 + 0.25 + 2.0    # round(10.5) is even
    assert AgentProfile(1.0, 1.0, 1.0, 29, 1e-4, False).minutes == 1   # floored
    assert AgentProfile(1.0, 1.0, 1.0, 3600, 1e-4, False).minutes == 60


def test_chartist_ols_ramp_extrapolation():
    """A +0.1/min linear ramp ending at 100 read over a 10-minute horizon
    extrapolates to 100 + 0.1 * 10 = 101, and a pure chartist decides on
    exactly that price."""
    profile = pure("c")
    assert profile.minutes == 10
    history = ramp_history(30, 100.0 - 0.1 * 29, 0.1)  # ends exactly at 100
    p_c = chartist_price(history, profile.minutes)
    assert p_c == pytest.approx(101.0)
    for seed in range(20):
        assert decide(profile, p_c=p_c, seed=seed) == \
            decide(pure("f"), fundamental_now=p_c, seed=seed)


def test_fundamentalist_reads_fundamental():
    """A fundamental-only agent's estimate is the fundamental itself,
    whatever the chartist price and the mid-centred noise."""
    for seed in range(20):
        intent = decide(pure("f"), fundamental_now=123.0, p_c=80.0, seed=seed)
        assert intent == decide(pure("c"), p_c=123.0, seed=seed)
        assert intent == decide(pure("f"), fundamental_now=123.0, p_c=140.0, seed=seed)
        assert intent is not None and intent.side is Side.BID
        assert decide(pure("f"), fundamental_now=80.0, seed=seed).side is Side.ASK


def test_chartist_falls_back_to_mid_on_short_history():
    """With fewer than two history points there is no extrapolation: the
    chartist price is 0.0, which make_order replaces by the mid."""
    for n in (0, 1):
        p_c = chartist_price(ramp_history(n, 120.0, 1.0), 10)
        assert p_c == 0.0
        for seed in range(10):
            assert decide(pure("c"), p_c=p_c, mid=100.0, seed=seed) == \
                decide(pure("f"), fundamental_now=100.0, seed=seed)


def test_noise_estimate_is_first_positive_draw():
    """A noise trader's estimate is the first positive of up to eight
    N(mid, sigma) draws, else the mid: near a zero mid the draws are often
    negative and the estimate still stays positive."""
    mid, sigma = 0.05, 1.0
    seen_late, seen_none = False, False
    for seed in range(600):
        draws = mid + sigma * np.random.default_rng(seed).standard_normal(8)
        positive = draws[draws > 0]
        estimate = float(positive[0]) if len(positive) else mid
        seen_late |= len(positive) > 0 and draws[0] <= 0
        seen_none |= len(positive) == 0
        kw = dict(mid=mid, sigma_noise=sigma, var=1.0, seed=seed,
                  account=AgentAccount(cash=10 ** 9, holdings=100))
        assert decide(pure("n", alpha=0.2), **kw) == \
            decide(pure("f", alpha=0.2), fundamental_now=estimate, **kw)
    assert seen_late and seen_none   # both fallbacks were exercised


def test_zero_total_weight_rejected():
    with pytest.raises(ValueError, match="zero total type weight"):
        decide(AgentProfile(0.0, 0.0, 0.0, 600, 1e-4, False))


def test_trend_clips_variance():
    flat = ramp_history(30, 100.0, 0.0)
    assert flat.trend(10, 1e-4, 1e-2) == (100.0, 0.0, 10, 1e-4)   # floor
    zigzag = MinuteHistory()
    for i in range(30):
        zigzag.append(100.0 + (-1.0) ** i)
    assert zigzag.trend(10, 1e-4, 1e-2)[3] == 1e-2                 # cap


def test_trend_short_history_has_no_line():
    """Below two points the line is 0.0 everywhere and the variance sits
    at the floor."""
    for n in (0, 1):
        intercept, slope, _, var = ramp_history(n, 100.0, 1.0).trend(10, 1e-4, 1e-2)
        assert (intercept, slope, var) == (0.0, 0.0, 1e-4)


def test_trailing_var_matches_numpy():
    rng = np.random.default_rng(4)
    h = MinuteHistory()
    vals = rng.normal(100, 2, 50)
    for v in vals:
        h.append(v)
    assert h.trend(20, 0.0, np.inf)[3] == pytest.approx(np.var(vals[-20:]))


def test_trend_line_matches_polyfit():
    """The line is the least-squares fit over the trailing k points with
    x = 0 at the first: k is the window, at least 2 and at most the
    history's length."""
    vals = np.random.default_rng(5).normal(100, 2, 12)
    h = MinuteHistory()
    for v in vals:
        h.append(v)
    for window, k in ((1, 2), (5, 5), (12, 12), (40, 12)):
        intercept, slope, got_k, _ = h.trend(window, 1e-4, 1e-2)
        assert got_k == k
        fit_slope, fit_intercept = np.polyfit(np.arange(k), vals[-k:], 1)
        assert (intercept, slope) == pytest.approx((fit_intercept, fit_slope))


def test_trend_depends_only_on_effective_window():
    """run_day caches trend by min(minutes, len(history)): every horizon
    must get exactly the bits that its own window would give."""
    vals = np.random.default_rng(6).normal(100, 2, 30)
    for n in (0, 1, 2, 3, 30):
        h = MinuteHistory()
        for v in vals[:n]:
            h.append(v)
        for minutes in range(1, 70):
            assert h.trend(minutes, 1e-4, 1e-2) == h.trend(min(minutes, n), 1e-4, 1e-2)


# -- CARA demand -----------------------------------------------------------------


def test_desired_holding_hand_value():
    """log(110/100) / (0.1 * 4 * 100) = ln(1.1)/40."""
    assert desired_holding(110.0, 100.0, 0.1, 4.0) == pytest.approx(
        math.log(1.1) / 40.0)


def test_desired_holding_signs_and_monotonicity():
    assert desired_holding(100.0, 100.0, 0.1, 4.0) == 0.0
    assert desired_holding(90.0, 100.0, 0.1, 4.0) < 0
    # higher perceived value -> larger target holding
    lo = desired_holding(105.0, 100.0, 0.1, 4.0)
    hi = desired_holding(115.0, 100.0, 0.1, 4.0)
    assert hi > lo > 0
    # higher risk aversion shrinks the position
    assert desired_holding(110.0, 100.0, 0.2, 4.0) < desired_holding(
        110.0, 100.0, 0.1, 4.0)
    with pytest.raises(ValueError):
        desired_holding(110.0, 0.0, 0.1, 4.0)


def test_sell_surplus_sizing():
    """Holdings 10, CARA target 2.4 rounds to 2: the agent asks 8 lots.
    Targets round half to even: 2.5 -> 2 (asks 8), 3.5 -> 4 (asks 6)."""
    for target, size in ((2.4, 8), (2.5, 8), (3.5, 6)):
        # estimate 2.0 at price 1.0 with unit variance: target log(2) / alpha
        alpha = math.log(2.0) / target
        assert desired_holding(2.0, 1.0, alpha, 1.0) == target
        intent = decide(pure("f", alpha=alpha), fundamental_now=2.0, mid=1.0,
                        var=1.0, band=(1.0, 1.0),
                        account=AgentAccount(cash=10 ** 6, holdings=10))
        assert intent == ag.OrderIntent(Side.ASK, 100, size)


def make_order_once(account: AgentAccount, seed: int = 0):
    profile = AgentProfile(1.0, 0.0, 0.0, 600, 2.5e-5, False)
    history = ramp_history(30, 100.0, 0.0)
    var = history.trend(profile.minutes, 1e-4, 1e-2)[3]
    return decide(profile, fundamental_now=110.0, p_c=chartist_price(history, profile.minutes),
                  var=var,
                  account=account, seed=seed)


def test_make_order_buy_respects_budget():
    """A strong buy signal is clamped to what free cash affords."""
    account = AgentAccount(cash=50_000, holdings=0)  # 5 lots at ~10000 ticks
    intent = make_order_once(account)
    assert intent is not None and intent.side is Side.BID
    assert intent.size * intent.price <= account.free_cash


def test_make_order_no_cash_no_order():
    account = AgentAccount(cash=100, holdings=0)
    assert make_order_once(account) is None


def test_make_order_reservations_reduce_capacity():
    rich = AgentAccount(cash=10_000_000, holdings=0)
    tied = AgentAccount(cash=10_000_000, holdings=0, reserved_cash=9_990_000)
    big = make_order_once(rich)
    small = make_order_once(tied)
    assert big is not None
    assert small is None or small.size < big.size


def test_make_order_exhausted_account_makes_the_same_draws():
    """An account with no free lot and less free cash than one lot at the
    band's lowest price returns None early, but only after the wake's one
    normal and one uniform draw: a funded account at the same seed consumes
    exactly those draws, so the stream after the wake does not depend on
    the early exit."""
    lowest = round(100.0 * 0.95 / 0.01)   # ticks at the bottom of the band
    exhausted = AgentAccount(cash=lowest - 1, holdings=5, reserved_lots=5)
    funded = AgentAccount(cash=10 ** 9, holdings=100)
    for seed in range(20):
        twin = np.random.default_rng(seed)
        twin.standard_normal()
        twin.random()
        for account, expect_none in ((exhausted, True), (funded, False)):
            rng = np.random.default_rng(seed)
            intent = ag.make_order(pure("f"), account, mid=100.0, p_c=0.0, var=1e-4,
                                   fundamental_now=110.0, sigma_noise=1.0,
                                   band=(0.95, 1.05), tick_size=0.01, lot_size=1, rng=rng)
            assert (intent is None) == expect_none
            assert rng.bit_generator.state == twin.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 7), st.integers(0, 1000),
       st.integers(0, 10 ** 6), st.integers(0, 500), st.integers(0, 2 ** 30))
def test_make_order_never_violates_account(cash, holdings, res_cash, res_lots, seed):
    """Whatever the account state, an emitted intent fits inside the free
    cash (bids) or free lots (asks)."""
    res_cash = min(res_cash, cash)
    res_lots = min(res_lots, holdings)
    account = AgentAccount(cash=cash, holdings=holdings,
                           reserved_cash=res_cash, reserved_lots=res_lots)
    intent = make_order_once(account, seed=seed % 997)
    if intent is None:
        return
    assert intent.size >= 1 and intent.price >= 1
    if intent.side is Side.BID:
        assert intent.size * intent.price <= account.free_cash
    else:
        assert intent.size <= account.free_lots
