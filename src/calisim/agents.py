"""Heterogeneous trading agents: composite fundamentalist/chartist/noise
profiles with CARA-derived demand, horizons, risk aversion, and
institutional accounts.

Population-level behavior is governed by a 5-dimensional BehaviorVector;
all five coordinates live in fixed raw bounds with an affine normalized
view onto [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .lob import ASK, BID, Side

# Raw bounds: (low, high) per coordinate.
BEHAVIOR_BOUNDS = {
    "delta_f": (0.05, 2.0),
    "delta_c": (0.05, 2.0),
    "delta_n": (0.05, 2.0),
    "tau": (60.0, 3600.0),
    "p_inst": (0.0, 0.5),
}
BEHAVIOR_NAMES = tuple(BEHAVIOR_BOUNDS)
N_BEHAVIOR = len(BEHAVIOR_NAMES)
_LOWS = np.array([BEHAVIOR_BOUNDS[k][0] for k in BEHAVIOR_NAMES])
_HIGHS = np.array([BEHAVIOR_BOUNDS[k][1] for k in BEHAVIOR_NAMES])

SLOTS_PER_MINUTE = 60   # a slot is one second


@dataclass(frozen=True)
class BehaviorVector:
    """Population behavior knobs: Laplacian scales for the three agent-type
    weights, the reference horizon (slots), and the institutional probability."""

    delta_f: float
    delta_c: float
    delta_n: float
    tau: float
    p_inst: float

    def __post_init__(self):
        for name, value in zip(BEHAVIOR_NAMES, self.as_array()):
            low, high = BEHAVIOR_BOUNDS[name]
            if not (low <= value <= high):
                raise ValueError(f"{name}={value} outside [{low}, {high}]")

    def as_array(self) -> np.ndarray:
        return np.array([self.delta_f, self.delta_c, self.delta_n, self.tau, self.p_inst])

    def normalized(self) -> np.ndarray:
        return (self.as_array() - _LOWS) / (_HIGHS - _LOWS)

    @staticmethod
    def from_normalized(z) -> "BehaviorVector":
        z = np.clip(np.asarray(z, dtype=float), 0.0, 1.0)
        raw = _LOWS + z * (_HIGHS - _LOWS)
        return BehaviorVector(*raw)

    @staticmethod
    def from_array(raw) -> "BehaviorVector":
        return BehaviorVector(*np.asarray(raw, dtype=float))


@dataclass(frozen=True, slots=True)
class AgentProfile:
    g_f: float
    g_c: float
    g_n: float
    tau_i: int          # horizon in slots, >= 1
    alpha_i: float      # risk aversion, 1/currency
    institutional: bool
    minutes: int = field(init=False)   # horizon in whole minutes, >= 1
    total: float = field(init=False)   # g_f + g_c + g_n, the estimate's divisor

    def __post_init__(self):
        total = self.g_f + self.g_c + self.g_n
        if total <= 0:
            raise ValueError("agent has zero total type weight")
        object.__setattr__(self, "minutes", max(1, round(self.tau_i / SLOTS_PER_MINUTE)))
        object.__setattr__(self, "total", total)


@dataclass(slots=True)
class AgentAccount:
    cash: int                 # integer tick units
    holdings: int             # integer lots
    reserved_cash: int = 0    # committed to resting bids
    reserved_lots: int = 0    # committed to resting asks

    @property
    def free_cash(self) -> int:
        return self.cash - self.reserved_cash

    @property
    def free_lots(self) -> int:
        return self.holdings - self.reserved_lots


def derived_horizon(tau_ref: float, g_f: float, g_c: float) -> int:
    return max(1, round(tau_ref * (1.0 + g_f) / (1.0 + g_c)))


def derived_risk_aversion(alpha_ref: float, g_f: float, g_c: float) -> float:
    return alpha_ref * (1.0 + g_f) / (1.0 + g_c)


def build_population(b: BehaviorVector, n_agents: int, alpha_ref: float,
                     open_price_ticks: int, rng: np.random.Generator,
                     ) -> tuple[list[AgentProfile], list[AgentAccount]]:
    """Draw agent profiles and accounts.

    Type weights are folded Laplacians |Laplace(0, delta)|; institutional
    agents get doubled account ranges. Cash is in tick units so accounts
    stay integral.
    """
    # .tolist() once: every field is then a Python float/int/bool, so each
    # wake's demand arithmetic runs on Python floats, not numpy scalars
    # (the same IEEE doubles, and both round half to even)
    g_f = np.abs(rng.laplace(0.0, b.delta_f, n_agents)).tolist()
    g_c = np.abs(rng.laplace(0.0, b.delta_c, n_agents)).tolist()
    g_n = np.abs(rng.laplace(0.0, b.delta_n, n_agents)).tolist()
    inst = (rng.random(n_agents) < b.p_inst).tolist()
    cash_mult = rng.uniform(100.0, 1000.0, n_agents).tolist()
    hold = rng.uniform(100.0, 1000.0, n_agents).tolist()
    profiles, accounts = [], []
    for gf, gc, gn, institutional, cm, h in zip(g_f, g_c, g_n, inst, cash_mult, hold):
        profiles.append(AgentProfile(
            g_f=gf, g_c=gc, g_n=gn,
            tau_i=derived_horizon(b.tau, gf, gc),
            alpha_i=derived_risk_aversion(alpha_ref, gf, gc),
            institutional=institutional,
        ))
        scale = 2 if institutional else 1
        accounts.append(AgentAccount(
            cash=round(cm * scale) * open_price_ticks,
            holdings=round(h * scale),
        ))
    return profiles, accounts


class MinuteHistory:
    """Per-minute mid-price history with prefix sums for O(1) trailing
    OLS lines and variances."""

    def __init__(self):
        self.values: list[float] = []
        self._s0 = [0.0]   # cumulative sum of y
        self._s1 = [0.0]   # cumulative sum of i*y
        self._s2 = [0.0]   # cumulative sum of y*y

    def append(self, y: float):
        i = len(self.values)
        self.values.append(y)
        self._s0.append(self._s0[-1] + y)
        self._s1.append(self._s1[-1] + i * y)
        self._s2.append(self._s2[-1] + y * y)

    def __len__(self):
        return len(self.values)

    def trend(self, window: int, var_floor: float, var_cap: float,
              ) -> tuple[float, float, int, float]:
        """(intercept, slope, k, var): the chartist line and clipped mid
        variance for an agent with a `window`-minute horizon.

        The line is the OLS fit over the trailing k = min(max(2, window), n)
        points, x = 0 at the first, so the chartist price `minutes` past the
        last point is intercept + slope * (k - 1 + minutes); below two
        points it is 0.0, which `make_order` replaces by the mid. `var` is
        the variance of the trailing min(window, n) points (0.0 below two)
        clipped to [var_floor, var_cap]: without the cap a volatility spike
        collapses every target holding toward zero and the all-sell
        feedback crashes the market. Both depend on `window` only through
        min(window, n).
        """
        n = len(self.values)
        s0, s1, s2 = self._s0, self._s1, self._s2
        intercept, slope, k = 0.0, 0.0, 1
        if n >= 2:
            k = min(max(2, window), n)
            a = n - k
            sy = s0[n] - s0[a]
            # sum of (i - a) * y over the window
            sxy = (s1[n] - s1[a]) - a * sy
            sx = k * (k - 1) / 2.0
            sxx = (k - 1) * k * (2 * k - 1) / 6.0
            slope = (k * sxy - sx * sy) / (k * sxx - sx * sx)
            intercept = (sy - slope * sx) / k
        var = 0.0
        kv = min(window, n)
        if kv >= 2:
            a = n - kv
            sy = s0[n] - s0[a]
            var = max(0.0, (s2[n] - s2[a]) / kv - (sy / kv) ** 2)
        return intercept, slope, k, min(max(var, var_floor), var_cap)


def desired_holding(p_hat: float, price: float, alpha_i: float, var_mid: float) -> float:
    """CARA-optimal holding: log(p_hat / price) / (alpha * var * price)."""
    if price <= 0:
        raise ValueError("candidate price must be positive")
    return math.log(p_hat / price) / (alpha_i * var_mid * price)


class OrderIntent(NamedTuple):
    side: Side
    price: int   # ticks
    size: int    # lots


def make_order(profile: AgentProfile, account: AgentAccount, mid: float, p_c: float,
               var: float, fundamental_now: float, sigma_noise: float,
               band: tuple[float, float], tick_size: float, lot_size: int,
               rng: np.random.Generator) -> OrderIntent | None:
    """One wake-up decision: a single limit order (or nothing).

    The price estimate mixes, by type weight, the fundamental value, the
    chartist price `p_c` (the mid if non-positive) and the first positive
    of up to eight N(mid, sigma_noise) draws (else the mid). `p_c` and the
    clipped mid variance `var` come from `MinuteHistory.trend`. The
    candidate price is uniform in `band` = (low, high) times the mid; the
    CARA demand there, rounded half to even and net of holdings, sets side
    and size; budget/inventory clamps keep the account invariants intact.
    An account with no free lot and less free cash than one lot at the
    candidate price can place nothing, so it returns after the draws,
    which every wake makes, without the demand.
    """
    # the same draws as rng.normal(mid, sigma_noise) and rng.uniform(*band),
    # without their argument handling
    normal = rng.standard_normal
    p_n = mid + sigma_noise * normal()
    draws = 1
    while p_n <= 0 and draws < 8:
        p_n = mid + sigma_noise * normal()
        draws += 1
    low, high = band
    price_ticks = round(mid * (low + (high - low) * rng.random()) / tick_size)
    if price_ticks < 1:
        price_ticks = 1
    lot_cost = price_ticks * lot_size
    if account.free_lots < 1 and account.free_cash < lot_cost:
        return None
    if p_n <= 0:
        p_n = mid
    if p_c <= 0:
        p_c = mid
    p_hat = (profile.g_f * fundamental_now + profile.g_c * p_c
             + profile.g_n * p_n) / profile.total
    if p_hat < 1e-9:
        p_hat = 1e-9
    pi = desired_holding(p_hat, price_ticks * tick_size, profile.alpha_i, var)
    delta = round(pi) - account.holdings
    if delta > 0:
        size = account.free_cash // lot_cost
        if delta < size:
            size = delta
        return OrderIntent(BID, price_ticks, size) if size >= 1 else None
    if delta < 0:
        size = account.free_lots
        if -delta < size:
            size = -delta
        return OrderIntent(ASK, price_ticks, size) if size >= 1 else None
    return None
