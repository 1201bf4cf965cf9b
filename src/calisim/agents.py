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

import numpy as np

from .lob import Side

# Raw bounds: (low, high) per coordinate.
BEHAVIOR_BOUNDS = {
    "delta_f": (0.05, 2.0),
    "delta_c": (0.05, 2.0),
    "delta_n": (0.05, 2.0),
    "tau": (60.0, 3600.0),
    "p_inst": (0.0, 0.5),
}
BEHAVIOR_NAMES = tuple(BEHAVIOR_BOUNDS)
_LOWS = np.array([BEHAVIOR_BOUNDS[k][0] for k in BEHAVIOR_NAMES])
_HIGHS = np.array([BEHAVIOR_BOUNDS[k][1] for k in BEHAVIOR_NAMES])


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


def behavior_variation(b0: BehaviorVector, b1: BehaviorVector) -> float:
    """Squared L2 distance between normalized coordinate vectors."""
    d = b0.normalized() - b1.normalized()
    return float(d @ d)


@dataclass(frozen=True)
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
        object.__setattr__(self, "minutes", max(1, round(self.tau_i / 60)))
        object.__setattr__(self, "total", self.g_f + self.g_c + self.g_n)


@dataclass
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
    if n_agents < 1:
        raise ValueError("n_agents must be >= 1")
    g_f = np.abs(rng.laplace(0.0, b.delta_f, n_agents))
    g_c = np.abs(rng.laplace(0.0, b.delta_c, n_agents))
    g_n = np.abs(rng.laplace(0.0, b.delta_n, n_agents))
    inst = rng.random(n_agents) < b.p_inst
    cash_mult = rng.uniform(100.0, 1000.0, n_agents)
    hold = rng.uniform(100.0, 1000.0, n_agents)
    profiles, accounts = [], []
    for k in range(n_agents):
        profiles.append(AgentProfile(
            g_f=float(g_f[k]), g_c=float(g_c[k]), g_n=float(g_n[k]),
            tau_i=derived_horizon(b.tau, g_f[k], g_c[k]),
            alpha_i=derived_risk_aversion(alpha_ref, g_f[k], g_c[k]),
            institutional=bool(inst[k]),
        ))
        scale = 2 if inst[k] else 1
        accounts.append(AgentAccount(
            cash=int(round(cash_mult[k] * scale)) * open_price_ticks,
            holdings=int(round(hold[k] * scale)),
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

    def trailing_ols(self, window: int, ahead: int) -> float:
        """OLS line over the trailing `window` points extrapolated
        `ahead` steps past the last point."""
        n = len(self.values)
        k = min(window, n)
        a = n - k
        sy = self._s0[n] - self._s0[a]
        # sum of (i - a) * y over the window
        sxy = (self._s1[n] - self._s1[a]) - a * sy
        sx = k * (k - 1) / 2.0
        sxx = (k - 1) * k * (2 * k - 1) / 6.0
        denom = k * sxx - sx * sx
        if denom <= 0:
            return self.values[-1]
        slope = (k * sxy - sx * sy) / denom
        intercept = (sy - slope * sx) / k
        return intercept + slope * (k - 1 + ahead)

    def trailing_var(self, window: int) -> float:
        n = len(self.values)
        k = min(window, n)
        if k < 2:
            return 0.0
        a = n - k
        sy = self._s0[n] - self._s0[a]
        syy = self._s2[n] - self._s2[a]
        return max(0.0, syy / k - (sy / k) ** 2)


def trailing_stats(history: MinuteHistory, minutes: int, var_floor: float,
                   var_cap: float) -> tuple[float, float]:
    """The chartist price and mid variance an agent with a `minutes`
    horizon reads off the history: the OLS line over the trailing
    max(2, minutes) points extrapolated `minutes` ahead (0.0 below two
    points, which `make_order` replaces by the mid), and the trailing
    variance clipped to [var_floor, var_cap]. Without the cap a volatility
    spike collapses every target holding toward zero and the all-sell
    feedback crashes the market."""
    p_c = history.trailing_ols(max(2, minutes), minutes) if len(history) >= 2 else 0.0
    return p_c, min(max(history.trailing_var(minutes), var_floor), var_cap)


def desired_holding(p_hat: float, price: float, alpha_i: float, var_mid: float) -> float:
    """CARA-optimal holding: log(p_hat / price) / (alpha * var * price)."""
    if price <= 0:
        raise ValueError("candidate price must be positive")
    return math.log(p_hat / price) / (alpha_i * var_mid * price)


@dataclass(frozen=True)
class OrderIntent:
    side: Side
    price: int   # ticks
    size: int    # lots


def make_order(profile: AgentProfile, account: AgentAccount, *,
               mid: float, p_c: float, var: float, fundamental_now: float,
               sigma_noise: float, band: tuple[float, float], tick_size: float,
               lot_size: int, rng: np.random.Generator) -> OrderIntent | None:
    """One wake-up decision: a single limit order (or nothing).

    The price estimate mixes, by type weight, the fundamental value, the
    chartist price `p_c` (the mid if non-positive) and the first positive
    of up to eight N(mid, sigma_noise) draws (else the mid). `p_c` and the
    clipped mid variance `var` come from `trailing_stats`. The candidate
    price is uniform in `band` = (low, high) times the mid; the CARA demand
    there, rounded half to even and net of holdings, sets side and size;
    budget/inventory clamps keep the account invariants intact.
    """
    if profile.total <= 0:
        raise ValueError("agent has zero total type weight")
    if p_c <= 0:
        p_c = mid
    # the same draws as rng.normal(mid, sigma_noise) and rng.uniform(*band),
    # without their argument handling
    p_n = mid
    for _ in range(8):
        draw = mid + sigma_noise * rng.standard_normal()
        if draw > 0:
            p_n = draw
            break
    p_hat = max((profile.g_f * fundamental_now + profile.g_c * p_c
                 + profile.g_n * p_n) / profile.total, 1e-9)
    low, high = band
    price_ticks = max(1, round(mid * (low + (high - low) * rng.random()) / tick_size))
    pi = desired_holding(p_hat, price_ticks * tick_size, profile.alpha_i, var)
    delta = round(pi) - account.holdings
    if delta > 0:
        size = min(delta, account.free_cash // (price_ticks * lot_size))
        if size < 1:
            return None
        return OrderIntent(Side.BID, price_ticks, int(size))
    if delta < 0:
        size = min(-delta, account.free_lots)
        if size < 1:
            return None
        return OrderIntent(Side.ASK, price_ticks, int(size))
    return None
