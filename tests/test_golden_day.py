"""Golden days: SHA-256 digests of whole days pin the simulator's output bit
for bit, so a speed-up of the decision path or the slot loop cannot change
an event, a mid or a feature without failing here. Four days run at the ci
profile; two more run in a market with other tick, lot, band, open-price
and population settings, so the lot-sizing and price-grid paths are pinned
too. Three last days pin the edges of the day: a single agent, a full
schedule where every agent wakes in every slot, and a day that ends in a
partial minute.

The digests were computed with the straightforward per-wake decision path
(every trailing statistic recomputed on every wake). Regenerate them only
for a change that is meant to alter the RNG stream or the market rules,
and say so where the change is recorded.
"""

import hashlib

import numpy as np
import pytest

from calisim import features
from calisim.agents import BehaviorVector
from calisim.simulator import FundamentalSeries, SimConfig, run_day

CFG = SimConfig(slots_per_day=3600, n_agents=100)   # the ci profile's day
# a non-ci market: multi-share lots, a coarser tick, a narrower price band,
# a lower open and a smaller population
ALT = SimConfig(slots_per_day=3600, n_agents=60, tick_size=0.05, lot_size=5,
                open_price=50.0, lambda_band=0.02)


def _fund(kind: str) -> FundamentalSeries:
    n = CFG.fundamental_len
    if kind == "flat":
        return FundamentalSeries(np.full(n, 100.0))
    if kind == "ramp":   # a new value at every ten-minute boundary
        return FundamentalSeries(100.0 + 0.5 * np.arange(n))
    if kind == "zigzag":
        return FundamentalSeries(100.0 + np.array([3.0, -2.0, 4.0, -5.0, 1.0, 0.0]))
    raise ValueError(kind)


def day_digest(stream) -> str:
    h = hashlib.sha256()
    for e in stream.events:
        h.update(repr((e.slot, e.seq, e.kind, e.order_id, e.agent, e.side,
                       e.price, e.size, e.match_id)).encode())
    h.update(np.ascontiguousarray(stream.mid_slot, dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(features.extract(stream), dtype=np.float64).tobytes())
    return h.hexdigest()


# (behavior, fundamental, seed) -> digest
GOLDEN = [
    # every coordinate mid-range
    ((1.025, 1.025, 1.025, 1830.0, 0.25), "flat", 123,
     "011ed65fc1e68e82ae78c33b34aa2971f2a10b21f9fdb3234e28e556674d6ca9"),
    # tau at its lower bound (one-minute horizons), chartist-heavy
    ((0.3, 1.8, 0.6, 60.0, 0.1), "ramp", 7,
     "f20852991685f2c82273aa856346cfd5e5654400be1f20438f671b78c34b85fa"),
    # tau at its upper bound, many institutions
    ((1.5, 0.2, 0.9, 3600.0, 0.5), "zigzag", 2024,
     "b2a8e7bd41eb1851413558f21cf76b12f98166b957ecee20e64bef15c7f161f0"),
    # noise-heavy, no institutions
    ((0.05, 0.4, 2.0, 600.0, 0.0), "ramp", 99,
     "872163bcfdb2f01ba9f8084e4eceb60a499839f4ccc8dd73d54ea781c61cd1e5"),
]


@pytest.mark.parametrize("raw, fund, seed, digest", GOLDEN,
                         ids=[f"seed{g[2]}" for g in GOLDEN])
def test_golden_day_digest(raw, fund, seed, digest):
    stream = run_day(CFG, BehaviorVector(*raw), _fund(fund), seed=seed)
    assert day_digest(stream) == digest


# (behavior, fundamental offsets from the open, seed) -> digest, at ALT
GOLDEN_ALT = [
    ((0.8, 1.2, 0.5, 900.0, 0.3), (0.0, 0.5, 1.0, 1.5, 2.0, 2.5), 5,
     "f5e44d5cb169a967acdc5097cff6e1bd77c3b5512a6d38da294f3d990a5f81e0"),
    ((1.8, 0.1, 1.1, 120.0, 0.05), (2.0, -1.5, 1.0, -2.5, 0.5, 0.0), 31,
     "df8283697777786042c0bed7b9997f34114c0da3acedcaa31b04e11d6966e282"),
]


@pytest.mark.parametrize("raw, offsets, seed, digest", GOLDEN_ALT,
                         ids=[f"seed{g[2]}" for g in GOLDEN_ALT])
def test_golden_day_digest_non_ci_market(raw, offsets, seed, digest):
    fund = FundamentalSeries(ALT.open_price + np.array(offsets))
    stream = run_day(ALT, BehaviorVector(*raw), fund, seed=seed)
    assert day_digest(stream) == digest


# Edges of the wake schedule. One agent: every wake index is its slot. A
# 600-slot day (the shortest that holds a fundamental sample) at
# wake_prob=1.0: every agent wakes in every slot, so the schedule is full.
# A 1230-slot day: 20 whole minutes and a trailing 30-slot minute that the
# history never records, and slots 1200-1229 past the last fundamental
# sample, where the series index clamps to its last value.
# (config, behavior, fundamental, seed) -> digest
GOLDEN_EDGE = [
    (SimConfig(slots_per_day=3600, n_agents=1, wake_prob=0.1),
     (1.025, 1.025, 1.025, 300.0, 0.25), (100.0, 101.0, 99.0, 102.0, 98.0, 100.5), 17,
     "8e1d92e1c31f379f11f1b4ee454d5e72a074247ebaa46dcb7b92a579132e8f70"),
    (SimConfig(slots_per_day=600, n_agents=20, wake_prob=1.0),
     (0.8, 1.2, 0.5, 120.0, 0.2), (101.0,), 3,
     "54396696a273d57d133f9bad34b9c86282dc42cd8d0b3f16e04c2b13e166681f"),
    (SimConfig(slots_per_day=1230, n_agents=40),
     (0.6, 1.4, 0.7, 240.0, 0.15), (100.0, 101.5), 11,
     "baa8bb950a2e4ac282f40f8297c4836fd2d5c669b243f10b50287f89904aee05"),
]


@pytest.mark.parametrize("cfg, raw, fund, seed, digest", GOLDEN_EDGE,
                         ids=["one_agent", "every_agent_every_slot", "partial_last_minute"])
def test_golden_day_digest_wake_schedule_edges(cfg, raw, fund, seed, digest):
    stream = run_day(cfg, BehaviorVector(*raw), FundamentalSeries(np.array(fund)), seed=seed)
    assert day_digest(stream) == digest
