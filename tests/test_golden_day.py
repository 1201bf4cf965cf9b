"""Golden days: SHA-256 digests of whole CI-profile days pin the simulator's
output bit for bit, so a speed-up of the decision path or the slot loop
cannot change an event, a mid or a feature without failing here.

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
