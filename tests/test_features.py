"""Feature extraction: an independent brute-force recount oracle on random
micro-streams, hand-worked examples, and the error/normalization metrics."""

import numpy as np
import pytest
from scipy import stats

from calisim import features as feat
from calisim.features import FeatureNormalizer, reconstruction_error, returns
from calisim.simulator import Event, OrderStream


def make_stream(minute_mids_ticks, events, slots_per_day=None, mid_slot=None):
    slots = slots_per_day or 60 * len(minute_mids_ticks)
    s = OrderStream(open_price=100.0, tick_size=0.01, lot_size=1,
                    slots_per_day=slots, seed=0, events=list(events))
    s.mid_minute = np.asarray(minute_mids_ticks, dtype=float)
    if mid_slot is None:
        # piecewise-constant per-slot mid matching the per-minute series
        mid_slot = np.repeat(s.mid_minute, 60)[:slots]
    s.mid_slot = np.asarray(mid_slot, dtype=float)
    return s


def place(slot, oid, price, size):
    return Event(slot, 0, "PLACE", oid, 0, 0, price, size, -1)


# -- returns ------------------------------------------------------------------------


def test_returns_log_example():
    r = returns(np.array([100.0, 110.0]))
    assert r[0] == pytest.approx(np.log(1.1))
    assert r[0] == pytest.approx(0.0953102, abs=1e-7)


def test_returns_rejects_short_or_nonpositive():
    with pytest.raises(ValueError):
        returns(np.array([100.0]))
    with pytest.raises(ValueError):
        returns(np.array([100.0, -1.0]))


# -- hand example ----------------------------------------------------------------


def test_hand_example_sizes_and_gaps():
    """Orders of sizes {1, 7, 60} at distances {1, 7, 12} ticks from the
    prior mid 10000: size ratios (1/3, 1/3, 2/3, 2/3); the 12-tick order
    leaves the gap pool, giving price ratios (1/2, 1/2)."""
    events = [
        place(60, 1, 10001, 1),    # distance 1, size 1
        place(60, 2, 10007, 7),    # distance 7, size 7
        place(60, 3, 10012, 60),   # distance 12 (outside the 10-tick pool)
    ]
    s = make_stream([10000.0] * 10, events)
    q = feat.extract(s)
    by = dict(zip(feat.FEATURE_NAMES, q))
    assert by["size_le_1"] == pytest.approx(1 / 3)
    assert by["size_le_5"] == pytest.approx(1 / 3)
    assert by["size_le_10"] == pytest.approx(2 / 3)
    assert by["size_le_50"] == pytest.approx(2 / 3)
    assert by["px_within_1_tick"] == pytest.approx(1 / 2)
    assert by["px_within_5_ticks"] == pytest.approx(1 / 2)
    # flat mid: no gains, no losses, all-zero returns
    assert by["gain_loss_ratio"] == 0.0
    assert by["zero_return_ratio"] == 1.0
    assert by["kurtosis"] == 0.0


def test_size_pool_excludes_large_orders():
    events = [place(60, 1, 10001, 5), place(60, 2, 10001, 500)]
    s = make_stream([10000.0] * 5, events)
    by = dict(zip(feat.FEATURE_NAMES, feat.extract(s)))
    assert by["size_le_5"] == 1.0  # the 500-lot order is not in the pool


def test_slot_zero_gap_uses_day_open():
    events = [place(0, 1, 10003, 1)]
    s = make_stream([10000.0] * 5, events)
    by = dict(zip(feat.FEATURE_NAMES, feat.extract(s)))
    assert by["px_within_1_tick"] == 0.0
    assert by["px_within_5_ticks"] == 1.0


def test_empty_pools_give_zero_ratios():
    s = make_stream([10000.0] * 5, [])
    by = dict(zip(feat.FEATURE_NAMES, feat.extract(s)))
    for name in ("size_le_1", "size_le_50", "px_within_1_tick", "px_within_5_ticks"):
        assert by[name] == 0.0


# -- brute-force recount oracle ----------------------------------------------------


def brute_force_features(s: OrderStream) -> np.ndarray:
    """Independent recount of all thirteen statistics, written as directly
    as possible from the definitions."""
    prices = s.mid_minute * s.tick_size
    r = np.array([np.log(prices[i + 1]) - np.log(prices[i])
                  for i in range(len(prices) - 1)])
    gains = sum(1 for v in r if v > 0)
    losses = sum(1 for v in r if v < 0)
    gain_loss = gains / losses if losses else float(gains)
    kurt = stats.kurtosis(r, fisher=True, bias=True) if np.std(r) > 0 else 0.0
    zero_ratio = sum(1 for v in r if v == 0) / len(r)
    r2 = r * r
    vcs = []
    for lag in range(1, 11):
        if lag >= len(r2) or np.std(r2[:-lag]) == 0 or np.std(r2[lag:]) == 0:
            vcs.append(0.0)
        else:
            vcs.append(float(stats.pearsonr(r2[:-lag], r2[lag:])[0]))

    sizes, gaps = [], []
    for e in s.events:
        if e.kind != "PLACE":
            continue
        sizes.append(e.size)
        ref = s.mid_slot[e.slot - 1] if e.slot > 0 else s.open_price_ticks
        gaps.append(abs(e.price - ref))
    small = [x for x in sizes if x <= 100]
    size_ratios = [(sum(1 for x in small if x <= t) / len(small)) if small else 0.0
                   for t in (1, 5, 10, 50)]
    pool = [g for g in gaps if 1 <= g <= 10]
    gap_ratios = [(sum(1 for g in pool if g <= t) / len(pool)) if pool else 0.0
                  for t in (1, 5)]
    return np.array([gain_loss, kurt, zero_ratio, vcs[0], vcs[1], vcs[2],
                     float(np.mean(vcs)), *size_ratios, *gap_ratios])


def test_extract_matches_brute_force_on_random_micro_streams():
    rng = np.random.default_rng(2024)
    for case in range(60):
        n_min = int(rng.integers(2, 16))
        mids = rng.integers(9900, 10100, n_min).astype(float)
        slots = 60 * n_min
        events = []
        for oid in range(int(rng.integers(0, 11))):
            slot = int(rng.integers(0, slots))
            price = int(rng.integers(9890, 10110))
            size = int(rng.integers(1, 200))
            events.append(place(slot, oid, price, size))
        events.sort(key=lambda e: e.slot)
        mid_slot = np.repeat(mids, 60)
        s = make_stream(mids, events, slots_per_day=slots, mid_slot=mid_slot)
        got = feat.extract(s)
        want = brute_force_features(s)
        assert np.allclose(got, want, atol=1e-12), f"case {case}: {got} vs {want}"


def test_ratio_fields_in_unit_interval_vc_bounded():
    rng = np.random.default_rng(7)
    mids = rng.integers(9900, 10100, 30).astype(float)
    events = [place(int(rng.integers(0, 1800)), i, int(rng.integers(9890, 10110)),
                    int(rng.integers(1, 120))) for i in range(50)]
    events.sort(key=lambda e: e.slot)
    q = dict(zip(feat.FEATURE_NAMES, feat.extract(make_stream(mids, events))))
    for name in ("zero_return_ratio", "size_le_1", "size_le_5", "size_le_10",
                 "size_le_50", "px_within_1_tick", "px_within_5_ticks"):
        assert 0.0 <= q[name] <= 1.0
    for name in ("vc_1", "vc_2", "vc_3", "vc_mean10"):
        assert -1.0 <= q[name] <= 1.0
    assert all(np.isfinite(list(q.values())))


# -- metrics ------------------------------------------------------------------------


def unit_normalizer() -> FeatureNormalizer:
    return FeatureNormalizer(np.zeros(13), np.ones(13))


def test_reconstruction_error_examples():
    norm = unit_normalizer()
    f = np.arange(13.0)
    assert reconstruction_error(f, f, norm) == 0.0
    g = f.copy()
    g[0] += 1.0
    assert reconstruction_error(g, f, norm) == pytest.approx(1.0)
    h = f.copy()
    h[:5] += 1.0
    assert reconstruction_error(h, f, norm) == pytest.approx(5.0)


def test_reconstruction_error_uses_z_space():
    norm = FeatureNormalizer(np.zeros(13), np.full(13, 2.0))
    f = np.zeros(13)
    g = np.zeros(13)
    g[0] = 2.0  # one raw unit of 2 = one z unit
    assert reconstruction_error(g, f, norm) == pytest.approx(1.0)


@pytest.mark.parametrize("rows, dead", [
    (np.random.default_rng(5).normal(3.0, 2.0, (40, 13)), 4),
    (np.random.default_rng(0).normal(5.0, 3.0, (50, 5)), 2),
], ids=["features", "states"])
def test_normalizer_zscore_and_floor(rows, dead):
    rows = rows.copy()
    rows[:, dead] = 7.0  # degenerate dimension
    norm = FeatureNormalizer.fit(rows)
    assert norm.std[dead] == FeatureNormalizer.STD_FLOOR == 1e-9
    z = norm.transform(rows)
    live = np.arange(rows.shape[1]) != dead
    assert np.allclose(z[:, live].mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(z[:, live].std(axis=0), 1.0, atol=1e-12)
    assert np.array_equal(z[:, dead], np.zeros(len(rows)))


def test_lag_corr_degenerate_inputs():
    assert feat.lag_corr(np.array([1.0, 1.0, 1.0]), 1) == 0.0
    assert feat.lag_corr(np.array([1.0, 2.0]), 5) == 0.0
