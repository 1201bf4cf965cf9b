"""Daily market-state indicators: true-range trend, efficiency-ratio
noise, macro table lookups, and state assembly/normalization."""

import numpy as np
import pytest

from calisim.marketstate import (
    WINDOW_DAYS,
    DailyBar,
    MacroTable,
    assemble,
    bar_from_mids,
    noise,
    trend,
)


def flat_bars(price: float, n: int = WINDOW_DAYS) -> list[DailyBar]:
    return [DailyBar(price, price, price, price) for _ in range(n)]


def range_bars(low: float, high: float, n: int = WINDOW_DAYS) -> list[DailyBar]:
    close = high
    return [DailyBar(low, high, low, close) for _ in range(n)]


def test_bar_validation():
    with pytest.raises(ValueError):
        DailyBar(open=100.0, high=99.0, low=98.0, close=98.5)
    with pytest.raises(ValueError):
        DailyBar(open=100.0, high=105.0, low=101.0, close=103.0)


def test_bar_from_mids():
    bar = bar_from_mids(np.array([100.0, 104.0, 98.0, 101.0]))
    assert (bar.open, bar.high, bar.low, bar.close) == (100.0, 104.0, 98.0, 101.0)


def test_trend_flat_is_zero():
    assert trend(flat_bars(100.0)) == 0.0


def test_trend_constant_range_closed_form():
    """Every bar spans [c-r, c]: TR = r each day, so trend = r / c."""
    r, c = 3.0, 100.0
    assert trend(range_bars(c - r, c)) == pytest.approx(r / c)


def test_trend_gap_day_three_bar_case():
    """A gap day's true range extends to the previous close."""
    bars = [DailyBar(100, 101, 99, 100),     # first bar: TR = high - low = 2
            DailyBar(110, 111, 109, 110),    # gap up: TR = 111 - 100 = 11
            DailyBar(110, 111, 109, 110)]    # no gap: TR = 2
    bars += flat_bars(110.0, WINDOW_DAYS - 3)
    expected = (2 / 100 + 11 / 110 + 2 / 110 + 0.0 * 17) / WINDOW_DAYS
    assert trend(bars) == pytest.approx(expected)


def test_trend_scale_invariance():
    bars = [DailyBar(100 + i, 102 + i, 99 + i, 101 + i) for i in range(WINDOW_DAYS)]
    scaled = [DailyBar(b.open * 1000, b.high * 1000, b.low * 1000, b.close * 1000)
              for b in bars]
    assert trend(scaled) == pytest.approx(trend(bars), rel=1e-12)


def test_trend_requires_full_window():
    with pytest.raises(ValueError):
        trend(flat_bars(100.0, WINDOW_DAYS - 1))


def test_noise_monotone_path_is_zero():
    closes = np.linspace(100.0, 120.0, WINDOW_DAYS)
    assert noise(closes) == 0.0


def test_noise_zigzag_round_trip_is_one():
    closes = np.array([100.0, 101.0] * (WINDOW_DAYS // 2))
    # ends where it started relative to |c19 - c0| = 1 over path 19 -> close to 1
    path = np.sum(np.abs(np.diff(closes)))
    assert noise(closes) == pytest.approx(1.0 - 1.0 / path)
    # exact round trip: first == last
    rt = closes.copy()
    rt[-1] = rt[0]
    assert noise(rt) == 1.0


def test_noise_constant_path_is_zero():
    assert noise(np.full(WINDOW_DAYS, 100.0)) == 0.0


def test_noise_requires_full_window():
    with pytest.raises(ValueError):
        noise(np.ones(WINDOW_DAYS + 1))


def test_macro_lookup_and_missing_month():
    table = MacroTable({(2020, 1): (102.0, 100.5, 50.0)})
    assert table.lookup(2020, 1) == (102.0, 100.5, 50.0)
    with pytest.raises(KeyError, match="2020-02"):
        table.lookup(2020, 2)


def test_macro_roundtrip(tmp_path):
    table = MacroTable({(2020, 1): (102.0, 100.5, 50.0),
                        (2020, 2): (101.5, 99.0, 51.5)})
    p = tmp_path / "macro.csv"
    table.write(p)
    assert MacroTable.read(p).rows == table.rows


def test_assemble_vector_layout():
    table = MacroTable({(2021, 3): (103.0, 101.0, 49.0)})
    bars = range_bars(98.0, 100.0)
    x = assemble(2021, 3, table, bars)
    assert x.shape == (5,)
    assert np.allclose(x[:3], [103.0, 101.0, 49.0])
    assert x[3] == pytest.approx(2.0 / 100.0)
    assert x[4] == 0.0  # constant closes
