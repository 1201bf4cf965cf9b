"""Daily 5-dimensional market state: exogenous CPI/PPI/PMI from a monthly
macro file plus trend (average-true-range based) and noise (efficiency
ratio) computed from the asset's own daily bars over a trailing month.
States are z-scored with `features.FeatureNormalizer`."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .tables import read_table, write_table

STATE_NAMES = ("cpi", "ppi", "pmi", "trend", "noise")
N_STATE = len(STATE_NAMES)
WINDOW_DAYS = 20  # one trading month
MACRO_HEADER = ["year", "month", "cpi", "ppi", "pmi"]


@dataclass(frozen=True)
class DailyBar:
    open: float
    high: float
    low: float
    close: float

    def __post_init__(self):
        if not (self.low <= self.open <= self.high and self.low <= self.close <= self.high):
            raise ValueError("bar violates low <= open, close <= high")


def bar_from_mids(mids: np.ndarray) -> DailyBar:
    """OHLC of a day's mid series (any sampling)."""
    m = np.asarray(mids, dtype=float)
    return DailyBar(float(m[0]), float(m.max()), float(m.min()), float(m[-1]))


def trend(bars: list[DailyBar]) -> float:
    """Mean of true range over close across the trailing window.

    TR uses the previous close for gap days; the first bar falls back to
    high - low. Normalizing by close makes the value scale-free.
    """
    if len(bars) != WINDOW_DAYS:
        raise ValueError(f"trend needs exactly {WINDOW_DAYS} bars")
    total = 0.0
    prev_close = None
    for bar in bars:
        tr = bar.high - bar.low
        if prev_close is not None:
            tr = max(tr, abs(bar.high - prev_close), abs(bar.low - prev_close))
        total += tr / bar.close
        prev_close = bar.close
    return total / len(bars)


def noise(closes: np.ndarray) -> float:
    """1 - efficiency ratio: 0 for a monotone path, 1 for a round trip."""
    c = np.asarray(closes, dtype=float)
    if len(c) != WINDOW_DAYS:
        raise ValueError(f"noise needs exactly {WINDOW_DAYS} closes")
    path = np.sum(np.abs(np.diff(c)))
    if path == 0:
        return 0.0
    return 1.0 - abs(c[-1] - c[0]) / path


@dataclass
class MacroTable:
    """Monthly CPI/PPI/PMI values keyed by (year, month)."""

    rows: dict[tuple[int, int], tuple[float, float, float]]

    @staticmethod
    def read(path: Path) -> "MacroTable":
        return MacroTable(dict(read_table(path, MACRO_HEADER, lambda row: (
            (int(row[0]), int(row[1])), tuple(float(v) for v in row[2:])))))

    def write(self, path: Path):
        write_table(path, MACRO_HEADER,
                    ([y, m, *vals] for (y, m), vals in sorted(self.rows.items())))

    def lookup(self, year: int, month: int) -> tuple[float, float, float]:
        key = (year, month)
        if key not in self.rows:
            raise KeyError(f"macro table has no entry for {year}-{month:02d}")
        return self.rows[key]


def assemble(year: int, month: int, macro: MacroTable,
             bars: list[DailyBar]) -> np.ndarray:
    """Raw (un-normalized) state vector for one day: monthly macro values
    held constant within the month, trend/noise from the trailing bars."""
    cpi, ppi, pmi = macro.lookup(year, month)
    closes = np.array([b.close for b in bars])
    return np.array([cpi, ppi, pmi, trend(bars), noise(closes)])
