"""Stylized-fact feature extraction from one day's order stream.

Thirteen statistics in four groups: minutely return distribution,
volatility clustering, limit-order size distribution, and limit-order
price distance from the prevailing mid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats

from . import simulator as sim
from .simulator import OrderStream

FEATURE_NAMES = (
    "gain_loss_ratio", "kurtosis", "zero_return_ratio",
    "vc_1", "vc_2", "vc_3", "vc_mean10",
    "size_le_1", "size_le_5", "size_le_10", "size_le_50",
    "px_within_1_tick", "px_within_5_ticks",
)
N_FEATURES = len(FEATURE_NAMES)

SIZE_CAP_LOTS = 100
SIZE_THRESHOLDS = (1, 5, 10, 50)
PRICE_GAP_MAX_TICKS = 10
PRICE_GAP_THRESHOLDS = (1, 5)


def returns(mid_minutely: np.ndarray) -> np.ndarray:
    """Log returns of the per-minute mid series."""
    p = np.asarray(mid_minutely, dtype=float)
    if len(p) < 2:
        raise ValueError("need at least two mid prices for returns")
    if np.any(p <= 0):
        raise ValueError("mid prices must be positive")
    return np.diff(np.log(p))


def lag_corr(x: np.ndarray, lag: int) -> float:
    """Pearson correlation of x_t with x_{t+lag}; 0 on degenerate input."""
    if lag >= len(x):
        return 0.0
    a, b = x[:-lag], x[lag:]
    if np.std(a) == 0 or np.std(b) == 0:
        return 0.0
    return float(np.corrcoef(a, b)[0, 1])


def _mid_slot_series(stream: OrderStream) -> np.ndarray:
    if len(stream.mid_slot) == stream.slots_per_day:
        return stream.mid_slot
    return sim.replay(stream, check_trades=False)


def extract(stream: OrderStream) -> np.ndarray:
    """The 13-dimensional feature vector of one day's stream.

    The mid used for the price-gap group is the post-batch mid of the slot
    preceding each placement (the day open for slot 0).
    """
    r = returns(stream.mid_minute * stream.tick_size)
    n_pos = int(np.sum(r > 0))
    n_neg = int(np.sum(r < 0))
    gain_loss = n_pos / max(n_neg, 1)
    kurt = float(stats.kurtosis(r, fisher=True, bias=True)) if np.std(r) > 0 else 0.0
    zero_ratio = float(np.mean(r == 0))
    r2 = r * r
    vc = [lag_corr(r2, n) for n in range(1, 11)]
    vc_mean10 = float(np.mean(vc))

    mid_slot = _mid_slot_series(stream)
    sizes = []
    gaps = []
    for e in stream.events:
        if e.kind != "PLACE":
            continue
        sizes.append(e.size)
        ref = mid_slot[e.slot - 1] if e.slot > 0 else float(stream.open_price_ticks)
        gaps.append(abs(e.price - ref))
    sizes = np.array(sizes, dtype=float)
    gaps = np.array(gaps, dtype=float)

    size_pool = sizes[sizes <= SIZE_CAP_LOTS]
    if len(size_pool):
        size_ratios = [float(np.mean(size_pool <= t)) for t in SIZE_THRESHOLDS]
    else:
        size_ratios = [0.0] * len(SIZE_THRESHOLDS)
    gap_pool = gaps[(gaps >= 1) & (gaps <= PRICE_GAP_MAX_TICKS)]
    if len(gap_pool):
        gap_ratios = [float(np.mean(gap_pool <= t)) for t in PRICE_GAP_THRESHOLDS]
    else:
        gap_ratios = [0.0] * len(PRICE_GAP_THRESHOLDS)

    return np.array([gain_loss, kurt, zero_ratio, vc[0], vc[1], vc[2], vc_mean10,
                     *size_ratios, *gap_ratios])


@dataclass
class FeatureNormalizer:
    """Per-dimension z-score statistics fitted on a training corpus: the one
    normalizer for daily features, market states and the benchmark
    generator's state statistics. A constant column gets std STD_FLOOR."""

    mean: np.ndarray
    std: np.ndarray

    STD_FLOOR = 1e-9

    @staticmethod
    def fit(rows: np.ndarray) -> "FeatureNormalizer":
        rows = np.asarray(rows, dtype=float)
        std = rows.std(axis=0)
        return FeatureNormalizer(rows.mean(axis=0),
                                 np.maximum(std, FeatureNormalizer.STD_FLOOR))

    def transform(self, f: np.ndarray) -> np.ndarray:
        return (np.asarray(f, dtype=float) - self.mean) / self.std

    def as_tensors(self, prefix: str) -> dict[str, np.ndarray]:
        return {f"{prefix}.mean": self.mean, f"{prefix}.std": self.std}

    @staticmethod
    def from_tensors(tensors: dict[str, np.ndarray], prefix: str) -> "FeatureNormalizer":
        return FeatureNormalizer(tensors[f"{prefix}.mean"], tensors[f"{prefix}.std"])


def reconstruction_error(f_hat: np.ndarray, f_target: np.ndarray,
                         norm: FeatureNormalizer) -> float:
    """Summed squared error in z-scored feature space."""
    d = norm.transform(f_hat) - norm.transform(f_target)
    return float(d @ d)


def reconstruction_error_z(z_hat: np.ndarray, z_target: np.ndarray) -> float:
    """Same metric for inputs already in z-space."""
    d = np.asarray(z_hat) - np.asarray(z_target)
    return float(d @ d)
