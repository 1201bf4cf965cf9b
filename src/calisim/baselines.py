"""Search-based calibration baselines: per-day random search and Gaussian
process Bayesian optimization over the normalized behavior space, scoring
each candidate by the simulated reconstruction error against the day's
target features.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

# scipy is imported inside the three GP functions that use it, not here: only
# GP-BO needs it, and every other calisim process is spared its import time
# and resident memory

from . import features as feat
from .agents import N_BEHAVIOR, BehaviorVector
from .features import FeatureNormalizer
from .simulator import FundamentalSeries, SimConfig, run_day

WARM_STARTS = 3
EI_CANDIDATES = 1024
NOISE_VAR = 1e-6
_SQRT_2PI = np.sqrt(2 * np.pi)


@dataclass
class DayScore:
    """Scores candidates on one day: `score(b, seed)` simulates the day under
    `b` and returns the reconstruction error of its features against the
    z-scored targets. `calls` counts the simulated days."""

    cfg: SimConfig
    fund: FundamentalSeries
    target_z: np.ndarray
    norm: FeatureNormalizer
    calls: int = field(default=0, init=False)

    def __call__(self, b: BehaviorVector, seed: int) -> float:
        self.calls += 1
        q = feat.extract(run_day(self.cfg, b, self.fund, seed=seed))
        return feat.reconstruction_error_z(self.norm.transform(q), self.target_z)


def random_search(score: Callable[[BehaviorVector, int], float], trials: int,
                  seed: int = 0) -> tuple[BehaviorVector, float]:
    """Uniform candidates in normalized space; argmin of `score`, called
    exactly `trials` times."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xA5]))
    best_b, best_s = None, np.inf
    for t in range(trials):
        b = BehaviorVector.from_normalized(rng.random(N_BEHAVIOR))
        s = score(b, int(rng.integers(2 ** 31)))
        if s < best_s:
            best_b, best_s = b, s
    return best_b, float(best_s)


# -- Gaussian process ------------------------------------------------------------


@dataclass
class GPModel:
    """Zero-mean GP with a squared-exponential kernel on [0,1]^5."""

    x: np.ndarray          # (n, 5)
    y_mean: float
    length: float
    signal: float
    chol: np.ndarray
    alpha: np.ndarray      # K^{-1} y

    @staticmethod
    def _kernel(a: np.ndarray, b: np.ndarray, length: float, signal: float) -> np.ndarray:
        d2 = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)
        return signal * np.exp(-0.5 * d2 / (length * length))

    @staticmethod
    def fit(x: np.ndarray, y: np.ndarray) -> "GPModel":
        """Length scale chosen by maximum marginal likelihood over a log grid;
        signal variance set to the sample variance of the centered scores."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        y_mean = float(y.mean())
        yc = y - y_mean
        signal = max(float(yc.var()), 1e-12)
        best = (-np.inf, None, None, None)
        for length in np.geomspace(0.05, 5.0, 12):
            k = GPModel._kernel(x, x, length, signal)
            chol, alpha = _chol_solve(k, yc)
            if chol is None:
                continue
            mll = (-0.5 * yc @ alpha - np.sum(np.log(np.diag(chol)))
                   - 0.5 * len(y) * np.log(2 * np.pi))
            if mll > best[0]:
                best = (mll, length, chol, alpha)
        if best[1] is None:
            raise np.linalg.LinAlgError("GP kernel not positive definite at any length scale")
        _, length, chol, alpha = best
        return GPModel(x, y_mean, float(length), signal, chol, alpha)

    def posterior(self, xq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Mean and variance at query points (n_q, 5)."""
        from scipy.linalg import solve_triangular
        xq = np.atleast_2d(np.asarray(xq, dtype=float))
        ks = self._kernel(self.x, xq, self.length, self.signal)
        mu = self.y_mean + ks.T @ self.alpha
        w = solve_triangular(self.chol, ks, lower=True)
        var = self.signal + NOISE_VAR - np.sum(w * w, axis=0)
        return mu, np.maximum(var, 0.0)


def _chol_solve(k: np.ndarray, y: np.ndarray):
    """Cholesky of K + noise with escalating jitter; (None, None) if hopeless."""
    from scipy.linalg import solve_triangular
    jitter = NOISE_VAR
    for _ in range(6):
        try:
            chol = np.linalg.cholesky(k + jitter * np.eye(len(k)))
        except np.linalg.LinAlgError:
            jitter *= 10.0
            continue
        w = solve_triangular(chol, y, lower=True)
        alpha = solve_triangular(chol.T, w, lower=False)
        return chol, alpha
    return None, None


def expected_improvement(mu: np.ndarray, var: np.ndarray, best: float) -> np.ndarray:
    """EI for minimization; exactly zero where the variance is zero. The
    normal CDF and density are the ones SciPy's normal distribution evaluates
    at finite z, so the result matches its cdf/pdf formula bit for bit."""
    from scipy.special import ndtr
    sd = np.sqrt(var)
    ei = np.zeros_like(mu)
    pos = sd > 0
    z = (best - mu[pos]) / sd[pos]
    pdf = np.exp(-z ** 2 / 2.0) / _SQRT_2PI
    ei[pos] = (best - mu[pos]) * ndtr(z) + sd[pos] * pdf
    return np.maximum(ei, 0.0)


def bayes_opt(score: Callable[[BehaviorVector, int], float], trials: int,
              seed: int = 0) -> tuple[BehaviorVector, float]:
    """3 uniform warm starts, then EI-guided evaluations up to `trials`
    calls of `score` in total; returns the best observed candidate."""
    if trials < WARM_STARTS + 1:
        raise ValueError(f"trials must be > {WARM_STARTS} warm starts")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xB0]))
    xs, ys = [], []
    for t in range(trials):
        if t < WARM_STARTS:
            cand = rng.random(N_BEHAVIOR)
        else:
            gp = GPModel.fit(np.array(xs), np.array(ys))
            # half uniform, half local jitter around the incumbent
            half = EI_CANDIDATES // 2
            incumbent = xs[int(np.argmin(ys))]
            local = np.clip(incumbent + rng.normal(0.0, 0.1, (half, N_BEHAVIOR)), 0.0, 1.0)
            cands = np.vstack([rng.random((EI_CANDIDATES - half, N_BEHAVIOR)), local])
            mu, var = gp.posterior(cands)
            ei = expected_improvement(mu, var, best=float(np.min(ys)))
            cand = cands[int(np.argmax(ei))]
        xs.append(cand)
        ys.append(score(BehaviorVector.from_normalized(cand), int(rng.integers(2 ** 31))))
    k = int(np.argmin(ys))
    return BehaviorVector.from_normalized(xs[k]), float(ys[k])
