"""Search-based calibration baselines: per-day random search and Gaussian
process Bayesian optimization over the normalized behavior space, scoring
each candidate by the simulated reconstruction error against the day's
target features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats
from scipy.linalg import solve_triangular

from . import features as feat
from .agents import N_BEHAVIOR, BehaviorVector
from .features import FeatureNormalizer
from .simulator import FundamentalSeries, SimConfig, run_day

WARM_STARTS = 3
EI_CANDIDATES = 1024
NOISE_VAR = 1e-6


def _score(b: BehaviorVector, cfg: SimConfig, fund: FundamentalSeries,
           target_z: np.ndarray, norm: FeatureNormalizer, seed: int) -> float:
    """Reconstruction error of one simulated day against z-scored targets."""
    q = feat.extract(run_day(cfg, b, fund, seed=seed))
    return feat.reconstruction_error_z(norm.transform(q), target_z)


def random_search(cfg: SimConfig, fund: FundamentalSeries, target_z: np.ndarray,
                  norm: FeatureNormalizer, trials: int = 10, seed: int = 0,
                  ) -> tuple[BehaviorVector, float]:
    """Uniform candidates in normalized space; argmin simulated error.

    Exactly `trials` simulator calls.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xA5]))
    best_b, best_s = None, np.inf
    for t in range(trials):
        b = BehaviorVector.from_normalized(rng.random(N_BEHAVIOR))
        s = _score(b, cfg, fund, target_z, norm, seed=int(rng.integers(2 ** 31)))
        if s < best_s:
            best_b, best_s = b, s
    return best_b, float(best_s)


# -- Gaussian process ------------------------------------------------------------


@dataclass
class GPModel:
    """Zero-mean GP with a squared-exponential kernel on [0,1]^5."""

    x: np.ndarray          # (n, 5)
    y: np.ndarray          # (n,) centered scores
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
        return GPModel(x, yc, y_mean, float(length), signal, chol, alpha)

    def posterior(self, xq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Mean and variance at query points (n_q, 5)."""
        xq = np.atleast_2d(np.asarray(xq, dtype=float))
        ks = self._kernel(self.x, xq, self.length, self.signal)
        mu = self.y_mean + ks.T @ self.alpha
        w = solve_triangular(self.chol, ks, lower=True)
        var = self.signal + NOISE_VAR - np.sum(w * w, axis=0)
        return mu, np.maximum(var, 0.0)


def _chol_solve(k: np.ndarray, y: np.ndarray):
    """Cholesky of K + noise with escalating jitter; (None, None) if hopeless."""
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
    """EI for minimization; exactly zero where the variance is zero."""
    sd = np.sqrt(var)
    ei = np.zeros_like(mu)
    pos = sd > 0
    z = (best - mu[pos]) / sd[pos]
    ei[pos] = (best - mu[pos]) * stats.norm.cdf(z) + sd[pos] * stats.norm.pdf(z)
    return np.maximum(ei, 0.0)


def bayes_opt(cfg: SimConfig, fund: FundamentalSeries, target_z: np.ndarray,
              norm: FeatureNormalizer, trials: int = 10, seed: int = 0,
              ) -> tuple[BehaviorVector, float]:
    """3 uniform warm starts, then EI-guided evaluations up to `trials`
    total simulator calls; returns the best observed candidate."""
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
        ys.append(_score(BehaviorVector.from_normalized(cand), cfg, fund, target_z, norm,
                         seed=int(rng.integers(2 ** 31))))
    k = int(np.argmin(ys))
    return BehaviorVector.from_normalized(xs[k]), float(ys[k])
