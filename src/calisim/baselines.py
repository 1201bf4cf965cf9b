"""Search-based calibration baselines: per-day random search and Gaussian
process Bayesian optimization over the normalized behavior space, scoring
each candidate by the simulated reconstruction error against the day's
target features.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

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
        xq = np.atleast_2d(np.asarray(xq, dtype=float))
        ks = self._kernel(self.x, xq, self.length, self.signal)
        mu = self.y_mean + ks.T @ self.alpha
        w = _solve_triangular(self.chol, ks, lower=True)
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
        w = _solve_triangular(chol, y, lower=True)
        alpha = _solve_triangular(chol.T, w, lower=False)
        return chol, alpha
    return None, None


def _solve_triangular(t: np.ndarray, b: np.ndarray, lower: bool) -> np.ndarray:
    """x with t @ x = b for a triangular t (n, n) and b (n,) or (n, m), by
    row-form forward (lower) or back (upper) substitution. numpy has no
    triangular solve; n is at most the search budget, so the loop is short."""
    n = len(b)
    x = np.empty_like(b)
    for i in (range(n) if lower else reversed(range(n))):
        done = slice(0, i) if lower else slice(i + 1, n)
        x[i] = (b[i] - t[i, done] @ x[done]) / t[i, i]
    return x


# cephes ndtr.c: erf(x) = x T(x^2) / U(x^2) for |x| < 1, erfc(x) =
# exp(-x^2) P(x) / Q(x) for 1 <= x < 8 and R(x) / S(x) above; Q, S and U are
# written with their leading 1.0
_NDTR_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
           4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_NDTR_Q = (1.0, 1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
           9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_NDTR_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
           6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_NDTR_S = (1.0, 2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
           1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)
_NDTR_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
           7.00332514112805075473E3, 5.55923013010394962768E4)
_NDTR_U = (1.0, 3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
           2.26290000613890934246E4, 4.92673942608635921086E4)
_MAXLOG = 7.09782712893383996843E2    # log(DBL_MAX): exp(-x^2) is 0 below -_MAXLOG


def _horner(x: np.ndarray, coefs: tuple) -> np.ndarray:
    """cephes `polevl`: highest power first, one multiply and one add a step."""
    y = coefs[0]
    for c in coefs[1:]:
        y = y * x + c
    return y


def _ndtr(a: np.ndarray) -> np.ndarray:
    """The standard normal CDF, cephes `ndtr` step for step, so it equals
    SciPy's `special.ndtr` bit for bit. The exponential is libm's
    (`math.exp`), which numpy's own `exp` does not match in every last bit."""
    x = np.asarray(a, dtype=float) * math.sqrt(0.5)
    z = np.abs(x)
    # 0.5 erfc(|x|); 0 where exp(-x^2) underflows, nan stays nan
    y = np.where(np.isnan(x), np.nan, 0.0)
    zc = np.minimum(z, 32.0)    # 32^2 > MAXLOG, and zc * zc cannot overflow
    for lo, hi, num, den in ((1.0, 8.0, _NDTR_P, _NDTR_Q), (8.0, np.inf, _NDTR_R, _NDTR_S)):
        part = (z >= lo) & (z < hi) & (zc * zc <= _MAXLOG)
        t = z[part]
        e = np.fromiter(map(math.exp, (-t * t).tolist()), float, len(t))
        y[part] = 0.5 * (e * _horner(t, num) / _horner(t, den))
    out = np.where(x > 0, 1.0 - y, y)
    small = z < 1.0
    xs = x[small]
    out[small] = 0.5 + 0.5 * (xs * _horner(xs * xs, _NDTR_T) / _horner(xs * xs, _NDTR_U))
    return out


def expected_improvement(mu: np.ndarray, var: np.ndarray, best: float) -> np.ndarray:
    """EI for minimization; exactly zero where the variance is zero. The
    normal CDF and density are the ones SciPy's normal distribution evaluates
    at finite z, so the result matches its cdf/pdf formula bit for bit."""
    sd = np.sqrt(var)
    ei = np.zeros_like(mu)
    pos = sd > 0
    z = (best - mu[pos]) / sd[pos]
    pdf = np.exp(-z ** 2 / 2.0) / _SQRT_2PI
    ei[pos] = (best - mu[pos]) * _ndtr(z) + sd[pos] * pdf
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
