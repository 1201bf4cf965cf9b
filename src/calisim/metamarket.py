"""One-shot calibrator: a recurrent implicit-feature extractor over a
month of daily feature vectors, plus a market-state analyzer that
generates the weights of a one-layer behavior estimator (a hypernetwork).

The estimator consumes the implicit feature u while the analyzer consumes
the explicit market state x. Note: the source equations for this design
present the opposite wiring (estimator over x, analyzer over u), which
contradicts their own prose and architecture figure; this implementation
follows the prose. Trained with a composite of reproduction, temporal
consistency, and market-state consistency (triplet) losses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import nn
from .agents import N_BEHAVIOR, BehaviorVector
from .autodiff import Tensor
from .features import N_FEATURES, FeatureNormalizer
from .marketstate import N_STATE, WINDOW_DAYS
from .surrogate import SurrogateNet
from .tables import numbered, read_table, write_table

HIDDEN = 64
ESTIMATOR_PARAMS = HIDDEN * N_BEHAVIOR + N_BEHAVIOR  # 325
TRIPLET_MARGIN = 0.1
SIMILAR_NOISE = 0.05   # z-units per state dim
DISSIMILAR_NOISE = 0.5
# Rough start: amplified initial weights make the untrained calibrator
# highly sensitive to its inputs, so day-to-day behavior variation starts
# high and the temporal consistency loss visibly smooths it during
# training (with small initial weights the untrained map is almost
# constant across days and the variation curve could only rise).
INIT_GAIN_EXTRACTOR = 8.0
INIT_GAIN_HEAD = 10.0


@dataclass
class DayRecord:
    """One trading day of the calibration corpus (all inputs pre-normalized)."""

    features_z: np.ndarray   # (13,)
    fund_norm: np.ndarray    # (F,) ln(P_k / P_0)
    state_z: np.ndarray      # (5,)


class MetaMarket:
    """The calibrator K = (implicit extractor p_theta1, state analyzer g_omega)."""

    def __init__(self, fund_dim: int, rng: np.random.Generator,
                 feat_norm: FeatureNormalizer | None = None,
                 state_norm: FeatureNormalizer | None = None):
        self.fund_dim = fund_dim
        self.extractor = nn.StackedLSTM(N_FEATURES, HIDDEN, 2, rng, "mm.lstm")
        self.a1 = nn.Affine(N_STATE, 200, rng, "mm.a1")
        self.a2 = nn.Affine(200, 100, rng, "mm.a2")
        self.a3 = nn.Affine(100, ESTIMATOR_PARAMS, rng, "mm.a3")
        for cell in self.extractor.cells:
            cell.W.data *= INIT_GAIN_EXTRACTOR
            cell.U.data *= INIT_GAIN_EXTRACTOR
        self.a3.W.data *= INIT_GAIN_HEAD
        self.feat_norm = feat_norm
        self.state_norm = state_norm

    # -- parameter groups ----------------------------------------------------

    def theta1_params(self) -> list[Tensor]:
        return self.extractor.params()

    def omega_params(self) -> list[Tensor]:
        return nn.collect(self.a1, self.a2, self.a3)

    def params(self) -> list[Tensor]:
        return self.theta1_params() + self.omega_params()

    # -- forward pieces --------------------------------------------------------

    def implicit(self, windows: np.ndarray) -> Tensor:
        """u, (n, HIDDEN), for n z-scored feature windows of shape (n, W, 13)."""
        windows = np.asarray(windows, dtype=float)
        if windows.shape[-2] != WINDOW_DAYS:
            raise ValueError(f"feature window must cover {WINDOW_DAYS} days, "
                             f"got {windows.shape[-2]}")
        return self.extractor.run([Tensor(windows[:, t, :]) for t in range(WINDOW_DAYS)])

    def analyze(self, x: Tensor) -> Tensor:
        """theta2 = g_omega(x): the estimator's weights and bias."""
        return self.a3(ad.relu(self.a2(ad.relu(self.a1(x)))))

    @staticmethod
    def estimate(u: Tensor, theta2: Tensor) -> Tensor:
        """sigmoid(u @ W + b) with (W, b) unpacked per sample from theta2:
        u is (n, HIDDEN) and theta2 is (n, ESTIMATOR_PARAMS)."""
        cut = HIDDEN * N_BEHAVIOR
        n = u.data.shape[0]
        w = ad.reshape(theta2[:, :cut], (n, HIDDEN, N_BEHAVIOR))
        bias = theta2[:, cut:]
        pre = ad.add(ad.vsum(ad.mul(ad.reshape(u, (n, HIDDEN, 1)), w), axis=1), bias)
        return ad.sigmoid(pre)

    def forward(self, windows: np.ndarray, x_z: np.ndarray) -> Tensor:
        """Normalized behavior estimates (n, 5) for n windows and n states."""
        u = self.implicit(windows)
        theta2 = self.analyze(Tensor(np.asarray(x_z, dtype=float)))
        return self.estimate(u, theta2)

    def infer(self, window: np.ndarray, x_z: np.ndarray) -> BehaviorVector:
        """One-shot calibration for a day, from its (W, 13) window and its
        state: zero simulator calls. Days are run as batches of one: a larger
        batch changes the floating-point sums, so it would not reproduce
        these results bit for bit."""
        with ad.no_grad():
            b_norm = self.forward(np.asarray(window, dtype=float)[None],
                                  np.asarray(x_z, dtype=float)[None]).data
        return BehaviorVector.from_normalized(b_norm[0])

    def hypothesize(self, window: np.ndarray, x_factual_z: np.ndarray,
                    x_modified_z: np.ndarray,
                    ) -> tuple[BehaviorVector, BehaviorVector, np.ndarray]:
        """Counterfactual calibration: (factual b, modified b, normalized delta)."""
        b_fact = self.infer(window, x_factual_z)
        b_mod = self.infer(window, x_modified_z)
        return b_fact, b_mod, b_mod.normalized() - b_fact.normalized()

    # -- persistence -----------------------------------------------------------

    def save(self, path: Path):
        tensors = dict(nn.named_params(self.params()))
        tensors["mm.fund_dim"] = np.array([self.fund_dim], dtype=float)
        if self.feat_norm is not None:
            tensors.update(self.feat_norm.as_tensors("mm.feat_norm"))
        if self.state_norm is not None:
            tensors.update(self.state_norm.as_tensors("mm.state_norm"))
        ad.save_tensors(path, tensors)

    @staticmethod
    def load(path: Path) -> "MetaMarket":
        tensors = ad.load_tensors(path)
        fn = (FeatureNormalizer.from_tensors(tensors, "mm.feat_norm")
              if "mm.feat_norm.mean" in tensors else None)
        sn = (FeatureNormalizer.from_tensors(tensors, "mm.state_norm")
              if "mm.state_norm.mean" in tensors else None)
        k = MetaMarket(int(tensors["mm.fund_dim"][0]), np.random.default_rng(0), fn, sn)
        nn.load_into(k.params(), tensors)
        return k


# -- losses ---------------------------------------------------------------------


def loss_repr(b_norm_hat: Tensor, fund_norm: np.ndarray, target_z: np.ndarray,
              surrogate: SurrogateNet) -> Tensor:
    """Mean over samples of the squared z-space reproduction error."""
    pred = surrogate.forward(b_norm_hat, Tensor(np.asarray(fund_norm, dtype=float)))
    err = ad.square(ad.sub(pred, Tensor(np.asarray(target_z, dtype=float))))
    return ad.mean(ad.vsum(err, axis=1))


def loss_temp(b_norm_seq: Tensor) -> Tensor:
    """Sum of squared normalized-coordinate steps between consecutive days."""
    t = b_norm_seq.data.shape[0]
    if t < 2:
        raise ValueError("temporal loss needs at least two days")
    diff = ad.sub(b_norm_seq[1:], b_norm_seq[:-1])
    return ad.sum_squares(diff)


@dataclass(frozen=True)
class StateTriplet:
    """A real state with a similar and a dissimilar fabrication (z-space)."""

    real: np.ndarray
    similar: np.ndarray
    dissimilar: np.ndarray


def make_triplets(states: np.ndarray, rng: np.random.Generator) -> StateTriplet:
    """Fabricate a triplet per row of the (n, 5) states. Dissimilar noise
    is redrawn, for the offending rows only, until each row's norm strictly
    exceeds that of its similar noise."""
    noise_a = rng.normal(0.0, SIMILAR_NOISE, states.shape)
    noise_b = rng.normal(0.0, DISSIMILAR_NOISE, states.shape)
    bad = (np.linalg.norm(noise_b, axis=1) <= np.linalg.norm(noise_a, axis=1))
    while np.any(bad):
        noise_b[bad] = rng.normal(0.0, DISSIMILAR_NOISE, (int(bad.sum()), states.shape[1]))
        bad = (np.linalg.norm(noise_b, axis=1) <= np.linalg.norm(noise_a, axis=1))
    return StateTriplet(states, states + noise_a, states + noise_b)


def _rowwise_norm(d: Tensor) -> Tensor:
    return ad.sqrt(ad.vsum(ad.square(d), axis=1), eps=1e-12)


def loss_stat(k: MetaMarket, windows: np.ndarray, triplet: StateTriplet,
              margin: float = TRIPLET_MARGIN) -> Tensor:
    """Triplet hinge on behavior estimates under fabricated states.

    The implicit feature is detached so this loss trains only the state
    analyzer omega.
    """
    u = k.implicit(windows).detach()
    b = k.estimate(u, k.analyze(Tensor(triplet.real)))
    b_a = k.estimate(u, k.analyze(Tensor(triplet.similar)))
    b_b = k.estimate(u, k.analyze(Tensor(triplet.dissimilar)))
    hinge = ad.relu(ad.add(ad.sub(_rowwise_norm(ad.sub(b, b_a)),
                                  _rowwise_norm(ad.sub(b, b_b))), margin))
    return ad.mean(hinge)


# -- training ----------------------------------------------------------------------


@dataclass
class MetaCurves:
    """Per-epoch means over training windows; index 0 = before training."""

    recon: list[float] = field(default_factory=list)
    variation: list[float] = field(default_factory=list)


def _windows(corpus: list[DayRecord]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Stack sliding windows: day t is calibrated from days t-W+1 .. t and
    reproduces its own features."""
    if len(corpus) < WINDOW_DAYS + 2:
        raise ValueError(f"corpus needs at least {WINDOW_DAYS + 2} days, got {len(corpus)}")
    feats = np.stack([d.features_z for d in corpus])
    wins = np.stack([feats[t - WINDOW_DAYS + 1: t + 1]
                     for t in range(WINDOW_DAYS - 1, len(corpus))])
    tail = corpus[WINDOW_DAYS - 1:]
    return (wins,
            np.stack([d.state_z for d in tail]),
            np.stack([d.fund_norm for d in tail]),
            feats[WINDOW_DAYS - 1:])


def train(k: MetaMarket, corpus: list[DayRecord], surrogate: SurrogateNet,
          w_t: float = 0.1, w_s: float = 1.0, epochs: int = 100,
          lr: float = 1e-3, seed: int = 0) -> MetaCurves:
    """Composite-loss training over all sliding windows as one batch.

    The surrogate is frozen (its parameters receive no gradient). Logs the
    mean reconstruction error and mean day-to-day behavior variation per
    epoch.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x3E]))
    wins, states, funds, targets = _windows(corpus)
    n = len(wins)
    frozen = [p for p in surrogate.params() if p.requires_grad]
    for p in frozen:
        p.requires_grad = False
        p.grad = None
    opt = ad.Adam(k.params(), lr=lr)
    curves = MetaCurves()

    def log_epoch():
        with ad.no_grad():
            b = k.forward(wins, states).data
        recon = np.mean([np.sum((surrogate.predict(b[i], funds[i]) - targets[i]) ** 2)
                         for i in range(n)])
        var = np.mean(np.sum(np.diff(b, axis=0) ** 2, axis=1))
        curves.recon.append(float(recon))
        curves.variation.append(float(var))

    log_epoch()
    try:
        for epoch in range(1, epochs + 1):
            opt.zero_grad()
            b = k.forward(wins, states)
            loss = loss_repr(b, funds, targets, surrogate)
            if w_t:
                loss = ad.add(loss, ad.mul(loss_temp(b), w_t / (n - 1)))
            if w_s:
                loss = ad.add(loss, ad.mul(loss_stat(k, wins, make_triplets(states, rng)), w_s))
            if not np.isfinite(loss.item()):
                raise FloatingPointError(
                    f"non-finite calibrator loss at epoch {epoch}: "
                    f"recon so far {curves.recon[-1]:.4g}")
            loss.backward()
            opt.step()
            log_epoch()
    finally:
        for p in frozen:
            p.requires_grad = True
            p.grad = np.zeros_like(p.data)
    return curves


# -- calibration output ----------------------------------------------------------


CALIBRATION_HEADER = ["day", *numbered("b", N_BEHAVIOR),
                      *(f"{c}_norm" for c in numbered("b", N_BEHAVIOR)), "source"]


def write_calibration(path: Path, rows: list[tuple[int, BehaviorVector, str]]):
    """CSV of calibrated behavior vectors: raw and normalized coordinates."""
    write_table(path, CALIBRATION_HEADER,
                ([day, *b.as_array(), *b.normalized(), source] for day, b, source in rows))


def _parse_calibration(row: list[str]) -> tuple[str, int, BehaviorVector]:
    coords = [float(v) for v in row[1:-1]]   # raw, then normalized
    return row[-1], int(row[0]), BehaviorVector.from_array(coords[:N_BEHAVIOR])


def read_calibration(path: Path) -> dict[str, dict[int, BehaviorVector]]:
    out: dict[str, dict[int, BehaviorVector]] = {}
    for source, day, b in read_table(path, CALIBRATION_HEADER, _parse_calibration):
        out.setdefault(source, {})[day] = b
    return out
