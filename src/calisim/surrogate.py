"""Differentiable stand-in for the simulator: maps (behavior vector,
fundamental series) to the day's predicted feature vector in z-space.

Trained on simulator-generated (behavior, fundamental, features) rows; the
trained net is frozen and reused as the reproduction loss of the
calibrator.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import features as feat
from . import nn
from .agents import N_BEHAVIOR, BehaviorVector
from .autodiff import Tensor
from .features import FeatureNormalizer
from .simulator import FundamentalSeries, SimConfig, run_day
from .tables import numbered, write_table

FUND_EMBED = 4
TRUNK = (50, 100, 50)
VAL_FRACTION = 0.2   # share of dataset rows held out for validation


def normalize_fundamental(fund: FundamentalSeries) -> np.ndarray:
    """Log-relative fundamental path: ln(P_k / P_0)."""
    v = fund.values
    return np.log(v / v[0])


class SurrogateNet:
    """Fundamental branch (F -> 50 -> 4, ReLU) concatenated with the 5
    normalized behavior coordinates, then a 9 -> 50 -> 100 -> 50 -> 13
    ReLU trunk with a linear head in z-scored feature space."""

    def __init__(self, fund_dim: int, rng: np.random.Generator,
                 norm: FeatureNormalizer):
        self.fund_dim = fund_dim
        self.f1 = nn.Affine(fund_dim, 50, rng, "sur.f1")
        self.f2 = nn.Affine(50, FUND_EMBED, rng, "sur.f2")
        widths = (N_BEHAVIOR + FUND_EMBED, *TRUNK, feat.N_FEATURES)
        self.trunk = [nn.Affine(widths[i], widths[i + 1], rng, f"sur.t{i}")
                      for i in range(len(widths) - 1)]
        self.norm = norm

    def params(self) -> list[Tensor]:
        return nn.collect(self.f1, self.f2, *self.trunk)

    def forward(self, b_norm: Tensor, fund_norm: Tensor) -> Tensor:
        """z-space feature prediction; differentiable w.r.t. b_norm."""
        femb = ad.relu(self.f2(ad.relu(self.f1(fund_norm))))
        h = ad.concat([b_norm, femb])
        for layer in self.trunk[:-1]:
            h = ad.relu(layer(h))
        return self.trunk[-1](h)

    def predict(self, b_norm: np.ndarray, fund_norm: np.ndarray) -> np.ndarray:
        b_norm = np.asarray(b_norm, dtype=float)
        if np.any(b_norm < 0) or np.any(b_norm > 1):
            b_norm = np.clip(b_norm, 0.0, 1.0)
        with ad.frozen(self.params()):
            return self.forward(Tensor(b_norm), Tensor(fund_norm)).data

    # -- persistence -------------------------------------------------------

    def save(self, path: Path):
        tensors = dict(nn.named_params(self.params()))
        tensors.update(self.norm.as_tensors("sur.norm"))
        tensors["sur.fund_dim"] = np.array([self.fund_dim], dtype=float)
        ad.save_tensors(path, tensors)

    @staticmethod
    def load(path: Path) -> "SurrogateNet":
        tensors = ad.load_tensors(path)
        fund_dim = int(tensors["sur.fund_dim"][0])
        net = SurrogateNet(fund_dim, np.random.default_rng(0),
                           FeatureNormalizer.from_tensors(tensors, "sur.norm"))
        nn.load_into(net.params(), tensors)
        return net


@dataclass
class SurrogateDataset:
    b_norm: np.ndarray        # (n, 5)
    fund_norm: np.ndarray     # (n, F)
    feats_z: np.ndarray       # (n, 13), z-scored with `norm`
    norm: FeatureNormalizer
    val_mask: np.ndarray      # (n,) bool

    def split(self):
        tr = ~self.val_mask
        return ((self.b_norm[tr], self.fund_norm[tr], self.feats_z[tr]),
                (self.b_norm[self.val_mask], self.fund_norm[self.val_mask],
                 self.feats_z[self.val_mask]))


def build_dataset(cfg: SimConfig, fundamentals: list[FundamentalSeries],
                  per_day: int, seed: int, replicates: int = 1) -> SurrogateDataset:
    """Simulate `per_day` random behavior draws against each day's
    fundamental and collect feature rows. The normalizer is fitted on the
    training split only.

    With replicates > 1 each row's target is the mean feature vector over
    that many independently seeded runs of the same behavior draw. Small
    populations resample the agent mix every run, and that sampling noise
    otherwise swamps the behavior signal in the targets.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xDA]))
    rows_b, rows_f, rows_q = [], [], []
    for day, fund in enumerate(fundamentals):
        for draw in range(per_day):
            b = BehaviorVector.from_normalized(rng.random(N_BEHAVIOR))
            day_seed = int(rng.integers(2 ** 31))
            q = np.mean([feat.extract(run_day(cfg, b, fund, seed=day_seed * 1000 + r))
                         for r in range(replicates)], axis=0)
            rows_b.append(b.normalized())
            rows_f.append(normalize_fundamental(fund))
            rows_q.append(q)
    b_norm = np.array(rows_b)
    fund_norm = np.array(rows_f)
    q = np.array(rows_q)
    n = len(q)
    val_mask = np.zeros(n, dtype=bool)
    val_mask[rng.permutation(n)[: max(1, int(round(VAL_FRACTION * n)))]] = True
    norm = FeatureNormalizer.fit(q[~val_mask])
    return SurrogateDataset(b_norm, fund_norm, norm.transform(q), norm, val_mask)


def write_dataset(ds: SurrogateDataset, path: Path):
    write_table(path, ["row", "split", *numbered("b", N_BEHAVIOR),
                       *numbered("f", ds.fund_norm.shape[1]),
                       *numbered("q", feat.N_FEATURES)],
                ([i, "val" if ds.val_mask[i] else "train",
                  *ds.b_norm[i], *ds.fund_norm[i], *ds.feats_z[i]]
                 for i in range(len(ds.feats_z))))


@dataclass
class TrainCurves:
    train_loss: list[float]
    val_loss: list[float]
    best_epoch: int
    skipped_steps: int = 0   # Adam steps skipped on non-finite gradients


def _batch_loss(net: SurrogateNet, b: np.ndarray, f: np.ndarray,
                q: np.ndarray) -> Tensor:
    pred = net.forward(Tensor(b), Tensor(f))
    return ad.mean(ad.vsum(ad.square(ad.sub(pred, Tensor(q))), axis=1))


def train_surrogate(ds: SurrogateDataset, epochs: int, lr: float = 1e-3,
                    batch_size: int = 32, seed: int = 0,
                    ) -> tuple[SurrogateNet, TrainCurves]:
    """Adam on summed squared z-space error; returns the best-validation
    checkpoint and per-epoch loss curves (index 0 = before training)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x7A]))
    (tb, tf, tq), (vb, vf, vq) = ds.split()
    if len(tq) == 0 or len(vq) == 0:
        raise ValueError("dataset needs non-empty train and validation splits")
    net = SurrogateNet(ds.fund_norm.shape[1], rng, ds.norm)

    def eval_loss(b, f, q) -> float:
        with ad.frozen(net.params()):
            return _batch_loss(net, b, f, q).item()

    curves = TrainCurves([eval_loss(tb, tf, tq)], [eval_loss(vb, vf, vq)], 0)
    best = (curves.val_loss[0], {k: v.copy() for k, v in nn.named_params(net.params()).items()})
    n = len(tq)
    with ad.Adam(net.params(), lr=lr) as opt:
        for epoch in range(1, epochs + 1):
            order = rng.permutation(n)
            for start in range(0, n, batch_size):
                idx = order[start:start + batch_size]
                opt.zero_grad()
                _batch_loss(net, tb[idx], tf[idx], tq[idx]).backward()
                opt.step()
            curves.train_loss.append(eval_loss(tb, tf, tq))
            curves.val_loss.append(eval_loss(vb, vf, vq))
            if curves.val_loss[-1] < best[0]:
                best = (curves.val_loss[-1],
                        {k: v.copy() for k, v in nn.named_params(net.params()).items()})
                curves.best_epoch = epoch
    nn.load_into(net.params(), best[1])
    curves.skipped_steps = opt.skipped
    return net, curves


def constant_mean_loss(q_z: np.ndarray) -> float:
    """Summed squared z-error of predicting the per-dimension mean."""
    d = q_z - q_z.mean(axis=0)
    return float(np.mean(np.sum(d * d, axis=1)))
