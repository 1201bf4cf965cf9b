"""The three benchmark workloads.

Each workload builds its inputs in set-up from the workload seed, starting
from a CI-profile `gen_benchmark`. Its measured work is split into blocks
that a run repeats in rounds. Each round draws its own inputs from the
workload seed and the round number, so no round can reuse the results of
another, and the same seed gives the same rounds.

- dataset: `surrogate.build_dataset` over the CI train-day fundamentals
  with uniformly random behavior draws, a quarter of the days per block.
  Independent simulated days, so `simulator`, `agents`, `lob` and
  `features` do nearly all the work.
- calibrate: `harness.stage_calibrate` for calisim, random search and
  GP-BO, one test-window day per block, with the round number as search
  seed. One-shot inference next to sequential, simulator-bound search.
- train: `surrogate.train_surrogate` then the metamarket training stage on
  a dataset simulated in set-up, one block seeded by the round. Autodiff
  and nn only; no simulator calls.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from calisim import benchmark, harness, nn, simulator, surrogate
from calisim.agents import BEHAVIOR_BOUNDS, BEHAVIOR_NAMES

METHODS = harness.METHODS
SAMPLE_STREAMS = 2      # simulated streams kept from set-up and from a block for replay
SEED_ATTEMPTS = 5
DATASET_BLOCKS = 4      # the train days split into this many dataset blocks
# How strongly the work slows when the host's probe loop slows (see run.py):
# simulation is interpreter-bound like the probe; training spends part of
# its time in numpy kernels, which a busy host slows less.
SIMULATION = 1.0
TRAINING = 0.75


@dataclass(frozen=True)
class Scale:
    """Sizes of one workload run. FULL is what the benchmark command runs."""

    profile: str = "ci"
    dataset_draws: int = 2          # behavior draws per train day
    setup_day_step: int = 2         # set-up datasets draw once on every n-th train day
    surrogate_epochs: int = 600     # per train block
    metamarket_epochs: int = 20     # per train block
    setup_surrogate_epochs: int = 200   # calibrator training in calibrate set-up
    setup_metamarket_epochs: int = 20
    calibrate_days: int = 5         # calibrate blocks, one test day each


FULL = Scale()


@dataclass
class Unit:
    """One measured block."""

    wall_s: float                   # the timed phase only
    ops: int
    digest: str
    detail: dict[str, float]        # raw values that the workload summarizes
    output: object = None


@dataclass
class Context:
    seed: int
    scale: Scale
    out_dir: Path
    bench: benchmark.Benchmark
    clock: Callable[[], float]      # times the measured calls
    blocks: int = 1
    cfg: dict = field(default_factory=dict)
    ds: surrogate.SurrogateDataset | None = None
    digest: str = ""                # of everything set-up built
    setup_training_s: float = 0.0   # the part of set-up spent training models


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def _round_seed(seed: int, rnd: int, block: int = 0) -> int:
    """The seed of one block of one round."""
    return int(np.random.SeedSequence([seed, rnd, block]).generate_state(1)[0])


def _config(seed: int) -> dict:
    cfg = harness.load_config(None)
    cfg["seed"] = seed
    return cfg


def _gen_benchmark(profile: str, seed: int) -> benchmark.Benchmark:
    """The workload's benchmark. gen_benchmark rejects a seed whose planted
    state-to-behavior map comes out too weak (CI seed 409 is one, about one
    in fifty), so a rejected seed moves on to seed + 10**6, + 2 * 10**6, ..."""
    for attempt in range(SEED_ATTEMPTS):
        try:
            return benchmark.gen_benchmark(profile, seed + attempt * 10**6)
        except AssertionError as e:     # the generator's self-checks
            print(f"gen_benchmark rejected seed {seed + attempt * 10**6}: {e}",
                  file=sys.stderr)
    raise RuntimeError(f"gen_benchmark rejected {SEED_ATTEMPTS} seeds from {seed}")


def _param_bytes(params) -> bytes:
    named = nn.named_params(params)
    return b"".join(k.encode() + named[k].tobytes() for k in sorted(named))


def _setup_digest(bench: benchmark.Benchmark, ds=None, models=()) -> str:
    """SHA-256 of the set-up outputs: every benchmark day's features and
    planted behavior, the set-up dataset and trained parameters."""
    chunks = [np.stack([d.features for d in bench.days]).tobytes(),
              np.stack([d.b_star.normalized() for d in bench.days]).tobytes()]
    if ds is not None:
        chunks += [ds.b_norm.tobytes(), ds.fund_norm.tobytes(), ds.feats_z.tobytes()]
    return _sha(*chunks, *(_param_bytes(m.params()) for m in models))


def _setup_dataset(bench: benchmark.Benchmark, scale: Scale, seed: int):
    return surrogate.build_dataset(bench.cfg,
                                   [d.fund for d in bench.train_days[::scale.setup_day_step]],
                                   per_day=1, seed=seed)


def _finite_rows(rows: np.ndarray) -> list[tuple[str, bool]]:
    return [("finite_features", bool(np.all(np.isfinite(r)))) for r in rows]


# -- dataset -------------------------------------------------------------------


def setup_dataset(seed: int, scale: Scale, out_dir: Path, clock) -> Context:
    bench = _gen_benchmark(scale.profile, seed)
    return Context(seed, scale, out_dir, bench, clock, blocks=DATASET_BLOCKS,
                   digest=_setup_digest(bench))


def unit_dataset(ctx: Context, rnd: int, block: int) -> Unit:
    funds = [d.fund for d in ctx.bench.train_days][block::ctx.blocks]
    t0 = ctx.clock()
    ds = surrogate.build_dataset(ctx.bench.cfg, funds, per_day=ctx.scale.dataset_draws,
                                 seed=_round_seed(ctx.seed, rnd, block))
    wall = ctx.clock() - t0
    digest = _sha(ds.b_norm.tobytes(), ds.fund_norm.tobytes(), ds.feats_z.tobytes(),
                  ds.val_mask.tobytes(), ds.norm.mean.tobytes(), ds.norm.std.tobytes())
    return Unit(wall, len(ds.feats_z), digest, {}, ds)


def summarize_dataset(units: list[Unit]) -> dict[str, float]:
    return {"sim_days_per_s": sum(u.ops for u in units) / sum(u.wall_s for u in units)}


def check_dataset(ctx: Context, units: list[Unit]) -> list[tuple[str, bool]]:
    return [c for u in units for c in _finite_rows(u.output.feats_z)]


# -- calibrate -----------------------------------------------------------------


def _day_view(bench: benchmark.Benchmark, day: int) -> benchmark.Benchmark:
    """The benchmark cut after `day`, with `day` as its only test day."""
    return dataclasses.replace(bench, days=bench.days[:day + 1],
                               n_train=day - bench.n_warmup, n_test=1)


def setup_calibrate(seed: int, scale: Scale, out_dir: Path, clock) -> Context:
    bench = _gen_benchmark(scale.profile, seed)
    cfg = _config(seed)
    cfg["metamarket"]["epochs"] = scale.setup_metamarket_epochs
    ds = _setup_dataset(bench, scale, seed)
    t0 = clock()
    net, _ = surrogate.train_surrogate(ds, epochs=scale.setup_surrogate_epochs, seed=seed)
    net.save(out_dir / "surrogate.ck")
    k, _ = harness.stage_train_metamarket(cfg, out_dir, bench=bench, net=net)
    return Context(seed, scale, out_dir, bench, clock, scale.calibrate_days, cfg, ds,
                   _setup_digest(bench, ds, (net, k)), setup_training_s=clock() - t0)


def calibrate_day(ctx: Context, rnd: int, block: int) -> int:
    """The test day of one block: a round's blocks spread over the test
    window, and each round shifts them by one day. Days come round again
    after n_test // blocks rounds (4 in the CI profile), under another
    search seed."""
    stride = ctx.bench.n_test // ctx.blocks
    offset = (rnd + block * stride) % ctx.bench.n_test
    return ctx.bench.n_warmup + ctx.bench.n_train + offset


@dataclass
class Calibration:
    """One day's calibrated row and the simulator calls per day that
    `stage_calibrate` recorded in manifest.yaml, by method."""

    rows: dict[str, dict[str, str]]
    sim_calls_per_day: dict[str, float]


def unit_calibrate(ctx: Context, rnd: int, block: int) -> Unit:
    view = _day_view(ctx.bench, calibrate_day(ctx, rnd, block))
    b_star = view.test_days[0].b_star.normalized()
    detail = {"sims": 0.0}
    out = Calibration({}, {})
    files = []
    for m in METHODS:
        t0 = ctx.clock()
        path = harness.stage_calibrate(ctx.cfg, ctx.out_dir, m, seed=rnd, bench=view)
        detail[f"{m}_s"] = ctx.clock() - t0
        files.append(path.read_bytes())
        with open(path, newline="") as f:
            (row,) = csv.DictReader(f)
        out.rows[m] = row
        b_norm = np.array([float(row[f"b{i + 1}_norm"]) for i in range(len(BEHAVIOR_NAMES))])
        detail[f"{m}_sq_err"] = float(np.sum((b_norm - b_star) ** 2))
        entry = harness.read_manifest(ctx.out_dir)["sim_calls"][
            path.stem.removeprefix("calibration_")]
        out.sim_calls_per_day[m] = float(entry["per_day"])
        detail["sims"] += entry["total"]
    wall = sum(detail[f"{m}_s"] for m in METHODS)
    return Unit(wall, 1, _sha(*files), detail, out)


def summarize_calibrate(units: list[Unit]) -> dict[str, float]:
    def mean(key):
        return sum(u.detail[key] for u in units) / len(units)

    out = {"sim_days_per_s": sum(u.detail["sims"] for u in units)
           / sum(u.wall_s for u in units)}
    out.update({f"{m}_ms_per_day": 1e3 * mean(f"{m}_s") for m in METHODS})
    out.update({f"recovery_{m}": mean(f"{m}_sq_err") for m in METHODS})
    return out


def sim_calls_per_day(units: list[Unit]) -> dict[str, float]:
    """Mean simulator calls per calibrated day of each method."""
    return {m: float(np.mean([u.output.sim_calls_per_day[m] for u in units]))
            for m in METHODS}


def check_calibrate(ctx: Context, units: list[Unit]) -> list[tuple[str, bool]]:
    out = []
    trials = int(ctx.cfg["baselines"]["trials"])
    for u in units:
        for m, row in u.output.rows.items():
            raw = [float(row[f"b{i + 1}"]) for i in range(len(BEHAVIOR_NAMES))]
            out.append((f"{m}_in_bounds", all(
                BEHAVIOR_BOUNDS[k][0] <= v <= BEHAVIOR_BOUNDS[k][1]
                for k, v in zip(BEHAVIOR_NAMES, raw))))
            expected = 0 if m == "calisim" else trials
            out.append((f"{m}_sim_calls", u.output.sim_calls_per_day[m] == expected))
    return out + _finite_rows(np.stack([d.features for d in ctx.bench.days]))


# -- train ---------------------------------------------------------------------


def setup_train(seed: int, scale: Scale, out_dir: Path, clock) -> Context:
    bench = _gen_benchmark(scale.profile, seed)
    cfg = _config(seed)
    cfg["metamarket"]["epochs"] = scale.metamarket_epochs
    ds = _setup_dataset(bench, scale, seed)
    return Context(seed, scale, out_dir, bench, clock, 1, cfg, ds,
                   digest=_setup_digest(bench, ds))


def unit_train(ctx: Context, rnd: int, block: int) -> Unit:
    e_s, e_m = ctx.scale.surrogate_epochs, ctx.scale.metamarket_epochs
    seed = _round_seed(ctx.seed, rnd)
    cfg = {**ctx.cfg, "seed": seed}
    t0 = ctx.clock()
    net, curves = surrogate.train_surrogate(ctx.ds, epochs=e_s, seed=seed)
    t1 = ctx.clock()
    k, mcurves = harness.stage_train_metamarket(cfg, ctx.out_dir, bench=ctx.bench, net=net)
    t2 = ctx.clock()
    digest = _sha(_param_bytes(net.params()), _param_bytes(k.params()),
                  np.array(curves.val_loss).tobytes(), np.array(mcurves.recon).tobytes())
    detail = {"surrogate_ms_per_epoch": 1e3 * (t1 - t0) / e_s,
              "metamarket_ms_per_epoch": 1e3 * (t2 - t1) / e_m,
              "surrogate_val_best": float(min(curves.val_loss)),
              "metamarket_recon_final": float(mcurves.recon[-1])}
    return Unit(t2 - t0, e_s + e_m, digest, detail, (net, k, curves, mcurves))


def summarize_train(units: list[Unit]) -> dict[str, float]:
    (unit,) = units
    return dict(unit.detail)


def check_train(ctx: Context, units: list[Unit]) -> list[tuple[str, bool]]:
    out = _finite_rows(ctx.ds.feats_z)
    for unit in units:
        net, k, curves, mcurves = unit.output
        out.append(("finite_params", all(np.all(np.isfinite(p.data))
                                         for p in net.params() + k.params())))
        out.append(("finite_curves", bool(np.all(np.isfinite(curves.val_loss))
                                          and np.all(np.isfinite(mcurves.recon)))))
    return out


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int, Scale, Path, Callable[[], float]], Context]
    unit: Callable[[Context, int, int], Unit]       # (ctx, round, block)
    summarize: Callable[[list[Unit]], dict[str, float]]   # one round's own metrics
    check: Callable[[Context, list[Unit]], list[tuple[str, bool]]]
    op: str          # what one op of `ms_per_op` is
    detail: tuple[tuple[str, str], ...]   # the workload's own metrics and units
    exact: tuple[str, ...] = ()   # seed-only quality metrics: from the first round
    elasticity: float = SIMULATION        # of the measured blocks


_COMMON = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("error_rate", "ratio"))

WORKLOADS = {
    "dataset": Workload(setup_dataset, unit_dataset, summarize_dataset, check_dataset,
                        "simulated day", _COMMON + (("sim_days_per_s", "1/s"),)),
    "calibrate": Workload(
        setup_calibrate, unit_calibrate, summarize_calibrate, check_calibrate,
        "day calibrated by every method",
        _COMMON + (("sim_days_per_s", "1/s"),
                   *((f"{m}_ms_per_day", "ms") for m in METHODS),
                   *((f"recovery_{m}", "sq_norm") for m in METHODS)),
        tuple(f"recovery_{m}" for m in METHODS)),
    "train": Workload(setup_train, unit_train, summarize_train, check_train,
                      "training epoch",
                      _COMMON + (("surrogate_ms_per_epoch", "ms"),
                                 ("metamarket_ms_per_epoch", "ms"),
                                 ("surrogate_val_best", "loss"),
                                 ("metamarket_recon_final", "loss")),
                      ("surrogate_val_best", "metamarket_recon_final"), TRAINING),
}


def replay_checks(streams: list[simulator.OrderStream]) -> list[tuple[str, bool]]:
    """Each sampled stream must replay through a fresh book to the same
    trades and the same per-slot mid series."""
    out = []
    for s in streams:
        try:
            ok = bool(np.array_equal(simulator.replay(s, check_trades=True), s.mid_slot))
        except Exception as e:    # a diverging replay raises AssertionError
            print(f"stream replay failed: {e!r}", file=sys.stderr)
            ok = False
        out.append(("stream_replay", ok))
    return out
