"""Pipeline orchestration: benchmark generation, surrogate and calibrator
training, per-day calibration with every method, and the evaluation report
bundle (error CDFs, variation histograms, correlation tables, recovery,
simulator-call accounting, ablation), all rooted in one output directory
with a manifest.
"""

from __future__ import annotations

import fcntl
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from . import baselines as bl
from . import features as feat
from . import metamarket as mm
from . import surrogate as sur
from .agents import BEHAVIOR_NAMES, BehaviorVector
from .benchmark import PROFILES, Benchmark, BenchDay, gen_benchmark
from .marketstate import STATE_NAMES
from .tables import file_sha256, write_table

METHODS = ("calisim", "randsearch", "bayesopt")
ABLATION_TAG = "_ws0"
ABLATION = "calisim" + ABLATION_TAG

# Reference magnitudes from the original correlation study (per-indicator
# mean absolute Pearson rho), annotated in reports for orientation only.
REFERENCE_MEAN_ABS_RHO = {
    "calisim": {"cpi": 0.2555, "trend": 0.3266},
    "bayesopt": {"cpi": 0.0447, "trend": 0.0921},
}


class ConfigError(ValueError):
    """Raised with the offending field named."""


DEFAULT_CONFIG = {
    "profile": "ci",
    "seed": 0,
    "surrogate": {"epochs": 300, "lr": 1e-3, "batch_size": 32},
    "metamarket": {"epochs": 150, "lr": 1e-3, "w_t": 5.0, "w_s": 1.0},
    "baselines": {"trials": 10, "seeds": [0, 1, 2]},
    "evaluate": {"eval_seeds": [0, 1, 2]},
}


def _as_int(val) -> int:
    """`int(val)`, refusing a bool and a number that int() would truncate."""
    if isinstance(val, bool) or (not isinstance(val, str) and int(val) != val):
        raise ValueError
    return int(val)


def _convert(field: str, default, val):
    """`val` converted to the type of the field's default, a list of ints
    where the default is a list; ConfigError naming the field otherwise."""
    try:
        if isinstance(default, list):
            if isinstance(val, str):
                raise TypeError
            return [_as_int(v) for v in val]
        if isinstance(default, int):
            return _as_int(val)
        return type(default)(val)
    except (TypeError, ValueError, OverflowError):
        kind = "a list of int" if isinstance(default, list) else type(default).__name__
        raise ConfigError(f"config field {field}: expected {kind}, got {val!r}") from None


def load_config(path: Path | None) -> dict:
    cfg = {k: (dict(v) if isinstance(v, dict) else v) for k, v in DEFAULT_CONFIG.items()}
    if path is not None:
        with open(path) as f:
            user = yaml.safe_load(f) or {}
        if not isinstance(user, dict):
            raise ConfigError("config root: expected a mapping")
        for key, val in user.items():
            if key not in cfg:
                raise ConfigError(f"config field {key!r}: unknown")
            if isinstance(cfg[key], dict):
                if not isinstance(val, dict):
                    raise ConfigError(f"config field {key!r}: expected a mapping")
                for sub, sv in val.items():
                    if sub not in cfg[key]:
                        raise ConfigError(f"config field {key}.{sub}: unknown")
                    cfg[key][sub] = _convert(f"{key}.{sub}", cfg[key][sub], sv)
            else:
                cfg[key] = _convert(key, cfg[key], val)
    if cfg["profile"] not in PROFILES:
        raise ConfigError(f"config field profile: {cfg['profile']!r} not in {tuple(PROFILES)}")
    if cfg["baselines"]["trials"] <= bl.WARM_STARTS:
        raise ConfigError(f"config field baselines.trials: must be > {bl.WARM_STARTS}")
    return cfg


# -- manifest ------------------------------------------------------------------------


# The manifest goes through libyaml where PyYAML was built with it: a
# calibrate stage reads it three times and writes it once, and the C
# parser and emitter take a fraction of the pure-Python time for the same
# dict and the same text. The artifacts that golden digests hash
# (summary.yaml, benchmark.yaml, stream meta.yaml) keep yaml.safe_dump.
_MANIFEST_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_MANIFEST_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)

# the files of a saved benchmark, whose digests gen-benchmark records
BENCHMARK_FILES = ("benchmark.yaml", "days.csv", "macro.csv")


def _manifest_path(out_dir: Path) -> Path:
    return Path(out_dir) / "manifest.yaml"


def read_manifest(out_dir: Path) -> dict:
    """The run's manifest, {} before any stage has written one. An empty or
    unparsable file raises ValueError naming it: the digest checks read
    their expected values from here and must not pass on a missing one."""
    p = _manifest_path(out_dir)
    if not p.exists():
        return {}
    try:
        with open(p) as f:
            man = yaml.load(f, Loader=_MANIFEST_LOADER)
    except yaml.YAMLError:
        man = None
    if not isinstance(man, dict):
        raise ValueError(f"{p}: empty or not a YAML mapping")
    return man


def update_manifest(out_dir: Path, **entries):
    """Merge `entries` into the manifest, a mapping into the one stored
    under its key (one level deep). The read-modify-write holds an
    exclusive flock on the run directory (not on a file in it, which the
    run's artifacts would then include), and the new text replaces the old
    in one rename, so concurrent stages lose no keys and readers never see
    a half-written file."""
    p = _manifest_path(out_dir)
    tmp = p.with_name(".manifest.yaml.tmp")
    fd = os.open(out_dir, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        man = read_manifest(out_dir)
        for key, val in entries.items():
            old = man.get(key)
            man[key] = {**old, **val} if isinstance(val, dict) and isinstance(old, dict) else val
        with open(tmp, "w") as f:
            yaml.dump(man, f, Dumper=_MANIFEST_DUMPER, sort_keys=False)
        os.replace(tmp, p)
    finally:
        os.close(fd)  # releases the lock


# -- stages ----------------------------------------------------------------------------


def stage_gen_benchmark(cfg: dict, out_dir: Path, state_free: bool = False) -> Benchmark:
    t0 = time.perf_counter()
    out_dir = Path(out_dir)
    bench = gen_benchmark(cfg["profile"], cfg["seed"], state_free=state_free)
    p = out_dir / "benchmark"
    bench.save(p)
    update_manifest(out_dir, config=cfg, benchmark=str(p), state_free=state_free,
                    benchmark_sha256={name: file_sha256(p / name) for name in BENCHMARK_FILES},
                    benchmark_wall_s=time.perf_counter() - t0,
                    benchmark_sim_calls=len(bench.days))
    return bench


def _load_benchmark(out_dir: Path) -> Benchmark:
    """The run's saved benchmark, each file checked against the SHA-256
    that gen-benchmark recorded in the manifest. A run without recorded
    digests loads as it is."""
    p = Path(out_dir) / "benchmark"
    if not (p / "benchmark.yaml").exists():
        raise FileNotFoundError(f"missing benchmark at {p}; run gen-benchmark first")
    want = read_manifest(out_dir).get("benchmark_sha256", {})
    for name in BENCHMARK_FILES:
        if name in want and file_sha256(p / name) != want[name]:
            raise ValueError(f"{p / name}: SHA-256 differs from the one in "
                             f"{_manifest_path(out_dir)}")
    return Benchmark.load(p)


def _checkpoint(out_dir: Path, key: str, what: str, stage: str) -> Path:
    """The checkpoint `<key>.ck` of a run, checked against the SHA-256 that
    its training stage recorded in the manifest as `<key>_sha256`. A
    checkpoint without a recorded digest is taken as it is."""
    ck = Path(out_dir) / f"{key}.ck"
    if not ck.exists():
        raise FileNotFoundError(f"missing {what} checkpoint {ck}; run {stage} first")
    want = read_manifest(out_dir).get(f"{key}_sha256")
    if want is not None and file_sha256(ck) != want:
        raise ValueError(f"{ck}: SHA-256 differs from the one in {_manifest_path(out_dir)}")
    return ck


def _load_surrogate(out_dir: Path) -> sur.SurrogateNet:
    return sur.SurrogateNet.load(
        _checkpoint(out_dir, "surrogate", "surrogate", "train-surrogate"))


def calibration_key(method: str, seed: int, ablation: bool) -> str:
    """A calibration's `sim_calls` key, and its file `calibration_<key>.csv`."""
    if method == "calisim":
        return ABLATION if ablation else method
    return f"{method}_seed{seed}"


def _metamarket_key(ablation: bool) -> str:
    return "metamarket" + (ABLATION_TAG if ablation else "")


def _load_metamarket(out_dir: Path, ablation: bool = False) -> mm.MetaMarket:
    return mm.MetaMarket.load(
        _checkpoint(out_dir, _metamarket_key(ablation), "calibrator", "train-metamarket"))


def stage_train_surrogate(cfg: dict, out_dir: Path,
                          bench: Benchmark | None = None,
                          ) -> tuple[sur.SurrogateNet, sur.TrainCurves]:
    t0 = time.perf_counter()
    out_dir = Path(out_dir)
    bench = bench or _load_benchmark(out_dir)
    fundamentals = [d.fund for d in bench.train_days]
    ds = sur.build_dataset(bench.cfg, fundamentals,
                           per_day=bench.surrogate_per_day, seed=cfg["seed"],
                           replicates=bench.surrogate_replicates)
    sur.write_dataset(ds, out_dir / "surrogate_dataset.csv")
    sc = cfg["surrogate"]
    net, curves = sur.train_surrogate(ds, epochs=sc["epochs"], lr=sc["lr"],
                                      batch_size=sc["batch_size"], seed=cfg["seed"])
    ck = out_dir / "surrogate.ck"
    net.save(ck)
    write_table(out_dir / "surrogate_curves.csv", ["epoch", "train_loss", "val_loss"],
                zip(range(len(curves.train_loss)), curves.train_loss, curves.val_loss))
    update_manifest(out_dir, surrogate=str(ck), surrogate_sha256=file_sha256(ck),
                    surrogate_wall_s=time.perf_counter() - t0,
                    surrogate_sim_calls=len(ds.feats_z) * bench.surrogate_replicates,
                    surrogate_best_epoch=curves.best_epoch,
                    surrogate_skipped_steps=curves.skipped_steps,
                    surrogate_val0=float(curves.val_loss[0]),
                    surrogate_val_best=float(min(curves.val_loss)))
    return net, curves


def _calibrator_inputs(bench: Benchmark, k: mm.MetaMarket,
                       days: list[BenchDay]) -> tuple[np.ndarray, np.ndarray]:
    """The calibrator's z-scored inputs for `days`, the same for training,
    calibration and counterfactual queries: feature windows (n, W, 13) and
    market states (n, 5)."""
    return (np.stack([k.feat_norm.transform(bench.window_features(d.day)) for d in days]),
            np.stack([k.state_norm.transform(d.state_assembled) for d in days]))


def stage_train_metamarket(cfg: dict, out_dir: Path, ablation: bool = False,
                           bench: Benchmark | None = None,
                           net: sur.SurrogateNet | None = None,
                           ) -> tuple[mm.MetaMarket, mm.MetaCurves]:
    t0 = time.perf_counter()
    out_dir = Path(out_dir)
    bench = bench or _load_benchmark(out_dir)
    net = net or _load_surrogate(out_dir)
    mc = cfg["metamarket"]
    days = bench.train_days
    state_norm = feat.FeatureNormalizer.fit(np.stack([d.state_assembled for d in days]))
    rng = np.random.default_rng(np.random.SeedSequence([cfg["seed"], 0x4B]))
    k = mm.MetaMarket(bench.cfg.fundamental_len, rng, net.norm, state_norm)
    wins, states = _calibrator_inputs(bench, k, days)
    funds = np.stack([sur.normalize_fundamental(d.fund) for d in days])
    curves = mm.train(k, wins, states, funds, net, epochs=mc["epochs"], w_t=mc["w_t"],
                      w_s=0.0 if ablation else mc["w_s"], lr=mc["lr"], seed=cfg["seed"])
    key = _metamarket_key(ablation)
    ck = out_dir / f"{key}.ck"
    k.save(ck)
    write_table(out_dir / f"{key}_curves.csv", ["epoch", "recon", "variation"],
                zip(range(len(curves.recon)), curves.recon, curves.variation))
    update_manifest(out_dir, **{key: str(ck), f"{key}_sha256": file_sha256(ck),
                                f"{key}_wall_s": time.perf_counter() - t0,
                                f"{key}_recon0": float(curves.recon[0]),
                                f"{key}_recon_final": float(curves.recon[-1]),
                                f"{key}_var0": float(curves.variation[0]),
                                f"{key}_var_final": float(curves.variation[-1]),
                                f"{key}_skipped_steps": curves.skipped_steps})
    return k, curves


def calibrate_calisim(bench: Benchmark, k: mm.MetaMarket,
                      ) -> list[tuple[int, BehaviorVector]]:
    """One-shot calibration of every test day; zero simulator calls."""
    wins, states = _calibrator_inputs(bench, k, bench.test_days)
    return [(d.day, k.infer(w, x)) for d, w, x in zip(bench.test_days, wins, states)]


def calibrate_baseline(bench: Benchmark, method: str, net: sur.SurrogateNet,
                       trials: int, seed: int,
                       ) -> tuple[list[tuple[int, BehaviorVector]], int]:
    """Search calibration of every test day; returns the rows and the number
    of simulated days the day scorers counted."""
    search = bl.random_search if method == "randsearch" else bl.bayes_opt
    out, calls = [], 0
    for d in bench.test_days:
        score = bl.DayScore(bench.cfg, d.fund, net.norm.transform(d.features), net.norm)
        b, _ = search(score, trials=trials, seed=(seed << 20) ^ d.day)
        out.append((d.day, b))
        calls += score.calls
    return out, calls


def stage_calibrate(cfg: dict, out_dir: Path, method: str, seed: int = 0,
                    ablation: bool = False, bench: Benchmark | None = None,
                    ) -> Path:
    if method not in METHODS:
        raise ConfigError(f"config field method: unknown method {method!r}")
    if ablation and method != "calisim":
        raise ConfigError(f"config field ablation: {method} has no ablation arm")
    t0 = time.perf_counter()
    out_dir = Path(out_dir)
    bench = bench or _load_benchmark(out_dir)
    key = calibration_key(method, seed, ablation)
    scored_with = {}
    if method == "calisim":
        rows, calls = calibrate_calisim(bench, _load_metamarket(out_dir, ablation)), 0
    else:
        rows, calls = calibrate_baseline(bench, method, _load_surrogate(out_dir),
                                         trials=cfg["baselines"]["trials"], seed=seed)
        scored_with["surrogate_sha256"] = file_sha256(out_dir / "surrogate.ck")
    source = key if method == "calisim" else method
    path = out_dir / f"calibration_{key}.csv"
    mm.write_calibration(path, [(day, b, source) for day, b in rows])
    update_manifest(out_dir, sim_calls={key: {"total": calls, "days": len(rows),
                                              "per_day": calls / max(len(rows), 1)}},
                    calibrations={key: {"sha256": file_sha256(path), **scored_with}},
                    **{f"calibrate_{key}_wall_s": time.perf_counter() - t0})
    return path


def run_pipeline(cfg: dict, out_dir: Path) -> dict:
    """The paper's run: gen-benchmark, the surrogate, the calibrator and its
    ablation arm (w_s = 0), the one-shot calibration of each, the search
    baselines at every seed of `baselines.seeds`, then evaluate's summary."""
    bench = stage_gen_benchmark(cfg, out_dir)
    net, _ = stage_train_surrogate(cfg, out_dir, bench=bench)
    for ablation in (False, True):
        stage_train_metamarket(cfg, out_dir, ablation=ablation, bench=bench, net=net)
        stage_calibrate(cfg, out_dir, "calisim", ablation=ablation, bench=bench)
    for seed in cfg["baselines"]["seeds"]:
        for method in METHODS[1:]:  # the search baselines
            stage_calibrate(cfg, out_dir, method, seed=seed, bench=bench)
    return stage_evaluate(cfg, out_dir, bench=bench)


# -- evaluation ----------------------------------------------------------------------


@dataclass
class MethodEval:
    recon: np.ndarray        # flat over (day, search seed, eval seed)
    variation: np.ndarray    # consecutive-day steps, per search seed
    recovery: np.ndarray     # ||b_hat - b*||^2 per (day, search seed)
    corr: np.ndarray         # (5 indicators, 5 behavior coords) mean |rho|
    sim_calls: int           # simulated days spent scoring


def _collect_calibrations(out_dir: Path, source: str, seeds: list[int], days: list[int],
                          man: dict) -> dict[str, dict[int, BehaviorVector]]:
    """One source's calibration maps by key: a search baseline's at each of
    `seeds`, one map otherwise; a key without a file is skipped. Each file
    must calibrate every one of `days`, match the SHA-256 that calibrate
    recorded in the manifest `man`, and, for a search baseline, have been
    scored with the run's current surrogate; a file that does not raises
    ValueError naming it. A file without recorded digests is taken as it is."""
    keys = ([calibration_key(source, seed, False) for seed in seeds]
            if source in METHODS[1:] else [source])
    recorded = man.get("calibrations", {})
    out = {}
    for key in keys:
        p = Path(out_dir) / f"calibration_{key}.csv"
        if not p.exists():
            continue
        cal = mm.read_calibration(p).get(source)
        if cal is None:
            raise ValueError(f"{p}: no rows of source {source}")
        missing = [d for d in days if d not in cal]
        if missing:
            raise ValueError(f"{p}: no {source} calibration for test "
                             f"day(s) {', '.join(map(str, missing))}")
        want = recorded.get(key, {})
        if "sha256" in want and file_sha256(p) != want["sha256"]:
            raise ValueError(f"{p}: SHA-256 differs from the one in {_manifest_path(out_dir)}")
        surrogate = man.get("surrogate_sha256")
        if want.get("surrogate_sha256", surrogate) != surrogate:
            raise ValueError(f"{p}: calibrated with another surrogate than the run's "
                             "surrogate.ck; run calibrate again")
        out[key] = cal
    return out


def _eval_method(bench: Benchmark, cals: list[dict[int, BehaviorVector]],
                 net: sur.SurrogateNet, eval_seeds: list[int]) -> MethodEval:
    days = bench.test_days
    recon, variation, recovery = [], [], []
    corr_stack, calls = [], 0
    for cal in cals:
        bs = np.array([cal[d.day].normalized() for d in days])
        variation.extend(np.sum(np.diff(bs, axis=0) ** 2, axis=1))
        recovery.extend(np.sum((bs - np.array([d.b_star.normalized() for d in days])) ** 2,
                               axis=1))
        for d in days:
            score = bl.DayScore(bench.cfg, d.fund, net.norm.transform(d.features), net.norm)
            recon.extend(score(cal[d.day], (es << 24) ^ d.seed) for es in eval_seeds)
            calls += score.calls
        states = np.array([d.state_assembled for d in days])
        corr = np.zeros((len(STATE_NAMES), len(BEHAVIOR_NAMES)))
        for i in range(len(STATE_NAMES)):
            for j in range(len(BEHAVIOR_NAMES)):
                si, bj = states[:, i], bs[:, j]
                if si.std() == 0 or bj.std() == 0:
                    corr[i, j] = 0.0
                else:
                    corr[i, j] = abs(np.corrcoef(si, bj)[0, 1])
        corr_stack.append(corr)
    return MethodEval(np.array(recon), np.array(variation),
                      np.array(recovery), np.mean(corr_stack, axis=0), calls)


def stage_evaluate(cfg: dict, out_dir: Path, bench: Benchmark | None = None) -> dict:
    t0 = time.perf_counter()
    out_dir = Path(out_dir)
    bench = bench or _load_benchmark(out_dir)
    net = _load_surrogate(out_dir)

    # every calibration file of the config's seeds is checked before any day is scored
    man = read_manifest(out_dir)
    test_days = [d.day for d in bench.test_days]
    cals = {source: _collect_calibrations(out_dir, source, cfg["baselines"]["seeds"],
                                          test_days, man)
            for source in (*METHODS, ABLATION)}
    # Ground truth as a reference method: its reconstruction error is the
    # simulator's seed-to-seed feature noise floor.
    cals["ground_truth"] = {"ground_truth": {d.day: d.b_star for d in bench.test_days}}
    mm.write_calibration(out_dir / "calibration_ground_truth.csv",
                         [(d.day, d.b_star, "ground_truth") for d in bench.test_days])

    missing = [source for source, c in cals.items() if not c]
    if not any(cals[s] for s in METHODS):
        raise FileNotFoundError(
            f"no calibration outputs found in {out_dir}; run calibrate first "
            f"(missing: {', '.join(missing)})")
    evals = {source: _eval_method(bench, list(c.values()), net, cfg["evaluate"]["eval_seeds"])
             for source, c in cals.items() if c}

    report_dir = out_dir / "evaluation"
    report_dir.mkdir(exist_ok=True)
    _write_distribution(report_dir / "reconstruction_cdf.csv", evals, "recon")
    _write_distribution(report_dir / "variation_hist.csv", evals, "variation")
    _write_distribution(report_dir / "recovery.csv", evals, "recovery")
    _write_correlation(report_dir / "correlation_table.csv", evals)
    _emit_plot_scripts(report_dir)

    summary = {
        "missing_methods": missing,
        "methods": {
            s: {"mean_recon": float(e.recon.mean()),
                "median_variation": float(np.median(e.variation)),
                "mean_recovery": float(e.recovery.mean()),
                "mean_abs_rho_per_indicator": {
                    STATE_NAMES[i]: float(e.corr[i].mean())
                    for i in range(len(STATE_NAMES))}}
            for s, e in evals.items()},
        "sim_calls": {key: calls for key, calls in man.get("sim_calls", {}).items()
                      if any(key in c for c in cals.values())},
        "reference_mean_abs_rho": REFERENCE_MEAN_ABS_RHO,
    }
    with open(report_dir / "summary.yaml", "w") as f:
        yaml.safe_dump(summary, f, sort_keys=False)
    # state indicators that carry no signal over the test window
    states = np.array([d.state_assembled for d in bench.test_days])
    degenerate = [name for name, col in zip(STATE_NAMES, states.T)
                  if len(np.unique(col)) < 3 or col.std() < feat.FeatureNormalizer.STD_FLOOR]
    update_manifest(out_dir, evaluation=str(report_dir),
                    evaluation_wall_s=time.perf_counter() - t0,
                    evaluation_sim_calls=sum(e.sim_calls for e in evals.values()),
                    evaluation_degenerate_indicators=degenerate)
    return summary


def _write_distribution(path: Path, evals: dict[str, MethodEval], field: str):
    write_table(path, ["source", "value"],
                ([s, v] for s, e in evals.items() for v in getattr(e, field)))


def _write_correlation(path: Path, evals: dict[str, MethodEval]):
    write_table(path, ["source", "indicator", *BEHAVIOR_NAMES, "mean_abs_rho", "reference"],
                ([s, ind, *e.corr[i], e.corr[i].mean(),
                  REFERENCE_MEAN_ABS_RHO.get(s, {}).get(ind, "")]
                 for s, e in evals.items() for i, ind in enumerate(STATE_NAMES)))


_PLOT_TEMPLATE = '''\
"""Generated plot script: {title}."""
import csv
from collections import defaultdict

import matplotlib.pyplot as plt

series = defaultdict(list)
with open("{csv_name}") as f:
    for row in csv.DictReader(f):
        series[row["source"]].append(float(row["value"]))

fig, ax = plt.subplots()
for source, values in series.items():
    {body}
ax.set_title("{title}")
ax.set_xlabel("{xlabel}")
ax.legend()
fig.savefig("{png_name}", dpi=150)
'''

_CDF_BODY = ("values = sorted(values)\n"
             "    ax.plot(values, [i / len(values) for i in range(1, len(values) + 1)], "
             "label=source)")
_HIST_BODY = "ax.hist(values, bins=30, alpha=0.5, label=source)"


def _emit_plot_scripts(report_dir: Path):
    jobs = [
        ("plot_reconstruction_cdf.py", "reconstruction_cdf.csv",
         "Order stream reproduction error (CDF)", "summed squared z-error",
         _CDF_BODY, "reconstruction_cdf.png"),
        ("plot_variation_hist.py", "variation_hist.csv",
         "Distribution of day-to-day behavior variation", "squared normalized step",
         _HIST_BODY, "variation_hist.png"),
        ("plot_recovery.py", "recovery.csv",
         "Behavior recovery error", "||b_hat - b*||^2", _CDF_BODY, "recovery.png"),
    ]
    for script, csv_name, title, xlabel, body, png in jobs:
        (report_dir / script).write_text(_PLOT_TEMPLATE.format(
            title=title, csv_name=csv_name, xlabel=xlabel, body=body, png_name=png))


def stage_hypothesize(cfg: dict, out_dir: Path, day: int,
                      deltas: dict[str, float]) -> dict:
    """Counterfactual query: shift the named state indicators (in z-units)
    for one test day and report the behavior delta."""
    out_dir = Path(out_dir)
    bench = _load_benchmark(out_dir)
    k = _load_metamarket(out_dir)
    by_day = {d.day: d for d in bench.days}
    if day not in by_day or by_day[day].state_assembled is None:
        raise ConfigError(f"config field day: day {day} has no assembled state")
    d = by_day[day]
    for name in deltas:
        if name not in STATE_NAMES:
            raise ConfigError(f"config field state.{name}: unknown indicator")
    (window,), (x,) = _calibrator_inputs(bench, k, [d])
    x_mod = x.copy()
    for name, dv in deltas.items():
        x_mod[STATE_NAMES.index(name)] += float(dv)
    b_fact, b_mod, delta = k.hypothesize(window, x, x_mod)
    return {
        "day": day,
        "factual": {n: float(v) for n, v in zip(BEHAVIOR_NAMES, b_fact.as_array())},
        "counterfactual": {n: float(v) for n, v in zip(BEHAVIOR_NAMES, b_mod.as_array())},
        "delta_normalized": {n: float(v) for n, v in zip(BEHAVIOR_NAMES, delta)},
    }
