"""Command-line entry point: one subcommand per pipeline stage, and `pipeline`
for the whole run."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import features as feat
from . import harness
from . import simulator as sim
from .agents import N_BEHAVIOR, BehaviorVector
from .harness import ConfigError


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="calisim",
                                description="Market simulation and one-shot calibration toolkit")
    p.add_argument("--config", type=Path, default=None, help="YAML config file")
    p.add_argument("--out", type=Path, required=True, help="output/run directory")
    subs = p.add_subparsers(dest="command", required=True)

    g = subs.add_parser("gen-benchmark", help="generate the synthetic benchmark")
    g.add_argument("--state-free", action="store_true",
                   help="plant a zero state-to-behavior map (control variant)")

    s = subs.add_parser("simulate", help="simulate one benchmark day")
    s.add_argument("--day", type=int, required=True)
    s.add_argument("--seed", type=int, default=None,
                   help="override the day's recorded seed")
    s.add_argument("--b-norm", type=str, default=None,
                   help="comma-separated normalized behavior coordinates "
                        "(default: the day's planted vector)")
    s.add_argument("--stream-out", type=Path, required=True,
                   help="output path prefix for the order stream")

    e = subs.add_parser("extract-features", help="feature vector of a stored stream")
    e.add_argument("--stream", type=Path, required=True, help="stream path prefix")

    subs.add_parser("train-surrogate", help="build the dataset and train the surrogate")

    t = subs.add_parser("train-metamarket", help="train the one-shot calibrator")
    t.add_argument("--ablation", action="store_true",
                   help="train the ablation arm, without the state-consistency loss")

    c = subs.add_parser("calibrate", help="calibrate every test day")
    c.add_argument("--method", choices=harness.METHODS, required=True)
    c.add_argument("--seed", type=int, default=None,
                   help="search seed (baselines only; default 0)")
    c.add_argument("--ablation", action="store_true",
                   help="calibrate with the ablation arm (calisim only)")

    subs.add_parser("evaluate", help="produce the evaluation report bundle")
    subs.add_parser("pipeline", help="run every stage above, then evaluate")

    h = subs.add_parser("hypothesize", help="counterfactual state query")
    h.add_argument("--day", type=int, required=True)
    h.add_argument("--set", action="append", default=[], metavar="NAME=DELTA",
                   help="shift an indicator by DELTA z-units (repeatable)")
    return p


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on unknown flags/usage errors; preserve that.
        return int(exc.code or 0)
    try:
        cfg = harness.load_config(args.config)
        return _dispatch(args, cfg)
    except (ConfigError, FileNotFoundError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args, cfg: dict) -> int:
    out: Path = args.out
    if args.command == "gen-benchmark":
        bench = harness.stage_gen_benchmark(cfg, out, state_free=args.state_free)
        print(f"benchmark: {len(bench.days)} days "
              f"({bench.n_warmup} warmup + {bench.n_train} train + {bench.n_test} test) "
              f"-> {out / 'benchmark'}")
        return 0

    if args.command == "simulate":
        bench = harness._load_benchmark(out)
        by_day = {d.day: d for d in bench.days}
        if args.day not in by_day:
            raise ConfigError(f"config field day: {args.day} not in benchmark")
        d = by_day[args.day]
        b = d.b_star
        if args.b_norm is not None:
            try:
                vals = np.array([float(v) for v in args.b_norm.split(",")])
            except ValueError:
                raise ConfigError(f"config field b-norm: {args.b_norm!r} is not "
                                  "a comma-separated list of numbers") from None
            if len(vals) != N_BEHAVIOR:
                raise ConfigError(f"config field b-norm: expected {N_BEHAVIOR} coordinates")
            # from_normalized clips; a coordinate outside [0, 1] (or NaN) is an error here
            if not np.all((vals >= 0.0) & (vals <= 1.0)):
                raise ConfigError(f"config field b-norm: every coordinate must be a "
                                  f"finite number in [0, 1], got {args.b_norm}")
            b = BehaviorVector.from_normalized(vals)
        seed = d.seed if args.seed is None else args.seed
        stream = sim.run_day(bench.cfg, b, d.fund, seed=seed)
        sim.write_stream(stream, args.stream_out)
        print(f"stream: {len(stream.events)} events -> {args.stream_out}.*")
        return 0

    if args.command == "extract-features":
        stream = sim.read_stream(args.stream)
        q = feat.extract(stream)
        for name, v in zip(feat.FEATURE_NAMES, q):
            print(f"{name},{v}")
        return 0

    if args.command == "train-surrogate":
        _, curves = harness.stage_train_surrogate(cfg, out)
        print(f"surrogate: val {curves.val_loss[0]:.4f} -> "
              f"{min(curves.val_loss):.4f} (best epoch {curves.best_epoch})")
        return 0

    if args.command == "train-metamarket":
        _, curves = harness.stage_train_metamarket(cfg, out, ablation=args.ablation)
        print(f"{harness._metamarket_key(args.ablation)}: "
              f"recon {curves.recon[0]:.4f} -> {curves.recon[-1]:.4f}, "
              f"variation {curves.variation[0]:.5f} -> {curves.variation[-1]:.5f}")
        return 0

    if args.command == "calibrate":
        if args.method == "calisim" and args.seed is not None:
            raise ConfigError("config field seed: calisim has no search seed")
        seed = args.seed or 0
        path = harness.stage_calibrate(cfg, out, args.method, seed=seed, ablation=args.ablation)
        calls = harness.read_manifest(out)["sim_calls"]
        key = harness.calibration_key(args.method, seed, args.ablation)
        print(f"calibration -> {path} (simulator calls: {calls[key]['total']})")
        return 0

    if args.command in ("evaluate", "pipeline"):
        run = harness.stage_evaluate if args.command == "evaluate" else harness.run_pipeline
        summary = run(cfg, out)
        for source, row in summary["methods"].items():
            print(f"{source}: mean recon {row['mean_recon']:.4f}, "
                  f"median variation {row['median_variation']:.5f}, "
                  f"mean recovery {row['mean_recovery']:.4f}")
        return 0

    if args.command == "hypothesize":
        deltas = {}
        for item in args.set:
            if "=" not in item:
                raise ConfigError(f"config field set: expected NAME=DELTA, got {item!r}")
            name, _, val = item.partition("=")
            try:
                deltas[name] = float(val)
            except ValueError:
                deltas[name] = np.nan
            if not np.isfinite(deltas[name]):
                raise ConfigError(f"config field set: the delta of {name} must be "
                                  f"a finite number, got {val!r}")
        report = harness.stage_hypothesize(cfg, out, args.day, deltas)
        print(f"day {report['day']}")
        for name in report["factual"]:
            print(f"{name}: {report['factual'][name]:.6g} -> "
                  f"{report['counterfactual'][name]:.6g} "
                  f"(normalized delta {report['delta_normalized'][name]:+.6g})")
        return 0

    raise ConfigError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
