"""Pipeline orchestration and CLI: config validation, manifest
accounting, stage wiring on a tiny end-to-end run, and the evaluation
report bundle."""

import contextlib
import hashlib
import io
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from calisim import benchmark as bm
from calisim import harness
from calisim import metamarket as mm
from calisim import simulator as sim
from calisim import surrogate as sur
from calisim.cli import _parser, main
from calisim.harness import ConfigError, load_config, read_manifest, update_manifest

TINY = dict(n_train=6, n_test=4, n_agents=20, slots_per_day=600,
            surrogate_per_day=2, surrogate_replicates=1)

TINY_CFG = {
    "profile": "tiny",
    "seed": 0,
    "surrogate": {"epochs": 20, "lr": 1e-3, "batch_size": 32},
    "metamarket": {"epochs": 3, "lr": 1e-3, "w_t": 5.0, "w_s": 1.0},
    "baselines": {"trials": 4, "seeds": [0]},
    "evaluate": {"eval_seeds": [0]},
}


@pytest.fixture(scope="module", autouse=True)
def tiny_profile():
    bm.PROFILES["tiny"] = TINY
    yield
    del bm.PROFILES["tiny"]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Tiny end-to-end run: benchmark -> surrogate -> calibrator ->
    calibrations -> evaluation report."""
    out = tmp_path_factory.mktemp("run")
    cfg = TINY_CFG
    bench = harness.stage_gen_benchmark(cfg, out)
    net, _ = harness.stage_train_surrogate(cfg, out, bench=bench)
    harness.stage_train_metamarket(cfg, out, bench=bench, net=net)
    harness.stage_calibrate(cfg, out, "calisim", bench=bench)
    harness.stage_calibrate(cfg, out, "randsearch", seed=0, bench=bench)
    harness.stage_calibrate(cfg, out, "bayesopt", seed=0, bench=bench)
    summary = harness.stage_evaluate(cfg, out, bench=bench)
    return out, bench, summary


# -- config ----------------------------------------------------------------------


def test_load_config_defaults():
    cfg = load_config(None)
    assert cfg == harness.DEFAULT_CONFIG
    cfg["surrogate"]["epochs"] = -1  # returned dict is a copy
    assert harness.DEFAULT_CONFIG["surrogate"]["epochs"] != -1


def test_load_config_partial_override(tmp_path):
    """Any profile registered in benchmark.PROFILES loads (`tiny` is, by
    the module fixture), and a leaf takes its default's type: PyYAML reads
    1e-3, with no dot in the mantissa, as a string, and an int field takes
    a numeric string or a whole float."""
    p = tmp_path / "cfg.yaml"
    p.write_text("profile: tiny\nseed: '7'\nsurrogate:\n  epochs: 5.0\n  lr: 1e-3\n")
    cfg = load_config(p)
    assert (cfg["profile"], cfg["seed"]) == ("tiny", 7)
    assert (cfg["surrogate"]["epochs"], cfg["surrogate"]["lr"]) == (5, 0.001)
    assert type(cfg["seed"]) is type(cfg["surrogate"]["epochs"]) is int
    assert cfg["surrogate"]["batch_size"] == harness.DEFAULT_CONFIG["surrogate"]["batch_size"]


@pytest.mark.parametrize("text, field", [
    ("bogus: 1\n", "bogus"),
    ("surrogate:\n  bogus: 1\n", "surrogate.bogus"),
    ("profile: nope\n", "profile"),
    ("baselines:\n  trials: 0\n", "baselines.trials"),
    ("baselines:\n  trials: 3\n", "baselines.trials"),
    ("surrogate: 3\n", "surrogate"),
    ("evaluate:\n  eval_seeds: 3\n", "evaluate.eval_seeds"),
    ("seed: abc\n", "seed"),
    ("seed: 2.5\n", "seed"),
    ("baselines:\n  trials: 4.9\n", "baselines.trials"),
    ("evaluate:\n  eval_seeds: [1.7]\n", "evaluate.eval_seeds"),
    ("surrogate:\n  epochs: true\n", "surrogate.epochs"),
])
def test_load_config_rejects_unknown_fields(tmp_path, text, field):
    p = tmp_path / "cfg.yaml"
    p.write_text(text)
    with pytest.raises(ConfigError, match=field.replace(".", r"\.")):
        load_config(p)


def test_load_config_rejects_non_mapping_root(tmp_path):
    p = tmp_path / "cfg.yaml"
    p.write_text("- 1\n- 2\n")
    with pytest.raises(ConfigError, match="mapping"):
        load_config(p)


# -- manifest --------------------------------------------------------------------


def test_manifest_roundtrip(tmp_path):
    assert read_manifest(tmp_path) == {}
    update_manifest(tmp_path, a=1)
    update_manifest(tmp_path, b="x")
    assert read_manifest(tmp_path) == {"a": 1, "b": "x"}


@pytest.mark.parametrize("text", ["", "- 1\n- 2\n", "a: [1\n"])
def test_read_manifest_refuses_an_empty_or_non_mapping_file(tmp_path, text):
    (tmp_path / "manifest.yaml").write_text(text)
    with pytest.raises(ValueError, match="manifest.yaml: empty or not a YAML mapping"):
        read_manifest(tmp_path)


_UPDATER = """
import sys, time
from pathlib import Path
from calisim.harness import update_manifest
run, go, tag, nest = Path(sys.argv[1]), Path(sys.argv[2]), sys.argv[3], sys.argv[4]
while not go.exists():
    time.sleep(0.001)
for i in range(200):
    entry = {f"{tag}{i}": i}
    update_manifest(run, **({"sim_calls": entry} if nest else entry))
"""


def _concurrent_updates(tmp_path, nest: str) -> dict:
    """The manifest after two processes made 200 updates each at once, of
    top-level keys or, with `nest`, of keys under `sim_calls`."""
    run, go = tmp_path / "run", tmp_path / "go"
    run.mkdir()
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    procs = [subprocess.Popen([sys.executable, "-c", _UPDATER, str(run), str(go), tag, nest],
                              env=env, stderr=subprocess.PIPE, text=True)
             for tag in ("a", "b")]
    go.touch()
    for proc in procs:
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
    assert [p.name for p in run.iterdir()] == ["manifest.yaml"]
    return read_manifest(run)


def test_concurrent_manifest_updates_keep_every_key(tmp_path):
    """Two processes updating one run directory at once: the lock keeps
    every key, and the rename leaves a parsable file."""
    man = _concurrent_updates(tmp_path, "")
    assert man == {f"{tag}{i}": i for tag in ("a", "b") for i in range(200)}


def test_concurrent_manifest_updates_merge_a_mapping(tmp_path):
    """A mapping-valued entry merges into the stored mapping under the lock,
    so two processes adding `sim_calls` keys at once keep all 400."""
    man = _concurrent_updates(tmp_path, "1")
    assert man == {"sim_calls": {f"{tag}{i}": i for tag in ("a", "b") for i in range(200)}}


def test_manifest_update_merges_one_level_deep(tmp_path):
    update_manifest(tmp_path, sim_calls={"a": {"total": 1}}, config={"seed": 0, "x": [1]})
    update_manifest(tmp_path, sim_calls={"b": {"total": 2}, "a": {"days": 3}},
                    config={"seed": 4, "x": [2]}, wall_s=1.0)
    update_manifest(tmp_path, wall_s=2.0)
    assert read_manifest(tmp_path) == {"sim_calls": {"a": {"days": 3}, "b": {"total": 2}},
                                       "config": {"seed": 4, "x": [2]}, "wall_s": 2.0}
    assert list(read_manifest(tmp_path)["sim_calls"]) == ["a", "b"]


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
def test_manifest_libyaml_matches_pure_python(pipeline):
    """A host with libyaml and one without read the same dict from a full
    pipeline's manifest and write it back as the same text."""
    out, _, _ = pipeline
    text = (out / "manifest.yaml").read_text()
    fast, slow = yaml.load(text, Loader=yaml.CSafeLoader), yaml.load(text, Loader=yaml.SafeLoader)
    assert fast == slow and "sim_calls" in fast
    assert (yaml.dump(fast, Dumper=yaml.CSafeDumper, sort_keys=False)
            == yaml.dump(slow, Dumper=yaml.SafeDumper, sort_keys=False) == text)


# -- stage wiring -----------------------------------------------------------------


def test_stages_require_upstream_artifacts(tmp_path):
    with pytest.raises(FileNotFoundError, match="gen-benchmark"):
        harness.stage_train_surrogate(TINY_CFG, tmp_path)
    with pytest.raises(FileNotFoundError, match="train-surrogate"):
        harness.stage_train_metamarket(
            TINY_CFG, tmp_path, bench=bm.gen_benchmark("tiny", seed=0))


def test_calibrate_requires_checkpoints(tmp_path):
    bench = bm.gen_benchmark("tiny", seed=0)
    with pytest.raises(FileNotFoundError, match="train-metamarket"):
        harness.stage_calibrate(TINY_CFG, tmp_path, "calisim", bench=bench)
    with pytest.raises(FileNotFoundError, match="train-surrogate"):
        harness.stage_calibrate(TINY_CFG, tmp_path, "randsearch", bench=bench)
    with pytest.raises(ConfigError, match="method"):
        harness.stage_calibrate(TINY_CFG, tmp_path, "gradient", bench=bench)


def test_evaluate_and_hypothesize_name_the_stage_to_run(tmp_path):
    bench = bm.gen_benchmark("tiny", seed=0)
    with pytest.raises(FileNotFoundError, match="run train-surrogate first"):
        harness.stage_evaluate(TINY_CFG, tmp_path, bench=bench)
    bench.save(tmp_path / "benchmark")
    with pytest.raises(FileNotFoundError, match="run train-metamarket first"):
        harness.stage_hypothesize(TINY_CFG, tmp_path, bench.test_days[0].day, {})


def test_sim_call_accounting(pipeline):
    """The manifest's counters: zero simulator calls for the one-shot
    calibrator, exactly trials-per-day for each search baseline."""
    out, bench, _ = pipeline
    counters = read_manifest(out)["sim_calls"]
    n_days = len(bench.test_days)
    trials = TINY_CFG["baselines"]["trials"]
    assert counters["calisim"] == {"total": 0, "days": n_days, "per_day": 0.0}
    for key in ("randsearch_seed0", "bayesopt_seed0"):
        assert counters[key]["total"] == trials * n_days
        assert counters[key]["per_day"] == trials


def test_one_shot_calibration_never_simulates(pipeline, tmp_path, monkeypatch):
    """With run_day raising in every calisim module that binds it, the
    one-shot calibration still writes the same rows and records 0
    simulator calls."""
    out, bench, _ = pipeline
    run = tmp_path / "run"
    shutil.copytree(out, run)

    def no_simulation(*args, **kwargs):
        raise AssertionError("one-shot calibration simulated a day")

    run_day, patched = sim.run_day, set()
    for name, mod in list(sys.modules.items()):
        if name.startswith("calisim") and getattr(mod, "run_day", None) is run_day:
            monkeypatch.setattr(mod, "run_day", no_simulation)
            patched.add(name)
    assert {"calisim.simulator", "calisim.baselines", "calisim.surrogate"} <= patched
    path = harness.stage_calibrate(TINY_CFG, run, "calisim", bench=bench)
    assert path.read_bytes() == (out / "calibration_calisim.csv").read_bytes()
    assert read_manifest(run)["sim_calls"]["calisim"]["total"] == 0


def test_manifest_records_evaluation_sim_calls(pipeline):
    """evaluate simulates every test day once per eval seed for each
    calibration map it scores: calisim, one per search seed of each
    baseline, and the ground truth."""
    out, bench, _ = pipeline
    n_maps = 2 + 2 * len(TINY_CFG["baselines"]["seeds"])
    assert read_manifest(out)["evaluation_sim_calls"] == (
        len(bench.test_days) * len(TINY_CFG["evaluate"]["eval_seeds"]) * n_maps)


def test_manifest_records_benchmark_and_surrogate_sim_calls(pipeline, tmp_path, monkeypatch):
    """gen-benchmark's and the surrogate's simulated days, counted where
    they are simulated, sit in top-level keys; `sim_calls` keeps the
    calibrations alone."""
    out, bench, _ = pipeline
    calls = {"bm": 0, "sur": 0}
    for key, mod in (("bm", bm), ("sur", sur)):
        def counted(*args, _key=key, _run=mod.run_day, **kwargs):
            calls[_key] += 1
            return _run(*args, **kwargs)
        monkeypatch.setattr(mod, "run_day", counted)
    harness.stage_gen_benchmark(TINY_CFG, tmp_path)
    harness.stage_train_surrogate(TINY_CFG, tmp_path)
    assert calls == {"bm": 30, "sur": 12}
    for run in (out, tmp_path):
        man = read_manifest(run)
        assert (man["benchmark_sim_calls"], man["surrogate_sim_calls"]) == (30, 12)
    assert len(bench.days) == 30
    assert not {"benchmark", "surrogate"} & set(read_manifest(out)["sim_calls"])


def test_manifest_flags_degenerate_test_window_indicators(pipeline):
    """The macro indicators, monthly, hold one value over the tiny run's 4
    test days; the flag is in the manifest, not the golden-pinned summary."""
    out, bench, summary = pipeline
    assert read_manifest(out)["evaluation_degenerate_indicators"] == ["cpi", "ppi", "pmi"]
    states = np.array([d.state_assembled for d in bench.test_days])
    assert [len(np.unique(col)) for col in states.T[:3]] == [1, 1, 1]
    assert "evaluation_degenerate_indicators" not in summary


def test_calibrator_trains_on_the_windows_calibrate_reads(pipeline, tmp_path, monkeypatch):
    """stage_train_metamarket hands metamarket.train, bit for bit, the
    z-scored window and state that calibration reads, for every train day,
    and the checkpoint it trains is the pipeline's."""
    out, bench, _ = pipeline
    seen = {}
    train = mm.train

    def spy(k, wins, states, funds, *args, **kwargs):
        seen.update(k=k, wins=wins, states=states, funds=funds)
        return train(k, wins, states, funds, *args, **kwargs)

    monkeypatch.setattr(mm, "train", spy)
    k, _ = harness.stage_train_metamarket(TINY_CFG, tmp_path, bench=bench,
                                          net=harness._load_surrogate(out))
    days = bench.train_days
    assert seen["k"] is k and len(seen["wins"]) == len(seen["states"]) == len(days)
    for d, w, x, f in zip(days, seen["wins"], seen["states"], seen["funds"]):
        assert w.tobytes() == k.feat_norm.transform(bench.window_features(d.day)).tobytes()
        assert x.tobytes() == k.state_norm.transform(d.state_assembled).tobytes()
        assert f.tobytes() == sur.normalize_fundamental(d.fund).tobytes()
    assert (tmp_path / "metamarket.ck").read_bytes() == (out / "metamarket.ck").read_bytes()


def test_manifest_counts_skipped_optimizer_steps(pipeline):
    out, _, _ = pipeline
    man = read_manifest(out)
    assert man["surrogate_skipped_steps"] == 0
    assert man["metamarket_skipped_steps"] == 0


def test_manifest_records_training_wall_time_and_checkpoint_digests(pipeline):
    out, _, _ = pipeline
    man = read_manifest(out)
    for key in ("surrogate", "metamarket"):
        assert man[f"{key}_wall_s"] > 0
        assert man[f"{key}_sha256"] == hashlib.sha256(
            (out / f"{key}.ck").read_bytes()).hexdigest()


def test_manifest_records_every_stage_wall_time(pipeline):
    """Each stage's wall time is in manifest.yaml, the calibrations under
    the keys of their sim_calls counters, which stay as they were."""
    out, _, summary = pipeline
    man = read_manifest(out)
    keys = ["benchmark", "surrogate", "metamarket", "evaluation"]
    keys += [f"calibrate_{k}" for k in ("calisim", "randsearch_seed0", "bayesopt_seed0")]
    for key in keys:
        assert man[f"{key}_wall_s"] > 0, key
    assert set(man["sim_calls"]) == {"calisim", "randsearch_seed0", "bayesopt_seed0"}
    assert summary["sim_calls"] == man["sim_calls"]


def test_manifest_pins_every_stage_time_simulator_calls_and_optimizer_health(pipeline):
    """The key sets of the tiny run's manifest: each stage's wall time, the
    simulator calls of each stage that simulates (the calibrator's training
    does not) and the skipped optimizer steps of each stage that trains."""
    out, _, _ = pipeline
    man = read_manifest(out)
    calibrations = {"calisim", "randsearch_seed0", "bayesopt_seed0"}
    stages = {"benchmark", "surrogate", "metamarket", "evaluation",
              *(f"calibrate_{k}" for k in calibrations)}
    assert {k for k in man if k.endswith("_wall_s")} == {f"{s}_wall_s" for s in stages}
    assert {k for k in man if k.endswith("sim_calls")} == {
        "benchmark_sim_calls", "surrogate_sim_calls", "sim_calls", "evaluation_sim_calls"}
    assert set(man["sim_calls"]) == calibrations
    assert {k for k in man if k.endswith("_skipped_steps")} == {
        "surrogate_skipped_steps", "metamarket_skipped_steps"}


@pytest.mark.parametrize("method, ck", [("randsearch", "surrogate.ck"),
                                        ("calisim", "metamarket.ck")])
def test_calibrate_rejects_corrupt_checkpoint(pipeline, tmp_path, method, ck):
    """One flipped byte inside a tensor still loads as a checkpoint; the
    digest in the manifest catches it, and the error names the file."""
    out, bench, _ = pipeline
    run = tmp_path / "run"
    shutil.copytree(out, run)
    data = bytearray((run / ck).read_bytes())
    data[-3] ^= 0x01
    (run / ck).write_bytes(bytes(data))
    with pytest.raises(ValueError, match=f"{ck}: SHA-256 differs"):
        harness.stage_calibrate(TINY_CFG, run, method, bench=bench)


def test_checkpoint_without_recorded_digest_loads(pipeline, tmp_path):
    out, _, _ = pipeline
    (tmp_path / "surrogate.ck").write_bytes((out / "surrogate.ck").read_bytes())
    assert harness._load_surrogate(tmp_path) is not None


@pytest.mark.parametrize("name", harness.BENCHMARK_FILES)
def test_load_benchmark_rejects_corrupt_file(pipeline, tmp_path, name):
    """A flipped byte in any benchmark file fails against the digest that
    gen-benchmark recorded, and the error names the file."""
    out, _, _ = pipeline
    run = tmp_path / "run"
    shutil.copytree(out, run)
    path = run / "benchmark" / name
    data = bytearray(path.read_bytes())
    data[-3] ^= 0x01
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match=f"{name}: SHA-256 differs"):
        harness._load_benchmark(run)


def test_benchmark_without_recorded_digests_loads(pipeline, tmp_path):
    out, bench, _ = pipeline
    shutil.copytree(out / "benchmark", tmp_path / "benchmark")
    loaded = harness._load_benchmark(tmp_path)
    assert [d.seed for d in loaded.days] == [d.seed for d in bench.days]


def test_calibration_discovery(pipeline):
    out, bench, _ = pipeline
    days, man = [d.day for d in bench.test_days], read_manifest(out)
    cals = harness._collect_calibrations(out, "randsearch", [0, 1], days, man)
    assert list(cals) == ["randsearch_seed0"]   # no seed-1 file: skipped
    assert sorted(cals["randsearch_seed0"]) == days
    assert harness._collect_calibrations(out, "randsearch", [1], days, man) == {}
    assert harness._collect_calibrations(out, "calisim_ws0", [0], days, man) == {}


def test_manifest_records_calibration_digests(pipeline):
    """Each calibration file's SHA-256 is in the manifest under its key,
    and each search baseline's also the surrogate it was scored with."""
    out, _, _ = pipeline
    man = read_manifest(out)
    assert set(man["calibrations"]) == set(man["sim_calls"])
    for key, want in man["calibrations"].items():
        assert want["sha256"] == hashlib.sha256(
            (out / f"calibration_{key}.csv").read_bytes()).hexdigest(), key
        if key == "calisim":
            assert "surrogate_sha256" not in want
        else:
            assert want["surrogate_sha256"] == man["surrogate_sha256"], key


@pytest.mark.parametrize("key", ["calisim", "bayesopt_seed0"])
def test_evaluate_rejects_corrupt_calibration(pipeline, tmp_path, key):
    """One changed digit in a calibration still parses and covers every
    test day; the digest in the manifest catches it, naming the file."""
    out, bench, _ = pipeline
    run = tmp_path / "run"
    shutil.copytree(out, run)
    path = run / f"calibration_{key}.csv"
    header, row, *rest = path.read_text().splitlines(keepends=True)
    day, b1, *cells = row.split(",")
    b1 = b1[:-1] + ("1" if b1[-1] != "1" else "2")
    path.write_text("".join([header, ",".join([day, b1, *cells]), *rest]))
    with pytest.raises(ValueError, match=f"calibration_{key}.csv: SHA-256 differs"):
        harness.stage_evaluate(TINY_CFG, run, bench=bench)


def test_evaluate_rejects_calibrations_of_a_retrained_surrogate(pipeline, tmp_path):
    """A surrogate retrained after the search baselines were calibrated
    makes evaluate refuse them, naming the first one's file."""
    out, bench, _ = pipeline
    run = tmp_path / "run"
    shutil.copytree(out, run)
    harness.stage_train_surrogate({**TINY_CFG, "seed": 1}, run, bench=bench)
    assert read_manifest(run)["surrogate_sha256"] != read_manifest(out)["surrogate_sha256"]
    with pytest.raises(ValueError, match="calibration_randsearch_seed0.csv: calibrated "
                                         "with another surrogate"):
        harness.stage_evaluate(TINY_CFG, run, bench=bench)


def test_trained_and_loaded_models_hold_no_gradients(pipeline, tmp_path):
    """The calibrator that stage_train_metamarket returns, and the surrogate
    and calibrator that calibrate, evaluate and hypothesize load, hold no
    gradient arrays."""
    out, bench, _ = pipeline
    net = harness._load_surrogate(out)
    k, _ = harness.stage_train_metamarket(TINY_CFG, tmp_path, bench=bench, net=net)
    for p in [*net.params(), *k.params(), *harness._load_metamarket(out).params()]:
        assert p.grad is None, p.name


def test_evaluation_report_bundle(pipeline):
    out, _, summary = pipeline
    report = out / "evaluation"
    for name in ("reconstruction_cdf.csv", "variation_hist.csv", "recovery.csv",
                 "correlation_table.csv", "summary.yaml",
                 "plot_reconstruction_cdf.py", "plot_variation_hist.py",
                 "plot_recovery.py"):
        assert (report / name).exists(), name
    with open(report / "summary.yaml") as f:
        on_disk = yaml.safe_load(f)
    assert on_disk["methods"].keys() == summary["methods"].keys()
    assert set(summary["methods"]) == {"calisim", "randsearch", "bayesopt",
                                       "ground_truth"}
    assert summary["missing_methods"] == ["calisim_ws0"]
    for row in summary["methods"].values():
        assert np.isfinite(row["mean_recon"]) and row["mean_recon"] >= 0
        assert np.isfinite(row["mean_recovery"])
    # the planted truth has zero recovery error by definition, and with
    # eval seed 0 it replays the generating stream exactly (zero recon)
    assert summary["methods"]["ground_truth"]["mean_recovery"] == 0.0
    assert summary["methods"]["ground_truth"]["mean_recon"] == 0.0
    assert summary["methods"]["randsearch"]["mean_recon"] > 0


def test_calibration_rerun_is_byte_identical(pipeline):
    out, bench, _ = pipeline
    path = out / "calibration_randsearch_seed0.csv"
    before = path.read_bytes()
    harness.stage_calibrate(TINY_CFG, out, "randsearch", seed=0, bench=bench)
    assert path.read_bytes() == before


# SHA-256 of every artifact of the tiny run except manifest.yaml, which
# records absolute paths. Any change to the learning side (normalizers,
# surrogate, calibrator, baselines, evaluation) that is meant to be
# bit-identical must leave these unchanged.
TINY_GOLDEN = {
    "benchmark/benchmark.yaml": "29693d17fb641f82e373787c678a4c47d2c66209b4144bebd0ab0c23f2af703b",
    "benchmark/days.csv": "e19d5a899ab9070230d1e8a9bea2c5473dc6950c801179f34a6e21f5116a5fde",
    "benchmark/macro.csv": "c47288dfad438d270a6f674a143fb322c3f17f1d14665af4c0529dd2fb1f628c",
    "calibration_bayesopt_seed0.csv": "0185bf1c2254129995b0e4be4fa8d5f0751f4e23e4344b5d063f898ca6ef3484",
    "calibration_calisim.csv": "b53aa13a637b8139aaa5f4c797fc9be0aea6fbe5b48e82061533e67cf5f095b2",
    "calibration_ground_truth.csv": "9f13184b222c11bbe6c2b1d04bc2a9856ebb8dd3fc1d082a0ad1c12492ff00c9",
    "calibration_randsearch_seed0.csv": "cef4af394dcc000013d70373d31cba97e6ab9ab1a0bacf15011f866c6f6e1b1d",
    "evaluation/correlation_table.csv": "310771b44ec72a0a490da85a39e25fd2fcff89b0a40207e331e812c319abbc54",
    "evaluation/plot_reconstruction_cdf.py": "17571b2398edb641f39c13048f6db9bf450210aa7b8f6f2fb931941fc2c1148e",
    "evaluation/plot_recovery.py": "cdeefb30457e896c3d8b5824e8058f747a527bff2f2a57f0263f470266825969",
    "evaluation/plot_variation_hist.py": "cd47fd4d99e3601881b219484e6e494c2d16b2c855976599826145fd54de7d51",
    "evaluation/reconstruction_cdf.csv": "e5fcab3e7eb9809f387bd8467687aee8c7c1190d2e25afe2aca1727a930a7f8d",
    "evaluation/recovery.csv": "32066ee375faa42e90ddcf737ed5315daf067c62152e6ac97730e65a06e47880",
    "evaluation/summary.yaml": "3619fc8fc5ce108ee64b693bab0e831406f642e44a231f664e9fca4fe46b307b",
    "evaluation/variation_hist.csv": "00b87ebaadf03e57183fbe86b27eb79dcec03d4eec6b29a43c61b1e473bff021",
    "metamarket.ck": "cd5594b888feecd7e53266eb13ce692b6e423ed7069d953bff87c50218a538c2",
    "metamarket_curves.csv": "841a44f1bb9cdc453da264664314cf0775bcd2b867ca3b519b3458885b2f6c7f",
    "surrogate.ck": "f3c9d9fee8e6ae600eac05707a744e77548e8cd576784bf86630d192e2dc76f0",
    "surrogate_curves.csv": "5da42772636c5affaa00eb367f93cf6263d2cb79ced8c1ba7fe38dd24aed1fe8",
    "surrogate_dataset.csv": "7d6d08aaf646cb334811d9e329525235ba53fe749a6898e7f208271a14d94a5b",
}


def _digests(out: Path) -> dict[str, str]:
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*"))
            if p.is_file() and p.name != "manifest.yaml"}


def test_tiny_pipeline_golden_digests(pipeline):
    out, _, _ = pipeline
    assert _digests(out) == TINY_GOLDEN


def test_evaluate_without_calibrations(pipeline, tmp_path):
    out, bench, _ = pipeline
    bench.save(tmp_path / "benchmark")
    (tmp_path / "surrogate.ck").write_bytes((out / "surrogate.ck").read_bytes())
    with pytest.raises(FileNotFoundError, match="no calibration outputs"):
        harness.stage_evaluate(TINY_CFG, tmp_path, bench=bench)


def test_evaluate_names_calibration_missing_a_day(pipeline, tmp_path, capsys):
    """A calibration CSV cut short of the last test day, or holding no rows
    of its method, stops `evaluate` with the file and the day named."""
    out, bench, _ = pipeline
    run = tmp_path / "run"
    shutil.copytree(out, run)
    path = run / "calibration_randsearch_seed0.csv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))
    last = bench.test_days[-1].day
    assert main(["--out", str(run), "evaluate"]) == 1
    err = capsys.readouterr().err
    assert str(path) in err and f"test day(s) {last}" in err
    assert "Traceback" not in err
    path.write_text(lines[0])   # the header alone
    with pytest.raises(ValueError, match="no rows of source randsearch"):
        harness.stage_evaluate(TINY_CFG, run, bench=bench)


def test_hypothesize_stage(pipeline):
    out, bench, _ = pipeline
    day = bench.test_days[0].day
    report = harness.stage_hypothesize(TINY_CFG, out, day, {"cpi": 1.0})
    moved = harness.stage_hypothesize(TINY_CFG, out, day, {"cpi": 1.0})
    assert report == moved  # deterministic
    assert set(report["delta_normalized"]) == {"delta_f", "delta_c", "delta_n",
                                               "tau", "p_inst"}
    with pytest.raises(ConfigError, match="unknown indicator"):
        harness.stage_hypothesize(TINY_CFG, out, day, {"gdp": 1.0})
    with pytest.raises(ConfigError, match="day"):
        harness.stage_hypothesize(TINY_CFG, out, 0, {"cpi": 1.0})


# -- CLI ----------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_cfg_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "tiny.yaml"
    path.write_text(yaml.safe_dump(TINY_CFG))
    return path


@pytest.fixture(scope="module")
def cli_pipeline(tiny_cfg_file, tmp_path_factory):
    """`calisim pipeline` on the tiny profile, into a run directory it
    creates: its exit code, what it printed and the run directory."""
    out = tmp_path_factory.mktemp("cli_run") / "run"
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        code = main(["--config", str(tiny_cfg_file), "--out", str(out), "pipeline"])
    return code, printed.getvalue(), out


# the evaluation files that name every calibrated method, the ablation arm included
EVAL_TABLES = ("evaluation/correlation_table.csv", "evaluation/reconstruction_cdf.csv",
               "evaluation/recovery.csv", "evaluation/variation_hist.csv")


def test_cli_pipeline_runs_the_stagewise_run_plus_the_ablation_arm(cli_pipeline):
    """`calisim pipeline` writes the stage-wise tiny run's files bit for bit,
    plus the ablation arm: its checkpoint, curves and calibration, and its
    rows in the evaluation tables."""
    code, _, out = cli_pipeline
    assert code == 0
    got = _digests(out)
    arm = {"metamarket_ws0.ck", "metamarket_ws0_curves.csv", "calibration_calisim_ws0.csv"}
    assert set(got) == set(TINY_GOLDEN) | arm
    assert got["metamarket_ws0.ck"] != got["metamarket.ck"]
    for name, digest in TINY_GOLDEN.items():
        if name in EVAL_TABLES:
            lines = (out / name).read_bytes().splitlines(keepends=True)
            kept = b"".join(x for x in lines if not x.startswith(b"calisim_ws0,"))
            assert len(kept) < sum(map(len, lines)), name
            assert hashlib.sha256(kept).hexdigest() == digest, name
        elif name != "evaluation/summary.yaml":
            assert got[name] == digest, name
    with open(out / "evaluation" / "summary.yaml") as f:
        summary = yaml.safe_load(f)
    assert summary["missing_methods"] == []
    assert set(summary["methods"]) == {*harness.METHODS, harness.ABLATION, "ground_truth"}
    man = read_manifest(out)
    for key in ("wall_s", "sha256", "skipped_steps"):
        assert f"metamarket_ws0_{key}" in man, key
    assert man["calibrate_calisim_ws0_wall_s"] > 0
    assert set(man["sim_calls"]) == {"calisim", "calisim_ws0",
                                     *(f"{m}_seed{s}" for m in ("randsearch", "bayesopt")
                                       for s in TINY_CFG["baselines"]["seeds"])}


def test_cli_pipeline_prints_the_evaluate_lines(cli_pipeline, tiny_cfg_file, tmp_path,
                                                capsys):
    _, printed, out = cli_pipeline
    run = tmp_path / "run"
    shutil.copytree(out, run)
    assert main(["--config", str(tiny_cfg_file), "--out", str(run), "evaluate"]) == 0
    assert printed == capsys.readouterr().out
    assert [x.split(":")[0] for x in printed.splitlines()] == [
        *harness.METHODS, harness.ABLATION, "ground_truth"]


def test_cli_ablation_arm_matches_the_pipeline(pipeline, cli_pipeline, tiny_cfg_file,
                                               tmp_path, capsys):
    """On a copy of the stage-wise tiny run, `train-metamarket --ablation`
    and `calibrate --method calisim --ablation` write the files that
    `calisim pipeline` writes for the ablation arm, byte for byte."""
    out, _, _ = pipeline
    run = tmp_path / "run"
    shutil.copytree(out, run)
    cfg = ["--config", str(tiny_cfg_file), "--out", str(run)]
    assert main([*cfg, "train-metamarket", "--ablation"]) == 0
    assert capsys.readouterr().out.startswith("metamarket_ws0: recon")
    assert main([*cfg, "calibrate", "--method", "calisim", "--ablation"]) == 0
    assert "calibration_calisim_ws0.csv (simulator calls: 0)" in capsys.readouterr().out
    _, _, piped = cli_pipeline
    for name in ("metamarket_ws0.ck", "calibration_calisim_ws0.csv"):
        assert (run / name).read_bytes() == (piped / name).read_bytes(), name
    assert (run / "metamarket.ck").read_bytes() == (out / "metamarket.ck").read_bytes()


def test_evaluate_scores_only_the_config_seeds(cli_pipeline, tmp_path):
    """A run directory that still holds an earlier run's seed-1 calibrations:
    a pipeline with `baselines.seeds: [0]` into it scores seed 0 alone, and
    its summary equals that of a fresh run with the same config."""
    run = tmp_path / "run"
    two_seeds = {**TINY_CFG, "baselines": {**TINY_CFG["baselines"], "seeds": [0, 1]}}
    harness.run_pipeline(two_seeds, run)
    assert (run / "calibration_bayesopt_seed1.csv").exists()
    summary = harness.run_pipeline(TINY_CFG, run)
    # calisim, its ablation arm, one map per baseline and the ground truth
    n_maps = 2 + len(harness.METHODS[1:]) + 1
    assert read_manifest(run)["evaluation_sim_calls"] == (
        n_maps * TINY["n_test"] * len(TINY_CFG["evaluate"]["eval_seeds"]))
    assert list(summary["sim_calls"]) == ["calisim", "calisim_ws0",
                                          "randsearch_seed0", "bayesopt_seed0"]
    _, _, fresh = cli_pipeline
    assert ((run / "evaluation/summary.yaml").read_bytes()
            == (fresh / "evaluation/summary.yaml").read_bytes())


def test_cli_ablation_of_a_search_baseline_exits_1(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "calibrate", "--method", "randsearch",
                 "--ablation"]) == 1
    assert "config field ablation: randsearch has no ablation arm" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["0", "5"])
def test_cli_seed_of_calisim_exits_1(tmp_path, capsys, seed):
    """The one-shot calibrator has no search seed; a given one is refused,
    not ignored, and no calibration file is written."""
    assert main(["--out", str(tmp_path), "calibrate", "--method", "calisim",
                 "--seed", seed]) == 1
    assert "config field seed: calisim has no search seed" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_readme_cli_lines_parse():
    """Every `calisim ...` line of the README's CLI block parses, so an
    option removed from the CLI cannot stay in the docs."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [x for x in block.splitlines() if x.startswith("calisim ")]
    commands = set()
    for line in lines:
        args = shlex.split(line, comments=True)[1:]
        try:
            commands.add(_parser().parse_args(args).command)
        except SystemExit:
            pytest.fail(f"README CLI line does not parse: {line}")
    assert len(lines) >= 12 and {"pipeline", "train-metamarket", "calibrate"} <= commands


def test_cli_unknown_command_exits_2(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "frobnicate"]) == 2
    assert main(["--out", str(tmp_path)]) == 2  # missing subcommand
    assert main(["--out", str(tmp_path), "calibrate", "--method", "nope"]) == 2
    # the ablation arm is `--ablation`; `pipeline` takes no options
    for argv in (["train-metamarket", "--w-s", "0"], ["train-metamarket", "--tag", "_ws0"],
                 ["calibrate", "--method", "calisim", "--tag", "_ws0"],
                 ["hypothesize", "--day", "0", "--tag", "_ws0"], ["pipeline", "--seed", "1"]):
        assert main(["--out", str(tmp_path), *argv]) == 2, argv


def test_cli_missing_input_exits_1(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "train-surrogate"]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_bad_config_exits_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("bogus: 1\n")
    code = main(["--config", str(cfg), "--out", str(tmp_path), "evaluate"])
    assert code == 1
    assert "bogus" in capsys.readouterr().err


def test_cli_simulate_and_extract(pipeline, tmp_path, capsys):
    out, bench, _ = pipeline
    day = bench.test_days[0].day
    prefix = tmp_path / "stream"
    assert main(["--out", str(out), "simulate", "--day", str(day),
                 "--stream-out", str(prefix)]) == 0
    capsys.readouterr()
    for suffix, digest in (
            ("events", "fd57fd1a82dbb42621d7c78dcd7a5d693e391f261bed26b7c8b46336c1974258"),
            ("mids", "f258cdec7ad64084c8c591cba161e76a616dc788645204287b6353349c3e691f")):
        path = tmp_path / f"stream.{suffix}.csv"
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, path.name
    assert main(["--out", str(out), "extract-features",
                 "--stream", str(prefix)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 13
    got = np.array([float(line.split(",")[1]) for line in lines])
    assert np.array_equal(got, bench.days[day].features)


@pytest.mark.parametrize("b_norm", ["2,0,0,0,0", "0.5,0.5,-0.1,0.5,0.5", "nan,0,0,0,0",
                                    "0,0,0,0,inf", "0.5,x,0.5,0.5,0.5", "0.5,0.5"])
def test_cli_simulate_rejects_bad_b_norm(pipeline, tmp_path, capsys, b_norm):
    """A coordinate outside [0, 1] is an error, not a silent clip to the bound."""
    out, bench, _ = pipeline
    prefix = tmp_path / "stream"
    assert main(["--out", str(out), "simulate", "--day", str(bench.test_days[0].day),
                 "--b-norm", b_norm, "--stream-out", str(prefix)]) == 1
    assert "b-norm" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_cli_simulate_accepts_b_norm_at_the_bounds(pipeline, tmp_path, capsys):
    out, bench, _ = pipeline
    assert main(["--out", str(out), "simulate", "--day", str(bench.test_days[0].day),
                 "--b-norm", "0,1,0.5,1,0", "--stream-out", str(tmp_path / "s")]) == 0


def test_cli_hypothesize(pipeline, capsys):
    out, bench, _ = pipeline
    day = bench.test_days[0].day
    assert main(["--out", str(out), "hypothesize", "--day", str(day),
                 "--set", "trend=0.5"]) == 0
    assert f"day {day}" in capsys.readouterr().out
    assert main(["--out", str(out), "hypothesize", "--day", str(day),
                 "--set", "trend"]) == 1


@pytest.mark.parametrize("delta", ["abc", "nan", "inf", "-inf", ""])
def test_cli_hypothesize_rejects_bad_delta(pipeline, capsys, delta):
    out, bench, _ = pipeline
    assert main(["--out", str(out), "hypothesize", "--day", str(bench.test_days[0].day),
                 "--set", f"trend={delta}"]) == 1
    err = capsys.readouterr().err
    assert "config field set: the delta of trend must be a finite number" in err


def test_import_and_bayes_opt_load_no_scipy():
    """No calisim module imports scipy, at load or when GP-BO fits and
    queries its GP, and GP-BO's result in that fresh process equals the one
    in the test's own process."""
    from calisim.baselines import bayes_opt
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, calisim, calisim.cli, calisim.harness, calisim.baselines\n"
            "import numpy as np\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules if m.startswith('scipy'))\n"
            "print(loaded())\n"
            "def score(b, seed):\n"
            "    return float(np.sum((b.normalized() - 0.3) ** 2))\n"
            "b, s = calisim.baselines.bayes_opt(score, trials=5, seed=3)\n"
            "print(b.as_array().tobytes().hex(), s.hex())\n"
            "print(loaded())")
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    before, result, after = done.stdout.splitlines()
    assert before == "[]"
    b, s = bayes_opt(lambda b, seed: float(np.sum((b.normalized() - 0.3) ** 2)),
                     trials=5, seed=3)
    assert result == f"{b.as_array().tobytes().hex()} {s.hex()}"
    assert after == "[]"
