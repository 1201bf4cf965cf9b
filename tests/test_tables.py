"""CSV artifact tables: every reader rejects a missing column, a cut row
and a non-numeric cell with a ValueError naming the file and line, and
the CLI reports such a file instead of failing with a traceback."""

import re
import shutil

import pytest

from calisim import benchmark as bm
from calisim import metamarket as mm
from calisim import simulator as sim
from calisim.cli import main
from test_simulator import resign

TINY = dict(n_train=6, n_test=4, n_agents=20, slots_per_day=600,
            surrogate_per_day=2, surrogate_replicates=1)


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """A saved tiny benchmark, a calibration of its test days and one
    written order stream."""
    out = tmp_path_factory.mktemp("tables")
    bm.PROFILES["tiny"] = TINY
    try:
        bench = bm.gen_benchmark("tiny", seed=0)
    finally:
        del bm.PROFILES["tiny"]
    bench.save(out / "benchmark")
    mm.write_calibration(out / "calibration_ground_truth.csv",
                         [(d.day, d.b_star, "ground_truth") for d in bench.test_days])
    d = bench.test_days[0]
    sim.write_stream(sim.run_day(bench.cfg, d.b_star, d.fund, seed=d.seed), out / "day")
    return out


# file -> (reader of the run directory, column to drop, column to spoil)
TABLES = {
    "benchmark/days.csv": (lambda out: bm.Benchmark.load(out / "benchmark"), "f1", "q1"),
    "benchmark/macro.csv": (lambda out: bm.Benchmark.load(out / "benchmark"), "pmi", "cpi"),
    "calibration_ground_truth.csv": (
        lambda out: mm.read_calibration(out / "calibration_ground_truth.csv"), "b1", "b3"),
    "day.events.csv": (lambda out: sim.read_stream(out / "day"), "size_lots", "price_ticks"),
}


def _spoil(lines: list[str], case: str, drop: str, spoil: str) -> tuple[list[str], str]:
    """The corrupted lines and the error the reader must raise."""
    header = lines[0].split(",")
    if case == "missing_column":
        j = header.index(drop)
        return ([",".join(c for k, c in enumerate(line.split(",")) if k != j)
                 for line in lines], f"line 1: bad header, missing {drop}")
    if case == "cut_last_row":
        last = lines[-1]
        return (lines[:-1] + [last[: len(last) // 2]],
                rf"line {len(lines)}: \d+ cells, expected {len(header)}")
    cells = lines[1].split(",")
    cells[header.index(spoil)] = "abc"
    return [lines[0], ",".join(cells), *lines[2:]], "line 2: .*'abc'"


@pytest.mark.parametrize("case", ["missing_column", "cut_last_row", "non_numeric"])
@pytest.mark.parametrize("name", TABLES)
def test_reader_rejects_corrupt_table(run_dir, tmp_path, name, case):
    read, drop, spoil = TABLES[name]
    out = tmp_path / "run"
    shutil.copytree(run_dir, out)
    path = out / name
    lines, error = _spoil(path.read_text().splitlines(), case, drop, spoil)
    path.write_text("\n".join(lines) + "\n")
    resign(out / "day")   # the events digest would otherwise fire first
    with pytest.raises(ValueError, match=re.escape(str(path)) + ": " + error):
        read(out)


def test_cli_reports_cut_days_file(run_dir, tmp_path, capsys):
    out = tmp_path / "run"
    shutil.copytree(run_dir / "benchmark", out / "benchmark")
    days = out / "benchmark" / "days.csv"
    text = days.read_text()
    days.write_text(text[: len(text) - 40])   # cut inside the last row
    assert main(["--out", str(out), "train-surrogate"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {days}: line ") and "Traceback" not in err


def test_benchmark_load_rejects_dropped_day(run_dir, tmp_path):
    """A days.csv cut at a row boundary parses cleanly but lacks days."""
    out = tmp_path / "run"
    shutil.copytree(run_dir / "benchmark", out)
    days = out / "days.csv"
    days.write_text("".join(days.read_text().splitlines(True)[:-1]))
    with pytest.raises(ValueError, match=re.escape(str(days)) + ": expected days 0..29"):
        bm.Benchmark.load(out)
