"""Synthetic ground-truth benchmark: planted-behavior dynamics, state
consistency between generator and downstream assembly, self-checks,
determinism, and persistence."""

import numpy as np
import pytest
import yaml

from calisim import benchmark as bm
from calisim.benchmark import Benchmark, gen_benchmark
from calisim.marketstate import WINDOW_DAYS

TINY = dict(n_train=6, n_test=4, n_agents=20, slots_per_day=600,
            surrogate_per_day=2, surrogate_replicates=1)


@pytest.fixture(scope="module", autouse=True)
def tiny_profile():
    bm.PROFILES["tiny"] = TINY
    yield
    del bm.PROFILES["tiny"]


@pytest.fixture(scope="module")
def bench() -> Benchmark:
    return gen_benchmark("tiny", seed=0)


def test_unknown_profile_rejected():
    with pytest.raises(ValueError, match="unknown profile"):
        gen_benchmark("nope", seed=0)


def test_day_counts_and_slicing(bench):
    assert len(bench.days) == WINDOW_DAYS + TINY["n_train"] + TINY["n_test"]
    assert len(bench.train_days) == TINY["n_train"]
    assert len(bench.test_days) == TINY["n_test"]
    assert bench.train_days[0].day == WINDOW_DAYS
    assert bench.test_days[-1].day == len(bench.days) - 1


def test_planted_step_bound(bench):
    """The planted behavior path moves at most 0.1 in squared distance per
    day (recomputed here, independent of the generator's own check)."""
    b = np.stack([d.b_star.normalized() for d in bench.days])
    steps = np.sum(np.diff(b, axis=0) ** 2, axis=1)
    assert float(steps.max()) <= 0.1 + 1e-12
    assert np.all((b >= 0.0) & (b <= 1.0))


def test_planted_state_explains_behavior(bench):
    """Linear regression of b* on the z-scored planted states recovers
    most of the variance -- the calibration signal actually exists."""
    x = np.stack([d.state_planted for d in bench.days])
    b = np.stack([d.b_star.normalized() for d in bench.days])
    z = (x - x.mean(axis=0)) / np.maximum(x.std(axis=0), 1e-9)
    x1 = np.column_stack([z, np.ones(len(z))])
    resid = b - x1 @ np.linalg.lstsq(x1, b, rcond=None)[0]
    r2 = 1.0 - resid.var(axis=0) / b.var(axis=0)
    assert float(r2.mean()) >= 0.5


def test_assembled_state_matches_planted(bench):
    """For every post-warmup day the state recomputed from the simulated
    history equals the state the generator used -- by construction the
    generator is causal in the market's own past."""
    for d in bench.days:
        if d.day < WINDOW_DAYS:
            assert d.state_assembled is None
        else:
            assert np.array_equal(d.state_assembled, d.state_planted)


def test_window_features(bench):
    win = bench.window_features(WINDOW_DAYS)
    assert win.shape == (WINDOW_DAYS, 13)
    assert np.array_equal(win[-1], bench.days[WINDOW_DAYS].features)
    with pytest.raises(ValueError, match="window"):
        bench.window_features(WINDOW_DAYS - 2)


def test_deterministic_per_seed(bench):
    again = gen_benchmark("tiny", seed=0)
    for a, b in zip(again.days, bench.days):
        assert np.array_equal(a.b_star.as_array(), b.b_star.as_array())
        assert np.array_equal(a.features, b.features)
        assert a.seed == b.seed
    other = gen_benchmark("tiny", seed=1)
    assert not np.array_equal(np.stack([d.features for d in other.days]),
                              np.stack([d.features for d in bench.days]))


def test_state_free_variant():
    free = gen_benchmark("tiny", seed=0, state_free=True)
    assert np.array_equal(free.a_map, np.zeros((5, 5)))


def test_calendar_months_advance(bench):
    months = {(d.year, d.month) for d in bench.days}
    assert len(months) == int(np.ceil(len(bench.days) / bm.TRADING_DAYS_PER_MONTH))
    for d in bench.days:
        assert bench.macro.lookup(d.year, d.month)


def test_save_load_roundtrip(tmp_path, bench):
    bench.save(tmp_path / "bench")
    back = Benchmark.load(tmp_path / "bench")
    assert back.profile == bench.profile and back.seed == bench.seed
    assert back.n_warmup == bench.n_warmup
    assert np.allclose(back.a_map, bench.a_map)
    for a, b in zip(back.days, bench.days):
        assert a.day == b.day and a.seed == b.seed
        assert np.array_equal(a.b_star.as_array(), b.b_star.as_array())
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.fund.values, b.fund.values)
        if b.state_assembled is None:
            assert a.state_assembled is None
        else:
            assert np.array_equal(a.state_assembled, b.state_assembled)


def test_load_names_benchmark_yaml_when_the_config_is_rejected(tmp_path, bench):
    """A `benchmark.yaml` edited to `lot_size: 0` fails on load, naming the
    file and the field, not mid-day with a ZeroDivisionError."""
    bench.save(tmp_path / "bench")
    path = tmp_path / "bench" / "benchmark.yaml"
    meta = yaml.safe_load(path.read_text())
    meta["cfg"]["lot_size"] = 0
    path.write_text(yaml.safe_dump(meta, sort_keys=False))
    with pytest.raises(ValueError, match="benchmark.yaml: lot_size must be >= 1, got 0"):
        Benchmark.load(tmp_path / "bench")
