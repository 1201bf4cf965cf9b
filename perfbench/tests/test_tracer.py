"""Span bookkeeping of the benchmark's tracer."""

import pytest

from perfbench.tracer import Patcher, Tracer


class FakeClock:
    """Returns scripted timestamps in call order."""

    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_on_nested_tree():
    # root [0, 100]: a [10, 40] holding leaf [15, 25]; b [50, 90]
    tr = Tracer(clock=FakeClock([0, 10, 15, 25, 40, 50, 90, 100]))
    leaf = tr.wrap("leaf", lambda: None)
    a = tr.wrap("a", leaf)
    b = tr.wrap("b", lambda: None)
    tr.wrap("root", lambda: (a(), b()))()
    s = tr.summary()
    assert {k: (v.calls, v.total_ns, v.self_ns) for k, v in s.items()} == {
        "root": (1, 100, 30), "a": (1, 30, 20), "leaf": (1, 10, 10), "b": (1, 40, 40)}
    assert list(tr.parent) == [-1, 0, 1, 0]


def test_wrapped_calls_aggregate_by_name_and_range():
    # outer [0, 17] calls leaf [2, 5] and [10, 11]; then outer [30, 50]
    # calls leaf [31, 33] and [40, 41]
    tr = Tracer(clock=FakeClock([0, 2, 5, 10, 11, 17, 30, 31, 33, 40, 41, 50]))
    seen = []
    leaf = tr.wrap("leaf", lambda x: x * 2, on_result=seen.append)
    outer = tr.wrap("outer", lambda: leaf(1) + leaf(2))
    assert outer() == 6 and seen == [2, 4]
    mark = len(tr)
    assert outer() == 6
    first, second = tr.summary(0, mark), tr.summary(mark)
    assert (first["outer"].total_ns, first["outer"].self_ns) == (17, 13)
    assert list(first["leaf"].durations_ns) == [3, 1]
    assert (second["outer"].total_ns, second["outer"].self_ns) == (20, 17)
    assert second["leaf"].calls == 2 and second["leaf"].total_ns == 3
    assert tr.summary()["outer"].self_ns == 30


def test_counted_and_open_span_guard():
    tr = Tracer()
    f = tr.counted("f", lambda: None)
    for _ in range(3):
        f()
    assert tr.counts["f"] == 3

    def summarize_inside_a_span():
        with pytest.raises(RuntimeError):
            tr.summary()

    tr.wrap("open", summarize_inside_a_span)()


def test_patcher_replaces_every_reference_and_restores():
    from calisim import baselines, simulator, surrogate
    original = simulator.run_day
    with Patcher() as p:
        p.function(simulator, "run_day", lambda fn: "wrapped")
        assert simulator.run_day == surrogate.run_day == baselines.run_day == "wrapped"
    assert simulator.run_day is surrogate.run_day is baselines.run_day is original
