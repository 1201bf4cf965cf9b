"""In-memory span tracer and the monkeypatching that installs it.

Spans are recorded from the benchmark's own files, around calls into the
program: nothing under `src/` knows it is being traced. Each span keeps its
name, start, end and parent in flat typed arrays, so a traced day with
thousands of order decisions costs a few appends per call and no objects.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter_ns

import numpy as np


@dataclass
class SpanStats:
    """Aggregate of every span with one name inside a summarized range."""

    calls: int
    total_ns: float
    self_ns: float
    durations_ns: np.ndarray


class Tracer:
    """Records nested spans and named counters.

    Spans must nest (single-threaded calls); a span's parent is the span
    open when it began. Self time is a span's duration minus the durations
    of its direct children, which is the part of its interval they cover.
    """

    def __init__(self, clock=perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._open: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)

    def __len__(self) -> int:
        return len(self.start)

    def _name(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, on_result=None):
        """`fn` wrapped in a span; `on_result(result)` sees each return value."""
        nid = self._name(name)
        start, end, parent, name_id, opened = (
            self.start, self.end, self.parent, self.name_id, self._open)
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(opened[-1] if opened else -1)
            end.append(0)
            opened.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                opened.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def counted(self, name: str, fn):
        """`fn` wrapped in a bare call counter, for calls too cheap to span."""
        counts = self.counts

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counting

    def summary(self, first: int = 0, last: int | None = None) -> dict[str, SpanStats]:
        """Per-name calls, total and self time of the spans with index in
        [first, last). Ranges must cut between top-level spans so that no
        span's children fall outside it."""
        n = len(self.start)
        last = n if last is None else last
        if self._open and last > self._open[0]:
            raise RuntimeError("cannot summarize spans that are still open")
        start = np.frombuffer(self.start, dtype=np.int64)[:n]
        end = np.frombuffer(self.end, dtype=np.int64)[:n]
        parent = np.frombuffer(self.parent, dtype=np.int64)[:n]
        nid = np.frombuffer(self.name_id, dtype=np.int64)[:n]
        dur = (end - start).astype(float)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        own = dur - child
        out = {}
        sel = slice(first, last)
        ids, dur, own = nid[sel], dur[sel], own[sel]
        for k in np.unique(ids):
            m = ids == k
            out[self.names[k]] = SpanStats(int(m.sum()), float(dur[m].sum()),
                                           float(own[m].sum()), dur[m])
        return out

    def dump(self, path):
        """Write every span and counter to an .npz file."""
        n = len(self.start)
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.int64)[:n],
                 start_ns=np.frombuffer(self.start, dtype=np.int64)[:n],
                 end_ns=np.frombuffer(self.end, dtype=np.int64)[:n],
                 parent=np.frombuffer(self.parent, dtype=np.int64)[:n],
                 counter_names=np.array(sorted(self.counts)),
                 counter_values=np.array([self.counts[k] for k in sorted(self.counts)]))


class Patcher:
    """Swaps attributes of the program's modules and classes, and puts the
    originals back on `restore`."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def function(self, module, attr: str, make):
        """Replace module function `module.attr` with `make(fn)` in every
        calisim module that holds a reference to it, so that
        `from .simulator import run_day` call sites see the wrapper too."""
        fn = getattr(module, attr)
        wrapper = make(fn)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "calisim" or name.startswith("calisim.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is fn:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, fn))

    def method(self, cls, attr: str, make):
        """Replace `cls.attr` with `make(fn)`, keeping staticmethods static."""
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            new = staticmethod(make(raw.__func__))
        else:
            new = make(raw)
        setattr(cls, attr, new)
        self._undo.append((cls, attr, raw))

    def restore(self):
        while self._undo:
            obj, attr, val = self._undo.pop()
            setattr(obj, attr, val)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False
