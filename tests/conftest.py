"""Shared pytest hooks and fixtures: collects the acceptance criteria's
pass/fail lines and prints them in the terminal summary of every run, and
poisons Adam's gradients for the training-loop tests."""

import itertools

import acceptance_log
import numpy as np
import pytest

from calisim import autodiff as ad


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_log.lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_log.lines:
            terminalreporter.line(line)


@pytest.fixture
def poison_adam(monkeypatch):
    """`poison(poisoned)`: from then on, the real `Adam.step` finds a NaN
    in the flat gradient on its i-th call (from 0) whenever `poisoned(i)`."""
    real_step = ad.Adam.step

    def poison(poisoned):
        calls = itertools.count()

        def step(self):
            if poisoned(next(calls)):
                self.grad[0] = np.nan
            return real_step(self)

        monkeypatch.setattr(ad.Adam, "step", step)

    return poison
