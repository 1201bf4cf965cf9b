"""Shared pytest hooks: collects the acceptance criteria's pass/fail
lines and prints them in the terminal summary of every run."""

import acceptance_log


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_log.lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_log.lines:
            terminalreporter.line(line)
