"""The acceptance criteria's pass/fail lines, collected for the terminal
summary that tests/conftest.py prints. They live in a module of their own
because `import conftest` would name perfbench/tests/conftest.py when both
test directories are collected in one run."""

lines: list[str] = []
