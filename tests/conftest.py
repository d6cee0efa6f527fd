"""Shared test plumbing: one BLAS thread, and acceptance lines for the run summary."""

import os

# Set before numpy is first imported, and inherited by the process pools
# the study tests start. At the sizes the tests fit, OpenBLAS's second
# thread doubles the CPU time of each fit without shortening it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
