import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

import acceptance_report  # noqa: E402


def pytest_report_header(config):
    # whether this run is pinned: memory and thread tests read differently
    # at one OpenBLAS thread, where a fit may start its helper
    from tensorreg import tensor

    pins = ", ".join(f"{name}={os.environ.get(name, 'unset')}"
                     for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"))
    return f"tensorreg: numpy's OpenBLAS threads: {tensor._blas_threads()} ({pins})"


def pytest_terminal_summary(terminalreporter):
    # repeat the acceptance pass/fail lines where truncated captures can't hide them
    if acceptance_report.LINES:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_report.LINES:
            terminalreporter.write_line(line)
