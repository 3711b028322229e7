"""Pin BLAS and OpenMP to one thread before numpy is imported.

The suite's matrices are small (n <= 30), where a threaded BLAS costs more
than it saves: the n=30 double-bracket test takes about 1 s under default
OpenBLAS threading on a 2-core machine and about 30 ms with one thread.
A value already set in the environment is left as it is and reported in
the pytest header.
"""

import os
import sys

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
_PRESET = {var: os.environ[var] for var in _THREAD_VARS if var in os.environ}
_NUMPY_FIRST = "numpy" in sys.modules
for _var in _THREAD_VARS:
    os.environ.setdefault(_var, "1")


def pytest_report_header(config):
    lines = [f"BLAS threads: {', '.join(f'{v}={os.environ[v]}' for v in _THREAD_VARS)}"]
    if _PRESET:
        preset = ", ".join(f"{var}={value}" for var, value in _PRESET.items())
        lines.append(f"BLAS threads: kept from the environment: {preset}")
    if _NUMPY_FIRST:
        lines.append("BLAS threads: numpy was imported before the pin, which may not apply")
    return lines
