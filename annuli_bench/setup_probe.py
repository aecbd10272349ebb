"""One fresh-interpreter set-up: import annuli, make the workload's inputs.

    python3 annuli_bench/setup_probe.py WORKLOAD SEED [SCALE]

Prints the seconds from before the first import of the package to the end of
input generation; interpreter start-up is not included.  ``run.py`` reports
the median of several of these as ``setup_s``.
"""

import time

t0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402

workloads.make_inputs(sys.argv[1], int(sys.argv[2]), float(sys.argv[3]) if len(sys.argv) > 3 else 1.0)
print(time.perf_counter() - t0)
