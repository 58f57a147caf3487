"""Shared constants, statistics and the environment record of a benchmark run.

Only the standard library is imported at module level, so that the BLAS
thread setting can be fixed before numpy loads.
"""

from __future__ import annotations

import importlib.metadata
import math
import os
import platform
import resource
import statistics
import sys
import time

TWO_PI = 2.0 * math.pi

# Device and comb of the acceptance suite: 4.2 GHz resonance, 112 MHz
# linewidth, 0.1 MHz spacing, 95 modes.
RESONANCE_HZ = 4.2e9
COUPLING_HZ = 112e6
SPACING_HZ = 0.1e6
HALF_SPAN = 47

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Per-layer import metrics and the module whose cumulative import time each
# reports; "combscatter" sums the package's top-level entries.
IMPORT_METRICS = {
    "import.combscatter_s": "combscatter",
    "import.scipy_linalg_s": "scipy.linalg",
    "import.networkx_s": "networkx",
    "import.yaml_s": "yaml",
}

# The invocations of one cli-cold round, in order; each is timed separately.
CLI_TASKS = (
    "predict-idlers",
    "simulate",
    "graph",
    "covariance",
    "sample-covariance",
    "sweep-phase",
    "search-phases",
    "fit",
    "invalid-config",
)

def cpu_seconds() -> float:
    """CPU seconds used by this process and by its children that have been waited for.

    Every timing of the end-to-end metrics is a difference of this clock,
    which leaves out the time a process waits for a CPU.  With two busy
    loops competing for the two CPUs of a 2-vCPU Xeon guest, a census
    scheme's median wall time was 1.6 times its CPU time.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple[float, int, int]:
    """Highest integer percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples_beyond)`` using the nearest-rank
    definition: the value is the ``ceil(p*n/100)``-th smallest sample.  The
    percentile never drops below the median; with fewer than 20 samples the
    median is returned and ``samples_beyond`` says how few lie past it.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    percentile = max(50, (100 * (n - 10)) // n)
    rank = max(1, math.ceil(percentile * n / 100))
    return float(ordered[rank - 1]), percentile, n - rank


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# On 2 CPUs, two OpenBLAS threads made a census scheme about twice as slow
# as one thread, with a quartile spread of 0.64 of the median against 0.05,
# so runs use one thread unless the caller sets a BLAS thread variable.
DEFAULT_BLAS_THREADS = "1"


def fix_blas_threads() -> str:
    """Use one BLAS thread unless the caller chose a setting.

    Must run before numpy is imported.  Returns who chose the setting, which
    the environment record reports next to the values.
    """
    if any(var in os.environ for var in BLAS_THREAD_VARS):
        return "caller"
    os.environ["OPENBLAS_NUM_THREADS"] = DEFAULT_BLAS_THREADS
    return "benchmark default"


def environment(blas_source: str) -> dict:
    """Machine and library facts that the figures of a run depend on."""
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "executable": os.path.basename(sys.executable),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "networkx": importlib.metadata.version("networkx"),
        "blas_vendor": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "blas_thread_source": blas_source,
    }

