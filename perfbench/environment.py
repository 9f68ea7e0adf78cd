"""Process set-up shared by the benchmark's entry points; import it first.

Pins every BLAS/OpenMP pool to one thread before numpy loads (the box has
2 cores and one thread measured no slower than two), and puts the
checkout's ``src/`` first on ``sys.path`` so the benchmark measures the
loco next to it, never an installed copy. Without ``src/loco`` the process
exits with an error and prints no result.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "loco" / "__init__.py").is_file():
    raise SystemExit(f"error: {SRC / 'loco'} not found; the benchmark runs "
                     "from the root of a loco checkout")
sys.path.insert(0, str(SRC))


def machine() -> dict:
    """What a result was measured on: cores, versions, BLAS, thread env."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }
