"""Test-session setup: pin BLAS to one thread before numpy is imported,
and choose which tree's `gbc` the tests import.

Several tests gate on wall-clock time.  With more BLAS threads than free
cores (a second numpy process on the host is enough), a solve that takes
about a second can take fifty.  pytest imports this file before any test
module, so numpy reads these variables when it loads.  setdefault leaves
a value the caller exported in place.

`gbc` comes from PYTHONPATH when the caller set it, so
`PYTHONPATH=OTHER/src python3 -m pytest` tests that tree; otherwise it
comes from this checkout's src, ahead of any installed copy.  So src is
put right after the PYTHONPATH entries of sys.path.
"""

import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

_given = {os.path.abspath(p)
          for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p}
sys.path.insert(
    max((i + 1 for i, p in enumerate(sys.path) if os.path.abspath(p) in _given),
        default=0),
    str(Path(__file__).resolve().parents[1] / "src"))
