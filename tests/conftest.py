"""Test-session setup: pin BLAS to one thread before numpy is imported.

Several tests gate on wall-clock time.  With more BLAS threads than free
cores (a second numpy process on the host is enough), a solve that takes
about a second can take fifty.  pytest imports this file before any test
module, so numpy reads these variables when it loads.  setdefault leaves
a value the caller exported in place.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
