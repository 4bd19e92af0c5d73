"""Each benchmark workload runs its set-up op on the package and checks
the answers, as a benchmark run does before it times anything.

perfbench/workloads.py is loaded by file path, with perfbench/ on
sys.path for its `from quality import`, so a refactor that breaks what
the benchmark reads of the package (a SolveReport field, a keyword of
trace_region_private, the output of `gbc bench`) fails here and not
only in a benchmark run.
"""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", PERFBENCH / "workloads.py")
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        yield mod
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.modules.pop("quality", None)


@pytest.mark.parametrize("name", ["region-sweep", "large-private", "common-egba",
                                  "cli-bench"])
def test_workload_setup_op_passes_its_answer_check(workloads, tmp_path, name):
    wl = workloads.make(name, 0, str(tmp_path))
    try:
        item = wl.warmup()
        kkts = wl.answers(item, wl.op(item))
    finally:
        wl.close()
    assert kkts and all(math.isfinite(k) for k in kkts)
