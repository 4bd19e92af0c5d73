"""The benchmark's tracer wraps package functions by name; every name it
uses must stay bound where it looks, and every wrapper must be reached.

perfbench/tracing.py and perfbench/quality.py are loaded by file path, so
a refactor that unbinds or bypasses a traced name fails here and not only
in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import gbc.cli
import gbc.common
import gbc.oracle
import gbc.region
from gbc import SolveOptions

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _traced_attributes(tracing):
    """(span name, owner, attribute) for every name the tracer wraps."""
    out = []
    for name, owners in tracing.TRACED:
        attr = tracing._ATTR.get(name, name.rsplit(".", 1)[1])
        out += [(name, tracing._resolve(path), attr) for path in owners]
    return out


def test_quality_imports_resolve():
    # quality.py's `from gbc import ...` fails to load if a name is gone
    assert callable(_load("quality").kkt_private)


def test_tracer_wraps_reaches_and_restores_every_name():
    tracing = _load("tracing")
    attrs = _traced_attributes(tracing)
    originals = [owner.__dict__[attr] for _, owner, attr in attrs]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (_, owner, attr), orig in zip(attrs, originals):
            wrapper = owner.__dict__[attr]
            assert wrapper is not orig
            assert wrapper.__wrapped__ is orig
        # one small call through each workload's entry point
        inst = gbc.oracle.random_instance(2, 0)
        gbc.region.trace_region_private(inst, (1.5, 3.0),
                                        SolveOptions(max_iters=3))
        cinst = gbc.oracle.random_instance(2, 0, "common")
        gbc.common.solve_common(cinst, SolveOptions(rel_tol=1e-2, max_iters=1))
        assert gbc.cli.main(["bench", "--n-list", "2", "--seeds", "1",
                             "--algorithms", "gba-p", "--max-iters", "2",
                             "--no-timing"]) == 0
    finally:
        tracer.uninstall()
    reached = {span[1] for span in tracer.spans}
    assert reached == {name for name, _ in tracing.TRACED}
    for (_, owner, attr), orig in zip(attrs, originals):
        assert owner.__dict__[attr] is orig
