"""Pass-through spans around the package's public functions.

The tracer replaces each traced function at the names its callers look
it up under (a module attribute or a class attribute) with a wrapper that
records one span: name, start, end, parent span and op id.  Spans stay in
memory until the run ends.  Nothing in the package is edited; the
originals are restored by Tracer.uninstall.

A span opened on a thread with no open span of its own (a worker of the
cli bench pool) takes as parent the innermost open span of the thread
that started the op, so pool work nests under the call that started it.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import threading
import time

# (layer.function, owners whose attribute callers look up)
TRACED = (
    ("psd.project_box", ("gbc.private", "gbc.common")),
    ("psd.spectral_norm", ("gbc.common",)),
    ("reduction.validate", ("gbc.reduction.PrivateInstance",)),
    ("reduction.reduce", ("gbc.private",)),
    ("reduction.lift", ("gbc.private", "gbc.common")),
    ("reduction.box_transform", ("gbc.reduction", "gbc.common")),
    ("reduction.transform", ("gbc.reduction", "gbc.common")),
    ("reduction.schur_head", ("gbc.reduction", "gbc.common")),
    ("private.solve_private", ("gbc.private", "gbc.region", "gbc.cli")),
    ("common.validate", ("gbc.common.CommonInstance",)),
    ("common.solve_common", ("gbc.common",)),
    ("common.kv_subproblem_step", ("gbc.common",)),
    ("common.ku_subproblem_step", ("gbc.common",)),
    ("common.objective_common", ("gbc.common",)),
    ("region.trace_region_private", ("gbc.region",)),
    ("region.rates_private", ("gbc.region",)),
    ("cli.bench", ("gbc.cli",)),
    ("oracle.random_instance", ("gbc.oracle", "gbc.cli")),
)

# cli.bench wraps the subcommand handler, which main() looks up on each call
_ATTR = {"cli.bench": "cmd_bench"}

OP = "op"


def _resolve(path: str):
    """Module or class object named by a dotted path under gbc."""
    import importlib

    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(path)


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers.

    A span is the tuple (index, name, start, end, parent index, op id,
    thread id), appended when it closes, so children precede parents.
    Tuples of plain values are left alone by the cyclic garbage
    collector, which keeps a long traced run from slowing down as spans
    pile up.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._next = itertools.count()
        self._local = threading.local()
        self._op_stack: list[int] = []
        self._op_id = -1
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _span(self, name: str, fn, args, kwargs):
        st = self._stack()
        if st:
            parent = st[-1]
        else:
            parent = self._op_stack[-1] if self._op_stack else -1
        idx = next(self._next)
        st.append(idx)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            st.pop()
            self.spans.append((idx, name, t0, t1, parent, self._op_id,
                               threading.get_ident()))

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._span(name, fn, args, kwargs)

        return traced

    def op(self, op_id: int, fn, *args):
        """Run one op under a root span; pool threads nest under it."""
        self._op_id = op_id
        self._op_stack = self._stack()
        try:
            return self._span(OP, fn, args, {})
        finally:
            self._op_stack = []
            self._op_id = -1

    def install(self, only: tuple[str, ...] | None = None) -> None:
        """Wrap every traced function, or just those named in `only`."""
        for name, owners in TRACED:
            if only is not None and name not in only:
                continue
            attr = _ATTR.get(name, name.rsplit(".", 1)[1])
            for path in owners:
                owner = _resolve(path)
                orig = owner.__dict__[attr]
                self._saved.append((owner, attr, orig))
                setattr(owner, attr, self.wrap(name, orig))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def write(self, path: str) -> None:
        """Write all spans as gzipped CSV, one line per span."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent,op,thread\n")
            for span in self.spans:
                fh.write(",".join(map(repr, span)).replace("'", "") + "\n")


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span index -> duration minus the part covered by its child spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, _, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((t0, t1))
    out = {}
    for idx, _, t0, t1, _, _, _ in spans:
        kids = [(max(a, t0), min(b, t1)) for a, b in children.get(idx, ())]
        out[idx] = (t1 - t0) - _union_length([k for k in kids if k[1] > k[0]])
    return out
