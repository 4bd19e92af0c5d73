"""Per-layer metrics of a traced run, per op unless stated.

Times are in reference milliseconds or microseconds: span times scaled
by the calibration factor of their op (see calibrate.py).  Self time is
a span's duration minus the part its child spans cover.  The op's root
span has as self time the time spent in no named layer (benchmark glue
and unwrapped package code), reported as unnamed.self_ms, so per-op self
times add up to the traced op time; trace.self_sum_frac shows it (1 for
a sequential op, the mean number of busy threads when the cli bench pool
overlaps solves).
"""

from __future__ import annotations

import statistics

from tracing import OP, self_times

# name, unit, which direction is better
METRICS = (
    ("psd.project_box.self_ms", "ms/op", "lower"),
    ("psd.project_box.calls", "calls/op", "lower"),
    ("psd.spectral_norm.self_ms", "ms/op", "lower"),
    ("reduction.validate.self_ms", "ms/op", "lower"),
    ("reduction.reduce.self_ms", "ms/op", "lower"),
    ("reduction.lift.self_ms", "ms/op", "lower"),
    ("reduction.box_transform.self_ms", "ms/op", "lower"),
    ("reduction.box_transform.calls", "calls/op", "lower"),
    ("reduction.transform.self_ms", "ms/op", "lower"),
    ("reduction.schur_head.self_ms", "ms/op", "lower"),
    ("private.solve_private.self_ms", "ms/op", "lower"),
    ("private.iterations", "iters/op", "lower"),
    ("private.capped_frac", "frac", "lower"),
    ("private.us_per_iteration", "us", "lower"),
    ("common.validate.self_ms", "ms/op", "lower"),
    ("common.solve_common.self_ms", "ms/op", "lower"),
    ("common.kv_subproblem_step.self_ms", "ms/op", "lower"),
    ("common.kv_subproblem_step.calls", "calls/op", "lower"),
    ("common.ku_subproblem_step.self_ms", "ms/op", "lower"),
    ("common.ku_subproblem_step.calls", "calls/op", "lower"),
    ("common.objective_common.self_ms", "ms/op", "lower"),
    ("common.outer_passes", "passes/op", "lower"),
    ("common.inner_cap_hits", "hits/op", "lower"),
    ("common.us_per_inner_step", "us", "lower"),
    ("region.trace_region_private.self_ms", "ms/op", "lower"),
    ("region.rates_private.self_ms", "ms/op", "lower"),
    ("cli.bench.self_ms", "ms/op", "lower"),
    ("cli.pool_threads", "threads", "higher"),
    ("oracle.random_instance.self_ms", "ms/op", "lower"),
    ("oracle.random_instance.setup_ms", "ms", "lower"),
    ("unnamed.self_ms", "ms/op", "lower"),
    ("trace.op_ms_p50", "ms", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("trace.self_sum_frac", "frac", "higher"),
)
UNITS = {name: unit for name, unit, _ in METRICS}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(spans, n_setup, factor, traced_typical, plain_typical, wl) -> dict:
    """Per-layer metrics from spans and solver logs of the traced phase.

    spans[:n_setup] were recorded during set-up; later spans outside any
    op (the answer checks between ops) are not counted.  factor maps an
    op id (-1 for set-up) to its calibration factor, which turns span
    times into reference time like the end-to-end metrics.  The typical
    arguments are per-input median op times of traced and untraced
    passes, in reference seconds.
    """
    setup, spans = spans[:n_setup], spans[n_setup:]
    selfs = self_times(spans)
    self_ms: dict[str, float] = {}
    calls: dict[str, int] = {}
    total_ms: dict[str, float] = {}
    threads: dict[int, set] = {}
    for idx, name, t0, t1, _, op, tid in spans:
        if op < 0:
            continue
        f = 1e3 * factor[op]
        self_ms[name] = self_ms.get(name, 0.0) + f * selfs[idx]
        total_ms[name] = total_ms.get(name, 0.0) + f * (t1 - t0)
        calls[name] = calls.get(name, 0) + 1
        if name == "private.solve_private":
            threads.setdefault(op, set()).add(tid)
    ops = calls.get(OP, 0)

    out: dict[str, float] = {}
    for name, unit, _ in METRICS:
        layer_fn, _, kind = name.rpartition(".")
        if kind == "self_ms" and layer_fn != "unnamed":
            out[name] = _ratio(self_ms.get(layer_fn, 0.0), ops)
        elif kind == "calls":
            out[name] = _ratio(calls.get(layer_fn, 0), ops)

    iters = sum(i for i, _ in wl.solve_log)
    out["private.iterations"] = _ratio(iters, ops)
    out["private.capped_frac"] = _ratio(sum(c for _, c in wl.solve_log),
                                        len(wl.solve_log))
    out["private.us_per_iteration"] = _ratio(
        1e3 * total_ms.get("private.solve_private", 0.0), iters)
    out["common.outer_passes"] = _ratio(sum(p for p, _ in wl.common_log), ops)
    out["common.inner_cap_hits"] = _ratio(sum(c for _, c in wl.common_log), ops)
    steps = ("common.kv_subproblem_step", "common.ku_subproblem_step")
    out["common.us_per_inner_step"] = _ratio(
        1e3 * sum(total_ms.get(s, 0.0) for s in steps),
        sum(calls.get(s, 0) for s in steps))
    out["cli.pool_threads"] = _ratio(sum(len(t) for t in threads.values()), ops)
    out["oracle.random_instance.setup_ms"] = 1e3 * factor[-1] * sum(
        t1 - t0 for _, name, t0, t1, *_ in setup
        if name == "oracle.random_instance")
    out["unnamed.self_ms"] = _ratio(self_ms.get(OP, 0.0), ops)
    traced_p50 = statistics.median(traced_typical)
    out["trace.op_ms_p50"] = 1e3 * traced_p50
    out["trace.overhead_frac"] = traced_p50 / statistics.median(plain_typical) - 1.0
    out["trace.self_sum_frac"] = _ratio(sum(self_ms.values()), total_ms.get(OP, 0.0))
    return {name: {"value": out[name], "unit": UNITS[name]} for name, _, _ in METRICS}
