"""Benchmark of the gbc package through its public entry points.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src.  Every op is a closed loop with one client.  The timed run
(--trace 0) prints the end-to-end metrics; the traced run (--trace 1)
wraps the package's public functions in spans and prints per-layer
metrics.  Human-readable lines come first; the last line of standard
output is one JSON object with keys correct, attempted, failed, metrics.
The run ends at the first whole pass over the workload's panel after S
seconds, so every run times each panel input equally often.

Every reported time (setup_s, ops_per_s, op_ms_p50, trace.op_ms_p50) is
in reference seconds: wall time scaled by a calibration kernel timed
next to it (see calibrate.py), so host load does not read as a change.
The human-readable lines also give the raw wall figures.
"""

from __future__ import annotations

import os

# Pin BLAS before anything imports numpy; children inherit the setting.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"
USABLE_CORES = len(os.sched_getaffinity(0))
os.environ["GBC_THREADS"] = str(USABLE_CORES)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 60
# the keys of workloads.WORKLOADS, listed here so argument parsing does not
# import numpy before the set-up timer starts
WORKLOAD_NAMES = ("region-sweep", "large-private", "common-egba", "cli-bench")

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms",
    "kkt_p50": "nats", "kkt_max": "nats", "certified_frac": "frac",
    "ok_frac": "frac", "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in BLAS_VARS + ("GBC_THREADS",)},
        "usable_cores": USABLE_CORES,
    }


class Run:
    """One benchmark run: set-up, the op loop and the answer checks."""

    def __init__(self, args) -> None:
        self.args = args
        self.attempted = 0
        self.failed = 0
        self.kkts: list[float] = []
        self.wall: list[float] = []  # raw op wall times, for the report
        self.factor: dict[int, float] = {}  # op id -> calibration factor

    def setup(self, tracer=None) -> tuple[float, float]:
        """Import, generate the panel and run one untimed warm-up op.

        Returns the set-up time in wall seconds and in reference seconds.
        """
        t0 = time.perf_counter()
        sys.path.insert(0, str(SRC))
        import gbc
        import workloads

        if not Path(gbc.__file__).resolve().is_relative_to(SRC):
            raise SystemExit(f"gbc imported from {gbc.__file__}, not {SRC}")
        if tracer is not None:
            tracer.install(only=("oracle.random_instance",))
        try:
            self.wl = workloads.make(self.args.workload, self.args.seed, str(OUT))
        finally:
            if tracer is not None:
                tracer.uninstall()
        warm = self.wl.warmup()
        self.wl.answers(warm, self.wl.op(warm))
        wall = time.perf_counter() - t0
        import calibrate

        cal = [calibrate.measure(self.wl.threads) for _ in range(5)]
        self.factor[-1] = calibrate.factor(cal, self.wl.threads)
        return wall, wall * self.factor[-1]

    def one_op(self, item, keep_quality: bool, tracer=None) -> float | None:
        """Time one op, then check its answers; None when it failed."""
        self.attempted += 1
        op_id = self.attempted
        try:
            t0 = time.perf_counter()
            if tracer is None:
                result = self.wl.op(item)
            else:
                result = tracer.op(op_id, self.wl.op, item)
            dt = time.perf_counter() - t0
            kkts = self.wl.answers(item, result)
        except Exception:  # a failed op is counted, not fatal
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            self.wl.capture.take()
            return None
        if keep_quality:
            self.kkts.extend(kkts)
        return dt

    def one_pass(self, keep_quality: bool = False, tracer=None) -> list[float | None]:
        """One pass over the panel in this run's order.

        Returns each op's time in reference seconds (None for a failed
        op): its wall time scaled by the mean of the calibration kernel
        times taken just before and just after it.
        """
        import calibrate

        threads = self.wl.threads
        cal = [calibrate.measure(threads)]
        times = []
        for item in self.wl.cycle():
            dt = self.one_op(item, keep_quality, tracer)
            cal.append(calibrate.measure(threads))
            f = self.factor[self.attempted] = calibrate.factor(cal[-2:], threads)
            if dt is not None:
                self.wall.append(dt)
                dt *= f
            times.append(dt)
        return times


def per_input(passes: list[list[float | None]]) -> list[float]:
    """Median time of each panel input over the passes it succeeded in.

    Runs make whole passes, so every input counts once in statistics
    over these, however many passes a run made; an op slowed by a blip
    on the host moves its input's median less than it would a mean.
    """
    out = []
    for col in zip(*passes):
        good = [t for t in col if t is not None]
        if good:
            out.append(statistics.median(good))
    return out


def probe_setup(args) -> list[tuple[float, float]]:
    """Set-up time of fresh processes running the same workload and seed."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0", "--setup-probe"]
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, cwd=ROOT, check=True)
        out.append(tuple(json.loads(proc.stdout.strip().splitlines()[-1])))
    return out


def fmt(values) -> str:
    return ", ".join(f"{v:.4f}" for v in values)


def timed(args) -> tuple[Run, dict]:
    setups = probe_setup(args)
    run = Run(args)
    setups.append(run.setup())
    walls, setups = zip(*setups)
    start = time.perf_counter()
    passes = [run.one_pass(keep_quality=True)]
    while time.perf_counter() - start < args.seconds:
        passes.append(run.one_pass())
    from quality import CERTIFIED

    kkts = run.kkts
    certified = sum(k <= CERTIFIED for k in kkts)
    typical = per_input(passes)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(typical) / sum(typical),
        "op_ms_p50": 1e3 * statistics.median(typical),
        "kkt_p50": statistics.median(kkts),
        "kkt_max": max(kkts),
        # add-one estimate: never reads exactly 0 or 1
        "certified_frac": (certified + 1) / (len(kkts) + 2),
        "ok_frac": (run.attempted - run.failed) / run.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    ms = sorted(1e3 * t for p in passes for t in p if t is not None)
    wall_ms = sorted(1e3 * t for t in run.wall)
    print(f"set-up samples: wall s {fmt(walls)}; reference s {fmt(setups)}")
    print(f"answers: {len(kkts)} ({certified} certified at kkt <= {CERTIFIED:g})")
    print(f"timed ops: {len(ms)} in {len(passes)} passes over {len(typical)} inputs; "
          f"wall ms p50 {statistics.median(wall_ms):.3f}, "
          f"wall ops/s {len(wall_ms) / sum(run.wall):.4f}")
    if len(ms) >= 100:
        p90 = statistics.quantiles(ms, n=10)[-1]
        wall_p90 = statistics.quantiles(wall_ms, n=10)[-1]
        print(f"op_ms_p90: {p90:.3f} ms, {wall_p90:.3f} wall ms, over {len(ms)} ops")
    else:
        print(f"op_ms_p90: not reported ({len(ms)} ops < 100)")
    return run, {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                 for k, v in metrics.items()}


def traced(args) -> tuple[Run, dict]:
    import tracing

    tracer = tracing.Tracer()
    run = Run(args)
    run.setup(tracer)
    n_setup = len(tracer.spans)
    # alternate untraced and traced passes so drift hits both alike
    plain: list[list[float | None]] = []
    traced_times: list[list[float | None]] = []
    logs = (run.wl.solve_log, run.wl.common_log)
    for log in logs:
        log.clear()  # drop the warm-up op's solves
    start = time.perf_counter()
    while not traced_times or time.perf_counter() - start < args.seconds:
        kept = [len(log) for log in logs]
        plain.append(run.one_pass())
        for log, n in zip(logs, kept):
            del log[n:]  # solver logs count traced passes only
        tracer.install()
        try:
            traced_times.append(run.one_pass(tracer=tracer))
        finally:
            tracer.uninstall()
    import layers

    metrics = layers.per_layer(tracer.spans, n_setup, run.factor,
                               per_input(traced_times), per_input(plain), run.wl)
    path = OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz"
    tracer.write(str(path))
    print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    print(f"traced passes: {len(traced_times)}, untraced passes: {len(plain)}")
    return run, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gbc" / "__init__.py").is_file():
        print(f"error: no gbc package under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        run = Run(args)
        setup = run.setup()
        run.wl.close()
        print(json.dumps(setup))
        return 0
    run, metrics = traced(args) if args.trace else timed(args)
    run.wl.close()
    print("env: " + json.dumps(environment(), sort_keys=True))
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(f"attempted {run.attempted}, failed {run.failed}")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
