"""The benchmark's four workloads.

Each workload draws a fixed panel of inputs from random_instance by a
fixed seed rule (the first P seeds, dimensions cycling as stated), so
every run solves the same problems and answer-quality metrics compare
like with like.  The run seed permutes the order in which the panel is
visited.  An op is one call to the workload's entry point; the runner
times it, then checks the answers and measures their KKT residuals
outside the timed region.

Entry points are looked up on their modules at call time, so the
tracer's and the answer capture's wrappers see every call.
"""

from __future__ import annotations

import csv
import math
import os
import random
import tempfile
import threading

import numpy as np

import gbc.cli
import gbc.common
import gbc.oracle
import gbc.private
import gbc.region
from gbc import Algorithm, SolveOptions

from quality import (
    CheckFailed,
    check_common,
    check_private,
    check_rates,
    kkt_common,
    kkt_private,
)


class Capture:
    """Pass-through wrapper that keeps (instance, options, report) of each solve.

    trace_region_private and bench return no solver reports; the quality
    metrics need them, so the capture sits at the name those entry
    points call.
    """

    def __init__(self) -> None:
        self.solves: list[tuple] = []
        self._lock = threading.Lock()
        self._saved: list[tuple[object, object]] = []

    def install(self, module) -> None:
        orig = module.solve_private

        def capture(inst, opts=SolveOptions()):
            rep = orig(inst, opts)
            with self._lock:
                self.solves.append((inst, opts, rep))
            return rep

        self._saved.append((module, orig))
        module.solve_private = capture

    def uninstall(self) -> None:
        while self._saved:
            mod, orig = self._saved.pop()
            mod.solve_private = orig

    def take(self) -> list[tuple]:
        with self._lock:
            out, self.solves = self.solves, []
        return out


def _private_answers(solves) -> list[float]:
    kkts = []
    for inst, _, rep in solves:
        check_private(inst, rep.final_KU, rep.objective)
        kkts.append(kkt_private(inst, rep.final_AU))
    return kkts


class Workload:
    """Panel of op inputs, the op itself, and the per-op answer check."""

    name = ""
    threads = 1  # threads an op keeps busy

    def __init__(self, seed: int) -> None:
        self.capture = Capture()
        self.panel = self.make_panel()
        order = list(range(len(self.panel)))
        random.Random(seed).shuffle(order)
        self.order = order
        # solves counted by the traced run: (iterations, capped) per solve
        self.solve_log: list[tuple[int, bool]] = []
        self.common_log: list[tuple[int, int]] = []

    def make_panel(self) -> list:
        raise NotImplementedError

    def op(self, item):
        raise NotImplementedError

    def answers(self, item, result) -> list[float]:
        """Check one op's answers; return their KKT residuals.

        Raises CheckFailed (or any error the checks hit) on a bad answer.
        """
        raise NotImplementedError

    def items(self, order) -> list:
        """Op inputs for the panel members listed in `order`."""
        return [self.panel[i] for i in order]

    def cycle(self) -> list:
        """One pass over the panel in this run's order."""
        return self.items(self.order)

    def warmup(self):
        """The set-up op input: the panel's first member, whatever the seed."""
        return self.items([0])[0]

    def close(self) -> None:
        self.capture.uninstall()

    def _log_private(self, solves) -> None:
        for _, opts, rep in solves:
            self.solve_log.append(
                (rep.iterations, not rep.converged and rep.iterations >= opts.max_iters))


class RegionSweep(Workload):
    """Many tiny same-shape solves: per-call and per-iteration Python costs
    dominate, not O(n^3) LAPACK work; rank-2 draws take the Schur path."""

    name = "region-sweep"
    PANEL = 24
    LAMBDAS = tuple(float(v) for v in np.geomspace(1.25, 8.0, 8))
    OPTS = SolveOptions(rel_tol=1e-4, max_iters=100)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.capture.install(gbc.region)

    def make_panel(self):
        panel = []
        for i in range(self.PANEL):
            n = (2, 3, 4)[i % 3]
            panel.append(gbc.oracle.random_instance(
                n, i, rank=2 if n == 4 else None))
        return panel

    def op(self, item):
        return gbc.region.trace_region_private(item, self.LAMBDAS, self.OPTS,
                                               warm_start=True)

    def answers(self, item, points):
        solves = self.capture.take()
        check_rates(points)
        if len(points) != len(self.LAMBDAS) or len(solves) != len(self.LAMBDAS):
            raise CheckFailed(f"{len(points)} points from {len(solves)} solves")
        self._log_private(solves)
        return _private_answers(solves)


class LargePrivate(Workload):
    """The dense n=100 step kernel dominates (eigh in project_box, inv,
    eigvalsh, slogdet); GBA-A is timed beside the default solver."""

    name = "large-private"
    PANEL = 4
    N = 100
    OPTS = (SolveOptions(rel_tol=1e-4, max_iters=100),
            SolveOptions(algorithm=Algorithm.GBA_A, rel_tol=1e-4, max_iters=100))

    def make_panel(self):
        return [gbc.oracle.random_instance(self.N, i) for i in range(self.PANEL)]

    def items(self, order):
        # each instance with the default algorithm, then with GBA-A
        return [(self.panel[i], opts) for i in order for opts in self.OPTS]

    def op(self, item):
        inst, opts = item
        return gbc.private.solve_private(inst, opts)

    def answers(self, item, rep):
        inst, opts = item
        solves = [(inst, opts, rep)]
        self._log_private(solves)
        return _private_answers(solves)


class CommonEgba(Workload):
    """The private solver is unused: EGBA inner K_U/K_V steps take ~90% of
    the op and the reduction runs on every outer pass."""

    name = "common-egba"
    PANEL = 4
    # at the default 1e-4 one solve takes 10-20 s: inner loops hit their cap
    OPTS = SolveOptions(rel_tol=1e-3, max_iters=100)

    def make_panel(self):
        return [gbc.oracle.random_instance((2, 3, 4)[i % 3], i, "common")
                for i in range(self.PANEL)]

    def op(self, item):
        return gbc.common.solve_common(item, self.OPTS)

    def answers(self, inst, rep):
        check_common(inst, rep.K_U, rep.K_V, rep.objective)
        caps = sum("inner solve hit" in w for w in rep.warnings)
        self.common_log.append((len(rep.step_rel_changes), caps))
        return [kkt_common(inst, rep.K_U, rep.K_V)]


class CliBench(Workload):
    """The only concurrent code path (the bench thread pool, one thread per
    usable core) and the only workload through the cli layer."""

    name = "cli-bench"
    PANEL = 5
    SEEDS_PER_OP = 4
    N_LIST = "8,32"
    ALGORITHMS = "gba-p,gba-a"

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed)
        self.threads = int(os.environ.get("GBC_THREADS") or 1)
        self.capture.install(gbc.cli)
        self.tmpdir = tempfile.TemporaryDirectory(dir=workdir)
        self.csv_path = os.path.join(self.tmpdir.name, "bench.csv")

    def make_panel(self):
        k = self.SEEDS_PER_OP
        return [",".join(str(k * b + j) for j in range(k))
                for b in range(self.PANEL)]

    def op(self, seeds):
        return gbc.cli.main([
            "bench", "--n-list", self.N_LIST, "--seeds", seeds,
            "--algorithms", self.ALGORITHMS, "--rel-tol", "1e-4",
            "--max-iters", "100", "--no-timing", "--csv-out", self.csv_path])

    def answers(self, seeds, rc):
        solves = self.capture.take()
        if rc != 0:
            raise CheckFailed(f"gbc bench exited {rc}")
        with open(self.csv_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        os.remove(self.csv_path)  # a bench that writes nothing fails next time
        cells = {(n, seed, alg) for n in self.N_LIST.split(",")
                 for seed in seeds.split(",") for alg in self.ALGORITHMS.split(",")}
        got = [(r["n"], r["seed"], r["algorithm"]) for r in rows]
        if sorted(got) != sorted(cells) or len(solves) != len(cells):
            raise CheckFailed(f"{len(rows)} rows and {len(solves)} solves "
                              f"for {len(cells)} cells")
        for row in rows:
            if math.isnan(float(row["final_objective"])):
                raise CheckFailed(f"bench cell {row} failed")
        self._log_private(solves)
        return _private_answers(solves)

    def close(self) -> None:
        super().close()
        self.tmpdir.cleanup()


WORKLOADS = {w.name: w for w in (RegionSweep, LargePrivate, CommonEgba, CliBench)}


def make(name: str, seed: int, workdir: str) -> Workload:
    cls = WORKLOADS[name]
    return cls(seed, workdir) if cls is CliBench else cls(seed)
