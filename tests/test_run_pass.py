"""Tests for run_pass, the loop every solve runs, and its four exits:
the stop rule at the start, the stop rule after steps, a stall and the
cap."""

import re

import numpy as np
import pytest

from gbc import Algorithm, SolveOptions, random_instance, reduce, solve_common, solve_private
from gbc import common
from gbc.private import _Spg, gba_pass, run_pass


def _step(A, ps):
    return ps.step(A)


def _no_step(A, ps):
    raise AssertionError("run_pass stepped from a start that meets the stop rule")


def test_start_meeting_the_stop_rule_takes_no_step():
    inst = random_instance(3, 1)
    rep = solve_private(inst, SolveOptions(rel_tol=1e-8, max_iters=1000))
    assert rep.converged
    red = reduce(inst)
    A0 = rep.final_AU
    ps = _Spg(A0, red.H, (1.0, -red.lam), 1e-8)
    A, steps, stop, kkt, trace = run_pass(_no_step, ps, A0, 10, lambda A, An: 0)
    assert (steps, stop, trace) == (0, "rule", [])
    assert A is A0
    assert kkt == rep.kkt_residual


def test_stop_rule_cap_and_stall_exits():
    red = reduce(random_instance(4, 2))
    H, w = red.H, (1.0, -red.lam)
    A0 = 0.5 * np.eye(red.rank)
    seen = []

    def watch(A, An):
        seen.append((A, An))
        return len(seen)

    # GBA-P at tol 0 never meets its rule: the cap ends it, after cap steps
    ps = gba_pass(H, w, 0.0, eigs=np.linalg.eigvalsh(A0))
    A, steps, stop, kkt, trace = run_pass(_step, ps, A0, 4, watch)
    assert (steps, stop, trace) == (4, "cap", [1, 2, 3, 4])
    assert seen[0][0] is A0 and A is seen[-1][1]
    assert all(An is B for (_, An), (B, _) in zip(seen, seen[1:]))
    assert kkt == ps.kkt_at(A)
    # at a loose tol its spectral step rule fires before the cap
    ps = gba_pass(H, w, 0.5, eigs=np.linalg.eigvalsh(A0))
    _, steps, stop, _, _ = run_pass(_step, ps, A0, 100)
    assert stop == "rule" and 1 <= steps < 100
    # a step that returns None stalls the run at the iterate it was given
    ps = _Spg(A0, H, w, 0.0)
    A, steps, stop, kkt, trace = run_pass(lambda A, ps: None, ps, A0, 5, watch)
    assert (A, steps, stop, kkt, trace) == (A0, 0, "stall", ps.kkt, [])


@pytest.mark.parametrize("algo", list(Algorithm))
def test_private_solve_stops_at_max_iters(algo):
    # at rel_tol 1e-14 no algorithm meets its rule in 7 steps
    rep = solve_private(random_instance(4, 3),
                        SolveOptions(algorithm=algo, rel_tol=1e-14, max_iters=7))
    assert (rep.iterations, rep.converged) == (7, False)
    assert len(rep.objective_trace) == 8 and len(rep.step_rel_changes) == 7
    assert not any("roundoff" in w for w in rep.warnings)


def test_common_inner_cap_warns_once_per_hit(monkeypatch):
    monkeypatch.setattr(common, "INNER_CAP", 1)
    rep = solve_common(random_instance(3, 0, "common"),
                       SolveOptions(rel_tol=1e-8, max_iters=5))
    caps = [w for w in rep.warnings if "cap" in w]
    assert caps
    assert all(re.fullmatch(r"K_[UV] inner solve hit the 1-step cap", w) for w in caps)
    counts = rep.inner_iterations[0] + rep.inner_iterations[1]
    assert max(counts) == 1
    # only a block that took its one step without meeting its rule warns
    assert len(caps) <= sum(counts)
