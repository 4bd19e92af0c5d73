"""Tests for run_pass, the loop every solve runs, and its four exits:
the stop rule at the start, the stop rule after steps, a stall and the
cap; and for EGBA-P's stop rule, which its passes apply in step()."""

import re

import numpy as np
import pytest

from gbc import Algorithm, SolveOptions, random_instance, reduce, solve_common, solve_private
from gbc import common
from gbc.common import _weights, build_box, kv_subproblem_step
from gbc.private import FixedPoint, _fro, _Spg, run_pass


def _step(ps):
    return ps.step()


def _no_step(ps):
    raise AssertionError("run_pass stepped from a start that meets the stop rule")


def test_start_meeting_the_stop_rule_takes_no_step():
    inst = random_instance(3, 1)
    rep = solve_private(inst, SolveOptions(rel_tol=1e-8, max_iters=1000))
    assert rep.converged
    red = reduce(inst)
    A0 = rep.final_AU
    ps = _Spg(A0, red.H, (1.0, -red.lam), 1e-8)
    A, steps, stop, kkt, trace = run_pass(_no_step, ps, 10, lambda An: 0)
    assert (steps, stop, trace) == (0, "rule", [])
    assert A is ps.A and np.array_equal(A, A0)
    assert kkt == rep.kkt_residual


def test_stop_rule_cap_and_stall_exits():
    red = reduce(random_instance(4, 2))
    H, w = red.H, (1.0, -red.lam)
    A0 = 0.5 * np.eye(red.rank)
    seen = []

    def watch(An):
        seen.append(An)
        return len(seen)

    # GBA-P at tol 0 never meets its rule: the cap ends it, after cap steps
    ps = FixedPoint(A0, H, w, 0.0, spectral=True)
    start = ps.A
    A, steps, stop, kkt, trace = run_pass(_step, ps, 4, watch)
    assert (steps, stop, trace) == (4, "cap", [1, 2, 3, 4])
    assert A is seen[-1] is ps.A
    assert start is not seen[0] and len({id(An) for An in seen}) == 4
    assert kkt == ps.kkt
    # at a loose tol its spectral step rule fires before the cap
    ps = FixedPoint(A0, H, w, 0.5, spectral=True)
    _, steps, stop, _, _ = run_pass(_step, ps, 100)
    assert stop == "rule" and 1 <= steps < 100
    # a step that returns None stalls the run at the pass's start
    ps = _Spg(A0, H, w, 0.0)
    A, steps, stop, kkt, trace = run_pass(lambda ps: None, ps, 5, watch)
    assert (A, steps, stop, kkt, trace) == (ps.A, 0, "stall", ps.kkt, [])
    assert np.array_equal(A, A0)


def _egba_passes():
    """Constructors of EGBA-P passes from a start A: the K_V and K_U
    passes on the first outer pass's boxes of a real instance, and a K_V
    pass whose optimum is 0, since its gradient -inv(A + I) is negative
    definite."""
    inst = random_instance(3, 0, "common")
    w_v, w_u = _weights(inst)
    S1, S2 = inst.Sigma1, inst.Sigma2
    kv_box = build_box(inst.K_C / 2.0, (inst.K_C / 2.0 + S2, inst.K_C / 2.0 + S1))
    ku_box = build_box(inst.K_C, (S2, S1, S1, S2))
    r = ku_box.rank
    return {
        "kv": lambda A, tol: FixedPoint(A, kv_box.H, w_v, tol),
        "ku": lambda A, tol: FixedPoint(A, ku_box.H, w_u, tol),
        "kv-shrinking": lambda A, tol: FixedPoint(A, np.stack((np.eye(r),) * 2),
                                                  (1.0, -2.0), tol),
    }


@pytest.mark.parametrize("tol", [1e-2, 1e-4])
@pytest.mark.parametrize("kind", ["kv", "ku", "kv-shrinking"])
def test_egba_pass_stops_at_the_first_small_frobenius_step(kind, tol):
    make = _egba_passes()[kind]
    A0 = 0.5 * np.eye(3)
    anchor = np.linalg.norm(A0)
    ps = make(A0, tol)
    steps = 0
    while True:
        A = ps.A
        An = ps.step()
        steps += 1
        step = np.linalg.norm(An - A)
        assert ps.converged == (step <= tol * max(np.linalg.norm(A), anchor))
        if ps.converged:
            break
        assert steps < 5000
    if kind == "kv-shrinking":
        # the block shrinks toward 0, and only the ||I/2||_F anchor let it stop
        assert np.linalg.norm(An) < anchor / 4.0 and step > tol * np.linalg.norm(A)
    _, count, stop, _, _ = run_pass(kv_subproblem_step, make(A0, tol), 5000)
    assert (count, stop) == (steps, "rule")


def test_fro_is_numpy_frobenius_norm_bit_for_bit():
    rng = np.random.default_rng(0)
    for r in range(1, 13):
        for _ in range(200):
            M = rng.standard_normal((r, r)) * 10.0 ** rng.uniform(-8.0, 8.0)
            assert _fro(M) == np.linalg.norm(M)


@pytest.mark.parametrize("algo", list(Algorithm))
def test_private_solve_stops_at_max_iters(algo):
    # at rel_tol 1e-14 no algorithm meets its rule in 7 steps
    rep = solve_private(random_instance(4, 3),
                        SolveOptions(algorithm=algo, rel_tol=1e-14, max_iters=7))
    assert (rep.iterations, rep.converged) == (7, False)
    assert len(rep.objective_trace) == 8
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
