"""Tests for the spectral projected gradient (SPG) private solver."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbc import (
    Algorithm,
    GridSpec,
    SolveOptions,
    gradient_reduced,
    grid_search_private_2x2,
    loewner_leq,
    project_box,
    random_instance,
    reduce,
    solve_private,
)
from gbc import private
from gbc.cli import main
from test_acceptance import _KU_REF, _KU_STAR_1, _case, _objective_original
from test_cli import _common_fixture

SPG = SolveOptions(rel_tol=1e-8, max_iters=1000)


def _spg_reports():
    """(instance, options, report) of SPG on the four paper cases and on
    random instances."""
    runs = [(_case(idx), SPG) for idx in (1, 2, 3, 4)]
    runs += [(random_instance(n, seed), SolveOptions(max_iters=1000))
             for n, seed in ((3, 0), (5, 1), (10, 2), (30, 3))]
    return [(inst, opts, solve_private(inst, opts)) for inst, opts in runs]


def test_case1_converges_at_the_start():
    rep = solve_private(_case(1))
    assert rep.converged
    assert rep.iterations == 0
    assert np.array_equal(rep.final_AU, 0.5 * np.eye(2))
    assert np.allclose(rep.final_KU, _KU_STAR_1, atol=1e-12)
    assert rep.kkt_residual <= SolveOptions().rel_tol


@pytest.mark.parametrize("idx", [2, 3, 4])
def test_paper_cases_match_references_and_grid(idx):
    inst = _case(idx)
    rep = solve_private(inst, SPG)
    # the references are published to four decimals
    assert float(np.max(np.abs(rep.final_KU - _KU_REF[idx]))) <= 1e-4
    grid = grid_search_private_2x2(inst, GridSpec(resolution=400))
    assert _objective_original(inst, rep.final_KU) >= grid.best_objective - 1e-9
    assert rep.kkt_residual <= 1e-7


def test_converged_reports_certify_the_kkt_residual():
    for inst, opts, rep in _spg_reports():
        red = reduce(inst)
        A = rep.final_AU
        want = float(np.linalg.norm(
            A - project_box(A + gradient_reduced(A, red, red.lam))))
        assert rep.kkt_residual == want
        if rep.converged:
            assert rep.kkt_residual <= opts.rel_tol
        if rep.converged and rep.iterations >= 2:
            # it stops at the first iterate that meets rel_tol
            early = solve_private(inst, replace(opts, max_iters=rep.iterations - 1))
            assert early.kkt_residual > opts.rel_tol


def test_gba_reports_carry_the_kkt_residual():
    inst = random_instance(4, 5)
    red = reduce(inst)
    for alg in (Algorithm.GBA_P, Algorithm.GBA_A):
        rep = solve_private(inst, SolveOptions(algorithm=alg))
        A = rep.final_AU
        want = float(np.linalg.norm(
            A - project_box(A + gradient_reduced(A, red, red.lam))))
        assert rep.kkt_residual == want


def test_random_instances_converge_in_a_few_steps():
    # GBA-P stops at its 100-step cap on these; unit steps take 30 to 1000+
    for n, seed in ((3, 0), (5, 1), (10, 2), (30, 3)):
        rep = solve_private(random_instance(n, seed))
        assert rep.converged
        assert rep.iterations <= 20


def test_objective_trace_never_decreases_and_iterates_stay_in_box():
    for _, _, rep in _spg_reports():
        assert len(rep.objective_trace) == rep.iterations + 1
        assert np.all(np.diff(rep.objective_trace) >= 0.0)
        assert rep.iterate_eig_min >= -1e-12
        assert rep.iterate_eig_max <= 1.0 + 1e-12


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 10), seed=st.integers(0, 10_000),
       lam=st.floats(1.1, 8.0), rank_deficient=st.booleans())
def test_random_instances_give_feasible_answers(n, seed, lam, rank_deficient):
    rank = max(1, n // 2) if rank_deficient else None
    inst = random_instance(n, seed, lam=lam, rank=rank)
    rep = solve_private(inst)
    assert loewner_leq(np.zeros((n, n)), rep.final_KU)
    assert loewner_leq(rep.final_KU, inst.K)
    assert np.isfinite(rep.kkt_residual)
    if rep.converged:
        assert rep.kkt_residual <= SolveOptions().rel_tol


@pytest.mark.parametrize("idx", [2, 3, 4])
def test_roundoff_stall_stops_early(idx, monkeypatch):
    calls = []
    rise = private._rise

    def counted(*args):
        calls.append(args)
        return rise(*args)

    monkeypatch.setattr(private, "_rise", counted)
    rep = solve_private(_case(idx), SolveOptions(rel_tol=1e-14,
                                                 max_iters=10_000))
    assert not rep.converged
    assert rep.iterations <= 50
    assert any("roundoff" in w for w in rep.warnings)
    # the stall is seen before a backtrack, not after halving to eps
    assert len(calls) <= 2 * rep.iterations
    # a difference of two log-determinants stalls near 4e-8 on case 3
    assert rep.kkt_residual <= 1e-9


def test_backtrack_gives_up_once_the_step_is_below_eps(monkeypatch):
    calls = []

    def never_rises(*args):
        calls.append(args)
        return -1.0

    monkeypatch.setattr(private, "_rise", never_rises)
    rep = solve_private(_case(2))
    assert not rep.converged
    assert rep.iterations == 0
    assert any("roundoff" in w for w in rep.warnings)
    assert 40 <= len(calls) <= 60


def test_cli_solve_picks_the_solver_by_instance_kind(tmp_path, capsys):
    rc = main(["solve", _common_fixture(tmp_path), "--max-iters", "1000"])
    doc = json.loads(capsys.readouterr().out)
    assert rc in (0, 2)
    assert doc["kind"] == "common"
    assert doc["algorithm"] == "spg"
    path = tmp_path / "case2.json"
    inst = _case(2)
    path.write_text(json.dumps({
        "kind": "private", "n": 2, "K": inst.K.tolist(),
        "Sigma1": inst.Sigma1.tolist(), "Sigma2": inst.Sigma2.tolist(),
        "lambda": inst.lam}))
    rc = main(["solve", str(path), "--no-timing"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["algorithm"] == "spg"
    assert doc["converged"] is True
    assert doc["kkt_residual"] <= SolveOptions().rel_tol
