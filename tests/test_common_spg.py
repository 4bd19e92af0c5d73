"""Tests for the SPG inner solver of solve_common and the KKT residual of
common reports."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbc import (
    Algorithm,
    CommonInstance,
    SolveOptions,
    grid_search_common_scalar,
    loewner_leq,
    random_instance,
    solve_common,
)
from gbc import common, private
from gbc.cli import main
from gbc.common import INNER_CAP
from gbc.psd import PD_FLOOR
from test_bench_contract import _load
from test_cli import _common_fixture

SPG = Algorithm.SPG
EGBA_P = Algorithm.GBA_P


def _panel():
    """The four instances of the common-egba benchmark panel."""
    return [random_instance((2, 3, 4)[i % 3], i, "common") for i in range(4)]


def _assert_feasible(inst, rep):
    z = np.zeros_like(rep.K_U)
    assert loewner_leq(z, rep.K_U)
    assert loewner_leq(z, rep.K_V)
    assert loewner_leq(rep.K_U + rep.K_V, inst.K_C)


def test_spg_matches_scalar_grid():
    for seed in range(10):
        inst = random_instance(1, seed, "common")
        rep = solve_common(inst, SolveOptions(max_iters=1000))
        grid = grid_search_common_scalar(inst)
        assert rep.converged
        assert grid.best_objective - rep.objective <= grid.resolution_bound
        _assert_feasible(inst, rep)


def test_spg_fixture_analytic_optimum():
    # maximum at exactly (K_U, K_V) = (1, 0); see test_common.py
    inst = CommonInstance(K_C=np.array([[2.0]]), Sigma1=np.array([[1.0]]),
                          Sigma2=np.array([[2.0]]), lambda0=1.2, lambda1=1.0,
                          lambda2=1.1, alpha=0.5)
    rep = solve_common(inst)
    want = 0.4 * np.log(2.0) - 0.6 * np.log(3.0)
    assert rep.converged
    assert rep.objective == pytest.approx(want, abs=1e-8)
    assert rep.K_U[0, 0] == pytest.approx(1.0, abs=1e-6)
    assert abs(rep.K_V[0, 0]) < 1e-6
    assert rep.kkt_residual <= SolveOptions().rel_tol


def test_spg_table2_scale_converges():
    # EGBA-P needs minutes here; SPG a few hundred inner steps
    inst = random_instance(50, 0, "common")
    rep = solve_common(inst)
    assert rep.converged
    assert sum(map(sum, rep.inner_iterations)) <= 1000
    # measured by the benchmark's definition, so wrong block weights fail
    assert _load("quality").kkt_common(inst, rep.K_U, rep.K_V) <= 1e-3
    _assert_feasible(inst, rep)


def _block_objective(ps, A):
    """sum_i w_i logdet(A + H_i) of an SPG pass."""
    return sum(wi * np.linalg.slogdet(A + Hi)[1] for wi, Hi in zip(ps.w, ps.H))


def test_every_spg_inner_step_rises(monkeypatch):
    steps = []
    for name in ("kv_subproblem_step", "ku_subproblem_step"):
        orig = getattr(common, name)

        def recorded(A, ps, orig=orig):
            An = orig(A, ps)
            if An is not None:
                steps.append(_block_objective(ps, An) - _block_objective(ps, A))
            return An

        monkeypatch.setattr(common, name, recorded)
    # on the last three, some BB steps overshoot and only the backtrack
    # keeps the block objective from falling
    extra = [random_instance(n, seed, "common") for n, seed in ((3, 0), (3, 4), (4, 3))]
    for inst in _panel() + extra:
        solve_common(inst, SolveOptions(rel_tol=1e-6))
    assert len(steps) > 100
    assert min(steps) >= -1e-12


def test_spg_beats_egba_p_on_the_panel():
    opts = SolveOptions(rel_tol=1e-3)
    for inst in _panel():
        spg = solve_common(inst, opts)
        egba = solve_common(inst, SolveOptions(algorithm=EGBA_P, rel_tol=1e-3))
        assert spg.converged
        assert spg.objective >= egba.objective
        assert spg.kkt_residual < egba.kkt_residual
        assert max(map(max, spg.inner_iterations)) <= 50
        # up to the box clip of the warm starts, the objective rises
        # across every outer pass
        assert np.all(np.diff(spg.objective_trace) >= -1e-9)


@pytest.mark.parametrize("algorithm", [SPG, EGBA_P])
def test_kkt_residual_matches_the_quality_definition(algorithm):
    quality = _load("quality")
    for inst in _panel():
        rep = solve_common(inst, SolveOptions(algorithm=algorithm,
                                              rel_tol=1e-3, max_iters=3))
        want = quality.kkt_common(inst, rep.K_U, rep.K_V)
        assert want > quality.KKT_FLOOR
        assert rep.kkt_residual == pytest.approx(want, rel=1e-9)


def test_zero_budget_block_adds_no_residual():
    # the solve ends with a K_V budget of spectral norm 5e-11, which it
    # treats as zero; a box built on that budget would report the
    # PD_FLOOR the projection puts under a zero block
    rep = solve_common(random_instance(1, 4, "common"))
    assert np.array_equal(rep.K_V, np.zeros((1, 1)))
    assert rep.kkt_residual < PD_FLOOR


def test_roundoff_stall_is_reported_per_block(monkeypatch):
    calls = []
    rise = private._rise

    def counted(*args):
        calls.append(args)
        return rise(*args)

    monkeypatch.setattr(private, "_rise", counted)
    stall = re.compile(r"^K_[UV] inner solve stopped on roundoff at KKT "
                       r"residual \d\.\d{3}e[+-]\d+$")
    stalls = 0
    steps = 0
    for inst in _panel():
        rep = solve_common(inst, SolveOptions(rel_tol=1e-14))
        _assert_feasible(inst, rep)
        assert max(map(max, rep.inner_iterations)) <= 50 < INNER_CAP
        assert not any("cap" in w for w in rep.warnings)
        for w in rep.warnings:
            if "roundoff" in w:
                stalls += 1
                assert stall.match(w), w
        assert rep.kkt_residual <= 1e-10
        steps += sum(map(sum, rep.inner_iterations))
    assert stalls > 0
    # stalls are seen before a backtrack, not after halving to eps
    assert len(calls) <= 2 * steps


def test_each_block_reports_one_roundoff_stall():
    # 54 passes, most of them stalling in both blocks
    rep = solve_common(random_instance(4, 2, "common"), SolveOptions(rel_tol=1e-14))
    assert len(rep.step_rel_changes) > 10
    stalls = [w for w in rep.warnings if "roundoff" in w]
    assert 1 <= len(stalls) <= 2
    assert len({w.split()[0] for w in stalls}) == len(stalls)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 6), seed=st.integers(0, 10_000))
def test_spg_gives_feasible_answers(n, seed):
    inst = random_instance(n, seed, "common")
    rep = solve_common(inst)
    _assert_feasible(inst, rep)
    assert np.isfinite(rep.kkt_residual)
    assert not any("cap" in w or "feasibility" in w for w in rep.warnings)


def test_cli_common_algorithms(tmp_path, capsys):
    path = _common_fixture(tmp_path)
    rc = main(["solve", path, "--algorithm", "spg", "--no-timing"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["algorithm"] == "spg"
    assert doc["kkt_residual"] <= SolveOptions().rel_tol
    rows = {}
    for name in ("spg", "egba-p"):
        csv_path = tmp_path / f"{name}.csv"
        rc = main(["trace-region", path, "--alpha-grid", "0.5,0.8",
                   "--algorithm", name, "--csv-out", str(csv_path)])
        capsys.readouterr()
        assert rc == 0
        rows[name] = csv_path.read_text().splitlines()
    assert rows["spg"][0] == rows["egba-p"][0]
    # SPG reaches the optimum in a few passes; EGBA-P crawls to its cap
    spg_passes = [int(r.split(",")[-1]) for r in rows["spg"][1:]]
    egba_passes = [int(r.split(",")[-1]) for r in rows["egba-p"][1:]]
    assert max(spg_passes) < 10 < min(egba_passes)
    rc = main(["trace-region", path, "--alpha-grid", "0.5", "--algorithm", "gba-a"])
    assert rc == 1
    assert "requires a private instance" in capsys.readouterr().err
