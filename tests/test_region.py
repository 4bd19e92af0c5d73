"""Tests for rate computation and region tracing."""

import numpy as np
import pytest

from gbc import (
    Algorithm,
    CommonInstance,
    PrivateInstance,
    SolveOptions,
    rates_common,
    rates_private,
    random_instance,
    solve_common,
    sweep_alpha_common,
    trace_region_private,
    weighted_rate_common,
)
from gbc.errors import InvalidInputError, InvalidSweepError


def _case1():
    return PrivateInstance(K=np.array([[2.0, 2.0], [2.0, 4.0]]),
                           Sigma1=np.eye(2),
                           Sigma2=np.array([[3.0, 1.0], [1.0, 4.0]]),
                           lam=2.0)


def _scalar_common(K_C=2.0, S1=1.0, S2=2.0, alpha=0.5):
    return CommonInstance(K_C=np.array([[K_C]]), Sigma1=np.array([[S1]]),
                          Sigma2=np.array([[S2]]), lambda0=1.2, lambda1=1.0,
                          lambda2=1.1, alpha=alpha)


def test_rates_case1_known_values():
    pt = rates_private(np.array([[1.0, 1.0], [1.0, 2.0]]), _case1())
    assert pt.R0 == 0.0
    assert pt.R1 == pytest.approx(0.5 * np.log(5.0), rel=1e-12)
    assert pt.R2 == pytest.approx(0.5 * np.log(31.0 / 20.0), rel=1e-12)
    assert pt.lambda_tag == 2.0
    assert pt.objective == pytest.approx(np.log(5.0) - 2.0 * np.log(20.0),
                                         rel=1e-12)


def test_rates_trivial_splits():
    inst = _case1()
    zero = rates_private(np.zeros((2, 2)), inst)
    assert zero.R1 == 0.0
    assert zero.R2 == pytest.approx(0.5 * np.log(31.0 / 11.0), rel=1e-12)
    full = rates_private(inst.K, inst)
    assert full.R2 == 0.0
    assert full.R1 == pytest.approx(0.5 * np.log(11.0), rel=1e-12)


def test_rates_clamp_and_reject():
    inst = _case1()
    # roundoff-scale overshoot clamps to zero
    pt = rates_private(inst.K + 1e-13 * np.eye(2), inst)
    assert pt.R2 == 0.0
    # a real violation raises
    with pytest.raises(InvalidInputError):
        rates_private(inst.K + 0.1 * np.eye(2), inst)


def test_trace_objective_identity_and_order():
    inst = _case1()
    lams = (5.0, 1.5, 2.0)
    pts = trace_region_private(inst, lams, SolveOptions(max_iters=20000,
                                                        rel_tol=1e-6))
    assert [p.lambda_tag for p in pts] == sorted(lams)
    ld_s1 = np.linalg.slogdet(inst.Sigma1)[1]
    ld_k2 = np.linalg.slogdet(inst.K + inst.Sigma2)[1]
    for p in pts:
        lam = p.lambda_tag
        want = 2.0 * (p.R1 + lam * p.R2) + ld_s1 - lam * ld_k2
        assert p.objective == pytest.approx(want, abs=1e-8)
        assert p.iterations >= 1


def test_trace_single_lambda_matches_rates():
    pts = trace_region_private(_case1(), [2.0], SolveOptions())
    assert len(pts) == 1
    assert pts[0].error is None
    assert pts[0].R1 == pytest.approx(0.5 * np.log(5.0), abs=1e-6)
    assert pts[0].R2 == pytest.approx(0.5 * np.log(31.0 / 20.0), abs=1e-6)


def test_trace_r2_rises_r1_falls_with_lambda():
    # larger lambda weights receiver 2's rate more, so the traced boundary
    # point moves toward higher R2 and lower R1
    opts = SolveOptions(max_iters=50000, rel_tol=1e-6)
    for base in (PrivateInstance(K=np.array([[2.0, 2.0], [2.0, 4.0]]),
                                 Sigma1=np.eye(2),
                                 Sigma2=np.array([[3.0, 2.0], [2.0, 4.0]]),
                                 lam=2.0),
                 random_instance(3, 1)):
        pts = trace_region_private(base, (1.5, 2.0, 3.0, 5.0), opts)
        assert all(p.error is None for p in pts)
        r1 = np.array([p.R1 for p in pts])
        r2 = np.array([p.R2 for p in pts])
        assert np.all(np.diff(r2) >= -1e-9)
        assert np.all(np.diff(r1) <= 1e-9)


def test_trace_nonconvergence_is_flagged_not_fatal():
    pts = trace_region_private(_case1(), (1.5, 2.0), SolveOptions(max_iters=2))
    assert len(pts) == 2
    for p in pts:
        assert np.isfinite(p.R1) and np.isfinite(p.R2)
    assert any(p.error and "did not converge" in p.error for p in pts)


def test_trace_failed_solves_become_nan_points():
    # GBA-A cannot start at A = I (I - A is singular); the failed solve
    # leaves the next one the same start, so every lambda fails
    opts = SolveOptions(algorithm=Algorithm.GBA_A, init=np.eye(3))
    pts = trace_region_private(random_instance(3, 0), [2.0, 1.5], opts)
    assert [p.lambda_tag for p in pts] == [1.5, 2.0]
    for p in pts:
        assert np.isnan([p.R0, p.R1, p.R2]).all()
        assert "I - A is singular" in p.error


def test_trace_accepts_list_matrices():
    # rates_private once added K + Sigma2 as lists, which concatenates
    inst = random_instance(3, 2)
    as_lists = PrivateInstance(K=inst.K.tolist(), Sigma1=inst.Sigma1.tolist(),
                               Sigma2=inst.Sigma2.tolist(), lam=inst.lam)
    assert trace_region_private(as_lists, [1.5, 3.0]) == \
        trace_region_private(inst, [1.5, 3.0])


def test_trace_rejects_bad_sweeps():
    with pytest.raises(InvalidSweepError):
        trace_region_private(_case1(), [])
    with pytest.raises(InvalidInputError, match="max_iters"):
        trace_region_private(_case1(), [2.0, 3.0], SolveOptions(max_iters=0))
    with pytest.raises(InvalidInputError):
        trace_region_private(_case1(), [1.0, 2.0])
    with pytest.raises(InvalidInputError):
        trace_region_private(_case1(), [float("inf")])


def test_rates_common_hand_values():
    inst = _scalar_common()
    pt = rates_common(np.array([[1.0]]), np.array([[0.0]]), inst)
    iwy = 0.5 * np.log(3.0 / 2.0)
    iwz = 0.5 * np.log(4.0 / 3.0)
    assert pt.R0 == pytest.approx(0.5 * iwy + 0.5 * iwz, rel=1e-12)
    assert pt.R1 == pytest.approx(0.5 * np.log(2.0), rel=1e-12)
    assert pt.R2 == 0.0
    assert pt.lambda_tag == (1.2, 1.0, 1.1, 0.5)
    want = 1.2 * pt.R0 + 1.0 * pt.R1
    got = weighted_rate_common(np.array([[1.0]]), np.array([[0.0]]), inst)
    assert got == pytest.approx(want, rel=1e-12)


def test_sweep_alpha_argmin_matches_bruteforce():
    inst = _scalar_common()
    opts = SolveOptions(max_iters=60, rel_tol=1e-3)
    alphas = (0.5, 0.75, 1.0)
    reports, best = sweep_alpha_common(inst, alphas, opts)
    assert len(reports) == 3
    values = []
    for a, rep in zip(alphas, reports):
        assert rep is not None
        cinst = CommonInstance(K_C=inst.K_C, Sigma1=inst.Sigma1,
                               Sigma2=inst.Sigma2, lambda0=1.2, lambda1=1.0,
                               lambda2=1.1, alpha=a)
        values.append(weighted_rate_common(rep.K_U, rep.K_V, cinst))
    idx = int(np.argmin(values))
    assert best.alpha == alphas[idx]
    assert best.value == pytest.approx(values[idx], rel=1e-12)


def test_sweep_alpha_single_point_matches_solve():
    inst = _scalar_common()
    opts = SolveOptions(max_iters=60, rel_tol=1e-3)
    reports, best = sweep_alpha_common(inst, [0.5], opts)
    direct = solve_common(inst, opts)
    assert best.alpha == 0.5
    assert reports[0].objective == pytest.approx(direct.objective, rel=1e-12)


def test_sweep_alpha_skips_infeasible_weights():
    inst = _scalar_common()
    with pytest.warns(UserWarning, match="skipped"):
        reports, best = sweep_alpha_common(inst, (0.05, 0.5),
                                           SolveOptions(max_iters=40,
                                                        rel_tol=1e-3))
    assert reports[0] is None
    assert reports[1] is not None
    assert best.alpha == 0.5


def test_sweep_alpha_all_infeasible_raises():
    inst = _scalar_common()
    with pytest.warns(UserWarning):
        with pytest.raises(InvalidSweepError):
            sweep_alpha_common(inst, (0.01, 0.05), SolveOptions(max_iters=10))


def test_sweep_alpha_rejects_bad_input():
    inst = _scalar_common()
    with pytest.raises(InvalidSweepError):
        sweep_alpha_common(inst, [])
    with pytest.raises(InvalidInputError):
        sweep_alpha_common(inst, [1.5])
