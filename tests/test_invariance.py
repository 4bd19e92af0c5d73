"""Invariance properties of the solvers' answers.

A permutation P of the coordinates maps the problem (K_C, Sigma1,
Sigma2) to (P K_C P^T, P Sigma1 P^T, P Sigma2 P^T), and its optimum to
(P K_U P^T, P K_V P^T).  A congruence by an invertible T maps every
matrix M to T M T^T; each logdet(M + ...) term then gains 2 log|det T|,
so the optimal objective shifts by that much times the sum of the
weights: 1 - lam for the private problem, c - lam0'alpha + 1 - lam2'
for the common one (c = lam2' - lam0'(1 - alpha)).

Tolerances sit well above the largest gaps over 1200 seeds at
rel_tol = 1e-8: 1.4e-6 in the permuted covariances, 8.6e-9 in the
permuted objective, 7.5e-14 and 5e-8 in the congruent private objective
and covariance, 6.8e-7 in the congruent common objective.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gbc import SolveOptions, random_instance, solve_common, solve_private

OPTS = SolveOptions(rel_tol=1e-8, max_iters=1000)


def _congruent(M, T):
    M = T @ M @ T.T
    return (M + M.T) / 2.0


def _well_conditioned(rng, n):
    """Invertible T with singular values in [0.5, 2]."""
    Q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    Q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (Q1 * rng.uniform(0.5, 2.0, n)) @ Q2.T


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 6), seed=st.integers(0, 10_000))
def test_common_solve_commutes_with_permutation(n, seed):
    inst = random_instance(n, seed, "common")
    P = np.eye(n)[np.random.default_rng(seed).permutation(n)]
    rep = solve_common(inst, OPTS)
    perm = solve_common(replace(inst, K_C=P @ inst.K_C @ P.T,
                                Sigma1=P @ inst.Sigma1 @ P.T,
                                Sigma2=P @ inst.Sigma2 @ P.T), OPTS)
    assert np.max(np.abs(perm.K_U - P @ rep.K_U @ P.T)) <= 1e-4
    assert np.max(np.abs(perm.K_V - P @ rep.K_V @ P.T)) <= 1e-4
    assert abs(perm.objective - rep.objective) <= 1e-7


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 6), seed=st.integers(0, 10_000))
def test_private_objective_shifts_under_congruence(n, seed):
    inst = random_instance(n, seed)
    T = _well_conditioned(np.random.default_rng(seed), n)
    rep = solve_private(inst, OPTS)
    cong = solve_private(replace(inst, K=_congruent(inst.K, T),
                                 Sigma1=_congruent(inst.Sigma1, T),
                                 Sigma2=_congruent(inst.Sigma2, T)), OPTS)
    shift = 2.0 * np.log(abs(np.linalg.det(T))) * (1.0 - inst.lam)
    assert abs(cong.objective - rep.objective - shift) <= 1e-10
    assert np.max(np.abs(cong.final_KU - _congruent(rep.final_KU, T))) <= 1e-6


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 6), seed=st.integers(0, 10_000))
def test_common_objective_shifts_under_congruence(n, seed):
    inst = random_instance(n, seed, "common")
    T = _well_conditioned(np.random.default_rng(seed), n)
    rep = solve_common(inst, OPTS)
    cong = solve_common(replace(inst, K_C=_congruent(inst.K_C, T),
                                Sigma1=_congruent(inst.Sigma1, T),
                                Sigma2=_congruent(inst.Sigma2, T)), OPTS)
    l0 = inst.lambda0 / inst.lambda1
    l2 = inst.lambda2 / inst.lambda1
    a = inst.alpha
    weights = (l2 - l0 * (1.0 - a)) - l0 * a + 1.0 - l2
    shift = 2.0 * np.log(abs(np.linalg.det(T))) * weights
    # the common solve stops on the outer relative-change rule
    assert abs(cong.objective - rep.objective - shift) <= 1e-5
