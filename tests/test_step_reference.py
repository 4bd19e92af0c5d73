"""Bit-for-bit checks of the four step maps against plain np.linalg references,
and a rounding-level check against the LU-inverse formulas of the paper.

The steps invert their independent matrices in one stacked call, end in
project_box_inverse (one eigh of S for project_box(inv(S))), and GBA-A
inverts I - A through the eigenpairs of A.  Each reference below inverts
every matrix on its own and follows the same arithmetic, so any change to
the arithmetic of a step shows up as a failed np.array_equal.  The LU
oracles invert S and I - A directly and project with eigenvalues in
descending order and contiguous eigenvector copies; every step agrees
with them to 1e-12 relative on these interior points.
"""

import numpy as np
import pytest

from gbc import (
    box_transform,
    random_instance,
    reduce,
    transform,
)
from gbc.common import (
    _weights,
    ku_pass,
    ku_subproblem_step,
    kv_pass,
    kv_subproblem_step,
)
from gbc.private import gba_a_step
from gbc.psd import project_box, project_box_inverse
from gbc.reduction import schur_head

FLOOR = 1e-10
ORACLE_RTOL = 1e-12
inv = np.linalg.inv

# (n, rank of the constraint) -> reduced size r in {1, 2, 3, 5}; the
# rank-deficient draws take the Schur-complement path of the reduction
SHAPES = [(1, None), (2, None), (3, None), (5, None), (4, 2), (5, 3)]
SEEDS = [0, 1, 7]


def _sym(M):
    return (M + M.T) / 2.0


def _project(M):
    w, V = np.linalg.eigh(_sym(M))
    w = np.clip(w[::-1].copy(), FLOOR, 1.0)
    V = V[:, ::-1].copy()
    return _sym((V * w) @ V.T)


def _project_inverse(S):
    sig, V = np.linalg.eigh(_sym(S))
    w = np.clip(1.0 / sig, FLOOR, 1.0)
    return _sym((V * w) @ V.T)


def _root(b, lam):
    s = lam + 1.0 + b
    d = np.sqrt(s * s - 4.0 * b)
    with np.errstate(divide="ignore", invalid="ignore"):
        root = np.where(s < 0.0, (s - d) / (2.0 * b), 2.0 / (s + d))
    return np.where(b == 0.0, 1.0 / (1.0 + lam), root)


def _lu_root(b, lam):
    s = lam + 1.0 + b
    return np.where(b == 0.0, 1.0 / (1.0 + lam), 2.0 / (s + np.sqrt(s * s - 4.0 * b)))


def _a_map(D_U, D_V, lam, root):
    """GBA-A's eigenvalue-wise rebuild from D_U - lam * D_V."""
    b, H = np.linalg.eigh(_sym(D_U - lam * D_V))
    a = np.clip(root(b, lam), FLOOR, 1.0 - FLOOR)
    return _sym((H * a) @ H.T)


def _close(got, oracle):
    return np.linalg.norm(got - oracle) <= ORACLE_RTOL * np.linalg.norm(oracle)


def _interior_point(rng, r):
    Q, _ = np.linalg.qr(rng.standard_normal((r, r)))
    return (Q * rng.uniform(0.05, 0.95, r)) @ Q.T


def _case(n, rank, seed, kind):
    inst = random_instance(n, seed, kind, rank=rank)
    rng = np.random.default_rng(100 + seed)
    return inst, rng


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n,rank", SHAPES)
def test_private_steps_match_reference(n, rank, seed):
    inst, rng = _case(n, rank, seed, "private")
    red = reduce(inst)
    lam = red.lam
    H1, H2 = red.SigmaHat1, red.SigmaHat2
    for _ in range(3):
        A = _sym(_interior_point(rng, red.rank))
        T = A @ inv(H1) @ A + A
        S = inv(T) + lam * inv(A + H2)

        got_p = kv_subproblem_step(A, kv_pass(np.stack((H1, H2)), (1.0, -lam)))
        assert np.array_equal(got_p, _project_inverse(S))
        assert _close(got_p, _project(inv(S)))

        q, Q = np.linalg.eigh(A)
        got_a = gba_a_step(A, red, lam)
        D_V = (Q / (1.0 - q)) @ Q.T - inv(A + H2)
        assert np.array_equal(got_a, _a_map(inv(T), D_V, lam, _root))
        D_V = inv(np.eye(red.rank) - A) - inv(A + H2)
        assert _close(got_a, _a_map(inv(T), D_V, lam, _lu_root))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n,rank", SHAPES)
def test_common_steps_match_reference(n, rank, seed):
    inst, rng = _case(n, rank, seed, "common")
    bt = box_transform(inst.K_C)
    r = bt.rank
    K_V = 0.3 * inst.K_C
    S1h = schur_head(transform(bt, inst.Sigma1), r)
    S2h = schur_head(transform(bt, inst.Sigma2), r)
    M1h = schur_head(transform(bt, K_V + inst.Sigma2), r)
    M2h = schur_head(transform(bt, K_V + inst.Sigma1), r)
    BVp = transform(bt, K_V)[:r, :r]
    l0, l1, l2, alpha = inst.lambda0, inst.lambda1, inst.lambda2, inst.alpha
    w = _weights(inst)[1]
    ku = ku_pass(np.stack((M1h, M2h, S1h, S2h)), w, BVp)
    for _ in range(3):
        A = _sym(_interior_point(rng, r))

        T = A @ inv(S2h) @ A + A
        S = inv(T) + 0.75 * inv(A + S1h)
        got = kv_subproblem_step(A, kv_pass(np.stack((S2h, S1h)), (1.0, -0.75)))
        assert np.array_equal(got, _project_inverse(S))
        assert _close(got, _project(inv(S)))

        T = A @ inv(S1h) @ A + A
        M1i = inv(A + M1h)
        # the step reads lam2', lam0'*alpha and lam0'*abar from the weights
        mid = -w[3] * (inv(A + S2h) @ _sym(BVp) @ M1i)
        mid = (mid + mid.T) / 2.0
        last = -w[1] * inv(A + M2h) - (w[0] + w[3]) * M1i
        got = ku_subproblem_step(A, ku)
        assert np.array_equal(got, _project_inverse(inv(T) + mid + last))
        # the paper's form, with the weights written in lambda
        mid = (l2 / l1) * (inv(A + S2h) @ _sym(BVp) @ M1i)
        mid = (mid + mid.T) / 2.0
        last = (l0 / l1) * (alpha * inv(A + M2h) + (1.0 - alpha) * M1i)
        assert _close(got, _project(inv(inv(T) + mid + last)))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("r", [2, 5, 12])
def test_project_box_inverse_of_indefinite_matrix(r, seed):
    """An indefinite, nonsingular S: the inverse's negative eigenvalues
    clip to the floor, as they do through np.linalg.inv."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((r, r)))
    sig = rng.uniform(0.2, 3.0, r) * rng.choice([-1.0, 1.0], r)
    sig[0] = -abs(sig[0])
    sig[-1] = abs(sig[-1])
    S = (Q * sig) @ Q.T
    P, w = project_box_inverse(S)
    oracle = project_box(inv(S))
    assert np.linalg.norm(P - oracle) <= ORACLE_RTOL * np.linalg.norm(oracle)
    assert np.allclose(np.sort(w), np.linalg.eigvalsh(oracle), rtol=0, atol=1e-12)
    assert np.isclose(w.min(), FLOOR, rtol=0, atol=0)
