"""Bit-for-bit checks of the four step maps against plain np.linalg references.

The steps invert their independent matrices in one stacked call and
project with a lean copy of the eigenvalue clip.  Each reference below
inverts every matrix on its own and projects with the eig_sym ordering
(eigenvalues descending, contiguous eigenvector copies), so any change
to the arithmetic of a step shows up as a failed np.array_equal.
"""

import numpy as np
import pytest

from gbc import (
    box_transform,
    gba_a_step,
    gba_p_step,
    ku_pass,
    ku_subproblem_step,
    kv_pass,
    kv_subproblem_step,
    random_instance,
    reduce,
    schur_head,
    transform,
)

FLOOR = 1e-10
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

        want_p = _project(inv(inv(T) + lam * inv(A + H2)))
        assert np.array_equal(gba_p_step(A, red, lam), want_p)

        D_V = inv(np.eye(red.rank) - A) - inv(A + H2)
        b, H = np.linalg.eigh(_sym(inv(T) - lam * D_V))
        s = lam + 1.0 + b
        root = np.where(b == 0.0, 1.0 / (1.0 + lam), 2.0 / (s + np.sqrt(s * s - 4.0 * b)))
        a = np.clip(root, FLOOR, 1.0 - FLOOR)
        want_a = _sym((H * a) @ H.T)
        assert np.array_equal(gba_a_step(A, red, lam), want_a)


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
    ku = ku_pass(S1h, S2h, M1h, M2h, BVp, inst)
    for _ in range(3):
        A = _sym(_interior_point(rng, r))

        T = A @ inv(S2h) @ A + A
        raw = inv(inv(T) + 0.75 * inv(A + S1h))
        got = kv_subproblem_step(A, kv_pass(S2h, S1h, 0.75))
        assert np.array_equal(got, _project(raw))

        T = A @ inv(S1h) @ A + A
        M1i = inv(A + M1h)
        mid = (l2 / l1) * (inv(A + S2h) @ _sym(BVp) @ M1i)
        mid = (mid + mid.T) / 2.0
        last = (l0 / l1) * (alpha * inv(A + M2h) + (1.0 - alpha) * M1i)
        want = _project(inv(inv(T) + mid + last))
        assert np.array_equal(ku_subproblem_step(A, ku), want)
