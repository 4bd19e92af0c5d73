"""Tests for the symmetric-matrix primitives."""

import numpy as np
import pytest

from gbc import loewner_leq, logdet, project_box
from gbc.errors import (
    DimensionMismatchError,
    InvalidInputError,
    NotPositiveDefiniteError,
    NumericalBreakdownError,
)
from gbc.psd import PD_FLOOR, project_box_inverse, spectral_norm, symmetrize


def test_symmetrize_is_exactly_symmetric():
    rng = np.random.default_rng(0)
    for _ in range(20):
        M = rng.standard_normal((5, 5))
        S = symmetrize(M)
        assert np.array_equal(S, S.T)
        assert np.allclose(S, (M + M.T) / 2)


def test_symmetrize_rejects_non_square():
    with pytest.raises(InvalidInputError):
        symmetrize(np.zeros((2, 3)))
    with pytest.raises(InvalidInputError):
        symmetrize(np.zeros(4))


def test_logdet_known_values():
    assert logdet(np.eye(3)) == pytest.approx(0.0, abs=1e-14)
    M = np.array([[2.0, 1.0], [1.0, 2.0]])  # det 3
    assert logdet(M) == pytest.approx(np.log(3.0), abs=1e-12)
    # empty matrix: logdet of a 0x0 determinant is log(1)
    assert logdet(np.zeros((0, 0))) == 0.0
    rng = np.random.default_rng(3)
    for n in (1, 3, 50):
        G = rng.standard_normal((n, n))
        M = G @ G.T + 0.5 * np.eye(n)
        sign, want = np.linalg.slogdet(M)
        assert sign == 1.0
        assert logdet(M) == pytest.approx(want, rel=1e-12)


def test_logdet_rejects_singular_and_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        logdet(np.diag([1.0, 0.0]))
    with pytest.raises(NotPositiveDefiniteError):
        logdet(np.diag([1.0, -2.0]))


def test_project_box_identity_on_interior():
    rng = np.random.default_rng(2)
    Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    M = symmetrize(Q @ np.diag([0.2, 0.4, 0.6, 0.8]) @ Q.T)
    assert np.allclose(project_box(M), M, atol=1e-12)


def test_project_box_clips_spectrum():
    M = np.diag([-1.0, 0.5, 3.0])
    P = project_box(M)
    w = np.linalg.eigvalsh(P)
    assert w[0] >= PD_FLOOR * (1 - 1e-12)
    assert w[-1] <= 1.0 + 1e-12
    # the zero matrix lands on the pd floor, not on zero
    w0 = np.linalg.eigvalsh(project_box(np.zeros((3, 3))))
    assert np.allclose(w0, PD_FLOOR)


def test_project_box_inverse_clips_and_rejects_singular():
    P, w = project_box_inverse(np.diag([-2.0, 0.5, 4.0]))
    assert np.array_equal(w, [PD_FLOOR, 1.0, 0.25])
    assert np.array_equal(P, np.diag(w))
    with pytest.raises(NumericalBreakdownError):
        project_box_inverse(np.diag([1.0, 0.0]))
    with pytest.raises(InvalidInputError):
        project_box_inverse(np.array([[1.0, np.nan], [np.nan, 1.0]]))


def test_loewner_leq_basics():
    A = np.diag([1.0, 2.0])
    B = np.diag([1.5, 2.5])
    assert loewner_leq(A, B)
    assert not loewner_leq(B, A)
    assert loewner_leq(A, A)
    assert loewner_leq(np.zeros((0, 0)), np.zeros((0, 0)))
    # slack admits tiny violations
    assert loewner_leq(A + 1e-10 * np.eye(2), A)
    assert not loewner_leq(A + 1e-6 * np.eye(2), A)
    with pytest.raises(DimensionMismatchError):
        loewner_leq(np.eye(2), np.eye(3))
    # eigvalsh returns [0, -0] for this NaN matrix, so it must be caught first
    for bad in (np.diag([np.nan, 0.5]), np.diag([np.inf, 0.5])):
        with pytest.raises(InvalidInputError):
            loewner_leq(np.zeros((2, 2)), bad)
        with pytest.raises(InvalidInputError):
            loewner_leq(bad, np.eye(2))


def test_spectral_norm_matches_two_norm():
    rng = np.random.default_rng(3)
    for _ in range(10):
        M = symmetrize(rng.standard_normal((5, 5)))
        assert spectral_norm(M) == pytest.approx(np.linalg.norm(M, 2), rel=1e-12)
    assert spectral_norm(np.zeros((0, 0))) == 0.0
    for bad in (np.diag([np.nan, 0.5]), np.diag([np.inf, 0.5])):
        with pytest.raises(InvalidInputError):
            spectral_norm(bad)
