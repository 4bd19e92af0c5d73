"""A pass owns its iterate: it reads its start once with check_box when
it is built, and its steps take no matrix, so a pass can only step from
the iterate it holds.

These tests pin the sides of that: a solve checks once per pass, not
once per step; a NaN, off-box or wrong-size start raises when the pass
is built, for every kind of pass; checking every iterate a pass makes
would change no bit of a report; and a pass's running rise is the rise
of the iterate it holds.  The last test makes solve_common's closing
feasibility test, one stacked eigh, fire.
"""

import dataclasses
import struct
import warnings

import numpy as np
import pytest

import gbc.common as common
import gbc.private as private
from gbc import (
    Algorithm,
    DimensionMismatchError,
    SolveOptions,
    random_instance,
    solve_common,
    solve_private,
)
from gbc.common import _weights, build_box
from gbc.errors import InvalidInputError
from gbc.private import FixedPoint, _Spg
from gbc.reduction import check_box

_SOLVERS = [(Algorithm.SPG, 1e-3), (Algorithm.GBA_P, 3e-2)]
_IDS = ["spg", "egba-p"]


def _counting(monkeypatch):
    """Replace the pass constructors' check_box with a wrapper that logs
    each call."""
    calls = []

    def counted(A, rank, *decompose):
        calls.append(rank)
        return check_box(A, rank, *decompose)

    monkeypatch.setattr(private, "check_box", counted)
    return calls


@pytest.mark.parametrize("algorithm,tol", _SOLVERS, ids=_IDS)
def test_one_check_per_block_solve(monkeypatch, algorithm, tol):
    calls = _counting(monkeypatch)
    rep = solve_common(random_instance(3, 0, "common"),
                       SolveOptions(algorithm=algorithm, rel_tol=tol))
    counts = rep.inner_iterations[0] + rep.inner_iterations[1]
    assert sum(counts) > len(counts)
    assert len(calls) == len(counts)


@pytest.mark.parametrize("algorithm", list(Algorithm))
def test_one_check_per_private_solve(monkeypatch, algorithm):
    calls = _counting(monkeypatch)
    rep = solve_private(random_instance(3, 0), SolveOptions(algorithm=algorithm))
    assert rep.iterations > 1
    assert calls == [3]


def _boxes():
    """The first outer pass's K_V and K_U boxes of a real instance, with
    their weights."""
    inst = random_instance(3, 0, "common")
    w_v, w_u = _weights(inst)
    S1, S2 = inst.Sigma1, inst.Sigma2
    return (build_box(inst.K_C, (S2, S1)), w_v,
            build_box(inst.K_C, (S2, S1, S1, S2)), w_u)


def _make_passes():
    """A constructor for each kind of pass, from its start A."""
    kv_box, w_v, ku_box, w_u = _boxes()
    r = ku_box.rank
    H = np.stack((kv_box.H[0], kv_box.H[0] + np.eye(r)))
    return {
        "spg": lambda A: _Spg(A, kv_box.H, w_v, 0.0),
        "gba-p": lambda A: FixedPoint(A, H, (1.0, -2.0), spectral=True),
        "gba-a": lambda A: FixedPoint(A, H, (1.0, -2.0), alternating=True, spectral=True),
        "kv-egba": lambda A: FixedPoint(A, kv_box.H, w_v),
        "ku-egba": lambda A: FixedPoint(A, ku_box.H, w_u),
    }


@pytest.mark.parametrize("kind", ["spg", "gba-p", "gba-a", "kv-egba", "ku-egba"])
def test_a_bad_start_raises_when_the_pass_is_built(kind):
    make = _make_passes()[kind]
    good = 0.5 * np.eye(3)
    assert make(good).step() is not None
    nan = good.copy()
    nan[0, 0] = np.nan
    outside = good.copy()
    outside[0, 0] = 3.0
    for bad in (nan, 3.0 * np.eye(3), outside):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(InvalidInputError, match="A_U"):
                make(bad)
    with pytest.raises(DimensionMismatchError, match=r"\(4, 4\) and \(3, 3\)"):
        make(0.5 * np.eye(4))


def _block_objective(ps, A):
    """sum_i w_i logdet(A + H_i) of a pass."""
    return sum(wi * np.linalg.slogdet(A + Hi)[1] for wi, Hi in zip(ps.w, ps.H))


def test_spg_rise_is_the_rise_of_the_iterate_it_holds():
    kv_box, w_v, _, _ = _boxes()
    ps = _Spg(0.5 * np.eye(kv_box.rank), kv_box.H, w_v, 0.0)
    start, f0 = ps.A, ps.f
    assert f0 == pytest.approx(_block_objective(ps, start), rel=1e-12, abs=1e-12)
    for _ in range(3):
        assert ps.step() is not None
        want = _block_objective(ps, ps.A) - _block_objective(ps, start)
        assert ps.f - f0 == pytest.approx(want, rel=1e-9, abs=1e-12)


def _checking_step(ps):
    """A block step that first re-checks the iterate the pass holds."""
    ps.A, _ = check_box(ps.A, len(ps.A))
    return ps.step()


def _bits(obj):
    """obj with every float and array replaced by its bytes."""
    if isinstance(obj, np.ndarray):
        return obj.dtype.str, obj.shape, obj.tobytes()
    if isinstance(obj, float):
        return struct.pack("<d", obj)
    if isinstance(obj, (tuple, list)):
        return tuple(_bits(x) for x in obj)
    return obj


def _report_bits(rep):
    return {f.name: _bits(getattr(rep, f.name))
            for f in dataclasses.fields(rep) if f.name != "elapsed_seconds"}


@pytest.mark.parametrize("algorithm,tol", _SOLVERS, ids=_IDS)
@pytest.mark.parametrize("i", range(4))
def test_checking_every_iterate_changes_no_bit(monkeypatch, algorithm, tol, i):
    inst = random_instance((2, 3, 4, 2)[i], i, "common")
    opts = SolveOptions(algorithm=algorithm, rel_tol=tol)
    shipped = solve_common(inst, opts)
    monkeypatch.setattr(common, "kv_subproblem_step", _checking_step)
    monkeypatch.setattr(common, "ku_subproblem_step", _checking_step)
    checked = solve_common(inst, opts)
    assert _report_bits(shipped) == _report_bits(checked)


def test_infeasible_answer_is_reported(monkeypatch):
    # lifting with a stretched lift matrix puts K_U + K_V outside K_C
    def stretched(K, stack, scale=None):
        box = build_box(K, stack, scale)
        bt = box.transform
        return dataclasses.replace(box, transform=dataclasses.replace(
            bt, lift_matrix=1.5 * bt.lift_matrix))

    inst = random_instance(3, 0, "common")
    note = "final covariances violate feasibility beyond slack 1e-8"
    assert note not in solve_common(inst, SolveOptions(max_iters=2)).warnings
    monkeypatch.setattr(common, "build_box", stretched)
    assert note in solve_common(inst, SolveOptions(max_iters=2)).warnings
