"""The common block steps check the box of every matrix handed to them,
except the iterate their own pass just made.

kv_subproblem_step (also bound as ku_subproblem_step) runs check_box on
its argument unless it is the array ps.last that the pass's previous
step returned.  These tests pin the three sides of that: a block solve
checks once, not once per step; anything not made by the pass, copies
included, is still checked; and the skipped checks change no bit of a
report.  The last test makes solve_common's closing feasibility test,
one stacked eigvalsh, fire.
"""

import dataclasses
import struct
import warnings

import numpy as np
import pytest

import gbc.common as common
from gbc import Algorithm, SolveOptions, random_instance, solve_common
from gbc.common import (
    _weights,
    build_box,
    check_box,
    ku_pass,
    ku_subproblem_step,
    kv_pass,
    kv_subproblem_step,
)
from gbc.errors import InvalidInputError
from gbc.private import _Spg

_SOLVERS = [(Algorithm.SPG, 1e-3), (Algorithm.GBA_P, 3e-2)]
_IDS = ["spg", "egba-p"]


def _counting(monkeypatch):
    """Replace gbc.common.check_box with a wrapper that logs each call."""
    calls = []

    def counted(A, rank):
        calls.append(rank)
        return check_box(A, rank)

    monkeypatch.setattr(common, "check_box", counted)
    return calls


@pytest.mark.parametrize("algorithm,tol", _SOLVERS, ids=_IDS)
def test_one_step_check_per_block_solve(monkeypatch, algorithm, tol):
    calls = _counting(monkeypatch)
    rep = solve_common(random_instance(3, 0, "common"),
                       SolveOptions(algorithm=algorithm, rel_tol=tol))
    # a block whose first step stalls would check once and count 0 steps
    assert not any("roundoff" in w for w in rep.warnings)
    counts = rep.inner_iterations[0] + rep.inner_iterations[1]
    stepped = sum(1 for c in counts if c > 0)
    assert sum(counts) > stepped > 0
    assert len(calls) == stepped


def _passes():
    """Fresh K_V (EGBA-P and SPG) and K_U (EGBA-P) passes on the first
    outer pass's boxes of a real instance, each with its step name."""
    inst = random_instance(3, 0, "common")
    w_v, w_u = _weights(inst)
    S1, S2 = inst.Sigma1, inst.Sigma2
    kv_box = build_box(inst.K_C, (S2, S1))
    ku_box = build_box(inst.K_C, (S2, S1, S1, S2))
    r = ku_box.rank
    return {
        "kv-egba": (kv_subproblem_step, kv_pass(kv_box.H, w_v)),
        "kv-spg": (kv_subproblem_step,
                   _Spg(0.5 * np.eye(kv_box.rank), kv_box.H, w_v, 0.0)),
        "ku-egba": (ku_subproblem_step,
                    ku_pass(ku_box.H, w_u, np.zeros((r, r)))),
    }


@pytest.mark.parametrize("name", ["kv-egba", "kv-spg", "ku-egba"])
def test_step_checks_what_its_pass_did_not_make(monkeypatch, name):
    step, ps = _passes()[name]
    r = ps.rank
    A1 = step(0.5 * np.eye(r), ps)
    assert A1 is not None and ps.last is A1
    nan = A1.copy()
    nan[0, 0] = np.nan
    outside = A1.copy()
    outside[0, 0] = 3.0
    for bad in (nan, 3.0 * np.eye(r), 0.5 * np.eye(r + 1), outside):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(InvalidInputError):
                step(bad, ps)
    calls = _counting(monkeypatch)
    A2 = step(A1.copy(), ps)
    assert len(calls) == 1
    assert ps.last is A2
    step(A2, ps)
    assert len(calls) == 1


def _parent_step(A, ps):
    """The block step that checks every iterate."""
    return ps.step(check_box(A, ps.rank))


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
def test_skipped_checks_change_no_bit(monkeypatch, algorithm, tol, i):
    inst = random_instance((2, 3, 4, 2)[i], i, "common")
    opts = SolveOptions(algorithm=algorithm, rel_tol=tol)
    shipped = solve_common(inst, opts)
    monkeypatch.setattr(common, "kv_subproblem_step", _parent_step)
    monkeypatch.setattr(common, "ku_subproblem_step", _parent_step)
    checked = solve_common(inst, opts)
    assert _report_bits(shipped) == _report_bits(checked)


def test_infeasible_answer_is_reported(monkeypatch):
    # lifting with a stretched lift matrix puts K_U + K_V outside K_C
    def stretched(K, stack, floor=0.0):
        box = build_box(K, stack, floor)
        bt = box.transform
        return dataclasses.replace(box, transform=dataclasses.replace(
            bt, lift_matrix=1.5 * bt.lift_matrix))

    inst = random_instance(3, 0, "common")
    note = "final covariances violate feasibility beyond slack 1e-8"
    assert note not in solve_common(inst, SolveOptions(max_iters=2)).warnings
    monkeypatch.setattr(common, "build_box", stretched)
    assert note in solve_common(inst, SolveOptions(max_iters=2)).warnings
