"""Every matrix a caller hands the package is read by one rule,
gbc.psd.matrix: a numpy array of an int or float dtype, or a list of k
lists of k numbers as gbc.errors.number reads them, square and finite.

Each parameter below is one table row: how to call the package with a
value for it, a valid base value written as nested Python lists, and
the error a bad value must raise.  The message must name the parameter.
Every row is run with every bad value, and with the int-array, list and
float-array spellings of its base value, which must give the same bits.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from gbc import (
    CommonInstance,
    InvalidInputError,
    InvalidInstanceError,
    PrivateInstance,
    SolveOptions,
    fd_gradient,
    gradient_reduced,
    loewner_leq,
    logdet,
    objective_common,
    objective_reduced,
    rates_common,
    rates_private,
    reduce,
    solve_common,
    solve_private,
    sweep_alpha_common,
    weighted_rate_common,
)
from gbc.cli import main
from gbc.private import gba_a_step
from gbc.reduction import lift
from test_cli import _one_error
from test_numbers import _canon

# whole-valued data, so that every base value has an int-array spelling
K = [[2, 1], [1, 2]]
S1 = [[1, 0], [0, 1]]
S2 = [[2, 1], [1, 3]]
INST = PrivateInstance(K=np.array(K, float), Sigma1=np.array(S1, float),
                       Sigma2=np.array(S2, float), lam=2.0)
CI = CommonInstance(K_C=np.array(K, float), Sigma1=np.array(S1, float),
                    Sigma2=np.array(S2, float), lambda0=3.0, lambda1=1.0,
                    lambda2=2.0, alpha=1.0)
RED = reduce(INST)
KU = [[1, 0], [0, 0]]
KV = [[0, 0], [0, 1]]
I2 = [[1, 0], [0, 1]]
# a point strictly inside the box, where gba_a_step's I - A is invertible
HALF = [[0.5, 0.0], [0.0, 0.25]]


def _cli(tmp_path, K):
    doc = {"kind": "private", "n": 2, "K": K, "Sigma1": S1, "Sigma2": S2,
           "lambda": 2.0}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    return ["solve", str(path), "--no-timing"]


# name: (call with the value, base value, error, text the message names)
PARAMS = {
    "K": (lambda v: solve_private(replace(INST, K=v)), K, InvalidInstanceError, "K"),
    "Sigma1": (lambda v: solve_private(replace(INST, Sigma1=v)), S1,
               InvalidInstanceError, "Sigma1"),
    "Sigma2": (lambda v: solve_private(replace(INST, Sigma2=v)), S2,
               InvalidInstanceError, "Sigma2"),
    "K_C": (lambda v: solve_common(replace(CI, K_C=v)), K, InvalidInstanceError,
            "K_C"),
    "init": (lambda v: solve_private(INST, SolveOptions(init=v)), I2,
             InvalidInputError, "init"),
    "rates_private.K_U": (lambda v: rates_private(v, INST), KU,
                          InvalidInputError, "K_U"),
    "rates_common.K_U": (lambda v: rates_common(v, KV, CI), KU,
                         InvalidInputError, "K_U"),
    "rates_common.K_V": (lambda v: rates_common(KU, v, CI), KV,
                         InvalidInputError, "K_V"),
    "weighted_rate_common.K_U": (lambda v: weighted_rate_common(v, KV, CI), KU,
                                 InvalidInputError, "K_U"),
    "weighted_rate_common.K_V": (lambda v: weighted_rate_common(KU, v, CI), KV,
                                 InvalidInputError, "K_V"),
    "objective_common.K_U": (lambda v: objective_common(v, KV, CI), KU,
                             InvalidInputError, "K_U"),
    "objective_common.K_V": (lambda v: objective_common(KU, v, CI), KV,
                             InvalidInputError, "K_V"),
    "objective_reduced.A_U": (lambda v: objective_reduced(v, RED, 2.0), I2,
                              InvalidInputError, "A_U"),
    "gradient_reduced.A_U": (lambda v: gradient_reduced(v, RED, 2.0), I2,
                             InvalidInputError, "A_U"),
    "lift.A_U": (lambda v: lift(RED.transform, v), I2, InvalidInputError, "A_U"),
    "gba_a_step.A_U": (lambda v: gba_a_step(v, RED, 2.0), HALF,
                       InvalidInputError, "A_U"),
    "loewner_leq.A": (lambda v: loewner_leq(v, K), KU, InvalidInputError, "A"),
    "loewner_leq.B": (lambda v: loewner_leq(KU, v), K, InvalidInputError, "B"),
    "fd_gradient.X": (lambda v: fd_gradient(lambda X: logdet(X + np.eye(2)), v),
                      I2, InvalidInputError, "X"),
}


def _at(base, value):
    """base with its first entry replaced by value."""
    return [[value, *base[0][1:]], *base[1:]]


# the string row is the first entry written as a string, which
# np.asarray(M, float) would have read as that number
BAD = {
    "bool array": lambda base: np.array(base) != 0,
    "string entry": lambda base: _at(base, str(base[0][0])),
    "None entry": lambda base: _at(base, None),
    "complex array": lambda base: np.array(base, dtype=complex),
    "object array": lambda base: np.array(base, dtype=object),
    "ragged list": lambda base: [base[0], base[1][:1]],
    "1-D list": lambda base: base[0],
    "stack": lambda base: [base, base],
    "scalar": lambda base: base[0][0],
    "nan entry": lambda base: _at(base, float("nan")),
    "inf entry": lambda base: _at(base, float("inf")),
}


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("param", PARAMS)
def test_a_value_that_is_no_matrix_raises_the_package_error(param, bad):
    call, base, error, name = PARAMS[param]
    with pytest.raises(error, match=f"^{name} must be"):
        call(BAD[bad](base))


SPELLINGS = {"int array": np.array,
             "float array": lambda base: np.array(base, dtype=float)}


# HALF has no int spelling
@pytest.mark.parametrize("param,spelling", [
    (p, s) for p in PARAMS for s in ("int array", "float array")
    if (p, s) != ("gba_a_step.A_U", "int array")])
def test_array_and_list_spellings_give_the_same_result(param, spelling):
    call, base, error, name = PARAMS[param]
    assert _canon(call(SPELLINGS[spelling](base))) == _canon(call(base))


# JSON has no complex or object arrays
@pytest.mark.parametrize("bad", [b for b in BAD if b not in ("complex array",
                                                             "object array")])
def test_cli_refuses_a_file_whose_matrix_is_no_matrix(tmp_path, capsys, bad):
    value = BAD[bad](K)
    if isinstance(value, np.ndarray):
        value = value.tolist()
    _one_error(capsys, _cli(tmp_path, value), "K must be")


def test_cli_reads_int_and_float_entries_alike(tmp_path, capsys):
    outs = []
    for value in (K, np.array(K, float).tolist()):
        assert main(_cli(tmp_path, value)) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_an_instance_holds_float_arrays_and_float_weights():
    inst = PrivateInstance(K=K, Sigma1=np.array(S1), Sigma2=S2, lam=2)
    for M in (inst.K, inst.Sigma1, inst.Sigma2):
        assert isinstance(M, np.ndarray) and M.dtype == float
    assert type(inst.lam) is float
    ci = CommonInstance(K_C=K, Sigma1=S1, Sigma2=S2, lambda0=3, lambda1=1,
                        lambda2=np.int64(2), alpha=1)
    assert all(type(getattr(ci, k)) is float
               for k in ("lambda0", "lambda1", "lambda2", "alpha"))


# weights that the rate functions and the alpha sweep use without
# validating the instance
@pytest.mark.parametrize("call,name", [
    (lambda: rates_private(np.array(KU, float), replace(INST, lam="2")), "lam"),
    (lambda: rates_common(np.array(KU, float), np.array(KV, float),
                          replace(CI, alpha="0.5")), "alpha"),
    (lambda: sweep_alpha_common(replace(CI, lambda0="x"), [1.0]), "lambda0"),
], ids=["rates_private-lam", "rates_common-alpha", "sweep_alpha_common-lambda0"])
def test_an_unread_weight_is_refused_where_it_is_used(call, name):
    with pytest.raises(InvalidInstanceError, match=name):
        call()
