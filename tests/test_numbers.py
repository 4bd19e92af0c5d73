"""Every number a caller hands the package is read by one rule,
gbc.errors.number: a finite Python or numpy int or float, with integral
floats counting as whole; never a bool, a string, None or an array.

Each parameter below is one table row: how to call the package with a
value for it, a valid plain-Python value (`base`), whether it is whole,
and the error and the parameter name a bad value must raise.  Every row
is run with every bad value and every numpy or float spelling of its
base value.
"""

import dataclasses
import json
from dataclasses import replace

import numpy as np
import pytest

from gbc import (
    Algorithm,
    GridSpec,
    InvalidInputError,
    InvalidInstanceError,
    SolveOptions,
    grid_search_private_2x2,
    gradient_reduced,
    objective_reduced,
    random_instance,
    reduce,
    solve_common,
    solve_private,
    sweep_alpha_common,
    trace_region_private,
)
from gbc.cli import main
from gbc.private import gba_a_step

INST = random_instance(2, 0)
CI = random_instance(2, 0, "common")
# integral weights, so that every common weight has an int spelling
CI_WHOLE = replace(CI, lambda0=3.0, lambda1=1.0, lambda2=2.0, alpha=1.0)


def _common(key):
    return lambda v: solve_common(replace(CI_WHOLE, **{key: v}))


# name: (call with the value, base value, whole, error, text the message names)
PARAMS = {
    "max_iters": (lambda v: solve_private(INST, SolveOptions(
        algorithm=Algorithm.GBA_P, max_iters=v)), 3, True, InvalidInputError,
        "max_iters"),
    "rel_tol": (lambda v: solve_private(INST, SolveOptions(rel_tol=v)), 1, False,
                InvalidInputError, "rel_tol"),
    "resolution": (lambda v: grid_search_private_2x2(INST, GridSpec(v)), 3, True,
                   InvalidInputError, "resolution"),
    "random_instance.n": (lambda v: random_instance(v, 0), 2, True,
                          InvalidInputError, "n must"),
    "random_instance.seed": (lambda v: random_instance(2, v), 3, True,
                             InvalidInputError, "seed"),
    "random_instance.rank": (lambda v: random_instance(3, 0, rank=v), 2, True,
                             InvalidInputError, "rank"),
    "random_instance.lam": (lambda v: random_instance(2, 0, lam=v), 2, False,
                            InvalidInstanceError, "lam"),
    "PrivateInstance.lam": (lambda v: solve_private(replace(INST, lam=v)), 2, False,
                            InvalidInstanceError, "lam"),
    "lambda0": (_common("lambda0"), 3, False, InvalidInstanceError, "lambda0"),
    "lambda1": (_common("lambda1"), 1, False, InvalidInstanceError, "lambda1"),
    "lambda2": (_common("lambda2"), 2, False, InvalidInstanceError, "lambda2"),
    "alpha": (_common("alpha"), 1, False, InvalidInstanceError, "alpha"),
    "gba_a_step.lam": (lambda v: gba_a_step(0.5 * np.eye(2), reduce(INST), v), 2,
                       False, InvalidInputError, "lam"),
    "objective_reduced.lam": (lambda v: objective_reduced(
        0.5 * np.eye(2), reduce(INST), v), 2, False, InvalidInputError, "lam"),
    "gradient_reduced.lam": (lambda v: gradient_reduced(
        0.5 * np.eye(2), reduce(INST), v), 2, False, InvalidInputError, "lam"),
    "lambda sweep entry": (lambda v: trace_region_private(INST, [v]), 2, False,
                           InvalidInputError, "lambda"),
    "alpha sweep entry": (lambda v: sweep_alpha_common(CI, [v]), 1, False,
                          InvalidInputError, "alpha"),
}

# the string row is the base value written as a string, which float()
# and int() would have read as a valid value
BAD = {"bool": lambda base: True, "string": str, "None": lambda base: None,
       "nan": lambda base: float("nan"), "inf": lambda base: float("inf"),
       "huge int": lambda base: 10**400, "array": lambda base: np.array([base]),
       # more digits than str() writes, so even the message must not repr it
       "vast int": lambda base: 10**5000}


def _canon(x):
    """A comparable form of a result: report fields except the timing,
    arrays by dtype, shape and bytes, floats by their bits."""
    if dataclasses.is_dataclass(x):
        return tuple((f.name, _canon(getattr(x, f.name)))
                     for f in dataclasses.fields(x) if f.name != "elapsed_seconds")
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, (list, tuple)):
        return type(x).__name__, tuple(_canon(v) for v in x)
    if isinstance(x, float):
        return "float", x.hex()
    return type(x).__name__, repr(x)


# None is the default of these two, meaning "not given"
NONE_IS_DEFAULT = {"random_instance.rank", "random_instance.lam"}


@pytest.mark.parametrize("param,bad", [
    (p, b) for p in PARAMS for b in BAD if not (b == "None" and p in NONE_IS_DEFAULT)])
def test_a_value_that_is_no_number_raises_the_package_error(param, bad):
    call, base, whole, error, name = PARAMS[param]
    with pytest.raises(error, match=name):
        call(BAD[bad](base))


@pytest.mark.parametrize("param", [p for p in PARAMS if PARAMS[p][2]])
def test_a_whole_field_refuses_a_fraction(param):
    call, base, whole, error, name = PARAMS[param]
    with pytest.raises(error, match=name):
        call(base + 0.5)


@pytest.mark.parametrize("spelling", ["np.float64", "np.int64", "float"])
@pytest.mark.parametrize("param", PARAMS)
def test_numpy_and_float_spellings_give_the_same_result(param, spelling):
    call, base, whole, error, name = PARAMS[param]
    value = {"np.float64": np.float64, "np.int64": np.int64, "float": float}[spelling](base)
    assert _canon(call(value)) == _canon(call(base))


@pytest.mark.parametrize("call,name", [
    (lambda v: trace_region_private(INST, v), "lambda"),
    (lambda v: sweep_alpha_common(CI, v), "alpha"),
], ids=["trace_region_private", "sweep_alpha_common"])
@pytest.mark.parametrize("sweep", [2.0, None, np.array(2.0)],
                         ids=["float", "None", "0-d array"])
def test_a_sweep_that_is_not_iterable_raises_the_package_error(call, name, sweep):
    with pytest.raises(InvalidInputError, match=f"{name} sweep"):
        call(sweep)


def test_a_true_alpha_is_not_solved_as_one():
    with pytest.raises(InvalidInputError, match="alpha"):
        sweep_alpha_common(CI, [True])
    with pytest.raises(InvalidInstanceError, match="alpha"):
        solve_common(replace(CI, alpha=True))


@pytest.mark.parametrize("kind,field", [("private", "lambda"), ("private", "K"),
                                        ("common", "lambda0"), ("common", "K_C")])
def test_cli_refuses_an_integer_too_large_for_a_float(tmp_path, capsys, kind, field):
    doc = {"kind": kind, "n": 1, "Sigma1": [[1.0]], "Sigma2": [[2.0]]}
    if kind == "private":
        doc.update({"K": [[2.0]], "lambda": 2.0})
    else:
        doc.update({"K_C": [[2.0]], "lambda0": 1.2, "lambda1": 1.0,
                    "lambda2": 1.1, "alpha": 0.5})
    doc[field] = [[10**400]] if field.startswith("K") else 10**400
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path)]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == "" and len(err) == 1, err
    assert err[0].startswith(f"error: {field} must be")


def test_cli_reads_an_integral_float_n_as_whole(tmp_path, capsys):
    doc = {"kind": "private", "n": 1, "K": [[2.0]], "Sigma1": [[1.0]],
           "Sigma2": [[2.0]], "lambda": 2.0}
    outs = []
    for n in (1, 1.0):
        path = tmp_path / "n.json"
        path.write_text(json.dumps({**doc, "n": n}))
        assert main(["solve", str(path), "--no-timing"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
