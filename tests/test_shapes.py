"""A matrix argument of the wrong size is a DimensionMismatchError that
names both shapes, not numpy's broadcast error, whether it is a rate
argument, the start of a solve or of a pass, or a reduced iterate; a
stack stays an InvalidInputError (tests/test_stack.py)."""

import numpy as np
import pytest

from gbc import (
    DimensionMismatchError,
    InvalidInputError,
    SolveOptions,
    objective_common,
    random_instance,
    rates_common,
    rates_private,
    reduce,
    solve_private,
    weighted_rate_common,
)
from gbc.common import _weights
from gbc.private import FixedPoint, _Spg, gba_a_step
from gbc.reduction import check_box, lift

INST = random_instance(2, 0)
CI = random_instance(2, 0, "common")
SMALL = 0.1 * np.eye(2)
BIG = 0.1 * np.eye(3)


@pytest.mark.parametrize("call", [
    lambda: rates_private(BIG, INST),
    lambda: rates_common(SMALL, BIG, CI),
    lambda: rates_common(BIG, SMALL, CI),
    lambda: weighted_rate_common(SMALL, BIG, CI),
    lambda: objective_common(SMALL, BIG, CI),
    lambda: objective_common(BIG, SMALL, CI),
    lambda: solve_private(INST, SolveOptions(init=BIG)),
    lambda: lift(reduce(INST).transform, BIG),
    lambda: check_box(BIG, 2),
    lambda: gba_a_step(BIG, reduce(INST), 2.0),
    lambda: FixedPoint(BIG, reduce(INST).H, (1.0, -2.0)),
    lambda: FixedPoint(BIG, np.stack((np.eye(2),) * 4), _weights(CI)[1]),
    lambda: _Spg(BIG, reduce(INST).H, (1.0, -2.0), 0.0),
], ids=["rates_private", "rates_common-K_V", "rates_common-K_U",
        "weighted_rate_common", "objective_common-K_V", "objective_common-K_U",
        "solve_private-init", "lift", "check_box", "gba_a_step",
        "fixed_point_kv-start", "fixed_point_ku-start", "spg-start"])
def test_a_matrix_of_the_wrong_size_names_both_shapes(call):
    with pytest.raises(DimensionMismatchError, match=r"\(3, 3\) and \(2, 2\)"):
        call()


def test_a_wrong_size_is_an_invalid_input():
    assert issubclass(DimensionMismatchError, InvalidInputError)
