"""A matrix argument of the wrong size is a DimensionMismatchError that
names both shapes, not numpy's broadcast error; a stack stays an
InvalidInputError (tests/test_stack.py)."""

import numpy as np
import pytest

from gbc import (
    DimensionMismatchError,
    objective_common,
    random_instance,
    rates_common,
    rates_private,
    weighted_rate_common,
)

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
], ids=["rates_private", "rates_common-K_V", "rates_common-K_U",
        "weighted_rate_common", "objective_common-K_V", "objective_common-K_U"])
def test_a_matrix_of_the_wrong_size_names_both_shapes(call):
    with pytest.raises(DimensionMismatchError, match=r"\(3, 3\) and \(2, 2\)"):
        call()

