"""Out-of-contract calls to the seeded generators raise library errors."""

import random

import pytest

from plovkit import RatMatrix
from plovkit.errors import PreconditionError
from plovkit.randgen import invert_unimodular, random_pseudo_analytic


def test_out_of_contract_calls_raise_library_errors():
    with pytest.raises(PreconditionError):
        invert_unimodular(RatMatrix.zero(2))
    with pytest.raises(PreconditionError):
        random_pseudo_analytic(random.Random(0), 1, allow_orders=(5,))
