"""The seeded generators: the exact inverse behind `conjugate`, and
out-of-contract calls, which raise library errors."""

import random
from fractions import Fraction

import pytest

from plovkit import RatMatrix, mat_mul
from plovkit.errors import PreconditionError
from plovkit.randgen import (
    invert_unimodular,
    random_integer_matrix,
    random_pseudo_analytic,
    random_unimodular,
)


def test_inverse_of_seeded_unimodular_matrices():
    rng = random.Random(25)
    for k in range(1, 13):
        s = random_unimodular(rng, k)
        assert mat_mul(s, invert_unimodular(s)) == RatMatrix.identity(k)


def test_inverse_of_invertible_matrices_with_non_integer_entries():
    # M = (a/7) G + I/3 for an integer G: an eigenvalue 0 would make
    # -7/(3a) an eigenvalue of G, a rational non-integer, which the monic
    # integer characteristic polynomial of G rules out
    rng = random.Random(26)
    for k in range(1, 9):
        for _ in range(3):
            g = random_integer_matrix(rng, k)
            a = Fraction(rng.randint(1, 5), 7)
            m = g * a + RatMatrix.identity(k) * Fraction(1, 3)
            inverse = invert_unimodular(m)
            assert mat_mul(m, inverse) == RatMatrix.identity(k)
            assert mat_mul(inverse, m) == RatMatrix.identity(k)


def test_out_of_contract_calls_raise_library_errors():
    singular = ([[0, 0], [0, 0]], [[1, 2], [2, 4]], [[Fraction(1, 2), 1], [1, 2]])
    for rows in singular:
        with pytest.raises(PreconditionError, match="^matrix is singular$"):
            invert_unimodular(RatMatrix.from_rows(rows))
    with pytest.raises(PreconditionError):
        random_pseudo_analytic(random.Random(0), 1, allow_orders=(5,))
