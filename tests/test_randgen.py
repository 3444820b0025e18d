"""The seeded generators: the exact inverse behind `conjugate`,
out-of-contract calls, which raise library errors, and one sha256 that
pins the values every public generator draws."""

import hashlib
import inspect
import random
from fractions import Fraction

import pytest

from plovkit import RatMatrix, mat_mul, randgen
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


def seeded_draws(seed):
    """One call of every public generator on one `Random(seed)`, in a
    fixed order, so each draw sees the stream its predecessors left."""
    rng = random.Random(seed)
    orders = (1, 2, 3, 4, 6)
    s = randgen.random_unimodular(rng, 4)
    return [
        randgen.random_partition(rng, 7),
        s,
        randgen.invert_unimodular(s),
        randgen.conjugate(randgen.random_integer_matrix(rng, 4), s),
        randgen.random_unipotent(rng, 5),
        randgen.random_unipotent(rng, 4, conjugated=False),
        randgen.random_spd(rng, 4),
        randgen.random_pseudo_analytic(rng, 4, allow_orders=orders),
        randgen.random_pseudo_analytic(rng, 3, conjugated=True, allow_orders=orders),
        randgen.random_paired_unipotent(rng, 3),
        randgen.random_integer_matrix(rng, 3, span=1),
        randgen.random_quasi_unipotent(rng, 6),
        randgen.random_mixed_matrix(rng, 5),
        randgen.randgen_two_form(rng, 3),
    ]


def fixed_draws():
    return [
        [randgen.rational_root_block(n, k) for n in (1, 2, 3, 4, 5, 6, 8, 12)]
        for k in (1, 2, 3)
    ] + [randgen.unipotent_from_sizes([3, 1]), randgen.paired_unipotent([2, 2, 1])]


#: sha256 of the reprs below: a change to any generator's values moves it
DRAWS_SHA256 = "2065d1b7449f28e445d784df3be7f143c2a151e7a2247a72ddb5eab3758e239a"


def test_every_generator_draws_the_pinned_values():
    public = {
        name
        for name, fn in vars(randgen).items()
        if callable(fn) and not name.startswith("_")
        and getattr(fn, "__module__", None) == randgen.__name__
    }
    source = inspect.getsource(seeded_draws) + inspect.getsource(fixed_draws)
    assert {name for name in public if f"randgen.{name}(" not in source} == set()
    text = repr(fixed_draws()) + "".join(repr(seeded_draws(seed)) for seed in range(40))
    assert hashlib.sha256(text.encode()).hexdigest() == DRAWS_SHA256
