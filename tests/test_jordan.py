"""Tests for Jordan profiles, conjugate splitting, and half profiles."""

import random

import pytest

from plovkit import (
    RatMatrix,
    cyclotomic_poly,
    euler_phi,
    half_profile,
    jordan_profile,
    mat_pow,
    poly_at_matrix,
    pseudo_analytic_check,
    quasi_unipotency,
    rank_exact,
    unipotent_block_profile,
)
from plovkit.errors import (
    NotPseudoAnalyticError,
    NotQuasiUnipotentError,
    NotUnipotentError,
    OddDimensionError,
)
from plovkit.jordan import JordanProfile
from plovkit.randgen import (
    conjugate,
    random_integer_matrix,
    random_mixed_matrix,
    random_quasi_unipotent,
    random_unimodular,
    random_unipotent,
    rational_root_block,
    unipotent_from_sizes,
)


def test_profile_block_diagonal_two_blocks():
    j12 = RatMatrix.jordan_block(1, 2)
    m = RatMatrix.block_diag(j12, j12)
    assert jordan_profile(m).entries == ((1, 2, 2),)


def test_profile_order_six_companion_with_rank_oracle():
    m = RatMatrix.from_rows([[0, -1], [1, 1]])
    # oracle: Phi_6(M) = 0, so one size-1 block at each primitive 6th root
    b = poly_at_matrix(cyclotomic_poly(6), m)
    assert rank_exact(b) == 0
    assert jordan_profile(m).entries == ((6, 1, 1),)


def test_profile_single_block():
    assert jordan_profile(RatMatrix.jordan_block(1, 3)).entries == ((1, 3, 1),)


def test_profile_requires_quasi_unipotent():
    with pytest.raises(NotQuasiUnipotentError):
        jordan_profile(RatMatrix.from_rows([[0, 1], [1, 1]]))


def test_profile_similarity_invariance():
    rng = random.Random(13)
    for _ in range(12):
        dim = rng.randint(2, 6)
        plain, sizes = random_unipotent(rng, dim, conjugated=False)
        s = random_unimodular(rng, dim)
        assert jordan_profile(conjugate(plain, s)) == jordan_profile(plain)


def test_profile_fills_dimension():
    rng = random.Random(14)
    for _ in range(12):
        m = random_mixed_matrix(rng, rng.choice([4, 6]))
        try:
            profile = jordan_profile(m)
        except NotQuasiUnipotentError:
            continue
        total = sum(euler_phi(n) * k * mult for n, k, mult in profile.entries)
        assert total == m.dimension


def test_rational_root_block_profiles():
    for order in (3, 4, 6):
        for size in (1, 2, 3):
            m = rational_root_block(order, size)
            assert jordan_profile(m).entries == ((order, size, 1),)


def test_profile_aggregates_equal_order_blocks():
    m = RatMatrix.block_diag(rational_root_block(3, 2), rational_root_block(3, 2))
    assert jordan_profile(m).entries == ((3, 2, 2),)
    mixed = RatMatrix.block_diag(rational_root_block(3, 1), rational_root_block(3, 2))
    assert jordan_profile(mixed).entries == ((3, 1, 1), (3, 2, 1))


def test_profile_accepts_rational_entries():
    # conjugate of an integer block by a non-integer diagonal matrix
    from fractions import Fraction

    m = RatMatrix.from_rows([[1, Fraction(1, 2)], [0, 1]])
    assert jordan_profile(m).entries == ((1, 2, 1),)


def test_unipotent_block_profile_agrees_with_general_route():
    rng = random.Random(15)
    for _ in range(10):
        m, _ = random_unipotent(rng, rng.randint(1, 6))
        assert unipotent_block_profile(m) == jordan_profile(m)
    with pytest.raises(NotUnipotentError):
        unipotent_block_profile(RatMatrix.jordan_block(-1, 2))


def test_unipotent_block_profile_is_the_unipotency_proof():
    # the rank sequence of M - I alone decides: NotUnipotentError exactly
    # when (M - I)^K != 0
    rng = random.Random(16)
    draws = [
        lambda d: random_unipotent(rng, d)[0],
        lambda d: random_quasi_unipotent(rng, d),
        lambda d: random_mixed_matrix(rng, d + 1),
        lambda d: random_integer_matrix(rng, d, span=2),
    ]
    cases = [draws[i % 4](rng.randint(1, 6)) for i in range(240)]
    expected = [
        mat_pow(m - RatMatrix.identity(m.dimension), m.dimension)
        == RatMatrix.zero(m.dimension)
        for m in cases
    ]
    orders = [quasi_unipotency(m).order for m in cases]
    assert None in orders and any(o and o > 1 for o in orders)

    def rejects(m):
        try:
            unipotent_block_profile(m)
        except NotUnipotentError:
            return True
        return False

    rejected = [rejects(m) for m in cases]
    assert rejected == [not e for e in expected]
    assert any(rejected) and not all(rejected)


# ---------------------------------------------------------------------------
# conjugate splitting


def test_pseudo_analytic_examples():
    assert pseudo_analytic_check(JordanProfile(((1, 2, 2),), 4))
    assert not pseudo_analytic_check(JordanProfile(((1, 2, 1),), 2))
    assert pseudo_analytic_check(JordanProfile(((6, 1, 1),), 2))


def test_half_profile_examples():
    half = half_profile(JordanProfile(((1, 2, 2),), 4))
    assert half.entries == ((1, 2, 1),) and half.genus == 2

    half6 = half_profile(JordanProfile(((6, 1, 1),), 2))
    assert half6.entries == ((6, 1, 1),) and half6.genus == 1

    g = 5
    ident = half_profile(JordanProfile(((1, 1, 2 * g),), 2 * g))
    assert ident.entries == ((1, 1, g),) and ident.genus == g


def test_half_profile_rejections():
    with pytest.raises(NotPseudoAnalyticError):
        half_profile(JordanProfile(((1, 2, 1),), 2))
    with pytest.raises(OddDimensionError):
        half_profile(JordanProfile(((1, 3, 1),), 3))


def test_half_then_double_round_trip():
    rng = random.Random(16)
    for _ in range(15):
        genus = rng.randint(1, 5)
        sizes = []
        remaining = genus
        while remaining:
            s = rng.randint(1, remaining)
            sizes.append(s)
            remaining -= s
        j = unipotent_from_sizes(sizes)
        m = RatMatrix.block_diag(j, j)
        profile = jordan_profile(m)
        assert pseudo_analytic_check(profile)
        half = half_profile(profile)
        assert sorted(k for _, k, c in half.entries for _ in range(c)) == sorted(sizes)


def test_doubled_matrix_always_pseudo_analytic():
    rng = random.Random(17)
    for _ in range(10):
        dim = rng.randint(1, 4)
        c = random_mixed_matrix(rng, max(2, dim))
        try:
            jordan_profile(c)
        except NotQuasiUnipotentError:
            continue
        doubled = RatMatrix.block_diag(c, c)
        assert pseudo_analytic_check(jordan_profile(doubled))
