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
from plovkit import jordan
from plovkit.errors import (
    CrossCheckError,
    NotPseudoAnalyticError,
    NotQuasiUnipotentError,
    NotUnipotentError,
    OddDimensionError,
    PlovkitError,
    PreconditionError,
)
from plovkit.cli import enc_verdict
from plovkit.jordan import JordanProfile
from plovkit.plov import plov_of
from plovkit.randgen import (
    conjugate,
    random_integer_matrix,
    random_mixed_matrix,
    random_pseudo_analytic,
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


def test_the_verdict_read_off_the_profile_is_the_verdict():
    # the order is the lcm of the orders present, and Phi_n divides the
    # characteristic polynomial sum k*m times over the entries of order n
    rng = random.Random(2301)
    cases = [random_quasi_unipotent(rng, rng.randint(1, 8)) for _ in range(60)]
    for _ in range(60):
        m, _ = random_pseudo_analytic(
            rng, rng.randint(1, 4), conjugated=True, allow_orders=(1, 2, 3, 4, 6)
        )
        cases.append(m)
    orders = set()
    for m in cases:
        verdict = quasi_unipotency(m)
        profile = jordan_profile(m)
        mult = {}
        for n, k, count in profile.entries:
            mult[n] = mult.get(n, 0) + k * count
        assert profile.order == verdict.order
        assert tuple(sorted(mult.items())) == verdict.cyclotomic_factorization
        assert enc_verdict(profile) == {
            "is_quasi_unipotent": True,
            "order": verdict.order,
            "cyclotomic_factorization": [
                {"order": n, "multiplicity": c}
                for n, c in verdict.cyclotomic_factorization
            ],
        }
        orders.add(profile.order)
    assert {1, 2, 3, 4, 6, 12} <= orders


def test_unipotent_block_profile_agrees_with_general_route():
    rng = random.Random(15)
    for _ in range(10):
        m, _ = random_unipotent(rng, rng.randint(1, 6))
        assert unipotent_block_profile(m) == jordan_profile(m)
        assert unipotent_block_profile(m).order == 1
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
    # count = phi(n) * m / 2, at the real orders as at the others
    assert half_profile(JordanProfile(((1, 2, 2),), 4)) == ((1, 2, 1),)
    assert half_profile(JordanProfile(((2, 1, 4),), 4)) == ((2, 1, 2),)
    assert half_profile(JordanProfile(((6, 1, 1),), 2)) == ((6, 1, 1),)
    assert half_profile(JordanProfile(((5, 2, 1),), 8)) == ((5, 2, 2),)

    g = 5
    assert half_profile(JordanProfile(((1, 1, 2 * g),), 2 * g)) == ((1, 1, g),)


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
        assert sorted(k for _, k, c in half for _ in range(c)) == sorted(sizes)


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


# ---------------------------------------------------------------------------
# the record checks itself


@pytest.mark.parametrize(
    "entries, dimension",
    [
        (((1, 1, 2),), 4),  # fills 2
        (((0, 1, 1),), 1),  # order 0
        (((1, -2, 2),), -4),  # negative size
        (((1, 1, 0),), 0),  # zero multiplicity
        (((1, 2, 1), (1, 1, 1)), 3),  # unsorted keys
        (((1, 1, 1), (1, 1, 1)), 2),  # repeated key
        (((1, 2),), 2),  # a pair, not a triple
        (((1, 1, 2, 0),), 2),  # four values
        (((1, 1, 1), (2,)), 1),  # a triple and a single value
        (((),), 0),  # an empty entry
    ],
)
def test_profile_refuses_malformed_entries(entries, dimension):
    with pytest.raises(PreconditionError):
        JordanProfile(entries, dimension)


def test_jordan_profile_fill_fault_is_a_cross_check(monkeypatch):
    # an internal fault stays exit 3: `jordan_profile` checks the fill
    # before the record's own check could blame the caller
    counts = jordan._block_size_counts

    def dropping(*args):
        out = counts(*args)
        size = max(out)
        out[size] -= 1
        return {s: c for s, c in out.items() if c}

    monkeypatch.setattr(jordan, "_block_size_counts", dropping)
    m = RatMatrix.block_diag(RatMatrix.jordan_block(1, 3), RatMatrix.identity(1))
    with pytest.raises(CrossCheckError, match="does not fill the dimension"):
        jordan_profile(m)


#: J_2(1) + the companion of Phi_3, conjugated: char poly (t - 1)^2 Phi_3
STRIPPED = ((1, 2), (3, 1))


def _order_three_and_a_shear():
    block = RatMatrix.block_diag(
        RatMatrix.jordan_block(1, 2), RatMatrix.companion(cyclotomic_poly(3))
    )
    return conjugate(block, random_unimodular(random.Random(52), 4))


def test_the_profile_proves_the_order_with_no_power(monkeypatch):
    from plovkit import cyclotomic

    powers = []
    real = cyclotomic.mat_pow
    monkeypatch.setattr(cyclotomic, "mat_pow", lambda a, e: powers.append(e) or real(a, e))
    m = _order_three_and_a_shear()
    assert jordan._stripped(m).cyclotomic_factorization == STRIPPED
    profile = jordan_profile(m)
    assert profile.entries == ((1, 2, 1), (3, 1, 1)) and profile.order == 3
    assert powers == []


@pytest.mark.parametrize(
    "factors, law",
    [
        # (t - 1)^3: the rank sequence of M - I stalls above its target
        (((1, 3), (3, 1)), "rank sequence"),
        # (t - 1)^1: the kernels fill 3 of 4 dimensions
        (((1, 1), (3, 1)), "does not fill"),
        # Phi_4 for Phi_3: Phi_4(M) is invertible, no drop at the first step
        (((1, 2), (4, 1)), "rank sequence"),
        # Phi_3 left out: the kernels fill 2 of 4 dimensions
        (((1, 2),), "does not fill"),
    ],
    ids=["multiplicity-high", "multiplicity-low", "wrong-order", "missing-order"],
)
def test_a_faked_factorization_fails_the_rank_sequences(monkeypatch, factors, law):
    # no trace witness stands behind the stripped factorization: the rank
    # sequences of the profile refuse one that is not M's, with no M^e taken
    import dataclasses

    from plovkit import cyclotomic

    powers = []
    real_pow, real_strip = cyclotomic.mat_pow, jordan._stripped
    monkeypatch.setattr(cyclotomic, "mat_pow", lambda a, e: powers.append(e) or real_pow(a, e))
    monkeypatch.setattr(
        jordan,
        "_stripped",
        lambda m: dataclasses.replace(real_strip(m), cyclotomic_factorization=factors),
    )
    with pytest.raises(CrossCheckError, match=law):
        jordan_profile(_order_three_and_a_shear())
    assert powers == []


def test_profile_routes_return_or_raise_a_library_error():
    """Derandomized property over `JordanProfile(entries, dimension)` with
    0-3 entries, each a triple with n in -1..7, k and m in -1..4, or a
    tuple of 2-4 values in -1..7, dimension in -1..12 or the triples' own
    fill, and at most one value turned into a float.
    Building raises TypeError exactly when a value is a float.  Otherwise
    building, `order`, `unipotent_block_sizes`, `pseudo_analytic_check`,
    `half_profile` and `plov_of` each return or raise a `PlovkitError`
    other than `CrossCheckError`; a returned order is at least 1, the
    block sizes fill the dimension, and a returned half fills half of it."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    triples = st.tuples(st.integers(-1, 7), st.integers(-1, 4), st.integers(-1, 4))
    shapes = st.one_of(
        triples, st.lists(st.integers(-1, 7), min_size=2, max_size=4).map(tuple)
    )

    def call(fn, *args):
        try:
            return fn(*args)
        except PlovkitError as exc:
            assert not isinstance(exc, CrossCheckError), (fn, args)
            return None

    @hypothesis.example([(1, 1, 2)], 4, None)
    @hypothesis.example([(0, 1, 1)], 1, None)
    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True)
    @hypothesis.given(
        st.lists(shapes, max_size=3),
        st.one_of(st.integers(-1, 12), st.none()),
        st.one_of(st.none(), st.integers(0, 12)),
    )
    def check(raw, dimension, float_at):
        if dimension is None:  # often fills, so that the profile builds
            whole = [entry for entry in raw if len(entry) == 3]
            dimension = sum(euler_phi(max(n, 1)) * k * m for n, k, m in whole)
        values = [dimension, *(v for entry in raw for v in entry)]
        inexact = float_at is not None and float_at < len(values)
        if inexact:
            values[float_at] = float(values[float_at])
        dimension, *flat = values
        rest = iter(flat)  # the drawn shapes, refilled
        entries = tuple(tuple(next(rest) for _ in entry) for entry in raw)
        try:
            profile = call(JordanProfile, entries, dimension)
        except TypeError:
            assert inexact, (entries, dimension)
            return
        assert not inexact, (entries, dimension)
        if profile is None:
            return
        order = call(lambda: profile.order)
        assert order is None or order >= 1, profile
        sizes = call(profile.unipotent_block_sizes)
        assert sizes is None or sum(sizes) == dimension, profile
        call(pseudo_analytic_check, profile)
        half = call(half_profile, profile)
        if half is not None:
            assert 2 * sum(k * count for _, k, count in half) == dimension, profile
            call(plov_of, half)

    check()
