"""Tests for volume growth, growth exponents, and the analysis pipeline.

The independent oracle for growth exponents is the literal enumeration of
all r-by-r minors of the powers U^x at integer nodes
(`growth_exponent_by_minors`); the fast block-decomposition route must
agree with it everywhere it is feasible.
"""

import itertools
import random
from fractions import Fraction
from math import factorial, prod

import pytest

from plovkit import (
    RatMatrix,
    UniPoly,
    analyze,
    char_poly,
    det_exact,
    ensure_spd,
    half_profile,
    jordan_profile,
    mat_mul,
    mat_pow,
    max_minor_degree,
    plov_of,
    poly_at_matrix,
    power_sum_brute,
    power_sum_det,
    pseudo_analytic_check,
    quasi_unipotency,
    rank_exact,
    second_compound_block_sizes,
    unipotent_block_profile,
    unipotent_power,
)
from plovkit.errors import (
    DimensionMismatchError,
    NotQuasiUnipotentError,
    OddDimensionError,
    PreconditionError,
)
from plovkit.jordan import JordanProfile
from plovkit.randgen import (
    conjugate,
    paired_unipotent,
    random_paired_unipotent,
    random_partition,
    random_pseudo_analytic,
    random_quasi_unipotent,
    random_unimodular,
    random_unipotent,
    rational_root_block,
    unipotent_from_sizes,
)
from plovkit.selfcheck import (
    compound_matrix,
    growth_exponent_by_minors,
    max_block_compound2_literal,
)


def blocks(*sizes):
    return unipotent_from_sizes(list(sizes))


def exponent(m, r):
    """The growth exponent of M in degree r, in any dimension, read off
    the block sizes of its profile."""
    return max_minor_degree(jordan_profile(m).unipotent_block_sizes(), r)


# ---------------------------------------------------------------------------
# plov from half profiles


def test_plov_even_golden_family():
    # m blocks of size 2 in each half: growth 4m = 2g for g = 2m
    for m in range(1, 5):
        g = 2 * m
        half = half_profile(JordanProfile(((1, 2, 2 * m),), 2 * g))
        assert half == ((1, 2, m),)
        assert plov_of(half) == 4 * m == 2 * g


def test_plov_odd_golden_family():
    # (m-1) blocks of size 2 plus one of size 1: growth 2g - 1 for g = 2m - 1
    for m in range(2, 5):
        g = 2 * m - 1
        half = half_profile(JordanProfile(((1, 1, 2), (1, 2, 2 * (m - 1))), 2 * g))
        assert half == ((1, 1, 1), (1, 2, m - 1))
        assert plov_of(half) == 4 * (m - 1) + 1 == 2 * g - 1


def test_plov_identity():
    for g in range(1, 6):
        half = half_profile(JordanProfile(((1, 1, 2 * g),), 2 * g))
        assert half == ((1, 1, g),) and plov_of(half) == g


def test_plov_bounds_random():
    rng = random.Random(21)
    for _ in range(20):
        m, half_sizes = random_paired_unipotent(rng, rng.randint(1, 6))
        half = half_profile(jordan_profile(m))
        value = plov_of(half)
        g = sum(k * count for _, k, count in half)
        assert g == m.dimension // 2
        assert g <= value <= g * g
        assert value == sum(k * k for k in half_sizes)


# ---------------------------------------------------------------------------
# growth exponents


def test_exponent_degree_one_is_block_size_minus_one():
    for k in (1, 2, 3, 4):
        m = blocks(k, k)
        assert exponent(m, 1) == k - 1


def test_exponent_degree_two_doubles_half_block():
    rng = random.Random(22)
    for _ in range(10):
        m, half_sizes = random_paired_unipotent(rng, rng.randint(1, 5))
        assert exponent(m, 2) == 2 * (max(half_sizes) - 1)


def test_exponent_three_three_blocks_all_degrees_frozen_from_oracle():
    # frozen from growth_exponent_by_minors on the 6x6 matrix
    m = blocks(3, 3)
    oracle = {r: growth_exponent_by_minors(m, r) for r in range(1, 7)}
    assert oracle == {1: 2, 2: 4, 3: 4, 4: 4, 5: 2, 6: 0}
    assert {r: exponent(m, r) for r in range(1, 7)} == oracle
    # of the two candidate shorthand formulas for the degree-4 exponent,
    # the oracle agrees with the half-block reading max(4*(k1-2)) = 4 and
    # disagrees with the doubled reading 2*(k1+k2-2) = 8
    k1 = 3
    assert oracle[4] == 4 * (k1 - 2)
    assert oracle[4] != 2 * (k1 + k1 - 2)


def test_exponent_matches_minor_enumeration_random():
    rng = random.Random(23)
    for _ in range(8):
        dim = rng.randint(2, 5)
        m, _ = random_unipotent(rng, dim)
        for r in range(1, dim + 1):
            assert exponent(m, r) == growth_exponent_by_minors(m, r)


def test_exponent_on_quasi_unipotent_iterate():
    # order-3 rational block of size 2: exponents read off the cube
    m = rational_root_block(3, 2)
    cube = mat_pow(m, 3)
    for r in range(1, 5):
        assert exponent(m, r) == growth_exponent_by_minors(cube, r)


def test_analyze_exponents_match_minor_enumeration_on_quasi_unipotent():
    # analyze reads exponents off the profile; the oracle enumerates the
    # minors of the literal unipotent iterate, for orders 1, 2, 3, 4, 6
    rng = random.Random(26)
    orders = set()
    mixed = 0
    for _ in range(12):
        genus = rng.randint(2, 3)
        m, _ = random_pseudo_analytic(
            rng, genus, conjugated=True, allow_orders=(1, 2, 3, 4, 6)
        )
        report = analyze(m)
        orders.add(report.profile.order)
        mixed += len({n for n, _, _ in report.profile.entries}) > 1
        for r in range(1, 2 * genus + 1):
            assert report.exponents[r] == growth_exponent_by_minors(m, r)
            assert exponent(m, r) == report.exponents[r]
    assert len(orders) > 2 and mixed


def test_exponent_bounds_even_and_odd():
    rng = random.Random(24)
    for _ in range(12):
        g = rng.randint(1, 5)
        m, _ = random_paired_unipotent(rng, g)
        for r in range(1, g + 1):
            even = exponent(m, 2 * r)
            assert even <= 2 * r * (g - r)
            odd = exponent(m, 2 * r - 1)
            assert odd <= r * (g - r) + (r - 1) * (g - r + 1)


def minor_degrees_by_distribution(sizes):
    """{r: max of sum t_i (k_i - t_i)} over every distribution of r rows
    with t_i <= k_i, by enumeration."""
    best = {}
    for ts in itertools.product(*(range(k + 1) for k in sizes)):
        r = sum(ts)
        value = sum(t * (k - t) for t, k in zip(ts, sizes))
        best[r] = max(best.get(r, value), value)
    return best


def test_max_minor_degree_matches_every_distribution():
    rng = random.Random(2208)
    for _ in range(80):
        sizes = random_partition(rng, rng.randint(1, 12))
        rng.shuffle(sizes)
        expected = minor_degrees_by_distribution(sizes)
        assert sorted(expected) == list(range(sum(sizes) + 1))
        for r, degree in expected.items():
            assert max_minor_degree(sizes, r) == degree, (sizes, r)


def test_max_minor_degree_rejects_more_rows_than_the_dimension():
    assert max_minor_degree([2, 1], 3) == 0  # det U^n = 1
    with pytest.raises(DimensionMismatchError):
        max_minor_degree([2, 1], 4)


def test_exponent_rejects_bad_degree():
    with pytest.raises(DimensionMismatchError):
        analyze(RatMatrix.identity(2), [0])
    with pytest.raises(DimensionMismatchError):
        analyze(RatMatrix.identity(2), [3])
    with pytest.raises(DimensionMismatchError):
        exponent(RatMatrix.identity(3), 4)


@pytest.mark.parametrize(
    "call, error",
    [
        (
            lambda: growth_exponent_by_minors(RatMatrix.identity(2), 3),
            DimensionMismatchError,
        ),
        (lambda: analyze(RatMatrix.identity(2), [0]), DimensionMismatchError),
        (lambda: max_minor_degree([2], 3), DimensionMismatchError),
        (lambda: second_compound_block_sizes([2, 0]), PreconditionError),
        (
            lambda: max_block_compound2_literal(RatMatrix.identity(1)),
            PreconditionError,
        ),
    ],
)
def test_out_of_contract_calls_raise_library_errors(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: plov_of([(1, 2)]), PreconditionError),
        (lambda: half_profile(None), TypeError),
        (lambda: rank_exact(None), TypeError),
        (lambda: poly_at_matrix(UniPoly.from_coeffs([1, 1]), None), TypeError),
        (lambda: det_exact(None), TypeError),
        (lambda: mat_mul(RatMatrix.identity(2), None), TypeError),
        (lambda: mat_pow(None, 2), TypeError),
        (lambda: char_poly(None), TypeError),
        (lambda: jordan_profile(None), TypeError),
        (lambda: analyze(None), TypeError),
        (lambda: quasi_unipotency(None), TypeError),
        (lambda: pseudo_analytic_check(None), TypeError),
        (lambda: unipotent_block_profile(None), TypeError),
        (lambda: ensure_spd(None), TypeError),
        (lambda: power_sum_det(None, RatMatrix.identity(2)), TypeError),
        (lambda: power_sum_det(RatMatrix.identity(2), None), TypeError),
        (lambda: power_sum_brute(None, RatMatrix.identity(2), 2), TypeError),
        (lambda: power_sum_brute(RatMatrix.identity(2), None, 2), TypeError),
    ],
    ids=[
        "short-triple",
        "profile-none",
        "rank-none",
        "poly-at-none",
        "det-none",
        "mat-mul-none",
        "mat-pow-none",
        "char-poly-none",
        "jordan-profile-none",
        "analyze-none",
        "quasi-unipotency-none",
        "pseudo-analytic-none",
        "unipotent-profile-none",
        "ensure-spd-none",
        "power-sum-det-matrix-none",
        "power-sum-det-form-none",
        "power-sum-brute-matrix-none",
        "power-sum-brute-form-none",
    ],
)
def test_malformed_arguments_raise_a_library_error_or_type_error(call, error):
    with pytest.raises(error):
        call()


def test_extreme_minor_leading_coefficient_is_the_hook_product():
    # det [1/(c + j - i)!] over t rows, c = k - t, is prod_{i<t} i!/(c + i)!
    # (Frame-Robinson-Thrall), so `max_minor_degree` never checks it
    for k in range(1, 31):
        for t in range(1, k + 1):
            c = k - t
            lead = RatMatrix.from_rows(
                [
                    [
                        Fraction(1, factorial(c + j - i)) if c + j >= i else 0
                        for j in range(t)
                    ]
                    for i in range(t)
                ]
            )
            hook = prod(Fraction(factorial(i), factorial(c + i)) for i in range(t))
            assert det_exact(lead) == hook, (k, t)


# ---------------------------------------------------------------------------
# second compound block sizes


def max_block_compound2(m):
    return analyze(m).max_block_compound2


def test_max_block_compound2_examples():
    for route in (max_block_compound2, max_block_compound2_literal):
        assert route(RatMatrix.identity(4)) == 1
        assert route(blocks(2, 2)) == 3
        assert route(blocks(3, 3)) == 5


def test_max_block_compound2_matches_doubling_rule():
    rng = random.Random(26)
    for _ in range(6):
        m, half_sizes = random_paired_unipotent(rng, rng.randint(1, 4))
        kj = max(half_sizes) - 1
        assert max_block_compound2(m) == 2 * kj + 1
        assert max_block_compound2_literal(m) == 2 * kj + 1


def test_second_compound_block_sizes_small_cases():
    assert second_compound_block_sizes([1]) == []
    assert second_compound_block_sizes([2]) == [1]
    assert second_compound_block_sizes([3]) == [3]
    assert second_compound_block_sizes([4]) == [5, 1]
    assert second_compound_block_sizes([5]) == [7, 3]
    # Lambda^2 J_2 twice, plus J_2 (x) J_2 = J_3 + J_1
    assert second_compound_block_sizes([2, 2]) == [3, 1, 1, 1]
    assert second_compound_block_sizes([3, 1]) == [3, 3]
    assert second_compound_block_sizes([1, 1, 1]) == [1, 1, 1]


def _literal_second_compound_sizes(m):
    _, u = unipotent_power(m)
    return unipotent_block_profile(compound_matrix(u, 2)).unipotent_block_sizes()


def test_second_compound_block_sizes_match_literal_compound():
    # full Jordan type, not only the maximum, on unipotent, quasi-unipotent
    # and pseudo-analytic inputs with order-3/4/6 blocks
    rng = random.Random(30)
    cases = []
    for dim in range(2, 8):
        cases.append(random_unipotent(rng, dim)[0])
        cases.append(random_quasi_unipotent(rng, dim))
    for genus in (1, 2, 3):
        for _ in range(2):
            cases.append(
                random_pseudo_analytic(
                    rng, genus, conjugated=True, allow_orders=(1, 2, 3, 4, 6)
                )[0]
            )
    for order, size in ((3, 2), (4, 3), (6, 2)):
        root = rational_root_block(order, size)
        cases.append(conjugate(root, random_unimodular(rng, root.dimension)))
    for m in cases:
        sizes = jordan_profile(m).unipotent_block_sizes()
        assert second_compound_block_sizes(sizes) == _literal_second_compound_sizes(m)


# ---------------------------------------------------------------------------
# the analysis pipeline


def test_analyze_identity():
    report = analyze(RatMatrix.identity(2))
    assert report.genus == 1
    assert report.plov == 1
    assert report.kJ == 0 and report.kf == 0 and report.max_block_n1 == 1
    assert report.exponents[1] == 0
    assert all(c.holds for c in report.bound_checks)


@pytest.mark.parametrize("g", [2, 3, 4])
def test_quadratic_case_bound_holds_at_its_witness_and_fails_one_past(
    monkeypatch, g
):
    # kf = 2; a computed profile never breaks the law, so plov_of is
    # replaced: the check must hold at its equality witness and fail one
    # past it
    import plovkit.plov

    witness = 2 * (g // 2) + g
    m = paired_unipotent([2] + [1] * (g - 2))  # dimension 2g
    for plov, holds in ((witness, True), (witness + 1, False)):
        monkeypatch.setattr(plovkit.plov, "plov_of", lambda half, plov=plov: plov)
        report = analyze(m)
        assert (report.genus, report.kf, report.plov) == (g, 2, plov)
        checks = {c.name: c.holds for c in report.bound_checks}
        assert checks["quadratic_case_bound"] is holds


@pytest.mark.parametrize("half_sizes", [[1], [2], [3], [3, 1], [2, 2, 1]])
def test_volume_growth_bound_holds_at_its_witness_and_fails_one_past(
    monkeypatch, half_sizes
):
    import plovkit.plov

    g, kf = sum(half_sizes), 2 * (max(half_sizes) - 1)
    witness = g + g * kf // 2
    m = paired_unipotent(half_sizes)
    for plov, holds in ((witness, True), (witness + 1, False)):
        monkeypatch.setattr(plovkit.plov, "plov_of", lambda half, plov=plov: plov)
        report = analyze(m)
        assert (report.genus, report.kf, report.plov) == (g, kf, plov)
        checks = {c.name: c.holds for c in report.bound_checks}
        assert checks["volume_growth_upper_bound"] is holds


@pytest.mark.parametrize("half_sizes", [[1, 1], [2, 1], [3, 1, 1], [2, 2, 1, 1]])
def test_even_degree_exponent_bounds_hold_at_their_witness_and_fail_one_past(
    monkeypatch, half_sizes
):
    # exponent[r] = 2*(r/2)*(g - r/2) + past for every even r
    import plovkit.plov

    g = sum(half_sizes)
    m = paired_unipotent(half_sizes)
    for past, holds in ((0, True), (1, False)):
        witness = lambda sizes, r, past=past: 2 * (r // 2) * (g - r // 2) + past
        monkeypatch.setattr(plovkit.plov, "max_minor_degree", witness)
        checks = {c.name: c.holds for c in analyze(m).bound_checks}
        evens = [f"even_degree_exponent_bound_r{r}" for r in range(2, 2 * g + 1, 2)]
        assert [checks[name] for name in evens] == [holds] * g


@pytest.mark.parametrize("half_sizes", [[1], [2, 1], [3], [3, 2, 1]])
def test_compound2_block_identity_holds_at_2kj_plus_1_only(monkeypatch, half_sizes):
    import plovkit.plov

    kj = max(half_sizes) - 1
    m = paired_unipotent(half_sizes)
    for block, holds in ((2 * kj, False), (2 * kj + 1, True), (2 * kj + 2, False)):
        monkeypatch.setattr(
            plovkit.plov, "second_compound_block_sizes", lambda sizes, b=block: [b]
        )
        report = analyze(m)
        assert (report.kJ, report.max_block_compound2) == (kj, block)
        checks = {c.name: c.holds for c in report.bound_checks}
        assert checks["compound2_block_identity"] is holds


def test_analyze_even_golden_case():
    report = analyze(blocks(2, 2))
    assert report.plov == 4
    assert report.kJ == 1 and report.kf == 2 and report.max_block_n1 == 3
    assert report.max_block_compound2 == 3
    quad = [c for c in report.bound_checks if c.name == "quadratic_case_bound"]
    assert quad and quad[0].holds
    # the bound holds with equality: plov = 4 = 2*floor(2/2) + 2
    assert report.plov == 2 * (report.genus // 2) + report.genus
    assert all(c.holds for c in report.bound_checks)


def test_analyze_odd_golden_case():
    report = analyze(blocks(2, 1, 2, 1))
    assert report.genus == 3
    assert report.plov == 5 == 2 * report.genus - 1
    assert all(c.holds for c in report.bound_checks)


def test_analyze_rejects_odd_dimension():
    with pytest.raises(OddDimensionError):
        analyze(RatMatrix.identity(3))


def test_analyze_rejects_non_quasi_unipotent():
    with pytest.raises(NotQuasiUnipotentError):
        analyze(RatMatrix.from_rows([[0, 1], [1, 1]]))


@pytest.mark.parametrize("route", [analyze, jordan_profile, unipotent_power])
def test_non_quasi_unipotent_error_names_the_residual(route):
    with pytest.raises(NotQuasiUnipotentError, match=r"residual factor t\^2 - t - 1$"):
        route(RatMatrix.from_rows([[0, 1], [1, 1]]))


def test_analyze_order_two_paired_blocks():
    neg = RatMatrix.jordan_block(-1, 2)
    report = analyze(RatMatrix.block_diag(neg, neg))
    assert report.profile.order == 2
    assert report.profile.entries == ((2, 2, 2),)
    assert report.pseudo_analytic
    assert report.plov == 4 and report.kJ == 1
    assert report.exponents[2] == 2
    assert report.max_block_compound2 == 3


def test_analyze_mixed_orders_not_pseudo_analytic():
    from plovkit import cyclotomic_poly

    m = RatMatrix.block_diag(
        RatMatrix.companion(cyclotomic_poly(4)), RatMatrix.jordan_block(1, 2)
    )
    report = analyze(m)
    assert report.profile.entries == ((1, 2, 1), (4, 1, 1))
    assert not report.pseudo_analytic
    assert report.plov is None
    # iterate M^4 has unipotent block sizes [2, 1, 1]
    assert report.exponents == {1: 1, 2: 1, 3: 1, 4: 0}


def test_analyze_partial_report_when_not_pseudo_analytic():
    report = analyze(RatMatrix.jordan_block(1, 2))
    assert not report.pseudo_analytic
    assert report.plov is None and report.half is None
    assert report.kJ is None and report.kf is None
    assert report.exponents[1] == 1
    assert report.max_block_compound2 == 1


def test_analyze_exponent2_identity():
    rng = random.Random(27)
    for _ in range(6):
        m, _ = random_paired_unipotent(rng, rng.randint(1, 4))
        report = analyze(m, degrees=[2])
        assert report.exponents[2] == 2 * report.kJ
        assert report.kf % 2 == 0


def test_analyze_similarity_invariance():
    rng = random.Random(28)
    for _ in range(5):
        m, _ = random_paired_unipotent(rng, rng.randint(1, 3))
        s = random_unimodular(rng, m.dimension)
        a = analyze(m)
        b = analyze(conjugate(m, s))
        assert (a.plov, a.kJ, a.exponents) == (b.plov, b.kJ, b.exponents)


def test_analyze_reports_the_contractual_bound_checks():
    report = analyze(blocks(2, 2))
    names = {c.name for c in report.bound_checks}
    assert "volume_growth_upper_bound" in names
    assert "quadratic_case_bound" in names  # kf = 2 here
    assert "compound2_block_identity" in names
    assert any(n.startswith("even_degree_exponent_bound") for n in names)
    laws = {c.name: c.law for c in report.bound_checks}
    assert laws["volume_growth_upper_bound"] == "plov <= g + g*kf/2"


def test_analyze_iterate_invariance():
    rng = random.Random(29)
    for _ in range(5):
        m, _ = random_paired_unipotent(rng, rng.randint(1, 3))
        base = analyze(m).plov
        for j in (2, 3):
            assert analyze(mat_pow(m, j)).plov == base
