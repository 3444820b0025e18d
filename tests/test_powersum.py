"""Tests for power-sum matrices, their determinants, and the degree law.

`power_sum_brute` (literal summation, no symbolic shortcut) is the oracle
for the binomial route S(x) = sum_j C(x, j+1) B_j throughout; the
Hilbert/cofactor checks keep the determinant backends honest against
each other.
"""

import random
from fractions import Fraction
from math import comb, factorial

import pytest

from plovkit import (
    RatMatrix,
    UniPoly,
    det_exact,
    half_profile,
    jordan_profile,
    mat_mul,
    mat_pow,
    plov_of,
    power_sum_brute,
    power_sum_det,
)
from plovkit import exact, powersum
from plovkit.errors import (
    CrossCheckError,
    NotSymmetricPositiveDefiniteError,
    NotUnipotentError,
    PreconditionError,
)
from plovkit.exact import _interpolate, congruence_chain
from plovkit.powersum import ensure_spd
from plovkit.randgen import (
    conjugate,
    invert_unimodular,
    random_paired_unipotent,
    random_spd,
    random_unimodular,
    random_unipotent,
    unipotent_from_sizes,
)
from plovkit.selfcheck import (
    det_poly,
    hilbert_det,
    hilbert_matrix,
    single_block_leading_coeff,
)
from tests.test_exact import cofactor_det


def poly_n(*coeffs):
    return UniPoly.from_coeffs(coeffs, "n")


def brute_sum_matrix(a, h, n):
    acc = RatMatrix.zero(a.dimension)
    p = RatMatrix.identity(a.dimension)
    for _ in range(n):
        acc = acc + mat_mul(mat_mul(p.transpose(), h), p)
        p = mat_mul(p, a)
    return acc


# ---------------------------------------------------------------------------
# SPD validation


def test_spd_accepts_identity_and_gram():
    ensure_spd(RatMatrix.identity(3))
    rng = random.Random(41)
    for _ in range(5):
        ensure_spd(random_spd(rng, rng.randint(1, 5)))


def test_spd_rejects_asymmetric_and_indefinite():
    with pytest.raises(NotSymmetricPositiveDefiniteError):
        ensure_spd(RatMatrix.from_rows([[1, 2], [0, 1]]))
    with pytest.raises(NotSymmetricPositiveDefiniteError):
        ensure_spd(RatMatrix.from_rows([[1, 2], [2, 1]]))


@pytest.mark.parametrize(
    "rows, t",
    [
        # minors 1, 0, 0: the second column has no pivot left at all
        ([[1, 1, 0], [1, 1, 0], [0, 0, 1]], 2),
        # minors 1, 0, -1: the second pivot, 1, is found below, by a row swap
        ([[1, 1, 0], [1, 1, 1], [0, 1, 1]], 2),
        # minors 2, 1, -2: the last pivot is negative
        ([[2, 1, 0], [1, 1, 1], [0, 1, 0]], 3),
        # minors 1/2, -3/4: over the denominator, every sign is kept
        ([[Fraction(1, 2), 1], [1, Fraction(1, 2)]], 2),
    ],
    ids=["zero-skipped", "zero-swapped", "negative", "rational"],
)
def test_spd_names_the_first_minor_that_is_not_positive(rows, t):
    with pytest.raises(NotSymmetricPositiveDefiniteError) as exc:
        ensure_spd(RatMatrix.from_rows(rows))
    assert str(exc.value) == f"leading principal minor {t} is not positive"


def test_spd_names_the_minor_the_literal_minors_name():
    # the oracle: each leading principal minor taken on its own
    from plovkit.selfcheck import submatrix

    rng = random.Random(43)
    seen = set()
    for _ in range(300):
        k = rng.randint(1, 5)
        g = RatMatrix.from_rows([[rng.randint(-2, 2) for _ in range(k)] for _ in range(k)])
        h = mat_mul(g.transpose(), g) + RatMatrix.from_rows(
            [[rng.randint(-1, 1) * (i == j) for j in range(k)] for i in range(k)]
        )
        idx = range(k)
        bad = next(
            (t for t in range(1, k + 1) if det_exact(submatrix(h, idx[:t], idx[:t])) <= 0),
            None,
        )
        seen.add(bad)
        if bad is None:
            assert ensure_spd(h) is h
        else:
            with pytest.raises(NotSymmetricPositiveDefiniteError, match=f"minor {bad} "):
                ensure_spd(h)
    assert {None, 1, 2} <= seen


def test_spd_takes_one_elimination_and_no_determinant(monkeypatch):
    eliminations = []
    real = powersum._echelon
    monkeypatch.setattr(
        powersum, "_echelon", lambda num: eliminations.append(num) or real(num)
    )
    monkeypatch.setattr(powersum, "det_exact", None)
    rng = random.Random(44)
    for k in (1, 4, 8):
        ensure_spd(random_spd(rng, k))
    with pytest.raises(NotSymmetricPositiveDefiniteError):
        ensure_spd(RatMatrix.from_rows([[2, 1, 0], [1, 1, 1], [0, 1, 0]]))
    assert len(eliminations) == 4


# ---------------------------------------------------------------------------
# the power-sum matrix


def sum_at(bs, x):
    """S(x) = sum_j C(x, j+1) B_j with `RatMatrix` arithmetic."""
    acc = RatMatrix.zero(bs[0].dimension)
    for j, b in enumerate(bs):
        acc = acc + b * comb(x, j + 1)
    return acc


def power_sum_matrix(a, h):
    """The constant matrices B_j of S(x) = sum_j C(x, j + 1) B_j."""
    return congruence_chain(a.transpose(), h)


def test_power_sum_matrix_identity_input():
    for k in (1, 2, 4):
        bs = power_sum_matrix(RatMatrix.identity(k), RatMatrix.identity(k))
        # S(x) = x * I
        assert bs == [RatMatrix.identity(k)]


def test_power_sum_matrix_size2_block_against_summation_oracle():
    a = RatMatrix.jordan_block(1, 2)
    i2 = RatMatrix.identity(2)
    bs = power_sum_matrix(a, i2)
    for n in range(0, 6):
        assert sum_at(bs, n) == brute_sum_matrix(a, i2, n)
    # S(x) = x I + C(x, 2) [[0, 1], [1, 1]] + C(x, 3) [[0, 0], [0, 2]]
    assert bs == [
        i2,
        RatMatrix.from_rows([[0, 1], [1, 1]]),
        RatMatrix.from_rows([[0, 0], [0, 2]]),
    ]
    assert sum_at(bs, 1) == i2
    assert sum_at(bs, 2) == RatMatrix.from_rows([[2, 1], [1, 3]])


def test_power_sum_matrix_entry_degree_bound():
    rng = random.Random(42)
    for _ in range(6):
        k = rng.randint(1, 5)
        a, _ = random_unipotent(rng, k)
        bs = power_sum_matrix(a, RatMatrix.identity(k))
        # entries of S have degree at most 2k - 1
        assert 1 <= len(bs) <= 2 * k - 1
        assert any(any(row) for row in bs[-1].entries)


def test_power_sum_det_rejects_non_unipotent():
    with pytest.raises(NotUnipotentError):
        power_sum_det(RatMatrix.jordan_block(-1, 2), RatMatrix.identity(2))


def test_entry_degree_law_single_block():
    # B_{i+j-2}[i][j] = C(i+j-2, i-1) and B_s[i][j] = 0 for s > i+j-2, so
    # entry (i, j) of S has degree exactly i + j - 1 with leading
    # coefficient C(i+j-2, i-1)/(i+j-1)! = 1/((i-1)! (j-1)! (i+j-1))
    for k in (2, 3, 4):
        bs = power_sum_matrix(RatMatrix.jordan_block(1, k), RatMatrix.identity(k))
        assert len(bs) == 2 * k - 1
        values = [sum_at(bs, x) for x in range(2 * k)]
        for i in range(1, k + 1):
            for j in range(1, k + 1):
                top = i + j - 2
                assert bs[top].entries[i - 1][j - 1] == comb(top, i - 1)
                for s in range(top + 1, len(bs)):
                    assert bs[s].entries[i - 1][j - 1] == 0
                p = _interpolate([v.entries[i - 1][j - 1] for v in values])
                assert p.degree() == i + j - 1
                assert p.leading() == Fraction(
                    1, factorial(i - 1) * factorial(j - 1) * (i + j - 1)
                )


def test_power_sum_matrix_matches_brute_force_entrywise():
    # conjugated unipotent A, random SPD H, dimensions 1-6, x = 0..12
    rng = random.Random(49)
    for k in range(1, 7):
        for _ in range(2):
            a, _ = random_unipotent(rng, k)
            h = random_spd(rng, k)
            bs = power_sum_matrix(a, h)
            for x in range(13):
                assert sum_at(bs, x) == brute_sum_matrix(a, h, x)


# ---------------------------------------------------------------------------
# determinants of power sums


def test_power_sum_det_size2_block_closed_form():
    result = power_sum_det(RatMatrix.jordan_block(1, 2), RatMatrix.identity(2))
    assert result.poly == poly_n(0, 0, Fraction(11, 12), 0, Fraction(1, 12))
    assert result.degree == 4
    assert result.leading_coeff == Fraction(1, 12)
    brute = power_sum_brute(RatMatrix.jordan_block(1, 2), RatMatrix.identity(2), 9)
    assert brute[0] == 1 and brute[1] == 5
    assert [result.poly(n) for n in range(1, 10)] == brute


def test_power_sum_det_identity():
    for k in (1, 3, 5):
        result = power_sum_det(RatMatrix.identity(k), RatMatrix.identity(k))
        assert result.poly == UniPoly.from_coeffs([0] * k + [1], "n")
        assert result.degree == k


def test_power_sum_det_block_sum_degree_adds():
    m = unipotent_from_sizes([2, 1])
    result = power_sum_det(m, RatMatrix.identity(3))
    assert result.degree == 5


def test_power_sum_brute_trivial_cases():
    a = RatMatrix.jordan_block(1, 2)
    assert power_sum_brute(a, RatMatrix.identity(2), 1) == [1]
    assert power_sum_brute(a, RatMatrix.identity(2), 2) == [1, 5]
    assert power_sum_brute(RatMatrix.identity(3), RatMatrix.identity(3), 7) == [
        n**3 for n in range(1, 8)
    ]


def test_power_sum_brute_takes_two_products_per_sample_past_the_first(monkeypatch):
    # T -> A^T T A, then S + T, for each of the n - 1 samples after S(1) = H
    calls = []
    real = powersum._row_product
    monkeypatch.setattr(
        powersum, "_row_product", lambda x, y: calls.append(1) or real(x, y)
    )
    a = RatMatrix.jordan_block(1, 3)
    for n in (1, 2, 7):
        calls.clear()
        assert power_sum_brute(a, RatMatrix.identity(3), n)[0] == 1
        assert len(calls) == 2 * (n - 1)


def ratmatrix_partial_sums(a, h, n):
    """[det S(1), ..., det S(n)] by `RatMatrix` partial sums, T -> A^T T A
    and then S + T, each reduced to lowest terms by the matrix type."""
    a_t = a.transpose()
    term = acc = h
    dets = [det_exact(acc)]
    for _ in range(n - 1):
        term = mat_mul(mat_mul(a_t, term), a)
        acc = acc + term
        dets.append(det_exact(acc))
    return dets


def test_rational_entries_match_the_ratmatrix_partial_sums():
    # A = D^-1 U D for an integer unipotent U and a diagonal D, and H an
    # integer SPD matrix over a denominator: both have den > 1, so the
    # running denominator of the oracle and the chain's den^K are used
    rng = random.Random(53)
    tried = 0
    for _ in range(10):
        k = rng.randint(2, 6)
        u, _ = random_unipotent(rng, k)
        d = [rng.randint(1, 5) for _ in range(k)]
        a = RatMatrix.from_rows(
            [Fraction(x * d[c], d[r]) for c, x in enumerate(row)]
            for r, row in enumerate(u.num)
        )
        h = random_spd(rng, k) * Fraction(1, rng.choice((2, 3, 5, 7)))
        if a.den == 1 or h.den == 1:
            continue
        tried += 1
        expected = ratmatrix_partial_sums(a, h, 9)
        assert power_sum_brute(a, h, 9) == expected
        poly = power_sum_det(a, h).poly
        assert [poly(n) for n in range(1, 10)] == expected
    assert tried == 9


def test_oracle_equivalence_random():
    rng = random.Random(43)
    for _ in range(8):
        k = rng.randint(1, 6)
        a, _ = random_unipotent(rng, k)
        h = random_spd(rng, k)
        poly = power_sum_det(a, h).poly
        assert [poly(n) for n in range(1, 13)] == power_sum_brute(a, h, 12)


def test_degree_law_random():
    rng = random.Random(44)
    for _ in range(50):
        k = rng.randint(1, 8)
        a, sizes = random_unipotent(rng, k)
        result = power_sum_det(a, RatMatrix.identity(k))
        assert result.degree == sum(s * s for s in sizes)


def literal_sum(mats, weights):
    """sum_i weights[i] mats[i], summed literally through `+` and scalar `*`."""
    total = RatMatrix.zero(mats[0].dimension)
    for w, m in zip(weights, mats):
        total = total + m * w
    return total


def row_degree_bound(bs):
    """A bound on deg det S from the chain alone: row r of
    S(x) = sum_j C(x, j + 1) B_j has degree at most the largest j + 1
    with row r of B_j nonzero, and the row degrees add up."""
    return sum(
        max((j + 1 for j, b in enumerate(bs) if any(b.num[r])), default=0)
        for r in range(bs[0].dimension)
    )


def test_profile_bound_gives_the_polynomial_of_the_row_degree_bound():
    # power_sum_det interpolates on sum k_i^2 + 1; the looser row bound,
    # read off the chain without the profile, must give the same P(n)
    rng = random.Random(49)
    for _ in range(16):
        k = rng.randint(1, 8)
        a, sizes = random_unipotent(rng, k)
        h = random_spd(rng, k)
        bs = congruence_chain(a.transpose(), h)
        bound = row_degree_bound(bs)
        assert bound >= sum(s * s for s in sizes)
        literal = det_poly(
            lambda x: literal_sum(bs, [comb(x, j + 1) for j in range(len(bs))]), bound
        )
        assert power_sum_det(a, h).poly == literal


def test_degree_independent_of_form():
    rng = random.Random(45)
    for _ in range(6):
        k = rng.randint(1, 5)
        a, sizes = random_unipotent(rng, k)
        expected = sum(s * s for s in sizes)
        for _ in range(5):
            assert power_sum_det(a, random_spd(rng, k)).degree == expected


def test_degree_similarity_invariant():
    rng = random.Random(46)
    for _ in range(8):
        k = rng.randint(1, 5)
        a, sizes = random_unipotent(rng, k, conjugated=False)
        s = random_unimodular(rng, k)
        b = conjugate(a, s)
        ha = random_spd(rng, k)
        assert power_sum_det(a, ha).degree == power_sum_det(b, ha).degree


def test_positivity():
    rng = random.Random(47)
    for _ in range(8):
        k = rng.randint(1, 5)
        a, _ = random_unipotent(rng, k)
        h = random_spd(rng, k)
        result = power_sum_det(a, h)
        assert result.leading_coeff > 0
        for n in range(1, 13):
            assert result.poly(n) > 0


def test_single_block_law():
    for k in range(1, 6):
        result = power_sum_det(RatMatrix.jordan_block(1, k), RatMatrix.identity(k))
        assert result.degree == k * k
        assert result.leading_coeff == single_block_leading_coeff(k)


def test_degree_doubling_against_half_profile():
    rng = random.Random(48)
    for _ in range(8):
        m, half_sizes = random_paired_unipotent(rng, rng.randint(1, 4))
        result = power_sum_det(m, RatMatrix.identity(m.dimension))
        half = half_profile(jordan_profile(m))
        assert result.degree == 2 * plov_of(half)


def generalized_comb(x, j):
    """C(x, j) at every integer x: (-1)^j C(j - x - 1, j) for x < 0."""
    return comb(x, j) if x >= 0 else (-1) ** j * comb(j - x - 1, j)


def test_power_sum_at_negative_n_is_the_mirrored_congruence():
    # S(n + 1) - S(n) = (A^n)^T H A^n and S(0) = 0 at every integer n, so
    # S(-x) = -(A^-x)^T S(x) A^-x, and det A = 1 gives
    # det S(-x) = (-1)^k det S(x): the law power_sum_det's nodes rely on
    rng = random.Random(50)
    for k in range(1, 8):
        a, _ = random_unipotent(rng, k)
        inverse = invert_unimodular(a)
        for h in (RatMatrix.identity(k), random_spd(rng, k)):
            bs = power_sum_matrix(a, h)

            def at(x):
                weights = [generalized_comb(x, j + 1) for j in range(len(bs))]
                return literal_sum(bs, weights)

            for x in range(1, 7):
                inv_x = mat_pow(inverse, x)
                mirrored = mat_mul(mat_mul(inv_x.transpose(), at(x)), inv_x)
                assert at(-x) == mirrored * -1
                assert det_exact(at(-x)) == (-1) ** k * det_exact(at(x))


@pytest.mark.parametrize("sizes", [[3], [4], [2, 1]])
def test_a_wrong_mirror_sign_fails_at_the_check_node(monkeypatch, sizes):
    real = powersum.interpolate_checked

    def flipped(value_at, degree_bound, caller, parity):
        return real(value_at, degree_bound, caller, -parity)

    monkeypatch.setattr(powersum, "interpolate_checked", flipped)
    k = sum(sizes)
    with pytest.raises(CrossCheckError, match=rf"^power_sum_det at dimension {k}: .*x = "):
        power_sum_det(unipotent_from_sizes(sizes), RatMatrix.identity(k))


def test_det_poly_takes_a_determinant_at_the_nonnegative_nodes_only(monkeypatch):
    # nodes -floor(B/2)..B - floor(B/2) for B = k^2 + 1, and one check
    # node past them: 35 eliminations on [8] and 101 on [14] (67 and 199
    # on the nodes 0..B + 1), after the one of ensure_spd's minors
    counts = []
    real = powersum._echelon

    def counting(rows):
        counts[-1] += 1
        return real(rows)

    monkeypatch.setattr(powersum, "_echelon", counting)
    for k in (8, 14):
        counts.append(0)
        power_sum_det(RatMatrix.jordan_block(1, k), RatMatrix.identity(k))
    assert counts == [1 + 35, 1 + 101]


# ---------------------------------------------------------------------------
# leading coefficients and Hilbert determinants


def test_single_block_leading_coeff_values():
    # k = 3: (1! 2!)^2 / (1! 2! 3! 4! 5!) = 4/34560 = 1/8640
    assert Fraction(4, 34560) == Fraction(1, 8640)
    assert single_block_leading_coeff(1) == 1
    assert single_block_leading_coeff(2) == Fraction(1, 12)
    assert single_block_leading_coeff(3) == Fraction(1, 8640)


def test_hilbert_det_small_values():
    assert hilbert_det(1) == 1
    # 1*(1/3) - (1/2)^2 = 1/12
    assert hilbert_det(2) == Fraction(1, 3) - Fraction(1, 4) == Fraction(1, 12)
    assert hilbert_det(3) == Fraction(1, 2160)


def test_hilbert_det_matches_cofactor_oracle():
    for k in range(1, 9):
        rows = [list(r) for r in hilbert_matrix(k).entries]
        assert hilbert_det(k) == cofactor_det(rows)


def test_hilbert_relates_to_leading_coeff():
    # det(1/((i-1)!(j-1)!(i+j-1))) = hilbert_det / (prod i!)^2 equals the
    # single-block leading coefficient
    for k in range(1, 7):
        scale = 1
        for i in range(1, k):
            scale *= factorial(i)
        weighted = RatMatrix.from_rows(
            [
                [
                    Fraction(1, factorial(i - 1) * factorial(j - 1) * (i + j - 1))
                    for j in range(1, k + 1)
                ]
                for i in range(1, k + 1)
            ]
        )
        assert det_exact(weighted) == single_block_leading_coeff(k)
        assert det_exact(weighted) * scale * scale == hilbert_det(k)


@pytest.mark.parametrize(
    "call",
    [
        lambda: power_sum_brute(RatMatrix.identity(2), RatMatrix.identity(2), 0),
        lambda: single_block_leading_coeff(0),
        lambda: hilbert_matrix(0),
    ],
)
def test_out_of_contract_calls_raise_library_errors(call):
    with pytest.raises(PreconditionError):
        call()
