"""Tests for the exact-arithmetic substrate.

Derived expectations are computed by independent oracles kept in this
file: cofactor expansion for determinants, literal summation for
power sums, brute-force determinants for interpolated polynomials, the
node route (Bareiss determinants at x = 0..K, interpolated) for
characteristic polynomials, and reduced-echelon kernels for rank-nullity.
"""

import random
from fractions import Fraction
from math import comb, gcd, lcm

import pytest

from plovkit import (
    RatMatrix,
    UniPoly,
    char_poly,
    cyclotomic_poly,
    det_exact,
    mat_mul,
    mat_pow,
    quasi_unipotency,
    rank_exact,
    unipotent_block_profile,
)
from plovkit.cohomology import scan_size
from plovkit.plov import max_minor_degree, second_compound_block_sizes
from plovkit.errors import (
    CrossCheckError,
    DegreeBoundError,
    DimensionMismatchError,
    NotUnipotentError,
    PlovkitError,
    PreconditionError,
)
from plovkit.cyclotomic import euler_phi
from plovkit import exact
from plovkit.exact import (
    MERSENNE_EXPONENTS,
    _char_poly_mod,
    _interpolate,
    _moduli,
    poly_at_matrix,
)
from plovkit.randgen import conjugate, random_integer_matrix, random_unimodular
from plovkit.selfcheck import compound_matrix, det_poly


def cofactor_det(rows):
    """Independent determinant oracle by first-row cofactor expansion."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j, head in enumerate(rows[0]):
        if head == 0:
            continue
        minor = [
            [row[c] for c in range(n) if c != j] for row in rows[1:]
        ]
        term = head * cofactor_det(minor)
        total += term if j % 2 == 0 else -term
    return total


def poly_n(*coeffs):
    return UniPoly.from_coeffs(coeffs, "n")


# ---------------------------------------------------------------------------
# polynomials


def test_zero_poly_degree_is_minus_one():
    z = UniPoly.from_coeffs([], "t")
    assert z.degree() == -1 and type(z.degree()) is int
    assert z.is_zero()


def test_trailing_zeros_are_stripped():
    p = UniPoly.from_coeffs([1, 2, 0, 0], "t")
    assert p.coeffs == (Fraction(1), Fraction(2))
    assert p.degree() == 1


def test_poly_arithmetic_and_eval():
    # evaluation is exact: int and Fraction arguments, never a float
    p = UniPoly.from_coeffs([1, -2, 1], "t")
    assert p(3) == 4 and type(p(3)) is Fraction
    assert p(Fraction(1, 2)) == Fraction(1, 4)
    with pytest.raises(TypeError, match="^expected an exact rational, got 'float'$"):
        p(0.5)


def test_interpolate_recovers_polynomial():
    cubic = UniPoly.from_coeffs([Fraction(1, 3), 0, -2, 1], "n")
    constant = UniPoly.from_coeffs([Fraction(-7, 2)], "n")
    zero = UniPoly.from_coeffs([], "n")
    wide = UniPoly.from_coeffs(
        [Fraction(k * k - 40, k + 1) for k in range(12)], "n"
    )
    for p in (cubic, constant, zero, wide):
        # exactly enough nodes, then surplus nodes, which change nothing
        for nodes in (len(p.coeffs) or 1, len(p.coeffs) + 3):
            values = [p(x) for x in range(nodes)]
            assert _interpolate(values) == p
            for start in (-7, -1, 4):
                values = [p(start + x) for x in range(nodes)]
                assert _interpolate(values, start) == p
    assert _interpolate([5]) == UniPoly.from_coeffs([5], "n")
    assert _interpolate([0, 0, 0]).is_zero()


def test_unipoly_storage_is_canonical():
    p = UniPoly((-2, 0, 6, 0, 0), -4, "n")
    assert (p.num, p.den, p.var) == ((1, 0, -3), 2, "n")
    assert p == UniPoly.from_coeffs([Fraction(1, 2), 0, Fraction(-3, 2)], "n")
    assert hash(p) == hash(UniPoly.from_coeffs([Fraction(2, 4), 0, Fraction(-6, 4)], "n"))
    assert p.coeffs == (Fraction(1, 2), Fraction(0), Fraction(-3, 2))
    assert p.leading() == Fraction(-3, 2) and not p.is_integral()
    zero = UniPoly((0, 0), 6)
    assert (zero.num, zero.den) == ((), 1) and zero == UniPoly.from_coeffs([])
    assert UniPoly([4, 2], 2).num == (2, 1)  # any iterable; stored as a tuple
    assert UniPoly(iter([4, 2, 0]), 2).num == (2, 1)  # read once
    # `.coeffs` is built on first use, so a polynomial that is only
    # evaluated holds ints alone
    q = UniPoly((1, 2, 3), 5)
    q(Fraction(-1, 3))
    assert "coeffs" not in vars(q)


@pytest.mark.parametrize(
    "num, den, error",
    [
        ((1,), 0, PreconditionError),
        ((), 0, PreconditionError),
        ((Fraction(1, 2),), 1, TypeError),
        ((1.0,), 1, TypeError),
        ((1,), 2.0, TypeError),
        ((1,), Fraction(2), TypeError),
        # the field layout before integer storage: (coeffs, var)
        ((Fraction(1, 2),), "t", TypeError),
        ((1, 2), "n", TypeError),
        ((), "t", TypeError),
        (3, 1, TypeError),
    ],
)
def test_unipoly_refuses_bad_storage(num, den, error):
    with pytest.raises(error):
        UniPoly(num, den)


def fraction_horner(coeffs, x):
    """Independent evaluation oracle: Horner's rule on `Fraction`s."""
    value = Fraction(0)
    for c in reversed(coeffs):
        value = value * x + c
    return value


def lagrange_coeffs(values):
    """Independent interpolation oracle: the Lagrange basis at the nodes
    0..D, multiplied out on `Fraction` coefficient lists."""
    total = [Fraction(0)] * len(values)
    for j, v in enumerate(values):
        basis = [Fraction(1)]
        for m in range(len(values)):
            if m != j:
                scale = Fraction(1, j - m)
                basis = [
                    (a - m * b) * scale
                    for a, b in zip([Fraction(0)] + basis, basis + [Fraction(0)])
                ]
        total = [t + v * b for t, b in zip(total, basis)]
    return total


def test_evaluation_matches_fraction_horner():
    rng = random.Random(2405)
    polys = [UniPoly.from_coeffs([]), UniPoly.from_coeffs([Fraction(-5, 3)])]
    for _ in range(120):
        polys.append(
            UniPoly.from_coeffs(
                [
                    Fraction(rng.randint(-30, 30), rng.randint(1, 12))
                    for _ in range(rng.randint(1, 9))
                ],
                rng.choice("tn"),
            )
        )
    points = [0, 1, -1, 7, -13, Fraction(1, 2), Fraction(-1, 2), Fraction(-7, 3)]
    for p in polys:
        xs = points + [
            rng.randint(-50, 50),
            Fraction(rng.randint(-50, 50), rng.randint(2, 9)) or Fraction(1, 3),
        ]
        for x in xs:
            got = p(x)
            assert type(got) is Fraction
            assert got == fraction_horner(p.coeffs, x), (p, x)
    assert UniPoly.from_coeffs([])(Fraction(-3, 4)) == 0


def test_interpolate_agrees_with_the_fraction_route():
    rng = random.Random(2406)
    for _ in range(60):
        values = [
            Fraction(rng.randint(-40, 40), rng.randint(1, 10))
            for _ in range(rng.randint(1, 8))
        ]
        p = _interpolate(values)
        rebuilt = UniPoly.from_coeffs(lagrange_coeffs(values), "n")
        assert p == rebuilt
        assert (p.num, p.den) == (rebuilt.num, rebuilt.den)
        assert UniPoly.from_coeffs(p.coeffs, "n") == p
        assert [p(x) for x in range(len(values))] == values


# ---------------------------------------------------------------------------
# matrix products and powers


def test_mat_mul_identity():
    i2 = RatMatrix.identity(2)
    assert mat_mul(i2, i2) == i2


def test_mat_mul_unipotent_square():
    j = RatMatrix.from_rows([[1, 1], [0, 1]])
    assert mat_mul(j, j) == RatMatrix.from_rows([[1, 2], [0, 1]])


def test_order_six_companion_by_repeated_multiplication():
    # oracle: multiply out all six factors, checking no earlier power is I
    a = RatMatrix.from_rows([[0, -1], [1, 1]])
    i2 = RatMatrix.identity(2)
    acc = i2
    seen_identity_early = False
    for step in range(1, 7):
        acc = mat_mul(acc, a)
        if step < 6 and acc == i2:
            seen_identity_early = True
    assert acc == i2 and not seen_identity_early
    assert mat_pow(a, 6) == i2


def test_mat_pow_edges():
    a = RatMatrix.from_rows([[1, 1], [0, 1]])
    assert mat_pow(a, 0) == RatMatrix.identity(2)
    assert mat_pow(a, 5) == RatMatrix.from_rows([[1, 5], [0, 1]])


def test_mat_mul_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        mat_mul(RatMatrix.identity(2), RatMatrix.identity(3))


# ---------------------------------------------------------------------------
# determinants and rank


def test_det_identity():
    for k in (1, 2, 5):
        assert det_exact(RatMatrix.identity(k)) == 1


def test_det_hilbert3_against_cofactor_oracle():
    rows = [[Fraction(1, i + j - 1) for j in range(1, 4)] for i in range(1, 4)]
    assert cofactor_det(rows) == Fraction(1, 2160)
    assert det_exact(RatMatrix.from_rows(rows)) == Fraction(1, 2160)


def test_det_2x2_power_sum_witness():
    m = RatMatrix.from_rows([[2, 1], [1, 3]])
    assert cofactor_det([[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]) == 5
    assert det_exact(m) == 5


def test_det_matches_cofactor_on_random_rational_matrices():
    rng = random.Random(101)
    for _ in range(25):
        k = rng.randint(1, 5)
        rows = [
            [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(k)]
            for _ in range(k)
        ]
        assert det_exact(RatMatrix.from_rows(rows)) == cofactor_det(rows)


def rank_deficient_rows(rng, k):
    """A k-by-k rational product (k x r)(r x k) with random r <= k.  Some
    columns of the right factor are multiples (possibly zero) of earlier
    ones and the columns are shuffled, so columns without a pivot fall
    anywhere, not only after the last pivot."""
    r = rng.randint(0, k)

    def entry():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    left = [[entry() for _ in range(r)] for _ in range(k)]
    right_cols = []
    for _ in range(k):
        if right_cols and rng.random() < 0.4:
            f = entry()
            right_cols.append([f * x for x in rng.choice(right_cols)])
        else:
            right_cols.append([entry() for _ in range(r)])
    rng.shuffle(right_cols)
    return [
        [sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in right_cols]
        for row in left
    ]


def test_rank_cases():
    assert rank_exact(RatMatrix.zero(3)) == 0
    assert rank_exact(RatMatrix.identity(4)) == 4
    j3 = RatMatrix.jordan_block(1, 3)
    assert rank_exact(j3 - RatMatrix.identity(3)) == 2
    assert rank_exact(RatMatrix.zero(1)) == 0
    assert det_exact(RatMatrix.zero(1)) == 0
    zero_first_col = RatMatrix.from_rows([[0, 1, 2], [0, 3, 4], [0, 5, 7]])
    assert rank_exact(zero_first_col) == 2
    assert det_exact(zero_first_col) == 0
    # the only column without a pivot is the last: col 3 = col 1 + 2 col 2
    last_col_free = RatMatrix.from_rows([[1, 0, 1], [2, 1, 4], [0, 3, 6]])
    assert rank_exact(last_col_free) == 2
    assert det_exact(last_col_free) == 0


def rref_kernel_dim(m):
    """Independent nullity oracle via reduced row echelon."""
    k = m.dimension
    rows = [list(row) for row in m.entries]
    pivots = 0
    r = 0
    for col in range(k):
        piv = next((i for i in range(r, k) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(k):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots += 1
        r += 1
    return k - pivots


def test_rank_plus_nullity_is_dimension():
    rng = random.Random(7)
    for _ in range(30):
        k = rng.randint(1, 6)
        m = random_integer_matrix(rng, k, span=2)
        assert rank_exact(m) + rref_kernel_dim(m) == k
    for _ in range(60):
        k = rng.randint(1, 9)
        m = RatMatrix.from_rows(rank_deficient_rows(rng, k))
        assert rank_exact(m) + rref_kernel_dim(m) == k


# ---------------------------------------------------------------------------
# characteristic polynomials


def test_char_poly_examples():
    assert char_poly(RatMatrix.identity(2)) == UniPoly.from_coeffs([1, -2, 1], "t")
    companion = RatMatrix.from_rows([[0, -1], [1, 1]])
    assert char_poly(companion) == UniPoly.from_coeffs([1, -1, 1], "t")
    j12 = RatMatrix.jordan_block(1, 2)
    quad = RatMatrix.block_diag(j12, j12)
    assert char_poly(quad) == UniPoly.from_coeffs([1, -4, 6, -4, 1], "t")


def test_char_poly_of_companion_is_the_polynomial():
    p = cyclotomic_poly(12)
    assert char_poly(RatMatrix.companion(p)) == p


def test_char_poly_matches_shifted_determinants_off_the_nodes():
    # check char_poly against direct determinants det(x*I - M) at
    # rational, negative and large nodes
    rng = random.Random(2025)
    for _ in range(20):
        k = rng.randint(1, 6)
        m = RatMatrix.from_rows(
            [
                [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(k)]
                for _ in range(k)
            ]
        )
        p = char_poly(m)
        ident = RatMatrix.identity(k)
        for x in (-3, -1, Fraction(1, 2), Fraction(-7, 3), k + 1, k + 5, 40):
            assert p(x) == det_exact(ident * x - m)


def test_char_poly_similarity_invariance():
    rng = random.Random(2024)
    for _ in range(15):
        k = rng.randint(1, 5)
        m = random_integer_matrix(rng, k)
        s = random_unimodular(rng, k)
        assert char_poly(conjugate(m, s)) == char_poly(m)


def node_oracle(m):
    """det(t*I - M) by the node route: Bareiss determinants of the
    integer matrices x*den*I - num at x = 0..K, interpolated, over den^K."""
    k = m.dimension
    values = [
        det_exact(
            RatMatrix(
                tuple(
                    tuple((x * m.den if i == j else 0) - c for j, c in enumerate(row))
                    for i, row in enumerate(m.num)
                )
            )
        )
        for x in range(k + 1)
    ]
    scale = m.den**k
    return UniPoly.from_coeffs(
        (c / scale for c in _interpolate(values).coeffs), "t"
    )


def coefficient_bound(m):
    bound = 1
    for row in m.num:
        bound *= 1 + sum(map(abs, row))
    return bound


def oracle_inputs(rng, k):
    """Mixed denominators, zero rows and columns, nilpotent and rank
    deficient k-by-k inputs."""
    rows = mixed_rows(rng, k)
    for _ in range(rng.randint(1, 2)):
        i, j = rng.randrange(k), rng.randrange(k)
        rows[i] = [Fraction(0)] * k
        for row in rows:
            row[j] = Fraction(0)
    strict = RatMatrix.from_rows(
        [
            [
                Fraction(rng.randint(-5, 5), rng.randint(1, 3)) if j > i else 0
                for j in range(k)
            ]
            for i in range(k)
        ]
    )
    return [
        RatMatrix.from_rows(mixed_rows(rng, k)),
        RatMatrix.from_rows(rows),
        conjugate(strict, random_unimodular(rng, k)),
        RatMatrix.from_rows(rank_deficient_rows(rng, k)),
    ]


def test_char_poly_matches_the_node_oracle():
    rng = random.Random(4423)
    for k in range(1, 25):
        for m in oracle_inputs(rng, k):
            p = char_poly(m)
            assert p == node_oracle(m)
            assert p.degree() == k and p.leading() == 1


def test_char_poly_of_nilpotent_and_zero_matrices_is_a_power_of_t():
    rng = random.Random(61)
    for k in (1, 7, 16):
        nilpotent = oracle_inputs(rng, k)[2]
        t_to_the_k = UniPoly.from_coeffs([0] * k + [1], "t")
        assert char_poly(nilpotent) == t_to_the_k
        assert char_poly(RatMatrix.zero(k)) == t_to_the_k


def test_char_poly_of_scalar_matrices_meets_the_bound_terms():
    # det(t*I + r*I) = (t + r)^K has the coefficients C(K, k) r^(K-k), the
    # very terms of the bound (1 + r)^K; r = 2^60 - 2 at K = 1 puts 2B one
    # below the modulus 2^61 - 1 and c_0 right under half of it
    cases = [(1, 2**60 - 2, 1), (1, -(2**60 - 2), 1), (2, 2**29, 1), (5, 3, 7)]
    cases += [(k, r, d) for k in (3, 9, 24) for r in (1, -2, 1000) for d in (1, 4)]
    for k, r, d in cases:
        m = RatMatrix.identity(k) * Fraction(-r, d)
        bound = coefficient_bound(m)
        assert _moduli(bound)[0] > 2 * bound
        expected = UniPoly.from_coeffs(
            [comb(k, i) * Fraction(r, d) ** (k - i) for i in range(k + 1)], "t"
        )
        assert char_poly(m) == expected == node_oracle(m)
    assert _moduli(2**60 - 1) == [2**61 - 1]
    assert _moduli(2**60) == [2**89 - 1]


def test_char_poly_mod_searches_for_a_pivot():
    # rows 1..K-2 of the first column are nonzero multiples of p or 0,
    # so the reduction mod p must take its first pivot from row K-1
    rng = random.Random(8191)
    for p in (127, 8191):
        for k in range(3, 9):
            rows = [[rng.randint(-50, 50) for _ in range(k)] for _ in range(k)]
            for i in range(2, k - 1):
                rows[i][0] = p * rng.randint(-3, 3)
            rows[1][0] = p * rng.randint(1, 3)
            rows[k - 1][0] = 1
            m = RatMatrix(tuple(map(tuple, rows)))
            expected = [int(c) % p for c in node_oracle(m).coeffs]
            assert _char_poly_mod(m.num, p) == expected


def test_char_poly_runs_the_crt_path_past_the_table():
    # multiples of the table prime q = 2^4253 - 1 in the first column put
    # the bound past the largest prime 2^4423 - 1, so several table primes
    # are combined; modulo q those entries vanish, which forces a pivot
    # search
    rng = random.Random(4253)
    q = 2**4253 - 1
    for k in (3, 4, 5):
        rows = [[rng.getrandbits(1200) - 2**1199 for _ in range(k)] for _ in range(k)]
        for i in range(1, k - 1):
            rows[i][0] = q * (i + 1)
        for den in (1, 3**500):
            m = RatMatrix(tuple(map(tuple, rows)), den)
            moduli = _moduli(coefficient_bound(m))
            assert len(moduli) > 1 and q in moduli
            assert char_poly(m) == node_oracle(m)


def test_char_poly_beyond_the_whole_table_is_out_of_contract():
    with pytest.raises(PreconditionError, match="char_poly"):
        char_poly(RatMatrix(((2**20000,),)))


def test_char_poly_makes_no_determinant_call(monkeypatch):
    calls = []

    def counting(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)

        return wrapper

    monkeypatch.setattr(exact, "det_exact", counting("det_exact", exact.det_exact))
    monkeypatch.setattr(exact, "_echelon", counting("_echelon", exact._echelon))
    rng = random.Random(3)
    for k in (1, 6, 18):
        char_poly(RatMatrix.from_rows(mixed_rows(rng, k)))
    assert calls == []
    exact.det_exact(RatMatrix.identity(2))
    assert calls == ["det_exact", "_echelon"]


def test_char_poly_trace_check_names_the_law(monkeypatch):
    monkeypatch.setattr(exact, "_char_poly_mod", lambda num, p: [0] * len(num) + [1])
    with pytest.raises(CrossCheckError, match="char_poly: trace law"):
        char_poly(RatMatrix.identity(3))


def is_prime_exponent(e):
    return e >= 2 and all(e % d for d in range(2, int(e**0.5) + 1))


def lucas_lehmer(e):
    """True when 2^e - 1 is prime, for a prime exponent e (Lucas-Lehmer:
    s_0 = 4, s_(i+1) = s_i^2 - 2, and 2^e - 1 | s_(e-2) for odd e).  Since
    2^e = 1 modulo 2^e - 1, a number is reduced by adding its high bits,
    from bit e on, to its low e bits."""
    if e == 2:
        return True
    modulus = (1 << e) - 1
    s = 4
    for _ in range(e - 2):
        s = s * s - 2
        s = (s & modulus) + (s >> e)
        if s >= modulus:
            s -= modulus
    return s % modulus == 0


def test_every_table_modulus_is_a_mersenne_prime():
    assert list(MERSENNE_EXPONENTS) == sorted(set(MERSENNE_EXPONENTS))
    assert MERSENNE_EXPONENTS[-1] >= 4423
    for e in MERSENNE_EXPONENTS:
        assert is_prime_exponent(e) and lucas_lehmer(e), e
    # the test rejects composite Mersenne numbers with prime exponents
    composite = (11, 23, 29, 37, 4409)
    assert all(map(is_prime_exponent, composite))
    assert not any(map(lucas_lehmer, composite))


# ---------------------------------------------------------------------------
# determinants of polynomial matrices, from their values at integer nodes


def poly_rows_at(rows, x):
    """The matrix of UniPoly entries `rows` evaluated at x."""
    return RatMatrix.from_rows([[p(x) for p in row] for row in rows])


def row_degree_bound(rows):
    """Sum over rows of the largest entry degree (0 for a zero row)."""
    return sum(max(0, *(len(p.coeffs) - 1 for p in row)) for row in rows)


def test_det_poly_diag():
    assert det_poly(lambda x: RatMatrix.from_rows([[x, 0], [0, x]]), 2) == poly_n(
        0, 0, 1
    )


def test_det_poly_constant_identity():
    assert det_poly(lambda x: RatMatrix.identity(2), 0) == poly_n(1)


def test_det_poly_power_sum_matrix_by_brute_force():
    # S(n) for the size-2 unipotent block with the identity form
    n = poly_n(0, 1)
    s01 = poly_n(0, Fraction(-1, 2), Fraction(1, 2))
    s11 = poly_n(0, Fraction(7, 6), Fraction(-1, 2), Fraction(1, 3))
    result = det_poly(lambda x: poly_rows_at([[n, s01], [s01, s11]], x), 4)
    # oracle: brute-force determinants of the literal sums at n = 1..9,
    # which include nodes beyond the interpolation nodes 0..4
    a = RatMatrix.jordan_block(1, 2)
    for n0 in range(1, 10):
        acc = RatMatrix.zero(2)
        p = RatMatrix.identity(2)
        for _ in range(n0):
            acc = acc + mat_mul(p.transpose(), p)
            p = mat_mul(p, a)
        assert result(n0) == det_exact(acc)
    assert result == poly_n(0, 0, Fraction(11, 12), 0, Fraction(1, 12))


def test_det_poly_matches_pointwise_dets():
    rng = random.Random(99)
    for _ in range(10):
        k = rng.randint(1, 5)
        rows = [
            [
                UniPoly.from_coeffs(
                    [rng.randint(-4, 4) for _ in range(rng.randint(1, 4))], "n"
                )
                for _ in range(k)
            ]
            for _ in range(k)
        ]
        p = det_poly(lambda x: poly_rows_at(rows, x), row_degree_bound(rows))
        for _ in range(10):
            x = rng.randint(-25, 25)
            assert p(x) == det_exact(poly_rows_at(rows, x))


def test_det_poly_rejects_negative_bound():
    with pytest.raises(PreconditionError):
        det_poly(lambda x: RatMatrix.identity(1), -1)


def test_det_poly_undersized_bound_fails_loudly():
    # the bound is the caller's, so its miss is a PreconditionError
    def at(x):
        return RatMatrix.from_rows([[x * x, 0], [0, x * x]])

    with pytest.raises(DegreeBoundError, match="det_poly") as caught:
        det_poly(at, 2)  # true degree is 4
    assert isinstance(caught.value, PreconditionError)
    assert not isinstance(caught.value, CrossCheckError)
    with pytest.raises(DegreeBoundError, match="check node x = 2"):
        det_poly(lambda x: RatMatrix.from_rows([[x, 1], [0, x]]), 1)
    assert det_poly(at, 4) == poly_n(0, 0, 0, 0, 1)


def test_det_poly_mirrored_route_takes_no_negative_node():
    # det diag(x^2 + 1, x) = x^3 + x is odd, det diag(x^2 + 1, x^2) even
    def at(x, power):
        asked.append(x)
        return RatMatrix.from_rows([[x * x + 1, 0], [0, x**power]])

    cases = ((1, -1, poly_n(0, 1, 0, 1)), (2, 1, poly_n(0, 0, 1, 0, 1)))
    for power, parity, expected in cases:
        asked = []
        bound = 2 + power
        assert det_poly(lambda x: at(x, power), bound, parity=parity) == expected
        # nodes -floor(B/2)..B - floor(B/2) and the check node, all at x >= 0
        assert min(asked) == 0 and max(asked) == bound - bound // 2 + 1
        with pytest.raises(DegreeBoundError, match=r"with P\(-x\) = [+-]P\(x\)"):
            det_poly(lambda x: at(x, power), bound, parity=-parity)
        with pytest.raises(DegreeBoundError, match="^det_poly at dimension 2: "):
            det_poly(lambda x: at(x, power), bound - 2, parity=parity)
    with pytest.raises(PreconditionError, match="parity"):
        det_poly(lambda x: RatMatrix.identity(1), 2, parity=0)


def test_rank_on_rational_entries():
    # rows are exactly dependent: (3/2, 1) = 3 * (1/2, 1/3)
    dependent = RatMatrix.from_rows(
        [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]]
    )
    assert det_exact(dependent) == 0
    assert rank_exact(dependent) == 1
    full = RatMatrix.from_rows(
        [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 2]]
    )
    assert rank_exact(full) == 2


def test_compound_matrix_is_multiplicative():
    # Cauchy-Binet: minors of a product are products of compounds
    rng = random.Random(5)
    a = random_integer_matrix(rng, 4)
    b = random_integer_matrix(rng, 4)
    for r in range(1, 5):
        lhs = compound_matrix(mat_mul(a, b), r)
        rhs = mat_mul(compound_matrix(a, r), compound_matrix(b, r))
        assert lhs == rhs


def test_compound_top_order_is_determinant():
    rng = random.Random(6)
    m = random_integer_matrix(rng, 4)
    top = compound_matrix(m, 4)
    assert top.dimension == 1
    assert top.entries[0][0] == det_exact(m)


# ---------------------------------------------------------------------------
# the integer-row storage against plain-Fraction references


def frac_mul(a, b):
    """Reference product of two Fraction grids."""
    return [
        [sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)]
        for row in a
    ]


def frac_eliminate(rows):
    """Reference Gaussian elimination on Fractions: (rank, determinant)."""
    a = [list(row) for row in rows]
    k = len(a)
    det = Fraction(1)
    rank = 0
    for col in range(k):
        piv = next((r for r in range(rank, k) if a[r][col]), None)
        if piv is None:
            det = Fraction(0)
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
            det = -det
        pivot = a[rank][col]
        det *= pivot
        for r in range(rank + 1, k):
            f = a[r][col] / pivot
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank, det


def frac_det(rows):
    return frac_eliminate(rows)[1]


def frac_rank(rows):
    return frac_eliminate(rows)[0]


def mixed_rows(rng, k):
    """A k-by-k grid with mixed denominators and signs; a third of the
    draws are rank deficient."""
    if rng.random() < 1 / 3:
        return rank_deficient_rows(rng, k)
    return [
        [
            Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 4, 6, 9]))
            for _ in range(k)
        ]
        for _ in range(k)
    ]


def test_kernel_matches_fraction_references():
    rng = random.Random(808)
    for _ in range(60):
        k = rng.randint(1, 7)
        a_rows, b_rows = mixed_rows(rng, k), mixed_rows(rng, k)
        a, b = RatMatrix.from_rows(a_rows), RatMatrix.from_rows(b_rows)
        assert a.entries == tuple(map(tuple, a_rows))
        assert mat_mul(a, b) == RatMatrix.from_rows(frac_mul(a_rows, b_rows))
        assert det_exact(a) == frac_det(a_rows)
        assert rank_exact(a) == frac_rank(a_rows)
        e = rng.randint(0, 5)
        power = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
        for _ in range(e):
            power = frac_mul(power, a_rows)
        assert mat_pow(a, e) == RatMatrix.from_rows(power)
        # k + 1 points fix the monic char poly
        p = char_poly(a)
        for x in (Fraction(-1, 2), Fraction(7, 3), -5, *range(k + 1, 2 * k)):
            shifted = [
                [(x if i == j else 0) - c for j, c in enumerate(row)]
                for i, row in enumerate(a_rows)
            ]
            assert p(x) == frac_det(shifted)


def test_mat_pow_product_count(monkeypatch):
    # the result starts from a power of the base, not from I: squarings for
    # every bit below the top, one product for every set bit past the first
    a_rows = [[Fraction(1, 2), 1, 0], [0, 1, Fraction(-2, 3)], [1, 0, 1]]
    a = RatMatrix.from_rows(a_rows)
    calls = []
    real_mul = exact.mat_mul
    monkeypatch.setattr(exact, "mat_mul", lambda x, y: calls.append(1) or real_mul(x, y))
    assert mat_pow(a, 0) == RatMatrix.identity(3) and not calls
    power = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    for e in range(1, 41):
        power = frac_mul(power, a_rows)
        calls.clear()
        assert mat_pow(a, e) == RatMatrix.from_rows(power)
        assert len(calls) == e.bit_length() + e.bit_count() - 2, e


def frac_poly_at(coeffs, rows):
    """Reference p(M): Horner's rule on Fraction grids."""
    k = len(rows)
    acc = [[Fraction(0)] * k for _ in range(k)]
    for c in reversed(coeffs):
        acc = frac_mul(acc, rows)
        for i in range(k):
            acc[i][i] += c
    return acc


def test_poly_at_matrix_matches_fraction_horner():
    rng = random.Random(639)
    polys = [
        UniPoly(()),
        UniPoly.from_coeffs([5]),
        UniPoly.from_coeffs([Fraction(-7, 3)]),
        UniPoly.from_coeffs([Fraction(1, 2), 0, Fraction(-3, 4)]),
        UniPoly.from_coeffs([0, Fraction(5, 6), Fraction(2, 9), 0, Fraction(-7, 4)]),
        *(cyclotomic_poly(n) for n in range(1, 31)),
    ]
    for k in (1, 2, 3, 4, 5, 6, 6):
        rows = [
            [Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 6])) for _ in range(k)]
            for _ in range(k)
        ]
        rows[0][0] = Fraction(1, 5)  # den > 1
        m = RatMatrix.from_rows(rows)
        assert m.den > 1
        for p in polys:
            out = exact.poly_at_matrix(p, m)
            assert out == RatMatrix.from_rows(frac_poly_at(p.coeffs, m.entries)), (p, m)
            assert_canonical(out)
        # Cayley-Hamilton
        assert exact.poly_at_matrix(char_poly(m), m) == RatMatrix.zero(k)
    # a random polynomial at an integer matrix, which has den = 1
    ints = RatMatrix.from_rows([[2, -1, 0], [3, 0, 1], [-4, 5, 1]])
    for d in range(8):
        p = UniPoly.from_coeffs(
            [Fraction(rng.randint(-20, 20), rng.randint(1, 12)) for _ in range(d + 1)]
        )
        assert exact.poly_at_matrix(p, ints) == RatMatrix.from_rows(
            frac_poly_at(p.coeffs, ints.entries)
        )


def test_poly_at_matrix_makes_d_minus_one_products_and_one_matrix(monkeypatch):
    m = RatMatrix.from_rows([[Fraction(1, 2), 1, 0], [0, 2, -1], [3, 0, Fraction(1, 3)]])
    products, built = [], []
    real_product, real_init = exact._row_product, RatMatrix.__post_init__
    monkeypatch.setattr(
        exact, "_row_product", lambda a, b: products.append(1) or real_product(a, b)
    )
    monkeypatch.setattr(
        RatMatrix, "__post_init__", lambda self: built.append(1) or real_init(self)
    )
    non_monic = UniPoly((1, 2, 3, 4, 5, 6), 7)
    for p in [*(cyclotomic_poly(n) for n in range(1, 13)), non_monic]:
        d = p.degree()
        assert d >= 1
        products.clear()
        built.clear()
        exact.poly_at_matrix(p, m)
        assert (len(products), len(built)) == (d - 1, 1), p
    # mat_mul runs on the same integer-row product
    products.clear()
    mat_mul(m, m)
    assert len(products) == 1


def frac_is_unipotent(rows):
    k = len(rows)
    nil = [[c - (i == j) for j, c in enumerate(row)] for i, row in enumerate(rows)]
    power = nil
    for _ in range(k - 1):
        power = frac_mul(power, nil)
    return not any(any(row) for row in power)


def test_unipotent_block_profile_matches_fraction_reference():
    # the rank sequence raises NotUnipotentError exactly when the literal
    # (M - I)^K, multiplied out in Fractions, is nonzero
    rng = random.Random(809)
    seen = set()
    for _ in range(40):
        k = rng.randint(1, 6)
        # a rational conjugate of an upper-triangular matrix with diagonal
        # 1 (unipotent) or with one diagonal entry moved off 1
        upper = [
            [
                Fraction(int(i == j)) if i >= j
                else Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                for j in range(k)
            ]
            for i in range(k)
        ]
        if rng.random() < 0.5:
            i = rng.randrange(k)
            upper[i][i] = Fraction(rng.choice([-1, 2, 3]), rng.choice([1, 2]))
        while True:
            s = RatMatrix.from_rows(mixed_rows(rng, k))
            if det_exact(s):
                break
        m = conjugate(RatMatrix.from_rows(upper), s)
        try:
            unipotent_block_profile(m)
            unipotent = True
        except NotUnipotentError:
            unipotent = False
        assert unipotent == frac_is_unipotent(m.entries)
        seen.add(unipotent)
    assert seen == {True, False}


def assert_canonical(m):
    assert m.den > 0
    assert gcd(m.den, *(x for row in m.num for x in row)) == 1


def test_rows_given_as_lists_are_stored_as_tuples():
    # the storage is tuples whatever iterables the rows come in, so a
    # matrix built from lists equals and hashes like the same rows as tuples
    listed = RatMatrix([[1, 2], [3, 4]])
    assert type(listed.num) is tuple and {*map(type, listed.num)} == {tuple}
    assert listed == RatMatrix.from_rows([[1, 2], [3, 4]]) == RatMatrix(((1, 2), (3, 4)))
    assert hash(listed) == hash(RatMatrix(((1, 2), (3, 4))))
    mixed = RatMatrix(([2, 4], (6, 8)), 4)
    assert mixed.num == ((1, 2), (3, 4)) and mixed.den == 2
    assert len({listed, mixed, RatMatrix.from_rows([[1, 2], [3, 4]])}) == 2
    with pytest.raises(TypeError):
        RatMatrix([1, 2])


def test_storage_is_canonical():
    half = RatMatrix.from_rows([[Fraction(2, 4), 0], [0, Fraction(-6, 4)]])
    same = RatMatrix.from_rows([[Fraction(1, 2), 0], [0, Fraction(-3, 2)]])
    raw = RatMatrix(((-2, 0), (0, 6)), -4)
    assert half == same == raw
    assert hash(half) == hash(same) == hash(raw)
    assert raw.num == ((1, 0), (0, -3)) and raw.den == 2
    assert RatMatrix(((0, 0), (0, 0)), 6) == RatMatrix.zero(2)
    assert RatMatrix.zero(2).den == 1
    # Fraction rows would run through the integer kernel unnoticed
    with pytest.raises(TypeError):
        RatMatrix(((Fraction(1, 2), 0), (0, 1)))
    with pytest.raises(PreconditionError, match="^matrix denominator is zero$"):
        RatMatrix(((1,),), 0)
    rng = random.Random(810)
    for _ in range(30):
        k = rng.randint(1, 5)
        a = RatMatrix.from_rows(mixed_rows(rng, k))
        b = RatMatrix.from_rows(mixed_rows(rng, k))
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        for m in (a, b, mat_mul(a, b), a + b, a - b, a - a, a * c, c * b):
            assert_canonical(m)


def test_congruence_chain_and_weighted_rows_sum_pullbacks():
    # sum_{j<n} M^j X (M^j)^T, summed literally, against the chain weighted
    # by C(n, i + 1) as integer rows over its common denominator; rational
    # unipotent M and rational X
    rng = random.Random(820)
    for _ in range(40):
        k = rng.randint(1, 6)
        upper = [[int(i == j) for j in range(k)] for i in range(k)]
        for i in range(k):
            for j in range(i + 1, k):
                upper[i][j] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        m = conjugate(RatMatrix.from_rows(upper), random_unimodular(rng, k))
        x = RatMatrix.from_rows(mixed_rows(rng, k))
        chain = exact.congruence_chain(m, x)
        assert chain[0] == x and 1 <= len(chain) <= 2 * k - 1
        den, terms = exact._chain_terms(chain)
        literal, power = RatMatrix.zero(k), RatMatrix.identity(k)
        for n in range(6):
            weights = [comb(n, i + 1) for i in range(len(chain))]
            assert RatMatrix(exact._weighted_rows(terms, weights, k), den) == literal
            literal = literal + mat_mul(mat_mul(power, x), power.transpose())
            power = mat_mul(power, m)


def literal_congruence_chain(m, x):
    """[X, D X, ...] for D X = M X M^T - X, built by `mat_mul` and `-`."""
    chain = [x]
    for _ in range(2 * m.dimension - 1):
        nxt = mat_mul(mat_mul(m, chain[-1]), m.transpose()) - chain[-1]
        if nxt == RatMatrix.zero(m.dimension):
            break
        chain.append(nxt)
    return chain


@pytest.mark.parametrize("den", [2, 3])
def test_congruence_chain_on_integer_rows_equals_the_literal_chain(den):
    # the chain works on the integer rows of M = num/den, D X = (num x
    # num^T - den^2 x)/(den^2 e) for X = x/e; against the literal chain,
    # on M with a skew X (the orientation of `cohomology`) and on A^T with
    # a symmetric X (that of `powersum`)
    rng = random.Random(840 + den)
    lengths = []
    for _ in range(12):
        k = rng.randint(2, 6)
        upper = [[int(i == j) for j in range(k)] for i in range(k)]
        for i in range(k):
            for j in range(i + 1, k):
                upper[i][j] = Fraction(rng.randint(-4, 4), den)
        upper[0][1] = Fraction(1, den)
        m = conjugate(RatMatrix.from_rows(upper), random_unimodular(rng, k))
        assert m.den == den
        rows = mixed_rows(rng, k)
        skew = RatMatrix.from_rows(
            [[rows[i][j] - rows[j][i] for j in range(k)] for i in range(k)]
        )
        symmetric = RatMatrix.from_rows(
            [[rows[i][j] + rows[j][i] for j in range(k)] for i in range(k)]
        )
        for a, x in ((m, skew), (m.transpose(), symmetric)):
            chain = exact.congruence_chain(a, x)
            assert chain == literal_congruence_chain(a, x)
            lengths.append(len(chain))
    assert max(lengths) >= 5


def test_congruence_chain_raises_past_the_nilpotency_bound():
    for k in (1, 2, 3):
        two = RatMatrix.identity(k) * 2
        with pytest.raises(CrossCheckError, match=f"congruence_chain.*K = {k}"):
            exact.congruence_chain(two, RatMatrix.identity(k))


def test_chain_terms_rejects_mixed_dimensions_and_no_matrices():
    with pytest.raises(DimensionMismatchError):
        exact._chain_terms([RatMatrix.identity(2), RatMatrix.identity(3)])
    with pytest.raises(DimensionMismatchError):
        exact._chain_terms([])
    # the nonzero entries at r*k + c, over the common denominator 6
    third = RatMatrix.from_rows([[0, Fraction(1, 3)], [Fraction(-1, 2), 0]])
    assert exact._chain_terms([RatMatrix.identity(2), third]) == (
        6,
        [[(0, 6), (3, 6)], [(1, 2), (2, -3)]],
    )


def test_weighted_rows_match_the_literal_sum_over_mixed_denominators():
    rng = random.Random(830)
    for _ in range(30):
        k = rng.randint(1, 5)
        mats = [RatMatrix.from_rows(mixed_rows(rng, k)) for _ in range(3)]
        mats.append(mats[0] * Fraction(1, rng.randint(2, 9)))
        den, terms = exact._chain_terms(mats)
        assert den == lcm(*(m.den for m in mats))
        weights = [rng.randint(-3, 3) for _ in mats]
        expected = RatMatrix.zero(k)
        for w, m in zip(weights, mats):
            expected = expected + m * w
        rows = exact._weighted_rows(terms, weights, k)
        assert [[Fraction(v, den) for v in row] for row in rows] == [
            list(row) for row in expected.entries
        ]
        assert_canonical(RatMatrix(rows, den))
        assert exact._weighted_rows(terms, [0] * len(mats), k) == [[0] * k] * k
    # weights that cancel give zero rows, and rows that clear the common
    # denominator reduce to den 1
    half = RatMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)], [0, Fraction(1, 6)]])
    den, terms = exact._chain_terms([half, half * 2])
    assert exact._weighted_rows(terms, [2, -1], 2) == [[0, 0], [0, 0]]
    den, terms = exact._chain_terms([half, half * 3])
    cleared = RatMatrix(exact._weighted_rows(terms, [6, 0], 2), den)
    assert (cleared.num, cleared.den) == (((3, 2), (0, 1)), 1)


def test_verdict_cache_hits_across_constructions():
    rows = [[Fraction(1, 2), Fraction(3, 4)], [-2, Fraction(5, 3)]]
    quasi_unipotency.cache_clear()
    quasi_unipotency(RatMatrix.from_rows(rows))
    scaled = [[x * 12 for x in row] for row in rows]
    again = RatMatrix(tuple(tuple(int(x) for x in row) for row in scaled), 12)
    quasi_unipotency(again)
    info = quasi_unipotency.cache_info()
    assert (info.hits, info.misses) == (1, 1)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: mat_pow(RatMatrix.identity(2), -1), PreconditionError),
        (lambda: RatMatrix.companion(UniPoly.from_coeffs([1])), PreconditionError),
        (lambda: compound_matrix(RatMatrix.identity(2), 3), DimensionMismatchError),
        (lambda: compound_matrix(RatMatrix.identity(2), 0), DimensionMismatchError),
        (lambda: euler_phi(0), PreconditionError),
        (lambda: cyclotomic_poly(0), PreconditionError),
        # a None where a polynomial or a matrix belongs is a TypeError
        (lambda: poly_at_matrix(None, RatMatrix.identity(2)), TypeError),
        (lambda: RatMatrix.companion(None), TypeError),
        (lambda: RatMatrix.block_diag(None), TypeError),
        (lambda: RatMatrix.block_diag(RatMatrix.identity(1), None), TypeError),
        (lambda: det_poly(lambda x: x, 1), TypeError),
        # a parity is the int +1 or -1, not a float or a Fraction equal to one
        (lambda: det_poly(lambda x: RatMatrix.identity(1), 2, 1.0),
         PreconditionError),
        (lambda: det_poly(lambda x: RatMatrix.identity(1), 2, Fraction(-1)),
         PreconditionError),
    ],
)
def test_out_of_contract_calls_raise_library_errors(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize(
    "build",
    [
        lambda: RatMatrix.identity(0),
        lambda: RatMatrix.identity(-1),
        lambda: RatMatrix.zero(0),
        lambda: RatMatrix((), 1),
        lambda: RatMatrix(((1, 2),)),
        lambda: RatMatrix(((1, 2), (3,))),
        lambda: RatMatrix.from_rows([]),
        lambda: RatMatrix.from_rows([[1], [2]]),
        lambda: RatMatrix.block_diag(),
    ],
)
def test_empty_and_non_square_storage_is_refused(build):
    with pytest.raises(DimensionMismatchError, match="square and nonempty"):
        build()


def test_euler_phi_takes_integers_only():
    assert [euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]
    for inexact in (1.5, 6.0, Fraction(6)):
        with pytest.raises(TypeError):
            euler_phi(inexact)
    assert type(euler_phi(True)) is int and euler_phi(True) == 1
    with pytest.raises(PreconditionError):
        euler_phi(False)


def test_constructors_return_a_matrix_or_raise_a_library_error():
    """Derandomized property over the matrix and polynomial constructors
    (`UniPoly`, `UniPoly.from_coeffs`, `RatMatrix.companion`),
    `scan_size`, `max_minor_degree`, `second_compound_block_sizes` and
    `euler_phi` on dimensions and sizes -2..4, ragged rows, coefficient
    lists of length 0..4 with trailing zeros, denominators -3..3, zero
    and negative integers, bools, inexact scalars, and None for the
    companion polynomial or a diagonal block.  Each call returns a square
    nonempty matrix (or a canonical polynomial with the given
    coefficients, a nonnegative int, a positive int totient, or block
    sizes of at least 1), raises a `PlovkitError` other than
    `CrossCheckError`, or raises TypeError exactly when an entry or
    argument is not an exact rational (not an int, for the integer
    storage of the raw constructors and for `euler_phi`) or is None.  A
    block size below 1 never returns.  A returned matrix then goes through
    `det_exact` and `quasi_unipotency`, and a companion matrix has the
    polynomial as its characteristic polynomial."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    ints = st.integers(-4, 4)
    scalars = st.one_of(
        ints,
        st.builds(Fraction, ints, st.integers(1, 4)),
        st.floats(-4, 4, allow_nan=False),
    )
    grids = st.lists(st.lists(scalars, max_size=4), max_size=4)
    exact_scalars = st.one_of(ints, st.builds(Fraction, ints, st.integers(1, 4)))
    # trailing zeros are drawn often, so trimming is exercised
    with_zeros = lambda cs: st.lists(st.just(0), max_size=2).map(lambda z: cs + z)
    coeff_lists = st.lists(scalars, max_size=4).flatmap(with_zeros)
    exact_lists = st.lists(exact_scalars, max_size=4).flatmap(with_zeros)
    int_lists = st.lists(ints, max_size=4).flatmap(with_zeros)
    monic_or_not = st.one_of(exact_lists, exact_lists.map(lambda cs: [*cs, 1]))
    square = st.integers(1, 3).flatmap(
        lambda k: st.lists(st.lists(ints, min_size=k, max_size=k), min_size=k, max_size=k)
    )
    sizes = st.integers(-2, 4)
    calls = st.one_of(
        st.tuples(
            st.just(RatMatrix),
            grids.map(lambda rows: tuple(map(tuple, rows))),
            st.integers(-3, 3),
        ),
        st.tuples(st.just(RatMatrix.from_rows), grids),
        st.tuples(
            st.just(UniPoly),
            st.one_of(int_lists, coeff_lists).map(tuple),
            st.one_of(st.integers(-3, 3), st.floats(-3, 3, allow_nan=False)),
        ),
        st.tuples(st.just(UniPoly.from_coeffs), coeff_lists),
        st.tuples(
            st.just(RatMatrix.companion),
            st.one_of(st.none(), monic_or_not.map(UniPoly.from_coeffs)),
        ),
        st.tuples(st.sampled_from([RatMatrix.identity, RatMatrix.zero]), sizes),
        st.lists(st.one_of(st.none(), square.map(RatMatrix.from_rows)), max_size=3).map(
            lambda blocks: (RatMatrix.block_diag, *blocks)
        ),
        st.tuples(st.just(scan_size), sizes, sizes),
        st.tuples(st.just(max_minor_degree), st.lists(sizes, max_size=4), sizes),
        st.tuples(st.just(second_compound_block_sizes), st.lists(sizes, max_size=4)),
        st.tuples(
            st.just(euler_phi),
            st.one_of(sizes, st.booleans(), st.floats(-4, 4, allow_nan=False)),
        ),
    )

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(calls)
    def check(call):
        build, *args = call
        exact_types = int if build in (RatMatrix, UniPoly) else (int, Fraction)
        if build in (UniPoly, UniPoly.from_coeffs):
            leaves = args[0]
        else:
            leaves = [
                x
                for arg in args
                if isinstance(arg, (list, tuple))
                for row in arg
                if isinstance(row, (list, tuple))
                for x in row
            ]
        mistyped = any(not isinstance(x, exact_types) for x in leaves) or any(
            isinstance(arg, float) or arg is None for arg in args
        )
        try:
            out = build(*args)
        except TypeError:
            assert mistyped, call
            return
        except PlovkitError as exc:
            assert not isinstance(exc, CrossCheckError), call
            assert not mistyped, call
            return
        assert not mistyped, call
        if build in (max_minor_degree, second_compound_block_sizes):
            assert min(args[0], default=1) >= 1, call
        if build in (scan_size, max_minor_degree):
            assert type(out) is int and out >= 0, call
            return
        if build is second_compound_block_sizes:
            assert all(type(s) is int and s >= 1 for s in out), call
            return
        if build is euler_phi:
            assert type(out) is int and out >= 1, call
            return
        if build in (UniPoly, UniPoly.from_coeffs):
            num, den = out.num, out.den
            assert type(num) is tuple and all(type(c) is int for c in num), call
            assert type(den) is int and den >= 1 and gcd(den, *num) == 1, call
            assert not num or num[-1] != 0, call
            scale = args[1] if build is UniPoly else 1
            expected = [Fraction(c, scale) for c in args[0]]
            while expected and expected[-1] == 0:
                expected.pop()
            assert list(out.coeffs) == expected, call
            assert out.degree() == len(expected) - 1, call
            assert out.is_integral() == all(c.denominator == 1 for c in expected), call
            return
        k = out.dimension
        assert k >= 1 and all(len(row) == k for row in out.num), call
        det_exact(out)
        quasi_unipotency(out)
        if build is RatMatrix.companion:
            assert char_poly(out) == args[0], call

    check()
