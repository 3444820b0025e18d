"""Differential checks against sympy, an independent computer algebra system.

`char_poly` reduces the matrix to Hessenberg form modulo a prime, and
`det_poly` rebuilds a polynomial from exact values at the integer nodes
0..D; sympy expands the same determinants symbolically.
`det_exact` and `rank_exact` read one fraction-free row echelon form;
sympy's Bareiss determinant and rank check them on rank-deficient
rational products with shuffled columns.
`pfaffian` eliminates fraction-free on 2x2 blocks of the integer rows;
its Pf(num), over den^g, is squared and checked against sympy's
determinant of the skew matrix.
`jordan_profile` reads block sizes off rank sequences; sympy's Jordan
form of the unipotent iterate gives them independently.
The library itself stays stdlib-only: this module is test-only and is
skipped when sympy is not installed.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from plovkit import (  # noqa: E402
    RatMatrix,
    TwoForm,
    UniPoly,
    char_poly,
    det_exact,
    jordan_profile,
    pfaffian,
    rank_exact,
    unipotent_power,
)
from plovkit.randgen import random_quasi_unipotent  # noqa: E402
from plovkit.selfcheck import det_poly  # noqa: E402
from tests.test_cohomology import rescaled, swap_forcing_form  # noqa: E402
from tests.test_exact import (  # noqa: E402
    poly_rows_at,
    rank_deficient_rows,
    row_degree_bound,
)


def to_sympy(x: Fraction):
    return sympy.Rational(x.numerator, x.denominator)


def to_sympy_poly(p: UniPoly, symbol):
    return sum(
        (to_sympy(c) * symbol**i for i, c in enumerate(p.coeffs)), sympy.Integer(0)
    )


def coeffs_of(expr, symbol) -> tuple[Fraction, ...]:
    """Coefficients of a sympy polynomial expression, lowest degree first,
    without trailing zeros (the `UniPoly` convention)."""
    coeffs = [
        Fraction(int(c.p), int(c.q))
        for c in reversed(sympy.Poly(expr, symbol).all_coeffs())
    ]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-5, 5), rng.randint(1, 3))


def test_char_poly_matches_sympy_charpoly():
    rng = random.Random(301)
    t = sympy.Symbol("t")
    for trial in range(60):
        if trial < 30:
            k = rng.randint(1, 6)
            rows = [[random_rational(rng) for _ in range(k)] for _ in range(k)]
        else:
            rows = rank_deficient_rows(rng, rng.randint(1, 9))
        ours = RatMatrix.from_rows(rows)
        theirs = sympy.Matrix([[to_sympy(x) for x in row] for row in rows])
        assert char_poly(ours).coeffs == coeffs_of(theirs.charpoly(t).as_expr(), t)
        assert rank_exact(ours) == theirs.rank()
        assert to_sympy(det_exact(ours)) == theirs.det(method="bareiss")


def test_det_poly_matches_sympy_determinant():
    rng = random.Random(302)
    n = sympy.Symbol("n")
    for _ in range(30):
        k = rng.randint(1, 6)
        rows = [
            [
                UniPoly.from_coeffs(
                    [random_rational(rng) for _ in range(rng.randint(0, 3))], "n"
                )
                for _ in range(k)
            ]
            for _ in range(k)
        ]
        ours = det_poly(lambda x: poly_rows_at(rows, x), row_degree_bound(rows))
        theirs = sympy.Matrix(
            [[to_sympy_poly(p, n) for p in row] for row in rows]
        ).det(method="domain-ge")
        assert ours.coeffs == coeffs_of(sympy.expand(theirs), n)


def test_pfaffian_squared_matches_sympy_determinant():
    rng = random.Random(303)
    for _ in range(30):
        g = rng.randint(1, 4)
        k = 2 * g
        density = rng.choice([0.3, 0.7, 1.0])
        coeffs = {
            (i, j): random_rational(rng)
            for i in range(1, k + 1)
            for j in range(i + 1, k + 1)
            if rng.random() < density
        }
        skew = sympy.zeros(k, k)
        for (i, j), v in coeffs.items():
            skew[i - 1, j - 1] = to_sympy(v)
            skew[j - 1, i - 1] = -to_sympy(v)
        form = TwoForm(g, coeffs)
        pf = Fraction(pfaffian(form), form.matrix.den**g)
        assert to_sympy(pf * pf) == skew.det(method="bareiss")


def test_pfaffian_squared_matches_sympy_determinant_after_pivot_swap():
    # g = 6, dense integer forms that need a pivot swap after the first
    # step, and their rescalings with mixed denominators
    rng = random.Random(304)
    for _ in range(3):
        w = swap_forcing_form(rng, 6)
        for form in (w, rescaled(w, [rng.randint(1, 4) for _ in range(12)])):
            skew = sympy.zeros(12, 12)
            for (i, j), v in form.items():
                skew[i - 1, j - 1] = to_sympy(v)
                skew[j - 1, i - 1] = -to_sympy(v)
            pf = Fraction(pfaffian(form), form.matrix.den**6)
            assert pf != 0
            assert to_sympy(pf * pf) == skew.det(method="bareiss")


def test_pfaffian_squared_matches_sympy_determinant_on_rescale_only_rows():
    # sparse forms, g = 2..7, whose first pivot p = num[0][1] has |p| >= 2
    # while some later row has a zero head (num[0][i] = num[1][i] = 0):
    # that row meets a step with p != prev = 1 and is only rescaled; half
    # of the forms have entries over 2 or 3
    rng = random.Random(305)
    nonzero = 0
    for g in range(2, 8):
        k = 2 * g
        for trial in range(4):
            density = rng.choice([0.15, 0.25, 0.35, 0.5])
            dens = (1, 2, 3) if trial % 2 else (1,)
            while True:
                coeffs = {
                    (i, j): Fraction(rng.choice([-1, 1]) * rng.randint(1, 5), rng.choice(dens))
                    for i in range(1, k + 1)
                    for j in range(i + 1, k + 1)
                    if rng.random() < density
                }
                coeffs[(1, 2)] = Fraction(rng.choice([-1, 1]) * rng.randint(2, 5))
                head = rng.randint(3, k)
                coeffs.pop((1, head), None)
                coeffs.pop((2, head), None)
                form = TwoForm(g, coeffs)
                if abs(form.matrix.num[0][1]) >= 2:
                    break
            skew = sympy.zeros(k, k)
            for (i, j), v in form.items():
                skew[i - 1, j - 1] = to_sympy(v)
                skew[j - 1, i - 1] = -to_sympy(v)
            pf = Fraction(pfaffian(form), form.matrix.den**g)
            nonzero += pf != 0
            assert to_sympy(pf * pf) == skew.det(method="bareiss")
    assert nonzero >= 6


def jordan_block_sizes(j) -> list[int]:
    """Block sizes of a sympy Jordan form, read off its superdiagonal."""
    sizes = [1]
    for i in range(j.rows - 1):
        if j[i, i + 1] == 0:
            sizes.append(1)
        else:
            sizes[-1] += 1
    return sorted(sizes, reverse=True)


def test_jordan_block_sizes_match_sympy_jordan_form():
    rng = random.Random(304)
    for _ in range(20):
        m = random_quasi_unipotent(rng, rng.randint(2, 6))
        _, u = unipotent_power(m)
        theirs = sympy.Matrix([[to_sympy(x) for x in row] for row in u.entries])
        _, j = theirs.jordan_form()
        assert jordan_profile(m).unipotent_block_sizes() == jordan_block_sizes(j)
