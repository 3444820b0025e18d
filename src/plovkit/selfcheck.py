"""The oracles and the named randomized self-checks behind `selftest`.

The oracles are the literal constructions that the fast routes of the
product modules stand in for: the compound matrix of all minors, the
ordered wedge expansion, growth exponents from every minor, rank
sequences on the literal second compound, the power-sum closed forms,
a reduced-echelon nullity and the literal vanishing scan.  No product
module imports this one; the CLI loads it only for `selftest`, and the
tests import the oracles from here.

Each check draws its cases from an explicit seeded generator and compares
an implementation route against an independent one (brute-force sums,
literal minor enumeration, pointwise evaluation).  Most checks are one
case predicate under `_each`, the one sampling loop: it draws a weighted
share of `cases` instances up to `max_size` and stops at the first
failure.  `selftest` always runs every check, so the suite size is fixed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Callable, Sequence

from . import randgen
from .cohomology import (
    Pair,
    TwoForm,
    nilpotent_chain,
    plov_via_model,
    pullback2,
    scan_chain,
)
from .cyclotomic import cyclotomic_poly, quasi_unipotency, unipotent_power
from .errors import CrossCheckError, DimensionMismatchError, PreconditionError
from .exact import (
    RatMatrix,
    UniPoly,
    char_poly,
    congruence_chain,
    det_exact,
    det_poly,
    mat_mul,
    rank_exact,
    submatrix,
)
from .jordan import jordan_profile, unipotent_block_profile
from .plov import max_minor_degree, second_compound_block_sizes
from .powersum import power_sum_brute, power_sum_det


# ---------------------------------------------------------------------------
# oracles: literal constructions behind the fast routes


def compound_matrix(m: RatMatrix, r: int) -> RatMatrix:
    """The r-th compound: all r-by-r minors, row and column index sets in
    lexicographic order.  Represents the induced action on the r-th
    exterior power.  The minors are taken of the integer rows, over the
    common denominator den^r."""
    k = m.dimension
    if not 1 <= r <= k:
        raise DimensionMismatchError(f"compound order {r} out of range 1..{k}")
    if r == 1:
        return m
    combos = list(itertools.combinations(range(k), r))
    e = m.num
    if r == 2:
        minors = tuple(
            tuple(e[a][c] * e[b][d] - e[a][d] * e[b][c] for (c, d) in combos)
            for (a, b) in combos
        )
    else:
        minors = tuple(
            tuple(
                det_exact(
                    RatMatrix(tuple(tuple(e[i][j] for j in cols) for i in rows))
                ).numerator
                for cols in combos
            )
            for rows in combos
        )
    return RatMatrix(minors, m.den**r)


def _merge_sign(indices: tuple[int, ...], pair: Pair) -> int:
    """Sign of sorting indices + pair into ascending order; 0 on repeats."""
    i, j = pair
    if i in indices or j in indices:
        return 0
    inversions = sum(1 for t in indices if t > i) + sum(
        1 for t in indices if t > j
    )
    return -1 if inversions % 2 else 1


def wedge_coefficient(forms: Sequence[TwoForm]) -> Fraction:
    """Top wedge coefficient of g constant 2-forms on a genus-g space, by
    literal expansion over the sets of indices used so far: the oracle for
    g! * pfaffian and for the polarization in `scan_chain`."""
    if not forms:
        raise DimensionMismatchError("need at least one form")
    g = forms[0].genus
    if len(forms) != g:
        raise DimensionMismatchError(f"need exactly g = {g} forms")
    for f in forms:
        if f.genus != g:
            raise DimensionMismatchError("genus mismatch among forms")
    state = {(): Fraction(1)}
    for items in [f.items() for f in forms]:
        nxt: dict[tuple[int, ...], Fraction] = {}
        for indices, acc in state.items():
            for pair, coeff in items:
                sign = _merge_sign(indices, pair)
                if sign == 0:
                    continue
                key = tuple(sorted(indices + pair))
                term = acc * coeff if sign > 0 else -(acc * coeff)
                if key in nxt:
                    nxt[key] = nxt[key] + term
                else:
                    nxt[key] = term
        state = nxt
    top = tuple(range(1, 2 * g + 1))
    return state.get(top, Fraction(0))


def growth_exponent_by_minors(m: RatMatrix, r: int) -> int:
    """Direct oracle for `plov.max_minor_degree` on the block sizes of
    M's profile: enumerate every r-by-r minor of U^n and take the maximum
    degree in n.  Each minor is interpolated from its values on the
    literal powers U^x (built by `mat_mul`); entry (i, j) of U^n has
    degree at most rowdeg[i], the largest d with row i of (U-I)^d
    nonzero, so a minor on the rows I has degree at most the sum of
    rowdeg[i] over I.  Exponential in the dimension; intended for
    cross-checks on small matrices."""
    if not 1 <= r <= m.dimension:
        raise DimensionMismatchError(f"degree {r} out of range 1..{m.dimension}")
    _, u = unipotent_power(m)
    k = u.dimension
    nil = u - RatMatrix.identity(k)
    rowdeg = [0] * k
    power = nil
    for d in range(1, k):
        for i, row in enumerate(power.entries):
            if any(row):
                rowdeg[i] = d
        power = mat_mul(power, nil)
    # U^x for x = 0..D + 1, D the largest bound (one verification node)
    powers = [RatMatrix.identity(k)]
    for _ in range(sum(sorted(rowdeg)[k - r :]) + 1):
        powers.append(mat_mul(powers[-1], u))
    best = -1
    for rows in itertools.combinations(range(k), r):
        bound = sum(rowdeg[i] for i in rows)
        for cols in itertools.combinations(range(k), r):
            minor = det_poly(
                lambda x: submatrix(powers[x], rows, cols), bound
            )
            best = max(best, minor.degree())
    if best < 0:
        raise CrossCheckError("all minors vanished (impossible: U^0 = I)")
    return best


def max_block_compound2_literal(m: RatMatrix) -> int:
    """Oracle for the largest of `plov.second_compound_block_sizes` on
    the block sizes of M's profile: rank sequences on the literal second
    compound of the unipotent iterate."""
    if m.dimension < 2:
        raise PreconditionError("second compound requires dimension >= 2")
    _, u = unipotent_power(m)
    profile = unipotent_block_profile(compound_matrix(u, 2))
    return max(k for _, k, _ in profile.entries)


def single_block_leading_coeff(k: int) -> Fraction:
    """Leading coefficient of det S(n) for a single Jordan block of size k
    with the identity form: (prod_{i=1}^{k-1} i!)^2 / prod_{i=1}^{2k-1} i!."""
    if k < 1:
        raise PreconditionError("block size must be positive")
    num = 1
    for i in range(1, k):
        num *= factorial(i)
    den = 1
    for i in range(1, 2 * k):
        den *= factorial(i)
    return Fraction(num * num, den)


def hilbert_matrix(k: int) -> RatMatrix:
    """The k-by-k matrix with entries 1/(i + j - 1)."""
    if k < 1:
        raise PreconditionError("size must be positive")
    return RatMatrix.from_rows(
        [[Fraction(1, i + j + 1) for j in range(k)] for i in range(k)]
    )


def hilbert_det(k: int) -> Fraction:
    """Determinant of the k-by-k Hilbert matrix, cross-checked against the
    factorial closed form (prod_{i<k} i!)^4 / prod_{i<2k} i!."""
    value = det_exact(hilbert_matrix(k))
    num = 1
    for i in range(1, k):
        num *= factorial(i)
    den = 1
    for i in range(1, 2 * k):
        den *= factorial(i)
    closed = Fraction(num**4, den)
    if value != closed:
        raise CrossCheckError("Hilbert determinant disagrees with closed form")
    return value


def _kernel_dimension(m: RatMatrix) -> int:
    """Nullity via an independent reduced-echelon computation."""
    k = m.dimension
    rows = [list(row) for row in m.entries]
    pivots = 0
    col = 0
    r = 0
    while r < k and col < k:
        piv = next((i for i in range(r, k) if rows[i][col]), None)
        if piv is None:
            col += 1
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
        col += 1
    return k - pivots


def literal_scan(chain) -> tuple:
    """The vanishing scan's (tuple, value) pairs over a family of forms, by
    literal ordered wedge expansion of every tuple."""
    kf = len(chain) - 1
    genus = chain[0].genus
    return tuple(
        (t, wedge_coefficient([chain[i] for i in t]))
        for t in itertools.product(range(kf + 1), repeat=genus)
        if 2 * sum(t) > genus * kf
    )


# ---------------------------------------------------------------------------
# the self-test suite


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    cases: int


#: What a check returns: (passed, number of cases drawn).
Outcome = tuple[bool, int]

#: A check, called as check(rng, max_size, cases).
Check = Callable[[random.Random, int, int], Outcome]


def _each(weight: float, case: Callable[[random.Random, int], bool]) -> Check:
    """The check that draws max(3, int(cases * weight)) cases and judges
    each with `case(rng, max_size)`, stopping at the first failure."""

    def check(rng: random.Random, max_size: int, cases: int) -> Outcome:
        count = max(3, int(cases * weight))
        return all(case(rng, max_size) for _ in range(count)), count

    return check


def _power_sum_matrix(rng: random.Random, max_size: int) -> bool:
    dim = rng.randint(1, min(5, max_size))
    a, _ = randgen.random_unipotent(rng, dim)
    h = randgen.random_spd(rng, dim)
    bs = congruence_chain(a.transpose(), h)
    direct = RatMatrix.zero(dim)
    power = RatMatrix.identity(dim)
    for x in range(13):
        summed = RatMatrix.zero(dim)
        for j, b in enumerate(bs):
            summed = summed + b * comb(x, j + 1)
        if summed != direct:
            return False
        direct = direct + mat_mul(mat_mul(power.transpose(), h), power)
        power = mat_mul(power, a)
    return True


def _det_poly(rng: random.Random, max_size: int) -> bool:
    k = rng.randint(1, min(5, max_size))
    rows = [
        [
            UniPoly.from_coeffs(
                [rng.randint(-3, 3) for _ in range(rng.randint(1, 4))], "n"
            )
            for _ in range(k)
        ]
        for _ in range(k)
    ]

    def at(x: int) -> RatMatrix:
        return RatMatrix.from_rows([[p(x) for p in row] for row in rows])

    bound = sum(max(0, *(len(p.coeffs) - 1 for p in row)) for row in rows)
    p = det_poly(at, bound)
    for _ in range(10):
        x = rng.randint(-30, 30)
        if p(x) != det_exact(at(x)):
            return False
    return True


def _char_poly_similarity(rng: random.Random, max_size: int) -> bool:
    """char_poly is invariant under similarity, and at one integer node
    x < 0 it equals the Bareiss determinant det(x*I - M), a route that
    shares nothing with the modular Hessenberg reduction."""
    k = rng.randint(1, min(6, max_size))
    m = randgen.random_integer_matrix(rng, k)
    s = randgen.random_unimodular(rng, k)
    p = char_poly(m)
    if char_poly(randgen.conjugate(m, s)) != p:
        return False
    x = -rng.randint(1, 40)
    return p(x) == det_exact(RatMatrix.identity(k) * x - m)


def _rank_nullity(rng: random.Random, max_size: int) -> bool:
    k = rng.randint(1, min(6, max_size))
    m = randgen.random_integer_matrix(rng, k, span=2)
    return rank_exact(m) + _kernel_dimension(m) == k


def _check_cyclotomic_products(rng: random.Random, max_size: int, cases: int) -> Outcome:
    # the product of the Phi_d over d | n, as a coefficient list multiplied
    # out here, independent of any product code in the library
    for n in range(1, 41):
        product = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                phi = cyclotomic_poly(d).coeffs
                out = [0] * (len(product) + len(phi) - 1)
                for i, a in enumerate(product):
                    for j, b in enumerate(phi):
                        out[i + j] += a * b
                product = out
        if product != [-1] + [0] * (n - 1) + [1]:
            return False, 40
    return True, 40


def _compound_equivalence(rng: random.Random, max_size: int) -> bool:
    # at dimension 2 the second compound is det M, so the law needs 3
    dim = min(rng.choice([4, 6]), max(3, max_size))
    m = randgen.random_mixed_matrix(rng, dim)
    a = quasi_unipotency(m).is_quasi_unipotent
    return a == quasi_unipotency(compound_matrix(m, 2)).is_quasi_unipotent


def _profile_similarity(rng: random.Random, max_size: int) -> bool:
    dim = rng.randint(2, min(6, max_size))
    m, _ = randgen.random_unipotent(rng, dim, conjugated=False)
    s = randgen.random_unimodular(rng, dim)
    return jordan_profile(randgen.conjugate(m, s)) == jordan_profile(m)


def _power_sum_degree_law(rng: random.Random, max_size: int) -> bool:
    dim = rng.randint(1, max_size)
    m, sizes = randgen.random_unipotent(rng, dim)
    result = power_sum_det(m, RatMatrix.identity(dim))
    return result.degree == sum(k * k for k in sizes)


def _power_sum_h_independence(rng: random.Random, max_size: int) -> bool:
    dim = rng.randint(1, min(5, max_size))
    m, sizes = randgen.random_unipotent(rng, dim)
    expected = sum(k * k for k in sizes)
    for _ in range(3):
        h = randgen.random_spd(rng, dim)
        if power_sum_det(m, h).degree != expected:
            return False
    return True


def _power_sum_brute(rng: random.Random, max_size: int) -> bool:
    dim = rng.randint(1, min(5, max_size))
    m, _ = randgen.random_unipotent(rng, dim)
    h = randgen.random_spd(rng, dim)
    poly = power_sum_det(m, h).poly
    return [poly(n) for n in range(1, 13)] == power_sum_brute(m, h, 12)


def _growth_exponents(rng: random.Random, max_size: int) -> bool:
    dim = rng.randint(2, min(5, max_size))
    m, _ = randgen.random_unipotent(rng, dim)
    sizes = jordan_profile(m).unipotent_block_sizes()
    for r in range(1, dim + 1):
        if max_minor_degree(sizes, r) != growth_exponent_by_minors(m, r):
            return False
    return True


def _second_compound_blocks(rng: random.Random, max_size: int) -> bool:
    genus = rng.randint(1, min(4, max_size // 2))
    m, half_sizes = randgen.random_paired_unipotent(rng, genus)
    kj = max(half_sizes) - 1
    sizes = jordan_profile(m).unipotent_block_sizes()
    if max_minor_degree(sizes, 2) != 2 * kj:
        return False
    literal = max_block_compound2_literal(m)
    return literal == 2 * kj + 1 == max(second_compound_block_sizes(sizes))


def _model_triangle(rng: random.Random, max_size: int) -> bool:
    genus = rng.randint(1, min(4, max_size // 2))
    m, half_sizes = randgen.random_paired_unipotent(rng, genus)
    h = TwoForm.standard(genus)
    model = plov_via_model(m, h)
    expected = sum(k * k for k in half_sizes)
    if model.degree > expected:
        return False
    if model.matches_profile:
        ps = power_sum_det(m, RatMatrix.identity(2 * genus))
        return 2 * model.degree == ps.degree == 2 * expected
    return True


def _vanishing_scan(rng: random.Random, max_size: int) -> bool:
    genus = rng.randint(1, min(4, max_size // 2))
    m, _ = randgen.random_paired_unipotent(rng, genus)
    h = TwoForm.standard(genus)
    chain = nilpotent_chain(m, h)
    report = scan_chain(chain)
    if report.violations:
        return False
    # the literal expansion is exponential in g, so it checks g <= 3
    return genus > 3 or report.scanned == literal_scan(chain)


def _check_vanishing_scan(rng: random.Random, max_size: int, cases: int) -> Outcome:
    passed, count = _each(0.1, _vanishing_scan)(rng, max_size, cases)
    if not passed:
        return False, count
    # on a chain every scanned value is 0; random forms in its place give
    # nonzero values, and odd g tells the sign of the polarization apart
    half = max_size // 2
    for genus in (min(2, half), min(3, half)):
        forms = [randgen.randgen_two_form(rng, genus) for _ in range(3)]
        if scan_chain(forms).scanned != literal_scan(forms):
            return False, count
    return True, count


def _pullback_functorial(rng: random.Random, max_size: int) -> bool:
    genus = rng.randint(1, min(3, max_size // 2))
    m = randgen.random_integer_matrix(rng, 2 * genus, span=2)
    h = randgen.randgen_two_form(rng, genus)
    iterated = h
    power = RatMatrix.identity(2 * genus)
    for step in range(1, 7):
        iterated = pullback2(m, iterated)
        power = mat_mul(power, m)
        if pullback2(power, h) != iterated:
            return False
    return True


#: The documented suite: every `selftest` run executes exactly these.
SELFTEST_CHECKS: tuple[tuple[str, Check], ...] = (
    ("power_sum_matrix_matches_direct_sums", _each(0.15, _power_sum_matrix)),
    ("det_poly_matches_pointwise_det", _each(0.2, _det_poly)),
    ("char_poly_similarity_invariant", _each(0.3, _char_poly_similarity)),
    ("rank_nullity_consistency", _each(0.3, _rank_nullity)),
    ("cyclotomic_product_identity", _check_cyclotomic_products),
    ("quasi_unipotency_matches_second_compound", _each(0.3, _compound_equivalence)),
    ("jordan_profile_similarity_invariant", _each(0.3, _profile_similarity)),
    ("power_sum_degree_law", _each(1.0, _power_sum_degree_law)),
    ("power_sum_form_independence", _each(0.15, _power_sum_h_independence)),
    ("power_sum_matches_brute_force", _each(0.15, _power_sum_brute)),
    ("growth_exponent_matches_minor_enumeration", _each(0.1, _growth_exponents)),
    ("second_compound_growth_and_blocks", _each(0.1, _second_compound_blocks)),
    ("model_degree_ceiling_and_triangle", _each(0.1, _model_triangle)),
    ("vanishing_scan_clean", _check_vanishing_scan),
    ("pullback_power_functoriality", _each(0.2, _pullback_functorial)),
)

SELFTEST_SUITE_SIZE = len(SELFTEST_CHECKS)


def run_selftest(max_size: int = 8, cases: int = 50, seed: int = 0) -> list[CheckResult]:
    """Run every documented check with per-check derived seeds, so the
    outcome is independent of execution order.  Each check returns
    (passed, cases); its result is named after its `SELFTEST_CHECKS` entry."""
    results = []
    for index, (name, fn) in enumerate(SELFTEST_CHECKS):
        rng = random.Random((seed, index, name).__repr__())
        results.append(CheckResult(name, *fn(rng, max_size, cases)))
    return results
