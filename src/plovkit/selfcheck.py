"""Named randomized self-checks behind the `selftest` CLI command.

Each check draws its cases from an explicit seeded generator and compares
an implementation route against an independent one (brute-force sums,
literal minor enumeration, pointwise evaluation).  The suite size is
fixed: `selftest` always runs every check, with `cases`/`max_size` only
scaling how many random instances each check draws.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import comb
from typing import Callable

from . import randgen
from .cohomology import (
    TwoForm,
    _scan,
    nilpotent_chain,
    plov_via_model,
    pullback2,
    vanishing_scan,
    wedge_coefficient,
)
from .cyclotomic import cyclotomic_poly, quasi_unipotency
from .exact import (
    RatMatrix,
    UniPoly,
    char_poly,
    compound_matrix,
    det_exact,
    det_poly,
    mat_mul,
    rank_exact,
)
from .jordan import jordan_profile
from .plov import (
    growth_exponent,
    growth_exponent_by_minors,
    max_block_compound2,
    max_block_compound2_literal,
)
from .powersum import power_sum_brute, power_sum_det, power_sum_matrix


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    cases: int


#: What a check returns: (passed, number of cases drawn).
Outcome = tuple[bool, int]


def _scaled(cases: int, weight: float, minimum: int = 3) -> int:
    return max(minimum, int(cases * weight))


def _check_power_sum_matrix(rng: random.Random, max_size: int, cases: int) -> Outcome:
    count = _scaled(cases, 0.15)
    for _ in range(count):
        dim = rng.randint(1, min(5, max_size))
        a, _ = randgen.random_unipotent(rng, dim)
        h = randgen.random_spd(rng, dim)
        bs = power_sum_matrix(a, h)
        direct = RatMatrix.zero(dim)
        power = RatMatrix.identity(dim)
        for x in range(13):
            summed = RatMatrix.zero(dim)
            for j, b in enumerate(bs):
                summed = summed + b * comb(x, j + 1)
            if summed != direct:
                return False, count
            direct = direct + mat_mul(mat_mul(power.transpose(), h), power)
            power = mat_mul(power, a)
    return True, count


def _check_det_poly(rng: random.Random, max_size: int, cases: int) -> Outcome:
    count = _scaled(cases, 0.2)
    for _ in range(count):
        k = rng.randint(1, 5)
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
                return False, count
    return True, count


def _check_char_poly_similarity(rng: random.Random, max_size: int, cases: int) -> Outcome:
    """char_poly is invariant under similarity, and at one integer node
    x < 0 it equals the Bareiss determinant det(x*I - M), a route that
    shares nothing with the modular Hessenberg reduction."""
    count = _scaled(cases, 0.3)
    for _ in range(count):
        k = rng.randint(1, min(6, max_size))
        m = randgen.random_integer_matrix(rng, k)
        s = randgen.random_unimodular(rng, k)
        p = char_poly(m)
        if char_poly(randgen.conjugate(m, s)) != p:
            return False, count
        x = -rng.randint(1, 40)
        if p(x) != det_exact(RatMatrix.identity(k) * x - m):
            return False, count
    return True, count


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


def _check_rank_nullity(rng: random.Random, max_size: int, cases: int) -> Outcome:
    count = _scaled(cases, 0.3)
    for _ in range(count):
        k = rng.randint(1, min(6, max_size))
        m = randgen.random_integer_matrix(rng, k, span=2)
        if rank_exact(m) + _kernel_dimension(m) != k:
            return False, count
    return True, count


def _check_cyclotomic_products(rng: random.Random, max_size: int, cases: int) -> Outcome:
    for n in range(1, 41):
        product = UniPoly.constant(1, "t")
        for d in range(1, n + 1):
            if n % d == 0:
                product = product * cyclotomic_poly(d)
        xn_minus_1 = UniPoly.from_coeffs([-1] + [0] * (n - 1) + [1], "t")
        if product != xn_minus_1:
            return False, 40
    return True, 40


def _check_compound_equivalence(rng: random.Random, max_size: int, cases: int) -> Outcome:
    count = _scaled(cases, 0.3)
    for _ in range(count):
        dim = rng.choice([4, 6])
        m = randgen.random_mixed_matrix(rng, dim)
        a = quasi_unipotency(m).is_quasi_unipotent
        b = quasi_unipotency(compound_matrix(m, 2)).is_quasi_unipotent
        if a != b:
            return False, count
    return True, count


def _check_profile_similarity(rng: random.Random, max_size: int, cases: int) -> Outcome:
    count = _scaled(cases, 0.3)
    for _ in range(count):
        dim = rng.randint(2, min(6, max_size))
        m, _ = randgen.random_unipotent(rng, dim, conjugated=False)
        s = randgen.random_unimodular(rng, dim)
        if jordan_profile(randgen.conjugate(m, s)) != jordan_profile(m):
            return False, count
    return True, count


def _check_power_sum_degree_law(rng: random.Random, max_size: int, cases: int) -> Outcome:
    count = _scaled(cases, 1.0)
    for _ in range(count):
        dim = rng.randint(1, max_size)
        m, sizes = randgen.random_unipotent(rng, dim)
        result = power_sum_det(m, RatMatrix.identity(dim))
        if result.degree != sum(k * k for k in sizes):
            return False, count
    return True, count


def _check_power_sum_h_independence(rng: random.Random, max_size: int, cases: int) -> Outcome:
    count = _scaled(cases, 0.15)
    for _ in range(count):
        dim = rng.randint(1, min(5, max_size))
        m, sizes = randgen.random_unipotent(rng, dim)
        expected = sum(k * k for k in sizes)
        for _ in range(3):
            h = randgen.random_spd(rng, dim)
            if power_sum_det(m, h).degree != expected:
                return False, count
    return True, count


def _check_power_sum_brute(rng: random.Random, max_size: int, cases: int) -> Outcome:
    count = _scaled(cases, 0.15)
    for _ in range(count):
        dim = rng.randint(1, min(5, max_size))
        m, _ = randgen.random_unipotent(rng, dim)
        h = randgen.random_spd(rng, dim)
        poly = power_sum_det(m, h).poly
        if [poly(n) for n in range(1, 13)] != power_sum_brute(m, h, 12):
            return False, count
    return True, count


def _check_growth_exponents(rng: random.Random, max_size: int, cases: int) -> Outcome:
    count = _scaled(cases, 0.1)
    for _ in range(count):
        dim = rng.randint(2, min(5, max_size))
        m, _ = randgen.random_unipotent(rng, dim)
        for r in range(1, dim + 1):
            if growth_exponent(m, r) != growth_exponent_by_minors(m, r):
                return False, count
    return True, count


def _check_second_compound_blocks(rng: random.Random, max_size: int, cases: int) -> Outcome:
    count = _scaled(cases, 0.1)
    for _ in range(count):
        genus = rng.randint(1, 4)
        m, half_sizes = randgen.random_paired_unipotent(rng, genus)
        kj = max(half_sizes) - 1
        if growth_exponent(m, 2) != 2 * kj:
            return False, count
        literal = max_block_compound2_literal(m)
        if literal != 2 * kj + 1 or literal != max_block_compound2(m):
            return False, count
    return True, count


def _check_model_triangle(rng: random.Random, max_size: int, cases: int) -> Outcome:
    count = _scaled(cases, 0.1)
    for _ in range(count):
        genus = rng.randint(1, 4)
        m, half_sizes = randgen.random_paired_unipotent(rng, genus)
        h = TwoForm.standard(genus)
        model = plov_via_model(m, h)
        expected = sum(k * k for k in half_sizes)
        if model.degree > expected:
            return False, count
        if model.matches_profile:
            ps = power_sum_det(m, RatMatrix.identity(2 * genus))
            if not (2 * model.degree == ps.degree == 2 * expected):
                return False, count
    return True, count


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


def _check_vanishing_scan(rng: random.Random, max_size: int, cases: int) -> Outcome:
    count = _scaled(cases, 0.1)
    for _ in range(count):
        genus = rng.randint(1, 4)
        m, _ = randgen.random_paired_unipotent(rng, genus)
        h = TwoForm.standard(genus)
        chain = nilpotent_chain(m, h)
        report = vanishing_scan(m, h, chain)
        if report.violations:
            return False, count
        # the literal expansion is exponential in g, so it checks g <= 3
        if genus <= 3 and report.scanned != literal_scan(chain):
            return False, count
    # on a chain every scanned value is 0; random forms in its place give
    # nonzero values, and odd g tells the sign of the polarization apart
    for genus in (2, 3):
        forms = [randgen.randgen_two_form(rng, genus) for _ in range(3)]
        if _scan(forms).scanned != literal_scan(forms):
            return False, count
    return True, count


def _check_pullback_functorial(rng: random.Random, max_size: int, cases: int) -> Outcome:
    count = _scaled(cases, 0.2)
    for _ in range(count):
        genus = rng.randint(1, 3)
        m = randgen.random_integer_matrix(rng, 2 * genus, span=2)
        h = randgen.randgen_two_form(rng, genus)
        iterated = h
        power = RatMatrix.identity(2 * genus)
        for step in range(1, 7):
            iterated = pullback2(m, iterated)
            power = mat_mul(power, m)
            if pullback2(power, h) != iterated:
                return False, count
    return True, count


#: The documented suite: every `selftest` run executes exactly these.
SELFTEST_CHECKS: tuple[tuple[str, Callable[..., Outcome]], ...] = (
    ("power_sum_matrix_matches_direct_sums", _check_power_sum_matrix),
    ("det_poly_matches_pointwise_det", _check_det_poly),
    ("char_poly_similarity_invariant", _check_char_poly_similarity),
    ("rank_nullity_consistency", _check_rank_nullity),
    ("cyclotomic_product_identity", _check_cyclotomic_products),
    ("quasi_unipotency_matches_second_compound", _check_compound_equivalence),
    ("jordan_profile_similarity_invariant", _check_profile_similarity),
    ("power_sum_degree_law", _check_power_sum_degree_law),
    ("power_sum_form_independence", _check_power_sum_h_independence),
    ("power_sum_matches_brute_force", _check_power_sum_brute),
    ("growth_exponent_matches_minor_enumeration", _check_growth_exponents),
    ("second_compound_growth_and_blocks", _check_second_compound_blocks),
    ("model_degree_ceiling_and_triangle", _check_model_triangle),
    ("vanishing_scan_clean", _check_vanishing_scan),
    ("pullback_power_functoriality", _check_pullback_functorial),
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
