"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run pytest with -s to see them) and enforcing its runtime budget.

Every comparison is exact; there are no tolerances anywhere.
"""

import random
import time
from fractions import Fraction
from math import factorial

from plovkit import (
    RatMatrix,
    UniPoly,
    analyze,
    half_profile,
    jordan_profile,
    plov_of,
    plov_via_model,
    power_sum_brute,
    power_sum_det,
    quasi_unipotency,
    vanishing_scan,
)
from plovkit.cohomology import TwoForm
from plovkit.randgen import (
    paired_unipotent,
    random_mixed_matrix,
    random_paired_unipotent,
    random_spd,
    random_unimodular,
    random_unipotent,
    rational_root_block,
    unipotent_from_sizes,
    conjugate,
)
from plovkit.selfcheck import (
    compound_matrix,
    hilbert_det,
    hilbert_matrix,
    max_block_compound2_literal,
    single_block_leading_coeff,
)
from tests.test_exact import cofactor_det


class budget:
    """Context manager asserting the block ran within its time budget."""

    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.name}: {status} ({elapsed:.2f}s)")
        if exc_type is None and elapsed > self.seconds:
            raise AssertionError(
                f"{self.name} exceeded budget: {elapsed:.2f}s > {self.seconds}s"
            )
        return False


def test_criterion_01_golden_volume_growth_cases():
    with budget("1 golden volume growth cases", 8.0):
        for m in range(1, 5):
            start = time.monotonic()
            g = 2 * m
            even = unipotent_from_sizes([2] * g)
            report = analyze(even)
            assert report.genus == g
            assert report.plov == 2 * g
            assert time.monotonic() - start < 1.0

            start = time.monotonic()
            g = 2 * m - 1
            odd = unipotent_from_sizes([2] * (2 * (m - 1)) + [1, 1])
            report = analyze(odd)
            assert report.genus == g
            assert report.plov == 2 * g - 1
            assert time.monotonic() - start < 1.0


def test_criterion_02_power_sum_degree_law():
    with budget("2 power-sum degree law (50 seeded cases)", 60.0):
        rng = random.Random(2)
        for _ in range(50):
            dim = rng.randint(1, 8)
            a, sizes = random_unipotent(rng, dim)
            result = power_sum_det(a, RatMatrix.identity(dim))
            assert result.degree == sum(k * k for k in sizes)


def test_criterion_03_closed_form_witness():
    with budget("3 closed-form witness", 1.0):
        a = RatMatrix.jordan_block(1, 2)
        i2 = RatMatrix.identity(2)
        result = power_sum_det(a, i2)
        expected = UniPoly.from_coeffs(
            [0, 0, Fraction(11, 12), 0, Fraction(1, 12)], "n"
        )
        assert result.poly == expected
        brute = power_sum_brute(a, i2, 9)
        assert brute[0] == 1
        assert brute[1] == 5
        assert [result.poly(n) for n in range(1, 10)] == brute


def test_criterion_04_leading_coefficient_and_hilbert():
    with budget("4 leading coefficient law and Hilbert determinants", 10.0):
        for k in range(1, 6):
            result = power_sum_det(
                RatMatrix.jordan_block(1, k), RatMatrix.identity(k)
            )
            num = 1
            for i in range(1, k):
                num *= factorial(i)
            den = 1
            for i in range(1, 2 * k):
                den *= factorial(i)
            assert result.leading_coeff == Fraction(num * num, den)
            assert result.leading_coeff == single_block_leading_coeff(k)
        for k in range(1, 9):
            rows = [list(r) for r in hilbert_matrix(k).entries]
            assert hilbert_det(k) == cofactor_det(rows)


def test_criterion_05_form_and_similarity_invariance():
    with budget("5 degree invariance across forms and similarity", 30.0):
        rng = random.Random(5)
        for _ in range(20):
            dim = rng.randint(1, 6)
            a, sizes = random_unipotent(rng, dim, conjugated=False)
            expected = sum(k * k for k in sizes)
            for _ in range(5):
                h = random_spd(rng, dim)
                assert power_sum_det(a, h).degree == expected
            s = random_unimodular(rng, dim)
            b = conjugate(a, s)
            assert power_sum_det(b, RatMatrix.identity(dim)).degree == expected


def test_criterion_06_second_compound_growth():
    with budget("6 second-compound growth identities", 60.0):
        rng = random.Random(6)
        cases = []
        for g in (2, 3, 4, 5):
            cases.append(random_paired_unipotent(rng, g))
        cases.append((paired_unipotent([2, 2, 1]), [2, 2, 1]))
        # one quasi-unipotent (order 3) pseudo-analytic case
        m6 = RatMatrix.block_diag(
            rational_root_block(3, 2), unipotent_from_sizes([1, 1])
        )
        half6 = [2, 1]
        cases.append((m6, half6))
        for m, half_sizes in cases:
            g = m.dimension // 2
            kj = max(half_sizes) - 1
            report = analyze(m)
            assert report.exponents[2] == 2 * kj
            assert report.max_block_compound2 == 2 * kj + 1
            assert max_block_compound2_literal(m) == 2 * kj + 1
            for r in range(1, g + 1):
                assert report.exponents[2 * r] <= 2 * r * (g - r)


def test_criterion_07_compound_preserves_quasi_unipotency():
    with budget("7 quasi-unipotency matches second compound", 30.0):
        rng = random.Random(7)
        seen = {True: 0, False: 0}
        for _ in range(30):
            dim = rng.choice([4, 5, 6])
            m = random_mixed_matrix(rng, dim)
            a = quasi_unipotency(m).is_quasi_unipotent
            b = quasi_unipotency(compound_matrix(m, 2)).is_quasi_unipotent
            assert a == b
            seen[a] += 1
        assert seen[True] >= 5 and seen[False] >= 5  # genuinely mixed


def test_criterion_08_vanishing_scan_clean():
    with budget("8 vanishing scan has no violations", 60.0):
        rng = random.Random(8)
        for g in (1, 2, 3, 4):
            for _ in range(3):
                m, _ = random_paired_unipotent(rng, g)
                report = vanishing_scan(m, TwoForm.standard(g))
                assert report.violations == ()


def test_criterion_09_consistency_triangle():
    with budget("9 consistency triangle", 60.0):
        rng = random.Random(9)
        hits = 0
        for _ in range(12):
            g = rng.randint(1, 4)
            m, _ = random_paired_unipotent(rng, g)
            model = plov_via_model(m, TwoForm.standard(g))
            if not model.matches_profile:
                continue
            hits += 1
            half = half_profile(jordan_profile(m))
            ps = power_sum_det(m, RatMatrix.identity(2 * g))
            assert 2 * model.degree == ps.degree == 2 * plov_of(half)
        assert hits >= 8  # the standard form realizes equality in practice


def test_criterion_10_quadratic_case_bound():
    with budget("10 quadratic-case bound with equality witnesses", 5.0):
        rng = random.Random(10)
        # seeded family: every analyzed case with kf = 2 obeys the bound
        for _ in range(10):
            g = rng.randint(1, 4)
            m, _ = random_paired_unipotent(rng, g)
            report = analyze(m, degrees=[2])
            if report.kf == 2:
                assert report.plov <= 2 * (report.genus // 2) + report.genus
        # equality witnesses: the golden constructions
        for m in (1, 2):
            even = unipotent_from_sizes([2] * (2 * m))
            report = analyze(even, degrees=[2])
            g = report.genus
            assert report.kf == 2
            assert report.plov == 2 * (g // 2) + g
            odd = unipotent_from_sizes([2] * (2 * m) + [1, 1])
            report = analyze(odd, degrees=[2])
            g = report.genus
            assert report.kf == 2
            assert report.plov == 2 * (g // 2) + g
