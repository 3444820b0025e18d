"""Tests for cyclotomic polynomials and the quasi-unipotency verdict."""

import random
from fractions import Fraction
from math import lcm, prod

import pytest

from plovkit import (
    RatMatrix,
    UniPoly,
    char_poly,
    cyclotomic_poly,
    euler_phi,
    is_unipotent,
    mat_pow,
    quasi_unipotency,
    unipotent_power,
)
import plovkit.cyclotomic as cyclotomic
from plovkit.cyclotomic import VERDICT_CACHE_SIZE, _divide_monic
from plovkit.errors import CrossCheckError, NotQuasiUnipotentError
from plovkit.randgen import (
    conjugate,
    random_mixed_matrix,
    random_quasi_unipotent,
    random_unimodular,
)
from plovkit.selfcheck import compound_matrix


def poly_t(*coeffs):
    return UniPoly.from_coeffs(coeffs, "t")


def x_to_the_n_minus_1(n):
    return UniPoly.from_coeffs([-1] + [0] * (n - 1) + [1], "t")


def is_product(factors, target):
    """prod(factors) == target as polynomials: the degrees add up, and the
    values agree at deg + 1 integer nodes."""
    deg = target.degree()
    return sum(f.degree() for f in factors) == deg and all(
        prod(f(x) for f in factors) == target(x) for x in range(deg + 1)
    )


# ---------------------------------------------------------------------------
# cyclotomic polynomials


def test_cyclotomic_1():
    assert cyclotomic_poly(1) == poly_t(-1, 1)


def test_cyclotomic_6_by_division_oracle():
    # oracle: Phi_6 is t^6 - 1 divided by Phi_1 * Phi_2 * Phi_3 built by
    # hand, checked as the product
    phi1 = poly_t(-1, 1)
    phi2 = poly_t(1, 1)
    phi3 = poly_t(1, 1, 1)
    expected = poly_t(1, -1, 1)
    assert is_product([expected, phi1, phi2, phi3], x_to_the_n_minus_1(6))
    assert cyclotomic_poly(6) == expected


def test_cyclotomic_8_by_division_oracle():
    phi1 = poly_t(-1, 1)
    phi2 = poly_t(1, 1)
    phi4 = poly_t(1, 0, 1)
    expected = poly_t(1, 0, 0, 0, 1)
    assert is_product([expected, phi1, phi2, phi4], x_to_the_n_minus_1(8))
    assert cyclotomic_poly(8) == expected


def test_divide_monic_exact_and_inexact():
    # t^2 - 1 = (t - 1)(t + 1); coefficient lists lowest degree first
    assert _divide_monic([-1, 0, 1], (-1, 1)) == [1, 1]
    assert _divide_monic([-1, 0, 1], (-2, 1)) is None
    assert _divide_monic([1, 1], (1, 1, 1)) is None


def test_cyclotomic_inexact_division_is_cross_check_failure(monkeypatch):
    monkeypatch.setattr(cyclotomic, "_divide_monic", lambda p, q: None)
    with pytest.raises(CrossCheckError):
        cyclotomic._cyclotomic_ints.__wrapped__(6)


def test_cyclotomic_degree_and_integrality():
    for n in range(1, 30):
        p = cyclotomic_poly(n)
        assert p.degree() == euler_phi(n)
        assert p.is_integral()
        assert p.leading() == 1


def test_cyclotomic_product_identity_up_to_40():
    for n in range(1, 41):
        factors = [cyclotomic_poly(d) for d in range(1, n + 1) if n % d == 0]
        assert is_product(factors, x_to_the_n_minus_1(n))


# ---------------------------------------------------------------------------
# quasi-unipotency verdicts


def test_identity_verdict():
    v = quasi_unipotency(RatMatrix.identity(2))
    assert v.is_quasi_unipotent
    assert v.order == 1
    assert v.cyclotomic_factorization == ((1, 2),)
    assert v.residual is None


def test_order_six_companion_verdict_with_power_oracle():
    a = RatMatrix.from_rows([[0, -1], [1, 1]])
    # oracle: A^6 = I and no smaller power is I
    assert mat_pow(a, 6) == RatMatrix.identity(2)
    assert all(mat_pow(a, k) != RatMatrix.identity(2) for k in range(1, 6))
    v = quasi_unipotency(a)
    assert v.is_quasi_unipotent and v.order == 6
    assert v.cyclotomic_factorization == ((6, 1),)


def test_fibonacci_companion_verdict_with_trace_oracle():
    a = RatMatrix.from_rows([[0, 1], [1, 1]])
    # oracle: traces of powers grow without bound (322 at the 12th power),
    # impossible for a matrix whose eigenvalues are roots of unity
    assert mat_pow(a, 12).trace() == 322
    v = quasi_unipotency(a)
    assert not v.is_quasi_unipotent
    assert v.residual == poly_t(-1, -1, 1)
    assert v.order is None and v.cyclotomic_factorization is None


def test_partial_cyclotomic_factor_leaves_residual():
    # char poly = Phi_1 * (t^2 - t - 1): the cyclotomic part strips away
    fib = RatMatrix.from_rows([[0, 1], [1, 1]])
    m = RatMatrix.block_diag(RatMatrix.identity(1), fib)
    v = quasi_unipotency(m)
    assert not v.is_quasi_unipotent
    assert v.residual == poly_t(-1, -1, 1)


def test_non_integer_char_poly_is_rejected_with_residual():
    m = RatMatrix.from_rows([[Fraction(1, 2), 0], [0, 2]])
    v = quasi_unipotency(m)
    assert not v.is_quasi_unipotent
    assert v.residual == char_poly(m)
    assert v.residual.degree() >= 1


def test_verdict_factorization_reconstructs_char_poly():
    rng = random.Random(31)
    seen_yes = 0
    for _ in range(20):
        m = random_mixed_matrix(rng, rng.choice([4, 5, 6]))
        v = quasi_unipotency(m)
        if not v.is_quasi_unipotent:
            assert v.residual is not None and v.residual.degree() >= 1
            continue
        seen_yes += 1
        factors = [
            cyclotomic_poly(n) for n, mult in v.cyclotomic_factorization
            for _ in range(mult)
        ]
        assert is_product(factors, char_poly(m))
        total = sum(mult * euler_phi(n) for n, mult in v.cyclotomic_factorization)
        assert total == m.dimension
    assert seen_yes >= 3


def test_unipotent_power_identity():
    n, u = unipotent_power(RatMatrix.identity(3))
    assert n == 1 and u == RatMatrix.identity(3)


def test_unipotent_power_order_six():
    a = RatMatrix.from_rows([[0, -1], [1, 1]])
    n, u = unipotent_power(a)
    assert n == 6 and u == RatMatrix.identity(2)


def test_unipotent_power_negative_eigenvalue_block():
    # size-2 block at eigenvalue -1; squaring oracle gives [[1,-2],[0,1]]
    m = RatMatrix.jordan_block(-1, 2)
    squared = RatMatrix.from_rows(
        [
            [
                sum(m.entries[i][t] * m.entries[t][j] for t in range(2))
                for j in range(2)
            ]
            for i in range(2)
        ]
    )
    assert squared == RatMatrix.from_rows([[1, -2], [0, 1]])
    n, u = unipotent_power(m)
    assert n == 2 and u == squared


def test_unipotent_power_rejects_non_quasi_unipotent():
    with pytest.raises(NotQuasiUnipotentError):
        unipotent_power(RatMatrix.from_rows([[0, 1], [1, 1]]))


def test_power_is_unipotent_property():
    rng = random.Random(77)
    for _ in range(12):
        m = random_mixed_matrix(rng, rng.choice([4, 6]))
        v = quasi_unipotency(m)
        if not v.is_quasi_unipotent:
            continue
        n, u = unipotent_power(m)
        assert is_unipotent(u)
        k = m.dimension
        nil = u - RatMatrix.identity(k)
        assert mat_pow(nil, k) == RatMatrix.zero(k)


def test_quasi_unipotency_transfers_to_second_compound():
    rng = random.Random(4242)
    for _ in range(16):
        dim = rng.choice([4, 6])
        m = random_mixed_matrix(rng, dim)
        a = quasi_unipotency(m).is_quasi_unipotent
        b = quasi_unipotency(compound_matrix(m, 2)).is_quasi_unipotent
        assert a == b


def test_verdict_cache_is_bounded():
    assert VERDICT_CACHE_SIZE < 100
    for a in range(100):
        quasi_unipotency(RatMatrix.from_rows([[1, a], [0, 1]]))
    info = quasi_unipotency.cache_info()
    assert info.maxsize == VERDICT_CACHE_SIZE
    assert info.currsize <= VERDICT_CACHE_SIZE


def test_verdict_cache_serves_repeats():
    m = RatMatrix.from_rows([[0, -1], [1, 0]])
    assert quasi_unipotency(m) is quasi_unipotency(m)


def test_order_minimality_failure_is_settled_by_the_trace(monkeypatch):
    # an order twice the true one: M^(order/2) is unipotent, so its trace is
    # K, which raises by itself, without an is_unipotent call
    block = RatMatrix.block_diag(
        RatMatrix.companion(cyclotomic_poly(3)),
        RatMatrix.companion(cyclotomic_poly(4)),
        RatMatrix.jordan_block(1, 2),
    )
    m = conjugate(block, random_unimodular(random.Random(15), 6))
    calls = []
    real_is_unipotent = cyclotomic.is_unipotent
    monkeypatch.setattr(
        cyclotomic, "is_unipotent", lambda p: calls.append(p) or real_is_unipotent(p)
    )
    monkeypatch.setattr(cyclotomic, "lcm", lambda *ns: 2 * lcm(*ns))
    quasi_unipotency.cache_clear()
    with pytest.raises(
        CrossCheckError,
        match="^order minimality check failed: a proper divisor already works$",
    ):
        quasi_unipotency(m)
    assert calls == []
    quasi_unipotency.cache_clear()


def test_a_power_of_trace_k_fails_the_order_minimality_check(monkeypatch):
    # a power that is not unipotent but has trace K contradicts the proved
    # factorization (K roots of unity sum to K only when all are 1); the
    # check must name it rather than pass over it
    m = RatMatrix.block_diag(
        RatMatrix.companion(cyclotomic_poly(3)), RatMatrix.jordan_block(1, 2)
    )
    k = m.dimension
    fake = RatMatrix.block_diag(
        RatMatrix.from_rows([[2, 0], [0, 0]]), RatMatrix.identity(k - 2)
    )
    assert fake.trace() == k and not is_unipotent(fake)
    monkeypatch.setattr(cyclotomic, "mat_pow", lambda a, e: fake)
    quasi_unipotency.cache_clear()
    with pytest.raises(
        CrossCheckError,
        match="^order minimality check failed: a proper divisor already works$",
    ):
        quasi_unipotency(m)
    quasi_unipotency.cache_clear()


def test_order_minimality_check_costs_one_power_per_prime(monkeypatch):
    # a conjugated dimension-18 matrix of order 12 = 2^2 * 3: two powers,
    # M^6 and M^4, and the trace rules both out without is_unipotent
    block = RatMatrix.block_diag(
        RatMatrix.companion(cyclotomic_poly(12)),
        RatMatrix.companion(cyclotomic_poly(4)),
        RatMatrix.companion(cyclotomic_poly(3)),
        RatMatrix.companion(cyclotomic_poly(6)),
        RatMatrix.jordan_block(-1, 3),
        RatMatrix.jordan_block(1, 5),
    )
    m = conjugate(block, random_unimodular(random.Random(12), 18))
    counts = {"is_unipotent": 0, "mat_pow": 0}
    for name in counts:
        real = getattr(cyclotomic, name)

        def counted(*args, name=name, real=real):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(cyclotomic, name, counted)
    quasi_unipotency.cache_clear()
    verdict = quasi_unipotency(m)
    assert verdict.order == 12 and m.dimension == 18
    assert counts == {"is_unipotent": 0, "mat_pow": 2}


def test_trace_witness_agrees_with_is_unipotent():
    # "unipotent => trace K" always holds; the converse holds for
    # quasi-unipotent matrices (roots of unity summing to K are all 1), and
    # the order minimality check rests on it alone
    rng = random.Random(2024)
    seen = set()
    for _ in range(200):
        m = random_quasi_unipotent(rng, rng.randint(1, 8))
        k, order = m.dimension, quasi_unipotency(m).order
        for e in range(1, 2 * order + 1):
            if 2 * order % e == 0:
                p = mat_pow(m, e)
                unipotent = is_unipotent(p)
                assert (p.trace() == k) == unipotent, (m, e)
                seen.add(unipotent)
    assert seen == {True, False}
