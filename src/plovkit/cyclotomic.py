"""Cyclotomic polynomials and the root-of-unity test for matrices.

A square rational matrix is quasi-unipotent when some power of it is
unipotent, equivalently when every eigenvalue is a root of unity.  For a
matrix whose characteristic polynomial has integer coefficients this is
decidable exactly: an algebraic integer whose conjugates all lie on the
unit circle is a root of unity, so it suffices to strip cyclotomic
factors from the characteristic polynomial.  Since phi(n) >= sqrt(n/2),
every cyclotomic factor of a degree-d polynomial has index n <= 2*d^2,
which makes the search finite.

A matrix with a non-integer characteristic polynomial is reported as not
quasi-unipotent with the full characteristic polynomial as residual:
eigenvalues of a quasi-unipotent matrix are algebraic integers, and no
analogous circle criterion exists for algebraic non-integers.

The trace witness: once the factorization is exact, a power P of M is
unipotent exactly when tr P = K (K roots of unity sum to K only when all
are 1).  Caller matrices are proved unipotent by `jordan`'s rank sequence.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from math import lcm
from typing import Optional

from .errors import CrossCheckError, NotQuasiUnipotentError, PreconditionError
from .exact import RatMatrix, UniPoly, char_poly, mat_pow

# no CLI route asks for a verdict twice; the cache serves library callers
# that repeat a request (perfbench's tracer test pins it), and the bound
# keeps a long-running process from holding every matrix it saw
VERDICT_CACHE_SIZE = 32


def euler_phi(n: int) -> int:
    """Euler's totient, n * prod (1 - 1/p) over the primes p dividing n."""
    n = operator.index(n)
    if n < 1:
        raise PreconditionError("totient argument must be positive")
    result = n
    for p in _prime_factors(n):
        result -= result // p
    return result


def _prime_factors(n: int) -> list[int]:
    primes = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    return primes


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> UniPoly:
    """The n-th cyclotomic polynomial in t, monic of degree phi(n): t^n - 1
    divided by Phi_d for every proper divisor d of n, on the integer
    coefficients `num`.  Every division must be exact, and the degree must
    come out as phi(n).  The memo is a pure cache."""
    if n < 1:
        raise PreconditionError("cyclotomic index must be positive")
    p = [-1] + [0] * (n - 1) + [1]
    for d in [d for d in range(1, n // 2 + 1) if n % d == 0]:
        p = _divide_monic(p, cyclotomic_poly(d).num)
        if p is None:
            raise CrossCheckError(f"Phi_{d} leaves a remainder in t^{n} - 1")
    if len(p) - 1 != euler_phi(n):
        raise CrossCheckError(f"cyclotomic polynomial {n} has the wrong degree")
    return UniPoly(tuple(p), 1, "t")


@lru_cache(maxsize=None)
def _candidate_indices(d: int) -> tuple[int, ...]:
    """The indices n <= 2*d^2 with phi(n) <= d, in increasing order: every
    cyclotomic factor of a degree-d polynomial is some Phi_n with n here."""
    return tuple(n for n in range(1, 2 * d * d + 1) if euler_phi(n) <= d)


def _divide_monic(p: list[int], q: tuple[int, ...]) -> Optional[list[int]]:
    """p / q in Z[t] for a monic q, or None when q does not divide p.
    Coefficient lists are lowest degree first."""
    dq = len(q) - 1
    if len(p) <= dq:
        return None
    rem = list(p)
    quot = [0] * (len(p) - dq)
    for i in range(len(quot) - 1, -1, -1):
        c = rem[i + dq]
        quot[i] = c
        if c:
            for j in range(dq):
                rem[i + j] -= c * q[j]
    return None if any(rem[:dq]) else quot


@dataclass(frozen=True)
class QuasiUnipotencyVerdict:
    """Outcome of the root-of-unity test on a square rational matrix.

    When the verdict is positive, ``order`` is the least N with M^N
    unipotent and ``cyclotomic_factorization`` lists (n, multiplicity)
    pairs with char poly = product of Phi_n^multiplicity.  When negative,
    ``residual`` holds the nonconstant cofactor that has no cyclotomic
    factors (the full characteristic polynomial if it was not integral).
    """

    is_quasi_unipotent: bool
    order: Optional[int] = None
    cyclotomic_factorization: Optional[tuple[tuple[int, int], ...]] = None
    residual: Optional[UniPoly] = None


@lru_cache(maxsize=VERDICT_CACHE_SIZE)
def quasi_unipotency(m: RatMatrix) -> QuasiUnipotencyVerdict:
    """Decide quasi-unipotency by stripping cyclotomic factors from the
    characteristic polynomial.

    The verdict is total: non-integral characteristic polynomials yield an
    immediate negative with the characteristic polynomial as residual.
    An integral one is stripped on integer coefficient lists; every Phi_n
    is monic, so each division is exact in Z.  The least order N (the lcm
    of the cyclotomic indices present) is checked by the trace witness:
    tr M^(N/q) = K for a prime q dividing N raises CrossCheckError.
    """
    char = char_poly(m)
    if not char.is_integral():
        return QuasiUnipotencyVerdict(False, residual=char)
    p = list(char.num)
    factors: list[tuple[int, int]] = []
    for n in _candidate_indices(m.dimension):
        phi_n = cyclotomic_poly(n).num
        mult = 0
        while (q := _divide_monic(p, phi_n)) is not None:
            p = q
            mult += 1
        if mult:
            factors.append((n, mult))
        if len(p) == 1:
            break
    if len(p) != 1:
        return QuasiUnipotencyVerdict(False, residual=UniPoly(tuple(p), 1, "t"))
    order = lcm(*(n for n, _ in factors))
    for q in _prime_factors(order):
        if mat_pow(m, order // q).trace() == m.dimension:
            raise CrossCheckError(
                "order minimality check failed: a proper divisor already works"
            )
    return QuasiUnipotencyVerdict(
        True,
        order=order,
        cyclotomic_factorization=tuple(sorted(factors)),
    )


def require_quasi_unipotent(m: RatMatrix) -> QuasiUnipotencyVerdict:
    """The positive verdict of `quasi_unipotency`; a negative one raises
    NotQuasiUnipotentError naming the residual factor."""
    verdict = quasi_unipotency(m)
    if not verdict.is_quasi_unipotent:
        raise NotQuasiUnipotentError(
            f"matrix is not quasi-unipotent; residual factor {_name(verdict.residual)}"
        )
    return verdict


def _name(p: UniPoly) -> str:
    """str(p), or, when a coefficient is past the int-to-str digit limit,
    p's degree and the digit count of the largest of its integer
    coefficients `num` and their denominator `den`."""
    try:
        return str(p)
    except ValueError:
        big = max(p.den, *map(abs, p.num))
        # 301029995 / 10**9 < log10(2), so this undercounts; the loop settles it
        digits = (big.bit_length() - 1) * 301029995 // 10**9 + 1
        while big >= 10**digits:
            digits += 1
        return f"of degree {p.degree()} with coefficients of up to {digits} digits"


def unipotent_power(m: RatMatrix) -> tuple[int, RatMatrix]:
    """(N, M^N) for the least N making M unipotent; tr M^N != K raises."""
    verdict = require_quasi_unipotent(m)
    u = mat_pow(m, verdict.order)
    if u.trace() != u.dimension:
        raise CrossCheckError("claimed unipotent power is not unipotent")
    return verdict.order, u
