"""Determinants of power sums attached to unipotent matrices.

For a unipotent A and a symmetric positive definite H over Q, the matrix
S(n) = sum_{m=0}^{n-1} (A^m)^T H A^m has polynomial entries in n, and its
determinant P(n) is a polynomial whose degree equals sum k_i^2 over the
Jordan block sizes k_i of A -- independent of H and invariant under
similarity.  The leading coefficient for a single block of size k is
(prod_{i<k} i!)^2 / prod_{i<2k} i!, a Hilbert-matrix determinant in
disguise; both closed forms are oracles in `selfcheck`
(`single_block_leading_coeff`, `hilbert_det`).

With D X = A^T X A - X, sum_{m<n} (A^m)^T X A^m = sum_s C(n, s + 1) D^s X
for every X, so S(n) = sum_s C(n, s + 1) B_s with the constant matrices
B_s = D^s H of `exact.congruence_chain` (on A^T), and P(n) is
interpolated from Bareiss determinants of its integer rows den * S(x),
from `exact`'s one chain sum, and divided by den^K once.  A is proved
unipotent once, by the rank sequence of A - I that also yields the sizes
k_i (`jordan.unipotent_block_profile`).  As S(n + 1) - S(n) = (A^n)^T H A^n
and S(0) = 0 for every integer n, S(-n) = -(A^-n)^T S(n) A^-n, and
det A = 1 gives P(-n) = (-1)^K P(n) for K = dim A: the nodes are centred
at 0, and only those at n >= 0 take a determinant.

Hermitian forms are restricted to rational symmetric positive definite
matrices so that all arithmetic stays in Q; the degree law is insensitive
to this restriction.  `power_sum_brute` keeps a literal-summation oracle
alongside the chain route, on integer rows over a running denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import (
    CrossCheckError,
    DegreeBoundError,
    NotSymmetricPositiveDefiniteError,
    PreconditionError,
)
from .exact import (
    RatMatrix,
    UniPoly,
    _check_same_dim,
    _chain_terms,
    _echelon,
    _expect,
    _row_product,
    _weighted_rows,
    congruence_chain,
    det_exact,
    interpolate_checked,
)
from .jordan import unipotent_block_profile


def ensure_spd(h: RatMatrix) -> RatMatrix:
    """Validate symmetry and positive definiteness exactly (Sylvester:
    every leading principal minor is strictly positive), the minors read
    off one elimination of the integer rows."""
    k = _expect(h, RatMatrix).dimension
    if h != h.transpose():
        raise NotSymmetricPositiveDefiniteError("matrix is not symmetric")
    minors = _echelon(h.num)[2] + [0]  # the minor after the last one read is 0
    for t in range(1, k + 1):
        if minors[t - 1] <= 0:
            raise NotSymmetricPositiveDefiniteError(
                f"leading principal minor {t} is not positive"
            )
    return h


@dataclass(frozen=True)
class PowerSumResult:
    """det S(n), whose degree and leading coefficient are read-only
    properties of ``poly``."""

    poly: UniPoly

    degree = property(lambda self: self.poly.degree())
    leading_coeff = property(lambda self: self.poly.leading())


def power_sum_det(a: RatMatrix, h: RatMatrix) -> PowerSumResult:
    """det S(n) with the degree law re-verified at runtime.

    S(x) is the chain sum of the B_j of `exact.congruence_chain` on A^T:
    `_chain_terms` once, `_echelon(_weighted_rows)` at each node.  Entry
    (i, j) of S(x) has degree at most d_i + d_j + 1 in a Jordan basis, d_i
    the depth of i in its block, so det S has degree at most sum k_i^2
    (a change of basis scales it by a constant); it is interpolated on
    that bound plus one, at nodes centred at 0 with P(-x) = (-1)^K P(x)
    filling the negative ones, re-verified at a node past them (a miss is
    a CrossCheckError) and divided by den^K.  The degree must equal
    sum k_i^2 by `unipotent_block_profile`, the gate that proves A
    unipotent and so the mirror law, or CrossCheckError is raised.
    """
    _check_same_dim(a, h)
    profile = unipotent_block_profile(a)
    ensure_spd(h)
    den, terms = _chain_terms(congruence_chain(a.transpose(), h))
    k = a.dimension
    degree = sum(m * size * size for _, size, m in profile.entries)

    def det_at(x: int) -> int:
        weights = [comb(x, j + 1) for j in range(len(terms))]
        rank, last, _ = _echelon(_weighted_rows(terms, weights, k))
        return last if rank == k else 0

    where = f"power_sum_det at dimension {k}"
    try:
        poly = interpolate_checked(det_at, degree + 1, where, (-1) ** k)
    except DegreeBoundError as exc:  # the bound and the parity are laws
        raise CrossCheckError(str(exc)) from exc
    if poly.degree() != degree:
        raise CrossCheckError(
            f"power-sum determinant degree {poly.degree()} "
            f"differs from profile degree {degree}"
        )
    if poly.leading() <= 0:
        raise CrossCheckError("power-sum determinant has nonpositive leading term")
    return PowerSumResult(poly=UniPoly(poly.num, poly.den * den**k, "n"))


def power_sum_brute(a: RatMatrix, h: RatMatrix, n: int) -> list[Fraction]:
    """Literal summation oracle: [det S(1), ..., det S(n)] with
    S(x) = sum_{m=0}^{x-1} (A^m)^T H A^m, from one pass over the partial
    sums and no symbolic shortcut: each term is A^T T A for the term T
    before it, two `_row_product`s on integer rows over the running den
    den(H) den(A)^(2i), each det an `_echelon`.  A literal sum holds for
    any square H, so H is not checked for definiteness."""
    _check_same_dim(a, h)
    if n < 1:
        raise PreconditionError("need at least one summand")
    a_t, d2, k = tuple(zip(*a.num)), a.den * a.den, a.dimension
    term = acc = h.num
    dets = [det_exact(h)]
    for i in range(1, n):
        term = _row_product(_row_product(a_t, term), a.num)
        acc = [[d2 * s + t for s, t in zip(rs, rt)] for rs, rt in zip(acc, term)]
        rank, last, _ = _echelon(acc)
        dets.append(Fraction(last, (h.den * d2**i) ** k) if rank == k else Fraction(0))
    return dets
