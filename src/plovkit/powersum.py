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
interpolated from exact determinants of S at integer nodes, with S
summed by `exact`'s one chain sum.  A is proved unipotent once, by the
rank sequence of A - I that also yields the sizes k_i
(`jordan.unipotent_block_profile`).  Since S(n + 1) - S(n) = (A^n)^T H A^n
and S(0) = 0 hold for every integer n, S(-n) = -(A^-n)^T S(n) A^-n, and
det A = 1 gives P(-n) = (-1)^K P(n) for K = dim A: the nodes are centred
at 0, and only those at n >= 0 take a determinant.

Hermitian forms are restricted to rational symmetric positive definite
matrices so that all arithmetic stays in Q; the degree law is insensitive
to this restriction.  `power_sum_brute` keeps a literal-summation oracle
alongside the chain route.
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
    _expect,
    _weighted_rows,
    congruence_chain,
    det_exact,
    det_poly,
    mat_mul,
    submatrix,
)
from .jordan import unipotent_block_profile


def ensure_spd(h: RatMatrix) -> RatMatrix:
    """Validate symmetry and positive definiteness exactly (Sylvester:
    every leading principal minor is strictly positive)."""
    k = _expect(h, RatMatrix).dimension
    if h != h.transpose():
        raise NotSymmetricPositiveDefiniteError("matrix is not symmetric")
    idx = list(range(k))
    for t in range(1, k + 1):
        if det_exact(submatrix(h, idx[:t], idx[:t])) <= 0:
            raise NotSymmetricPositiveDefiniteError(
                f"leading principal minor {t} is not positive"
            )
    return h


@dataclass(frozen=True)
class PowerSumResult:
    """det S(n) together with its verified degree data."""

    poly: UniPoly
    degree: int
    leading_coeff: Fraction


def power_sum_det(a: RatMatrix, h: RatMatrix) -> PowerSumResult:
    """det S(n) with the degree law re-verified at runtime.

    S(x) is the chain sum of the B_j of `exact.congruence_chain` on A^T:
    `_chain_terms` once, `_weighted_rows` at each node.  In a Jordan
    basis, entry (i, j) of S(x) has degree at most d_i + d_j + 1, d_i the
    depth of i in its block, so det S has degree at most sum k_i^2 over
    the blocks (a change of basis scales it by a constant); it is
    interpolated on that bound plus one, at nodes centred at 0 with
    P(-x) = (-1)^K P(x) filling the negative ones, and re-verified at a
    node past them (a miss is a CrossCheckError).  The degree must equal
    sum k_i^2 by `unipotent_block_profile`, the gate that proves A
    unipotent and so the mirror law, or CrossCheckError is raised.
    """
    _check_same_dim(a, h)
    profile = unipotent_block_profile(a)
    ensure_spd(h)
    den, terms = _chain_terms(congruence_chain(a.transpose(), h))
    k = a.dimension
    degree = sum(m * size * size for _, size, m in profile.entries)

    def sum_at(x: int) -> RatMatrix:
        weights = [comb(x, j + 1) for j in range(len(terms))]
        return RatMatrix(_weighted_rows(terms, weights, k), den)

    try:
        poly = det_poly(sum_at, degree + 1, parity=(-1) ** k)
    except DegreeBoundError as exc:  # the bound and the parity are laws
        raise CrossCheckError(str(exc)) from exc
    if poly.degree() != degree:
        raise CrossCheckError(
            f"power-sum determinant degree {poly.degree()} "
            f"differs from profile degree {degree}"
        )
    leading = poly.leading()
    if leading <= 0:
        raise CrossCheckError("power-sum determinant has nonpositive leading term")
    return PowerSumResult(poly=poly, degree=degree, leading_coeff=leading)


def power_sum_brute(a: RatMatrix, h: RatMatrix, n: int) -> list[Fraction]:
    """Literal summation oracle: [det S(1), ..., det S(n)] with
    S(x) = sum_{m=0}^{x-1} (A^m)^T H A^m, from one pass over the partial
    sums and no symbolic shortcut: each term is A^T T A for the term T
    before it, two `mat_mul`s, none after the last determinant.  A literal
    sum holds for any square H, so H is not checked for definiteness."""
    _check_same_dim(a, h)
    if n < 1:
        raise PreconditionError("need at least one summand")
    a_t = a.transpose()
    term = acc = h
    dets = [det_exact(acc)]
    for _ in range(n - 1):
        term = mat_mul(mat_mul(a_t, term), a)
        acc = acc + term
        dets.append(det_exact(acc))
    return dets
