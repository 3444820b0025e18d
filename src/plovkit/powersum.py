"""Determinants of power sums attached to unipotent matrices.

For a unipotent A and a symmetric positive definite H over Q, the matrix
S(n) = sum_{m=0}^{n-1} (A^m)^T H A^m has polynomial entries in n, and its
determinant P(n) is a polynomial whose degree equals sum k_i^2 over the
Jordan block sizes k_i of A -- independent of H and invariant under
similarity.  The leading coefficient for a single block of size k is
(prod_{i<k} i!)^2 / prod_{i<2k} i!, a Hilbert-matrix determinant in
disguise; both closed forms are oracles in `selfcheck`
(`single_block_leading_coeff`, `hilbert_det`).

With N = A - I, A^m = sum_i C(m, i) N^i, and C(m, i) C(m, j) =
sum_s C(s, i) C(i, s - j) C(m, s); summing C(m, s) over m < n gives
C(n, s + 1).  So S(n) = sum_s C(n, s + 1) B_s with constant matrices
B_s = sum_{i,j} C(s, i) C(i, s - j) (N^i)^T H N^j, and P(n) is
interpolated from exact determinants of S at integer nodes.

Hermitian forms are restricted to rational symmetric positive definite
matrices so that all arithmetic stays in Q; the degree law is insensitive
to this restriction.  `power_sum_brute` keeps a literal-summation oracle
alongside the binomial route.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm

from .errors import (
    CrossCheckError,
    DimensionMismatchError,
    NotSymmetricPositiveDefiniteError,
    NotUnipotentError,
    PreconditionError,
)
from .exact import (
    RatMatrix,
    UniPoly,
    det_exact,
    det_poly,
    mat_mul,
    submatrix,
)
from .cyclotomic import is_unipotent
from .jordan import unipotent_block_profile


def ensure_spd(h: RatMatrix) -> RatMatrix:
    """Validate symmetry and positive definiteness exactly (Sylvester:
    every leading principal minor is strictly positive)."""
    k = h.dimension
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


def _nilpotent_powers(a: RatMatrix) -> list[RatMatrix]:
    """[I, N, N^2, ...] for N = A - I, up to the last nonzero power; the
    caller has checked that A is unipotent, so N is nilpotent."""
    k = a.dimension
    nil = a - RatMatrix.identity(k)
    powers = [RatMatrix.identity(k)]
    current = nil
    while any(map(any, current.num)):
        powers.append(current)
        current = mat_mul(current, nil)
    return powers


def power_sum_matrix(a: RatMatrix, h: RatMatrix) -> list[RatMatrix]:
    """The constant matrices [B_0, ..., B_{2L-2}] with
    S(x) = sum_j C(x, j + 1) B_j = sum_{m=0}^{x-1} (A^m)^T H A^m at every
    integer x >= 0, where L is the number of powers of N = A - I up to the
    last nonzero one.

    B_s = sum over max(i, j) <= s <= i + j of C(s, i) C(i, s - j) T_ij with
    T_ij = (N^i)^T H N^j; the sums skip zero entries and run on the integer
    rows over one common denominator, D^2 * den(H) with D the lcm of the
    denominators of the powers of N.
    """
    if a.dimension != h.dimension:
        raise DimensionMismatchError("matrix and form dimensions differ")
    if not is_unipotent(a):
        raise NotUnipotentError("power sums require a unipotent matrix")
    ensure_spd(h)
    k = a.dimension
    powers = _nilpotent_powers(a)
    den = lcm(*(p.den for p in powers)) ** 2 * h.den
    sums = [[0] * (k * k) for _ in range(2 * len(powers) - 1)]
    for i, ni in enumerate(powers):
        left = mat_mul(ni.transpose(), h)
        for j, nj in enumerate(powers):
            t = mat_mul(left, nj)
            f = den // t.den
            term = [
                (row * k + col, f * c)
                for row, line in enumerate(t.num)
                for col, c in enumerate(line)
                if c
            ]
            for s in range(max(i, j), i + j + 1):
                weight = comb(s, i) * comb(i, s - j)
                acc = sums[s]
                for idx, c in term:
                    acc[idx] += weight * c
    return [
        RatMatrix(tuple(tuple(flat[r * k : (r + 1) * k]) for r in range(k)), den)
        for flat in sums
    ]


def power_sum_det(a: RatMatrix, h: RatMatrix) -> PowerSumResult:
    """det S(n) with the degree law re-verified at runtime.

    S(x) is evaluated from the B_j of `power_sum_matrix`; row r of S has
    degree at most max{j + 1 : row r of B_j is nonzero}, and the sum of
    these row degrees bounds the degree of the determinant.  The degree
    must equal sum k_i^2 over the Jordan blocks of A, read by
    `unipotent_block_profile` since A is already known to be unipotent; a
    mismatch can only come from an arithmetic bug and raises
    CrossCheckError.
    """
    bs = power_sum_matrix(a, h)
    k = a.dimension
    bound = sum(
        max((j + 1 for j, b in enumerate(bs) if any(b.num[r])), default=0)
        for r in range(k)
    )
    # scale * B_j as lists of nonzero (flat index, int) entries
    scale = lcm(*(b.den for b in bs))
    terms = [
        [
            (r * k + col, c * (scale // b.den))
            for r, line in enumerate(b.num)
            for col, c in enumerate(line)
            if c
        ]
        for b in bs
    ]

    def s_at(x: int) -> RatMatrix:
        acc = [0] * (k * k)
        weight = 1  # C(x, j) before the update, C(x, j + 1) after it
        for j, term in enumerate(terms):
            weight = weight * (x - j) // (j + 1)
            if not weight:
                break
            for idx, c in term:
                acc[idx] += weight * c
        return RatMatrix(
            tuple(tuple(acc[r * k : (r + 1) * k]) for r in range(k)), scale
        )

    poly = det_poly(s_at, bound)
    profile = unipotent_block_profile(a)
    degree = sum(m * size * size for _, size, m in profile.entries)
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
    sums and no symbolic shortcut."""
    if a.dimension != h.dimension:
        raise DimensionMismatchError("matrix and form dimensions differ")
    ensure_spd(h)
    if n < 1:
        raise PreconditionError("need at least one summand")
    k = a.dimension
    acc = RatMatrix.zero(k)
    power = RatMatrix.identity(k)
    dets = []
    for _ in range(n):
        acc = acc + mat_mul(mat_mul(power.transpose(), h), power)
        dets.append(det_exact(acc))
        power = mat_mul(power, a)
    return dets
