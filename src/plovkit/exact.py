"""Exact rational scalars, univariate polynomials, and square matrices.

Everything in this package is computed exactly over Q; no floating
point appears anywhere.  This module is the substrate shared by the rest
of the library:

  * `UniPoly` -- dense univariate polynomial over Q with
    `fractions.Fraction` coefficients, a value type that is built from
    coefficients or by interpolation, evaluated and printed; its
    variable tag ('t' for characteristic polynomials, 'n' for growth
    polynomials) names the indeterminate in `str` and in reports,
  * `RatMatrix` -- immutable square matrices over Q, stored as integer
    rows `num` over one positive common denominator `den` in lowest
    terms, so the matrix kernel (products, powers, sums, minors,
    eliminations) runs on Python ints, and so do the 2-forms of
    `cohomology`, which are skew-symmetric `RatMatrix`es; `.entries` is
    a cached read-only view of the same matrix as rows of `Fraction`s,
    read by the report encoder (`cli.enc_matrix`), by `randgen` and by
    the oracles in `selfcheck`, never by the kernel,
  * sums of pullbacks, the symmetric S(n) of `powersum` and the
    alternating Delta_n of `cohomology`: `congruence_chain`, the D^i X
    of D X = M X M^T - X, weighted by one `combiner`,
  * one fraction-free (Bareiss) row echelon routine on the integer rows,
    which gives both the exact determinant, det(num) / den^K, and the
    exact rank, rank(num),
  * `char_poly` -- det(t*I - M) from one Hessenberg reduction of the
    integer rows modulo a Mersenne prime above twice a Hadamard bound on
    the coefficients (several primes joined by the Chinese remainder
    theorem when the bound is past the table), which is exact,
  * polynomials rebuilt from exact values at the nodes 0..D by a single
    interpolation routine (forward differences into the binomial basis,
    expanded by Horner's rule) that `interpolate_checked` re-verifies at
    the node D + 1, naming its caller when they differ; `det_poly` and
    `cohomology.intersection_poly` are both built on it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial, gcd, lcm
from operator import mul
from typing import Callable, Iterable, Sequence, Union

from .errors import CrossCheckError, DimensionMismatchError, PreconditionError

Scalar = Union[int, Fraction]

#: Degree of the zero polynomial, strictly below every integer.
NEG_INF = float("-inf")


def _frac(x: Scalar) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__!r}")


# ---------------------------------------------------------------------------
# univariate polynomials


@dataclass(frozen=True)
class UniPoly:
    """Dense univariate polynomial over Q.

    ``coeffs[i]`` is the coefficient of the i-th power of the variable;
    the trailing coefficient is nonzero unless the polynomial is zero.
    The variable tag names the indeterminate in `str` and in reports.
    There is no polynomial arithmetic: a `UniPoly` is built, evaluated
    at exact rationals and printed, and compares and hashes by value.
    """

    coeffs: tuple[Fraction, ...]
    var: str = "t"

    @staticmethod
    def from_coeffs(coeffs: Iterable[Scalar], var: str = "t") -> "UniPoly":
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return UniPoly(tuple(cs), var)

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self):
        """Degree of the polynomial; NEG_INF for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def leading(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def coefficient(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def is_integral(self) -> bool:
        """True when every coefficient is an integer."""
        return all(c.denominator == 1 for c in self.coeffs)

    def __call__(self, x: Scalar) -> Fraction:
        x = _frac(x)
        value = Fraction(0)
        for c in reversed(self.coeffs):
            value = value * x + c
        return value

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                head = "" if mag == 1 else f"{mag}*"
                body = f"{head}{self.var}" + (f"^{i}" if i > 1 else "")
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text


def _interpolate(values: Sequence[Scalar], var: str) -> UniPoly:
    """The polynomial of degree < len(values) that takes values[x] at
    x = 0, 1, ..., D.

    Forward differences give the coefficients a_i in the binomial basis,
    p(x) = sum_i a_i C(x, i), and Horner's rule with
    C(x, i+1) = C(x, i) (x - i) / (i + 1) expands them; no polynomial
    division is needed.  Denominators are cleared once and D! is divided
    out at the end, so the loops run on integers.
    """
    d = len(values) - 1
    scale = lcm(*(v.denominator for v in values))
    diffs = [int(v * scale) for v in values]
    newton = []
    while diffs:
        newton.append(diffs[0])
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    # scale * d! * p(x) = sum_i newton[i] * (d!/i!) * x(x-1)...(x-i+1)
    acc: list[int] = []
    weight = 1  # d!/i!
    for i in range(d, -1, -1):
        shifted = [0] + acc
        for j, c in enumerate(acc):
            shifted[j] -= i * c
        shifted[0] += newton[i] * weight
        acc = shifted
        weight *= i
    denominator = scale * factorial(d)
    return UniPoly.from_coeffs((Fraction(c, denominator) for c in acc), var)


# ---------------------------------------------------------------------------
# matrices over Q


@dataclass(frozen=True)
class RatMatrix:
    """Immutable square matrix over Q, stored as integer rows over one
    common denominator: the matrix is ``num / den``.

    The storage is canonical: ``den`` is positive and
    gcd(den, every entry of ``num``) = 1, so equal matrices have equal
    fields, and equality and hashing work by value.  ``RatMatrix(num, den)``
    takes integer row tuples (anything else raises TypeError) and reduces
    them; `from_rows` builds a matrix from rational entries.
    """

    num: tuple[tuple[int, ...], ...]
    den: int = 1

    def __post_init__(self):
        den = self.den
        if den == 0:
            raise ZeroDivisionError("matrix denominator is zero")
        try:
            # with den = 1 this only checks that every entry is an integer
            g = gcd(den, *itertools.chain.from_iterable(self.num))
        except TypeError:
            raise TypeError(
                "RatMatrix rows hold ints; build rational entries with from_rows"
            ) from None
        if den < 0:
            g = -g
        if g != 1:
            object.__setattr__(
                self, "num", tuple(tuple(x // g for x in row) for row in self.num)
            )
            object.__setattr__(self, "den", den // g)

    @cached_property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as rows of `Fraction`s, built on first use."""
        den = self.den
        return tuple(tuple(Fraction(x, den) for x in row) for row in self.num)

    @staticmethod
    def from_rows(rows: Iterable[Iterable[Scalar]]) -> "RatMatrix":
        grid = [[_frac(x) for x in row] for row in rows]
        k = len(grid)
        if k == 0 or any(len(row) != k for row in grid):
            raise DimensionMismatchError("matrix must be square and nonempty")
        den = lcm(*(c.denominator for row in grid for c in row))
        return RatMatrix(
            tuple(
                tuple(c.numerator * (den // c.denominator) for c in row)
                for row in grid
            ),
            den,
        )

    @staticmethod
    def identity(k: int) -> "RatMatrix":
        return RatMatrix(tuple(tuple(int(i == j) for j in range(k)) for i in range(k)))

    @staticmethod
    def zero(k: int) -> "RatMatrix":
        return RatMatrix(((0,) * k,) * k)

    @staticmethod
    def jordan_block(eigenvalue: Scalar, size: int) -> "RatMatrix":
        """Upper-triangular Jordan block with 1 on the superdiagonal."""
        e = _frac(eigenvalue)
        return RatMatrix.from_rows(
            [
                [e if i == j else 1 if j == i + 1 else 0 for j in range(size)]
                for i in range(size)
            ]
        )

    @staticmethod
    def companion(p: UniPoly) -> "RatMatrix":
        """Companion matrix of a monic polynomial of degree >= 1."""
        d = p.degree()
        if d is NEG_INF or d < 1 or p.leading() != 1:
            raise PreconditionError(
                "companion matrix needs a monic nonconstant polynomial"
            )
        return RatMatrix.from_rows(
            [
                [
                    -p.coefficient(i)
                    if j == d - 1
                    else 1
                    if i == j + 1
                    else 0
                    for j in range(d)
                ]
                for i in range(d)
            ]
        )

    @staticmethod
    def block_diag(*blocks: "RatMatrix") -> "RatMatrix":
        k = sum(b.dimension for b in blocks)
        if k == 0:
            raise DimensionMismatchError("matrix must be square and nonempty")
        den = lcm(*(b.den for b in blocks))
        rows = [[0] * k for _ in range(k)]
        offset = 0
        for b in blocks:
            f = den // b.den
            for i, row in enumerate(b.num):
                rows[offset + i][offset : offset + b.dimension] = [f * x for x in row]
            offset += b.dimension
        return RatMatrix(tuple(map(tuple, rows)), den)

    @property
    def dimension(self) -> int:
        return len(self.num)

    def transpose(self) -> "RatMatrix":
        return RatMatrix(tuple(zip(*self.num)), self.den)

    def trace(self) -> Fraction:
        return Fraction(sum(row[i] for i, row in enumerate(self.num)), self.den)

    def _plus(self, other: "RatMatrix", sign: int) -> "RatMatrix":
        _check_same_dim(self, other)
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        return RatMatrix(
            tuple(
                tuple(fa * x + fb * y for x, y in zip(ra, rb))
                for ra, rb in zip(self.num, other.num)
            ),
            den,
        )

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        return self._plus(other, 1)

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        return self._plus(other, -1)

    def __mul__(self, other):
        if isinstance(other, RatMatrix):
            return mat_mul(self, other)
        c = _frac(other)
        return RatMatrix(
            tuple(tuple(c.numerator * x for x in row) for row in self.num),
            self.den * c.denominator,
        )

    def __rmul__(self, other):
        return self.__mul__(other)


def _check_same_dim(a: RatMatrix, b: RatMatrix) -> None:
    if a.dimension != b.dimension:
        raise DimensionMismatchError(
            f"dimension mismatch: {a.dimension} vs {b.dimension}"
        )


def mat_mul(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """Exact matrix product: the integer rows are multiplied and the
    denominators too, then reduced by one gcd pass (none when the product
    of the denominators is 1).  Zero entries are skipped, which keeps
    products of the sparse nilpotent matrices used elsewhere cheap."""
    _check_same_dim(a, b)
    k = a.dimension
    brows = b.num
    out = []
    for arow in a.num:
        acc = [0] * k
        for idx, aval in enumerate(arow):
            if aval:
                for j, bval in enumerate(brows[idx]):
                    if bval:
                        acc[j] += aval * bval
        out.append(tuple(acc))
    return RatMatrix(tuple(out), a.den * b.den)


def mat_pow(a: RatMatrix, e: int) -> RatMatrix:
    """a**e by binary exponentiation; a**0 is the identity.  The result
    starts from a power of a, never from I, so a**e costs
    e.bit_length() + popcount(e) - 2 products."""
    if e < 0:
        raise PreconditionError("negative matrix power")
    if e == 0:
        return RatMatrix.identity(a.dimension)
    while not e & 1:
        a = mat_mul(a, a)
        e >>= 1
    result = a
    while e := e >> 1:
        a = mat_mul(a, a)
        if e & 1:
            result = mat_mul(result, a)
    return result


def congruence_chain(m: RatMatrix, x: RatMatrix) -> list[RatMatrix]:
    """[X, D X, D^2 X, ...] for D X = M X M^T - X, up to the last nonzero
    term, so that sum_{j<n} M^j X (M^j)^T = sum_i C(n, i + 1) D^i X.  For
    unipotent M = I + N, D = (1 + L)(1 + R) - 1 with the commuting
    L X = N X and R X = X N^T, so D^(2K - 1) = 0; else CrossCheckError."""
    mt = m.transpose()
    chain = [x]
    for _ in range(2 * m.dimension - 1):
        nxt = mat_mul(mat_mul(m, chain[-1]), mt) - chain[-1]
        if not any(map(any, nxt.num)):
            return chain
        chain.append(nxt)
    raise CrossCheckError(
        f"congruence_chain: D^(2K - 1) X is nonzero at dimension K = {m.dimension}"
    )


def combiner(mats: Sequence[RatMatrix]) -> Callable[[Sequence[int]], RatMatrix]:
    """The map from integer weights w, one per matrix, to sum_i w_i mats[i].
    The nonzero entries are put over one common denominator once, and a
    call adds up the entries of the matrices with a nonzero weight.  The
    map carries ``count`` and ``dimension``; mixed dimensions, or weights
    of another length, raise DimensionMismatchError."""
    dims = {m.dimension for m in mats}
    if len(dims) != 1:
        raise DimensionMismatchError(f"combiner: dimensions {sorted(dims)}")
    (k,) = dims
    den = lcm(*(m.den for m in mats))
    terms = [
        [(i, v * (den // m.den)) for i, v in enumerate(itertools.chain(*m.num)) if v]
        for m in mats
    ]

    def combine(weights: Sequence[int]) -> RatMatrix:
        if len(weights) != len(terms):
            raise DimensionMismatchError(f"combiner: {len(weights)} weights")
        acc = [0] * (k * k)
        for w, term in zip(weights, terms):
            if w:
                for i, v in term:
                    acc[i] += w * v
        return RatMatrix(tuple(tuple(acc[r : r + k]) for r in range(0, k * k, k)), den)

    combine.count, combine.dimension = len(mats), k
    return combine


def _echelon(num: Sequence[Sequence[int]]) -> tuple[int, int]:
    """Fraction-free (Bareiss) row echelon form of an integer matrix.

    All arithmetic stays in Z with the usual Bareiss control on entry
    growth.  A column with no pivot is skipped; the divisions stay exact,
    because every entry after a step is a minor of the matrix on the
    pivot rows and columns so far.  A row with a zero in the pivot column
    is only rescaled by pivot / prev, and left as it is when that is 1.
    Returns (rank, last): `last` is the last pivot with the sign of the
    row swaps, which is the determinant when the rank is full.
    """
    a = [list(row) for row in num]
    k = len(a)
    sign = 1
    prev = 1
    rank = 0
    for col in range(k):
        piv = next((r for r in range(rank, k) if a[r][col]), None)
        if piv is None:
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
            sign = -sign
        crow = a[rank]
        pivot = crow[col]
        for r in range(rank + 1, k):
            arow = a[r]
            head = arow[col]
            if head:
                for c in range(col + 1, k):
                    arow[c] = (arow[c] * pivot - head * crow[c]) // prev
            elif pivot != prev:
                for c in range(col + 1, k):
                    arow[c] = arow[c] * pivot // prev
        prev = pivot
        rank += 1
    return rank, sign * prev


def det_exact(m: RatMatrix) -> Fraction:
    """Exact determinant: det(num) / den^k, with det(num) read off the
    fraction-free row echelon form."""
    rank, last = _echelon(m.num)
    k = m.dimension
    return Fraction(last, m.den**k) if rank == k else Fraction(0)


def rank_exact(m: RatMatrix) -> int:
    """Rank over Q: the rank of the integer rows, read off the
    fraction-free row echelon form."""
    return _echelon(m.num)[0]


#: The exponents e of every Mersenne prime 2^e - 1 up to e = 4423, the
#: moduli of `char_poly`; the tests prove each one prime by Lucas-Lehmer.
MERSENNE_EXPONENTS = (
    2, 3, 5, 7, 13, 17, 19, 31, 61, 89, 107, 127,
    521, 607, 1279, 2203, 2281, 3217, 4253, 4423,
)
_MERSENNE_PRIMES = tuple((1 << e) - 1 for e in MERSENNE_EXPONENTS)


def _moduli(bound: int) -> list[int]:
    """Table primes whose product exceeds 2*bound: the smallest single
    prime that does, or else the largest primes of the table, as many as
    needed."""
    single = next((p for p in _MERSENNE_PRIMES if p > 2 * bound), None)
    if single is not None:
        return [single]
    chosen, product = [], 1
    for p in reversed(_MERSENNE_PRIMES):
        chosen.append(p)
        product *= p
        if product > 2 * bound:
            return chosen
    raise PreconditionError(
        f"char_poly: coefficient bound of {bound.bit_length()} bits exceeds "
        "the product of the Mersenne prime table"
    )


def _char_poly_mod(num: Sequence[Sequence[int]], p: int) -> list[int]:
    """det(t*I - A) mod p for an integer matrix A, coefficients in 0..p-1,
    lowest degree first.

    A is reduced to upper Hessenberg form H by similarity over F_p: for
    each column m - 1, a row with a nonzero entry below the diagonal is
    swapped up to row m (with the matching column swap), each later row i
    loses u_i times row m, and column m gains sum_i u_i times column i.
    The column update is done once per column: the elementary matrices
    of one column commute and none of them moves column m - 1.  The
    entries that the row updates would clear below the subdiagonal are
    left as they are, since nothing reads them again.  Then the
    recurrence p_0 = 1,
    p_{m+1} = (t - H[m][m]) p_m - sum_{i<m} H[i][m] H[i+1][i]...H[m][m-1] p_i
    gives det(t*I - H) (H. Cohen, GTM 138, Algorithm 2.2.9).
    """
    h = [[x % p for x in row] for row in num]
    k = len(h)
    for m in range(1, k - 1):
        piv = next((i for i in range(m, k) if h[i][m - 1]), None)
        if piv is None:
            continue
        if piv != m:
            h[m], h[piv] = h[piv], h[m]
            for row in h:
                row[m], row[piv] = row[piv], row[m]
        prow = h[m]
        inv = pow(prow[m - 1], -1, p)
        tail = prow[m:]
        us = []
        for i in range(m + 1, k):
            row = h[i]
            u = row[m - 1] * inv % p
            us.append(u)
            if u:
                row[m:] = [(a - u * b) % p for a, b in zip(row[m:], tail)]
        if any(us):
            for row in h:
                row[m] = (row[m] + sum(map(mul, us, row[m + 1 :]))) % p
    polys = [[1]]
    for m in range(k):
        prev = polys[m]
        nxt = [0] + prev
        diag = h[m][m]
        for d, c in enumerate(prev):
            nxt[d] -= diag * c
        chain = 1
        for i in range(m - 1, -1, -1):
            chain = chain * h[i + 1][i] % p
            if not chain:
                break
            c = h[i][m] * chain % p
            if c:
                for d, a in enumerate(polys[i]):
                    nxt[d] -= c * a
        polys.append([c % p for c in nxt])
    return polys[k]


def char_poly(m: RatMatrix) -> UniPoly:
    """Characteristic polynomial det(t*I - M), monic of degree = dimension.

    With M = num/den, det(t*I - M) = sum_k c_k t^k / den^(K-k), where
    c_k is the coefficient of the integer polynomial det(t*I - num).  Up
    to sign, c_k is a sum of principal minors of num, so by Hadamard
    |c_k| <= B = prod_i (1 + sum_j |num[i][j]|).  Each c_k is computed
    modulo table primes whose product P exceeds 2B (`_char_poly_mod`,
    one Hessenberg reduction per prime; one prime unless B is past the
    table), combined by the Chinese remainder theorem and read as the
    residue of least absolute value, which is exact.  The trace law
    c_(K-1) = -tr(num), taken on the integer rows, is re-verified.
    """
    k = m.dimension
    num = m.num
    bound = 1
    for row in num:
        bound *= 1 + sum(map(abs, row))
    coeffs = [0] * (k + 1)
    modulus = 1
    for p in _moduli(bound):
        inv = pow(modulus, -1, p)
        coeffs = [
            c + modulus * ((r - c) * inv % p)
            for c, r in zip(coeffs, _char_poly_mod(num, p))
        ]
        modulus *= p
    half = modulus // 2
    coeffs = [c - modulus if c > half else c for c in coeffs]
    if coeffs[k - 1] != -sum(row[i] for i, row in enumerate(num)):
        raise CrossCheckError(
            f"char_poly: trace law c_(K-1) = -tr(M) fails at dimension {k}"
        )
    den = m.den
    return UniPoly(
        tuple(Fraction(c, den ** (k - i)) for i, c in enumerate(coeffs)), "t"
    )


def poly_at_matrix(p: UniPoly, m: RatMatrix) -> RatMatrix:
    """Evaluate a polynomial at a square matrix (Horner scheme)."""
    k = m.dimension
    result = RatMatrix.zero(k)
    ident = RatMatrix.identity(k)
    for c in reversed(p.coeffs):
        result = mat_mul(result, m)
        if c:
            result = result + ident * c
    return result


def submatrix(
    m: RatMatrix, rows: Sequence[int], cols: Sequence[int]
) -> RatMatrix:
    return RatMatrix(tuple(tuple(m.num[i][j] for j in cols) for i in rows), m.den)


def interpolate_checked(
    value_at: Callable[[int], Scalar], degree_bound: int, caller: str
) -> UniPoly:
    """The polynomial in n through value_at(x) at x = 0..degree_bound,
    re-verified at one more node: an undersized bound (a caller bug)
    raises a CrossCheckError naming `caller`."""
    if degree_bound < 0:
        raise PreconditionError("degree bound must be nonnegative")
    p = _interpolate([value_at(x) for x in range(degree_bound + 1)], "n")
    if p(degree_bound + 1) != value_at(degree_bound + 1):
        raise CrossCheckError(
            f"{caller} verification node mismatch (degree bound too small?)"
        )
    return p


def det_poly(matrix_at: Callable[[int], RatMatrix], degree_bound: int) -> UniPoly:
    """Exact determinant, as a polynomial in n, of a matrix whose entries
    are polynomials in n; ``matrix_at(x)`` is that matrix at the integer x.
    Interpolated from exact determinants at n = 0..degree_bound."""
    return interpolate_checked(
        lambda x: det_exact(matrix_at(x)), degree_bound, "det_poly"
    )
