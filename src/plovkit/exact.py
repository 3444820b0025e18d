"""Exact rational scalars, univariate polynomials, and square matrices.

Everything in this package is computed exactly over Q; no floating
point appears anywhere.  This module is the substrate shared by the rest
of the library:

  * `UniPoly` -- dense univariate polynomial over Q, stored as integer
    coefficients `num` over one positive common denominator `den` in
    lowest terms, a value type that is built from coefficients or by
    interpolation, evaluated (Horner's rule on ints, one `Fraction` at
    the end) and printed, whose `degree()` is an int (-1 for the zero
    polynomial); `.coeffs` is a cached read-only view of the
    coefficients as `Fraction`s, read by `str` and by the oracles, and
    its variable tag ('t' for characteristic polynomials, 'n' for growth
    polynomials) names the indeterminate in `str` and in reports,
  * `RatMatrix` -- immutable square matrices over Q, stored the same
    way, as integer rows `num` over one positive common denominator
    `den` in lowest terms, so the matrix kernel (products, powers, sums,
    minors, eliminations, polynomials at a matrix by Horner's rule with
    one division at the end) runs on Python ints, as do the 2-forms of
    `cohomology`, skew-symmetric `RatMatrix`es; `.entries` is a cached
    read-only view of the matrix as rows of `Fraction`s, read by the
    `selfcheck` oracles, never by the kernel or report encoder,
  * sums of pullbacks, the symmetric S(n) of `powersum` and the
    alternating Delta_n of `cohomology`: `congruence_chain`, the D^i X
    of D X = M X M^T - X, weighted by one chain sum for both:
    `_chain_terms` over the common denominator, `_weighted_rows` per sum,
  * one fraction-free (Bareiss) row echelon routine on the integer rows,
    which gives the exact determinant, det(num) / den^K, the exact rank,
    rank(num), and, pivot by pivot, the leading principal minors,
  * `char_poly` -- det(t*I - M) from one Hessenberg reduction of the
    integer rows modulo a Mersenne prime above twice a Hadamard bound on
    the coefficients (several primes joined by the Chinese remainder
    theorem when the bound is past the table), which is exact,
  * polynomials rebuilt from exact values at D + 1 consecutive nodes by a
    single interpolation routine (forward differences into the binomial
    basis at the first node, expanded by Horner's rule) that
    `interpolate_checked` re-verifies at one more node, naming its
    caller, the node and the dimension when they differ.  One node rule:
    the nodes start at 0, or at -floor(D/2) for a caller that has proved
    p(-x) = parity * p(x), and every value is computed at x >= 0, a
    negative node taking parity * p(-x).  `powersum.power_sum_det` and
    `cohomology.intersection_poly` are built on it, each on the integer
    rows of its sums; each caller states its own degree bound.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial, gcd, lcm
from operator import mul
from typing import Callable, Iterable, Optional, Sequence, Union

from .errors import (
    CrossCheckError,
    DegreeBoundError,
    DimensionMismatchError,
    PreconditionError,
)

Scalar = Union[int, Fraction]


def _scalar(x: Scalar) -> Scalar:
    """x as it is: an int or a `Fraction`, both with .numerator and .denominator."""
    if isinstance(x, (int, Fraction)):
        return x
    raise TypeError(f"expected an exact rational, got {type(x).__name__!r}")


def _expect(value, cls: type):
    """`value` when it is a `cls`, else TypeError: the one type guard of
    the records the routes take (`RatMatrix`, `UniPoly`, `JordanProfile`,
    `TwoForm` and its coefficient dict)."""
    if isinstance(value, cls):
        return value
    raise TypeError(f"expected a {cls.__name__}, got {type(value).__name__!r}")


def _lowest_terms(den: int, values: Iterable[int], kind: str, constructor: str) -> int:
    """gcd(den, *values) with the sign of den: the divisor that leaves the
    integer storage of a `UniPoly` or `RatMatrix` in lowest terms over a
    positive denominator.  A non-int raises TypeError, a zero den
    PreconditionError."""
    try:
        # with den = 1 this only checks that every value is an integer
        g = gcd(den, *values)
    except TypeError:
        raise TypeError(
            f"a {kind} is stored as ints over an int denominator; "
            f"build rational values with {constructor}"
        ) from None
    if den == 0:
        raise PreconditionError(f"{kind} denominator is zero")
    return -g if den < 0 else g


# ---------------------------------------------------------------------------
# univariate polynomials


@dataclass(frozen=True)
class UniPoly:
    """Dense univariate polynomial over Q, stored as integer coefficients
    over one common denominator: coefficient i is ``num[i] / den``.

    The storage is canonical: ``num`` has no trailing zeros, ``den`` is
    positive and gcd(den, every coefficient) = 1, so equal polynomials
    have equal fields, and equality and hashing work by value.
    ``UniPoly(num, den, var)`` takes integer coefficients, lowest degree
    first (a non-integer coefficient or denominator raises TypeError, a
    zero ``den`` PreconditionError) and reduces them; `from_coeffs` builds
    a polynomial from rational coefficients.  The variable tag names the
    indeterminate in `str` and in reports.  There is no polynomial
    arithmetic: a `UniPoly` is built, evaluated at exact rationals and
    printed.
    """

    num: tuple[int, ...]
    den: int = 1
    var: str = "t"

    def __post_init__(self):
        num = tuple(self.num)
        g = _lowest_terms(self.den, num, "polynomial", "UniPoly.from_coeffs")
        while num and not num[-1]:
            num = num[:-1]
        if g != 1:
            num = tuple(c // g for c in num)
            object.__setattr__(self, "den", self.den // g)
        object.__setattr__(self, "num", num)

    @cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as `Fraction`s, lowest degree first, built on
        first use."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    @staticmethod
    def from_coeffs(coeffs: Iterable[Scalar], var: str = "t") -> "UniPoly":
        cs = [_scalar(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        return UniPoly(
            tuple(c.numerator * (den // c.denominator) for c in cs), den, var
        )

    def is_zero(self) -> bool:
        return not self.num

    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.num) - 1

    def leading(self) -> Fraction:
        return Fraction(self.num[-1], self.den) if self.num else Fraction(0)

    def is_integral(self) -> bool:
        """True when every coefficient is an integer."""
        return self.den == 1

    def __call__(self, x: Scalar) -> Fraction:
        """p(x) by Horner's rule on ints: with x = a/b in lowest terms and
        d the degree, b^d * den * p(x) = sum_i num[i] a^i b^(d - i), and
        one `Fraction` is built at the end."""
        x = _scalar(x)
        a, b = x.numerator, x.denominator
        value, power = 0, 1
        for c in reversed(self.num):
            value = value * a + c * power
            power *= b
        return Fraction(value * b, self.den * power)  # power = b^(d + 1)

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


def _interpolate(values: Sequence[Scalar], start: int = 0) -> UniPoly:
    """The polynomial in n of degree < len(values) that takes values[i]
    at x = start + i, for i = 0, 1, ..., D.

    Forward differences give the coefficients a_i in the binomial basis,
    p(x) = sum_i a_i C(x - start, i), and Horner's rule with
    C(x - start, i+1) = C(x - start, i) (x - start - i) / (i + 1) expands
    them; no polynomial division is needed.  Denominators are cleared
    once, and the integer coefficients of lcm(denominators) * D! * p are
    returned over that denominator, so the loops and the result stay on
    integers.
    """
    d = len(values) - 1
    scale = lcm(*(v.denominator for v in values))
    diffs = [v.numerator * (scale // v.denominator) for v in values]
    newton = []
    while diffs:
        newton.append(diffs[0])
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    # scale * d! * p(x) = sum_i newton[i] * (d!/i!) * prod_{j<i} (x - start - j)
    acc: list[int] = []
    weight = 1  # d!/i!
    for i in range(d, -1, -1):
        shifted = [0] + acc
        for j, c in enumerate(acc):
            shifted[j] -= (start + i) * c
        shifted[0] += newton[i] * weight
        acc = shifted
        weight *= i
    return UniPoly(tuple(acc), scale * factorial(d), "n")


# ---------------------------------------------------------------------------
# matrices over Q


@dataclass(frozen=True)
class RatMatrix:
    """Immutable square matrix over Q, stored as integer rows over one
    common denominator: the matrix is ``num / den``.

    The storage is canonical: ``den`` is positive and
    gcd(den, every entry of ``num``) = 1, so equal matrices have equal
    fields, and equality and hashing work by value.  ``RatMatrix(num, den)``
    takes k >= 1 integer rows of length k, stored as tuples whatever
    iterables they come in (a non-integer raises
    TypeError, a zero ``den`` PreconditionError, any other shape
    DimensionMismatchError) and reduces them;
    every constructor goes through it, and `from_rows` builds a matrix
    from rational entries.
    """

    num: tuple[tuple[int, ...], ...]
    den: int = 1

    def __post_init__(self):
        if type(self.num) is not tuple or {*map(type, self.num)} - {tuple}:
            # rows given as lists (or other iterables) are stored as tuples
            object.__setattr__(self, "num", tuple(map(tuple, self.num)))
        flat = itertools.chain.from_iterable(self.num)
        g = _lowest_terms(self.den, flat, "matrix", "RatMatrix.from_rows")
        if {*map(len, self.num)} != {len(self.num)}:
            raise DimensionMismatchError("matrix must be square and nonempty")
        if g != 1:
            object.__setattr__(
                self, "num", tuple(tuple(x // g for x in row) for row in self.num)
            )
            object.__setattr__(self, "den", self.den // g)

    @cached_property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as rows of `Fraction`s, built on first use."""
        den = self.den
        return tuple(tuple(Fraction(x, den) for x in row) for row in self.num)

    @staticmethod
    def from_rows(rows: Iterable[Iterable[Scalar]]) -> "RatMatrix":
        """The matrix of rational entries.  When every entry is of type
        int, the rows are stored as they are; otherwise each entry goes
        through `_scalar`, and a bool is stored as the int it equals."""
        grid = [list(row) for row in rows]
        if {*map(type, itertools.chain.from_iterable(grid))} == {int}:
            return RatMatrix(grid)
        grid = [[_scalar(x) for x in row] for row in grid]
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
        e = _scalar(eigenvalue)
        return RatMatrix.from_rows(
            [
                [e if i == j else 1 if j == i + 1 else 0 for j in range(size)]
                for i in range(size)
            ]
        )

    @staticmethod
    def companion(p: UniPoly) -> "RatMatrix":
        """Companion matrix of a monic polynomial of degree >= 1."""
        d = _expect(p, UniPoly).degree()
        if d < 1 or p.leading() != 1:
            raise PreconditionError(
                "companion matrix needs a monic nonconstant polynomial"
            )
        num, den = p.num, p.den
        return RatMatrix(
            tuple(
                tuple(
                    -num[i] if j == d - 1 else den if i == j + 1 else 0
                    for j in range(d)
                )
                for i in range(d)
            ),
            den,
        )

    @staticmethod
    def block_diag(*blocks: "RatMatrix") -> "RatMatrix":
        k = sum(_expect(b, RatMatrix).dimension for b in blocks)
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
        c = _scalar(other)
        return RatMatrix(
            tuple(tuple(c.numerator * x for x in row) for row in self.num),
            self.den * c.denominator,
        )

    def __rmul__(self, other):
        return self.__mul__(other)


def _check_same_dim(a: RatMatrix, b: RatMatrix) -> None:
    if _expect(a, RatMatrix).dimension != _expect(b, RatMatrix).dimension:
        raise DimensionMismatchError(
            f"dimension mismatch: {a.dimension} vs {b.dimension}"
        )


def _row_product(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list:
    """The product of two square integer matrices, as lists of ints.  Zero
    entries are skipped, which keeps sparse nilpotent products cheap."""
    k = len(b)
    out = []
    for arow in a:
        acc = [0] * k
        for idx, aval in enumerate(arow):
            if aval:
                for j, bval in enumerate(b[idx]):
                    if bval:
                        acc[j] += aval * bval
        out.append(acc)
    return out


def mat_mul(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """Exact matrix product: the integer rows and the denominators are
    multiplied, then reduced by one gcd pass (none when both are 1)."""
    _check_same_dim(a, b)
    return RatMatrix(tuple(map(tuple, _row_product(a.num, b.num))), a.den * b.den)


def mat_pow(a: RatMatrix, e: int) -> RatMatrix:
    """a**e by binary exponentiation; a**0 is the identity.  The result
    starts from a power of a, never from I, so a**e costs
    e.bit_length() + popcount(e) - 2 products."""
    a = _expect(a, RatMatrix)
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
    L X = N X and R X = X N^T, so D^(2K - 1) = 0; else CrossCheckError.
    On the integer rows, for M = num/d and X = x/e: D X is
    (num x num^T - d^2 x) / (d^2 e), one `RatMatrix` per kept term."""
    _check_same_dim(m, x)
    num, d2 = m.num, m.den * m.den
    num_t = tuple(zip(*num))
    chain = [x]
    for _ in range(2 * m.dimension - 1):
        last = chain[-1].num
        rows = _row_product(_row_product(num, last), num_t)
        rows = [[p - d2 * q for p, q in zip(r, s)] for r, s in zip(rows, last)]
        if not any(map(any, rows)):
            return chain
        chain.append(RatMatrix(rows, chain[-1].den * d2))
    raise CrossCheckError(
        f"congruence_chain: D^(2K - 1) X is nonzero at dimension K = {m.dimension}"
    )


def _chain_terms(mats: Sequence[RatMatrix]) -> tuple[int, list[list[tuple[int, int]]]]:
    """(den, terms): den the common denominator of k x k matrices, terms[i]
    the nonzero (r*k + c, den * mats[i][r][c]).  No matrices or mixed
    dimensions raise DimensionMismatchError."""
    dims = {m.dimension for m in mats}
    if len(dims) != 1:
        raise DimensionMismatchError(f"chain of matrices on dimensions {sorted(dims)}")
    den = lcm(*(m.den for m in mats))
    return den, [
        [(at, v * (den // m.den)) for at, v in enumerate(itertools.chain(*m.num)) if v]
        for m in mats
    ]


def _weighted_rows(terms: Sequence, weights: Iterable[int], k: int) -> list[list[int]]:
    """sum_i weights[i] terms[i] as k integer rows, over the den of
    `_chain_terms`; a zero weight adds nothing."""
    acc = [0] * (k * k)
    for w, term in zip(weights, terms):
        if w:
            for at, v in term:
                acc[at] += w * v
    return [acc[r : r + k] for r in range(0, k * k, k)]


def _echelon(num: Sequence[Sequence[int]]) -> tuple[int, int, list[int]]:
    """Fraction-free (Bareiss) row echelon form of an integer matrix.

    All arithmetic stays in Z with the usual Bareiss control on entry
    growth.  A column with no pivot is skipped; the divisions stay exact,
    because every entry after a step is a minor of the matrix on the
    pivot rows and columns so far.  A row with a zero in the pivot column
    is only rescaled by pivot / prev, and left as it is when that is 1.
    Returns (rank, last, minors): `last` is the last pivot with the sign of
    the row swaps, which is the determinant when the rank is full, and
    `minors` the pivots up to the first one found off the diagonal, which
    are the leading principal minors of orders 1, 2, ...; the next is 0.
    """
    a = [list(row) for row in num]
    k = len(a)
    sign = 1
    prev = 1
    rank = 0
    minors = []
    for col in range(k):
        piv = next((r for r in range(rank, k) if a[r][col]), None)
        if piv is None:
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
            sign = -sign
        crow = a[rank]
        pivot = crow[col]
        if piv == col == len(minors):
            minors.append(pivot)
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
    return rank, sign * prev, minors


def det_exact(m: RatMatrix) -> Fraction:
    """Exact determinant: det(num) / den^k, with det(num) read off the
    fraction-free row echelon form."""
    rank, last, _ = _echelon(_expect(m, RatMatrix).num)
    k = m.dimension
    return Fraction(last, m.den**k) if rank == k else Fraction(0)


def rank_exact(m: RatMatrix) -> int:
    """Rank over Q: the rank of the integer rows, read off the
    fraction-free row echelon form."""
    return _echelon(_expect(m, RatMatrix).num)[0]


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
    c_(K-1) = -tr(num), taken on the integer rows, is re-verified.  The
    result holds the integers c_k den^k over the denominator den^K.
    """
    k = _expect(m, RatMatrix).dimension
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
    return UniPoly(tuple(c * den**i for i, c in enumerate(coeffs)), den**k, "t")


def poly_at_matrix(p: UniPoly, m: RatMatrix) -> RatMatrix:
    """p(M) by Horner's rule on the integer rows: for M = num/den and p of
    degree d over P, den^d P p(M) = sum_i c_i num^i den^(d - i).  Starting
    from c_d num + c_(d-1) den I takes d - 1 products, and one `RatMatrix`
    is built at the end."""
    num, den = _expect(m, RatMatrix).num, m.den
    top, *rest = _expect(p, UniPoly).num[::-1] or (0,)
    rows = num if rest else RatMatrix.identity(len(num)).num
    acc = [[top * x for x in row] for row in rows]
    scale = 1  # den^(d - i) at c_i
    for step, c in enumerate(rest):
        if step:
            acc = _row_product(acc, num)
        scale *= den
        for i, row in enumerate(acc):
            row[i] += c * scale
    return RatMatrix(tuple(map(tuple, acc)), scale * p.den)


def interpolate_checked(
    value_at: Callable[[int], Scalar],
    degree_bound: int,
    caller: str,
    parity: Optional[int] = None,
) -> UniPoly:
    """The polynomial p in n of degree at most D = degree_bound through
    value_at(x) at D + 1 consecutive nodes, re-verified at one more node:
    an undersized bound (the caller's error) raises DegreeBoundError
    naming `caller`, the check node and, on the mirrored route, the law.

    The nodes are x = start..start + D: start = 0, or -floor(D/2) when
    the caller vouches for p(-x) = parity * p(x) with the int parity +1
    or -1 (any other parity but None raises PreconditionError).  value_at
    runs at x >= 0 only, and each negative node takes parity * p(-x).
    The check node start + D + 1 is always a computed value, so a wrong
    parity fails there like an undersized bound."""
    if degree_bound < 0:
        raise PreconditionError("degree bound must be nonnegative")
    if parity not in (None, 1, -1) or not isinstance(parity, (int, type(None))):
        raise PreconditionError(f"parity must be +1 or -1, got {parity!r}")
    start = -(degree_bound // 2) if parity else 0
    computed = [value_at(x) for x in range(start + degree_bound + 1)]
    values = [parity * computed[-x] for x in range(start, 0)] + computed
    p = _interpolate(values, start)
    node = start + degree_bound + 1
    if p(node) != value_at(node):
        law = f" with P(-x) = {'+' if parity > 0 else '-'}P(x)" if parity else ""
        raise DegreeBoundError(
            f"{caller}: interpolant on nodes {start}..{node - 1}{law} misses "
            f"the check node x = {node} (degree bound too small?)"
        )
    return p

