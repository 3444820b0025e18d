"""Exterior-algebra model of degree-2 cohomology classes.

Divisor classes are modeled as alternating 2-forms on a 2g-dimensional
space, written in the ordered basis e_i ^ e_j with 1 <= i < j <= 2g and
held as skew-symmetric `RatMatrix`es A, with A[i][j] the coefficient of
e_i ^ e_j, so that the forms share `exact`'s integer-row matrix kernel.
The pullback along a matrix M, e_i ^ e_j |-> (M e_i) ^ (M e_j) extended
bilinearly, is the congruence

    A  |->  M A M^T,

so pullback2(A*B) = pullback2(A) o pullback2(B).
Summing pullbacks of a form H along powers of a unipotent M gives the
divisor class

    Delta_x = sum_{i=0}^{kf} C(x, i+1) N^i H,   N = pullback2(M, .) - id,

at each integer x >= 0.  The chain [H, N H, N^2 H, ...] is
`exact.congruence_chain`, which also builds the symmetric power sum
S(n) in `powersum`; both are weighted by the one chain sum of `exact`,
as integer rows, here summed for each Pfaffian with no matrix built.
M is proved unipotent once per entry point, by
the rank sequence of `jordan.unipotent_block_profile`; `plov_via_model`
returns its chain for `scan_chain` to reuse.  The top self-intersection
of Delta_x (the coefficient of e_1 ^ ... ^ e_2g in the g-fold wedge) is
a polynomial in x, reported in the variable n, whose degree is the
model-side volume growth.  For one form w the top coefficient of w^g is
g! * Pf(A_w), so `intersection_poly` interpolates that on D + 1 nodes,
D = plov + 1, centred at 0 by Pf(Delta_{-x}) = (-1)^g Pf(Delta_x).

`pfaffian` works on the integer rows alone: for A = num/den it returns
the integer Pf(num), and Pf(A) = Pf(num)/den^g.  Its callers carry den^g.
Both put every Pfaffian over den^g for the chain's common denominator
den, so their sums stay in integers: `intersection_poly` divides its
interpolated polynomial once, and `scan_chain` each multiset's value.
They split Pf by the blocks of the chain's support graph, with a
half-size determinant per 2-coloured block; `pfaffian` does not.  That
evaluator is kept for the last chain, so the two share one build.

The vanishing scan needs mixed products of chain forms.  2-forms
commute, so such a product depends only on the multiset alpha of its
factors, and by polarization of the symmetric g-linear top wedge

    top(prod_i w_i^alpha_i)
        = sum_{0 != beta <= alpha} (-1)^(g - |beta|) prod_i C(alpha_i, beta_i)
          * Pf(sum_i beta_i w_i),

which is the mixed forward difference of order alpha at 0 of
F(beta) = Pf(sum_i beta_i w_i), with F(0) = 0: alpha! times F's
coefficient of beta^alpha, as F is homogeneous of degree g.  F is the
product of its blocks' Pfaffians, so `scan_chain` fills one table per
block, of the block's own degree and forms, grown depth first and
differenced in place, divides each entry by gamma! to a coefficient and
multiplies the blocks' polynomials on integers.  Each term of a
2-coloured block's det(sum_i beta_i W_i) takes each row's entry from a
form nonzero there, so the max-weight assignment of rows to columns, an
entry weighing the largest such form (H. W. Kuhn, 1955), bounds the
index sum of its nonzero coefficients.  On a paired chain with the
standard form the blocks' bounds sum to plov - g, below the threshold:
every value is then proved 0 from the chain's supports, and no table is
filled.  The report keeps only the multisets of nonzero value, the
others above the threshold (155,629 on paired [8]) being 0 by absence,
so the scan has no size limit: its cost is its proof and its tables.
The ordered tuples, which take the value of their multiset, are listed
only on demand: all at once as ``scanned``, or by `cli.encode_report`
for the report, which holds the limit on what it lists.  The literal wedge
expansion, `selfcheck.wedge_coefficient`, is the oracle for both
Pfaffian routes, in the self-test and the tests, and
`selfcheck.polarization`, the sum above term by term, the reference for
each multiset value.  Intersection numbers are kept as raw wedge
coefficients, since every contract here concerns degrees and vanishing
only.
"""

from __future__ import annotations

import functools
import itertools
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, prod
from typing import Callable, Optional, Sequence

from .errors import (
    CrossCheckError,
    DegenerateFormError,
    DegreeBoundError,
    DimensionMismatchError,
    PreconditionError,
)
from .exact import (
    RatMatrix,
    Scalar,
    UniPoly,
    _chain_terms,
    _echelon,
    _expect,
    _scalar,
    _weighted_rows,
    congruence_chain,
    interpolate_checked,
    mat_mul,
)
from .jordan import half_profile, unipotent_block_profile
from .plov import plov_of, second_compound_block_sizes

Pair = tuple[int, int]


@dataclass(frozen=True, init=False)
class TwoForm:
    """Alternating 2-form with rational coefficients on ordered pairs
    (i, j), 1 <= i < j <= 2g, held as its skew-symmetric matrix A with
    A[i-1][j-1] = the coefficient of e_i ^ e_j = -A[j-1][i-1].  The
    coefficients come as a dict (else TypeError), and every key must be
    such a pair, whatever its value.  Equality and hashing go by
    the matrix, so they work by value."""

    matrix: RatMatrix

    def __init__(self, genus: int, coeffs: Optional[dict[Pair, Scalar]] = None):
        if genus < 1:
            raise PreconditionError("genus must be positive")
        rows = [[0] * (2 * genus) for _ in range(2 * genus)]
        for pair, value in _expect({} if coeffs is None else coeffs, dict).items():
            if not (
                isinstance(pair, tuple)
                and len(pair) == 2
                and all(isinstance(x, int) for x in pair)
                and 1 <= pair[0] < pair[1] <= 2 * genus
            ):
                raise DimensionMismatchError(
                    f"{pair!r} is not an index pair 1 <= i < j <= {2 * genus}"
                )
            i, j = pair
            v = _scalar(value)
            rows[i - 1][j - 1], rows[j - 1][i - 1] = v, -v
        object.__setattr__(self, "matrix", RatMatrix.from_rows(rows))

    @staticmethod
    def _of(matrix: RatMatrix) -> "TwoForm":
        """The form whose skew matrix is ``matrix`` (not re-checked)."""
        form = object.__new__(TwoForm)
        object.__setattr__(form, "matrix", matrix)
        return form

    @staticmethod
    def standard(genus: int) -> "TwoForm":
        """sum_{j<=g} e_j ^ e_{g+j}: the pairing form adapted to a matrix
        presented as two identical blocks on coordinates (1..g | g+1..2g)."""
        return TwoForm(genus, {(j, genus + j): 1 for j in range(1, genus + 1)})

    @property
    def genus(self) -> int:
        return self.matrix.dimension // 2

    def items(self) -> list[tuple[Pair, Fraction]]:
        """The nonzero coefficients, by pair in lexicographic order."""
        den = self.matrix.den
        return [
            ((i + 1, j + 1), Fraction(v, den))
            for i, row in enumerate(self.matrix.num)
            for j, v in enumerate(row[i + 1 :], i + 1)
            if v
        ]

    def is_zero(self) -> bool:
        return not any(map(any, self.matrix.num))


def pullback2(m: RatMatrix, form: TwoForm) -> TwoForm:
    """Pullback of a 2-form along M, e_i ^ e_j |-> (M e_i) ^ (M e_j)
    extended bilinearly: the congruence M A M^T on its skew matrix A."""
    a = _expect(form, TwoForm).matrix
    return TwoForm._of(mat_mul(mat_mul(m, a), m.transpose()))


def nilpotent_chain(m: RatMatrix, h: TwoForm) -> list[TwoForm]:
    """[H, N H, N^2 H, ...] for N = pullback2(M, .) - id, up to the last
    nonzero term: `exact.congruence_chain` on the skew matrix of H, finite
    because the operator is nilpotent for unipotent M.  The gate is
    `unipotent_block_profile`, whose rank sequence proves M unipotent."""
    unipotent_block_profile(m)
    return _chain(m, h)


def _chain(m: RatMatrix, h: TwoForm) -> list[TwoForm]:
    """`nilpotent_chain` for an M already proved unipotent."""
    if _expect(h, TwoForm).is_zero():
        raise DegenerateFormError("the 2-form must be nonzero")
    return [TwoForm._of(x) for x in congruence_chain(m, h.matrix)]


def pfaffian(form: TwoForm) -> int:
    """Pf(num) for the skew matrix A = num/den of the form: an integer,
    with Pf(A) = Pf(num)/den^g, so that the top coefficient of form^g is
    g! * Pf(num)/den^g.  The callers carry den^g.  `_pfaffian_rows` on a
    copy of the integer rows."""
    return _pfaffian_rows([list(row) for row in _expect(form, TwoForm).matrix.num])


def _pfaffian_rows(a: list[list[int]]) -> int:
    """Pf of the skew integer matrix whose entries above the diagonal are
    those of the rows ``a``, which it overwrites; the entries on and below
    the diagonal are never read.

    Fraction-free skew elimination: pivot on the 2x2 block (k, k+1) with
    p = a[k][k+1], swapping index k+1 with a later one (a sign flip) when
    that entry is zero, and replace each trailing entry a[i][j] by
    (p a[i][j] + a[k+1][i] a[k][j] - a[k][i] a[k+1][j]) divided by the
    previous pivot.  The division is exact, since every entry is then the
    Pfaffian on the pivot indices so far and i, j; the last pivot is the
    Pfaffian.  A row with a[k][i] = a[k+1][i] = 0 is only rescaled by
    p / prev.  The update is skew in (i, j), so only the entries above the
    diagonal are kept, and a swap moves them with the sign of the entries
    it carries below the diagonal."""
    n = len(a)
    sign = 1
    prev = 1
    for k in range(0, n, 2):
        row_k = a[k]
        pivot = next((j for j in range(k + 1, n) if row_k[j]), None)
        if pivot is None:
            return 0
        if pivot != k + 1:
            row_k1, row_p = a[k + 1], a[pivot]
            row_k[k + 1], row_k[pivot] = row_k[pivot], row_k[k + 1]
            for i in range(k + 2, pivot):
                row_k1[i], a[i][pivot] = -a[i][pivot], -row_k1[i]
            row_k1[pivot] = -row_k1[pivot]
            row_k1[pivot + 1 :], row_p[pivot + 1 :] = (
                row_p[pivot + 1 :],
                row_k1[pivot + 1 :],
            )
            sign = -sign
        row_k1 = a[k + 1]
        p = row_k[k + 1]
        tail_k, tail_k1 = row_k[k + 3 :], row_k1[k + 3 :]
        # row i takes the columns j > i, at tail offset i - k - 2
        for i in range(k + 2, n - 1):
            u, w = row_k1[i], row_k[i]
            row = a[i]
            if u or w:
                at = i - k - 2
                row[i + 1 :] = [
                    (p * x + u * y - w * z) // prev
                    for x, y, z in zip(row[i + 1 :], tail_k[at:], tail_k1[at:])
                ]
            elif p != prev:
                row[i + 1 :] = [p * x // prev for x in row[i + 1 :]]
        prev = p
    return sign * prev


def _block_pfaffian(rows: list[list[int]], bipartite: bool) -> int:
    """Pf of a block: det of its P x Q rows if bipartite, else eliminated."""
    if bipartite:
        rank, last = _echelon(rows)
        return last if rank == len(rows) else 0
    return _pfaffian_rows(rows)


def _assignment_bound(local: list, size: int) -> int:
    """The max over bijections r |-> c_r of a P x Q block's rows onto its
    columns of sum_r (the largest i with (r, c_r) in local[i]), -1 if none
    meets only such entries: a DP over column sets, 2^size * size steps."""
    weight = {at: i for i, term in enumerate(local) for at, _ in term}
    best = [0]  # best[taken]: the first |taken| rows onto ``taken``, else -1
    for taken in range(1, 1 << size):
        r = (taken.bit_count() - 1) * size  # the last of those rows, at r + c
        sums = [best[taken ^ 1 << c] + weight[r + c] for c in range(size)
                if taken >> c & 1 and r + c in weight and best[taken ^ 1 << c] >= 0]
        best.append(max(sums, default=-1))
    return best[-1]


@functools.lru_cache(maxsize=1)
def _common_pfaffian(
    chain: tuple[TwoForm, ...],
) -> tuple[Callable[[Sequence[int]], int], int, int, list[tuple]]:
    """(pf, den^g, sign, blocks) for the chain's common denominator den:
    pf(w) is the integer den^g * Pf(sum_i w_i chain[i]), which is
    Pf(sum_i w_i den chain[i]).  The terms above the diagonal, from
    `_chain_terms` once, are split by the components of the union of the
    forms' supports: Pf = sign(sigma) prod Pf(block), sigma listing them in
    turn.  A block 2-coloured by sides P, Q of one size, listed p1, q1, p2,
    ..., has Pf = det of its P x Q block; an odd one, or unequal sides,
    make pf 0 (sign 0, no blocks).  A block is (k, active, evaluate, bound):
    its Pf has degree k = half its size in the weights of its ``active``
    forms, and evaluate(w) is 0 if they leave a row of it empty, by their
    row bitmasks (a row that only cancels is left to the elimination), else
    a one-row block's entry or `_block_pfaffian` of `_weighted_rows`.  No
    coefficient of w^alpha in its Pf is nonzero with sum_i i alpha_i above
    ``bound``: k * active[-1], or `_assignment_bound` if bipartite.  No
    forms or mixed genus raise DimensionMismatchError.  A one-entry memo by
    the chain's forms, equal by value, so `plov_via_model` and the
    `scan_chain` of its chain build it once."""
    mats = [_expect(f, TwoForm).matrix for f in chain]
    den, terms = _chain_terms(mats)
    n = mats[0].dimension
    terms = [[(*divmod(at, n), v) for at, v in t if at % n > at // n] for t in terms]
    adjacent = [set() for _ in range(n)]
    for r, c, _ in itertools.chain(*terms):
        adjacent[r].add(c)
        adjacent[c].add(r)

    def evaluate(size, bipartite, local, masks, full, weights):
        if functools.reduce(int.__or__, itertools.compress(masks, weights), 0) != full:
            return 0  # a row of the block's sum is zero
        if size == 1:
            return sum(w * v for w, term in zip(weights, local) for _, v in term)
        return _block_pfaffian(_weighted_rows(local, weights, size), bipartite)

    side, order, blocks = {}, [], []
    for root in itertools.filterfalse(side.__contains__, range(n)):
        side[root], comp = 0, [root]
        for v in comp:  # breadth first, 2-colouring as it goes
            for u in adjacent[v] - side.keys():
                side[u] = 1 - side[v]
                comp.append(u)
        halves = [sorted(v for v in comp if side[v] == s) for s in (0, 1)]
        if any(side[u] == side[v] for v in comp for u in adjacent[v]):
            halves = [sorted(comp)]
            side.update(dict.fromkeys(comp, 0))  # no term of it is transposed
        if len(comp) % 2 or len(comp) != len(halves) * (size := len(halves[0])):
            return (lambda weights: 0), den ** (n // 2), 0, []
        order += itertools.chain(*zip(*halves))
        at = {v: i for half in halves for i, v in enumerate(half)}
        local = [
            [(at[c] * size + at[r], -v) if side[r] else (at[r] * size + at[c], v)
             for r, c, v in term if r in at]
            for term in terms
        ]
        masks = [sum({1 << v for r, c, _ in t if r in at for v in (r, c)}) for t in terms]
        full = sum(1 << v for v in comp)
        block = functools.partial(evaluate, size, len(halves) == 2, local, masks, full)
        k, active = len(comp) // 2, tuple(i for i, t in enumerate(local) if t)
        bound = _assignment_bound(local, size) if len(halves) == 2 else k * active[-1]
        blocks.append((k, active, block, bound))
    sign = (-1) ** sum(x > y for i, x in enumerate(order) for y in order[i + 1 :])

    def pf(weights: Sequence[int]) -> int:  # stops at the first block that is 0
        return functools.reduce(lambda v, b: v and v * b[2](weights), blocks, sign)

    return pf, den ** (n // 2), sign, blocks


def intersection_poly(
    chain: Sequence[TwoForm], degree_bound: int, parity: Optional[int] = None
) -> UniPoly:
    """The raw top coefficient of Delta_n^g for chain = nilpotent_chain(M, H)
    as a polynomial in n (no normalization; only degrees and vanishing are
    contractual).

    In a Jordan basis of M, entry (i, j) of Delta_x has degree at most
    d_i + d_j + 1 in x, d_i the depth of i in its block, so Pf(Delta_x)
    has degree at most g + sum k(k - 1)/2 over M's blocks (a change of
    basis scales it by a constant): plov for a paired profile, and
    `plov_via_model` passes degree_bound = plov + 1.  It is interpolated
    from the integers g! * den^g * Pf(Delta_x), den the chain's common
    denominator, on nodes centred at 0 if the caller vouches for parity,
    Pf(Delta_{-x}) = parity * Pf(Delta_x) ((-1)^g for the chain of M), and
    re-verified at one more node (DegreeBoundError); then divided by den^g."""
    pf, den_g, _, _ = _common_pfaffian(tuple(chain))
    scale = factorial(chain[0].genus)

    def top(x: int) -> int:
        return scale * pf([comb(x, i + 1) for i in range(len(chain))])

    where = f"intersection_poly at dimension {2 * chain[0].genus}"
    poly = interpolate_checked(top, degree_bound, where, parity)
    return UniPoly(poly.num, poly.den * den_g, "n")


@dataclass(frozen=True)
class ModelGrowthResult:
    """Degree of the g-fold self-intersection of Delta_n, with the
    profile-side value it is compared against and the chain it came from."""

    degree: int
    poly: UniPoly
    profile_plov: int
    matches_profile: bool
    chain: tuple[TwoForm, ...]

    def __post_init__(self):
        d, plov = _expect(self.poly, UniPoly).degree(), self.profile_plov
        if not self.degree == d <= plov or self.matches_profile != (d == plov):
            raise PreconditionError("a model's degree must be its poly's, at most "
                                    "profile_plov, and equal to it iff matches_profile")


def plov_via_model(m: RatMatrix, h: TwoForm) -> ModelGrowthResult:
    """Volume growth read off the model: the degree in n of the g-fold
    wedge of Delta_n.  Always at most the profile value sum k_i^2; whether
    equality holds depends on the chosen form and is reported as a flag,
    not asserted.  Its gate is M's Jordan profile, through
    `unipotent_block_profile` and `half_profile`, which proves its degree
    bound and (det M = 1) its mirror law, so a miss is a CrossCheckError.

    The chain is also checked against the paper's bound on Jordan blocks
    of N^1 inside Lambda^2 H^1: its length is at most the largest block of
    the second compound, read off the same profile by Clebsch-Gordan."""
    profile = unipotent_block_profile(m)
    expected = plov_of(half_profile(profile))
    chain = tuple(_chain(m, h))
    where = f"plov_via_model at dimension {m.dimension}"
    largest = max(second_compound_block_sizes(profile.unipotent_block_sizes()))
    if len(chain) > largest:
        raise CrossCheckError(
            f"{where}: nilpotent chain of length {len(chain)} exceeds the "
            f"largest second-compound block {largest} (len(chain) <= 2kJ + 1)"
        )
    try:
        poly = intersection_poly(chain, expected + 1, (-1) ** h.genus)
    except DegreeBoundError as exc:
        raise CrossCheckError(str(exc)) from exc
    if poly.is_zero():
        raise DegenerateFormError("top self-intersection of Delta_n is identically zero")
    degree = poly.degree()
    if degree > expected:
        raise CrossCheckError(
            f"{where}: model degree {degree} exceeds profile bound {expected} "
            "(deg top(Delta_n^g) <= sum k_i^2)"
        )
    return ModelGrowthResult(degree, poly, expected, degree == expected, chain)


def scan_size(genus: int, kf: int) -> int:
    """How many tuples in {0..kf}^genus have index sum above genus*kf/2.

    i |-> kf - i swaps the tuples above and below the middle, so this is
    half of (kf+1)^genus less the tuples on it, counted by
    inclusion-exclusion over the entries forced past kf."""
    if genus < 1 or kf < 0:
        raise PreconditionError("scan_size needs genus >= 1 and kf >= 0")
    total, middle = divmod(genus * kf, 2)
    on_middle = 0
    if not middle:
        on_middle = sum(
            (-1) ** j
            * comb(genus, j)
            * comb(total - j * (kf + 1) + genus - 1, genus - 1)
            for j in range(genus + 1)
            if j * (kf + 1) <= total
        )
    return ((kf + 1) ** genus - on_middle) // 2


@dataclass(frozen=True)
class VanishingScanReport:
    """Scan of the products N^{i_1} H ^ ... ^ N^{i_g} H over the tuples
    of g = ``genus`` indices in 0..``kf`` whose index sum exceeds g*kf/2.

    ``nonzero`` holds the (multiset, value) pairs of nonzero value, each a
    nondecreasing index tuple above the threshold, in strictly increasing
    order; any other multiset there is 0, and an ordered tuple takes the
    value of its multiset.  Other entries, a stored 0 too, raise
    PreconditionError.  ``violations`` and ``scanned`` list the tuples."""

    kf: int
    genus: int
    nonzero: tuple[tuple[tuple[int, ...], Fraction], ...]

    def __post_init__(self):
        kf, g, last = self.kf, self.genus, ()
        if g < 1 or kf < 0:
            raise PreconditionError(f"a scan of genus {g}, kf {kf} needs genus >= 1, kf >= 0")
        for entry in self.nonzero:
            key = entry[0] if type(entry) is tuple and len(entry) == 2 else None
            if not (type(key) is tuple and len(key) == g and {*map(type, key)} == {int}
                    and all(0 <= i <= j for i, j in zip(key, key[1:] + (kf,)))
                    and 2 * sum(key) > g * kf and key > last and entry[1] != 0):
                raise PreconditionError(
                    f"scan entry {entry!r} of genus {g} and kf {kf} is not a nonzero "
                    "value at a multiset above the threshold, in order"
                )
            last = key

    @functools.cached_property
    def violations(self) -> tuple[tuple[int, ...], ...]:
        """The ordered tuples with a nonzero value (expected none), in
        lexicographic order."""
        return tuple(sorted({t for key, _ in self.nonzero
                             for t in itertools.permutations(key)}))

    @functools.cached_property
    def scanned(self) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
        """The (tuple, value) pairs of every ordered tuple above the
        threshold, in lexicographic order, listed on first use."""
        kf, g = self.kf, self.genus
        values, zero = dict(self.nonzero), Fraction(0)
        return tuple(
            (t, values.get(tuple(sorted(t)), zero))
            for t in itertools.product(range(kf + 1), repeat=g)
            if 2 * sum(t) > g * kf
        )


def vanishing_scan(m: RatMatrix, h: TwoForm) -> VanishingScanReport:
    """Evaluate every product N^{i_1}H ^ ... ^ N^{i_g}H with all
    0 <= i_j <= kf and record the tuples above the strict threshold
    sum i_j > g*kf/2 together with their (expected zero) values:
    `scan_chain` on nilpotent_chain(m, h)."""
    return scan_chain(nilpotent_chain(m, h))


def _factorials(key: tuple[int, ...]) -> int:
    """alpha! = prod_i alpha_i! for the multiset ``key``."""
    return prod(map(factorial, map(key.count, set(key))))


def _mixed_differences(f: Callable, k: int, active: Sequence[int], least: int) -> list:
    """(multiset, value) for every multiset of k indices from ``active``
    (ascending) with sum at least ``least``, in lexicographic order: the
    mixed forward difference of f at 0 of that order, with f(0) = 0.  f is
    filled once on the beta below such a multiset, grown depth first so
    that none is made and then dropped; the differences are then taken
    one index at a time, in place, sum_beta |beta| subtractions in all."""
    # beta is keyed by sum_i beta_i (k + 1)^i, so beta - e_i is the key less
    # place[i]; it is below such a multiset when padding it with top reaches least
    top = active[-1]
    place, beta = [(k + 1) ** i for i in range(top + 1)], [0] * (top + 1)
    table, above = {0: 0}, []  # above: (multiset, key) for |beta| = k, in order
    layers = [[[] for _ in range(k + 1)] for _ in range(top + 1)]  # [i][beta_i]

    def grow(key: tuple, at: int, total: int) -> None:
        n, last = len(key) + 1, key[-1] if key else 0
        for j in active[bisect_left(active, max(last, least - total - (k - n) * top)) :]:
            beta[j] += 1
            child, child_at = key + (j,), at + place[j]
            table[child_at] = f(beta)
            for i in set(child):
                layers[i][beta[i]].append(child_at)
            if n == k:
                above.append((child, child_at))
            else:
                grow(child, child_at, total + j)
            beta[j] -= 1

    grow((), 0, 0)
    # along index i, pass t subtracts from each entry with beta_i >= t the
    # one below it, from the top down; after k passes the entry with
    # beta_i = b holds the b-th difference at beta_i = 0
    for i, by_count in enumerate(layers):
        step = place[i]
        for t in range(1, k + 1):
            for b in range(k, t - 1, -1):
                for at in by_count[b]:
                    table[at] -= table[at - step]
    return [(key, table[at]) for key, at in above]


def scan_chain(chain: Sequence[TwoForm]) -> VanishingScanReport:
    """The scan over the products of any nonempty family of forms of one
    genus, in the role of the chain.

    Every value is computed, in integers, from F(beta) = den^g *
    Pf(sum_i beta_i w_i), den the chain's common denominator: the top
    coefficient of prod_i w_i^alpha_i over den^g is the mixed forward
    difference of F at 0 of order alpha, by polarization, which is alpha!
    times F's coefficient of beta^alpha, F being homogeneous of degree g.
    F = sign * prod_b F_b over the blocks of `_common_pfaffian`, each with
    a bound on its nonzero index sums.  If they sum below the threshold,
    every value is 0 and no table is filled (paired [4, 1]: 12 + 0 < 16).
    Else each block fills a table by `_mixed_differences` on its k_b
    active indices, pruned at the threshold less the other blocks' bounds
    (117 beta and one, with paired [4, 1]'s block [4] conjugated).  Each
    entry is divided by gamma! exactly, else `CrossCheckError`; the
    quotients are multiplied on integers, dropping partial products that
    cannot reach the threshold, and each nonzero coefficient gives its
    multiset sign * alpha! * it over den^g.  A multiset no splitting
    reaches is 0 and is not stored, so the cost never grows with the
    multisets above the threshold (155,629 on paired [8]); only a listing
    of the ordered tuples grows with their count."""
    _, den_g, sign, blocks = _common_pfaffian(tuple(chain))
    kf, g = len(chain) - 1, chain[0].genus
    least = g * kf // 2 + 1  # the least index sum above the threshold
    reach = [bound for *_, bound in blocks]  # a block's largest nonzero sum
    if sum(reach) < least:  # every value is 0, proved from the supports
        return VanishingScanReport(kf=kf, genus=g, nonzero=())
    poly = {(): sign}
    for b, (k, active, f, _) in enumerate(blocks):
        rest, factor, grown = sum(reach[b + 1 :]), [], {}
        for key, value in _mixed_differences(f, k, active, least - sum(reach) + reach[b]):
            if value and value % (gamma := _factorials(key)):
                raise CrossCheckError(
                    f"scan_chain at dimension {2 * g}: block difference {value} at "
                    f"{key} is not divisible by {gamma} (the mixed difference of an "
                    "integer form is gamma! times its coefficient)"
                )
            factor += [(key, sum(key), value // gamma)] if value else []
        for partial, c in poly.items():
            for key, total, c_b in factor:
                if sum(partial) + total + rest >= least:
                    merged = tuple(sorted(partial + key))
                    grown[merged] = grown.get(merged, 0) + c * c_b
        poly = grown
    nonzero = [(key, Fraction(c * _factorials(key), den_g)) for key, c in poly.items() if c]
    return VanishingScanReport(kf=kf, genus=g, nonzero=tuple(sorted(nonzero)))
