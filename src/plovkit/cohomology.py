"""Exterior-algebra model of degree-2 cohomology classes.

Divisor classes are modeled as alternating 2-forms on a 2g-dimensional
space, written in the ordered basis e_i ^ e_j with 1 <= i < j <= 2g.
The pullback along a matrix M substitutes columns:

    e_i ^ e_j  |->  (M e_i) ^ (M e_j),

extended bilinearly, so pullback2(A*B) = pullback2(A) o pullback2(B).
Summing pullbacks of a form H along powers of a unipotent M gives the
divisor class

    Delta_x = sum_{i=0}^{kf} C(x, i+1) N^i H,   N = pullback2(M, .) - id,

at each integer x >= 0 (`delta_at`).  Its top self-intersection (the
coefficient of e_1 ^ ... ^ e_2g in the g-fold wedge) is a polynomial in
x, reported in the variable n, whose degree is the model-side volume
growth.  For one form w the top coefficient of w^g is g! * Pf(A_w), so
`intersection_poly` evaluates that at the nodes x = 0..D and
interpolates.

The vanishing scan needs mixed products of chain forms.  2-forms
commute, so such a product depends only on the multiset alpha of its
factors, and by polarization of the symmetric g-linear top wedge

    top(prod_i w_i^alpha_i)
        = sum_{0 != beta <= alpha} (-1)^(g - |beta|) prod_i C(alpha_i, beta_i)
          * Pf(sum_i beta_i w_i)

(`polarized_wedge`); the Pfaffians are shared across multisets.  The
literal wedge expansion, `wedge_coefficient`, is only the oracle for
both Pfaffian routes, in the self-test and the tests.  Intersection
numbers are kept as raw wedge coefficients, since every contract here
concerns degrees and vanishing only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, prod
from typing import Optional, Sequence

from .errors import (
    CrossCheckError,
    DegenerateFormError,
    DimensionMismatchError,
    NotPseudoAnalyticError,
    NotUnipotentError,
    PreconditionError,
)
from .exact import RatMatrix, Scalar, UniPoly, _frac, _interpolate
from .cyclotomic import is_unipotent
from .jordan import half_profile, pseudo_analytic_check, unipotent_block_profile
from .plov import plov_of, second_compound_block_sizes

Pair = tuple[int, int]


def _check_pair(pair: Pair, g: int) -> Pair:
    i, j = pair
    if not (1 <= i < j <= 2 * g):
        raise DimensionMismatchError(f"index pair {pair} out of range for genus {g}")
    return (i, j)


class TwoForm:
    """Alternating 2-form with rational coefficients on ordered pairs
    (i, j), 1 <= i < j <= 2g.  Values are immutable after construction."""

    __slots__ = ("genus", "_coeffs")

    def __init__(self, genus: int, coeffs: Optional[dict[Pair, Scalar]] = None):
        if genus < 1:
            raise PreconditionError("genus must be positive")
        self.genus = genus
        cleaned: dict[Pair, Fraction] = {}
        for pair, value in (coeffs or {}).items():
            v = _frac(value)
            if v:
                cleaned[_check_pair(pair, genus)] = v
        self._coeffs = cleaned

    @staticmethod
    def basis(genus: int, i: int, j: int) -> "TwoForm":
        return TwoForm(genus, {(i, j): 1})

    @staticmethod
    def combination(forms: Sequence["TwoForm"], weights: Sequence[int]) -> "TwoForm":
        """sum_i weights[i] * forms[i] over forms of one genus."""
        out: dict[Pair, Fraction] = {}
        for form, w in zip(forms, weights):
            if w:
                form._check_genus(forms[0])
                for pair, v in form._coeffs.items():
                    out[pair] = out.get(pair, 0) + w * v
        return TwoForm(forms[0].genus, out)

    @staticmethod
    def standard(genus: int) -> "TwoForm":
        """sum_{j<=g} e_j ^ e_{g+j}: the pairing form adapted to a matrix
        presented as two identical blocks on coordinates (1..g | g+1..2g)."""
        return TwoForm(genus, {(j, genus + j): 1 for j in range(1, genus + 1)})

    def coefficient(self, i: int, j: int) -> Fraction:
        return self._coeffs.get((i, j), Fraction(0))

    def items(self) -> list[tuple[Pair, Fraction]]:
        return sorted(self._coeffs.items())

    def is_zero(self) -> bool:
        return not self._coeffs

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TwoForm)
            and self.genus == other.genus
            and self._coeffs == other._coeffs
        )

    def __hash__(self):
        return hash((self.genus, tuple(sorted(self._coeffs.items()))))

    def __add__(self, other: "TwoForm") -> "TwoForm":
        self._check_genus(other)
        out = dict(self._coeffs)
        for pair, v in other._coeffs.items():
            out[pair] = out.get(pair, Fraction(0)) + v
        return TwoForm(self.genus, out)

    def __sub__(self, other: "TwoForm") -> "TwoForm":
        self._check_genus(other)
        out = dict(self._coeffs)
        for pair, v in other._coeffs.items():
            out[pair] = out.get(pair, Fraction(0)) - v
        return TwoForm(self.genus, out)

    def __mul__(self, scalar: Scalar) -> "TwoForm":
        c = _frac(scalar)
        return TwoForm(self.genus, {p: v * c for p, v in self._coeffs.items()})

    __rmul__ = __mul__

    def _check_genus(self, other: "TwoForm") -> None:
        if self.genus != other.genus:
            raise DimensionMismatchError("genus mismatch between 2-forms")

    def __repr__(self) -> str:
        if self.is_zero():
            return "TwoForm(0)"
        terms = " + ".join(f"{v}*e{i}^e{j}" for (i, j), v in self.items())
        return f"TwoForm({terms})"


def pullback2(m: RatMatrix, form: TwoForm) -> TwoForm:
    """Pullback of a 2-form along M by column substitution:
    e_i ^ e_j |-> (M e_i) ^ (M e_j), extended bilinearly."""
    g = form.genus
    if m.dimension != 2 * g:
        raise DimensionMismatchError(
            f"matrix dimension {m.dimension} does not match genus {g}"
        )
    e = m.entries
    out: dict[Pair, Fraction] = {}
    for (i, j), c in form.items():
        col_i = [e[a][i - 1] for a in range(2 * g)]
        col_j = [e[a][j - 1] for a in range(2 * g)]
        for a in range(2 * g):
            via = col_i[a]
            vjb = col_j[a]
            if not via and not vjb:
                continue
            for b in range(a + 1, 2 * g):
                v = via * col_j[b] - col_i[b] * vjb
                if v:
                    key = (a + 1, b + 1)
                    out[key] = out.get(key, Fraction(0)) + c * v
    return TwoForm(g, out)


def nilpotent_chain(m: RatMatrix, h: TwoForm) -> list[TwoForm]:
    """[H, N H, N^2 H, ...] for N = pullback2(M, .) - id, up to the last
    nonzero term; finite because the operator is nilpotent for unipotent M."""
    if not is_unipotent(m):
        raise NotUnipotentError("the divisor polynomial needs a unipotent matrix")
    if h.is_zero():
        raise DegenerateFormError("the 2-form must be nonzero")
    chain = [h]
    bound = h.genus * (2 * h.genus - 1)  # dim of the space of 2-forms
    while True:
        nxt = pullback2(m, chain[-1]) - chain[-1]
        if nxt.is_zero():
            return chain
        chain.append(nxt)
        if len(chain) > bound:
            raise CrossCheckError("pullback nilpotency bound exceeded")


def delta_at(chain: Sequence[TwoForm], x: int) -> TwoForm:
    """Delta_x = sum_i C(x, i+1) chain[i] at an integer x >= 0; for
    chain = nilpotent_chain(M, H) it equals sum_{m=0}^{x-1} pullback2(M^m, H)."""
    return TwoForm.combination(chain, [comb(x, i + 1) for i in range(len(chain))])


def pfaffian(form: TwoForm) -> Fraction:
    """Pfaffian of the skew matrix A with A[i][j] = coefficient(i, j) for
    i < j, so that the top coefficient of form^g is g! * pfaffian(form).

    Skew elimination: pivot on the 2x2 block (k, k+1), multiply in its
    entry p = A[k][k+1], and replace the trailing block by its skew Schur
    complement, updating the upper triangle and mirroring into the lower."""
    n = 2 * form.genus
    a = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), v in form.items():
        a[i - 1][j - 1] = v
        a[j - 1][i - 1] = -v
    result = Fraction(1)
    for k in range(0, n, 2):
        pivot = next((j for j in range(k + 1, n) if a[k][j]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k + 1:
            # swapping index k+1 with the pivot in rows and columns
            # flips the sign of the Pfaffian
            a[k + 1], a[pivot] = a[pivot], a[k + 1]
            for row in a:
                row[k + 1], row[pivot] = row[pivot], row[k + 1]
            result = -result
        row_k, row_k1 = a[k], a[k + 1]
        p = row_k[k + 1]
        result *= p
        for i in range(k + 2, n):
            u, w = row_k1[i] / p, row_k[i] / p
            if not u and not w:
                continue
            row_i = a[i]
            for j in range(i + 1, n):
                v = u * row_k[j] - w * row_k1[j]
                if v:
                    row_i[j] += v
                    a[j][i] -= v
    return result


def intersection_poly(chain: Sequence[TwoForm]) -> UniPoly:
    """The raw top coefficient of Delta_n^g for chain = nilpotent_chain(M, H)
    as a polynomial in n (no normalization; only degrees and vanishing are
    contractual).

    Every coefficient of Delta_x has degree at most len(chain) = kf + 1 in
    x, so the g-fold wedge has degree at most D = g * len(chain).  It is
    interpolated from g! * Pf(Delta_x) at x = 0..D, and one extra node
    re-verifies the interpolation."""
    genus = chain[0].genus
    scale = factorial(genus)
    bound = genus * len(chain)

    def top(x: int) -> Fraction:
        return scale * pfaffian(delta_at(chain, x))

    poly = _interpolate([top(x) for x in range(bound + 1)], "n")
    if poly(bound + 1) != top(bound + 1):
        raise CrossCheckError(
            "intersection_poly verification node mismatch (degree bound too small?)"
        )
    return poly


def _merge_sign(indices: tuple[int, ...], pair: Pair) -> int:
    """Sign of sorting indices + pair into ascending order; 0 on repeats."""
    i, j = pair
    if i in indices or j in indices:
        return 0
    inversions = sum(1 for t in indices if t > i) + sum(
        1 for t in indices if t > j
    )
    return -1 if inversions % 2 else 1


def polarized_wedge(
    forms: Sequence[TwoForm],
    alpha: Sequence[int],
    pfaffians: dict[tuple[int, ...], Fraction],
) -> Fraction:
    """Top wedge coefficient of prod_i forms[i]^alpha[i] (|alpha| = g) by
    polarization: the sum over 0 != beta <= alpha of
    (-1)^(g - |beta|) * prod_i C(alpha_i, beta_i) * Pf(sum_i beta_i forms[i]).
    ``pfaffians`` memoizes Pf by beta, so callers share it across the
    multisets of one family of forms."""
    g = forms[0].genus
    if len(alpha) != len(forms) or sum(alpha) != g:
        raise DimensionMismatchError(f"need one count per form, summing to g = {g}")
    total = Fraction(0)
    for beta in itertools.product(*(range(a + 1) for a in alpha)):
        size = sum(beta)
        if not size:
            continue
        pf = pfaffians.get(beta)
        if pf is None:
            pf = pfaffians[beta] = pfaffian(TwoForm.combination(forms, beta))
        if pf:
            term = prod(comb(a, b) for a, b in zip(alpha, beta)) * pf
            total += term if (g - size) % 2 == 0 else -term
    return total


def wedge_coefficient(forms: Sequence[TwoForm]) -> Fraction:
    """Top wedge coefficient of g constant 2-forms on a genus-g space, by
    literal expansion over the sets of indices used so far: the oracle for
    g! * pfaffian and for `polarized_wedge`."""
    if not forms:
        raise DimensionMismatchError("need at least one form")
    g = forms[0].genus
    if len(forms) != g:
        raise DimensionMismatchError(f"need exactly g = {g} forms")
    for f in forms:
        if f.genus != g:
            raise DimensionMismatchError("genus mismatch among forms")
    state = {(): Fraction(1)}
    for items in [f.items() for f in forms]:
        nxt: dict[tuple[int, ...], Fraction] = {}
        for indices, acc in state.items():
            for pair, coeff in items:
                sign = _merge_sign(indices, pair)
                if sign == 0:
                    continue
                key = tuple(sorted(indices + pair))
                term = acc * coeff if sign > 0 else -(acc * coeff)
                if key in nxt:
                    nxt[key] = nxt[key] + term
                else:
                    nxt[key] = term
        state = nxt
    top = tuple(range(1, 2 * g + 1))
    return state.get(top, Fraction(0))


@dataclass(frozen=True)
class ModelGrowthResult:
    """Degree of the g-fold self-intersection of Delta_n, with the
    profile-side value it is compared against."""

    degree: int
    poly: UniPoly
    profile_plov: int
    matches_profile: bool


def plov_via_model(
    m: RatMatrix, h: TwoForm, chain: Optional[Sequence[TwoForm]] = None
) -> ModelGrowthResult:
    """Volume growth read off the model: the degree in n of the g-fold
    wedge of Delta_n.  Always at most the profile value sum k_i^2; whether
    equality holds depends on the chosen form and is reported as a flag,
    not asserted.  A caller that already holds nilpotent_chain(m, h) passes
    it as ``chain``; it must be that chain, since h is then not read.

    The chain is also checked against the paper's bound on Jordan blocks
    of N^1 inside Lambda^2 H^1: its length is at most the largest block of
    the second compound, read off the same profile by Clebsch-Gordan."""
    profile = unipotent_block_profile(m)
    if not pseudo_analytic_check(profile):
        raise NotPseudoAnalyticError(
            "model growth needs a conjugate-splitting block profile"
        )
    expected = plov_of(half_profile(profile))
    if chain is None:
        chain = nilpotent_chain(m, h)
    largest = max(second_compound_block_sizes(profile.unipotent_block_sizes()))
    if len(chain) > largest:
        raise CrossCheckError(
            f"nilpotent chain of length {len(chain)} exceeds the largest "
            f"second-compound block {largest}"
        )
    poly = intersection_poly(chain)
    if poly.is_zero():
        raise DegenerateFormError(
            "top self-intersection of Delta_n is identically zero"
        )
    degree = int(poly.degree())
    if degree > expected:
        raise CrossCheckError(
            f"model degree {degree} exceeds profile bound {expected}"
        )
    return ModelGrowthResult(
        degree=degree,
        poly=poly,
        profile_plov=expected,
        matches_profile=degree == expected,
    )


@dataclass(frozen=True)
class VanishingScanReport:
    """Scan of the products N^{i_1} H ^ ... ^ N^{i_g} H over the tuples
    whose index sum exceeds g*kf/2.

    ``scanned`` lists (tuple, value) pairs in lexicographic order;
    ``violations`` collects the tuples with a nonzero value (expected
    empty)."""

    genus: int
    kf: int
    scanned: tuple[tuple[tuple[int, ...], Fraction], ...]
    violations: tuple[tuple[int, ...], ...]


def vanishing_scan(
    m: RatMatrix, h: TwoForm, chain: Optional[Sequence[TwoForm]] = None
) -> VanishingScanReport:
    """Evaluate every product N^{i_1}H ^ ... ^ N^{i_g}H with all
    0 <= i_j <= kf and record the tuples above the strict threshold
    sum i_j > g*kf/2 together with their (expected zero) values.  A caller
    that already holds nilpotent_chain(m, h) passes it as ``chain``; it
    must be that chain, since m and h are then not read."""
    return _scan(nilpotent_chain(m, h) if chain is None else chain)


def _scan(chain: Sequence[TwoForm]) -> VanishingScanReport:
    """The scan over the products of any family of forms of one genus, in
    the role of the chain.  Each multiset of indices is evaluated once, by
    `polarized_wedge` over Pfaffians shared within the scan."""
    kf = len(chain) - 1
    g = chain[0].genus
    pfaffians: dict[tuple[int, ...], Fraction] = {}
    values: dict[tuple[int, ...], Fraction] = {}
    scanned = []
    violations = []
    for combo in itertools.product(range(kf + 1), repeat=g):
        if 2 * sum(combo) <= g * kf:
            continue
        key = tuple(sorted(combo))
        value = values.get(key)
        if value is None:
            alpha = [0] * (kf + 1)
            for i in combo:
                alpha[i] += 1
            value = values[key] = polarized_wedge(chain, alpha, pfaffians)
        scanned.append((combo, value))
        if value != 0:
            violations.append(combo)
    return VanishingScanReport(
        genus=g,
        kf=kf,
        scanned=tuple(scanned),
        violations=tuple(violations),
    )
