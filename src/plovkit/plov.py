"""Polynomial volume growth and cohomological growth exponents.

For a quasi-unipotent matrix acting on a 2g-dimensional space whose
Jordan profile splits into conjugate halves with block sizes k_i, the
polynomial volume growth is sum k_i^2, which `plov_of` sums over the
(order, size, count) triples `half_profile` reads off the profile.  The
growth exponent in exterior degree r is the degree in n of the
fastest-growing r-by-r minor of the n-th power of the unipotent iterate
U; the entries of U^n = sum_i C(n,i) (U-I)^i are polynomials in n.

Minors of a block-diagonal unipotent matrix vanish unless the row and
column sets meet every block in equal numbers, so the maximal minor
degree decomposes over blocks.  Within a single block of size k the
entries of U(n) are the binomial coefficients C(n, j-i); an r'-by-r'
minor on rows I and columns J is a polynomial of degree sum(J) - sum(I)
whose leading coefficient is det(1/(j-i)!), nonzero exactly when the
sorted rows and columns interleave (i_b <= j_b).  The extreme choice
I = {1..r'}, J = {k-r'+1..k} therefore realizes the maximum degree
r'(k - r'): its leading coefficient is the hook product
prod_{i<r'} i!/(k - r' + i)!, which is never 0.  As r'(k - r') is
concave in r' (increments k - 2r' - 1), the best split of r rows over
the blocks takes the r largest increments.
The oracle `selfcheck.growth_exponent_by_minors` enumerates every minor
instead, each interpolated from its exact values on the literal powers
U^x at integer nodes.

The Jordan type of the second compound of U follows from U's block
sizes by sl_2 Clebsch-Gordan over Q: Lambda^2 J_a is the sum of
J_{2a-3-4t} and J_a (x) J_b is the sum of J_{a+b-1-2t}.  `analyze` reads
the largest second-compound block off the profile this way; the oracle
`selfcheck.max_block_compound2_literal` takes rank sequences on the
literal compound instead.

`analyze` reads its verdict off its one profile.  In any dimension the
exponent is `max_minor_degree(jordan_profile(m).unipotent_block_sizes(), r)`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import (
    CrossCheckError,
    DimensionMismatchError,
    OddDimensionError,
    PreconditionError,
)
from .exact import RatMatrix, _expect
from .jordan import JordanProfile, half_profile, jordan_profile, pseudo_analytic_check


def plov_of(half: Sequence[tuple[int, int, int]]) -> int:
    """Polynomial volume growth from the (order, size, count) triples of
    one conjugate half: sum count * k^2."""
    if any(len(entry) != 3 for entry in half):
        raise PreconditionError(
            f"half profile entries are (order, size, count) triples, got {half}"
        )
    return sum(count * k * k for _, k, count in half)


def max_minor_degree(block_sizes: Sequence[int], r: int) -> int:
    """Growth exponent in degree r from the block sizes of the unipotent
    iterate: the max of sum t_i (k_i - t_i) over t_i <= k_i rows with
    sum t_i = r.  Each term is concave in t_i, with increments k_i - 2t - 1
    that strictly fall, so the max adds up the r largest increments over
    all blocks (a prefix of each block's own).  The extreme minor of a
    block given t rows has the hook product prod_{i<t} i!/(k - t + i)!
    as its leading coefficient, which is never 0."""
    sizes = list(block_sizes)
    if min(sizes, default=1) < 1:
        raise PreconditionError(f"block sizes must be at least 1, got {sizes}")
    total = sum(sizes)
    if not 0 <= r <= total:
        raise DimensionMismatchError(f"degree {r} out of range 0..{total}")
    steps = sorted((k - 2 * t - 1 for k in sizes for t in range(k)), reverse=True)
    return sum(steps[:r])


def second_compound_block_sizes(block_sizes: Sequence[int]) -> list[int]:
    """Jordan block sizes (descending, with multiplicity) of the second
    compound of a unipotent U with the given block sizes, by sl_2
    Clebsch-Gordan: each block J_a gives Lambda^2 J_a = sum of
    J_{2a-3-4t} (t >= 0 while the size is positive), and each unordered
    pair of distinct blocks J_a, J_b gives J_a (x) J_b = sum of
    J_{a+b-1-2t} (t = 0..min(a, b)-1).  The sizes are re-verified to fill
    C(d, 2), d = sum of the input sizes."""
    sizes = list(block_sizes)
    if min(sizes, default=1) < 1:
        raise PreconditionError(f"block sizes must be at least 1, got {sizes}")
    out: list[int] = []
    for i, a in enumerate(sizes):
        out.extend(range(2 * a - 3, 0, -4))
        for b in sizes[i + 1 :]:
            out.extend(range(a + b - 1, abs(a - b), -2))
    d = sum(sizes)
    if sum(out) != d * (d - 1) // 2:
        raise CrossCheckError(
            f"second-compound blocks fill {sum(out)}, expected C({d}, 2)"
        )
    return sorted(out, reverse=True)


@dataclass(frozen=True)
class BoundCheck:
    """One verified inequality or identity, with the law spelled out."""

    name: str
    law: str
    holds: bool


@dataclass(frozen=True)
class AnalysisReport:
    """Full verdict record for one matrix.

    The half-profile fields (half, plov, kJ) are None when the profile is
    not pseudo-analytic, and so are kf = 2 kJ and max_block_n1 = 2 kJ + 1;
    everything else is still computed.  dimension, genus, pseudo_analytic,
    kf and max_block_n1 are read-only properties of the stored fields.
    """

    profile: JordanProfile
    half: Optional[tuple[tuple[int, int, int], ...]]
    plov: Optional[int]
    kJ: Optional[int]
    max_block_compound2: int
    exponents: dict[int, int]
    bound_checks: tuple[BoundCheck, ...]

    dimension = property(lambda self: self.profile.dimension)
    genus = property(lambda self: self.dimension // 2)
    pseudo_analytic = property(lambda self: self.half is not None)
    kf = property(lambda self: None if self.kJ is None else 2 * self.kJ)
    max_block_n1 = property(lambda self: None if self.kJ is None else 2 * self.kJ + 1)


def analyze(m: RatMatrix, degrees: Optional[Sequence[int]] = None) -> AnalysisReport:
    """Run the full pipeline on an even-dimensional matrix, reading every
    invariant (the verdict's order included) off one `jordan_profile` call.

    Raises NotQuasiUnipotentError or OddDimensionError; a quasi-unipotent
    but non-pseudo-analytic input still yields a report, with the
    half-profile invariants and the bound checks absent.
    """
    dim = _expect(m, RatMatrix).dimension
    if dim % 2:
        raise OddDimensionError(f"dimension {dim} is odd; expected 2g")
    g = dim // 2
    profile = jordan_profile(m)
    pseudo = pseudo_analytic_check(profile)
    half = half_profile(profile) if pseudo else None
    plov = plov_of(half) if pseudo else None
    kj = max(k for _, k, _ in half) - 1 if pseudo else None

    if degrees is None:
        degrees = range(1, dim + 1)
    degrees = sorted(set(degrees))
    for r in degrees:
        if not 1 <= r <= dim:
            raise DimensionMismatchError(f"degree {r} out of range 1..{dim}")
    sizes = profile.unipotent_block_sizes()
    exponents = {r: max_minor_degree(sizes, r) for r in degrees}
    compound2_block = max(second_compound_block_sizes(sizes))

    # the paper's bounds hold for pseudo-analytic profiles only
    checks: list[BoundCheck] = []
    if pseudo:
        checks.append(
            BoundCheck(
                "volume_growth_upper_bound",
                "plov <= g + g*kf/2",
                plov <= g + g * kj,
            )
        )
        if kj == 1:
            checks.append(
                BoundCheck(
                    "quadratic_case_bound",
                    "plov <= 2*floor(g/2) + g when kf = 2",
                    plov <= 2 * (g // 2) + g,
                )
            )
        for r in degrees:
            if r % 2 == 0:
                half_r = r // 2
                checks.append(
                    BoundCheck(
                        f"even_degree_exponent_bound_r{r}",
                        f"exponent[{r}] <= 2*{half_r}*(g-{half_r})",
                        exponents[r] <= 2 * half_r * (g - half_r),
                    )
                )
        checks.append(
            BoundCheck(
                "compound2_block_identity",
                "max Jordan block of the second compound = 2*kJ + 1",
                compound2_block == 2 * kj + 1,
            )
        )

    return AnalysisReport(
        profile=profile,
        half=half,
        plov=plov,
        kJ=kj,
        max_block_compound2=compound2_block,
        exponents=exponents,
        bound_checks=tuple(checks),
    )
