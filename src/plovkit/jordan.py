"""Exact Jordan block structure of quasi-unipotent rational matrices.

Eigenvalues are identified only by the order n of the root of unity,
never as individual complex numbers: rank computations over Q cannot
separate Galois conjugates, and every growth invariant computed here
depends only on block sizes, which agree across conjugates.

For each cyclotomic index n in the factorization, with B = Phi_n(M), the
number of blocks of size >= j at each primitive n-th root of unity is
(rank B^(j-1) - rank B^j) / phi(n); the profile is assembled from these
differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .cyclotomic import cyclotomic_poly, euler_phi, require_quasi_unipotent
from .errors import (
    CrossCheckError,
    NotPseudoAnalyticError,
    NotUnipotentError,
    OddDimensionError,
)
from .exact import RatMatrix, mat_mul, poly_at_matrix, rank_exact


@dataclass(frozen=True)
class JordanProfile:
    """Multiset of Jordan data of a quasi-unipotent matrix.

    ``entries`` holds (order n, block size k, multiplicity m) triples,
    sorted, with distinct (n, k) keys; m counts the blocks of size k at
    each single primitive n-th root of unity (equal across conjugates).
    sum phi(n)*k*m = dimension always holds, and Phi_n divides the
    characteristic polynomial sum k*m times over the entries of order n.
    """

    entries: tuple[tuple[int, int, int], ...]
    dimension: int

    @property
    def order(self) -> int:
        """The least N with M^N unipotent: the lcm of the orders present."""
        return lcm(*(n for n, _, _ in self.entries))

    def unipotent_block_sizes(self) -> list[int]:
        """Block sizes of the unipotent iterate M^N, with multiplicity:
        each (n, k, m) entry contributes phi(n)*m blocks of size k."""
        sizes: list[int] = []
        for n, k, m in self.entries:
            sizes.extend([k] * (euler_phi(n) * m))
        return sorted(sizes, reverse=True)


@dataclass(frozen=True)
class HalfProfile:
    """Block data of one conjugate half J when the full Jordan form is
    J + conj(J); ``entries`` are (order, size, count) triples and the
    genus g = sum of size*count equals half the ambient dimension."""

    entries: tuple[tuple[int, int, int], ...]
    genus: int


def _block_size_counts(b: RatMatrix, phi: int, algebraic_mult: int | None,
                       dimension: int) -> dict[int, int]:
    """Block sizes from the rank sequence of powers of B = Phi_n(M):
    returns {size: multiplicity per primitive root}.  With
    ``algebraic_mult`` None, B = M - I for an M only claimed unipotent, and
    a rank that stalls above 0 disproves the claim."""
    target = 0 if algebraic_mult is None else dimension - phi * algebraic_mult
    ge_counts: list[int] = []  # ge_counts[j-1] = blocks of size >= j per root
    prev_rank = dimension
    power = b
    while prev_rank > target:
        r = rank_exact(power)
        drop = prev_rank - r
        if not drop and algebraic_mult is None:
            raise NotUnipotentError(
                f"matrix is not unipotent: the ranks of powers of M - I stall at {r}"
            )
        if drop <= 0 or drop % phi:
            raise CrossCheckError("rank sequence inconsistent with totient")
        ge_counts.append(drop // phi)
        prev_rank = r
        if prev_rank > target:
            power = mat_mul(power, b)
    counts: dict[int, int] = {}
    for size in range(1, len(ge_counts) + 1):
        ge_here = ge_counts[size - 1]
        ge_next = ge_counts[size] if size < len(ge_counts) else 0
        if ge_here - ge_next:
            counts[size] = ge_here - ge_next
    return counts


def jordan_profile(m: RatMatrix) -> JordanProfile:
    """Exact Jordan profile of a quasi-unipotent matrix via rank sequences."""
    verdict = require_quasi_unipotent(m)
    k_dim = m.dimension
    entries: list[tuple[int, int, int]] = []
    for n, mult in verdict.cyclotomic_factorization:
        b = poly_at_matrix(cyclotomic_poly(n), m)
        counts = _block_size_counts(b, euler_phi(n), mult, k_dim)
        entries.extend((n, size, c) for size, c in sorted(counts.items()))
    profile = JordanProfile(tuple(sorted(entries)), k_dim)
    total = sum(euler_phi(n) * k * m for n, k, m in profile.entries)
    if total != k_dim:
        raise CrossCheckError("Jordan profile does not fill the dimension")
    return profile


def unipotent_block_profile(m: RatMatrix) -> JordanProfile:
    """Jordan profile of a matrix claimed unipotent, without the cyclotomic
    search.  Its rank sequence of M - I is the one proof of the claim, so
    it gates every caller: a stall above rank 0 raises NotUnipotentError."""
    k_dim = m.dimension
    b = m - RatMatrix.identity(k_dim)
    counts = _block_size_counts(b, 1, None, k_dim)
    entries = tuple((1, size, c) for size, c in sorted(counts.items()))
    return JordanProfile(entries, k_dim)


def pseudo_analytic_check(profile: JordanProfile) -> bool:
    """True when the profile can split as two complex-conjugate halves.

    Blocks at real eigenvalues (orders 1 and 2) must occur with even
    multiplicity; for order >= 3 the primitive roots are non-real and
    Galois-paired with their conjugates, so no condition arises.
    """
    return all(m % 2 == 0 for n, _, m in profile.entries if n <= 2)


def half_profile(profile: JordanProfile) -> HalfProfile:
    """Extract one conjugate half of a pseudo-analytic profile.

    Orders 1 and 2 contribute count = m/2; an order n >= 3 entry carries
    m blocks at each of the phi(n) conjugate primitive roots, of which
    half belong to each conjugate half, so count = m*phi(n)/2.
    """
    if profile.dimension % 2:
        raise OddDimensionError("half profile requires even ambient dimension")
    if not pseudo_analytic_check(profile):
        raise NotPseudoAnalyticError(
            "odd multiplicity at a real eigenvalue: no conjugate splitting"
        )
    entries = []
    for n, k, m in profile.entries:
        count = m // 2 if n <= 2 else m * euler_phi(n) // 2
        entries.append((n, k, count))
    genus = sum(k * count for _, k, count in entries)
    if genus != profile.dimension // 2:
        raise CrossCheckError("half profile does not fill half the dimension")
    return HalfProfile(tuple(entries), genus)
