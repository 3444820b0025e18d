"""Exact Jordan block structure of quasi-unipotent rational matrices.

Eigenvalues are identified only by the order n of the root of unity,
never as individual complex numbers: rank computations over Q cannot
separate Galois conjugates, and every growth invariant computed here
depends only on block sizes, which agree across conjugates.

For each cyclotomic index n in the factorization, with B = Phi_n(M), the
number of blocks of size >= j at each primitive n-th root of unity is
(rank B^(j-1) - rank B^j) / phi(n); the profile is assembled from these
differences.  A conjugate half is read off the profile: an order-n
entry's phi(n)*m blocks of size k split evenly between the two halves.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .cyclotomic import _positive, _stripped, cyclotomic_poly, euler_phi
from .errors import (
    CrossCheckError,
    NotPseudoAnalyticError,
    NotUnipotentError,
    OddDimensionError,
    PreconditionError,
)
from .exact import RatMatrix, _expect, mat_mul, poly_at_matrix, rank_exact


@dataclass(frozen=True)
class JordanProfile:
    """Multiset of Jordan data of a quasi-unipotent matrix.

    ``entries`` holds (order n, block size k, multiplicity m) triples,
    sorted, with distinct (n, k) keys; m counts the blocks of size k at
    each single primitive n-th root of unity (equal across conjugates).
    sum phi(n)*k*m = dimension always holds, and Phi_n divides the
    characteristic polynomial sum k*m times over the entries of order n.
    The constructor checks the triples of positive ints, the key order and
    the fill: a non-int raises TypeError, any other failure PreconditionError.
    """

    entries: tuple[tuple[int, int, int], ...]
    dimension: int

    def __post_init__(self):
        flat = [v for entry in self.entries for v in entry]
        if not all(isinstance(v, int) for v in [self.dimension, *flat]):
            raise TypeError("Jordan profile entries and dimension are ints")
        keys = [tuple(entry[:2]) for entry in self.entries]
        if (
            {*map(len, self.entries)} - {3}
            or min(flat, default=1) < 1
            or keys != sorted(set(keys))
            or sum(euler_phi(n) * k * m for n, k, m in self.entries) != self.dimension
        ):
            raise PreconditionError(
                f"{self.entries} is not a Jordan profile of dimension {self.dimension}"
            )

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
    ge_counts.append(0)
    pairs = zip(ge_counts, ge_counts[1:])
    return {size: ge - gt for size, (ge, gt) in enumerate(pairs, 1) if ge != gt}


def jordan_profile(m: RatMatrix) -> JordanProfile:
    """Exact Jordan profile of a quasi-unipotent matrix via rank sequences,
    which prove its order with no trace witness: each drops at its first
    step and reaches K - phi(n)*mult, and the fill forces the independent
    generalized kernels of the coprime Phi_n(M) to fill the space, so every
    eigenvalue is a primitive n-th root for a listed n."""
    k_dim = _expect(m, RatMatrix).dimension
    entries: list[tuple[int, int, int]] = []
    for n, mult in _positive(_stripped(m)).cyclotomic_factorization:
        b = poly_at_matrix(cyclotomic_poly(n), m)
        counts = _block_size_counts(b, euler_phi(n), mult, k_dim)
        entries.extend((n, size, c) for size, c in sorted(counts.items()))
    # checked before the record checks itself: a fault here is arithmetic
    if sum(euler_phi(n) * k * c for n, k, c in entries) != k_dim:
        raise CrossCheckError("Jordan profile does not fill the dimension")
    return JordanProfile(tuple(sorted(entries)), k_dim)


def unipotent_block_profile(m: RatMatrix) -> JordanProfile:
    """Jordan profile of a matrix claimed unipotent, without the cyclotomic
    search.  Its rank sequence of M - I is the one proof of the claim, so
    it gates every caller: a stall above rank 0 raises NotUnipotentError."""
    k_dim = _expect(m, RatMatrix).dimension
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
    entries = _expect(profile, JordanProfile).entries
    return all(m % 2 == 0 for n, _, m in entries if n <= 2)


def half_profile(profile: JordanProfile) -> tuple[tuple[int, int, int], ...]:
    """One conjugate half of a pseudo-analytic profile, as (order, size,
    count) triples: an order-n entry has m blocks at each of the phi(n)
    primitive roots, and half of its phi(n)*m blocks lie in each half, so
    count = phi(n)*m/2 and the counts fill half the dimension."""
    if _expect(profile, JordanProfile).dimension % 2:
        raise OddDimensionError("half profile requires even ambient dimension")
    if not pseudo_analytic_check(profile):
        raise NotPseudoAnalyticError(
            "odd multiplicity at a real eigenvalue: no conjugate splitting"
        )
    return tuple((n, k, euler_phi(n) * m // 2) for n, k, m in profile.entries)
