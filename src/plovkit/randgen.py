"""Seeded generators for random test matrices and forms.

Everything takes an explicit `random.Random` so that property suites are
reproducible; no global random state is touched.
"""

from __future__ import annotations

import random

from .cohomology import TwoForm
from .cyclotomic import cyclotomic_poly, euler_phi
from .errors import PreconditionError
from .exact import RatMatrix, UniPoly, char_poly, mat_mul, poly_at_matrix

# unimodular basis changes stay small so that conjugated matrices keep
# manageable integer entries
_SHEAR_RANGE = (-2, 2)


def _composition(rng: random.Random, total: int) -> list[int]:
    """Random composition of `total` into positive parts, in draw order."""
    parts = []
    remaining = total
    while remaining:
        part = rng.randint(1, remaining)
        parts.append(part)
        remaining -= part
    return parts


def random_partition(rng: random.Random, total: int) -> list[int]:
    """Random composition of `total` into positive parts, sorted descending."""
    return sorted(_composition(rng, total), reverse=True)


def random_unimodular(rng: random.Random, k: int) -> RatMatrix:
    """Random integer matrix with determinant +-1 (products of k + 3
    shears and row swaps)."""
    rows = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(k + 3):
        if k >= 2 and rng.random() < 0.25:
            i, j = rng.sample(range(k), 2)
            rows[i], rows[j] = rows[j], rows[i]
        elif k >= 2:
            i, j = rng.sample(range(k), 2)
            c = rng.randint(*_SHEAR_RANGE)
            if c:
                rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return RatMatrix(tuple(map(tuple, rows)))


def invert_unimodular(s: RatMatrix) -> RatMatrix:
    """Exact inverse of any invertible input, by Cayley-Hamilton: with
    char_poly(s) = sum c_i t^i, S^-1 = -(c_1 + c_2 S + ... + c_K S^(K-1))
    / c_0, evaluated on the integer coefficients by `poly_at_matrix`."""
    p = char_poly(s)
    if not p.num[0]:
        raise PreconditionError("matrix is singular")
    return poly_at_matrix(UniPoly(p.num[1:], -p.num[0]), s)


def conjugate(m: RatMatrix, s: RatMatrix) -> RatMatrix:
    """s * m * s^{-1}."""
    return mat_mul(mat_mul(s, m), invert_unimodular(s))


def unipotent_from_sizes(sizes: list[int]) -> RatMatrix:
    return RatMatrix.block_diag(*(RatMatrix.jordan_block(1, k) for k in sizes))


def random_unipotent(
    rng: random.Random, dimension: int, conjugated: bool = True
) -> tuple[RatMatrix, list[int]]:
    """Random unipotent matrix as a (possibly conjugated) sum of Jordan
    blocks; also returns the block sizes."""
    sizes = random_partition(rng, dimension)
    m = unipotent_from_sizes(sizes)
    if conjugated:
        m = conjugate(m, random_unimodular(rng, dimension))
    return m, sizes


def random_spd(rng: random.Random, dimension: int) -> RatMatrix:
    """G^T G + I for a random integer G: symmetric positive definite even
    when G is singular."""
    g = random_integer_matrix(rng, dimension)
    return mat_mul(g.transpose(), g) + RatMatrix.identity(dimension)


def rational_root_block(order: int, size: int) -> RatMatrix:
    """Rational matrix whose Jordan profile is the single entry
    (order, size, 1): companion blocks of the order-th cyclotomic
    polynomial on the diagonal (integral: Phi_n is monic), identity links
    above.  Orders 1 and 2 give J_size(1) and J_size(-1)."""
    comp = RatMatrix.companion(cyclotomic_poly(order))
    d = comp.dimension
    rows = [list(row) for row in RatMatrix.block_diag(*[comp] * size).num]
    for i in range(d * (size - 1)):
        rows[i][i + d] = 1
    return RatMatrix(tuple(map(tuple, rows)))


def random_pseudo_analytic(
    rng: random.Random,
    genus: int,
    conjugated: bool = False,
    allow_orders: tuple[int, ...] = (1,),
) -> tuple[RatMatrix, list[int]]:
    """Random 2g-dimensional matrix whose profile splits into conjugate
    halves; returns the matrix and the half block sizes (descending).

    Every block is a `rational_root_block`.  Real-eigenvalue blocks
    (orders 1 and 2) are inserted twice; an order with totient 2 gives one
    block of dimension 2k, which already pairs its two conjugate roots.
    With orders restricted to {1} this is exactly J + J for a unipotent J.
    """
    orders = [n for n in allow_orders if euler_phi(n) <= 2]
    if not orders:
        raise PreconditionError("need at least one order with totient at most 2")
    half_sizes: list[int] = []
    pieces: list[RatMatrix] = []
    remaining = genus
    while remaining:
        order = rng.choice(orders)
        size = rng.randint(1, remaining)
        half_sizes.append(size)
        remaining -= size
        block = rational_root_block(order, size)
        pieces += [block] * (2 // euler_phi(order))
    m = RatMatrix.block_diag(*pieces)
    if m.dimension != 2 * genus:
        raise AssertionError("pseudo-analytic construction has wrong size")
    if conjugated:
        m = conjugate(m, random_unimodular(rng, 2 * genus))
    return m, sorted(half_sizes, reverse=True)


def paired_unipotent(half_sizes: list[int]) -> RatMatrix:
    """J + J on paired coordinates for the given half block sizes."""
    j = unipotent_from_sizes(half_sizes)
    return RatMatrix.block_diag(j, j)


def random_paired_unipotent(
    rng: random.Random, genus: int
) -> tuple[RatMatrix, list[int]]:
    """Random unipotent J + J on paired coordinates (adapted to the
    standard 2-form)."""
    half_sizes = random_partition(rng, genus)
    return paired_unipotent(half_sizes), half_sizes


def random_integer_matrix(rng: random.Random, dimension: int, span: int = 3) -> RatMatrix:
    """Entries drawn from -span..span, row by row."""
    rows = [[rng.randint(-span, span) for _ in range(dimension)] for _ in range(dimension)]
    return RatMatrix(tuple(map(tuple, rows)))


def random_quasi_unipotent(rng: random.Random, dimension: int) -> RatMatrix:
    """Random quasi-unipotent matrix: block sum of cyclotomic companion
    blocks and unipotent blocks filling the dimension, conjugated."""
    pieces = []
    remaining = dimension
    candidates = (1, 2, 3, 4, 6)
    while remaining:
        order = rng.choice(candidates)
        d = euler_phi(order)
        if d > remaining:
            order, d = 1, 1
        if order == 1 and rng.random() < 0.6:
            size = rng.randint(1, remaining)
            pieces.append(RatMatrix.jordan_block(1, size))
            remaining -= size
        else:
            pieces.append(RatMatrix.companion(cyclotomic_poly(order)))
            remaining -= d
    m = RatMatrix.block_diag(*pieces)
    return conjugate(m, random_unimodular(rng, dimension))


def random_mixed_matrix(rng: random.Random, dimension: int) -> RatMatrix:
    """Quasi-unipotent or not, roughly evenly: either a conjugated
    root-of-unity block sum or one with a growing factor mixed in."""
    if rng.random() < 0.5:
        return random_quasi_unipotent(rng, dimension)
    pieces = [RatMatrix.from_rows([[0, 1], [1, 1]])]  # trace grows: not QU
    pieces += [RatMatrix.jordan_block(1, k) for k in _composition(rng, dimension - 2)]
    m = RatMatrix.block_diag(*pieces)
    return conjugate(m, random_unimodular(rng, dimension))


def randgen_two_form(rng: random.Random, genus: int) -> TwoForm:
    """Random nonzero 2-form with small integer coefficients."""
    while True:
        coeffs = {}
        for i in range(1, 2 * genus + 1):
            for j in range(i + 1, 2 * genus + 1):
                if rng.random() < 0.5:
                    coeffs[(i, j)] = rng.randint(-2, 2)
        form = TwoForm(genus, coeffs)
        if not form.is_zero():
            return form
