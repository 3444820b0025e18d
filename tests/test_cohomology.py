"""Tests for the exterior-algebra model: pullbacks, divisor classes,
Pfaffians, intersection numbers, and the vanishing scan.

Oracles: literal substitution for pullbacks, summation over matrix powers
for the divisor classes, hand sign bookkeeping for small wedges, and the
literal wedge expansion for the Pfaffian route, and the plain
elimination `pfaffian` for the product over the blocks of the support
graph.
"""

import dataclasses
import importlib.util
import itertools
import json
import math
import random
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from plovkit import (
    RatMatrix,
    TwoForm,
    UniPoly,
    VanishingScanReport,
    half_profile,
    intersection_poly,
    jordan_profile,
    mat_mul,
    mat_pow,
    pfaffian,
    plov_of,
    plov_via_model,
    power_sum_det,
    pullback2,
    scan_chain,
    vanishing_scan,
)
from plovkit.errors import (
    CrossCheckError,
    DegenerateFormError,
    DegreeBoundError,
    DimensionMismatchError,
    NotPseudoAnalyticError,
    NotUnipotentError,
    OddDimensionError,
    PreconditionError,
)
from plovkit import cohomology
from plovkit.cohomology import nilpotent_chain, scan_size
from plovkit import exact
from plovkit.exact import interpolate_checked
from plovkit.plov import second_compound_block_sizes
from plovkit.randgen import (
    conjugate,
    paired_unipotent,
    random_paired_unipotent,
    random_unimodular,
    randgen_two_form,
)
from plovkit.selfcheck import literal_scan, polarization, wedge_coefficient


def poly_n(*coeffs):
    return UniPoly.from_coeffs(coeffs, "n")


def quad_block():
    j12 = RatMatrix.jordan_block(1, 2)
    return RatMatrix.block_diag(j12, j12)


def delta(chain, x):
    """The skew matrix of Delta_x = sum_i C(x, i+1) chain[i], summed
    literally through `+` and scalar `*`."""
    total = RatMatrix.zero(chain[0].matrix.dimension)
    for i, form in enumerate(chain):
        total = total + form.matrix * math.comb(x, i + 1)
    return total


def telescoped_delta(m, h, x):
    """The skew matrix of Delta_x as the literal sum of pullback2(M^m, H)
    over m < x."""
    acc = RatMatrix.zero(2 * h.genus)
    power = RatMatrix.identity(2 * h.genus)
    for _ in range(x):
        acc = acc + pullback2(power, h).matrix
        power = mat_mul(power, m)
    return acc


def pf_value(form):
    """Pf(A) = Pf(num)/den^g for the skew matrix A = num/den of the form;
    `pfaffian` returns the integer Pf(num)."""
    return Fraction(pfaffian(form), form.matrix.den**form.genus)


def random_rational_form(rng, g):
    """2-form with rational coefficients and a random density."""
    density = rng.choice([0.2, 0.5, 0.9])
    return TwoForm(
        g,
        {
            (i, j): Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            for i in range(1, 2 * g + 1)
            for j in range(i + 1, 2 * g + 1)
            if rng.random() < density
        },
    )


def dense_rational_form(rng, g):
    """2-form with a nonzero rational coefficient on every pair."""
    return TwoForm(
        g,
        {
            (i, j): Fraction(rng.choice([-1, 1]) * rng.randint(1, 4), rng.randint(1, 3))
            for i in range(1, 2 * g + 1)
            for j in range(i + 1, 2 * g + 1)
        },
    )


def swap_forcing_form(rng, g):
    """Dense integer 2-form, g >= 2, whose Pfaffian on e_1..e_4 vanishes:
    after the first 2x2 pivot the entry (3, 4) is zero, so the
    elimination must swap in a later pivot."""
    k = 2 * g
    while True:
        a = {
            (i, j): rng.choice([-1, 1]) * rng.randint(1, 5)
            for i in range(1, k + 1)
            for j in range(i + 1, k + 1)
        }
        a[(1, 2)] = 1
        a[(3, 4)] = a[(1, 3)] * a[(2, 4)] - a[(1, 4)] * a[(2, 3)]
        if a[(3, 4)]:
            return TwoForm(g, a)


def multisets_above(g, kf):
    """The multisets of g indices in 0..kf above the scan's threshold, in
    lexicographic order, by enumeration."""
    return [
        key
        for key in itertools.combinations_with_replacement(range(kf + 1), g)
        if 2 * sum(key) > g * kf
    ]


def scan_multisets_and_betas(g, kf):
    """The multisets of g indices in 0..kf above the scan's threshold, and
    the nonzero beta <= some such multiset (the scan's Pfaffian weights)."""
    above = multisets_above(g, kf)
    betas = {
        beta
        for key in above
        for beta in itertools.product(*(range(key.count(i) + 1) for i in range(kf + 1)))
        if any(beta)
    }
    return above, betas


def assert_values_match_both_references(family):
    """Every multiset above the threshold takes, in the scan of ``family``,
    its stored value or 0, and that equals the polarization sum of its
    multiset, term by term, and the literal wedge of its factors.  Returns
    how many are nonzero and how many there are."""
    report = scan_chain(family)
    pf, den_g, _, _ = cohomology._common_pfaffian(tuple(family))
    kf, g = len(family) - 1, family[0].genus
    above, nonzero = multisets_above(g, kf), dict(report.nonzero)
    assert nonzero.keys() <= set(above)
    for key in above:
        value = nonzero.get(key, 0)
        alpha = [key.count(i) for i in range(kf + 1)]
        assert value == Fraction(polarization(alpha, pf), den_g), key
        assert value == wedge_coefficient([family[i] for i in key]), key
    return len(nonzero), len(above)


def weighted_rows_cover(forms, beta):
    """Whether the forms with a nonzero weight in beta together have a
    nonzero entry in every row."""
    rows = {
        r
        for form, b in zip(forms, beta)
        if b
        for r, row in enumerate(form.matrix.num)
        if any(row)
    }
    return len(rows) == forms[0].matrix.dimension


def sparse_form(rng, g, live, den=1):
    """Random integer 2-form over den on the pairs inside the index set
    ``live`` (1-based), nonzero on every row of ``live``; the other rows
    are empty."""
    live = sorted(live)
    while True:
        coeffs = {
            (i, j): Fraction(rng.choice([-1, 1]) * rng.randint(1, 3), den)
            for i in live
            for j in live
            if i < j and rng.random() < 0.6
        }
        form = TwoForm(g, coeffs)
        if all(any(form.matrix.num[i - 1]) for i in live):
            return form


def rescaled(form, d):
    """D A D for D = diag(1/d_1, ..., 1/d_2g): coefficient (i, j) divided
    by d_i * d_j.  Every sub-Pfaffian keeps its vanishing, and the
    Pfaffian is divided by prod(d)."""
    return TwoForm(
        form.genus,
        {(i, j): v / (d[i - 1] * d[j - 1]) for (i, j), v in form.items()},
    )


# ---------------------------------------------------------------------------
# 2-forms


def test_two_form_rejects_pair_out_of_range():
    for pair in [(0, 1), (2, 2), (3, 2), (1, 5)]:
        with pytest.raises(DimensionMismatchError):
            TwoForm(2, {pair: 1})


def test_two_form_rejects_nonpositive_genus():
    with pytest.raises(PreconditionError):
        TwoForm(0)


def test_two_form_compares_and_hashes_by_value():
    rng = random.Random(60)
    half = TwoForm(2, {(1, 2): Fraction(2, 4), (3, 4): 3})
    assert half == TwoForm(2, {(1, 2): Fraction(1, 2), (3, 4): 3, (1, 3): 0})
    assert hash(half) == hash(TwoForm(2, {(3, 4): 3, (1, 2): Fraction(1, 2)}))
    assert half.matrix == TwoForm(2, {(1, 2): 1, (3, 4): 6}).matrix * Fraction(1, 2)
    assert half != TwoForm(3, {(1, 2): Fraction(1, 2), (3, 4): 3})
    assert repr(half) == f"TwoForm(matrix={half.matrix!r})"
    for _ in range(6):
        g = rng.randint(1, 3)
        h, w = random_rational_form(rng, g), randgen_two_form(rng, g)
        x = rng.randint(-3, 5)
        combined = h.matrix * (x - 1) + w.matrix * 0 + h.matrix * 1
        assert combined == x * h.matrix == h.matrix * x
        assert hash(combined) == hash(h.matrix * x)
        assert len({combined, x * h.matrix, h.matrix * x}) == 1
        assert h.matrix * 2 + w.matrix * -1 == h.matrix + h.matrix - w.matrix
        assert h.matrix * 0 + w.matrix * 0 == TwoForm(g).matrix
        # items() lists the nonzero coefficients in lexicographic order
        items = h.items()
        assert [p for p, _ in items] == sorted(p for p, _ in items)
        assert all(v for _, v in items)
        assert TwoForm(g, dict(items)) == h
        a = h.matrix.entries
        assert all(a[i - 1][j - 1] == v == -a[j - 1][i - 1] for (i, j), v in items)


def test_two_form_coefficient_rejects_pair_out_of_range():
    w = TwoForm.standard(2)
    assert w.matrix.entries[0][2] == 1 and w.matrix.entries[0][1] == 0
    # a zero coefficient does not excuse its key
    for pair in [(3, 1), (0, 1), (1, 5)]:
        with pytest.raises(DimensionMismatchError):
            TwoForm(2, {pair: 0})


@pytest.mark.parametrize("coeffs", [{(5, 9): 0}, {(1, 2, 3): 1}, {1: 1}, {(1, 2.0): 1}])
def test_two_form_checks_every_key_whatever_its_value(coeffs):
    (key,) = coeffs
    with pytest.raises(DimensionMismatchError, match=re.escape(repr(key))):
        TwoForm(2, coeffs)


def test_two_form_rejects_inexact_values():
    with pytest.raises(TypeError):
        TwoForm(2, {(1, 2): 0.5})


def test_chain_rejects_zero_form():
    with pytest.raises(DegenerateFormError):
        nilpotent_chain(quad_block(), TwoForm(2))


# ---------------------------------------------------------------------------
# pullbacks


def test_pullback_identity_fixes_everything():
    rng = random.Random(61)
    for _ in range(5):
        g = rng.randint(1, 3)
        w = randgen_two_form(rng, g)
        assert pullback2(RatMatrix.identity(2 * g), w) == w


def test_pullback_block_leader_fixed():
    m = quad_block()
    w = TwoForm(2, {(1, 3): 1})
    assert pullback2(m, w) == w


def test_pullback_substitution_example():
    # M e2 = e1 + e2 and M e4 = e3 + e4, so e2^e4 expands to four terms
    m = quad_block()
    w = TwoForm(2, {(2, 4): 1})
    expected = TwoForm(2, {(1, 3): 1, (1, 4): 1, (2, 3): 1, (2, 4): 1})
    assert pullback2(m, w) == expected


def test_pullback_substitution_oracle_random():
    # oracle: expand (M e_i) ^ (M e_j) coordinate by coordinate
    rng = random.Random(62)
    for _ in range(8):
        g = rng.randint(1, 3)
        k = 2 * g
        m = RatMatrix.from_rows(
            [[rng.randint(-2, 2) for _ in range(k)] for _ in range(k)]
        )
        w = randgen_two_form(rng, g)
        expected: dict = {}
        for (i, j), c in w.items():
            for a in range(1, k + 1):
                for b in range(1, k + 1):
                    if a >= b:
                        continue
                    v = (
                        m.entries[a - 1][i - 1] * m.entries[b - 1][j - 1]
                        - m.entries[b - 1][i - 1] * m.entries[a - 1][j - 1]
                    )
                    expected[(a, b)] = expected.get((a, b), Fraction(0)) + c * v
        assert pullback2(m, w) == TwoForm(g, expected)


def test_pullback_power_functoriality():
    rng = random.Random(63)
    for _ in range(5):
        g = rng.randint(1, 3)
        m = RatMatrix.from_rows(
            [[rng.randint(-2, 2) for _ in range(2 * g)] for _ in range(2 * g)]
        )
        w = randgen_two_form(rng, g)
        iterated = w
        for step in range(1, 7):
            iterated = pullback2(m, iterated)
            assert pullback2(mat_pow(m, step), w) == iterated


def test_pullback_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        pullback2(RatMatrix.identity(2), TwoForm(2, {(1, 2): 1}))


# ---------------------------------------------------------------------------
# divisor classes at integer nodes


def test_delta_identity_matrix():
    h = TwoForm.standard(2)
    chain = nilpotent_chain(RatMatrix.identity(4), h)
    for x in range(8):
        assert delta(chain, x) == h.matrix * x


def test_delta_quad_block_coefficients():
    chain = nilpotent_chain(quad_block(), TwoForm.standard(2))
    expected = {
        (1, 3): poly_n(0, Fraction(7, 6), Fraction(-1, 2), Fraction(1, 3)),
        (1, 4): poly_n(0, Fraction(-1, 2), Fraction(1, 2)),
        (2, 3): poly_n(0, Fraction(-1, 2), Fraction(1, 2)),
        (2, 4): poly_n(0, 1),
    }
    for x in range(8):
        d = delta(chain, x)
        for (i, j), p in expected.items():
            assert d.entries[i - 1][j - 1] == p(x)
        assert d == TwoForm(2, {pair: p(x) for pair, p in expected.items()}).matrix


def test_delta_evaluates_to_h_at_one():
    rng = random.Random(64)
    for _ in range(5):
        g = rng.randint(1, 3)
        m, _ = random_paired_unipotent(rng, g)
        h = randgen_two_form(rng, g)
        assert delta(nilpotent_chain(m, h), 1) == h.matrix


def test_delta_telescoping_oracle():
    rng = random.Random(65)
    for _ in range(6):
        g = rng.randint(1, 3)
        m, _ = random_paired_unipotent(rng, g)
        h = randgen_two_form(rng, g)
        chain = nilpotent_chain(m, h)
        for n0 in range(0, 9):
            assert delta(chain, n0) == telescoped_delta(m, h, n0)


def test_delta_rejects_non_unipotent():
    m, h = RatMatrix.jordan_block(-1, 2), TwoForm(1, {(1, 2): 1})
    with pytest.raises(NotUnipotentError):
        nilpotent_chain(m, h)
    with pytest.raises(NotUnipotentError):
        intersection_poly(nilpotent_chain(m, h), 2)


# ---------------------------------------------------------------------------
# intersection numbers


def test_intersection_genus_one():
    c = poly_n(3, 1)
    for x in range(5):
        form = TwoForm(1, {(1, 2): c(x)})
        assert wedge_coefficient([form]) == c(x)
        assert pfaffian(form) == c(x)


def test_intersection_sign_bookkeeping_oracle():
    # coefficient of e1^e2^e3^e4 in w^w for
    # w = a e1^e3 + b e1^e4 + c e2^e3 + d e2^e4 is 2(bc - ad)
    a, b, c, d = (poly_n(2), poly_n(0, 1), poly_n(5), poly_n(1, 1))
    for x in range(5):
        w = TwoForm(2, {(1, 3): a(x), (1, 4): b(x), (2, 3): c(x), (2, 4): d(x)})
        expected = 2 * (b(x) * c(x) - a(x) * d(x))
        assert wedge_coefficient([w, w]) == expected
        assert 2 * pfaffian(w) == expected
    # independent permutation-sign oracle on constant forms
    rng = random.Random(66)
    for _ in range(6):
        forms = [randgen_two_form(rng, 2) for _ in range(2)]
        def sign(perm):
            s = 1
            for x, y in itertools.combinations(range(4), 2):
                if perm[x] > perm[y]:
                    s = -s
            return s
        total = Fraction(0)
        for (p1, c1) in forms[0].items():
            for (p2, c2) in forms[1].items():
                seq = p1 + p2
                if len(set(seq)) != 4:
                    continue
                total += c1 * c2 * sign(seq)
        assert wedge_coefficient(forms) == total


def test_intersection_delta_self_wedge_closed_form():
    result = intersection_poly(nilpotent_chain(quad_block(), TwoForm.standard(2)), 5)
    # -(1/6) n^2 (n^2 + 11), degree 4 with leading coefficient -1/6
    assert result == poly_n(0, 0, Fraction(-11, 6), 0, Fraction(-1, 6))
    assert result.degree() == 4
    assert result.leading() == Fraction(-1, 6)


def test_intersection_poly_verification_node(monkeypatch):
    # values that no polynomial of degree <= D takes at 0..D+1 must raise;
    # on this chain Delta_x = x * e1^e2, one 1 x 1 block B = [[x]], valued
    # by its entry, so the memo's pf is faked: 3^x, and 0 where pf is 0
    # (at x = 0).  A caller's bound is the caller's error; the bound and
    # mirror law of `plov_via_model` are proved, so there a miss is a
    # cross-check failure, with the same text
    with pytest.raises(DegreeBoundError, match="^intersection_poly at dimension 2: "):
        intersection_poly([TwoForm.standard(1)], 0)
    real = cohomology._common_pfaffian

    def faked(chain):
        pf, *rest = real(chain)
        return (lambda weights: 3 ** weights[0] if pf(weights) else 0), *rest

    monkeypatch.setattr(cohomology, "_common_pfaffian", faked)
    chain = nilpotent_chain(RatMatrix.identity(2), TwoForm(1, {(1, 2): 1}))
    with pytest.raises(DegreeBoundError, match="intersection_poly") as caught:
        intersection_poly(chain, 2)
    assert isinstance(caught.value, PreconditionError)
    with pytest.raises(CrossCheckError) as caught:
        plov_via_model(RatMatrix.identity(2), TwoForm(1, {(1, 2): 1}))
    assert str(caught.value) == (
        "intersection_poly at dimension 2: interpolant on nodes -1..1 with "
        "P(-x) = -P(x) misses the check node x = 2 (degree bound too small?)"
    )
    assert isinstance(caught.value.__cause__, DegreeBoundError)


@pytest.mark.parametrize("sizes", [[3, 1], [4, 1]])
def test_intersection_poly_mirrored_nodes_give_the_same_polynomial(sizes, monkeypatch):
    # Pf(Delta_{-x}) = (-1)^g Pf(Delta_x): with the parity, the nodes are
    # -floor(D/2)..D - floor(D/2) and only x = 1..D - floor(D/2) + 1 are
    # eliminated; the opposite parity misses the check node
    g = sum(sizes)
    chain = nilpotent_chain(paired_unipotent(sizes), TwoForm.standard(g))
    bound = plov_of(half_profile(jordan_profile(paired_unipotent(sizes)))) + 1
    plain = intersection_poly(chain, bound)
    nodes = []
    real = cohomology._common_pfaffian

    def recording(chain):
        pf, *rest = real(chain)
        return (lambda weights: nodes.append(weights[0]) or pf(weights)), *rest

    monkeypatch.setattr(cohomology, "_common_pfaffian", recording)
    assert intersection_poly(chain, bound, (-1) ** g) == plain
    assert nodes == list(range(bound - bound // 2 + 2))
    with pytest.raises(DegreeBoundError, match=r"with P\(-x\) = [+-]P\(x\)"):
        intersection_poly(chain, bound, -((-1) ** g))
    assert plov_via_model(paired_unipotent(sizes), TwoForm.standard(g)).poly == plain


def test_model_wrong_mirror_law_is_a_cross_check_failure(monkeypatch):
    real = cohomology.intersection_poly

    def flipped(chain, degree_bound, parity):
        return real(chain, degree_bound, -parity)

    monkeypatch.setattr(cohomology, "intersection_poly", flipped)
    with pytest.raises(CrossCheckError, match=r"^intersection_poly at dimension 4: .*x = "):
        plov_via_model(quad_block(), TwoForm.standard(2))


def test_intersection_arity_checks():
    w = TwoForm(2, {(1, 3): 1})
    with pytest.raises(DimensionMismatchError):
        wedge_coefficient([w])
    with pytest.raises(DimensionMismatchError):
        wedge_coefficient([w, w, w])


def test_pfaffian_matches_literal_wedge():
    # the top coefficient of w^g is g! Pf(w)
    rng = random.Random(71)
    for _ in range(60):
        g = rng.randint(1, 5)
        w = random_rational_form(rng, g)
        assert math.factorial(g) * pf_value(w) == wedge_coefficient([w] * g)


def test_pfaffian_small_cases():
    assert pfaffian(TwoForm(3)) == 0
    # a zero leading row leaves the Pfaffian zero
    assert pfaffian(TwoForm(2, {(2, 3): 1, (2, 4): 5, (3, 4): 2})) == 0
    # the standard form needs a pivot swap at every block
    assert pfaffian(TwoForm.standard(3)) == -1
    # Pf(A) = 3/2 for A = num/2: Pf(num) = 6 * 1, carried over 2^2
    form = TwoForm(2, {(1, 2): 3, (3, 4): Fraction(1, 2)})
    assert form.matrix.den == 2
    assert pfaffian(form) == 6
    assert pf_value(form) == Fraction(3, 2)


def test_pfaffian_with_pivot_swap_matches_literal_wedge():
    # g = 6 on dense forms whose leading 4x4 Pfaffian vanishes: the
    # fraction-free elimination swaps after its first step and divides
    # by several pivots other than +-1; the rescaled forms carry mixed
    # denominators, which the den^g scaling must undo
    rng = random.Random(75)
    for _ in range(3):
        w = swap_forcing_form(rng, 6)
        d = [rng.randint(1, 4) for _ in range(12)]
        scaled = rescaled(w, d)
        assert scaled.matrix.den > 1
        pf = pfaffian(w)
        assert pf != 0 and type(pf) is int and w.matrix.den == 1
        assert pf_value(scaled) == Fraction(pf, math.prod(d))
        for form in (w, scaled):
            assert math.factorial(6) * pf_value(form) == wedge_coefficient([form] * 6)


def test_intersection_poly_matches_literal_wedge_of_telescoped_sum():
    # independent of both the chain and the Pfaffian: Delta_x is the sum
    # of pullbacks along M^m, wedged literally
    rng = random.Random(72)
    denominators = set()
    for _ in range(10):
        g = rng.randint(1, 4)
        m, _ = random_paired_unipotent(rng, g)
        h = rng.choice([TwoForm.standard(g), randgen_two_form(rng, g)])
        plov = plov_of(half_profile(jordan_profile(m)))
        # a rational form puts the chain over a denominator, whose g-th
        # power intersection_poly carries and divides once
        for form in (h, dense_rational_form(rng, g)):
            chain = nilpotent_chain(m, form)
            denominators.update(f.matrix.den for f in chain)
            poly = intersection_poly(chain, plov + 1)
            for x in range(7):
                literal = TwoForm._of(telescoped_delta(m, form, x))
                assert poly(x) == wedge_coefficient([literal] * g)
    assert max(denominators) > 1


def test_plov_bound_gives_the_polynomial_of_the_chain_length_bound():
    # plov_via_model interpolates on plov + 1; the looser g * len(chain),
    # from entries of degree at most len(chain), must give the same poly
    rng = random.Random(76)
    for _ in range(10):
        g = rng.randint(1, 4)
        m, _ = random_paired_unipotent(rng, g)
        plov = plov_of(half_profile(jordan_profile(m)))
        for h in (TwoForm.standard(g), randgen_two_form(rng, g)):
            chain = nilpotent_chain(m, h)
            literal = interpolate_checked(
                lambda x: math.factorial(g) * pf_value(TwoForm._of(delta(chain, x))),
                g * len(chain),
                "chain length bound",
            )
            assert intersection_poly(chain, plov + 1) == literal


def test_both_interpolations_take_their_degree_from_the_profile(monkeypatch):
    # one node past the proved degree, so that a larger degree stays
    # visible: sum k_i^2 + 2 values for power_sum_det, plov + 2 for
    # plov_via_model
    counts = []
    interpolate = exact._interpolate

    def counting(values, start):
        counts.append(len(values))
        return interpolate(values, start)

    monkeypatch.setattr(exact, "_interpolate", counting)
    for k in (8, 14):
        power_sum_det(RatMatrix.jordan_block(1, k), RatMatrix.identity(k))
    plov_via_model(paired_unipotent([6]), TwoForm.standard(6))
    assert counts == [8 * 8 + 2, 14 * 14 + 2, 36 + 2]


# ---------------------------------------------------------------------------
# model volume growth


def test_model_identity_genus_two():
    # identity: half blocks all of size 1, profile value g = 2 = degree
    result = plov_via_model(RatMatrix.identity(4), TwoForm.standard(2))
    assert result.degree == 2
    assert result.profile_plov == 2
    assert result.matches_profile


def test_model_quad_block_standard_form():
    result = plov_via_model(quad_block(), TwoForm.standard(2))
    assert result.degree == 4
    assert result.profile_plov == 4
    assert result.matches_profile


def test_model_degenerate_form_raises():
    with pytest.raises(DegenerateFormError):
        plov_via_model(quad_block(), TwoForm(2, {(1, 3): 1}))


def test_model_undershooting_form_reports_flag():
    result = plov_via_model(quad_block(), TwoForm(2, {(1, 4): 1, (2, 3): 1}))
    assert result.degree == 2
    assert result.degree <= result.profile_plov == 4
    assert not result.matches_profile


def test_model_rejects_non_pseudo_analytic():
    with pytest.raises(NotPseudoAnalyticError):
        plov_via_model(RatMatrix.jordan_block(1, 2), TwoForm(1, {(1, 2): 1}))


def test_model_degree_ceiling_random_forms():
    rng = random.Random(67)
    for _ in range(10):
        g = rng.randint(1, 4)
        m, half_sizes = random_paired_unipotent(rng, g)
        expected = sum(k * k for k in half_sizes)
        try:
            result = plov_via_model(m, randgen_two_form(rng, g))
        except DegenerateFormError:
            continue
        assert result.degree <= expected


def test_model_standard_form_achieves_profile_value():
    rng = random.Random(68)
    for _ in range(10):
        g = rng.randint(1, 4)
        m, half_sizes = random_paired_unipotent(rng, g)
        result = plov_via_model(m, TwoForm.standard(g))
        assert result.matches_profile
        assert result.degree == sum(k * k for k in half_sizes)


def test_chain_length_meets_second_compound_bound():
    # the paper's item (3): the chain is at most as long as the largest
    # block of Lambda^2 U, 2kJ + 1, and as long for the standard form
    rng = random.Random(71)
    for _ in range(12):
        g = rng.randint(1, 4)
        m, half_sizes = random_paired_unipotent(rng, g)
        largest = max(second_compound_block_sizes(half_sizes * 2))
        assert largest == 2 * max(half_sizes) - 1
        assert len(nilpotent_chain(m, TwoForm.standard(g))) == largest
        assert len(nilpotent_chain(m, randgen_two_form(rng, g))) <= largest


def test_model_returns_its_chain_for_the_scan():
    rng = random.Random(75)
    for _ in range(6):
        g = rng.randint(1, 4)
        m, _ = random_paired_unipotent(rng, g)
        h = randgen_two_form(rng, g)
        model = plov_via_model(m, h)
        assert list(model.chain) == nilpotent_chain(m, h)
        assert scan_chain(model.chain) == vanishing_scan(m, h)


def test_model_chain_beyond_compound_block_is_cross_check_failure(monkeypatch):
    import plovkit.cohomology as cohomology

    monkeypatch.setattr(cohomology, "second_compound_block_sizes", lambda sizes: [2])
    with pytest.raises(CrossCheckError):
        plov_via_model(quad_block(), TwoForm.standard(2))


def test_consistency_triangle():
    rng = random.Random(69)
    for _ in range(8):
        g = rng.randint(1, 4)
        m, _ = random_paired_unipotent(rng, g)
        model = plov_via_model(m, TwoForm.standard(g))
        if not model.matches_profile:
            continue
        half = half_profile(jordan_profile(m))
        ps = power_sum_det(m, RatMatrix.identity(2 * g))
        assert 2 * model.degree == ps.degree == 2 * plov_of(half)


#: the half block sizes of the `model` benchmark workload
MODEL_WORKLOAD_SHAPES = [
    (3,), (2, 2), (3, 1), (2, 2, 1), (3, 1, 1), (2, 2, 1, 1),
    (4,), (3, 2), (2, 2, 2), (3, 1, 1, 1), (3, 2, 1), (4, 1),
]


def linked_unipotent(rng, sizes):
    """Unipotent Jordan blocks whose superdiagonal entries are drawn from
    +-1..+-12, as in the `model` workload."""
    blocks = []
    for k in sizes:
        links = [rng.choice((-1, 1)) * rng.randint(1, 12) for _ in range(k - 1)]
        rows = [[int(i == j) for j in range(k)] for i in range(k)]
        for i, link in enumerate(links):
            rows[i][i + 1] = link
        blocks.append(RatMatrix(rows))
    return RatMatrix.block_diag(*blocks)


@pytest.mark.parametrize("sizes", MODEL_WORKLOAD_SHAPES, ids=str)
def test_the_paired_model_is_g_factorial_times_the_half_power_sum(sizes):
    # U = J + J on paired coordinates keeps the standard form's layout:
    # Delta_x = [[0, S(x)], [-S(x)^T, 0]] with S(x) = sum_{m<x} J^m (J^m)^T,
    # and Pf of that layout is (-1)^(g(g-1)/2) det S(x), times g! in the
    # raw top coefficient; every coefficient must agree, not only degrees
    rng = random.Random(5)
    g = sum(sizes)
    scale = (-1) ** (g * (g - 1) // 2) * math.factorial(g)
    for _ in range(2):
        j = linked_unipotent(rng, sizes)
        model = plov_via_model(RatMatrix.block_diag(j, j), TwoForm.standard(g))
        half = power_sum_det(j.transpose(), RatMatrix.identity(g))
        assert model.poly.coeffs == tuple(scale * c for c in half.poly.coeffs)


# ---------------------------------------------------------------------------
# vanishing scan


def test_scan_identity_is_empty():
    report = vanishing_scan(RatMatrix.identity(4), TwoForm.standard(2))
    assert report.kf == 0
    assert report.scanned == ()
    assert report.violations == ()


def test_scan_quad_block_tuples_all_vanish():
    report = vanishing_scan(quad_block(), TwoForm.standard(2))
    assert report.kf == 2
    tuples = [t for t, _ in report.scanned]
    assert tuples == [(1, 2), (2, 1), (2, 2)]
    assert all(v == 0 for _, v in report.scanned)
    assert report.violations == ()


def test_scan_threshold_is_strict():
    # (1, 1) sits exactly at the threshold sum = g*kf/2 and is excluded,
    # and indeed its wedge value is nonzero
    m = quad_block()
    h = TwoForm.standard(2)
    report = vanishing_scan(m, h)
    assert (1, 1) not in [t for t, _ in report.scanned]
    nh = TwoForm._of(pullback2(m, h).matrix - h.matrix)
    assert wedge_coefficient([nh, nh]) != 0


def test_polarized_wedge_matches_literal_wedge():
    # arbitrary forms, not from a chain, so most products are nonzero; the
    # reversed family scans the multisets below the middle.  Each value of
    # the difference table must equal both the polarization sum of its
    # multiset and the literal wedge, and each ordered tuple its multiset's
    rng = random.Random(72)
    nonzero = total = 0
    for g in range(2, 6):
        forms = [dense_rational_form(rng, g) for _ in range(3)]
        for family in (forms, forms[::-1]):
            count, above = assert_values_match_both_references(family)
            nonzero, total = nonzero + count, total + above
            report = scan_chain(family)
            by_multiset = dict(report.nonzero)
            for combo, value in report.scanned:
                assert value == by_multiset.get(tuple(sorted(combo)), 0)
    assert nonzero > total // 2


def test_scan_matches_literal_ordered_scan():
    rng = random.Random(73)
    for _ in range(6):
        g = rng.randint(1, 4)
        m, _ = random_paired_unipotent(rng, g)
        for h in (TwoForm.standard(g), randgen_two_form(rng, g)):
            chain = nilpotent_chain(m, h)
            assert vanishing_scan(m, h).scanned == literal_scan(chain)


def test_scan_fans_out_nonzero_values_in_order():
    # arbitrary forms in place of a chain, so most scanned values are
    # nonzero and a scan that skips the computation fails
    rng = random.Random(74)
    for g in (2, 3, 4):
        forms = [dense_rational_form(rng, g) for _ in range(3)]
        report = scan_chain(forms)
        expected = literal_scan(forms)
        assert report.scanned == expected
        assert report.violations == tuple(t for t, v in expected if v)
        assert len(report.violations) > len(expected) // 2


def test_nonzero_is_exactly_the_multisets_of_nonzero_polarization():
    # over a full enumeration of the multisets above the threshold, at
    # g <= 3: the record stores a multiset iff its polarization sum is not
    # 0, with that value, and its ordered tuples are the literal scan.
    # Families of dense forms, of sparse forms, of blocks (some with
    # Pfaffian 0 by an odd block or unequal sides) and the chains of random
    # forms under random paired unipotents
    rng = random.Random(4901)
    shapes = {
        1: [[(2, "bipartite")]],
        2: [[(4, "dense")], [(2, "bipartite")] * 2, [(4, "star")]],
        3: [[(6, "dense")], [(2, "bipartite"), (4, "bipartite")],
            [(3, "dense"), (3, "dense")], [(2, "bipartite"), (4, "star")]],
    }
    stored = absent = 0
    for g, trial in itertools.product((1, 2, 3), range(4)):
        families = [[dense_rational_form(rng, g) for _ in range(rng.randint(1, 5))]]
        live = [rng.sample(range(1, 2 * g + 1), rng.randint(2, 2 * g)) for _ in range(4)]
        families.append([sparse_form(rng, g, rows) for rows in live])
        families += [block_family(rng, g, kinds) for kinds in shapes[g]]
        m, _ = random_paired_unipotent(rng, g)
        families.append(nilpotent_chain(m, randgen_two_form(rng, g)))
        for family in families:
            pf, den_g, _, _ = cohomology._common_pfaffian(tuple(family))
            kf, expected = len(family) - 1, []
            for key in multisets_above(g, kf):
                value = polarization([key.count(i) for i in range(kf + 1)], pf)
                expected += [(key, Fraction(value, den_g))] if value else []
                absent += not value
            report = scan_chain(family)
            assert report.nonzero == tuple(expected), (g, trial, family)
            assert report.scanned == literal_scan(family), (g, trial, family)
            stored += len(expected)
    assert stored > 100 and absent > 100, (stored, absent)


def test_scan_clean_on_random_paired_profiles():
    rng = random.Random(70)
    for _ in range(8):
        g = rng.randint(1, 4)
        m, _ = random_paired_unipotent(rng, g)
        report = vanishing_scan(m, TwoForm.standard(g))
        assert report.violations == ()
        assert [t for t, _ in report.scanned] == sorted(t for t, _ in report.scanned)


def test_scan_record_refuses_entries_off_its_invariant():
    # the record stores each nonzero value once, at its multiset above the
    # threshold g*kf/2 = 6 (here g = 3, kf = 4), in order; every other
    # multiset is 0 by its absence, so a stored 0 is refused and each scan
    # has one record
    empty = VanishingScanReport(kf=4, genus=3, nonzero=())
    assert empty.violations == () and len(empty.scanned) == scan_size(3, 4)
    assert not any(value for _, value in empty.scanned)
    one, two = ((1, 3, 3), Fraction(1)), ((2, 2, 3), Fraction(-2, 3))
    assert VanishingScanReport(kf=4, genus=3, nonzero=(one, two)).nonzero == (one, two)
    wrong = {
        "unsorted": (two, one),
        "duplicate": (one, one),
        "not nondecreasing": (((1, 4, 3), 1),),
        "short": (((3, 4), 1),),
        "long": (((0, 3, 4, 4), 1),),
        "above kf": (((1, 3, 5), 1),),
        "negative": (((-1, 4, 4), 1),),
        "on the threshold": (((2, 2, 2), 1),),
        "below the threshold": (((0, 1, 4), 1),),
        "not an int": (((1, 3, 3.0), 1),),
        "a list key": (([1, 3, 3], 1),),
        "not a pair": ((1, 3, 3),),
        "a triple": (((1, 3, 3), Fraction(1), 0),),
        "a list pair": ([(1, 3, 3), Fraction(1)],),
        "int 0": (((1, 3, 3), 0),),
        "float 0": (((1, 3, 3), 0.0),),
        "Fraction 0": (((1, 3, 3), Fraction(0)),),
        "a 0 among nonzero values": (one, ((1, 3, 4), Fraction(0)), two),
    }
    for name, bad in wrong.items():
        with pytest.raises(PreconditionError, match="a multiset above the threshold, in order"):
            VanishingScanReport(kf=4, genus=3, nonzero=bad)
            pytest.fail(name)
    for kf, genus in ((-1, 1), (0, 0)):
        with pytest.raises(PreconditionError, match="genus >= 1, kf >= 0"):
            VanishingScanReport(kf=kf, genus=genus, nonzero=())
    assert VanishingScanReport(kf=0, genus=1, nonzero=()).scanned == ()


def test_scan_record_reads_its_violations_off_the_values():
    # a nonzero value makes every ordering of its multiset a violation
    report = vanishing_scan(paired_unipotent([3]), TwoForm.standard(3))
    assert report.nonzero == report.violations == ()
    key = next(k for k in multisets_above(3, report.kf) if len(set(k)) == 3)
    bad = dataclasses.replace(report, nonzero=((key, Fraction(2, 3)),))
    assert bad.violations == tuple(sorted(itertools.permutations(key)))
    assert [t for t, v in bad.scanned if v] == list(bad.violations)
    assert {v for t, v in bad.scanned if v} == {Fraction(2, 3)}


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: intersection_poly([], 0), DimensionMismatchError),
        (lambda: scan_chain([]), DimensionMismatchError),
        (lambda: intersection_poly([TwoForm.standard(1), TwoForm.standard(2)], 0),
         DimensionMismatchError),
        (lambda: scan_chain([TwoForm.standard(2), TwoForm.standard(1)]),
         DimensionMismatchError),
        (lambda: nilpotent_chain(quad_block(), TwoForm.standard(1)),
         DimensionMismatchError),
        (lambda: plov_via_model(RatMatrix.identity(3), TwoForm.standard(1)),
         OddDimensionError),
        (lambda: vanishing_scan(RatMatrix.jordan_block(-1, 2), TwoForm.standard(1)),
         NotUnipotentError),
        # a None where a matrix or a form belongs is a TypeError
        (lambda: pfaffian(None), TypeError),
        (lambda: pullback2(RatMatrix.identity(2), None), TypeError),
        (lambda: plov_via_model(None, TwoForm.standard(1)), TypeError),
        (lambda: plov_via_model(RatMatrix.identity(2), None), TypeError),
        (lambda: vanishing_scan(None, TwoForm.standard(1)), TypeError),
        (lambda: vanishing_scan(RatMatrix.identity(2), None), TypeError),
        (lambda: scan_chain([TwoForm.standard(1), None]), TypeError),
        (lambda: scan_chain([None]), TypeError),
        (lambda: intersection_poly([TwoForm.standard(1), None], 1), TypeError),
        (lambda: intersection_poly([None], 1), TypeError),
        # the coefficients of a form come as a dict
        (lambda: TwoForm(1, -1), TypeError),
        (lambda: TwoForm(1, [((1, 2), 1)]), TypeError),
    ],
)
def test_out_of_contract_calls_raise_library_errors(call, error):
    with pytest.raises(error):
        call()


# ---------------------------------------------------------------------------
# the size of a scan, counted before it runs


def _partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        yield []
    for k in range(min(n, largest), 0, -1):
        for rest in _partitions(n - k, k):
            yield [k, *rest]


def test_scan_size_counts_the_tuples_above_the_middle():
    for g in range(1, 6):
        for kf in range(9):
            brute = sum(
                1
                for t in itertools.product(range(kf + 1), repeat=g)
                if 2 * sum(t) > g * kf
            )
            assert scan_size(g, kf) == brute, (g, kf)
    assert scan_size(6, 10) == 841_324
    assert scan_size(7, 12) == 30_137_596


def test_scan_size_refuses_a_genus_below_1_or_a_negative_kf():
    for genus, kf in ((0, 3), (-1, 2), (1, -1), (0, 0)):
        with pytest.raises(PreconditionError, match="scan_size"):
            scan_size(genus, kf)
    assert scan_size(1, 0) == 0


def test_scan_size_is_the_length_of_every_scan_up_to_genus_4():
    shapes = [sizes for g in range(1, 5) for sizes in _partitions(g)]
    assert len(shapes) == 1 + 2 + 3 + 5
    for sizes in shapes:
        g = sum(sizes)
        chain = nilpotent_chain(paired_unipotent(sizes), TwoForm.standard(g))
        assert scan_size(g, len(chain) - 1) == len(scan_chain(chain).scanned), sizes


@pytest.mark.parametrize("sizes", [(4, 4), (5, 2), (5, 1, 1)])
def test_the_library_scans_shapes_whose_listing_the_cli_refuses(sizes):
    # the scan keeps only its nonzero values and has no limit of its own:
    # these list millions of ordered tuples over 1,426 or 3,073 multisets,
    # none stored, a sample of them checked term by term
    g = sum(sizes)
    m, h = paired_unipotent(list(sizes)), TwoForm.standard(g)
    chain = nilpotent_chain(m, h)
    kf = len(chain) - 1
    assert scan_size(g, kf) > 2 * 10**6
    report = scan_chain(chain)
    assert vanishing_scan(m, h) == report
    above = multisets_above(g, kf)
    assert len(above) == {8: 1426, 7: 3073}[g]
    assert report.nonzero == report.violations == ()
    pf, den_g, _, _ = cohomology._common_pfaffian(tuple(chain))
    for key in above[:: len(above) // 12] + above[-1:]:
        alpha = [key.count(i) for i in range(kf + 1)]
        assert Fraction(polarization(alpha, pf), den_g) == 0, key


def test_a_proved_scan_walks_no_multiset():
    # paired [7]'s blocks prove every value 0 from the supports, so with
    # its evaluator built the scan is that proof alone: no multiset of the
    # 24,366 above the threshold is built, stored or checked.  A final walk
    # that stored their zeros peaked at 8.4 MB of traced heap
    chain = plov_via_model(paired_unipotent([7]), TwoForm.standard(7)).chain
    assert len(multisets_above(7, len(chain) - 1)) == 24366
    tracemalloc.start()
    try:
        report = scan_chain(chain)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.nonzero == report.violations == ()
    assert peak < 2**19, peak


def block_multisets_and_betas(k, active, least):
    """The multisets of k indices from ``active`` whose sum is at least
    ``least``, and the nonzero beta <= some such multiset (one block's
    table), by enumeration."""
    above = [
        key
        for key in itertools.combinations_with_replacement(active, k)
        if sum(key) >= least
    ]
    top = max(active)
    betas = {
        beta
        for key in above
        for beta in itertools.product(*(range(key.count(i) + 1) for i in range(top + 1)))
        if any(beta)
    }
    return above, betas


def counting_blocks(monkeypatch, wrap):
    """Make `scan_chain` see every block evaluator of `_common_pfaffian`
    as ``wrap(block index, k, active, evaluator)``; pf is left alone."""
    real = cohomology._common_pfaffian

    def wrapped(chain):
        pf, den_g, sign, blocks = real(chain)
        wrapped_blocks = [
            (k, active, wrap(b, k, active, evaluate), bound)
            for b, (k, active, evaluate, bound) in enumerate(blocks)
        ]
        return pf, den_g, sign, wrapped_blocks

    monkeypatch.setattr(cohomology, "_common_pfaffian", wrapped)


def conjugated_on(m, coords, seed):
    """S M S^-1, S = `random_unimodular` of the given seed on the 0-based
    ``coords`` and the identity elsewhere."""
    inner = random_unimodular(random.Random(seed), len(coords))
    rows = [[int(i == j) for j in range(m.dimension)] for i in range(m.dimension)]
    for a, i in enumerate(coords):
        for b, j in enumerate(coords):
            rows[i][j] = inner.num[a][b]
    return conjugate(m, RatMatrix.from_rows(rows))


def test_scan_evaluates_each_multiset_once_and_each_beta_once(monkeypatch):
    # paired [4, 1] with the standard form is two bipartite blocks, whose
    # assignment bounds 12 and 0 sum below the least index sum 16 above the
    # threshold: no block evaluator is called, and every value is 0.  With
    # its block [4] conjugated (both copies, 8 indices) the chain keeps
    # kf = 6, and its supports still split into a block of degree 4 on
    # every chain form, now with an odd cycle and so bounded by 4 * kf =
    # 24, and the 1 x 1 block of degree 1 on form 0 alone, bounded by 0.
    # 7,678 ordered tuples lie above the threshold, 215 multisets.  Each
    # block fills its own table, pruned at the threshold less the other
    # block's bound: 117 beta for the 8-index block (the 103 that cover
    # its rows eliminate it as a whole), and one for the 1 x 1 block, its
    # entry with no elimination; one table over the whole chain would take
    # 473 beta.  The differences take one subtraction per unit of |beta|
    # over each table
    g = 5
    counts = {"entries": [[], []], "determinants": [], "subtractions": 0}

    class Counted(int):
        # a table entry that counts the subtractions made on it
        def __sub__(self, other):
            counts["subtractions"] += 1
            return Counted(int.__sub__(self, other))

    def wrap(b, k, active, evaluate):
        def counted(beta):
            counts["entries"][b].append(tuple(beta))
            return Counted(evaluate(beta))

        return counted

    real_block = cohomology._block_pfaffian

    def counting(rows, bipartite):
        counts["determinants"].append((len(rows), bipartite))
        return real_block(rows, bipartite)

    counting_blocks(monkeypatch, wrap)
    monkeypatch.setattr(cohomology, "_block_pfaffian", counting)
    paired = nilpotent_chain(paired_unipotent([4, 1]), TwoForm.standard(g))
    assert [bound for *_, bound in cohomology._common_pfaffian(tuple(paired))[3]] == [12, 0]
    report = scan_chain(paired)
    assert report.nonzero == () and len(multisets_above(g, len(paired) - 1)) == 215
    assert counts == {"entries": [[], []], "determinants": [], "subtractions": 0}
    rows = {r for r in range(10) if r % 5 < 4}  # both copies of the block [4]
    m = conjugated_on(paired_unipotent([4, 1]), sorted(rows), 1)
    chain = nilpotent_chain(m, TwoForm.standard(g))
    kf = len(chain) - 1
    above, whole = scan_multisets_and_betas(g, kf)
    least = g * kf // 2 + 1
    _, _, sign, blocks = cohomology._common_pfaffian(tuple(chain))
    assert [(k, active, bound) for k, active, _, bound in blocks] == [
        (4, tuple(range(kf + 1)), 4 * kf),
        (1, (0,), 0),
    ]
    tables = [
        block_multisets_and_betas(4, range(kf + 1), least - 0)[1],
        block_multisets_and_betas(1, (0,), least - 4 * kf)[1],
    ]
    report = scan_chain(chain)
    assert len(report.scanned) == scan_size(g, kf) == 7678
    assert len(above) == 215 and report.nonzero == report.violations == ()
    for b, table in enumerate(tables):
        seen = counts["entries"][b]
        assert len(seen) == len(set(seen)) and set(seen) == table
    covering = [
        beta
        for beta in tables[0]
        if rows <= {r for i, w in enumerate(beta) if w for r in support(chain[i])}
    ]
    assert counts["determinants"] == [(8, False)] * len(covering)
    assert counts["subtractions"] == sum(sum(map(sum, table)) for table in tables)
    assert [len(table) for table in tables] == [117, 1] and len(covering) == 103
    assert (len(above), len(whole), sign) == (215, 473, 1)


def support(form):
    """The rows (0-based) where the form has a nonzero entry."""
    return {r for r, row in enumerate(form.matrix.num) if any(row)}


def enumerate_then_filter(k, active, least, f):
    """The table of `_mixed_differences` as the scan built it before the
    depth-first growth: every multiset of 1..k indices from ``active``
    generated, and kept when padding it with the largest active index
    takes its sum to ``least``, with F = ``f``; then the same differences.
    (betas in order, [(multiset, entry)] of size k)."""
    top = max(active)
    place = [(k + 1) ** i for i in range(top + 1)]
    table = {0: 0}
    layers = [[[] for _ in range(k + 1)] for _ in range(top + 1)]
    above, betas = [], []
    for n in range(1, k + 1):
        for key in itertools.combinations_with_replacement(active, n):
            if sum(key) + (k - n) * top >= least:
                beta = [key.count(i) for i in range(top + 1)]
                at = sum(map(place.__getitem__, key))
                table[at] = f(beta)
                betas.append(tuple(beta))
                for i in set(key):
                    layers[i][beta[i]].append(at)
                if n == k:
                    above.append((key, at))
    for i, by_count in enumerate(layers):
        for t in range(1, k + 1):
            for b in range(k, t - 1, -1):
                for at in by_count[b]:
                    table[at] -= table[at - place[i]]
    return betas, [(key, table[at]) for key, at in above]


def whole_chain_scan(chain):
    """The scan's nonzero values as they were before the split by blocks:
    one table over the whole chain, F(beta) = den^g Pf(sum_i beta_i w_i)
    by the memo's pf at every beta below a multiset above the threshold,
    then its mixed differences over den^g, with no division by alpha!,
    each multiset whose difference is not 0."""
    pf, den_g, _, _ = cohomology._common_pfaffian(tuple(chain))
    kf, g = len(chain) - 1, chain[0].genus
    _, above = enumerate_then_filter(g, range(kf + 1), g * kf // 2 + 1, pf)
    return tuple((key, Fraction(value, den_g)) for key, value in above if value)


def test_depth_first_table_equals_the_enumerate_then_filter_table():
    # for every k <= 6 and top <= 12 the pruned growth values the same
    # betas, each once, and gives the same entries in the same order: on
    # every index up to top at the scan's threshold, and on random active
    # indices at random thresholds; F is a stand-in for the Pfaffians, not
    # a polynomial, so a misplaced entry shows
    def f(beta):
        return sum(b * 7919**i for i, b in enumerate(beta)) ** 3 % 1_000_003

    rng = random.Random(4101)
    for k in range(1, 7):
        for top in range(13):
            cases = [(range(top + 1), k * top // 2 + 1)]
            rest = rng.sample(range(top), rng.randint(0, top))
            cases.append((sorted(rest) + [top], rng.randint(-k, k * top + 1)))
            for active, least in cases:
                seen = []
                values = cohomology._mixed_differences(
                    lambda beta: seen.append(tuple(beta)) or f(beta), k, tuple(active), least
                )
                betas, above = enumerate_then_filter(k, active, least, f)
                assert len(seen) == len(set(seen)) and sorted(seen) == sorted(betas)
                assert values == above, (k, active, least)


def test_common_pfaffian_is_a_one_entry_memo_by_value(monkeypatch):
    # an equal chain of other objects hits the memo; another chain builds
    # anew, with its own Pfaffians, and takes the one entry.  Builds are
    # counted by the `_chain_terms` of the uncached body
    cohomology._common_pfaffian.cache_clear()
    builds = []
    real = cohomology._chain_terms
    monkeypatch.setattr(
        cohomology, "_chain_terms", lambda mats: builds.append(1) or real(mats)
    )
    chain = tuple(nilpotent_chain(paired_unipotent([3, 1]), TwoForm.standard(4)))
    first = cohomology._common_pfaffian(chain)
    equal = tuple(TwoForm._of(RatMatrix(f.matrix.num, f.matrix.den)) for f in chain)
    assert equal == chain and equal[0] is not chain[0]
    assert cohomology._common_pfaffian(equal) is first and len(builds) == 1
    rng = random.Random(77)
    other = tuple(dense_rational_form(rng, 3) for _ in range(3))
    pf, den_g, _, _ = cohomology._common_pfaffian(other)
    assert len(builds) == 2
    for _ in range(6):
        weights = [rng.randint(0, 3) for _ in other]
        assert Fraction(pf(weights), den_g) == pf_value(weighted_sum(other, weights))
    assert cohomology._common_pfaffian(chain) is not first and len(builds) == 3
    cohomology._common_pfaffian.cache_clear()


def test_scan_of_sparse_families_matches_literal_scan_on_both_sides_of_the_support():
    # each form lives on a random set of rows, so some weighted sums leave
    # a row empty (Pf = 0 from the supports) and others cover every row
    # (Pf from the elimination); the values must be the literal wedges
    rng = random.Random(75)
    nonzero = 0
    for trial in range(8):
        g = 2 + trial % 2
        k = 2 * g
        family = [
            sparse_form(rng, g, rng.sample(range(1, k + 1), rng.randint(2, k - 1)),
                        den=rng.choice([1, 1, 2, 3]))
            for _ in range(3)
        ]
        family.append(sparse_form(rng, g, range(1, k + 1)))
        rng.shuffle(family)
        _, betas = scan_multisets_and_betas(g, len(family) - 1)
        covering = [beta for beta in betas if weighted_rows_cover(family, beta)]
        assert 0 < len(covering) < len(betas)
        expected = literal_scan(family)
        assert scan_chain(family).scanned == expected
        assert assert_values_match_both_references(family)[0] == len(
            {tuple(sorted(t)) for t, value in expected if value}
        )
        nonzero += sum(1 for _, value in expected if value)
    assert nonzero > 0


def test_row_emptied_by_cancellation_is_left_to_the_elimination(monkeypatch):
    # w0 = e12 + e34 and w1 = e13 - e12 cover every row between them, but
    # w0 + w1 = e13 + e34 has row 2 zero by cancellation: its Pfaffian is
    # 0 from the elimination, not from the supports.  The supports make
    # the path 2 - 1 - 3 - 4, one bipartite block with sides {1, 4} and
    # {2, 3}, so the elimination is that of B = rows (1, 4) x columns (2, 3)
    w0 = TwoForm(2, {(1, 2): 1, (3, 4): 1})
    w1 = TwoForm(2, {(1, 3): 1, (1, 2): -1})
    assert weighted_rows_cover([w0, w1], (1, 1))
    calls = []
    real = cohomology._block_pfaffian

    def counting(rows, bipartite):
        calls.append((rows, bipartite))
        return real(rows, bipartite)

    monkeypatch.setattr(cohomology, "_block_pfaffian", counting)
    pf, den_g, _, _ = cohomology._common_pfaffian((w0, w1))
    assert (pf((1, 1)), den_g) == (0, 1)
    assert calls == [([[0, 1], [0, -1]], True)]
    assert wedge_coefficient([TwoForm._of(w0.matrix + w1.matrix)] * 2) == 0
    # w1 alone leaves row 4 empty: 0 with no elimination
    assert pf((0, 1)) == 0 and len(calls) == 1
    assert pf((1, 0)) == 1 and calls[1:] == [([[1, 0], [0, -1]], True)]
    assert scan_chain([w0, w1]).scanned == literal_scan([w0, w1])


def test_intersection_poly_at_zero_weights_needs_no_elimination(monkeypatch):
    # Delta_0 = 0: every weight C(0, i+1) is 0, so the node x = 0 is 0 by
    # the supports, and only the nodes 1..D+1 (with the check node) are
    # eliminated, each as a 3 x 3 determinant (paired [3, 1] is two
    # bipartite blocks, and the 1 x 1 one is its entry, with no
    # elimination); with the mirror law only 1..D - floor(D/2) + 1
    chain = nilpotent_chain(paired_unipotent([3, 1]), TwoForm.standard(4))
    pf, *_ = cohomology._common_pfaffian(tuple(chain))
    calls = []
    real = cohomology._block_pfaffian

    def counting(rows, bipartite):
        calls.append((rows, bipartite))
        return real(rows, bipartite)

    monkeypatch.setattr(cohomology, "_block_pfaffian", counting)
    assert pf([0] * len(chain)) == 0 and calls == []
    degree_bound = 11
    poly = intersection_poly(chain, degree_bound)
    assert poly(0) == 0
    shapes = [(len(rows), bipartite) for rows, bipartite in calls]
    assert shapes == [(3, True)] * (degree_bound + 1)
    assert all(any(map(any, rows)) for rows, _ in calls)
    del calls[:]
    assert intersection_poly(chain, degree_bound, 1) == poly
    assert len(calls) == degree_bound - degree_bound // 2 + 1


# ---------------------------------------------------------------------------
# The blocks of the support graph


def form_on_edges(rng, g, edges, den=1):
    """Random integer 2-form over den, nonzero on exactly the given
    1-based pairs (i, j), i != j, in either order."""
    coeffs = {}
    for i, j in edges:
        value = Fraction(rng.choice([-1, 1]) * rng.randint(1, 3), den)
        coeffs[(i, j) if i < j else (j, i)] = value
    return TwoForm(g, coeffs)


def family_on(rng, g, pairs, size=3, den=1):
    """``size`` forms on random subsets of ``pairs``, the last on all of
    them, so that the union of their supports is ``pairs``."""
    family = [
        form_on_edges(rng, g, [p for p in pairs if rng.random() < 0.5] or pairs[:1], den)
        for _ in range(size - 1)
    ]
    return family + [form_on_edges(rng, g, pairs, den)]


def inside(*blocks):
    """The pairs inside each block of 1-based indices."""
    return [pair for block in blocks for pair in itertools.combinations(block, 2)]


def between(left, right):
    """The pairs joining the index sets ``left`` and ``right``."""
    return [(i, j) for i in left for j in right]


def weighted_sum(family, weights):
    """sum_i weights[i] family[i], summed literally through `+` and `*`."""
    total = RatMatrix.zero(family[0].matrix.dimension)
    for w, form in zip(weights, family):
        total = total + form.matrix * w
    return TwoForm._of(total)


def blocks_against_references(family, rng, monkeypatch, trials=6):
    """pf(w) of `_common_pfaffian` at random weights equals the plain
    elimination `pfaffian` and the literal wedge of the literal weighted
    sum, and at g <= 3 the scan equals the literal scan.  Returns the
    (size, bipartite) of every block valued, in order."""
    g = family[0].genus
    calls = []
    real = cohomology._block_pfaffian

    def recording(rows, bipartite):
        calls.append((len(rows), bipartite))
        return real(rows, bipartite)

    monkeypatch.setattr(cohomology, "_block_pfaffian", recording)
    pf, den_g, _, _ = cohomology._common_pfaffian(tuple(family))
    for _ in range(trials):
        weights = [rng.randint(1, 3) for _ in family]
        total = weighted_sum(family, weights)
        value = Fraction(pf(weights), den_g)
        assert value == pf_value(total), weights
        assert value * math.factorial(g) == wedge_coefficient([total] * g), weights
    if g <= 3:
        assert scan_chain(family).scanned == literal_scan(family)
    return calls


def test_block_diagonal_forms_under_a_permutation_match_the_references(monkeypatch):
    # blocks of sizes 2 and 2g - 2 on a random relabelling of the indices:
    # the pair is one edge (a bipartite block of m = 1, valued by its
    # entry with no elimination), the dense rest a block with triangles,
    # eliminated as a whole
    rng = random.Random(3701)
    for trial in range(6):
        g = 2 + trial % 3
        labels = rng.sample(range(1, 2 * g + 1), 2 * g)
        pairs = inside(labels[:2], labels[2:])
        family = family_on(rng, g, pairs, den=rng.choice([1, 2, 3]))
        calls = blocks_against_references(family, rng, monkeypatch)
        expected = {(2 * g - 2, False)} if g > 2 else set()
        assert set(calls) == expected, (g, calls)
        blocks = cohomology._common_pfaffian(tuple(family))[3]
        assert sorted(k for k, *_ in blocks) == [1, g - 1]


def test_bipartite_forms_with_equal_sides_take_one_determinant(monkeypatch):
    rng = random.Random(3702)
    for trial in range(6):
        g = 1 + trial % 4
        labels = rng.sample(range(1, 2 * g + 1), 2 * g)
        family = family_on(rng, g, between(labels[:g], labels[g:]), den=rng.choice([1, 6]))
        calls = blocks_against_references(family, rng, monkeypatch)
        assert set(calls) == ({(g, True)} if g > 1 else set()), (g, calls)
        assert [k for k, *_ in cohomology._common_pfaffian(tuple(family))[3]] == [g]


@pytest.mark.parametrize("g", [2, 3, 4])
def test_unequal_sides_and_odd_blocks_are_zero_with_no_elimination(g, monkeypatch):
    # sides of g - 1 and g + 1 indices, then (from g = 3, so that no index
    # is alone) a triangle beside a dense block of 2g - 3: neither has a
    # perfect matching, though the forms cover every row
    rng = random.Random(3703 + g)
    labels = rng.sample(range(1, 2 * g + 1), 2 * g)
    families = [family_on(rng, g, between(labels[: g - 1], labels[g - 1 :]))]
    if g > 2:
        families.append(family_on(rng, g, inside(labels[:3], labels[3:]), den=2))
    for family in families:
        assert weighted_rows_cover(family, [1] * len(family))
        assert blocks_against_references(family, rng, monkeypatch) == []


def test_a_form_joining_two_blocks_makes_one_block(monkeypatch):
    # two bipartite blocks, each of 2 + 2 indices, then one form with a
    # pair across them: the union is one block, still bipartite when the
    # pair joins opposite sides and eliminated as a whole when it closes
    # an odd cycle
    rng = random.Random(3704)
    g = 4
    labels = rng.sample(range(1, 9), 8)
    a, b = (labels[:2], labels[2:4]), (labels[4:6], labels[6:])
    family = family_on(rng, g, between(*a) + between(*b), den=3)
    calls = blocks_against_references(family, rng, monkeypatch)
    assert set(calls) == {(2, True)}
    across = [(a[0][0], b[1][0])], [(a[0][0], b[0][0]), (a[0][0], a[0][1])]
    for pairs, bipartite in zip(across, (True, False)):
        joined = family + [form_on_edges(rng, g, pairs)]
        calls = blocks_against_references(joined, rng, monkeypatch)
        assert set(calls) == {(4 if bipartite else 8, bipartite)}, calls


# ---------------------------------------------------------------------------
# The scan as a product of its blocks' scans


def model_workload():
    """`perfbench/workloads.py`, loaded from its file, for the classes and
    the seeded paired matrices of the `model` workload."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def seeded_chain(workloads, seed, sizes):
    rows, _ = workloads.paired_unipotent(random.Random(seed), sizes)
    g = sum(sizes)
    return nilpotent_chain(RatMatrix.from_rows(rows), TwoForm.standard(g))


def test_block_scan_equals_the_whole_chain_scan_on_every_model_shape():
    workloads = model_workload()
    shapes = sorted(set(workloads.Model.classes))
    assert len(shapes) == 12
    for sizes in shapes:
        for seed in (1, 2, 3):
            chain = seeded_chain(workloads, seed, sizes)
            assert scan_chain(chain).nonzero == whole_chain_scan(chain), (sizes, seed)


@pytest.mark.parametrize("sizes", [(4, 3), (4, 4), (5, 2)])
def test_block_scan_equals_the_whole_chain_scan_on_large_paired_shapes(sizes):
    # [4, 4] and [5, 2] list 2,683,117 and 2,254,921 ordered tuples, which
    # the CLI refuses to list; the values are compared multiset by multiset
    chain = seeded_chain(model_workload(), 1, sizes)
    report = scan_chain(chain)
    assert report.nonzero == whole_chain_scan(chain) == ()
    assert report.violations == ()


def block_family(rng, g, kinds, count=4):
    """``count`` forms on a random relabelling of 1..2g, split into blocks
    of the given (size, kind): "bipartite" joins the block's two halves,
    "dense" joins every pair of it (a triangle from 3 indices on) and
    "star" joins its first index to the rest (unequal sides).  Each block
    is used by a random nonempty set of the forms, one of which carries
    all its pairs, so each block's active forms and largest index differ;
    each form has its own denominator among 1, 2, 3 and 6."""
    labels = rng.sample(range(1, 2 * g + 1), 2 * g)
    edges = [[] for _ in range(count)]
    at = 0
    for size, kind in kinds:
        part, at = labels[at : at + size], at + size
        if kind == "bipartite":
            pairs = between(part[: size // 2], part[size // 2 :])
        else:
            pairs = inside(part) if kind == "dense" else between(part[:1], part[1:])
        users = rng.sample(range(count), rng.randint(1, count))
        for i in users:
            edges[i] += pairs if i == users[0] else [p for p in pairs if rng.random() < 0.5]
    assert at == 2 * g
    return [form_on_edges(rng, g, e, rng.choice([1, 2, 3, 6])) for e in edges]


def test_block_scan_of_block_diagonal_families_matches_the_references():
    # several blocks, bipartite or not, with their own active forms; one
    # block; and families whose Pfaffian is 0 by an odd block or unequal
    # sides, which scan to zeros.  Every value equals the whole-chain
    # scan's, and at g <= 3 the literal scan; the families are not chains,
    # so many values are nonzero, some with sign(sigma) = -1
    rng = random.Random(4102)
    shapes = [
        (3, [(2, "bipartite"), (4, "bipartite")]),
        (3, [(2, "bipartite")] * 3),
        (4, [(4, "bipartite"), (4, "bipartite")]),
        (3, [(4, "dense"), (2, "bipartite")]),
        (4, [(6, "dense"), (2, "bipartite")]),
        (4, [(2, "bipartite"), (4, "dense"), (2, "dense")]),
        (3, [(6, "dense")]),
        (2, [(4, "bipartite")]),
        (4, [(8, "bipartite")]),
        (3, [(3, "dense"), (3, "dense")]),
        (3, [(2, "bipartite"), (4, "star")]),
        (4, [(4, "star"), (4, "bipartite")]),
    ]
    signs, nonzero = set(), 0
    for g, kinds in shapes:
        for trial in range(3):
            family = block_family(rng, g, kinds)
            _, _, sign, blocks = cohomology._common_pfaffian(tuple(family))
            report = scan_chain(family)
            assert report.nonzero == whole_chain_scan(family), (kinds, trial)
            if g <= 3:
                assert report.scanned == literal_scan(family), (kinds, trial)
            count = len(report.nonzero)
            if all(kind != "star" and size % 2 == 0 for size, kind in kinds):
                assert len(blocks) == len(kinds) and sign in (1, -1)
                signs |= {sign} if count else set()
            else:
                assert (sign, blocks, count) == (0, [], 0)
            nonzero += count
    assert signs == {1, -1} and nonzero > 50


def test_a_block_value_that_is_not_a_polynomial_is_a_cross_check_failure(monkeypatch):
    # a block evaluator plus 2^beta_top - 1: its difference of order
    # (top, ..., top) gains 1, so it is no longer a multiple of k!.  Paired
    # [3, 1] is proved zero by its bounds 6 and 0 with no evaluation, so
    # its block [3] is conjugated (both copies): a block of degree 3 with
    # an odd cycle on forms 0..4, bounded by 12, and the 1 x 1 block
    m = conjugated_on(paired_unipotent([3, 1]), [0, 1, 2, 4, 5, 6], 1)
    chain = nilpotent_chain(m, TwoForm.standard(4))
    blocks = cohomology._common_pfaffian(tuple(chain))[3]
    assert [(k, active, bound) for k, active, _, bound in blocks] == [
        (3, (0, 1, 2, 3, 4), 12),
        (1, (0,), 0),
    ]

    def wrap(b, k, active, evaluate):
        return lambda beta: evaluate(beta) + 2 ** beta[active[-1]] - 1

    counting_blocks(monkeypatch, wrap)
    with pytest.raises(
        CrossCheckError,
        match=r"^scan_chain at dimension 8: block difference -?\d+ at \(4, 4, 4\) "
        r"is not divisible by 6 \(the mixed difference of an integer form is "
        r"gamma! times its coefficient\)$",
    ):
        scan_chain(chain)


# ---------------------------------------------------------------------------
# The support bound of each block, against the evaluated values


def bipartite_family(rng, sides, kf):
    """kf + 1 forms on a random relabelling of 1..2g, g = sum(sides), split
    into one block per side length h joining h indices to h others.  Form
    i takes each pair of a block with a probability falling from 0.9 at
    i = 0 to 0.2 at i = kf, so that the largest form nonzero on an entry
    differs from entry to entry; each form has its own denominator."""
    g = sum(sides)
    labels, at, pairs = rng.sample(range(1, 2 * g + 1), 2 * g), 0, []
    for h in sides:
        part, at = labels[at : at + 2 * h], at + 2 * h
        pairs.append(between(part[:h], part[h:]))
    return [
        form_on_edges(
            rng,
            g,
            [p for block in pairs for p in block if rng.random() < 0.9 - 0.7 * i / kf],
            rng.choice([1, 2, 3]),
        )
        for i in range(kf + 1)
    ]


def test_scan_of_sparse_bipartite_families_matches_polarization_about_the_bound():
    # families, not chains: many values above the threshold are nonzero.
    # Every value equals the polarization sum of its multiset, and none
    # lies above the blocks' summed bound.  The families cover the bound
    # below the threshold (no table filled), on the least index sum above
    # it (so `<=` in place of `<` at the early stop would zero a nonzero
    # value) and above it, reached by a nonzero value
    rng = random.Random(4711)
    shapes = [(2,), (3,), (4,), (1, 1), (1, 2), (2, 2), (1, 3), (1, 1, 2)]
    below = on_least = reached = nonzero = 0
    for sides in shapes:
        g = sum(sides)
        for kf in range(2, 7 if g <= 3 else 5):
            for _ in range(4):
                family = bipartite_family(rng, sides, kf)
                pf, den_g, _, blocks = cohomology._common_pfaffian(tuple(family))
                bound, least = sum(b for *_, b in blocks), g * kf // 2 + 1
                report = scan_chain(family)
                values = dict(report.nonzero)
                for key in multisets_above(g, kf):
                    alpha = [key.count(i) for i in range(kf + 1)]
                    expected = Fraction(polarization(alpha, pf), den_g)
                    assert values.get(key, 0) == expected, (sides, key)
                sums = {sum(key) for key, _ in report.nonzero}
                assert max(sums, default=bound) <= bound, (sides, kf)
                below += bound < least
                on_least += bound == least and bool(sums)
                reached += bound in sums
                nonzero += len(report.nonzero)
    assert below >= 10 and on_least >= 5 and reached >= 30 and nonzero >= 300


@pytest.mark.parametrize("sizes", [(3,), (2, 2), (3, 1), (4, 1), (3, 2, 1), (5,), (4, 3)])
def test_the_bounds_of_a_paired_chain_are_plov_less_g_and_reached(sizes):
    # the blocks' bounds sum to plov - g, below the threshold, and some
    # multiset with exactly that index sum has a nonzero value, so no
    # smaller bound is sound
    g = sum(sizes)
    chain = seeded_chain(model_workload(), 1, sizes)
    pf, _, _, blocks = cohomology._common_pfaffian(tuple(chain))
    kf, bound = len(chain) - 1, sum(b for *_, b in blocks)
    assert bound == plov_of([(1, k, 1) for k in sizes]) - g < g * kf // 2 + 1
    on_bound = (
        [key.count(i) for i in range(kf + 1)]
        for key in itertools.combinations_with_replacement(range(kf + 1), g)
        if sum(key) == bound
    )
    assert any(polarization(alpha, pf) for alpha in on_bound)


def test_scan_of_each_benchmark_model_shape_matches_polarization(
    tmp_path, capsys, monkeypatch
):
    # the scan `plovkit model` makes, recorded from the CLI run, on every
    # shape of the benchmark's `model` workload and the probe's [5] and
    # [3, 3]; on [6], whose report lists 841,324 tuples, the CLI's two
    # calls are made in the library.  A seeded sample of each scan's
    # multisets is checked term by term, and the whole scan by literal
    # wedges at g <= 3
    import plovkit.cli

    workloads, rng, scans = model_workload(), random.Random(9017), []
    real = plovkit.cli.scan_chain

    def recorded(chain):
        scans.append(real(chain))
        return scans[-1]

    monkeypatch.setattr(plovkit.cli, "scan_chain", recorded)
    for sizes in sorted(set(workloads.Model.classes)) + [(5,), (3, 3), (6,)]:
        rows, _ = workloads.paired_unipotent(random.Random(rng.randrange(10**6)), sizes)
        g = sum(sizes)
        model = plov_via_model(RatMatrix.from_rows(rows), TwoForm.standard(g))
        if g < 6:
            path = tmp_path / "input.json"
            path.write_text(json.dumps({"matrix": rows}))
            assert plovkit.cli.main(["model", "--input", str(path), "--form", "standard"]) == 0
            capsys.readouterr()
            [report] = scans
            scans.clear()
        else:
            report = scan_chain(model.chain)
        pf, den_g, _, _ = cohomology._common_pfaffian(model.chain)
        assert (report.kf, report.nonzero, report.violations) == (len(model.chain) - 1, (), ())
        above = multisets_above(g, report.kf)
        for key in rng.sample(above, min(20, len(above))):
            alpha = [key.count(i) for i in range(report.kf + 1)]
            assert Fraction(polarization(alpha, pf), den_g) == 0, (sizes, key)
        if g <= 3:
            assert report.scanned == literal_scan(model.chain), sizes
