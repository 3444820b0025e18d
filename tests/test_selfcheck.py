"""Tests for the self-test suite: its pinned output and its power to fail.

A check that cannot fail verifies nothing, so each of the documented
checks is run once with a planted fault in the route it calls, as bound
in `plovkit.selfcheck`, and must report `passed is False`.
"""

import dataclasses
import hashlib
import inspect
import itertools
import json
import random
from fractions import Fraction

import pytest

import plovkit.selfcheck as selfcheck
from plovkit.cli import main
from plovkit.cohomology import TwoForm
from plovkit.exact import RatMatrix, UniPoly
from plovkit.selfcheck import SELFTEST_CHECKS


@pytest.mark.parametrize(
    "args, digest",
    [
        ([], "9e1964af45a22bc6dd650c4713c96ef60ec26b69a62fc279a8890decac9a6f8e"),
        (
            ["--max-size", "4", "--cases", "7", "--seed", "3"],
            "12603a43b5ef4b55be94750a0deee85bb92ca8760b46983fe813ee7ac65bcf02",
        ),
    ],
    ids=["defaults", "max-size-4-cases-7-seed-3"],
)
def test_selftest_stdout_is_pinned(capsys, args, digest):
    assert main(["selftest", *args]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _shifted(real, delta):
    """`real` with `delta` added to what it returns."""
    return lambda *args: real(*args) + delta


def _plus_one(p):
    """The polynomial p + 1, in p's variable."""
    return UniPoly.from_coeffs([p.coeffs[0] + 1, *p.coeffs[1:]], p.var)


def _replaced(real, **fields):
    """`real` with each named field of its dataclass result replaced by
    the given function of that result."""

    def wrong(*args):
        result = real(*args)
        values = {k: f(result) for k, f in fields.items()}
        return dataclasses.replace(result, **values)

    return wrong


def _first_above(scan):
    """The least multiset above the threshold of ``scan``, in lexicographic order."""
    g, kf = scan.genus, scan.kf
    above = itertools.combinations_with_replacement(range(kf + 1), g)
    return next(key for key in above if 2 * sum(key) > g * kf)


def _double_first(real):
    def wrong(*args):
        first, *rest = real(*args)
        return [first * 2, *rest]

    return wrong


#: Per check: the route it calls, as bound in `plovkit.selfcheck`, and a
#: function that turns that route into one returning a wrong value.
FAULTS = {
    # the first chain term doubled: the sum at x = 1 is 2H, not H
    "power_sum_matrix_matches_direct_sums": ("congruence_chain", _double_first),
    "det_poly_matches_pointwise_det": (
        "det_poly",
        lambda real: lambda *args: _plus_one(real(*args)),
    ),
    "char_poly_similarity_invariant": (
        "char_poly",
        lambda real: lambda *args: _plus_one(real(*args)),
    ),
    "rank_nullity_consistency": ("rank_exact", lambda real: _shifted(real, 1)),
    "cyclotomic_product_identity": (
        "cyclotomic_poly",
        lambda real: lambda d: UniPoly.from_coeffs([2 * c for c in real(d).coeffs]),
    ),
    # the identity in place of the compound is always quasi-unipotent
    "quasi_unipotency_matches_second_compound": (
        "compound_matrix",
        lambda real: lambda m, r: RatMatrix.identity(real(m, r).dimension),
    ),
    # a "profile" that reads the presentation, not the similarity class
    "jordan_profile_similarity_invariant": (
        "jordan_profile",
        lambda real: lambda m: (real(m), m.entries[0]),
    ),
    "power_sum_degree_law": (
        "power_sum_det",
        lambda real: _replaced(real, degree=lambda r: r.degree + 1),
    ),
    "power_sum_form_independence": (
        "power_sum_det",
        lambda real: _replaced(real, degree=lambda r: r.degree + 1),
    ),
    "power_sum_matches_brute_force": (
        "power_sum_det",
        lambda real: _replaced(real, poly=lambda r: _plus_one(r.poly)),
    ),
    "growth_exponent_matches_minor_enumeration": (
        "max_minor_degree",
        lambda real: _shifted(real, 1),
    ),
    # the largest second-compound block doubled
    "second_compound_growth_and_blocks": (
        "second_compound_block_sizes",
        _double_first,
    ),
    # one degree too many, in the polynomial and the profile value beside
    # it alike: the record refuses a degree above its own profile value
    "model_degree_ceiling_and_triangle": (
        "plov_via_model",
        lambda real: _replaced(
            real,
            poly=lambda r: UniPoly((0, *r.poly.num), r.poly.den, r.poly.var),
            degree=lambda r: r.degree + 1,
            profile_plov=lambda r: r.degree + 1,
            matches_profile=lambda r: True,
        ),
    ),
    # the value 1 at the first multiset above the threshold, which a clean
    # scan leaves out as 0
    "vanishing_scan_clean": (
        "scan_chain",
        lambda real: _replaced(real, nonzero=lambda r: ((_first_above(r), Fraction(1)),)),
    ),
    "pullback_power_functoriality": (
        "pullback2",
        lambda real: lambda m, form: TwoForm._of(real(m, form).matrix * 2),
    ),
}


def _plant(name, monkeypatch):
    """Make the route that check `name` calls return a wrong value."""
    route, fault = FAULTS[name]
    monkeypatch.setattr(selfcheck, route, fault(getattr(selfcheck, route)))


NAMES = [name for name, _ in SELFTEST_CHECKS]


@pytest.mark.parametrize("name", NAMES)
def test_every_check_fails_on_a_planted_fault(name, monkeypatch):
    index = NAMES.index(name)
    check = SELFTEST_CHECKS[index][1]
    rng = random.Random((0, index, name).__repr__())
    assert check(rng, 4, 7)[0] is True
    _plant(name, monkeypatch)
    rng = random.Random((0, index, name).__repr__())
    passed, cases = check(rng, 4, 7)
    assert passed is False
    assert cases >= 3


def test_a_failed_check_exits_3_with_the_report(tmp_path, capsys, monkeypatch):
    name = "rank_nullity_consistency"
    _plant(name, monkeypatch)
    out = tmp_path / "selftest.json"
    code = main(["selftest", "--max-size", "4", "--cases", "7", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3
    report = json.loads(out.read_text())["selftest"]
    verdicts = {c["name"]: c["passed"] for c in report["checks"]}
    assert verdicts.pop(name) is False
    assert all(verdicts.values())
    assert report["passed"] == report["suite_size"] - 1
    assert err.splitlines()[-1] == "internal cross-check failure: self-test failures"
    assert f"[FAIL] {name}" in err



def test_integer_percentages_draw_what_the_float_weights_drew():
    # the draw counts were max(3, int(cases * weight)) on the float weights
    # below; every percentage the suite uses must draw the same counts, so
    # the pinned reports above stand for any --cases
    weights = {10: 0.1, 15: 0.15, 20: 0.2, 30: 0.3, 100: 1.0}
    percents = {
        inspect.getclosurevars(check).nonlocals.get("percent")
        for _, check in SELFTEST_CHECKS
    } - {None}
    # the vanishing scan draws `_each(10, ...)` inside its own check
    assert percents == set(weights)
    for percent, weight in weights.items():
        check = selfcheck._each(percent, lambda rng, max_size: True)
        for cases in range(1, 1001):
            assert check(None, 2, cases) == (True, max(3, int(cases * weight)))


def test_minor_oracle_turns_a_missed_degree_bound_into_a_cross_check(monkeypatch):
    # each minor's degree bound is a law (a sum of row degrees), so a
    # missed check node in the oracle is a bug: a CrossCheckError with the
    # same text, from the DegreeBoundError
    from plovkit.errors import CrossCheckError, DegreeBoundError

    text = "det_poly: the value at the check node is not the interpolant's"

    def missed(at, bound, parity=None):
        raise DegreeBoundError(text)

    monkeypatch.setattr(selfcheck, "det_poly", missed)
    with pytest.raises(CrossCheckError) as exc:
        selfcheck.growth_exponent_by_minors(RatMatrix.jordan_block(1, 2), 1)
    assert str(exc.value) == text
    assert type(exc.value.__cause__) is DegreeBoundError
