"""Tests for the self-test suite: its pinned output and its power to fail.

A check that cannot fail verifies nothing, so each of the documented
checks is run once with a planted fault in the route it calls, as bound
in `plovkit.selfcheck`, and must report `passed is False`.
"""

import dataclasses
import hashlib
import json
import random

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
    "model_degree_ceiling_and_triangle": (
        "plov_via_model",
        lambda real: _replaced(real, degree=lambda r: r.profile_plov + 1),
    ),
    "vanishing_scan_clean": (
        "scan_chain",
        lambda real: _replaced(real, violations=lambda r: (r.scanned[0][0],)),
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

