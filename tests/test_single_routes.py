"""Jobs that keep one route each in `src/plovkit`, checked on its source.

A negative quasi-unipotency verdict becomes `NotQuasiUnipotentError` in
one place, `cyclotomic.require_quasi_unipotent`, which every caller goes
through: `jordan_profile` and `unipotent_power` ask for the verdict, and
every other route reads it off the one profile or power they return, so
`plovkit` keeps no per-matrix wrapper that rebuilds the profile.  Likewise `NotUnipotentError` comes only from the rank sequence
in `jordan`, and `NotPseudoAnalyticError` only from `jordan.half_profile`;
the model entries take the matrix and the form, and no chain beside
them.  Polynomials are rebuilt from exact values only through
`exact.interpolate_checked`, which re-verifies them at one more node, so
no module but `exact` references the private `_interpolate`.  Both sums
of pullbacks, S(n) in `powersum` and Delta_n in `cohomology`, are built
from `exact.congruence_chain` and `exact.combiner`.  A `UniPoly` is
built, evaluated and printed, with no ring operations, and matrix powers
go through `exact.mat_pow` alone.  A `TwoForm` is built, read and handed
to `pfaffian` or `pullback2`, with no arithmetic of its own; Delta_x and
the polarized wedges are built inside `intersection_poly` and
`scan_chain` alone.  The records keep only the members some route
reads, and the degree of the zero polynomial is the int -1.  A power the
verdict claims unipotent is checked by its trace, so no module tests
nilpotency by squaring, and `plovkit` exports no `is_unipotent`.
"""

import ast
from pathlib import Path

import pytest

import plovkit


def parsed_sources():
    for path in sorted(Path(plovkit.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), str(path))


def raised_name(exc):
    target = exc.func if isinstance(exc, ast.Call) else exc
    if isinstance(target, ast.Name):
        return target.id
    return getattr(target, "attr", None)


def references(node, name):
    if isinstance(node, ast.Name):
        return node.id == name
    if isinstance(node, ast.Attribute):
        return node.attr == name
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return any(alias.name.split(".")[-1] == name for alias in node.names)
    return False


def class_members(tree, name):
    """The names a class body binds, by `def` or by assignment."""
    body = next(
        node.body
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == name
    )
    return {node.name for node in body if isinstance(node, ast.FunctionDef)} | {
        target.id
        for node in body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    }


def raise_sites(error):
    return [
        f"{name}:{node.lineno}"
        for name, tree in parsed_sources()
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise)
        and node.exc is not None
        and raised_name(node.exc) == error
    ]


def optional_params(fn):
    args = fn.args
    positional = args.posonlyargs + args.args
    return [a.arg for a in positional[len(positional) - len(args.defaults) :]] + [
        a.arg for a in args.kwonlyargs
    ]


def test_not_quasi_unipotent_error_is_raised_once():
    raises = raise_sites("NotQuasiUnipotentError")
    assert len(raises) == 1, raises
    assert raises[0].startswith("cyclotomic.py:")


def test_only_the_profile_and_the_power_ask_for_the_verdict():
    import dataclasses

    users = {
        name
        for name, tree in parsed_sources()
        for node in ast.walk(tree)
        if references(node, "require_quasi_unipotent")
    }
    assert users == {"cyclotomic.py", "jordan.py"}
    wrappers = {"growth_exponent", "max_block_compound2"}
    defined = {
        f"{name}:{node.name}"
        for name, tree in parsed_sources()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in wrappers
    }
    assert defined == set()
    assert not any(hasattr(plovkit, name) for name in wrappers)
    assert hasattr(plovkit, "max_minor_degree")
    fields = {f.name for f in dataclasses.fields(plovkit.AnalysisReport)}
    assert "verdict" not in fields and "profile" in fields


@pytest.mark.parametrize("error", ["NotUnipotentError", "NotPseudoAnalyticError"])
def test_profile_errors_are_raised_once_in_jordan(error):
    raises = raise_sites(error)
    assert len(raises) == 1, raises
    assert raises[0].startswith("jordan.py:")


def test_model_entries_take_exactly_the_matrix_and_the_form():
    trees = dict(parsed_sources())
    functions = {
        node.name: node.args
        for node in ast.walk(trees["cohomology.py"])
        if isinstance(node, ast.FunctionDef)
    }
    for name in ("plov_via_model", "vanishing_scan"):
        args = functions[name]
        assert [a.arg for a in args.args] == ["m", "h"], name
        assert not (args.kwonlyargs or args.vararg or args.kwarg), name
    optional_chains = [
        f"{name}:{node.name}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and "chain" in optional_params(node)
    ]
    assert optional_chains == []


def test_only_exact_references_the_raw_interpolation():
    users = {
        name
        for name, tree in parsed_sources()
        for node in ast.walk(tree)
        if references(node, "_interpolate")
    }
    assert users == {"exact.py"}


def test_sums_of_pullbacks_share_one_chain_and_one_combiner():
    trees = dict(parsed_sources())
    functions = {
        node.name
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
    }
    assert "_nilpotent_powers" not in functions
    two_form = next(
        node
        for node in ast.walk(trees["cohomology.py"])
        if isinstance(node, ast.ClassDef) and node.name == "TwoForm"
    )
    methods = {node.name for node in two_form.body if isinstance(node, ast.FunctionDef)}
    assert "combination" not in methods
    for module in ("powersum.py", "cohomology.py"):
        imported = {
            alias.name
            for node in ast.walk(trees[module])
            if isinstance(node, ast.ImportFrom) and node.module == "exact"
            for alias in node.names
        }
        assert {"congruence_chain", "combiner"} <= imported, module


def test_polynomials_have_no_ring_operations_and_matrices_no_power_operator():
    exact = dict(parsed_sources())["exact.py"]
    ring = {"zero", "constant", "variable", "_check_var", "__add__", "__sub__"}
    ring |= {"__mul__", "__rmul__", "__pow__"}
    assert class_members(exact, "UniPoly") & ring == set()
    assert "__pow__" not in class_members(exact, "RatMatrix")
    assert "__mul__" in class_members(exact, "RatMatrix")  # the walk sees methods
    assert not hasattr(plovkit, "Rational")
    assert not hasattr(plovkit.exact, "Rational")


def test_two_forms_have_no_arithmetic_and_the_scan_polarizes_inline():
    cohomology = dict(parsed_sources())["cohomology.py"]
    arithmetic = {"basis", "coefficient", "__add__", "__sub__", "__mul__", "__rmul__"}
    assert class_members(cohomology, "TwoForm") & arithmetic == set()
    assert "is_zero" in class_members(cohomology, "TwoForm")  # the walk sees methods
    functions = {
        node.name for node in ast.walk(cohomology) if isinstance(node, ast.FunctionDef)
    }
    assert functions & {"delta_at", "polarized_wedge"} == set()
    assert "scan_chain" in functions
    assert not hasattr(plovkit, "delta_at")
    combine = plovkit.exact.combiner([plovkit.RatMatrix.identity(2)])
    assert not hasattr(combine, "count") and not hasattr(combine, "dimension")


def test_records_keep_only_what_the_routes_read():
    import dataclasses
    import inspect

    from plovkit.randgen import random_unimodular

    assert not hasattr(plovkit, "NEG_INF")
    assert not hasattr(plovkit.exact, "NEG_INF")
    zero = plovkit.UniPoly.from_coeffs([])
    assert zero.degree() == -1 and type(zero.degree()) is int
    assert not hasattr(plovkit.UniPoly, "coefficient")
    assert not hasattr(plovkit.JordanProfile, "max_block_size")
    assert not hasattr(plovkit.HalfProfile, "max_block_size")
    assert not hasattr(plovkit.AnalysisReport, "all_bounds_hold")
    scan_fields = {f.name for f in dataclasses.fields(plovkit.VanishingScanReport)}
    assert scan_fields == {"kf", "scanned", "violations"}
    assert list(inspect.signature(random_unimodular).parameters) == ["rng", "k"]


def test_no_module_tests_nilpotency_by_squaring():
    # squaring serves binary powers in `exact.mat_pow` alone: a claimed
    # power is checked by its trace, a caller's matrix by the rank sequence
    def callee(call):
        return getattr(call.func, "id", getattr(call.func, "attr", None))

    def squares(call):
        args = [ast.dump(a) for a in call.args]
        if callee(call) == "mat_mul":
            return len(args) == 2 and args[0] == args[1]
        return callee(call) == "mat_pow" and args[1:] == [ast.dump(ast.Constant(2))]

    squarers = {
        f"{name}:{fn.name}"
        for name, tree in parsed_sources()
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and squares(node)
    }
    assert squarers == {"exact.py:mat_pow"}
    assert not hasattr(plovkit, "is_unipotent")
    assert not hasattr(plovkit.cyclotomic, "is_unipotent")
