"""Three jobs keep one route each in `src/plovkit`, checked on its source.

A negative quasi-unipotency verdict becomes `NotQuasiUnipotentError` in
one place, `cyclotomic.require_quasi_unipotent`, which every caller goes
through.  Polynomials are rebuilt from exact values only through
`exact.interpolate_checked`, which re-verifies them at one more node, so
no module but `exact` references the private `_interpolate`.  Both sums
of pullbacks, S(n) in `powersum` and Delta_n in `cohomology`, are built
from `exact.congruence_chain` and `exact.combiner`.
"""

import ast
from pathlib import Path

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


def test_not_quasi_unipotent_error_is_raised_once():
    raises = [
        f"{name}:{node.lineno}"
        for name, tree in parsed_sources()
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise)
        and node.exc is not None
        and raised_name(node.exc) == "NotQuasiUnipotentError"
    ]
    assert len(raises) == 1, raises
    assert raises[0].startswith("cyclotomic.py:")


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
