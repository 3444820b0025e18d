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
no module but `exact` references the private `_interpolate`; its nodes
follow one rule, with no branch on a missing parity, and `det_poly` asks
for each node's matrix once.  A zero denominator is refused in one place,
the lowest-terms rule that `UniPoly` and `RatMatrix` share.  Both sums
of pullbacks, S(n) in `powersum` and Delta_n in `cohomology`, take their
chain from `exact.congruence_chain` and are weighted by one chain sum,
`exact._chain_terms` and `exact._weighted_rows`, which both import: no
module defines a `combiner`, and only `exact` takes the lcm of
denominators.  Delta_n and the scan's sums go through
`cohomology._common_pfaffian` alone, as integer rows split by the
blocks of their support graph, which `_block_pfaffian` values by
`exact._echelon` or `_pfaffian_rows`, the only two kernels.  A `UniPoly` is
built, evaluated and printed, with no ring operations, and matrix powers
go through `exact.mat_pow` alone.  A `TwoForm` is built, read and handed
to `pfaffian` or `pullback2`, with no arithmetic of its own; Delta_x and
the polarized wedges are built inside `intersection_poly` and
`scan_chain` alone, through their private helper `_common_pfaffian`,
and the scan keeps one value per multiset, with no size limit, listing
the ordered tuples, and the violations among them, only on demand; the
report lists them by blocks in `cli.encode_report`'s one loop, and
`cli.SCAN_LIMIT`, which `cmd_model` checks, bounds that listing alone.  The records keep only
the members some route reads, and the degree of the zero polynomial is
the int -1.  A power the verdict claims unipotent is checked by its
trace, so no module tests nilpotency by squaring, and `plovkit`
exports no `is_unipotent`.  One
conjugate half is read off the `JordanProfile` as triples, with no
record of its own; Phi_n is built by `cyclotomic.cyclotomic_poly` alone;
`_interpolate` builds polynomials in n only; `randgen` inverts by
Cayley-Hamilton on `exact.char_poly` and `exact.poly_at_matrix`, builds
its matrices from integer rows and the kernel's constructors, with no
`Fraction` and no `.entries`, and draws every random integer matrix
through `random_integer_matrix`; `powersum` guards its dimensions with
`exact._check_same_dim`; and `plov` reads growth exponents off the block
sizes, with no determinant.
Records are type-checked by one guard, `exact._expect`.  The CLI builds
and writes every report through one tail, `cli._finish`, and one writer,
`cli._write`, and declares each flag its subcommands share once.
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
    wrappers = {"growth_exponent", "max_block_compound2", "_single_block_minor_degree"}
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


def test_sums_of_pullbacks_share_one_chain():
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
    imported = {
        module: {
            alias.name
            for node in ast.walk(trees[module])
            if isinstance(node, ast.ImportFrom) and node.module == "exact"
            for alias in node.names
        }
        for module in ("powersum.py", "cohomology.py")
    }
    chain_sum = {"congruence_chain", "_chain_terms", "_weighted_rows"}
    assert chain_sum <= imported["powersum.py"]
    assert chain_sum <= imported["cohomology.py"]
    assert "combiner" not in functions and not hasattr(plovkit.exact, "combiner")
    assert not any(
        references(node, "combiner") for tree in trees.values() for node in ast.walk(tree)
    )
    # a chain's common denominator is formed in `exact` alone
    over_denominators = {
        name
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and references(node.func, "lcm")
        and any(references(sub, "den") for sub in ast.walk(node))
    }
    assert over_denominators == {"exact.py"}
    # Delta_n is summed as integer rows, with no matrix per sum: only the
    # public `pfaffian` and the one block rule of `_common_pfaffian`, in
    # its block evaluator `evaluate`, reach an elimination, and the block
    # rule takes its determinants from `exact._echelon`, so no third
    # kernel exists
    cohomology = trees["cohomology.py"]

    def callers(kernel):
        return {
            fn.name
            for fn in ast.walk(cohomology)
            if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn)
            if isinstance(node, ast.Call) and references(node.func, kernel)
        }

    assert callers("_pfaffian_rows") == {"pfaffian", "_block_pfaffian"}
    assert callers("_echelon") == {"_block_pfaffian"}
    assert callers("_block_pfaffian") == {"_common_pfaffian", "evaluate"}


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
    # the chain sum hands out plain terms and integer rows, no matrix object
    den, terms = plovkit.exact._chain_terms([plovkit.RatMatrix.identity(2)])
    assert (den, terms) == (1, [[(0, 1), (3, 1)]])
    assert plovkit.exact._weighted_rows(terms, [2], 2) == [[2, 0], [0, 2]]


def test_records_keep_only_what_the_routes_read():
    import dataclasses
    import functools
    import inspect

    from plovkit.randgen import random_unimodular

    assert not hasattr(plovkit, "NEG_INF")
    assert not hasattr(plovkit.exact, "NEG_INF")
    zero = plovkit.UniPoly.from_coeffs([])
    assert zero.degree() == -1 and type(zero.degree()) is int
    assert not hasattr(plovkit.UniPoly, "coefficient")
    assert not hasattr(plovkit.JordanProfile, "max_block_size")
    assert not hasattr(plovkit.AnalysisReport, "all_bounds_hold")
    scan_fields = {f.name for f in dataclasses.fields(plovkit.VanishingScanReport)}
    assert scan_fields == {"kf", "genus", "nonzero"}
    # the ordered tuples, and the violations among them, are listed on
    # demand from the nonzero multiset values
    for name in ("scanned", "violations"):
        assert isinstance(
            inspect.getattr_static(plovkit.VanishingScanReport, name),
            functools.cached_property,
        )
    assert list(inspect.signature(random_unimodular).parameters) == ["rng", "k"]


def test_the_scan_listing_is_laid_out_by_the_cli_alone():
    # the report's blocks of tuples, and the suffixes that expand them,
    # belong to the one module that writes them; the scan is a record
    from plovkit import cli

    for name in ("blocks", "suffixes"):
        assert not hasattr(plovkit.VanishingScanReport, name)
    assert not hasattr(cli, "ScannedEntries")
    sources = dict(parsed_sources())
    assert [
        name
        for name, tree in sources.items()
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name == "_suffixes"
    ] == ["cli.py"]
    callers = {
        f"{name}:{fn.name}"
        for name, tree in sources.items()
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and references(node.func, "_suffixes")
    }
    assert callers == {"cli.py:encode_report"}
    assert not hasattr(cli, "_scan_blocks")


def test_the_scan_limit_bounds_the_cli_listing_alone():
    # the limit is the report's: the library scan has none of its own
    from plovkit import cli, cohomology

    sources = dict(parsed_sources())
    assert [
        name
        for name, tree in sources.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(references(t, "SCAN_LIMIT") for t in node.targets)
    ] == ["cli.py"]
    assert not any(
        references(node, "SCAN_LIMIT") for node in ast.walk(sources["cohomology.py"])
    )
    assert not hasattr(cohomology, "SCAN_LIMIT")
    assert cli.SCAN_LIMIT == 10**6


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


def test_one_half_record_one_cyclotomic_table_one_interpolation_variable():
    import inspect

    from plovkit import exact

    assert not hasattr(plovkit, "HalfProfile")
    assert not hasattr(plovkit.jordan, "HalfProfile")
    assert not hasattr(plovkit.cyclotomic, "_cyclotomic_ints")
    # a start node, and no variable tag
    assert list(inspect.signature(exact._interpolate).parameters) == [
        "values",
        "start",
    ]


def test_the_inverse_is_one_char_poly_and_one_polynomial_evaluation(monkeypatch):
    from plovkit import randgen

    calls = []

    def counting(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)

        return wrapper

    monkeypatch.setattr(randgen, "char_poly", counting(randgen.char_poly))
    monkeypatch.setattr(randgen, "poly_at_matrix", counting(randgen.poly_at_matrix))
    s = plovkit.RatMatrix.from_rows([[2, 1, 0], [1, 1, 0], [0, 3, 1]])
    randgen.invert_unimodular(s)
    assert sorted(calls) == ["char_poly", "poly_at_matrix"]


def test_growth_exponents_take_no_determinant():
    plov = dict(parsed_sources())["plov.py"]
    assert not any(references(node, "det_exact") for node in ast.walk(plov))
    # the walk sees names
    assert any(references(node, "max_minor_degree") for node in ast.walk(plov))


def test_one_type_guard_per_kind_of_argument():
    # a guard is a function that returns its argument when isinstance holds
    # and raises TypeError otherwise; records (RatMatrix, JordanProfile,
    # TwoForm) share `exact._expect`, and scalars have `exact._scalar`
    guards = {
        f"{name}:{fn.name}"
        for name, tree in parsed_sources()
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        and len(fn.body) >= 2
        and isinstance(fn.body[-2], ast.If)
        and isinstance(fn.body[-2].test, ast.Call)
        and references(fn.body[-2].test.func, "isinstance")
        and isinstance(fn.body[-1], ast.Raise)
        and raised_name(fn.body[-1].exc) == "TypeError"
    }
    assert guards == {"exact.py:_expect", "exact.py:_scalar"}


def test_the_cli_builds_and_writes_each_report_in_one_place():
    # every subcommand ends in `_finish`, the one caller of `base_report`
    # and `emit`; `_write` is the one function that writes to a stream
    cli = dict(parsed_sources())["cli.py"]
    functions = [fn for fn in ast.walk(cli) if isinstance(fn, ast.FunctionDef)]

    def callers(name):
        return sorted(
            fn.name
            for fn in functions
            for node in ast.walk(fn)
            if isinstance(node, ast.Call) and references(node.func, name)
        )

    assert callers("base_report") == callers("emit") == ["_finish"]
    commands = sorted(fn.name for fn in functions if fn.name.startswith("cmd_"))
    assert len(commands) == 5
    assert callers("_finish") == commands
    assert callers("write") == ["_write"]


def test_each_shared_flag_is_declared_once():
    # --input, --out and --seed mean the same in every subcommand that takes
    # them; --degrees is optional in analyze and required in growth
    cli = dict(parsed_sources())["cli.py"]
    declared = [
        node.args[0].value
        for node in ast.walk(cli)
        if isinstance(node, ast.Call)
        and references(node.func, "add_argument")
        and isinstance(node.args[0], ast.Constant)
    ]
    assert [declared.count(flag) for flag in ("--input", "--out", "--seed")] == [1, 1, 1]


def test_checked_interpolation_has_one_node_rule():
    exact = dict(parsed_sources())["exact.py"]
    fn = next(
        node
        for node in ast.walk(exact)
        if isinstance(node, ast.FunctionDef) and node.name == "interpolate_checked"
    )
    none_tests = [
        node.lineno
        for node in ast.walk(fn)
        if isinstance(node, ast.Compare)
        and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
        and any(references(x, "parity") for x in (node.left, *node.comparators))
    ]
    assert none_tests == []
    assert any(references(node, "parity") for node in ast.walk(fn))  # sees names


def test_a_zero_denominator_is_refused_in_one_place():
    def says(node, text):
        return any(
            isinstance(c, ast.Constant) and isinstance(c.value, str) and text in c.value
            for c in ast.walk(node)
        )

    sites = [
        f"{name}:{node.lineno}"
        for name, tree in parsed_sources()
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise)
        and node.exc is not None
        and says(node.exc, "denominator is zero")
    ]
    assert len(sites) == 1 and sites[0].startswith("exact.py:"), sites
    zeros = ((plovkit.UniPoly, (1,), "polynomial"), (plovkit.RatMatrix, ((1,),), "matrix"))
    for build, num, kind in zeros:
        with pytest.raises(plovkit.PreconditionError, match=f"^{kind} denominator"):
            build(num, 0)


def test_det_poly_asks_for_each_node_matrix_once():
    # det diag(x^2 + 1, x) = x^3 + x; nodes start..start + 3, then the check
    def at(x):
        asked.append(x)
        return plovkit.RatMatrix.from_rows([[x * x + 1, 0], [0, x]])

    for parity, start in ((None, 0), (-1, -1)):
        asked = []
        plovkit.det_poly(at, 3, parity=parity)
        assert asked == list(range(start + 5)), (parity, asked)



@pytest.mark.parametrize("name", ["Fraction", "entries"])
def test_randgen_builds_from_integer_rows(name):
    randgen = dict(parsed_sources())["randgen.py"]
    assert not any(references(node, name) for node in ast.walk(randgen))
    assert any(references(node, "RatMatrix") for node in ast.walk(randgen))  # sees names


def test_random_spd_draws_through_random_integer_matrix():
    randgen = dict(parsed_sources())["randgen.py"]
    spd = next(
        node
        for node in ast.walk(randgen)
        if isinstance(node, ast.FunctionDef) and node.name == "random_spd"
    )
    assert any(
        isinstance(node, ast.Call) and references(node.func, "random_integer_matrix")
        for node in ast.walk(spd)
    )


def test_powersum_guards_dimensions_through_the_shared_check():
    raises = raise_sites("DimensionMismatchError")
    assert raises  # the walk sees raises
    assert [site for site in raises if site.startswith("powersum.py:")] == []
