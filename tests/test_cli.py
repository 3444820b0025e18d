"""Tests for input parsing, report serialization, and CLI exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import plovkit
from plovkit.cli import build_parser, enc_matrix, encode_report, main, parse_input
from plovkit.errors import CrossCheckError, InputFormatError, OddDimensionError
from plovkit.exact import RatMatrix


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_doc(tmp_path, doc, name="input.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


QUAD = {"name": "quad", "matrix": [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]]}


# ---------------------------------------------------------------------------
# parsing


def test_parse_unipotent_input():
    name, m = parse_input(json.dumps({"matrix": [[1, 1], [0, 1]]}))
    assert name is None
    assert m.dimension == 2
    assert m.entries[0][1] == 1


def test_parse_rational_strings():
    _, m = parse_input(json.dumps({"matrix": [["1/2", 0], [0, 2]]}))
    assert m.entries[0][0] == Fraction(1, 2)
    assert m.entries[1][1] == 2


def test_parse_rejects_non_square():
    with pytest.raises(InputFormatError, match="non-square"):
        parse_input(json.dumps({"matrix": [[1, 2, 3]]}))


def test_parse_rejects_floats_with_position():
    with pytest.raises(InputFormatError, match="row 1, column 2"):
        parse_input(json.dumps({"matrix": [[1, 1.5], [0, 1]]}))


def test_parse_rejects_decimal_strings():
    with pytest.raises(InputFormatError, match="unparseable"):
        parse_input(json.dumps({"matrix": [["1.5", 0], [0, 1]]}))


@pytest.mark.parametrize(
    "entry",
    ["1\n", "\u0661/\u0662"],
    ids=["trailing-newline", "arabic-indic-digits"],
)
def test_entry_outside_ascii_p_or_p_over_q_exits_1(tmp_path, capsys, entry):
    path = write_doc(tmp_path, {"matrix": [[entry, 0], [0, 1]]})
    code, out, err = run_cli(["analyze", "--input", path], capsys)
    assert code == 1
    assert out == ""
    assert "unparseable entry" in err


def test_parse_rejects_malformed_json_with_line():
    with pytest.raises(InputFormatError, match="line"):
        parse_input("{not json")


def test_parse_rejects_empty_matrix():
    with pytest.raises(InputFormatError):
        parse_input(json.dumps({"matrix": []}))


# ---------------------------------------------------------------------------
# subcommands and exit codes


def test_analyze_quad_block(tmp_path, capsys):
    path = write_doc(tmp_path, QUAD)
    code, out, err = run_cli(["analyze", "--input", path], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["analysis"]["plov"] == 4
    assert report["analysis"]["kJ"] == 1
    assert report["analysis"]["max_block_compound2"] == 3
    assert all(c["holds"] for c in report["analysis"]["bound_checks"])
    assert "plov = 4" in err


def test_analyze_single_block_not_pseudo_analytic_exits_0(tmp_path, capsys):
    # J_4 has exponent[2] = 4 > 2*1*(2-1); the paper's even-degree bound is
    # for pseudo-analytic profiles only, so no bound check is reported
    j4 = {"matrix": [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]]}
    path = write_doc(tmp_path, j4)
    code, out, err = run_cli(["analyze", "--input", path], capsys)
    assert code == 0
    analysis = json.loads(out)["analysis"]
    assert analysis["pseudo_analytic"] is False
    assert analysis["exponents"]["2"] == 4
    assert analysis["bound_checks"] == []
    assert "bound checks: none" in err


def test_analyze_paired_blocks_report_even_degree_checks(tmp_path, capsys):
    path = write_doc(tmp_path, QUAD)
    code, out, _ = run_cli(["analyze", "--input", path], capsys)
    assert code == 0
    checks = json.loads(out)["analysis"]["bound_checks"]
    even = [c for c in checks if c["name"].startswith("even_degree_exponent_bound")]
    assert [c["name"] for c in even] == [
        "even_degree_exponent_bound_r2",
        "even_degree_exponent_bound_r4",
    ]
    assert all(c["holds"] for c in even)


def test_analyze_identity(tmp_path, capsys):
    path = write_doc(tmp_path, {"matrix": [[1, 0], [0, 1]]})
    code, out, _ = run_cli(["analyze", "--input", path], capsys)
    assert code == 0
    assert json.loads(out)["analysis"]["plov"] == 1


def test_analyze_odd_dimension_exits_2(tmp_path, capsys):
    path = write_doc(tmp_path, {"matrix": [[1]]})
    code, _, err = run_cli(["analyze", "--input", path], capsys)
    assert code == 2


def test_powersum_not_quasi_unipotent_exits_2(tmp_path, capsys):
    path = write_doc(tmp_path, {"matrix": [[0, 1], [1, 1]]})
    code, _, err = run_cli(["powersum", "--input", path], capsys)
    assert code == 2
    assert "not quasi-unipotent" in err


def test_powersum_golden_case(tmp_path, capsys):
    path = write_doc(tmp_path, {"matrix": [[1, 1], [0, 1]]})
    code, out, _ = run_cli(["powersum", "--input", path], capsys)
    assert code == 0
    report = json.loads(out)["powersum"]
    assert report["degree"] == 4
    assert report["profile_degree"] == report["degree"]
    assert report["leading_coeff"] == "1/12"
    assert all(c["matches"] for c in report["brute_force_checks"])
    assert [c["value"] for c in report["brute_force_checks"][:2]] == [1, 5]


def test_powersum_random_form_seeded(tmp_path, capsys):
    path = write_doc(tmp_path, {"matrix": [[1, 1], [0, 1]]})
    code, out, _ = run_cli(
        ["powersum", "--input", path, "--h", "random", "--seed", "5"], capsys
    )
    assert code == 0
    report = json.loads(out)["powersum"]
    assert report["degree"] == 4  # degree independent of the form
    assert report["profile_degree"] == report["degree"]
    assert all(c["matches"] for c in report["brute_force_checks"])


def test_growth_requires_degrees(tmp_path, capsys):
    path = write_doc(tmp_path, QUAD)
    with pytest.raises(SystemExit) as exc:
        main(["growth", "--input", path])
    assert exc.value.code == 1
    capsys.readouterr()


def test_growth_reports_exponents(tmp_path, capsys):
    path = write_doc(tmp_path, QUAD)
    code, out, _ = run_cli(["growth", "--input", path, "--degrees", "1,2,4"], capsys)
    assert code == 0
    assert json.loads(out)["growth"]["exponents"] == {"1": 1, "2": 2, "4": 0}


def test_growth_builds_the_profile_once(tmp_path, capsys, monkeypatch):
    import plovkit.cli

    calls = []
    real = plovkit.cli.jordan_profile

    def counting(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(plovkit.cli, "jordan_profile", counting)
    path = write_doc(tmp_path, QUAD)
    code, out, _ = run_cli(
        ["growth", "--input", path, "--degrees", "1,2,3,4"], capsys
    )
    assert code == 0
    assert len(calls) == 1
    assert json.loads(out)["growth"]["exponents"] == {"1": 1, "2": 2, "3": 1, "4": 0}


def test_growth_reads_the_order_without_the_unipotent_power(
    tmp_path, capsys, monkeypatch
):
    import plovkit.cli
    import plovkit.cyclotomic

    calls = []
    real = plovkit.cyclotomic.unipotent_power

    def counting(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(plovkit.cli, "unipotent_power", counting)
    monkeypatch.setattr(plovkit.cyclotomic, "unipotent_power", counting)
    order_six = [[0, -1, 0, 0], [1, 1, 0, 0], [0, 0, 0, -1], [0, 0, 1, 1]]
    path = write_doc(tmp_path, {"matrix": order_six})
    code, out, _ = run_cli(["growth", "--input", path, "--degrees", "1,2"], capsys)
    assert code == 0
    assert calls == []
    assert json.loads(out)["growth"]["unipotent_order"] == 6


def count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` wherever a plovkit module binds it; the list
    returned collects the arguments of every call."""
    calls = []
    real = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("plovkit"):
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, counting)
    return calls


ORDER_SIX = {"matrix": [[0, -1, 0, 0], [1, 1, 0, 0], [0, 0, 0, -1], [0, 0, 1, 1]]}
# two Jordan blocks of size 2, as in QUAD, but off the block diagonal
QUAD_SHEARED = {"matrix": [[1, 1, 0, -1], [0, 1, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]]}


@pytest.mark.parametrize("command", ["powersum", "model"])
def test_each_op_proves_unipotency_once(tmp_path, capsys, monkeypatch, command):
    # unipotent_power checks its power by the trace alone, the rank sequence
    # of the one profile is the one unipotency proof, and a powersum op
    # checks its form once
    import plovkit.jordan
    import plovkit.powersum

    ranks = count_calls(monkeypatch, plovkit.jordan, "_block_size_counts")
    spd = count_calls(monkeypatch, plovkit.powersum, "ensure_spd")
    docs = [QUAD, QUAD_SHEARED, ORDER_SIX]
    for i, doc in enumerate(docs):
        path = write_doc(tmp_path, doc, f"input{i}.json")
        code, _, _ = run_cli([command, "--input", path], capsys)
        assert code == 0
    forms = len(docs) if command == "powersum" else 0
    assert (len(ranks), len(spd)) == (len(docs), forms)


@pytest.mark.parametrize("command", ["analyze", "growth", "powersum", "model"])
def test_each_op_asks_for_its_verdict_once(tmp_path, capsys, monkeypatch, command):
    # analyze and growth read the verdict off their one profile, powersum
    # and model off their one unipotent power
    import plovkit.cyclotomic

    calls = count_calls(monkeypatch, plovkit.cyclotomic, "quasi_unipotency")
    degrees = ["--degrees", "1,2"] if command == "growth" else []
    docs = [QUAD, QUAD_SHEARED, ORDER_SIX]
    for i, doc in enumerate(docs):
        path = write_doc(tmp_path, doc, f"input{i}.json")
        code, _, _ = run_cli([command, "--input", path, *degrees], capsys)
        assert code == 0
    assert len(calls) == len(docs)


def test_model_builds_the_chain_once(tmp_path, capsys, monkeypatch):
    import plovkit.exact

    calls = count_calls(monkeypatch, plovkit.exact, "congruence_chain")
    path = write_doc(tmp_path, QUAD)
    code, _, _ = run_cli(["model", "--input", path], capsys)
    assert code == 0
    assert len(calls) == 1


def test_model_standard_form(tmp_path, capsys):
    path = write_doc(tmp_path, QUAD)
    code, out, _ = run_cli(["model", "--input", path], capsys)
    assert code == 0
    report = json.loads(out)["model"]
    assert report["degree"] == 4
    assert report["matches_profile"] is True
    assert report["vanishing_scan"]["violations"] == []


def test_model_odd_dimension_raises_the_analyze_error(tmp_path, capsys):
    path = write_doc(tmp_path, {"matrix": [[1, 1, 0], [0, 1, 1], [0, 0, 1]]})
    args = build_parser().parse_args(["model", "--input", path])
    with pytest.raises(OddDimensionError, match="^dimension 3 is odd; expected 2g$"):
        args.fn(args)
    code, out, err = run_cli(["model", "--input", path], capsys)
    assert (code, out) == (2, "")
    assert err == "error: dimension 3 is odd; expected 2g\n"


def test_readme_synopsis_lists_every_option_of_each_subcommand():
    import argparse
    import re

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("Subcommands:\n\n```sh\n", 1)[1].split("```", 1)[0]
    listed = {
        line.split()[1]: set(re.findall(r"--[a-z][a-z-]*", line))
        for line in block.splitlines()
    }
    sub = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    defined = {
        name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }
    assert listed == defined


def test_invalid_input_exits_1(tmp_path, capsys):
    path = write_doc(tmp_path, {"matrix": [[1, 2, 3]]})
    code, _, err = run_cli(["analyze", "--input", path], capsys)
    assert code == 1
    assert "non-square" in err


def test_missing_file_exits_1(capsys):
    code, _, err = run_cli(["analyze", "--input", "/nonexistent.json"], capsys)
    assert code == 1


def test_out_flag_writes_file(tmp_path, capsys):
    path = write_doc(tmp_path, QUAD)
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        ["analyze", "--input", path, "--out", str(out_path)], capsys
    )
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())["analysis"]["plov"] == 4


# ---------------------------------------------------------------------------
# determinism and exactness of reports


def test_byte_identical_reports(tmp_path, capsys):
    path = write_doc(tmp_path, QUAD)
    _, out1, _ = run_cli(["analyze", "--input", path], capsys)
    _, out2, _ = run_cli(["analyze", "--input", path], capsys)
    assert out1 == out2


def assert_no_floats(node):
    if isinstance(node, float):
        raise AssertionError(f"float {node!r} in report")
    if isinstance(node, dict):
        for v in node.values():
            assert_no_floats(v)
    if isinstance(node, list):
        for v in node:
            assert_no_floats(v)


def test_reports_contain_no_floats(tmp_path, capsys):
    path = write_doc(
        tmp_path, {"matrix": [["1/2", "1/3"], [0, "1/2"]]}, name="rat.json"
    )
    code, out, _ = run_cli(["powersum", "--input", path], capsys)
    # 1/2-eigenvalue matrix is not quasi-unipotent: exit 2, no report
    assert code == 2
    quad = write_doc(tmp_path, QUAD)
    for args in (
        ["analyze", "--input", quad],
        ["powersum", "--input", quad, "--h", "random", "--seed", "1"],
        ["model", "--input", quad],
        ["growth", "--input", quad, "--degrees", "1,2"],
    ):
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        assert_no_floats(json.loads(out))


def test_growth_rejects_out_of_range_degree(tmp_path, capsys):
    path = write_doc(tmp_path, QUAD)
    code, _, err = run_cli(["growth", "--input", path, "--degrees", "9"], capsys)
    assert code == 1
    assert "out of range" in err


def test_report_rationals_round_trip(tmp_path, capsys):
    path = write_doc(tmp_path, {"matrix": [[1, 1], [0, 1]]})
    _, out, _ = run_cli(["powersum", "--input", path], capsys)
    coeffs = json.loads(out)["powersum"]["poly"]["coefficients"]
    parsed = [Fraction(str(c)) for c in coeffs]
    assert parsed == [0, 0, Fraction(11, 12), 0, Fraction(1, 12)]


def test_model_random_form_is_seed_deterministic(tmp_path, capsys):
    path = write_doc(tmp_path, QUAD)
    _, out1, _ = run_cli(
        ["model", "--input", path, "--form", "random", "--seed", "3"], capsys
    )
    _, out2, _ = run_cli(
        ["model", "--input", path, "--form", "random", "--seed", "3"], capsys
    )
    assert out1 == out2


def test_selftest_reduced(tmp_path, capsys):
    code, out, err = run_cli(
        ["selftest", "--max-size", "4", "--cases", "4", "--seed", "1"], capsys
    )
    assert code == 0
    report = json.loads(out)["selftest"]
    assert report["passed"] == report["suite_size"]
    assert f"passed {report['passed']}/{report['suite_size']} checks" in err
    from plovkit.selfcheck import SELFTEST_SUITE_SIZE

    assert report["suite_size"] == SELFTEST_SUITE_SIZE


# ---------------------------------------------------------------------------
# the CLI contract: a bad flag value or an unwritable --out is one line on
# stderr and exit 1, never a traceback


def run_process(args, cwd):
    return run_process_to(subprocess.PIPE, args, cwd)


def run_process_to(stdout, args, cwd, stderr=subprocess.PIPE, close_fd=None):
    """Run the CLI in a fresh interpreter with its stdout on `stdout` (a
    file, a descriptor or subprocess.PIPE), its stderr on `stderr`, and
    descriptor `close_fd`, if given, closed before it starts."""
    src = str(Path(plovkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", "plovkit.cli", *args],
        cwd=cwd, env=env, stdout=stdout, stderr=stderr, text=True,
        timeout=60,
        preexec_fn=None if close_fd is None else lambda: os.close(close_fd),
    )


def assert_one_line_exit_1(done):
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert len(done.stderr.strip().splitlines()) == 1
    # None when stdout was not captured
    assert done.stdout in ("", None)


def test_powersum_zero_samples_is_rejected(tmp_path):
    path = write_doc(tmp_path, {"matrix": [[1, 1], [0, 1]]})
    done = run_process(["powersum", "--input", path, "--samples", "0"], tmp_path)
    assert_one_line_exit_1(done)
    assert "--samples" in done.stderr


def test_selftest_zero_max_size_is_rejected(tmp_path):
    done = run_process(["selftest", "--max-size", "0"], tmp_path)
    assert_one_line_exit_1(done)
    assert "--max-size" in done.stderr


def test_unwritable_out_path_is_one_line_error(tmp_path):
    path = write_doc(tmp_path, {"matrix": [[1, 1], [0, 1]]})
    out = str(tmp_path / "missing-dir" / "r.json")
    done = run_process(["analyze", "--input", path, "--out", out], tmp_path)
    assert_one_line_exit_1(done)
    assert "cannot write report" in done.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_full_stdout_is_one_line_error(tmp_path):
    # argparse itself swallows a failed write of --version or --help
    path = write_doc(tmp_path, {"matrix": [[1, 1], [0, 1]]})
    for args, message in [
        (["analyze", "--input", path], "error: cannot write report: "),
        (["--version"], "error: cannot write output: "),
        (["--help"], "error: cannot write output: "),
    ]:
        with open("/dev/full", "w") as full:
            done = run_process_to(full, args, tmp_path)
        assert_one_line_exit_1(done)
        assert message in done.stderr
        assert "Exception ignored" not in done.stderr


class _FullStream(io.StringIO):
    """A stream whose every write fails as on a full device."""

    def write(self, text):
        raise OSError(28, "No space left on device")


def test_unwritable_stderr_keeps_the_exit_code(tmp_path, capsys, monkeypatch):
    # the summary and the one-line error messages are advisory: a failed
    # write to stderr leaves the report and the exit code as they were
    path = write_doc(tmp_path, QUAD)
    expected = json.loads(run_cli(["analyze", "--input", path], capsys)[1])
    monkeypatch.setattr(sys, "stderr", _FullStream())
    assert main(["analyze", "--input", path]) == 0
    assert json.loads(capsys.readouterr().out) == expected
    assert main(["analyze", "--input", str(tmp_path / "missing.json")]) == 1
    with pytest.raises(SystemExit) as exc:
        main(["analyze"])
    assert exc.value.code == 1
    assert capsys.readouterr().out == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_full_or_closed_stderr_exits_0(tmp_path):
    # with descriptor 2 closed Python starts with sys.stderr None, and
    # print(file=None) would append the summary to the report on stdout
    args = ["analyze", "--input", write_doc(tmp_path, QUAD)]
    expected = run_process(args, tmp_path).stdout
    assert json.loads(expected)["analysis"]["plov"] == 4
    with open("/dev/full", "w") as full:
        on_full = run_process_to(subprocess.PIPE, args, tmp_path, stderr=full)
    closed = run_process_to(subprocess.PIPE, args, tmp_path, stderr=None, close_fd=2)
    for done in (on_full, closed):
        assert done.returncode == 0
        assert done.stdout == expected


@pytest.mark.skipif(os.name != "posix", reason="closes a descriptor in the child")
def test_closed_stdout_descriptor_is_one_line_error(tmp_path):
    # descriptor 1 closed at startup leaves sys.stdout None
    path = write_doc(tmp_path, QUAD)
    for args in (["analyze", "--input", path], ["--version"]):
        done = run_process_to(None, args, tmp_path, close_fd=1)
        assert_one_line_exit_1(done)
        assert "error: cannot write " in done.stderr


def test_one_parser_per_process_carries_no_state(tmp_path, capsys):
    # the parser is built once; a run with every powersum flag set must not
    # leak into the next run that leaves them at their defaults
    assert build_parser() is build_parser()
    path = write_doc(tmp_path, {"matrix": [[1, 1], [0, 1]]})
    for args in (
        ["powersum", "--input", path, "--h", "random", "--seed", "5", "--samples", "3"],
        ["powersum", "--input", path],
    ):
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        assert out == run_process(args, tmp_path).stdout


def test_closed_stdout_pipe_is_one_line_error(tmp_path):
    path = write_doc(tmp_path, QUAD)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = run_process_to(write_end, ["model", "--input", path], tmp_path)
    finally:
        os.close(write_end)
    assert_one_line_exit_1(done)
    assert "error: cannot write report: " in done.stderr
    assert "Exception ignored" not in done.stderr


@pytest.mark.parametrize(
    "args",
    [
        ["selftest", "--max-size", "1"],
        ["selftest", "--cases", "0"],
        ["selftest", "--cases", "-3"],
        ["powersum", "--input", "x.json", "--samples", "-1"],
        ["powersum", "--input", "x.json", "--samples", "two"],
    ],
)
def test_small_counts_are_rejected_at_parse_time(args, capsys):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1


def test_smallest_selftest_counts_run(capsys):
    code, out, _ = run_cli(["selftest", "--max-size", "2", "--cases", "1"], capsys)
    assert code == 0
    assert json.loads(out)["selftest"]["max_size"] == 2


def test_selftest_max_size_bounds_every_matrix(monkeypatch):
    from plovkit.selfcheck import run_selftest

    sizes = []
    post_init = RatMatrix.__post_init__

    def recording(self):
        sizes.append(len(self.num))
        post_init(self)

    monkeypatch.setattr(RatMatrix, "__post_init__", recording)
    results = run_selftest(max_size=3, cases=3)
    assert [r.name for r in results if not r.passed] == []
    assert max(sizes) == 3


# JSON that Python's decoder itself refuses: too deeply nested for its
# recursion limit, or an integer beyond its digit limit


@pytest.mark.parametrize(
    "text",
    [
        '{"matrix": ' + "[" * 100_000 + "]" * 100_000 + "}",
        '{"matrix": [[' + "7" * 5_000 + "]]}",
    ],
    ids=["deep-nesting", "long-integer"],
)
def test_undecodable_json_is_one_line_error(tmp_path, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    done = run_process(["analyze", "--input", str(path)], tmp_path)
    assert_one_line_exit_1(done)
    assert "unreadable JSON" in done.stderr


def test_report_numbers_past_the_digit_limit_are_written(tmp_path, capsys):
    # a valid 3,000-digit entry whose power-sum determinant has a leading
    # coefficient of 6,000 digits; the limit still guards the input above
    big = 10**3000 - 1
    path = write_doc(tmp_path, {"matrix": [[1, big], [0, 1]]})
    args = ["powersum", "--input", path, "--samples", "1"]
    done = run_process(args, tmp_path)
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    limit = sys.get_int_max_str_digits()
    assert main(args) == 0
    assert sys.get_int_max_str_digits() == limit
    assert capsys.readouterr().out == done.stdout
    sys.set_int_max_str_digits(0)
    try:
        report = json.loads(done.stdout)["powersum"]
        assert Fraction(report["leading_coeff"]) == Fraction(big**2, 12)
    finally:
        sys.set_int_max_str_digits(limit)
    assert report["brute_force_checks"][0]["matches"] is True
    # the intersection polynomial of J + J with a 2,500-digit link
    big = 10**2500 - 1
    quad = [[1, big, 0, 0], [0, 1, 0, 0], [0, 0, 1, big], [0, 0, 0, 1]]
    path = write_doc(tmp_path, {"matrix": quad})
    done = run_process(["model", "--input", path], tmp_path)
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize(
    "command",
    [["analyze"], ["powersum"], ["growth", "--degrees", "1"], ["model"]],
    ids=["analyze", "powersum", "growth", "model"],
)
def test_residual_past_the_digit_limit_is_one_line_exit_2(tmp_path, command):
    # valid 2,501-digit entries; the residual (t - 10^2500)^2 has a
    # 5,001-digit constant term, too long for str under the default limit
    big = 10**2500
    path = write_doc(tmp_path, {"matrix": [[big, 0], [0, big]]})
    done = run_process([*command, "--input", path], tmp_path)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == (
        "error: matrix is not quasi-unipotent; residual factor of degree 2"
        " with coefficients of up to 5001 digits\n"
    )


@pytest.mark.parametrize(
    "command",
    [["analyze"], ["powersum", "--samples", "1"], ["growth", "--degrees", "1"], ["model"]],
    ids=["analyze", "powersum", "growth", "model"],
)
def test_char_poly_past_the_prime_table_is_one_line_exit_2(tmp_path, capsys, command):
    # a valid unipotent input whose char_poly coefficient bound, 19,934
    # bits, is past the 19,265 bits of the Mersenne prime table
    b = 10**3000 - 1
    quad = [[1, b, 0, 0], [0, 1, 0, 0], [0, 0, 1, b], [0, 0, 0, 1]]
    path = write_doc(tmp_path, {"matrix": quad})
    code, out, err = run_cli([*command, "--input", path], capsys)
    assert code == 2
    assert out == ""
    assert err == (
        "error: char_poly: coefficient bound of 19934 bits exceeds the product"
        " of the Mersenne prime table\n"
    )


def test_parse_input_is_total_on_arbitrary_input():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    json_values = st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
        lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
        max_leaves=20,
    )
    documents = st.one_of(
        st.builds(json.dumps, json_values),
        st.builds(lambda grid: json.dumps({"matrix": grid}), json_values),
    )

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @hypothesis.given(st.one_of(st.text(), st.binary(), documents))
    def check(data):
        try:
            parse_input(data)
        except InputFormatError:
            pass

    check()


def test_every_argv_exits_with_a_documented_code(tmp_path):
    # in-process `main` on argv drawn from the subcommands, their flags,
    # small or non-numeric values and a few fixed files: it returns, or
    # raises SystemExit, with a code in {0, 1, 2, 3}; nothing else escapes
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    files = {
        "valid.json": json.dumps({"matrix": [[1, 1], [0, 1]]}),
        "malformed.json": "{not json",
        "float.json": json.dumps({"matrix": [[1, 0.5], [0, 1]]}),
        "not-quasi-unipotent.json": json.dumps({"matrix": [[2, 0], [0, 1]]}),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    paths = [str(tmp_path / name) for name in [*files, "missing.json"]]
    outs = [str(tmp_path / "out.json"), str(tmp_path / "no" / "out.json"), str(tmp_path)]
    numbers = ["0", "1", "2", "3", "-1", "x", "", "1.5", "1,2", "2,,1"]
    choices = ["identity", "random", "standard", "x"]
    pools = {
        "--input": paths,
        "--out": outs,
        "--degrees": numbers,
        "--h": choices,
        "--form": choices,
        "--seed": numbers,
        "--samples": numbers,
        "--max-size": numbers,
        "--cases": numbers,
    }
    command_flags = {
        "analyze": ["--input", "--out", "--degrees"],
        "powersum": ["--input", "--out", "--h", "--seed", "--samples"],
        "growth": ["--input", "--out", "--degrees"],
        "model": ["--input", "--out", "--form", "--seed"],
        "selftest": ["--out", "--max-size", "--cases", "--seed"],
    }
    # a stray token: any flag or value, or a bad subcommand
    token = st.sampled_from(
        [*pools, "--version", "--help", "bogus", *numbers, *choices, *paths, *outs]
    )

    # selftest starts from the smallest counts, and a drawn value (at most
    # 3) overrides them, so each run is short
    small = {"selftest": ["--max-size", "2", "--cases", "1"]}

    def argv_for(command):
        pair = st.sampled_from(command_flags[command]).flatmap(
            lambda flag: st.tuples(st.just(flag), st.sampled_from(pools[flag]))
        )
        return st.builds(
            lambda pairs, stray: [
                command, *small.get(command, []), *(t for p in pairs for t in p), *stray
            ],
            st.lists(pair, max_size=4, unique_by=lambda p: p[0]),
            st.lists(token, max_size=1),
        )

    argvs = st.sampled_from([*command_flags, None]).flatmap(
        lambda command: argv_for(command) if command else st.lists(token, max_size=3)
    )

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @hypothesis.given(argvs)
    def check(argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2, 3), (argv, code)

    check()


def test_encoded_matrix_parses_back_to_itself():
    # enc_matrix reads the Fraction view of the integer-row storage, and
    # parse_input rebuilds the storage from the encoded entries
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    rationals = st.builds(
        Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**12)
    )
    matrices = st.integers(1, 5).flatmap(
        lambda k: st.lists(
            st.lists(rationals, min_size=k, max_size=k), min_size=k, max_size=k
        )
    )

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @hypothesis.given(matrices)
    def check(rows):
        m = RatMatrix.from_rows(rows)
        name, back = parse_input(json.dumps({"matrix": enc_matrix(m)}))
        assert name is None
        assert back == m
        assert back.entries == tuple(map(tuple, rows))

    check()


def test_float_anywhere_in_the_matrix_exits_1(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    argv_tails = {
        "analyze": [],
        "powersum": [],
        "growth": ["--degrees", "1"],
        "model": [],
    }
    cases = st.integers(1, 4).flatmap(
        lambda k: st.tuples(
            st.lists(
                st.lists(st.integers(-5, 5), min_size=k, max_size=k),
                min_size=k,
                max_size=k,
            ),
            st.integers(0, k - 1),
            st.integers(0, k - 1),
            st.floats(),
            st.sampled_from(sorted(argv_tails)),
        )
    )
    path = tmp_path / "input.json"

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
    @hypothesis.given(cases)
    def check(case):
        grid, i, j, value, command = case
        grid[i][j] = value
        path.write_text(json.dumps({"matrix": grid}))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--input", str(path), *argv_tails[command]])
        assert code == 1
        assert err.getvalue().count("\n") == 1
        assert f"floating-point entry at row {i + 1}, column {j + 1}" in err.getvalue()

    check()


def test_encoder_matches_json_dumps():
    # json.dumps with indent and sorted keys is the oracle for the report
    # text; booleans inside int lists must miss the flat-int fast path
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    texts = st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f') | st.characters())
    ints = st.integers() | st.integers(-(2**200), 2**200)
    leaves = (
        st.none() | st.booleans() | ints | texts | st.lists(ints | st.booleans())
    )
    values = st.recursive(
        leaves,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(texts, inner, max_size=4),
        max_leaves=20,
    )

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @hypothesis.given(values)
    def check(value):
        assert encode_report(value) == json.dumps(value, indent=2, sort_keys=True)

    check()


@pytest.mark.parametrize(
    "value",
    [
        {"x": 0.5},
        {"x": [1, 2.0]},
        {"x": (1, 2)},
        {"x": Fraction(1, 2)},
        {"x": {1: 2}},
        {"x": {1: 2, "a": 3}},
        {"x": {"y": b"z"}},
    ],
    ids=["float", "float-in-int-list", "tuple", "fraction", "int-key", "mixed-keys", "bytes"],
)
def test_encoder_rejects_what_no_report_holds(value):
    with pytest.raises(CrossCheckError, match="^emit: "):
        encode_report(value)


def test_non_report_value_exits_3_with_one_line(tmp_path, capsys, monkeypatch):
    import plovkit.cli

    real = plovkit.cli.base_report

    def with_float(*args):
        return {**real(*args), "stray": 0.5}

    monkeypatch.setattr(plovkit.cli, "base_report", with_float)
    path = write_doc(tmp_path, QUAD)
    code, out, err = run_cli(["analyze", "--input", path], capsys)
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("internal cross-check failure: emit: ")


# ---------------------------------------------------------------------------
# exit 3: a failed internal cross-check


def test_powersum_brute_force_mismatch_exits_3(tmp_path, capsys, monkeypatch):
    import plovkit.cli

    real = plovkit.cli.power_sum_brute
    monkeypatch.setattr(
        plovkit.cli, "power_sum_brute", lambda *a: [v + 1 for v in real(*a)]
    )
    path = write_doc(tmp_path, QUAD)
    out_path = tmp_path / "report.json"
    code, out, err = run_cli(["powersum", "--input", path, "--out", str(out_path)], capsys)
    assert code == 3
    assert out == ""
    checks = json.loads(out_path.read_text())["powersum"]["brute_force_checks"]
    assert len(checks) == 9 and not any(c["matches"] for c in checks)
    assert "brute-force agreement at n = 1..9: False" in err
    errors = [line for line in err.splitlines() if "failure" in line]
    assert errors == [
        "internal cross-check failure: symbolic power sum disagrees with brute force"
    ]


def test_analyze_failing_bound_check_exits_3(tmp_path, capsys, monkeypatch):
    import dataclasses

    import plovkit.cli

    real = plovkit.cli.analyze

    def failing(*args):
        report = real(*args)
        first, *rest = report.bound_checks
        broken = dataclasses.replace(first, holds=False)
        return dataclasses.replace(report, bound_checks=(broken, *rest))

    monkeypatch.setattr(plovkit.cli, "analyze", failing)
    path = write_doc(tmp_path, QUAD)
    code, out, err = run_cli(["analyze", "--input", path], capsys)
    assert code == 3
    checks = json.loads(out)["analysis"]["bound_checks"]
    assert [c["holds"] for c in checks] == [False] + [True] * (len(checks) - 1)
    assert f"bound checks: {len(checks) - 1}/{len(checks)} hold" in err
    assert err.splitlines()[-1] == (
        "internal cross-check failure: bound checks failed: volume_growth_upper_bound"
    )


def test_model_nonzero_scanned_value_exits_3(tmp_path, capsys, monkeypatch):
    import dataclasses

    import plovkit.cli

    real = plovkit.cli.scan_chain

    def failing(chain):
        report = real(chain)
        (first, _), *rest = report.scanned
        return dataclasses.replace(
            report, scanned=((first, Fraction(1)), *rest), violations=(first,)
        )

    monkeypatch.setattr(plovkit.cli, "scan_chain", failing)
    path = write_doc(tmp_path, QUAD)
    out_path = tmp_path / "report.json"
    code, out, err = run_cli(["model", "--input", path, "--out", str(out_path)], capsys)
    assert code == 3
    assert out == ""
    scan = json.loads(out_path.read_text())["model"]["vanishing_scan"]
    assert scan["violations"] == [[1, 2]]
    assert scan["scanned"][0] == {"tuple": [1, 2], "value": 1}
    assert "3 products above threshold, 1 violations" in err
    assert err.splitlines()[-1] == (
        "internal cross-check failure: vanishing scan: 1 nonzero products above the threshold"
    )


@pytest.mark.parametrize("command", ["powersum", "model"])
def test_unipotent_power_that_is_not_unipotent_exits_3(
    tmp_path, capsys, monkeypatch, command
):
    import plovkit.cyclotomic

    # ORDER_SIX's order is 6; doubling M^6 gives the claimed power trace 2K
    real = plovkit.cyclotomic.mat_pow
    monkeypatch.setattr(
        plovkit.cyclotomic, "mat_pow", lambda a, e: real(a, e) * (2 if e == 6 else 1)
    )
    path = write_doc(tmp_path, ORDER_SIX)
    code, out, err = run_cli([command, "--input", path], capsys)
    assert code == 3
    assert out == ""
    assert err == "internal cross-check failure: claimed unipotent power is not unipotent\n"


def run_capped(args, cwd, limit):
    """Run the CLI in a fresh interpreter capped at `limit` bytes of address
    space by RLIMIT_AS, with a 10 s timeout, so that a missing guard fails
    the test, not the machine."""
    import resource

    src = str(Path(plovkit.__file__).resolve().parents[1])

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run(
        [sys.executable, "-m", "plovkit.cli", *args],
        cwd=cwd, env=dict(os.environ, PYTHONPATH=src), text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=10, preexec_fn=cap,
    )


def test_running_out_of_memory_exits_2_with_one_line(tmp_path):
    """A 2000 x 2000 input of "1/2" strings needs one string and one
    Fraction per entry, far past 256 MiB.  In a child capped there, the
    MemoryError ends the run with one line on stderr and exit 2, not a
    traceback."""
    row = "[" + ",".join(['"1/2"'] * 2000) + "]"
    path = tmp_path / "input.json"
    path.write_text('{"matrix": [' + ",".join([row] * 2000) + "]}")
    done = run_capped(["analyze", "--input", str(path)], tmp_path, 2**28)
    assert (done.returncode, done.stdout, done.stderr) == (
        2, "", "error: out of memory\n"
    )


@pytest.mark.parametrize(
    "flag, ceiling, command",
    [
        ("--max-size", 20, ["selftest"]),
        ("--cases", 1000, ["selftest"]),
        ("--samples", 10_000, ["powersum", "--input", "input.json"]),
    ],
)
def test_flag_past_its_ceiling_exits_1_at_once(tmp_path, flag, ceiling, command):
    """The ceiling itself parses; one past it is refused on one line with
    exit 1, before any work, in a child capped at 1 GiB."""
    write_doc(tmp_path, {"matrix": [[1, 1], [0, 1]]}, "input.json")
    args = build_parser().parse_args([*command, flag, str(ceiling)])
    assert getattr(args, flag[2:].replace("-", "_")) == ceiling
    done = run_capped([*command, flag, str(ceiling + 1)], tmp_path, 2**30)
    assert_one_line_exit_1(done)
    assert f"{flag}: must be " in done.stderr and f"got {ceiling + 1}" in done.stderr


def test_model_scan_past_the_limit_exits_2_at_once(tmp_path):
    """[7] pairs two 7 x 7 blocks: a scan of 30,137,596 tuples, which
    would exhaust memory.  It runs in a child capped at 1 GiB of address
    space, so a missing guard fails the test, not the machine."""
    import time

    from plovkit.randgen import paired_unipotent

    path = write_doc(tmp_path, {"matrix": enc_matrix(paired_unipotent([7]))})
    start = time.perf_counter()
    done = run_capped(["model", "--input", path], tmp_path, 2**30)
    elapsed = time.perf_counter() - start
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == (
        "error: vanishing scan of 30137596 products exceeds the limit of 1000000\n"
    )
    assert elapsed < 1.0
