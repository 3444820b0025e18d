"""Command-line interface.

Input documents are JSON of the form

    {"name": "optional label", "matrix": [[1, "1/2"], [0, 1]]}

with integer or "p"/"p/q" string entries in ASCII digits; floating-point
literals are rejected so that every number stays exact end to end.  Reports are JSON
on stdout (or --out FILE) with rationals serialized as integers or "p/q"
strings, plus a short human-readable summary on stderr.

Exit codes: 0 success, 1 invalid input, 2 precondition violated or out
of memory, 3 internal cross-check failure.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import json
import os
import re
import sys
from fractions import Fraction
from itertools import groupby
from typing import Optional, Sequence

from . import __version__
from .cohomology import TwoForm, plov_via_model, scan_chain
from .cyclotomic import unipotent_power
from .errors import (
    CrossCheckError,
    InputFormatError,
    OddDimensionError,
    PlovkitError,
)
from .exact import RatMatrix, UniPoly
from .jordan import HalfProfile, JordanProfile, jordan_profile
from .plov import AnalysisReport, analyze, max_minor_degree
from .powersum import power_sum_brute, power_sum_det

_ENTRY = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


# ---------------------------------------------------------------------------
# input parsing


def parse_entry(raw, row: int, col: int) -> Fraction:
    position = f"row {row + 1}, column {col + 1}"
    if isinstance(raw, bool):
        raise InputFormatError(f"boolean entry at {position}")
    if isinstance(raw, int):
        return Fraction(raw)
    if isinstance(raw, float):
        raise InputFormatError(
            f"floating-point entry at {position}; use an integer or 'p/q' string"
        )
    if isinstance(raw, str):
        if not _ENTRY.fullmatch(raw):
            raise InputFormatError(
                f"unparseable entry {raw!r} at {position}; expected 'p' or 'p/q'"
            )
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputFormatError(f"bad rational {raw!r} at {position}: {exc}")
    raise InputFormatError(
        f"entry of type {type(raw).__name__} at {position}; "
        "expected an integer or 'p/q' string"
    )


def parse_input(data: bytes | str) -> tuple[Optional[str], RatMatrix]:
    """Parse an input document into (name, matrix) with exact entries."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InputFormatError(f"input is not valid UTF-8: {exc}")
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise InputFormatError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        )
    except ValueError as exc:
        # e.g. an integer literal beyond Python's digit limit
        raise InputFormatError(f"unreadable JSON: {exc}")
    except RecursionError:
        raise InputFormatError("unreadable JSON: arrays or objects nested too deeply")
    if not isinstance(doc, dict):
        raise InputFormatError("input document must be a JSON object")
    unknown = set(doc) - {"name", "matrix"}
    if unknown:
        raise InputFormatError(f"unknown fields: {sorted(unknown)}")
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise InputFormatError("field 'name' must be a string")
    grid = doc.get("matrix")
    if not isinstance(grid, list) or not grid:
        raise InputFormatError("field 'matrix' must be a nonempty 2D array")
    k = len(grid)
    rows = []
    for i, row in enumerate(grid):
        if not isinstance(row, list):
            raise InputFormatError(f"row {i + 1} is not an array")
        if len(row) != k:
            raise InputFormatError(
                f"non-square matrix: row {i + 1} has {len(row)} entries, "
                f"expected {k}"
            )
        rows.append([parse_entry(x, i, j) for j, x in enumerate(row)])
    return name, RatMatrix.from_rows(rows)


# ---------------------------------------------------------------------------
# JSON encoding of exact values


def enc_frac(x: Fraction):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def enc_matrix(m: RatMatrix):
    return [[enc_frac(x) for x in row] for row in m.entries]


def enc_poly(p: UniPoly):
    return {
        "variable": p.var,
        "coefficients": [enc_frac(c) for c in p.coeffs],
        "degree": None if p.is_zero() else p.degree(),
        "text": str(p),
    }


def enc_verdict(p: JordanProfile):
    """The verdict read off the profile: Phi_n has multiplicity sum k*m."""
    return {
        "is_quasi_unipotent": True,
        "order": p.order,
        "cyclotomic_factorization": [
            {"order": n, "multiplicity": sum(k * m for _, k, m in entries)}
            for n, entries in groupby(p.entries, lambda e: e[0])
        ],
    }


def enc_profile(p: JordanProfile):
    return {
        "dimension": p.dimension,
        "entries": [
            {"order": n, "size": k, "multiplicity": m} for n, k, m in p.entries
        ],
    }


def enc_half(h: HalfProfile):
    return {
        "genus": h.genus,
        "entries": [
            {"order": n, "size": k, "count": c} for n, k, c in h.entries
        ],
    }


def enc_analysis(report: AnalysisReport):
    return {
        "dimension": report.dimension,
        "genus": report.genus,
        "verdict": enc_verdict(report.profile),
        "profile": enc_profile(report.profile),
        "pseudo_analytic": report.pseudo_analytic,
        "half_profile": enc_half(report.half) if report.half else None,
        "plov": report.plov,
        "kJ": report.kJ,
        "kf": report.kf,
        "max_block_n1": report.max_block_n1,
        "max_block_compound2": report.max_block_compound2,
        "exponents": {str(r): e for r, e in sorted(report.exponents.items())},
        "bound_checks": [
            {"name": c.name, "law": c.law, "holds": c.holds}
            for c in report.bound_checks
        ],
    }


def base_report(command: str, name: Optional[str], matrix: Optional[RatMatrix]):
    report = {
        "tool": {"name": "plovkit", "version": __version__},
        "command": command,
    }
    if matrix is not None:
        report["input"] = {
            "name": name,
            "dimension": matrix.dimension,
            "matrix": enc_matrix(matrix),
        }
    return report


_quote = json.encoder.encode_basestring_ascii


def encode_report(report: dict) -> str:
    """The text of `json.dumps(report, indent=2, sort_keys=True)`, built
    as one list of parts joined once.  A value no report holds (a float,
    a tuple, a non-string key) raises `CrossCheckError`."""
    parts: list[str] = []
    put = parts.append

    def enc(v, nl: str) -> None:
        t = type(v)
        if t is str:
            put(_quote(v))
        elif t is int:
            put(int.__repr__(v))
        elif t is dict and v:
            inner = nl + "  "
            sep = "{" + inner
            for key in sorted(v):
                if type(key) is not str:
                    raise TypeError(f"key {key!r}")
                put(sep + _quote(key) + ": ")
                enc(v[key], inner)
                sep = "," + inner
            put(nl + "}")
        elif t is list and v:
            inner = nl + "  "
            if {*map(type, v)} == {int}:
                put("[" + inner + ("," + inner).join(map(int.__repr__, v)) + nl + "]")
                return
            sep = "[" + inner
            for x in v:
                put(sep)
                enc(x, inner)
                sep = "," + inner
            put(nl + "]")
        elif t is dict or t is list:
            put("{}" if t is dict else "[]")
        elif v is None or t is bool:
            put("null" if v is None else "true" if v else "false")
        else:
            raise TypeError(f"value {v!r} of type {t.__name__}")

    try:
        enc(report, "\n")
    except TypeError as exc:  # also keys of mixed types, which do not sort
        raise CrossCheckError(f"emit: not a report value: {exc}")
    return "".join(parts)


def _write(stream, text: str) -> None:
    """Write and flush `text` to a standard stream, or raise OSError.

    A stream is None when its descriptor was closed at startup.  After a
    failed write the descriptor points at the null device: the flush at
    exit would otherwise fail again on what the stream still buffers."""
    if stream is None:
        raise OSError(errno.EBADF, "stream closed at startup")
    try:
        stream.write(text)
        stream.flush()
    except OSError as exc:
        try:
            fd = stream.fileno()
        except (OSError, ValueError):  # no descriptor: nothing is flushed at exit
            raise exc from None
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        raise


def emit(report: dict, out_path: Optional[str]) -> None:
    text = encode_report(report) + "\n"
    try:
        if out_path:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            _write(sys.stdout, text)
    except OSError as exc:
        raise InputFormatError(f"cannot write report: {exc}")


@contextlib.contextmanager
def _unlimited_digits():
    """Lift Python's limit on the digits of an int written as text, which
    guards the parsing of input, while an exact result is reported."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def summary(lines: list[str]) -> None:
    """Write advisory lines to stderr: the summary and the one-line error
    messages.  A failed write is ignored, so the exit code reflects the
    computation, not the state of stderr."""
    try:
        _write(sys.stderr, "".join(line + "\n" for line in lines))
    except OSError:
        pass


# ---------------------------------------------------------------------------
# subcommands


def _load(path: str) -> tuple[Optional[str], RatMatrix]:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise InputFormatError(f"cannot read input file: {exc}")
    return parse_input(data)


def _parse_degrees(text: Optional[str], dimension: int) -> Optional[list[int]]:
    if text is None:
        return None
    try:
        degrees = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise InputFormatError(f"bad degree list {text!r}")
    if not degrees:
        raise InputFormatError("empty degree list")
    for r in degrees:
        if not 1 <= r <= dimension:
            raise InputFormatError(
                f"degree {r} out of range 1..{dimension}"
            )
    return degrees


def cmd_analyze(args) -> int:
    name, matrix = _load(args.input)
    degrees = _parse_degrees(args.degrees, matrix.dimension)
    report = base_report("analyze", name, matrix)
    result = analyze(matrix, degrees)
    report["analysis"] = enc_analysis(result)
    emit(report, args.out)
    lines = [
        f"dimension {result.dimension} (g = {result.genus}): quasi-unipotent, "
        f"order {result.profile.order}",
        f"pseudo-analytic: {result.pseudo_analytic}",
    ]
    if result.pseudo_analytic:
        lines.append(
            f"plov = {result.plov}, kJ = {result.kJ}, kf = {result.kf}, "
            f"max block on degree-2 cohomology = {result.max_block_n1}"
        )
    if result.bound_checks:
        held = sum(1 for c in result.bound_checks if c.holds)
        lines.append(f"bound checks: {held}/{len(result.bound_checks)} hold")
    else:
        lines.append("bound checks: none (they need a pseudo-analytic profile)")
    summary(lines)
    failed = [c.name for c in result.bound_checks if not c.holds]
    if failed:
        raise CrossCheckError(f"bound checks failed: {', '.join(failed)}")
    return 0


def cmd_powersum(args) -> int:
    name, matrix = _load(args.input)
    order, u = unipotent_power(matrix)
    k = u.dimension
    if args.h == "identity":
        h = RatMatrix.identity(k)
        h_desc = "identity"
    else:
        import random

        from . import randgen

        h = randgen.random_spd(random.Random(args.seed), k)
        h_desc = f"random (G^T G + I, seed {args.seed})"
    result = power_sum_det(u, h)
    with _unlimited_digits():
        checks = [
            {"n": n, "value": enc_frac(brute), "matches": result.poly(n) == brute}
            for n, brute in enumerate(power_sum_brute(u, h, args.samples), start=1)
        ]
        report = base_report("powersum", name, matrix)
        report["powersum"] = {
            "unipotent_order": order,
            "form": h_desc,
            "form_matrix": enc_matrix(h),
            "poly": enc_poly(result.poly),
            "degree": result.degree,
            "leading_coeff": enc_frac(result.leading_coeff),
            "profile_degree": result.degree,
            "brute_force_checks": checks,
        }
        emit(report, args.out)
        all_match = all(c["matches"] for c in checks)
        summary(
            [
                f"power-sum determinant degree {result.degree} "
                f"(leading coefficient {enc_frac(result.leading_coeff)})",
                f"brute-force agreement at n = 1..{args.samples}: {all_match}",
            ]
        )
    if not all_match:
        raise CrossCheckError("symbolic power sum disagrees with brute force")
    return 0


def cmd_growth(args) -> int:
    name, matrix = _load(args.input)
    degrees = _parse_degrees(args.degrees, matrix.dimension)
    profile = jordan_profile(matrix)
    sizes = profile.unipotent_block_sizes()
    exponents = {r: max_minor_degree(sizes, r) for r in degrees}
    report = base_report("growth", name, matrix)
    report["growth"] = {
        "unipotent_order": profile.order,
        "exponents": {str(r): e for r, e in sorted(exponents.items())},
    }
    emit(report, args.out)
    summary(
        [
            "growth exponents along the unipotent iterate: "
            + ", ".join(f"r={r}: n^{e}" for r, e in sorted(exponents.items()))
        ]
    )
    return 0


def cmd_model(args) -> int:
    name, matrix = _load(args.input)
    order, u = unipotent_power(matrix)
    if u.dimension % 2:
        raise OddDimensionError(f"dimension {u.dimension} is odd; expected 2g")
    genus = u.dimension // 2
    if args.form == "standard":
        form = TwoForm.standard(genus)
        form_desc = "standard (sum of e_j ^ e_{g+j} in input coordinates)"
    else:
        import random

        from . import randgen

        form = randgen.randgen_two_form(random.Random(args.seed), genus)
        form_desc = f"random (seed {args.seed})"
    model = plov_via_model(u, form)
    scan = scan_chain(model.chain)
    with _unlimited_digits():
        report = base_report("model", name, matrix)
        report["model"] = {
            "unipotent_order": order,
            "form": form_desc,
            "form_coefficients": [
                {"i": i, "j": j, "value": enc_frac(v)} for (i, j), v in form.items()
            ],
            "intersection_poly": enc_poly(model.poly),
            "degree": model.degree,
            "profile_plov": model.profile_plov,
            "matches_profile": model.matches_profile,
            "vanishing_scan": {
                "kf": scan.kf,
                "scanned": [
                    {"tuple": list(t), "value": enc_frac(v)} for t, v in scan.scanned
                ],
                "violations": [list(t) for t in scan.violations],
            },
        }
        emit(report, args.out)
        summary(
            [
                f"model growth degree {model.degree} "
                f"(profile value {model.profile_plov}, equality: {model.matches_profile})",
                f"vanishing scan: {len(scan.scanned)} products above threshold, "
                f"{len(scan.violations)} violations",
            ]
        )
    if scan.violations:
        raise CrossCheckError(
            f"vanishing scan: {len(scan.violations)} nonzero products above the threshold"
        )
    return 0


def cmd_selftest(args) -> int:
    from .selfcheck import SELFTEST_SUITE_SIZE, run_selftest

    results = run_selftest(max_size=args.max_size, cases=args.cases, seed=args.seed)
    passed = sum(1 for r in results if r.passed)
    report = base_report("selftest", None, None)
    report["selftest"] = {
        "max_size": args.max_size,
        "cases": args.cases,
        "seed": args.seed,
        "suite_size": SELFTEST_SUITE_SIZE,
        "passed": passed,
        "checks": [
            {"name": r.name, "passed": r.passed, "cases": r.cases}
            for r in results
        ],
    }
    emit(report, args.out)
    for r in results:
        summary([f"[{'PASS' if r.passed else 'FAIL'}] {r.name} ({r.cases} cases)"])
    summary([f"passed {passed}/{SELFTEST_SUITE_SIZE} checks"])
    if passed != SELFTEST_SUITE_SIZE:
        raise CrossCheckError("self-test failures")
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 by default; bad flags are invalid input,
    # reported on one line like every other error
    def error(self, message):
        summary([f"{self.prog}: error: {message} (see --help)"])
        raise SystemExit(1)

    # argparse ignores a failed write of --help or --version and exits 0
    # with nothing written; like a failed report write, it is exit 1
    def _print_message(self, message, file=None):
        if not message:
            return
        try:
            _write(file, message)
        except OSError as exc:
            summary([f"error: cannot write output: {exc}"])
            raise SystemExit(1)


def _in_range(low: int, high: int):
    """argparse type: an integer from `low` to `high`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}")
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"must be {low}..{high}, got {value}")
        return value

    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    Building reads nothing from argv or the environment, so one instance
    serves every call of `main`.  `set_defaults(fn=cmd_*)` binds the command
    functions when the parser is built: replacing `cli.cmd_*` afterwards
    (say, with monkeypatch) does not change what `main` runs.
    """
    parser = _Parser(
        prog="plovkit",
        description="Exact dynamical invariants of quasi-unipotent rational matrices.",
    )
    parser.add_argument("--version", action="version", version=f"plovkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full invariant pipeline")
    p.add_argument("--input", required=True, help="input JSON file")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--degrees", help="comma-separated exterior degrees (default 1..2g)")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("powersum", help="determinant of the transpose power sum")
    p.add_argument("--input", required=True)
    p.add_argument("--out")
    p.add_argument("--h", choices=["identity", "random"], default="identity")
    p.add_argument("--seed", type=int, default=0)
    # each sample adds one literal sum and one report entry
    p.add_argument("--samples", type=_in_range(1, 10_000), default=9)
    p.set_defaults(fn=cmd_powersum)

    p = sub.add_parser("growth", help="growth exponents in chosen exterior degrees")
    p.add_argument("--input", required=True)
    p.add_argument("--out")
    p.add_argument("--degrees", required=True)
    p.set_defaults(fn=cmd_growth)

    p = sub.add_parser("model", help="exterior-algebra intersection model")
    p.add_argument("--input", required=True)
    p.add_argument("--out")
    p.add_argument("--form", choices=["standard", "random"], default="standard")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_model)

    p = sub.add_parser("selftest", help="run the documented randomized check suite")
    p.add_argument("--out")
    # the self-checks draw dimensions up to max_size (3 where a law needs it);
    # the run time grows steeply with max_size and linearly with cases
    p.add_argument("--max-size", type=_in_range(2, 20), default=8, dest="max_size")
    p.add_argument("--cases", type=_in_range(1, 1000), default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_selftest)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InputFormatError as exc:
        summary([f"error: {exc}"])
        return 1
    except CrossCheckError as exc:
        summary([f"internal cross-check failure: {exc}"])
        return 3
    except PlovkitError as exc:
        summary([f"error: {exc}"])
        return 2
    except MemoryError:
        summary(["error: out of memory"])
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
