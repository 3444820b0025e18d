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
from itertools import groupby, product
from math import gcd
from typing import Callable, Optional, Sequence

from . import __version__
from .cohomology import (
    TwoForm,
    VanishingScanReport,
    plov_via_model,
    scan_chain,
    scan_size,
)
from .cyclotomic import unipotent_power
from .errors import (
    CrossCheckError,
    InputFormatError,
    NotUnipotentError,
    OddDimensionError,
    PlovkitError,
    PreconditionError,
)
from .exact import RatMatrix, UniPoly
from .jordan import JordanProfile, jordan_profile
from .plov import AnalysisReport, analyze, max_minor_degree
from .powersum import power_sum_brute, power_sum_det

_ENTRY = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")

#: The most ordered tuples a `model` report may list.  The scan keeps one
#: value per multiset, but the report lists every ordered tuple, and
#: 30,137,596 (two paired 7 x 7 blocks) would exhaust memory; the
#: listing, not the scan, is what the limit guards.
SCAN_LIMIT = 10**6


# ---------------------------------------------------------------------------
# input parsing


def parse_entry(raw, row: int, col: int) -> int | Fraction:
    """An int entry as it is, a "p" or "p/q" string as a `Fraction`."""
    if isinstance(raw, int) and not isinstance(raw, bool):
        return raw
    position = f"row {row + 1}, column {col + 1}"
    if isinstance(raw, bool):
        raise InputFormatError(f"boolean entry at {position}")
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
        if {*map(type, row)} != {int}:  # else `from_rows` takes the ints as they are
            row = [parse_entry(x, i, j) for j, x in enumerate(row)]
        rows.append(row)
    return name, RatMatrix.from_rows(rows)


# ---------------------------------------------------------------------------
# JSON encoding of exact values


def enc_ratio(n: int, d: int):
    """n/d for d > 0: an int when d divides n, else "p/q" in lowest terms.
    Matrices and polynomials are encoded from their integer storage over
    one denominator, without a `Fraction` per entry."""
    g = gcd(n, d)
    return n // g if g == d else f"{n // g}/{d // g}"


def enc_frac(x: Fraction):
    return enc_ratio(x.numerator, x.denominator)


def enc_matrix(m: RatMatrix):
    den = m.den
    return [[enc_ratio(x, den) for x in row] for row in m.num]


def enc_poly(p: UniPoly):
    den = p.den
    return {
        "variable": p.var,
        "coefficients": [enc_ratio(c, den) for c in p.num],
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


def enc_half(half, genus: int):
    return {
        "genus": genus,
        "entries": [{"order": n, "size": k, "count": c} for n, k, c in half],
    }


def enc_analysis(report: AnalysisReport):
    return {
        "dimension": report.dimension,
        "genus": report.genus,
        "verdict": enc_verdict(report.profile),
        "profile": enc_profile(report.profile),
        "pseudo_analytic": report.pseudo_analytic,
        "half_profile": enc_half(report.half, report.genus) if report.half else None,
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


@functools.lru_cache(maxsize=64)
def _suffixes(kf: int, width: int, need: int) -> tuple[tuple[int, ...], ...]:
    return tuple(
        s for s in product(range(kf + 1), repeat=width) if sum(s) >= need
    )


def encode_report(report: dict) -> list[str]:
    """The parts of `json.dumps(report, indent=2, sort_keys=True)`, in
    order: the text outside the scan listings is laid out by joins, one
    part between listings (the whole report when it holds no scan), and a
    `VanishingScanReport` is listed as its entries {"tuple": [...],
    "value": ...} would be, in blocks of the tuples that share their first
    g - 2 indices, a block of all 0 in one join of its suffixes' texts,
    which are built once per report.  A value no report holds (a float, a
    tuple, a non-string key, a scanned value other than a `Fraction`)
    raises `CrossCheckError`, and so does a listing of other than
    `scan_size` entries.  The joins copy the text at each level, so the
    traced heap of a report with no scan peaks near 3 times its size."""
    scans: list[tuple[VanishingScanReport, str]] = []

    def enc(v, nl: str) -> str:
        t = type(v)
        if t is str:
            return _quote(v)
        if t is int:
            return int.__repr__(v)
        if t is dict and v:
            inner = nl + "  "
            items = [_quote(key) + ": " + enc(v[key], inner) for key in sorted(v)]
            return "{" + inner + ("," + inner).join(items) + nl + "}"
        if t is list and v:
            inner = nl + "  "
            ints = {*map(type, v)} == {int}
            items = map(int.__repr__, v) if ints else [enc(x, inner) for x in v]
            return "[" + inner + ("," + inner).join(items) + nl + "]"
        if t is VanishingScanReport:
            # the listing goes in at this cut, which no other text holds:
            # `_quote` escapes every control character, and no int or literal has one
            bad = [x for _, x in v.nonzero if type(x) is not Fraction]
            if bad:
                raise TypeError(f"scanned value {bad[0]!r}")
            scans.append((v, nl))
            return "\x00"
        if t is dict or t is list:
            return "{}" if t is dict else "[]"
        if v is None or t is bool:
            return "null" if v is None else "true" if v else "false"
        raise TypeError(f"value {v!r} of type {t.__name__}")

    try:
        first, *cuts = enc(report, "\n").split("\x00")
    except TypeError as exc:  # also keys `_quote` refuses or that do not sort
        raise CrossCheckError(f"emit: not a report value: {exc}")
    parts = [first]
    for (scan, nl), after in zip(scans, cuts):
        # every entry has one shape: the entry at inner, its keys at field
        # and its indices at index.  A block is the tuples (*prefix, *suffix)
        # above the threshold for one prefix of g - 2 indices (none when
        # g <= 2), the suffixes being `_suffixes(kf, width, need)`.  Its
        # prefix text is built once, and the texts of its suffixes once per
        # report for each sum they need; a block whose values are all 0 is
        # written in one join, and any other entry by entry.
        kf, g = scan.kf, scan.genus
        width = min(g, 2)
        least = g * kf // 2 + 1  # the least index sum above the threshold
        nonzero = dict(scan.nonzero)
        blocks = {t[: g - width] for t in scan.violations}  # the prefixes of nonzero values
        inner = nl + "  "
        field = inner + "  "
        index = field + "  "
        comma = "," + inner
        lasts = [str(i) for i in range(kf + 1)]
        digits = [i + "," + index for i in lasts]
        # the text of a suffix (i, j) is digits[i] + lasts[j], of (i,) lasts[i]
        firsts = digits if g > 1 else [""] * len(lasts)
        start = "{" + field + '"tuple": [' + index
        tail = field + "]," + field + '"value": '
        zero_end = tail + "0" + inner + "}"
        texts: dict[int, list[str]] = {}
        sep = "[" + inner
        count = 0
        for prefix in product(range(kf + 1), repeat=g - width):
            need = max(least - sum(prefix), 0)
            if need > width * kf:  # past the largest sum of a suffix
                continue
            suffixes = texts.get(need)
            if suffixes is None:
                suffixes = texts[need] = [
                    firsts[s[0]] + lasts[s[-1]]
                    for s in _suffixes(kf, width, need)
                ]
            head = start + "".join(map(digits.__getitem__, prefix))
            count += len(suffixes)
            if prefix not in blocks:
                parts += sep + head, (zero_end + comma + head).join(suffixes), zero_end
                sep = comma
                continue
            for s, suffix in zip(_suffixes(kf, width, need), suffixes):
                key = tuple(sorted(prefix + s))
                encoded = enc(enc_frac(nonzero.get(key, Fraction(0))), inner)
                parts.append(sep + head + suffix + tail + encoded + inner + "}")
                sep = comma
        expected = scan_size(g, kf)
        if count != expected:
            raise CrossCheckError(
                f"emit: vanishing scan of genus {g} and kf {kf} "
                f"wrote {count} entries, not scan_size = {expected} "
                "(one per ordered tuple above the threshold)"
            )
        parts += nl + "]" if count else "[]", after
    return parts


def _write(stream, *texts: str) -> None:
    """Write `texts` to a stream, one write each, and flush it, or raise OSError.

    A stream is None when its descriptor was closed at startup.  After a
    failed write the descriptor points at the null device: a later flush
    would otherwise fail again on what the stream still buffers."""
    if stream is None:
        raise OSError(errno.EBADF, "stream closed at startup")
    try:
        for text in texts:
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
    """Encode the whole report, then write its parts and newline by `_write`."""
    parts = encode_report(report)
    try:
        out = open(out_path, "w", encoding="utf-8") if out_path is not None else None
        with out or contextlib.nullcontext(sys.stdout) as stream:
            _write(stream, *parts, "\n")
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


def _finish(args, name, matrix, section: dict, lines: list[str], failure="") -> int:
    """The one tail of every subcommand: the report of `args.command` with
    `section` merged in, written by `emit`, then the summary `lines`.  A
    `failure` raises `CrossCheckError` after both, for exit 3."""
    report = base_report(args.command, name, matrix)
    report.update(section)
    emit(report, args.out)
    summary(lines)
    if failure:
        raise CrossCheckError(failure)
    return 0


def cmd_analyze(args) -> int:
    name, matrix = _load(args.input)
    result = analyze(matrix, _parse_degrees(args.degrees, matrix.dimension))
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
    failed = ", ".join(c.name for c in result.bound_checks if not c.holds)
    failure = failed and f"bound checks failed: {failed}"
    section = {"analysis": enc_analysis(result)}
    return _finish(args, name, matrix, section, lines, failure)


def _on_unipotent_power(matrix: RatMatrix, run: Callable):
    """(N, U, run(U)), U = M^N the least unipotent power.  A trace-K M tries
    run(M) first: roots of unity summing to K are all 1, so its gate decides."""
    if matrix.trace() == matrix.dimension:
        with contextlib.suppress(NotUnipotentError):
            return 1, matrix, run(matrix)
    order, u = unipotent_power(matrix)
    return order, u, run(u)


def cmd_powersum(args) -> int:
    name, matrix = _load(args.input)
    if args.h == "identity":
        h = RatMatrix.identity(matrix.dimension)
        h_desc = "identity"
    else:
        import random

        from . import randgen

        h = randgen.random_spd(random.Random(args.seed), matrix.dimension)
        h_desc = f"random (G^T G + I, seed {args.seed})"
    order, u, result = _on_unipotent_power(matrix, lambda m: power_sum_det(m, h))
    with _unlimited_digits():
        checks = [
            {"n": n, "value": enc_frac(brute), "matches": result.poly(n) == brute}
            for n, brute in enumerate(power_sum_brute(u, h, args.samples), start=1)
        ]
        all_match = all(c["matches"] for c in checks)
        section = {
            "unipotent_order": order,
            "form": h_desc,
            "form_matrix": enc_matrix(h),
            "poly": enc_poly(result.poly),
            "degree": result.degree,
            "leading_coeff": enc_frac(result.leading_coeff),
            "profile_degree": result.degree,
            "brute_force_checks": checks,
        }
        lines = [
            f"power-sum determinant degree {result.degree} "
            f"(leading coefficient {section['leading_coeff']})",
            f"brute-force agreement at n = 1..{args.samples}: {all_match}",
        ]
        failure = "" if all_match else "symbolic power sum disagrees with brute force"
        return _finish(args, name, matrix, {"powersum": section}, lines, failure)


def cmd_growth(args) -> int:
    name, matrix = _load(args.input)
    degrees = _parse_degrees(args.degrees, matrix.dimension)
    profile = jordan_profile(matrix)
    sizes = profile.unipotent_block_sizes()
    exponents = sorted({r: max_minor_degree(sizes, r) for r in degrees}.items())
    section = {
        "unipotent_order": profile.order,
        "exponents": {str(r): e for r, e in exponents},
    }
    lines = [
        "growth exponents along the unipotent iterate: "
        + ", ".join(f"r={r}: n^{e}" for r, e in exponents)
    ]
    return _finish(args, name, matrix, {"growth": section}, lines)


def cmd_model(args) -> int:
    name, matrix = _load(args.input)
    if matrix.dimension % 2:
        unipotent_power(matrix)  # non-quasi-unipotency is reported first
        raise OddDimensionError(f"dimension {matrix.dimension} is odd; expected 2g")
    genus = matrix.dimension // 2
    if args.form == "standard":
        form = TwoForm.standard(genus)
        form_desc = "standard (sum of e_j ^ e_{g+j} in input coordinates)"
    else:
        import random

        from . import randgen

        form = randgen.randgen_two_form(random.Random(args.seed), genus)
        form_desc = f"random (seed {args.seed})"
    order, _, model = _on_unipotent_power(matrix, lambda m: plov_via_model(m, form))
    size = scan_size(genus, len(model.chain) - 1)
    if size > SCAN_LIMIT:
        raise PreconditionError(
            f"vanishing scan of {size} products exceeds the limit of {SCAN_LIMIT}"
        )
    scan = scan_chain(model.chain)
    bad = len(scan.violations)
    with _unlimited_digits():
        section = {
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
                "scanned": scan,
                "violations": [list(t) for t in scan.violations],
            },
        }
        lines = [
            f"model growth degree {model.degree} "
            f"(profile value {model.profile_plov}, equality: {model.matches_profile})",
            f"vanishing scan: {size} products above threshold, {bad} violations",
        ]
        failure = bad and f"vanishing scan: {bad} nonzero products above the threshold"
        return _finish(args, name, matrix, {"model": section}, lines, failure)


def cmd_selftest(args) -> int:
    from .selfcheck import SELFTEST_SUITE_SIZE, run_selftest

    results = run_selftest(max_size=args.max_size, cases=args.cases, seed=args.seed)
    passed = sum(1 for r in results if r.passed)
    section = {
        "max_size": args.max_size,
        "cases": args.cases,
        "seed": args.seed,
        "suite_size": SELFTEST_SUITE_SIZE,
        "passed": passed,
        "checks": [
            {"name": r.name, "passed": r.passed, "cases": r.cases} for r in results
        ],
    }
    lines = [
        f"[{'PASS' if r.passed else 'FAIL'}] {r.name} ({r.cases} cases)"
        for r in results
    ]
    lines.append(f"passed {passed}/{SELFTEST_SUITE_SIZE} checks")
    failure = "" if passed == SELFTEST_SUITE_SIZE else "self-test failures"
    return _finish(args, None, None, {"selftest": section}, lines, failure)


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
    # a flag that several subcommands share is declared once, in a parent
    inp, out, seed = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    inp.add_argument("--input", required=True, help="input JSON file")
    out.add_argument("--out", help="write the report here instead of stdout")
    seed.add_argument("--seed", type=int, default=0, help="seed of the random draws")

    def command(fn, text: str, *parents):
        p = sub.add_parser(fn.__name__[4:], parents=parents, help=text)  # cmd_<name>
        p.set_defaults(fn=fn)
        return p

    p = command(cmd_analyze, "full invariant pipeline", inp, out)
    p.add_argument("--degrees", help="comma-separated exterior degrees (default 1..2g)")
    p = command(cmd_powersum, "determinant of the transpose power sum", inp, out, seed)
    p.add_argument("--h", choices=["identity", "random"], default="identity")
    # each sample adds one literal sum and one report entry
    p.add_argument("--samples", type=_in_range(1, 10_000), default=9)
    p = command(cmd_growth, "growth exponents in chosen exterior degrees", inp, out)
    p.add_argument("--degrees", required=True)
    p = command(cmd_model, "exterior-algebra intersection model", inp, out, seed)
    p.add_argument("--form", choices=["standard", "random"], default="standard")
    p = command(cmd_selftest, "run the documented randomized check suite", out, seed)
    # the self-checks draw dimensions up to max_size (3 where a law needs it);
    # the run time grows steeply with max_size and linearly with cases
    p.add_argument("--max-size", type=_in_range(2, 20), default=8, dest="max_size")
    p.add_argument("--cases", type=_in_range(1, 1000), default=50)

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
