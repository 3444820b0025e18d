"""Seeded inputs, operations and exact-answer checks for each workload.

Inputs are built here with the standard library only, so a seed names
the same matrices on every commit of plovkit, whatever its own random
generators do.  Every input carries the label it was built from (block
sizes, orders used), and each check compares the program's contractual
answer with that label exactly.

A workload is a fixed list of input classes per round.  A run executes
whole rounds, each with fresh matrices, so the mix of sizes is the same
on every seed and only the concrete matrices change.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
import random
import sys
import traceback
from fractions import Fraction
from time import perf_counter

# Characteristic polynomials of the root-of-unity blocks, as companion
# matrices: Phi_1 = t-1, Phi_2 = t+1, Phi_3 = t^2+t+1, Phi_4 = t^2+1,
# Phi_6 = t^2-t+1.  Written out so that inputs never depend on the code
# under test.
COMPANION = {
    1: [[1]],
    2: [[-1]],
    3: [[0, -1], [1, -1]],
    4: [[0, -1], [1, 0]],
    6: [[0, -1], [1, 1]],
}
ORDERS = (1, 2, 3, 4, 6)
GROWING_BLOCK = [[0, 1], [1, 1]]  # eigenvalues (1 +- sqrt 5)/2: not a root of unity


# ---------------------------------------------------------------------------
# integer matrix helpers


def identity(k):
    return [[int(i == j) for j in range(k)] for i in range(k)]


def block_diag(blocks):
    """Block-diagonal sum; copies the entries, never aliases a block."""
    k = sum(len(b) for b in blocks)
    out = [[0] * k for _ in range(k)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(row)] = row
        at += len(b)
    return out


def jordan_block(eigenvalue, size, links=None):
    """Jordan block; `links` gives the superdiagonal (default all 1)."""
    out = [[0] * size for _ in range(size)]
    for i in range(size):
        out[i][i] = eigenvalue
        if i + 1 < size:
            out[i][i + 1] = 1 if links is None else links[i]
    return out


def root_block(order, size):
    """Rational block with one Jordan block of the given size at each
    primitive root of the given order: companion blocks on the diagonal
    and identity links above."""
    comp = COMPANION[order]
    d = len(comp)
    out = [[0] * (d * size) for _ in range(d * size)]
    for b in range(size):
        for i in range(d):
            for j in range(d):
                out[b * d + i][b * d + j] = comp[i][j]
            if b + 1 < size:
                out[b * d + i][(b + 1) * d + i] = 1
    return out


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def random_shear(rng, k):
    """Unimodular S and its inverse for dimension k, by the recipe of
    `plovkit.randgen.random_unimodular`: k + 3 steps, each a row swap
    with probability 0.25, else a shear by c in -2..2.  S^-1 is
    accumulated alongside, so everything stays integral."""
    s = identity(k)
    s_inv = identity(k)
    for _ in range(k + 3):
        i, j = rng.sample(range(k), 2)
        if rng.random() < 0.25:
            s[i], s[j] = s[j], s[i]
            for row in s_inv:
                row[i], row[j] = row[j], row[i]
        else:
            c = rng.randint(-2, 2)
            s[i] = [a + c * b for a, b in zip(s[i], s[j])]
            for row in s_inv:
                row[j] -= c * row[i]
    return s, s_inv


@functools.lru_cache(maxsize=None)
def shear_conjugator(k):
    """The fixed shear of dimension k, drawn from a stream of its own."""
    return random_shear(random.Random(f"shears:{k}"), k)


def signed_permutation(rng, m):
    """Q M Q^T for a random signed permutation Q: an orthogonal change of
    basis that keeps entry sizes, so it moves the cost of an operation
    far less than a random shear conjugation would."""
    k = len(m)
    perm = rng.sample(range(k), k)
    sign = [rng.choice((-1, 1)) for _ in range(k)]
    return [[sign[a] * sign[b] * m[perm[a]][perm[b]] for b in range(k)] for a in range(k)]


def conjugate(rng, m):
    """Q S M S^-1 Q^T: the fixed shear conjugator of the dimension hides
    the block structure, the random signed permutation Q makes each
    input new.  Random shears alone make the cost of one input class
    vary five-fold, which no run of a few hundred operations averages
    out."""
    s, s_inv = shear_conjugator(len(m))
    return signed_permutation(rng, mat_mul(mat_mul(s, m), s_inv))


def composition(rng, total, largest=None):
    """Random parts summing to `total`, each at most `largest`, sorted
    descending."""
    parts = []
    while total:
        part = rng.randint(1, min(total, largest or total))
        parts.append(part)
        total -= part
    return sorted(parts, reverse=True)


def key(m):
    return tuple(map(tuple, m))


# ---------------------------------------------------------------------------
# input generators; each returns (matrix, label)


def pseudo_analytic_blocks(rng, half_sizes):
    """Block sum whose Jordan form is J + conj(J) for the given half
    block sizes, each at a random order: orders 1 and 2 insert a real
    Jordan block twice, orders 3, 4 and 6 one rational block that pairs
    the two conjugate roots."""
    pieces = []
    for size in half_sizes:
        order = rng.choice(ORDERS)
        if order <= 2:
            block = jordan_block(1 if order == 1 else -1, size)
            pieces += [block, block]
        else:
            pieces.append(root_block(order, size))
    return block_diag(pieces)


def pseudo_analytic(rng, genus, largest):
    """Conjugated 2g-dimensional pseudo-analytic matrix with largest half
    block exactly `largest`."""
    half_sizes = [largest] + composition(rng, genus - largest, largest)
    return conjugate(rng, pseudo_analytic_blocks(rng, half_sizes)), {"half_sizes": half_sizes}


def unipotent(rng, dimension):
    """Conjugated unipotent matrix with random Jordan block sizes."""
    sizes = composition(rng, dimension)
    m = block_diag([jordan_block(1, k) for k in sizes])
    return conjugate(rng, m), {"sizes": sizes, "closed_form": False}


def permuted_block(rng, k):
    """One unipotent Jordan block [k] under a random signed permutation.
    The change of basis is orthogonal, so with the identity form the
    power-sum determinant keeps the closed-form leading coefficient of
    the plain block."""
    return signed_permutation(rng, jordan_block(1, k)), {"sizes": [k], "closed_form": True}


def paired_unipotent(rng, sizes):
    """J + J on paired coordinates (1..g | g+1..2g), J unipotent with the
    given block sizes and superdiagonal entries in +-1..+-12; the entries
    change the matrix but not its Jordan type."""
    blocks = []
    for k in sizes:
        links = [rng.choice((-1, 1)) * rng.randint(1, 12) for _ in range(k - 1)]
        blocks.append(jordan_block(1, k, links))
    j = block_diag(blocks)
    return block_diag([j, j]), {"sizes": list(sizes)}


def screen_matrix(rng, dimension, quasi_unipotent):
    """Conjugated block sum with a known verdict.  Positive: companion
    blocks of orders {1,2,3,4,6} and unipotent Jordan blocks; the order
    is the lcm of the orders used.  Negative: a [[0,1],[1,1]] block plus
    unipotent Jordan blocks."""
    pieces = []
    remaining = dimension
    used = [1]
    if not quasi_unipotent:
        pieces.append(GROWING_BLOCK)
        remaining -= 2
    while remaining:
        order = rng.choice(ORDERS) if quasi_unipotent else 1
        if len(COMPANION[order]) > remaining:
            order = 1
        if order == 1 and (not quasi_unipotent or rng.random() < 0.6):
            size = rng.randint(1, remaining)
            pieces.append(jordan_block(1, size))
            remaining -= size
        else:
            pieces.append(COMPANION[order])
            remaining -= len(COMPANION[order])
            used.append(order)
    label = {"quasi_unipotent": quasi_unipotent}
    if quasi_unipotent:
        label["order"] = math.lcm(*used)
    return conjugate(rng, block_diag(pieces)), label


# ---------------------------------------------------------------------------
# answer checks on the contractual report fields


def single_block_leading_coeff(k):
    """(prod_{i<k} i!)^2 / prod_{i<2k} i!: leading coefficient of the
    power-sum determinant of one size-k Jordan block, identity form."""
    num = math.prod(math.factorial(i) for i in range(1, k))
    den = math.prod(math.factorial(i) for i in range(1, 2 * k))
    return Fraction(num * num, den)


def check_analyze(report, label):
    a = report["analysis"]
    hs = label["half_sizes"]
    kj = max(hs) - 1
    return (
        a["plov"] == sum(k * k for k in hs)
        and a["kJ"] == kj
        and a["max_block_compound2"] == 2 * kj + 1
        and a["exponents"]["2"] == 2 * kj
        and bool(a["bound_checks"])
        and all(c["holds"] for c in a["bound_checks"])
    )


def check_powersum(report, label):
    p = report["powersum"]
    sizes = label["sizes"]
    checks = p["brute_force_checks"]
    ok = (
        p["degree"] == sum(k * k for k in sizes)
        and len(checks) == 9
        and all(c["matches"] for c in checks)
    )
    if ok and label["closed_form"]:
        ok = Fraction(str(p["leading_coeff"])) == single_block_leading_coeff(sizes[0])
    return ok


def check_model(report, label):
    m = report["model"]
    plov = sum(k * k for k in label["sizes"])
    return (
        not m["vanishing_scan"]["violations"]
        and m["profile_plov"] == plov
        and m["degree"] <= plov
    )


def check_screen(verdict, label):
    if verdict.is_quasi_unipotent != label["quasi_unipotent"]:
        return False
    return not label["quasi_unipotent"] or verdict.order == label["order"]


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """A round of input classes, how to build one input of a class, and
    how to run and check one operation.

    `classes` lists the class of each operation in one round; the seed
    only picks the concrete matrices.  `warmup` lists the classes of the
    warm-up operations, built from a seed stream of their own.  The
    traced run executes `trace_rounds` rounds, so its counts repeat
    exactly for a seed.  A timed run executes at least `rss_rounds`
    rounds, after which its peak RSS is read, and at most `max_rounds`.
    """

    name = ""
    classes: list = []
    warmup: list = []
    trace_rounds = 1
    # Every input stays in the verdict cache and in `InputStream.seen`,
    # so the peak RSS grows with the operations run; it is read after a
    # fixed number of rounds, about what fits in 30 s at the seed state.
    rss_rounds = 1
    # Bounds the rounds of a fast program, so every class keeps enough
    # distinct matrices for each timed input to be new.
    max_rounds = 30
    uses_cli = True

    def build(self, rng, cls):
        raise NotImplementedError

    def argv(self, rng, cls, path):
        raise NotImplementedError

    def check(self, report, label):
        raise NotImplementedError


class Analyze(Workload):
    # (g, largest half block).  Skewed toward small g, so p50 falls among
    # g = 3-4 and p90 in the middle of the four [4,1] at g = 5, the
    # costliest class.  They keep the second compound above half of the
    # analyze time.  [5] costs twice as much on some orders as on others,
    # which would put p90 on whichever [5] a run drew; it, [6], [6,1] and
    # larger take about a second or more each and stay in the reference
    # probe.
    name = "analyze"
    classes = (
        [(3, 1)] * 6 + [(3, 2)] + [(3, 3)] * 5
        + [(4, 3)] * 4 + [(4, 4)]
        + [(5, 3)] + [(5, 4)] * 4
        + [(6, 2)] * 3
        + [(7, 3)]
    )
    warmup = [(3, 3), (3, 2), (4, 2)]
    trace_rounds = 3
    rss_rounds = 6

    def build(self, rng, cls):
        return pseudo_analytic(rng, *cls)

    def argv(self, rng, cls, path):
        return ["analyze", "--input", path]

    def check(self, report, label):
        return check_analyze(report, label)


class PowerSum(Workload):
    # ("conj", d): conjugated random unipotent of dimension d;
    # ("block", k): one Jordan block [k], permuted (see permuted_block).
    # p50 falls in the middle of the [5] blocks, p90 in the middle of the
    # [6] blocks, with d = 7 and 8 above.  d = 6 is left out: it costs
    # more than [6] and would put p90 on the edge between the two.  [4]
    # has only 192 signed permutations, too few to stay new for many
    # rounds.
    name = "powersum"
    classes = (
        [("conj", 4)] * 14 + [("block", 5)] * 12 + [("conj", 5)] * 8
        + [("block", 6)] * 4 + [("conj", 7), ("conj", 8)]
    )
    warmup = [("conj", 4), ("block", 5)]
    trace_rounds = 2
    rss_rounds = 4

    def build(self, rng, cls):
        kind, n = cls
        return (permuted_block if kind == "block" else unipotent)(rng, n)

    def argv(self, rng, cls, path):
        # single blocks use the identity form, so their leading
        # coefficient has a closed form to check against
        if cls[0] == "block" or rng.random() < 0.5:
            return ["powersum", "--input", path, "--h", "identity"]
        return ["powersum", "--input", path, "--h", "random",
                "--seed", str(rng.randrange(10**6))]

    def check(self, report, label):
        return check_powersum(report, label)


class Model(Workload):
    # half block sizes.  The scan-heavy [4,1], [3,2,1] and [3,1,1,1]
    # (about 7k tuples each) take half of the time; p90 falls among
    # [4], [3,2] and [2,2,2].  [5], [3,3], [6], [5,1], [4,2] and [4,1,1]
    # take 7-16 s each and stay in the reference probe.  Shapes with at
    # most one superdiagonal entry have too few distinct matrices to keep
    # every timed input new.
    name = "model"
    classes = (
        [(3,)] * 12 + [(2, 2)] * 9 + [(3, 1)] * 10 + [(2, 2, 1)] * 12
        + [(3, 1, 1)] * 4 + [(2, 2, 1, 1)] * 3
        + [(4,)] * 2 + [(3, 2)] * 3 + [(2, 2, 2)] * 3
        + [(3, 1, 1, 1), (3, 2, 1), (4, 1)]
    )
    warmup = [(3,), (2, 2)]
    trace_rounds = 1
    rss_rounds = 3

    def build(self, rng, sizes):
        return paired_unipotent(rng, sizes)

    def argv(self, rng, sizes, path):
        return ["model", "--input", path, "--form", "standard"]

    def check(self, report, label):
        return check_model(report, label)


class Screen(Workload):
    # every dimension 6..18, twice quasi-unipotent and twice not; 6..9
    # four times, which puts p50 among the cheap small matrices
    name = "screen"
    classes = [
        (d, qu) for d in range(6, 19) for qu in (True, False)
        for _ in range(4 if d <= 9 else 2)
    ]
    warmup = [(6, True), (7, False), (8, True)]
    trace_rounds = 5
    rss_rounds = 12
    uses_cli = False

    def build(self, rng, cls):
        return screen_matrix(rng, *cls)

    def check(self, verdict, label):
        return check_screen(verdict, label)


WORKLOADS = {w.name: w for w in (Analyze(), PowerSum(), Model(), Screen())}


# ---------------------------------------------------------------------------
# input streams


class InputStream:
    """Distinct inputs for one process.  Timed rounds and warm-up draw
    from disjoint seed streams, and a matrix already handed out (timed or
    warm-up) is drawn again, so the verdict cache never serves a timed
    operation from an earlier one."""

    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.seen = set()
        self.count = 0

    def _draw(self, rng, cls):
        for _ in range(1000):
            m, label = self.workload.build(rng, cls)
            if key(m) not in self.seen:
                self.seen.add(key(m))
                return m, label
        raise RuntimeError(f"no new input left for class {cls!r}")

    def _batch(self, stream, classes):
        rng = random.Random(f"{self.workload.name}:{stream}")
        order = list(classes)
        rng.shuffle(order)
        ops = []
        for cls in order:
            m, label = self._draw(rng, cls)
            op = {"cls": cls, "matrix": m, "label": label}
            if self.workload.uses_cli:
                path = os.path.join(self.workdir, f"in{self.count}.json")
                self.count += 1
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump({"matrix": m}, fh)
                op["argv"] = self.workload.argv(rng, cls, path)
            ops.append(op)
        return ops

    def warmup(self):
        return self._batch("warmup", self.workload.warmup)

    def round(self, index):
        return self._batch(f"seed={self.seed}:round={index}", self.workload.classes)


def _failed(workload, op, why):
    print(f"{workload.name}: class {op['cls']!r}: {why}", file=sys.stderr)
    return False


def run_op(workload, modules, op, scope=None):
    """Run one operation; returns (ok, seconds).  The timed call runs
    inside the context manager `scope` (a trace's root span).  A wrong
    answer, a nonzero exit code or an exception is reported on stderr and
    counts as a failure; none of them stops the run."""
    scope = scope or contextlib.nullcontext()
    if not workload.uses_cli:
        m = modules.RatMatrix.from_rows(op["matrix"])
        with scope:
            t0 = perf_counter()
            try:
                verdict = modules.cyclotomic.quasi_unipotency(m)
                error = None
            except Exception:
                error = traceback.format_exc()
            dt = perf_counter() - t0
        if error:
            return _failed(workload, op, error), dt
        ok = workload.check(verdict, op["label"]) or _failed(workload, op, "wrong answer")
        return ok, dt
    out = io.StringIO()
    with scope:
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = modules.cli.main(op["argv"])
            error = None
        except (Exception, SystemExit):  # argparse exits on bad flags
            error = traceback.format_exc()
        dt = perf_counter() - t0
    if error:
        return _failed(workload, op, error), dt
    if code != 0:
        return _failed(workload, op, f"exit code {code}"), dt
    try:
        ok = bool(workload.check(json.loads(out.getvalue()), op["label"]))
    except (ValueError, KeyError, TypeError) as exc:
        return _failed(workload, op, f"unreadable report: {exc!r}"), dt
    return ok or _failed(workload, op, "wrong answer"), dt
