"""The library API is total: every callable that `plovkit` exports, given
arguments of the right kinds or of any other kind, returns, raises a
`PlovkitError` other than `CrossCheckError`, or raises `TypeError`.

The arguments come from one pool per dimension 0-4: exact and inexact
scalars, negative and zero ints, `None`, raw rows, matrices (unipotent,
quasi-unipotent or not, pseudo-analytic, positive definite, singular,
with non-integer entries), polynomials, 2-forms and their families
(empty, or of mixed genus), profile entries and block-size lists.  Each
parameter is drawn either from the part of the pool its annotation names
or from the whole pool, so that both deep calls and wrong-typed ones are
made.  The pools are built once, so a draw is a choice of index.

The export that takes a caller's degree bound, `intersection_poly`,
re-verifies its interpolant at one more node and refuses an undersized
bound with a `DegreeBoundError`, a `PreconditionError`, so no export is
allowed a `CrossCheckError`.
"""

import dataclasses
import inspect
import random
from fractions import Fraction

import pytest

import plovkit
from plovkit import (
    CrossCheckError,
    PlovkitError,
    PreconditionError,
    RatMatrix,
    TwoForm,
    UniPoly,
    cyclotomic_poly,
    jordan_profile,
    randgen,
)

EXPORTS = sorted(
    (name, obj)
    for name, obj in vars(plovkit).items()
    if callable(obj) and not name.startswith("_") and not inspect.ismodule(obj)
)
#: the pool kind an annotation names, the most specific first
ANNOTATED = (
    ("Sequence[TwoForm]", "family"),
    ("Sequence[tuple", "entries"),
    ("tuple[tuple[int", "rows"),
    ("Sequence[int]", "sizes"),
    ("tuple[int", "sizes"),
    ("Callable", "callable"),
    ("RatMatrix", "matrix"),
    ("JordanProfile", "profile"),
    ("UniPoly", "poly"),
    ("TwoForm", "form"),
    ("dict", "dict"),
    ("int", "int"),
)


def signature(fn):
    """The annotations of the positional parameters of `fn`, and the
    least and most arguments to draw (three more for *args); an error
    class takes any message."""
    try:
        params = inspect.signature(fn).parameters.values()
    except ValueError:
        return [], 0, 1
    positional = [p for p in params if p.kind is p.POSITIONAL_OR_KEYWORD]
    required = sum(p.default is p.empty for p in positional)
    extra = 3 if any(p.kind is p.VAR_POSITIONAL for p in params) else 0
    return [str(p.annotation) for p in positional], required, len(positional) + extra


def matrices(d):
    if d == 0:
        return []
    rng = random.Random(d)
    genus = max(d // 2, 1)
    ms = [
        RatMatrix.identity(d),
        RatMatrix.zero(d),
        randgen.random_integer_matrix(rng, d, span=2),
        randgen.random_integer_matrix(rng, d) * Fraction(1, 3),
        randgen.random_spd(rng, d),
        randgen.random_unipotent(rng, d)[0],
        randgen.random_quasi_unipotent(rng, d),
        randgen.rational_root_block(2, d),
        randgen.random_paired_unipotent(rng, genus)[0],
        randgen.random_pseudo_analytic(rng, genus, True, (1, 2, 3, 4, 6))[0],
    ]
    if d >= 2:
        ms.append(randgen.random_mixed_matrix(random.Random(1), d))  # not QU
    return ms


def forms(d):
    rng = random.Random(d)
    genus = max(d // 2, 1)
    return [
        TwoForm.standard(genus),
        randgen.randgen_two_form(rng, genus),
        TwoForm(genus),
        TwoForm.standard(genus + 1),
    ]


def pool(d):
    """The arguments at dimension d, by kind."""
    ms, fs = matrices(d), forms(d)
    profiles = []
    for m in ms:
        try:
            profiles.append(jordan_profile(m))
        except PlovkitError:
            pass
    return {
        "int": [0, -1, -3, 1, 2, d, 2 * d + 1],
        "scalar": [0.5, -1.0, Fraction(1, 2), Fraction(-3, 2), True, "1"],
        "none": [None],
        "rows": [[], [[]], [[1] * d] * d, [[0.5] * d] * d, [[None] * d] * d, [[1, 2]]],
        "matrix": ms,
        "poly": [
            UniPoly.from_coeffs([1, 0, -2]),
            UniPoly.from_coeffs([]),
            UniPoly((1,), 2),
            cyclotomic_poly(max(d, 1)),
            cyclotomic_poly(12),
        ],
        "form": fs,
        "family": [[], fs[:1], fs[:3], [fs[0], fs[3]], [fs[1], 5]],
        "entries": [
            [(1, 2)], [(1, 2, 1)], [(1, 1, 2), (3, 1, 1)], [(0, 1, 1)],
            [(1, 2, 3, 4)], [(-1, 2, 1)], [(1, 2.0, 1)], [],
        ],
        "sizes": [[], [1], [2, 1], [4, 1], [0], [-1, 2], [d + 1, 1]],
        "profile": profiles,
        "dict": [{}, {(1, 2): 1}, {(1, 2): 0.5}, {(2, 1): 1}, {(1, 2, 3): 1}],
        "callable": [
            lambda x: RatMatrix.from_rows([[x, 1], [0, x]]),
            lambda x: RatMatrix.identity(max(d, 1)) * x,
            lambda x: x,
            lambda x: None,
        ],
    }


def test_every_export_is_total():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # per dimension: the strategy of each kind, drawn 3 times in 4 beside
    # the whole pool, and of the whole pool alone under the key None
    pools = []
    for d in range(5):
        kinds = pool(d)
        every = st.sampled_from([v for values in kinds.values() for v in values])
        typed = {
            kind: st.one_of(*[st.sampled_from(values)] * 3, every)
            for kind, values in kinds.items()
            if values
        }
        pools.append({None: every, **typed})
    shapes = {name: signature(fn) for name, fn in EXPORTS}
    counts = {name: st.integers(low, high) for name, (_, low, high) in shapes.items()}

    def argument(text, strategies):
        kind = next((kind for key, kind in ANNOTATED if key in text), None)
        return strategies.get(kind, strategies[None])

    drawn = set()

    @hypothesis.settings(max_examples=800, deadline=None, derandomize=True)
    @hypothesis.given(st.sampled_from(EXPORTS), st.integers(0, 4), st.data())
    def check(export, d, data):
        name, fn = export
        texts = shapes[name][0]
        args = [
            data.draw(argument(texts[i] if i < len(texts) else "", pools[d]))
            for i in range(data.draw(counts[name]))
        ]
        drawn.add(name)
        try:
            fn(*args)
        except TypeError:
            pass
        except CrossCheckError as exc:
            raise AssertionError((name, args)) from exc
        except PlovkitError:
            pass

    check()
    assert drawn == {name for name, _ in EXPORTS}


def test_model_record_refuses_fields_that_disagree():
    # the degree and the match flag are read off the polynomial, so the one
    # invariant left is the ceiling, a library error; neither can be set
    m, half = randgen.random_paired_unipotent(random.Random(5), 3)
    model = plovkit.plov_via_model(m, TwoForm.standard(3))
    assert model.matches_profile and model.degree == sum(k * k for k in half)
    for fields in [
        {"profile_plov": model.degree - 1},
        {"poly": UniPoly((1,) * (model.degree + 2), 1, "n")},
    ]:
        with pytest.raises(PreconditionError):
            dataclasses.replace(model, **fields)
    for name, value in [("degree", model.degree - 1), ("matches_profile", False)]:
        with pytest.raises(TypeError):
            dataclasses.replace(model, **{name: value})
    lower = UniPoly((1,) * model.degree, 1, "n")
    kept = dataclasses.replace(model, poly=lower)
    assert kept.degree == model.degree - 1 and not kept.matches_profile
    kept = dataclasses.replace(model, profile_plov=model.degree + 1)
    assert kept.degree < kept.profile_plov and not kept.matches_profile
