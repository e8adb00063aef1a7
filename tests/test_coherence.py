"""Truncation coherence on models augmented on both sides.

With augmentation generators on V and on V*, the truncation of a subspace
at level n drops its aligned vectors from n on, and the finite annihilator
alone keeps functionals whose V* augmentation part pairs nonzero with
them.  `compare_subspace` adds the unit equations that rule these out; the
tests below pin the case that used to fail, check random two-sided models,
and check that wrong annihilators and closures are still reported.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagforge import coherence
from flagforge.coherence import compare_subspace
from flagforge.epcore import EpSeq, EpSet
from flagforge.pairedspace import (
    SIDE_V,
    SIDE_W,
    Augmentation,
    PairedSpaceModel,
    Subspace,
    Vector,
    closure,
    perp,
)

F = Fraction


def two_sided_model():
    return PairedSpaceModel(
        v_augs=(Augmentation(EpSeq.constant(1)),),
        w_augs=(Augmentation(EpSeq.make([], [1, 0])),),
        cross=((F(3),),),
    )


def repro_subspace(m):
    """span(e_0, e_1 + v, e_i for i >= 3), v the V augmentation generator."""
    return Subspace.span(m, SIDE_V, EpSet.make(3, 1, {0}, {0}), [Vector(m, SIDE_V, {1: 1}, (1,))])


def test_two_sided_repro_perp_and_coherence():
    m = two_sided_model()
    a = repro_subspace(m)
    # by hand: e_i for i >= 3 force the V* augmentation coefficient to 0,
    # e_0 forces the f_0 coefficient to 0, and v pairs to 1 with every f_j,
    # so <e_1 + v, y_1 f_1 + y_2 f_2> = 2 y_1 + y_2
    assert perp(a) == Subspace.span(m, SIDE_W, None, [Vector(m, SIDE_W, {1: 1, 2: -2})])
    report = compare_subspace(a)
    assert report.levels == [5, 7, 9]
    assert report.ok, report.checks
    for n in (5, 7, 9, 11):
        assert compare_subspace(a, [n]).ok


def _spurious(m):
    """f_0 + f_4 + f_6 - g: annihilates the truncation of the repro subspace
    at level 7, but not e_8, which the subspace contains."""
    return Vector(m, SIDE_W, {0: 1, 4: 1, 6: 1}, (-1,))


@pytest.mark.parametrize(
    "wrong_perp",
    [
        lambda m, pa: Subspace.zero(m, SIDE_W),  # drops the one generator
        lambda m, pa: Subspace.span(m, SIDE_W, pa.aligned, pa.corrections + (_spurious(m),)),
    ],
    ids=["drops-a-generator", "keeps-the-spurious-functional"],
)
def test_wrong_perp_is_reported(monkeypatch, wrong_perp):
    m = two_sided_model()
    a = repro_subspace(m)
    wrong = wrong_perp(m, perp(a))
    assert wrong != perp(a)
    monkeypatch.setattr(coherence, "perp", lambda s: wrong)
    report = compare_subspace(a)
    assert [c["ok"] for c in report.checks if c["check"] == "perp"] == [False] * 3


@pytest.mark.parametrize(
    "wrong_closure",
    [
        lambda m, a, ca: a,  # drops the generator that a lacks
        lambda m, a, ca: Subspace.span(
            m, SIDE_V, ca.aligned, ca.corrections + (Vector(m, SIDE_V, {2: 1}),)),
    ],
    ids=["drops-a-generator", "one-vector-too-many"],
)
def test_wrong_closure_is_reported(monkeypatch, wrong_closure):
    m = two_sided_model()
    a = repro_subspace(m)
    wrong = wrong_closure(m, a, closure(a))
    assert wrong != closure(a)
    monkeypatch.setattr(coherence, "closure", lambda s: wrong)
    report = compare_subspace(a)
    # level 5 is degenerate: its radical absorbs the difference there
    assert [c["ok"] for c in report.checks if c["check"] == "closure"][1:] == [False] * 2


small = st.integers(min_value=-1, max_value=2)
seqs = st.builds(
    EpSeq.make, st.lists(small, max_size=2), st.lists(small, min_size=1, max_size=2)
)
models = st.builds(
    lambda v, w, c: PairedSpaceModel(
        v_augs=(Augmentation(v),), w_augs=(Augmentation(w),), cross=((F(c),),)
    ),
    seqs,
    seqs,
    st.integers(min_value=-2, max_value=3),
)
aligned_sets = st.builds(
    EpSet.make,
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.sets(st.integers(min_value=0, max_value=2), max_size=3),
    st.sets(st.integers(min_value=0, max_value=2), max_size=3),
)
vector_parts = st.tuples(
    st.dictionaries(st.integers(min_value=0, max_value=4), small, max_size=3), small
)


@settings(max_examples=150, deadline=None)
@given(models, st.sampled_from([SIDE_V, SIDE_W]), aligned_sets, st.lists(vector_parts, max_size=2))
def test_two_sided_models_are_coherent(m, side, aligned, parts):
    gens = [Vector(m, side, basis, (aug,)) for basis, aug in parts]
    a = Subspace.span(m, side, aligned, gens)
    report = compare_subspace(a)
    assert report.ok, (a, a.corrections, report.checks)
