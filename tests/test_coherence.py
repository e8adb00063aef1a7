"""Truncation coherence on models augmented on both sides.

With augmentation generators on V and on V*, the truncation of a subspace
at level n drops its aligned vectors from n on, and the finite annihilator
alone keeps functionals whose V* augmentation part pairs nonzero with
them.  `compare_subspace` adds the unit equations that rule these out; the
tests below pin the case that used to fail, check random two-sided models,
and check that wrong annihilators and closures are still reported.

The last tests hold the sparse comparisons to the dense ones they replaced
(`_dense_coherence`): same levels, same checks.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _dense_coherence as dense_ref
from _corpus import aug_vector, criterion_9_corpus, span, vectors
from flagforge import coherence, finitary
from flagforge.coherence import compare_couple, compare_element, compare_subspace
from flagforge.epcore import EpSeq, EpSet
from flagforge.exactnum import dense
from flagforge.finitary import FinitaryElement
from flagforge.pairedspace import (
    SIDE_V,
    SIDE_W,
    Augmentation,
    NotRepresentable,
    PairedSpaceModel,
    Subspace,
    Vector,
    closure,
    dense_line_model,
    perp,
    plain_model,
    split_form_model,
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
    return span(m, SIDE_V, EpSet.make(3, 1, {0}, {0}), [Vector(m, SIDE_V, {1: 1}, (1,))])


def test_two_sided_repro_perp_and_coherence():
    m = two_sided_model()
    a = repro_subspace(m)
    # by hand: e_i for i >= 3 force the V* augmentation coefficient to 0,
    # e_0 forces the f_0 coefficient to 0, and v pairs to 1 with every f_j,
    # so <e_1 + v, y_1 f_1 + y_2 f_2> = 2 y_1 + y_2
    assert perp(a) == span(m, SIDE_W, None, [Vector(m, SIDE_W, {1: 1, 2: -2})])
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
        lambda m, pa: span(m, SIDE_W, pa.aligned, vectors(pa) + (_spurious(m),)),
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


def _pairing_without_augmentation_terms(model, v, w):
    """`pair_rows` that pairs basis coordinates only."""
    return sum((a * w[k] for k, a in v.items() if k[0] == 1 and k in w), F(0))


def test_element_action_agrees_with_the_truncated_pairing():
    rng = random.Random(17)
    models = (plain_model(), dense_line_model(), two_sided_model(),
              split_form_model("antisymmetric"))
    checked = 0
    for m in models:
        for _ in range(10):
            terms = [
                tuple(
                    Vector(m, side, {rng.randrange(8): rng.randrange(-2, 3) for _ in range(2)},
                           [rng.randrange(-1, 2) for _ in m.augs(side)])
                    for side in (SIDE_V, SIDE_W)
                )
                for _ in range(rng.randrange(1, 4))
            ]
            x = FinitaryElement(m, terms)
            for levels in (None, [1, 2, 5]):
                report = compare_element(x, levels)
                assert report.ok, (m, terms, report.checks)
                checked += len(report.checks)
    assert checked > 200


def test_wrong_pairing_is_reported(monkeypatch):
    m = two_sided_model()
    # e_0 (x) g, g the V* augmentation generator: x(e_i) = <e_i, g> e_0,
    # which is e_0 for even i
    x = FinitaryElement(m, [(Vector(m, SIDE_V, {0: 1}), aug_vector(m, SIDE_W, 0))])
    assert compare_element(x).ok
    monkeypatch.setattr(finitary, "pair_rows", _pairing_without_augmentation_terms)
    report = compare_element(x)
    assert [c["ok"] for c in report.checks] == [False] * 3


@pytest.mark.parametrize(
    "wrong_closure",
    [
        lambda m, a, ca: a,  # drops the generator that a lacks
        lambda m, a, ca: span(
            m, SIDE_V, ca.aligned, vectors(ca) + (Vector(m, SIDE_V, {2: 1}),)),
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
    a = span(m, side, aligned, gens)
    report = compare_subspace(a)
    assert report.ok, (a, vectors(a), report.checks)


# -- the sparse comparisons against the dense reference ----------------------


def _report(r):
    return r.object_kind, r.levels, r.checks


def _random_subspace(m, side, rng):
    """Aligned part with period 1 to 4, up to two corrections that may carry
    augmentation coordinates."""
    period = rng.choice([1, 2, 3, 4])
    aligned = EpSet.from_residues(period, {r for r in range(period) if rng.random() < 0.5})
    n_aug = len(m.augs(side))
    gens = []
    for _ in range(rng.randrange(3)):
        basis = {rng.randrange(8): F(rng.randrange(-3, 4)) for _ in range(3)}
        augs = [F(rng.randrange(-1, 2)) for _ in range(n_aug)]
        gens.append(Vector(m, side, basis, augs))
    return span(m, side, aligned, gens)


def test_compare_subspace_matches_the_dense_reference():
    rng = random.Random(20)
    models = [plain_model(), dense_line_model(), split_form_model("symmetric"),
              two_sided_model()]
    skipped = 0
    for m in models:
        for side in (SIDE_V, SIDE_W):
            for _ in range(12):
                a = _random_subspace(m, side, rng)
                for levels in (None, [rng.randrange(1, 6), rng.randrange(6, 12)]):
                    got = compare_subspace(a, levels)
                    assert _report(got) == _report(dense_ref.compare_subspace(a, levels))
                skipped += got.checks[0]["check"] == "perp-representable"
    m = dense_line_model()
    aug_line = span(m, SIDE_V, gens=[aug_vector(m, SIDE_V, 0)])
    with pytest.raises(NotRepresentable):
        perp(aug_line)
    assert _report(compare_subspace(aug_line)) == _report(dense_ref.compare_subspace(aug_line))
    assert skipped  # some random inputs reach the NotRepresentable branch too


def test_truncations_match_the_dense_reference():
    rng = random.Random(21)
    for m in (plain_model(), dense_line_model(), two_sided_model()):
        for n in (1, 2, 5):
            tm, ref = coherence.truncate_model(m, n), dense_ref.truncate_model(m, n)
            v_dim, w_dim = tm.dim[SIDE_V], tm.dim[SIDE_W]
            assert [dense(r, w_dim) for r in tm.pairing[SIDE_V]] == ref.pairing.entries
            assert [dense(c, v_dim) for c in tm.pairing[SIDE_W]] == ref.pairing.transpose().entries
            assert [dense(y, v_dim) for y in tm.radical[SIDE_V]] == ref.radical_v
            assert [dense(y, w_dim) for y in tm.radical[SIDE_W]] == ref.radical_w
            for side in (SIDE_V, SIDE_W):
                width = n + len(m.augs(side))
                a = _random_subspace(m, side, rng)
                got = [dense(r, width) for r in coherence.truncate_subspace(a, n).rows()]
                assert got == dense_ref.truncate_subspace(a, n)


def test_criterion_9_corpus_matches_the_dense_reference():
    subspaces, couples, elements = criterion_9_corpus()
    for a in subspaces:
        assert _report(compare_subspace(a)) == _report(dense_ref.compare_subspace(a))
    for x in elements:
        assert _report(compare_element(x)) == _report(dense_ref.compare_element(x))
        assert _report(compare_element(x, [2, 5])) == _report(
            dense_ref.compare_element(x, [2, 5]))
    for idx, t in enumerate(couples):
        assert _report(compare_couple(t, seed=idx)) == _report(
            dense_ref.compare_couple(t, seed=idx))
        assert _report(compare_couple(t, [3], seed=idx)) == _report(
            dense_ref.compare_couple(t, [3], seed=idx))
