"""Elements built once, stabilizer verdicts kept per (element, flag) and
block traces per (element, couple, block).

A `FinitaryElement` keeps the `in_stabilizer` verdict of each flag object it
was tested against, and each block trace of each couple object.  These
tests check that the kept verdicts never change an answer (against fresh
elements that keep nothing), that each flag's image tests run once per
element, that each block trace is computed once per element, couple and
block, that an equal but distinct flag is computed on its own, and
that the samplers, which now build their element from all its terms at
once, give the operator of the old one-term-at-a-time path.
"""

import math
import random
from collections import Counter

import pytest

from _corpus import (
    augmented_couple,
    basis_vector,
    element_terms,
    evens_couple,
    has_independent_rows,
    is_zero_vector,
    member,
    operator,
    random_element,
    random_plain_couple,
    random_vector_in,
    rank_one,
    sample_nilradical,
    sample_pminus,
    sample_pplus,
    trivial_couple,
)
from flagforge import finitary
from flagforge.finitary import (
    FinitaryElement,
    TraceConditionSubalgebra,
    block_trace,
    in_joint_stabilizer,
    in_nilradical,
    in_pminus,
    in_stabilizer,
    perp_parabolic_member,
)
from flagforge.genflag import pair_leq, pair_order, quotient_dim
from flagforge.pairedspace import SIDE_V, SIDE_W, Vector
from test_maps_into import _split_form_couples


def _couples(rng):
    return (
        [augmented_couple(), evens_couple()]
        + [random_plain_couple(rng) for _ in range(20)]
        + _split_form_couples()
    )


def _elements(t, rng):
    out = []
    for _ in range(4):
        out += [
            sample_pplus(t, rng, terms=rng.randrange(1, 4)),
            sample_nilradical(t, rng),
            sample_pminus(t, rng),
            random_element(t.model, rng, terms=rng.randrange(1, 4)),
        ]
    return out


def _questions(t):
    """Named membership questions, each a function of the element."""
    k = len(t.c_pairs)
    qs = [
        ("joint", lambda x: in_joint_stabilizer(x, t)),
        ("f_flag", lambda x: in_stabilizer(x, t.f_flag)),
        ("g_flag", lambda x: in_stabilizer(x, t.g_flag)),
        ("nilradical", lambda x: in_nilradical(x, t)),
        ("pminus", lambda x: in_pminus(x, t)),
        ("pminus_sl", lambda x: in_pminus(x, t, "sl")),
        ("pprime", lambda x: perp_parabolic_member(x, t)),
        ("tc", lambda x: TraceConditionSubalgebra(t, "sl", [[1] * k]).member(x)),
    ]
    for gamma in range(k):
        qs.append((f"trace{gamma}", lambda x, g=gamma: _trace_or_none(x, t, g)))
    return qs


def _trace_or_none(x, t, gamma):
    try:
        return block_trace(x, t, gamma)
    except finitary.NotInJointStabilizer:
        return None


class _NoMemo(list):
    """A memo list that never keeps an entry: an element with it is uncached."""

    def append(self, item):
        pass


def _uncached(x):
    fresh = FinitaryElement(x.model, element_terms(x))
    fresh._verdicts = _NoMemo()
    fresh._blocks = _NoMemo()
    return fresh


def test_kept_verdicts_match_fresh_elements():
    rng = random.Random(31)
    asked = Counter()
    for t in _couples(rng):
        questions = _questions(t)
        for x in _elements(t, rng):
            # every question twice, in a random order, on the one element
            order = questions * 2
            rng.shuffle(order)
            for name, ask in order:
                fresh = _uncached(x)
                assert ask(x) == ask(fresh), (name, element_terms(x))
                asked[name, bool(ask(fresh))] += 1
    # both verdicts occur for the stabilizer questions
    assert asked["joint", True] > 100 and asked["joint", False] > 100, asked
    assert asked["nilradical", True] > 50 and asked["nilradical", False] > 50, asked


def test_image_tests_run_once_per_element_and_flag_member(monkeypatch):
    calls = Counter()
    maps_into = finitary._maps_into

    def counting(x, source, target):
        calls[id(x), id(source), id(target)] += 1
        return maps_into(x, source, target)

    monkeypatch.setattr(finitary, "_maps_into", counting)
    rng = random.Random(5)
    joint_seen = 0
    for t in [augmented_couple(), evens_couple()] + [random_plain_couple(rng) for _ in range(5)]:
        members = [s for flag in (t.f_flag, t.g_flag) for s in flag.chain[1:-1]]
        for x in _elements(t, rng):
            calls.clear()
            joint = in_joint_stabilizer(x, t)
            in_nilradical(x, t)
            in_pminus(x, t)
            in_pminus(x, t, "sl")
            if joint:
                for gamma in range(len(t.c_pairs)):
                    block_trace(x, t, gamma)
            assert in_joint_stabilizer(x, t) == joint
            assert all(n == 1 for n in calls.values()), calls
            stabilizer = {(src, tgt) for _, src, tgt in calls if src == tgt}
            if joint:
                joint_seen += 1
                assert stabilizer == {(id(s), id(s)) for s in members}
            else:
                assert stabilizer <= {(id(s), id(s)) for s in members}
    assert joint_seen > 20


def test_block_components_computed_once_per_element_couple_and_block(monkeypatch):
    calls = Counter()
    compute = finitary._compute_block_trace

    def counting(x, t, gamma):
        calls[id(x), id(t), gamma] += 1
        return compute(x, t, gamma)

    monkeypatch.setattr(finitary, "_compute_block_trace", counting)
    rng = random.Random(6)
    joint_seen = 0
    for t in [augmented_couple(), evens_couple()] + [random_plain_couple(rng) for _ in range(5)]:
        infinite = [int(t.f_quotient_dim(fi) == math.inf) for fi, _ in t.c_pairs]
        tc = TraceConditionSubalgebra(t, "gl", [infinite])
        for x in _elements(t, rng):
            calls.clear()
            for _ in range(2):
                in_pminus(x, t)
                in_pminus(x, t, "sl")
                tc.member(x)
                if in_joint_stabilizer(x, t):
                    for gamma in range(len(t.c_pairs)):
                        block_trace(x, t, gamma)
            assert all(n == 1 for n in calls.values()), calls
            if in_joint_stabilizer(x, t):
                joint_seen += 1
                assert set(calls) == {(id(x), id(t), g) for g in range(len(t.c_pairs))}
            else:
                assert not calls
    assert joint_seen > 20


def test_equal_flag_that_is_another_object_is_computed_again(monkeypatch):
    calls = []
    maps_into = finitary._maps_into

    def counting(x, source, target):
        calls.append(source)
        return maps_into(x, source, target)

    monkeypatch.setattr(finitary, "_maps_into", counting)
    t, again = evens_couple(), evens_couple()
    assert t.f_flag == again.f_flag and t.f_flag is not again.f_flag
    interior = len(t.f_flag.chain) - 2
    rng = random.Random(9)
    for x in [sample_pplus(t, rng) for _ in range(5)] + [random_element(t.model, rng)]:
        calls.clear()
        first = in_stabilizer(x, t.f_flag)
        asked_first = len(calls)
        assert 1 <= asked_first <= interior
        assert in_stabilizer(x, t.f_flag) == first
        assert len(calls) == asked_first
        assert in_stabilizer(x, again.f_flag) == first
        assert len(calls) == 2 * asked_first


# ---------------------------------------------------------------------------
# samplers: one construction gives the terms of repeated `add`
# ---------------------------------------------------------------------------


def _old_placed(t, rng, keep, terms):
    placements = [
        (a, b)
        for a in range(t.f_flag.n_pairs())
        for b in range(t.g_flag.n_pairs())
        if keep(t, a, b)
    ]
    out = FinitaryElement(t.model)
    if not placements:
        return out
    for _ in range(terms):
        a, b = rng.choice(placements)
        v = random_vector_in(t.f_flag.chain[a + 1], rng)
        w = random_vector_in(t.g_flag.chain[b + 1], rng)
        if not is_zero_vector(v) and not is_zero_vector(w):
            out = out.add(rank_one(v, w))
    return out


def _old_units(t, gamma, want=2, bound=60):
    fi, gj = t.c_pairs[gamma]
    f_pred, f_succ = t.f_pair(fi)
    g_pred, g_succ = t.g_pair(gj)
    found = []
    for i in range(bound):
        ei = basis_vector(t.model, SIDE_V, i)
        fj = basis_vector(t.model, SIDE_W, i)
        if (member(f_succ, ei) and not member(f_pred, ei)
                and member(g_succ, fj) and not member(g_pred, fj)):
            found.append(rank_one(ei, fj))
            if len(found) == want:
                break
    return found


def _old_pminus(t, rng, ambient="gl", terms=2):
    out = _old_placed(t, rng, pair_order, terms)
    for gamma, (fi, _) in enumerate(t.c_pairs):
        if rng.random() < 0.6:
            continue
        units = _old_units(t, gamma)
        if not units:
            continue
        if quotient_dim(*t.f_pair(fi)) == math.inf or ambient == "sl":
            if len(units) == 2:
                out = out.add(units[0].sub(units[1]))
        else:
            for _ in range(rng.randrange(1, 3)):  # units[0] times 1 or 2
                out = out.add(units[0])
    return out


def _old_random_element(model, rng, terms=2, bound=8):
    out = FinitaryElement(model)
    for _ in range(terms):
        v = Vector(model, SIDE_V, {rng.randrange(bound): rng.randrange(-2, 3) or 1 for _ in range(2)})
        w = Vector(model, SIDE_W, {rng.randrange(bound): rng.randrange(-2, 3) or 1 for _ in range(2)})
        out = out.add(rank_one(v, w))
    return out


SAMPLERS = [
    ("pplus", lambda t, r: sample_pplus(t, r, 3), lambda t, r: _old_placed(t, r, pair_leq, 3)),
    ("nilradical", lambda t, r: sample_nilradical(t, r, 3),
     lambda t, r: _old_placed(t, r, pair_order, 3)),
    ("pminus", lambda t, r: sample_pminus(t, r), lambda t, r: _old_pminus(t, r)),
    ("pminus_sl", lambda t, r: sample_pminus(t, r, "sl"), lambda t, r: _old_pminus(t, r, "sl")),
    ("element", lambda t, r: random_element(t.model, r, 3),
     lambda t, r: _old_random_element(t.model, r, 3)),
]


@pytest.mark.parametrize("name,new,old", SAMPLERS, ids=[s[0] for s in SAMPLERS])
def test_samplers_match_repeated_add(name, new, old):
    corpus = [evens_couple(), augmented_couple(), trivial_couple()]
    corpus += [random_plain_couple(random.Random(s)) for s in range(3)]
    corpus += _split_form_couples()[:2]
    nonzero = 0
    for t in corpus:
        for seed in range(20):
            r_new, r_old = random.Random(seed), random.Random(seed)
            got, want = new(t, r_new), old(t, r_old)
            # the left factors depend on the order of the terms: compare
            # the operators, and check the form of the one-pass element
            assert operator(element_terms(got)) == operator(element_terms(want)), (name, seed)
            assert has_independent_rows(got), (name, seed)
            assert r_new.getstate() == r_old.getstate()
            nonzero += not got.is_zero()
    assert nonzero > 100
