"""Differential and bound tests of `finitary._maps_into`.

`_maps_into(x, S, T)` reduces the image of each term of x modulo T once,
then decides x(S) in T from the span of the pairing rows of S against the
terms whose image falls outside T, with one combination of those residues
per echelon row.  The per-index test that preceded it, which applied x to
every aligned basis vector of one stabilization window and to every
correction, is kept here as the reference.  Both must give the same
verdict on every (source, target) pair that `in_stabilizer` and
`in_nilradical` ask about, on both sides of taut couples in the plain,
augmented and split-form models, with and without correction vectors in
their flags.  The image of each term is reduced exactly once per call.
"""

import random
from functools import partial

from _corpus import (
    act_on_v,
    act_on_vstar,
    add_vectors,
    aug_vector,
    augmented_couple,
    basis_vector,
    chain_component,
    element_terms,
    flip,
    member,
    random_element,
    random_plain_couple,
    rank_one,
    sample_nilradical,
    sample_pminus,
    sample_pplus,
    span,
    support_bound,
    vectors,
)
from flagforge import finitary
from flagforge.epcore import EpSeq, EpSet, stabilization_window
from flagforge.finitary import _maps_into, self_taut_couple
from flagforge.genflag import flag_from_chain, make_taut_couple
from flagforge.pairedspace import (
    SIDE_V,
    SIDE_W,
    Augmentation,
    PairedSpaceModel,
    Subspace,
    Vector,
    perp,
    plain_model,
    split_form_model,
)


def _maps_into_per_index(x, source, target):
    """The replaced test: one image per window index and per correction."""
    model = x.model
    if source.side == SIDE_V:
        rows = [aug.row for aug in model.w_augs]
        coeff_vecs = [w for _, w in element_terms(x)]
        act = partial(act_on_v, x)
    else:
        rows = [aug.row for aug in model.v_augs]
        coeff_vecs = [v for v, _ in element_terms(x)]
        act = partial(act_on_vstar, x)
    support = max(map(support_bound, coeff_vecs), default=0)
    n_star, p_star = stabilization_window([source.aligned, support] + rows)
    for i in source.aligned.members_below(n_star + p_star):
        if not member(target, act(basis_vector(model, source.side, i))):
            return False
    for corr in vectors(source):
        if not member(target, act(corr)):
            return False
    return True


def _split_form_couples():
    """Self-taut couples of isotropic flags on both split-form models."""
    out = []
    for kind in ("symmetric", "antisymmetric"):
        m = split_form_model(kind)
        chains = [[EpSet.from_residues(2, (0,))]]
        chains += [
            [EpSet.from_residues(4, r) for r in ({low}, {0, 2}, {0, 1, 2, 3} - {low ^ 1})]
            for low in (0, 2)
        ]
        for chain in chains:
            f = flag_from_chain(m, SIDE_V, [Subspace.span(m, SIDE_V, s) for s in chain])
            out.append(self_taut_couple(f))
    return out


def _corrected_couples():
    """Couples whose flags carry correction vectors: plain-model chains that
    are not aligned, and the mirror of the augmented couple, whose V* is
    extended by a vector pairing to 1 with every even basis vector."""
    m = plain_model()
    e = lambda i: basis_vector(m, SIDE_V, i)  # noqa: E731
    evens = EpSet.from_residues(2, (0,))
    chains = [
        [span(m, SIDE_V, None, [add_vectors(e(0), e(1))])],
        [
            span(m, SIDE_V, None, [add_vectors(e(0), e(1))]),
            span(m, SIDE_V, evens, [add_vectors(e(1), e(3)), add_vectors(e(0), e(1))]),
        ],
        [span(m, SIDE_V, evens.intersection(EpSet.from_bound(4)), [add_vectors(e(1), e(5))])],
    ]
    out = []
    for chain in chains:
        f = flag_from_chain(m, SIDE_V, chain)
        out.append(make_taut_couple(f, flag_from_chain(m, SIDE_W, [perp(s) for s in f.chain])))
    mw = PairedSpaceModel(w_augs=(Augmentation(EpSeq.make([], [1, 0])),))
    w_std = Subspace.span(mw, SIDE_W, EpSet.naturals())
    f = flag_from_chain(mw, SIDE_V, [])
    out.append(make_taut_couple(f, flag_from_chain(mw, SIDE_W, [w_std])))
    return out


def _couples(rng):
    return (
        [augmented_couple()]
        + [random_plain_couple(rng) for _ in range(20)]
        + _corrected_couples()
        + _split_form_couples()
    )


def _questions(t):
    """The (source, target) pairs of in_stabilizer and in_nilradical, on
    the V and the V* side."""
    pairs = [(s, s) for flag in (t.f_flag, t.g_flag) for s in flag.chain[1:-1]]
    for fi, gj in t.c_pairs:
        pred, succ = t.f_pair(fi)
        pairs.append((succ, pred))
        pred, succ = t.g_pair(gj)
        pairs.append((succ, pred))
    # a whole space extended by augmentation vectors, as a source: its
    # corrections carry augmentation coordinates
    for flag in (t.f_flag, t.g_flag):
        if flag.chain[-1].corrections:
            pairs += [(flag.chain[-1], s) for s in flag.chain[1:-1]]
    return pairs


def _elements(t, rng):
    out = []
    for _ in range(10):
        out += [
            sample_nilradical(t, rng),
            sample_pminus(t, rng),
            sample_pplus(t, rng, terms=rng.randrange(1, 4)),
            random_element(t.model, rng, terms=rng.randrange(1, 4)),
        ]
    if t.model.form_kind == "symmetric":  # antisymmetrized: lands in so(V)
        out += [x.sub(flip(x)) for x in (random_element(t.model, rng) for _ in range(4))]
    if t.model.form_kind == "antisymmetric":  # symmetrized: lands in sp(V)
        out += [x.add(flip(x)) for x in (random_element(t.model, rng) for _ in range(4))]
    for j in range(3):
        if t.model.v_augs:
            v, w = aug_vector(t.model, SIDE_V, 0), basis_vector(t.model, SIDE_W, j)
        elif t.model.w_augs:
            v, w = basis_vector(t.model, SIDE_V, j), aug_vector(t.model, SIDE_W, 0)
        else:
            break
        out.append(rank_one(v, w))
        out.append(rank_one(v, w).add(sample_pplus(t, rng)))
    return out


def test_verdicts_match_per_index_reference():
    rng = random.Random(2024)
    verdicts = {True: 0, False: 0}
    for t in _couples(rng):
        questions = _questions(t)
        for x in _elements(t, rng):
            for source, target in questions:
                got = _maps_into(x, source, target)
                want = _maps_into_per_index(x, source, target)
                assert got == want, (element_terms(x), source, target)
                verdicts[got] += 1
    # both verdicts occur often, so the comparison is not vacuous
    assert min(verdicts.values()) > 1000, verdicts


def test_exactly_one_membership_test_per_term(monkeypatch):
    calls = []
    reduce_row = Subspace._reduce_row

    def counting(self, row):
        calls.append(row)
        return reduce_row(self, row)

    monkeypatch.setattr(Subspace, "_reduce_row", counting)
    rng = random.Random(7)
    checked = 0
    for t in _couples(rng):
        questions = _questions(t)
        for x in _elements(t, rng):
            for source, target in questions:
                calls.clear()
                _maps_into(x, source, target)
                assert len(calls) == len(x._rows), (len(calls), len(x._rows))
                checked += 1
    assert checked > 1000


def test_self_taut_couple_is_cached_on_the_flag():
    m = split_form_model("symmetric")
    f = flag_from_chain(m, SIDE_V, [Subspace.span(m, SIDE_V, EpSet.from_residues(2, (0,)))])
    t = self_taut_couple(f)
    assert self_taut_couple(f) is t
    again = flag_from_chain(m, SIDE_V, [Subspace.span(m, SIDE_V, EpSet.from_residues(2, (0,)))])
    assert again == f  # the cache slot takes no part in equality
    assert self_taut_couple(again).c_pairs == t.c_pairs


def test_chain_component_matches_residual_difference():
    rng = random.Random(11)
    for t in [augmented_couple(), random_plain_couple(rng)] + _split_form_couples():
        n_aug = len(t.model.v_augs)
        for fi, _ in t.c_pairs:
            pred, succ = t.f_pair(fi)
            for _ in range(10):
                basis = {rng.randrange(12): rng.randrange(-2, 3) for _ in range(3)}
                v = Vector(t.model, SIDE_V, basis, [rng.randrange(-1, 2) for _ in range(n_aug)])
                want = chain_component(pred, succ, v)
                got = finitary._chain_component(pred, succ, v.to_sparse())
                assert Vector.from_sparse(t.model, SIDE_V, got) == want
                assert all(got.values())  # a sparse row keeps no zeros
