import itertools
import math
import os
import random
import sys

import pytest

from _corpus import (
    add_vectors,
    augmented_couple,
    basis_vector,
    evens_couple,
    pair,
    random_plain_couple,
    span,
    support_bound,
    trivial_couple,
    vectors,
)
from flagforge.epcore import EpSet, stabilization_window
from flagforge.genflag import (
    OMEGA_UP,
    FINITE,
    BasisOrderFlag,
    Block,
    FinitePairFlag,
    NotAChain,
    NotSemiclosed,
    NotTaut,
    classify_flag,
    collapsed_couple,
    fc_flag,
    flag_from_chain,
    make_taut_couple,
    pair_leq,
    pair_order,
    quotient_dim,
    self_taut_and_iso,
)
from flagforge.pairedspace import (
    SIDE_V,
    SIDE_W,
    SideMismatch,
    Subspace,
    closure,
    dense_line_model,
    form_perp,
    plain_model,
    split_form_model,
)

EVENS = EpSet.from_residues(2, (0,))
ODDS = EpSet.from_residues(2, (1,))


def sp(model, side, aligned=None, gens=()):
    return span(model, side, aligned, gens)


def ev(model, i):
    return basis_vector(model, SIDE_V, i)


def test_flag_from_chain_dedup_and_endpoints():
    m = plain_model()
    u = sp(m, SIDE_V, EVENS)
    f = flag_from_chain(m, SIDE_V, [u, u])
    assert len(f.chain) == 3
    assert f.chain[0].is_zero() and f.chain[-1].is_full()
    g = flag_from_chain(m, SIDE_V, [u])
    assert f == g


def test_flag_from_chain_rejects_incomparable():
    m = plain_model()
    u = sp(m, SIDE_V, gens=[ev(m, 0)])
    w = sp(m, SIDE_V, gens=[ev(m, 1)])
    with pytest.raises(NotAChain):
        flag_from_chain(m, SIDE_V, [u, w])


def test_classify_plain_finite_line():
    m = plain_model()
    f = flag_from_chain(m, SIDE_V, [sp(m, SIDE_V, gens=[ev(m, 0)])])
    cls = classify_flag(f)
    assert cls.semiclosed and cls.closed
    # the quotient V / span{e_0} is infinite dimensional over a closed
    # predecessor, so the flag is not maximal
    assert not cls.maximal_semiclosed


def test_classify_dense_pair():
    m = dense_line_model()
    v_std = sp(m, SIDE_V, EpSet.naturals())
    f = flag_from_chain(m, SIDE_V, [v_std])
    cls = classify_flag(f)
    assert cls.semiclosed and not cls.closed
    assert cls.pair_closures == ("closed", "dense")
    # the dense pair is exempt from the 1-dim test, but (0, V) has a closed
    # predecessor with infinite quotient, so the flag is not maximal
    assert not cls.maximal_semiclosed
    assert quotient_dim(f.chain[0], f.chain[1]) == math.inf


def test_classify_trivial_flag():
    m = plain_model()
    f = flag_from_chain(m, SIDE_V, [])
    cls = classify_flag(f)
    assert cls.semiclosed and cls.closed


def test_quotient_dims():
    m = plain_model()
    zero = Subspace.zero(m, SIDE_V)
    line = sp(m, SIDE_V, gens=[ev(m, 0)])
    plane = sp(m, SIDE_V, gens=[ev(m, 0), ev(m, 1)])
    evens = sp(m, SIDE_V, EVENS)
    assert quotient_dim(zero, line) == 1
    assert quotient_dim(line, plane) == 1
    assert quotient_dim(zero, evens) == math.inf
    assert quotient_dim(evens, Subspace.full(m, SIDE_V)) == math.inf


def _evens_couple(m):
    f = flag_from_chain(m, SIDE_V, [sp(m, SIDE_V, EVENS)])
    g = flag_from_chain(m, SIDE_W, [sp(m, SIDE_W, ODDS)])
    return f, g


def test_make_taut_couple_evens():
    m = plain_model()
    f, g = _evens_couple(m)
    t = make_taut_couple(f, g)
    assert len(t.c_pairs) == 2
    assert set(t.c_pairs) == {(0, 1), (1, 0)}


def test_make_taut_couple_trivial():
    m = plain_model()
    f = flag_from_chain(m, SIDE_V, [])
    g = flag_from_chain(m, SIDE_W, [])
    t = make_taut_couple(f, g)
    assert t.c_pairs == ((0, 0),)


def test_make_taut_couple_rejects_bad_partner():
    m = plain_model()
    f, _ = _evens_couple(m)
    g = flag_from_chain(m, SIDE_W, [sp(m, SIDE_W, gens=[basis_vector(m, SIDE_W, 0)])])
    with pytest.raises(NotTaut):
        make_taut_couple(f, g)


def test_pair_order():
    m = plain_model()
    u = sp(m, SIDE_V, gens=[ev(m, 0)])
    f = flag_from_chain(m, SIDE_V, [u])
    g = flag_from_chain(m, SIDE_W, [sp(m, SIDE_W, EpSet.from_bound(1))])
    t = make_taut_couple(f, g)
    # alpha = (0, U): U pairs to zero with U^perp
    assert pair_order(t, 0, 0)
    # alpha = (U, V) does not pair to zero with U^perp
    assert not pair_order(t, 1, 0)
    # G'' = V* full pairs nontrivially with any nonzero F''
    assert not pair_order(t, 0, 1)
    assert pair_leq(t, 0, 1)  # same c-pair
    assert pair_leq(t, 0, 0)


def test_pair_order_monotone():
    m = plain_model()
    chain = [sp(m, SIDE_V, gens=[ev(m, 0)]), sp(m, SIDE_V, gens=[ev(m, 0), ev(m, 1)])]
    f = flag_from_chain(m, SIDE_V, chain)
    g_chain = [
        sp(m, SIDE_W, EpSet.from_bound(2)),
        sp(m, SIDE_W, EpSet.from_bound(1)),
    ]
    g = flag_from_chain(m, SIDE_W, g_chain)
    t = make_taut_couple(f, g)
    for beta in range(t.g_flag.n_pairs()):
        hits = [alpha for alpha in range(t.f_flag.n_pairs()) if pair_order(t, alpha, beta)]
        assert hits == list(range(len(hits)))  # downward closed in chain order
    for alpha in range(t.f_flag.n_pairs()):
        hits = [beta for beta in range(t.g_flag.n_pairs()) if pair_order(t, alpha, beta)]
        assert hits == list(range(len(hits)))  # downward closed in g-chain order


def test_fc_flag_collapses_dense_pair():
    m = dense_line_model()
    v_std = sp(m, SIDE_V, EpSet.naturals())
    f = flag_from_chain(m, SIDE_V, [v_std])
    fc = fc_flag(f)
    assert len(fc.chain) == 2
    assert fc.chain[0].is_zero() and fc.chain[1].is_full()
    assert classify_flag(fc).closed
    assert fc_flag(fc) == fc


def test_fc_flag_identity_on_closed():
    m = plain_model()
    f = flag_from_chain(m, SIDE_V, [sp(m, SIDE_V, EVENS)])
    assert fc_flag(f) == f
    triv = flag_from_chain(m, SIDE_V, [])
    assert fc_flag(triv) == triv


def test_collapsed_couple_in_dense_model():
    m = dense_line_model()
    v_std = sp(m, SIDE_V, EpSet.naturals())
    f = flag_from_chain(m, SIDE_V, [v_std])
    g = flag_from_chain(m, SIDE_W, [])
    t = make_taut_couple(f, g)
    tc = collapsed_couple(t)
    assert tc.f_flag.n_pairs() == 1
    assert classify_flag(tc.f_flag).closed


def test_self_taut_evens_split_form():
    m = split_form_model("symmetric")
    f = flag_from_chain(m, SIDE_V, [sp(m, SIDE_V, EVENS)])
    rep = self_taut_and_iso(f)
    assert rep.self_taut
    assert rep.tags == ("isotropic", "both", "coisotropic")
    assert rep.iso_bijection == ((0, 1),)


def test_self_taut_trivial():
    m = split_form_model("symmetric")
    f = flag_from_chain(m, SIDE_V, [])
    rep = self_taut_and_iso(f)
    assert rep.self_taut


def _split_form_pool(m):
    """Aligned subspaces of every residue set mod 4, and a few finite ones."""
    pool = [sp(m, SIDE_V, EpSet.from_residues(4, set(r)))
            for k in range(1, 4) for r in itertools.combinations(range(4), k)]
    pool += [sp(m, SIDE_V, gens=[ev(m, 0)]), sp(m, SIDE_V, gens=[ev(m, 0), ev(m, 2)]),
             sp(m, SIDE_V, gens=[add_vectors(ev(m, 0), ev(m, 1))]),
             sp(m, SIDE_V, gens=[ev(m, 0), ev(m, 1)]),
             sp(m, SIDE_V, EVENS.difference(EpSet.finite({0}))),
             sp(m, SIDE_V, EVENS.union(EpSet.finite({1}))),
             sp(m, SIDE_V, EpSet.from_residues(4, {0}).union(EpSet.finite({2})))]
    return pool


def test_self_taut_bijection_runs_onto_the_coisotropic_closed_pairs():
    # every flag with at most three inner members from the pool: on a
    # self-taut flag the isotropic closed pairs are matched one to one with
    # the closed pairs whose predecessor is coisotropic
    self_taut = matched = 0
    for kind in ("symmetric", "antisymmetric"):
        m = split_form_model(kind)
        pool = _split_form_pool(m)
        for size in (0, 1, 2, 3):
            for chain in itertools.combinations(pool, size):
                try:
                    f = flag_from_chain(m, SIDE_V, chain)
                except NotAChain:
                    continue
                rep = self_taut_and_iso(f)
                if not rep.self_taut:
                    continue
                closed = classify_flag(f).member_closed
                codomain = [
                    j for j in range(f.n_pairs())
                    if closed[j] and f.chain[j].contains(form_perp(f.chain[j]))
                ]
                assert sorted(j for _, j in rep.iso_bijection) == codomain, f
                self_taut += 1
                matched += bool(rep.iso_bijection)
    assert self_taut > 20 and matched > 20, (self_taut, matched)


def test_not_self_taut_line():
    m = split_form_model("symmetric")
    f = flag_from_chain(m, SIDE_V, [sp(m, SIDE_V, gens=[ev(m, 0)])])
    rep = self_taut_and_iso(f)
    assert not rep.self_taut


def test_refine_pair():
    m = plain_model()
    f = flag_from_chain(m, SIDE_V, [sp(m, SIDE_V, gens=[ev(m, 0), ev(m, 1)])])
    mid = sp(m, SIDE_V, gens=[ev(m, 0)])
    refined = flag_from_chain(m, SIDE_V, [*f.chain, mid])
    assert len(refined.chain) == 4 and refined.chain[1] == mid
    assert classify_flag(refined).semiclosed
    evens = sp(m, SIDE_V, EVENS)
    split = flag_from_chain(m, SIDE_V, [evens, sp(m, SIDE_V, EpSet.from_residues(4, (0,)))])
    assert classify_flag(split).semiclosed
    # e_5 lies outside the pair's successor: no refinement of the chain
    with pytest.raises(NotAChain):
        flag_from_chain(m, SIDE_V, [*f.chain, sp(m, SIDE_V, gens=[ev(m, 5)])])


def test_basis_order_flag_standard():
    m = plain_model()
    b = BasisOrderFlag(m, (Block(OMEGA_UP, indices=EpSet.naturals()),))
    assert b.is_maximal_closed()
    assert b.leq(0, 5) and not b.leq(5, 0)


def test_basis_order_flag_two_blocks():
    m = plain_model()
    b = BasisOrderFlag(
        m, (Block(OMEGA_UP, indices=EVENS), Block(OMEGA_UP, indices=ODDS))
    )
    assert b.is_maximal_closed()
    assert b.leq(0, 2) and b.leq(2, 1) and not b.leq(1, 2)


def test_basis_order_flag_fat_point_not_maximal():
    m = plain_model()
    b = BasisOrderFlag(
        m,
        (
            Block(FINITE, points=((0, 1),)),
            Block(OMEGA_UP, indices=EpSet.from_bound(2)),
        ),
    )
    assert not b.is_maximal_closed()
    assert b.leq(0, 1) and b.leq(1, 0)


def pairing_is_zero(a, b):
    """Exact decision of <a, b> = 0 for a in V and b in V*, by evaluating
    the pairing over one stabilization window: the decision `pair_order`
    made before it read chain positions, kept as its reference."""
    if a.side != SIDE_V or b.side != SIDE_W:
        raise SideMismatch("pairing_is_zero wants (V, V*) subspaces")
    model = a.model
    if not a.aligned.intersection(b.aligned).is_empty():
        return False
    for va in vectors(a):
        for wb in vectors(b):
            if pair(va, wb):
                return False
    rho = [aug.row for aug in model.v_augs]
    sigma = [aug.row for aug in model.w_augs]
    # corrections of a against the aligned part of b, and symmetrically;
    # the pairing against e_i / f_j is eventually periodic in the index
    for va in vectors(a):
        window = stabilization_window([b.aligned] + rho + [support_bound(va)])
        for j in b.aligned.members_below(window[0] + window[1]):
            val = va.basis.get(j, 0)
            for u, r in zip(va.augs, rho):
                val += u * r.value(j)
            if val:
                return False
    for wb in vectors(b):
        window = stabilization_window([a.aligned] + sigma + [support_bound(wb)])
        for i in a.aligned.members_below(window[0] + window[1]):
            val = wb.basis.get(i, 0)
            for d, r in zip(wb.augs, sigma):
                val += d * r.value(i)
            if val:
                return False
    return True


PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _membership_couples(seed):
    """The couples the `membership` benchmark workload builds at a seed."""
    if PERFBENCH not in sys.path:
        sys.path.insert(0, PERFBENCH)
    import membership

    rng = random.Random(f"membership:{seed}")
    return [membership.CoupleCase(*case, rng).couple for case in membership.COUPLES]


def test_pair_order_matches_the_pairing_reference():
    couples = [evens_couple(), trivial_couple(), augmented_couple()]
    couples += [random_plain_couple(random.Random(seed)) for seed in range(50)]
    for seed in (1, 2, 3):
        couples += _membership_couples(seed)
    couples += [collapsed_couple(t) for t in couples]
    seen = {True: 0, False: 0}
    for t in couples:
        for alpha in range(t.f_flag.n_pairs()):
            for beta in range(t.g_flag.n_pairs()):
                want = pairing_is_zero(t.f_flag.chain[alpha + 1], t.g_flag.chain[beta + 1])
                assert pair_order(t, alpha, beta) == want, (t, alpha, beta)
                seen[want] += 1
    assert min(seen.values()) > 100, seen


def test_pairing_is_zero():
    m = plain_model()
    evens = sp(m, SIDE_V, EVENS)
    odds_w = sp(m, SIDE_W, ODDS)
    evens_w = sp(m, SIDE_W, EVENS)
    assert pairing_is_zero(evens, odds_w)
    assert not pairing_is_zero(evens, evens_w)


# ---------------------------------------------------------------------------
# the rejections: pairs that are neither closed nor dense, couples not taut
# ---------------------------------------------------------------------------


def _neither_flag():
    """0 < span(e_i : i >= 1) < V in the dense-line model: the closure of the
    middle member adds v - e_0, so it is neither closed nor dense in V."""
    m = dense_line_model()
    return m, flag_from_chain(m, SIDE_V, [sp(m, SIDE_V, EpSet.from_bound(1))])


def test_neither_pair_is_not_semiclosed():
    m, f = _neither_flag()
    cls = classify_flag(f)
    assert cls.pair_closures == ("closed", "neither")
    assert cls.member_closed == (True, False, True)
    assert not (cls.semiclosed or cls.closed or cls.maximal_semiclosed)
    with pytest.raises(NotSemiclosed):
        fc_flag(f)
    with pytest.raises(NotSemiclosed):
        make_taut_couple(f, flag_from_chain(m, SIDE_W, []))
    # the trivial flag refined by the middle member is rejected as well
    trivial = flag_from_chain(m, SIDE_V, [])
    assert not classify_flag(flag_from_chain(m, SIDE_V, [*trivial.chain, f.chain[1]])).semiclosed


def test_member_closed_matches_closure():
    m = dense_line_model()
    v_std = sp(m, SIDE_V, EpSet.naturals())
    for chain in ([], [v_std], [sp(m, SIDE_V, gens=[ev(m, 0)]), v_std]):
        f = flag_from_chain(m, SIDE_V, chain)
        assert classify_flag(f).member_closed == tuple(closure(s) == s for s in f.chain)


def test_couple_of_evens_is_not_taut():
    m = plain_model()
    f = flag_from_chain(m, SIDE_V, [sp(m, SIDE_V, EVENS)])
    g_evens = flag_from_chain(m, SIDE_W, [sp(m, SIDE_W, EVENS)])
    with pytest.raises(NotTaut) as exc:
        make_taut_couple(f, g_evens)
    assert exc.value.witness == f.chain[1]  # its perp, the odds, is not in g
    g_odds = flag_from_chain(m, SIDE_W, [sp(m, SIDE_W, ODDS)])
    assert set(make_taut_couple(f, g_odds).c_pairs) == {(0, 1), (1, 0)}


def test_unmatched_closed_pair_of_g_is_not_taut():
    # g has the closed pair (evens, V*), which no pair of the trivial f
    # matches: the perp of its predecessor is missing from f
    m = plain_model()
    f = flag_from_chain(m, SIDE_V, [])
    g = flag_from_chain(m, SIDE_W, [sp(m, SIDE_W, EVENS)])
    assert classify_flag(g).member_closed == (True, True, True)
    with pytest.raises(NotTaut) as exc:
        make_taut_couple(f, g)
    assert exc.value.witness == g.chain[1]
