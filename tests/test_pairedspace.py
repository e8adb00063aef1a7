import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _corpus import (
    act_on_v,
    act_on_vstar,
    add_vectors,
    aug_vector,
    augmented_couple,
    basis_vector,
    evens_couple,
    form_to_v,
    form_to_vstar,
    member,
    pair,
    random_element,
    random_plain_couple,
    sample_nilradical,
    sample_pminus,
    sample_pplus,
    scale_vector,
    span,
    support_bound,
    trivial_couple,
    vectors,
)
from flagforge import pairedspace

from flagforge.coherence import truncate_model, truncate_subspace
from flagforge.epcore import EpSeq, EpSet
from flagforge.exactnum import Echelon, kernel
from flagforge.finitary import FinitaryElement, _maps_into
from flagforge.genflag import (
    classify_flag,
    collapsed_couple,
    fc_flag,
    make_taut_couple,
    quotient_basis,
)
from flagforge.serial import subspace_to_json
from flagforge.pairedspace import (
    SIDE_V,
    SIDE_W,
    Augmentation,
    ModelMismatch,
    NotRepresentable,
    PairedSpaceModel,
    SideMismatch,
    Subspace,
    Vector,
    closure,
    dense_line_model,
    form_perp,
    is_closed,
    pair_rows,
    perp,
    plain_model,
    split_form_model,
    validate_model,
)

F = Fraction
EVENS = EpSet.from_residues(2, (0,))
ODDS = EpSet.from_residues(2, (1,))


def ev(model, i):
    return basis_vector(model, SIDE_V, i)


def fw(model, j):
    return basis_vector(model, SIDE_W, j)


def test_validate_plain_model():
    assert validate_model(plain_model()).valid


def test_validate_dense_line_model():
    assert validate_model(dense_line_model()).valid


def test_validate_degenerate_duplicate_row():
    bad = PairedSpaceModel(
        v_augs=(Augmentation(EpSeq.make([1], [0])),), cross=((),)
    )
    report = validate_model(bad)
    assert not report.valid and report.radical_w.is_zero()
    witness = vectors(report.radical_v)[0]
    # the augmentation duplicates e_0, so aug - e_0 pairs to zero everywhere
    assert witness.augs == (F(1),)
    assert witness.basis == {0: F(-1)}


def test_pair_deltas():
    m = plain_model()
    for pairing in (pair, _pair_by_rows):
        assert pairing(ev(m, 3), fw(m, 3)) == 1
        assert pairing(ev(m, 3), fw(m, 4)) == 0


def test_pair_augmented_row_of_ones():
    m = dense_line_model()
    vtilde = aug_vector(m, SIDE_V, 0)
    for pairing in (pair, _pair_by_rows):
        assert pairing(vtilde, fw(m, 7)) == 1
        assert pairing(vtilde, fw(m, 0)) == 1


def _pair_by_rows(v, w):
    return pair_rows(v.model, v.to_sparse(), w.to_sparse())


PAIRING_MODELS = (
    plain_model(),
    dense_line_model(),
    # augmented on both sides, so the two augmentation parts meet through
    # the cross table
    PairedSpaceModel(
        v_augs=(Augmentation(EpSeq.constant(1)),),
        w_augs=(Augmentation(EpSeq.make([2], [1, 0])),),
        cross=((F(3),),),
    ),
    split_form_model("antisymmetric"),
)


@st.composite
def paired_vectors(draw):
    """A V vector and a V* vector of one model, augmentation parts included."""
    m = draw(st.sampled_from(PAIRING_MODELS))
    out = []
    for side in (SIDE_V, SIDE_W):
        n_aug = len(m.augs(side))
        basis = draw(st.dictionaries(st.integers(0, 7), st.integers(-3, 3), max_size=4))
        augs = draw(st.lists(st.integers(-2, 2), min_size=n_aug, max_size=n_aug))
        out.append(Vector(m, side, basis, augs))
    return out


@settings(max_examples=300, deadline=None)
@given(paired_vectors())
def test_row_pairing_matches_the_vector_reference(vw):
    v, w = vw
    assert pair_rows(v.model, v.to_sparse(), w.to_sparse()) == pair(v, w)


def test_pair_side_mismatch():
    m = plain_model()
    with pytest.raises(SideMismatch):
        pair(fw(m, 0), ev(m, 0))
    x = FinitaryElement(m, [(ev(m, 0), fw(m, 1))])
    with pytest.raises(SideMismatch):
        act_on_v(x, fw(m, 1))
    with pytest.raises(SideMismatch):
        act_on_vstar(x, ev(m, 0))


def test_act_on_a_vector_of_another_model():
    m = plain_model()
    x = FinitaryElement(m, [(ev(m, 0), fw(m, 1))])
    other = dense_line_model()
    with pytest.raises(ModelMismatch):
        act_on_v(x, ev(other, 1))
    with pytest.raises(ModelMismatch):
        act_on_vstar(x, fw(other, 0))


def test_sum_aligned_plus_correction():
    m = plain_model()
    total = span(m, SIDE_V, EVENS, [ev(m, 1)])
    # a single basis vector is absorbed into the aligned part
    assert total.aligned == EVENS.union(EpSet.finite({1}))
    assert vectors(total) == ()


def test_perp_single_vector():
    m = plain_model()
    line = span(m, SIDE_V, gens=[ev(m, 0)])
    ann = perp(line)
    assert ann == Subspace.span(m, SIDE_W, EpSet.from_bound(1))


def test_perp_full_and_zero():
    m = plain_model()
    assert perp(Subspace.full(m, SIDE_V)).is_zero()
    assert perp(Subspace.zero(m, SIDE_V)) == Subspace.full(m, SIDE_W)


def test_perp_dense_subspace_in_augmented_model():
    m = dense_line_model()
    v_std = Subspace.span(m, SIDE_V, EpSet.naturals())
    assert perp(v_std).is_zero()
    # closure picks up the augmentation line: V is dense in the model
    assert closure(v_std) == Subspace.full(m, SIDE_V)
    assert not is_closed(v_std)


def test_member_queries():
    m = plain_model()
    evens = Subspace.span(m, SIDE_V, EVENS)
    assert member(evens, ev(m, 4))
    assert not member(evens, ev(m, 1))
    two = span(m, SIDE_V, gens=[ev(m, 0), ev(m, 1)])
    assert member(two, add_vectors(ev(m, 0), ev(m, 1)))


def test_aug_not_in_standard_span():
    m = dense_line_model()
    v_std = Subspace.span(m, SIDE_V, EpSet.naturals())
    vtilde = aug_vector(m, SIDE_V, 0)
    assert not member(v_std, vtilde)
    assert member(Subspace.full(m, SIDE_V), vtilde)


def test_perp_not_representable():
    m = dense_line_model()
    aug_line = span(
        m, SIDE_V, gens=[aug_vector(m, SIDE_V, 0)]
    )
    with pytest.raises(NotRepresentable):
        perp(aug_line)


def test_closure_plain_model_closed():
    m = plain_model()
    evens = Subspace.span(m, SIDE_V, EVENS)
    assert closure(evens) == evens
    assert is_closed(evens)
    assert closure(Subspace.zero(m, SIDE_V)).is_zero()


def _random_subspace(m, rng, side=SIDE_V):
    period = rng.choice([1, 2, 3, 4])
    residues = {r for r in range(period) if rng.random() < 0.5}
    aligned = EpSet.from_residues(period, residues)
    gens = []
    for _ in range(rng.randrange(3)):
        basis = {rng.randrange(8): F(rng.randrange(-3, 4)) for _ in range(3)}
        gens.append(Vector(m, side, basis))
    return span(m, side, aligned, gens)


def test_perp_laws_randomized():
    rng = random.Random(7)
    for model in (plain_model(), dense_line_model()):
        for _ in range(25):
            a = _random_subspace(model, rng)
            pa = perp(a)
            ppa = perp(pa)
            assert perp(ppa) == pa  # triple perp law
            assert ppa.contains(a)  # closure contains
            assert closure(ppa) == ppa  # idempotent
            b = _random_subspace(model, rng)
            if b.contains(a):
                assert perp(a).contains(perp(b))  # inclusion reversing


def test_plain_model_everything_closed():
    rng = random.Random(13)
    m = plain_model()
    for _ in range(25):
        a = _random_subspace(m, rng)
        assert is_closed(a)


def test_truncate_plain_model():
    tm = truncate_model(plain_model(), 3)
    # the identity pairing, as rows and as columns
    assert tm.dim == {SIDE_V: 3, SIDE_W: 3}
    assert tm.pairing[SIDE_V] == [{0: 1}, {1: 1}, {2: 1}] == tm.pairing[SIDE_W]
    assert tm.radical == {SIDE_V: [], SIDE_W: []}


def test_truncate_augmented_model():
    tm = truncate_model(dense_line_model(), 2)
    # the dense pairing [[1, 0], [0, 1], [1, 1]]: e_0, e_1, then the aug row
    assert tm.pairing[SIDE_V] == [{0: 1}, {1: 1}, {0: 1, 1: 1}]
    assert tm.pairing[SIDE_W] == [{0: 1, 2: 1}, {1: 1, 2: 1}]
    # one radical vector on the V side at every truncation level
    assert tm.radical == {SIDE_V: [{0: -1, 1: -1, 2: 1}], SIDE_W: []}


def test_truncate_subspace():
    m = plain_model()
    evens = Subspace.span(m, SIDE_V, EVENS)
    ech = truncate_subspace(evens, 5)
    assert ech.pivots == [0, 2, 4]
    assert ech.rows() == [{0: 1}, {2: 1}, {4: 1}]


def test_truncation_coherence_perp():
    for m in (plain_model(), dense_line_model()):
        rng = random.Random(5)
        for _ in range(10):
            a = _random_subspace(m, rng)
            try:
                pa = perp(a)
            except NotRepresentable:
                continue
            for n in _window_levels(m, a):
                tm = truncate_model(m, n)
                fin = Echelon(_finite_perp(tm, truncate_subspace(a, n)))
                ours = truncate_subspace(pa, n)
                for r in tm.radical[SIDE_W]:
                    ours.add(r)
                assert fin.rows() == ours.rows()


def _window_levels(m, a):
    from flagforge.epcore import stabilization_window

    objs = [a.aligned]
    objs += [aug.row for aug in m.v_augs] + [aug.row for aug in m.w_augs]
    support = max(map(support_bound, vectors(a)), default=0)
    n_star, p_star = stabilization_window(objs)
    base = max(n_star, support, 1)
    return [base, base + p_star, base + 2 * p_star]


def _finite_perp(tm, ech):
    """The functionals that pair to zero with every row of ech."""
    eqs = []
    for r in ech.rows():
        eq = {}
        for i, c in r.items():
            for j, p in tm.pairing[SIDE_V][i].items():
                eq[j] = eq.get(j, 0) + c * p
        eqs.append(eq)
    return kernel(eqs, tm.dim[SIDE_W])


def test_form_maps_split_symmetric():
    m = split_form_model("symmetric")
    assert form_to_vstar(ev(m, 0)) == fw(m, 1)
    assert form_to_v(fw(m, 1)) == ev(m, 0)
    assert pair(ev(m, 0), form_to_vstar(ev(m, 1))) == 1
    assert pair(ev(m, 1), form_to_vstar(ev(m, 0))) == 1
    assert pair(ev(m, 0), form_to_vstar(ev(m, 0))) == 0


def test_form_maps_split_antisymmetric():
    m = split_form_model("antisymmetric")
    assert pair(ev(m, 0), form_to_vstar(ev(m, 1))) == 1
    assert pair(ev(m, 1), form_to_vstar(ev(m, 0))) == -1
    x = add_vectors(ev(m, 2), scale_vector(ev(m, 5), 3))
    y = add_vectors(ev(m, 4), scale_vector(ev(m, 3), -1))
    assert pair(x, form_to_vstar(y)) == -pair(y, form_to_vstar(x))


def test_form_map_of_corrections_matches_the_vector_reference():
    rng = random.Random(31)
    for kind in ("symmetric", "antisymmetric"):
        m = split_form_model(kind)
        seen = 0
        for _ in range(40):
            a = _random_subspace(m, rng)
            image = pairedspace.form_map_subspace(a)
            want = span(m, SIDE_W, image.aligned, [form_to_vstar(c) for c in vectors(a)])
            assert image == want
            seen += bool(a.corrections)
        assert seen >= 5


def test_form_perp_isotropic_evens():
    m = split_form_model("symmetric")
    evens = Subspace.span(m, SIDE_V, EVENS)
    assert form_perp(evens) == evens
    line = span(m, SIDE_V, gens=[ev(m, 0)])
    ann = form_perp(line)
    # e_0 pairs only with e_1 under iota(0) = 1
    assert ann == Subspace.span(
        m, SIDE_V, EpSet.naturals().difference(EpSet.finite({1}))
    )


# --- the annihilator cached on the subspace ----------------------------------

MEMO_MODELS = (plain_model(), dense_line_model(), split_form_model("symmetric"))
# every (model, side); the V side of the dense-line model, the only one whose
# corrections carry augmentation coordinates, is drawn four times as often
MEMO_CASES = [(m, side) for m in MEMO_MODELS for side in (SIDE_V, SIDE_W)]
MEMO_CASES += [(MEMO_MODELS[1], SIDE_V)] * 3


@st.composite
def model_subspaces(draw):
    """A random subspace of the plain, dense-line or split-form model; on the
    V side of the dense-line model every correction carries the
    augmentation coordinate."""
    m, side = draw(st.sampled_from(MEMO_CASES))
    period = draw(st.integers(1, 4))
    residues = draw(st.sets(st.integers(0, period - 1)))
    threshold = draw(st.integers(0, 3))
    pre = draw(st.sets(st.integers(0, 2)))
    n_aug = len(m.augs(side))
    gens = draw(st.lists(
        st.tuples(
            st.dictionaries(st.integers(0, 7), st.integers(-3, 3), max_size=3),
            st.lists(st.sampled_from([-2, -1, 1, 2]), min_size=n_aug, max_size=n_aug),
        ),
        max_size=3,
    ))
    aligned = EpSet.from_residues(period, residues, threshold=threshold, pre=pre)
    return span(m, side, aligned, [Vector(m, side, b, a) for b, a in gens])


def _fresh(a):
    return Subspace(a.model, a.side, a.aligned, Echelon(a.corrections))


@settings(max_examples=200, deadline=None)
@given(model_subspaces())
def test_cached_perp_and_closure_match_fresh_copies(a):
    try:
        want = pairedspace._annihilator(_fresh(a))
    except NotRepresentable:
        with pytest.raises(NotRepresentable):
            perp(a)
        return
    assert perp(a) == want
    assert perp(a) is perp(a)
    try:
        want_closure = pairedspace._annihilator(_fresh(want))
    except NotRepresentable:
        with pytest.raises(NotRepresentable):
            closure(a)
        return
    assert closure(a) == want_closure
    assert closure(a) == closure(_fresh(a))


def test_second_perp_is_the_same_object():
    m = dense_line_model()
    a = span(m, SIDE_V, EVENS, [Vector(m, SIDE_V, {1: 1, 3: 2})])
    first = perp(a)
    assert perp(a) is first
    assert closure(a) is perp(first)


def test_cache_leaves_equality_and_hash_alone():
    m = plain_model()
    a = span(m, SIDE_V, EVENS, [add_vectors(ev(m, 1), ev(m, 3))])
    twin = _fresh(a)
    before = hash(a)
    closure(a)
    assert a._perp is not None and twin._perp is None
    assert hash(a) == before == hash(twin)
    assert a == twin and twin == a
    assert len({a, twin}) == 1


def test_not_representable_raises_on_every_call():
    m = dense_line_model()
    aug_line = span(m, SIDE_V, gens=[aug_vector(m, SIDE_V, 0)])
    for _ in range(3):
        with pytest.raises(NotRepresentable):
            perp(aug_line)
        assert aug_line._perp is None


@settings(max_examples=200, deadline=None)
@given(model_subspaces())
def test_perp_from_the_model_table_matches_a_fresh_annihilator(a):
    # perp of an equal subspace built later is answered from the model's
    # table (the same object comes back) and equals a fresh computation
    key = a._key()
    try:
        want = pairedspace._annihilator(_fresh(a))
    except NotRepresentable:
        for s in (a, _fresh(a), a):
            with pytest.raises(NotRepresentable):
                perp(s)
            assert s._perp is None
        assert key not in a.model._perps
        return
    got = perp(a)
    assert a.model._perps[key] is got
    assert perp(_fresh(a)) is got
    assert got == want


# --- the annihilator against the hand elimination it replaced -----------------


def _old_annihilator(a):
    """The annihilator as computed before one equation system decided it:
    the coordinates y_i for i in the aligned set below the cut are
    substituted by hand (y_i = -sum_k d_k <e_i, g_k>), the kernel runs over
    the remaining free columns, and the substituted coordinates are rebuilt
    from d.  The reference for `pairedspace._annihilator`."""
    from flagforge.epcore import stabilization_window
    from flagforge.exactnum import kernel

    model = a.model
    out_side = pairedspace.other_side(a.side)
    out_rows = [aug.row for aug in model.augs(out_side)]
    in_rows = [aug.row for aug in model.augs(a.side)]

    def cross_val(out_idx, in_idx):
        if out_side == SIDE_V:
            return model.cross_value(out_idx, in_idx)
        return model.cross_value(in_idx, out_idx)

    s = a.aligned
    corr = [(c.to_sparse(), c.augs) for c in vectors(a)]
    support = max(map(support_bound, vectors(a)), default=0)
    n_star, p_star = stabilization_window([s] + out_rows + in_rows)
    cut = max(n_star, support)
    for r in range(p_star):
        j = cut + ((r - cut) % p_star)
        if not s.member(j):
            for _, u in corr:
                if sum((uk * row.value(j) for uk, row in zip(u, in_rows)), F(0)):
                    raise NotRepresentable("not an aligned-plus-corrections subspace")

    n_out = len(out_rows)
    free_cols = [j for j in range(cut) if not s.member(j)]
    col_of = {j: n_out + idx for idx, j in enumerate(free_cols)}
    width = n_out + len(free_cols)
    eqs = []
    for i in range(cut, cut + p_star):
        if s.member(i):
            eqs.append({k: out_rows[k].value(i) for k in range(n_out)})
    s_below = s.members_below(cut)
    for x, u in corr:
        row = {}
        for k in range(n_out):
            acc = F(0)
            for (tag, j), xv in x.items():
                if tag == 1:
                    acc += xv * out_rows[k].value(j)
            for l, ul in enumerate(u):
                if ul:
                    acc += ul * cross_val(k, l)
            if u and any(u):
                for j in s_below:
                    tau = sum((ul * in_rows[l].value(j) for l, ul in enumerate(u)), F(0))
                    if tau:
                        acc -= tau * out_rows[k].value(j)
            row[k] = acc
        for j in free_cols:
            val = x.get((1, j), F(0))
            val += sum((ul * in_rows[l].value(j) for l, ul in enumerate(u)), F(0))
            row[col_of[j]] = val
        eqs.append(row)

    gens = []
    for z in kernel(eqs, width):
        d = tuple(z.get(k, F(0)) for k in range(n_out))
        basis = {j: z[col_of[j]] for j in free_cols if col_of[j] in z}
        for j in s_below:
            val = -sum((dk * out_rows[k].value(j) for k, dk in enumerate(d)), F(0))
            if val:
                basis[j] = val
        gens.append(Vector(model, out_side, basis, d))
    tail = s.complement().intersection(EpSet.from_bound(cut))
    return span(model, out_side, tail, gens)


def _same_annihilator(a):
    """`_annihilator` equals the old elimination on a, or both raise
    NotRepresentable; returns whether it raised."""
    try:
        want = _old_annihilator(a)
    except NotRepresentable:
        with pytest.raises(NotRepresentable):
            pairedspace._annihilator(_fresh(a))
        return True
    assert pairedspace._annihilator(_fresh(a)) == want, (a, a.corrections)
    return False


@settings(max_examples=300, deadline=None)
@given(model_subspaces())
def test_annihilator_matches_the_old_elimination(a):
    _same_annihilator(a)


def _cross_model():
    """h in V pairs to 1 with the f_j of even j, g in V* to 1 with the e_i
    of odd i, and <h, g> = 3."""
    return PairedSpaceModel(
        v_augs=(Augmentation(EpSeq.make([], [1, 0])),),
        w_augs=(Augmentation(EpSeq.make([], [0, 1])),),
        cross=((F(3),),),
    )


def test_cross_value_enters_the_annihilator():
    # a = span(e_i : i even, h + e_1).  For y = sum y_j f_j + d g, the e_i
    # force y_i = 0 for even i, so <h + e_1, y> = 3 d + y_1 + d
    m = _cross_model()
    a = span(m, SIDE_V, EVENS, [Vector(m, SIDE_V, {1: 1}, (1,))])
    want = span(m, SIDE_W, ODDS.difference(EpSet.finite({1})),
                [Vector(m, SIDE_W, {1: -4}, (1,))])
    assert pairedspace._annihilator(a) == want == _old_annihilator(a)


def test_annihilator_matches_the_old_elimination_on_two_sided_models():
    from test_coherence import two_sided_model

    rng = random.Random(19)
    # rows that vanish on every other index let a V* augmentation survive
    # on an aligned set that a V augmentation's tail needs, so the cross
    # value enters the annihilator
    seqs = [EpSeq.constant(1), EpSeq.make([], [1, 0]), EpSeq.make([], [0, 1]),
            EpSeq.make([0], [1, -1]), EpSeq.make([1, 0], [0, 1, 1])]
    models = [two_sided_model(), _cross_model()] + [
        PairedSpaceModel(
            v_augs=(Augmentation(rng.choice(seqs)),),
            w_augs=(Augmentation(rng.choice(seqs)),),
            cross=((F(rng.randrange(-2, 4)),),),
        )
        for _ in range(12)
    ]
    raised = kept = 0
    for m in models:
        for side in (SIDE_V, SIDE_W):
            for _ in range(15):
                period = rng.randrange(1, 4)
                residues = {r for r in range(period) if rng.random() < 0.5}
                aligned = EpSet.from_residues(period, residues, threshold=rng.randrange(3))
                gens = [
                    Vector(m, side, {rng.randrange(6): rng.randrange(-2, 3) for _ in range(2)},
                           (rng.randrange(-1, 2),))
                    for _ in range(rng.randrange(3))
                ]
                a = span(m, side, aligned, gens)
                if _same_annihilator(a):
                    raised += 1
                else:
                    kept += 1
    assert raised and kept > raised


# --- the correction rows are shared ------------------------------------------


def _shared_row_couples():
    """The couples whose chains or perps carry corrections."""
    from test_maps_into import _corrected_couples

    return [augmented_couple()] + _corrected_couples()


SHARED_ROW_COUPLES = _shared_row_couples()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(range(len(SHARED_ROW_COUPLES))), st.integers(0, 2**16))
def test_readers_leave_the_shared_correction_rows_alone(index, seed):
    # `corrections` hands out the echelon's own dicts: every reader of them
    # must leave them as they were
    t = SHARED_ROW_COUPLES[index]
    members = t.f_flag.chain + t.g_flag.chain
    members += tuple(perp(s) for s in members)
    before = [[dict(c) for c in s.corrections] for s in members]
    assert any(before)
    rng = random.Random(seed)
    elements = [
        sample_pplus(t, rng), sample_nilradical(t, rng), sample_pminus(t, rng),
        random_element(t.model, rng),
    ]
    for flag in (t.f_flag, t.g_flag):
        for pred, succ in flag.pairs:
            quotient_basis(pred, succ)
            for x in elements:
                _maps_into(x, succ, pred)
                _maps_into(x, succ, succ)
    for s in members:
        perp(perp(s))
        subspace_to_json(s)
    assert [[dict(c) for c in s.corrections] for s in members] == before


def _count_annihilators(monkeypatch):
    """Route every uncached annihilator through a counter keyed by the
    subspace object; the subspaces are kept alive so no id is reused."""
    asked = []
    inner = pairedspace._annihilator

    def counted(a):
        asked.append(a)
        return inner(a)

    monkeypatch.setattr(pairedspace, "_annihilator", counted)
    return asked


@pytest.mark.parametrize("build", [
    augmented_couple,
    *(lambda seed=seed: random_plain_couple(random.Random(seed)) for seed in range(4)),
])
def test_genflag_computes_each_annihilator_once(monkeypatch, build):
    asked = _count_annihilators(monkeypatch)
    t = build()
    for flag in (t.f_flag, t.g_flag):
        classify_flag(flag)
    t = make_taut_couple(t.f_flag, t.g_flag)
    collapsed_couple(t)
    counts = {}
    for a in asked:
        counts[id(a)] = counts.get(id(a), 0) + 1
    assert asked and max(counts.values()) == 1
    # asking again reuses every annihilator already on the chains
    done = len(asked)
    classify_flag(t.f_flag)
    make_taut_couple(t.f_flag, t.g_flag)
    assert len(asked) == done


# classify_flag of f and g (semiclosed, closed, maximal semiclosed, pair
# kinds, positions fc_flag keeps), then c_pairs of the couple and of its
# collapse, as the uncached implementation computed them
CORPUS_OUTPUTS = {
    "evens": (
        (True, True, False, ("closed", "closed"), (0, 1, 2)),
        (True, True, False, ("closed", "closed"), (0, 1, 2)),
        ((0, 1), (1, 0)),
        ((0, 1), (1, 0)),
    ),
    "trivial": (
        (True, True, False, ("closed",), (0, 1)),
        (True, True, False, ("closed",), (0, 1)),
        ((0, 0),),
        ((0, 0),),
    ),
    "augmented": (
        (True, False, False, ("closed", "dense"), (0, 2)),
        (True, True, False, ("closed",), (0, 1)),
        ((0, 0),),
        ((0, 0),),
    ),
    "random0": (
        (True, True, False, ("closed", "closed", "closed"), (0, 1, 2, 3)),
        (True, True, False, ("closed", "closed", "closed"), (0, 1, 2, 3)),
        ((0, 2), (1, 1), (2, 0)),
        ((0, 2), (1, 1), (2, 0)),
    ),
    "random5": (
        (True, True, False, ("closed",) * 4, (0, 1, 2, 3, 4)),
        (True, True, False, ("closed",) * 4, (0, 1, 2, 3, 4)),
        ((0, 3), (1, 2), (2, 1), (3, 0)),
        ((0, 3), (1, 2), (2, 1), (3, 0)),
    ),
}


def test_genflag_outputs_on_corpus_couples():
    couples = {
        "evens": evens_couple(),
        "trivial": trivial_couple(),
        "augmented": augmented_couple(),
        "random0": random_plain_couple(random.Random(0)),
        "random5": random_plain_couple(random.Random(5)),
    }
    for name, t in couples.items():
        got = []
        for f in (t.f_flag, t.g_flag):
            c = classify_flag(f)
            kept = tuple(f.chain.index(s) for s in fc_flag(f).chain)
            got.append((c.semiclosed, c.closed, c.maximal_semiclosed, c.pair_closures, kept))
        again = make_taut_couple(t.f_flag, t.g_flag)
        got += [again.c_pairs, collapsed_couple(again).c_pairs]
        assert tuple(got) == CORPUS_OUTPUTS[name], name
