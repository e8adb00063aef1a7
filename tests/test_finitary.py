import math
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
    block_terms,
    evens_couple,
    flip,
    is_zero_vector,
    matrix_trace,
    member,
    random_element,
    random_plain_couple,
    rank_one,
    residue,
    sample_nilradical,
    sample_pminus,
    sample_pplus,
    scale_vector,
    span,
    trivial_couple,
    vectors,
)
from flagforge.coherence import truncate_element
from flagforge.epcore import EpSet
from flagforge.exactnum import Matrix
from flagforge.finitary import (
    FinitaryElement,
    NotInJointStabilizer,
    WrongFormKind,
    block_trace,
    in_algebra_of_form,
    in_joint_stabilizer,
    in_nilradical,
    in_pminus,
    in_so_sp_stabilizer_minus,
    in_stabilizer,
    perp_parabolic_member,
    self_taut_couple,
    TraceConditionSubalgebra,
)
from flagforge.genflag import (
    OMEGA_UP,
    BasisOrderFlag,
    Block,
    flag_from_chain,
    pair_leq,
    quotient_basis,
)
from flagforge.pairedspace import (
    SIDE_V,
    SIDE_W,
    IotaPiece,
    PairedSpaceModel,
    Subspace,
    Vector,
    dense_line_model,
    plain_model,
    split_form_model,
)

F = Fraction
EVENS = EpSet.from_residues(2, (0,))


def ev(m, i):
    return basis_vector(m, SIDE_V, i)


def fw(m, j):
    return basis_vector(m, SIDE_W, j)


def r1(m, i, j):
    return rank_one(ev(m, i), fw(m, j))


def block_matrix(x, t, gamma):
    """Reference for `block_trace` on a finite block: the matrix of the
    operator x induces on F''/F', over the echelon basis of the quotient."""
    f_pred, f_succ = t.f_pair(t.c_pairs[gamma][0])
    quotient = quotient_basis(f_pred, f_succ)
    assert quotient is not None, "the block is infinite-dimensional"
    cols = []
    for row in quotient.rows():
        image = act_on_v(x, Vector.from_sparse(x.model, SIDE_V, row))
        image = Vector.from_sparse(x.model, SIDE_V, residue(f_pred, image))
        coords = quotient.coords(image.to_sparse())
        assert coords is not None, "the image left the block"
        cols.append(coords)
    return Matrix(list(zip(*cols))) if cols else Matrix([])


def test_trace_rank_one():
    m = plain_model()
    assert r1(m, 0, 0).trace() == 1
    assert r1(m, 0, 1).trace() == 0


def test_bracket_gl2_identity():
    m = plain_model()
    b = r1(m, 0, 1).bracket(r1(m, 1, 0))
    assert b == r1(m, 0, 0).sub(r1(m, 1, 1))


def test_rank_one_action():
    m = plain_model()
    assert act_on_v(r1(m, 0, 1), ev(m, 1)) == ev(m, 0)
    assert is_zero_vector(act_on_v(r1(m, 0, 1), ev(m, 0)))
    # dual action carries the minus sign
    assert act_on_vstar(r1(m, 0, 1), fw(m, 0)) == scale_vector(fw(m, 1), -1)


def test_canonicalization_merges_terms():
    m = plain_model()
    x = FinitaryElement(m, [(ev(m, 0), fw(m, 0)), (ev(m, 1), fw(m, 0))])
    y = FinitaryElement(m, [(add_vectors(ev(m, 0), ev(m, 1)), fw(m, 0))])
    assert x == y
    assert x.sub(y).is_zero()
    z = FinitaryElement(m, [(ev(m, 0), fw(m, 0)), (ev(m, 0), scale_vector(fw(m, 0), -1))])
    assert z.is_zero()


def _evens_flag(m):
    return flag_from_chain(m, SIDE_V, [Subspace.span(m, SIDE_V, EVENS)])


def test_in_stabilizer_evens_flag():
    m = plain_model()
    f = _evens_flag(m)
    assert in_stabilizer(r1(m, 0, 1), f)  # kills evens, e_0 lands inside
    assert not in_stabilizer(r1(m, 1, 0), f)  # sends e_0 to e_1
    assert in_stabilizer(FinitaryElement(m), f)


def test_in_stabilizer_basis_order_flag():
    m = plain_model()
    flag = BasisOrderFlag(m, (Block(OMEGA_UP, indices=EpSet.naturals()),))
    assert in_stabilizer(r1(m, 0, 1), flag)
    assert in_stabilizer(r1(m, 2, 2), flag)
    assert not in_stabilizer(r1(m, 3, 1), flag)


def test_joint_stabilizer_trivial_couple_is_everything():
    m = plain_model()
    t = trivial_couple(m)
    assert in_joint_stabilizer(r1(m, 0, 0), t)
    rng = random.Random(0)
    for _ in range(10):
        assert in_joint_stabilizer(random_element(m, rng), t)


def test_joint_stabilizer_evens_couple():
    t = evens_couple()
    m = t.model
    assert not in_joint_stabilizer(r1(m, 1, 0), t)
    assert in_joint_stabilizer(r1(m, 0, 1), t)


def test_nilradical_evens_couple():
    t = evens_couple()
    m = t.model
    assert in_nilradical(r1(m, 0, 1), t)  # evens (x) evens-perp
    assert not in_nilradical(r1(m, 0, 0), t)  # block-diagonal part
    assert in_nilradical(FinitaryElement(m), t)


def test_block_trace_evens():
    t = evens_couple()
    m = t.model
    gamma_evens = t.c_pairs.index((0, 1))
    assert block_trace(r1(m, 0, 0), t, gamma_evens) == 1
    gamma_odds = t.c_pairs.index((1, 0))
    assert block_trace(r1(m, 0, 0), t, gamma_odds) == 0


def test_block_gamma_outside_the_c_pairs_is_rejected():
    t = evens_couple()
    m = t.model
    k = len(t.c_pairs)
    x = r1(m, 0, 0)
    for gamma in (-1, -k, k):
        with pytest.raises(ValueError, match=f"0..{k - 1}"):
            block_trace(x, t, gamma)


def test_block_component_zero_on_nilradical():
    rng = random.Random(3)
    t = evens_couple()
    for _ in range(20):
        x = sample_nilradical(t, rng)
        for gamma in range(len(t.c_pairs)):
            assert block_trace(x, t, gamma) == 0
            assert all(
                is_zero_vector(v) or is_zero_vector(w) for v, w in block_terms(x, t, gamma)
            )


def test_block_component_needs_joint_membership():
    t = evens_couple()
    with pytest.raises(NotInJointStabilizer):
        block_trace(r1(t.model, 1, 0), t, 0)


def test_block_trace_diagonal_sum():
    m = plain_model()
    t = trivial_couple(m)
    x = FinitaryElement(m, [(ev(m, i), fw(m, i)) for i in range(4)])
    assert block_trace(x, t, 0) == 4


def test_block_matrix_finite_block():
    m = plain_model()
    chain = [
        span(m, SIDE_V, gens=[ev(m, 0), ev(m, 1)]),
    ]
    f = flag_from_chain(m, SIDE_V, chain)
    from flagforge.genflag import make_taut_couple
    from flagforge.pairedspace import perp

    g = flag_from_chain(m, SIDE_W, [perp(s) for s in f.chain])
    t = make_taut_couple(f, g)
    gamma = next(
        i for i, (fi, _) in enumerate(t.c_pairs) if fi == 0
    )
    x = FinitaryElement(m, [(ev(m, 0), fw(m, 1)), (ev(m, 1), fw(m, 1))])
    mat = block_matrix(x, t, gamma)
    assert mat.rows == 2 and mat.cols == 2
    assert matrix_trace(mat) == block_trace(x, t, gamma)


def test_in_pminus_sl_infinity():
    m = plain_model()
    t = trivial_couple(m)
    traceless = r1(m, 0, 0).sub(r1(m, 1, 1))
    assert in_pminus(traceless, t)
    assert not in_pminus(r1(m, 0, 0), t)
    assert in_pminus(r1(m, 0, 1), t)  # nilpotent rank one is traceless


def test_pminus_nilradical_in_pminus():
    t = evens_couple()
    assert in_pminus(r1(t.model, 0, 1), t)


def test_sandwich_random():
    rng = random.Random(11)
    for t in (evens_couple(), trivial_couple(), augmented_couple()):
        for _ in range(30):
            x = sample_nilradical(t, rng)
            assert in_nilradical(x, t)
            assert in_pminus(x, t)
            assert in_joint_stabilizer(x, t)
            y = sample_pminus(t, rng)
            assert in_pminus(y, t)
            assert in_joint_stabilizer(y, t)
            z = sample_pplus(t, rng)
            assert in_joint_stabilizer(z, t)


def _outside(succ, pred, bound=40):
    """A vector of succ outside pred: a basis vector or correction of succ."""
    cands = [
        basis_vector(succ.model, succ.side, i) for i in succ.aligned.members_below(bound)
    ]
    return next(v for v in cands + list(vectors(succ)) if not member(pred, v))


def test_pplus_tensor_description_both_directions():
    # p+ = sum of F''_a (x) G''_b over a <= b: a rank-one v (x) w with
    # v in F''_a \ F'_a and w in G''_b \ G'_b stabilizes both flags exactly
    # when a <= b
    couples = [random_plain_couple(random.Random(seed)) for seed in range(30)]
    verdicts = []
    for t in couples + [evens_couple()]:
        f, g = t.f_flag.chain, t.g_flag.chain
        vs = [_outside(f[a + 1], f[a]) for a in range(t.f_flag.n_pairs())]
        ws = [_outside(g[b + 1], g[b]) for b in range(t.g_flag.n_pairs())]
        for a, v in enumerate(vs):
            for b, w in enumerate(ws):
                leq = pair_leq(t, a, b)
                assert in_joint_stabilizer(rank_one(v, w), t) == leq, (t, a, b)
                verdicts.append(leq)
    assert any(verdicts) and not all(verdicts)


def test_bracket_closure_into_pminus():
    rng = random.Random(5)
    for t in (evens_couple(), trivial_couple()):
        for _ in range(15):
            x = sample_pplus(t, rng)
            y = sample_pplus(t, rng)
            assert in_pminus(x.bracket(y), t)


def test_trace_form_orthogonality():
    rng = random.Random(23)
    t = evens_couple()
    for _ in range(25):
        x = sample_pplus(t, rng)
        y = sample_nilradical(t, rng)
        assert FinitaryElement._of(x.model, x._product_rows(y)).trace() == 0  # tr(x y)


def test_tc_member_empty_constraints():
    t = evens_couple()
    s = TraceConditionSubalgebra(t, "gl", [])
    rng = random.Random(2)
    for _ in range(10):
        x = sample_pplus(t, rng)
        assert s.member(x) == in_joint_stabilizer(x, t)


def test_tc_member_all_traces_zero():
    t = evens_couple()
    rows = [
        [1 if g == idx else 0 for g in range(len(t.c_pairs))]
        for idx in range(len(t.c_pairs))
    ]
    s = TraceConditionSubalgebra(t, "gl", rows)
    rng = random.Random(4)
    for _ in range(15):
        x = sample_pplus(t, rng)
        assert s.member(x) == in_pminus(x, t)


def test_tc_member_validation():
    rng = random.Random(9)
    t = random_plain_couple(rng)
    finite_blocks = [
        g
        for g, (fi, _) in enumerate(t.c_pairs)
        if __import__("math").isfinite(
            __import__("flagforge.genflag", fromlist=["quotient_dim"]).quotient_dim(
                *t.f_pair(fi)
            )
        )
    ]
    if finite_blocks:
        row = [1 if g == finite_blocks[0] else 0 for g in range(len(t.c_pairs))]
        with pytest.raises(ValueError):
            TraceConditionSubalgebra(t, "gl", [row])


def test_quotient_dims_computed_once_per_pair_per_couple(monkeypatch):
    from flagforge import genflag

    calls = []
    real = genflag.quotient_dim

    def counting(pred, succ):
        calls.append((id(pred), id(succ)))
        return real(pred, succ)

    rng = random.Random(3)
    couples = [evens_couple(), trivial_couple(), augmented_couple()]
    couples += [random_plain_couple(random.Random(seed)) for seed in range(4)]
    monkeypatch.setattr(genflag, "quotient_dim", counting)
    for t in couples:
        calls.clear()
        s = TraceConditionSubalgebra(t, "gl", [])
        for _ in range(6):
            for ambient in ("gl", "sl"):
                x = sample_pminus(t, rng, ambient)
                assert in_pminus(x, t, ambient) and s.member(x)
                for gamma, (fi, _) in enumerate(t.c_pairs):
                    if t.f_quotient_dim(fi) != math.inf:
                        assert matrix_trace(block_matrix(x, t, gamma)) == block_trace(x, t, gamma)
        assert calls and len(calls) == len(set(calls)) <= t.f_flag.n_pairs()


def test_sampling_a_built_couple_asks_no_annihilator(monkeypatch):
    # the pair order is read off chain positions kept on the couple, so once
    # the couple is built no sampler asks perp anything
    from flagforge import genflag, pairedspace

    calls = []
    real = pairedspace.perp

    def counting(a):
        calls.append(a)
        return real(a)

    rng = random.Random(5)
    couples = [evens_couple(), augmented_couple(), random_plain_couple(random.Random(2))]
    monkeypatch.setattr(pairedspace, "perp", counting)
    monkeypatch.setattr(genflag, "perp", counting)
    for t in couples:
        for sample in (sample_pplus, sample_nilradical, sample_pminus):
            for _ in range(5):
                sample(t, rng)
            assert not calls, sample


def _brackets_stay_in_joint_stabilizer(x, t, rng, draws=12):
    """The normalizer property, probed: [x, y] lies in the joint stabilizer
    for `draws` random elements y of the minus subalgebra."""
    return all(in_joint_stabilizer(x.bracket(sample_pminus(t, rng)), t) for _ in range(draws))


def test_normalizer_strictly_lower_fails():
    t = evens_couple()
    m = t.model
    # e_1 (x) f_0 places odds above evens-perp: a strictly lower term
    assert not in_joint_stabilizer(r1(m, 1, 0), t)
    assert in_joint_stabilizer(r1(m, 0, 1), t)
    assert _brackets_stay_in_joint_stabilizer(r1(m, 0, 1), t, random.Random(17))


def test_normalizer_probe_agrees():
    rng = random.Random(17)
    t = evens_couple()
    m = t.model
    for _ in range(8):
        x = sample_pplus(t, rng)
        assert in_joint_stabilizer(x, t) and _brackets_stay_in_joint_stabilizer(x, t, rng)
    # strictly-lower elements fail the probe too
    assert not _brackets_stay_in_joint_stabilizer(r1(m, 1, 0), t, rng)


def test_pprime_strictly_contains_pplus_in_augmented_model():
    t = augmented_couple()
    m = t.model
    vtilde = aug_vector(m, SIDE_V, 0)
    x = rank_one(vtilde, fw(m, 0))
    # x moves V inside the closure, so it fails the original couple but
    # stabilizes the collapsed one
    assert not in_joint_stabilizer(x, t)
    assert perp_parabolic_member(x, t)
    rng = random.Random(21)
    for _ in range(10):
        y = sample_pplus(t, rng)
        assert perp_parabolic_member(y, t)


def test_lambda_s_maps():
    m = split_form_model("symmetric")
    x = rank_one(ev(m, 0), Vector(m, SIDE_W, {1: 1}))
    # e_0 (x) phi(e_0): symmetric tensor antisymmetrizes to zero
    assert x.sub(flip(x)).is_zero()
    ms = split_form_model("antisymmetric")
    y = rank_one(ev(ms, 0), Vector(ms, SIDE_W, {3: 1}))
    sy = y.add(flip(y))
    assert not sy.is_zero()
    assert flip(sy).sub(sy).is_zero()  # symmetric under the flip


FORM_MODELS = (
    split_form_model("symmetric"),
    split_form_model("antisymmetric"),
    # iota fixes every index: a symmetric form with e_i paired to itself
    PairedSpaceModel(form_kind="symmetric", iota=(IotaPiece(EpSet.naturals(), 0),)),
)


@st.composite
def form_elements(draw):
    """An element of a form model, often moved into so or sp by x -+ flip(x)
    so that both verdicts occur."""
    m = draw(st.sampled_from(FORM_MODELS))
    coords = st.dictionaries(st.integers(0, 7), st.integers(-2, 2), min_size=1, max_size=3)
    terms = [
        (Vector(m, SIDE_V, draw(coords)), Vector(m, SIDE_W, draw(coords)))
        for _ in range(draw(st.integers(0, 3)))
    ]
    x = FinitaryElement(m, terms)
    how = draw(st.sampled_from(["as drawn", "minus flip", "plus flip"]))
    if how == "minus flip":
        x = x.sub(flip(x))
    elif how == "plus flip":
        x = x.add(flip(x))
    return x


@settings(max_examples=300, deadline=None)
@given(form_elements())
def test_entry_table_form_test_matches_the_flip_reference(x):
    assert in_algebra_of_form(x, "so") == flip(x).add(x).is_zero()
    assert in_algebra_of_form(x, "sp") == flip(x).sub(x).is_zero()


def test_so_nilradical_membership():
    m = split_form_model("symmetric")
    evens_sub = Subspace.span(m, SIDE_V, EVENS)
    f = flag_from_chain(m, SIDE_V, [evens_sub])
    x = rank_one(ev(m, 0), Vector(m, SIDE_W, {3: 1}))
    x = x.sub(flip(x))
    # Lambda(e_0 (x) e_2) with isotropic evens: lands in the nilradical part
    assert in_so_sp_stabilizer_minus(x, f, "so")
    t = self_taut_couple(f)
    assert in_nilradical(x, t)


def test_so_sp_wrong_form():
    m = split_form_model("symmetric")
    f = flag_from_chain(m, SIDE_V, [Subspace.span(m, SIDE_V, EVENS)])
    x = FinitaryElement(m)
    with pytest.raises(WrongFormKind):
        in_so_sp_stabilizer_minus(x, f, "sp")


def test_truncate_element():
    m = plain_model()
    x = r1(m, 0, 1)
    cols = truncate_element(x, 3)
    # e_0 (x) f_1 sends e_1 to e_0 and kills e_0 and e_2
    assert cols == [{}, {0: 1}, {}]
    md = dense_line_model()
    vtilde = aug_vector(md, SIDE_V, 0)
    y = rank_one(vtilde, fw(md, 0))
    cols2 = truncate_element(y, 2)
    # e_0 and the augmentation generator, which pairs to 1 with f_0, go to
    # the augmentation coordinate; e_1 goes to 0
    assert cols2 == [{2: 1}, {}, {2: 1}]
