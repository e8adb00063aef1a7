import math
import random
from fractions import Fraction

import pytest

from _corpus import (
    augmented_couple,
    evens_couple,
    random_element,
    random_plain_couple,
    sample_nilradical,
    sample_pminus,
    sample_pplus,
    trivial_couple,
)
from flagforge.epcore import EpSet
from flagforge.finitary import (
    FinitaryElement,
    NotInJointStabilizer,
    WrongFormKind,
    block_component,
    block_matrix,
    block_trace,
    flip,
    in_joint_stabilizer,
    in_nilradical,
    in_pminus,
    in_so_sp_stabilizer_minus,
    in_stabilizer,
    lambda_map,
    normalizer_bracket_probe,
    normalizer_test,
    perp_parabolic_member,
    s_map,
    self_taut_couple,
    tc_member,
    TraceConditionSubalgebra,
    truncate_element,
)
from flagforge.genflag import (
    OMEGA_UP,
    BasisOrderFlag,
    Block,
    flag_from_chain,
)
from flagforge.pairedspace import (
    SIDE_V,
    SIDE_W,
    Subspace,
    Vector,
    dense_line_model,
    plain_model,
    split_form_model,
)

F = Fraction
EVENS = EpSet.from_residues(2, (0,))


def ev(m, i):
    return Vector.basis_vector(m, SIDE_V, i)


def fw(m, j):
    return Vector.basis_vector(m, SIDE_W, j)


def r1(m, i, j):
    return FinitaryElement.rank_one(ev(m, i), fw(m, j))


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
    assert r1(m, 0, 1).act_on_v(ev(m, 1)) == ev(m, 0)
    assert r1(m, 0, 1).act_on_v(ev(m, 0)).is_zero()
    # dual action carries the minus sign
    assert r1(m, 0, 1).act_on_vstar(fw(m, 0)) == fw(m, 1).scale(-1)


def test_canonicalization_merges_terms():
    m = plain_model()
    x = FinitaryElement(m, [(ev(m, 0), fw(m, 0)), (ev(m, 1), fw(m, 0))])
    y = FinitaryElement(m, [(ev(m, 0).add(ev(m, 1)), fw(m, 0))])
    assert x == y
    assert x.sub(y).is_zero()
    z = FinitaryElement(m, [(ev(m, 0), fw(m, 0)), (ev(m, 0), fw(m, 0).scale(-1))])
    assert z.is_zero()


def _evens_flag(m):
    return flag_from_chain(m, SIDE_V, [Subspace.span(m, SIDE_V, EVENS)])


def test_in_stabilizer_evens_flag():
    m = plain_model()
    f = _evens_flag(m)
    assert in_stabilizer(r1(m, 0, 1), f)  # kills evens, e_0 lands inside
    assert not in_stabilizer(r1(m, 1, 0), f)  # sends e_0 to e_1
    assert in_stabilizer(FinitaryElement.zero(m), f)


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
    assert in_nilradical(FinitaryElement.zero(m), t)


def test_block_trace_evens():
    t = evens_couple()
    m = t.model
    gamma_evens = t.c_pairs.index((0, 1))
    assert block_trace(r1(m, 0, 0), t, gamma_evens) == 1
    gamma_odds = t.c_pairs.index((1, 0))
    assert block_trace(r1(m, 0, 0), t, gamma_odds) == 0


def test_block_component_zero_on_nilradical():
    rng = random.Random(3)
    t = evens_couple()
    for _ in range(20):
        x = sample_nilradical(t, rng)
        for gamma in range(len(t.c_pairs)):
            comp = block_component(x, t, gamma)
            assert comp.trace == 0
            assert comp.is_zero()


def test_block_component_needs_joint_membership():
    t = evens_couple()
    with pytest.raises(NotInJointStabilizer):
        block_component(r1(t.model, 1, 0), t, 0)


def test_block_trace_diagonal_sum():
    m = plain_model()
    t = trivial_couple(m)
    x = FinitaryElement(m, [(ev(m, i), fw(m, i)) for i in range(4)])
    assert block_trace(x, t, 0) == 4


def test_block_matrix_finite_block():
    m = plain_model()
    chain = [
        Subspace.span(m, SIDE_V, gens=[ev(m, 0), ev(m, 1)]),
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
    assert mat.trace() == block_trace(x, t, gamma)


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
        assert x.compose(y).trace() == 0


def test_tc_member_empty_constraints():
    t = evens_couple()
    s = TraceConditionSubalgebra(t, "gl", [])
    rng = random.Random(2)
    for _ in range(10):
        x = sample_pplus(t, rng)
        assert tc_member(x, s) == in_joint_stabilizer(x, t)


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
        assert tc_member(x, s) == in_pminus(x, t)


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


def test_normalizer_strictly_lower_fails():
    t = evens_couple()
    m = t.model
    # e_1 (x) f_0 places odds above evens-perp: a strictly lower term
    assert not normalizer_test(r1(m, 1, 0), t)
    assert normalizer_test(r1(m, 0, 1), t)
    assert normalizer_bracket_probe(r1(m, 0, 1), t)


def test_normalizer_probe_agrees():
    rng = random.Random(17)
    t = evens_couple()
    m = t.model
    for _ in range(8):
        x = sample_pplus(t, rng)
        assert normalizer_test(x, t) and normalizer_bracket_probe(x, t)
    # strictly-lower elements fail the probe too
    assert not normalizer_bracket_probe(r1(m, 1, 0), t)


def test_pprime_strictly_contains_pplus_in_augmented_model():
    t = augmented_couple()
    m = t.model
    vtilde = Vector.aug_vector(m, SIDE_V, 0)
    x = FinitaryElement.rank_one(vtilde, fw(m, 0))
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
    x = FinitaryElement.rank_one(ev(m, 0), Vector(m, SIDE_W, {1: 1}))
    # e_0 (x) phi(e_0): symmetric tensor antisymmetrizes to zero
    assert lambda_map(x).is_zero()
    ms = split_form_model("antisymmetric")
    y = FinitaryElement.rank_one(ev(ms, 0), Vector(ms, SIDE_W, {3: 1}))
    sy = s_map(y)
    assert not sy.is_zero()
    assert flip(sy).sub(sy).is_zero()  # symmetric under the flip


def test_so_nilradical_membership():
    m = split_form_model("symmetric")
    evens_sub = Subspace.span(m, SIDE_V, EVENS)
    f = flag_from_chain(m, SIDE_V, [evens_sub])
    x = lambda_map(FinitaryElement.rank_one(ev(m, 0), Vector(m, SIDE_W, {3: 1})))
    # Lambda(e_0 (x) e_2) with isotropic evens: lands in the nilradical part
    assert in_so_sp_stabilizer_minus(x, f, "so")
    t = self_taut_couple(f)
    assert in_nilradical(x, t)


def test_so_sp_wrong_form():
    m = split_form_model("symmetric")
    f = flag_from_chain(m, SIDE_V, [Subspace.span(m, SIDE_V, EVENS)])
    x = FinitaryElement.zero(m)
    with pytest.raises(WrongFormKind):
        in_so_sp_stabilizer_minus(x, f, "sp")


def test_truncate_element():
    m = plain_model()
    x = r1(m, 0, 1)
    mat = truncate_element(x, 3)
    assert mat.rows == 3 and mat.cols == 3
    assert mat[0, 1] == 1 and sum(1 for r in mat.entries for v in r if v) == 1
    md = dense_line_model()
    vtilde = Vector.aug_vector(md, SIDE_V, 0)
    y = FinitaryElement.rank_one(vtilde, fw(md, 0))
    mat2 = truncate_element(y, 2)
    # column of e_0 is the augmentation coordinate
    assert mat2.rows == 3 and mat2.cols == 3
    assert mat2[2, 0] == 1
