import random
from fractions import Fraction

import pytest

from flagforge.epcore import EpSeq, EpSet
from flagforge.exactnum import Matrix, rank
from flagforge.pairedspace import (
    SIDE_V,
    SIDE_W,
    Augmentation,
    DegeneratePairing,
    NotRepresentable,
    PairedSpaceModel,
    SideMismatch,
    Subspace,
    Vector,
    closure,
    dense_line_model,
    form_perp,
    form_to_v,
    form_to_vstar,
    form_value,
    is_closed,
    pair,
    perp,
    plain_model,
    split_form_model,
    truncate,
    validate_model,
)

F = Fraction
EVENS = EpSet.from_residues(2, (0,))
ODDS = EpSet.from_residues(2, (1,))


def ev(model, i):
    return Vector.basis_vector(model, SIDE_V, i)


def fw(model, j):
    return Vector.basis_vector(model, SIDE_W, j)


def test_validate_plain_model():
    assert validate_model(plain_model()).valid


def test_validate_dense_line_model():
    assert validate_model(dense_line_model()).valid


def test_validate_degenerate_duplicate_row():
    bad = PairedSpaceModel(
        v_augs=(Augmentation(EpSeq.make([1], [0])),), cross=((),)
    )
    with pytest.raises(DegeneratePairing) as err:
        validate_model(bad)
    witness = err.value.witness
    # the augmentation duplicates e_0, so aug - e_0 pairs to zero everywhere
    assert witness.augs == (F(1),)
    assert witness.basis == {0: F(-1)}


def test_pair_deltas():
    m = plain_model()
    assert pair(ev(m, 3), fw(m, 3)) == 1
    assert pair(ev(m, 3), fw(m, 4)) == 0


def test_pair_augmented_row_of_ones():
    m = dense_line_model()
    vtilde = Vector.aug_vector(m, SIDE_V, 0)
    assert pair(vtilde, fw(m, 7)) == 1
    assert pair(vtilde, fw(m, 0)) == 1


def test_pair_side_mismatch():
    m = plain_model()
    with pytest.raises(SideMismatch):
        pair(fw(m, 0), ev(m, 0))


def test_sum_aligned_plus_correction():
    m = plain_model()
    evens = Subspace.span(m, SIDE_V, EVENS)
    line = Subspace.span(m, SIDE_V, gens=[ev(m, 1)])
    total = evens.sum(line)
    # a single basis vector is absorbed into the aligned part
    assert total.aligned == EVENS.union(EpSet.finite({1}))
    assert total.corrections == ()


def test_intersection_crt():
    m = plain_model()
    evens = Subspace.span(m, SIDE_V, EVENS)
    mult3 = Subspace.span(m, SIDE_V, EpSet.from_residues(3, (0,)))
    met = evens.intersection(mult3)
    assert met == Subspace.span(m, SIDE_V, EpSet.from_residues(6, (0,)))


def test_intersection_idempotent():
    m = plain_model()
    w = Subspace.span(m, SIDE_V, EVENS, [ev(m, 1).add(ev(m, 3).scale(2))])
    assert w.intersection(w) == w


def test_intersection_mixed_correction():
    m = plain_model()
    a = Subspace.span(m, SIDE_V, gens=[ev(m, 0).add(ev(m, 2))])
    b = Subspace.span(m, SIDE_V, EVENS)
    met = a.intersection(b)
    assert met == a
    c = Subspace.span(m, SIDE_V, gens=[ev(m, 0).add(ev(m, 1))])
    assert c.intersection(b).is_zero()


def test_perp_single_vector():
    m = plain_model()
    line = Subspace.span(m, SIDE_V, gens=[ev(m, 0)])
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
    assert evens.member(ev(m, 4))
    assert not evens.member(ev(m, 1))
    two = Subspace.span(m, SIDE_V, gens=[ev(m, 0), ev(m, 1)])
    assert two.member(ev(m, 0).add(ev(m, 1)))


def test_aug_not_in_standard_span():
    m = dense_line_model()
    v_std = Subspace.span(m, SIDE_V, EpSet.naturals())
    vtilde = Vector.aug_vector(m, SIDE_V, 0)
    assert not v_std.member(vtilde)
    assert Subspace.full(m, SIDE_V).member(vtilde)


def test_perp_not_representable():
    m = dense_line_model()
    aug_line = Subspace.span(
        m, SIDE_V, gens=[Vector.aug_vector(m, SIDE_V, 0)]
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
    return Subspace.span(m, side, aligned, gens)


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
    tm = truncate(plain_model(), 3)
    assert tm.pairing == Matrix.identity(3)
    assert tm.radical_v == [] and tm.radical_w == []


def test_truncate_augmented_model():
    tm = truncate(dense_line_model(), 2)
    assert tm.pairing == Matrix([[1, 0], [0, 1], [1, 1]])
    # one radical vector on the V side at every truncation level
    assert len(tm.radical_v) == 1 and tm.radical_w == []


def test_truncate_subspace():
    m = plain_model()
    evens = Subspace.span(m, SIDE_V, EVENS)
    rows = truncate(evens, 5)
    assert len(rows) == 3
    got = {tuple(r) for r in rows}
    unit = lambda i: tuple(F(1) if j == i else F(0) for j in range(5))
    assert got == {unit(0), unit(2), unit(4)}


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
                tm = truncate(m, n)
                fin = _finite_perp(tm, truncate(a, n))
                ours = truncate(pa, n)
                ours_plus_rad = _span(ours + tm.radical_w, tm.w_dim)
                assert _span(fin, tm.w_dim) == ours_plus_rad


def _window_levels(m, a):
    from flagforge.epcore import stabilization_window

    objs = [a.aligned]
    objs += [aug.row for aug in m.v_augs] + [aug.row for aug in m.w_augs]
    support = max((c.support_bound() for c in a.corrections), default=0)
    n_star, p_star = stabilization_window(objs)
    base = max(n_star, support, 1)
    return [base, base + p_star, base + 2 * p_star]


def _finite_perp(tm, rows):
    if not rows:
        return [
            [F(1) if j == i else F(0) for j in range(tm.w_dim)]
            for i in range(tm.w_dim)
        ]
    from flagforge.exactnum import kernel

    prod = Matrix(rows) * tm.pairing
    return kernel(prod)


def _span(rows, width):
    from flagforge.exactnum import row_space_basis

    return row_space_basis([list(r) for r in rows], width)


def test_form_maps_split_symmetric():
    m = split_form_model("symmetric")
    assert form_to_vstar(ev(m, 0)) == fw(m, 1)
    assert form_to_v(fw(m, 1)) == ev(m, 0)
    assert form_value(ev(m, 0), ev(m, 1)) == 1
    assert form_value(ev(m, 1), ev(m, 0)) == 1
    assert form_value(ev(m, 0), ev(m, 0)) == 0


def test_form_maps_split_antisymmetric():
    m = split_form_model("antisymmetric")
    assert form_value(ev(m, 0), ev(m, 1)) == 1
    assert form_value(ev(m, 1), ev(m, 0)) == -1
    x = ev(m, 2).add(ev(m, 5).scale(3))
    y = ev(m, 4).sub(ev(m, 3))
    assert form_value(x, y) == -form_value(y, x)


def test_form_perp_isotropic_evens():
    m = split_form_model("symmetric")
    evens = Subspace.span(m, SIDE_V, EVENS)
    assert form_perp(evens) == evens
    line = Subspace.span(m, SIDE_V, gens=[ev(m, 0)])
    ann = form_perp(line)
    # e_0 pairs only with e_1 under iota(0) = 1
    assert ann == Subspace.span(
        m, SIDE_V, EpSet.naturals().difference(EpSet.finite({1}))
    )
