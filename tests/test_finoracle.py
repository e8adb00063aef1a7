import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _corpus import (
    block_parabolic_basis,
    criterion_2_chains,
    diagonal_basis,
    direct_sum_basis,
    embed_block,
    gl3_plus_so2,
    gl_basis,
    has_matrix,
    is_canonical,
    mat_span,
    matrix_trace,
    row_space_basis,
    sl_basis,
    strict_upper_basis,
    unit_matrix,
    upper_triangular_basis,
)
from _dense import D, Dense, flat, of_flat, solve
from flagforge import finoracle
from flagforge.exactnum import (
    CheckFailed,
    Echelon,
    combine,
    dense,
    is_nilpotent,
    kernel,
    sparse,
    sparse_bracket,
    sparse_matrix,
    sparse_product,
)
from flagforge.finoracle import (
    CartanVerdict,
    FdLieAlgebra,
    MatSpan,
    NotParabolicInput,
    NotSplittable,
    bracket_span,
    cartan_queries,
    composition_series,
    fd_parabolic_tests,
    fitting_null,
    flag_formula_spans,
    flag_stabilizer_brute,
    invariant_taut_couple,
    is_solvable_span,
    levi_component,
    lie_close,
    linear_nilradical,
    locally_reductive_part,
    parabolic_bijection_check,
    solvable_radical,
    spin,
    splittable_closure,
)

F = Fraction
CYCLIC = Dense([[0, 0, 1], [1, 0, 0], [0, 1, 0]])


def E(n, i, j):
    return unit_matrix(n, i, j)


def bracket(a, b):
    """[a, b] of matrices, by the dense reference product."""
    return D(a) * b - D(b) * a


def actions(g):
    """The basis of g as the flat sparse rows that the meataxe acts by."""
    return g.span.echelon.rows()


def test_lie_close_single_nilpotent():
    g = lie_close(2, [E(2, 0, 1)])
    assert g.dim == 1


def test_lie_close_generates_sl2():
    g = lie_close(2, [E(2, 0, 1), E(2, 1, 0)])
    assert g.dim == 3
    assert has_matrix(g.span, E(2, 0, 0) - E(2, 1, 1))


def test_lie_close_empty():
    assert lie_close(3, []).dim == 0


def test_algebra_rejects_wrong_shapes_and_negative_n():
    for n, basis in [
        (2, [[[1]]]),
        (3, [E(2, 0, 1)]),
        (2, [E(3, 0, 1)]),
        (2, [E(2, 0, 1), [[0, 1]]]),
        (-1, []),
    ]:
        with pytest.raises(ValueError):
            FdLieAlgebra(n, basis)
    assert FdLieAlgebra(0, []).dim == 0
    assert FdLieAlgebra(0, [Dense([])]).dim == 0


def test_solvable_radical_gl2_is_center():
    g = FdLieAlgebra(2, gl_basis(2))
    rad = solvable_radical(g)
    assert rad.dim == 1
    assert has_matrix(rad, Dense.identity(2))


def test_solvable_radical_borel_is_itself():
    g = FdLieAlgebra(2, upper_triangular_basis(2))
    assert solvable_radical(g).dim == g.dim


def test_solvable_radical_sl2_trivial():
    g = FdLieAlgebra(2, sl_basis(2))
    assert solvable_radical(g).dim == 0


def test_linear_nilradical_b3():
    g = FdLieAlgebra(3, upper_triangular_basis(3))
    nil = linear_nilradical(g)
    assert nil.dim == 3
    for m in strict_upper_basis(3):
        assert has_matrix(nil, m)


def test_linear_nilradical_gl2_trivial():
    g = FdLieAlgebra(2, gl_basis(2))
    assert linear_nilradical(g).dim == 0


def test_linear_nilradical_scalar_plus_nilpotent():
    g = FdLieAlgebra(2, [Dense.identity(2), E(2, 0, 1)])
    nil = linear_nilradical(g)
    assert nil.dim == 1 and has_matrix(nil, E(2, 0, 1))


def test_linear_nilradical_companion_counterexample():
    # companion matrix of t^4 - 1: semisimple with tr(X^2) = 0, so a pure
    # trace-form test would wrongly call it nilpotent
    comp = Dense([[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    g = FdLieAlgebra(4, [comp])
    assert linear_nilradical(g).dim == 0


def test_linear_nilradical_cyclic_permutation():
    # tr(P) = tr(P P) = 0, so a trace test against rad alone would keep P;
    # A = span{I, P, P^2} adds tr(P P^2) = 3
    assert linear_nilradical(FdLieAlgebra(3, [CYCLIC])).dim == 0


def test_levi_gl2():
    g = FdLieAlgebra(2, gl_basis(2))
    l = levi_component(g)
    assert l.dim == 3
    sl2 = mat_span(2, sl_basis(2))
    assert l.span == sl2


def test_levi_solvable_is_zero():
    g = FdLieAlgebra(3, upper_triangular_basis(3))
    assert levi_component(g).dim == 0


def test_levi_of_parabolic_in_gl3():
    g = FdLieAlgebra(3, block_parabolic_basis([2, 1]))
    l = levi_component(g)
    assert l.dim == 3  # sl2 in the top block
    for m in l.basis:
        assert has_matrix(g.span, m)


def test_levi_trace_condition_example():
    # two gl2 blocks with tr A = 2 tr B: Levi must be sl2 (+) sl2
    blocks = direct_sum_basis([(sl_basis(2), 2), (sl_basis(2), 2)])
    tr_link = embed_block(Dense.identity(2).scale(2), 4, 0) + embed_block(
        Dense.identity(2), 4, 2
    )
    g = FdLieAlgebra(4, blocks + [tr_link])
    assert g.dim == 7
    l = levi_component(g)
    assert l.dim == 6
    expected = mat_span(4, direct_sum_basis([(sl_basis(2), 2), (sl_basis(2), 2)]))
    assert l.span == expected


def test_levi_nontrivial_lift():
    # semidirect product sl2 acting on its natural module (as a nilpotent
    # radical): basis built in block form, Levi must be recovered exactly
    sl2 = sl_basis(2)
    mats = []
    for m in sl2:
        big = [[F(0)] * 3 for _ in range(3)]
        for i in range(2):
            for j in range(2):
                big[i][j] = m.entries[i][j]
        mats.append(Dense(big))
    rad = [E(3, 0, 2), E(3, 1, 2)]
    # twist the complement so the naive span is not already a subalgebra
    twisted = [m + rad[0].scale(k + 1) for k, m in enumerate(mats)]
    g = FdLieAlgebra(3, twisted + rad)
    l = levi_component(g)
    assert l.dim == 3
    assert solvable_radical(g).intersect(l.span).dim == 0


def test_splittable_closure_jordan_block():
    m = Dense([[1, 1], [0, 1]])
    g = FdLieAlgebra(2, [m])
    closed = splittable_closure(g)
    assert closed.dim == 2
    assert has_matrix(closed.span, Dense.identity(2))
    assert has_matrix(closed.span, E(2, 0, 1))


def test_splittable_gl2():
    g = FdLieAlgebra(2, gl_basis(2))
    assert splittable_closure(g).dim == g.dim


def test_splittable_single_nilpotent():
    g = FdLieAlgebra(2, [E(2, 0, 1)])
    assert splittable_closure(g).dim == g.dim


def test_locally_reductive_part_b3():
    g = FdLieAlgebra(3, upper_triangular_basis(3))
    dec = locally_reductive_part(g)
    assert dec.nilradical.dim == 3
    assert dec.levi.dim == 0
    assert dec.torus.dim == 3
    assert dec.reductive_part.dim == 3


def test_locally_reductive_part_gl2():
    g = FdLieAlgebra(2, gl_basis(2))
    dec = locally_reductive_part(g)
    assert dec.nilradical.dim == 0
    assert dec.reductive_part.dim == 4
    assert dec.levi.dim == 3


def test_locally_reductive_part_parabolic():
    g = FdLieAlgebra(3, block_parabolic_basis([2, 1]))
    dec = locally_reductive_part(g)
    assert dec.nilradical.dim == 2
    assert dec.reductive_part.dim == 5
    # block diagonal gl2 (+) gl1
    expected = mat_span(
        3, direct_sum_basis([(gl_basis(2), 2), (gl_basis(1), 1)])
    )
    assert dec.reductive_part.span == expected


def test_not_splittable_raises():
    m = Dense([[1, 1], [0, 1]])
    g = FdLieAlgebra(2, [m])
    with pytest.raises(NotSplittable):
        locally_reductive_part(g)


def test_cartan_diagonal_in_gl3():
    k = FdLieAlgebra(3, gl_basis(3))
    verdict = cartan_queries(k, mat_span(3, diagonal_basis(3)))
    assert verdict.is_cartan
    assert verdict.via_centralizer_of_ss and verdict.via_fitting_null


def test_cartan_rejects_nilpotent_line():
    k = FdLieAlgebra(2, gl_basis(2))
    verdict = cartan_queries(k, mat_span(2, [E(2, 0, 1)]))
    assert not verdict.is_cartan
    assert not verdict.via_fitting_null


def test_cartan_from_torus_in_borel():
    k = FdLieAlgebra(2, upper_triangular_basis(2))
    # E_00 is semisimple, so its Fitting null component is its centralizer:
    # the diagonal, a Cartan subalgebra: the centralizer of its torus
    diagonal = mat_span(2, diagonal_basis(2))
    assert fitting_null(k, mat_span(2, [E(2, 0, 0)])).span == diagonal
    assert cartan_queries(k, diagonal).via_centralizer_of_ss


def test_fitting_null_of_diagonal():
    k = FdLieAlgebra(2, gl_basis(2))
    h = fitting_null(k, mat_span(2, diagonal_basis(2)))
    assert h.span == mat_span(2, diagonal_basis(2))


def test_fitting_null_of_no_generators_is_everything():
    k = FdLieAlgebra(2, sl_basis(2))
    assert fitting_null(k, MatSpan(2)).span == k.span
    assert cartan_queries(k, MatSpan(2)) == CartanVerdict(False, False, False)


def test_cartan_conjugated_torus():
    # conjugate the diagonal by a unipotent: still a Cartan subalgebra
    p = Dense([[1, 1], [0, 1]])
    pinv = Dense([[1, -1], [0, 1]])
    k = FdLieAlgebra(2, gl_basis(2))
    h = [p * d * pinv for d in diagonal_basis(2)]
    assert cartan_queries(k, mat_span(2, h)).is_cartan


def test_composition_series_invariant_line():
    g = FdLieAlgebra(2, [E(2, 0, 1)])
    chain = composition_series(actions(g), 2, random.Random(0))
    assert [len(level) for level in chain] == [1, 2]
    assert chain[0] == [[F(1), F(0)]]


def test_composition_series_irreducible():
    g = FdLieAlgebra(2, sl_basis(2))
    chain = composition_series(actions(g), 2, random.Random(0))
    assert [len(level) for level in chain] == [2]


def test_composition_series_rotation_irreducible_over_q():
    rot = Dense([[0, 1], [-1, 0]])
    chain = composition_series([flat(rot)], 2, random.Random(1))
    assert [len(level) for level in chain] == [2]


def test_invariant_taut_couple_single_nilpotent():
    k = FdLieAlgebra(2, [E(2, 0, 1)])
    report = invariant_taut_couple(k, seed=3)
    assert [len(level) for level in report.chain] == [1, 2]
    assert report.algebra_nilradical == k.span
    assert report.nilradical_formula == report.nilradical_oracle


def test_invariant_taut_couple_irreducible_sl2():
    k = FdLieAlgebra(2, sl_basis(2))
    report = invariant_taut_couple(k, seed=5)
    assert [len(level) for level in report.chain] == [2]
    assert report.stabilizer.dim == 4  # trivial couple: everything


def test_invariant_taut_couple_diagonal_torus():
    k = FdLieAlgebra(2, diagonal_basis(2))
    report = invariant_taut_couple(k, seed=7)
    assert report.block_dims == [1, 1]
    assert report.algebra_nilradical.dim == 0


def test_flag_stabilizer_brute_matches_formula():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randrange(2, 6)
        dims = sorted(rng.sample(range(1, n), k=min(rng.randrange(1, 3), n - 1)))
        chain = []
        for d in dims:
            rows = [
                [F(rng.randrange(-2, 3)) for _ in range(n)] for _ in range(d)
            ]
            chain.append(rows)
        # make the chain nested by accumulating
        nested = []
        acc = []
        for rows in chain:
            acc = acc + rows
            nested.append([r[:] for r in acc])
        brute = flag_stabilizer_brute(n, nested)
        formula, _ = flag_formula_spans(n, nested)
        assert brute == formula


@st.composite
def _shuffled_chains(draw):
    """A nested chain in Q^n, n <= 5, with its levels repeated and unsorted."""
    n = draw(st.integers(1, 5))
    entry = st.sampled_from([F(0), F(0), F(1), F(-1), F(2), F(1, 2)])
    vec = st.lists(entry, min_size=n, max_size=n)
    nested, acc = [], []
    for rows in draw(st.lists(st.lists(vec, min_size=1, max_size=2), max_size=4)):
        acc = acc + rows
        nested.append([list(r) for r in acc])
    chain = nested + draw(st.lists(st.sampled_from(nested), max_size=2)) if nested else []
    return n, draw(st.permutations(chain))


@settings(max_examples=80, deadline=None)
@given(_shuffled_chains())
def test_flag_formulas_match_brute_force_on_shuffled_chains(n_chain):
    n, chain = n_chain
    stabilizer, nilradical = flag_formula_spans(n, chain)
    assert stabilizer == flag_stabilizer_brute(n, chain)
    assert stabilizer.contains(nilradical)
    assert nilradical == linear_nilradical(FdLieAlgebra.on(stabilizer))


def test_flag_formulas_hand_over_exactly_dim_generators(monkeypatch):
    handed = []

    class Counting(MatSpan):
        __slots__ = ()

        def __init__(self, n, rows=()):
            rows = list(rows)
            super().__init__(n, rows)
            handed.append((len(rows), self.dim))

    monkeypatch.setattr(finoracle, "MatSpan", Counting)
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randrange(1, 7)
        acc, chain = [], []
        for _ in range(rng.randrange(4)):
            rows = rng.randrange(1, 3)
            acc = acc + [[F(rng.randrange(-2, 3)) for _ in range(n)] for _ in range(rows)]
            chain.append(acc)
        rng.shuffle(chain)
        handed.clear()
        stabilizer, nilradical = flag_formula_spans(n, chain + chain[:1])
        assert handed == [(stabilizer.dim, stabilizer.dim), (nilradical.dim, nilradical.dim)]
    # a full flag: the upper triangular Borel and its strictly triangular nilradical
    units = Dense.identity(6).entries
    stabilizer, nilradical = flag_formula_spans(6, [units[:d] for d in range(1, 6)])
    assert stabilizer == mat_span(6, upper_triangular_basis(6))
    assert nilradical == mat_span(6, strict_upper_basis(6))


def test_fd_parabolic_block_upper():
    p = FdLieAlgebra(3, block_parabolic_basis([2, 1]))
    report = fd_parabolic_tests(p, seed=1)
    assert report.is_parabolic
    assert report.borel_restriction_check


def test_fd_parabolic_sl3_negative():
    p = FdLieAlgebra(3, sl_basis(3))
    report = fd_parabolic_tests(p, seed=1)
    # at finite scale the invariant-chain stabilizer of sl_n is gl_n
    assert not report.is_parabolic


def test_fd_parabolic_torus_negative():
    p = FdLieAlgebra(2, diagonal_basis(2))
    report = fd_parabolic_tests(p, seed=1)
    assert not report.is_parabolic


def test_parabolic_bijection_b3():
    g = FdLieAlgebra(3, upper_triangular_basis(3))
    q = parabolic_bijection_check(g, mat_span(3, diagonal_basis(3)))
    assert q.span == g.span


def test_parabolic_bijection_parabolic_gl3():
    g = FdLieAlgebra(3, block_parabolic_basis([2, 1]))
    p_red = direct_sum_basis([(gl_basis(2), 2), (gl_basis(1), 1)])
    q = parabolic_bijection_check(g, mat_span(3, p_red))
    assert q.span == g.span


def test_parabolic_bijection_borel_of_gl2():
    g = FdLieAlgebra(2, gl_basis(2))
    q = parabolic_bijection_check(g, mat_span(2, upper_triangular_basis(2)))
    assert q.span == mat_span(2, upper_triangular_basis(2))


def test_parabolic_bijection_rejects_torus():
    g = FdLieAlgebra(3, gl_basis(3))
    with pytest.raises(NotParabolicInput):
        parabolic_bijection_check(g, mat_span(3, diagonal_basis(3)))


# ---------------------------------------------------------------------------
# structure constants against the direct computation
# ---------------------------------------------------------------------------


def _reference_ad(g):
    """ad(x) for every basis x: all d^2 brackets, read back by their
    echelon coordinates."""
    def coords(m):
        return g.span.echelon.coords(sparse(m.flatten()))

    return [
        Dense(list(zip(*[coords(bracket(x, y)) for y in g.basis])))
        for x in g.basis
    ]


def _reference_killing(ads):
    d = len(ads)
    return Dense([[matrix_trace(ads[i] * ads[j]) for j in range(d)] for i in range(d)])


def _reference_radical(g):
    """Killing-perp of bracket_span(g, g), with the Killing form computed
    from the reference ad matrices."""
    d = g.dim
    if d == 0:
        return MatSpan(g.n)
    kill = _reference_killing(_reference_ad(g))
    rows = []
    for m in bracket_span(g.span, g.span).matrices():
        mu = g.span.echelon.coords(sparse(m.flatten()))
        rows.append([sum((kill.entries[i][j] * mu[j] for j in range(d)), F(0)) for i in range(d)])
    mats = []
    for lam in kernel(map(sparse, rows), d):
        acc = Dense.zero(g.n, g.n)
        for c, b in zip(dense(lam, d), g.basis):
            acc = acc + D(b).scale(c)
        mats.append(acc)
    return mat_span(g.n, mats)


@st.composite
def _closed_algebras(draw):
    n = draw(st.integers(2, 4))
    entry = st.sampled_from([0, 0, 0, 0, 1, -1, 2])
    gens = draw(
        st.lists(
            st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n),
            min_size=1,
            max_size=3,
        )
    )
    return lie_close(n, [Dense(m) for m in gens])


@settings(max_examples=40, deadline=None)
@given(_closed_algebras())
def test_structure_constants_match_direct_brackets(g):
    ads = _reference_ad(g)
    # consts[i, j] holds the nonzero coordinates of [x_i, x_j], i < j, and the
    # other brackets follow: [x_i, x_i] = 0 and [x_j, x_i] = -[x_i, x_j]
    cols = [a.transpose().entries for a in ads]  # cols[i][j]: column j of ad x_i
    want = {}
    for i, j in itertools.combinations(range(g.dim), 2):
        coords = {k: v for k, v in enumerate(cols[i][j]) if v}
        if coords:
            want[i, j] = coords
        assert cols[j][i] == [-v for v in cols[i][j]]
    for i in range(g.dim):
        assert not any(cols[i][i])
    assert g.consts == want
    assert [dense(row, g.dim) for row in g.killing()] == _reference_killing(ads).entries
    assert g.derived() == bracket_span(g.span, g.span)
    assert solvable_radical(g) == _reference_radical(g)


# ---------------------------------------------------------------------------
# the sparse bracket kernel and the trace-criterion nilradical
# ---------------------------------------------------------------------------


def _comb(coeffs, mats, n):
    acc = Dense.zero(n, n)
    for c, m in zip(coeffs, mats):
        acc = acc + D(m).scale(c)
    return acc


def _nilradical_by_composition_series(g, seed):
    """The composition-series route that the trace criterion replaced, kept
    as the differential reference.  A composition series of the natural
    module triangularizes rad over Q up to its irreducible factors, on which
    semisimple elements act through a field, so x in rad is nilpotent iff it
    moves every chain step into the previous one: a linear condition."""
    rad = solvable_radical(g)
    if rad.dim == 0:
        return rad
    acting = [D(m) for m in rad.matrices()]
    chain = composition_series(rad.echelon.rows(), g.n, random.Random(seed))
    rows = []
    prev = Echelon()
    for level in chain:
        for w in level:
            if not prev.reduce(sparse(w)):
                continue
            resids = [prev.reduce(sparse(a.apply(w))) for a in acting]
            for r in range(g.n):
                rows.append([res.get(r, F(0)) for res in resids])
        prev = Echelon(map(sparse, level))
    coeffs = kernel(map(sparse, rows), len(acting)) if rows else []
    return mat_span(
        g.n, [_comb(dense(lam, len(acting)), acting, g.n) for lam in coeffs])


ROTATION = Dense([[0, -1], [1, 0]])  # x^2 + 1 has no rational root


def _rotation_closures():
    """lie_close algebras of n = 2..5 with a non-split rotation block
    among their generators, next to random sparse generators."""
    rng = random.Random(2024)
    out = []
    for n in range(2, 6):
        for _ in range(3):
            gens = [embed_block(ROTATION, n, rng.randrange(n - 1))]
            for _ in range(rng.randrange(3)):
                m = [[F(0)] * n for _ in range(n)]
                for _ in range(rng.randrange(1, 3)):
                    m[rng.randrange(n)][rng.randrange(n)] = F(rng.choice((-1, 1, 2)))
                gens.append(Dense(m))
            out.append(lie_close(n, gens))
    return out


def _criterion_2_algebras():
    return [FdLieAlgebra(n, flag_stabilizer_brute(n, chain).matrices())
            for n, chain in criterion_2_chains()]


def test_nilradical_matches_composition_series_reference():
    corpus = _criterion_2_algebras() + _rotation_closures() + [
        FdLieAlgebra(3, [CYCLIC]),
        FdLieAlgebra(4, direct_sum_basis([([ROTATION], 2), (upper_triangular_basis(2), 2)])),
    ]
    assert any(linear_nilradical(g).dim for g in corpus)
    for seed, g in enumerate(corpus):
        assert linear_nilradical(g).rows == _nilradical_by_composition_series(g, seed).rows, g


def test_nilradical_ideal_check_names_its_witness(monkeypatch):
    g = FdLieAlgebra(3, upper_triangular_basis(3))
    solvable_radical(g)  # cached before the fault goes in
    # keep one nilpotent direction of the three: E_01 alone is no ideal of b_3
    relations = finoracle._relations
    monkeypatch.setattr(finoracle, "_relations", lambda images: relations(images)[:1])
    with pytest.raises(CheckFailed, match="nilradical is not an ideal") as info:
        linear_nilradical(g)
    b, m = info.value.witness
    assert not g.span.echelon.reduce(b) and is_nilpotent(m, 3)
    assert MatSpan(3, [m]).echelon.reduce(sparse_bracket(sparse_matrix(b, 3), sparse_matrix(m, 3), 3))
    assert (of_flat(b, 3), of_flat(m, 3)) == (E(3, 1, 2), E(3, 0, 1))


_entries = st.one_of(st.just(F(0)), st.fractions(-3, 3, max_denominator=4))


@st.composite
def _matrix_pairs(draw):
    n = draw(st.integers(1, 5))
    square = st.lists(st.lists(_entries, min_size=n, max_size=n), min_size=n, max_size=n)
    return Dense(draw(square)), Dense(draw(square))


@settings(max_examples=150, deadline=None)
@given(_matrix_pairs())
def test_sparse_bracket_matches_dense(ab):
    a, b = ab
    n = a.rows
    sa, sb = (sparse_matrix(sparse(m.flatten()), n) for m in (a, b))
    for row, expected in ((sparse_bracket(sa, sb, n), a * b - b * a),
                          (sparse_product(sa, sb, n), a * b)):
        assert all(is_canonical(v) and v for v in row.values())
        assert dense(row, n * n) == expected.flatten()


def test_lie_close_brackets_each_final_pair_once(monkeypatch):
    calls = []
    kernel_ = finoracle.sparse_bracket

    def counting(a, b, n):
        calls.append((a, b))
        return kernel_(a, b, n)

    monkeypatch.setattr(finoracle, "sparse_bracket", counting)
    cases = [(2, sl_basis(2)), (3, upper_triangular_basis(3)), (2, [E(2, 0, 1), E(2, 1, 0)]),
             (4, [embed_block(ROTATION, 4, 1), E(4, 0, 3), E(4, 2, 0)])]
    for n, gens in cases:
        calls.clear()
        g = lie_close(n, gens)
        pairs = list(itertools.combinations(g.span.sparse_matrices(), 2))
        # the last closure round brackets each pair of the final basis once,
        # and building the algebra brackets nothing again
        assert calls[len(calls) - len(pairs):] == pairs
        if mat_span(n, gens) == g.span:
            assert len(calls) == len(pairs)
        calls.clear()
        assert lie_close(n, g.basis).consts == g.consts == FdLieAlgebra(n, g.basis).consts
        assert len(calls) == 2 * len(pairs)


# ---------------------------------------------------------------------------
# the kernel route against the tagged relations it replaced
# ---------------------------------------------------------------------------


def _tagged_null_combinations(rows, images):
    """The tagged route that `finoracle._relations` replaced, kept as the
    reference: spanning rows of {sum_k c_k rows[k] : sum_k c_k images[k] =
    0}, for sparse images with integer columns.

    Image k is reduced with a tag 1 in column w + k, w one past the largest
    image column.  A residual left with tag columns only is a relation,
    with c_k = 1 and the other c_j read off the tags; any other residual
    extends the span of the images.  So each k whose image depends on the
    earlier ones gives one relation, and these relations span the kernel:
    they are its basis with c = 1 at one such k and 0 at the others."""
    w = 1 + max((max(im) for im in images if im), default=-1)
    ech = Echelon()
    out = []
    for k, image in enumerate(images):
        row = dict(image)
        row[w + k] = F(1)
        resid = ech.reduce(row)
        if min(resid) >= w:
            out.append(combine({t - w: c for t, c in resid.items()}, rows))
        else:
            ech.add(resid)
    return out


def _relation_combinations(rows, images):
    return [combine(c, rows) for c in finoracle._relations(images)]


def _kernel_intersect(a, b):
    """Intersection through the kernel of [a | -b] and its transpose."""
    if not a.rows or not b.rows:
        return MatSpan(a.n)
    cols = [[r[k] for r in a.rows] + [-r[k] for r in b.rows] for k in range(a.n * a.n)]
    rows_t = Dense([list(c) for c in zip(*a.rows)])
    null = kernel(map(sparse, cols), a.dim + b.dim)
    return MatSpan(a.n, [sparse(rows_t.apply(dense(lam, a.dim))) for lam in null])


_sparse_entries = st.sampled_from([F(1), F(-1), F(2), F(1, 3)])


@st.composite
def _span_pairs(draw):
    """Two spans of n x n matrices, n <= 5, from a few sparse rows each,
    possibly empty, possibly one inside the other."""
    n = draw(st.integers(1, 5))
    row = st.dictionaries(st.integers(0, n * n - 1), _sparse_entries, max_size=3)
    a_rows = draw(st.lists(row, max_size=4))
    b_rows = draw(st.lists(row, max_size=4))
    shape = draw(st.sampled_from(["free", "a_in_b", "b_in_a"]))
    if shape == "a_in_b":
        b_rows = b_rows + a_rows
    elif shape == "b_in_a":
        b_rows = a_rows[: draw(st.integers(0, len(a_rows)))]
    return MatSpan(n, a_rows), MatSpan(n, b_rows)


@settings(max_examples=300, deadline=None)
@given(_span_pairs())
def test_tagged_relations_match_the_kernel_route(ab):
    a, b = ab
    assert a.intersect(b) == _kernel_intersect(a, b) == b.intersect(a)
    assert a.intersect(b).dim + a.sum(b).dim == a.dim + b.dim
    rows = a.echelon.rows()
    images = [b.echelon.reduce(r) for r in rows]
    # the relations are the kernel basis with 1 at one dependent index and
    # 0 at the others, the basis that `kernel` returns: equal row by row
    assert _relation_combinations(rows, images) == _tagged_null_combinations(rows, images)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_null_combinations_match_the_kernel_route_on_random_images(data):
    n = data.draw(st.integers(1, 3))
    width = data.draw(st.integers(1, 4))
    a = MatSpan(n, data.draw(st.lists(
        st.dictionaries(st.integers(0, n * n - 1), _sparse_entries, max_size=2), max_size=6)))
    images = [
        data.draw(st.dictionaries(st.integers(0, width - 1), _sparse_entries, max_size=2))
        for _ in range(a.dim)
    ]
    got = _relation_combinations(a.echelon.rows(), images)
    assert got == _tagged_null_combinations(a.echelon.rows(), images)
    assert a.kernel_of(images) == MatSpan(n, got)


# ---------------------------------------------------------------------------
# Las Vegas results do not depend on the seed
# ---------------------------------------------------------------------------


def _conjugated(basis, perm):
    n = len(perm)
    p = Dense([[F(1) if perm[i] == j else F(0) for j in range(n)] for i in range(n)])
    return [p * b * p.transpose() for b in basis]


def _oracle_style_algebras():
    """Conjugated parabolics, gl1 + sl2 and random lie_close algebras (a
    rational diagonal and sparse strictly triangular generators), the
    shapes of the benchmark's oracle workload."""
    algebras = [
        FdLieAlgebra(3, _conjugated(block_parabolic_basis([1, 2]), [2, 0, 1])),
        FdLieAlgebra(3, _conjugated(block_parabolic_basis([1, 1, 1]), [1, 2, 0])),
        FdLieAlgebra(4, _conjugated(block_parabolic_basis([2, 2]), [3, 1, 0, 2])),
        FdLieAlgebra(3, _conjugated(
            direct_sum_basis([(gl_basis(1), 1), (sl_basis(2), 2)]), [1, 0, 2])),
    ]
    rng = random.Random(5)
    for n in (3, 4):
        gens = [Dense([[F(rng.randrange(-2, 3)) if i == j else F(0) for j in range(n)]
                       for i in range(n)])]
        for upper in (True, False):
            m = [[F(0)] * n for _ in range(n)]
            i, j = sorted(rng.sample(range(n), 2))
            m[i][j] = F(1)
            gens.append(Dense(m) if upper else Dense(m).transpose())
        algebras.append(lie_close(n, gens))
    return algebras


def _seeded_answers(g, seed):
    dec = locally_reductive_part(g, seed)
    chain = composition_series(actions(g), g.n, random.Random(seed))
    dims = [len(level) for level in chain]
    return {
        "nilradical": linear_nilradical(g, seed).rows,
        "reductive": [dec.nilradical.rows, dec.levi.span.rows, dec.torus.span.rows,
                      dec.reductive_part.span.rows],
        # Jordan-Hoelder: the factors are unique up to order
        "factor_dims": sorted(b - a for a, b in zip([0] + dims, dims)),
        "block_dims": sorted(invariant_taut_couple(g, seed).block_dims),
        "parabolic": fd_parabolic_tests(g, seed),
    }


def test_las_vegas_results_do_not_depend_on_the_seed():
    for g in _oracle_style_algebras():
        first = _seeded_answers(g, 0)
        for seed in range(1, 5):
            assert _seeded_answers(g, seed) == first, (g, seed)


# ---------------------------------------------------------------------------
# sections, the parabolic verdict and the Levi lift against the routes they
# replaced
# ---------------------------------------------------------------------------


def _restricted_actions(actions, sub_rows):
    sub = Echelon(map(sparse, sub_rows))
    out = []
    for a in actions:
        cols = [sub.coords(sparse(a.apply(r))) for r in sub_rows]
        assert None not in cols
        out.append(Dense([list(row) for row in zip(*cols)]))
    return out


def _quotient_actions(actions, sub_rows, dim):
    sub = Echelon(map(sparse, sub_rows))
    free = [j for j in range(dim) if j not in sub.pivots]
    out = []
    for a in actions:
        a_cols = a.transpose().entries
        cols = [[sub.reduce(sparse(a_cols[j])).get(f, F(0)) for f in free] for j in free]
        out.append(Dense([list(row) for row in zip(*cols)]))
    return out, free


def _composition_series_by_restriction(actions, dim, rng):
    """The recursion that sections replaced, kept as a reference: restrict
    to a submodule and pass to the quotient, each in its own coordinates,
    recurse on both and map the levels back."""
    if dim == 0:
        return []
    sub = finoracle.find_proper_submodule([flat(a) for a in actions], dim, rng)
    if sub is None:
        return [row_space_basis(Dense.identity(dim).entries, dim)]
    sub = row_space_basis([dense(r, dim) for r in sub], dim)
    quo_actions, free = _quotient_actions(actions, sub, dim)
    lower = _composition_series_by_restriction(_restricted_actions(actions, sub), len(sub), rng)
    upper = _composition_series_by_restriction(quo_actions, dim - len(sub), rng)
    sub_t = Dense([list(c) for c in zip(*sub)])
    chain = [row_space_basis([sub_t.apply(r) for r in level], dim) for level in lower]
    for level in upper:
        lifted = [dense(dict(zip(free, r)), dim) for r in level]
        chain.append(row_space_basis(sub + lifted, dim))
    return chain


def _factor_dims(chain):
    dims = [0] + [len(level) for level in chain]
    return sorted(b - a for a, b in zip(dims, dims[1:]))


@st.composite
def _rotation_algebras(draw):
    """lie_close of generators in gl_n, n <= 5: maybe a rotation block, and
    a few sparse matrices."""
    n = draw(st.integers(1, 5))
    gens = []
    if n >= 2 and draw(st.booleans()):
        gens.append(embed_block(ROTATION, n, draw(st.integers(0, n - 2))))
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.sampled_from([1, -1, 2]))
    for cells in draw(st.lists(st.lists(cell, min_size=1, max_size=2), max_size=3)):
        m = [[F(0)] * n for _ in range(n)]
        for i, j, v in cells:
            m[i][j] = F(v)
        gens.append(Dense(m))
    return lie_close(n, gens)


@settings(max_examples=80, deadline=None)
@given(_rotation_algebras(), st.integers(0, 3))
def test_composition_series_on_sections_matches_the_restriction_route(g, seed):
    chain = composition_series(actions(g), g.n, random.Random(seed))
    levels = [Echelon(map(sparse, level)) for level in chain]
    for level in levels:
        for a in g.basis:
            assert not any(level.reduce(sparse(D(a).apply(dense(w, g.n)))) for w in level.rows())
    for below, above in zip(levels, levels[1:]):
        assert len(below.pivots) < len(above.pivots)
        assert not any(map(above.reduce, below.rows()))
    assert (len(chain[-1]) if chain else 0) == g.n
    # Jordan-Hoelder: the factors agree up to order
    reference = _composition_series_by_restriction([D(a) for a in g.basis], g.n, random.Random(seed))
    assert _factor_dims(chain) == _factor_dims(reference)


def _invariant_search_verdict(p, rng):
    """The randomized verdict that the composition series replaced, kept as
    a reference: spin every unit vector and the factor kernels of random
    elements, and ask that the subspaces found form a chain whose
    stabilizer is p.  A level the search misses makes the stabilizer
    larger, so it can only err toward False."""
    seeds = list(Dense.identity(p.n).entries)
    for theta in finoracle._theta_battery(actions(p), rng, p.n):
        for poly, _ in finoracle._min_poly_factors(theta, p.n):
            p_theta = finoracle.poly_eval_matrix(poly, theta, p.n)
            seeds += [dense(w, p.n) for w in kernel(finoracle._lines(p_theta, p.n).values(), p.n)]
    found = {}
    for w in seeds:
        rows = [dense(r, p.n) for r in spin([sparse(w)], actions(p), p.n)]
        if 0 < len(rows) < p.n:
            found[tuple(map(tuple, rows))] = rows
    spans = [Echelon(map(sparse, rows)) for rows in found.values()]
    for a, b in itertools.combinations(spans, 2):
        if any(map(b.reduce, a.rows())) and any(map(a.reduce, b.rows())):
            return False
    return flag_stabilizer_brute(p.n, list(found.values())) == p.span


def _compositions(draw, n, min_parts):
    """Block sizes summing to n, with at least min_parts blocks."""
    cuts = draw(st.sets(st.integers(1, n - 1), min_size=min_parts - 1)) if n > 1 else ()
    bounds = [0] + sorted(cuts) + [n]
    return [b - a for a, b in zip(bounds, bounds[1:])]


@st.composite
def _parabolic_cases(draw):
    """(n, basis, is_parabolic), n <= 5, conjugated by a random permutation
    times an elementary matrix.  Block parabolics are parabolic.  Sums of
    two or more gl blocks are not: a Borel holds a regular nilpotent, one
    Jordan block of size n.  Nor are sl_n, tori of n >= 2 and the closures
    of a rotation block with traceless matrices: these lie in sl_n or have
    dim < n(n + 1) / 2, and a Borel holds the identity and has that dim."""
    family = draw(st.sampled_from(["parabolic", "blocks", "sl", "torus", "rotation"]))
    n = draw(st.integers(1 if family in ("parabolic", "sl") else 2, 5))
    if family == "parabolic":
        basis = block_parabolic_basis(_compositions(draw, n, 1))
    elif family == "blocks":
        basis = direct_sum_basis([(gl_basis(s), s) for s in _compositions(draw, n, 2)])
    elif family == "sl":
        basis = sl_basis(n)
    elif family == "torus":
        basis = diagonal_basis(n)
    else:
        basis = [embed_block(ROTATION, n, draw(st.integers(0, n - 2)))]
        off = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda ij: ij[0] != ij[1])
        basis += [E(n, i, j) for i, j in draw(st.lists(off, max_size=2))]
    i, j = draw(st.permutations(range(n)))[:2] if n >= 2 else (0, 0)
    c = draw(st.sampled_from([F(0), F(1), F(-1), F(2), F(1, 2)])) if n >= 2 else F(0)
    e, e_inv = Dense.identity(n) + E(n, i, j).scale(c), Dense.identity(n) - E(n, i, j).scale(c)
    basis = _conjugated([e * b * e_inv for b in basis], draw(st.permutations(range(n))))
    g = lie_close(n, basis) if family == "rotation" else FdLieAlgebra(n, basis)
    return g, family == "parabolic"


def _two_step_borel_check(p, series):
    """The Borel check with the second step that its docstring proves
    redundant, kept as the reference: b = stab(F) cap p is tested in p,
    then b cap [p, p] in [p, p]."""
    stab = flag_stabilizer_brute(p.n, finoracle._full_flag_refining(series, p.n))
    b_span = stab.intersect(p.span)
    if not finoracle._is_maximal_solvable_in(b_span, p):
        return False
    dp = p.derived()
    return finoracle._is_maximal_solvable_in(b_span.intersect(dp), FdLieAlgebra.on(dp))


@settings(max_examples=60, deadline=None)
@given(_parabolic_cases(), st.integers(0, 3))
def test_parabolic_verdict_on_conjugated_families(case, seed):
    p, expected = case
    report = fd_parabolic_tests(p, seed)
    assert report.is_parabolic == expected
    # the search can only miss levels: where it says True, so does the series
    if _invariant_search_verdict(p, random.Random(seed)):
        assert report.is_parabolic
    series = composition_series(actions(p), p.n, random.Random(seed))
    assert report.borel_restriction_check == _two_step_borel_check(p, series)


# ---------------------------------------------------------------------------
# maximal solvability: the exact test against the Monte Carlo reference
# ---------------------------------------------------------------------------


def _monte_carlo_maximal_solvable(b_span, ambient, rng, tries):
    """The Monte Carlo test that the exact criterion replaced, kept as the
    reference.  b is maximal solvable unless the Lie closure of b and a
    basis element of g, or of b and one of `tries` random combinations with
    coefficients in {-1, 0, 1}, is solvable.  False comes with a solvable
    extension, so it is certain, even over Q; True can be a miss."""
    if not is_solvable_span(b_span):
        return False
    rows = b_span.echelon.rows()
    basis = ambient.span.echelon.rows()
    for x in [m for m in basis if b_span.echelon.reduce(m)]:
        if is_solvable_span(finoracle._lie_closure(ambient.n, rows + [x])[0]):
            return False
    for _ in range(tries):
        x = combine({k: rng.randrange(-1, 2) for k in range(len(basis))}, basis)
        if b_span.echelon.reduce(x) and is_solvable_span(
                finoracle._lie_closure(ambient.n, rows + [x])[0]):
            return False
    return True


_coefficients = st.sampled_from([F(1), F(-1), F(2), F(1, 2)])


def _draw_elementary_product(draw, n, pairs):
    """A product of up to three elementary matrices I + c E_ij, with (i, j)
    drawn from pairs, and its inverse."""
    m = m_inv = Dense.identity(n)
    for (i, j), c in draw(st.lists(st.tuples(pairs, _coefficients), max_size=3)) if n > 1 else ():
        m = m * (Dense.identity(n) + E(n, i, j).scale(c))
        m_inv = (Dense.identity(n) - E(n, i, j).scale(c)) * m_inv
    return m, m_inv


@st.composite
def _borel_cases(draw):
    """(g, b, is_borel).  g is gl_n, sl_n (n <= 4) or a block parabolic,
    conjugated by M, a permutation times elementary matrices.  The complete
    flag F = M Q (standard flag), Q a product of elementary matrices in the
    group of the block parabolic, refines the flag M (block flag) of g, so
    B = stab(F) cap g is a Borel of g.  b is B, its linear nilradical
    [B, B] (the strictly triangular part in a basis adapted to F), or the
    Lie closure of one or two random elements of B, a Borel only when it is
    all of B: every Borel has the same dimension."""
    family = draw(st.sampled_from(["gl", "sl", "parabolic"]))
    n = draw(st.integers(2 if family == "sl" else 1, 4))
    sizes = _compositions(draw, n, 1) if family == "parabolic" else [n]
    basis = {"gl": gl_basis(n), "sl": sl_basis(n), "parabolic": block_parabolic_basis(sizes)}[family]
    block = [k for k, size in enumerate(sizes) for _ in range(size)]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda ij: ij[0] != ij[1])
    m, m_inv = _draw_elementary_product(draw, n, pairs)
    perm = Dense([[F(k == j) for j in range(n)] for k in draw(st.permutations(range(n)))])
    m, m_inv = perm * m, m_inv * perm.transpose()
    g = FdLieAlgebra(n, [m * x * m_inv for x in basis])
    q, _ = _draw_elementary_product(draw, n, pairs.filter(lambda ij: block[ij[0]] <= block[ij[1]]))
    columns = (m * q).transpose().entries
    stabilizer, nilradical = flag_formula_spans(n, [columns[:d] for d in range(1, n)])
    borel = stabilizer.intersect(g.span)
    kind = draw(st.sampled_from(["borel", "nilradical", "subalgebra"]))
    if kind == "borel":
        return g, borel, True
    if kind == "nilradical":
        return g, nilradical.intersect(g.span), False
    rows = borel.echelon.rows()
    coeffs = st.lists(st.integers(-1, 2), min_size=len(rows), max_size=len(rows))
    gens = [of_flat(combine(dict(enumerate(draw(coeffs))), rows), n)
            for _ in range(draw(st.integers(1, 2)))]
    b = lie_close(n, gens).span
    return g, b, b == borel


@settings(max_examples=40, deadline=None)
@given(_borel_cases(), st.integers(0, 3))
def test_maximal_solvability_matches_the_monte_carlo_reference(case, seed):
    g, b, is_borel = case
    verdict = finoracle._is_maximal_solvable_in(b, g)
    assert verdict == is_borel
    # a solvable extension found by the reference rules b out
    if not _monte_carlo_maximal_solvable(b, g, random.Random(seed), tries=200):
        assert not verdict


def test_split_torus_and_rotation_of_sl2_are_no_borel():
    sl2 = FdLieAlgebra(2, sl_basis(2))
    torus = mat_span(2, [E(2, 0, 1) + E(2, 1, 0)])
    # torus < span(E01 + E10, h + 2 E10), solvable: [x, y] = 2 y - 2 x
    h = E(2, 0, 0) - E(2, 1, 1)
    extension = mat_span(2, [E(2, 0, 1) + E(2, 1, 0), h + E(2, 1, 0).scale(2)])
    assert extension.contains(torus) and is_solvable_span(extension)
    assert not finoracle._is_maximal_solvable_in(torus, sl2)
    # the rotation line is maximal solvable over Q, where a 2-dimensional
    # subalgebra of sl_2 would triangularize it, but no Borel over C
    rotation = mat_span(2, [ROTATION])
    assert _monte_carlo_maximal_solvable(rotation, sl2, random.Random(0), tries=200)
    assert not finoracle._is_maximal_solvable_in(rotation, sl2)


def test_gl3_plus_so2_has_no_borel_from_its_composition_series():
    p = gl3_plus_so2()
    for seed in range(50):
        report = fd_parabolic_tests(p, seed)
        assert not report.is_parabolic and not report.borel_restriction_check, seed


def _levi_by_dense_solve(g):
    """The dense lifting that `levi_component`'s relation solve replaced, kept as a
    reference: one equation row per pair i < j and quotient coordinate r,
    solved by `solve`."""
    rad = solvable_radical(g)
    if rad.dim == g.dim:
        return MatSpan(g.n)
    if rad.dim == 0:
        return g.span
    n, coords = g.n, g.span._coords
    rad_coeffs = Echelon(map(coords, rad.echelon.rows()))
    free = [j for j in range(g.dim) if j not in rad_coeffs.pivots]
    position = {j: a for a, j in enumerate(free)}
    xs = [g.span.echelon.rows()[j] for j in free]
    m = len(xs)
    c = {(i, j): {position[k]: v for k, v in rad_coeffs.reduce(
        g.consts.get((free[i], free[j]), {})).items()} for i, j in itertools.combinations(range(m), 2)}
    series = finoracle.derived_series(rad) + [MatSpan(n)]
    for level, nxt in zip(series, series[1:]):
        if not level.dim:
            break
        nxt_coeffs = Echelon(map(coords, nxt.echelon.rows()))
        quotient = Echelon()
        ws = [w for w in level.echelon.rows() if quotient.add(nxt_coeffs.reduce(coords(w)))]
        if not ws:
            break

        def quo(row):
            resid = nxt_coeffs.reduce(coords(row))
            return [resid.get(p, F(0)) for p in quotient.pivots]

        width, dim_q = len(ws), len(quotient.pivots)
        brackets = [[quo(flat(bracket(of_flat(x, n), of_flat(w, n)))) for w in ws] for x in xs]
        units = [quo(w) for w in ws]
        eq_rows, rhs = [], []
        for i, j in itertools.combinations(range(m), 2):
            defect = flat(bracket(of_flat(xs[i], n), of_flat(xs[j], n)))
            for k, coeff in c[i, j].items():
                finoracle.axpy(defect, -coeff, xs[k])
            dvec = quo(defect)
            block = [[F(0)] * (m * width) for _ in range(dim_q)]
            for a in range(width):
                for r in range(dim_q):
                    block[r][j * width + a] += brackets[i][a][r]
                    block[r][i * width + a] -= brackets[j][a][r]
                    for k, coeff in c[i, j].items():
                        block[r][k * width + a] -= coeff * units[a][r]
            for r in range(dim_q):
                if any(block[r]) or dvec[r]:
                    eq_rows.append(block[r])
                    rhs.append(-dvec[r])
        if eq_rows:
            sol = solve(Dense(eq_rows), rhs)
            assert sol is not None
            for i in range(m):
                lifted = combine(dict(enumerate(sol[i * width:(i + 1) * width])), ws)
                finoracle.axpy(lifted, F(1), xs[i])
                xs[i] = lifted
    return MatSpan(n, xs)


def test_levi_lift_matches_the_dense_solve():
    corpus = _criterion_2_algebras() + _rotation_closures() + _oracle_style_algebras()
    levis = [levi_component(g) for g in corpus]
    # a lift happens where both the radical and the Levi are nonzero
    assert sum(0 < levi.dim < g.dim for g, levi in zip(corpus, levis)) >= 30
    for g, levi in zip(corpus, levis):
        assert levi.span.rows == _levi_by_dense_solve(g).rows, g


def test_levi_lift_without_the_defect_relation_is_inconsistent(monkeypatch):
    # sl_2 acting on Q^2, its complement twisted into the radical
    twisted = [embed_block(m, 3, 0) + E(3, 0, 2).scale(k + 1) for k, m in enumerate(sl_basis(2))]
    g = FdLieAlgebra(3, twisted + [E(3, 0, 2), E(3, 1, 2)])
    solvable_radical(g)  # cached before the fault goes in
    relations = finoracle._relations
    monkeypatch.setattr(finoracle, "_relations", lambda images: relations(images)[:-1])
    with pytest.raises(CheckFailed, match="Levi lifting system is inconsistent"):
        levi_component(g)


# ---------------------------------------------------------------------------
# certification under python -O
# ---------------------------------------------------------------------------


_INJECTED_FAULTS = """
import random
import sys
from _corpus import diagonal_basis, gl_basis, mat_span, sl_basis, upper_triangular_basis
from flagforge import finoracle
from flagforge.exactnum import CheckFailed, Matrix

print("optimize", sys.flags.optimize)
# a zero Killing form makes all of gl_2 Killing-perp to [g, g]: a wrong radical
killing = finoracle.FdLieAlgebra.killing
finoracle.FdLieAlgebra.killing = lambda self: [{} for _ in range(self.dim)]
g = finoracle.FdLieAlgebra(2, gl_basis(2))
try:
    finoracle.solvable_radical(g)
except CheckFailed as exc:
    print("radical", exc.check)
finoracle.FdLieAlgebra.killing = killing
# a Fitting route that answers all of k disagrees with route D
fitting_null = finoracle.fitting_null
finoracle.fitting_null = lambda k, h_span: k
k = finoracle.FdLieAlgebra(3, gl_basis(3))
try:
    finoracle.cartan_queries(k, mat_span(3, diagonal_basis(3)))
except CheckFailed as exc:
    print("cartan", exc.check)
finoracle.fitting_null = fitting_null
# relations cut down to the first: E_01 alone passes as the nilradical of b_3
b3 = finoracle.FdLieAlgebra(3, upper_triangular_basis(3))
finoracle.solvable_radical(b3)
relations = finoracle._relations
finoracle._relations = lambda images: relations(images)[:1]
try:
    finoracle.linear_nilradical(b3)
except CheckFailed as exc:
    print("ideal", exc.check)
finoracle._relations = relations
# a derived algebra computed as zero: the Levi sl_2 of gl_2 no longer fits in it
derived = finoracle.FdLieAlgebra.derived
finoracle.FdLieAlgebra.derived = lambda self: finoracle.MatSpan(self.n)
g = finoracle.FdLieAlgebra(2, gl_basis(2))
try:
    finoracle.levi_component(g)
except CheckFailed as exc:
    print("levi", exc.check)
finoracle.FdLieAlgebra.derived = derived
# a decomposition that loses the nilradical of b_3: n_g + b_red is then the
# diagonal, which misses rad b_3 = b_3, so it is no Borel of b_3
reductive_part = finoracle.locally_reductive_part
def without_nilradical(g, seed=0):
    dec = reductive_part(g, seed)
    return finoracle.FdDecomposition(finoracle.MatSpan(g.n), dec.levi, dec.torus, dec.reductive_part)
finoracle.locally_reductive_part = without_nilradical
try:
    finoracle.parabolic_bijection_check(b3, mat_span(3, diagonal_basis(3)))
except CheckFailed as exc:
    print("borel", exc.check)
finoracle.locally_reductive_part = reductive_part
# a Jordan-Chevalley split that calls everything nilpotent: the diagonal
# E_00 of b_3 then has a nilpotent part outside the nilradical
jordan_chevalley = finoracle.jordan_chevalley
finoracle.jordan_chevalley = lambda m, n: ({}, m)
try:
    finoracle.locally_reductive_part(finoracle.FdLieAlgebra(3, upper_triangular_basis(3)))
except CheckFailed as exc:
    print("torus", exc.check)
finoracle.jordan_chevalley = jordan_chevalley
# an associative closure that stops at the identity misses tr(P P^2) = 3,
# so the cyclic permutation P passes as nilpotent
finoracle._associative_closure = lambda rows, n: [(1, {i: {i: 1} for i in range(n)})]
p = finoracle.FdLieAlgebra(3, [Matrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]])])
try:
    finoracle.linear_nilradical(p)
except CheckFailed as exc:
    print("nilradical", exc.check)
# a meataxe that answers the line of e_0, which sl_2 moves
find_proper_submodule = finoracle.find_proper_submodule
finoracle.find_proper_submodule = lambda actions, dim, rng: [{0: 1}] if dim > 1 else None
try:
    finoracle.composition_series(mat_span(2, sl_basis(2)).echelon.rows(), 2, random.Random(0))
except CheckFailed as exc:
    print("meataxe", exc.check)
finoracle.find_proper_submodule = find_proper_submodule
# a brute-force stabilizer that answers gl_2 for the flag 0 < <e_0> < Q^2 of b_2
finoracle.flag_stabilizer_brute = lambda n, chain: mat_span(n, gl_basis(n))
b2 = finoracle.FdLieAlgebra(2, upper_triangular_basis(2))
try:
    finoracle.invariant_taut_couple(b2)
except CheckFailed as exc:
    print("stabilizer", exc.check)
# a recombination that drops a factor: t^2 - 1, the minimal polynomial of
# diag(1, -1), comes back as t + 1 alone
from flagforge import exactnum
exactnum._zz_irreducibles = lambda f, irreducibles=exactnum._zz_irreducibles: irreducibles(f)[1:]
try:
    finoracle.composition_series([{0: 1, 3: -1}], 2, random.Random(0))
except CheckFailed as exc:
    print("factor", exc.check)
"""


def test_certification_survives_python_O():
    here = Path(__file__).resolve().parent
    out = subprocess.run(
        [sys.executable, "-O", "-c", _INJECTED_FAULTS],
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(here.parent / "src"), str(here)])},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert out.stdout.splitlines() == [
        "optimize 1",
        "radical Killing-perp radical is not solvable",
        "cartan Cartan routes disagree",
        "ideal nilradical is not an ideal",
        "levi Levi does not complement r cap [g,g]",
        "borel n_g + b_red is not a Borel of g",
        "torus nilpotent part escaped the nilradical",
        "nilradical nilradical candidate is not nilpotent",
        "meataxe submodule is not invariant",
        "stabilizer stabilizer formula disagrees with brute force",
        "factor factorization does not multiply back",
    ]
    assert issubclass(CheckFailed, AssertionError)
