"""Differential tests of the incremental kernel `exactnum.Echelon`.

The hand-written eliminations it replaced are kept here as references:
the sparse reduced echelon form and residual of `pairedspace`, the term
canonicalization of `finitary.FinitaryElement`, and `in_row_space`,
`_reduce_vector` and `spin` of `exactnum`/`finoracle`.

The old sparse echelon form did not reduce a new row against the pivots
after its own, so its rows depended on the order of the input and could be
left unreduced.  Where its output is reduced, the rows must be identical;
otherwise they must span the same space with the same pivots.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from flagforge.epcore import EpSet
from flagforge.exactnum import (
    Echelon,
    Matrix,
    dense,
    row_space_basis,
    sparse,
)
from flagforge.finitary import FinitaryElement
from flagforge.finoracle import spin
from flagforge.pairedspace import (
    SIDE_V,
    SIDE_W,
    Subspace,
    Vector,
    dense_line_model,
)

QZERO = Fraction(0)

# ---------------------------------------------------------------------------
# the replaced implementations
# ---------------------------------------------------------------------------


def _sparse_clean(row):
    return {k: v for k, v in row.items() if v}


def _sparse_axpy(target, coeff, row):
    for k, v in row.items():
        val = target.get(k, QZERO) + coeff * v
        if val:
            target[k] = val
        else:
            target.pop(k, None)


def old_sparse_rref(rows):
    basis = {}
    for raw in rows:
        row = _sparse_clean(dict(raw))
        while row:
            p = min(row)
            if p in basis:
                _sparse_axpy(row, -row[p], basis[p])
            else:
                pv = row[p]
                row = {k: v / pv for k, v in row.items()}
                for other in basis.values():
                    if p in other:
                        _sparse_axpy(other, -other[p], row)
                basis[p] = row
                break
    return [basis[k] for k in sorted(basis)]


def old_span_corrections(aligned, gens):
    """The canonicalization loop of `Subspace.span` over old_sparse_rref."""
    rows = [g.to_sparse() for g in gens]
    while True:
        for row in rows:
            for key in [k for k in row if k[0] == 1 and aligned.member(k[1])]:
                row.pop(key)
        rows = old_sparse_rref(rows)
        absorbed = [row for row in rows if len(row) == 1 and next(iter(row))[0] == 1]
        if not absorbed:
            return aligned, rows
        aligned = aligned.union(EpSet.finite({next(iter(row))[1] for row in absorbed}))
        rows = [row for row in rows if row not in absorbed]


def old_residual(aligned, corrections, v):
    row = {
        k: val
        for k, val in v.to_sparse().items()
        if not (k[0] == 1 and aligned.member(k[1]))
    }
    for crow in corrections:
        p = min(crow)
        if p in row:
            _sparse_axpy(row, -row[p], crow)
    return Vector.from_sparse(v.model, v.side, row)


def _old_axpy(row, coeff, other):
    out = dict(row)
    _sparse_axpy(out, coeff, other)
    return out


def old_element_basis(model, terms):
    """The interleaved elimination of the old `FinitaryElement.__init__`:
    the left factors' echelon rows and the terms it kept."""
    basis = {}
    payload = {}
    for v, w in terms:
        row = v.to_sparse()
        while row:
            p = min(row)
            if p in basis:
                c = row[p]
                payload[p] = payload[p].add(w.scale(c))
                row = _old_axpy(row, -c, basis[p])
            else:
                pv = row[p]
                new_row = {k: val / pv for k, val in row.items()}
                new_pay = w.scale(pv)
                for q in list(basis):
                    if p in basis[q]:
                        c = basis[q][p]
                        new_pay = new_pay.add(payload[q].scale(c))
                        basis[q] = _old_axpy(basis[q], -c, new_row)
                basis[p] = new_row
                payload[p] = new_pay
                break
    rows = [basis[p] for p in sorted(basis)]
    kept = tuple(
        (Vector.from_sparse(model, SIDE_V, basis[p]), payload[p])
        for p in sorted(basis)
        if not payload[p].is_zero()
    )
    return rows, kept


def in_row_space(row, basis_rows):
    v = list(row)
    for b in basis_rows:
        p = next((j for j, w in enumerate(b) if w), None)
        if p is not None and v[p]:
            c = v[p] / b[p]
            v = [a - c * w for a, w in zip(v, b)]
    return all(not a for a in v)


def reduce_vector(vec, rows):
    v = list(vec)
    for r in rows:
        p = next((j for j, w in enumerate(r) if w), None)
        if p is not None and v[p]:
            c = v[p] / r[p]
            v = [a - c * w for a, w in zip(v, r)]
    return v


def old_spin(vectors, actions, dim):
    rows = row_space_basis([list(v) for v in vectors], dim)
    queue = list(rows)
    while queue:
        v = queue.pop()
        for a in actions:
            img = [
                sum((a.entries[i][c] * v[c] for c in range(dim)), QZERO)
                for i in range(dim)
            ]
            if not in_row_space(img, rows):
                rows = row_space_basis(rows + [img], dim)
                queue.append(img)
    return rows


def is_reduced(rows):
    """Every row's pivot, its smallest key, is absent from the other rows."""
    pivots = [min(r) for r in rows]
    return all(p not in r for i, p in enumerate(pivots) for j, r in enumerate(rows) if i != j)


def plain_coords(rows, vec, width):
    """Solve sum_k c_k rows[k] = vec by plain Fraction Gauss-Jordan
    elimination on the dense augmented system; None when inconsistent."""
    k = len(rows)
    aug = [[dense(r, width)[i] for r in rows] + [vec[i]] for i in range(width)]
    piv_cols = []
    r = 0
    for c in range(k):
        p = next((i for i in range(r, width) if aug[i][c]), None)
        if p is None:
            continue
        aug[r], aug[p] = aug[p], aug[r]
        pv = aug[r][c]
        aug[r] = [x / pv for x in aug[r]]
        for i in range(width):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        piv_cols.append(c)
        r += 1
    if any(row[k] for row in aug[r:]):
        return None
    out = [QZERO] * k
    for i, c in enumerate(piv_cols):
        out[c] = aug[i][k]
    return out


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

WIDTH = 6
small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
int_rows = st.lists(
    st.dictionaries(st.integers(0, WIDTH - 1), small, max_size=4), max_size=6
)
keyed_row = st.dictionaries(st.tuples(st.integers(0, 1), st.integers(0, 3)), small, max_size=4)
keyed_rows = st.lists(keyed_row, max_size=5)


def same_span(a, b):
    ea, eb = Echelon(a), Echelon(b)
    return not any(map(ea.reduce, b)) and not any(map(eb.reduce, a))


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(keyed_rows)
def test_rows_match_old_sparse_rref(rows):
    new = Echelon(rows).rows()
    old = old_sparse_rref(rows)
    assert [min(r) for r in new] == [min(r) for r in old]
    assert same_span(new, old)
    assert is_reduced(new)
    assert all(r[min(r)] == 1 for r in new)
    if is_reduced(old):
        assert new == old
    assert Echelon(reversed(rows)).rows() == new


def test_old_sparse_rref_depended_on_order():
    a = {5: Fraction(1), 7: Fraction(1)}
    b = {1: Fraction(1), 5: Fraction(1)}
    assert old_sparse_rref([a, b]) != old_sparse_rref([b, a])
    assert Echelon([a, b]).rows() == Echelon([b, a]).rows() == old_sparse_rref([b, a])


def test_span_is_independent_of_generator_order():
    m = dense_line_model()
    a = Vector(m, SIDE_V, {5: 1, 7: 1})
    b = Vector(m, SIDE_V, {1: 1, 5: 1})
    assert Subspace.span(m, SIDE_V, gens=[a, b]) == Subspace.span(m, SIDE_V, gens=[b, a])


def _vector(model, side, row):
    n_aug = len(model.augs(side))
    return Vector.from_sparse(
        model, side, {(t, i): v for (t, i), v in row.items() if t == 1 or i < n_aug}
    )


@settings(max_examples=100, deadline=None)
@given(keyed_rows, keyed_rows, st.integers(0, 3))
def test_residual_matches_old(gens, probes, period_bit):
    m = dense_line_model()
    aligned = EpSet.from_residues(2, (0,)) if period_bit == 0 else EpSet.finite({period_bit})
    gen_vecs = [_vector(m, SIDE_V, g) for g in gens]
    sub = Subspace.span(m, SIDE_V, aligned, gen_vecs)
    old_aligned, old_corr = old_span_corrections(aligned, gen_vecs)
    # the old form could miss a basis vector hidden in an unreduced row
    assert old_aligned.is_subset(sub.aligned)
    assert all(old_residual(old_aligned, old_corr, c).is_zero() for c in sub.corrections)
    for probe in probes + gens:
        v = _vector(m, SIDE_V, probe)
        r = sub.residual(v)
        assert r == old_residual(old_aligned, old_corr, v)
        assert sub.member(v) == r.is_zero()


def _operator(terms):
    """Entries of sum v (x) w, keyed by (left key, right key)."""
    out = {}
    for v, w in terms:
        for a, x in v.to_sparse().items():
            for b, y in w.to_sparse().items():
                out[(a, b)] = out.get((a, b), QZERO) + x * y
    return {k: v for k, v in out.items() if v}


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(keyed_row, keyed_row), max_size=4))
def test_element_terms_match_old(pairs):
    m = dense_line_model()
    terms = [(_vector(m, SIDE_V, v), _vector(m, SIDE_W, w)) for v, w in pairs]
    x = FinitaryElement(m, terms)
    old_rows, old_terms = old_element_basis(m, terms)
    if is_reduced(old_rows):
        assert x.terms == old_terms
    assert _operator(x.terms) == _operator(old_terms) == _operator(terms)
    assert is_reduced([v.to_sparse() for v, _ in x.terms])


@settings(max_examples=150, deadline=None)
@given(int_rows, st.lists(st.lists(small, min_size=WIDTH, max_size=WIDTH), max_size=4))
def test_membership_and_reduction_match_old(rows, probes):
    basis = row_space_basis([dense(r, WIDTH) for r in rows], WIDTH)
    span = Echelon(rows)
    assert [dense(r, WIDTH) for r in span.rows()] == basis
    for vec in probes + basis:
        assert dense(span.reduce(sparse(vec)), WIDTH) == reduce_vector(vec, basis)
        assert (not span.reduce(sparse(vec))) == in_row_space(vec, basis)


@settings(max_examples=150, deadline=None)
@given(int_rows, st.lists(st.lists(small, min_size=WIDTH, max_size=WIDTH), max_size=4))
def test_coords_match_plain_elimination(rows, probes):
    span = Echelon(rows)
    basis = span.rows()
    combos = [
        [sum((c * r.get(j, QZERO) for c, r in zip(vec, basis)), QZERO) for j in range(WIDTH)]
        for vec in probes
    ]
    for vec in probes + combos:
        coords = span.coords(sparse(vec))
        assert coords == plain_coords(basis, vec, WIDTH)
        if coords is not None:
            back = [sum((c * r.get(j, QZERO) for c, r in zip(coords, basis)), QZERO)
                    for j in range(WIDTH)]
            assert back == list(vec)


def test_add_reports_growth():
    span = Echelon()
    assert span.add({0: Fraction(2), 1: Fraction(4)})
    assert not span.add({0: Fraction(1), 1: Fraction(2)})
    assert not span.add({})
    assert span.add({1: Fraction(3)})
    assert span.pivots == [0, 1]
    assert span.rows() == [{0: Fraction(1)}, {1: Fraction(1)}]


square = st.integers(2, 4).flatmap(
    lambda d: st.tuples(
        st.just(d),
        st.lists(st.lists(st.lists(st.integers(-2, 2), min_size=d, max_size=d),
                          min_size=d, max_size=d), min_size=1, max_size=2),
        st.lists(st.lists(st.integers(-2, 2), min_size=d, max_size=d), min_size=1, max_size=2),
    )
)


@settings(max_examples=80, deadline=None)
@given(square)
def test_spin_matches_old(case):
    dim, mats, vecs = case
    actions = [Matrix(m) for m in mats]
    vectors = [[Fraction(v) for v in vec] for vec in vecs]
    assert spin(vectors, actions, dim) == old_spin(vectors, actions, dim)
    for a in actions:
        for v in vectors:
            assert a.apply(v) == [
                sum((a.entries[i][c] * v[c] for c in range(dim)), QZERO) for i in range(dim)
            ]
