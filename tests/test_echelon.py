"""Differential tests of the elimination kernel `exactnum.Echelon`.

The eliminations it replaced are kept here as references: the sparse
reduced echelon form and residual of `pairedspace`, the term
canonicalization of `finitary.FinitaryElement`, `in_row_space`,
`_reduce_vector` and `spin` of `exactnum`/`finoracle`, the fraction-free
integer batch elimination behind `kernel`, `solve` and `row_space_basis`
(whose rows and pivots are checked on `Echelon` itself), and the
solve-per-power `minpoly`.  The references work on plain lists of
Fractions and import nothing from `exactnum`.

The old sparse echelon form did not reduce a new row against the pivots
after its own, so its rows depended on the order of the input and could be
left unreduced.  Where its output is reduced, the rows must be identical;
otherwise they must span the same space with the same pivots.  The left
factors of a `FinitaryElement` are independent but not unique, so its
terms are checked against the old ones through the operator they define.
"""

from fractions import Fraction
from math import gcd

from hypothesis import example, given, settings
from hypothesis import strategies as st

from _corpus import (
    add_vectors,
    element_terms,
    has_independent_rows,
    is_zero_vector,
    member,
    operator,
    residue,
    row_space_basis,
    scale_vector,
    span,
    vectors,
)
from _dense import Dense, flat, solve
from flagforge.epcore import EpSet
from flagforge.exactnum import (
    Echelon,
    dense,
    kernel,
    minpoly,
    sparse,
)
from flagforge.finitary import FinitaryElement
from flagforge.finoracle import spin
from flagforge.pairedspace import (
    SIDE_V,
    SIDE_W,
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
    the terms it kept."""
    basis = {}
    payload = {}
    for v, w in terms:
        row = v.to_sparse()
        while row:
            p = min(row)
            if p in basis:
                c = row[p]
                payload[p] = add_vectors(payload[p], scale_vector(w, c))
                row = _old_axpy(row, -c, basis[p])
            else:
                pv = row[p]
                new_row = {k: val / pv for k, val in row.items()}
                new_pay = scale_vector(w, pv)
                for q in list(basis):
                    if p in basis[q]:
                        c = basis[q][p]
                        new_pay = add_vectors(new_pay, scale_vector(payload[q], c))
                        basis[q] = _old_axpy(basis[q], -c, new_row)
                basis[p] = new_row
                payload[p] = new_pay
                break
    return tuple(
        (Vector.from_sparse(model, SIDE_V, basis[p]), payload[p])
        for p in sorted(basis)
        if not is_zero_vector(payload[p])
    )


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
    rows = old_row_space_basis([list(v) for v in vectors])
    queue = list(rows)
    while queue:
        v = queue.pop()
        for a in actions:
            img = [
                sum((a.entries[i][c] * v[c] for c in range(dim)), QZERO)
                for i in range(dim)
            ]
            if not in_row_space(img, rows):
                rows = old_row_space_basis(rows + [img])
                queue.append(img)
    return rows


def _int_rows(rows):
    """Rescale rational rows to primitive integer rows (per-row scaling)."""
    out = []
    for row in rows:
        den = 1
        for v in row:
            den = den * v.denominator // gcd(den, v.denominator)
        ints = [v.numerator * (den // v.denominator) for v in row]
        g = 0
        for v in ints:
            g = gcd(g, v)
        if g > 1:
            ints = [v // g for v in ints]
        out.append(ints)
    return out


def _int_row_reduce(rows, cols):
    """Fraction-free row echelon on integer rows: (echelon integer rows,
    pivot column list), the rows kept primitive."""
    rows = [r[:] for r in rows]
    pivots = []
    r = 0
    for c in range(cols):
        p = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                p = i
                break
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        prow = rows[r]
        pv = prow[c]
        for i in range(len(rows)):
            if i == r:
                continue
            v = rows[i][c]
            if v:
                g = gcd(pv, v)
                a, b = pv // g, v // g
                cur = rows[i]
                new = [a * cur[j] - b * prow[j] for j in range(cols)]
                gg = 0
                for w in new:
                    gg = gcd(gg, w)
                if gg > 1:
                    new = [w // gg for w in new]
                rows[i] = new
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def old_rref(entries, cols):
    """The old batch `rref` on the rows of a matrix with cols columns: the
    dense RREF rows padded with zero rows, and the pivot columns."""
    ech, pivots = _int_row_reduce(_int_rows(entries), cols)
    out = [[Fraction(v, row[c]) for v in row] for row, c in zip(ech, pivots)]
    out += [[QZERO] * cols for _ in range(len(entries) - len(out))]
    return out, pivots


def old_row_space_basis(rows):
    if not rows:
        return []
    red, pivots = old_rref(rows, len(rows[0]))
    return red[: len(pivots)]


def old_kernel(entries, cols):
    red, pivots = old_rref(entries, cols)
    basis = []
    for f in range(cols):
        if f not in pivots:
            vec = [QZERO] * cols
            vec[f] = Fraction(1)
            for r, c in enumerate(pivots):
                vec[c] = -red[r][f]
            basis.append(vec)
    return basis


def old_solve(entries, cols, rhs):
    red, pivots = old_rref([row + [v] for row, v in zip(entries, rhs)], cols + 1)
    if cols in pivots:
        return None
    x = [QZERO] * cols
    for r, c in enumerate(pivots):
        x[c] = red[r][cols]
    return x


def _matmul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), QZERO) for col in zip(*b)] for row in a]


def old_minpoly(entries):
    """Solve m^k = sum_{i<k} x_i m^i from scratch for k = 1, 2, ... and
    return t^k - sum x_i t^i for the first k that has a solution."""
    n = len(entries)
    if n == 0:
        return [Fraction(1)]
    power = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    flats = [[v for row in power for v in row]]
    while True:
        power = _matmul(power, entries)
        target = [v for row in power for v in row]
        x = old_solve([list(r) for r in zip(*flats)], len(flats), target)
        if x is not None:
            return [-v for v in x] + [Fraction(1)]
        flats.append(target)


def is_reduced(rows):
    """Every row's pivot, its smallest key, is absent from the other rows."""
    pivots = [min(r) for r in rows]
    return all(p not in r for i, p in enumerate(pivots) for j, r in enumerate(rows) if i != j)


def plain_coords(rows, vec, width):
    """Solve sum_k c_k rows[k] = vec by plain Fraction Gauss-Jordan
    elimination on the dense augmented system; None when inconsistent."""
    k = len(rows)
    aug = [[Fraction(r.get(i, QZERO)) for r in rows] + [Fraction(vec[i])] for i in range(width)]
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
    assert span(m, SIDE_V, gens=[a, b]) == span(m, SIDE_V, gens=[b, a])


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
    sub = span(m, SIDE_V, aligned, gen_vecs)
    old_aligned, old_corr = old_span_corrections(aligned, gen_vecs)
    # the old form could miss a basis vector hidden in an unreduced row
    assert old_aligned.is_subset(sub.aligned)
    assert all(is_zero_vector(old_residual(old_aligned, old_corr, c)) for c in vectors(sub))
    for probe in probes + gens:
        v = _vector(m, SIDE_V, probe)
        r = Vector.from_sparse(m, SIDE_V, residue(sub, v))
        assert r == old_residual(old_aligned, old_corr, v)
        assert member(sub, v) == is_zero_vector(r)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(keyed_row, keyed_row), max_size=4))
def test_element_terms_match_old(pairs):
    m = dense_line_model()
    terms = [(_vector(m, SIDE_V, v), _vector(m, SIDE_W, w)) for v, w in pairs]
    x = FinitaryElement(m, terms)
    old_terms = old_element_basis(m, terms)
    # the left factors are independent, not unique: the operator decides
    assert operator(element_terms(x)) == operator(old_terms) == operator(terms)
    assert has_independent_rows(x)


@settings(max_examples=150, deadline=None)
@given(int_rows, st.lists(st.lists(small, min_size=WIDTH, max_size=WIDTH), max_size=4))
def test_membership_and_reduction_match_old(rows, probes):
    basis = old_row_space_basis([dense(r, WIDTH) for r in rows])
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
    actions = [Dense(m) for m in mats]
    vectors = [[Fraction(v) for v in vec] for vec in vecs]
    got = spin([sparse(v) for v in vectors], [flat(a) for a in actions], dim)
    assert [dense(r, dim) for r in got] == old_spin(vectors, actions, dim)
    for a in actions:
        for v in vectors:
            assert a.apply(v) == [
                sum((a.entries[i][c] * v[c] for c in range(dim)), QZERO) for i in range(dim)
            ]


# ---------------------------------------------------------------------------
# the batch functions against the integer batch elimination
# ---------------------------------------------------------------------------

entry = st.fractions(min_value=-3, max_value=3, max_denominator=4) | st.just(QZERO)
shaped = st.tuples(st.integers(0, 5), st.integers(0, 5)).flatmap(
    lambda rc: st.lists(
        st.lists(entry, min_size=rc[1], max_size=rc[1]), min_size=rc[0], max_size=rc[0]
    )
)


def check_batch(entries, rhs):
    m = Dense(entries)
    ech = Echelon(map(sparse, m.entries))
    red, pivots = old_rref(m.entries, m.cols)
    assert ech.pivots == pivots
    assert [dense(r, m.cols) for r in ech.rows()] == red[: len(pivots)]
    assert not any(any(row) for row in red[len(pivots):])
    null = kernel(map(sparse, m.entries), m.cols)
    assert all(v for x in null for v in x.values())
    assert [dense(x, m.cols) for x in null] == old_kernel(m.entries, m.cols)
    assert solve(m, rhs) == old_solve(m.entries, m.cols, rhs)
    assert row_space_basis(m.entries, m.cols) == old_row_space_basis(m.entries)


@settings(max_examples=200, deadline=None)
@given(shaped, st.data())
def test_batch_functions_match_integer_elimination(entries, data):
    rhs = data.draw(st.lists(entry, min_size=len(entries), max_size=len(entries)))
    check_batch(entries, rhs)
    # a consistent right-hand side: the image of a random vector
    if entries:
        x = data.draw(st.lists(entry, min_size=len(entries[0]), max_size=len(entries[0])))
        image = Dense(entries).apply(x) if x else [QZERO] * len(entries)
        assert solve(Dense(entries), image) is not None
        check_batch(entries, image)


def test_batch_functions_edge_shapes():
    one, two = Fraction(1), Fraction(2)
    cases = [
        ([], []),  # no rows
        ([[], []], [one, QZERO]),  # rows of width 0
        ([[QZERO] * 3] * 2, [QZERO, QZERO]),  # zero, consistent
        ([[QZERO] * 3] * 2, [QZERO, one]),  # zero, inconsistent
        ([[one, two, QZERO, one, one]], [two]),  # wide
        ([[one], [two], [QZERO], [one]], [one, two, QZERO, one]),  # tall, consistent
        ([[one], [two], [QZERO], [one]], [one, one, QZERO, one]),  # tall, inconsistent
        ([[one, one], [one, one]], [one, two]),  # inconsistent
    ]
    for entries, rhs in cases:
        check_batch(entries, rhs)
    assert solve(Dense([[one, one], [one, one]]), [one, two]) is None
    assert kernel([{}], 3) == kernel([], 3) == [{0: one}, {1: one}, {2: one}]
    assert row_space_basis([], 4) == [] and row_space_basis([[QZERO] * 4], 4) == []


square_matrix = st.integers(0, 4).flatmap(
    lambda n: st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
)


def _fr(rows):
    return [[Fraction(v) for v in row] for row in rows]


@settings(max_examples=150, deadline=None)
@given(square_matrix)
@example(_fr([[0, 0, 0], [0, 0, 0], [0, 0, 0]]))
@example(_fr([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
@example(_fr([[0, 1, 0], [0, 0, 1], [0, 0, 0]]))
@example(_fr([[0, -1], [1, 0]]))
def test_minpoly_matches_solve_per_power(entries):
    assert minpoly(flat(Dense(entries)), len(entries)) == old_minpoly(entries)
