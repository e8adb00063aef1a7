from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagforge.exactnum import (
    Matrix,
    NonSquare,
    charpoly,
    in_row_space,
    is_nilpotent,
    jordan_chevalley,
    kernel,
    minpoly,
    poly_derivative,
    poly_eval_matrix,
    poly_gcd,
    poly_is_squarefree,
    rank,
    rref,
    solve,
)

F = Fraction


def M(rows):
    return Matrix(rows)


def test_rref_rank_one():
    red, pivots = rref(M([[2, 4], [1, 2]]))
    assert red == M([[1, 2], [0, 0]])
    assert pivots == [0]


def test_rref_identity():
    red, pivots = rref(Matrix.identity(3))
    assert red == Matrix.identity(3)
    assert pivots == [0, 1, 2]


def test_rref_swap():
    red, pivots = rref(M([[0, 1], [1, 0]]))
    assert red == Matrix.identity(2)
    assert pivots == [0, 1]


def test_kernel_single_relation():
    basis = kernel(M([[1, 1]]))
    assert len(basis) == 1
    x, y = basis[0]
    assert x == -y and x != 0


def test_kernel_identity_empty():
    assert kernel(Matrix.identity(3)) == []


def test_kernel_proportional_rows():
    basis = kernel(M([[1, 2], [2, 4]]))
    assert len(basis) == 1
    x, y = basis[0]
    # (2, -1) up to scale
    assert x * (-1) == y * 2


def test_charpoly_zero():
    assert charpoly(Matrix.zero(2, 2)) == [F(0), F(0), F(1)]


def test_charpoly_rotation():
    assert charpoly(M([[0, 1], [-1, 0]])) == [F(1), F(0), F(1)]


def test_charpoly_jordan_block():
    # (t - 1)^2 = t^2 - 2 t + 1
    assert charpoly(M([[1, 1], [0, 1]])) == [F(1), F(-2), F(1)]


def test_charpoly_nonsquare():
    with pytest.raises(NonSquare):
        charpoly(Matrix.zero(2, 3))


def test_jc_nilpotent_input():
    ss, nil = jordan_chevalley(M([[0, 1], [0, 0]]))
    assert ss.is_zero()
    assert nil == M([[0, 1], [0, 0]])


def test_jc_jordan_block():
    ss, nil = jordan_chevalley(M([[1, 1], [0, 1]]))
    assert ss == Matrix.identity(2)
    assert nil == M([[0, 1], [0, 0]])


def test_jc_semisimple_input():
    m = M([[0, 1], [-1, 0]])
    ss, nil = jordan_chevalley(m)
    assert ss == m
    assert nil.is_zero()


def _check_jc(m):
    n = m.rows
    ss, nil = jordan_chevalley(m)
    assert ss + nil == m
    assert ss * nil == nil * ss
    assert is_nilpotent(nil)
    assert poly_is_squarefree(minpoly(ss))
    # ss is a polynomial in m: solve for coefficients on powers of m
    powers = [Matrix.identity(n)]
    for _ in range(n):
        powers.append(powers[-1] * m)
    cols = [p.flatten() for p in powers]
    coeff = Matrix.from_rows(list(map(list, zip(*cols))))
    x = solve(coeff, ss.flatten())
    assert x is not None
    assert poly_eval_matrix(list(x), m) == ss


def test_jc_mixed_blocks():
    _check_jc(
        M(
            [
                [2, 1, 0, 0],
                [0, 2, 0, 0],
                [0, 0, 0, 1],
                [0, 0, -4, 4],
            ]
        )
    )


def test_jc_companion_t4_minus_1():
    m = M([[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    ss, nil = jordan_chevalley(m)
    assert nil.is_zero() and ss == m


small_entries = st.integers(min_value=-3, max_value=3)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.lists(
            st.lists(small_entries, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
)
def test_jc_properties_random(rows):
    _check_jc(M(rows))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.lists(small_entries, min_size=n, max_size=n), min_size=2, max_size=4
            ),
        )
    )
)
def test_rank_nullity(n_rows):
    n, rows = n_rows
    m = M(rows)
    assert rank(m) == m.cols - len(kernel(m))
    for v in kernel(m):
        prod = [sum(m.entries[i][j] * v[j] for j in range(m.cols)) for i in range(m.rows)]
        assert all(p == 0 for p in prod)


def test_row_space_membership():
    basis_mat, piv = rref(M([[1, 2, 3], [0, 1, 1]]))
    rows = [basis_mat.row(i) for i in range(len(piv))]
    assert in_row_space([F(1), F(3), F(4)], rows)
    assert not in_row_space([F(0), F(0), F(1)], rows)


def test_poly_gcd_squarefree():
    # (t-1)^2 (t+2): gcd with derivative is (t-1)
    p = [F(2), F(-3), F(0), F(1)]
    g = poly_gcd(p, poly_derivative(p))
    assert g == [F(-1), F(1)]


small_fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


def _plain_grid(r, c):
    return st.lists(st.lists(small_fractions, min_size=c, max_size=c), min_size=r, max_size=r)


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)).flatmap(
        lambda s: st.tuples(_plain_grid(s[0], s[1]), _plain_grid(s[0], s[1]),
                            _plain_grid(s[1], s[2]), small_fractions)
    )
)
def test_matrix_arithmetic_matches_fraction_loops(args):
    a, b, c, k = args
    r, m, p = len(a), len(a[0]), len(c[0])
    want = {
        "+": [[a[i][j] + b[i][j] for j in range(m)] for i in range(r)],
        "-": [[a[i][j] - b[i][j] for j in range(m)] for i in range(r)],
        "scale": [[k * a[i][j] for j in range(m)] for i in range(r)],
        "*": [[sum((a[i][t] * c[t][j] for t in range(m)), Fraction(0)) for j in range(p)]
              for i in range(r)],
    }
    got = {
        "+": M(a) + M(b),
        "-": M(a) - M(b),
        "scale": M(a).scale(k),
        "*": M(a) * M(c),
    }
    for op, mat in got.items():
        assert mat.entries == want[op], op
        assert (mat.rows, mat.cols) == (len(want[op]), len(want[op][0])), op
        assert all(type(v) is Fraction for row in mat.entries for v in row), op
