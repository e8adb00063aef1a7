import random
from fractions import Fraction
from functools import reduce
from math import lcm
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from _corpus import (
    block_parabolic_basis,
    direct_sum_basis,
    gl_basis,
    is_exact,
    sl_basis,
    upper_triangular_basis,
)
from _dense import (
    Dense,
    dense_is_nilpotent,
    dense_jordan_chevalley,
    dense_minpoly,
    dense_poly_eval_matrix,
    flat,
    of_flat,
    poly_is_squarefree,
    solve,
)
from flagforge import exactnum
from flagforge.exactnum import (
    QONE,
    QZERO,
    CheckFailed,
    Echelon,
    _compose_mod,
    dense,
    is_nilpotent,
    jordan_chevalley,
    kernel,
    minpoly,
    poly_derivative,
    poly_eval_matrix,
    poly_factor_zz,
    poly_gcd,
    poly_mod,
    poly_mul,
    poly_squarefree_part,
    poly_sub,
    poly_xgcd,
    sparse,
)
from flagforge.finoracle import _min_poly_factors

F = Fraction


def jc(m):
    """`jordan_chevalley` of a matrix, its parts read back as matrices."""
    return tuple(of_flat(part, m.rows) for part in jordan_chevalley(flat(m), m.rows))


def nilpotent(m):
    return is_nilpotent(flat(m), m.rows)


def min_poly(m):
    return minpoly(flat(m), m.rows)


# ---------------------------------------------------------------------------
# references for the replaced kernels: the characteristic polynomial route
# of `jordan_chevalley` and `is_nilpotent`, and sympy's factorization over QQ
# ---------------------------------------------------------------------------


def charpoly(m: Dense) -> list[Fraction]:
    """Monic characteristic polynomial via Faddeev-LeVerrier, over its own
    `Fraction`s."""
    n = m.rows
    if n == 0:
        return [F(1)]
    coeffs = [F(0)] * (n + 1)
    coeffs[n] = F(1)
    mk = Dense.identity(n)
    for k in range(1, n + 1):
        mk = m * mk
        ck = -sum((mk.entries[i][i] for i in range(n)), F(0)) / k
        coeffs[n - k] = ck
        if k < n:
            mk = mk + Dense.identity(n).scale(ck)
    return coeffs


def charpoly_jordan_chevalley(m: Dense) -> tuple[Dense, Dense]:
    """ss = P(m) with P from Newton iteration in Q[t]/(charpoly)."""
    n = m.rows
    if n == 0:
        return m, m
    chi = charpoly(m)
    q = poly_squarefree_part(chi)
    if len(q) == len(chi):
        return m, Dense.zero(n, n)
    dq = poly_derivative(q)
    _, _, u = poly_xgcd(q, dq)
    s = [QZERO, QONE]
    for _ in range(n + 2):
        qs = poly_mod(_compose_mod(q, s, chi), chi)
        if not qs:
            break
        dqs = poly_mod(_compose_mod(dq, s, chi), chi)
        u = poly_mod(poly_mul(u, poly_sub([Fraction(2)], poly_mul(dqs, u))), chi)
        s = poly_mod(poly_sub(s, poly_mul(qs, u)), chi)
    else:
        raise CheckFailed("Newton lifting did not stabilize", m)
    ss = dense_poly_eval_matrix(s, m)
    return ss, m - ss


def charpoly_is_nilpotent(m: Dense) -> bool:
    return charpoly(m)[:-1] == [QZERO] * m.rows


def qq_min_poly_factors(theta: Dense):
    """The factors of the minimal polynomial from sympy's `Poly` over QQ."""
    import sympy

    x = sympy.Symbol("x")
    poly = sympy.Poly([sympy.Rational(c) for c in reversed(min_poly(theta))], x, domain="QQ")
    return [
        ([Fraction(str(c)) for c in reversed(factor.all_coeffs())], mult)
        for factor, mult in poly.factor_list()[1]
    ]


def _elementary(n, i, j, c):
    """I + c e_ij, i != j, whose inverse is I - c e_ij."""
    return Dense([[int(a == b) + (c if (a, b) == (i, j) else 0) for b in range(n)]
                  for a in range(n)])


@st.composite
def random_matrices(draw):
    n = draw(st.integers(1, 5))
    return Dense(draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                               min_size=n, max_size=n)))


@st.composite
def single_eigenvalue_matrices(draw):
    """P (lambda I + N) P^-1, N strictly upper triangular, P a product of
    elementary matrices."""
    n = draw(st.integers(1, 5))
    lam = draw(st.sampled_from([F(0), F(0), F(1), F(-2), F(1, 2)]))
    m = Dense([[lam if i == j else (draw(st.integers(-2, 2)) if j > i else 0)
                for j in range(n)] for i in range(n)])
    if n > 1:
        for _ in range(draw(st.integers(0, 3))):
            i, j = draw(st.permutations(range(n)))[:2]
            c = draw(st.integers(-2, 2))
            m = _elementary(n, i, j, c) * m * _elementary(n, i, j, -c)
    return m


ORACLE_FAMILIES = [
    upper_triangular_basis(3),
    upper_triangular_basis(5),
    block_parabolic_basis([1, 2]),
    block_parabolic_basis([2, 2]),
    block_parabolic_basis([1, 1, 2]),
    direct_sum_basis([(gl_basis(1), 1), (sl_basis(2), 2)]),
    direct_sum_basis([(gl_basis(2), 2), (gl_basis(2), 2)]),
    sl_basis(3),
]


@st.composite
def oracle_family_elements(draw):
    """A small integer combination of the basis of a block parabolic, a
    direct sum or sl_3, conjugated by a permutation of the basis vectors."""
    basis = draw(st.sampled_from(ORACLE_FAMILIES))
    n = basis[0].rows
    acc = Dense.zero(n, n)
    for b in basis:
        acc = acc + b.scale(draw(st.integers(-2, 2)))
    p = draw(st.permutations(range(n)))
    return Dense([[acc.entries[p[i]][p[j]] for j in range(n)] for i in range(n)])


square_matrices = st.one_of(
    random_matrices(), single_eigenvalue_matrices(), oracle_family_elements()
)


@settings(max_examples=200, deadline=None)
@given(square_matrices)
def test_jordan_chevalley_matches_charpoly_newton(m):
    assert jc(m) == charpoly_jordan_chevalley(m)


@settings(max_examples=200, deadline=None)
@given(square_matrices)
def test_is_nilpotent_matches_charpoly(m):
    for x in (m, charpoly_jordan_chevalley(m)[1]):
        assert nilpotent(x) == charpoly_is_nilpotent(x)


@settings(max_examples=200, deadline=None)
@given(square_matrices)
def test_min_poly_factors_match_qq_poly(m):
    assert _min_poly_factors(flat(m), m.rows) == qq_min_poly_factors(m)


# ---------------------------------------------------------------------------
# the sparse kernel against the dense one it replaced
# ---------------------------------------------------------------------------


_wide_entries = st.one_of(
    st.just(F(0)), st.integers(-3, 3).map(F),
    st.fractions(-(2 ** 40), 2 ** 40, max_denominator=2 ** 40),
)


@st.composite
def wide_matrices(draw):
    """n x n, n <= 4 and possibly 0 or 1, with entries that are zero, small
    or carry denominators up to 2^40; half of them nilpotent (strictly
    triangular) or one eigenvalue plus a nilpotent."""
    n = draw(st.integers(0, 4))
    shape = draw(st.sampled_from(["full", "strict", "shifted"]))
    lam = draw(_wide_entries)
    return Dense([[draw(_wide_entries) if shape == "full" or j > i else
                   (lam if shape == "shifted" and i == j else F(0))
                   for j in range(n)] for i in range(n)])


@settings(max_examples=150, deadline=None)
@given(st.one_of(wide_matrices(), square_matrices),
       st.lists(_wide_entries, max_size=4))
def test_sparse_kernel_matches_the_dense_reference(m, poly):
    n = m.rows
    assert min_poly(m) == dense_minpoly(m)
    assert jc(m) == dense_jordan_chevalley(m)
    assert nilpotent(m) == dense_is_nilpotent(m)
    assert of_flat(poly_eval_matrix(poly, flat(m), n), n) == dense_poly_eval_matrix(poly, m)
    for part in jordan_chevalley(flat(m), n):
        assert all(is_exact(v) and v for v in part.values())


def test_sparse_kernel_on_empty_and_one_by_one_matrices():
    assert minpoly({}, 0) == [QONE] and jordan_chevalley({}, 0) == ({}, {})
    assert is_nilpotent({}, 0) and poly_eval_matrix([F(3)], {}, 0) == {}
    assert minpoly({}, 1) == [QZERO, QONE] and is_nilpotent({}, 1)
    big = F(2 ** 40 - 1, 2 ** 40)
    assert minpoly({0: big}, 1) == [-big, QONE] and not is_nilpotent({0: big}, 1)
    assert jordan_chevalley({0: big}, 1) == ({0: big}, {})
    assert poly_eval_matrix([F(1), F(0), F(1)], {0: big}, 1) == {0: 1 + big * big}


# ---------------------------------------------------------------------------
# factoring over ZZ against sympy's `dup_factor_list`
# ---------------------------------------------------------------------------


def zz_factor_list(f):
    """sympy's `dup_factor_list` over ZZ, on and to coefficient lists with
    index = degree."""
    from sympy.polys.domains import ZZ
    from sympy.polys.factortools import dup_factor_list

    cont, factors = dup_factor_list([ZZ(c) for c in reversed(f)], ZZ)
    return int(cont), [([int(c) for c in reversed(g)], m) for g, m in factors]


def int_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _cyclotomics(top):
    """Phi_n for n <= top: x^n - 1 divided by Phi_d for the proper divisors d."""
    phi = {}
    for n in range(1, top + 1):
        f = [-1] + [0] * (n - 1) + [1]
        for d in range(1, n):
            if n % d == 0:
                quo = [0] * (len(f) - len(phi[d]) + 1)
                for k in reversed(range(len(quo))):
                    quo[k] = f[k + len(phi[d]) - 1]
                    for i, b in enumerate(phi[d]):
                        f[k + i] -= quo[k] * b
                assert not any(f)
                f = quo
        phi[n] = f
    return phi


CYCLOTOMIC = _cyclotomics(30)
# irreducible over Z, split modulo every prime: only recombination finds them
SPLIT_EVERYWHERE = [[1, 0, 0, 0, 1], [1, 0, -10, 0, 1]]


@st.composite
def factor_products(draw):
    """A random content and sign times random factors of degree <= 3, some
    repeated, of degree <= 10 in all."""
    f = [draw(st.integers(-12, 12).filter(bool))]
    for _ in range(draw(st.integers(0, 5))):
        d = draw(st.integers(1, 3))
        g = draw(st.lists(st.integers(-5, 5), min_size=d, max_size=d))
        g.append(draw(st.integers(-3, 3).filter(bool)))
        for _ in range(draw(st.integers(1, 3))):
            if len(f) + d <= 11:
                f = int_mul(f, g)
    return f


cyclotomic_products = st.lists(
    st.sampled_from(sorted(CYCLOTOMIC)), min_size=1, max_size=3
).map(lambda ns: reduce(int_mul, (CYCLOTOMIC[n] for n in ns)))


def _cleared_minpoly(m):
    coeffs = min_poly(m)
    den = lcm(*(c.denominator for c in coeffs))
    return [int(c * den) for c in coeffs]


integer_polynomials = st.one_of(
    factor_products(),
    cyclotomic_products,
    st.sampled_from(SPLIT_EVERYWHERE),
    st.tuples(st.integers(-9, 9), st.integers(-9, 9)).map(  # constant or linear
        lambda ab: list(ab) if ab[1] else [ab[0]] if ab[0] else []),
    square_matrices.map(_cleared_minpoly),
)


@settings(max_examples=300, deadline=None)
@given(integer_polynomials)
def test_factor_zz_matches_sympy(f):
    assert poly_factor_zz(f) == zz_factor_list(f)


def test_factor_zz_on_named_polynomials():
    named = [[], [1], [-7], [0, 3], [6, -4], [0, 0, -2]]
    named += list(CYCLOTOMIC.values()) + SPLIT_EVERYWHERE
    named += [int_mul(f, g) for f in SPLIT_EVERYWHERE for g in SPLIT_EVERYWHERE]
    named += [[-2 * c for c in f] for f in SPLIT_EVERYWHERE]
    named += [[0, -1, 1], [-1, 0, 1], [0, -1, 0, 1]]  # every oracle minimal polynomial
    for f in named:
        assert poly_factor_zz(f) == zz_factor_list(f), f


@settings(max_examples=100, deadline=None)
@given(st.one_of(factor_products(), st.just([1, -1, 1, 0, 1, 1, -1, 0, -1, 1])))
def test_lift_bound_covers_every_factor(f):
    # (x + 1)(x^8 - 2x^7 + 2x^6 - 3x^5 + 4x^4 - 3x^3 + 3x^2 - 2x + 1) has a
    # factor coefficient above |f|_2 + 1: the 2^n of Mignotte's bound matters
    _, factors = zz_factor_list(f)
    for g, _ in factors:
        assert Fraction(abs(f[-1]), g[-1]) * max(map(abs, g)) <= exactnum._lift_bound(f)


@settings(max_examples=300, deadline=None)
@given(factor_products(), st.lists(st.integers(-4, 4), min_size=1, max_size=3),
       st.integers(-3, 3).filter(bool))
def test_zz_division_has_zero_remainder_iff_exact(f, g, lead):
    # recombination and Yun divide over Z: a zero remainder must mean that g
    # divides f in Z[x], i.e. the quotient over Q has integer coefficients
    g = g + [lead]
    for p in (f, int_mul(f, g)):
        quo, rem = exactnum._divmod(p, g)
        q_quo, q_rem = exactnum.poly_divmod([Fraction(c) for c in p], g)
        exact = not q_rem and all(c.denominator == 1 for c in q_quo)
        assert (not rem) == exact
        if exact:
            assert quo == q_quo


def test_factor_zz_does_not_depend_on_the_splitting_seed(monkeypatch):
    polys = SPLIT_EVERYWHERE + [int_mul(CYCLOTOMIC[15], CYCLOTOMIC[24]), CYCLOTOMIC[21]]
    expected = [poly_factor_zz(f) for f in polys]
    for seed in (1, 2, 3):
        seeded = SimpleNamespace(Random=lambda _, s=seed: random.Random(s))
        monkeypatch.setattr(exactnum, "random", seeded)
        assert [poly_factor_zz(f) for f in polys] == expected


def M(rows):
    return Dense(rows)


def echelon_of(m):
    return Echelon(map(sparse, m.entries))


def test_rref_rank_one():
    ech = echelon_of(M([[2, 4], [1, 2]]))
    assert ech.rows() == [{0: 1, 1: 2}]
    assert ech.pivots == [0]


def test_rref_identity():
    ech = echelon_of(Dense.identity(3))
    assert ech.rows() == [{0: 1}, {1: 1}, {2: 1}]
    assert ech.pivots == [0, 1, 2]


def test_rref_swap():
    ech = echelon_of(M([[0, 1], [1, 0]]))
    assert ech.rows() == [{0: 1}, {1: 1}]
    assert ech.pivots == [0, 1]


def dense_kernel(m):
    return [dense(v, m.cols) for v in kernel(map(sparse, m.entries), m.cols)]


def test_kernel_single_relation():
    basis = dense_kernel(M([[1, 1]]))
    assert len(basis) == 1
    x, y = basis[0]
    assert x == -y and x != 0


def test_kernel_identity_empty():
    assert dense_kernel(Dense.identity(3)) == []


def test_kernel_proportional_rows():
    basis = dense_kernel(M([[1, 2], [2, 4]]))
    assert len(basis) == 1
    x, y = basis[0]
    # (2, -1) up to scale
    assert x * (-1) == y * 2


def test_charpoly_zero():
    assert charpoly(Dense.zero(2, 2)) == [F(0), F(0), F(1)]


def test_charpoly_rotation():
    assert charpoly(M([[0, 1], [-1, 0]])) == [F(1), F(0), F(1)]


def test_charpoly_jordan_block():
    # (t - 1)^2 = t^2 - 2 t + 1
    assert charpoly(M([[1, 1], [0, 1]])) == [F(1), F(-2), F(1)]


def test_jc_nilpotent_input():
    ss, nil = jc(M([[0, 1], [0, 0]]))
    assert ss.is_zero()
    assert nil == M([[0, 1], [0, 0]])


def test_jc_jordan_block():
    ss, nil = jc(M([[1, 1], [0, 1]]))
    assert ss == Dense.identity(2)
    assert nil == M([[0, 1], [0, 0]])


def test_jc_semisimple_input():
    m = M([[0, 1], [-1, 0]])
    ss, nil = jc(m)
    assert ss == m
    assert nil.is_zero()


def _check_jc(m):
    n = m.rows
    ss, nil = jc(m)
    assert ss + nil == m
    assert ss * nil == nil * ss
    assert nilpotent(nil)
    assert poly_is_squarefree(min_poly(ss))
    # ss is a polynomial in m: solve for coefficients on powers of m
    powers = [Dense.identity(n)]
    for _ in range(n):
        powers.append(powers[-1] * m)
    cols = [p.flatten() for p in powers]
    coeff = Dense(list(zip(*cols)))
    x = solve(coeff, ss.flatten())
    assert x is not None
    assert of_flat(poly_eval_matrix(list(x), flat(m), n), n) == ss


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
    ss, nil = jc(m)
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
    assert len(echelon_of(m).pivots) == m.cols - len(dense_kernel(m))
    for v in dense_kernel(m):
        prod = [sum(m.entries[i][j] * v[j] for j in range(m.cols)) for i in range(m.rows)]
        assert all(p == 0 for p in prod)


def test_row_space_membership():
    span = echelon_of(M([[1, 2, 3], [0, 1, 1]]))
    assert span.coords(sparse([F(1), F(3), F(4)])) == [F(1), F(3)]
    assert span.coords(sparse([F(0), F(0), F(1)])) is None


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
        assert all(is_exact(v) for row in mat.entries for v in row), op


@settings(max_examples=60, deadline=None)
@given(
    coeffs=st.dictionaries(st.integers(0, 4), st.integers(-2, 2).map(Fraction), max_size=5),
    rows=st.lists(st.dictionaries(st.integers(0, 5), st.integers(-3, 3).filter(bool).map(Fraction),
                                  max_size=3), min_size=5, max_size=5),
)
def test_combine_matches_the_dense_sum(coeffs, rows):
    want = [sum((c * rows[k].get(j, 0) for k, c in coeffs.items()), QZERO) for j in range(6)]
    for given_rows in (rows, {k: r for k, r in enumerate(rows) if r}):
        got = exactnum.combine(coeffs, given_rows)
        assert dense(got, 6) == want and all(got.values())
