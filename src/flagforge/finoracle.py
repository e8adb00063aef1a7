"""Finite-dimensional exact structure theory over Q.

This is the independent oracle: everything here works with explicit n x n
rational matrices and ordinary linear algebra, with no reference to the
countable model.  It provides solvable radicals, linear nilradicals, Levi
components, locally reductive parts, Cartan-subalgebra tests, invariant
taut couples from composition series, and parabolic checks at desk scale.

Randomized searches (the meataxe, torus extension, maximality probes) take
an explicit seed; given the seed everything is deterministic.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .exactnum import (
    CheckFailed,
    Echelon,
    Matrix,
    dense,
    is_nilpotent,
    jordan_chevalley,
    kernel,
    minpoly,
    poly_eval_matrix,
    poly_is_squarefree,
    row_space_basis,
    solve,
    sparse,
)

QZERO = Fraction(0)


class NotSplittable(ValueError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__("subalgebra is not closed under Jordan components")


class NotParabolicInput(ValueError):
    pass


class CertificationFailed(RuntimeError):
    """The Las Vegas irreducibility search ran out of restarts."""


# ---------------------------------------------------------------------------
# spans of matrices
# ---------------------------------------------------------------------------


class MatSpan:
    """Subspace of n x n matrices, stored as RREF rows of flattened entries.

    `echelon` holds the same rows in sparse form, for reduction,
    coordinates and membership."""

    __slots__ = ("n", "rows", "echelon")

    def __init__(self, n: int, rows=()):
        self.n = n
        self.rows = row_space_basis([list(r) for r in rows], n * n)
        self.echelon = Echelon(map(sparse, self.rows))

    @staticmethod
    def from_matrices(n: int, mats) -> "MatSpan":
        return MatSpan(n, [m.flatten() for m in mats])

    @property
    def dim(self) -> int:
        return len(self.rows)

    def member(self, m: Matrix) -> bool:
        return not self.echelon.reduce(sparse(m.flatten()))

    def contains(self, other: "MatSpan") -> bool:
        return not any(map(self.echelon.reduce, other.echelon.rows()))

    def __eq__(self, other):
        return isinstance(other, MatSpan) and self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return hash((self.n, tuple(tuple(r) for r in self.rows)))

    def matrices(self) -> list[Matrix]:
        n = self.n
        return [Matrix._of([r[i * n:(i + 1) * n] for i in range(n)]) for r in self.rows]

    def sum(self, other: "MatSpan") -> "MatSpan":
        return MatSpan(self.n, self.rows + other.rows)

    def intersect(self, other: "MatSpan") -> "MatSpan":
        if not self.rows or not other.rows:
            return MatSpan(self.n)
        cols = [
            [r[k] for r in self.rows] + [-r[k] for r in other.rows]
            for k in range(self.n * self.n)
        ]
        k = len(self.rows)
        rows_t = Matrix._of([list(c) for c in zip(*self.rows)])
        return MatSpan(self.n, [rows_t.apply(lam[:k]) for lam in kernel(Matrix(cols))])

    def coords_of(self, m: Matrix):
        """Coefficients over the RREF row basis, or None."""
        return self.echelon.coords(sparse(m.flatten()))


def unflatten(row, n: int) -> Matrix:
    return Matrix([[row[i * n + j] for j in range(n)] for i in range(n)])


def _lin_comb(coeffs, mats, n: int) -> Matrix:
    """sum_k coeffs[k] mats[k], over n x n matrices."""
    acc = [[QZERO] * n for _ in range(n)]
    for c, m in zip(coeffs, mats):
        if c:
            for arow, mrow in zip(acc, m.entries):
                for j, v in enumerate(mrow):
                    if v:
                        arow[j] += c * v
    return Matrix._of(acc)


def bracket(a: Matrix, b: Matrix) -> Matrix:
    return a * b - b * a


def bracket_span(a: MatSpan, b: MatSpan) -> MatSpan:
    mats = []
    for x in a.matrices():
        for y in b.matrices():
            mats.append(bracket(x, y))
    return MatSpan.from_matrices(a.n, mats)


def derived_series(s: MatSpan) -> list[MatSpan]:
    series = [s]
    while series[-1].dim:
        # [x, x] = 0 and [y, x] = -[x, y]: one bracket per unordered pair
        mats = series[-1].matrices()
        nxt = MatSpan.from_matrices(
            s.n, [bracket(x, y) for x, y in itertools.combinations(mats, 2)]
        )
        if nxt.dim == series[-1].dim:
            break
        series.append(nxt)
    return series


def is_solvable_span(s: MatSpan) -> bool:
    return derived_series(s)[-1].dim == 0


def lower_central_series(s: MatSpan) -> list[MatSpan]:
    series = [s]
    while series[-1].dim:
        nxt = bracket_span(s, series[-1])
        if nxt.dim == series[-1].dim:
            break
        series.append(nxt)
    return series


def is_nilpotent_span(s: MatSpan) -> bool:
    return lower_central_series(s)[-1].dim == 0


class FdLieAlgebra:
    """Matrix Lie algebra: an ambient size and a bracket-closed basis.

    The basis is the RREF basis of the span, so coordinate vectors from
    `span.coords_of` always agree with basis indexing.  Construction
    brackets every pair of basis elements once, to check closure, and keeps
    the coordinates of [x_i, x_j] as the structure constants
    `consts[i][j]`.  The ad matrices, the Killing form and the derived
    algebra are computed from them on first use and cached; so is the
    certified solvable radical (`solvable_radical`).  The caches assume
    that the basis is never mutated after construction.
    """

    __slots__ = (
        "n", "basis", "span", "consts",
        "_ad", "_killing", "_derived", "_derived_coords", "_radical",
    )

    def __init__(self, n: int, basis):
        self.n = n
        gens = [Matrix(b.entries) if isinstance(b, Matrix) else Matrix(b) for b in basis]
        self.span = MatSpan.from_matrices(n, gens)
        self.basis = self.span.matrices()
        d = len(self.basis)
        self.consts = [[[QZERO] * d for _ in range(d)] for _ in range(d)]
        for i, j in itertools.combinations(range(d), 2):
            c = self.span.coords_of(bracket(self.basis[i], self.basis[j]))
            if c is None:
                raise ValueError("basis is not closed under the bracket")
            self.consts[i][j] = c
            self.consts[j][i] = [-v for v in c]
        self._ad = None
        self._killing = None
        self._derived = None
        self._derived_coords = None
        self._radical = None

    @property
    def dim(self) -> int:
        return len(self.basis)

    def member(self, m: Matrix) -> bool:
        return self.span.member(m)

    def ad_matrices(self) -> list[Matrix]:
        """ad(x_i) in basis coordinates: column j is consts[i][j]."""
        if self._ad is None:
            self._ad = [
                Matrix._of([list(r) for r in zip(*row)]) for row in self.consts
            ]
        return self._ad

    def killing(self) -> Matrix:
        """K_ij = tr(ad x_i ad x_j) = sum_{k,l} c[i][l][k] c[j][k][l], summed
        over the nonzero constants c[i][l][k]."""
        if self._killing is None:
            c = self.consts
            d = self.dim
            nonzero = [
                [(l, k, v) for l, cl in enumerate(ci) for k, v in enumerate(cl) if v]
                for ci in c
            ]
            kill = [[QZERO] * d for _ in range(d)]
            for i in range(d):
                for j in range(i, d):
                    cj = c[j]
                    val = sum((v * cj[k][l] for l, k, v in nonzero[i] if cj[k][l]), QZERO)
                    kill[i][j] = val
                    kill[j][i] = val
            self._killing = Matrix._of(kill)
        return self._killing

    def derived_coords(self) -> list:
        """RREF basis of [g, g] in basis coordinates."""
        if self._derived_coords is None:
            self._derived_coords = row_space_basis(
                [c for i, row in enumerate(self.consts) for c in row[i + 1:]], self.dim
            )
        return self._derived_coords

    def derived(self) -> MatSpan:
        """The derived algebra [g, g]."""
        if self._derived is None:
            self._derived = MatSpan.from_matrices(
                self.n, [_lin_comb(r, self.basis, self.n) for r in self.derived_coords()]
            )
        return self._derived

    def subspan(self, mats) -> MatSpan:
        s = MatSpan.from_matrices(self.n, mats)
        if not self.span.contains(s):
            raise ValueError("matrices are not inside the algebra")
        return s

    def __repr__(self):
        return f"FdLieAlgebra(n={self.n}, dim={self.dim})"


def lie_close(n: int, gens) -> FdLieAlgebra:
    """Smallest bracket-closed subspace containing the generators."""
    span = MatSpan.from_matrices(n, list(gens))
    while True:
        mats = span.matrices()
        new = MatSpan(
            n,
            span.rows
            + [bracket(a, b).flatten() for a, b in itertools.combinations(mats, 2)],
        )
        if new.dim == span.dim:
            return FdLieAlgebra(n, span.matrices())
        span = new


# ---------------------------------------------------------------------------
# radical and linear nilradical
# ---------------------------------------------------------------------------


def solvable_radical(g: FdLieAlgebra) -> MatSpan:
    """Killing-perp of the derived subalgebra (exact, char 0), verified
    solvable by its derived series.  Computed once per algebra and cached
    on it."""
    if g._radical is not None:
        return g._radical
    d = g.dim
    if d == 0:
        g._radical = MatSpan(g.n)
        return g._radical
    kill = g.killing()
    rows = [kill.apply(mu) for mu in g.derived_coords()]
    if not rows:
        rows = [[QZERO] * d]
    rad = MatSpan.from_matrices(
        g.n, [_lin_comb(lam, g.basis, g.n) for lam in kernel(Matrix(rows))]
    )
    if not is_solvable_span(rad):
        raise CheckFailed("Killing-perp radical is not solvable", rad)
    g._radical = rad
    return rad


def linear_nilradical(g: FdLieAlgebra, seed: int = 0) -> MatSpan:
    """Matrix-nilpotent part of the solvable radical.

    The radical is triangularized over Q by a composition series of its
    natural module (irreducible quotients force semisimple generators to act
    through a field, so nilpotence becomes the linear condition of moving
    each chain step into the previous one).  Every output basis element is
    verified nilpotent and the span is verified to be an ideal.
    """
    rad = solvable_radical(g)
    if rad.dim == 0:
        return rad
    actions = rad.matrices()
    chain = composition_series(actions, g.n, random.Random(seed))
    # chain: increasing list of RREF row bases ending at the full space
    rows = []
    prev = Echelon()
    for level in chain:
        for w in level:
            if not prev.reduce(sparse(w)):
                continue
            resids = [prev.reduce(sparse(a.apply(w))) for a in actions]
            for r in range(g.n):
                rows.append([res.get(r, QZERO) for res in resids])
        prev = Echelon(map(sparse, level))
    coeffs = kernel(Matrix(rows)) if rows else []
    nil = MatSpan.from_matrices(g.n, [_lin_comb(lam, actions, g.n) for lam in coeffs])
    nil_mats = nil.matrices()
    for m in nil_mats:
        if not is_nilpotent(m):
            raise CheckFailed("nilradical candidate is not nilpotent", m)
    for b in g.basis:
        for m in nil_mats:
            if not nil.member(bracket(b, m)):
                raise CheckFailed("nilradical is not an ideal", (b, m))
    return nil


# ---------------------------------------------------------------------------
# meataxe: submodules, irreducibility, composition series
# ---------------------------------------------------------------------------


def spin(vectors, actions, dim) -> list:
    """RREF basis of the smallest subspace containing vectors and closed
    under the action matrices."""
    span = Echelon()
    queue = [list(v) for v in vectors if span.add(sparse(v))]
    while queue:
        v = queue.pop()
        for a in actions:
            img = a.apply(v)
            if span.add(sparse(img)):
                queue.append(img)
    return [dense(r, dim) for r in span.rows()]


def _theta_battery(actions, rng, dim, rounds):
    mats = [a for a in actions if not a.is_zero()]
    for a in mats:
        yield a
    for _ in range(rounds):
        if not mats:
            return
        combo = Matrix.zero(dim, dim)
        for a in mats:
            c = rng.randrange(-2, 3)
            if c:
                combo = combo + a.scale(c)
        if rng.random() < 0.5 and len(mats) >= 2:
            combo = combo + rng.choice(mats) * rng.choice(mats)
        if not combo.is_zero():
            yield combo


def _min_poly_factors(theta: Matrix):
    import sympy  # the only user; importing it costs more than the rest of the package

    coeffs = minpoly(theta)
    x = sympy.Symbol("x")
    poly = sympy.Poly([sympy.Rational(c) for c in reversed(coeffs)], x, domain="QQ")
    out = []
    for factor, mult in poly.factor_list()[1]:
        cs = [Fraction(str(c)) for c in reversed(factor.all_coeffs())]
        out.append((cs, mult))
    return out


def find_proper_submodule(actions, dim, rng, rounds: int = 30):
    """A proper nonzero submodule as RREF rows, or None if the module is
    certified irreducible (Norton's test on a nullity-one factor)."""
    if dim <= 1:
        return None
    if all(a.is_zero() for a in actions):
        return row_space_basis([[QZERO] * 0 + [Fraction(1)] + [QZERO] * (dim - 1)], dim)
    transposed = [a.transpose() for a in actions]
    for theta in _theta_battery(actions, rng, dim, rounds):
        nullity_one = None
        for p, _ in _min_poly_factors(theta):
            null = kernel(poly_eval_matrix(p, theta))
            for w in null:
                sub = spin([w], actions, dim)
                if 0 < len(sub) < dim:
                    return sub
            if len(null) == len(p) - 1:
                nullity_one = (p, null)
        if nullity_one is not None:
            p, null = nullity_one
            dual_null = kernel(poly_eval_matrix(p, theta.transpose()))
            dual_sub = spin([dual_null[0]], transposed, dim)
            if len(dual_sub) < dim:
                ann = kernel(Matrix(dual_sub))
                ann_rows = row_space_basis([list(v) for v in ann], dim)
                if 0 < len(ann_rows) < dim:
                    return ann_rows
                raise CheckFailed("dual spin produced a trivial annihilator", theta)
            return None
    raise CertificationFailed(
        "no nullity-one element found; increase rounds or change the seed"
    )


def composition_series(actions, dim, rng) -> list:
    """Increasing chain of RREF row bases 0 < W_1 < ... < W_s = full space
    with irreducible quotients (the zero step is omitted)."""
    if dim == 0:
        return []
    sub = find_proper_submodule(actions, dim, rng)
    if sub is None:
        return [_identity_rows(dim)]
    k = len(sub)
    sub_actions = _restrict_actions(actions, sub)
    quo_actions, lift = _quotient_actions(actions, sub, dim)
    lower = composition_series(sub_actions, k, rng)
    upper = composition_series(quo_actions, dim - k, rng)
    sub_t = Matrix._of([list(c) for c in zip(*sub)])
    chain = []
    for level in lower:
        chain.append(row_space_basis([sub_t.apply(r) for r in level], dim))
    for level in upper:
        rows = [lift(r) for r in level]
        chain.append(row_space_basis([list(s) for s in sub] + rows, dim))
    return chain


def _identity_rows(dim):
    return [
        [Fraction(1) if j == i else QZERO for j in range(dim)] for i in range(dim)
    ]


def _restrict_actions(actions, sub_rows):
    sub = Echelon(map(sparse, sub_rows))
    out = []
    for a in actions:
        cols = []
        for r in sub_rows:
            coords = sub.coords(sparse(a.apply(r)))
            if coords is None:
                raise CheckFailed("submodule is not invariant", (a, r))
            cols.append(coords)
        out.append(Matrix.from_rows(list(map(list, zip(*cols)))) if sub_rows else Matrix([]))
    return out


def _quotient_actions(actions, sub_rows, dim):
    sub = Echelon(map(sparse, sub_rows))
    free = [j for j in range(dim) if j not in sub.pivots]

    def project(vec):
        resid = sub.reduce(sparse(vec))
        return [resid.get(j, QZERO) for j in free]

    out = []
    for a in actions:
        cols = []
        for j in free:
            img = [a.entries[i][j] for i in range(dim)]
            cols.append(project(img))
        out.append(
            Matrix.from_rows(list(map(list, zip(*cols)))) if free else Matrix([])
        )

    def lift(qvec):
        out_vec = [QZERO] * dim
        for c, j in zip(qvec, free):
            out_vec[j] = c
        return out_vec

    return out, lift


# ---------------------------------------------------------------------------
# Levi components, splittable closure, locally reductive part
# ---------------------------------------------------------------------------


def levi_component(g: FdLieAlgebra) -> FdLieAlgebra:
    """A semisimple complement of the radical, lifted along the derived
    series of the radical by solving the linear congruences level by level."""
    rad = solvable_radical(g)
    if rad.dim == g.dim:
        return FdLieAlgebra(g.n, [])
    if rad.dim == 0:
        return g
    # complement coordinates modulo the radical
    rad_coeffs = Echelon(sparse(g.span.coords_of(m)) for m in rad.matrices())
    free = [j for j in range(g.dim) if j not in rad_coeffs.pivots]
    xs = [g.basis[j] for j in free]
    m = len(xs)

    c = {}
    for i in range(m):
        for j in range(i + 1, m):
            resid = rad_coeffs.reduce(sparse(g.consts[free[i]][free[j]]))
            c[i, j] = [resid.get(k, QZERO) for k in free]

    series = derived_series(rad)
    series.append(MatSpan(g.n))
    for t in range(len(series) - 1):
        level, nxt = series[t], series[t + 1]
        if not level.dim:
            break
        nxt_coeffs = Echelon(sparse(g.span.coords_of(mat)) for mat in nxt.matrices())
        # corrections only matter modulo the next derived term, so the
        # unknowns range over complement representatives of that quotient:
        # the level elements whose residues modulo nxt extend the reduced
        # echelon basis of the quotient level / nxt
        quotient = Echelon()
        w_mats = [
            mat
            for mat in level.matrices()
            if quotient.add(nxt_coeffs.reduce(sparse(g.span.coords_of(mat))))
        ]
        if not w_mats:
            break

        def quo_coords(mat: Matrix):
            resid = nxt_coeffs.reduce(sparse(g.span.coords_of(mat)))
            return [resid.get(p, QZERO) for p in quotient.pivots]

        width = len(w_mats)
        dim_q = len(quotient.pivots)
        eq_rows = []
        rhs = []
        bracket_cache = [
            [quo_coords(bracket(xs[i], w)) for w in w_mats] for i in range(m)
        ]
        unit_cache = [quo_coords(w) for w in w_mats]
        for i in range(m):
            for j in range(i + 1, m):
                defect = bracket(xs[i], xs[j]) - _lin_comb(c[i, j], xs, g.n)
                dvec = quo_coords(defect)
                row_block = [[QZERO] * (m * width) for _ in range(dim_q)]
                for a in range(width):
                    for r in range(dim_q):
                        row_block[r][j * width + a] += bracket_cache[i][a][r]
                        row_block[r][i * width + a] -= bracket_cache[j][a][r]
                for k in range(m):
                    coeff = c[i, j][k]
                    if coeff:
                        for a in range(width):
                            base = unit_cache[a]
                            for r in range(dim_q):
                                row_block[r][k * width + a] -= coeff * base[r]
                for r in range(dim_q):
                    if any(row_block[r]) or dvec[r]:
                        eq_rows.append(row_block[r])
                        rhs.append(-dvec[r])
        if eq_rows:
            sol = solve(Matrix(eq_rows), rhs)
            if sol is None:
                raise CheckFailed("Levi lifting system is inconsistent", (g, level))
            for i in range(m):
                xs[i] = xs[i] + _lin_comb(sol[i * width:(i + 1) * width], w_mats, g.n)
    levi = FdLieAlgebra(g.n, xs) if xs else FdLieAlgebra(g.n, [])
    _verify_levi(g, rad, levi)
    return levi


def _verify_levi(g, rad, levi):
    if levi.span.intersect(rad).dim:
        raise CheckFailed("Levi meets the radical", levi)
    dg = g.derived()
    if rad.intersect(dg).sum(levi.span).dim != dg.dim:
        raise CheckFailed("Levi does not complement r cap [g,g]", levi)
    if not dg.contains(levi.span):
        raise CheckFailed("Levi is not inside the derived subalgebra", levi)
    if levi.dim and kernel(levi.killing()):
        raise CheckFailed("Killing form on the Levi is degenerate", levi)


def splittable_closure(g: FdLieAlgebra) -> FdLieAlgebra:
    """Smallest splittable subalgebra containing g."""
    current = g
    while True:
        extra = []
        for b in current.basis:
            ss, nil = jordan_chevalley(b)
            if not current.member(ss):
                extra.append(ss)
        if not extra:
            return current
        current = lie_close(g.n, current.basis + extra)


def is_splittable(g: FdLieAlgebra) -> bool:
    return splittable_closure(g).dim == g.dim


@dataclass
class FdDecomposition:
    nilradical: MatSpan
    levi: FdLieAlgebra
    torus: FdLieAlgebra
    reductive_part: FdLieAlgebra


def locally_reductive_part(g: FdLieAlgebra, seed: int = 0) -> FdDecomposition:
    """Splittable g = nilradical (+) (levi (+ semidirect) torus)."""
    for b in g.basis:
        ss, _ = jordan_chevalley(b)
        if not g.member(ss):
            raise NotSplittable(b)
    nil = linear_nilradical(g, seed)
    rad = solvable_radical(g)
    levi = levi_component(g)
    cent = _centralizer_span(g, rad, levi.basis)
    nil_in_cent = nil.intersect(cent)
    torus_elems = []
    seen = Echelon(nil_in_cent.echelon.rows())
    for row in [r for r in cent.rows if seen.add(sparse(r))]:
        y = unflatten(row, g.n)
        if torus_elems:
            y = _commuting_correction(g, y, torus_elems, nil_in_cent)
        ss, nl = jordan_chevalley(y)
        if not nil.member(nl):
            raise CheckFailed("nilpotent part escaped the nilradical", y)
        torus_elems.append(ss)
    torus = FdLieAlgebra(g.n, torus_elems)
    g_red = FdLieAlgebra(g.n, levi.basis + torus_elems)
    if g_red.span.intersect(nil).dim:
        raise CheckFailed("reductive part meets the nilradical", g_red)
    if g_red.span.sum(nil).dim != g.dim:
        raise CheckFailed("reductive part and nilradical do not span g", g_red)
    for t in torus_elems:
        if not poly_is_squarefree(minpoly(t)):
            raise CheckFailed("torus element is not semisimple", t)
        for s in torus_elems:
            if not bracket(t, s).is_zero():
                raise CheckFailed("torus is not commutative", (t, s))
        for l in levi.basis:
            if not bracket(t, l).is_zero():
                raise CheckFailed("torus does not centralize the Levi", (t, l))
    return FdDecomposition(nil, levi, torus, g_red)


def _centralizer_span(g: FdLieAlgebra, inside: MatSpan, of_basis) -> MatSpan:
    """{x in inside : [x, b] = 0 for all b in of_basis}."""
    mats = inside.matrices()
    if not mats:
        return inside
    rows = []
    width = len(mats)
    for b in of_basis:
        for r in range(g.n):
            for cc in range(g.n):
                rows.append([bracket(m, b).entries[r][cc] for m in mats])
    coeffs = kernel(Matrix(rows)) if rows else [
        [Fraction(1) if i == j else QZERO for j in range(width)] for i in range(width)
    ]
    return MatSpan.from_matrices(g.n, [_lin_comb(lam, mats, g.n) for lam in coeffs])


def _commuting_correction(g, y, torus_elems, nil_span):
    """y' = y - delta with delta in the nilradical part and [t, y'] = 0."""
    mats = nil_span.matrices()
    if not mats:
        for t in torus_elems:
            if not bracket(t, y).is_zero():
                raise CheckFailed("torus element does not commute", (t, y))
        return y
    rows = []
    rhs = []
    for t in torus_elems:
        target = bracket(t, y)
        for r in range(g.n):
            for c in range(g.n):
                rows.append([bracket(t, m).entries[r][c] for m in mats])
                rhs.append(target.entries[r][c])
    sol = solve(Matrix(rows), rhs)
    if sol is None:
        raise CheckFailed("no commuting correction exists", y)
    return y - _lin_comb(sol, mats, g.n)


# ---------------------------------------------------------------------------
# Cartan subalgebras of splittable algebras
# ---------------------------------------------------------------------------


def _semisimple_parts_span(h_basis, n):
    """Span of the semisimple Jordan parts of the basis, with sanity checks."""
    parts = []
    for b in h_basis:
        ss, _ = jordan_chevalley(b)
        if not ss.is_zero():
            parts.append(ss)
    for a, b in itertools.combinations(parts, 2):
        if not bracket(a, b).is_zero():
            raise CheckFailed("semisimple parts fail to commute", (a, b))
    return MatSpan.from_matrices(n, parts)


def centralizer_in(k: FdLieAlgebra, of_mats) -> FdLieAlgebra:
    """{x in k : [x, m] = 0 for all m}, as a subalgebra."""
    if not k.dim:
        return k
    rows = []
    for m in of_mats:
        for r in range(k.n):
            for c in range(k.n):
                rows.append([bracket(b, m).entries[r][c] for b in k.basis])
    if not rows:
        return k
    mats = [_lin_comb(lam, k.basis, k.n) for lam in kernel(Matrix(rows))]
    return FdLieAlgebra(k.n, MatSpan.from_matrices(k.n, mats).matrices())


def fitting_null(k: FdLieAlgebra, h_basis) -> FdLieAlgebra:
    """Joint generalized null component of ad(h) on k: the elements killed
    by every sufficiently long word in ad of the given generators."""
    if not k.dim:
        return k
    ads = []
    for b in h_basis:
        cols = [k.span.coords_of(bracket(b, y)) for y in k.basis]
        ads.append(Matrix.from_rows(list(map(list, zip(*cols)))))
    width = k.dim
    current: list = []
    for _ in range(width + 1):
        cur = Echelon(map(sparse, current))
        rows = []
        for a in ads:
            resid_cols = [cur.reduce(sparse(a.col(j))) for j in range(width)]
            for r in range(width):
                rows.append([col.get(r, QZERO) for col in resid_cols])
        nxt = kernel(Matrix(rows)) if rows else []
        nxt_rows = row_space_basis([list(v) for v in nxt], width)
        if nxt_rows == current:
            break
        current = nxt_rows
    mats = [_lin_comb(lam, k.basis, k.n) for lam in current]
    return FdLieAlgebra(k.n, MatSpan.from_matrices(k.n, mats).matrices())


@dataclass
class CartanVerdict:
    is_cartan: bool
    via_centralizer_of_ss: bool
    via_maximal_torus: bool
    via_fitting_null: bool


def cartan_queries(k: FdLieAlgebra, h_basis, rng=None) -> CartanVerdict:
    """Three independent routes to the Cartan property of span(h) in k.

    Route D: h equals the centralizer of the semisimple parts of h.
    Route E: the semisimple parts form a maximal toral subalgebra whose
    centralizer is h.  Route F: h equals its own Fitting null component.
    A disagreement between the routes, or a positive verdict that is not
    self-normalizing, raises CheckFailed.
    """
    rng = rng or random.Random(0)
    for b in h_basis:
        if not k.member(b):
            raise ValueError("candidate subalgebra is not inside k")
    h_span = MatSpan.from_matrices(k.n, h_basis)
    try:
        h_alg = FdLieAlgebra(k.n, h_span.matrices())
    except ValueError:
        return CartanVerdict(False, False, False, False)
    nilpotent = is_nilpotent_span(h_span)

    via_f = fitting_null(k, h_alg.basis).span == h_span

    if not nilpotent:
        if via_f:
            raise CheckFailed("Fitting route accepted a non-nilpotent subalgebra", h_basis)
        return CartanVerdict(False, False, False, via_f)

    ss_span = _semisimple_parts_span(h_alg.basis, k.n)
    z = centralizer_in(k, ss_span.matrices())
    via_d = z.span == h_span

    toral_maximal = _is_maximal_toral(k, ss_span, z, rng)
    via_e = toral_maximal and z.span == h_span

    verdict = CartanVerdict(via_d, via_d, via_e, via_f)
    if not via_d == via_e == via_f:
        raise CheckFailed("Cartan routes disagree", (h_basis, verdict))
    if verdict.is_cartan and _normalizer_in(k, h_span) != h_span:
        raise CheckFailed("Cartan candidate is not self-normalizing", h_basis)
    return verdict


def _is_maximal_toral(k, ss_span, z, rng):
    """No semisimple element of the centralizer escapes the torus."""
    for y in z.basis:
        ss, _ = jordan_chevalley(y)
        if not ss_span.member(ss):
            return False
    for _ in range(6):
        y = Matrix.zero(k.n, k.n)
        for b in z.basis:
            c = rng.randrange(-2, 3)
            if c:
                y = y + b.scale(c)
        ss, _ = jordan_chevalley(y)
        if not ss_span.member(ss):
            return False
    return True


def _normalizer_in(k: FdLieAlgebra, h_span: MatSpan) -> MatSpan:
    """{x in k : [x, h] subset h}."""
    coeff_rows = []
    for m in h_span.matrices():
        resids = [h_span.echelon.reduce(sparse(bracket(b, m).flatten())) for b in k.basis]
        for r in range(k.n * k.n):
            coeff_rows.append([res.get(r, QZERO) for res in resids])
    if not coeff_rows:
        return k.span
    sols = kernel(Matrix(coeff_rows))
    return MatSpan.from_matrices(k.n, [_lin_comb(lam, k.basis, k.n) for lam in sols])


def cartan_from_torus(k: FdLieAlgebra, torus_mats) -> FdLieAlgebra:
    """Centralizer of a toral subalgebra: the Cartan subalgebra it defines."""
    for a, b in itertools.combinations(torus_mats, 2):
        if not bracket(a, b).is_zero():
            raise ValueError("torus generators do not commute")
    for a in torus_mats:
        if not poly_is_squarefree(minpoly(a)):
            raise ValueError("torus generator is not semisimple")
    return centralizer_in(k, torus_mats)


# ---------------------------------------------------------------------------
# finite flags, stabilizers, invariant taut couples
# ---------------------------------------------------------------------------


def flag_stabilizer_brute(n: int, chain) -> MatSpan:
    """{X in gl_n : X W subset W for every W in the chain} by linear solve.

    Conditions: for each basis row w of a chain member, the residual of X w
    modulo the member must vanish coordinate by coordinate."""
    cond_rows = []
    for level in chain:
        level_ech = Echelon(map(sparse, level))
        if len(level_ech.pivots) in (0, n):
            continue
        level_rows = level_ech.rows()
        for w in level_rows:
            for t in range(n):
                if t in level_ech.pivots:
                    continue  # residual vanishes at pivot coordinates
                cond = [QZERO] * (n * n)
                for c, wc in w.items():
                    cond[t * n + c] += wc
                for p_row, piv in zip(level_rows, level_ech.pivots):
                    if t in p_row:
                        for c, wc in w.items():
                            cond[piv * n + c] -= p_row[t] * wc
                cond_rows.append(cond)
    if not cond_rows:
        return MatSpan(
            n, [unflatten_unit(i, j, n) for i in range(n) for j in range(n)]
        )
    sols = kernel(Matrix(cond_rows))
    return MatSpan(n, [list(s) for s in sols])


def unflatten_unit(i, j, n):
    row = [QZERO] * (n * n)
    row[i * n + j] = Fraction(1)
    return row


def stabilizer_formula_span(n: int, chain) -> MatSpan:
    """Sum of F'' (x) (F')-annihilator over the consecutive pairs of the
    completed chain 0 = W_0 < W_1 < ... < W_k = full."""
    levels = sorted(
        (row_space_basis([list(r) for r in level], n) for level in chain), key=len
    )
    dedup: list = [[]]
    for lvl in levels:
        if lvl and lvl != dedup[-1]:
            dedup.append(lvl)
    if len(dedup[-1]) != n:
        dedup.append(_identity_rows(n))
    mats = []
    for pred, succ in zip(dedup, dedup[1:]):
        ann = kernel(Matrix(pred)) if pred else _identity_rows(n)
        for v in succ:
            for y in ann:
                mats.append(
                    Matrix([[v[i] * y[j] for j in range(n)] for i in range(n)])
                )
    return MatSpan.from_matrices(n, mats)


@dataclass
class InvariantCoupleReport:
    chain: list  # increasing proper invariant subspaces as row bases
    stabilizer: MatSpan
    nilradical_formula: MatSpan
    nilradical_oracle: MatSpan
    algebra_nilradical: MatSpan
    seed: int

    @property
    def block_dims(self):
        dims = [0] + [len(level) for level in self.chain]
        return [b - a for a, b in zip(dims, dims[1:])]


def invariant_taut_couple(k: FdLieAlgebra, seed: int = 0) -> InvariantCoupleReport:
    """Composition series of the natural k-module, its joint stabilizer, and
    the nilradical identities that make it a taut couple at finite scale."""
    rng = random.Random(seed)
    chain = composition_series(k.basis if k.dim else [], k.n, rng)
    if not chain:
        chain = [_identity_rows(k.n)]
    p_plus_span = flag_stabilizer_brute(k.n, chain)
    n_formula = _nilradical_formula_span(k.n, chain)
    p_alg = FdLieAlgebra(k.n, p_plus_span.matrices())
    n_oracle = linear_nilradical(p_alg, seed)
    if n_formula != n_oracle:
        raise CheckFailed("nilradical formula disagrees with the oracle", (chain, seed))
    n_k = linear_nilradical(k, seed)
    if n_k != n_oracle.intersect(k.span):
        raise CheckFailed("n_k != n_p cap k", (chain, seed))
    return InvariantCoupleReport(chain, p_plus_span, n_formula, n_oracle, n_k, seed)


def _nilradical_formula_span(n, chain) -> MatSpan:
    """Sum of F'' (x) (F'')-annihilator over all pairs."""
    levels = [[]] + [row_space_basis([list(r) for r in lvl], n) for lvl in chain]
    mats = []
    for lvl in levels[1:]:
        ann = kernel(Matrix(lvl)) if lvl else _identity_rows(n)
        for v in lvl:
            for y in ann:
                mats.append(
                    Matrix([[v[i] * y[j] for j in range(n)] for i in range(n)])
                )
    return MatSpan.from_matrices(n, mats)


# ---------------------------------------------------------------------------
# parabolic tests
# ---------------------------------------------------------------------------


def _invariant_subspaces(p: FdLieAlgebra, rng, rounds=12) -> list:
    """Distinct proper nonzero p-invariant subspaces found by spinning."""
    found = []
    actions = p.basis
    seen = set()

    def record(rows):
        key = tuple(tuple(r) for r in rows)
        if rows and len(rows) < p.n and key not in seen:
            seen.add(key)
            found.append(rows)

    for i in range(p.n):
        unit = [Fraction(1) if j == i else QZERO for j in range(p.n)]
        record(spin([unit], actions, p.n))
    for theta in _theta_battery(actions, rng, p.n, rounds):
        for poly, _ in _min_poly_factors(theta):
            for w in kernel(poly_eval_matrix(poly, theta)):
                record(spin([w], actions, p.n))
    return found


@dataclass
class ParabolicReport:
    is_parabolic: bool
    chain_found: bool
    stabilizer_matches: bool
    borel_restriction_check: bool


def fd_parabolic_tests(p: FdLieAlgebra, seed: int = 0) -> ParabolicReport:
    """Invariant-chain criterion: p is parabolic at finite scale iff its
    invariant subspaces form a chain whose full stabilizer is p itself."""
    rng = random.Random(seed)
    invs = _invariant_subspaces(p, rng)
    chain_ok = True
    for a, b in itertools.combinations([Echelon(map(sparse, rows)) for rows in invs], 2):
        a_in_b = not any(map(b.reduce, a.rows()))
        b_in_a = not any(map(a.reduce, b.rows()))
        if not (a_in_b or b_in_a):
            chain_ok = False
            break
    stab_ok = False
    if chain_ok:
        stab = flag_stabilizer_brute(p.n, invs)
        stab_ok = stab == p.span
    borel_ok = _borel_restriction_check(p, rng)
    return ParabolicReport(chain_ok and stab_ok, chain_ok, stab_ok, borel_ok)


def _full_flag_from(p: FdLieAlgebra, rng) -> list:
    """A complete flag refining a composition series of the p-action."""
    series = composition_series(p.basis if p.dim else [], p.n, rng)
    current = Echelon()
    chain = []
    for level in series:
        for w in level:
            if current.add(sparse(w)):
                chain.append([dense(r, p.n) for r in current.rows()])
    return chain


def _is_maximal_solvable_in(b_span: MatSpan, ambient: FdLieAlgebra, rng, tries=8) -> bool:
    if not is_solvable_span(b_span):
        return False
    candidates = [m for m in ambient.basis if not b_span.member(m)]
    for x in candidates:
        if is_solvable_span(lie_close(ambient.n, b_span.matrices() + [x]).span):
            return False
    for _ in range(tries):
        x = Matrix.zero(ambient.n, ambient.n)
        for m in ambient.basis:
            c = rng.randrange(-1, 2)
            if c:
                x = x + m.scale(c)
        if not b_span.member(x) and is_solvable_span(
            lie_close(ambient.n, b_span.matrices() + [x]).span
        ):
            return False
    return True


def _borel_restriction_check(p: FdLieAlgebra, rng) -> bool:
    """Find a Borel of p from a full invariant flag and re-test maximal
    solvability of its restriction to the commutator subalgebra."""
    flag = _full_flag_from(p, rng)
    stab = flag_stabilizer_brute(p.n, flag)
    b_span = stab.intersect(p.span)
    if not _is_maximal_solvable_in(b_span, p, rng):
        return False
    dp = p.derived()
    try:
        dp_alg = FdLieAlgebra(p.n, dp.matrices())
    except ValueError:
        return False
    restricted = b_span.intersect(dp)
    return _is_maximal_solvable_in(restricted, dp_alg, rng)


def parabolic_bijection_check(
    g: FdLieAlgebra, p_red_basis, seed: int = 0
) -> FdLieAlgebra:
    """Map a parabolic of the reductive part to n_g (+) p_red and verify the
    round trip of the bijection."""
    rng = random.Random(seed)
    dec = locally_reductive_part(g, seed)
    g_red = dec.reductive_part
    p_red = MatSpan.from_matrices(g.n, p_red_basis)
    if not g_red.span.contains(p_red):
        raise NotParabolicInput("p_red is not inside the reductive part")
    try:
        p_red_alg = FdLieAlgebra(g.n, p_red.matrices())
    except ValueError as exc:
        raise NotParabolicInput("p_red is not a subalgebra") from exc
    # parabolic criterion inside g_red: a full invariant flag of p_red gives
    # a maximal solvable subalgebra of g_red contained in p_red
    flag = _full_flag_from(p_red_alg, rng)
    b_red = flag_stabilizer_brute(g.n, flag).intersect(g_red.span)
    if not p_red.contains(b_red):
        raise NotParabolicInput("p_red does not contain a Borel of the reductive part")
    if not _is_maximal_solvable_in(b_red, g_red, rng):
        raise NotParabolicInput("constructed candidate is not maximal solvable")
    q = lie_close(g.n, dec.nilradical.matrices() + p_red.matrices())
    if q.dim != dec.nilradical.sum(p_red).dim:
        raise CheckFailed("n_g + p_red is not a subalgebra", (p_red_basis, seed))
    borel_g = dec.nilradical.sum(b_red)
    if not q.span.contains(borel_g):
        raise CheckFailed("n_g + b_red is not inside n_g + p_red", (p_red_basis, seed))
    if not _is_maximal_solvable_in(borel_g, g, rng):
        raise CheckFailed("n_g + b_red is not a Borel of g", (p_red_basis, seed))
    if q.span.intersect(g_red.span) != p_red:
        raise CheckFailed("round trip does not recover p_red", (p_red_basis, seed))
    return q


# ---------------------------------------------------------------------------
# standard constructions for batteries and examples
# ---------------------------------------------------------------------------


def unit_matrix(n, i, j) -> Matrix:
    return unflatten(unflatten_unit(i, j, n), n)


def gl_basis(n):
    return [unit_matrix(n, i, j) for i in range(n) for j in range(n)]


def sl_basis(n):
    out = [unit_matrix(n, i, j) for i in range(n) for j in range(n) if i != j]
    for i in range(n - 1):
        out.append(unit_matrix(n, i, i) - unit_matrix(n, i + 1, i + 1))
    return out


def upper_triangular_basis(n):
    return [unit_matrix(n, i, j) for i in range(n) for j in range(i, n)]


def strict_upper_basis(n):
    return [unit_matrix(n, i, j) for i in range(n) for j in range(i + 1, n)]


def diagonal_basis(n):
    return [unit_matrix(n, i, i) for i in range(n)]


def block_parabolic_basis(sizes):
    """Block upper-triangular matrices for the given diagonal block sizes."""
    n = sum(sizes)
    bounds = []
    start = 0
    for s in sizes:
        bounds.append((start, start + s))
        start += s

    def block_of(i):
        for idx, (a, b) in enumerate(bounds):
            if a <= i < b:
                return idx
        raise ValueError

    return [
        unit_matrix(n, i, j)
        for i in range(n)
        for j in range(n)
        if block_of(i) <= block_of(j)
    ]


def embed_block(mat: Matrix, n: int, offset: int) -> Matrix:
    out = [[QZERO] * n for _ in range(n)]
    for i in range(mat.rows):
        for j in range(mat.cols):
            out[offset + i][offset + j] = mat.entries[i][j]
    return Matrix(out)


def direct_sum_basis(blocks):
    """Basis of the direct sum of matrix algebras given as (basis, size)."""
    n = sum(size for _, size in blocks)
    out = []
    offset = 0
    for basis, size in blocks:
        for b in basis:
            out.append(embed_block(b, n, offset))
        offset += size
    return out
