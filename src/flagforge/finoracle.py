"""Finite-dimensional exact structure theory over Q.

This is the independent oracle: everything here works with n x n rational
matrices and ordinary linear algebra, with no reference to the
countable model.  It provides solvable radicals, linear nilradicals, Levi
components, locally reductive parts, Cartan-subalgebra tests, invariant
taut couples from composition series, and parabolic checks at desk scale.

An element of gl_n has one representation from input to report, the flat
sparse row {i * n + j: rational}, and a subspace is a `MatSpan`, the
reduced echelon basis of such rows.  Every subspace cut out by linear
conditions (radical, nilradical, centralizers, normalizers, Fitting
components, intersections, flag stabilizers, Levi lifts) is the set of
combinations of a basis whose images vanish: `_relations` transposes the
image columns into equations, and `exactnum.kernel`, the one null-space
routine, solves them.  Brackets, products, Jordan-Chevalley parts and
minimal polynomials come from the sparse matrix kernel of `exactnum`.  An
algebra keeps the coordinates of the brackets of its basis as sparse
structure constants, and its Killing form and derived algebra are read off
those.  `Matrix` is built only where `matrices()` and `.basis` hand a basis
out, and read only where `FdLieAlgebra` and `lie_close` take one in.

The meataxe acts on Q^dim by flat sparse rows over dim and spins sparse
vectors; it factors minimal polynomials over the integers with
`exactnum.poly_factor_zz`.  It works on sections upper / lower of Q^n,
lower < upper submodules held as `Echelon`s: the section acts on the
reduced residues of upper modulo lower through the original actions, and a
submodule found there maps back by combining residues.  The parabolic test
reads off one composition series: p is parabolic iff it equals the
stabilizer of that series.

Random numbers are drawn in one place, the Las Vegas meataxe behind
composition series, from an explicit seed; the verdicts built on it do not
depend on the seed.  The Cartan routes and the maximal-solvability test
are exact.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import lcm

from .exactnum import (
    QONE,
    QZERO,
    CheckFailed,
    Echelon,
    Matrix,
    axpy,
    combine,
    dense,
    div,
    is_nilpotent,
    jordan_chevalley,
    kernel,
    minpoly,
    poly_eval_matrix,
    poly_factor_zz,
    rat,
    sparse,
    sparse_bracket,
    sparse_matrix,
    sparse_product,
)


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
    """Subspace of n x n matrices: the reduced echelon basis `echelon` of
    flat sparse rows {i * n + j: v}, the one element representation of the
    oracle.  Reduction, coordinates, membership, sums, intersections and
    linearly defined subspaces (`kernel_of`) all work on these rows.

    One more view of the same basis is built on first use and kept:
    `sparse_matrices()` for the bracket kernel.  The dense RREF rows `rows`
    and the `Matrix` list `matrices()` are read out at the boundary with
    callers, and built anew on each read."""

    __slots__ = ("n", "echelon", "_sparse")

    def __init__(self, n: int, rows=()):
        self.n = n
        self.echelon = Echelon(rows)
        self._sparse = None

    def sparse_matrices(self) -> list[tuple]:
        """The basis as sparse matrices (see `sparse_matrix`), in basis order."""
        if self._sparse is None:
            self._sparse = [sparse_matrix(r, self.n) for r in self.echelon.rows()]
        return self._sparse

    @property
    def rows(self) -> list[list]:
        """The basis as dense RREF rows of length n^2."""
        return [dense(r, self.n * self.n) for r in self.echelon.rows()]

    def matrices(self) -> list[Matrix]:
        """The basis as matrices, in basis order."""
        n = self.n
        return [Matrix._of([[r.get(i * n + j, QZERO) for j in range(n)] for i in range(n)])
                for r in self.echelon.rows()]

    @property
    def dim(self) -> int:
        return len(self.echelon.pivots)

    def contains(self, other: "MatSpan") -> bool:
        return not any(map(self.echelon.reduce, other.echelon.rows()))

    def __eq__(self, other):
        return (
            isinstance(other, MatSpan)
            and self.n == other.n
            and self.echelon.rows() == other.echelon.rows()
        )

    def __hash__(self):
        return hash((self.n, tuple(frozenset(r.items()) for r in self.echelon.rows())))

    def sum(self, other: "MatSpan") -> "MatSpan":
        return MatSpan(self.n, self.echelon.rows() + other.echelon.rows())

    def intersect(self, other: "MatSpan") -> "MatSpan":
        """x = sum_k c_k b_k lies in other exactly when the same combination
        of the residuals of the b_k modulo other vanishes."""
        return self.kernel_of(list(map(other.echelon.reduce, self.echelon.rows())))

    def kernel_of(self, images) -> "MatSpan":
        """{sum_k c_k b_k : sum_k c_k images[k] = 0} over the basis rows b_k,
        for sparse rows images[k]: the b_k combined by each of `_relations`."""
        rows = self.echelon.rows()
        return MatSpan(self.n, [combine(c, rows) for c in _relations(images)])

    def _coords(self, row: dict) -> dict:
        """The nonzero coordinates {k: c} of a row of the span: its entries
        at the pivots."""
        return {k: row[p] for k, p in enumerate(self.echelon.pivots) if p in row}


def _relations(images) -> list[dict]:
    """Basis of {c : sum_k c_k images[k] = 0} as sparse rows {k: c_k}, for
    sparse images with hashable columns: each image column is one equation
    of `kernel`.  The relation of k has c_k = 1 and is supported on k and
    the earlier unknowns whose images are independent, so there is one for
    each k whose image depends on the earlier ones, in increasing k."""
    equations: dict = {}
    for k, image in enumerate(images):
        for col, v in image.items():
            equations.setdefault(col, {})[k] = v
    return kernel(equations.values(), len(images))


# ---------------------------------------------------------------------------
# brackets of spans, derived and lower central series
# ---------------------------------------------------------------------------


def bracket_span(a: MatSpan, b: MatSpan) -> MatSpan:
    ys = b.sparse_matrices()
    return MatSpan(
        a.n, [sparse_bracket(x, y, a.n) for x in a.sparse_matrices() for y in ys]
    )


def derived_series(s: MatSpan) -> list[MatSpan]:
    series = [s]
    while series[-1].dim:
        # [x, x] = 0 and [y, x] = -[x, y]: one bracket per unordered pair
        nxt = MatSpan(s.n, _pair_brackets(series[-1]))
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
    """Matrix Lie algebra: an ambient size n >= 0 and a bracket-closed basis
    of n x n matrices, given as `Matrix`es or rows of rationals; ValueError
    otherwise.  The input is read once into flat sparse rows.

    The basis is the RREF basis of the span, so the echelon coordinates
    `span.echelon.coords(row)` always agree with basis indexing.
    Construction brackets every pair of basis elements once, to check
    closure, and keeps the nonzero coordinates of [x_i, x_j], i < j, as the
    sparse structure constants `consts[i, j] = {k: c}` (`lie_close` hands
    over the brackets of its last closure round instead); a vanishing
    bracket has no entry.
    `on(span)` builds the algebra on a span the oracle computed, with the
    same closure check.  Two results are cached on first use: the
    coordinates of the derived algebra (`derived_coords`) and the derived
    series of the solvable radical that certifies it (`solvable_radical`).
    The caches assume that the basis is never mutated after construction.
    """

    __slots__ = ("n", "span", "consts", "_derived_coords", "_radical")

    def __init__(self, n: int, basis):
        gens = [b if isinstance(b, Matrix) else Matrix(b) for b in basis]
        if n < 0 or any((b.rows, b.cols) != (n, n) for b in gens):
            raise ValueError(f"the basis must be {n} x {n} matrices, with n >= 0")
        span = MatSpan(n, [sparse(b.flatten()) for b in gens])
        self._setup(span, _closed_brackets(span))

    @classmethod
    def on(cls, span: MatSpan) -> "FdLieAlgebra":
        """The algebra on a span; ValueError if it is not bracket-closed."""
        return cls._of(span, _closed_brackets(span))

    @classmethod
    def _of(cls, span: MatSpan, brackets: list) -> "FdLieAlgebra":
        """The algebra on a bracket-closed span, given `_pair_brackets(span)`."""
        g = object.__new__(cls)
        g._setup(span, brackets)
        return g

    def _setup(self, span: MatSpan, brackets: list) -> None:
        self.n = span.n
        self.span = span
        pairs = itertools.combinations(range(span.dim), 2)
        self.consts = {pair: span._coords(row) for pair, row in zip(pairs, brackets) if row}
        self._derived_coords = None
        self._radical = None

    @property
    def basis(self) -> list[Matrix]:
        return self.span.matrices()

    @property
    def dim(self) -> int:
        return self.span.dim

    def killing(self) -> list[dict]:
        """The rows {j: K_ij} of the Killing form, K_ij = tr(ad x_i ad x_j) =
        sum_{k,l} (ad x_i)[k, l] (ad x_j)[l, k], where (ad x_i)[k, l] is
        consts[i, l][k], or -consts[l, i][k].

        Each product of two nonzero entries is formed once, on integers
        over the common denominator of the constants."""
        d = self.dim
        den = lcm(*(v.denominator for c in self.consts.values() for v in c.values()))
        cols: dict = {}  # (k, l) -> [(i, den * (ad x_i)[k, l])]
        for (i, l), c in self.consts.items():
            for k, v in c.items():
                x = v.numerator * (den // v.denominator)
                cols.setdefault((k, l), []).append((i, x))
                cols.setdefault((k, i), []).append((l, -x))
        kill = [[0] * d for _ in range(d)]
        for (k, l), col in cols.items():
            partners = cols.get((l, k), ())
            for i, x in col:
                row = kill[i]
                for j, y in partners:
                    row[j] += x * y
        return [{j: div(v, den * den) for j, v in enumerate(row) if v} for row in kill]

    def derived_coords(self) -> list[dict]:
        """Reduced echelon basis of [g, g] in basis coordinates, as sparse
        rows {k: c}, from the constants."""
        if self._derived_coords is None:
            self._derived_coords = Echelon(self.consts.values()).rows()
        return self._derived_coords

    def derived(self) -> MatSpan:
        """The derived algebra [g, g]."""
        basis = self.span.echelon.rows()
        return MatSpan(self.n, [combine(c, basis) for c in self.derived_coords()])

    def __repr__(self):
        return f"FdLieAlgebra(n={self.n}, dim={self.dim})"


def _pair_brackets(span: MatSpan) -> list[dict]:
    """[x_i, x_j] for the basis pairs i < j of span, in lexicographic order,
    one bracket per unordered pair."""
    mats = span.sparse_matrices()
    return [sparse_bracket(a, b, span.n) for a, b in itertools.combinations(mats, 2)]


def _closed_brackets(span: MatSpan) -> list[dict]:
    """`_pair_brackets(span)`, checked to lie in the span."""
    brackets = _pair_brackets(span)
    if any(map(span.echelon.reduce, brackets)):
        raise ValueError("basis is not closed under the bracket")
    return brackets


def lie_close(n: int, gens) -> FdLieAlgebra:
    """Smallest bracket-closed subspace containing the generators.  The
    last closure round's brackets are the structure constants."""
    return FdLieAlgebra._of(*_lie_closure(n, [sparse(m.flatten()) for m in gens]))


def _lie_closure(n: int, rows):
    """The span of the Lie closure of the flat sparse rows, and its
    `_pair_brackets`."""
    span = MatSpan(n, rows)
    while True:
        brackets = _pair_brackets(span)
        if not any(map(span.echelon.reduce, brackets)):
            return span, brackets
        span = MatSpan(n, span.echelon.rows() + brackets)


# ---------------------------------------------------------------------------
# radical and linear nilradical
# ---------------------------------------------------------------------------


def solvable_radical(g: FdLieAlgebra) -> MatSpan:
    """Killing-perp of the derived subalgebra (exact, char 0), verified
    solvable by its derived series."""
    return _radical_series(g)[0]


def _radical_series(g: FdLieAlgebra) -> list[MatSpan]:
    """The derived series of the solvable radical, ending at 0, which
    certifies it solvable.  Computed once per algebra and cached on it."""
    if g._radical is not None:
        return g._radical
    # the image of x_k is (K(x_k, mu))_mu over the derived basis mu
    derived = g.derived_coords()
    images = []
    for kill in g.killing():
        values = (sum(kill[j] * c for j, c in mu.items() if j in kill) for mu in derived)
        images.append({r: v for r, v in enumerate(values) if v})
    series = derived_series(g.span.kernel_of(images))
    if series[-1].dim:
        raise CheckFailed("Killing-perp radical is not solvable", series[0])
    g._radical = series
    return series


def linear_nilradical(g: FdLieAlgebra, seed: int = 0) -> MatSpan:
    """Matrix-nilpotent part of the solvable radical: the x in rad with
    tr(x b) = 0 for every b in the unital associative algebra A generated
    by rad (Dickson's trace criterion, char 0).

    Lie's theorem triangularizes rad, hence A, over the algebraic closure,
    so a nilpotent x is strictly triangular there and every tr(x b)
    vanishes; conversely b = x^(k-1) gives tr(x^k) = 0 for every k, so x is
    nilpotent.  This is one kernel computation with no randomness: `seed`
    is accepted for the callers that pass one and is unused.  Every output
    basis element is verified nilpotent and the span is verified to be an
    ideal.
    """
    rad = solvable_radical(g)
    if rad.dim == 0:
        return rad
    n = g.n
    algebra = _associative_closure(rad.echelon.rows(), n)
    images = []
    for x in rad.sparse_matrices():
        values = (_trace_of_product(x, b) for b in algebra)
        images.append({t: v for t, v in enumerate(values) if v})
    nil = rad.kernel_of(images)
    for m in nil.echelon.rows():
        if not is_nilpotent(m, n):
            raise CheckFailed("nilradical candidate is not nilpotent", m)
    for b, bs in zip(g.span.echelon.rows(), g.span.sparse_matrices()):
        for m, ms in zip(nil.echelon.rows(), nil.sparse_matrices()):
            if nil.echelon.reduce(sparse_bracket(bs, ms, n)):
                raise CheckFailed("nilradical is not an ideal", (b, m))
    return nil


def _associative_closure(rows, n: int) -> list[tuple]:
    """A basis of the unital associative algebra A generated by the flat
    sparse rows, as sparse matrices: the identity and products, grown by
    right products until the span is closed under them.  A generator that
    is already in A is skipped, since A x lies in A."""
    ident = (1, {i: {i: 1} for i in range(n)})
    span = Echelon([{i * n + i: QONE for i in range(n)}])
    basis = [ident]
    used: list[tuple] = []
    for row in rows:
        if not span.reduce(row):
            continue
        x = sparse_matrix(row, n)
        used.append(x)
        work = [(b, x) for b in basis]
        while work:
            b, y = work.pop()
            prod = sparse_product(b, y, n)
            if span.add(prod):
                new = sparse_matrix(prod, n)
                basis.append(new)
                work += [(new, z) for z in used]
    return basis


def _trace_of_product(a: tuple, b: tuple):
    """tr(a b) of sparse matrices."""
    brows = b[1]
    total = 0
    for i, arow in a[1].items():
        for j, v in arow.items():
            w = brows.get(j, {}).get(i)
            if w:
                total += v * w
    return div(total, a[0] * b[0])


# ---------------------------------------------------------------------------
# meataxe: submodules, irreducibility, composition series
# ---------------------------------------------------------------------------


def _lines(a: dict, n: int, columns: bool = False) -> dict:
    """The rows {i: {j: v}} of the flat sparse n x n matrix a, or its
    columns {j: {i: v}}."""
    out: dict = {}
    for k, v in a.items():
        i, j = divmod(k, n)
        if columns:
            i, j = j, i
        out.setdefault(i, {})[j] = v
    return out


def spin(vectors, actions, dim) -> list[dict]:
    """RREF basis of the smallest subspace of Q^dim containing the sparse
    vectors and closed under the actions, flat sparse rows over dim."""
    columns = [_lines(a, dim, columns=True) for a in actions]
    span = Echelon()
    queue = [v for v in vectors if span.add(v)]
    while queue:
        v = queue.pop()
        for cols in columns:
            img = combine(v, cols)
            if span.add(img):
                queue.append(img)
    return span.rows()


_THETA_ROUNDS = 30


def _theta_battery(actions, rng, dim):
    """The nonzero actions, then up to `_THETA_ROUNDS` random combinations
    of them, some plus a product of two."""
    mats = [a for a in actions if a]
    yield from mats
    for _ in range(_THETA_ROUNDS):
        if not mats:
            return
        combo = combine(dict(enumerate(rng.randrange(-2, 3) for _ in mats)), mats)
        if rng.random() < 0.5 and len(mats) >= 2:
            x, y = (sparse_matrix(rng.choice(mats), dim) for _ in range(2))
            axpy(combo, QONE, sparse_product(x, y, dim))
        if combo:
            yield combo


def _min_poly_factors(theta: dict, dim: int):
    """The irreducible factors of the minimal polynomial of theta and their
    multiplicities, primitive over ZZ: `poly_factor_zz` factors it with
    denominators cleared."""
    coeffs = minpoly(theta, dim)
    den = lcm(*(c.denominator for c in coeffs))
    return poly_factor_zz([int(c * den) for c in coeffs])[1]


def find_proper_submodule(actions, dim, rng):
    """A basis of a proper nonzero submodule of Q^dim as sparse rows, or None
    if the module is certified irreducible (Norton's test on a nullity-one
    factor), for actions given as flat sparse rows over dim.

    The dual half needs no check of its own.  A factor p of nullity deg p
    >= 1 on theta has it on p(theta)^T = p(theta^T) too, so the spin U of a
    null vector of the transpose under the transposed actions is nonzero.
    When U is proper, its annihilator is a submodule of dimension dim -
    dim U, strictly between 0 and dim."""
    if dim <= 1:
        return None
    if not any(actions):
        return [{0: QONE}]
    for theta in _theta_battery(actions, rng, dim):
        nullity_one = None
        for p, _ in _min_poly_factors(theta, dim):
            p_theta = poly_eval_matrix(p, theta, dim)
            null = kernel(_lines(p_theta, dim).values(), dim)
            for w in null:
                sub = spin([w], actions, dim)
                if 0 < len(sub) < dim:
                    return sub
            if len(null) == len(p) - 1:
                nullity_one = p_theta
        if nullity_one is not None:
            dual_null = kernel(_lines(nullity_one, dim, columns=True).values(), dim)
            transposed = [{k % dim * dim + k // dim: v for k, v in a.items()} for a in actions]
            dual_sub = spin(dual_null[:1], transposed, dim)
            return kernel(dual_sub, dim) if len(dual_sub) < dim else None
    raise CertificationFailed("no nullity-one element found; change the seed")


def composition_series(actions, dim, rng) -> list:
    """Increasing chain of dense RREF row bases 0 < W_1 < ... < W_s = Q^dim
    with irreducible quotients (the zero step is omitted), for actions given
    as flat sparse rows over dim."""
    if dim == 0:
        return []
    full = Echelon({i: QONE} for i in range(dim))
    return [[dense(r, dim) for r in level.rows()]
            for level in _section_series(actions, Echelon(), full, dim, rng)]


def _section_series(actions, lower: Echelon, upper: Echelon, dim: int, rng) -> list:
    """The levels of a composition series of Q^dim strictly above lower, up
    to upper, for submodules lower < upper, as `Echelon`s.

    The section upper / lower has for basis the reduced residues of upper
    modulo lower, and a residue's coordinates are its entries at its
    pivots, so the columns of the section's actions come from the original
    actions with no change of basis.  A submodule of the section maps back
    to Q^dim by combining residues.  Every image of a residue is checked to lie in
    upper, which certifies upper as a submodule once lower is one; every
    level is the upper of one section."""
    residues = Echelon(map(lower.reduce, upper.rows()))
    basis = residues.rows()
    d = len(basis)
    section = []
    for a in actions:
        cols = _lines(a, dim, columns=True)
        action: dict = {}
        for k, r in enumerate(basis):
            col = residues.coords(lower.reduce(combine(r, cols)))
            if col is None:
                raise CheckFailed("submodule is not invariant", (a, r))
            action.update((i * d + k, v) for i, v in enumerate(col) if v)
        section.append(action)
    sub = find_proper_submodule(section, d, rng)
    if sub is None:
        return [upper]
    mid = Echelon(lower.rows() + [combine(s, basis) for s in sub])
    return (_section_series(actions, lower, mid, dim, rng)
            + _section_series(actions, mid, upper, dim, rng))


# ---------------------------------------------------------------------------
# Levi components, splittable closure, locally reductive part
# ---------------------------------------------------------------------------


def levi_component(g: FdLieAlgebra) -> FdLieAlgebra:
    """A semisimple complement of the radical, lifted along the derived
    series of the radical by solving the linear congruences level by level."""
    series = _radical_series(g)
    rad = series[0]
    if rad.dim == g.dim:
        return FdLieAlgebra.on(MatSpan(g.n))
    if rad.dim == 0:
        return g
    n = g.n
    coords = g.span._coords
    # complement coordinates modulo the radical
    rad_coeffs = Echelon(map(coords, rad.echelon.rows()))
    free = [j for j in range(g.dim) if j not in rad_coeffs.pivots]
    position = {j: a for a, j in enumerate(free)}
    basis = g.span.echelon.rows()
    xs = [basis[j] for j in free]
    m = len(xs)

    c = {}
    for i in range(m):
        for j in range(i + 1, m):
            resid = rad_coeffs.reduce(g.consts.get((free[i], free[j]), {}))
            c[i, j] = {position[k]: v for k, v in resid.items()}

    for level, nxt in zip(series, series[1:]):  # the series ends at 0
        nxt_coeffs = Echelon(map(coords, nxt.echelon.rows()))
        # corrections only matter modulo the next derived term, so the
        # unknowns range over complement representatives of that quotient:
        # the level elements whose residues modulo nxt extend the reduced
        # echelon basis of the quotient level / nxt
        quotient = Echelon()
        ws = [w for w in level.echelon.rows() if quotient.add(nxt_coeffs.reduce(coords(w)))]
        if not ws:
            break

        def quo_coords(row: dict) -> dict:
            resid = nxt_coeffs.reduce(coords(row))
            return {r: resid[p] for r, p in enumerate(quotient.pivots) if p in resid}

        # the unknown (i, a) is the coefficient of ws[a] in the correction
        # of xs[i]; its image holds its coefficients in the congruences of
        # the pairs i < j, column pair_index * dim_q + r, and the image of
        # the defect comes last, so the relation with the defect at
        # coefficient 1 is a solution
        width = len(ws)
        dim_q = len(quotient.pivots)
        xm = [sparse_matrix(x, n) for x in xs]
        wm = [sparse_matrix(w, n) for w in ws]
        bracket_cache = [[quo_coords(sparse_bracket(x, w, n)) for w in wm] for x in xm]
        unit_cache = [quo_coords(w) for w in ws]
        last = m * width
        images = [{} for _ in range(last + 1)]
        for pair, (i, j) in enumerate(itertools.combinations(range(m), 2)):
            defect = sparse_bracket(xm[i], xm[j], n)
            for k, coeff in c[i, j].items():
                axpy(defect, -coeff, xs[k])
            blocks = {last: quo_coords(defect)}
            for a in range(width):
                axpy(blocks.setdefault(j * width + a, {}), QONE, bracket_cache[i][a])
                axpy(blocks.setdefault(i * width + a, {}), -QONE, bracket_cache[j][a])
                for k, coeff in c[i, j].items():
                    axpy(blocks.setdefault(k * width + a, {}), -coeff, unit_cache[a])
            for u, block in blocks.items():
                images[u].update((pair * dim_q + r, v) for r, v in block.items())
        relations = _relations(images)
        if not relations or last not in relations[-1]:
            raise CheckFailed("Levi lifting system is inconsistent", (g, level))
        sol = relations[-1]
        for i in range(m):
            lifted = combine({a: sol.get(i * width + a, QZERO) for a in range(width)}, ws)
            axpy(lifted, QONE, xs[i])
            xs[i] = lifted
    levi = FdLieAlgebra.on(MatSpan(n, xs))
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
    if levi.dim and kernel(levi.killing(), levi.dim):
        raise CheckFailed("Killing form on the Levi is degenerate", levi)


def splittable_closure(g: FdLieAlgebra) -> FdLieAlgebra:
    """Smallest splittable subalgebra containing g."""
    current = g
    while True:
        span = current.span.echelon
        parts = (jordan_chevalley(b, g.n)[0] for b in span.rows())
        extra = [ss for ss in parts if span.reduce(ss)]
        if not extra:
            return current
        current = FdLieAlgebra._of(*_lie_closure(g.n, span.rows() + extra))


@dataclass
class FdDecomposition:
    nilradical: MatSpan
    levi: FdLieAlgebra
    torus: FdLieAlgebra
    reductive_part: FdLieAlgebra


def locally_reductive_part(g: FdLieAlgebra, seed: int = 0) -> FdDecomposition:
    """Splittable g = nilradical (+) (levi (+ semidirect) torus).

    The torus needs no check of its own.  Its element t is the semisimple
    part of y = y_0 - delta, y_0 in the centralizer of the Levi in rad and
    delta in the nilradical part of that centralizer, so y centralizes the
    Levi; `_commuting_correction` makes y commute with every earlier torus
    element.  t is a polynomial in y, so it commutes with all of these, and
    `jordan_chevalley` returns it with q(t) = 0 for a squarefree q."""
    n = g.n
    for b in g.span.echelon.rows():
        if g.span.echelon.reduce(jordan_chevalley(b, n)[0]):
            raise NotSplittable(b)
    nil = linear_nilradical(g, seed)
    rad = solvable_radical(g)
    levi = levi_component(g)
    cent = _centralizer_span(rad, levi.span.sparse_matrices())
    nil_in_cent = nil.intersect(cent)
    torus_rows = []
    seen = Echelon(nil_in_cent.echelon.rows())
    for y in [r for r in cent.echelon.rows() if seen.add(r)]:
        if torus_rows:
            y = _commuting_correction(y, torus_rows, nil_in_cent)
        ss, nl = jordan_chevalley(y, n)
        if nil.echelon.reduce(nl):
            raise CheckFailed("nilpotent part escaped the nilradical", y)
        torus_rows.append(ss)
    torus = FdLieAlgebra.on(MatSpan(n, torus_rows))
    g_red = FdLieAlgebra.on(levi.span.sum(torus.span))
    if g_red.span.intersect(nil).dim:
        raise CheckFailed("reductive part meets the nilradical", g_red)
    if g_red.span.sum(nil).dim != g.dim:
        raise CheckFailed("reductive part and nilradical do not span g", g_red)
    return FdDecomposition(nil, levi, torus, g_red)


def _bracket_images(xs, ys, n: int, modulo: Echelon) -> list[dict]:
    """For each sparse matrix x of xs, the residuals modulo `modulo` of the
    brackets [x, y], y in the sparse matrices ys, side by side in one flat
    sparse row: the images that `kernel_of` and `_relations` take."""
    nn = n * n
    images = []
    for x in xs:
        image = {}
        for t, y in enumerate(ys):
            for k, v in modulo.reduce(sparse_bracket(x, y, n)).items():
                image[t * nn + k] = v
        images.append(image)
    return images


def _centralizer_span(inside: MatSpan, of_basis) -> MatSpan:
    """{x in inside : [x, b] = 0 for all b in of_basis}, of_basis given as
    sparse matrices."""
    images = _bracket_images(inside.sparse_matrices(), of_basis, inside.n, Echelon())
    return inside.kernel_of(images)


def _commuting_correction(y: dict, torus_rows, nil_span: MatSpan) -> dict:
    """y' = y - delta with delta in nil_span and [t, y'] = 0 for every torus
    row t.

    Among the combinations of the basis of nil_span and y whose brackets
    with the torus vanish, one with y at coefficient 1 comes last when it
    exists; the others lie in nil_span."""
    n = nil_span.n
    rows = nil_span.echelon.rows() + [y]
    ts = [sparse_matrix(t, n) for t in torus_rows]
    found = _relations(_bracket_images([sparse_matrix(r, n) for r in rows], ts, n, Echelon()))
    corrected = combine(found[-1], rows) if found else {}
    if not nil_span.echelon.reduce(corrected):
        raise CheckFailed("no commuting correction exists", y)
    return corrected


# ---------------------------------------------------------------------------
# Cartan subalgebras of splittable algebras
# ---------------------------------------------------------------------------


def fitting_null(k: FdLieAlgebra, h_span: MatSpan) -> FdLieAlgebra:
    """Joint generalized null component of ad(h) on k for h in h_span: the
    elements killed by every sufficiently long word in ad of its basis.

    It is the limit of 0 = K_0 < K_1 < ..., K_(i+1) the x in k with
    [x, h] in K_i for every basis element h."""
    hs = h_span.sparse_matrices()
    xs = k.span.sparse_matrices()
    current = MatSpan(k.n)
    while True:
        nxt = k.span.kernel_of(_bracket_images(xs, hs, k.n, current.echelon))
        if nxt.dim == current.dim:
            return FdLieAlgebra.on(current)
        current = nxt


@dataclass
class CartanVerdict:
    is_cartan: bool
    via_centralizer_of_ss: bool
    via_fitting_null: bool


def cartan_queries(k: FdLieAlgebra, h_span: MatSpan) -> CartanVerdict:
    """Two independent routes to the Cartan property of h = h_span in k.

    Route D: h equals the centralizer of the semisimple parts of h.  Route
    F: h equals its own Fitting null component.  A disagreement between the
    routes, or a positive verdict that is not self-normalizing, raises
    CheckFailed.  No route draws random numbers.  The maximal-torus route
    adds nothing to D: once the centralizer of the semisimple parts is h,
    they span a maximal torus of it.

    Route D runs only on a nilpotent h, whose semisimple parts commute with
    no check: on a nilpotent linear Lie algebra every semisimple part acts
    as a scalar on each generalized weight space of h in Q^n.
    """
    if not k.span.contains(h_span):
        raise ValueError("candidate subalgebra is not inside k")
    try:
        FdLieAlgebra.on(h_span)
    except ValueError:
        return CartanVerdict(False, False, False)
    nilpotent = is_nilpotent_span(h_span)

    via_f = fitting_null(k, h_span).span == h_span

    if not nilpotent:
        if via_f:
            raise CheckFailed("Fitting route accepted a non-nilpotent subalgebra", h_span)
        return CartanVerdict(False, False, via_f)

    parts = MatSpan(k.n, [jordan_chevalley(h, k.n)[0] for h in h_span.echelon.rows()])
    via_d = _centralizer_span(k.span, parts.sparse_matrices()) == h_span

    verdict = CartanVerdict(via_d, via_d, via_f)
    if via_d != via_f:
        raise CheckFailed("Cartan routes disagree", (h_span, verdict))
    if verdict.is_cartan and _normalizer_in(k, h_span) != h_span:
        raise CheckFailed("Cartan candidate is not self-normalizing", h_span)
    return verdict


def _normalizer_in(k: FdLieAlgebra, h_span: MatSpan) -> MatSpan:
    """{x in k : [x, h] subset h}."""
    return k.span.kernel_of(
        _bracket_images(k.span.sparse_matrices(), h_span.sparse_matrices(), k.n, h_span.echelon)
    )


# ---------------------------------------------------------------------------
# finite flags, stabilizers, invariant taut couples
# ---------------------------------------------------------------------------


def flag_stabilizer_brute(n: int, chain) -> MatSpan:
    """{X in gl_n : X W subset W for every W in the chain} by linear solve.

    Conditions: for each basis row w of a chain member, the residual of X w
    modulo the member must vanish.  The unit E_ij sends w to w_j e_i, so its
    image lists w_j times the residual of e_i for every such w."""
    images: list[dict] = [{} for _ in range(n * n)]
    for s, level in enumerate(chain):
        level_ech = Echelon(map(sparse, level))
        if len(level_ech.pivots) in (0, n):
            continue
        resids = [level_ech.reduce({i: QONE}) for i in range(n)]
        for t, w in enumerate(level_ech.rows()):
            base = (s * n + t) * n
            for j, wj in w.items():
                for i, resid in enumerate(resids):
                    image = images[i * n + j]
                    for c, v in resid.items():
                        image[base + c] = wj * v
    return MatSpan(n, _relations(images))


def flag_formula_spans(n: int, chain) -> tuple[MatSpan, MatSpan]:
    """The stabilizer and the linear nilradical of a flag in Q^n, by their
    tensor descriptions.

    Complete the chain to 0 = W_0 < W_1 < ... < W_k = Q^n, in any order and
    with repeats, and let C_j be the rows of W_j that extend W_(j-1): a
    complement.  The stabilizer is the direct sum of the C_j (x) ann W_(j-1)
    and the nilradical that of the C_j (x) ann W_j, so every generator
    v (x) y = v y^T handed to `MatSpan` is independent."""
    levels = [Echelon(sparse(map(rat, row)) for row in level) for level in chain]
    levels.sort(key=lambda e: len(e.pivots))
    levels.append(Echelon({i: QONE} for i in range(n)))
    below = Echelon()
    ann_below = [{i: QONE} for i in range(n)]
    stabilizer, nilradical = [], []
    for level in levels:
        complement = [v for v in level.rows() if below.add(v)]
        if not complement:
            continue
        ann = kernel(below.rows(), n)
        for v in complement:
            stabilizer += [_outer(v, y, n) for y in ann_below]
            nilradical += [_outer(v, y, n) for y in ann]
        ann_below = ann
    return MatSpan(n, stabilizer), MatSpan(n, nilradical)


def _outer(v: dict, y: dict, n: int) -> dict:
    """v (x) y = v y^T as a flat sparse row."""
    return {i * n + j: a * b for i, a in v.items() for j, b in y.items()}


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
    chain = composition_series(k.span.echelon.rows(), k.n, rng) or [[]]  # n = 0: the zero space
    p_plus_span = flag_stabilizer_brute(k.n, chain)
    s_formula, n_formula = flag_formula_spans(k.n, chain)
    if s_formula != p_plus_span:
        raise CheckFailed("stabilizer formula disagrees with brute force", (chain, seed))
    p_alg = FdLieAlgebra.on(p_plus_span)
    n_oracle = linear_nilradical(p_alg, seed)
    if n_formula != n_oracle:
        raise CheckFailed("nilradical formula disagrees with the oracle", (chain, seed))
    n_k = linear_nilradical(k, seed)
    if n_k != n_oracle.intersect(k.span):
        raise CheckFailed("n_k != n_p cap k", (chain, seed))
    return InvariantCoupleReport(chain, p_plus_span, n_formula, n_oracle, n_k, seed)


# ---------------------------------------------------------------------------
# parabolic tests
# ---------------------------------------------------------------------------


@dataclass
class ParabolicReport:
    is_parabolic: bool
    borel_restriction_check: bool


def fd_parabolic_tests(p: FdLieAlgebra, seed: int = 0) -> ParabolicReport:
    """p is parabolic at finite scale iff it is the stabilizer of a flag,
    and then the flag is read off one composition series C of Q^n under p:
    p is parabolic iff p = stab(C).

    p lies in stab(C) for any invariant chain C, and equality means p is a
    flag stabilizer.  Conversely, if p = stab(F), the p-invariant subspaces
    are exactly the members of F.  Each is the only one of its dimension,
    so it is fixed by the Galois group and rational, and the composition
    series over Q is F itself.

    `borel_restriction_check` asks whether b = stab(F) cap p, for a
    complete flag F refining C, is a Borel of p over C, by the exact test
    `_is_maximal_solvable_in`; then b cap [p, p] is a Borel of [p, p] (see
    `_borel_restriction_check`).  The seed only feeds the meataxe."""
    series = composition_series(p.span.echelon.rows(), p.n, random.Random(seed))
    is_parabolic = flag_stabilizer_brute(p.n, series) == p.span
    return ParabolicReport(is_parabolic, _borel_restriction_check(p, series))


def _full_flag_refining(series, n: int) -> list:
    """A complete flag of Q^n refining a chain of RREF row bases."""
    current = Echelon()
    chain = []
    for level in series:
        for w in level:
            if current.add(sparse(w)):
                chain.append([dense(r, n) for r in current.rows()])
    return chain


def _is_maximal_solvable_in(b_span: MatSpan, ambient: FdLieAlgebra) -> bool:
    """Whether the subalgebra b of g = ambient is a Borel subalgebra over C
    (maximal solvable in g (x) C): exactly when b is solvable, rad g <= b
    and dim b + dim([b, b] + rad g) = dim g + dim rad g.  None of these
    changes under extension from Q to C.

    Proof (Humphreys, Introduction to Lie Algebras, 4.3 and 16).  Every
    Borel contains rad g, and the Borels of g are the preimages of those
    of s = g / rad g.  For c solvable in s, Cartan's criterion on ad c gives
    [c, c] <= c^perp under the Killing form of s, so dim c + dim [c, c] <=
    dim s.  A Borel B = h + n reaches equality: [B, B] = n = B^perp.  If c
    lies in a Borel B and reaches equality, c^perp = [c, c] <= n = B^perp
    <= c^perp, so c = B.  Take c = b / rad g.

    A Borel over C is maximal solvable over Q, but not conversely: the
    rotation line in sl_2 is maximal solvable over Q and no Borel over C.
    Every element of the b the callers build, stab(F) cap g for a complete
    rational flag F and n_g + b_red, has only rational eigenvalues on Q^n
    (n_g is a nilpotent ideal), and on such b the answers agree.  Let c = b /
    rad g be maximal solvable over Q.  It is self-normalizing, so c = Lie H
    for a connected solvable Q-subgroup H of the adjoint group of s, split
    over Q by its rational eigenvalues.  Borel's fixed point theorem
    (Linear Algebraic Groups, 15.2) puts H in a minimal Q-parabolic: c <=
    l + u with u nilpotent, l the centralizer of a maximal Q-split torus
    and [l, l] anisotropic, so with no nonzero element of rational
    eigenvalues.  Hence u <= c, c cap l <= z(l), and c + Q y is solvable
    for y in [l, l]; so [l, l] = 0 and c = l + u, a parabolic whose Levi
    part is a torus: a Borel over C.
    """
    if not is_solvable_span(b_span):
        return False
    rad = solvable_radical(ambient)
    if not b_span.contains(rad):
        return False
    derived_plus_rad = MatSpan(ambient.n, rad.echelon.rows() + _pair_brackets(b_span))
    return b_span.dim + derived_plus_rad.dim == ambient.dim + rad.dim


def _borel_restriction_check(p: FdLieAlgebra, series) -> bool:
    """Whether b = stab(F) cap p, for a full flag F refining the composition
    series of p, is a Borel of p.

    Its restriction b cap [p, p] is then a Borel of [p, p] with no further
    test.  A Borel B of p contains rad p, so B = rad p + (B cap s) for any
    Levi factor s, and B cap s is a Borel of s.  Since s = [s, s] lies in
    [p, p] and rad [p, p] = rad p cap [p, p], B cap [p, p] = rad [p, p] +
    (B cap s), a Borel of [p, p] = s + rad [p, p]."""
    stab = flag_stabilizer_brute(p.n, _full_flag_refining(series, p.n))
    return _is_maximal_solvable_in(stab.intersect(p.span), p)


def parabolic_bijection_check(g: FdLieAlgebra, p_red: MatSpan, seed: int = 0) -> FdLieAlgebra:
    """Map a parabolic of the reductive part to n_g (+) p_red and verify the
    round trip of the bijection.  Both Borel verdicts, on b_red in g_red and
    on n_g + b_red in g, are exact (`_is_maximal_solvable_in`); the seed
    only feeds the meataxe."""
    dec = locally_reductive_part(g, seed)
    g_red = dec.reductive_part
    if not g_red.span.contains(p_red):
        raise NotParabolicInput("p_red is not inside the reductive part")
    try:
        FdLieAlgebra.on(p_red)
    except ValueError as exc:
        raise NotParabolicInput("p_red is not a subalgebra") from exc
    # parabolic criterion inside g_red: a full invariant flag of p_red gives
    # a maximal solvable subalgebra of g_red contained in p_red
    series = composition_series(p_red.echelon.rows(), g.n, random.Random(seed))
    flag = _full_flag_refining(series, g.n)
    b_red = flag_stabilizer_brute(g.n, flag).intersect(g_red.span)
    if not p_red.contains(b_red):
        raise NotParabolicInput("p_red does not contain a Borel of the reductive part")
    if not _is_maximal_solvable_in(b_red, g_red):
        raise NotParabolicInput("constructed candidate is not maximal solvable")
    q = FdLieAlgebra._of(*_lie_closure(g.n, dec.nilradical.echelon.rows() + p_red.echelon.rows()))
    if q.dim != dec.nilradical.sum(p_red).dim:
        raise CheckFailed("n_g + p_red is not a subalgebra", (p_red, seed))
    borel_g = dec.nilradical.sum(b_red)
    if not q.span.contains(borel_g):
        raise CheckFailed("n_g + b_red is not inside n_g + p_red", (p_red, seed))
    if not _is_maximal_solvable_in(borel_g, g):
        raise CheckFailed("n_g + b_red is not a Borel of g", (p_red, seed))
    if q.span.intersect(g_red.span) != p_red:
        raise CheckFailed("round trip does not recover p_red", (p_red, seed))
    return q
