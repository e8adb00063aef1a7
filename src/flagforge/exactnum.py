"""Exact rational arithmetic and exact linear algebra.

Everything here works over the rationals (``fractions.Fraction``), with no
floating point anywhere.  Elimination has two kernels:

- batch: `rref` (and `rank`, `kernel`, `solve`, `row_space_basis` on top of
  it) reduces a whole dense `Matrix` at once, on integer-rescaled rows, so
  the bulk of the work runs on Python ints;
- incremental: `Echelon` is a reduced echelon basis of sparse rows grown
  one row at a time, for reducing vectors against a span, reading their
  coordinates and testing membership.

Polynomials are dense coefficient lists, index = degree.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from math import gcd

Rational = Fraction

QZERO = Fraction(0)
QONE = Fraction(1)


class NonSquare(ValueError):
    """Raised when an operation needs a square matrix and got a rectangle."""


class CheckFailed(AssertionError):
    """A self-certification failed: the result it guards is wrong.

    Raised explicitly, so `python -O` cannot strip the check.  `check`
    names the property that failed and `witness` holds the object that
    shows it."""

    def __init__(self, check: str, witness=None):
        self.check = check
        self.witness = witness
        super().__init__(check)


def rat(x) -> Fraction:
    """Coerce ints, strings like '3/4', and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational")


def format_rational(x: Fraction) -> str:
    """Serialize as 'p/q', omitting '/q' when q == 1."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


class Matrix:
    """Dense rational matrix, immutable by convention after construction."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        self.entries = [[rat(v) for v in row] for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else 0
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged rows")

    @classmethod
    def _of(cls, entries) -> "Matrix":
        """Wrap rectangular rows that already hold Fractions, without
        coercing or validating them again."""
        m = object.__new__(cls)
        m.entries = entries
        m.rows = len(entries)
        m.cols = len(entries[0]) if entries else 0
        return m

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls._of([[QZERO] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._of([[QONE if i == j else QZERO for j in range(n)] for i in range(n)])

    @classmethod
    def from_rows(cls, rows) -> "Matrix":
        return cls([list(r) for r in rows])

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(tuple(r) for r in self.entries)))

    def __repr__(self):
        body = "; ".join(" ".join(format_rational(v) for v in row) for row in self.entries)
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def row(self, i):
        return list(self.entries[i])

    def col(self, j):
        return [self.entries[i][j] for i in range(self.rows)]

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Matrix._of([
            [a + b if b else a for a, b in zip(ra, rb)]
            for ra, rb in zip(self.entries, other.entries)
        ])

    def __sub__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Matrix._of([
            [a - b if b else a for a, b in zip(ra, rb)]
            for ra, rb in zip(self.entries, other.entries)
        ])

    def scale(self, c) -> "Matrix":
        c = rat(c)
        return Matrix._of([[c * v if v else v for v in row] for row in self.entries])

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        out = []
        ocols = other.cols
        oent = other.entries
        for arow in self.entries:
            acc = [QZERO] * ocols
            for k, a in enumerate(arow):
                if a:
                    brow = oent[k]
                    for j in range(ocols):
                        b = brow[j]
                        if b:
                            acc[j] += a * b
            out.append(acc)
        return Matrix._of(out)

    def transpose(self) -> "Matrix":
        return Matrix._of([list(col) for col in zip(*self.entries)])

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise NonSquare("trace needs a square matrix")
        return sum((self.entries[i][i] for i in range(self.rows)), QZERO)

    def is_zero(self) -> bool:
        return all(not v for row in self.entries for v in row)

    def flatten(self) -> list[Fraction]:
        return [v for row in self.entries for v in row]

    def apply(self, vec) -> list[Fraction]:
        """The matrix-vector product self . vec, vec given as a list."""
        nz = [(c, v) for c, v in enumerate(vec) if v]
        return [sum((row[c] * v for c, v in nz if row[c]), QZERO) for row in self.entries]


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
    """Fraction-free row echelon on integer rows.

    Returns (echelon integer rows, pivot column list).  Rows are kept
    primitive to control entry growth; good enough at desk scale.
    """
    rows = [r[:] for r in rows]
    pivots = []
    r = 0
    for c in range(cols):
        # find a pivot row
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
    return [row for row in rows[:r]], pivots


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot columns; row space preserved."""
    rows = _int_rows(m.entries)
    ech, pivots = _int_row_reduce(rows, m.cols)
    # normalize pivots to 1 (back to rationals)
    out = []
    for row, c in zip(ech, pivots):
        pv = row[c]
        out.append([Fraction(v, pv) if v else QZERO for v in row])
    while len(out) < m.rows:
        out.append([QZERO] * m.cols)
    if not out:
        out = [[QZERO] * m.cols for _ in range(m.rows)]
    return Matrix._of(out) if m.cols else Matrix.zero(m.rows, 0), pivots


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def row_space_basis(rows: list[list[Fraction]], cols: int) -> list[list[Fraction]]:
    """RREF basis of the span of the given rational rows."""
    if not rows:
        return []
    mat, pivots = rref(Matrix.from_rows(rows))
    return [mat.row(i) for i in range(len(pivots))]


def kernel(m: Matrix) -> list[list[Fraction]]:
    """Basis of the right null space {x : m x = 0}."""
    red, pivots = rref(m)
    free = [c for c in range(m.cols) if c not in pivots]
    basis = []
    for f in free:
        vec = [QZERO] * m.cols
        vec[f] = QONE
        for r, c in enumerate(pivots):
            vec[c] = -red.entries[r][f]
        basis.append(vec)
    return basis


def solve(m: Matrix, rhs: list[Fraction]):
    """One solution x of m x = rhs, or None if inconsistent."""
    aug = Matrix.from_rows([m.row(i) + [rhs[i]] for i in range(m.rows)])
    red, pivots = rref(aug)
    if m.cols in pivots:
        return None
    x = [QZERO] * m.cols
    for r, c in enumerate(pivots):
        x[c] = red.entries[r][m.cols]
    return x


def sparse(vec) -> dict:
    """The nonzero entries {column: value} of a dense vector."""
    return {j: v for j, v in enumerate(vec) if v}


def dense(row: dict, width: int) -> list[Fraction]:
    """The dense vector of length width with the entries of a sparse row."""
    return [row.get(j, QZERO) for j in range(width)]


def axpy(target: dict, coeff: Fraction, row: dict) -> None:
    """target += coeff * row on sparse rows, in place.  coeff is nonzero and
    row holds no zeros; entries that cancel are dropped from target."""
    for k, v in row.items():
        old = target.get(k)
        if old is None:
            target[k] = coeff * v
        else:
            val = old + coeff * v
            if val:
                target[k] = val
            else:
                del target[k]


class Echelon:
    """Reduced echelon basis of sparse rows {column: Fraction}, grown one row
    at a time.

    Columns are any sortable keys.  Every row's pivot is its smallest column,
    every pivot is 1 and is cleared from the other rows, so the coordinates
    of a vector in the span are its entries at the pivots, and the rows do
    not depend on the order in which the span was given."""

    __slots__ = ("_rows", "pivots")

    def __init__(self, rows=()):
        self._rows: dict = {}  # pivot -> row
        self.pivots: list = []  # sorted
        for row in rows:
            self.add(row)

    def rows(self) -> list[dict]:
        """The basis rows in pivot order.  They are the basis' own dicts:
        read them, do not change them."""
        return [self._rows[p] for p in self.pivots]

    def reduce(self, row: dict) -> dict:
        """The residual of row: a new dict equal to row minus its entries at
        the pivots times their rows, so it vanishes at every pivot."""
        out = {k: v for k, v in row.items() if v}
        # a pivot's entry is untouched by the other rows, which vanish there
        for p, c in [(p, c) for p, c in out.items() if p in self._rows]:
            axpy(out, -c, self._rows[p])
        return out

    def coords(self, row: dict):
        """Coordinates of row over rows(), or None if it is outside the span."""
        if self.reduce(row):
            return None
        return [row.get(p, QZERO) for p in self.pivots]

    def add(self, row: dict) -> bool:
        """Extend the basis by row; False when row is already in the span."""
        new = self.reduce(row)
        if not new:
            return False
        p = min(new)
        pv = new[p]
        if pv != 1:
            new = {k: v / pv for k, v in new.items()}
        for other in self._rows.values():
            c = other.get(p)
            if c:
                axpy(other, -c, new)
        self._rows[p] = new
        insort(self.pivots, p)
        return True


# ---------------------------------------------------------------------------
# dense polynomial helpers over Q (coefficient lists, index = degree)
# ---------------------------------------------------------------------------


def poly_trim(p):
    while p and not p[-1]:
        p.pop()
    return p


def poly_add(p, q):
    n = max(len(p), len(q))
    out = [QZERO] * n
    for i, v in enumerate(p):
        out[i] += v
    for i, v in enumerate(q):
        out[i] += v
    return poly_trim(out)


def poly_sub(p, q):
    return poly_add(p, [-v for v in q])


def poly_scale(p, c):
    c = rat(c)
    return poly_trim([c * v for v in p])


def poly_mul(p, q):
    if not p or not q:
        return []
    out = [QZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                if b:
                    out[i + j] += a * b
    return poly_trim(out)


def poly_divmod(p, q):
    q = poly_trim(list(q))
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quo = [QZERO] * max(0, len(rem) - len(q) + 1)
    lead = q[-1]
    while len(rem) >= len(q) and poly_trim(rem[:]):
        rem = poly_trim(rem)
        if len(rem) < len(q):
            break
        c = rem[-1] / lead
        d = len(rem) - len(q)
        quo[d] = c
        for i, b in enumerate(q):
            rem[d + i] -= c * b
        rem.pop()
    return poly_trim(quo), poly_trim(rem)


def poly_mod(p, q):
    return poly_divmod(p, q)[1]


def poly_gcd(p, q):
    """Monic gcd via the Euclidean algorithm."""
    a, b = poly_trim(list(p)), poly_trim(list(q))
    while b:
        a, b = b, poly_mod(a, b)
    if a:
        lead = a[-1]
        a = [v / lead for v in a]
    return a


def poly_xgcd(p, q):
    """Extended gcd: (g, s, t) monic with s p + t q = g."""
    a, b = poly_trim(list(p)), poly_trim(list(q))
    sa, sb = [QONE], []
    ta, tb = [], [QONE]
    while b:
        quo, rem = poly_divmod(a, b)
        a, b = b, rem
        sa, sb = sb, poly_sub(sa, poly_mul(quo, sb))
        ta, tb = tb, poly_sub(ta, poly_mul(quo, tb))
    if a:
        lead = a[-1]
        a = [v / lead for v in a]
        sa = poly_scale(sa, 1 / lead)
        ta = poly_scale(ta, 1 / lead)
    return a, sa, ta


def poly_derivative(p):
    return poly_trim([i * v for i, v in enumerate(p)][1:])


def poly_squarefree_part(p):
    """p / gcd(p, p'), monic: the radical of p."""
    g = poly_gcd(p, poly_derivative(p))
    q, r = poly_divmod(p, g)
    if r:
        raise CheckFailed("gcd(p, p') does not divide p", (p, g, r))
    if q:
        q = [v / q[-1] for v in q]
    return q


def poly_is_squarefree(p) -> bool:
    return len(poly_gcd(p, poly_derivative(p))) == 1


def poly_eval_matrix(p, m: Matrix) -> Matrix:
    """Horner evaluation of p at a square matrix."""
    n = m.rows
    acc = Matrix.zero(n, n)
    for c in reversed(p):
        acc = acc * m
        if c:
            acc = acc + Matrix.identity(n).scale(c)
    return acc


# ---------------------------------------------------------------------------
# characteristic / minimal polynomial and Jordan-Chevalley decomposition
# ---------------------------------------------------------------------------


def charpoly(m: Matrix) -> list[Fraction]:
    """Monic characteristic polynomial via Faddeev-LeVerrier."""
    if m.rows != m.cols:
        raise NonSquare("charpoly needs a square matrix")
    n = m.rows
    if n == 0:
        return [QONE]
    coeffs = [QZERO] * (n + 1)
    coeffs[n] = QONE
    mk = Matrix.identity(n)
    for k in range(1, n + 1):
        mk = m * mk
        ck = -mk.trace() / k
        coeffs[n - k] = ck
        if k < n:
            mk = mk + Matrix.identity(n).scale(ck)
    return coeffs


def minpoly(m: Matrix) -> list[Fraction]:
    """Monic minimal polynomial, found by the first linear dependency
    among I, m, m^2, ..."""
    if m.rows != m.cols:
        raise NonSquare("minpoly needs a square matrix")
    n = m.rows
    if n == 0:
        return [QONE]
    powers = [Matrix.identity(n)]
    rows = [powers[0].flatten()]
    while True:
        powers.append(powers[-1] * m)
        target = powers[-1].flatten()
        coeff_matrix = Matrix.from_rows(list(map(list, zip(*rows))))
        x = solve(coeff_matrix, target)
        if x is not None:
            # m^k = sum x_i m^i  ->  minpoly = t^k - sum x_i t^i
            k = len(rows)
            p = [-v for v in x] + [QONE]
            return poly_trim(p)
        rows.append(target)


def jordan_chevalley(m: Matrix) -> tuple[Matrix, Matrix]:
    """Split m = ss + nil with [ss, nil] = 0, nil nilpotent and the minimal
    polynomial of ss squarefree.

    ss is obtained as P(m) where P is computed by Newton iteration in
    Q[t]/(charpoly): no eigenvalues are ever extracted.
    """
    if m.rows != m.cols:
        raise NonSquare("jordan_chevalley needs a square matrix")
    n = m.rows
    if n == 0:
        return m, m
    chi = charpoly(m)
    q = poly_squarefree_part(chi)
    if len(q) == len(chi):
        # squarefree characteristic polynomial: m already semisimple
        return m, Matrix.zero(n, n)
    dq = poly_derivative(q)
    # u0: inverse of q'(t) modulo nilpotents (gcd(q, q') = 1 gives the seed)
    _, _, u = poly_xgcd(q, dq)
    s = [QZERO, QONE]  # the polynomial t
    for _ in range(n + 2):
        qs = poly_mod(_compose_mod(q, s, chi), chi)
        if not qs:
            break
        # refine u toward the inverse of q'(s) mod chi
        dqs = poly_mod(_compose_mod(dq, s, chi), chi)
        u = poly_mod(poly_mul(u, poly_sub([Fraction(2)], poly_mul(dqs, u))), chi)
        s = poly_mod(poly_sub(s, poly_mul(qs, u)), chi)
    else:
        raise CheckFailed("Newton lifting did not stabilize", m)
    ss = poly_eval_matrix(s, m)
    nil = m - ss
    return ss, nil


def _compose_mod(p, s, mod):
    """p(s(t)) reduced modulo mod, by Horner on polynomials."""
    acc: list[Fraction] = []
    for c in reversed(p):
        acc = poly_mod(poly_mul(acc, s), mod)
        if c:
            acc = poly_add(acc, [c])
    return acc


def is_nilpotent(m: Matrix) -> bool:
    return charpoly(m)[:-1] == [QZERO] * m.rows
