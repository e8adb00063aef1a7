"""The dense matrix kernel that the sparse rows of `exactnum` replaced, kept
as the tests' reference.

`Dense` is a `Matrix` with the dense arithmetic the program no longer has:
`zero`, `identity`, `+`, `-`, `scale`, `*`, `transpose`, `is_zero` and
`apply`.  `solve` is the dense linear solve, and `dense_minpoly`,
`dense_jordan_chevalley`, `dense_is_nilpotent` and `dense_poly_eval_matrix`
are the dense versions of the sparse `exactnum` functions, each checked
against them.  `flat` and `of_flat` convert between a `Matrix` and the
flat sparse row {i * n + j: v} of the program.  Its zero and one are its
own `Fraction`s, not the program's ints, so the reference computes over
`Fraction` whatever the program's number rule.
"""

from fractions import Fraction

from flagforge.exactnum import (
    CheckFailed,
    Echelon,
    Matrix,
    _compose_mod,
    poly_derivative,
    poly_gcd,
    poly_mod,
    poly_mul,
    poly_squarefree_part,
    poly_sub,
    poly_xgcd,
    rat,
    sparse,
)

QZERO = Fraction(0)
QONE = Fraction(1)


class Dense(Matrix):
    """Dense rational matrix with arithmetic; any `Matrix` is a valid right
    operand."""

    __slots__ = ()

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Dense":
        return cls._of([[QZERO] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "Dense":
        return cls._of([[QONE if i == j else QZERO for j in range(n)] for i in range(n)])

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Dense._of([
            [a + b if b else a for a, b in zip(ra, rb)]
            for ra, rb in zip(self.entries, other.entries)
        ])

    def __sub__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Dense._of([
            [a - b if b else a for a, b in zip(ra, rb)]
            for ra, rb in zip(self.entries, other.entries)
        ])

    def scale(self, c) -> "Dense":
        c = rat(c)
        return Dense._of([[c * v if v else v for v in row] for row in self.entries])

    def __mul__(self, other: Matrix) -> "Dense":
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
        return Dense._of(out)

    def transpose(self) -> "Dense":
        return Dense._of([list(col) for col in zip(*self.entries)])

    def is_zero(self) -> bool:
        return all(not v for row in self.entries for v in row)

    def apply(self, vec) -> list[Fraction]:
        """The matrix-vector product self . vec, vec given as a list."""
        nz = [(c, v) for c, v in enumerate(vec) if v]
        return [sum((row[c] * v for c, v in nz if row[c]), QZERO) for row in self.entries]


def D(m) -> Dense:
    """A `Matrix` or rows of rationals as a `Dense`."""
    return Dense._of(m.entries) if isinstance(m, Matrix) else Dense(m)


def flat(m: Matrix) -> dict:
    """The flat sparse row {i * n + j: v} of a matrix."""
    return sparse(m.flatten())


def of_flat(row: dict, n: int) -> Dense:
    """The n x n matrix of a flat sparse row."""
    return Dense._of([[row.get(i * n + j, QZERO) for j in range(n)] for i in range(n)])


def solve(m: Matrix, rhs: list[Fraction]):
    """One solution x of m x = rhs, or None if inconsistent."""
    ech = Echelon(sparse(row + [rat(v)]) for row, v in zip(m.entries, rhs))
    if m.cols in ech.pivots:
        return None
    x = [QZERO] * m.cols
    for p, row in zip(ech.pivots, ech.rows()):
        x[p] = row.get(m.cols, QZERO)
    return x


def poly_is_squarefree(p) -> bool:
    return len(poly_gcd(p, poly_derivative(p))) == 1


def dense_poly_eval_matrix(p, m: Matrix) -> Dense:
    """Horner evaluation of p at a square matrix."""
    n = m.rows
    acc = Dense.zero(n, n)
    for c in reversed(p):
        acc = acc * m
        if c:
            acc = acc + Dense.identity(n).scale(c)
    return acc


def dense_minpoly(m: Matrix) -> list[Fraction]:
    """Monic minimal polynomial, found by the first linear dependency
    among I, m, m^2, ..., each power reduced with a tag column."""
    n = m.rows
    if n == 0:
        return [QONE]
    nn = n * n
    powers = Echelon()
    power = Dense.identity(n)
    for k in range(n + 1):
        row = sparse(power.flatten())
        row[nn + k] = QONE
        resid = powers.reduce(row)
        if min(resid) >= nn:
            return [resid.get(nn + j, QZERO) for j in range(k + 1)]
        powers.add(resid)
        power = power * m
    raise CheckFailed("no dependency among I, m, ..., m^n (Cayley-Hamilton)", m)


def dense_jordan_chevalley(m: Matrix) -> tuple[Dense, Dense]:
    """m = ss + nil by Newton iteration in Q[t]/(mu), on dense matrices."""
    m = D(m)
    n = m.rows
    if n == 0:
        return m, m
    mu = dense_minpoly(m)
    q = poly_squarefree_part(mu)
    if len(q) == len(mu):
        return m, Dense.zero(n, n)
    if len(q) == 2:
        ss = Dense.identity(n).scale(-q[0])
        return ss, m - ss
    dq = poly_derivative(q)
    _, _, u = poly_xgcd(q, dq)
    s = [QZERO, QONE]
    for _ in range(n + 2):
        qs = _compose_mod(q, s, mu)
        if not qs:
            break
        dqs = _compose_mod(dq, s, mu)
        u = poly_mod(poly_mul(u, poly_sub([Fraction(2)], poly_mul(dqs, u))), mu)
        s = poly_mod(poly_sub(s, poly_mul(qs, u)), mu)
    else:
        raise CheckFailed("Newton lifting did not stabilize", m)
    ss = dense_poly_eval_matrix(s, m)
    return ss, m - ss


def dense_is_nilpotent(m: Matrix) -> bool:
    """Whether m^n = 0, by squaring m ceil(log2 n) times."""
    m = D(m)
    for _ in range(max(m.rows - 1, 0).bit_length()):
        m = m * m
    return m.is_zero()
