"""Exact rational arithmetic and exact linear algebra.

Everything here works over the rationals, with no floating point anywhere,
under one number rule: a rational is a Python `int` when it is integral and
a `fractions.Fraction` otherwise, so integer arithmetic pays no gcd.
`rat` brings a value in under the rule, and `div` is the one division:
`/` on two ints would give a float.  Mixed arithmetic may still produce an
integral `Fraction`; that is slower, not wrong, since `==` and `hash` agree
across the two types.  Elimination has one kernel, `Echelon`: a reduced
echelon basis of sparse rows grown one row at a time, for reducing vectors
against a span, reading their coordinates, rank and pivots, and testing
membership.  `kernel`, the one null-space routine, builds one `Echelon`
from its equation rows; a reduced row echelon form is unique, so it
returns what any correct elimination returns.

A square matrix has one form in the computations: the flat sparse row
{i * n + j: rational} next to its size n.  Products and brackets go through
one kernel on integer row dicts over a common denominator
(`sparse_matrix`), and `minpoly`, `jordan_chevalley`, `is_nilpotent` and
`poly_eval_matrix` take and return flat rows.  `Matrix` is the validated
value that callers hand in and read out: rectangular rows of rationals.

Polynomials are dense coefficient lists, index = degree: rationals for the
`poly_*` helpers over Q, ints for `poly_factor_zz` over Z.
"""

from __future__ import annotations

import itertools
import random
from bisect import insort
from fractions import Fraction
from functools import reduce
from math import gcd, isqrt, lcm

QZERO = 0
QONE = 1


class CheckFailed(AssertionError):
    """A self-certification failed: the result it guards is wrong.

    Raised explicitly, so `python -O` cannot strip the check.  `check`
    names the property that failed and `witness` holds the object that
    shows it."""

    def __init__(self, check: str, witness=None):
        self.check = check
        self.witness = witness
        super().__init__(check)


def rat(x):
    """Coerce ints, strings like '3/4', and Fractions to a rational under
    the number rule."""
    if isinstance(x, Fraction):
        num, den = x.as_integer_ratio()  # one call, where two properties cost two
        return num if den == 1 else x
    if isinstance(x, int):
        return int(x)
    if isinstance(x, str):
        return rat(Fraction(x))
    raise TypeError(f"cannot interpret {x!r} as a rational")


def div(a, b):
    """a / b under the number rule, for rationals a and b != 0: the one
    division of the package."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    q = a / b
    return q.numerator if q.denominator == 1 else q


def format_rational(x) -> str:
    """Serialize as 'p/q', omitting '/q' when q == 1."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


class Matrix:
    """Rectangular rows of rationals, validated and brought under the number
    rule by `rat` on construction, and immutable by convention: the value
    read in from callers and handed back out to them."""

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
        """Wrap rectangular rows that already hold rationals, without
        coercing or validating them again."""
        m = object.__new__(cls)
        m.entries = entries
        m.rows = len(entries)
        m.cols = len(entries[0]) if entries else 0
        return m

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

    def flatten(self) -> list:
        return [v for row in self.entries for v in row]


def sparse(vec) -> dict:
    """The nonzero entries {column: value} of a dense vector."""
    return {j: v for j, v in enumerate(vec) if v}


def dense(row: dict, width: int) -> list:
    """The dense vector of length width with the entries of a sparse row."""
    return [row.get(j, QZERO) for j in range(width)]


def axpy(target: dict, coeff, row: dict) -> None:
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


def combine(coeffs: dict, rows) -> dict:
    """sum_k coeffs[k] rows[k] on sparse rows, coeffs given as {k: c} and
    rows as a list or a dict; zero coefficients, and keys that a dict of
    rows lacks, contribute nothing."""
    row_of = rows.get if isinstance(rows, dict) else rows.__getitem__
    out: dict = {}
    for k, c in coeffs.items():
        if c and (row := row_of(k)):
            axpy(out, c, row)
    return out


class Echelon:
    """Reduced echelon basis of sparse rows {column: rational}, grown one row
    at a time; `add` scales a new row by its pivot through `div`.

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
            new = {k: div(v, pv) for k, v in new.items()}
        for other in self._rows.values():
            c = other.get(p)
            if c:
                axpy(other, -c, new)
        self._rows[p] = new
        insort(self.pivots, p)
        return True


def kernel(rows, width: int) -> list[dict]:
    """Basis of {x : row . x = 0 for every row}, for sparse equation rows
    with columns in range(width): one sparse vector per free column f of the
    reduced echelon form, with 1 at f and minus column f of the RREF at the
    pivots.  A row's pivot is its smallest column, so the vector of f is
    supported on f and the pivots before it, and it is the only element of
    the null space with that support and 1 at f."""
    ech = Echelon(rows)
    pivots = set(ech.pivots)
    basis = {f: {f: QONE} for f in range(width) if f not in pivots}
    for p, row in zip(ech.pivots, ech.rows()):
        for f, v in row.items():
            if f != p:  # the other columns of a reduced row are free
                basis[f][p] = -v
    return list(basis.values())


# ---------------------------------------------------------------------------
# square matrices as flat sparse rows {i * n + j: rational}
# ---------------------------------------------------------------------------


def sparse_matrix(row: dict, n: int) -> tuple:
    """The sparse matrix of a flat sparse row {i * n + j: v}: a common
    denominator d and the integer row dicts {i: {j: d * v}}, so that the
    kernel multiplies Python ints and divides once per entry."""
    den = 1
    for v in row.values():
        den = lcm(den, v.denominator)
    rows: dict = {}
    for k, v in row.items():
        i, j = divmod(k, n)
        rows.setdefault(i, {})[j] = v.numerator * (den // v.denominator)
    return den, rows


def _product_into(out: dict, a: dict, b: dict, n: int, sign: int) -> None:
    """out += sign * a b on integer row dicts, with out a flat sparse row
    that may hold zeros."""
    get = out.get
    for i, arow in a.items():
        base = i * n
        for k, x in arow.items():
            brow = b.get(k)
            if brow:
                x *= sign
                for j, y in brow.items():
                    out[base + j] = get(base + j, 0) + x * y


def _over(out: dict, den: int) -> dict:
    """The flat sparse row out / den, without its zeros."""
    if den == 1:
        return {k: v for k, v in out.items() if v}
    return {k: div(v, den) for k, v in out.items() if v}


def sparse_product(a: tuple, b: tuple, n: int) -> dict:
    """The product a b of sparse n x n matrices, as a flat sparse row."""
    out: dict = {}
    _product_into(out, a[1], b[1], n, 1)
    return _over(out, a[0] * b[0])


def sparse_bracket(a: tuple, b: tuple, n: int) -> dict:
    """[a, b] = a b - b a of sparse n x n matrices, as a flat sparse row."""
    out: dict = {}
    _product_into(out, a[1], b[1], n, 1)
    _product_into(out, b[1], a[1], n, -1)
    return _over(out, a[0] * b[0])


def _scalar(c, n: int) -> dict:
    """c times the n x n identity, as a flat sparse row."""
    return {i * n + i: c for i in range(n)} if c else {}


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
        c = div(rem[-1], lead)
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
        a = [div(v, lead) for v in a]
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
        a, sa, ta = ([div(v, lead) for v in r] for r in (a, sa, ta))
    return a, sa, ta


def poly_derivative(p):
    return poly_trim([i * v for i, v in enumerate(p)][1:])


def poly_squarefree_part(p):
    """p / gcd(p, p'), monic: the radical of p."""
    g = poly_gcd(p, poly_derivative(p))
    # g is the gcd by exact Euclidean division, so it divides p: no remainder
    q = poly_divmod(p, g)[0]
    if q:
        q = [div(v, q[-1]) for v in q]
    return q


def poly_eval_matrix(p, m: dict, n: int) -> dict:
    """Horner evaluation of p at the n x n matrix m, as flat sparse rows."""
    a = sparse_matrix(m, n)
    acc: dict = {}
    for c in reversed(p):
        acc = sparse_product(sparse_matrix(acc, n), a, n) if acc else {}
        if c:
            axpy(acc, c, _scalar(QONE, n))
    return acc


# ---------------------------------------------------------------------------
# factoring over the integers: int coefficient lists, index = degree
# ---------------------------------------------------------------------------


def poly_factor_zz(f):
    """(content, [(factor, multiplicity)]) with f = content * prod factor^mult,
    the factors irreducible and primitive with positive leading coefficients,
    in the order of sympy's `dup_factor_list` (length, multiplicity, then
    coefficients from the top degree down).  Yun's squarefree decomposition,
    then Zassenhaus on each part (von zur Gathen & Gerhard, Modern Computer
    Algebra, Alg. 15.19) with a fixed-seed splitting: the factorization is
    unique, so no result depends on the seed.  CheckFailed if the product
    differs from f."""
    f = poly_trim(list(f))
    if not f:
        return 0, []
    cont = gcd(*f) if f[-1] > 0 else -gcd(*f)
    j = next(i for i, c in enumerate(f) if c)  # x^j divides f
    factors = [([0, 1], j)] if j else []
    for a, m in _yun([c // cont for c in f[j:]]):
        factors += [(h, m) for h in _zz_irreducibles(a)]
    factors.sort(key=lambda fm: (len(fm[0]), fm[1], fm[0][::-1]))
    if reduce(_mul, (h for h, m in factors for _ in range(m)), [cont]) != f:
        raise CheckFailed("factorization does not multiply back", f)
    return cont, factors


def _axpy(p, c, q, m=0):
    """p + c q, reduced modulo m unless m is 0."""
    out = list(p) + [0] * (len(q) - len(p))
    for i, b in enumerate(q):
        out[i] += c * b
    return poly_trim([x % m for x in out] if m else out)


def _mul(p, q, m=0):
    """p q, reduced modulo m unless m is 0."""
    out = [0] * (len(p) + len(q) - 1) if p and q else []
    for i, a in enumerate(p):
        for k, b in enumerate(q):
            out[i + k] += a * b
    return poly_trim([c % m for c in out] if m else out)


def _divmod(p, q, m=0):
    """Quotient and remainder of p by q modulo m, lc(q) a unit there; over Z
    (m = 0) the remainder is zero exactly when q divides p."""
    p, quo = list(p), [0] * max(len(p) - len(q) + 1, 0)
    for k in reversed(range(len(quo))):
        c, r = (p[-1] * pow(q[-1], -1, m) % m, 0) if m else divmod(p[-1], q[-1])
        if r:
            return quo, p
        quo[k] = c
        for i, x in enumerate(q):
            p[k + i] -= c * x
        p.pop()
    return quo, poly_trim([x % m for x in p] if m else p)


def _primitive(p):
    """p over its content, with a positive leading coefficient."""
    c = (gcd(*p) if p[-1] > 0 else -gcd(*p)) if p else 1
    return [x // c for x in p]


def _zz_gcd(a, b):
    """The primitive gcd with a positive leading coefficient, by pseudo-remainders."""
    while b:
        while len(a) >= len(b):
            a = _axpy([x * b[-1] for x in a], -a[-1], [0] * (len(a) - len(b)) + b)
        a, b = b, _primitive(a)
    return _primitive(a)


def _yun(f):
    """[(a_i, i)] with f = prod a_i^i, the a_i squarefree, coprime and
    nonconstant, for f primitive with a positive leading coefficient."""
    if len(f) <= 2 or len(f) == 3 and f[1] * f[1] != 4 * f[0] * f[2]:
        return [(f, 1)] if len(f) > 1 else []
    out, i, df = [], 1, poly_derivative(f)
    a = _zz_gcd(f, df)
    b, c = _divmod(f, a)[0], _divmod(df, a)[0]
    while len(b) > 1:
        d = _axpy(c, -1, poly_derivative(b))
        a = _zz_gcd(b, d)
        if len(a) > 1:
            out.append((a, i))
        b, c, i = _divmod(b, a)[0], _divmod(d, a)[0], i + 1
    return out


def _zz_irreducibles(f):
    """The irreducible factors of f, squarefree and primitive with a positive
    leading coefficient."""
    if len(f) == 3:  # irreducible iff the discriminant is not a square
        c, b, a = f
        s = isqrt(b * b - 4 * a * c) if b * b >= 4 * a * c else -1
        if s * s == b * b - 4 * a * c:
            return [_primitive([b - s, 2 * a]), _primitive([b + s, 2 * a])]
    if len(f) <= 3:
        return [f]
    p = 3  # the first odd prime, proven by trial division, that keeps f squarefree
    while not (f[-1] % p and all(p % q for q in range(3, isqrt(p) + 1, 2))
               and len(_gcd_p(f, poly_derivative(f), p)) == 1):
        p += 2
    us = _factor_mod_p(_axpy([], pow(f[-1], -1, p), f, p), p, random.Random(0))
    lifted, bound = [], 2 * _lift_bound(f)
    for h in us:  # linear Hensel lifting of h, monic, dividing f modulo q = p^k
        # 1/(f/h) modulo (h, p), h irreducible of degree d: (f/h)^(p^d - 2)
        s = _powmod(_divmod(f, h, p)[0], p ** (len(h) - 1) - 2, h, p)
        q = p
        while q <= bound:
            e = [c // q for c in _axpy(f, -1, _mul(_divmod(f, h, q)[0], h))]
            h, q = _axpy(h, q, _divmod(_mul(s, e), h, p)[1]), q * p
        lifted.append(h)
    out, size = [], 1
    while 2 * size <= len(lifted):  # recombination, smallest subsets first
        for subset in itertools.combinations(range(len(lifted)), size):
            g = reduce(lambda g, i: _mul(g, lifted[i], q), subset, [f[-1]])
            g = _primitive([c - q if 2 * c > q else c for c in g])
            h, r = _divmod(f, g)
            if not r:
                out.append(g)
                f, lifted = h, [u for i, u in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    return out + [f]


def _lift_bound(f):
    """Mignotte's bound 2^n |f|_2 on the coefficients of lc(f)/lc(g) g for
    every g dividing f in Z[x]: the Mahler measure M(g) is at most
    |lc g / lc f| M(f) <= |lc g / lc f| |f|_2."""
    return 2 ** (len(f) - 1) * (isqrt(sum(c * c for c in f)) + 1)


def _gcd_p(a, b, p):
    """The monic gcd of a and b modulo the prime p."""
    a, b = _axpy([], 1, a, p), _axpy([], 1, b, p)
    while b:
        a, b = b, _divmod(a, b, p)[1]
    return _axpy([], pow(a[-1], -1, p), a, p)


def _powmod(a, e, f, p):
    """a^e modulo f and p."""
    out = [1]
    while e:
        if e & 1:
            out = _divmod(_mul(out, a, p), f, p)[1]
        a, e = _divmod(_mul(a, a, p), f, p)[1], e >> 1
    return out


def _factor_mod_p(f, p, rng):
    """The monic irreducible factors of f, monic and squarefree modulo the odd
    prime p: distinct-degree, then equal-degree splitting (Cantor-Zassenhaus)."""
    out, h, d = [], [0, 1], 0
    while 2 * (d + 1) <= len(f) - 1:
        d += 1
        h = _powmod(h, p, f, p)  # x^(p^d) mod f
        g = _gcd_p(f, _axpy(h, -1, [0, 1], p), p)
        parts = [g] if len(g) > 1 else []
        while parts:
            a = parts.pop()
            if len(a) - 1 == d:
                out.append(a)
                continue
            r = poly_trim([rng.randrange(p) for _ in range(len(a) - 1)])
            b = _gcd_p(a, _axpy(_powmod(r, (p ** d - 1) // 2, a, p), -1, [1], p), p)
            parts += [b, _divmod(a, b, p)[0]] if 1 < len(b) < len(a) else [a]
        f = _divmod(f, g, p)[0]
    return out + [f] if len(f) > 1 else out


# ---------------------------------------------------------------------------
# minimal polynomial, Jordan-Chevalley decomposition and nilpotence
# ---------------------------------------------------------------------------


def minpoly(m: dict, n: int) -> list:
    """Monic minimal polynomial of the n x n matrix m, found by the first
    linear dependency among I, m, m^2, ...

    The flattened power m^k is reduced with a tag 1 in column n^2 + k, so a
    residual with no entry below n^2 is the relation sum_j c_j m^j = 0,
    with c_k = 1, read off the tag columns.  The loop ends by k = n: I, m,
    ..., m^n are dependent by Cayley-Hamilton."""
    nn = n * n
    a = sparse_matrix(m, n)
    powers = Echelon()
    power = _scalar(QONE, n)
    for k in itertools.count():
        row = dict(power)
        row[nn + k] = QONE
        resid = powers.reduce(row)
        if min(resid) >= nn:
            return [resid.get(nn + j, QZERO) for j in range(k + 1)]
        powers.add(resid)
        power = sparse_product(sparse_matrix(power, n), a, n)


def jordan_chevalley(m: dict, n: int) -> tuple[dict, dict]:
    """Split the n x n matrix m = ss + nil, as flat sparse rows, with
    [ss, nil] = 0, nil nilpotent and the minimal polynomial of ss
    squarefree.

    Both parts are polynomials in m, so everything happens in
    Q[t]/(mu), mu the minimal polynomial of m: no eigenvalues are ever
    extracted.  With q the squarefree part of mu, m is already semisimple
    when q = mu, and ss = lambda I when q = t - lambda; otherwise ss = s(m)
    for the root s of q lifted from t by Newton iteration modulo mu.  The
    iteration stops only once q(s) = 0 modulo mu, so q(ss) = 0 exactly, and
    q is squarefree.
    """
    mu = minpoly(m, n)
    q = poly_squarefree_part(mu)
    if len(q) == len(mu):
        return m, {}
    if len(q) == 2:
        ss = _scalar(-q[0], n)
    else:
        dq = poly_derivative(q)
        # u0: inverse of q'(t) modulo nilpotents (gcd(q, q') = 1 gives the seed)
        _, _, u = poly_xgcd(q, dq)
        s = [QZERO, QONE]  # the polynomial t
        for _ in range(n + 2):
            qs = _compose_mod(q, s, mu)
            if not qs:
                break
            # refine u toward the inverse of q'(s) mod mu
            dqs = _compose_mod(dq, s, mu)
            u = poly_mod(poly_mul(u, poly_sub([2], poly_mul(dqs, u))), mu)
            s = poly_mod(poly_sub(s, poly_mul(qs, u)), mu)
        else:
            raise CheckFailed("Newton lifting did not stabilize", m)
        ss = poly_eval_matrix(s, m, n)
    nil = dict(m)
    axpy(nil, -QONE, ss)
    return ss, nil


def _compose_mod(p, s, mod):
    """p(s(t)) reduced modulo mod, by Horner on polynomials."""
    acc: list = []
    for c in reversed(p):
        acc = poly_mod(poly_mul(acc, s), mod)
        if c:
            acc = poly_add(acc, [c])
    return acc


def is_nilpotent(m: dict, n: int) -> bool:
    """Whether the n x n matrix m has m^n = 0, by squaring it ceil(log2 n)
    times: m^(2^k) = 0 with 2^k >= n exactly when m is nilpotent."""
    for _ in range(max(n - 1, 0).bit_length()):
        a = sparse_matrix(m, n)
        m = sparse_product(a, a, n)
    return not m
