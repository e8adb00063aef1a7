"""`oracle` workload: finite-oracle queries on newly built matrix Lie algebras.

The input pool is a fixed list of (family, size, query) slots; the seed
fixes the details of each slot: the basis permutation that conjugates a
block parabolic or a direct sum, the order of the summands, the random
sparse generators of a `lie_close` algebra and the Las Vegas seed handed to
the program.  Fixing the slots keeps the cost mix the same from seed to
seed, so the latency quantiles move with the program and not with the draw.
Each operation builds its `FdLieAlgebra` and asks it one question.
"""

from __future__ import annotations

import random
from fractions import Fraction

from flagforge import finoracle
from flagforge.exactnum import Matrix

import reference as ref

ALL = ("radical", "nilradical", "levi", "reductive", "taut", "parabolic")
LIGHT = ("radical", "nilradical", "levi")
HEAVY = ("reductive", "taut")

# (family, shape, queries, copies).  Shapes: block sizes of a parabolic,
# (kind, size) summands of a direct sum, or the matrix size of a random
# algebra.  Each copy is a new draw.  Most operations are small, so that
# every operation runs in several passes of a run; the larger ones keep
# each query and n = 3..5 in the stream.  The counts place the median inside
# one block of like-sized operations (radical and Levi of Borels, radical of
# the (1, 2) parabolic), and the ten largest operations are all conjugated
# parabolics, whose cost does not depend on the draw.  Random algebras get
# only the light queries: their cost varies with the draw.
SLOTS = [
    ("sum", (("gl", 1), ("sl", 2)), ALL[:5], 4),
    ("sum", (("gl", 1), ("sl", 2)), LIGHT, 2),
    ("random", 3, LIGHT, 4),
    ("parabolic", (1, 1, 1), ("radical", "levi"), 10),
    ("parabolic", (1, 2), ("radical",), 6),
    ("parabolic", (1, 1, 1), ("nilradical",), 4),
    ("parabolic", (1, 2), ("nilradical", "levi"), 4),
    ("parabolic", (1, 1, 1), HEAVY + ("parabolic",), 2),
    ("parabolic", (1, 2), HEAVY, 2),
    ("sum", (("gl", 2), ("gl", 2)), LIGHT, 2),
    ("parabolic", (1, 1, 1, 1), ("radical", "nilradical"), 2),
    ("parabolic", (1, 1, 2), ("radical",), 2),
    ("parabolic", (2, 2), ("radical",), 2),
    ("random", 4, LIGHT, 2),
    ("parabolic", (1, 1, 1, 1, 1), ("radical",), 2),
]


class OracleOp:
    probe = False  # a failure here is a fault, never an expected one
    queries, verdicts = 1, 0

    def __init__(self, family, shape, query, mats, n, seed, forms, pattern, gens_plain):
        self.family, self.shape, self.query = family, shape, query
        self.label = f"{family}{list(shape) if family != 'random' else shape}:{query}"
        self.mats, self.n, self.seed = mats, n, seed
        self.forms, self.pattern = forms, pattern
        self._gens_plain = gens_plain
        self._algebra_rows = None
        self._passed = None

    def run(self):
        if self.family == "random":
            g = finoracle.lie_close(self.n, self.mats)
        else:
            g = finoracle.FdLieAlgebra(self.n, self.mats)
        q = self.query
        if q == "radical":
            return finoracle.solvable_radical(g)
        if q == "nilradical":
            return finoracle.linear_nilradical(g, self.seed)
        if q == "levi":
            return finoracle.levi_component(g)
        if q == "reductive":
            return finoracle.locally_reductive_part(g, self.seed)
        if q == "taut":
            return finoracle.invariant_taut_couple(g, self.seed)
        return finoracle.fd_parabolic_tests(g, self.seed)

    def answer(self, out):
        q = self.query
        if q in ("radical", "nilradical"):
            return {"rows": out.rows}
        if q == "levi":
            return {"rows": out.span.rows}
        if q == "reductive":
            return {
                "nil_rows": out.nilradical.rows,
                "levi_rows": out.levi.span.rows,
                "torus_rows": out.torus.span.rows,
                "reductive_dim": out.reductive_part.dim,
            }
        if q == "taut":
            return {
                "chain": out.chain,
                "block_dims": out.block_dims,
                "stabilizer_dim": out.stabilizer.dim,
                "nilradical_dim": out.nilradical_oracle.dim,
            }
        return {"is_parabolic": out.is_parabolic}

    def check(self, out):
        ans = self.answer(out)
        if ans == self._passed:
            return []  # same input, same answer as a run already checked
        if self._algebra_rows is None:
            self._algebra_rows = ref.lie_closure(self.n, self._gens_plain)
        problems = ref.check_oracle_answer(
            self.query, self.n, self._algebra_rows, ans, self.forms, self.pattern
        )
        if not problems:
            self._passed = ans
        return [f"{self.label}: {p}" for p in problems]


def _random_generators(n, rng):
    """A rational diagonal matrix and two sparse strictly triangular ones.

    Each generator spans an algebraic Lie algebra, so the algebra they
    generate is algebraic, hence splittable: `locally_reductive_part`
    accepts it on every seed."""
    diag = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        diag[i][i] = Fraction(rng.randrange(-2, 3))
    gens = [diag]
    for _ in range(2):
        mat = [[Fraction(0)] * n for _ in range(n)]
        upper = rng.random() < 0.5
        for _ in range(rng.randrange(1, 3)):
            i, j = sorted(rng.sample(range(n), 2))
            if not upper:
                i, j = j, i
            mat[i][j] = Fraction(rng.choice((-1, 1, 2)))
        gens.append(mat)
    return gens


def _slot_ops(family, shape, queries, rng):
    if family == "random":
        n = shape
        plain = _random_generators(n, rng)
        forms = pattern = None
    else:
        if family == "parabolic":
            n = sum(shape)
            base = ref.parabolic_basis(shape)
            forms = ref.parabolic_forms(shape)
        else:
            summands = list(shape)
            rng.shuffle(summands)
            n = sum(s for _, s in summands)
            base = ref.direct_sum_basis(summands)
            forms = ref.direct_sum_forms(summands)
        perm = list(range(n))
        rng.shuffle(perm)
        plain = [ref.permute(m, perm) for m in base]
        pattern = (perm, ref.block_of(shape)) if family == "parabolic" else None
    ops = []
    for query in queries:
        mats = [Matrix(m) for m in plain]
        ops.append(OracleOp(family, shape, query, mats, n, rng.randrange(1 << 16),
                            forms, pattern, plain))
    return ops


class Workload:
    def __init__(self, seed):
        rng = random.Random(f"oracle:{seed}")
        self.ops = []
        for family, shape, queries, copies in SLOTS:
            for _ in range(copies):
                self.ops += _slot_ops(family, shape, queries, rng)


def build(seed):
    return Workload(seed)
