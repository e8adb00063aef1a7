"""Shared builders for the test suite: models, flags, couples, random data,
the `Vector` arithmetic and references that only tests use, the standard
bases of gl_n and its subalgebras, and the JSON writers that build test
sessions (the CLI only reads these values)."""

import random
from fractions import Fraction

from _dense import Dense, solve
from flagforge.epcore import EpSeq, EpSet
from flagforge.exactnum import Echelon, axpy, dense, rat, sparse
from flagforge.finitary import FinitaryElement, TraceConditionSubalgebra
from flagforge import finoracle
from flagforge.finoracle import FdLieAlgebra
from flagforge.genflag import FINITE, BasisOrderFlag, flag_from_chain, make_taut_couple
from flagforge.serial import epset_to_json, matrix_to_json, rational_to_json, vector_to_json
from flagforge.pairedspace import (
    SIDE_V,
    SIDE_W,
    ModelMismatch,
    NoFormOnModel,
    PairedSpaceModel,
    SideMismatch,
    Subspace,
    Vector,
    dense_line_model,
    plain_model,
    split_form_model,
)
from flagforge.sampling import (  # noqa: F401  (re-exported for tests)
    random_element,
    sample_nilradical,
    sample_pminus,
    sample_pplus,
)

F = Fraction
EVENS = EpSet.from_residues(2, (0,))
ODDS = EpSet.from_residues(2, (1,))


def is_canonical(v) -> bool:
    """v is a rational in the package's canonical form: an int when it is
    integral, otherwise a Fraction; never a float or a bool."""
    return type(v) is int or type(v) is Fraction and v.denominator > 1


def is_exact(v) -> bool:
    """v is an int or a Fraction, never a float or a bool: mixed arithmetic
    may leave an integral Fraction, which is exact but not canonical."""
    return type(v) in (int, Fraction)


def row_space_basis(rows, cols):
    """RREF basis of the span of the given rational rows of length cols."""
    return [dense(r, cols) for r in Echelon(sparse(map(rat, row)) for row in rows).rows()]


def embed_block(mat, n, offset):
    """The n x n matrix with mat as its diagonal block at (offset, offset)."""
    out = [[F(0)] * n for _ in range(n)]
    for i, row in enumerate(mat.entries, offset):
        out[i][offset:offset + len(row)] = row
    return Dense(out)


def direct_sum_basis(blocks):
    """Basis of the direct sum of matrix algebras given as (basis, size)."""
    n = sum(size for _, size in blocks)
    out = []
    offset = 0
    for basis, size in blocks:
        out += [embed_block(b, n, offset) for b in basis]
        offset += size
    return out


def rank_one(v, w):
    """The rank-one element v (x) w."""
    return FinitaryElement(v.model, [(v, w)])


def element_terms(x):
    """The terms of x as (V vector, V* vector) pairs, read off its rows."""
    return tuple(
        (Vector.from_sparse(x.model, SIDE_V, v), Vector.from_sparse(x.model, SIDE_W, w))
        for v, w in x._rows
    )


def operator(terms):
    """Entries of sum v (x) w over (V vector, V* vector) pairs, keyed by
    (left key, right key) of their sparse rows."""
    out = {}
    for v, w in terms:
        for a, x in v.to_sparse().items():
            for b, y in w.to_sparse().items():
                out[(a, b)] = out.get((a, b), F(0)) + x * y
    return {k: v for k, v in out.items() if v}


def has_independent_rows(x):
    """Whether the left factors of x have pairwise distinct smallest columns,
    so they are independent, and no row is zero or holds a zero entry."""
    pivots = {min(v) for v, _ in x._rows if v}
    return len(pivots) == len(x._rows) and all(
        w and all(v.values()) and all(w.values()) for v, w in x._rows
    )


def rref_element_rows(rows):
    """The canonical term rows that `FinitaryElement` kept before its
    semi-echelon pass: the reduced echelon basis b_p of the left factors
    v_t, each with the payload sum_t v_t[p] w_t, zero payloads dropped."""
    echelon = Echelon(v for v, _ in rows)
    out = []
    for p, b in zip(echelon.pivots, echelon.rows()):
        payload = {}
        for v, w in rows:
            c = v.get(p)
            if c:
                axpy(payload, c, w)
        if payload:
            out.append((b, payload))
    return out


# ---------------------------------------------------------------------------
# the Vector side of the boundary: conversions between `Vector`s and the
# sparse (tag, idx) rows of the package, and the vector arithmetic,
# membership and form map that only the tests use
# ---------------------------------------------------------------------------


def rows(vecs):
    """The sparse (tag, idx) rows of the vectors."""
    return [v.to_sparse() for v in vecs]


def vectors(sub):
    """The corrections of the subspace as `Vector`s."""
    return tuple(Vector.from_sparse(sub.model, sub.side, c) for c in sub.corrections)


def span(model, side, aligned=None, gens=()):
    """`Subspace.span` of `Vector` generators."""
    return Subspace.span(model, side, aligned, rows(gens))


def basis_vector(model, side, i):
    """The basis vector e_i of V, or f_i of V*."""
    return Vector(model, side, {i: 1})


def aug_vector(model, side, k):
    """The k-th augmentation generator of the side."""
    return Vector.from_sparse(model, side, {(0, k): F(1)})


def _check_vector(x, u, side, msg):
    if u.side != side:
        raise SideMismatch(msg)
    if u.model is not x.model and u.model != x.model:
        raise ModelMismatch("vector from a different model")


def act_on_v(x, u):
    """x(u) = sum_t <u, w_t> v_t on a V-side `Vector`, through `apply_row`."""
    _check_vector(x, u, SIDE_V, "act_on_v wants a V-side vector")
    return Vector.from_sparse(x.model, SIDE_V, x.apply_row(u.to_sparse(), SIDE_V))


def act_on_vstar(x, y):
    """x . y = -sum_t <v_t, y> w_t on a V*-side `Vector`, through `apply_row`."""
    _check_vector(x, y, SIDE_W, "act_on_vstar wants a V*-side vector")
    return Vector.from_sparse(x.model, SIDE_W, x.apply_row(y.to_sparse(), SIDE_W))


def zero_vector(model, side):
    return Vector(model, side)


def is_zero_vector(v):
    return not v.basis and not any(v.augs)


def support_bound(v):
    """One past the largest basis index of v, 0 when it has none."""
    return 1 + max(v.basis) if v.basis else 0


def add_vectors(u, v):
    if u.side != v.side:
        raise SideMismatch("vectors live on different sides")
    if u.model is not v.model and u.model != v.model:
        raise ModelMismatch("vectors belong to different models")
    basis = dict(u.basis)
    for i, c in v.basis.items():
        basis[i] = basis.get(i, F(0)) + c
    return Vector(u.model, u.side, basis, tuple(a + b for a, b in zip(u.augs, v.augs)))


def scale_vector(v, c):
    c = rat(c)
    return Vector(
        v.model, v.side, {i: c * x for i, x in v.basis.items()}, tuple(c * x for x in v.augs)
    )


def residue(sub, v):
    """The sparse residue of the vector v modulo the subspace."""
    if v.side != sub.side:
        raise SideMismatch("vector and subspace sides differ")
    if v.model is not sub.model and v.model != sub.model:
        raise ModelMismatch("vector and subspace models differ")
    return sub._reduce_row(v.to_sparse())


def member(sub, v):
    return not residue(sub, v)


def random_vector_in(sub, rng, bound=10):
    """Random `Vector` of the subspace, by `Vector` arithmetic and with the
    draws of `sampling.random_row_in`: the reference for it."""
    v = zero_vector(sub.model, sub.side)
    for i in sub.aligned.members_below(bound):
        if rng.random() < 0.35:
            unit = basis_vector(sub.model, sub.side, i)
            v = add_vectors(v, scale_vector(unit, rng.randrange(-2, 3) or 1))
    for c in vectors(sub):
        if rng.random() < 0.5:
            v = add_vectors(v, scale_vector(c, rng.randrange(-2, 3) or 1))
    if is_zero_vector(v) and not sub.is_zero():
        i = sub.aligned.min_member()
        if i is not None:
            v = basis_vector(sub.model, sub.side, i)
        elif sub.corrections:
            v = vectors(sub)[0]
    return v


def chain_component(pred, succ, v):
    """The component of the vector v in the pivot-rule complement of pred
    inside succ: its residue modulo pred minus its residue modulo succ."""
    return add_vectors(
        Vector.from_sparse(v.model, v.side, residue(pred, v)),
        scale_vector(Vector.from_sparse(v.model, v.side, residue(succ, v)), -1),
    )


def block_terms(x, t, gamma):
    """The terms (v-bar, w-bar) of the image of x in the gamma-th diagonal
    block of the couple t: the chain components of each term of x, the
    reference for the block trace."""
    fi, gj = t.c_pairs[gamma]
    return [
        (chain_component(*t.f_pair(fi), v), chain_component(*t.g_pair(gj), w))
        for v, w in element_terms(x)
    ]


def form_to_vstar(v):
    """phi(v): the functional <., v> of the declared form, as a V* vector:
    the reference for the row map of `pairedspace.form_map_subspace`."""
    model = v.model
    if model.form_kind == "none":
        raise NoFormOnModel("model carries no form")
    if v.side != SIDE_V:
        raise SideMismatch("form_to_vstar wants a V-side vector")
    return Vector(
        model, SIDE_W, {model.iota_of(j): c * model.form_sign(j) for j, c in v.basis.items()}
    )


def pair(v, g):
    """Exact pairing <v, g> of `Vector`s, v on the V side and g on the V*
    side: the reference for `pairedspace.pair_rows`."""
    if v.side != SIDE_V or g.side != SIDE_W:
        raise SideMismatch("pair() wants (V, V*) arguments")
    if v.model is not g.model and v.model != g.model:
        raise ModelMismatch("vectors belong to different models")
    model = v.model
    total = F(0)
    for i, a in v.basis.items():
        b = g.basis.get(i)
        if b:
            total += a * b
        for l, d in enumerate(g.augs):
            if d:
                total += a * d * model.w_augs[l].row.value(i)
    for k, u in enumerate(v.augs):
        if u:
            for j, c in g.basis.items():
                if c:
                    total += u * c * model.v_augs[k].row.value(j)
            for l, d in enumerate(g.augs):
                if d:
                    total += u * d * model.cross_value(k, l)
    return total


def form_to_v(g):
    """Inverse of `form_to_vstar`."""
    model = g.model
    if model.form_kind == "none":
        raise NoFormOnModel("model carries no form")
    if g.side != SIDE_W:
        raise SideMismatch("form_to_v wants a V*-side vector")
    basis = {}
    for j, c in g.basis.items():
        i = model.iota_of(j)
        basis[i] = c * model.form_sign(i)
    return Vector(model, SIDE_V, basis)


def flip(x):
    """The tensor swap v (x) w -> form_to_v(w) (x) form_to_vstar(v): the
    reference for the entry-table test of `finitary.in_algebra_of_form`."""
    return FinitaryElement(
        x.model, [(form_to_v(w), form_to_vstar(v)) for v, w in element_terms(x)]
    )


def matrix_trace(m):
    """The trace of a square Matrix."""
    return sum((m.entries[i][i] for i in range(m.rows)), F(0))


def evens_couple(model=None):
    m = model or plain_model()
    f = flag_from_chain(m, SIDE_V, [Subspace.span(m, SIDE_V, EVENS)])
    g = flag_from_chain(m, SIDE_W, [Subspace.span(m, SIDE_W, ODDS)])
    return make_taut_couple(f, g)


def trivial_couple(model=None):
    m = model or plain_model()
    return make_taut_couple(
        flag_from_chain(m, SIDE_V, []), flag_from_chain(m, SIDE_W, [])
    )


def augmented_couple():
    """The dense-subspace flag 0 < V < V-extended with the trivial partner."""
    m = dense_line_model()
    v_std = Subspace.span(m, SIDE_V, EpSet.naturals())
    f = flag_from_chain(m, SIDE_V, [v_std])
    g = flag_from_chain(m, SIDE_W, [])
    return make_taut_couple(f, g)


def random_ep_model(rng: random.Random):
    """A plain model or a small augmented variant, randomly."""
    from flagforge.pairedspace import Augmentation, validate_model

    roll = rng.random()
    if roll < 0.5:
        return plain_model()
    if roll < 0.8:
        return dense_line_model()
    row = EpSeq.make(
        [rng.randrange(-1, 2) for _ in range(rng.randrange(2))],
        [rng.randrange(-1, 2) for _ in range(rng.randrange(1, 3))],
    )
    if not any(row.pre) and not any(row.repeat):
        return plain_model()
    model = PairedSpaceModel(v_augs=(Augmentation(row),), cross=((),))
    return model if validate_model(model).valid else plain_model()


def random_basis_subspaces(m, rng, side=SIDE_V, max_len=3):
    """A random strictly increasing chain of aligned subspaces."""
    period = rng.choice([2, 3, 4])
    chain = []
    residues = set()
    current = None
    for r in rng.sample(range(period), k=min(max_len, period)):
        residues.add(r)
        cand = Subspace.span(m, side, EpSet.from_residues(period, residues))
        if current is None or (cand.contains(current) and cand != current):
            chain.append(cand)
            current = cand
    return chain


def random_plain_couple(rng):
    """Random taut couple in the plain model from an aligned chain and perps."""
    from flagforge.pairedspace import perp

    m = plain_model()
    chain = random_basis_subspaces(m, rng)
    f = flag_from_chain(m, SIDE_V, chain)
    g = flag_from_chain(m, SIDE_W, [perp(s) for s in f.chain])
    return make_taut_couple(f, g)


def random_chain(n, rng, min_steps=1):
    """Strictly increasing random subspace chain in Q^n as row lists."""
    steps = rng.randrange(min_steps, n)
    dims = sorted(rng.sample(range(1, n), k=min(steps, n - 1)))
    acc = []
    chain = []
    for d in dims:
        while len(row_space_basis(acc, n)) < d:
            acc.append([F(rng.randrange(-2, 3)) for _ in range(n)])
        chain.append(row_space_basis(acc, n))
    return [lvl for lvl in chain if 0 < len(lvl) < n]


def criterion_2_chains():
    """The (n, chain) pairs of acceptance criterion 2: 50 random flags in
    Q^n, the last six with n = 7 or 8 and at least two steps."""
    rng = random.Random(202)
    for trial in range(50):
        n = rng.randrange(2, 7) if trial < 44 else rng.randrange(7, 9)
        yield n, random_chain(n, rng, min_steps=2 if n >= 7 else 1)


def criterion_9_corpus():
    """The (subspaces, couples, elements) of acceptance criterion 9."""
    rng = random.Random(909)
    plain = plain_model()
    dense_line = dense_line_model()
    split = split_form_model("symmetric")
    subspaces = [
        Subspace.span(plain, SIDE_V, None, []),
        Subspace.span(plain, SIDE_V, EpSet.from_residues(2, (0,))),
        span(plain, SIDE_V, EpSet.from_residues(3, (1,)),
             [Vector(plain, SIDE_V, {0: 1, 2: -2})]),
        Subspace.span(dense_line, SIDE_V, EpSet.naturals()),
        Subspace.span(dense_line, SIDE_W, EpSet.from_residues(2, (1,))),
        Subspace.span(split, SIDE_V, EpSet.from_residues(2, (0,))),
    ]
    couples = [
        evens_couple(),
        trivial_couple(),
        augmented_couple(),
        random_plain_couple(rng),
        random_plain_couple(rng),
    ]
    elements = [
        random_element(plain, rng),
        random_element(dense_line, rng),
        sample_pplus(couples[0], rng),
        sample_nilradical(couples[2], rng),
    ]
    return subspaces, couples, elements


def gl3_plus_so2():
    """P (gl_3 + span J) P^-1 in gl_5, with J = [[0, 1], [-1, 0]] on the last
    two coordinates.  J lies in the radical and has no rational eigenvalue,
    so no complete rational flag F has J in stab(F): b = stab(F) cap p is
    solvable, and no Borel, since b + span(J) is solvable too."""
    p = Dense([[-1, 0, 0, -1, 0], [-1, -1, -1, 1, 1], [0, -1, -1, -1, -1],
               [-1, -1, -1, -1, 0], [0, -1, 1, 1, 1]])
    inverse = Dense([solve(p, e) for e in Dense.identity(5).entries]).transpose()
    basis = direct_sum_basis([(gl_basis(3), 3), ([Dense([[0, 1], [-1, 0]])], 2)])
    return FdLieAlgebra(5, [p * b * inverse for b in basis])


def _epset_json(period, residues):
    return {"threshold": 0, "period": period, "pre": [], "residues": sorted(residues)}


def _vector_json(side, basis, augs=()):
    return {"side": side, "basis": {str(i): str(c) for i, c in basis.items()},
            "augs": [str(a) for a in augs]}


def random_session(rng: random.Random) -> dict:
    """A session over a plain, a dense-line and a split-form model, in the
    shape of the benchmark's generated sessions: flags from a random aligned
    chain and its complements, couples parsed and re-made, collapsed,
    membership, a block trace, a truncation check and one fd query."""
    period = rng.choice([2, 3, 4])
    order = rng.sample(range(period), period)
    levels = rng.randrange(1, period)
    residues = [set(order[: i + 1]) for i in range(levels)]

    # block of e_i in the flag; e_i (x) f_j stabilizes it when i's block is
    # at most j's
    blk = [next((b for b, r in enumerate(residues) if i % period in r), levels)
           for i in range(8)]
    x_terms = []
    for _ in range(3):
        i, j = rng.randrange(8), rng.randrange(8)
        if blk[i] > blk[j]:
            i, j = j, i
        c = rng.choice((1, -1, 2))
        x_terms.append([_vector_json("V", {i: c}), _vector_json("V*", {j: 1})])
    # a diagonal term in block 0, so the block trace is a proper fraction
    x_terms.append([_vector_json("V", {order[0]: "1/2"}), _vector_json("V*", {order[0]: 1})])
    return {
        "models": {
            "p": {"v_augs": [], "w_augs": [], "cross": []},
            "d": {"v_augs": [{"pre": [], "repeat": ["1"]}], "w_augs": [], "cross": [[]]},
            "s": {"form_kind": "symmetric", "iota": [
                {"indices": _epset_json(2, {0}), "offset": 1},
                {"indices": _epset_json(2, {1}), "offset": -1},
            ]},
        },
        "subspaces": {
            **{f"a{i}": {"model": "p", "side": "V", "aligned": _epset_json(period, r)}
               for i, r in enumerate(residues)},
            **{f"b{i}": {"model": "p", "side": "V*",
                         "aligned": _epset_json(period, set(range(period)) - r)}
               for i, r in enumerate(residues)},
            "vstd": {"model": "d", "side": "V", "aligned": _epset_json(1, {0})},
            "ev": {"model": "s", "side": "V", "aligned": _epset_json(2, {0})},
        },
        "flags": {
            "f": {"model": "p", "side": "V", "chain": [f"a{i}" for i in range(levels)]},
            "g": {"model": "p", "side": "V*",
                  "chain": [f"b{i}" for i in reversed(range(levels))]},
            "fa": {"model": "d", "side": "V", "chain": ["vstd"]},
            "ga": {"model": "d", "side": "V*", "chain": []},
            "fs": {"model": "s", "side": "V", "chain": ["ev"]},
        },
        "couples": {"c": {"f": "f", "g": "g"}, "ca": {"f": "fa", "g": "ga"}},
        "elements": {
            "x": {"model": "p", "terms": x_terms},
            "xa": {"model": "d", "terms": [[_vector_json("V", {}, (1,)),
                                            _vector_json("V*", {rng.randrange(8): 1})]]},
        },
        "algebras": {"b2": {"n": 2, "basis": [[["1", "0"], ["0", "0"]],
                                              [["0", "1"], ["0", "0"]],
                                              [["0", "0"], ["0", "1"]]]}},
        "commands": [
            {"cmd": "classify-flag", "flag": "f",
             "expect": {"semiclosed": True, "closed": True}},
            {"cmd": "classify-flag", "flag": "fa",
             "expect": {"closed": False, "pair_closures": ["closed", "dense"]}},
            {"cmd": "classify-flag", "flag": "fs", "expect": {"self_taut": True}},
            {"cmd": "make-couple", "f": "f", "g": "g", "name": "c2",
             "expect": {"valid": True}},
            {"cmd": "fc-flag", "flag": "fa", "expect": {"chain_length": 2, "closed": True}},
            *({"cmd": "member", "kind": kind, "elem": "x", "couple": "c"}
              for kind in ("joint", "nilradical", "pminus", "pprime")),
            {"cmd": "member", "kind": "joint", "elem": "x", "couple": "c2"},
            {"cmd": "member", "kind": "pprime", "elem": "xa", "couple": "ca"},
            {"cmd": "block-trace", "elem": "x", "couple": "c", "gamma": 0},
            {"cmd": "truncate-compare", "object": "a0", "levels": "auto",
             "expect": {"ok": True}},
            {"cmd": "fd", "op": "radical", "alg": "b2", "expect": {"dim": 3}},
        ],
    }


# ---------------------------------------------------------------------------
# standard bases of gl_n and its subalgebras
# ---------------------------------------------------------------------------


def unit_matrix(n, i, j) -> Dense:
    return Dense._of([[F(int((a, b) == (i, j))) for b in range(n)] for a in range(n)])


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
    block = [b for b, size in enumerate(sizes) for _ in range(size)]
    n = len(block)
    return [unit_matrix(n, i, j) for i in range(n) for j in range(n) if block[i] <= block[j]]


def mat_span(n, mats):
    """The `MatSpan` of a list of n x n matrices (the class `finoracle`
    holds at the call)."""
    return finoracle.MatSpan(n, [sparse(m.flatten()) for m in mats])


def has_matrix(span, m) -> bool:
    """Whether the matrix m lies in the `MatSpan` span."""
    return not span.echelon.reduce(sparse(m.flatten()))


# ---------------------------------------------------------------------------
# JSON writers for test sessions
# ---------------------------------------------------------------------------


def epseq_to_json(s: EpSeq) -> dict:
    return {
        "pre": [rational_to_json(v) for v in s.pre],
        "repeat": [rational_to_json(v) for v in s.repeat],
    }


def model_to_json(m: PairedSpaceModel) -> dict:
    out = {
        "v_augs": [epseq_to_json(a.row) for a in m.v_augs],
        "w_augs": [epseq_to_json(a.row) for a in m.w_augs],
        "cross": [[rational_to_json(v) for v in row] for row in m.cross],
        "form_kind": m.form_kind,
    }
    if m.form_kind != "none":
        out["iota"] = [
            {"indices": epset_to_json(p.indices), "offset": p.offset} for p in m.iota
        ]
    return out


def basis_flag_to_json(b: BasisOrderFlag) -> dict:
    blocks = []
    for blk in b.blocks:
        if blk.kind == FINITE:
            blocks.append({"kind": FINITE, "points": [list(pt) for pt in blk.points]})
        else:
            blocks.append({"kind": blk.kind, "indices": epset_to_json(blk.indices)})
    return {"blocks": blocks}


def element_to_json(x: FinitaryElement) -> dict:
    return {
        "terms": [[vector_to_json(v), vector_to_json(w)] for v, w in element_terms(x)]
    }


def algebra_to_json(g: FdLieAlgebra) -> dict:
    return {"n": g.n, "basis": [matrix_to_json(b) for b in g.basis]}


def tc_to_json(s: TraceConditionSubalgebra) -> dict:
    return {
        "ambient": s.ambient,
        "constraints": [[rational_to_json(v) for v in row] for row in s.constraints],
    }
