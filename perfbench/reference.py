"""Reference checks written apart from the program, in plain Fraction code.

Nothing here imports flagforge.  Every check takes plain data (lists of
Fractions, dicts, bools) and returns a list of problems; an empty list means
the answer passed.  The checks use closed forms where the structure is
known (block parabolics, direct sums, aligned taut couples) and properties
the method must have everywhere else.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# dense linear algebra over Q
# ---------------------------------------------------------------------------


def echelon(rows):
    """Reduced row echelon basis of the span of the rows."""
    basis = []  # (pivot, row) with pivot entry 1, cleared from the others
    for raw in rows:
        v = list(raw)
        for p, b in basis:
            if v[p]:
                c = v[p]
                v = [x - c * y for x, y in zip(v, b)]
        p = next((j for j, x in enumerate(v) if x), None)
        if p is None:
            continue
        pv = v[p]
        v = [x / pv for x in v]
        for k, (q, b) in enumerate(basis):
            if b[p]:
                c = b[p]
                basis[k] = (q, [x - c * y for x, y in zip(b, v)])
        basis.append((p, v))
    basis.sort(key=lambda item: item[0])
    return [b for _, b in basis]


def rank(rows) -> int:
    return len(echelon(rows))


def in_span(vec, basis) -> bool:
    """Whether vec lies in the span of an echelon basis."""
    v = list(vec)
    for b in basis:
        p = next(j for j, x in enumerate(b) if x)
        if v[p]:
            c = v[p]
            v = [x - c * y for x, y in zip(v, b)]
    return not any(v)


def matmul(a, b):
    n, m, k = len(a), len(b[0]) if b else 0, len(b)
    out = [[ZERO] * m for _ in range(n)]
    for i in range(n):
        row = out[i]
        for t in range(k):
            x = a[i][t]
            if x:
                brow = b[t]
                for j in range(m):
                    if brow[j]:
                        row[j] += x * brow[j]
    return out


def bracket(a, b):
    ab, ba = matmul(a, b), matmul(b, a)
    return [[x - y for x, y in zip(r, s)] for r, s in zip(ab, ba)]


def flatten(mat):
    return [x for row in mat for x in row]


def unflatten(row, n):
    return [list(row[i * n:(i + 1) * n]) for i in range(n)]


def trace(mat):
    return sum((mat[i][i] for i in range(len(mat))), ZERO)


def is_nilpotent(mat) -> bool:
    """A^n = 0 for the n x n matrix A."""
    power = mat
    for _ in range(len(mat) - 1):
        power = matmul(power, mat)
    return not any(x for row in power for x in row)


def unit(n, i, j):
    out = [[ZERO] * n for _ in range(n)]
    out[i][j] = ONE
    return out


def permute(mat, perm):
    """P A P^-1 for the permutation matrix sending e_i to e_perm[i]."""
    n = len(mat)
    out = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[perm[i]][perm[j]] = mat[i][j]
    return out


def unpermute(mat, perm):
    inverse = [0] * len(perm)
    for i, p in enumerate(perm):
        inverse[p] = i
    return permute(mat, inverse)


def lie_closure(n, gens):
    """Echelon basis (flattened) of the Lie algebra the matrices generate."""
    basis = echelon([flatten(g) for g in gens])
    while True:
        mats = [unflatten(r, n) for r in basis]
        new = echelon(
            basis
            + [flatten(bracket(a, b)) for i, a in enumerate(mats) for b in mats[i + 1:]]
        )
        if len(new) == len(basis):
            return basis
        basis = new


def bracket_span(n, rows_a, rows_b):
    mats_a = [unflatten(r, n) for r in rows_a]
    mats_b = [unflatten(r, n) for r in rows_b]
    return echelon([flatten(bracket(a, b)) for a in mats_a for b in mats_b])


# ---------------------------------------------------------------------------
# matrix Lie algebras: closed forms and required properties
# ---------------------------------------------------------------------------


def block_of(sizes):
    out = []
    for b, s in enumerate(sizes):
        out += [b] * s
    return out


def parabolic_basis(sizes):
    """Unit matrices of the block upper-triangular parabolic."""
    n = sum(sizes)
    blk = block_of(sizes)
    return [unit(n, i, j) for i in range(n) for j in range(n) if blk[i] <= blk[j]]


def parabolic_forms(sizes):
    """Closed forms for the block parabolic with diagonal blocks `sizes`."""
    k = len(sizes)
    above = sum(sizes[i] * sizes[j] for i in range(k) for j in range(i + 1, k))
    return {
        "dim": above + sum(s * s for s in sizes),
        "radical": above + k,
        "nilradical": above,
        "levi": sum(s * s - 1 for s in sizes),
        "torus": k,
        "block_dims": list(sizes),
        "parabolic": True,
    }


def direct_sum_basis(blocks):
    """Block-diagonal gl_s / sl_s summands, given as (kind, s) pairs."""
    n = sum(s for _, s in blocks)
    out = []
    start = 0
    for kind, s in blocks:
        idx = range(start, start + s)
        for i in idx:
            for j in idx:
                if i != j:
                    out.append(unit(n, i, j))
        if kind == "gl":
            out += [unit(n, i, i) for i in idx]
        else:
            for i in range(start, start + s - 1):
                h = unit(n, i, i)
                h[i + 1][i + 1] = -ONE
                out.append(h)
        start += s
    return out


def direct_sum_forms(blocks):
    """Closed forms for a sum of gl/sl blocks (sl blocks have size >= 2)."""
    gl = sum(1 for kind, _ in blocks if kind == "gl")
    return {
        "dim": sum(s * s - (kind == "sl") for kind, s in blocks),
        "radical": gl,
        "nilradical": 0,
        "levi": sum(s * s - 1 for _, s in blocks),
        "torus": gl,
        "block_dims": sorted(s for _, s in blocks),
        "parabolic": len(blocks) == 1 and blocks[0][0] == "gl",
    }


def _dim_problem(label, got, want):
    return [] if got == want else [f"{label}: got {got}, closed form {want}"]


def check_inside(label, rows, algebra_rows):
    bad = sum(1 for r in rows if not in_span(r, algebra_rows))
    return [f"{label}: {bad} basis elements lie outside the algebra"] if bad else []


def check_ideal(n, label, rows, algebra_rows):
    """[g, I] lies in I."""
    basis = echelon(rows)
    for r in bracket_span(n, algebra_rows, basis):
        if not in_span(r, basis):
            return [f"{label}: not an ideal of the algebra"]
    return []


def check_subalgebra(n, label, rows):
    basis = echelon(rows)
    for r in bracket_span(n, basis, basis):
        if not in_span(r, basis):
            return [f"{label}: not closed under the bracket"]
    return []


def check_solvable(n, label, rows):
    level = echelon(rows)
    while level:
        nxt = bracket_span(n, level, level)
        if len(nxt) == len(level):
            return [f"{label}: derived series stalls at dimension {len(level)}"]
        level = nxt
    return []


def check_nilpotent_elements(n, label, rows):
    bad = sum(1 for r in rows if not is_nilpotent(unflatten(r, n)))
    return [f"{label}: {bad} basis elements are not nilpotent"] if bad else []


def check_trace_form_nondegenerate(n, label, rows):
    """Semisimple subalgebras of gl_n have a nondegenerate trace form."""
    mats = [unflatten(r, n) for r in rows]
    gram = [[trace(matmul(a, b)) for b in mats] for a in mats]
    if rank(gram) != len(mats):
        return [f"{label}: trace form is degenerate"]
    return []


def check_commuting(n, label, rows_a, rows_b):
    mats_b = [unflatten(r, n) for r in rows_b]
    for r in rows_a:
        a = unflatten(r, n)
        if any(x for b in mats_b for row in bracket(a, b) for x in row):
            return [f"{label}: elements fail to commute"]
    return []


def check_block_pattern(n, label, rows, perm, blk, strict=False, scalar_diag=False):
    """Undo the permutation and test the block upper-triangular support."""
    for r in rows:
        mat = unpermute(unflatten(r, n), perm)
        for i in range(n):
            for j in range(n):
                if not mat[i][j]:
                    continue
                if blk[i] > blk[j] or (strict and blk[i] == blk[j]):
                    return [f"{label}: entry ({i},{j}) outside the block pattern"]
                if scalar_diag and blk[i] == blk[j] and i != j:
                    return [f"{label}: diagonal block is not scalar"]
        if scalar_diag:
            for i in range(n - 1):
                if blk[i] == blk[i + 1] and mat[i][i] != mat[i + 1][i + 1]:
                    return [f"{label}: diagonal block is not scalar"]
    return []


def check_chain_invariant(n, chain, algebra_rows):
    """Every chain level is invariant under the algebra."""
    mats = [unflatten(r, n) for r in algebra_rows]
    for level in chain:
        basis = echelon(level)
        for a in mats:
            for w in basis:
                img = [sum((a[i][c] * w[c] for c in range(n)), ZERO) for i in range(n)]
                if not in_span(img, basis):
                    return ["taut couple: a chain level is not invariant"]
    return []


def check_oracle_answer(query, n, algebra_rows, answer, forms=None, pattern=None):
    """Check one finite-oracle answer.

    `algebra_rows` is the reference Lie closure of the inputs, `forms` the
    closed forms when the algebra is a conjugated block parabolic or direct
    sum, and `pattern` (perm, block index list) the support pattern of a
    conjugated block parabolic.
    """
    problems = []
    dim = len(algebra_rows)
    if forms is not None:
        problems += _dim_problem("algebra dimension", dim, forms["dim"])
    if query == "radical":
        rows = answer["rows"]
        problems += check_inside("radical", rows, algebra_rows)
        problems += check_ideal(n, "radical", rows, algebra_rows)
        problems += check_solvable(n, "radical", rows)
        if forms is not None:
            problems += _dim_problem("radical dimension", len(rows), forms["radical"])
        if pattern is not None:
            problems += check_block_pattern(n, "radical", rows, *pattern, scalar_diag=True)
    elif query == "nilradical":
        rows = answer["rows"]
        problems += check_inside("nilradical", rows, algebra_rows)
        problems += check_nilpotent_elements(n, "nilradical", rows)
        problems += check_ideal(n, "nilradical", rows, algebra_rows)
        if forms is not None:
            problems += _dim_problem("nilradical dimension", len(rows), forms["nilradical"])
        if pattern is not None:
            problems += check_block_pattern(n, "nilradical", rows, *pattern, strict=True)
    elif query == "levi":
        rows = answer["rows"]
        problems += check_inside("levi", rows, algebra_rows)
        problems += check_subalgebra(n, "levi", rows)
        derived = bracket_span(n, algebra_rows, algebra_rows)
        problems += check_inside("levi in [g,g]", rows, derived)
        if rows:
            problems += check_trace_form_nondegenerate(n, "levi", rows)
        if forms is not None:
            problems += _dim_problem("levi dimension", len(rows), forms["levi"])
    elif query == "reductive":
        nil, levi, torus = answer["nil_rows"], answer["levi_rows"], answer["torus_rows"]
        problems += check_nilpotent_elements(n, "gred nilradical", nil)
        problems += check_ideal(n, "gred nilradical", nil, algebra_rows)
        problems += check_subalgebra(n, "gred levi", levi)
        problems += check_commuting(n, "gred torus", torus, torus + levi)
        whole = nil + levi + torus
        problems += check_inside("gred parts", whole, algebra_rows)
        problems += _dim_problem("gred parts span g", rank(whole), dim)
        problems += _dim_problem("gred dimension count", len(whole), dim)
        problems += _dim_problem("reductive part", answer["reductive_dim"], len(levi) + len(torus))
        if forms is not None:
            problems += _dim_problem("gred nilradical", len(nil), forms["nilradical"])
            problems += _dim_problem("gred levi", len(levi), forms["levi"])
            problems += _dim_problem("gred torus", len(torus), forms["torus"])
    elif query == "taut":
        chain, dims = answer["chain"], answer["block_dims"]
        problems += check_chain_invariant(n, chain, algebra_rows)
        levels = [0] + [len(echelon(level)) for level in chain]
        problems += _dim_problem("block dims", list(dims), [b - a for a, b in zip(levels, levels[1:])])
        problems += _dim_problem("block dims sum", sum(dims), n)
        problems += _dim_problem(
            "stabilizer dimension",
            answer["stabilizer_dim"],
            answer["nilradical_dim"] + sum(d * d for d in dims),
        )
        if forms is not None:
            got = list(dims) if pattern is not None else sorted(dims)
            problems += _dim_problem("taut block dims", got, forms["block_dims"])
    elif query == "parabolic":
        if forms is None:
            raise ValueError("the parabolic query needs closed forms")
        problems += _dim_problem("is_parabolic", answer["is_parabolic"], forms["parabolic"])
    else:
        raise ValueError(f"unknown query {query!r}")
    return problems


# ---------------------------------------------------------------------------
# finite-rank operators on aligned couples
# ---------------------------------------------------------------------------
#
# An element is given by terms ((v_basis, v_aug), w_basis): dicts index ->
# Fraction, with v_aug the coefficient of the dense-line vector (0 on models
# without it).  Its matrix M[i][j] is the e_i coordinate of x(e_j), and a[j]
# the dense-line coordinate of x(e_j).  The dense-line vector pairs to 1 with
# every f_j, so x acts on it as on the sum of all e_j.


def operator(terms, size):
    """(M, a) over indices below `size`."""
    mat = [[ZERO] * size for _ in range(size)]
    aug = [ZERO] * size
    for (v, v_aug), w in terms:
        for j, wj in w.items():
            for i, vi in v.items():
                mat[i][j] += vi * wj
            aug[j] += v_aug * wj
    return mat, aug


def extended(op):
    """Matrix on e_0..e_{size-1} and the dense-line vector (last index)."""
    mat, aug = op
    size = len(mat)
    rows = [list(mat[i]) + [sum(mat[i], ZERO)] for i in range(size)]
    rows.append(list(aug) + [sum(aug, ZERO)])
    return rows


def op_bracket(x, y):
    """Reference bracket [x, y] = xy - yx of two operators."""
    ex, ey = extended(x), extended(y)
    size = len(x[0])
    full = [[p - q for p, q in zip(r, s)] for r, s in zip(matmul(ex, ey), matmul(ey, ex))]
    return [row[:size] for row in full[:size]], full[size][:size]


def couple_verdicts(op, blk, nblocks, augmented=False, form=None):
    """Membership verdicts and block traces of an operator.

    `blk[i]` is the block (pair) index of e_i in an aligned flag whose partner
    is its annihilator chain, so the joint stabilizer is block
    upper-triangular and the nilradical strictly so.  Every block is
    infinite.  On the dense-line model the flag ends with the dense pair
    (V_std, V), so the joint stabilizer also needs a = 0, and the
    collapsed couple (which drops V_std) needs a = 0 only below the last
    block.  `form` is "so" or "sp" on the split-form models.
    """
    mat, aug = op
    size = len(mat)
    upper = strict = True
    for i in range(size):
        for j in range(size):
            if mat[i][j]:
                if blk[i] > blk[j]:
                    upper = False
                if blk[i] >= blk[j]:
                    strict = False
    traces = [ZERO] * nblocks
    for i in range(size):
        traces[blk[i]] += mat[i][i]
    aug_free = not any(aug)
    joint = upper and (aug_free or not augmented)
    out = {
        "joint": joint,
        "nilradical": joint and strict,
        "pminus": joint and not any(traces),
        "pprime": upper and not any(a for j, a in enumerate(aug) if blk[j] < nblocks - 1),
        "traces": traces,
    }
    if not augmented:
        out["pprime"] = joint
    if form is not None:
        out["so_sp_minus"] = out["pminus"] and in_form_algebra(mat, form)
    return out


def iota(j):
    return j ^ 1


def form_sign(j, form):
    if form == "so":
        return ONE
    return ONE if j > iota(j) else -ONE


def in_form_algebra(mat, form):
    """B(x u, v) + B(u, x v) = 0 for the split form B(e_i, e_j) =
    sign(j) [i = iota(j)], symmetric for so and antisymmetric for sp."""
    size = len(mat)
    for a in range(size):
        for b in range(size):
            lhs = form_sign(b, form) * mat[iota(b)][a] + form_sign(iota(a), form) * mat[iota(a)][b]
            if lhs:
                return False
    return True


KNOWN_VERDICTS = {
    # elements built as sums of F''_alpha (x) G''_beta with alpha <= beta
    "pplus": {"joint": True, "pprime": True},
    # ... with alpha < beta
    "nil": {"joint": True, "nilradical": True, "pminus": True, "pprime": True},
    # p+ is closed under the bracket
    "bracket": {"joint": True, "pprime": True},
    # the nilradical is an ideal of p+
    "ideal": {"joint": True, "nilradical": True, "pminus": True, "pprime": True},
    # dense-line vector against the last block: in p' but outside p+
    "pprime_only": {"joint": False, "pprime": True},
    "free": {},
}


def check_verdicts(got, want, intent):
    """Program verdicts against the reference verdicts, the verdicts the
    construction implies, and the inclusions n <= p- <= p+ <= p'."""
    problems = []
    for kind, value in want.items():
        if kind == "traces":
            continue
        if got.get(kind) != value:
            problems.append(f"{kind}: program says {got.get(kind)}, reference {value}")
    for kind, value in KNOWN_VERDICTS[intent].items():
        if want.get(kind) != value:
            problems.append(f"{kind}: reference disagrees with the construction ({intent})")
        if got.get(kind) != value:
            problems.append(f"{kind}: program disagrees with the construction ({intent})")
    chain = ["nilradical", "pminus", "joint", "pprime"]
    for small, big in zip(chain, chain[1:]):
        if got.get(small) and not got.get(big):
            problems.append(f"inclusion {small} <= {big} fails")
    if got.get("joint") and "traces" in got and list(got["traces"]) != list(want["traces"]):
        problems.append(f"block traces: program {got['traces']}, reference {want['traces']}")
    return problems


# ---------------------------------------------------------------------------
# session reports
# ---------------------------------------------------------------------------


def check_report(report, expectations):
    """Each command result against the generator's expectation (partial
    match: every expected key must be present and equal)."""
    problems = []
    results = report.get("results", [])
    if len(results) != len(expectations):
        return [f"report has {len(results)} results, session has {len(expectations)} commands"]
    for idx, (entry, want) in enumerate(zip(results, expectations)):
        if "error" in entry:
            problems.append(f"command {idx}: {entry['error']}")
            continue
        if not _matches(want, entry.get("result")):
            problems.append(f"command {idx}: result {entry.get('result')!r} != expected {want!r}")
    return problems


def _matches(want, got):
    if isinstance(want, dict):
        return isinstance(got, dict) and all(k in got and _matches(v, got[k]) for k, v in want.items())
    return want == got
