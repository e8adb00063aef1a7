"""The dense truncation coherence: the reference for `flagforge.coherence`.

These are the comparisons as they were first written, on dense `Fraction`
lists and `Dense` products: the truncated pairing is a dense matrix, a
truncated subspace is the RREF basis of its rows, an element's truncation
is its operator matrix, and every span comparison goes through
`row_space_basis`.  `coherence` computes the same on sparse rows, and the
tests check that both give the same levels and checks.
"""

import random
from dataclasses import dataclass

from _corpus import act_on_v, act_on_vstar, aug_vector, basis_vector, row_space_basis, vectors
from _dense import Dense
from flagforge.coherence import (
    COUPLE_SAMPLES,
    ELEMENT_SAMPLES,
    CoherenceReport,
    window_levels,
)
from flagforge.epcore import stabilization_window
from flagforge.exactnum import QONE, QZERO, Echelon, dense, kernel, sparse
from flagforge.finitary import in_joint_stabilizer, in_nilradical
from flagforge.pairedspace import SIDE_V, SIDE_W, NotRepresentable, closure, perp
from flagforge.sampling import random_element, sample_nilradical, sample_pminus, sample_pplus


@dataclass
class TruncatedModel:
    """Finite slice of the model: indices below n plus explicit aug rows."""

    n: int
    v_dim: int
    w_dim: int
    pairing: Dense
    radical_v: list
    radical_w: list


def truncate_model(model, n: int) -> TruncatedModel:
    if n < 1:
        raise ValueError("truncation level must be >= 1")
    kv, lw = len(model.v_augs), len(model.w_augs)
    v_dim, w_dim = n + kv, n + lw
    rows = []
    for i in range(n):
        row = [QONE if j == i else QZERO for j in range(n)]
        row += [model.w_augs[l].row.value(i) for l in range(lw)]
        rows.append(row)
    for k in range(kv):
        row = [model.v_augs[k].row.value(j) for j in range(n)]
        row += [model.cross_value(k, l) for l in range(lw)]
        rows.append(row)
    pairing = Dense(rows)
    return TruncatedModel(
        n,
        v_dim,
        w_dim,
        pairing,
        [dense(y, v_dim) for y in kernel(map(sparse, pairing.transpose().entries), v_dim)],
        [dense(y, w_dim) for y in kernel(map(sparse, pairing.entries), w_dim)],
    )


def truncate_vector(v, n: int) -> list:
    """Coordinates [e_0..e_{n-1}, augs...] of the truncated vector."""
    return [v.basis.get(i, QZERO) for i in range(n)] + list(v.augs)


def truncate_subspace(a, n: int) -> list:
    """RREF basis rows of the truncated subspace."""
    width = n + len(a.model.augs(a.side))
    rows = [truncate_vector(c, n) for c in vectors(a)]
    for i in a.aligned.members_below(n):
        row = [QZERO] * width
        row[i] = QONE
        rows.append(row)
    return row_space_basis(rows, width)


def truncate_element(x, n: int, side: str = SIDE_V) -> Dense:
    """Operator matrix of x on the truncated space (basis then augs)."""
    model = x.model
    augs = model.augs(side)
    dim = n + len(augs)
    act = act_on_v if side == SIDE_V else act_on_vstar
    cols = [truncate_vector(act(x, basis_vector(model, side, i)), n) for i in range(n)]
    cols += [truncate_vector(act(x, aug_vector(model, side, k)), n) for k in range(len(augs))]
    return Dense(list(zip(*cols))) if dim else Dense([])


def _rows_into(mat: Dense, rows, target_rows) -> bool:
    target = Echelon(map(sparse, target_rows))
    return not any(target.reduce(sparse(mat.apply(r))) for r in rows)


def _annihilator_rows(eqs, aligned, n_star: int, n: int, width: int) -> list:
    eqs = [sparse(e) for e in eqs] + [{i: QONE} for i in range(n_star, n) if aligned.member(i)]
    return [dense(y, width) for y in kernel(eqs, width)]


def compare_subspace(a, levels=None) -> CoherenceReport:
    model = a.model
    try:
        pa = perp(a)
        ca = closure(a)
    except NotRepresentable:
        report = CoherenceReport("subspace", levels or [])
        report.checks.append(
            {"level": None, "check": "perp-representable", "ok": True, "note": "skipped"}
        )
        return report
    aug_rows = [aug.row for aug in model.v_augs + model.w_augs]
    n_star = stabilization_window([a.aligned, pa.aligned] + aug_rows)[0]
    levels = levels or window_levels(model, [a, pa, ca])
    report = CoherenceReport("subspace", levels)
    for n in levels:
        tm = truncate_model(model, n)
        dim_own = tm.v_dim if a.side == SIDE_V else tm.w_dim
        dim_opp = tm.w_dim if a.side == SIDE_V else tm.v_dim
        rows = truncate_subspace(a, n)
        pairing = tm.pairing if a.side == SIDE_V else tm.pairing.transpose()
        rad_opp = tm.radical_w if a.side == SIDE_V else tm.radical_v
        rad_own = tm.radical_v if a.side == SIDE_V else tm.radical_w
        eqs = (Dense(rows) * pairing).entries if rows else []
        fin_perp = _annihilator_rows(eqs, a.aligned, n_star, n, dim_opp)
        ours_perp = row_space_basis(truncate_subspace(pa, n) + rad_opp, dim_opp)
        ok_perp = row_space_basis(fin_perp + rad_opp, dim_opp) == ours_perp
        report.checks.append({"level": n, "check": "perp", "ok": ok_perp})
        eqs = (Dense(fin_perp) * pairing.transpose()).entries if fin_perp else []
        back = _annihilator_rows(eqs, pa.aligned, n_star, n, dim_own)
        ours_clo = row_space_basis(truncate_subspace(ca, n) + rad_own, dim_own)
        ok_clo = row_space_basis(back + rad_own, dim_own) == ours_clo
        report.checks.append({"level": n, "check": "closure", "ok": ok_clo})
    return report


def compare_element(x, levels=None) -> CoherenceReport:
    model = x.model
    levels = levels or window_levels(model, [x])
    report = CoherenceReport("element", levels)
    for n in levels:
        mat = truncate_element(x, n, SIDE_V)
        ok = True
        for i in range(min(n, ELEMENT_SAMPLES)):
            v = basis_vector(model, SIDE_V, i)
            if truncate_vector(act_on_v(x, v), n) != mat.apply(truncate_vector(v, n)):
                ok = False
        report.checks.append({"level": n, "check": "action", "ok": ok})
    return report


def compare_couple(t, levels=None, seed: int = 0) -> CoherenceReport:
    model = t.model
    rng = random.Random(seed)
    battery = []
    for _ in range(COUPLE_SAMPLES):
        battery.append(sample_pplus(t, rng))
        battery.append(sample_nilradical(t, rng))
        battery.append(sample_pminus(t, rng))
        battery.append(random_element(model, rng))
    levels = levels or window_levels(model, [t] + battery)
    report = CoherenceReport("couple", levels)
    f_chain = t.f_flag.chain[1:-1]
    g_chain = t.g_flag.chain[1:-1]
    for n in levels:
        f_rows = [truncate_subspace(s, n) for s in f_chain]
        g_rows = [truncate_subspace(s, n) for s in g_chain]
        ok_joint = True
        ok_nil = True
        for x in battery:
            xv = truncate_element(x, n, SIDE_V)
            xw = truncate_element(x, n, SIDE_W)
            fin_joint = all(_rows_into(xv, rows, rows) for rows in f_rows) and all(
                _rows_into(xw, rows, rows) for rows in g_rows
            )
            if fin_joint != in_joint_stabilizer(x, t):
                ok_joint = False
            if fin_joint:
                fin_nil = all(
                    _rows_into(
                        xv,
                        truncate_subspace(t.f_flag.chain[fi + 1], n),
                        truncate_subspace(t.f_flag.chain[fi], n),
                    )
                    for fi, _ in t.c_pairs
                )
                if fin_nil != in_nilradical(x, t):
                    ok_nil = False
        report.checks.append({"level": n, "check": "joint-membership", "ok": ok_joint})
        report.checks.append({"level": n, "check": "nilradical-membership", "ok": ok_nil})
    return report
