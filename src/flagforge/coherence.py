"""Truncation coherence: countable-model outputs against finite recomputation.

Every comparison runs at the certified window levels of the objects in play:
any eventually periodic behaviour is pinned down by one threshold and two
further periods, so exact agreement at those levels certifies agreement at
every higher level.  Annihilator comparisons hold modulo the degeneracy
radical of the truncated pairing, which is reported, never an error.  The
truncations of models, vectors, subspaces and elements live here as well.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .epcore import stabilization_window
from .exactnum import Echelon, Matrix, dense, kernel, row_space_basis, sparse
from .finitary import FinitaryElement, in_joint_stabilizer, in_nilradical
from .genflag import FinitePairFlag, TautCouple
from .pairedspace import (
    SIDE_V,
    SIDE_W,
    NotRepresentable,
    PairedSpaceModel,
    Subspace,
    Vector,
    closure,
    perp,
)
from .sampling import random_element, sample_nilradical, sample_pminus, sample_pplus

QZERO = Fraction(0)
QONE = Fraction(1)
# basis vectors whose truncated action `compare_element` checks per level
ELEMENT_SAMPLES = 4
# draws of each sampler in the battery of `compare_couple`
COUPLE_SAMPLES = 6


@dataclass
class TruncatedModel:
    """Finite slice of the model: indices below n plus explicit aug rows."""

    n: int
    v_dim: int
    w_dim: int
    pairing: Matrix
    radical_v: list
    radical_w: list


def truncate_model(model: PairedSpaceModel, n: int) -> TruncatedModel:
    if n < 1:
        raise ValueError("truncation level must be >= 1")
    kv, lw = len(model.v_augs), len(model.w_augs)
    v_dim, w_dim = n + kv, n + lw
    rows = []
    for i in range(n):
        row = [Fraction(1) if j == i else QZERO for j in range(n)]
        row += [model.w_augs[l].row.value(i) for l in range(lw)]
        rows.append(row)
    for k in range(kv):
        row = [model.v_augs[k].row.value(j) for j in range(n)]
        row += [model.cross_value(k, l) for l in range(lw)]
        rows.append(row)
    pairing = Matrix(rows)
    return TruncatedModel(
        n,
        v_dim,
        w_dim,
        pairing,
        [dense(y, v_dim) for y in kernel(map(sparse, pairing.transpose().entries), v_dim)],
        [dense(y, w_dim) for y in kernel(map(sparse, pairing.entries), w_dim)],
    )


def truncate_vector(v: Vector, n: int) -> list[Fraction]:
    """Coordinates [e_0..e_{n-1}, augs...] of the truncated vector."""
    coords = [v.basis.get(i, QZERO) for i in range(n)]
    return coords + list(v.augs)


def truncate_subspace(a: Subspace, n: int) -> list[list[Fraction]]:
    """RREF basis rows of the truncated subspace."""
    width = n + len(a.model.augs(a.side))
    rows = [truncate_vector(c, n) for c in a.corrections]
    for i in a.aligned.members_below(n):
        row = [QZERO] * width
        row[i] = Fraction(1)
        rows.append(row)
    return row_space_basis(rows, width)


def truncate_element(x: FinitaryElement, n: int, side: str = SIDE_V) -> Matrix:
    """Operator matrix of x on the truncated space (basis then augs)."""
    model = x.model
    augs = model.augs(side)
    dim = n + len(augs)
    cols = []
    act = x.act_on_v if side == SIDE_V else x.act_on_vstar
    for i in range(n):
        cols.append(truncate_vector(act(Vector.basis_vector(model, side, i)), n))
    for k in range(len(augs)):
        cols.append(truncate_vector(act(Vector.aug_vector(model, side, k)), n))
    return Matrix.from_rows(list(map(list, zip(*cols)))) if dim else Matrix([])


def window_levels(model, objs) -> list[int]:
    """Three certified truncation levels for the given objects."""
    items = [aug.row for aug in model.v_augs] + [aug.row for aug in model.w_augs]
    for obj in objs:
        if isinstance(obj, Subspace):
            items.append(obj.aligned)
            items += [c.support_bound() for c in obj.corrections]
        elif isinstance(obj, FinitePairFlag):
            for s in obj.chain:
                items.append(s.aligned)
                items += [c.support_bound() for c in s.corrections]
        elif isinstance(obj, TautCouple):
            for flag in (obj.f_flag, obj.g_flag):
                for s in flag.chain:
                    items.append(s.aligned)
                    items += [c.support_bound() for c in s.corrections]
        elif isinstance(obj, FinitaryElement):
            for v, w in obj.terms:
                items += [v.support_bound(), w.support_bound()]
        elif isinstance(obj, int):
            items.append(obj)
    n_star, p_star = stabilization_window(items)
    # the finite recomputation needs one full period of tail constraints
    # inside the truncation, so the certified base sits one period beyond
    # the raw threshold
    base = max(n_star, 1) + p_star
    return [base, base + p_star, base + 2 * p_star]


def _rows_into(mat: Matrix, rows, target_rows) -> bool:
    """Whether mat maps the span of rows into the span of target_rows."""
    target = Echelon(map(sparse, target_rows))
    return not any(target.reduce(sparse(mat.apply(r))) for r in rows)


@dataclass
class CoherenceReport:
    object_kind: str
    levels: list
    checks: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c["ok"] for c in self.checks)


def _annihilator_rows(eqs, aligned, n_star: int, n: int, width: int) -> list:
    """Basis of the vectors y of length width with eqs . y = 0 and y_i = 0
    for i in aligned with n_star <= i < n."""
    eqs = [sparse(e) for e in eqs] + [{i: QONE} for i in range(n_star, n) if aligned.member(i)]
    return [dense(y, width) for y in kernel(eqs, width)]


def compare_subspace(a: Subspace, levels=None) -> CoherenceReport:
    """Annihilator and closure of a subspace against finite recomputation,
    modulo the truncated degeneracy radical on both sides.

    A finitely supported annihilator of `a` vanishes at every aligned index
    of `a` from the threshold N* of the aligned sets and augmentation rows
    on, since its augmentation part pairs periodically with those vectors.
    The truncation at level n drops them from n on, so the finite system
    carries these unit equations; likewise the closure, at perp(a)'s."""
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
        eqs = (Matrix(rows) * pairing).entries if rows else []
        fin_perp = _annihilator_rows(eqs, a.aligned, n_star, n, dim_opp)
        ours_perp = row_space_basis(truncate_subspace(pa, n) + rad_opp, dim_opp)
        ok_perp = row_space_basis(fin_perp + rad_opp, dim_opp) == ours_perp
        report.checks.append({"level": n, "check": "perp", "ok": ok_perp})
        eqs = (Matrix(fin_perp) * pairing.transpose()).entries if fin_perp else []
        back = _annihilator_rows(eqs, pa.aligned, n_star, n, dim_own)
        ours_clo = row_space_basis(truncate_subspace(ca, n) + rad_own, dim_own)
        ok_clo = row_space_basis(back + rad_own, dim_own) == ours_clo
        report.checks.append({"level": n, "check": "closure", "ok": ok_clo})
    return report


def compare_element(x: FinitaryElement, levels=None) -> CoherenceReport:
    """Operator truncation against the truncated action, exact."""
    model = x.model
    levels = levels or window_levels(model, [x])
    report = CoherenceReport("element", levels)
    for n in levels:
        mat = truncate_element(x, n, SIDE_V)
        ok = True
        for i in range(min(n, ELEMENT_SAMPLES)):
            v = Vector.basis_vector(model, SIDE_V, i)
            lhs = truncate_vector(x.act_on_v(v), n)
            if lhs != mat.apply(truncate_vector(v, n)):
                ok = False
        report.checks.append({"level": n, "check": "action", "ok": ok})
    return report


def compare_couple(t: TautCouple, levels=None, seed: int = 0):
    """Membership verdicts of the countable machinery against brute-force
    matrix checks on the truncated chains, exact at window levels."""
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


def compare(obj, levels=None, seed: int = 0) -> CoherenceReport:
    if isinstance(obj, Subspace):
        return compare_subspace(obj, levels)
    if isinstance(obj, FinitaryElement):
        return compare_element(obj, levels)
    if isinstance(obj, TautCouple):
        return compare_couple(obj, levels, seed)
    if isinstance(obj, FinitePairFlag):
        report = CoherenceReport("flag", levels or [])
        for s in obj.chain[1:-1]:
            sub = compare_subspace(s, levels)
            report.checks.extend(sub.checks)
            report.levels = sub.levels
        return report
    raise TypeError(f"cannot run truncation comparison on {obj!r}")
