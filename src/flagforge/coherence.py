"""Truncation coherence: countable-model outputs against finite recomputation.

Every comparison runs at the certified window levels of the objects in play:
any eventually periodic behaviour is pinned down by one threshold and two
further periods, so exact agreement at those levels certifies agreement at
every higher level.  Annihilator comparisons hold modulo the degeneracy
radical of the truncated pairing, which is reported, never an error.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .epcore import stabilization_window
from .exactnum import Echelon, Matrix, kernel, row_space_basis, sparse
from .finitary import FinitaryElement, in_joint_stabilizer, in_nilradical, truncate_element
from .genflag import FinitePairFlag, TautCouple
from .pairedspace import (
    SIDE_V,
    SIDE_W,
    NotRepresentable,
    Subspace,
    Vector,
    closure,
    perp,
    truncate_model,
    truncate_subspace,
    truncate_vector,
)
from .sampling import random_element, sample_nilradical, sample_pminus, sample_pplus

QZERO = Fraction(0)


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


def _span_rows(rows, width):
    return row_space_basis([list(r) for r in rows], width)


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


def compare_subspace(a: Subspace, levels=None) -> CoherenceReport:
    """Annihilator and closure of a subspace against finite recomputation,
    modulo the truncated degeneracy radical."""
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
        fin_perp = (
            kernel(Matrix(rows) * pairing)
            if rows
            else [
                [Fraction(1) if j == i else QZERO for j in range(dim_opp)]
                for i in range(dim_opp)
            ]
        )
        ours_perp = _span_rows(
            truncate_subspace(pa, n) + [list(r) for r in rad_opp], dim_opp
        )
        ok_perp = _span_rows(fin_perp, dim_opp) == ours_perp
        report.checks.append({"level": n, "check": "perp", "ok": ok_perp})
        back = (
            kernel(Matrix(fin_perp) * pairing.transpose())
            if fin_perp
            else [
                [Fraction(1) if j == i else QZERO for j in range(dim_own)]
                for i in range(dim_own)
            ]
        )
        ours_clo = _span_rows(
            truncate_subspace(ca, n) + [list(r) for r in rad_own], dim_own
        )
        ok_clo = _span_rows(back, dim_own) == ours_clo
        report.checks.append({"level": n, "check": "closure", "ok": ok_clo})
    return report


def compare_element(x: FinitaryElement, levels=None, samples: int = 4) -> CoherenceReport:
    """Operator truncation against the truncated action, exact."""
    model = x.model
    levels = levels or window_levels(model, [x])
    report = CoherenceReport("element", levels)
    for n in levels:
        mat = truncate_element(x, n, SIDE_V)
        ok = True
        for i in range(min(n, samples)):
            v = Vector.basis_vector(model, SIDE_V, i)
            lhs = truncate_vector(x.act_on_v(v), n)
            if lhs != mat.apply(truncate_vector(v, n)):
                ok = False
        report.checks.append({"level": n, "check": "action", "ok": ok})
    return report


def compare_couple(t: TautCouple, levels=None, seed: int = 0, samples: int = 6):
    """Membership verdicts of the countable machinery against brute-force
    matrix checks on the truncated chains, exact at window levels."""
    model = t.model
    rng = random.Random(seed)
    battery = []
    for _ in range(samples):
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
