"""Truncation coherence: countable-model outputs against finite recomputation.

Every comparison runs at the certified window levels of the objects in play:
any eventually periodic behaviour is pinned down by one threshold and two
further periods, so exact agreement at those levels certifies agreement at
every higher level.  Annihilator comparisons hold modulo the degeneracy
radical of the truncated pairing, which is reported, never an error.  The
truncations of models, sparse rows, subspaces and elements live here as
well.  An element is read through its operator only: its truncation
applies `FinitaryElement.apply_row` to unit rows, and its supports, and so
its window levels, come from `FinitaryElement.entries`, so equal elements
get equal levels however their terms were written.

No `Vector` is built here: a vector of the model is its sparse (tag, idx)
row, the unit vectors being {(1, i): 1} and {(0, k): 1}.  Everything
finite is a sparse row {coordinate: rational}, with coordinates
[e_0..e_{n-1}, augs...]: the truncated pairing is held as sparse rows and
columns, a truncated subspace is an `Echelon`, an element's truncation is
the list of its sparse columns, and every null space comes from `kernel`.
Two spans are compared by their reduced echelon bases, which are unique.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .epcore import stabilization_window
from .exactnum import QONE, QZERO, Echelon, axpy, combine, kernel
from .finitary import FinitaryElement, in_joint_stabilizer, in_nilradical
from .genflag import FinitePairFlag, TautCouple
from .pairedspace import (
    SIDE_V,
    SIDE_W,
    NotRepresentable,
    PairedSpaceModel,
    Subspace,
    closure,
    other_side,
    perp,
    row_support,
)
from .sampling import random_element, sample_nilradical, sample_pminus, sample_pplus

# basis vectors whose truncated action `compare_element` checks per level
ELEMENT_SAMPLES = 4
# draws of each sampler in the battery of `compare_couple`
COUPLE_SAMPLES = 6


@dataclass
class TruncatedModel:
    """Finite slice of the model: indices below n plus explicit aug rows.

    Each table is keyed by side.  `pairing[side][i]` pairs coordinate i of
    side with the other side as a sparse row (the V rows and W rows are the
    rows and columns of one matrix); `radical[side]` is a `kernel` basis."""

    n: int
    dim: dict
    pairing: dict
    radical: dict


def truncate_model(model: PairedSpaceModel, n: int) -> TruncatedModel:
    if n < 1:
        raise ValueError("truncation level must be >= 1")
    dim = {SIDE_V: n + len(model.v_augs), SIDE_W: n + len(model.w_augs)}
    rows = _pairing_rows(model, n)
    cols = [{} for _ in range(dim[SIDE_W])]
    for i, row in enumerate(rows):
        for j, c in row.items():
            cols[j][i] = c
    radical = {SIDE_V: kernel(cols, dim[SIDE_V]), SIDE_W: kernel(rows, dim[SIDE_W])}
    return TruncatedModel(n, dim, {SIDE_V: rows, SIDE_W: cols}, radical)


def _pairing_rows(model: PairedSpaceModel, n: int) -> list[dict]:
    """Sparse rows of the truncated pairing: row i is <e_i, .> for i < n and
    row n + k is <v~_k, .> for the k-th V augmentation."""
    lw = len(model.w_augs)
    rows = []
    for i in range(n):
        row = {i: QONE}
        row.update((n + l, aug.row.value(i)) for l, aug in enumerate(model.w_augs))
        rows.append(row)
    for k, aug in enumerate(model.v_augs):
        row = {j: aug.row.value(j) for j in range(n)}
        row.update((n + l, model.cross_value(k, l)) for l in range(lw))
        rows.append(row)
    return [{j: c for j, c in row.items() if c} for row in rows]


def _truncate_row(row: dict, n: int) -> dict:
    """Sparse coordinates [e_0..e_{n-1}, augs...] of the truncated sparse
    (tag, idx) row."""
    return {(idx if tag else n + idx): c for (tag, idx), c in row.items() if not tag or idx < n}


def truncate_subspace(a: Subspace, n: int) -> Echelon:
    """Echelon basis of the truncated subspace: its truncated corrections and
    the unit rows of its aligned indices below n."""
    rows = [_truncate_row(c, n) for c in a.corrections]
    return Echelon(rows + [{i: QONE} for i in a.aligned.members_below(n)])


def truncate_element(x: FinitaryElement, n: int, side: str = SIDE_V) -> list[dict]:
    """Operator of x on the truncated space as sparse columns: entry j is
    the truncated image of coordinate j (basis then augs)."""
    units = [{(1, i): QONE} for i in range(n)]
    units += [{(0, k): QONE} for k in range(len(x.model.augs(side)))]
    return [_truncate_row(x.apply_row(u, side), n) for u in units]


def window_levels(model, objs) -> list[int]:
    """Three certified truncation levels for the given objects."""
    items = [aug.row for aug in model.v_augs] + [aug.row for aug in model.w_augs]
    subspaces = []
    for obj in objs:
        if isinstance(obj, Subspace):
            subspaces.append(obj)
        elif isinstance(obj, FinitePairFlag):
            subspaces += obj.chain
        elif isinstance(obj, TautCouple):
            subspaces += obj.f_flag.chain + obj.g_flag.chain
        elif isinstance(obj, FinitaryElement):
            # one past the largest basis index of a nonzero entry, either side
            items.append(row_support([key for ab in obj.entries() for key in ab]))
        elif isinstance(obj, int):
            items.append(obj)
    for s in subspaces:
        items.append(s.aligned)
        items += map(row_support, s.corrections)
    n_star, p_star = stabilization_window(items)
    # the finite recomputation needs one full period of tail constraints
    # inside the truncation, so the certified base sits one period beyond
    # the raw threshold
    base = max(n_star, 1) + p_star
    return [base, base + p_star, base + 2 * p_star]


def _rows_into(images: list, source: Echelon, target: Echelon) -> bool:
    """Whether the operator with sparse columns images maps the span of
    source into the span of target."""
    return not any(target.reduce(combine(r, images)) for r in source.rows())


@dataclass
class CoherenceReport:
    object_kind: str
    levels: list
    checks: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c["ok"] for c in self.checks)


def _annihilator(rows, pairing, aligned, n_star: int, n: int, width: int) -> list:
    """Basis of the vectors y of length width with <r, y> = 0 for each row r,
    paired through pairing, and y_i = 0 for i in aligned with n_star <= i < n."""
    eqs = [combine(r, pairing) for r in rows]
    eqs += [{i: QONE} for i in range(n_star, n) if aligned.member(i)]
    return kernel(eqs, width)


def _same_span(rows, ech: Echelon, radical) -> bool:
    """Whether rows span what ech spans, modulo radical; ech takes the
    radical in.  A reduced echelon basis is unique, so the spans agree
    exactly when the pivots and rows do."""
    fin = Echelon(rows)
    for r in radical:
        fin.add(r)
        ech.add(r)
    return fin.pivots == ech.pivots and fin.rows() == ech.rows()


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
    own, opp = a.side, other_side(a.side)
    for n in levels:
        tm = truncate_model(model, n)
        rows = truncate_subspace(a, n).rows()
        fin_perp = _annihilator(rows, tm.pairing[own], a.aligned, n_star, n, tm.dim[opp])
        ok_perp = _same_span(fin_perp, truncate_subspace(pa, n), tm.radical[opp])
        report.checks.append({"level": n, "check": "perp", "ok": ok_perp})
        back = _annihilator(fin_perp, tm.pairing[opp], pa.aligned, n_star, n, tm.dim[own])
        ok_clo = _same_span(back, truncate_subspace(ca, n), tm.radical[own])
        report.checks.append({"level": n, "check": "closure", "ok": ok_clo})
    return report


def compare_element(x: FinitaryElement, levels=None) -> CoherenceReport:
    """The action of x on the first basis vectors, through the row pairing
    of `apply_row`, against the same action read off the entries of x and
    the truncated pairing table.  For i < n, x(e_i) = sum_(a, b) M[a, b]
    <e_i, b> a, and row i of the table holds every coordinate that e_i
    pairs with, so <e_i, b> is row i at the truncated b, exactly."""
    model = x.model
    levels = levels or window_levels(model, [x])
    report = CoherenceReport("element", levels)
    entries = x.entries()
    for n in levels:
        table = _pairing_rows(model, n)
        terms = [(_truncate_row({a: m}, n), _truncate_row({b: QONE}, n))
                 for (a, b), m in entries.items()]
        ok = True
        for i in range(min(n, ELEMENT_SAMPLES)):
            want: dict = {}
            for v, w in terms:
                c = sum((a * w[j] for j, a in table[i].items() if j in w), QZERO)
                if c:
                    axpy(want, c, v)
            got = _truncate_row(x.apply_row({(1, i): QONE}, SIDE_V), n)
            if got != want:
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
    for n in levels:
        f_spans = [truncate_subspace(s, n) for s in t.f_flag.chain]
        g_spans = [truncate_subspace(s, n) for s in t.g_flag.chain[1:-1]]
        ok_joint = True
        ok_nil = True
        for x in battery:
            xv = truncate_element(x, n, SIDE_V)
            xw = truncate_element(x, n, SIDE_W)
            fin_joint = all(_rows_into(xv, s, s) for s in f_spans[1:-1]) and all(
                _rows_into(xw, s, s) for s in g_spans
            )
            if fin_joint != in_joint_stabilizer(x, t):
                ok_joint = False
            if fin_joint:
                fin_nil = all(
                    _rows_into(xv, f_spans[fi + 1], f_spans[fi]) for fi, _ in t.c_pairs
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
