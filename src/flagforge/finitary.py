"""Finite-rank operators on the paired model and their membership calculi.

An element of gl(V, V*) is a finite sum of rank-one tensors v (x) w.  The
module decides membership in flag stabilizers, joint stabilizers of taut
couples, their linear nilradicals, the trace-zero subalgebras sitting under
a joint stabilizer, and the orthogonal/symplectic variants obtained through
a form on the model.

Each element is canonicalized once, when it is built, and is held as the
sparse (V row, V* row) pairs of its terms; every pairing goes through
`pair_rows`.  The left factors are independent, with distinct pivots (a
row's pivot is its smallest column); they are not unique and depend on the
order of the terms, and equality needs only their independence.  Other
modules read an element through its operator, never through its rows:
`apply_row` applies it to a sparse row, and `entries` gives its nonzero
entries, from which supports and truncation levels are taken, so these
depend on the value and not on how it was written.  A stabilizer test
reduces each term's image modulo the target once, and pairs against the
source only the terms whose image falls outside it.  The element also
keeps the stabilizer verdict of every `FinitePairFlag` and the block
traces of every `TautCouple` it has been asked about, matched by identity,
so the joint stabilizer that every membership kind starts from is decided
once per element and flag, and each block trace is computed once per
element, couple and block.  Elements, flags and couples must therefore
not be mutated after construction.
"""

from __future__ import annotations

import math

from .epcore import stabilization_window
from .exactnum import QZERO, Echelon, axpy, combine, div, rat
from .genflag import (
    BasisOrderFlag,
    FinitePairFlag,
    TautCouple,
    collapsed_couple,
)
from .pairedspace import (
    SIDE_V,
    SIDE_W,
    ModelMismatch,
    NoFormOnModel,
    SideMismatch,
    Subspace,
    pair_rows,
    row_support,
)


class NotInJointStabilizer(ValueError):
    pass


class WrongFormKind(ValueError):
    pass


class FinitaryElement:
    """Finite-rank operator sum_t v_t (x) w_t, canonicalized so the left
    tensor factors v_t are linearly independent, with distinct pivots, and
    no w_t is zero; the factors depend on the order of the terms.

    The element is held as `_rows`, the sparse `(tag, idx)` rows (v_t, w_t)
    of its terms, which only this module reads; other modules read the
    operator through `apply_row` and `entries`.  Beside them it keeps the
    `in_stabilizer` verdict of every `FinitePairFlag` and the block traces
    of every `TautCouple` it has been asked about, matched by identity;
    neither takes part in equality.  Elements and the flags and couples
    they were tested against must therefore not be mutated."""

    __slots__ = ("model", "_rows", "_verdicts", "_blocks")

    def __init__(self, model, terms=()):
        rows = []
        for v, w in terms:
            if v.side != SIDE_V or w.side != SIDE_W:
                raise SideMismatch("terms must be (V, V*) pairs")
            for u in (v, w):
                if u.model is not model and u.model != model:
                    raise ModelMismatch("term vectors from a different model")
            rows.append((v.to_sparse(), w.to_sparse()))
        self._canonicalize(model, rows)

    @staticmethod
    def _of(model, rows) -> "FinitaryElement":
        """The element sum_t v_t (x) w_t of sparse (V row, V* row) pairs."""
        x = object.__new__(FinitaryElement)
        x._canonicalize(model, rows)
        return x

    def _canonicalize(self, model, rows):
        # one semi-echelon pass: v_t is reduced against the rows b kept so
        # far, smallest column first, and each step v_t -= c b moves c w_t
        # onto b's payload, so sum_t v_t (x) w_t = sum_b b (x) payload_b
        kept: dict = {}  # pivot, the row's smallest column -> (row, payload)
        for v, w in rows:
            own = False
            while v:
                p = min(v)
                if p not in kept:
                    kept[p] = (v, dict(w))
                    break
                b, payload = kept[p]
                c = div(v[p], b[p])
                if not own:
                    v, own = dict(v), True
                axpy(v, -c, b)
                axpy(payload, c, w)
        self.model = model
        self._rows = [row for row in kept.values() if row[1]]
        self._verdicts = []  # (flag, in_stabilizer verdict)
        self._blocks = []  # (couple, block trace or None per c-pair)

    def is_zero(self) -> bool:
        return not self._rows

    def add(self, other) -> "FinitaryElement":
        self._check(other)
        return FinitaryElement._of(self.model, self._rows + other._rows)

    def sub(self, other) -> "FinitaryElement":
        self._check(other)
        return FinitaryElement._of(self.model, self._rows + _negated(other._rows))

    def _product_rows(self, other) -> list:
        """Rows of the associative product, one per term v (x) w of self:
        (v (x) w)(sum_s v'_s (x) w'_s) = v (x) sum_s <v'_s, w> w'_s, whose
        payload is minus `other.apply_row(w, SIDE_W)`."""
        self._check(other)
        return _negated([(v, p) for v, w in self._rows if (p := other.apply_row(w, SIDE_W))])

    def bracket(self, other) -> "FinitaryElement":
        # x y - y x, where -y x has the rows (v', x.apply_row(w', V*)) as they are
        return FinitaryElement._of(
            self.model,
            self._product_rows(other)
            + [(v, p) for v, w in other._rows if (p := self.apply_row(w, SIDE_W))],
        )

    def trace(self):
        model = self.model
        return sum((pair_rows(model, v, w) for v, w in self._rows), QZERO)

    def apply_row(self, row: dict, side: str) -> dict:
        """The sparse row of x(u) = sum_t <u, w_t> v_t for a V row u, and of
        x . y = -sum_t <v_t, y> w_t for a V* row y."""
        model, out = self.model, {}
        for v, w in self._rows:
            if side == SIDE_V:
                if c := pair_rows(model, row, w):
                    axpy(out, c, v)
            elif c := pair_rows(model, v, row):
                axpy(out, -c, w)
        return out

    def entries(self) -> dict:
        """The nonzero entries M[a, b] = sum_t v_t[a] w_t[b] of the operator
        x = sum_(a, b) M[a, b] a (x) b, keyed by pairs of (tag, idx) keys:
        they depend on the operator alone, not on how it was written."""
        out: dict = {}
        for v, w in self._rows:
            for a, c in v.items():
                for b, d in w.items():
                    out[a, b] = out.get((a, b), QZERO) + c * d
        return {ab: val for ab, val in out.items() if val}

    def __eq__(self, other):
        return isinstance(other, FinitaryElement) and self.sub(other).is_zero()

    __hash__ = None

    def __repr__(self):
        return f"FinitaryElement({len(self._rows)} terms)"

    def _check(self, other):
        if self.model is not other.model and self.model != other.model:
            raise ModelMismatch("elements from different models")


def _negated(rows) -> list:
    """The term rows with every V* row negated."""
    return [(v, {k: -val for k, val in w.items()}) for v, w in rows]


# ---------------------------------------------------------------------------
# stabilizer membership
# ---------------------------------------------------------------------------


def _maps_into(x: FinitaryElement, source: Subspace, target: Subspace) -> bool:
    """Whether x . source is contained in target (same side as source).

    x = sum_t v_t (x) w_t sends u in V to sum_t <u, w_t> v_t and y in V* to
    -sum_t <v_t, y> w_t (the sign does not change membership).  Reduction
    modulo target is linear, so with r_t the residue of the image v_t,
    resp. w_t, x . source lies in target exactly when sum_t c_t r_t = 0 for
    every c in the span C of the pairing rows (<u, w_t>)_t, resp.
    (<v_t, y>)_t, of the vectors of source.  Each term's image is reduced
    once; the terms with r_t = 0 drop out, and when none is left the answer
    is yes without a pairing row.  C is taken over the partners w_t, resp.
    v_t, of the remaining terms.  Past their support a basis vector's row
    depends only on the augmentation rows, which are eventually periodic,
    so the aligned indices of one stabilization window plus the corrections
    span C, whichever partners remain; when none of them has augmentation
    coordinates, only the aligned indices in their supports give nonzero
    rows.  One combination of residues per echelon row of C decides the
    test.
    """
    model = x.model
    on_v = source.side == SIDE_V
    residues, partners = [], []
    for v, w in x._rows:
        image, partner = (v, w) if on_v else (w, v)
        residue = target._reduce_row(image)
        if residue:
            residues.append(residue)
            partners.append(partner)
    if not partners:
        return True
    if on_v:
        aug_rows = [aug.row for aug in model.w_augs]
        row_of = lambda u: [pair_rows(model, u, w) for w in partners]
    else:
        aug_rows = [aug.row for aug in model.v_augs]
        row_of = lambda y: [pair_rows(model, v, y) for v in partners]
    partner_augs = [[(k, a) for (tag, k), a in c.items() if not tag] for c in partners]
    aligned = source.aligned
    if any(partner_augs):
        support = max(row_support(c) for c in partners)
        n_star, p_star = stabilization_window([aligned, support] + aug_rows)
        indices = aligned.members_below(n_star + p_star)
    else:
        aug_rows = []
        indices = {i for c in partners for _, i in c if aligned.member(i)}

    def rows():
        for i in indices:
            tails = [row.value(i) for row in aug_rows]
            row = {}
            for t, (c, augs) in enumerate(zip(partners, partner_augs)):
                val = c.get((1, i), QZERO)
                for k, a in augs:
                    val += a * tails[k]
                if val:
                    row[t] = val
            yield row
        for corr in source.corrections:
            yield {t: c for t, c in enumerate(row_of(corr)) if c}

    span = Echelon()
    for row in rows():
        if len(span.pivots) == len(partners):
            break
        span.add(row)
    return not any(combine(coeffs, residues) for coeffs in span.rows())


def in_stabilizer(x: FinitaryElement, flag) -> bool:
    """Whether x stabilizes every subspace of the flag.

    A finite flag is stabilized when x maps each of its members into itself,
    which `_maps_into` decides in coordinates: one reduction of each term's
    image modulo the member, then the span of the pairing rows of the member
    against the terms whose image falls outside it, read off one
    stabilization window of aligned indices plus the corrections.  The
    verdict is kept on x for this flag object, so later questions about x
    and the same flag cost a lookup.  Basis-order flags
    reduce to the support comparator test.
    """
    if isinstance(flag, BasisOrderFlag):
        return _in_basis_flag_stabilizer(x, flag)
    if not isinstance(flag, FinitePairFlag):
        raise TypeError(f"cannot test stabilizer membership against {flag!r}")
    if x.model is not flag.model and x.model != flag.model:
        raise ModelMismatch("element and flag from different models")
    for seen, verdict in x._verdicts:
        if seen is flag:
            return verdict
    verdict = all(_maps_into(x, member, member) for member in flag.chain[1:-1])
    x._verdicts.append((flag, verdict))
    return verdict


def _in_basis_flag_stabilizer(x: FinitaryElement, flag: BasisOrderFlag) -> bool:
    if x.model is not flag.model and x.model != flag.model:
        raise ModelMismatch("element and flag from different models")
    return all(flag.leq(i, j) for (_, i), (_, j) in x.entries())


def in_joint_stabilizer(x: FinitaryElement, t: TautCouple) -> bool:
    return in_stabilizer(x, t.f_flag) and in_stabilizer(x, t.g_flag)


def in_nilradical(x: FinitaryElement, t: TautCouple) -> bool:
    """x lies in the joint stabilizer and kills every closed-predecessor
    quotient, i.e. every block component vanishes."""
    if not in_joint_stabilizer(x, t):
        return False
    for fi, _ in t.c_pairs:
        pred, succ = t.f_pair(fi)
        if not _maps_into(x, succ, pred):
            return False
    return True


def _chain_component(chain_pred: Subspace, chain_succ: Subspace, row: dict) -> dict:
    """Sparse component of the sparse row in the pivot-rule complement of
    pred inside succ."""
    out = chain_pred._reduce_row(row)
    axpy(out, -1, chain_succ._reduce_row(row))
    return out


def block_trace(x: FinitaryElement, t: TautCouple, gamma: int):
    """Trace of the image of x in the gamma-th diagonal block of the joint
    stabilizer, the matched pair F''/F' x G''/G'.

    The complement decomposition uses the canonical reduction residuals of
    the chain; the induced trace does not depend on that choice.
    """
    if not 0 <= gamma < len(t.c_pairs):
        raise ValueError(f"gamma {gamma} is outside 0..{len(t.c_pairs) - 1}")
    if not in_joint_stabilizer(x, t):
        raise NotInJointStabilizer("element is outside the joint stabilizer")
    return _block_trace(x, t, gamma)


def _block_trace(x: FinitaryElement, t: TautCouple, gamma: int):
    """The gamma-th block trace of x, computed once per element, couple and
    gamma and kept on x for the couple object."""
    for seen, traces in x._blocks:
        if seen is t:
            break
    else:
        traces = [None] * len(t.c_pairs)
        x._blocks.append((t, traces))
    if traces[gamma] is None:
        traces[gamma] = _compute_block_trace(x, t, gamma)
    return traces[gamma]


def _compute_block_trace(x: FinitaryElement, t: TautCouple, gamma: int):
    fi, gj = t.c_pairs[gamma]
    f_pred, f_succ = t.f_pair(fi)
    g_pred, g_succ = t.g_pair(gj)
    model = x.model
    total = QZERO
    for v, w in x._rows:
        vbar = _chain_component(f_pred, f_succ, v)
        if vbar:
            wbar = _chain_component(g_pred, g_succ, w)
            if wbar:
                total += pair_rows(model, vbar, wbar)
    return total


def in_pminus(x: FinitaryElement, t: TautCouple, ambient: str = "gl") -> bool:
    """Joint stabilizer membership plus vanishing block traces on every
    infinite-dimensional block; ambient sl also demands total trace zero."""
    if ambient not in ("gl", "sl"):
        raise ValueError("ambient must be gl or sl")
    if not in_joint_stabilizer(x, t):
        return False
    if ambient == "sl" and x.trace():
        return False
    for gamma, (fi, _) in enumerate(t.c_pairs):
        if t.f_quotient_dim(fi) == math.inf:
            if _block_trace(x, t, gamma):
                return False
    return True


class TraceConditionSubalgebra:
    """Subalgebra of a joint stabilizer cut out by linear conditions on the
    block-trace vector."""

    def __init__(self, couple: TautCouple, ambient: str, constraints):
        if ambient not in ("gl", "sl"):
            raise ValueError("ambient must be gl or sl")
        self.couple = couple
        self.ambient = ambient
        rows = tuple(tuple(rat(v) for v in row) for row in constraints)
        finite = [
            g
            for g, (fi, _) in enumerate(couple.c_pairs)
            if couple.f_quotient_dim(fi) != math.inf
        ]
        for row in rows:
            if len(row) != len(couple.c_pairs):
                raise ValueError("constraint row length must match the c-pairs")
            fin_coeffs = {row[g] for g in finite}
            if self.ambient == "gl" and fin_coeffs - {QZERO}:
                raise ValueError(
                    "gl trace conditions may only touch infinite-dimensional blocks"
                )
            if self.ambient == "sl" and len(fin_coeffs) > 1:
                raise ValueError(
                    "sl trace conditions must weight all finite blocks equally"
                )
        self.constraints = rows

    def member(self, x: FinitaryElement) -> bool:
        if not in_joint_stabilizer(x, self.couple):
            return False
        if self.ambient == "sl" and x.trace():
            return False
        if not self.constraints:
            return True
        traces = [
            _block_trace(x, self.couple, g)
            for g in range(len(self.couple.c_pairs))
        ]
        return all(
            not sum((c * tr for c, tr in zip(row, traces)), QZERO)
            for row in self.constraints
        )


def perp_parabolic_member(x: FinitaryElement, t: TautCouple) -> bool:
    """Membership in the trace-form annihilator of the nilradical, realized
    as the joint stabilizer of the collapsed couple."""
    return in_joint_stabilizer(x, collapsed_couple(t))


# ---------------------------------------------------------------------------
# orthogonal / symplectic elements through the form
# ---------------------------------------------------------------------------


_FORM_OF_KIND = {"so": "symmetric", "sp": "antisymmetric"}


def in_algebra_of_form(x: FinitaryElement, kind: str) -> bool:
    """Whether x + flip(x) = 0 (so) or x - flip(x) = 0 (sp), flip being the
    tensor swap v (x) w -> phi^-1(w) (x) phi(v) through the form phi.

    Form models are pure-basis, and phi(e_a) = s(a) f_iota(a), so flip
    sends e_a (x) f_b to s(a) s(iota(b)) e_iota(b) (x) f_iota(a).  On the
    entry table M of x the test reads M[a, b] +- M[iota(b), iota(a)] s(a)
    s(iota(b)) = 0; it suffices on the support of M, since an entry of
    flip(x) off that support has its mirror image on it."""
    if kind not in _FORM_OF_KIND:
        raise ValueError(f"unknown algebra kind {kind!r}")
    model = x.model
    if model.form_kind == "none":
        raise NoFormOnModel("model carries no form")
    sign = 1 if kind == "so" else -1
    entries = {(a, b): val for ((_, a), (_, b)), val in x.entries().items()}
    for (a, b), val in entries.items():
        ia, ib = model.iota_of(a), model.iota_of(b)
        mirror = entries.get((ib, ia), QZERO) * model.form_sign(a) * model.form_sign(ib)
        if val + sign * mirror:
            return False
    return True


def self_taut_couple(f: FinitePairFlag) -> TautCouple:
    """The taut couple (f, phi(f)) of a self-taut flag under the form,
    cached on the flag."""
    from .genflag import make_taut_couple
    from .pairedspace import form_map_subspace

    if f._self_taut is None:
        model = f.model
        if model.form_kind == "none":
            raise NoFormOnModel("model carries no form")
        g_chain = tuple(form_map_subspace(s) for s in f.chain)
        g = FinitePairFlag(model, SIDE_W, g_chain)
        f._self_taut = make_taut_couple(f, g)
    return f._self_taut


def in_so_sp_stabilizer_minus(x: FinitaryElement, f: FinitePairFlag, kind: str) -> bool:
    """Minus-subalgebra membership inside so(V) or sp(V): the gl test for
    the couple (f, f) under the identification, restricted to the algebra."""
    model = x.model
    if model.form_kind == "none":
        raise NoFormOnModel("model carries no form")
    if model.form_kind != _FORM_OF_KIND.get(kind):
        raise WrongFormKind(f"{kind} needs a {_FORM_OF_KIND.get(kind)} form")
    if not in_algebra_of_form(x, kind):
        return False
    return in_pminus(x, self_taut_couple(f), "gl")
