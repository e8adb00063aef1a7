"""Finite-rank operators on the paired model and their membership calculi.

An element of gl(V, V*) is a finite sum of rank-one tensors v (x) w.  The
module decides membership in flag stabilizers, joint stabilizers of taut
couples, their linear nilradicals, the trace-zero subalgebras sitting under
a joint stabilizer, and the orthogonal/symplectic variants obtained through
a form on the model.

Each element is canonicalized once, when it is built, and keeps the sparse
rows of its terms beside the `Vector`s.  It also keeps the stabilizer
verdict of every `FinitePairFlag` it has been tested against, matched by
identity, so the joint stabilizer that every membership kind starts from is
decided once per element and flag.  Elements and flags must therefore not
be mutated after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .epcore import stabilization_window
from .exactnum import Echelon, axpy, rat
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
    Vector,
    form_to_v,
    form_to_vstar,
    pair,
)

QZERO = Fraction(0)


class NotInJointStabilizer(ValueError):
    pass


class WrongFormKind(ValueError):
    pass


class FinitaryElement:
    """Finite-rank operator, canonicalized so the left tensor factors are
    linearly independent.

    Beside `terms`, the element keeps their sparse `(tag, idx)` rows and the
    `in_stabilizer` verdict of every `FinitePairFlag` it has been asked
    about, matched by identity; neither takes part in equality.  Elements
    and the flags they were tested against must therefore not be mutated."""

    __slots__ = ("model", "terms", "_rows", "_verdicts")

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
        # v_t = sum_p v_t[p] b_p over the reduced echelon basis b_p of the
        # v_t, so sum_t v_t (x) w_t = sum_p b_p (x) (sum_t v_t[p] w_t)
        echelon = Echelon(v for v, _ in rows)
        out = []
        for p, b in zip(echelon.pivots, echelon.rows()):
            payload: dict = {}
            for v, w in rows:
                c = v.get(p)
                if c:
                    axpy(payload, c, w)
            if payload:
                out.append((b, payload))
        self.model = model
        self.terms = tuple(
            (Vector.from_sparse(model, SIDE_V, b), Vector.from_sparse(model, SIDE_W, w))
            for b, w in out
        )
        self._rows = out
        self._verdicts = []  # (flag, in_stabilizer verdict)

    def is_zero(self) -> bool:
        return not self.terms

    def add(self, other) -> "FinitaryElement":
        self._check(other)
        return FinitaryElement._of(self.model, self._rows + other._rows)

    def sub(self, other) -> "FinitaryElement":
        self._check(other)
        return FinitaryElement._of(self.model, self._rows + _scaled(-1, other._rows))

    def _product_rows(self, other) -> list:
        """Rows of the associative product: (v (x) w)(v' (x) w') =
        v (x) <v', w> w'."""
        self._check(other)
        out = []
        for (_, w), (v_row, _) in zip(self.terms, self._rows):
            for (v2, _), (_, w2_row) in zip(other.terms, other._rows):
                c = pair(v2, w)
                if c:
                    out.append((v_row, {k: c * val for k, val in w2_row.items()}))
        return out

    def bracket(self, other) -> "FinitaryElement":
        return FinitaryElement._of(
            self.model,
            self._product_rows(other) + _scaled(-1, other._product_rows(self)),
        )

    def trace(self) -> Fraction:
        return sum((pair(v, w) for v, w in self.terms), QZERO)

    def act_on_v(self, u: Vector) -> Vector:
        out = Vector.zero(self.model, SIDE_V)
        for v, w in self.terms:
            c = pair(u, w)
            if c:
                out = out.add(v.scale(c))
        return out

    def act_on_vstar(self, y: Vector) -> Vector:
        out = Vector.zero(self.model, SIDE_W)
        for v, w in self.terms:
            c = pair(v, y)
            if c:
                out = out.add(w.scale(-c))
        return out

    def __eq__(self, other):
        return isinstance(other, FinitaryElement) and self.sub(other).is_zero()

    __hash__ = None

    def __repr__(self):
        return f"FinitaryElement({len(self.terms)} terms)"

    def _check(self, other):
        if self.model is not other.model and self.model != other.model:
            raise ModelMismatch("elements from different models")


def _scaled(c: Fraction, rows) -> list:
    """The term rows with every V* row multiplied by c."""
    if not c:
        return []
    return [(v, {k: c * val for k, val in w.items()}) for v, w in rows]


# ---------------------------------------------------------------------------
# stabilizer membership
# ---------------------------------------------------------------------------


def _maps_into(x: FinitaryElement, source: Subspace, target: Subspace) -> bool:
    """Whether x . source is contained in target (same side as source).

    x = sum_t v_t (x) w_t sends u in V to sum_t <u, w_t> v_t and y in V* to
    -sum_t <v_t, y> w_t.  So x . source is the image of the span C in Q^r
    of the pairing rows (<u, w_t>)_t, resp. (<v_t, y>)_t, of the vectors of
    source under c -> sum_t c_t v_t, resp. -sum_t c_t w_t (the sign does not
    change membership).  Past the support of the pairing partners w_t,
    resp. v_t, a basis vector's row depends only on the augmentation rows,
    which are eventually periodic, so the aligned indices of one
    stabilization window plus the corrections span C; when no partner has
    augmentation coordinates, only the aligned indices in their supports
    give nonzero rows.  One image per echelon row of C decides the test: at
    most r = len(x.terms) membership tests.
    """
    model = x.model
    if source.side == SIDE_V:
        aug_rows = [aug.row for aug in model.w_augs]
        partners = [w for _, w in x.terms]
        images = [v for v, _ in x._rows]
        row_of = lambda u: [pair(u, w) for w in partners]
    else:
        aug_rows = [aug.row for aug in model.v_augs]
        partners = [v for v, _ in x.terms]
        images = [w for _, w in x._rows]
        row_of = lambda y: [pair(v, y) for v in partners]
    aligned = source.aligned
    if any(any(c.augs) for c in partners):
        support = max(c.support_bound() for c in partners)
        n_star, p_star = stabilization_window([aligned, support] + aug_rows)
        indices = aligned.members_below(n_star + p_star)
    else:
        aug_rows = []
        indices = {i for c in partners for i in c.basis if aligned.member(i)}

    def rows():
        for i in indices:
            tails = [row.value(i) for row in aug_rows]
            row = {}
            for t, c in enumerate(partners):
                val = c.basis.get(i, QZERO)
                for a, tail in zip(c.augs, tails):
                    if a:
                        val += a * tail
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
    for coeffs in span.rows():
        image: dict = {}
        for t, c in coeffs.items():
            axpy(image, c, images[t])
        if target._reduce_row(image):
            return False
    return True


def in_stabilizer(x: FinitaryElement, flag) -> bool:
    """Whether x stabilizes every subspace of the flag.

    A finite flag is stabilized when x maps each of its members into itself,
    which `_maps_into` decides in coordinates: the span of the pairing rows
    of the member against the terms of x, read off one stabilization window
    of aligned indices plus the corrections, and at most one membership test
    per term.  The verdict is kept on x for this flag object, so later
    questions about x and the same flag cost a lookup.  Basis-order flags
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
    entries: dict = {}
    for v, w in x.terms:
        for i, a in v.basis.items():
            for j, b in w.basis.items():
                val = entries.get((i, j), QZERO) + a * b
                entries[(i, j)] = val
    return all(flag.leq(i, j) for (i, j), val in entries.items() if val)


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


@dataclass
class BlockComponent:
    """Image of an element in one diagonal block of the joint stabilizer."""

    f_pair: int
    g_pair: int
    terms: tuple  # (class representative in F''/F', class representative in G''/G')
    trace: Fraction


def _chain_component(chain_pred: Subspace, chain_succ: Subspace, row: dict) -> Vector:
    """Component of the sparse row in the pivot-rule complement of pred
    inside succ."""
    out = chain_pred._reduce_row(row)
    axpy(out, Fraction(-1), chain_succ._reduce_row(row))
    return Vector.from_sparse(chain_pred.model, chain_pred.side, out)


def block_component(x: FinitaryElement, t: TautCouple, gamma: int) -> BlockComponent:
    """Block image and trace of x at the gamma-th matched pair.

    The complement decomposition uses the canonical reduction residuals of
    the chain; the induced trace does not depend on that choice.
    """
    if not 0 <= gamma < len(t.c_pairs):
        raise ValueError(f"gamma {gamma} is outside 0..{len(t.c_pairs) - 1}")
    if not in_joint_stabilizer(x, t):
        raise NotInJointStabilizer("element is outside the joint stabilizer")
    return _block_component_unchecked(x, t, gamma)


def _block_component_unchecked(x, t, gamma):
    fi, gj = t.c_pairs[gamma]
    f_pred, f_succ = t.f_pair(fi)
    g_pred, g_succ = t.g_pair(gj)
    terms = []
    total = QZERO
    for v, w in x._rows:
        vbar = _chain_component(f_pred, f_succ, v)
        if vbar.is_zero():
            continue
        wbar = _chain_component(g_pred, g_succ, w)
        if not wbar.is_zero():
            terms.append((vbar, wbar))
            total += pair(vbar, wbar)
    return BlockComponent(fi, gj, tuple(terms), total)


def block_trace(x: FinitaryElement, t: TautCouple, gamma: int) -> Fraction:
    return block_component(x, t, gamma).trace


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
            if _block_component_unchecked(x, t, gamma).trace:
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
            _block_component_unchecked(x, self.couple, g).trace
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


def flip(x: FinitaryElement) -> FinitaryElement:
    """The tensor-swap v (x) w -> w (x) v through the form identification."""
    return FinitaryElement(
        x.model, [(form_to_v(w), form_to_vstar(v)) for v, w in x.terms]
    )


_FORM_OF_KIND = {"so": "symmetric", "sp": "antisymmetric"}


def in_algebra_of_form(x: FinitaryElement, kind: str) -> bool:
    if kind == "so":
        return flip(x).add(x).is_zero()
    if kind == "sp":
        return flip(x).sub(x).is_zero()
    raise ValueError(f"unknown algebra kind {kind!r}")


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
