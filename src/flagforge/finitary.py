"""Finite-rank operators on the paired model and their membership calculi.

An element of gl(V, V*) is a finite sum of rank-one tensors v (x) w.  The
module decides membership in flag stabilizers, joint stabilizers of taut
couples, their linear nilradicals, the trace-zero subalgebras sitting under
a joint stabilizer, and the orthogonal/symplectic variants obtained through
a form on the model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .epcore import stabilization_window
from .exactnum import CheckFailed, Echelon, Matrix, axpy, rat
from .genflag import (
    BasisOrderFlag,
    FinitePairFlag,
    TautCouple,
    collapsed_couple,
    quotient_dim,
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
    truncate_vector,
)

QZERO = Fraction(0)


class NotInJointStabilizer(ValueError):
    pass


class WrongFormKind(ValueError):
    pass


class FinitaryElement:
    """Finite-rank operator, canonicalized so the left tensor factors are
    linearly independent."""

    __slots__ = ("model", "terms")

    def __init__(self, model, terms=()):
        self.model = model
        rows = []
        echelon = Echelon()
        for v, w in terms:
            if v.side != SIDE_V or w.side != SIDE_W:
                raise SideMismatch("terms must be (V, V*) pairs")
            if v.model != model or w.model != model:
                raise ModelMismatch("term vectors from a different model")
            row = v.to_sparse()
            echelon.add(row)
            rows.append((row, w.to_sparse()))
        # v_t = sum_p v_t[p] b_p over the reduced echelon basis b_p of the
        # v_t, so sum_t v_t (x) w_t = sum_p b_p (x) (sum_t v_t[p] w_t)
        out = []
        for p, b in zip(echelon.pivots, echelon.rows()):
            payload: dict = {}
            for row, w in rows:
                c = row.get(p)
                if c:
                    axpy(payload, c, w)
            if payload:
                v = Vector.from_sparse(model, SIDE_V, b)
                out.append((v, Vector.from_sparse(model, SIDE_W, payload)))
        self.terms = tuple(out)

    @staticmethod
    def zero(model) -> "FinitaryElement":
        return FinitaryElement(model)

    @staticmethod
    def rank_one(v: Vector, w: Vector) -> "FinitaryElement":
        return FinitaryElement(v.model, [(v, w)])

    def is_zero(self) -> bool:
        return not self.terms

    def add(self, other) -> "FinitaryElement":
        self._check(other)
        return FinitaryElement(self.model, self.terms + other.terms)

    def scale(self, c) -> "FinitaryElement":
        c = rat(c)
        return FinitaryElement(
            self.model, [(v.scale(c), w) for v, w in self.terms]
        )

    def sub(self, other) -> "FinitaryElement":
        return self.add(other.scale(-1))

    def compose(self, other) -> "FinitaryElement":
        """Associative product: (v (x) w)(v' (x) w') = <v', w> v (x) w'."""
        self._check(other)
        terms = []
        for v, w in self.terms:
            for v2, w2 in other.terms:
                c = pair(v2, w)
                if c:
                    terms.append((v.scale(c), w2))
        return FinitaryElement(self.model, terms)

    def bracket(self, other) -> "FinitaryElement":
        return self.compose(other).sub(other.compose(self))

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
        if self.model != other.model:
            raise ModelMismatch("elements from different models")


# ---------------------------------------------------------------------------
# stabilizer membership
# ---------------------------------------------------------------------------


def _maps_into(x: FinitaryElement, source: Subspace, target: Subspace) -> bool:
    """Whether x . source is contained in target (same side as source)."""
    model = x.model
    if source.side == SIDE_V:
        rows = [aug.row for aug in model.w_augs]
        coeff_vecs = [w for _, w in x.terms]
        act = x.act_on_v
        basis_vec = lambda i: Vector.basis_vector(model, SIDE_V, i)
    else:
        rows = [aug.row for aug in model.v_augs]
        coeff_vecs = [v for v, _ in x.terms]
        act = x.act_on_vstar
        basis_vec = lambda j: Vector.basis_vector(model, SIDE_W, j)
    support = max((c.support_bound() for c in coeff_vecs), default=0)
    n_star, p_star = stabilization_window([source.aligned, support] + rows)
    for i in source.aligned.members_below(n_star + p_star):
        if not target.member(act(basis_vec(i))):
            return False
    for corr in source.corrections:
        if not target.member(act(corr)):
            return False
    return True


def in_stabilizer(x: FinitaryElement, flag) -> bool:
    """Whether x stabilizes every subspace of the flag.

    Finite flags are checked by sampling the aligned part over one
    stabilization window (the image coefficients are eventually periodic in
    the basis index) plus the finitely many corrections.  Basis-order flags
    reduce to the support comparator test.
    """
    if isinstance(flag, BasisOrderFlag):
        return _in_basis_flag_stabilizer(x, flag)
    if not isinstance(flag, FinitePairFlag):
        raise TypeError(f"cannot test stabilizer membership against {flag!r}")
    if x.model != flag.model:
        raise ModelMismatch("element and flag from different models")
    for member in flag.chain[1:-1]:
        if not _maps_into(x, member, member):
            return False
    return True


def _in_basis_flag_stabilizer(x: FinitaryElement, flag: BasisOrderFlag) -> bool:
    if x.model != flag.model:
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

    def is_zero(self) -> bool:
        return all(v.is_zero() or w.is_zero() for v, w in self.terms)


def _chain_component(chain_pred: Subspace, chain_succ: Subspace, v: Vector) -> Vector:
    """Component of v in the pivot-rule complement of pred inside succ."""
    return chain_pred.residual(v).sub(chain_succ.residual(v))


def block_component(x: FinitaryElement, t: TautCouple, gamma: int) -> BlockComponent:
    """Block image and trace of x at the gamma-th matched pair.

    The complement decomposition uses the canonical reduction residuals of
    the chain; the induced trace does not depend on that choice.
    """
    if not in_joint_stabilizer(x, t):
        raise NotInJointStabilizer("element is outside the joint stabilizer")
    return _block_component_unchecked(x, t, gamma)


def _block_component_unchecked(x, t, gamma):
    fi, gj = t.c_pairs[gamma]
    f_pred, f_succ = t.f_pair(fi)
    g_pred, g_succ = t.g_pair(gj)
    terms = []
    total = QZERO
    for v, w in x.terms:
        vbar = _chain_component(f_pred, f_succ, v)
        wbar = _chain_component(g_pred, g_succ, w)
        if not vbar.is_zero() and not wbar.is_zero():
            terms.append((vbar, wbar))
            total += pair(vbar, wbar)
    return BlockComponent(fi, gj, tuple(terms), total)


def block_trace(x: FinitaryElement, t: TautCouple, gamma: int) -> Fraction:
    return block_component(x, t, gamma).trace


def block_matrix(x: FinitaryElement, t: TautCouple, gamma: int) -> Matrix:
    """Matrix of the induced quotient operator, finite blocks only."""
    comp = block_component(x, t, gamma)
    fi = comp.f_pair
    f_pred, f_succ = t.f_pair(fi)
    dim = quotient_dim(f_pred, f_succ)
    if dim == math.inf:
        raise ValueError("block has an infinite-dimensional quotient")
    model = x.model
    gap = f_succ.aligned.difference(f_pred.aligned)
    cands = [
        Vector.basis_vector(model, SIDE_V, i)
        for i in gap.members_below(gap.threshold)
    ] + list(f_succ.corrections)
    # quotient basis: the reduced echelon basis of the residuals modulo pred
    quotient = Echelon(f_pred.residual(c).to_sparse() for c in cands)
    cols = []
    for row in quotient.rows():
        image = f_pred.residual(x.act_on_v(Vector.from_sparse(model, SIDE_V, row)))
        coords = quotient.coords(image.to_sparse())
        if coords is None:
            raise CheckFailed("image left the block span", image)
        cols.append(coords)
    return Matrix.from_rows(list(map(list, zip(*cols)))) if cols else Matrix([])


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
        if quotient_dim(*t.f_pair(fi)) == math.inf:
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
            if quotient_dim(*couple.f_pair(fi)) != math.inf
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


def tc_member(x: FinitaryElement, s: TraceConditionSubalgebra) -> bool:
    return s.member(x)


def normalizer_test(x: FinitaryElement, t: TautCouple) -> bool:
    """x normalizes the minus subalgebra iff x lies in the joint stabilizer."""
    return in_joint_stabilizer(x, t)


def normalizer_bracket_probe(x: FinitaryElement, t: TautCouple, battery=None) -> bool:
    """Cross-check mode: bracket x against a battery of minus-subalgebra
    generators and test that every bracket lands in the joint stabilizer."""
    if battery is None:
        battery = minus_generator_battery(t)
    return all(in_joint_stabilizer(x.bracket(y), t) for y in battery)


def _pair_of_basis(flag: FinitePairFlag, side_vector: Vector) -> int:
    for idx in range(flag.n_pairs()):
        if flag.chain[idx + 1].member(side_vector):
            return idx
    raise ValueError("vector not captured by the flag")


def minus_generator_battery(t: TautCouple):
    """Aligned rank-one generators of the minus subalgebra over one window:
    strictly placed tensors plus traceless diagonal differences."""
    from .genflag import pair_leq, pair_order

    model = t.model
    rows = [aug.row for aug in model.v_augs] + [aug.row for aug in model.w_augs]
    sets = [s.aligned for s in t.f_flag.chain + t.g_flag.chain]
    n_star, p_star = stabilization_window(rows + sets)
    bound = n_star + 2 * p_star
    battery = []
    v_pairs = {}
    w_pairs = {}
    for i in range(bound):
        ei = Vector.basis_vector(model, SIDE_V, i)
        fj = Vector.basis_vector(model, SIDE_W, i)
        v_pairs[i] = _pair_of_basis(t.f_flag, ei)
        w_pairs[i] = _pair_of_basis(t.g_flag, fj)
    for i in range(bound):
        for j in range(bound):
            a, b = v_pairs[i], w_pairs[j]
            if pair_order(t, a, b):
                battery.append(
                    FinitaryElement.rank_one(
                        Vector.basis_vector(model, SIDE_V, i),
                        Vector.basis_vector(model, SIDE_W, j),
                    )
                )
    diag = {}
    for i in range(bound):
        if (v_pairs[i], w_pairs[i]) in t.c_pairs and pair(
            Vector.basis_vector(model, SIDE_V, i),
            Vector.basis_vector(model, SIDE_W, i),
        ):
            diag.setdefault((v_pairs[i], w_pairs[i]), []).append(i)
    for indices in diag.values():
        for i, j in zip(indices, indices[1:]):
            eii = FinitaryElement.rank_one(
                Vector.basis_vector(model, SIDE_V, i),
                Vector.basis_vector(model, SIDE_W, i),
            )
            ejj = FinitaryElement.rank_one(
                Vector.basis_vector(model, SIDE_V, j),
                Vector.basis_vector(model, SIDE_W, j),
            )
            battery.append(eii.sub(ejj))
    return battery


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


def lambda_map(x: FinitaryElement) -> FinitaryElement:
    """Antisymmetrization landing in so(V) (symmetric form)."""
    return x.sub(flip(x))


def s_map(x: FinitaryElement) -> FinitaryElement:
    """Symmetrization landing in sp(V) (antisymmetric form)."""
    return x.add(flip(x))


_FORM_OF_KIND = {"so": "symmetric", "sp": "antisymmetric"}


def in_algebra_of_form(x: FinitaryElement, kind: str) -> bool:
    if kind == "so":
        return flip(x).add(x).is_zero()
    if kind == "sp":
        return flip(x).sub(x).is_zero()
    raise ValueError(f"unknown algebra kind {kind!r}")


def self_taut_couple(f: FinitePairFlag) -> TautCouple:
    """The taut couple (f, phi(f)) of a self-taut flag under the form."""
    from .genflag import make_taut_couple
    from .pairedspace import form_map_subspace

    model = f.model
    if model.form_kind == "none":
        raise NoFormOnModel("model carries no form")
    g_chain = tuple(form_map_subspace(s) for s in f.chain)
    g = FinitePairFlag(model, SIDE_W, g_chain)
    return make_taut_couple(f, g)


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


# ---------------------------------------------------------------------------
# truncation of elements to finite operator matrices
# ---------------------------------------------------------------------------


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
