"""Generalized flags, closedness predicates, taut couples.

Finite flags are strictly increasing chains of canonical subspaces running
from 0 to the full space; a pair is a consecutive (predecessor, successor)
entry.  Flags with infinitely many pairs are supported in pure-basis form
only (BasisOrderFlag), as an ordered list of blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cmp_to_key

from .epcore import EpSet
from .exactnum import QONE, Echelon
from .pairedspace import (
    SIDE_V,
    SIDE_W,
    ModelMismatch,
    SideMismatch,
    Subspace,
    closure,
    form_perp,
    is_closed,
    perp,
)


class NotAChain(ValueError):
    def __init__(self, a, b):
        self.witness = (a, b)
        super().__init__("subspaces are not totally ordered by inclusion")


class NotTaut(ValueError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"perp of {witness!r} is not an element of the partner flag")


class NotSemiclosed(ValueError):
    pass


class FinitePairFlag:
    """Strictly increasing chain 0 = C_0 < C_1 < ... < C_k = full space.

    Must not be mutated after construction: its classification and its
    self-taut couple are cached on the object, outside equality and hashing."""

    __slots__ = ("model", "side", "chain", "_self_taut", "_classification")

    def __init__(self, model, side, chain: tuple[Subspace, ...]):
        self.model = model
        self.side = side
        self.chain = chain
        self._self_taut = None  # finitary.self_taut_couple, cached on first use
        self._classification = None  # classify_flag(self), cached on first use

    @property
    def pairs(self):
        return [(self.chain[i], self.chain[i + 1]) for i in range(len(self.chain) - 1)]

    def n_pairs(self) -> int:
        return len(self.chain) - 1

    def __eq__(self, other):
        return (
            isinstance(other, FinitePairFlag)
            and self.side == other.side
            and self.chain == other.chain
        )

    def __hash__(self):
        return hash((self.side, self.chain))

    def __repr__(self):
        dims = [s.dim() if s.dim() is not None else "inf" for s in self.chain]
        return f"FinitePairFlag({self.side}, dims {dims})"


def flag_from_chain(model, side, chain) -> FinitePairFlag:
    """Deduplicate, order by inclusion, complete with 0 and the full space."""
    subs = []
    for s in chain:
        if s.side != side:
            raise SideMismatch("chain member on the wrong side")
        if s.model != model:
            raise ModelMismatch("chain member from a different model")
        if s not in subs:
            subs.append(s)
    zero = Subspace.zero(model, side)
    full = Subspace.full(model, side)
    for endpoint in (zero, full):
        if endpoint not in subs:
            subs.append(endpoint)

    def cmp(a, b):
        if a == b:
            return 0
        if b.contains(a):
            return -1
        if a.contains(b):
            return 1
        raise NotAChain(a, b)

    subs.sort(key=cmp_to_key(cmp))
    return FinitePairFlag(model, side, tuple(subs))


@dataclass(frozen=True)
class FlagClassification:
    """The closedness predicates of a flag, computed once per flag object
    by `classify_flag`.  `member_closed` says, for each chain member in
    order, whether it equals its closure: the taut-couple check, `fc_flag`
    and the self-taut report read it from here."""

    semiclosed: bool
    closed: bool
    maximal_semiclosed: bool
    pair_closures: tuple  # per pair: ("closed" | "dense" | "neither")
    member_closed: tuple  # per chain member: closure(member) == member


def quotient_basis(pred: Subspace, succ: Subspace):
    """Reduced echelon basis of succ / pred, for pred inside succ: the
    residues modulo pred of the generators of succ, as sparse (tag, idx)
    rows.  None when the quotient is infinite-dimensional."""
    gap = succ.aligned.difference(pred.aligned)
    if not gap.is_finite():
        return None
    rows = [{(1, i): QONE} for i in sorted(gap.pre)]
    rows += succ.corrections
    return Echelon(pred._reduce_row(row) for row in rows)


def quotient_dim(pred: Subspace, succ: Subspace):
    """dim(succ / pred); math.inf for infinite quotients."""
    quotient = quotient_basis(pred, succ)
    return math.inf if quotient is None else len(quotient.pivots)


def classify_flag(f: FinitePairFlag) -> FlagClassification:
    """The closedness predicates of f, computed once per flag object."""
    if f._classification is None:
        f._classification = _classify(f)
    return f._classification


def _classify(f: FinitePairFlag) -> FlagClassification:
    member_closed = tuple(map(is_closed, f.chain))
    kinds = []
    maximal = True
    for closed, (pred, succ) in zip(member_closed, f.pairs):
        if closed:
            kinds.append("closed")
            maximal = maximal and quotient_dim(pred, succ) == 1
        else:
            kinds.append("dense" if closure(pred) == succ else "neither")
    semiclosed = "neither" not in kinds
    return FlagClassification(
        semiclosed,
        semiclosed and all(member_closed[1:]),
        semiclosed and maximal,
        tuple(kinds),
        member_closed,
    )


class TautCouple:
    """Validated taut couple of semiclosed flags in V and V*.

    `f_perp[i]` is the index in g of perp of the i-th member of f; the pair
    order and the matched closed pairs `c_pairs` are read off it."""

    __slots__ = ("f_flag", "g_flag", "f_perp", "c_pairs", "_collapsed", "_quotient_dims")

    def __init__(self, f_flag, g_flag, f_perp, c_pairs):
        self.f_flag = f_flag
        self.g_flag = g_flag
        self.f_perp = f_perp
        self.c_pairs = c_pairs
        self._collapsed = None
        self._quotient_dims: dict = {}

    @property
    def model(self):
        return self.f_flag.model

    def f_pair(self, i):
        return self.f_flag.chain[i], self.f_flag.chain[i + 1]

    def g_pair(self, j):
        return self.g_flag.chain[j], self.g_flag.chain[j + 1]

    def f_quotient_dim(self, i):
        """quotient_dim of the i-th f-pair, computed once per couple."""
        if i not in self._quotient_dims:
            self._quotient_dims[i] = quotient_dim(*self.f_pair(i))
        return self._quotient_dims[i]

    def __repr__(self):
        return (
            f"TautCouple({self.f_flag.n_pairs()} x {self.g_flag.n_pairs()} pairs, "
            f"C of size {len(self.c_pairs)})"
        )


def make_taut_couple(f: FinitePairFlag, g: FinitePairFlag) -> TautCouple:
    """Validate tautness and compute the matched closed-predecessor pairs.

    Both flags must be semiclosed, and perp must send every member of each
    flag to a member of the other.  The matching then needs no check of its
    own.  Write P for perp: it reverses inclusion and P(P(P(a))) = P(a), so
    every P(a) is closed, P is injective on closed subspaces, and a closed
    subspace containing a contains P(P(a)).  Let pred = C_i be closed and
    succ = C_(i+1) its successor in f, and G_j = P(succ).

    1. P(pred) is a member of g strictly containing G_j (were they equal,
       succ would lie in P(P(pred)) = pred).  So G_j is not the last
       member of g, P(pred) contains G_(j+1), and pred lies in P(G_(j+1)).
    2. P(G_(j+1)) is a closed member of f strictly inside P(G_j) =
       P(P(succ)) (were they equal, G_(j+1) would lie in P(P(G_(j+1))) =
       G_j).  So it does not contain succ and lies in pred; with 1,
       P(G_(j+1)) = pred.
    3. By 2, distinct closed pairs of f have distinct predecessors
       P(G_(j+1)), so no pair of g is matched twice; by 1 and 2 with f and
       g exchanged, every closed pair (G_j, G_(j+1)) of g is the match of
       the closed pair of f whose predecessor is P(G_(j+1)).

    Nondegeneracy is not used: on a degenerate side 0 is not closed, and
    nothing above needs it to be.  Neither does P(s) = 0 or P(s) = the
    full space need a rule of its own: every flag the package builds
    (`flag_from_chain`, `fc_flag`, `self_taut_couple`) is a strictly
    increasing chain holding the full space, which is always closed, and 0
    whenever 0 is closed, so such a P(s), being closed, is a member.
    """
    if f.side != SIDE_V or g.side != SIDE_W:
        raise SideMismatch("taut couple wants flags in V and V*")
    if f.model != g.model:
        raise ModelMismatch("flags from different models")
    for flag in (f, g):
        if not classify_flag(flag).semiclosed:
            raise NotSemiclosed(f"{flag!r} is not semiclosed")
    for flag, partner in ((f, g), (g, f)):
        for s in flag.chain:
            if perp(s) not in partner.chain:
                raise NotTaut(s)
    g_index = {s: j for j, s in enumerate(g.chain)}
    f_perp = tuple(g_index[perp(s)] for s in f.chain)
    f_closed = classify_flag(f).member_closed
    c_pairs = tuple((i, f_perp[i + 1]) for i in range(f.n_pairs()) if f_closed[i])
    return TautCouple(f, g, f_perp, c_pairs)


def pair_order(t: TautCouple, alpha: int, beta: int) -> bool:
    """Whether alpha < beta, for alpha an f-pair index and beta a g-pair
    index: whether F''_alpha = F_(alpha+1) pairs to zero with G''_beta =
    G_(beta+1).

    That holds exactly when G_(beta+1) lies in perp(F_(alpha+1)), which is
    G_k for k = f_perp[alpha + 1] by tautness.  The g-chain is strictly
    increasing and totally ordered, so G_(beta+1) <= G_k exactly when
    beta + 1 <= k."""
    return beta < t.f_perp[alpha + 1]


def pair_leq(t: TautCouple, alpha: int, beta: int) -> bool:
    return (alpha, beta) in t.c_pairs or pair_order(t, alpha, beta)


def fc_flag(f: FinitePairFlag) -> FinitePairFlag:
    """Collapse every dense pair: non-closed members drop out, leaving the
    maximal closed flag inside f.  A closed f is returned as it is, with
    whatever is cached on it."""
    cls = classify_flag(f)
    for idx, closed in enumerate(cls.member_closed):
        if not closed and (idx == f.n_pairs() or cls.pair_closures[idx] != "dense"):
            raise NotSemiclosed("non-closed member whose closure is not its successor")
    if all(cls.member_closed):
        return f
    kept = tuple(s for s, closed in zip(f.chain, cls.member_closed) if closed)
    return FinitePairFlag(f.model, f.side, kept)


def collapsed_couple(t: TautCouple) -> TautCouple:
    """The taut couple of the collapsed flags, cached on the couple."""
    if t._collapsed is None:
        t._collapsed = make_taut_couple(fc_flag(t.f_flag), fc_flag(t.g_flag))
    return t._collapsed


@dataclass
class SelfTautReport:
    self_taut: bool
    tags: tuple  # per chain member: "isotropic" | "coisotropic" | "both"
    iso_bijection: tuple  # (isotropic pair idx, coisotropic pair idx) matches


def self_taut_and_iso(f: FinitePairFlag) -> SelfTautReport:
    """Self-tautness and the isotropic/coisotropic structure under the form.

    Write P for `form_perp` and phi for the form map V -> V*.  The model is
    pure-basis, so phi is a bijection with <v, phi(w)> = B(v, w) =
    +-B(w, v); hence P(a) = perp(phi(a)) = phi^-1(perp(a)), P(P(a)) =
    closure(a), and P has the laws of perp used in `make_taut_couple`.  B
    is nondegenerate, so P(full) = 0: 0 is closed, hence a member like the
    full space (`make_taut_couple`), and when f is self-taut P sends every
    member to a member.  P(s) is the full space only for s <= P(full) = 0.

    The bijection maps each closed pair i whose successor C_(i+1) is
    isotropic (C_(i+1) <= P(C_(i+1))) to j, the position of P(C_(i+1)).
    It needs no check of its own:

    1. C_(i+1) is not 0, so P(C_(i+1)), which contains it, is a nonzero
       member, and it is not the full space, which is the last member; so
       j is a pair index.
    2. `make_taut_couple`'s proof with g = f and perp replaced by P: the
       pair j is closed, P(C_(j+1)) = C_i, so i -> j is injective, and every
       closed pair j' is the image of the closed pair i' with C_(i') =
       P(C_(j'+1)), for which P(C_(i'+1)) = C_(j').
    3. The image is the set of closed pairs whose predecessor is
       coisotropic (P(C_j) <= C_j): C_j = P(C_(i+1)) is closed and contains
       C_(i+1), so it contains P(P(C_(i+1))) = P(C_j); conversely, for such
       a j' and its i' of 2, C_(i'+1) <= P(P(C_(i'+1))) = P(C_(j')) <=
       C_(j') = P(C_(i'+1)), so C_(i'+1) is isotropic.
    """
    model = f.model
    if model.form_kind == "none":
        from .pairedspace import NoFormOnModel

        raise NoFormOnModel("self-tautness needs a form on the model")
    perps = [form_perp(s) for s in f.chain]  # by chain position
    self_taut = True
    tags = []
    for s, p in zip(f.chain, perps):
        if not p.is_zero() and not p.is_full() and p not in f.chain:
            self_taut = False
        iso = p.contains(s)
        coiso = s.contains(p)
        tags.append("both" if iso and coiso else "isotropic" if iso else
                    "coisotropic" if coiso else "neither")
    bijection = ()
    if self_taut:
        closed = classify_flag(f).member_closed
        index = {s: i for i, s in enumerate(f.chain)}
        bijection = tuple(
            (i, index[perps[i + 1]])
            for i in range(f.n_pairs())
            if closed[i] and perps[i + 1].contains(f.chain[i + 1])
        )
    return SelfTautReport(self_taut, tuple(tags), bijection)


# ---------------------------------------------------------------------------
# basis-order flags: maximal closed flags compatible with the standard basis
# ---------------------------------------------------------------------------


FINITE = "finite"
OMEGA_UP = "omega_up"
OMEGA_DOWN = "omega_down"


@dataclass(frozen=True)
class Block:
    kind: str
    points: tuple = ()  # for finite blocks: tuple of index tuples
    indices: EpSet = None  # for omega blocks

    def index_set(self) -> EpSet:
        if self.kind == FINITE:
            return EpSet.finite({i for pt in self.points for i in pt})
        return self.indices


class BasisOrderFlag:
    """Ordered blocks partitioning the basis index set of a pure-basis model."""

    __slots__ = ("model", "blocks")

    def __init__(self, model, blocks: tuple[Block, ...]):
        if model.v_augs or model.w_augs:
            raise ValueError("basis-order flags need a pure-basis model")
        union = EpSet.empty()
        for b in blocks:
            s = b.index_set()
            if b.kind in (OMEGA_UP, OMEGA_DOWN) and s.is_finite():
                raise ValueError("omega blocks must have infinitely many indices")
            if not union.intersection(s).is_empty():
                raise ValueError("blocks overlap")
            union = union.union(s)
        if union != EpSet.naturals():
            raise ValueError("blocks must partition the index set")
        self.model = model
        self.blocks = blocks

    def position(self, i: int):
        for b_idx, b in enumerate(self.blocks):
            if b.kind == FINITE:
                for p_idx, pt in enumerate(b.points):
                    if i in pt:
                        return (b_idx, p_idx)
            elif b.indices.member(i):
                rank = i if b.kind == OMEGA_UP else -i
                return (b_idx, rank)
        raise ValueError(f"index {i} not placed")

    def leq(self, i: int, j: int) -> bool:
        return self.position(i) <= self.position(j)

    def is_maximal_closed(self) -> bool:
        return all(
            len(pt) == 1
            for b in self.blocks
            if b.kind == FINITE
            for pt in b.points
        )
