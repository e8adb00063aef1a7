"""Computable model of countable-dimensional paired spaces V x V* -> Q.

The model has standard dual bases e_i of V and f_j of V* with <e_i, f_j> =
delta_ij, optionally extended by finitely many augmentation generators on
either side whose pairing rows against the opposite standard basis are
eventually periodic sequences.  A nondegenerate symmetric or antisymmetric
form identifying V* with V can be declared through an index involution.

Inside the package a vector of either side is a sparse row {(tag, idx):
rational}: (0, k) is the k-th augmentation generator and (1, i) the i-th
basis vector, so augmentation coordinates sort first.  `Vector` is the
value that crosses the boundary: what a caller hands in and reads out, as
`exactnum.Matrix` is for the oracle.  `to_sparse` and `from_sparse`
convert.

Subspaces are stored in a canonical form: an eventually periodic aligned
index set S (the subspace contains e_i for every i in S) plus the reduced
echelon basis (`Subspace.echelon`) of finitely many correction rows whose
basis support avoids S.  The module offers spans (`Subspace.span`),
inclusion (`contains`), residues modulo a subspace (`_reduce_row`) and
annihilators (`perp`, `closure`); `perp` certifies that the annihilator is
again such a subspace and raises NotRepresentable otherwise.

`perp` computes each annihilator once per value per model: the result is
kept on the subspace it is asked about and in a table on the model object,
keyed by the subspace's value, so equal subspaces rebuilt later (flag
endpoints, perp(perp(x)) landing on a copy of a partner-flag member) reuse
it.  Equal models built separately are different objects with their own
tables, which die with the model.  Subspaces, and the correction rows they
hand out, must therefore not be mutated after construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .epcore import EpSeq, EpSet, stabilization_window
from .exactnum import QONE, QZERO, Echelon, kernel, rat

SIDE_V = "V"
SIDE_W = "V*"


class SideMismatch(ValueError):
    pass


class ModelMismatch(ValueError):
    pass


class NotRepresentable(ValueError):
    """The exact annihilator falls outside the aligned-plus-corrections class."""


class NoFormOnModel(ValueError):
    pass


@dataclass(frozen=True)
class Augmentation:
    """One augmentation generator, given by its pairing row against the
    opposite side's standard basis."""

    row: EpSeq


@dataclass(frozen=True)
class IotaPiece:
    indices: EpSet
    offset: int


@dataclass(frozen=True)
class PairedSpaceModel:
    v_augs: tuple[Augmentation, ...] = ()
    w_augs: tuple[Augmentation, ...] = ()
    cross: tuple[tuple, ...] = ()
    form_kind: str = "none"  # none | symmetric | antisymmetric
    iota: tuple[IotaPiece, ...] = ()
    # perp by the value (side, aligned, corrections) of the subspace asked
    # about; outside equality, hashing and repr
    _perps: dict = field(default_factory=dict, compare=False, hash=False, repr=False)

    def __post_init__(self):
        if len(self.cross) != len(self.v_augs) or any(
            len(row) != len(self.w_augs) for row in self.cross
        ):
            raise ValueError("cross table shape must be len(v_augs) x len(w_augs)")
        if self.form_kind not in ("none", "symmetric", "antisymmetric"):
            raise ValueError(f"unknown form kind {self.form_kind!r}")
        if self.form_kind != "none":
            if self.v_augs or self.w_augs:
                raise NoFormOnModel("forms are only supported on pure-basis models")
            self._validate_iota()

    def _validate_iota(self):
        pieces = [p.indices for p in self.iota]
        union = EpSet.empty()
        for s in pieces:
            if not union.intersection(s).is_empty():
                raise ValueError("iota pieces overlap")
            union = union.union(s)
        if union != EpSet.naturals():
            raise ValueError("iota pieces must partition the index set")
        n_star, p_star = stabilization_window(pieces)
        for i in range(n_star + 2 * p_star):
            j = self.iota_of(i)
            if j < 0 or self.iota_of(j) != i:
                raise ValueError("iota is not an involution")
            if self.form_kind == "antisymmetric" and j == i:
                raise ValueError("antisymmetric form cannot fix an index")

    def iota_of(self, i: int) -> int:
        for piece in self.iota:
            if piece.indices.member(i):
                return i + piece.offset
        raise ValueError(f"index {i} not covered by iota")

    def form_sign(self, j: int) -> int:
        if self.form_kind == "symmetric":
            return 1
        if self.form_kind == "antisymmetric":
            return 1 if j > self.iota_of(j) else -1
        raise NoFormOnModel("model carries no form")

    def augs(self, side: str) -> tuple[Augmentation, ...]:
        return self.v_augs if side == SIDE_V else self.w_augs

    def cross_value(self, v_idx: int, w_idx: int):
        return self.cross[v_idx][w_idx]


def plain_model() -> PairedSpaceModel:
    return PairedSpaceModel()


def dense_line_model() -> PairedSpaceModel:
    """V extended by one vector pairing to 1 with every dual basis vector."""
    return PairedSpaceModel(
        v_augs=(Augmentation(EpSeq.constant(1)),), cross=((),)
    )


def split_form_model(kind: str) -> PairedSpaceModel:
    """Pure-basis model with iota swapping 2i and 2i+1."""
    evens = EpSet.from_residues(2, (0,))
    odds = EpSet.from_residues(2, (1,))
    return PairedSpaceModel(
        form_kind=kind,
        iota=(IotaPiece(evens, 1), IotaPiece(odds, -1)),
    )


def other_side(side: str) -> str:
    return SIDE_W if side == SIDE_V else SIDE_V


class Vector:
    """Finitely supported vector: basis coordinates plus augmentation part.

    The boundary value of the model, which callers hand in and read out;
    everything inside runs on the sparse rows of `to_sparse`."""

    __slots__ = ("model", "side", "basis", "augs")

    def __init__(self, model: PairedSpaceModel, side: str, basis=None, augs=None):
        if side not in (SIDE_V, SIDE_W):
            raise SideMismatch(f"unknown side {side!r}")
        self.model = model
        self.side = side
        self.basis = {int(i): c for i, v in (basis or {}).items() if (c := rat(v))}
        n_aug = len(model.augs(side))
        augs = tuple(rat(v) for v in (augs or ()))
        if len(augs) < n_aug:
            augs = augs + (QZERO,) * (n_aug - len(augs))
        if len(augs) != n_aug:
            raise ValueError("augmentation part has the wrong length")
        self.augs = augs

    @staticmethod
    def _of(model, side, basis: dict, augs: tuple) -> "Vector":
        """Internal constructor on parts already in canonical form: rational
        values, no zero basis entry, augs of the model's length."""
        v = object.__new__(Vector)
        v.model, v.side, v.basis, v.augs = model, side, basis, augs
        return v

    def __eq__(self, other):
        return (
            isinstance(other, Vector)
            and self.side == other.side
            and self.basis == other.basis
            and self.augs == other.augs
        )

    def __hash__(self):
        return hash((self.side, tuple(sorted(self.basis.items())), self.augs))

    def __repr__(self):
        sym = "e" if self.side == SIDE_V else "f"
        parts = [f"{v}*{sym}{i}" for i, v in sorted(self.basis.items())]
        parts += [f"{v}*aug{k}" for k, v in enumerate(self.augs) if v]
        return f"Vector({self.side}: {' + '.join(parts) or '0'})"

    def to_sparse(self) -> dict:
        """The sparse (tag, idx) row of the vector."""
        row = {(0, k): v for k, v in enumerate(self.augs) if v}
        row.update({(1, i): v for i, v in self.basis.items()})
        return row

    @staticmethod
    def from_sparse(model, side, row: dict) -> "Vector":
        """The vector of a sparse row with rational values; zeros are dropped."""
        augs = [QZERO] * len(model.augs(side))
        basis = {}
        for (tag, idx), v in row.items():
            if tag == 0:
                augs[idx] = v
            elif v:
                basis[idx] = v
        return Vector._of(model, side, basis, tuple(augs))


def row_support(row: dict) -> int:
    """One past the largest basis index of a sparse row, 0 when it has none."""
    return 1 + max((i for tag, i in row if tag), default=-1)


def pair_rows(model: PairedSpaceModel, v: dict, w: dict):
    """Exact pairing <v, w> of a sparse V row v and a sparse V* row w of the
    model: basis against basis, an augmentation coordinate of either side
    against the other side's basis through its pairing row, and the two
    augmentation parts through the cross table."""
    total = QZERO
    w_augs = [(l, d) for (tag, l), d in w.items() if not tag]
    for (tag, i), a in v.items():
        if tag:
            b = w.get((1, i))
            if b:
                total += a * b
            for l, d in w_augs:
                total += a * d * model.w_augs[l].row.value(i)
        else:
            for (tag_w, j), c in w.items():
                if tag_w:
                    total += a * c * model.v_augs[i].row.value(j)
                else:
                    total += a * c * model.cross_value(i, j)
    return total


class Subspace:
    """Canonical subspace of V or V*: aligned EpSet plus the reduced echelon
    basis `echelon` of the correction rows.

    Must not be mutated after construction, nor may the rows it hands out:
    they are the echelon's own dicts, and `perp(self)` is cached on the
    object and on the model by its value."""

    __slots__ = ("model", "side", "aligned", "echelon", "_perp")

    def __init__(self, model, side, aligned: EpSet, echelon: Echelon):
        self.model = model
        self.side = side
        self.aligned = aligned
        self.echelon = echelon
        self._perp = None  # perp(self), computed on first request

    @staticmethod
    def span(model, side, aligned: EpSet = None, gens=()) -> "Subspace":
        """Canonicalize the span of aligned basis vectors and generators,
        given as sparse (tag, idx) rows with rational values."""
        if side not in (SIDE_V, SIDE_W):
            raise SideMismatch(f"unknown side {side!r}")
        aligned = aligned if aligned is not None else EpSet.empty()
        rows = gens
        while True:
            echelon = Echelon(
                {k: v for k, v in row.items() if not (k[0] == 1 and aligned.member(k[1]))}
                for row in rows
            )
            rows = echelon.rows()
            absorbed = [
                row for row in rows if len(row) == 1 and next(iter(row))[0] == 1
            ]
            if not absorbed:
                return Subspace(model, side, aligned, echelon)
            aligned = aligned.union(
                EpSet.finite({next(iter(row))[1] for row in absorbed})
            )
            rows = [row for row in rows if row not in absorbed]

    @staticmethod
    def zero(model, side) -> "Subspace":
        return Subspace(model, side, EpSet.empty(), Echelon())

    @staticmethod
    def full(model, side) -> "Subspace":
        gens = [{(0, k): QONE} for k in range(len(model.augs(side)))]
        return Subspace.span(model, side, EpSet.naturals(), gens)

    @property
    def corrections(self) -> list[dict]:
        """The correction rows in pivot order: read them, do not change them."""
        return self.echelon.rows()

    def _key(self) -> tuple:
        """The value of the subspace, hashable, for `__hash__` and `perp`."""
        return (
            self.side,
            self.aligned,
            tuple(frozenset(row.items()) for row in self.echelon.rows()),
        )

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.side == other.side
            and self.aligned == other.aligned
            and self.echelon.rows() == other.echelon.rows()
        )

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (
            f"Subspace({self.side}, aligned={self.aligned}, "
            f"{len(self.echelon.pivots)} corrections)"
        )

    def is_zero(self) -> bool:
        return self.aligned.is_empty() and not self.echelon.pivots

    def is_full(self) -> bool:
        return self == Subspace.full(self.model, self.side)

    def dim(self):
        """Dimension, None when infinite."""
        size = self.aligned.size()
        if size is None:
            return None
        return size + len(self.echelon.pivots)

    def _reduce_row(self, row: dict) -> dict:
        """Sparse residual of a sparse row of this side and model, as a new
        dict: aligned coordinates dropped, then reduced against the
        corrections."""
        member = self.aligned.member
        row = {k: val for k, val in row.items() if not (k[0] == 1 and member(k[1]))}
        if not self.echelon.pivots:
            return row
        return self.echelon.reduce(row)

    def contains(self, other: "Subspace") -> bool:
        if self.side != other.side:
            raise SideMismatch("subspace sides differ")
        if not other.aligned.is_subset(self.aligned):
            return False
        return not any(map(self._reduce_row, other.corrections))


def perp(a: Subspace) -> Subspace:
    """Exact annihilator on the opposite side, computed once per value per
    model: cached on `a`, and on `a.model` by the value of `a`.

    Raises NotRepresentable when the annihilator has an infinite-dimensional
    part that contains no aligned basis vectors (this can only happen when a
    correction carries augmentation coordinates whose pairing tail does not
    vanish off the aligned set); a raise is not cached.
    """
    if a._perp is None:
        key = a._key()
        found = a.model._perps.get(key)
        if found is None:
            found = a.model._perps[key] = _annihilator(a)
        a._perp = found
    return a._perp


def _annihilator(a: Subspace) -> Subspace:
    model = a.model
    out_side = other_side(a.side)
    out_rows = [aug.row for aug in model.augs(out_side)]
    in_rows = [aug.row for aug in model.augs(a.side)]

    def out_pairing(k: int, tag: int, i: int):
        """The pairing of the k-th out augmentation with coordinate (tag, i)."""
        if tag:
            return out_rows[k].value(i)
        return model.cross_value(k, i) if out_side == SIDE_V else model.cross_value(i, k)

    s = a.aligned
    corrections = a.corrections
    support = max(map(row_support, corrections), default=0)
    n_star, p_star = stabilization_window([s] + out_rows + in_rows)
    cut = max(n_star, support)

    def aug_part(c: dict, j: int):
        """The pairing of c's augmentation part with the j-th out basis vector."""
        return sum((u * in_rows[l].value(j) for (tag, l), u in c.items() if not tag), QZERO)

    # representability: tails of augmented corrections must vanish off s
    for r in range(p_star):
        j = cut + ((r - cut) % p_star)
        if not s.member(j):
            for c in corrections:
                if aug_part(c, j):
                    raise NotRepresentable(
                        "annihilator is not an aligned-plus-corrections subspace"
                    )

    # one equation system in y = sum_j y_j f_j + sum_k d_k g_k on the out
    # side: column k is d_k, column n_out + j is y_j for j < cut (coordinates
    # from cut on are 0 on s and spanned by the tail off it)
    n_out = len(out_rows)
    eqs = []
    for i in s.members_below(cut + p_star):  # <e_i, y> = 0
        row = {k: out_rows[k].value(i) for k in range(n_out)}
        if i < cut:
            row[n_out + i] = QONE
        eqs.append(row)
    for c in corrections:  # <c, y> = 0
        row = {}
        for k in range(n_out):
            row[k] = sum((x * out_pairing(k, *key) for key, x in c.items()), QZERO)
        for j in range(cut):
            row[n_out + j] = c.get((1, j), QZERO) + aug_part(c, j)
        eqs.append(row)

    gens = [
        {((1, col - n_out) if col >= n_out else (0, col)): v for col, v in z.items()}
        for z in kernel(eqs, n_out + cut)
    ]
    tail = s.complement().intersection(EpSet.from_bound(cut))
    return Subspace.span(model, out_side, tail, gens)


def closure(a: Subspace) -> Subspace:
    return perp(perp(a))


def is_closed(a: Subspace) -> bool:
    return closure(a) == a


# ---------------------------------------------------------------------------
# forms: V* identified with V through iota
# ---------------------------------------------------------------------------


def form_map_subspace(a: Subspace) -> Subspace:
    """Image of a V-side subspace under the form identification, in V*."""
    model = a.model
    if model.form_kind == "none":
        raise NoFormOnModel("model carries no form")
    if a.side != SIDE_V:
        raise SideMismatch("expects a V-side subspace")
    pieces = [
        a.aligned.intersection(p.indices).shift(p.offset) for p in model.iota
    ]
    image = EpSet.empty()
    for s in pieces:
        image = image.union(s)
    # phi(e_j) = s(j) f_iota(j); form models are pure-basis
    gens = [
        {(1, model.iota_of(j)): c * model.form_sign(j) for (_, j), c in row.items()}
        for row in a.corrections
    ]
    return Subspace.span(model, SIDE_W, image, gens)


def form_perp(a: Subspace) -> Subspace:
    """Annihilator inside V of a V-side subspace, through the form."""
    return perp(form_map_subspace(a))


# ---------------------------------------------------------------------------
# model validation
# ---------------------------------------------------------------------------


@dataclass
class ModelReport:
    valid: bool
    radical_v: Subspace
    radical_w: Subspace


def validate_model(model: PairedSpaceModel) -> ModelReport:
    """Check nondegeneracy of the pairing on both sides.

    The degeneracy radical on either side is exactly the annihilator of the
    full opposite space, which the subspace calculus computes directly; the
    report carries both radicals, so a degenerate model's witnesses are
    their vectors.
    """
    rad_v = perp(Subspace.full(model, SIDE_W))
    rad_w = perp(Subspace.full(model, SIDE_V))
    return ModelReport(rad_v.is_zero() and rad_w.is_zero(), rad_v, rad_w)
