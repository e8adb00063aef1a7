"""Computable model of countable-dimensional paired spaces V x V* -> Q.

The model has standard dual bases e_i of V and f_j of V* with <e_i, f_j> =
delta_ij, optionally extended by finitely many augmentation generators on
either side whose pairing rows against the opposite standard basis are
eventually periodic sequences.  A nondegenerate symmetric or antisymmetric
form identifying V* with V can be declared through an index involution.

Subspaces are stored in a canonical form: an eventually periodic aligned
index set S (the subspace contains e_i for every i in S) plus finitely many
correction vectors in reduced echelon form whose basis support avoids S.
This class is closed under sum and intersection, and under annihilators
whenever the annihilator is representable at all; `perp` certifies
representability exactly and raises NotRepresentable otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .epcore import EpSeq, EpSet, stabilization_window
from .exactnum import CheckFailed, Echelon, Matrix, axpy, kernel, rat, row_space_basis

SIDE_V = "V"
SIDE_W = "V*"

QZERO = Fraction(0)


class SideMismatch(ValueError):
    pass


class ModelMismatch(ValueError):
    pass


class DegeneratePairing(ValueError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"pairing is degenerate, witness {witness}")


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
    cross: tuple[tuple[Fraction, ...], ...] = ()
    form_kind: str = "none"  # none | symmetric | antisymmetric
    iota: tuple[IotaPiece, ...] = ()

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

    def form_sign(self, j: int) -> Fraction:
        if self.form_kind == "symmetric":
            return Fraction(1)
        if self.form_kind == "antisymmetric":
            return Fraction(1) if j > self.iota_of(j) else Fraction(-1)
        raise NoFormOnModel("model carries no form")

    def augs(self, side: str) -> tuple[Augmentation, ...]:
        return self.v_augs if side == SIDE_V else self.w_augs

    def cross_value(self, v_idx: int, w_idx: int) -> Fraction:
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
    """Finitely supported vector: basis coordinates plus augmentation part."""

    __slots__ = ("model", "side", "basis", "augs")

    def __init__(self, model: PairedSpaceModel, side: str, basis=None, augs=None):
        if side not in (SIDE_V, SIDE_W):
            raise SideMismatch(f"unknown side {side!r}")
        self.model = model
        self.side = side
        self.basis = {int(i): rat(v) for i, v in (basis or {}).items() if rat(v)}
        n_aug = len(model.augs(side))
        augs = tuple(rat(v) for v in (augs or ()))
        if len(augs) < n_aug:
            augs = augs + (QZERO,) * (n_aug - len(augs))
        if len(augs) != n_aug:
            raise ValueError("augmentation part has the wrong length")
        self.augs = augs

    @staticmethod
    def basis_vector(model, side, i: int) -> "Vector":
        return Vector(model, side, {i: 1})

    @staticmethod
    def aug_vector(model, side, k: int) -> "Vector":
        n_aug = len(model.augs(side))
        return Vector(model, side, {}, tuple(1 if j == k else 0 for j in range(n_aug)))

    @staticmethod
    def zero(model, side) -> "Vector":
        return Vector(model, side)

    def is_zero(self) -> bool:
        return not self.basis and not any(self.augs)

    def support_bound(self) -> int:
        return 1 + max(self.basis) if self.basis else 0

    def add(self, other: "Vector") -> "Vector":
        self._check_compatible(other)
        basis = dict(self.basis)
        for i, v in other.basis.items():
            basis[i] = basis.get(i, QZERO) + v
        augs = tuple(a + b for a, b in zip(self.augs, other.augs))
        return Vector(self.model, self.side, basis, augs)

    def scale(self, c) -> "Vector":
        c = rat(c)
        return Vector(
            self.model,
            self.side,
            {i: c * v for i, v in self.basis.items()},
            tuple(c * v for v in self.augs),
        )

    def sub(self, other: "Vector") -> "Vector":
        return self.add(other.scale(-1))

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

    def _check_compatible(self, other: "Vector"):
        if self.side != other.side:
            raise SideMismatch("vectors live on different sides")
        if self.model != other.model:
            raise ModelMismatch("vectors belong to different models")

    # sparse-key form used by the subspace calculus: augmentation
    # coordinates sort before basis coordinates
    def to_sparse(self) -> dict:
        row = {(0, k): v for k, v in enumerate(self.augs) if v}
        row.update({(1, i): v for i, v in self.basis.items()})
        return row

    @staticmethod
    def from_sparse(model, side, row: dict) -> "Vector":
        n_aug = len(model.augs(side))
        augs = [QZERO] * n_aug
        basis = {}
        for (tag, idx), v in row.items():
            if tag == 0:
                augs[idx] = v
            else:
                basis[idx] = v
        return Vector(model, side, basis, tuple(augs))


def pair(v: Vector, g: Vector) -> Fraction:
    """Exact pairing <v, g> with v on the V side and g on the V* side."""
    if v.side != SIDE_V or g.side != SIDE_W:
        raise SideMismatch("pair() wants (V, V*) arguments")
    if v.model != g.model:
        raise ModelMismatch("vectors belong to different models")
    model = v.model
    total = QZERO
    for i, a in v.basis.items():
        b = g.basis.get(i)
        if b:
            total += a * b
        for l, d in enumerate(g.augs):
            if d:
                total += a * d * model.w_augs[l].row.value(i)
    for k, u in enumerate(v.augs):
        if u:
            for j, c in g.basis.items():
                if c:
                    total += u * c * model.v_augs[k].row.value(j)
            for l, d in enumerate(g.augs):
                if d:
                    total += u * d * model.cross_value(k, l)
    return total


class Subspace:
    """Canonical subspace of V or V*: aligned EpSet plus corrections."""

    __slots__ = ("model", "side", "aligned", "corrections", "_echelon")

    def __init__(self, model, side, aligned: EpSet, corrections: tuple):
        self.model = model
        self.side = side
        self.aligned = aligned
        self.corrections = corrections
        self._echelon = None  # of the corrections, built on first reduction

    @staticmethod
    def span(model, side, aligned: EpSet = None, gens=()) -> "Subspace":
        """Canonicalize the span of aligned basis vectors and generators."""
        aligned = aligned if aligned is not None else EpSet.empty()
        rows = [g.to_sparse() for g in gens]
        while True:
            rows = Echelon(
                {k: v for k, v in row.items() if not (k[0] == 1 and aligned.member(k[1]))}
                for row in rows
            ).rows()
            absorbed = [
                row for row in rows if len(row) == 1 and next(iter(row))[0] == 1
            ]
            if not absorbed:
                break
            aligned = aligned.union(
                EpSet.finite({next(iter(row))[1] for row in absorbed})
            )
            rows = [row for row in rows if row not in absorbed]
        corr = tuple(Vector.from_sparse(model, side, row) for row in rows)
        return Subspace(model, side, aligned, corr)

    @staticmethod
    def zero(model, side) -> "Subspace":
        return Subspace(model, side, EpSet.empty(), ())

    @staticmethod
    def full(model, side) -> "Subspace":
        gens = [
            Vector.aug_vector(model, side, k) for k in range(len(model.augs(side)))
        ]
        return Subspace.span(model, side, EpSet.naturals(), gens)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.side == other.side
            and self.aligned == other.aligned
            and self.corrections == other.corrections
        )

    def __hash__(self):
        return hash((self.side, self.aligned, self.corrections))

    def __repr__(self):
        return (
            f"Subspace({self.side}, aligned={self.aligned}, "
            f"{len(self.corrections)} corrections)"
        )

    def is_zero(self) -> bool:
        return self.aligned.is_empty() and not self.corrections

    def is_full(self) -> bool:
        return self == Subspace.full(self.model, self.side)

    def dim(self):
        """Dimension, None when infinite."""
        size = self.aligned.size()
        if size is None:
            return None
        return size + len(self.corrections)

    def residual(self, v: Vector) -> Vector:
        """Reduction of v modulo this subspace under the canonical pivot rule."""
        return Vector.from_sparse(self.model, self.side, self._reduce(v))

    def member(self, v: Vector) -> bool:
        return not self._reduce(v)

    def _reduce(self, v: Vector) -> dict:
        """Sparse residual of v: aligned coordinates dropped, then reduced
        against the corrections."""
        if v.side != self.side:
            raise SideMismatch("vector and subspace sides differ")
        if v.model != self.model:
            raise ModelMismatch("vector and subspace models differ")
        if self._echelon is None:
            self._echelon = Echelon(c.to_sparse() for c in self.corrections)
        row = {
            k: val
            for k, val in v.to_sparse().items()
            if not (k[0] == 1 and self.aligned.member(k[1]))
        }
        return self._echelon.reduce(row)

    def contains(self, other: "Subspace") -> bool:
        if self.side != other.side:
            raise SideMismatch("subspace sides differ")
        if not other.aligned.is_subset(self.aligned):
            return False
        return all(self.member(c) for c in other.corrections)

    def sum(self, other: "Subspace") -> "Subspace":
        self._check(other)
        return Subspace.span(
            self.model,
            self.side,
            self.aligned.union(other.aligned),
            self.corrections + other.corrections,
        )

    def intersection(self, other: "Subspace") -> "Subspace":
        self._check(other)
        common = self.aligned.intersection(other.aligned)
        cut = max(
            self.aligned.threshold,
            other.aligned.threshold,
            *(c.support_bound() for c in self.corrections + other.corrections),
            1,
        )
        gens_a = self._finite_generators(cut)
        gens_b = other._finite_generators(cut)
        keys = sorted(set().union(*(g.keys() for g in gens_a + gens_b)) or set())
        if gens_a and gens_b and keys:
            cols = [[g.get(k, QZERO) for g in gens_a] + [-g.get(k, QZERO) for g in gens_b]
                    for k in keys]
            mixed = kernel(Matrix(cols))
            meet_rows = []
            for lam in mixed:
                row: dict = {}
                for coeff, g in zip(lam[: len(gens_a)], gens_a):
                    if coeff:
                        axpy(row, coeff, g)
                meet_rows.append(row)
            gens = [
                Vector.from_sparse(self.model, self.side, row)
                for row in meet_rows
                if row
            ]
        else:
            gens = []
        result = Subspace.span(self.model, self.side, common, gens)
        if not (self.contains(result) and other.contains(result)):
            raise CheckFailed("intersection is not inside both subspaces", (self, other))
        return result

    def _finite_generators(self, cut: int) -> list[dict]:
        gens = [c.to_sparse() for c in self.corrections]
        gens += [{(1, i): Fraction(1)} for i in self.aligned.members_below(cut)]
        return gens

    def _check(self, other: "Subspace"):
        if self.side != other.side:
            raise SideMismatch("subspace sides differ")
        if self.model != other.model:
            raise ModelMismatch("subspace models differ")


def perp(a: Subspace) -> Subspace:
    """Exact annihilator on the opposite side.

    Raises NotRepresentable when the annihilator has an infinite-dimensional
    part that contains no aligned basis vectors (this can only happen when a
    correction carries augmentation coordinates whose pairing tail does not
    vanish off the aligned set).
    """
    model = a.model
    out_side = other_side(a.side)
    out_rows = [aug.row for aug in model.augs(out_side)]
    in_rows = [aug.row for aug in model.augs(a.side)]

    def cross_val(out_idx: int, in_idx: int) -> Fraction:
        if out_side == SIDE_V:
            return model.cross_value(out_idx, in_idx)
        return model.cross_value(in_idx, out_idx)

    s = a.aligned
    corr = [(c.to_sparse(), c.augs) for c in a.corrections]
    support = max((c.support_bound() for c in a.corrections), default=0)
    n_star, p_star = stabilization_window([s] + out_rows + in_rows)
    cut = max(n_star, support)

    # representability: tails of augmented corrections must vanish off s
    for r in range(p_star):
        j = cut + ((r - cut) % p_star)
        if not s.member(j):
            for _, u in corr:
                tail = sum((uk * row.value(j) for uk, row in zip(u, in_rows)), QZERO)
                if tail:
                    raise NotRepresentable(
                        "annihilator is not an aligned-plus-corrections subspace"
                    )

    n_out = len(out_rows)
    free_cols = [j for j in range(cut) if not s.member(j)]
    col_of = {j: n_out + idx for idx, j in enumerate(free_cols)}
    width = n_out + len(free_cols)
    eqs = []
    for i in range(cut, cut + p_star):
        if s.member(i) and n_out:
            row = [out_rows[k].value(i) for k in range(n_out)] + [QZERO] * len(free_cols)
            eqs.append(row)
    s_below = s.members_below(cut)
    for x, u in corr:
        row = [QZERO] * width
        for k in range(n_out):
            acc = QZERO
            for (tag, j), xv in x.items():
                if tag == 1:
                    acc += xv * out_rows[k].value(j)
            for l, ul in enumerate(u):
                if ul:
                    acc += ul * cross_val(k, l)
            if u and any(u):
                for j in s_below:
                    tau = sum(
                        (ul * in_rows[l].value(j) for l, ul in enumerate(u)), QZERO
                    )
                    if tau:
                        acc -= tau * out_rows[k].value(j)
            row[k] = acc
        for j in free_cols:
            val = x.get((1, j), QZERO)
            val += sum((ul * in_rows[l].value(j) for l, ul in enumerate(u)), QZERO)
            row[col_of[j]] = val
        eqs.append(row)

    if width:
        mat = Matrix(eqs) if eqs else Matrix([[QZERO] * width])
        solutions = kernel(mat)
    else:
        solutions = []
    gens = []
    for z in solutions:
        d = z[:n_out]
        basis = {j: z[col_of[j]] for j in free_cols if z[col_of[j]]}
        for j in s_below:
            val = -sum((dk * out_rows[k].value(j) for k, dk in enumerate(d)), QZERO)
            if val:
                basis[j] = val
        gens.append(Vector(model, out_side, basis, tuple(d)))
    tail = s.complement().intersection(EpSet.from_bound(cut))
    return Subspace.span(model, out_side, tail, gens)


def closure(a: Subspace) -> Subspace:
    return perp(perp(a))


def is_closed(a: Subspace) -> bool:
    return closure(a) == a


def member(v: Vector, a: Subspace) -> bool:
    return a.member(v)


def contains(a: Subspace, b: Subspace) -> bool:
    return a.contains(b)


# ---------------------------------------------------------------------------
# forms: V* identified with V through iota
# ---------------------------------------------------------------------------


def form_to_vstar(v: Vector) -> Vector:
    """phi(v): the functional <., v> of the declared form, as a V* vector."""
    model = v.model
    if model.form_kind == "none":
        raise NoFormOnModel("model carries no form")
    if v.side != SIDE_V:
        raise SideMismatch("form_to_vstar wants a V-side vector")
    basis = {}
    for j, c in v.basis.items():
        basis[model.iota_of(j)] = c * model.form_sign(j)
    return Vector(model, SIDE_W, basis)


def form_to_v(g: Vector) -> Vector:
    """Inverse of form_to_vstar."""
    model = g.model
    if model.form_kind == "none":
        raise NoFormOnModel("model carries no form")
    if g.side != SIDE_W:
        raise SideMismatch("form_to_v wants a V*-side vector")
    basis = {}
    for j, c in g.basis.items():
        i = model.iota_of(j)
        basis[i] = c * model.form_sign(i)
    return Vector(model, SIDE_V, basis)


def form_value(u: Vector, v: Vector) -> Fraction:
    """<u, v> under the declared form on V."""
    return pair(u, form_to_vstar(v))


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
    gens = [form_to_vstar(c) for c in a.corrections]
    return Subspace.span(model, SIDE_W, image, gens)


def form_perp(a: Subspace) -> Subspace:
    """Annihilator inside V of a V-side subspace, through the form."""
    return perp(form_map_subspace(a))


# ---------------------------------------------------------------------------
# model validation and truncation
# ---------------------------------------------------------------------------


@dataclass
class ModelReport:
    valid: bool
    radical_v: Subspace
    radical_w: Subspace


def validate_model(model: PairedSpaceModel, raise_on_failure: bool = True) -> ModelReport:
    """Check nondegeneracy of the pairing on both sides.

    The degeneracy radical on either side is exactly the annihilator of the
    full opposite space, which the subspace calculus computes directly.
    """
    rad_v = perp(Subspace.full(model, SIDE_W))
    rad_w = perp(Subspace.full(model, SIDE_V))
    valid = rad_v.is_zero() and rad_w.is_zero()
    report = ModelReport(valid, rad_v, rad_w)
    if not valid and raise_on_failure:
        bad = rad_v if not rad_v.is_zero() else rad_w
        if bad.corrections:
            witness = bad.corrections[0]
        else:
            side = bad.side
            witness = Vector.basis_vector(model, side, bad.aligned.min_member())
        raise DegeneratePairing(witness)
    return report


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
        kernel(pairing.transpose()),
        kernel(pairing),
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


def truncate(obj, n: int):
    """Dispatch: model, vector, or subspace truncation at level n."""
    if isinstance(obj, PairedSpaceModel):
        return truncate_model(obj, n)
    if isinstance(obj, Vector):
        return truncate_vector(obj, n)
    if isinstance(obj, Subspace):
        return truncate_subspace(obj, n)
    raise TypeError(f"cannot truncate {obj!r}")
