"""JSON decoding for the values of a session file, and encoding for the
values a report holds: rationals, subspaces and matrices.

A session names flags as chains of subspaces and couples by the names of
their two flags, so both are read in `cli.Session`, not here.

Rationals serialize as strings "p/q" (just "p" when the denominator is 1),
and only these spellings, or a JSON integer, read back.  A basis index is
an object key spelled as a decimal integer >= 0 with no leading zero.  All
index I/O is 0-based.  Decoding validates shapes and raises ValueError
with a readable message on malformed input.
"""

from __future__ import annotations

import re

from .epcore import EpSeq, EpSet
from .exactnum import Matrix, div, format_rational
from .finitary import FinitaryElement, TraceConditionSubalgebra
from .finoracle import FdLieAlgebra
from .genflag import (
    FINITE,
    OMEGA_DOWN,
    OMEGA_UP,
    BasisOrderFlag,
    Block,
)
from .pairedspace import (
    Augmentation,
    IotaPiece,
    PairedSpaceModel,
    SideMismatch,
    Subspace,
    Vector,
)


_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
_INDEX = re.compile(r"0|[1-9][0-9]*")


def rational_to_json(x) -> str:
    return format_rational(x)


def rational_from_json(s):
    if type(s) is int:
        return s
    if isinstance(s, str) and (m := _RATIONAL.fullmatch(s)):
        num, den = m.groups()
        if den is None:
            return int(num)
        if not int(den):
            raise ValueError(f"zero denominator in {s!r}")
        return div(int(num), int(den))
    raise ValueError(f"expected a rational 'p' or 'p/q', got {s!r}")


def _index_from_json(key) -> int:
    """A basis index: an object key spelled as a decimal integer >= 0."""
    if not (isinstance(key, str) and _INDEX.fullmatch(key)):
        raise ValueError(f"malformed basis index {key!r}")
    return int(key)


def int_from_json(x, name: str) -> int:
    """A JSON integer; a bool, a float or a string is malformed input."""
    if type(x) is not int:
        raise ValueError(f"{name} must be an integer, got {x!r}")
    return x


def epset_to_json(s: EpSet) -> dict:
    return {
        "threshold": s.threshold,
        "period": s.period,
        "pre": sorted(s.pre),
        "residues": sorted(s.residues),
    }


def epset_from_json(d: dict) -> EpSet:
    return EpSet.make(
        int_from_json(d.get("threshold", 0), "threshold"),
        int_from_json(d.get("period", 1), "period"),
        [int_from_json(i, "pre") for i in d.get("pre", ())],
        [int_from_json(r, "residues") for r in d.get("residues", ())],
    )


def epseq_from_json(d: dict) -> EpSeq:
    return EpSeq.make(
        [rational_from_json(v) for v in d.get("pre", [])],
        [rational_from_json(v) for v in d.get("repeat", [1])],
    )


def model_from_json(d: dict) -> PairedSpaceModel:
    v_augs = tuple(Augmentation(epseq_from_json(a)) for a in d.get("v_augs", []))
    w_augs = tuple(Augmentation(epseq_from_json(a)) for a in d.get("w_augs", []))
    cross = tuple(
        tuple(rational_from_json(v) for v in row) for row in d.get("cross", [])
    )
    if not cross and v_augs:
        cross = tuple(tuple() for _ in v_augs)
    iota = tuple(
        IotaPiece(epset_from_json(p["indices"]), int_from_json(p["offset"], "offset"))
        for p in d.get("iota", [])
    )
    return PairedSpaceModel(
        v_augs=v_augs,
        w_augs=w_augs,
        cross=cross,
        form_kind=d.get("form_kind", "none"),
        iota=iota,
    )


def vector_to_json(v: Vector) -> dict:
    return {
        "side": v.side,
        "basis": {str(i): rational_to_json(c) for i, c in sorted(v.basis.items())},
        "augs": [rational_to_json(c) for c in v.augs],
    }


def vector_from_json(model, d: dict) -> Vector:
    basis = {_index_from_json(i): rational_from_json(c) for i, c in d.get("basis", {}).items()}
    return Vector(
        model, d["side"], basis, tuple(rational_from_json(c) for c in d.get("augs", []))
    )


def subspace_to_json(s: Subspace) -> dict:
    return {
        "side": s.side,
        "aligned": epset_to_json(s.aligned),
        "corrections": [
            vector_to_json(Vector.from_sparse(s.model, s.side, c)) for c in s.corrections
        ],
    }


def subspace_from_json(model, d: dict) -> Subspace:
    side = d["side"]
    gens = [vector_from_json(model, c) for c in d.get("corrections", [])]
    if any(v.side != side for v in gens):
        raise SideMismatch(f"a correction of a {side} subspace lies on the other side")
    rows = [v.to_sparse() for v in gens]
    return Subspace.span(model, side, epset_from_json(d.get("aligned", {})), rows)


def basis_flag_from_json(model, d: dict) -> BasisOrderFlag:
    blocks = []
    for blk in d.get("blocks", []):
        kind = blk["kind"]
        if kind == FINITE:
            blocks.append(
                Block(FINITE, points=tuple(tuple(pt) for pt in blk["points"]))
            )
        elif kind in (OMEGA_UP, OMEGA_DOWN):
            blocks.append(Block(kind, indices=epset_from_json(blk["indices"])))
        else:
            raise ValueError(f"unknown block kind {kind!r}")
    return BasisOrderFlag(model, tuple(blocks))


def element_from_json(model, d: dict) -> FinitaryElement:
    terms = [
        (vector_from_json(model, v), vector_from_json(model, w))
        for v, w in d.get("terms", [])
    ]
    return FinitaryElement(model, terms)


def matrix_to_json(m: Matrix) -> list:
    return [[rational_to_json(v) for v in row] for row in m.entries]


def matrix_from_json(rows) -> Matrix:
    return Matrix([[rational_from_json(v) for v in row] for row in rows])


def algebra_from_json(d: dict) -> FdLieAlgebra:
    return FdLieAlgebra(int_from_json(d["n"], "n"), [matrix_from_json(b) for b in d.get("basis", [])])


def tc_from_json(couple, d: dict) -> TraceConditionSubalgebra:
    return TraceConditionSubalgebra(
        couple,
        d.get("ambient", "gl"),
        [[rational_from_json(v) for v in row] for row in d.get("constraints", [])],
    )
