"""Seeded random generators for subspace rows and stabilizer elements.

Used by the truncation-coherence checks and by the test batteries.  All
randomness flows through an explicit random.Random instance, so results are
reproducible from a seed.  Vectors are sparse (tag, idx) rows, and elements
are built from row terms.
"""

from __future__ import annotations

import math

from .exactnum import QONE, axpy
from .finitary import FinitaryElement
from .genflag import TautCouple, pair_leq, pair_order
from .pairedspace import Subspace


def random_row_in(sub: Subspace, rng, bound: int = 10) -> dict:
    """Random sparse row of the subspace: aligned sample plus corrections."""
    row: dict = {}
    for i in sub.aligned.members_below(bound):
        if rng.random() < 0.35:
            row[1, i] = rng.randrange(-2, 3) or 1
    for c in sub.corrections:
        if rng.random() < 0.5:
            axpy(row, rng.randrange(-2, 3) or 1, c)
    if not row and not sub.is_zero():
        i = sub.aligned.min_member()
        if i is not None:
            row = {(1, i): QONE}
        elif sub.corrections:
            row = dict(sub.corrections[0])
    return row


def _placed_terms(t: TautCouple, rng, placed, terms: int) -> list:
    """(v, w) row terms with v in F''_a and w in G''_b for random pairs
    (a, b) with placed(t, a, b).  The predicates read only the couple's
    chain positions, so the list of such pairs is rebuilt on every call."""
    f_pairs, g_pairs = range(t.f_flag.n_pairs()), range(t.g_flag.n_pairs())
    placements = [(a, b) for a in f_pairs for b in g_pairs if placed(t, a, b)]
    out = []
    for _ in range(terms if placements else 0):
        a, b = rng.choice(placements)
        v = random_row_in(t.f_flag.chain[a + 1], rng)
        w = random_row_in(t.g_flag.chain[b + 1], rng)
        if v and w:
            out.append((v, w))
    return out


def sample_pplus(t: TautCouple, rng, terms: int = 2) -> FinitaryElement:
    """Random joint-stabilizer element built from its tensor description."""
    return FinitaryElement._of(t.model, _placed_terms(t, rng, pair_leq, terms))


def sample_nilradical(t: TautCouple, rng, terms: int = 2) -> FinitaryElement:
    """Random nilradical element: strictly placed tensors."""
    return FinitaryElement._of(t.model, _placed_terms(t, rng, pair_order, terms))


def _diagonal_units(t: TautCouple, gamma: int, want: int = 2, bound: int = 60) -> list:
    """Indices i whose rank-one unit e_i (x) f_i has block trace 1 in the
    gamma-th block."""
    fi, gj = t.c_pairs[gamma]
    f_pred, f_succ = t.f_pair(fi)
    g_pred, g_succ = t.g_pair(gj)
    found = []
    for i in range(bound):
        unit = {(1, i): QONE}
        if (
            not f_succ._reduce_row(unit)
            and f_pred._reduce_row(unit)
            and not g_succ._reduce_row(unit)
            and g_pred._reduce_row(unit)
        ):
            found.append(i)
            if len(found) == want:
                break
    return found


def sample_pminus(t: TautCouple, rng, ambient: str = "gl", terms: int = 2):
    """Random minus-subalgebra element: nilradical part plus block-traceless
    diagonal parts (finite blocks unrestricted for ambient gl)."""
    out = _placed_terms(t, rng, pair_order, terms)
    for gamma, (fi, _) in enumerate(t.c_pairs):
        if rng.random() < 0.6:
            continue
        units = _diagonal_units(t, gamma)
        if not units:
            continue
        infinite = t.f_quotient_dim(fi) == math.inf
        if infinite or ambient == "sl":
            if len(units) == 2:
                i, j = units
                out += [({(1, i): QONE}, {(1, i): QONE}), ({(1, j): -QONE}, {(1, j): QONE})]
        else:
            i = units[0]
            out.append(({(1, i): rng.randrange(1, 3)}, {(1, i): QONE}))
    return FinitaryElement._of(t.model, out)


def random_element(model, rng, terms: int = 2, bound: int = 8) -> FinitaryElement:
    """Unconstrained random finite-rank element."""
    out = []
    for _ in range(terms):
        v = {(1, rng.randrange(bound)): rng.randrange(-2, 3) or 1 for _ in range(2)}
        w = {(1, rng.randrange(bound)): rng.randrange(-2, 3) or 1 for _ in range(2)}
        out.append((v, w))
    return FinitaryElement._of(model, out)
