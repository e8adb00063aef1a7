"""Seeded random generators for subspace vectors and stabilizer elements.

Used by the truncation-coherence checks and by the test batteries.  All
randomness flows through an explicit random.Random instance, so results are
reproducible from a seed.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .finitary import FinitaryElement
from .genflag import TautCouple, pair_leq, pair_order
from .pairedspace import SIDE_V, SIDE_W, Subspace, Vector

F = Fraction


def random_vector_in(sub: Subspace, rng, bound: int = 10) -> Vector:
    """Random element of the subspace: aligned sample plus corrections."""
    v = Vector.zero(sub.model, sub.side)
    for i in sub.aligned.members_below(bound):
        if rng.random() < 0.35:
            v = v.add(
                Vector.basis_vector(sub.model, sub.side, i).scale(
                    rng.randrange(-2, 3) or 1
                )
            )
    for c in sub.corrections:
        if rng.random() < 0.5:
            v = v.add(c.scale(rng.randrange(-2, 3) or 1))
    if v.is_zero() and not sub.is_zero():
        i = sub.aligned.min_member()
        if i is not None:
            v = Vector.basis_vector(sub.model, sub.side, i)
        elif sub.corrections:
            v = sub.corrections[0]
    return v


def _placed_terms(t: TautCouple, rng, placed, terms: int) -> list:
    """(v, w) tensor terms with v in F''_a and w in G''_b for random pairs
    (a, b) with placed(t, a, b).  The predicates read only the couple's
    chain positions, so the list of such pairs is rebuilt on every call."""
    f_pairs, g_pairs = range(t.f_flag.n_pairs()), range(t.g_flag.n_pairs())
    placements = [(a, b) for a in f_pairs for b in g_pairs if placed(t, a, b)]
    out = []
    for _ in range(terms if placements else 0):
        a, b = rng.choice(placements)
        v = random_vector_in(t.f_flag.chain[a + 1], rng)
        w = random_vector_in(t.g_flag.chain[b + 1], rng)
        if not v.is_zero() and not w.is_zero():
            out.append((v, w))
    return out


def sample_pplus(t: TautCouple, rng, terms: int = 2) -> FinitaryElement:
    """Random joint-stabilizer element built from its tensor description."""
    return FinitaryElement(t.model, _placed_terms(t, rng, pair_leq, terms))


def sample_nilradical(t: TautCouple, rng, terms: int = 2) -> FinitaryElement:
    """Random nilradical element: strictly placed tensors."""
    return FinitaryElement(t.model, _placed_terms(t, rng, pair_order, terms))


def _diagonal_units(t: TautCouple, gamma: int, want: int = 2, bound: int = 60) -> list:
    """(e_i, f_i) pairs whose rank-one unit has block trace 1 in the
    gamma-th block."""
    fi, gj = t.c_pairs[gamma]
    f_pred, f_succ = t.f_pair(fi)
    g_pred, g_succ = t.g_pair(gj)
    found = []
    for i in range(bound):
        ei = Vector.basis_vector(t.model, SIDE_V, i)
        fj = Vector.basis_vector(t.model, SIDE_W, i)
        if (
            f_succ.member(ei)
            and not f_pred.member(ei)
            and g_succ.member(fj)
            and not g_pred.member(fj)
        ):
            found.append((ei, fj))
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
                (e_i, f_i), (e_j, f_j) = units
                out += [(e_i, f_i), (e_j.scale(-1), f_j)]
        else:
            e_i, f_i = units[0]
            out.append((e_i.scale(rng.randrange(1, 3)), f_i))
    return FinitaryElement(t.model, out)


def random_element(model, rng, terms: int = 2, bound: int = 8) -> FinitaryElement:
    """Unconstrained random finite-rank element."""
    out = []
    for _ in range(terms):
        v = Vector(
            model,
            SIDE_V,
            {rng.randrange(bound): F(rng.randrange(-2, 3) or 1) for _ in range(2)},
        )
        w = Vector(
            model,
            SIDE_W,
            {rng.randrange(bound): F(rng.randrange(-2, 3) or 1) for _ in range(2)},
        )
        out.append((v, w))
    return FinitaryElement(model, out)
