"""`membership` workload: membership verdicts in the countable model.

The couples are built once per seed, in set-up: aligned taut couples on the
plain model, aligned flags ending in the dense pair (V_std, V) on the
dense-line model, and self-taut isotropic flags on the symmetric and
antisymmetric split-form models.  An operation either builds an element
from its tensor terms and classifies it with every membership kind, or
brackets two elements of p+ and classifies the result, so element
construction is timed beside the read-only tests.
"""

from __future__ import annotations

import random
from fractions import Fraction

from flagforge import finitary
from flagforge.epcore import EpSet
from flagforge.genflag import collapsed_couple, flag_from_chain, make_taut_couple
from flagforge.pairedspace import (
    SIDE_V,
    SIDE_W,
    Subspace,
    Vector,
    dense_line_model,
    perp,
    plain_model,
    split_form_model,
)

import reference as ref

SIZE = 12  # element supports stay below this index
COEFFS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 2))
COPIES = 4  # seeded copies of the per-couple operation list in the pool

# (model, period, number of aligned levels below V_std / V)
COUPLES = [
    ("plain", 2, 1),
    ("plain", 3, 2),
    ("plain", 4, 3),
    ("plain", 4, 2),
    ("dense", 1, 0),
    ("dense", 3, 1),
    ("so", 4, 0),
    ("sp", 4, 0),
]


class CoupleCase:
    """A couple, its flag, and the block index of every e_i below SIZE."""

    def __init__(self, kind, period, levels, rng):
        self.kind = kind
        self.form = kind if kind in ("so", "sp") else None
        self.augmented = kind == "dense"
        if self.form:
            model = split_form_model("symmetric" if kind == "so" else "antisymmetric")
            low = rng.choice((0, 2))
            residues = [{low}, {0, 2}, {0, 1, 2, 3} - {low ^ 1}]
            self.blk = [
                0 if i % 4 == low else 1 if i % 2 == 0 else 3 if i % 4 == low ^ 1 else 2
                for i in range(SIZE)
            ]
        else:
            model = plain_model() if kind == "plain" else dense_line_model()
            order = list(range(period))
            rng.shuffle(order)
            residues = [set(order[: i + 1]) for i in range(levels)]
            if self.augmented:
                residues.append(set(range(period)))  # V_std: every basis index
            self.blk = [
                next((b for b, r in enumerate(residues) if i % period in r), len(residues))
                for i in range(SIZE)
            ]
        self.nblocks = max(self.blk) + 1
        self.model = model
        chain = [Subspace.span(model, SIDE_V, EpSet.from_residues(4 if self.form else period, r))
                 for r in residues]
        self.flag = flag_from_chain(model, SIDE_V, chain)
        if self.form:
            self.couple = finitary.self_taut_couple(self.flag)
        else:
            g = flag_from_chain(model, SIDE_W, [perp(s) for s in self.flag.chain])
            self.couple = make_taut_couple(self.flag, g)
        collapsed_couple(self.couple)  # cached on the couple: part of building it

    def indices(self, lo=0, hi=None):
        hi = self.nblocks - 1 if hi is None else hi
        return [i for i in range(SIZE) if lo <= self.blk[i] <= hi]

    def vector(self, rng, idx, count=2):
        return {i: rng.choice(COEFFS) for i in rng.sample(idx, min(count, len(idx)))}

    def element(self, intent, rng):
        """Plain terms ((v_basis, v_aug), w_basis) built to the intent."""
        if intent == "free":
            return [((self.vector(rng, self.indices()),
                      rng.choice(COEFFS) if self.augmented else Fraction(0)),
                     self.vector(rng, self.indices()))
                    for _ in range(3)]
        if self.form:
            return self._form_element(intent == "nil", rng)
        strict = intent == "nil"
        terms = []
        for _ in range(3):
            a = rng.randrange(self.nblocks - strict)
            b = rng.randrange(a + strict, self.nblocks)
            terms.append(((self.vector(rng, self.indices(0, a)), Fraction(0)),
                          self.vector(rng, self.indices(b))))
        if self.augmented and intent == "pplus":
            # dense-line parts that cancel: the pairing row a(x) stays zero
            w = terms[0][1]
            c = rng.choice(COEFFS)
            terms.append(((self.vector(rng, self.indices(0, 0)), c), w))
            terms.append(((self.vector(rng, self.indices(0, 0)), -c), w))
        if intent == "pprime_only":
            # the dense-line vector against the last block only
            terms.append((({}, Fraction(1)), self.vector(rng, self.indices(self.nblocks - 1))))
        return terms

    def _form_element(self, strict, rng):
        """Sum of u (x) phi(v) -+ v (x) phi(u) on basis vectors: in so (sp)
        by construction, and in p+ when blk(u) + blk(v) <= 3."""
        sign = -1 if self.form == "so" else 1
        terms = []
        for _ in range(2):
            while True:
                a, b = rng.randrange(SIZE), rng.randrange(SIZE)
                if self.blk[a] + self.blk[b] <= 3 - strict:
                    break
            c = rng.choice(COEFFS)
            terms.append((({a: c}, Fraction(0)), {ref.iota(b): ref.form_sign(b, self.form)}))
            terms.append((({b: sign * c}, Fraction(0)),
                          {ref.iota(a): ref.form_sign(a, self.form)}))
        return terms

    def program_element(self, terms):
        model = self.model
        augs = (lambda c: (c,)) if self.augmented else (lambda c: ())
        return finitary.FinitaryElement(
            model,
            [(Vector(model, SIDE_V, v, augs(va)), Vector(model, SIDE_W, w))
             for (v, va), w in terms],
        )


class MembershipOp:
    probe = False
    queries = 0

    def __init__(self, case, intent, terms, other=None):
        self.case, self.intent = case, intent
        self.terms, self.other = terms, other
        self.label = f"{case.kind}:{intent}"
        self.verdicts = 4 + (case.form is not None)
        x = ref.operator(terms, SIZE)
        if other is not None:
            x = ref.op_bracket(x, ref.operator(other, SIZE))
        self.want = ref.couple_verdicts(x, case.blk, case.nblocks, case.augmented, case.form)

    def run(self):
        case, t = self.case, self.case.couple
        x = case.program_element(self.terms)
        if self.other is not None:
            x = x.bracket(case.program_element(self.other))
        out = {
            "joint": finitary.in_joint_stabilizer(x, t),
            "nilradical": finitary.in_nilradical(x, t),
            "pminus": finitary.in_pminus(x, t),
            "pprime": finitary.perp_parabolic_member(x, t),
        }
        if out["joint"]:
            out["traces"] = [finitary.block_trace(x, t, g) for g in range(len(t.c_pairs))]
        if case.form:
            out["so_sp_minus"] = finitary.in_so_sp_stabilizer_minus(x, case.flag, case.form)
        return out

    def check(self, out):
        problems = ref.check_verdicts(out, self.want, self.intent)
        if len(self.case.couple.c_pairs) != self.case.nblocks:
            problems.append("couple has the wrong number of matched pairs")
        return [f"{self.label}: {p}" for p in problems]


class Workload:
    def __init__(self, seed):
        rng = random.Random(f"membership:{seed}")
        cases = [CoupleCase(kind, period, levels, rng) for kind, period, levels in COUPLES]
        self.ops = []
        for _ in range(COPIES):
            ops = self.ops
            for case in cases:
                strict = "nil" if case.nblocks > 1 else "pplus"
                extra = "pprime_only" if case.augmented else "pplus"
                for intent in ("pplus", strict, "free", extra):
                    ops.append(MembershipOp(case, intent, case.element(intent, rng)))
                x = case.element("pplus", rng)
                ops.append(MembershipOp(case, "bracket", x, case.element("pplus", rng)))
                ideal = "ideal" if strict == "nil" else "bracket"
                ops.append(MembershipOp(case, ideal, case.element("pplus", rng),
                                        case.element(strict, rng)))


def build(seed):
    return Workload(seed)
