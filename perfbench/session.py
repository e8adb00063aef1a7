"""`session` workload: generated session files run through the CLI in-process.

One operation is one file: `flagforge.cli.main(["run", file, "--report",
out])`.  Every session defines models, subspaces, flags, couples, elements
and one matrix algebra, then runs classify-flag, make-couple, fc-flag,
member, block-trace and truncate-compare, and several `fd` queries on the
same named algebra.  Each command carries an `expect` the generator wrote
from closed forms (reference.py), never from the program's output.

Two malformed sessions ride along, once in every pass.  The CLI documents exit
code 2 for malformed input; an operation on them fails when the CLI does
anything else.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

from flagforge import cli

import reference as ref

SIZE = 8
COEFFS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2))
COPIES = 17  # seeded copies of the session list in the input pool

# (period and aligned levels of the plain couple, algebra family and shape,
#  fd queries); the seed fixes the residues, elements and basis permutation
SESSIONS = [
    (2, 1, "parabolic", (1, 1), ("radical", "taut")),
    (3, 2, "parabolic", (2,), ("levi", "splittable")),
    (4, 2, "sum", (("gl", 1), ("gl", 1)), ("gred", "taut")),
    (3, 1, "parabolic", (1, 2), ("radical", "nilradical")),
    (2, 1, "parabolic", (1, 1), ("nilradical", "levi")),
    (4, 3, "sum", (("gl", 1), ("sl", 2)), ("radical", "levi")),
]

MALFORMED = {
    # top-level value is not an object
    "toplevel_array": [{"cmd": "fd", "op": "radical", "alg": "a"}],
    # command without its required "op" field
    "missing_op": {
        "algebras": {"a": {"n": 2, "basis": [[["1", "0"], ["0", "0"]]]}},
        "commands": [{"cmd": "fd", "alg": "a"}],
    },
}


def q(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def epset(period, residues):
    return {"threshold": 0, "period": period, "pre": [], "residues": sorted(residues)}


def vec(side, basis, aug=None):
    out = {"side": side, "basis": {str(i): q(c) for i, c in sorted(basis.items())}, "augs": []}
    if aug is not None:
        out["augs"] = [q(aug)]
    return out


def element_json(model, terms, augmented=False):
    return {
        "model": model,
        "terms": [[vec("V", v, va if augmented else None), vec("V*", w)] for (v, va), w in terms],
    }


def generate(spec, rng):
    """One session and the expected result of each of its commands."""
    period, levels, family, shape, fd_queries = spec
    order = list(range(period))
    rng.shuffle(order)
    residues = [set(order[: i + 1]) for i in range(levels)]
    blk = [next((b for b, r in enumerate(residues) if i % period in r), levels) for i in range(SIZE)]
    nblocks = levels + 1

    def vector(lo, hi):
        idx = [i for i in range(SIZE) if lo <= blk[i] <= hi]
        return {i: rng.choice(COEFFS) for i in rng.sample(idx, min(2, len(idx)))}

    x_terms = []
    for _ in range(3):
        a = rng.randrange(nblocks)
        b = rng.randrange(a, nblocks)
        x_terms.append(((vector(0, a), Fraction(0)), vector(b, nblocks - 1)))
    y_terms = [((vector(0, levels), Fraction(0)), vector(0, levels)) for _ in range(2)]
    xa_terms = [(({}, Fraction(1)), {rng.randrange(SIZE): Fraction(1)})]

    if family == "parabolic":
        n, base, forms = sum(shape), ref.parabolic_basis(shape), ref.parabolic_forms(shape)
    else:
        summands = list(shape)
        rng.shuffle(summands)
        n = sum(s for _, s in summands)
        base, forms = ref.direct_sum_basis(summands), ref.direct_sum_forms(summands)
    perm = list(range(n))
    rng.shuffle(perm)
    alg = [ref.permute(m, perm) for m in base]

    all_res = set(range(period))
    session = {
        "models": {
            "p": {"v_augs": [], "w_augs": [], "cross": []},
            "d": {"v_augs": [{"pre": [], "repeat": ["1"]}], "w_augs": [], "cross": [[]]},
            "s": {
                "form_kind": "symmetric",
                "iota": [
                    {"indices": epset(2, {0}), "offset": 1},
                    {"indices": epset(2, {1}), "offset": -1},
                ],
            },
        },
        "subspaces": {
            **{f"a{i}": {"model": "p", "side": "V", "aligned": epset(period, r)}
               for i, r in enumerate(residues)},
            **{f"b{i}": {"model": "p", "side": "V*", "aligned": epset(period, all_res - r)}
               for i, r in enumerate(residues)},
            "vstd": {"model": "d", "side": "V", "aligned": epset(1, {0})},
            "ev": {"model": "s", "side": "V", "aligned": epset(2, {0})},
        },
        "flags": {
            "f": {"model": "p", "side": "V", "chain": [f"a{i}" for i in range(levels)]},
            "g": {"model": "p", "side": "V*", "chain": [f"b{i}" for i in reversed(range(levels))]},
            "fa": {"model": "d", "side": "V", "chain": ["vstd"]},
            "ga": {"model": "d", "side": "V*", "chain": []},
            "fs": {"model": "s", "side": "V", "chain": ["ev"]},
        },
        "couples": {"c": {"f": "f", "g": "g"}, "ca": {"f": "fa", "g": "ga"}},
        "elements": {
            "x": element_json("p", x_terms),
            "y": element_json("p", y_terms),
            "xa": element_json("d", xa_terms, augmented=True),
        },
        "algebras": {"alg": {"n": n, "basis": [[[q(v) for v in row] for row in m] for m in alg]}},
    }

    x_want = ref.couple_verdicts(ref.operator(x_terms, SIZE), blk, nblocks)
    y_want = ref.couple_verdicts(ref.operator(y_terms, SIZE), blk, nblocks)
    xa_want = ref.couple_verdicts(ref.operator(xa_terms, SIZE), [0] * SIZE, 1, augmented=True)
    stab = forms["dim"] if family == "parabolic" else n * n - _sum_cross(shape)
    fd_expect = {
        "radical": {"dim": forms["radical"]},
        "nilradical": {"dim": forms["nilradical"]},
        "levi": {"dim": forms["levi"]},
        "gred": {
            "nilradical_dim": forms["nilradical"],
            "levi_dim": forms["levi"],
            "torus_dim": forms["torus"],
            "reductive_dim": forms["levi"] + forms["torus"],
        },
        "splittable": {"splittable": True, "closure_dim": forms["dim"]},
        "parabolic": {"is_parabolic": forms["parabolic"]},
        "taut": {
            "stabilizer_dim": stab,
            "nilradical_dim": stab - sum(s * s for s in _sizes(shape)),
            "algebra_nilradical_dim": forms["nilradical"],
        },
    }
    if family == "parabolic":
        fd_expect["taut"]["block_dims"] = list(shape)
    gamma = rng.randrange(nblocks)

    commands = [
        ({"cmd": "classify-flag", "flag": "f"},
         {"semiclosed": True, "closed": True, "maximal_semiclosed": False,
          "pair_closures": ["closed"] * nblocks}),
        ({"cmd": "classify-flag", "flag": "fa"},
         {"semiclosed": True, "closed": False, "maximal_semiclosed": False,
          "pair_closures": ["closed", "dense"]}),
        ({"cmd": "classify-flag", "flag": "fs"},
         {"semiclosed": True, "closed": True, "self_taut": True,
          "tags": ["isotropic", "both", "coisotropic"]}),
        ({"cmd": "make-couple", "f": "f", "g": "g", "name": "c2"},
         {"valid": True, "c_pairs": [[i, levels - i] for i in range(nblocks)]}),
        ({"cmd": "fc-flag", "flag": "fa"}, {"chain_length": 2, "closed": True}),
    ]
    for kind in ("joint", "nilradical", "pminus", "pprime"):
        commands.append(({"cmd": "member", "kind": kind, "elem": "x", "couple": "c"},
                         {"verdict": x_want[kind]}))
    commands += [
        ({"cmd": "member", "kind": "joint", "elem": "y", "couple": "c2"},
         {"verdict": y_want["joint"]}),
        ({"cmd": "member", "kind": "joint", "elem": "xa", "couple": "ca"},
         {"verdict": xa_want["joint"]}),
        ({"cmd": "member", "kind": "pprime", "elem": "xa", "couple": "ca"},
         {"verdict": xa_want["pprime"]}),
        ({"cmd": "block-trace", "elem": "x", "couple": "c", "gamma": gamma},
         {"trace": q(x_want["traces"][gamma])}),
        ({"cmd": "truncate-compare", "object": "a0", "levels": "auto"},
         {"kind": "subspace", "ok": True}),
    ]
    for op in fd_queries:
        commands.append(({"cmd": "fd", "op": op, "alg": "alg"}, fd_expect[op]))
    session["commands"] = [dict(cmd, expect=want) for cmd, want in commands]
    return session, [want for _, want in commands]


def _sizes(shape):
    return [s if isinstance(s, int) else s[1] for s in shape]


def _sum_cross(shape):
    """For a direct sum: entries below the block diagonal of the chain
    stabilizer, sum over i < j of s_i s_j (independent of the order)."""
    sizes = _sizes(shape)
    return sum(sizes[i] * sizes[j] for i in range(len(sizes)) for j in range(i + 1, len(sizes)))


class SessionOp:
    def __init__(self, path, report, data, expectations, probe=False):
        self.path, self.report = path, report
        self.expectations = expectations
        self.probe = probe
        self.label = os.path.basename(path)
        commands = [] if probe else data["commands"]
        self.queries = sum(1 for c in commands if c["cmd"] == "fd")
        self.verdicts = sum(1 for c in commands if c["cmd"] == "member")

    def run(self):
        return cli.main(["run", self.path, "--report", self.report])

    def check(self, code):
        if self.probe:
            return [] if code == 2 else [f"{self.label}: exit code {code}, contract says 2"]
        problems = [] if code == 0 else [f"exit code {code}"]
        with open(self.report, encoding="utf-8") as fh:
            report = json.load(fh)
        problems += ref.check_report(report, self.expectations)
        if not report.get("passed"):
            problems.append("the CLI reports a failed expectation")
        return [f"{self.label}: {p}" for p in problems]


class Workload:
    def __init__(self, seed, out_dir):
        rng = random.Random(f"session:{seed}")
        folder = os.path.join(out_dir, f"sessions-{seed}")
        os.makedirs(folder, exist_ok=True)
        probes = []
        for name, data in MALFORMED.items():
            path = os.path.join(folder, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(data, fh)
            probes.append(SessionOp(path, os.path.join(folder, f"{name}.report.json"),
                                    data, None, probe=True))
        self.ops = probes
        for r in range(COPIES):
            for s, spec in enumerate(SESSIONS):
                data, expectations = generate(spec, rng)
                path = os.path.join(folder, f"r{r}s{s}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(data, fh)
                self.ops.append(SessionOp(path, os.path.join(folder, f"r{r}s{s}.report.json"),
                                          data, expectations))


def build(seed, out_dir):
    return Workload(seed, out_dir)
