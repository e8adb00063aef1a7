"""Batch front end: load a JSON session, run its commands, emit a report.

Usage: flagforge run session.json [--seed N] [--report out.json]

Exit codes: 0 every assertion passed, 1 at least one `expect` mismatched,
2 the session failed to parse or referenced an unknown object.

The report is one JSON object on one line, written by `json.dumps` with its
defaults (the C encoder): `seed`, `passed` and `results`, in that order.
Each result holds `index`, `cmd`, then `result` or `error`, then
`expect_ok` when the command carries an `expect`, and `elapsed_ms`.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import coherence, finitary, finoracle, serial
from .genflag import (
    classify_flag,
    fc_flag,
    flag_from_chain,
    make_taut_couple,
    self_taut_and_iso,
)
from .pairedspace import validate_model


class SessionError(Exception):
    """Input-level failure: parse error or unresolved reference."""


class UnresolvedReference(SessionError):
    def __init__(self, name):
        super().__init__(f"unresolved reference {name!r}")


class Session:
    """Named models, objects, and the command list of one session file."""

    def __init__(self, data: dict, seed: int = 0):
        if not isinstance(data, dict):
            raise SessionError(
                f"a session must be a JSON object, not {type(data).__name__}"
            )
        self.seed = seed
        self.models = {}
        self.subspaces = {}
        self.flags = {}
        self.basis_flags = {}
        self.couples = {}
        self.elements = {}
        self.tc_subalgebras = {}
        self.algebras = {}
        self.commands = data.get("commands", [])
        if not isinstance(self.commands, list) or not all(
            isinstance(c, dict) for c in self.commands
        ):
            raise SessionError("'commands' must be a list of JSON objects")
        readers = (  # in dependency order
            ("models", self.models, serial.model_from_json),
            ("subspaces", self.subspaces,
             lambda d: serial.subspace_from_json(self._model_of(d), d)),
            ("flags", self.flags, self._flag_from_json),
            ("basis_flags", self.basis_flags,
             lambda d: serial.basis_flag_from_json(self._model_of(d), d)),
            ("couples", self.couples,
             lambda d: make_taut_couple(self._lookup(self.flags, d["f"]),
                                        self._lookup(self.flags, d["g"]))),
            ("elements", self.elements,
             lambda d: serial.element_from_json(self._model_of(d), d)),
            ("tc_subalgebras", self.tc_subalgebras,
             lambda d: serial.tc_from_json(self._lookup(self.couples, d["couple"]), d)),
            ("algebras", self.algebras, serial.algebra_from_json),
        )
        for section, table, read in readers:
            for name, d in _section(data, section):
                try:
                    table[name] = read(d)
                except KeyError as exc:
                    raise SessionError(f"{section} {name!r}: missing field {exc}") from exc
                except (TypeError, AttributeError, ValueError) as exc:
                    raise SessionError(f"{section} {name!r}: {exc}") from exc

    def _model_of(self, d: dict):
        return self._lookup(self.models, d["model"])

    def _flag_from_json(self, d: dict):
        model = self._model_of(d)
        chain = [self._resolve_subspace(model, s) for s in d.get("chain", [])]
        return flag_from_chain(model, d["side"], chain)

    def _lookup(self, table: dict, name):
        if not isinstance(name, str) or name not in table:
            raise UnresolvedReference(name)
        return table[name]

    def _resolve_subspace(self, model, ref):
        if isinstance(ref, str):
            return self._lookup(self.subspaces, ref)
        return serial.subspace_from_json(model, ref)


def _verdict(value):
    """Make a command's raw output JSON-ready; run once per result."""
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_verdict(v) for v in value]
    if isinstance(value, dict):
        return {k: _verdict(v) for k, v in value.items()}
    return repr(value)


class _Command(dict):
    """A command's fields; a missing or mistyped one is a session error, not a
    per-command failure.  `gamma` is an integer, `levels` "auto" or a nonempty
    list of integers >= 1, and every other field a string."""

    def __missing__(self, key):
        raise SessionError(f"command {dict.get(self, 'cmd')!r} lacks the field {key!r}")

    def __getitem__(self, key):
        value = super().__getitem__(key)
        if key == "levels":
            ok = value == "auto" or (isinstance(value, list) and value != []
                                     and all(type(v) is int and v >= 1 for v in value))
        else:
            ok = type(value) is (int if key == "gamma" else str)
        if not ok:
            raise SessionError(f"command {dict.get(self, 'cmd')!r} has a malformed {key!r}")
        return value

    def get(self, key, default=None):
        return self[key] if key in self else default


def _section(data: dict, name: str):
    """The (name, definition) items of a top-level section, which must be
    an object of objects."""
    section = data.get(name, {})
    if not isinstance(section, dict) or not all(
        isinstance(d, dict) for d in section.values()
    ):
        raise SessionError(f"{name!r} must be an object of JSON objects")
    return section.items()


class Runner:
    def __init__(self, session: Session):
        self.s = session

    def run_command(self, cmd: dict):
        kind = cmd.get("cmd")
        handler = getattr(self, "cmd_" + str(kind).replace("-", "_"), None)
        if handler is None:
            raise SessionError(f"unknown command {kind!r}")
        return handler(_Command(cmd))

    # -- command handlers ---------------------------------------------------

    def cmd_validate_model(self, cmd):
        model = self.s._lookup(self.s.models, cmd["model"])
        report = validate_model(model)
        return {
            "valid": report.valid,
            "radical_v_trivial": report.radical_v.is_zero(),
            "radical_w_trivial": report.radical_w.is_zero(),
        }

    def cmd_classify_flag(self, cmd):
        name = cmd["flag"]
        if name in self.s.basis_flags:
            return {"is_maximal_closed": self.s.basis_flags[name].is_maximal_closed()}
        flag = self.s._lookup(self.s.flags, name)
        cls = classify_flag(flag)
        out = {
            "semiclosed": cls.semiclosed,
            "closed": cls.closed,
            "maximal_semiclosed": cls.maximal_semiclosed,
            "pair_closures": list(cls.pair_closures),
        }
        if flag.model.form_kind != "none":
            rep = self_taut_and_iso(flag)
            out["self_taut"] = rep.self_taut
            out["tags"] = list(rep.tags)
        return out

    def cmd_make_couple(self, cmd):
        f = self.s._lookup(self.s.flags, cmd["f"])
        g = self.s._lookup(self.s.flags, cmd["g"])
        couple = make_taut_couple(f, g)
        if "name" in cmd:
            self.s.couples[cmd["name"]] = couple
        return {"valid": True, "c_pairs": [list(p) for p in couple.c_pairs]}

    def cmd_member(self, cmd):
        kind = cmd["kind"]
        x = self.s._lookup(self.s.elements, cmd["elem"])
        if kind == "stabilizer":
            name = cmd["flag"]
            flag = (
                self.s.basis_flags[name]
                if name in self.s.basis_flags
                else self.s._lookup(self.s.flags, name)
            )
            return {"verdict": finitary.in_stabilizer(x, flag)}
        if kind == "tc":
            s = self.s._lookup(self.s.tc_subalgebras, cmd["tc"])
            return {"verdict": s.member(x)}
        if kind == "so-sp-minus":
            flag = self.s._lookup(self.s.flags, cmd["flag"])
            return {
                "verdict": finitary.in_so_sp_stabilizer_minus(x, flag, cmd["algebra"])
            }
        couple = self.s._lookup(self.s.couples, cmd["couple"])
        if kind == "joint":
            return {"verdict": finitary.in_joint_stabilizer(x, couple)}
        if kind == "nilradical":
            return {"verdict": finitary.in_nilradical(x, couple)}
        if kind == "pminus":
            return {
                "verdict": finitary.in_pminus(x, couple, cmd.get("ambient", "gl"))
            }
        if kind == "normalizer":
            # x normalizes the minus subalgebra iff x lies in the joint stabilizer
            return {"verdict": finitary.in_joint_stabilizer(x, couple)}
        if kind == "pprime":
            return {"verdict": finitary.perp_parabolic_member(x, couple)}
        raise SessionError(f"unknown membership kind {kind!r}")

    def cmd_block_trace(self, cmd):
        x = self.s._lookup(self.s.elements, cmd["elem"])
        couple = self.s._lookup(self.s.couples, cmd["couple"])
        trace = finitary.block_trace(x, couple, cmd["gamma"])
        return {"trace": serial.rational_to_json(trace)}

    def cmd_fc_flag(self, cmd):
        flag = self.s._lookup(self.s.flags, cmd["flag"])
        collapsed = fc_flag(flag)
        if "name" in cmd:
            self.s.flags[cmd["name"]] = collapsed
        cls = classify_flag(collapsed)
        return {
            "chain_length": len(collapsed.chain),
            "closed": cls.closed,
            "chain": [serial.subspace_to_json(s) for s in collapsed.chain],
        }

    def cmd_truncate_compare(self, cmd):
        name = cmd["object"]
        for table in (self.s.couples, self.s.subspaces, self.s.elements, self.s.flags):
            if name in table:
                obj = table[name]
                break
        else:
            raise UnresolvedReference(name)
        levels = cmd.get("levels", "auto")
        report = coherence.compare(obj, None if levels == "auto" else levels, seed=self.s.seed)
        return {
            "kind": report.object_kind,
            "levels": report.levels,
            "ok": report.ok,
            "checks": report.checks,
        }

    def cmd_fd(self, cmd):
        op = cmd["op"]
        alg = self.s._lookup(self.s.algebras, cmd["alg"])
        seed = self.s.seed
        if op == "radical":
            rad = finoracle.solvable_radical(alg)
            return {"dim": rad.dim, "basis": [serial.matrix_to_json(m) for m in rad.matrices()]}
        if op == "nilradical":
            nil = finoracle.linear_nilradical(alg, seed)
            return {"dim": nil.dim, "basis": [serial.matrix_to_json(m) for m in nil.matrices()]}
        if op == "levi":
            levi = finoracle.levi_component(alg)
            return {"dim": levi.dim, "basis": [serial.matrix_to_json(m) for m in levi.basis]}
        if op == "splittable":
            closed = finoracle.splittable_closure(alg)
            return {"splittable": closed.dim == alg.dim, "closure_dim": closed.dim}
        if op == "gred":
            dec = finoracle.locally_reductive_part(alg, seed)
            return {
                "nilradical_dim": dec.nilradical.dim,
                "levi_dim": dec.levi.dim,
                "torus_dim": dec.torus.dim,
                "reductive_dim": dec.reductive_part.dim,
            }
        if op == "cartan":
            sub = self.s._lookup(self.s.algebras, cmd["sub"])
            verdict = finoracle.cartan_queries(alg, sub.span)
            return {
                "is_cartan": verdict.is_cartan,
                "via": {
                    "D": verdict.via_centralizer_of_ss,
                    "F": verdict.via_fitting_null,
                },
            }
        if op == "taut":
            report = finoracle.invariant_taut_couple(alg, seed)
            return {
                "block_dims": report.block_dims,
                "stabilizer_dim": report.stabilizer.dim,
                "nilradical_dim": report.nilradical_oracle.dim,
                "algebra_nilradical_dim": report.algebra_nilradical.dim,
            }
        if op == "parabolic":
            report = finoracle.fd_parabolic_tests(alg, seed)
            return {
                "is_parabolic": report.is_parabolic,
                "borel_restriction_check": report.borel_restriction_check,
            }
        if op == "bijection":
            p_red = self.s._lookup(self.s.algebras, cmd["parabolic"])
            q = finoracle.parabolic_bijection_check(alg, p_red.span, seed)
            return {"dim": q.dim, "basis": [serial.matrix_to_json(m) for m in q.basis]}
        raise SessionError(f"unknown fd op {op!r}")


def _check_expect(expect, result):
    """Partial match of an `expect` as loaded from JSON against the JSON form
    of a result: every expected key must equal the result's value."""
    if isinstance(expect, dict) and isinstance(result, dict):
        return all(k in result and _check_expect(v, result[k]) for k, v in expect.items())
    return expect == result


def run_session(data: dict, seed: int = 0) -> dict:
    """Run the commands in file order; a command that refers to a name that
    a later command registers raises UnresolvedReference."""
    session = Session(data, seed)
    runner = Runner(session)
    results = []
    for idx, cmd in enumerate(session.commands):
        start = time.perf_counter()
        entry = {"index": idx, "cmd": cmd.get("cmd")}
        try:
            result = runner.run_command(cmd)
            entry["result"] = _verdict(result)
            if "expect" in cmd:
                entry["expect_ok"] = _check_expect(cmd["expect"], entry["result"])
        except SessionError:
            raise
        except Exception as exc:  # domain errors surface per command
            entry["error"] = f"{type(exc).__name__}: {exc}"
            if "expect" in cmd:
                entry["expect_ok"] = False
        entry["elapsed_ms"] = round((time.perf_counter() - start) * 1000, 3)
        results.append(entry)
    passed = all(e.get("expect_ok", True) and "error" not in e for e in results)
    return {"seed": seed, "passed": passed, "results": results}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="flagforge", description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)
    run_p = sub.add_parser("run", help="execute a session file")
    run_p.add_argument("session", help="path to the session JSON")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--report", help="write the report JSON here")
    return parser


# built once per process: parse_args keeps no state between calls
_PARSER = _parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)

    try:
        with open(args.session, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read session: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(
            f"error: parse failure at line {exc.lineno} column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return 2

    try:
        report = run_session(data, seed=args.seed)
    except SessionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    text = json.dumps(report)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
