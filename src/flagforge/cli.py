"""Batch front end: load a JSON session, run its commands, emit a report.

Usage: flagforge run session.json [--seed N] [--report out.json]

Exit codes: 0 every assertion passed, 1 at least one `expect` mismatched,
2 the session failed to parse or referenced an unknown object.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import coherence, finitary, finoracle, serial
from .genflag import classify_flag, fc_flag, make_taut_couple, self_taut_and_iso
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
        try:
            for name, d in data.get("models", {}).items():
                self.models[name] = serial.model_from_json(d)
            for name, d in data.get("subspaces", {}).items():
                model = self._model_of(d)
                self.subspaces[name] = serial.subspace_from_json(model, d)
            for name, d in data.get("flags", {}).items():
                model = self._model_of(d)
                chain = [self._resolve_subspace(model, s) for s in d.get("chain", [])]
                from .genflag import flag_from_chain

                self.flags[name] = flag_from_chain(model, d["side"], chain)
            for name, d in data.get("basis_flags", {}).items():
                model = self._model_of(d)
                self.basis_flags[name] = serial.basis_flag_from_json(model, d)
            for name, d in data.get("couples", {}).items():
                f = self._lookup(self.flags, d["f"])
                g = self._lookup(self.flags, d["g"])
                self.couples[name] = make_taut_couple(f, g)
            for name, d in data.get("elements", {}).items():
                model = self._model_of(d)
                self.elements[name] = serial.element_from_json(model, d)
            for name, d in data.get("tc_subalgebras", {}).items():
                couple = self._lookup(self.couples, d["couple"])
                self.tc_subalgebras[name] = serial.tc_from_json(couple, d)
            for name, d in data.get("algebras", {}).items():
                self.algebras[name] = serial.algebra_from_json(d)
        except KeyError as exc:
            raise SessionError(f"missing field {exc}") from exc

    def _model_of(self, d: dict):
        name = d.get("model")
        if name is None:
            raise SessionError("object definition lacks a 'model' field")
        return self._lookup(self.models, name)

    def _lookup(self, table: dict, name):
        if name not in table:
            raise UnresolvedReference(name)
        return table[name]

    def _resolve_subspace(self, model, ref):
        if isinstance(ref, str):
            return self._lookup(self.subspaces, ref)
        return serial.subspace_from_json(model, ref)


def _verdict(value):
    """Make command outputs JSON-ready."""
    from fractions import Fraction

    if isinstance(value, Fraction):
        return serial.rational_to_json(value)
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_verdict(v) for v in value]
    if isinstance(value, dict):
        return {k: _verdict(v) for k, v in value.items()}
    return repr(value)


class _Command(dict):
    """A command's fields; a missing one is a session error, not a per-command
    KeyError."""

    def __missing__(self, key):
        raise SessionError(f"command {self.get('cmd')!r} lacks the field {key!r}")


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
        report = validate_model(model, raise_on_failure=False)
        return {
            "valid": report.valid,
            "radical_v_trivial": report.radical_v.is_zero(),
            "radical_w_trivial": report.radical_w.is_zero(),
        }

    def cmd_classify_flag(self, cmd):
        name = cmd["flag"]
        if name in self.s.basis_flags:
            from .genflag import basis_flag_queries

            q = basis_flag_queries(self.s.basis_flags[name])
            return {"is_maximal_closed": q.is_maximal_closed}
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
            return {"verdict": finitary.tc_member(x, s)}
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
            return {"verdict": finitary.normalizer_test(x, couple)}
        if kind == "pprime":
            return {"verdict": finitary.perp_parabolic_member(x, couple)}
        raise SessionError(f"unknown membership kind {kind!r}")

    def cmd_block_trace(self, cmd):
        x = self.s._lookup(self.s.elements, cmd["elem"])
        couple = self.s._lookup(self.s.couples, cmd["couple"])
        gamma = int(cmd["gamma"])
        return {"trace": _verdict(finitary.block_trace(x, couple, gamma))}

    def cmd_fc_flag(self, cmd):
        flag = self.s._lookup(self.s.flags, cmd["flag"])
        collapsed = fc_flag(flag)
        if "name" in cmd:
            self.s.flags[cmd["name"]] = collapsed
        cls = classify_flag(collapsed)
        return {
            "chain_length": len(collapsed.chain),
            "closed": cls.closed,
            "chain": _verdict([serial.subspace_to_json(s) for s in collapsed.chain]),
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
        levels = None if levels == "auto" else [int(v) for v in levels]
        report = coherence.compare(obj, levels, seed=self.s.seed)
        return {
            "kind": report.object_kind,
            "levels": report.levels,
            "ok": report.ok,
            "checks": _verdict(report.checks),
        }

    def cmd_fd(self, cmd):
        op = cmd["op"]
        alg = self.s._lookup(self.s.algebras, cmd["alg"])
        seed = self.s.seed
        if op == "radical":
            rad = finoracle.solvable_radical(alg)
            return {"dim": rad.dim, "basis": _verdict([serial.matrix_to_json(m) for m in rad.matrices()])}
        if op == "nilradical":
            nil = finoracle.linear_nilradical(alg, seed)
            return {"dim": nil.dim, "basis": _verdict([serial.matrix_to_json(m) for m in nil.matrices()])}
        if op == "levi":
            levi = finoracle.levi_component(alg)
            return {"dim": levi.dim, "basis": _verdict([serial.matrix_to_json(m) for m in levi.basis])}
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
            verdict = finoracle.cartan_queries(alg, sub.basis)
            return {
                "is_cartan": verdict.is_cartan,
                "via": {
                    "D": verdict.via_centralizer_of_ss,
                    "E": verdict.via_maximal_torus,
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
            q = finoracle.parabolic_bijection_check(alg, p_red.basis, seed)
            return {"dim": q.dim, "basis": _verdict([serial.matrix_to_json(m) for m in q.basis])}
        raise SessionError(f"unknown fd op {op!r}")


def _check_expect(expect, result):
    """Partial match: every expected key must equal the result's value."""
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
                entry["expect_ok"] = _check_expect(_verdict(cmd["expect"]), entry["result"])
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="flagforge", description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)
    run_p = sub.add_parser("run", help="execute a session file")
    run_p.add_argument("session", help="path to the session JSON")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--report", help="write the report JSON here")
    args = parser.parse_args(argv)

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
    except ValueError as exc:
        print(f"error: invalid session value: {exc}", file=sys.stderr)
        return 2

    text = json.dumps(report, indent=2)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
