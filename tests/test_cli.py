import contextlib
import copy
import dataclasses
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from functools import partial
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _corpus import (
    algebra_to_json,
    aug_vector,
    augmented_couple,
    basis_flag_to_json,
    basis_vector,
    element_to_json,
    epseq_to_json,
    evens_couple,
    flip,
    gl3_plus_so2,
    gl_basis,
    mat_span,
    model_to_json,
    random_element,
    random_session,
    rank_one,
    span,
    tc_to_json,
    trivial_couple,
    upper_triangular_basis,
    vectors,
)
from _dense import D
from flagforge import coherence, epcore, finitary, finoracle, pairedspace, serial
from flagforge.cli import Runner, Session, SessionError, main, run_session
from flagforge.epcore import EpSeq, EpSet
from flagforge.exactnum import Matrix
from flagforge.finitary import TraceConditionSubalgebra
from flagforge.finoracle import FdLieAlgebra
from flagforge.genflag import (
    FINITE,
    OMEGA_DOWN,
    OMEGA_UP,
    BasisOrderFlag,
    Block,
    classify_flag,
    fc_flag,
    flag_from_chain,
)
from flagforge.pairedspace import (
    SIDE_V,
    SIDE_W,
    Subspace,
    Vector,
    dense_line_model,
    plain_model,
    split_form_model,
)


AUGMENTED_SESSION = {
    "models": {
        "m": {
            "v_augs": [{"pre": [], "repeat": ["1"]}],
            "w_augs": [],
            "cross": [[]],
        }
    },
    "subspaces": {
        "v_std": {
            "model": "m",
            "side": "V",
            "aligned": {"threshold": 0, "period": 1, "pre": [], "residues": [0]},
        }
    },
    "flags": {
        "f": {"model": "m", "side": "V", "chain": ["v_std"]},
        "g": {"model": "m", "side": "V*", "chain": []},
    },
    "couples": {"c": {"f": "f", "g": "g"}},
    "elements": {
        "x": {
            "model": "m",
            "terms": [
                [
                    {"side": "V", "basis": {}, "augs": ["1"]},
                    {"side": "V*", "basis": {"0": "1"}, "augs": []},
                ]
            ],
        }
    },
    "commands": [
        {"cmd": "classify-flag", "flag": "f", "expect": {"semiclosed": True, "closed": False}},
        {"cmd": "member", "kind": "joint", "elem": "x", "couple": "c", "expect": {"verdict": False}},
        {"cmd": "member", "kind": "pprime", "elem": "x", "couple": "c", "expect": {"verdict": True}},
        {"cmd": "fc-flag", "flag": "f", "expect": {"chain_length": 2, "closed": True}},
        {"cmd": "validate-model", "model": "m", "expect": {"valid": True}},
    ],
}


def test_run_session_augmented_model():
    report = run_session(AUGMENTED_SESSION, seed=0)
    assert report["passed"], report
    assert len(report["results"]) == 5


def test_run_session_detects_failed_expectation():
    bad = json.loads(json.dumps(AUGMENTED_SESSION))
    bad["commands"] = [
        {"cmd": "validate-model", "model": "m", "expect": {"valid": False}}
    ]
    report = run_session(bad, seed=0)
    assert not report["passed"]


def test_run_session_unresolved_reference():
    bad = json.loads(json.dumps(AUGMENTED_SESSION))
    bad["commands"] = [{"cmd": "classify-flag", "flag": "nope"}]
    with pytest.raises(SessionError):
        run_session(bad, seed=0)


def test_empty_command_list():
    report = run_session({"commands": []})
    assert report["passed"] and report["results"] == []


def _fd_session():
    return {
        "algebras": {
            "b3": {
                "n": 3,
                "basis": algebra_to_json(
                    FdLieAlgebra(3, upper_triangular_basis(3))
                )["basis"],
            },
            "gl2": {
                "n": 2,
                "basis": algebra_to_json(FdLieAlgebra(2, gl_basis(2)))["basis"],
            },
        },
        "commands": [
            {"cmd": "fd", "op": "radical", "alg": "b3", "expect": {"dim": 6}},
            {"cmd": "fd", "op": "nilradical", "alg": "b3", "expect": {"dim": 3}},
            {"cmd": "fd", "op": "levi", "alg": "gl2", "expect": {"dim": 3}},
            {"cmd": "fd", "op": "splittable", "alg": "b3", "expect": {"splittable": True}},
            {
                "cmd": "fd",
                "op": "gred",
                "alg": "b3",
                "expect": {"nilradical_dim": 3, "torus_dim": 3},
            },
            {"cmd": "fd", "op": "parabolic", "alg": "b3", "expect": {"is_parabolic": True}},
            {"cmd": "fd", "op": "taut", "alg": "b3", "expect": {"block_dims": [1, 1, 1]}},
        ],
    }


def test_fd_commands():
    report = run_session(_fd_session(), seed=0)
    assert report["passed"], report


def test_fd_parabolic_finds_no_borel_in_gl3_plus_so2():
    # stab(F) cap p leaves out the rotation J of rad p, so it is no Borel
    session = {
        "algebras": {"p": algebra_to_json(gl3_plus_so2())},
        "commands": [{"cmd": "fd", "op": "parabolic", "alg": "p",
                      "expect": {"is_parabolic": False, "borel_restriction_check": False}}],
    }
    for seed in range(5):
        report = run_session(session, seed=seed)
        assert report["passed"], (seed, report)


def _full_surface_session():
    m_plain = plain_model()
    t = evens_couple(m_plain)
    return {
        "models": {"m": model_to_json(m_plain)},
        "subspaces": {
            "evens": serial.subspace_to_json(t.f_flag.chain[1]) | {"model": "m"},
            "odds_w": serial.subspace_to_json(t.g_flag.chain[1]) | {"model": "m"},
        },
        "flags": {
            "f": {"model": "m", "side": "V", "chain": ["evens"]},
            "g": {"model": "m", "side": "V*", "chain": ["odds_w"]},
        },
        "couples": {"c": {"f": "f", "g": "g"}},
        "tc_subalgebras": {
            "s": {"couple": "c", "ambient": "gl", "constraints": [["1", "1"]]}
        },
        "elements": {
            "nil": {
                "model": "m",
                "terms": [
                    [
                        {"side": "V", "basis": {"0": "1"}, "augs": []},
                        {"side": "V*", "basis": {"1": "1"}, "augs": []},
                    ]
                ],
            },
            "diag": {
                "model": "m",
                "terms": [
                    [
                        {"side": "V", "basis": {"0": "1"}, "augs": []},
                        {"side": "V*", "basis": {"0": "1"}, "augs": []},
                    ]
                ],
            },
        },
        "commands": [
            {"cmd": "member", "kind": "stabilizer", "elem": "nil", "flag": "f", "expect": {"verdict": True}},
            {"cmd": "member", "kind": "joint", "elem": "nil", "couple": "c", "expect": {"verdict": True}},
            {"cmd": "member", "kind": "nilradical", "elem": "nil", "couple": "c", "expect": {"verdict": True}},
            {"cmd": "member", "kind": "nilradical", "elem": "diag", "couple": "c", "expect": {"verdict": False}},
            {"cmd": "member", "kind": "pminus", "elem": "diag", "couple": "c", "expect": {"verdict": False}},
            {"cmd": "member", "kind": "normalizer", "elem": "diag", "couple": "c", "expect": {"verdict": True}},
            {"cmd": "member", "kind": "tc", "elem": "nil", "tc": "s", "expect": {"verdict": True}},
            {"cmd": "block-trace", "elem": "diag", "couple": "c", "gamma": 0, "expect": {"trace": "1"}},
            {"cmd": "truncate-compare", "object": "c", "levels": "auto"},
            {"cmd": "make-couple", "f": "f", "g": "g", "name": "c2"},
        ],
    }


def test_member_commands_full_surface():
    report = run_session(_full_surface_session(), seed=1)
    assert report["passed"], report
    tc = next(r for r in report["results"] if r["cmd"] == "truncate-compare")
    assert tc["result"]["ok"]


def _rarely_run_paths_session():
    """One session through the CLI paths the other sessions leave out, each
    `expect` the JSON form of the direct API result."""
    split = split_form_model("symmetric")
    evens = Subspace.span(split, SIDE_V, EpSet.from_residues(2, (0,)))
    f = flag_from_chain(split, SIDE_V, [evens])
    dense = dense_line_model()
    v_std = Subspace.span(dense, SIDE_V, EpSet.naturals())
    dense_flag = flag_from_chain(dense, SIDE_V, [v_std])
    basis_flag = BasisOrderFlag(plain_model(), (Block(OMEGA_UP, indices=EpSet.naturals()),))

    def so_element(i, j):  # antisymmetrized under the form: lands in so(V)
        x = rank_one(
            basis_vector(split, SIDE_V, i), basis_vector(split, SIDE_W, j))
        return x.sub(flip(x))

    elements = {"x02": so_element(0, 2), "x00": so_element(0, 0)}
    gl2 = FdLieAlgebra(2, gl_basis(2))
    q = finoracle.parabolic_bijection_check(gl2, mat_span(2, upper_triangular_basis(2)))
    flag_report = coherence.compare(f)
    collapsed = fc_flag(dense_flag)
    session = {
        "models": {"split": model_to_json(split), "dense": model_to_json(dense),
                   "plain": model_to_json(plain_model())},
        "subspaces": {"evens": serial.subspace_to_json(evens) | {"model": "split"},
                      "v_std": serial.subspace_to_json(v_std) | {"model": "dense"}},
        "flags": {"f": {"model": "split", "side": "V", "chain": ["evens"]},
                  "d": {"model": "dense", "side": "V", "chain": ["v_std"]}},
        "basis_flags": {"b": basis_flag_to_json(basis_flag) | {"model": "plain"}},
        "elements": {name: element_to_json(x) | {"model": "split"}
                     for name, x in elements.items()},
        "algebras": {"gl2": algebra_to_json(gl2),
                     "b2": algebra_to_json(FdLieAlgebra(2, upper_triangular_basis(2)))},
        "commands": [
            {"cmd": "fd", "op": "bijection", "alg": "gl2", "parabolic": "b2",
             "expect": {"dim": q.dim, "basis": [serial.matrix_to_json(m) for m in q.basis]}},
            {"cmd": "truncate-compare", "object": "f",
             "expect": {"kind": "flag", "levels": flag_report.levels, "ok": flag_report.ok,
                        "checks": flag_report.checks}},
            *({"cmd": "member", "kind": "so-sp-minus", "elem": name, "flag": "f",
               "algebra": "so",
               "expect": {"verdict": finitary.in_so_sp_stabilizer_minus(x, f, "so")}}
              for name, x in elements.items()),
            {"cmd": "classify-flag", "flag": "b",
             "expect": {"is_maximal_closed": basis_flag.is_maximal_closed()}},
            {"cmd": "fc-flag", "flag": "d", "name": "d_closed",
             "expect": {"chain_length": len(collapsed.chain),
                        "closed": classify_flag(collapsed).closed,
                        "chain": [serial.subspace_to_json(s) for s in collapsed.chain]}},
            {"cmd": "classify-flag", "flag": "d_closed",
             "expect": {"semiclosed": True, "closed": True, "maximal_semiclosed": False,
                        "pair_closures": ["closed"]}},
        ],
    }
    return session


def test_rarely_run_cli_paths_match_the_api():
    session = _rarely_run_paths_session()
    report = run_session(json.loads(json.dumps(session)), seed=0)
    assert report["passed"], report
    for cmd, entry in zip(session["commands"], report["results"]):
        assert entry["result"] == cmd["expect"], entry
    verdicts = [e["result"]["verdict"] for e in report["results"] if e["cmd"] == "member"]
    assert verdicts == [True, False]


def _element_and_basis_flag_session():
    """One session through `truncate-compare` on an element and `member`
    `stabilizer` against basis-order flags, each `expect` the JSON form of
    the direct API result."""
    plain, dense = plain_model(), dense_line_model()
    up = BasisOrderFlag(plain, (Block(OMEGA_UP, indices=EpSet.naturals()),))
    mixed = BasisOrderFlag(
        plain,
        (
            Block(FINITE, points=((0, 1), (2,))),
            Block(OMEGA_UP, indices=EpSet.from_residues(2, (1,), threshold=3)),
            Block(OMEGA_DOWN, indices=EpSet.from_residues(2, (0,), threshold=3)),
        ),
    )

    def r1(model, i, j):
        return rank_one(
            basis_vector(model, SIDE_V, i), basis_vector(model, SIDE_W, j))

    # each pair (i, j) tests flag.leq(i, j): inside the finite block, across
    # blocks, and both ways inside the omega-up and omega-down blocks
    plain_elements = {f"e{i}f{j}": r1(plain, i, j)
                      for i, j in ((0, 1), (1, 0), (2, 0), (0, 5), (5, 0), (3, 4), (4, 6), (6, 4))}
    plain_elements["sum"] = r1(plain, 0, 1).add(r1(plain, 6, 4))
    dense_elements = {
        "aug": rank_one(
            aug_vector(dense, SIDE_V, 0), Vector(dense, SIDE_W, {2: 1, 5: "-1/2"})),
        "mixed": random_element(dense, random.Random(4), terms=3),
    }
    commands = []
    for name, x in dense_elements.items():
        report = coherence.compare_element(x)
        commands.append({"cmd": "truncate-compare", "object": name,
                         "expect": {"kind": report.object_kind, "levels": report.levels,
                                    "ok": report.ok, "checks": report.checks}})
    for flag_name, flag in (("up", up), ("mixed", mixed)):
        for name, x in plain_elements.items():
            commands.append({"cmd": "member", "kind": "stabilizer", "elem": name,
                             "flag": flag_name,
                             "expect": {"verdict": finitary.in_stabilizer(x, flag)}})
    return {
        "models": {"plain": model_to_json(plain), "dense": model_to_json(dense)},
        "basis_flags": {"up": basis_flag_to_json(up) | {"model": "plain"},
                        "mixed": basis_flag_to_json(mixed) | {"model": "plain"}},
        "elements": {name: element_to_json(x) | {"model": model}
                     for model, table in (("plain", plain_elements), ("dense", dense_elements))
                     for name, x in table.items()},
        "commands": commands,
    }


def test_element_compare_and_basis_flag_membership_match_the_api():
    session = _element_and_basis_flag_session()
    report = run_session(json.loads(json.dumps(session)), seed=0)
    assert report["passed"], report
    for cmd, entry in zip(session["commands"], report["results"], strict=True):
        assert entry["result"] == cmd["expect"], entry
    compared = [e["result"] for e in report["results"] if e["cmd"] == "truncate-compare"]
    assert all(r["kind"] == "element" and r["checks"] for r in compared)
    verdicts = [e["result"]["verdict"] for e in report["results"] if e["cmd"] == "member"]
    assert verdicts[:9] == [True, False, False, True, False, True, True, False, False]
    assert verdicts[9:] == [True, True, False, True, False, True, False, True, True]


def test_block_trace_negative_gamma_is_a_command_error():
    session = _full_surface_session()
    session["commands"] = [
        {"cmd": "block-trace", "elem": "diag", "couple": "c", "gamma": -1},
        {"cmd": "block-trace", "elem": "diag", "couple": "c", "gamma": 1},
    ]
    report = run_session(session, seed=1)
    bad, good = report["results"]
    assert "result" not in bad and "ValueError" in bad["error"] and "0..1" in bad["error"]
    assert good["result"] == {"trace": "0"}
    assert not report["passed"]


def test_report_deterministic_given_seed():
    session = json.loads(json.dumps(AUGMENTED_SESSION))
    a = run_session(session, seed=7)
    b = run_session(session, seed=7)

    def strip(report):
        return [
            {k: v for k, v in entry.items() if k != "elapsed_ms"}
            for entry in report["results"]
        ]

    assert strip(a) == strip(b)


def test_cli_end_to_end(tmp_path):
    session_file = tmp_path / "session.json"
    session_file.write_text(json.dumps(AUGMENTED_SESSION))
    report_file = tmp_path / "report.json"
    code = main(["run", str(session_file), "--report", str(report_file)])
    assert code == 0
    report = json.loads(report_file.read_text())
    assert report["passed"]


def test_cli_exit_codes(tmp_path, capsys):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert main(["run", str(bad_json)]) == 2
    malformed = {
        "toplevel_array": [{"cmd": "fd", "op": "radical", "alg": "a"}],
        "missing_op": {
            "algebras": {"a": {"n": 2, "basis": [[["1", "0"], ["0", "0"]]]}},
            "commands": [{"cmd": "fd", "alg": "a"}],
        },
        # commands run in file order, so c2 is not yet made when it is used
        "forward_reference": {
            **AUGMENTED_SESSION,
            "commands": [
                {"cmd": "member", "kind": "joint", "elem": "x", "couple": "c2"},
                {"cmd": "make-couple", "f": "f", "g": "g", "name": "c2"},
            ],
        },
        # every top-level section is an object of objects
        "models_array": {"models": []},
        "model_not_object": {"models": {"m": 5}},
        "subspaces_array": {"subspaces": []},
        "flag_not_object": {"flags": {"f": 3}},
        # a serial reader meets a value of the wrong type
        "aligned_not_object": {
            "models": {"m": {}},
            "subspaces": {"s": {"model": "m", "side": "V", "aligned": 7}},
        },
        # every basis matrix of an algebra is n x n, and n >= 0
        "basis_1x1_under_n2": {
            "algebras": {"a": {"n": 2, "basis": [[["1"]]]}},
            "commands": [{"cmd": "fd", "op": "radical", "alg": "a"}],
        },
        "basis_2x2_under_n3": {
            "algebras": {"a": {"n": 3, "basis": [[["1", "0"], ["0", "0"]]]}},
        },
        "basis_3x3_under_n2": {
            "algebras": {"a": {"n": 2, "basis": [[["0", "1", "0"], ["0"] * 3, ["0"] * 3]]}},
        },
        "negative_n": {"algebras": {"a": {"n": -1, "basis": []}}},
        # a side is "V" or "V*", and a correction lies on its subspace's side
        "subspace_side_x": {
            "models": {"m": {}},
            "subspaces": {"s": {"model": "m", "side": "X"}},
            "commands": [{"cmd": "truncate-compare", "object": "s", "levels": "auto"}],
        },
        "flag_side_x_empty_chain": {
            "models": {"m": {}},
            "flags": {"f": {"model": "m", "side": "X", "chain": []}},
            "commands": [{"cmd": "classify-flag", "flag": "f"}],
        },
        "correction_on_the_other_side": {
            "models": {"m": {}},
            "subspaces": {"s": {"model": "m", "side": "V", "corrections": [
                {"side": "V*", "basis": {"0": "1", "1": "1"}}]}},
        },
        # a rational has a nonzero denominator, wherever it is read
        "zero_denominator_in_repeat": {"models": {"m": {"v_augs": [{"repeat": ["1/0"]}]}}},
        "zero_denominator_in_basis_entry": {
            "algebras": {"a": {"n": 1, "basis": [[["1/0"]]]}},
            "commands": [{"cmd": "fd", "op": "radical", "alg": "a"}],
        },
        # basis indices are 0-based
        "negative_basis_index": {
            "models": {"m": {}},
            "elements": {"x": {"model": "m", "terms": [[
                {"side": "V", "basis": {"-1": "1"}}, {"side": "V*", "basis": {"0": "1"}}]]}},
            "commands": [{"cmd": "truncate-compare", "object": "x", "levels": "auto"}],
        },
    }
    for name, data in malformed.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["run", str(path), "--report", str(tmp_path / "m.json")]) == 2, name
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
    failing = tmp_path / "failing.json"
    data = json.loads(json.dumps(AUGMENTED_SESSION))
    data["commands"] = [
        {"cmd": "validate-model", "model": "m", "expect": {"valid": False}}
    ]
    failing.write_text(json.dumps(data))
    assert main(["run", str(failing), "--report", str(tmp_path / "r.json")]) == 1


def _split_model(evens_offset=1, odds_offset=-1):
    return {"form_kind": "symmetric", "iota": [
        {"indices": {"period": 2, "residues": [0]}, "offset": evens_offset},
        {"indices": {"period": 2, "residues": [1]}, "offset": odds_offset}]}


def _aligned_session(aligned):
    return {"models": {"m": {}}, "subspaces": {"s": {"model": "m", "side": "V", "aligned": aligned}}}


# each integer field of a session, given a JSON value that is not an integer
_NOT_INTEGERS = {
    "n_float": {"algebras": {"a": {"n": 2.5, "basis": []}}},
    "n_string": {"algebras": {"a": {"n": "2", "basis": []}}},
    "offset_float": {"models": {"m": _split_model(evens_offset=1.0)}},
    "offset_truncated": {"models": {"m": _split_model(odds_offset=-1.9)}},
    "threshold_float": _aligned_session({"threshold": 1.5, "period": 1, "residues": [0]}),
    "period_bool": _aligned_session({"period": True, "residues": [0]}),
    "pre_float": _aligned_session({"threshold": 2, "pre": [1.0]}),
    "residues_float": _aligned_session({"period": 2, "residues": [0.5]}),
}


@pytest.mark.parametrize("name", sorted(_NOT_INTEGERS))
def test_integer_fields_take_json_integers_only(name, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(_NOT_INTEGERS[name]))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be an integer" in err, err


@pytest.mark.parametrize("obj", ["x", "s"])
def test_truncation_levels_below_one_are_a_session_error(obj, tmp_path, capsys):
    data = json.loads(json.dumps(AUGMENTED_SESSION))
    data["subspaces"]["s"] = {"model": "m", "side": "V", "aligned": {"period": 2, "residues": [0]}}
    for levels in ([-2, 0], [0], [3, 0]):
        data["commands"] = [{"cmd": "truncate-compare", "object": obj, "levels": levels}]
        path = tmp_path / "levels.json"
        path.write_text(json.dumps(data))
        assert main(["run", str(path)]) == 2, levels
        assert "malformed 'levels'" in capsys.readouterr().err


@pytest.mark.parametrize("obj", ["x", "s"])
def test_empty_truncation_levels_are_a_session_error(obj, tmp_path, capsys):
    data = json.loads(json.dumps(AUGMENTED_SESSION))
    data["subspaces"]["s"] = {"model": "m", "side": "V", "aligned": {"period": 2, "residues": [0]}}
    data["commands"] = [{"cmd": "truncate-compare", "object": obj, "levels": []}]
    path = tmp_path / "levels.json"
    path.write_text(json.dumps(data))
    assert main(["run", str(path)]) == 2
    assert "malformed 'levels'" in capsys.readouterr().err


def _one_term_session(v_basis):
    return {
        "models": {"m": {}},
        "elements": {"x": {"model": "m", "terms": [[
            {"side": "V", "basis": v_basis}, {"side": "V*", "basis": {"0": "1"}}]]}},
        "commands": [{"cmd": "truncate-compare", "object": "x", "levels": "auto"}],
    }


# spellings that Python's Fraction(str) reads as rationals and a session does not
@pytest.mark.parametrize("spelling", ["1e2", "1.5", "1_0", " 3 "])
def test_rationals_are_spelled_p_or_p_over_q(spelling, tmp_path, capsys):
    path = tmp_path / "rational.json"
    path.write_text(json.dumps(_one_term_session({"0": spelling})))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "expected a rational" in err, err


# spellings that Python's int() reads as indices and a session does not
@pytest.mark.parametrize("key", ["1_0", " 2 ", "+1", "01", "-1"])
def test_basis_indices_are_spelled_as_decimal_integers(key, tmp_path, capsys):
    path = tmp_path / "index.json"
    path.write_text(json.dumps(_one_term_session({key: "1"})))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "malformed basis index" in err, err


def test_plain_spellings_still_read(tmp_path, capsys):
    path = tmp_path / "plain.json"
    path.write_text(json.dumps(_one_term_session({"0": "-3/4", "10": 2, "2": "0"})))
    assert main(["run", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["passed"]


def test_repeated_main_calls_share_no_arguments(tmp_path, capsys):
    # the parser is built once per process; each call parses only its argv
    path = tmp_path / "session.json"
    path.write_text(json.dumps(AUGMENTED_SESSION))
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert main(["run", str(path), "--seed", "7", "--report", str(first)]) == 0
    assert main(["run", str(path), "--report", str(second)]) == 0
    assert json.loads(first.read_text())["seed"] == 7
    assert json.loads(second.read_text())["seed"] == 0
    before = first.read_text(), second.read_text()
    capsys.readouterr()
    assert main(["run", str(path), "--seed", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 3
    assert (first.read_text(), second.read_text()) == before
    for argv in (["bogus"], ["run"], ["run", str(path), "--seed", "x"], []):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
    assert main(["run", str(path), "--report", str(second)]) == 0
    assert json.loads(second.read_text())["seed"] == 0


def test_report_is_one_line_of_the_same_json(tmp_path, capsys):
    path = tmp_path / "session.json"
    path.write_text(json.dumps(AUGMENTED_SESSION))
    report_file = tmp_path / "report.json"
    assert main(["run", str(path), "--seed", "5", "--report", str(report_file)]) == 0
    capsys.readouterr()
    assert main(["run", str(path), "--seed", "5"]) == 0
    for text in (report_file.read_text(), capsys.readouterr().out):
        assert text.endswith("}\n") and text.count("\n") == 1
        report = json.loads(text)
        # what the indented layout held: same keys, values and key order
        assert json.loads(json.dumps(report, indent=2)) == report
        assert list(report) == ["seed", "passed", "results"]
        want = run_session(json.loads(json.dumps(AUGMENTED_SESSION)), seed=5)
        for entry in report["results"] + want["results"]:
            assert list(entry)[-1] == "elapsed_ms"
            del entry["elapsed_ms"]
        assert [list(e) for e in report["results"]] == [list(e) for e in want["results"]]
        assert report == want


def test_cli_cartan_of_empty_subalgebra(tmp_path):
    # the zero subalgebra of gl2 is not a Cartan subalgebra on any route
    gl2 = algebra_to_json(FdLieAlgebra(2, gl_basis(2)))["basis"]
    session = {
        "algebras": {"gl2": {"n": 2, "basis": gl2}, "zero": {"n": 2, "basis": []}},
        "commands": [
            {"cmd": "fd", "op": "cartan", "alg": "gl2", "sub": "zero",
             "expect": {"is_cartan": False}},
        ],
    }
    path = tmp_path / "cartan.json"
    path.write_text(json.dumps(session))
    report_file = tmp_path / "report.json"
    assert main(["run", str(path), "--report", str(report_file)]) == 0
    result = json.loads(report_file.read_text())["results"][0]["result"]
    assert result == {"is_cartan": False, "via": {"D": False, "F": False}}


def test_cli_import_leaves_sympy_unloaded():
    # sympy is only the tests' reference for factoring: the CLI never loads it
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = "import sys, flagforge.cli; print('sympy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout.strip() == "False"


_WITHOUT_SYMPY = """
import contextlib, io, random, sys
from importlib.abc import MetaPathFinder


class NoSympy(MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "sympy":
            raise ImportError("sympy is not installed")


sys.meta_path.insert(0, NoSympy())
from fractions import Fraction
from _corpus import block_parabolic_basis
from _dense import Dense
from flagforge import cli, finoracle

rotation = {1: Fraction(1), 2: Fraction(-1)}  # [[0, 1], [-1, 0]]: t^2 + 1
chain = finoracle.composition_series([rotation], 2, random.Random(1))
print("rotation", [len(level) for level in chain])
perm = Dense([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
basis = [perm * b * perm.transpose() for b in block_parabolic_basis([1, 2])]
report = finoracle.fd_parabolic_tests(finoracle.FdLieAlgebra(3, basis), seed=2)
print("parabolic", report.is_parabolic)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["run", sys.argv[1]])
print("run", code)
print("sympy loaded", "sympy" in sys.modules)
"""


def test_fd_runtime_needs_no_sympy(tmp_path):
    # the meataxe factors over ZZ in the package: with every sympy import
    # failing, composition series, parabolic tests and a session still run
    session = _fd_session()
    session["algebras"]["rot"] = {"n": 2, "basis": algebra_to_json(
        FdLieAlgebra(2, [Matrix([[0, 1], [-1, 0]])]))["basis"]}
    session["commands"].append(
        {"cmd": "fd", "op": "taut", "alg": "rot", "expect": {"block_dims": [2]}})
    path = tmp_path / "fd.json"
    path.write_text(json.dumps(session))
    here = Path(__file__).resolve().parent
    out = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SYMPY, str(path)],
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(here.parent / "src"), str(here)])},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert out.stdout.splitlines() == [
        "rotation [2]",
        "parabolic True",
        "run 0",
        "sympy loaded False",
    ]


# --- what one session computes once ------------------------------------------


def test_session_computes_each_annihilator_once_per_value(monkeypatch):
    computed = []  # keeps every model alive, so no id is reused
    inner = pairedspace._annihilator

    def counted(a):
        computed.append((a.model, a._key()))
        return inner(a)

    monkeypatch.setattr(pairedspace, "_annihilator", counted)
    report = run_session(random_session(random.Random(3)))
    assert report["passed"], report
    keys = [(id(m), key) for m, key in computed]
    assert keys and len(set(keys)) == len(keys)


def test_sessions_of_one_file_share_no_annihilator():
    data = random_session(random.Random(4))
    first, second = Session(data), Session(data)
    for session in (first, second):
        runner = Runner(session)
        for cmd in session.commands:
            runner.run_command(cmd)
    for name in data["models"]:
        a, b = first.models[name], second.models[name]
        assert a == b and a is not b
        assert not {id(p) for p in a._perps.values()} & {id(p) for p in b._perps.values()}
    assert first.models["p"]._perps and first.models["d"]._perps


def test_cached_flag_classification_rejects_mutation():
    flag = Session(random_session(random.Random(5))).flags["f"]
    cls = classify_flag(flag)  # already computed while validating couple c
    assert classify_flag(flag) is cls and flag._classification is cls
    with pytest.raises(dataclasses.FrozenInstanceError):
        cls.closed = False


def test_warm_process_reports_what_a_cold_process_reports(tmp_path):
    def report_of(path):  # the report text, in its key order, without timings
        report = json.loads(path.read_text())
        for entry in report["results"]:
            del entry["elapsed_ms"]
        return json.dumps(report, indent=2)

    path = tmp_path / "session.json"
    path.write_text(json.dumps(random_session(random.Random(11))))
    cold = tmp_path / "cold.json"
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-m", "flagforge.cli", "run", str(path), "--report", str(cold)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    # other sessions fill the EpSet memo of this process first
    for seed in range(12, 15):
        other = tmp_path / f"other{seed}.json"
        other.write_text(json.dumps(random_session(random.Random(seed))))
        assert main(["run", str(other), "--report", str(tmp_path / "other.json")]) == 0
    assert epcore._pointwise.cache_info().hits
    warm = tmp_path / "warm.json"
    assert main(["run", str(path), "--report", str(warm)]) == 0
    assert report_of(warm) == report_of(cold)


def test_round_trip_serialization():
    rng = random.Random(5)
    models = [plain_model(), dense_line_model(), split_form_model("symmetric")]
    for m in models:
        again = serial.model_from_json(model_to_json(m))
        assert again == m
    m = dense_line_model()
    sub = span(
        m,
        SIDE_V,
        EpSet.from_residues(3, (0, 2)),
        [Vector(m, SIDE_V, {1: 2, 4: -1}, (1,))],
    )
    back = serial.subspace_from_json(m, serial.subspace_to_json(sub))
    assert back == sub
    t = augmented_couple()
    t2 = _session_reader(t.model, "couples")(_couple_to_session(t))
    assert t2.f_flag == t.f_flag and t2.g_flag == t.g_flag
    assert t2.c_pairs == t.c_pairs
    x = random_element(m, rng)
    x2 = serial.element_from_json(m, element_to_json(x))
    assert x2 == x
    g = FdLieAlgebra(3, upper_triangular_basis(3))
    g2 = serial.algebra_from_json(algebra_to_json(g))
    assert g2.span == g.span
    seq = EpSeq.make([1], [2, 3])
    assert serial.epseq_from_json(epseq_to_json(seq)) == seq


def _flag_to_session(f):
    """A flag as a session file names it: its chain of subspaces."""
    return {"model": "m", "side": f.side,
            "chain": [serial.subspace_to_json(s) for s in f.chain]}


def _couple_to_session(t):
    """A couple as a session file names it: by the names of its flags."""
    return {"flags": {"f": _flag_to_session(t.f_flag), "g": _flag_to_session(t.g_flag)},
            "couples": {"x": {"f": "f", "g": "g"}}}


def _session_reader(model, section):
    """Read the object "x" of a session section, the model named "m"."""
    def read(fragment):
        data = {"models": {"m": model_to_json(model)}} | fragment
        return getattr(Session(data), section)["x"]
    return read


def _serial_case(kind):
    """(value, to_json, from_json) for a type a session can name; readers
    that need a model or a couple get it bound."""
    m = dense_line_model()
    mf = split_form_model("antisymmetric")
    t = augmented_couple()
    sub = span(
        m, SIDE_V, EpSet.from_residues(3, (0, 2)), [Vector(m, SIDE_V, {1: 2, 4: -1}, (1,))]
    )
    bflag = BasisOrderFlag(
        plain_model(),
        (
            Block(FINITE, points=((0, 1), (2,))),
            Block(OMEGA_UP, indices=EpSet.from_residues(2, (1,), threshold=3)),
            Block(OMEGA_DOWN, indices=EpSet.from_residues(2, (0,), threshold=3)),
        ),
    )
    x = random_element(m, random.Random(9), terms=3).add(
        rank_one(aug_vector(m, SIDE_V, 0), Vector(m, SIDE_W, {2: "1/3"}))
    )
    g = FdLieAlgebra(3, upper_triangular_basis(3))
    te = evens_couple()
    tc = TraceConditionSubalgebra(te, "gl", [["1/2", -1]])
    cases = {
        "model": (mf, model_to_json, serial.model_from_json),
        "augmented_model": (m, model_to_json, serial.model_from_json),
        "vector": (vectors(sub)[0], serial.vector_to_json, partial(serial.vector_from_json, m)),
        "subspace": (sub, serial.subspace_to_json, partial(serial.subspace_from_json, m)),
        "flag": (t.f_flag, lambda f: {"flags": {"x": _flag_to_session(f)}},
                 _session_reader(m, "flags")),
        "basis_flag": (bflag, basis_flag_to_json,
                       partial(serial.basis_flag_from_json, bflag.model)),
        "couple": (t, _couple_to_session, _session_reader(m, "couples")),
        "element": (x, element_to_json, partial(serial.element_from_json, m)),
        "matrix": (D(g.basis[1]).scale(Fraction(-5, 2)), serial.matrix_to_json,
                   serial.matrix_from_json),
        "algebra": (g, algebra_to_json, serial.algebra_from_json),
        "tc_subalgebra": (tc, tc_to_json, partial(serial.tc_from_json, te)),
    }
    return cases[kind]


@pytest.mark.parametrize(
    "kind",
    ["model", "augmented_model", "vector", "subspace", "flag", "basis_flag",
     "couple", "element", "matrix", "algebra", "tc_subalgebra"],
)
def test_serial_round_trip_is_stable(kind):
    value, to_json, from_json = _serial_case(kind)
    encoded = to_json(value)
    assert to_json(from_json(json.loads(json.dumps(encoded)))) == encoded


# --- fuzzing the exit-code contract -----------------------------------------

# keys whose string value names an object defined elsewhere in the session
REFERENCE_KEYS = {"model", "f", "g", "couple", "flag", "elem", "tc", "alg", "object"}
# keys a reader or command may go without
OPTIONAL_KEYS = {
    "v_augs", "w_augs", "cross", "form_kind", "iota", "aligned", "corrections",
    "threshold", "period", "pre", "repeat", "residues", "chain", "terms", "basis", "augs",
    "ambient", "constraints", "levels", "name", "expect",
}
# replacements of another JSON type that no reader accepts in place of the
# original (an int is a valid rational and a list a valid `levels`, so
# strings are swapped for neither)
SWAPS = {
    dict: [7, None, "x", [1]],
    list: [7, None, "x", {"k": 1}],
    str: [None, True, {"k": 1}],
    int: [None, "x", [1], {"k": 1}],
}


VALID_SESSIONS = [AUGMENTED_SESSION, _full_surface_session(), _fd_session()]


def _structural_mutations():
    """(session index, path, action, argument) for every structural mutation
    of the valid sessions: swap a value's type, drop a required field, point
    a reference at nothing, name the unknown side "X", give an algebra the
    wrong arity (drop a row of a basis matrix, or raise n by one).  Expectations are not input and stay as
    they are."""
    out = []

    def walk(si, path, value, key):
        if key == "expect":
            return
        if path:
            for swap in SWAPS[type(value)]:
                out.append((si, path, "set", swap))
            if key in REFERENCE_KEYS or path[-2:-1] == ("chain",):
                if isinstance(value, str):
                    out.append((si, path, "set", "nowhere"))
            if key == "side":
                out.append((si, path, "set", "X"))
            # a section or a whole definition is not a field, nor is an
            # index key of a vector's basis
            is_field = len(path) > 2 and isinstance(key, str) and not key.isdigit()
            if is_field and key not in OPTIONAL_KEYS:
                out.append((si, path, "drop", None))
        children = value.items() if isinstance(value, dict) else (
            enumerate(value) if isinstance(value, list) else ())
        for k, v in children:
            walk(si, path + (k,), v, k)

    for si, session in enumerate(VALID_SESSIONS):
        walk(si, (), session, None)
        out += _arity_mutations(si, session)
    return out


def _arity_mutations(si, session):
    out = []
    for name, alg in session.get("algebras", {}).items():
        path = ("algebras", name)
        out.append((si, path + ("n",), "set", alg["n"] + 1))
        for b in range(len(alg["basis"])):
            out.append((si, path + ("basis", b, 0), "drop", None))
    return out


MUTATIONS = _structural_mutations()
ARITY_MUTATIONS = [m for si, s in enumerate(VALID_SESSIONS) for m in _arity_mutations(si, s)]


def _mutate(session, path, action, arg):
    """A copy of the session with the mutation applied; a mutated definition
    keeps no command, a mutated command is the only one kept."""
    data = copy.deepcopy(session)
    if path[0] == "commands" and len(path) > 1:
        data["commands"] = [data["commands"][path[1]]]
        path = ("commands", 0) + path[2:]
    elif path[0] != "commands":
        data["commands"] = []
    parent = data
    for k in path[:-1]:
        parent = parent[k]
    if action == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = arg
    return data


def test_structural_mutations_cover_every_kind():
    actions = {(a, arg == "nowhere") for _, _, a, arg in MUTATIONS}
    assert actions == {("set", False), ("set", True), ("drop", False)}
    assert len({si for si, *_ in MUTATIONS}) == 3
    # wrong arity: every basis matrix loses a row, every n grows by one
    assert all(m in MUTATIONS for m in ARITY_MUTATIONS)
    dropped_rows = {p[:4] for _, p, a, _ in ARITY_MUTATIONS if a == "drop"}
    grown = {p[:2] for _, p, a, _ in ARITY_MUTATIONS if a == "set"}
    algebras = VALID_SESSIONS[2]["algebras"]
    assert len(dropped_rows) == sum(len(a["basis"]) for a in algebras.values())
    assert grown == {("algebras", name) for name in algebras}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(MUTATIONS))
def test_cli_structural_mutations_exit_2(mutation):
    _assert_exit_2(mutation)


@pytest.mark.parametrize("mutation", ARITY_MUTATIONS, ids=str)
def test_cli_arity_mutations_exit_2(mutation):
    _assert_exit_2(mutation)


def _assert_exit_2(mutation):
    si, path, action, arg = mutation
    data = _mutate(VALID_SESSIONS[si], path, action, arg)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        session = Path(tmp) / "session.json"
        session.write_text(json.dumps(data))
        with contextlib.redirect_stderr(err):
            code = main(["run", str(session), "--report", str(Path(tmp) / "r.json")])
    message = err.getvalue()
    assert code == 2, (mutation, message)
    assert message.startswith("error: ") and message.count("\n") == 1, message
