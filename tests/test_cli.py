import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from _corpus import augmented_couple, evens_couple, random_element, trivial_couple
from flagforge import serial
from flagforge.cli import SessionError, main, run_session
from flagforge.epcore import EpSeq, EpSet
from flagforge.finitary import FinitaryElement
from flagforge.finoracle import FdLieAlgebra, gl_basis, upper_triangular_basis
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


def test_fd_commands():
    session = {
        "algebras": {
            "b3": {
                "n": 3,
                "basis": serial.algebra_to_json(
                    FdLieAlgebra(3, upper_triangular_basis(3))
                )["basis"],
            },
            "gl2": {
                "n": 2,
                "basis": serial.algebra_to_json(FdLieAlgebra(2, gl_basis(2)))["basis"],
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
    report = run_session(session, seed=0)
    assert report["passed"], report


def test_member_commands_full_surface():
    m_plain = plain_model()
    t = evens_couple(m_plain)
    session = {
        "models": {"m": serial.model_to_json(m_plain)},
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
    report = run_session(session, seed=1)
    assert report["passed"], report
    tc = next(r for r in report["results"] if r["cmd"] == "truncate-compare")
    assert tc["result"]["ok"]


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


def test_cli_import_leaves_sympy_unloaded():
    # sympy serves only the meataxe, so importing the CLI must not pay for it
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


def test_round_trip_serialization():
    rng = random.Random(5)
    models = [plain_model(), dense_line_model(), split_form_model("symmetric")]
    for m in models:
        again = serial.model_from_json(serial.model_to_json(m))
        assert again == m
    m = dense_line_model()
    sub = Subspace.span(
        m,
        SIDE_V,
        EpSet.from_residues(3, (0, 2)),
        [Vector(m, SIDE_V, {1: 2, 4: -1}, (1,))],
    )
    back = serial.subspace_from_json(m, serial.subspace_to_json(sub))
    assert back == sub
    t = augmented_couple()
    c_json = serial.couple_to_json(t)
    t2 = serial.couple_from_json(t.model, c_json)
    assert t2.f_flag == t.f_flag and t2.g_flag == t.g_flag
    assert t2.c_pairs == t.c_pairs
    x = random_element(m, rng)
    x2 = serial.element_from_json(m, serial.element_to_json(x))
    assert x2 == x
    g = FdLieAlgebra(3, upper_triangular_basis(3))
    g2 = serial.algebra_from_json(serial.algebra_to_json(g))
    assert g2.span == g.span
    seq = EpSeq.make([1], [2, 3])
    assert serial.epseq_from_json(serial.epseq_to_json(seq)) == seq
