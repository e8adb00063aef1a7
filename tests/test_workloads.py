"""The benchmark workloads' own output checks, as tier-1 tests.

Each workload in `perfbench/` builds its inputs from a seed and checks every
operation's output against closed forms in `perfbench/reference.py`.  One
pass of each at one seed runs here, so a change that breaks a workload's
output fails the test suite, not only the benchmark.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

SEED = 7


def _build(name, tmp_path):
    module = __import__(name)
    if name == "session":
        return module.build(SEED, str(tmp_path))
    return module.build(SEED)


@pytest.mark.parametrize("name", ["oracle", "membership", "session"])
def test_one_pass_passes_every_check(name, tmp_path):
    workload = _build(name, tmp_path)
    problems = []
    borel_checks = []
    for op in workload.ops:
        out = op.run()
        problems += op.check(out)
        # the oracle's answer keeps only is_parabolic: every parabolic it
        # asks about is one, so each has a Borel from its composition series
        if name == "oracle" and op.query == "parabolic":
            borel_checks.append(out.borel_restriction_check)
    assert len(workload.ops) >= 100
    assert problems == []
    if name == "oracle":
        assert borel_checks and all(borel_checks)
    if name == "session":
        assert any(op.probe for op in workload.ops)
