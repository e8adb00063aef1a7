"""Each reference check accepts a right answer and rejects a wrong one.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import os
import sys
from fractions import Fraction as F

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import reference as ref  # noqa: E402

N = 3
SIZES = (1, 2)
PERM = [2, 0, 1]
FORMS = ref.parabolic_forms(SIZES)
BLK = ref.block_of(SIZES)
ALGEBRA = ref.echelon([ref.flatten(ref.permute(m, PERM)) for m in ref.parabolic_basis(SIZES)])
PATTERN = (PERM, BLK)


def rows(mats):
    return [ref.flatten(ref.permute(m, PERM)) for m in mats]


def unit(i, j):
    return ref.unit(N, i, j)


def combo(*terms):
    out = [[F(0)] * N for _ in range(N)]
    for c, m in terms:
        for i in range(N):
            for j in range(N):
                out[i][j] += c * m[i][j]
    return out


NIL = rows([unit(0, 1), unit(0, 2)])
SCALARS = rows([unit(0, 0), combo((1, unit(1, 1)), (1, unit(2, 2)))])
LEVI = rows([unit(1, 2), unit(2, 1), combo((1, unit(1, 1)), (-1, unit(2, 2)))])


def check(query, answer):
    return ref.check_oracle_answer(query, N, ALGEBRA, answer, FORMS, PATTERN)


def test_closed_forms():
    assert FORMS == {"dim": 7, "radical": 4, "nilradical": 2, "levi": 3, "torus": 2,
                     "block_dims": [1, 2], "parabolic": True}
    assert len(ALGEBRA) == 7
    forms = ref.direct_sum_forms([("gl", 1), ("sl", 2)])
    assert (forms["dim"], forms["radical"], forms["levi"], forms["torus"]) == (4, 1, 3, 1)
    assert not forms["parabolic"]


def test_radical():
    assert check("radical", {"rows": NIL + SCALARS}) == []
    assert check("radical", {"rows": NIL + SCALARS[:1]})  # dimension off by one
    assert check("radical", {"rows": NIL + SCALARS + LEVI[:1]})  # not solvable


def test_nilradical():
    assert check("nilradical", {"rows": NIL}) == []
    assert check("nilradical", {"rows": NIL[:1]})  # dimension off by one
    assert check("nilradical", {"rows": NIL[:1] + SCALARS[:1]})  # not nilpotent


def test_levi():
    assert check("levi", {"rows": LEVI}) == []
    assert check("levi", {"rows": LEVI[:2]})  # not closed, wrong dimension
    assert check("levi", {"rows": LEVI[:2] + SCALARS[:1]})  # leaves [g, g]


def test_reductive():
    good = {"nil_rows": NIL, "levi_rows": LEVI, "torus_rows": SCALARS, "reductive_dim": 5}
    assert check("reductive", good) == []
    assert check("reductive", dict(good, torus_rows=SCALARS[:1]))
    assert check("reductive", dict(good, reductive_dim=4))
    assert check("reductive", dict(good, torus_rows=SCALARS[:1] + NIL[:1]))


def test_taut():
    e = [[F(int(i == j)) for j in range(N)] for i in range(N)]
    level = [e[PERM[0]]]  # the permuted first basis vector spans the invariant line
    good = {"chain": [level, e], "block_dims": [1, 2], "stabilizer_dim": 7, "nilradical_dim": 2}
    assert check("taut", good) == []
    assert check("taut", dict(good, block_dims=[2, 1]))
    assert check("taut", dict(good, stabilizer_dim=8))
    assert check("taut", dict(good, chain=[[e[PERM[1]]], e]))  # not invariant


def test_parabolic():
    assert check("parabolic", {"is_parabolic": True}) == []
    assert check("parabolic", {"is_parabolic": False})


# -- couples ----------------------------------------------------------------

COUPLE_BLK = [0, 1, 0, 1]  # evens before odds


def verdicts(terms, **kw):
    return ref.couple_verdicts(ref.operator(terms, 4), COUPLE_BLK, 2, **kw)


def test_couple_verdicts_closed_forms():
    upper = [(({0: F(1)}, F(0)), {1: F(1)})]  # e_0 (x) f_1: block 0 -> block 1
    lower = [(({1: F(1)}, F(0)), {0: F(1)})]
    diag = [(({0: F(1)}, F(0)), {0: F(1)}), (({2: F(1)}, F(0)), {2: F(-1)})]
    assert verdicts(upper) == {"joint": True, "nilradical": True, "pminus": True,
                               "pprime": True, "traces": [0, 0]}
    assert not verdicts(lower)["joint"]
    v = verdicts(diag)
    assert v["joint"] and not v["nilradical"] and v["pminus"] and v["traces"] == [0, 0]
    v = verdicts(diag[:1])
    assert v["joint"] and not v["pminus"] and v["traces"] == [1, 0]


def test_check_verdicts_rejects_wrong_answers():
    terms = [(({0: F(1)}, F(0)), {1: F(1)})]
    want = verdicts(terms)
    got = dict(want)
    assert ref.check_verdicts(got, want, "nil") == []
    assert ref.check_verdicts(dict(got, nilradical=False), want, "nil")  # flipped
    assert ref.check_verdicts(dict(got, traces=[F(1), 0]), want, "nil")  # wrong trace
    assert ref.check_verdicts(dict(got, joint=False, pminus=True), want, "free")  # inclusion
    assert ref.check_verdicts(got, dict(want, joint=False), "pplus")  # construction


def test_dense_line_verdicts():
    # the dense-line vector against e_0's dual: a(x) != 0, so outside p+
    xa = [(({}, F(1)), {0: F(1)})]
    v = ref.couple_verdicts(ref.operator(xa, 4), [0] * 4, 1, augmented=True)
    assert not v["joint"] and v["pprime"]
    assert ref.check_verdicts(dict(v, joint=True), v, "pprime_only")
    # cancelling dense-line parts stay in p+
    cancel = [(({0: F(1)}, F(1)), {2: F(1)}), (({1: F(1)}, F(-1)), {2: F(1)})]
    assert ref.couple_verdicts(ref.operator(cancel, 4), [0] * 4, 1, augmented=True)["joint"]


def test_bracket_of_operators():
    x = ref.operator([(({0: F(1)}, F(0)), {1: F(1)})], 3)  # E_01
    y = ref.operator([(({1: F(1)}, F(0)), {2: F(1)})], 3)  # E_12
    mat, aug = ref.op_bracket(x, y)
    assert mat == ref.unit(3, 0, 2) and not any(aug)
    # with the dense-line vector v~: [v~ (x) f_0, E_01] = -(v~ (x) f_1) ... plus
    # the term E_01 v~ = e_0, since v~ pairs to 1 with f_1
    xa = ref.operator([(({}, F(1)), {0: F(1)})], 3)
    mat, aug = ref.op_bracket(xa, x)
    assert aug == [F(0), F(1), F(0)]
    assert mat[0] == [F(-1), F(0), F(0)]


def test_form_algebra():
    # e_0 (x) phi(e_2) - e_2 (x) phi(e_0) is in so; phi(e_j) = sign(j) f_iota(j)
    so = [(({0: F(1)}, F(0)), {3: F(1)}), (({2: F(-1)}, F(0)), {1: F(1)})]
    assert ref.in_form_algebra(ref.operator(so, 4)[0], "so")
    assert not ref.in_form_algebra(ref.operator(so[:1], 4)[0], "so")
    sp = [(({0: F(1)}, F(0)), {3: ref.form_sign(2, "sp")}),
          (({2: F(1)}, F(0)), {1: ref.form_sign(0, "sp")})]
    assert ref.in_form_algebra(ref.operator(sp, 4)[0], "sp")
    assert not ref.in_form_algebra(ref.operator(sp, 4)[0], "so")


def test_check_report():
    report = {"results": [{"result": {"dim": 3, "basis": []}}, {"result": {"verdict": True}}]}
    assert ref.check_report(report, [{"dim": 3}, {"verdict": True}]) == []
    assert ref.check_report(report, [{"dim": 4}, {"verdict": True}])
    assert ref.check_report(report, [{"dim": 3}, {"verdict": False}])
    assert ref.check_report({"results": [{"error": "KeyError: 'op'"}, {}]}, [{}, {}])
