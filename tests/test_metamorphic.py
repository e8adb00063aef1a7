"""Answers about an element depend on its operator, not on how it was written.

Each test rewrites an element's terms into another list of terms with the
same operator sum_t v_t (x) w_t, and asks both elements the same questions
(metamorphic testing, Chen, Cheung & Yiu 1998, HKUST-CS98-01).  The four
rewrites are: shuffle the terms; split v (x) w into v_1 (x) w + v_2 (x) w;
add a cancelling pair u (x) y - u (x) y; scale c v (x) w / c.  The answers
compared are the operator's entries, the certified truncation levels, the
`truncate-compare` report, and the joint, nilradical, p-minus and p-prime
verdicts and block traces on the membership couples of the plain, the
dense-line and both split-form models.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagforge.coherence import compare, window_levels
from flagforge.exactnum import axpy
from flagforge.finitary import FinitaryElement
from flagforge.pairedspace import plain_model
from test_element_rows import MODELS, _answers, _couples, _model, nonzero, term_rows

F = Fraction
REWRITES = ["shuffle", "split", "cancel", "scale"]


def _row(n_aug):
    """A sparse row reaching past the basis indices 0..5 of `term_rows`, so
    a rewrite can bring in coordinates that the operator does not have."""
    keys = st.tuples(st.just(1), st.integers(0, 9))
    if n_aug:
        keys = keys | st.tuples(st.just(0), st.integers(0, n_aug - 1))
    return st.dictionaries(keys, nonzero, max_size=3)


def _scaled(c, row):
    return {k: c * a for k, a in row.items()}


@st.composite
def rewritten(draw, model, rows):
    """The term rows rewritten by a sequence of the four rewrites, keeping
    their operator."""
    rows = list(rows)
    n_v, n_w = len(model.v_augs), len(model.w_augs)
    for kind in draw(st.lists(st.sampled_from(REWRITES), min_size=1, max_size=4)):
        if kind == "shuffle":
            rows = list(draw(st.permutations(rows)))
        elif kind == "cancel":
            u, y = draw(_row(n_v)), draw(_row(n_w))
            i = draw(st.integers(0, len(rows)))
            rows[i:i] = [(u, y), (dict(u), _scaled(F(-1), y))]
        elif rows:
            t = draw(st.integers(0, len(rows) - 1))
            v, w = rows[t]
            if kind == "split":
                v1 = draw(_row(n_v))
                v2 = dict(v)
                axpy(v2, F(-1), v1)
                rows[t:t + 1] = [(v1, w), (v2, w)]
            else:
                c = draw(nonzero)
                rows[t] = (_scaled(c, v), _scaled(1 / c, w))
    return rows


def _report(x):
    report = compare(x)
    return report.levels, report.checks


def _reading(x, couples):
    return x.entries(), window_levels(x.model, [x]), _report(x), _answers(x, couples)


@pytest.mark.parametrize("name", MODELS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_equal_elements_give_equal_answers(name, data):
    model, couples = _model(name), _couples(name)
    rows = data.draw(term_rows(model))
    other = data.draw(rewritten(model, rows))
    x, y = FinitaryElement._of(model, rows), FinitaryElement._of(model, other)
    assert x == y
    assert _reading(x, couples) == _reading(y, couples)


def _e(*indices, c=F(1)):
    return {(1, i): c for i in indices}


@pytest.mark.parametrize("written, value, levels", [
    # (e_0 + e_3) (x) f_0 - e_3 (x) f_0 = e_0 (x) f_0: e_3's payload cancels
    ([(_e(0, 3), _e(0)), (_e(3), _e(0, c=F(-1)))], [(_e(0), _e(0))], [2, 3, 4]),
    # (e_0 + e_2) (x) f_0 + (e_1 - e_2) (x) f_0 = (e_0 + e_1) (x) f_0
    ([(_e(0, 2), _e(0)), ({(1, 1): F(1), (1, 2): F(-1)}, _e(0))],
     [(_e(0, 1), _e(0))], [3, 4, 5]),
])
def test_levels_come_from_the_operator(written, value, levels):
    m = plain_model()
    x, y = FinitaryElement._of(m, written), FinitaryElement._of(m, value)
    assert x == y and x.entries() == y.entries()
    assert window_levels(m, [x]) == window_levels(m, [y]) == levels
    assert _report(x) == _report(y)
