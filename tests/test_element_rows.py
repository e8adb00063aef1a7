"""The term rows of `FinitaryElement` against the reduced echelon form it
kept before.

An element is canonicalized by one semi-echelon pass over its left factors
that carries the right factors along.  Its left factors are independent,
with distinct smallest columns, but they are not unique: they depend on the
order of the terms.  What is read off an element goes through its operator
(`apply_row`, `entries`), so it must not depend on the rows.  These tests
check, on the plain, the dense-line and both split-form models, that the
pass gives the operator of the old reduced echelon form
(`_corpus.rref_element_rows`), that `entries` is that operator, that its
rows have that form, and that shuffling the terms changes no action,
verdict or block trace.  A product gives one row per term of its left
factor.  `test_metamorphic` rewrites elements in more ways than a shuffle.
"""

import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _corpus import (
    act_on_v,
    augmented_couple,
    basis_vector,
    element_terms,
    evens_couple,
    has_independent_rows,
    operator,
    random_plain_couple,
    rank_one,
    rref_element_rows,
    trivial_couple,
)
from flagforge.coherence import window_levels
from flagforge.exactnum import Echelon, axpy
from flagforge.finitary import FinitaryElement
from flagforge.pairedspace import (
    SIDE_V,
    SIDE_W,
    Vector,
    dense_line_model,
    plain_model,
    split_form_model,
)
from test_element_cache import _questions
from test_maps_into import _split_form_couples

F = Fraction
UNITS = range(6)  # act_on_v is compared on e_0 .. e_5


@lru_cache(maxsize=None)
def _couples(name):
    """The membership couples on one model, built once."""
    if name == "plain":
        return [evens_couple(), trivial_couple()] + [
            random_plain_couple(random.Random(s)) for s in range(2)
        ]
    if name == "dense_line":
        return [augmented_couple()]
    kind = name.split("_")[-1]
    return [t for t in _split_form_couples() if t.model.form_kind == kind]


MODELS = ["plain", "dense_line", "split_symmetric", "split_antisymmetric"]


def _model(name):
    return _couples(name)[0].model


nonzero = st.integers(-3, 3).filter(bool).map(F)


def _row(n_aug, max_size=3):
    keys = st.tuples(st.just(1), st.integers(0, 5))
    if n_aug:
        keys = keys | st.tuples(st.just(0), st.integers(0, n_aug - 1))
    return st.dictionaries(keys, nonzero, max_size=max_size)


def _combine(c, a, d, b):
    out = {k: c * v for k, v in a.items()}
    axpy(out, d, b)
    return out


@st.composite
def term_rows(draw, model):
    """Sparse (V row, V* row) terms with dependent and repeated left
    factors, cancelling pairs of terms and empty right factors."""
    n_v, n_w = len(model.v_augs), len(model.w_augs)
    pool = draw(st.lists(_row(n_v), min_size=1, max_size=3))
    from_pool = st.sampled_from(pool)
    terms = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["free", "repeat", "combination", "cancel"]))
        w = draw(_row(n_w) | st.just({}))
        if kind == "free":
            terms.append((draw(_row(n_v)), w))
        elif kind == "repeat":
            terms.append((dict(draw(from_pool)), w))
        elif kind == "combination":
            c, d = draw(nonzero), draw(nonzero)
            terms.append((_combine(c, draw(from_pool), d, draw(from_pool)), w))
        else:
            v, c = draw(from_pool), draw(nonzero)
            terms.append(({k: c * a for k, a in v.items()}, w))
            terms.append((dict(v), {k: -c * b for k, b in w.items()}))
    return terms


def _vectors(model, rows):
    return [
        (Vector.from_sparse(model, SIDE_V, v), Vector.from_sparse(model, SIDE_W, w))
        for v, w in rows
    ]


def _with_rows(model, rows):
    """An element holding exactly the given rows, not canonicalized again."""
    x = object.__new__(FinitaryElement)
    x.model, x._rows, x._verdicts, x._blocks = model, rows, [], []
    return x


def _answers(x, couples):
    return [[ask(x) for _, ask in _questions(t)] for t in couples]


def _actions(x, model):
    return [act_on_v(x, basis_vector(model, SIDE_V, i)) for i in UNITS]


@pytest.mark.parametrize("name", MODELS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_rows_match_the_reduced_echelon_reference(name, data):
    model, couples = _model(name), _couples(name)
    rows = data.draw(term_rows(model))
    before = [(dict(v), dict(w)) for v, w in rows]
    x = FinitaryElement(model, _vectors(model, rows))
    ref = rref_element_rows(rows)
    assert operator(element_terms(x)) == operator(_vectors(model, ref))
    assert operator(element_terms(x)) == operator(_vectors(model, rows)) == x.entries()
    assert has_independent_rows(x)
    # the left factors stay inside the span of the given ones
    given_span = Echelon(v for v, _ in rows)
    assert not any(given_span.reduce(v) for v, _ in x._rows)
    shuffled = data.draw(st.permutations(rows))
    y = FinitaryElement._of(model, shuffled)
    assert has_independent_rows(y)
    assert x == y and _actions(x, model) == _actions(y, model)
    answers = _answers(x, couples)
    assert answers == _answers(y, couples) == _answers(_with_rows(model, ref), couples)
    # building an element leaves its input rows alone
    assert rows == before


@pytest.mark.parametrize("name", MODELS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_product_rows_one_per_left_term(name, data):
    model = _model(name)
    x = FinitaryElement._of(model, data.draw(term_rows(model)))
    y = FinitaryElement._of(model, data.draw(term_rows(model)))
    product = x._product_rows(y)
    assert len(product) <= len(x._rows)
    assert all(w for _, w in product)
    z = x.bracket(y)
    assert has_independent_rows(z)
    for u in (basis_vector(model, SIDE_V, i) for i in UNITS):
        want = act_on_v(x, act_on_v(y, u)).to_sparse()
        axpy(want, F(-1), act_on_v(y, act_on_v(x, u)).to_sparse())
        assert act_on_v(z, u).to_sparse() == want


def test_product_sums_the_right_factors_of_each_left_term():
    m = plain_model()
    e = lambda i: basis_vector(m, SIDE_V, i)  # noqa: E731
    f = lambda i: basis_vector(m, SIDE_W, i)  # noqa: E731
    # (e_0 (x) (f_0 + f_1)) (e_0 (x) f_2 + e_1 (x) f_3) = e_0 (x) (f_2 + f_3)
    x = rank_one(e(0), Vector(m, SIDE_W, {0: 1, 1: 1}))
    y = rank_one(e(0), f(2)).add(rank_one(e(1), f(3)))
    assert x._product_rows(y) == [({(1, 0): F(1)}, {(1, 2): F(1), (1, 3): F(1)})]


@pytest.mark.parametrize("model", [dense_line_model(), split_form_model("symmetric")])
def test_rows_depend_on_term_order_and_equality_does_not(model):
    e = lambda i: basis_vector(model, SIDE_V, i)  # noqa: E731
    f = lambda i: basis_vector(model, SIDE_W, i)  # noqa: E731
    e01 = Vector(model, SIDE_V, {0: 1, 1: 1})
    terms = [(e01, f(0)), (e(0), f(2))]
    x = FinitaryElement(model, terms)
    y = FinitaryElement(model, terms[::-1])
    # e_0 is reduced against e_0 + e_1 in x, and the other way round in y
    assert x._rows == [({(1, 0): 1, (1, 1): 1}, {(1, 0): 1, (1, 2): 1}),
                       ({(1, 1): -1}, {(1, 2): 1})]
    assert y._rows == [({(1, 0): 1}, {(1, 0): 1, (1, 2): 1}), ({(1, 1): 1}, {(1, 0): 1})]
    assert has_independent_rows(x) and has_independent_rows(y)
    assert x == y and x.sub(y).is_zero()
    assert x.entries() == y.entries()
    assert window_levels(model, [x]) == window_levels(model, [y])
