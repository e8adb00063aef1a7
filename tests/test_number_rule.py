"""The package's number rule: a rational is an int when it is integral and a
`Fraction` otherwise.

`rat` and `div` produce that canonical form.  The kernels accept it and
all-`Fraction` values alike: fed the same inputs twice, once with every
value a `Fraction` and once in canonical form, `Echelon` (`rows`,
`pivots`, `reduce`, `coords`), `kernel`, `sparse_product`,
`sparse_bracket`, `minpoly` and `jordan_chevalley` give equal results, and
none of them is a float.  The canonical form here is written out by hand,
apart from `rat`.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _corpus import is_canonical, is_exact
from flagforge.exactnum import (
    Echelon,
    div,
    jordan_chevalley,
    kernel,
    minpoly,
    rat,
    sparse_bracket,
    sparse_matrix,
    sparse_product,
)

F = Fraction


def _canonical(v):
    return v.numerator if v.denominator == 1 else v


def _both(rows):
    """The rows with every value a Fraction, and in canonical form."""
    fractions = [{k: F(v) for k, v in r.items()} for r in rows]
    canonical = [{k: _canonical(F(v)) for k, v in r.items()} for r in rows]
    return fractions, canonical


def _exact(value) -> bool:
    """Every number in a nest of lists, tuples and dicts is exact."""
    if isinstance(value, dict):
        return all(map(_exact, value.values()))
    if isinstance(value, (list, tuple)):
        return all(map(_exact, value))
    return value is None or is_exact(value)


# integers, and fractions whose denominators make pivots non-integral
values = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4)).filter(bool)
int_columns = st.integers(0, 5)
tagged_columns = st.tuples(st.integers(0, 1), st.integers(0, 3))


def sparse_rows(columns):
    return st.lists(st.dictionaries(columns, values, max_size=4), max_size=6)


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.tuples(sparse_rows(int_columns), sparse_rows(int_columns)),
                 st.tuples(sparse_rows(tagged_columns), sparse_rows(tagged_columns))))
def test_echelon_agrees_on_fractions_and_canonical_values(rows_probes):
    rows, probes = rows_probes
    results = []
    for form_rows, form_probes in zip(_both(rows), _both(probes)):
        ech = Echelon(form_rows)
        results.append((ech.rows(), ech.pivots, [ech.reduce(p) for p in form_probes],
                        [ech.coords(p) for p in form_probes + ech.rows()]))
    assert results[0] == results[1]
    assert _exact(results)


@settings(max_examples=100, deadline=None)
@given(sparse_rows(int_columns))
def test_kernel_agrees_on_fractions_and_canonical_values(rows):
    fractions, canonical = (kernel(form, 6) for form in _both(rows))
    assert fractions == canonical
    assert _exact(fractions) and _exact(canonical)


@st.composite
def matrix_pairs(draw):
    n = draw(st.integers(1, 4))
    flat = st.dictionaries(st.integers(0, n * n - 1), values, max_size=n * n)
    return n, draw(flat), draw(flat)


@settings(max_examples=100, deadline=None)
@given(matrix_pairs())
def test_matrix_kernels_agree_on_fractions_and_canonical_values(nab):
    n, a, b = nab
    results = []
    for x, y in zip(*(_both([m]) for m in (a, b))):
        sx, sy = sparse_matrix(x[0], n), sparse_matrix(y[0], n)
        results.append((sparse_product(sx, sy, n), sparse_bracket(sx, sy, n),
                        minpoly(x[0], n), jordan_chevalley(x[0], n)))
    assert results[0] == results[1]
    assert _exact(results)
    for out in results:  # products and brackets leave the kernel in canonical form
        assert all(map(is_canonical, [*out[0].values(), *out[1].values()]))


def test_rat_and_div_give_the_canonical_form():
    for x in (0, 3, -2, F(4, 2), F(-6, 3), "5", "-4/2", True):
        assert type(rat(x)) is int and rat(x) == F(x)
    for x in (F(1, 2), "-3/4", "0.5"):
        assert type(rat(x)) is F and rat(x) == F(x)
    with pytest.raises(TypeError):
        rat(0.5)
    for a, b in ((6, 3), (-6, 3), (0, 5), (F(3, 2), F(1, 2)), (F(4), 2), (3, F(3))):
        assert type(div(a, b)) is int and div(a, b) == F(a) / F(b)
    for a, b in ((1, 2), (-7, 3), (F(1, 3), 2), (2, F(3, 2)), (F(3), F(2))):
        assert is_canonical(div(a, b)) and div(a, b) == F(a) / F(b)
    for a in (1, F(1, 2)):
        with pytest.raises(ZeroDivisionError):
            div(a, 0)
