from fractions import Fraction
from math import lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from flagforge import epcore
from flagforge.epcore import EpSeq, EpSet, stabilization_window

F = Fraction

EVENS = EpSet.from_residues(2, (0,))
ODDS = EpSet.from_residues(2, (1,))
MULT3 = EpSet.from_residues(3, (0,))


def members(s, bound=40):
    return s.members_below(bound)


def test_complement_evens():
    assert EVENS.complement() == ODDS


def test_intersection_crt():
    assert EVENS.intersection(MULT3) == EpSet.from_residues(6, (0,))


def test_union_with_complement_is_everything():
    assert EVENS.union(EVENS.complement()) == EpSet.naturals()


def test_canonical_form_absorbs_fake_preperiod():
    messy = EpSet.make(4, 4, {0, 2}, {0, 2})
    assert messy == EVENS
    assert messy.period == 2 and messy.threshold == 0


def test_shift():
    assert members(EVENS.shift(1), 10) == [1, 3, 5, 7, 9]
    assert members(ODDS.shift(-1), 10) == [0, 2, 4, 6, 8]
    s = EpSet.finite({0, 3})
    assert members(s.shift(2), 10) == [2, 5]


def test_finite_and_bounds():
    s = EpSet.finite({1, 5})
    assert s.is_finite() and s.size() == 2
    assert not EVENS.is_finite() and EVENS.size() is None
    assert EpSet.from_bound(3).member(3) and not EpSet.from_bound(3).member(2)
    assert EVENS.min_member() == 0 and ODDS.min_member() == 1
    assert EpSet.empty().min_member() is None


ep_sets = st.builds(
    EpSet.make,
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=1, max_value=6),
    st.sets(st.integers(min_value=0, max_value=4), max_size=5),
    st.sets(st.integers(min_value=0, max_value=5), max_size=6),
)


@settings(max_examples=300, deadline=None)
@given(ep_sets, st.integers(min_value=-8, max_value=8))
def test_shift_matches_pointwise_membership(s, offset):
    """Negative offsets too: members pushed below 0 drop out, and the
    indices between the new and the old threshold come from the residues."""
    shifted = s.shift(offset)
    for n in range(s.threshold + abs(offset) + 3 * s.period):
        assert shifted.member(n) == (n - offset >= 0 and s.member(n - offset))


@settings(max_examples=300, deadline=None)
@given(ep_sets, ep_sets, ep_sets)
def test_boolean_algebra_laws(a, b, c):
    n_star, p_star = stabilization_window([a, b, c])
    probe = range(n_star + 2 * p_star)

    def same(x, y):
        assert x == y
        assert all(x.member(n) == y.member(n) for n in probe)

    same(a.union(b), b.union(a))
    same(a.intersection(b), b.intersection(a))
    same(a.union(b.intersection(c)), a.union(b).intersection(a.union(c)))
    same(a.intersection(b.union(c)), a.intersection(b).union(a.intersection(c)))
    same(a.complement().complement(), a)
    same(a.difference(b), a.intersection(b.complement()))
    same(a.union(a), a)


@settings(max_examples=200, deadline=None)
@given(ep_sets, ep_sets)
def test_membership_matches_canonical_equality(a, b):
    n_star, p_star = stabilization_window([a, b])
    agree = all(a.member(n) == b.member(n) for n in range(n_star + 2 * p_star))
    assert agree == (a == b)


def test_seq_canonicalization():
    s = EpSeq.make([1, F(1, 2)], [3, 3, 3])
    assert s.repeat == (F(3),)
    rolled = EpSeq.make([2, 5], [7, 5])
    # last preperiodic 5 merges into the cycle
    assert rolled == EpSeq.make([2], [5, 7])
    assert [rolled.value(i) for i in range(6)] == [2, 5, 7, 5, 7, 5]


ep_seqs = st.builds(
    EpSeq.make,
    st.lists(st.integers(min_value=-2, max_value=2), max_size=3),
    st.lists(st.integers(min_value=-2, max_value=2), min_size=1, max_size=4),
)


@settings(max_examples=200, deadline=None)
@given(ep_seqs)
def test_seq_algebra(s):
    """Values repeat from the threshold on with the period, and calling is
    reading a value."""
    n, p = stabilization_window([s])
    assert (n, p) == (s.threshold(), s.period())
    values = [s(i) for i in range(n + 3 * p)]
    assert values == [s.value(i) for i in range(n + 3 * p)]
    assert all(values[i] == values[i + p] for i in range(n, n + 2 * p))


def test_window():
    assert stabilization_window([EVENS]) == (0, 2)
    assert stabilization_window(
        [EpSet.make(3, 2, {2}, {1}), EpSet.make(1, 3, {0}, {1})]
    ) == (3, 6)
    assert stabilization_window([]) == (0, 1)


# --- the memoized set algebra ------------------------------------------------


def _complement_by_formula(a):
    """The complement as computed before the memo: same threshold and period,
    the other preperiodic entries and residues."""
    return EpSet.make(
        a.threshold,
        a.period,
        set(range(a.threshold)) - a.pre,
        set(range(a.period)) - a.residues,
    )


@settings(max_examples=300, deadline=None)
@given(ep_sets, ep_sets)
def test_memoized_algebra_matches_uncached_and_pointwise(a, b):
    uncached = epcore._pointwise.__wrapped__
    cases = [
        (lambda: a.union(b), uncached(a, b, "union"), lambda n: a.member(n) or b.member(n)),
        (lambda: a.intersection(b), uncached(a, b, "intersection"),
         lambda n: a.member(n) and b.member(n)),
        (lambda: a.difference(b), uncached(a, b, "difference"),
         lambda n: a.member(n) and not b.member(n)),
        (lambda: a.complement(), _complement_by_formula(a), lambda n: not a.member(n)),
    ]
    for op, want, member in cases:
        got = op()
        assert got == want
        assert op() is got  # the second call is answered from the memo
        n_star, p_star = stabilization_window([a, b, got])
        window = range(n_star + 2 * p_star)
        assert [got.member(n) for n in window] == [member(n) for n in window]


def test_memo_is_bounded_and_constants_are_shared():
    assert epcore._pointwise.cache_info().maxsize == 1024
    assert EpSet.empty() is EpSet.empty() and EpSet.naturals() is EpSet.naturals()
    assert EpSet.empty() == EpSet.make(0, 1, (), ())
    assert EpSet.naturals() == EpSet.make(0, 1, (), (0,))
