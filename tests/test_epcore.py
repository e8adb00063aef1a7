from fractions import Fraction
from math import lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from flagforge.epcore import EpSeq, EpSet, ep_linear_solve, stabilization_window

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


def test_seq_algebra():
    a = EpSeq.make([], [1, 0])
    b = EpSeq.make([], [0, 1])
    assert a.add(b) == EpSeq.constant(1)
    assert a.scale(2).value(0) == 2
    assert a.mask(ODDS).is_zero()
    assert a.mask(EVENS) == a


def test_window():
    assert stabilization_window([EVENS]) == (0, 2)
    assert stabilization_window(
        [EpSet.make(3, 2, {2}, {1}), EpSet.make(1, 3, {0}, {1})]
    ) == (3, 6)
    assert stabilization_window([]) == (0, 1)


def test_ep_solve_constant_row():
    sol = ep_linear_solve([(EpSeq.constant(1), EpSet.naturals())])
    assert sol.kernel_basis == []  # d = 0 forced
    assert sol.is_admissible([0]) and not sol.is_admissible([1])


def test_ep_solve_zero_row():
    sol = ep_linear_solve([(EpSeq.zero(), EpSet.naturals())])
    assert len(sol.kernel_basis) == 1
    assert sol.corrections([5]) == {}


def test_ep_solve_alternating_rows():
    rows = [
        (EpSeq.make([], [1, 0]), EpSet.naturals()),
        (EpSeq.make([], [0, 1]), EpSet.naturals()),
    ]
    sol = ep_linear_solve(rows)
    assert sol.kernel_basis == []


def test_ep_solve_corrections_region():
    # row vanishes on the domain tail but not on the head
    row = EpSeq.make([1, 1], [0])
    sol = ep_linear_solve([(row, EpSet.naturals())], through=4)
    assert len(sol.kernel_basis) == 1
    assert sol.corrections([1]) == {0: F(-1), 1: F(-1)}


ep_seqs = st.builds(
    EpSeq.make,
    st.lists(st.integers(min_value=-2, max_value=2), max_size=3),
    st.lists(st.integers(min_value=-2, max_value=2), min_size=1, max_size=4),
)


@settings(max_examples=120, deadline=None)
@given(st.lists(st.tuples(ep_seqs, ep_sets), min_size=1, max_size=3))
def test_ep_solve_matches_brute_force(conds):
    sol = ep_linear_solve(conds)
    n_star, p_star = sol.window
    bound = n_star + 2 * p_star
    masked = [row.mask(dom) for row, dom in conds]
    brute_rows = [[m.value(i) for m in masked] for i in range(bound)]
    # admissible d are exactly those killing every masked row value from the
    # window on; compare solution spaces sampled way beyond the window
    from flagforge.exactnum import Matrix, kernel

    brute = kernel(Matrix(brute_rows[n_star:] or [[F(0)] * len(conds)]))
    ours = sol.kernel_basis
    assert len(brute) == len(ours)
    for d in ours:
        assert all(
            not sum((dk * row[k] for k, dk in enumerate(d)), F(0))
            for row in brute_rows[n_star:]
        )
