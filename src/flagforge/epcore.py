"""Eventually periodic subsets of N and eventually periodic rational sequences.

An EpSet is determined by a finite preperiodic part below a threshold N and a
residue pattern modulo a period p that rules everything from N on.  An EpSeq
is the sequence analogue.  Both carry a unique canonical form (minimal period
first, then minimal threshold), so equality is structural.

All index bookkeeping is 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .exactnum import Matrix, kernel, rat


def _divisors(p: int):
    return [d for d in range(1, p + 1) if p % d == 0]


@dataclass(frozen=True)
class EpSet:
    """Eventually periodic subset of N in canonical form."""

    threshold: int
    period: int
    pre: frozenset[int]
    residues: frozenset[int]

    @staticmethod
    def make(threshold: int, period: int, pre, residues) -> "EpSet":
        if period < 1 or threshold < 0:
            raise ValueError("need period >= 1 and threshold >= 0")
        pre = frozenset(n for n in pre if 0 <= n < threshold)
        residues = frozenset(r % period for r in residues)
        # minimal period: smallest divisor consistent with the pattern
        for d in _divisors(period):
            if all((r in residues) == ((r % d) in residues) for r in range(period)):
                residues = frozenset(r for r in residues if r < d)
                period = d
                break
        # minimal threshold: absorb preperiodic entries that already match
        members = set(pre)
        while threshold > 0:
            n = threshold - 1
            if (n in members) == ((n % period) in residues):
                members.discard(n)
                threshold = n
            else:
                break
        return EpSet(threshold, period, frozenset(members), frozenset(residues))

    @staticmethod
    def empty() -> "EpSet":
        return EpSet.make(0, 1, (), ())

    @staticmethod
    def naturals() -> "EpSet":
        return EpSet.make(0, 1, (), (0,))

    @staticmethod
    def finite(members) -> "EpSet":
        members = set(members)
        bound = max(members) + 1 if members else 0
        return EpSet.make(bound, 1, members, ())

    @staticmethod
    def from_residues(period: int, residues, threshold: int = 0, pre=()) -> "EpSet":
        return EpSet.make(threshold, period, pre, residues)

    @staticmethod
    def from_bound(bound: int) -> "EpSet":
        """All n >= bound."""
        return EpSet.make(bound, 1, (), (0,))

    def member(self, n: int) -> bool:
        if n < 0:
            return False
        if n < self.threshold:
            return n in self.pre
        return (n % self.period) in self.residues

    __contains__ = member

    def is_empty(self) -> bool:
        return not self.pre and not self.residues

    def is_finite(self) -> bool:
        return not self.residues

    def members_below(self, bound: int) -> list[int]:
        return [n for n in range(bound) if self.member(n)]

    def min_member(self):
        if self.pre:
            return min(self.pre)
        if not self.residues:
            return None
        return min(
            self.threshold + ((r - self.threshold) % self.period) for r in self.residues
        )

    def size(self):
        """Number of members, or None when infinite."""
        if self.residues:
            return None
        return len(self.pre)

    def _pointwise(self, other: "EpSet", op) -> "EpSet":
        n = max(self.threshold, other.threshold)
        p = lcm(self.period, other.period)
        pre = {i for i in range(n) if op(self.member(i), other.member(i))}
        residues = {
            r for r in range(p) if op((r % self.period) in self.residues,
                                      (r % other.period) in other.residues)
        }
        return EpSet.make(n, p, pre, residues)

    def union(self, other: "EpSet") -> "EpSet":
        return self._pointwise(other, lambda a, b: a or b)

    def intersection(self, other: "EpSet") -> "EpSet":
        return self._pointwise(other, lambda a, b: a and b)

    def difference(self, other: "EpSet") -> "EpSet":
        return self._pointwise(other, lambda a, b: a and not b)

    def complement(self) -> "EpSet":
        return EpSet.make(
            self.threshold,
            self.period,
            set(range(self.threshold)) - self.pre,
            set(range(self.period)) - self.residues,
        )

    def is_subset(self, other: "EpSet") -> bool:
        return self.difference(other).is_empty()

    def shift(self, offset: int) -> "EpSet":
        """{n + offset : n in self}; members pushed below 0 are dropped."""
        if offset == 0:
            return self
        n = self.threshold + max(offset, 0)
        pre = {m + offset for m in self.pre if m + offset >= 0}
        residues = {(r + offset) % self.period for r in self.residues}
        # indices in [threshold, n) of the shifted set come from the old residues
        for i in range(max(self.threshold + offset, 0), n):
            if self.member(i - offset):
                pre.add(i)
        return EpSet.make(n, self.period, pre, residues)

    def iterate(self, limit: int):
        """Members in increasing order, at most `limit` of them."""
        out = []
        n = 0
        while len(out) < limit:
            if self.member(n):
                out.append(n)
            n += 1
            if not self.residues and n >= self.threshold:
                break
        return out


@dataclass(frozen=True)
class EpSeq:
    """Eventually periodic rational sequence in canonical form."""

    pre: tuple[Fraction, ...]
    repeat: tuple[Fraction, ...]

    @staticmethod
    def make(pre, repeat) -> "EpSeq":
        pre = [rat(v) for v in pre]
        repeat = [rat(v) for v in repeat]
        if not repeat:
            raise ValueError("repeat part must be nonempty")
        # minimal repeat length
        for d in _divisors(len(repeat)):
            if all(repeat[i] == repeat[i % d] for i in range(len(repeat))):
                repeat = repeat[:d]
                break
        # roll the preperiod back into the cycle where possible
        while pre and pre[-1] == repeat[-1]:
            pre.pop()
            repeat = [repeat[-1]] + repeat[:-1]
        return EpSeq(tuple(pre), tuple(repeat))

    @staticmethod
    def constant(value) -> "EpSeq":
        return EpSeq.make((), (value,))

    @staticmethod
    def zero() -> "EpSeq":
        return EpSeq.constant(0)

    def value(self, n: int) -> Fraction:
        if n < len(self.pre):
            return self.pre[n]
        return self.repeat[(n - len(self.pre)) % len(self.repeat)]

    __call__ = value

    def is_zero(self) -> bool:
        return not any(self.pre) and not any(self.repeat)

    def threshold(self) -> int:
        return len(self.pre)

    def period(self) -> int:
        return len(self.repeat)

    def _pointwise(self, other: "EpSeq", op) -> "EpSeq":
        n = max(len(self.pre), len(other.pre))
        p = lcm(len(self.repeat), len(other.repeat))
        pre = [op(self.value(i), other.value(i)) for i in range(n)]
        repeat = [op(self.value(n + i), other.value(n + i)) for i in range(p)]
        return EpSeq.make(pre, repeat)

    def add(self, other: "EpSeq") -> "EpSeq":
        return self._pointwise(other, lambda a, b: a + b)

    def scale(self, c) -> "EpSeq":
        c = rat(c)
        return EpSeq.make([c * v for v in self.pre], [c * v for v in self.repeat])

    def mask(self, domain: EpSet) -> "EpSeq":
        """Values on the domain, zero elsewhere."""
        n = max(len(self.pre), domain.threshold)
        p = lcm(len(self.repeat), domain.period)
        pre = [self.value(i) if domain.member(i) else Fraction(0) for i in range(n)]
        repeat = [
            self.value(n + i) if domain.member(n + i) else Fraction(0) for i in range(p)
        ]
        return EpSeq.make(pre, repeat)


def stabilization_window(objs) -> tuple[int, int]:
    """(N*, p*): max threshold and lcm of periods over EpSets and EpSeqs.

    Any index-wise property that holds on [N*, N* + p*) for all the given
    objects holds for every n >= N*.
    """
    n_star, p_star = 0, 1
    for obj in objs:
        if isinstance(obj, EpSet):
            n_star = max(n_star, obj.threshold)
            p_star = lcm(p_star, obj.period)
        elif isinstance(obj, EpSeq):
            n_star = max(n_star, obj.threshold())
            p_star = lcm(p_star, obj.period())
        elif isinstance(obj, int):
            n_star = max(n_star, obj)
        else:
            raise TypeError(f"cannot take a window over {obj!r}")
    return n_star, p_star


class EpLinearSolution:
    """Result of ep_linear_solve.

    Unknowns are the coefficients d of the given rows.  `constraints` has one
    row per sampled window index; d is admissible iff constraints . d = 0.
    For an admissible d, `corrections(d)` gives the finitely supported
    coordinates forced on the explicit region [0, region_end).
    """

    def __init__(self, masked_rows, window, region_end):
        self.masked_rows = masked_rows
        self.window = window
        self.region_end = region_end
        n_star, p_star = window
        rows = []
        for i in range(n_star, n_star + p_star):
            row = [m.value(i) for m in masked_rows]
            if any(row):
                rows.append(row)
        if not rows:
            rows = [[Fraction(0)] * len(masked_rows)]
        self.constraints = Matrix(rows) if masked_rows else Matrix([])
        self.kernel_basis = kernel(self.constraints) if masked_rows else []

    @property
    def unknowns(self) -> int:
        return len(self.masked_rows)

    def is_admissible(self, d) -> bool:
        return not any(self.constraints.apply([rat(v) for v in d]))

    def corrections(self, d) -> dict[int, Fraction]:
        d = [rat(v) for v in d]
        out = {}
        for i in range(self.region_end):
            v = -sum((dk * m.value(i) for dk, m in zip(d, self.masked_rows)),
                     Fraction(0))
            if v:
                out[i] = v
        return out


def ep_linear_solve(conditions, through: int = 0) -> EpLinearSolution:
    """Solve for finitely supported c with c_i = -sum_k d_k row_k(i) on each
    row's domain.

    Each condition is a pair (EpSeq row, EpSet domain); the unknown vector d
    has one entry per condition.  Eventual periodicity turns "the combination
    vanishes on the domain eventually" into finitely many exact constraints,
    sampled over one stabilization window; the forced correction coordinates
    live below the window (extended to `through` if larger).
    """
    masked = [row.mask(domain) for row, domain in conditions]
    window = stabilization_window(masked)
    region_end = max(window[0], through)
    return EpLinearSolution(masked, (region_end, window[1]), region_end)
