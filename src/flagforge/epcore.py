"""Eventually periodic subsets of N and eventually periodic rational sequences.

An EpSet is determined by a finite preperiodic part below a threshold N and a
residue pattern modulo a period p that rules everything from N on.  An EpSeq
is the sequence analogue, read by value only: it is the pairing row of an
augmentation generator.  Both carry a unique canonical form (minimal period
first, then minimal threshold), so equality is structural, and
`stabilization_window` gives one threshold and period past which every
EpSet and EpSeq in a collection repeats.

EpSet values are frozen, so their set algebra (union, intersection,
difference, complement) is a pure function of its arguments: it is memoized
in one module-level LRU cache of fixed size, shared by every caller.

All index bookkeeping is 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import lcm

from .exactnum import rat


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
        return _EMPTY

    @staticmethod
    def naturals() -> "EpSet":
        return _NATURALS

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

    def union(self, other: "EpSet") -> "EpSet":
        return _pointwise(self, other, "union")

    def intersection(self, other: "EpSet") -> "EpSet":
        return _pointwise(self, other, "intersection")

    def difference(self, other: "EpSet") -> "EpSet":
        return _pointwise(self, other, "difference")

    def complement(self) -> "EpSet":
        return _pointwise(_NATURALS, self, "difference")

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


_EMPTY = EpSet(0, 1, frozenset(), frozenset())
_NATURALS = EpSet(0, 1, frozenset(), frozenset({0}))

_MEMBERSHIP = {  # membership in the result from membership in the operands
    "union": lambda a, b: a or b,
    "intersection": lambda a, b: a and b,
    "difference": lambda a, b: a and not b,
}


@lru_cache(maxsize=1024)
def _pointwise(a: EpSet, b: EpSet, op: str) -> EpSet:
    """The union, intersection or difference of a and b, as `op` names it;
    memoized on the frozen arguments."""
    f = _MEMBERSHIP[op]
    n = max(a.threshold, b.threshold)
    p = lcm(a.period, b.period)
    pre = {i for i in range(n) if f(a.member(i), b.member(i))}
    residues = {
        r for r in range(p) if f((r % a.period) in a.residues, (r % b.period) in b.residues)
    }
    return EpSet.make(n, p, pre, residues)


@dataclass(frozen=True)
class EpSeq:
    """Eventually periodic rational sequence in canonical form."""

    pre: tuple
    repeat: tuple

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

    def value(self, n: int):
        if n < len(self.pre):
            return self.pre[n]
        return self.repeat[(n - len(self.pre)) % len(self.repeat)]

    __call__ = value

    def threshold(self) -> int:
        return len(self.pre)

    def period(self) -> int:
        return len(self.repeat)


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
