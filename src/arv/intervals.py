"""Intervals and interval vectors (boxes) over the reals.

These carry the satisfiability and region computations for predicates:
every single-variable comparison denotes a half-line, a conjunction a
box, and a DNF a finite union of boxes.  A region is a *cover*, boxes
that may overlap (a distance to it is the min over its boxes), and
``complement_boxes`` and ``meet`` build covers without carving a box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

INF = math.inf


@dataclass(frozen=True)
class Interval:
    """A connected subset of the reals, possibly empty.

    Infinite bounds are always open; the canonical empty interval is
    ``Interval.empty()``.
    """

    lo: float
    hi: float
    lo_closed: bool
    hi_closed: bool
    empty: bool = False

    @staticmethod
    def make(lo, hi, lo_closed, hi_closed) -> "Interval":
        if lo == -INF:
            lo_closed = False
        if hi == INF:
            hi_closed = False
        if lo > hi or (lo == hi and not (lo_closed and hi_closed)):
            return Interval.empty_interval()
        return Interval(lo, hi, lo_closed, hi_closed)

    @staticmethod
    def empty_interval() -> "Interval":
        return Interval(INF, -INF, False, False, empty=True)

    @staticmethod
    def full() -> "Interval":
        return Interval(-INF, INF, False, False)

    def contains(self, x: float) -> bool:
        if self.empty:
            return False
        if x < self.lo or (x == self.lo and not self.lo_closed):
            return False
        if x > self.hi or (x == self.hi and not self.hi_closed):
            return False
        return True

    def intersect(self, other: "Interval") -> "Interval":
        # an operand inside the other is the result, kept by identity
        if self.subset_of(other):
            return self
        if other.subset_of(self):
            return other
        # otherwise each bound is the tighter one, open on a tie
        lo = self if other.lo < self.lo or other.lo == self.lo and not self.lo_closed else other
        hi = self if self.hi < other.hi or self.hi == other.hi and not self.hi_closed else other
        return Interval.make(lo.lo, hi.hi, lo.lo_closed, hi.hi_closed)

    def subset_of(self, other: "Interval") -> bool:
        """Containment, by comparing bounds (infinite bounds are open)."""
        if self.empty or other.empty:
            return self.empty
        lo = other.lo < self.lo or other.lo == self.lo and (other.lo_closed or not self.lo_closed)
        hi = self.hi < other.hi or self.hi == other.hi and (other.hi_closed or not self.hi_closed)
        return lo and hi

    def complement_parts(self) -> list["Interval"]:
        """The at most two intervals making up the complement."""
        if self.empty:
            return [Interval.full()]
        parts = []
        if self.lo != -INF:
            parts.append(Interval.make(-INF, self.lo, False, not self.lo_closed))
        if self.hi != INF:
            parts.append(Interval.make(self.hi, INF, not self.hi_closed, False))
        return parts

    def __repr__(self):
        if self.empty:
            return "∅"
        left = "[" if self.lo_closed else "("
        right = "]" if self.hi_closed else ")"
        return f"{left}{self.lo},{self.hi}{right}"


@dataclass(frozen=True)
class Box:
    """Cartesian product of one interval per variable.

    Either every component is non-empty, or the box is the canonical
    all-empty vector.
    """

    components: tuple[Interval, ...]

    @staticmethod
    def make(components) -> "Box":
        comps = tuple(components)
        if any(c.empty for c in comps):
            return Box.all_empty(len(comps))
        return Box(comps)

    @staticmethod
    def all_empty(n: int) -> "Box":
        return Box(tuple(Interval.empty_interval() for _ in range(n)))

    @staticmethod
    def full(n: int) -> "Box":
        return Box(tuple(Interval.full() for _ in range(n)))

    @property
    def is_empty(self) -> bool:
        return any(c.empty for c in self.components)

    def contains(self, point) -> bool:
        return all(c.contains(x) for c, x in zip(self.components, point))

    def intersect(self, other: "Box") -> "Box":
        return Box.make(a.intersect(b) for a, b in zip(self.components, other.components))

    def subset_of(self, other: "Box") -> bool:
        for a, b in zip(self.components, other.components):
            if a is not b and not a.subset_of(b):
                return False
        return True


def complement_boxes(box: Box) -> list[Box]:
    """At most 2n half-spaces covering everything outside an n-variable
    ``box``: per finite bound, the side of it the box does not reach.
    They may overlap."""
    n = len(box.components)
    if box.is_empty:
        return [Box.full(n)]
    full = (Interval.full(),) * n
    return [
        Box(full[:i] + (part,) + full[i + 1 :])
        for i, comp in enumerate(box.components)
        for part in comp.complement_parts()
    ]


def complement_cover(cover: list[Box], n: int) -> list[Box]:
    """A cover of everything outside a cover of n-variable boxes: the
    ``meet`` of its boxes' complements."""
    return reduce(meet, map(complement_boxes, cover), [Box.full(n)])


def meet(a: list[Box], b: list[Box]) -> list[Box]:
    """A cover of the intersection of two covers: the non-empty pairwise
    intersections, without any box that lies inside another."""
    out: list[Box] = []
    for x in a:
        for y in b:
            box = x.intersect(y)
            if box.is_empty or any(box.subset_of(kept) for kept in out):
                continue
            out = [kept for kept in out if not kept.subset_of(box)]
            out.append(box)
    return out
