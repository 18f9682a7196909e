"""Intervals and interval vectors (boxes) over the reals.

These carry the satisfiability and region computations for predicates:
every single-variable comparison denotes a half-line, a conjunction a
box, and a DNF a finite union of boxes.  The outside of an n-variable
box is cut into at most 2n disjoint slabs, so carving one box out of
another, and every minterm built that way, stays linear in n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

    @property
    def is_full(self) -> bool:
        return not self.empty and self.lo == -INF and self.hi == INF

    def contains(self, x: float) -> bool:
        if self.empty:
            return False
        if x < self.lo or (x == self.lo and not self.lo_closed):
            return False
        if x > self.hi or (x == self.hi and not self.hi_closed):
            return False
        return True

    def intersect(self, other: "Interval") -> "Interval":
        if self.empty or other.empty:
            return Interval.empty_interval()
        if self.lo > other.lo:
            lo, lo_closed = self.lo, self.lo_closed
        elif self.lo < other.lo:
            lo, lo_closed = other.lo, other.lo_closed
        else:
            lo, lo_closed = self.lo, self.lo_closed and other.lo_closed
        if self.hi < other.hi:
            hi, hi_closed = self.hi, self.hi_closed
        elif self.hi > other.hi:
            hi, hi_closed = other.hi, other.hi_closed
        else:
            hi, hi_closed = self.hi, self.hi_closed and other.hi_closed
        return Interval.make(lo, hi, lo_closed, hi_closed)

    def subset_of(self, other: "Interval") -> bool:
        return self.intersect(other) == self

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

    @property
    def is_full(self) -> bool:
        return all(c.is_full for c in self.components)

    def contains(self, point) -> bool:
        return all(c.contains(x) for c, x in zip(self.components, point))

    def intersect(self, other: "Box") -> "Box":
        return Box.make(a.intersect(b) for a, b in zip(self.components, other.components))


def complement_boxes(box: Box) -> list[Box]:
    """At most 2n pairwise-disjoint slabs covering everything outside an
    n-variable ``box``.

    Slab i lies outside the box on axis i (on one side of it) and inside
    it on every axis before i; the axes after i are unconstrained.
    """
    n = len(box.components)
    if box.is_empty:
        return [Box.full(n)]
    out = []
    for i, comp in enumerate(box.components):
        rest = (Interval.full(),) * (n - i - 1)
        for part in comp.complement_parts():
            out.append(Box(box.components[:i] + (part,) + rest))
    return out


def subtract_boxes(pieces: list[Box], hole: Box) -> list[Box]:
    """Remove ``hole`` from a disjoint box list, keeping disjointness."""
    if hole.is_empty:
        return list(pieces)
    cells = complement_boxes(hole)
    out = []
    for piece in pieces:
        for cell in cells:
            chunk = piece.intersect(cell)
            if not chunk.is_empty:
                out.append(chunk)
    return out
