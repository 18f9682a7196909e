"""Semiring algebra underlying the monitors.

Values live in the extended non-negative reals, represented as plain
floats with ``math.inf`` as an exact sentinel.  The Boolean instance
reuses the same representation restricted to {0.0, 1.0}; its addition is
conjunction (min on {0,1}) and its multiplication disjunction (max), so
one uniform value type serves all three instances.

Invariant: in every shipped instance ⊕ is ``min``, so the natural order
is the numeric one and a shortest-distance problem (Mohri, 2002) keeps
the smaller value.  The monitor relies on it: it relaxes an edge with
one ``<`` comparison and takes ``min`` over the live costs instead of
calling ``oplus``.  Likewise ⊗ is ``+`` (``operator.add``) or max in
every shipped instance, and the monitor's relax writes it out inline.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable

INF = math.inf

SemiringValue = float


@dataclass(frozen=True)
class Semiring:
    """A bounded semiring (carrier, oplus, otimes, e_plus, e_times).

    ``e_plus`` is the identity of ``oplus`` and annihilates ``otimes``;
    ``e_times`` is the identity of ``otimes`` and, since all shipped
    instances are bounded, annihilates ``oplus``.
    """

    name: str
    oplus: Callable[[SemiringValue, SemiringValue], SemiringValue]
    otimes: Callable[[SemiringValue, SemiringValue], SemiringValue]
    e_plus: SemiringValue
    e_times: SemiringValue
    multiplicatively_idempotent: bool

    def nat_leq(self, a: SemiringValue, b: SemiringValue) -> bool:
        """Natural order: a precedes b iff a ⊕ b = a ("smaller is better")."""
        return self.oplus(a, b) == a

    def sum(self, values) -> SemiringValue:
        """Fold ``oplus`` over an iterable; empty iterables give e_plus."""
        acc = self.e_plus
        for v in values:
            acc = self.oplus(acc, v)
        return acc

    def product(self, values) -> SemiringValue:
        """Fold ``otimes`` over an iterable; empty iterables give e_times."""
        acc = self.e_times
        for v in values:
            acc = self.otimes(acc, v)
        return acc

    def __repr__(self):
        return f"Semiring({self.name})"


def _max(a: SemiringValue, b: SemiringValue) -> SemiringValue:
    """Builtin ``max`` of two values, by the same rule (``a`` unless
    ``b > a``, so ties and NaN come out the same) at a fraction of its
    call cost; the monitor writes the same expression out inline."""
    return b if b > a else a


BOOLEAN = Semiring(
    name="boolean",
    oplus=min,
    otimes=_max,
    e_plus=1.0,
    e_times=0.0,
    multiplicatively_idempotent=True,
)

MINMAX = Semiring(
    name="minmax",
    oplus=min,
    otimes=_max,
    e_plus=INF,
    e_times=0.0,
    multiplicatively_idempotent=True,
)


TROPICAL = Semiring(
    name="tropical",
    oplus=min,
    otimes=operator.add,
    e_plus=INF,
    e_times=0.0,
    multiplicatively_idempotent=False,
)

SEMIRINGS = {s.name: s for s in (BOOLEAN, MINMAX, TROPICAL)}


def by_name(name: str) -> Semiring:
    try:
        return SEMIRINGS[name.lower()]
    except KeyError:
        raise ValueError(f"unknown semiring {name!r}; choose from {sorted(SEMIRINGS)}") from None


def to_signed(a: SemiringValue, negate: bool) -> float:
    """Map a carrier value to the extended signed reals.

    Robustness verdicts leave the carrier: a violation distance is
    reported with a negative sign, so the output ranges over
    [-inf, +inf].  Zero never picks up a negative sign.
    """
    if a == 0.0:
        return 0.0
    return -a if negate else a
