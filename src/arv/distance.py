"""Distances between valuations and predicates.

The central operation here scores a single trace sample against a guard
predicate in DNF: a satisfied literal contributes the multiplicative
identity, a violated literal the pointwise distance of the sample value
to the threshold, disjunction maps to semiring addition and conjunction
to semiring multiplication.  An unsatisfiable input scores the additive
identity (the distance to an empty set).
"""

from __future__ import annotations

import enum

from .errors import UnboundVariableError
from .predicate import Cmp, Dnf, Top, _clause_sat, _index, dnf_variables
from .semiring import Semiring, SemiringValue

Valuation = dict


class PointwiseDistance(enum.Enum):
    """Distance between two reals: exact-match indicator or absolute gap."""

    DISCRETE01 = "discrete01"
    ABS_DIFF = "absdiff"


def point_dist(a: float, b: float, kind: PointwiseDistance) -> SemiringValue:
    if kind is PointwiseDistance.DISCRETE01:
        return 0.0 if a == b else 1.0
    return abs(a - b)


def default_distance(semiring: Semiring) -> PointwiseDistance:
    """The pointwise distance each shipped semiring is paired with."""
    if semiring.name == "boolean":
        return PointwiseDistance.DISCRETE01
    return PointwiseDistance.ABS_DIFF


def vpd(
    valuation: Valuation,
    dnf: Dnf,
    semiring: Semiring,
    dist: PointwiseDistance,
    demonstration: bool = False,
) -> SemiringValue:
    """Distance between one valuation and a DNF predicate.

    Without multiplicative idempotence the result is only exact on
    conjunction-minimal input, so non-minimal input is rejected for such
    semirings unless ``demonstration`` explicitly allows it.
    """
    if (
        not semiring.multiplicatively_idempotent
        and not dnf.wedge_minimal
        and not demonstration
    ):
        raise ValueError(f"semiring {semiring.name!r} requires ∧-minimal DNF")
    try:
        return compile_weight(dnf, semiring, dist)(valuation)
    except KeyError as exc:
        raise UnboundVariableError(f"unbound variable {exc.args[0]!r}") from None


def compile_weight(dnf: Dnf, semiring: Semiring, dist: PointwiseDistance):
    """Build a fast ``valuation -> weight`` closure for one guard.

    Unsatisfiable clauses are dropped up front; the per-step loop then
    only touches live literals.  This is the only scoring loop: ``vpd``
    compiles its guard and applies the closure once.
    """
    idx = _index(dnf_variables(dnf) or ["_"])
    clauses = []
    for clause in dnf.clauses:
        if not _clause_sat(clause, idx):
            continue
        lits = []
        for lit in clause:
            if isinstance(lit, Top):
                continue
            if isinstance(lit, Cmp):
                lits.append((lit.var, lit.op, lit.k, False))
            else:
                c = lit.arg
                lits.append((c.var, c.op, c.k, True))
        clauses.append(tuple(lits))

    e_plus = semiring.e_plus
    e_times = semiring.e_times
    oplus = semiring.oplus
    otimes = semiring.otimes
    discrete = dist is PointwiseDistance.DISCRETE01

    def weight(valuation):
        best = e_plus
        for lits in clauses:
            acc = e_times
            for var, op, k, negated in lits:
                v = valuation[var]
                sat = (v < k) if op == "<" else (v <= k)
                if negated:
                    sat = not sat
                if sat:
                    continue
                d = (0.0 if v == k else 1.0) if discrete else abs(v - k)
                acc = otimes(acc, d)
            best = oplus(best, acc)
        return best

    return weight
