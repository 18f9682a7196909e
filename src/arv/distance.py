"""Distances between valuations and predicates.

The central operation here scores a single trace sample against a guard
predicate in DNF: a satisfied literal contributes the multiplicative
identity, a violated literal the pointwise distance of the sample value
to the threshold, disjunction maps to semiring addition and conjunction
to semiring multiplication.  An unsatisfiable input scores the additive
identity (the distance to an empty set).

``Scorer`` does this for many guards at once: per sample it compares
each distinct atom ``var op k`` once, keeping its truth and its
pointwise distance in a table, and folds every guard's weight from that
table.  The truths also name the minterm that holds, which the
monitor's DFA moves on.
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
        return Scorer((dnf,), semiring, dist).score(valuation)[1][0]
    except KeyError as exc:
        raise UnboundVariableError(f"unbound variable {exc.args[0]!r}") from None


class Scorer:
    """The weights of several guards under one valuation, from one table
    of their atoms.

    Each distinct atom ``var op k`` of the guards' satisfiable clauses is
    compared once per valuation; its truth and its pointwise distance go
    into the table.  A guard's weight is then folded from the table:
    clause by clause (⊕), literal by literal (⊗), where a satisfied
    literal or ``Top`` contributes the multiplicative identity and a
    violated one its atom's distance.  Unsatisfiable clauses are dropped
    up front, so a guard without clauses weighs the additive identity.
    This is the only scoring loop: ``vpd`` scores one guard with it.
    """

    def __init__(self, dnfs, semiring: Semiring, dist: PointwiseDistance):
        atoms: dict = {}  # (var, strict, k) -> its index in the table
        guards = []  # per guard, per clause, its (atom index, negated) literals
        for dnf in dnfs:
            idx = _index(dnf_variables(dnf) or ["_"])
            clauses = []
            for clause in dnf.clauses:
                if not _clause_sat(clause, idx):
                    continue
                lits = []
                for lit in clause:
                    if isinstance(lit, Top):
                        continue
                    c, negated = (lit, False) if isinstance(lit, Cmp) else (lit.arg, True)
                    lits.append((atoms.setdefault((c.var, c.op == "<", c.k), len(atoms)), negated))
                clauses.append(tuple(lits))
            guards.append(tuple(clauses))
        self.guards = tuple(guards)
        self.score = _compile(tuple(atoms), self.guards, semiring, dist)

    def holding(self, truth) -> int:
        """Index of the first guard that holds where the atoms have these
        truths; distance 0 does not tell, since ``x < k`` fails at k."""
        for j, clauses in enumerate(self.guards):
            if any(all(truth[a] != negated for a, negated in lits) for lits in clauses):
                return j
        raise ValueError("no guard holds")


def _compile(atoms, guards, semiring: Semiring, dist: PointwiseDistance):
    """``valuation -> (atom truths, guard weights)``; relies on ⊕ = min."""
    e_plus = semiring.e_plus
    e_times = semiring.e_times
    otimes = semiring.otimes
    discrete = dist is PointwiseDistance.DISCRETE01

    def score(valuation):
        truth = []
        dists = []
        for var, strict, k in atoms:
            v = valuation[var]
            truth.append(v < k if strict else v <= k)
            dists.append((0.0 if v == k else 1.0) if discrete else abs(v - k))
        weights = []
        for clauses in guards:
            best = e_plus
            for lits in clauses:
                acc = e_times
                for a, negated in lits:
                    if truth[a] == negated:
                        acc = otimes(acc, dists[a])
                if acc < best:
                    best = acc
            weights.append(best)
        return tuple(truth), weights

    return score
