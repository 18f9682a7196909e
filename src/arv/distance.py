"""Distances between valuations and predicates.

The central operation here scores a single trace sample against a guard
predicate in DNF: a satisfied literal contributes the multiplicative
identity, a violated literal the pointwise distance of the sample value
to the threshold, disjunction maps to semiring addition and conjunction
to semiring multiplication.  An unsatisfiable input scores the additive
identity (the distance to an empty set).

``Scorer`` does this for many guards at once: per sample it compares
each distinct atom ``var op k`` once, keeping its truth and its
pointwise distance in a table.  Which literals a sample violates
depends on the truths alone, so the scorer memoizes, per truth vector,
a *recipe*: which guards hold, and for each other guard the *slot* its
weight is read from, either one atom's distance or a compound weight
appended after the atoms.  Equal slot tuples are interned to a small
*shape* id, and the monitor memoizes what a step does per shape, so
per sample only the table and the compounds are arithmetic.  ``tables``
builds the tables of a whole trace an atom at a time, over its columns.
"""

from __future__ import annotations

import enum
import operator

from .errors import ParseError, UnboundVariableError
from .predicate import Cmp, Dnf, Top, _clause_sat, _index, dnf_variables
from .semiring import INF, Semiring, SemiringValue

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


def check_fits(semiring: Semiring, dist: PointwiseDistance) -> None:
    """Raise ``ValueError`` for a pointwise distance that can exceed the
    semiring's largest value ``e_plus``: ``absdiff`` under ``boolean``."""
    if dist is PointwiseDistance.ABS_DIFF and semiring.e_plus < INF:
        raise ValueError(f"distance 'absdiff' does not fit the carrier of {semiring.name!r}")


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
    semirings unless ``demonstration`` explicitly allows it; ``check_fits``
    rejects a distance that does not fit the carrier, and ``ParseError`` a
    value that is not a finite number.
    """
    check_fits(semiring, dist)
    if (
        not semiring.multiplicatively_idempotent
        and not dnf.wedge_minimal
        and not demonstration
    ):
        raise ValueError(f"semiring {semiring.name!r} requires ∧-minimal DNF")
    try:
        return Scorer((dnf,), semiring, dist).score(valuation)[0]
    except KeyError as exc:
        raise UnboundVariableError(f"unbound variable {exc.args[0]!r}") from None


# the slot of a guard that holds (it weighs the ⊗ identity, so an edge it
# guards passes its cost on) and of one without clauses (it weighs the ⊕
# identity, so an edge it guards never relaxes)
HELD = -1
NEVER = -2


class Scorer:
    """The weights of several guards under one valuation, from one table
    of their atoms.

    Each distinct atom ``var op k`` of the guards' satisfiable clauses is
    compared once per valuation (``table``); its truth and its pointwise
    distance go into the table.  Which literals are violated depends on
    the truths alone, so per truth vector the scorer derives a *recipe*
    once and memoizes it (``recipes``).  A guard's weight is the ⊕ (min)
    over its clauses of the ⊗ of their violated atoms' distances, so in
    a recipe each guard that holds gets the slot ``HELD``, a guard
    without clauses ``NEVER``, a guard whose weight is one atom's
    distance that atom's index, and any other guard the index of a
    *compound*, which ``compound`` appends to the distances after the
    atoms.  Equal compounds share a slot.  The tuple of slots is
    interned to a small *shape* id (``shapes``), so truth vectors that
    differ only in which atoms a compound folds share a shape.  ``score``
    spells the weights out per guard, which is how ``vpd`` scores one
    guard; ``ValueStream`` reads the slots straight from the distances.
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
        self.n_atoms = len(atoms)
        self.atoms = tuple(atoms)
        self.discrete = dist is PointwiseDistance.DISCRETE01
        self.table = _table(self.atoms, dist)
        self.semiring = semiring
        self._compound_units = semiring.e_plus, semiring.e_times, semiring.otimes is operator.add
        self.recipes: dict = {}  # truth vector -> (shape id, compounds)
        self._shape_ids: dict = {}  # slots -> shape id
        self.shapes: list = []  # per shape id, its slots

    def tables(self, trace, stop: int | None = None):
        """Per sample of the trace, or of its first ``stop``, the ``(truths,
        distances)`` that ``table`` gives for it, built an atom at a time
        over the trace's columns."""
        truths, dists = [], []
        for var, strict, k in self.atoms:
            try:
                col = trace.columns[var]
            except KeyError:
                raise UnboundVariableError(f"unbound variable {var!r}") from None
            if stop is not None:
                col = col[:stop]
            truths.append([v < k for v in col] if strict else [v <= k for v in col])
            dists.append([0.0 if v == k else 1.0 for v in col] if self.discrete else [abs(v - k) for v in col])
        if not truths:  # no atoms: every sample gets an empty table
            return [((), []) for _ in range(len(trace) if stop is None else stop)]
        return zip(zip(*truths), map(list, zip(*dists)))

    def recipe(self, truth):
        """``(shape id, compounds)`` for a truth vector, memoized; each
        compound is the clauses, as atom tuples, whose ⊗s it takes the
        ⊕ of.  The work is linear in the guards' literals."""
        recipe = self.recipes.get(truth)
        if recipe is not None:
            return recipe
        slots = []
        compounds: dict = {}  # clauses -> their slot
        base = self.n_atoms
        for clauses in self.guards:
            violated = []
            for lits in clauses:
                atoms = tuple([a for a, negated in lits if truth[a] == negated])
                if not atoms:
                    slots.append(HELD)
                    break
                violated.append(atoms)
            else:
                # a clause that violates an atom another clause violates
                # alone weighs no less (⊗ is monotone and no distance is
                # below its identity), so it never wins the ⊕
                singles = {atoms[0] for atoms in violated if len(atoms) == 1}
                if singles:
                    violated = [
                        atoms for atoms in violated if len(atoms) == 1 or singles.isdisjoint(atoms)
                    ]
                violated = tuple(dict.fromkeys(violated))
                if not violated:
                    slots.append(NEVER)
                elif len(violated) == 1 and len(violated[0]) == 1:
                    slots.append(violated[0][0])
                else:
                    slots.append(compounds.setdefault(violated, base + len(compounds)))
        slots = tuple(slots)
        shape = self._shape_ids.get(slots)
        if shape is None:
            shape = self._shape_ids[slots] = len(self.shapes)
            self.shapes.append(slots)
        recipe = self.recipes[truth] = (shape, tuple(compounds))
        return recipe

    def compound(self, dists: list, compounds) -> None:
        """Append each compound weight to the atoms' distances (⊕ = min, ⊗ as ``+`` or max)."""
        e_plus, e_times, add = self._compound_units
        for clauses in compounds:
            best = e_plus
            for atoms in clauses:
                acc = e_times
                for a in atoms:
                    w = dists[a]
                    acc = acc + w if add else w if w > acc else acc
                if acc < best:
                    best = acc
            dists.append(best)

    def score(self, valuation) -> list:
        """Each guard's weight under the valuation."""
        truth, dists = self.table(valuation)
        shape, compounds = self.recipe(truth)
        self.compound(dists, compounds)
        e_plus, e_times = self.semiring.e_plus, self.semiring.e_times
        # the ⊕ starts from e_plus, which caps a distance that does not
        # fit the carrier (boolean with absdiff); relaxing needs no cap,
        # since a cost from such a weight never beats e_plus
        return [
            e_times if s == HELD else e_plus if s == NEVER else min(dists[s], e_plus)
            for s in self.shapes[shape]
        ]


def _table(atoms, dist: PointwiseDistance):
    """``valuation -> (atom truths, atom distances)``; ``ParseError`` naming
    the variable of a value that is not a finite number, which would
    otherwise score silently (a NaN compares false)."""
    discrete = dist is PointwiseDistance.DISCRETE01
    lo, hi = -INF, INF  # a finite number lies strictly between

    def table(valuation):
        truth = []
        dists = []
        try:
            for var, strict, k in atoms:
                v = valuation[var]
                if not lo < v < hi:
                    raise ParseError(f"non-finite value {v!r} for variable {var!r}")
                truth.append(v < k if strict else v <= k)
                dists.append((0.0 if v == k else 1.0) if discrete else abs(v - k))
        except TypeError:
            raise ParseError(f"non-numeric value {v!r} for variable {var!r}") from None
        return tuple(truth), dists

    return table
