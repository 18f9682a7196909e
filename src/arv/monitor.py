"""Trace measurement over weighted symbolic automata.

One dynamic-programming pass keeps, per live location, the best cost
of reaching it with the consumed prefix.  A step memoizes everything it
decides and does only arithmetic per sample.  It fills one atom table
(each distinct comparison of the guards evaluated once) and looks up
the *recipe* of the table's truths (see ``distance.Scorer``): which
guards hold, and the slot each other guard's weight is read from, one
atom's distance or a compound appended after the atoms.  Recipes with
the same slots share a *shape* id.  The live sets are
memoized, since each depends only on the one before, and each keeps one
*plan* per shape it has met: its successor and, per member, the
destinations its cost passes to unchanged (a guard that holds) and the
``(destination, slot)`` pairs it is ⊗-ed into.  A step allocates and
touches only live entries, and its work is independent of trace length.
These are built once per weighted automaton and shared by its streams.
``step`` fills the table from one sample, ``advance`` those of a block
of samples a column at a time, and both feed one relax, ``_relax``.

A specification compiles to one minimal complete DFA over the minterms
of its automaton's guards, ``spec_dfa``, which ``arv translate``
prints; that DFA and its flipped copy are the monitor pair.  The two
sides share every edge and weight, so one pass of the program gives
both the distance to the specification (the costs inside its final
set) and to its negation (the costs outside it); live sets list their
final members first, so each is a ``min`` over one slice.  The
robustness verdict combines the two into a signed degree; the
qualitative verdict, which resolves the sign when the degree is zero,
is the DFA's own run in the same pass: exactly one minterm holds, so
the run moves to its location's one free destination in the step's
plan.  ``verdict_rows`` has the relax read each prefix's verdict as a
plain tuple; ``verdict`` reads once, after the last sample.  Each
whole-trace function takes a ``Trace`` or its ``speclang.trace_blocks``.
"""


from __future__ import annotations

import operator
from dataclasses import replace
from itertools import chain
from typing import NamedTuple

from . import automaton as A
from . import speclang as S
from .distance import HELD, PointwiseDistance, Valuation, default_distance
from .errors import UnboundVariableError
from .semiring import INF, Semiring, SemiringValue, to_signed
from .speclang import SreExpr, StlFormula, Trace
from .translate import translate_sre, translate_stl


class _LiveSet:
    """One set of live locations, final ones first (``members[:n_final]``
    lie inside the final set); the live set after one more step
    (``next``, filled when first needed, the same for every sample); and
    per weight shape the *plan* of a step from it: ``(next, rows)``
    with one row ``(free, priced)`` per member, where ``free`` lists the
    destinations (indices into ``next.members``) of its edges whose
    guard holds and ``priced`` the ``(destination, slot)`` pairs of the
    others."""

    __slots__ = ("members", "n_final", "next", "plans")

    def __init__(self, members, final):
        self.members = sorted(members, key=lambda q: (q not in final, q))
        self.n_final = sum(q in final for q in members)
        self.next = None
        self.plans: dict = {}


class _Program:
    """What the streams over one weighted automaton share: its guards'
    ``Scorer``, per source location its ``(destination, guard index)``
    edges, the memo of live sets with their successors and plans, and
    their relax."""

    def __init__(self, w: A.WeightedAutomaton):
        base = w.base
        self.scorer, index = A.compiled_weights(w)
        self.out = [[] for _ in range(base.n_locations)]
        for (src, _, dst), j in zip(base.transitions, index):
            self.out[src].append((dst, j))
        self.final = base.final
        self.live_sets: dict = {}
        self.relax = _relax(self, w.semiring)

    def live_set(self, members) -> _LiveSet:
        members = frozenset(members)
        live = self.live_sets.get(members)
        if live is None:
            live = self.live_sets[members] = _LiveSet(members, self.final)
        return live

    def make_plan(self, live: _LiveSet, shape: int):
        """The plan of a step from ``live`` under a weight shape.  An edge
        whose guard has no clause is left out (it never relaxes), and so
        is a priced edge to a destination its source reaches free (its
        cost ``c ⊗ w`` is never below ``c``)."""
        out = self.out
        if live.next is None:
            live.next = self.live_set(dst for q in live.members for dst, _ in out[q])
        at = {q: i for i, q in enumerate(live.next.members)}
        slots = self.scorer.shapes[shape]
        rows = []
        for q in live.members:
            free = {at[dst]: None for dst, j in out[q] if slots[j] == HELD}
            priced = {
                (at[dst], slots[j]): None
                for dst, j in out[q]
                if slots[j] >= 0 and at[dst] not in free
            }
            rows.append((tuple(free), tuple(priced)))
        plan = live.plans[shape] = (live.next, rows)
        return plan


def _relax(prog: _Program, semiring: Semiring):
    """The one relax, ``relax(stream, tables, rows)``: per atom table of a
    block, the recipe of its truths and the live set's plan for their
    shape, then a free edge passes its source's cost on and a priced one
    ⊗s it with its slot's weight, written out as ``+`` or max (⊕ is min,
    so relaxing is one comparison).  A monitor pair's stream (``_stream``)
    also moves the DFA's run along its one free edge, so the run costs
    ``e_times`` and, with a list ``rows``, each prefix's verdict is read
    from a min over the other side alone, ``_rho``'s sign rule written
    out.  The stream's live set, costs and run carry over to the next
    block."""
    recipes, recipe, compound = prog.scorer.recipes, prog.scorer.recipe, prog.scorer.compound
    make_plan, add = prog.make_plan, semiring.otimes is operator.add  # else ⊗ is max
    e_plus, e_times = semiring.e_plus, semiring.e_times

    def relax(stream, tables, rows):
        live, costs, run = stream._live, stream._costs, stream._run
        for truths, distances in tables:
            shape, compounds = recipes.get(truths) or recipe(truths)
            if compounds:
                compound(distances, compounds)
            nxt, plan = live.plans.get(shape) or make_plan(live, shape)
            new_costs = [e_plus] * len(nxt.members)
            for c, (free, priced) in zip(costs, plan):
                if c == e_plus:
                    continue
                for d in free:
                    if c < new_costs[d]:
                        new_costs[d] = c
                for d, s in priced:
                    w = distances[s]
                    v = c + w if add else w if w > c else c
                    if v < new_costs[d]:
                        new_costs[d] = v
            costs, live = new_costs, nxt
            if run is None:
                continue
            run = plan[run][0][0]
            if rows is None:
                continue
            k, n = live.n_final, len(costs)
            if run < k:
                d_not_phi = costs[k] if k + 1 == n else min(costs[k:]) if k < n else e_plus
                rows.append(((d_not_phi or 0.0) if k < n else INF, True, e_times, d_not_phi))
            else:
                d_phi = costs[0] if k == 1 else min(costs[:k]) if k else e_plus
                rows.append(((-d_phi if d_phi else 0.0) if k else -INF, False, d_phi, e_times))
        stream._live, stream._costs, stream._run = live, costs, run

    return relax


class ValueStream:
    """Online evaluator: feed samples (``step``) or blocks (``advance``).

    After ``k`` samples, ``value`` equals the batch computation on the
    first ``k`` samples.  ``path_exists`` tells whether the automaton
    has any accepting transition sequence of the consumed length at all,
    which distinguishes "far from the language" from "the language has
    no trace of this length".  Both read only the live (reached)
    locations, since an unreached one costs the additive identity.

    Which locations are live after a step depends only on which were
    live before it, never on the sample, so each live set is built once
    and memoized by its members, together with its successor.  What a
    step does with a sample beyond arithmetic depends only on the
    sample's weight shape (see ``Scorer``), so each live set memoizes one
    plan per shape it has met.  These memos and the scorer are the
    automaton's ``_Program``, built by its first stream and shared.  The
    stream keeps one cost per member of the current live set, in its
    order; ``costs`` spells them out over every location.
    """

    def __init__(self, w: A.WeightedAutomaton):
        self.w = w
        prog = w.__dict__.get("_program")
        if prog is None:  # a flipped copy is a new automaton, with its own
            prog = _Program(w)
            object.__setattr__(w, "_program", prog)
        self._scorer = prog.scorer
        self._live_sets = prog.live_sets
        self._semiring = w.semiring
        self._relax = prog.relax
        self._live = prog.live_set(w.base.initial)
        self._costs = [w.semiring.e_times] * len(self._live.members)
        self._run = None  # a DFA's own location, as an index into the live set

    @property
    def costs(self) -> dict:
        costs = dict.fromkeys(range(self.w.base.n_locations), self._semiring.e_plus)
        costs.update(zip(self._live.members, self._costs))
        return costs

    @property
    def value(self) -> SemiringValue:
        return self._split()[0]

    @property
    def path_exists(self) -> bool:
        return self._split()[1]

    def _split(self) -> tuple[SemiringValue, bool, SemiringValue, bool]:
        """The ⊕ (min) of the live costs inside the final set and whether
        any live location lies there; then the same outside it."""
        costs, k, e_plus = self._costs, self._live.n_final, self._semiring.e_plus
        return min(costs[:k], default=e_plus), k > 0, min(costs[k:], default=e_plus), k < len(costs)

    def step(self, valuation: Valuation) -> None:
        """One sample: its atom table (``Scorer.table``; ``ParseError`` for a
        value that is not a finite number), relaxed as a block of one."""
        try:
            table = self._scorer.table(valuation)
        except KeyError as exc:
            raise UnboundVariableError(f"unbound variable {exc.args[0]!r}") from None
        self._relax(self, (table,), None)

    def advance(self, trace, rows: list | None = None) -> None:
        """A ``Trace`` or its blocks (``speclang.trace_blocks``), block by
        block: its atom tables (``Scorer.tables``), then the relax, which
        for a monitor pair appends each prefix's verdict to a list ``rows``."""
        for block in (trace,) if isinstance(trace, Trace) else trace:
            _check_variables(self.w, block)
            self._relax(self, self._scorer.tables(block), rows)


def _check_variables(w: A.WeightedAutomaton, trace: Trace):
    missing = set(w.variables) - set(trace.variables) - {"_"}
    if missing:
        raise UnboundVariableError(f"trace lacks variables {sorted(missing)}")


def trace_value(trace, w: A.WeightedAutomaton) -> SemiringValue:
    """Best accepting cost of the whole trace (batch form)."""
    stream = ValueStream(w)
    stream.advance(trace)
    return stream.value


class RobustnessVerdict(NamedTuple):
    """Signed robustness degree plus the qualitative verdict.

    ``rho`` is positive when the trace satisfies the specification with
    slack, negative when it violates it, and carries sign -inf/+inf when
    the specification (or its negation) has no trace of this length at
    all.  ``satisfied`` resolves the rho == 0 boundary.
    """

    rho: float
    satisfied: bool
    d_phi: SemiringValue
    d_not_phi: SemiringValue


def _rho(v1, exists1, v2, exists2, semiring: Semiring) -> float:
    if not exists1:
        return -INF
    if v1 == semiring.e_times:
        if not exists2:
            return INF
        return to_signed(v2, negate=False)
    return to_signed(v1, negate=True)


def spec_dfa(spec) -> A.SymbolicAutomaton:
    """The automaton of a specification: its minimal complete DFA.  For
    STL it is the complement of the negation's tableau, whose initial
    location accepts the empty trace; for SRE, the expression's own
    automaton determinized.  ``TypeError`` for anything else."""
    if isinstance(spec, StlFormula):
        return A.complement(translate_stl(S.negate(spec)))
    if isinstance(spec, SreExpr):
        return A.determinize(translate_sre(spec))
    raise TypeError(f"not a specification: {spec!r}")


def build_monitor_pair(spec, semiring: Semiring, dist: PointwiseDistance | None = None):
    """The weighted automata for a specification and its negation: the
    ``spec_dfa``, decorated once, and that DFA with its final set
    flipped, sharing its transitions."""
    if dist is None:
        dist = default_distance(semiring)
    w = A.decorate(spec_dfa(spec), semiring, dist)
    return w, replace(w, base=A.flip(w.base))


def _stream(w_pos: A.WeightedAutomaton, w_neg: A.WeightedAutomaton) -> ValueStream:
    """A fresh stream over ``w_pos`` that moves the DFA's run, once the
    pair is checked (``ValueError``)."""
    base = w_pos.base
    if (
        w_neg.base.transitions is not base.transitions
        or w_neg.base.final != frozenset(range(base.n_locations)) - base.final
    ):
        raise ValueError("verdicts needs the two sides of one build_monitor_pair")
    stream = ValueStream(w_pos)
    stream._run = 0  # from the DFA's one initial location
    return stream


def verdict_rows(trace, w_pos: A.WeightedAutomaton, w_neg: A.WeightedAutomaton):
    """The pass behind ``verdicts``: per block of the trace, the list of
    its prefixes' plain ``(rho, satisfied, d_phi, d_not_phi)`` tuples."""
    stream = _stream(w_pos, w_neg)
    for block in (trace,) if isinstance(trace, Trace) else trace:
        rows: list = []
        stream.advance(block, rows)
        yield rows


def verdicts(trace, w_pos: A.WeightedAutomaton, w_neg: A.WeightedAutomaton):
    """One ``RobustnessVerdict`` per prefix of the trace, in one pass
    (``verdict_rows``), yielded block by block as it is consumed.

    ``w_pos``/``w_neg`` are a pair from ``build_monitor_pair``: one DFA
    and its flipped copy, so a single value stream serves both sides.
    ``d_phi`` is the ⊕ of its live costs inside the positive final set
    and ``d_not_phi`` of those outside it.  ``satisfied`` is whether the
    DFA's own run, which takes the one edge whose minterm holds, is in a
    positive final location.  ``ValueError`` if the two sides are not
    one such pair.
    """
    yield from map(RobustnessVerdict._make, chain.from_iterable(verdict_rows(trace, w_pos, w_neg)))


def verdict(trace, w_pos: A.WeightedAutomaton, w_neg: A.WeightedAutomaton) -> RobustnessVerdict:
    """The last of ``verdicts``: the same relax and run, read once after
    the last sample."""
    stream = _stream(w_pos, w_neg)
    stream.advance(trace)
    d_phi, phi_exists, d_not_phi, not_phi_exists = stream._split()
    rho = _rho(d_phi, phi_exists, d_not_phi, not_phi_exists, stream._semiring)
    return RobustnessVerdict(rho, stream._run < stream._live.n_final, d_phi, d_not_phi)


def robustness(
    trace: Trace,
    spec,
    semiring: Semiring,
    dist: PointwiseDistance | None = None,
) -> RobustnessVerdict:
    """Signed distance of the trace to the specification language."""
    return verdict(trace, *build_monitor_pair(spec, semiring, dist))


def robustness_prefix_series(
    trace: Trace,
    spec,
    semiring: Semiring,
    dist: PointwiseDistance | None = None,
) -> list[tuple[int, float, bool]]:
    """(t, rho, satisfied) for every prefix, in one pass."""
    rows = chain.from_iterable(verdict_rows(trace, *build_monitor_pair(spec, semiring, dist)))
    return [(t, rho, satisfied) for t, (rho, satisfied, _, _) in enumerate(rows, start=1)]
