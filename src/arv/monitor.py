"""Trace measurement over weighted symbolic automata.

One dynamic-programming pass keeps, per live location, the best cost
of reaching it with the consumed prefix.  Adding a sample fills one
atom table (each distinct comparison of the guards evaluated once),
folds every guard's weight from it, and relaxes the edges of the live
locations; the live sets are memoized, since each depends only on the
one before, and each indexes its edges into its successor, so a step
allocates and touches only live entries.  The work per sample is
independent of trace length.  A specification compiles to one minimal
complete DFA over the minterms of its automaton's guards; that DFA and
its flipped copy are the monitor pair.  The two sides share every edge
and weight, so one pass of the program gives both the distance to the
specification (the costs inside its final set) and to its negation
(the costs outside it).  The robustness verdict combines the two into
a signed degree; the qualitative verdict, which resolves the sign when
the degree is zero, is the DFA's own run in the same pass: the
sample's minterm is looked up by the atom table's truths, and the move
is one table lookup.  ``verdicts`` reads a verdict after every sample,
``verdict`` only after the last.
"""


from __future__ import annotations

import math
from dataclasses import replace
from typing import NamedTuple

from . import automaton as A
from . import speclang as S
from .distance import PointwiseDistance, Valuation, default_distance
from .errors import UnboundVariableError
from .semiring import Semiring, SemiringValue, to_signed
from .speclang import SreExpr, StlFormula, Trace
from .translate import translate_sre, translate_stl


class _LiveSet:
    """One set of live locations, sorted: which of them lie inside and
    outside the final set, as indices into ``members``; and, once linked
    to the live set after one more step, its outgoing edges as
    ``(source index, [(destination index in next, guard index), ...])``."""

    __slots__ = ("members", "final", "other", "edges", "next")

    def __init__(self, members, final):
        self.members = members
        self.final = [i for i, q in enumerate(members) if q in final]
        self.other = [i for i, q in enumerate(members) if q not in final]
        self.edges = None
        self.next = None


class ValueStream:
    """Online evaluator: feed samples one at a time.

    After ``k`` steps, ``value`` equals the batch computation on the
    first ``k`` samples.  ``path_exists`` tells whether the automaton
    has any accepting transition sequence of the consumed length at all,
    which distinguishes "far from the language" from "the language has
    no trace of this length".  Both read only the live (reached)
    locations, since an unreached one costs the additive identity.

    Which locations are live after a step depends only on which were
    live before it, never on the sample, so each live set is built once
    and memoized by its members, together with its successor.  The
    stream keeps one cost per member of the current live set, in its
    order; ``costs`` spells them out over every location.
    """

    def __init__(self, w: A.WeightedAutomaton):
        self.w = w
        base = w.base
        self._scorer, index = A.compiled_weights(w)
        # per source location, its (destination, guard index) edges
        self._out = [[] for _ in range(base.n_locations)]
        for (src, _, dst), j in zip(base.transitions, index):
            self._out[src].append((dst, j))
        self._semiring = w.semiring
        self._live_sets: dict = {}
        self._live = self._live_set(base.initial)
        self._costs = [w.semiring.e_times] * len(self._live.members)
        self._truth = ()  # the atom truths of the last sample

    def _live_set(self, members) -> _LiveSet:
        members = frozenset(members)
        live = self._live_sets.get(members)
        if live is None:
            live = self._live_sets[members] = _LiveSet(sorted(members), self.w.base.final)
        return live

    def _link(self, live: _LiveSet) -> None:
        """Fill ``live.next`` and index ``live.edges`` into it."""
        out = self._out
        nxt = self._live_set(dst for q in live.members for dst, _ in out[q])
        at = {q: i for i, q in enumerate(nxt.members)}
        live.edges = [
            (i, [(at[dst], j) for dst, j in out[q]]) for i, q in enumerate(live.members) if out[q]
        ]
        live.next = nxt

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
        costs = self._costs
        e_plus = self._semiring.e_plus
        live = self._live
        return (
            min([costs[i] for i in live.final], default=e_plus),
            bool(live.final),
            min([costs[i] for i in live.other], default=e_plus),
            bool(live.other),
        )

    def step(self, valuation: Valuation) -> None:
        """Score every guard from one atom table, then relax the edges of
        the live locations (⊕ is min, so relaxing is one comparison)."""
        try:
            self._truth, scores = self._scorer.score(valuation)
        except KeyError as exc:
            raise UnboundVariableError(f"unbound variable {exc.args[0]!r}") from None
        live = self._live
        if live.next is None:
            self._link(live)
        sr = self._semiring
        e_plus = sr.e_plus
        otimes = sr.otimes
        costs = self._costs
        new_costs = [e_plus] * len(live.next.members)
        for i, edges in live.edges:
            c = costs[i]
            if c == e_plus:
                continue
            for d, j in edges:
                v = otimes(c, scores[j])
                if v < new_costs[d]:
                    new_costs[d] = v
        self._costs = new_costs
        self._live = live.next


def _check_variables(w: A.WeightedAutomaton, trace: Trace):
    missing = set(w.variables) - set(trace.variables) - {"_"}
    if missing:
        raise UnboundVariableError(f"trace lacks variables {sorted(missing)}")


def trace_value(trace: Trace, w: A.WeightedAutomaton) -> SemiringValue:
    """Best accepting cost of the whole trace (batch form)."""
    _check_variables(w, trace)
    stream = ValueStream(w)
    for sample in trace.samples:
        stream.step(sample)
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
        return -math.inf
    if v1 == semiring.e_times:
        if not exists2:
            return math.inf
        return to_signed(v2, negate=False)
    return to_signed(v1, negate=True)


def build_monitor_pair(spec, semiring: Semiring, dist: PointwiseDistance | None = None):
    """The weighted automata for a specification and its negation.

    One automaton is translated (the negation's tableau for STL, the
    expression's for SRE) and determinized into its minimal complete
    DFA, which is decorated once; the other side is that DFA with its
    final set flipped, sharing its transitions.
    """
    if dist is None:
        dist = default_distance(semiring)
    if isinstance(spec, StlFormula):
        dfa = A.flip(A.determinize(translate_stl(S.negate(spec))))
    elif isinstance(spec, SreExpr):
        dfa = A.determinize(translate_sre(spec))
    else:
        raise TypeError(f"not a specification: {spec!r}")
    w = A.decorate(dfa, semiring, dist)
    return w, replace(w, base=A.flip(w.base))


def _pass(trace: Trace, w_pos: A.WeightedAutomaton, w_neg: A.WeightedAutomaton):
    """The one pass behind ``verdicts`` and ``verdict``: yields, after
    each sample, the pair's stream and the DFA's own run location.  The
    run looks the sample's minterm up by the atom table's truths."""
    base = w_pos.base
    if (
        w_neg.base.transitions is not base.transitions
        or w_neg.base.final != frozenset(range(base.n_locations)) - base.final
    ):
        raise ValueError("verdicts needs the two sides of one build_monitor_pair")
    _check_variables(w_pos, trace)
    stream = ValueStream(w_pos)
    step = stream.step
    holding = stream._scorer.holding
    # per location, its destination on each minterm (a guard index)
    move = [{j: dst for dst, j in edges} for edges in stream._out]
    minterm: dict = {}  # atom truths -> the minterm that holds there
    (q,) = base.initial
    for sample in trace.samples:
        step(sample)
        truth = stream._truth
        m = minterm.get(truth)
        if m is None:
            m = minterm[truth] = holding(truth)
        q = move[q][m]
        yield stream, q


def _verdict(stream: ValueStream, q: int) -> RobustnessVerdict:
    """The verdict of the stream's consumed prefix, its run at ``q``."""
    d_phi, phi_exists, d_not_phi, not_phi_exists = stream._split()
    rho = _rho(d_phi, phi_exists, d_not_phi, not_phi_exists, stream._semiring)
    return RobustnessVerdict(rho, q in stream.w.base.final, d_phi, d_not_phi)


def verdicts(trace: Trace, w_pos: A.WeightedAutomaton, w_neg: A.WeightedAutomaton):
    """One ``RobustnessVerdict`` per prefix of the trace, in one pass.

    ``w_pos``/``w_neg`` are a pair from ``build_monitor_pair``: one DFA
    and its flipped copy, so a single value stream serves both sides.
    ``d_phi`` is the ⊕ of its live costs inside the positive final set
    and ``d_not_phi`` of those outside it.  ``satisfied`` is whether the
    DFA's own run, which takes the one edge whose minterm holds, is in a
    positive final location.  ``ValueError`` if the two sides are not
    one such pair.
    """
    for stream, q in _pass(trace, w_pos, w_neg):
        yield _verdict(stream, q)


def verdict(
    trace: Trace, w_pos: A.WeightedAutomaton, w_neg: A.WeightedAutomaton
) -> RobustnessVerdict:
    """The last of ``verdicts``: the same pass, read once after the last
    sample.  ``ValueError`` for a trace without samples (the stream is
    never read before the first step)."""
    if not trace.samples:
        raise ValueError("traces must contain at least one sample")
    for stream, q in _pass(trace, w_pos, w_neg):
        pass
    return _verdict(stream, q)


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
    pair = build_monitor_pair(spec, semiring, dist)
    return [
        (t, v.rho, v.satisfied) for t, v in enumerate(verdicts(trace, *pair), start=1)
    ]
