"""Trace measurement over weighted symbolic automata.

One dynamic-programming pass keeps, per location, the best cost of
reaching it with the consumed prefix.  Adding a sample scores each
distinct guard once and then sweeps the transitions, independent of
trace length.  A specification compiles to one minimal complete DFA
over the minterms of its automaton's guards; that DFA and its flipped
copy are the monitor pair.  The robustness verdict combines the
distances to the specification and to its negation into a signed
degree; the qualitative verdict, which resolves the sign when the
degree is zero, is the deterministic run of the specification side in
the same pass.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from . import automaton as A
from . import speclang as S
from .distance import PointwiseDistance, Valuation, default_distance
from .errors import UnboundVariableError
from .semiring import Semiring, SemiringValue, to_signed
from .speclang import SreExpr, StlFormula, Trace
from .translate import translate_sre, translate_stl


class ValueStream:
    """Online evaluator: feed samples one at a time.

    After ``k`` steps, ``value`` equals the batch computation on the
    first ``k`` samples.  ``path_exists`` tells whether the automaton
    has any accepting transition sequence of the consumed length at all,
    which distinguishes "far from the language" from "the language has
    no trace of this length".
    """

    def __init__(self, w: A.WeightedAutomaton):
        self.w = w
        base = w.base
        self._weights, index = A.compiled_weights(w)
        # per source location, its (destination, guard index) edges
        self._out = [[] for _ in range(base.n_locations)]
        for (src, _, dst), j in zip(base.transitions, index):
            self._out[src].append((dst, j))
        self._semiring = w.semiring
        self._costs = [
            w.semiring.e_times if q in base.initial else w.semiring.e_plus
            for q in range(base.n_locations)
        ]
        self._reach = [q in base.initial for q in range(base.n_locations)]
        self._live = sorted(base.initial)
        self._finals = sorted(base.final)
        self._steps = 0
        self._closed = False

    @property
    def steps(self) -> int:
        return self._steps

    @property
    def costs(self) -> dict:
        return dict(enumerate(self._costs))

    @property
    def value(self) -> SemiringValue:
        return self._semiring.sum(self._costs[q] for q in self._finals)

    @property
    def path_exists(self) -> bool:
        return any(self._reach[q] for q in self._finals)

    def step(self, valuation: Valuation) -> SemiringValue:
        """Score each distinct guard once, then sweep the edges of the
        reachable locations only."""
        if self._closed:
            raise ValueError("stream is closed")
        sr = self._semiring
        e_plus = sr.e_plus
        oplus = sr.oplus
        otimes = sr.otimes
        costs = self._costs
        out = self._out
        new_costs = [e_plus] * len(costs)
        new_reach = [False] * len(costs)
        live = []
        try:
            scores = [weight(valuation) for weight in self._weights]
        except KeyError as exc:
            raise UnboundVariableError(f"unbound variable {exc.args[0]!r}") from None
        for src in self._live:
            c = costs[src]
            for dst, j in out[src]:
                if not new_reach[dst]:
                    new_reach[dst] = True
                    live.append(dst)
                if c != e_plus:
                    new_costs[dst] = oplus(new_costs[dst], otimes(c, scores[j]))
        self._costs = new_costs
        self._reach = new_reach
        self._live = live
        self._steps += 1
        return self.value

    def close(self):
        self._closed = True


def _check_variables(w: A.WeightedAutomaton, trace: Trace):
    missing = set(w.variables) - set(trace.variables) - {"_"}
    if missing:
        raise UnboundVariableError(f"trace lacks variables {sorted(missing)}")


def trace_value(trace: Trace, w: A.WeightedAutomaton) -> SemiringValue:
    """Best accepting cost of the whole trace (batch form)."""
    _check_variables(w, trace)
    stream = ValueStream(w)
    out = w.semiring.e_plus
    for sample in trace.samples:
        out = stream.step(sample)
    return out


@dataclass(frozen=True)
class RobustnessVerdict:
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
    DFA; the other side is that DFA with its final set flipped.
    """
    if dist is None:
        dist = default_distance(semiring)
    if isinstance(spec, StlFormula):
        neg = A.determinize(translate_stl(S.negate(spec)))
        pos = A.flip(neg)
    elif isinstance(spec, SreExpr):
        pos = A.determinize(translate_sre(spec))
        neg = A.flip(pos)
    else:
        raise TypeError(f"not a specification: {spec!r}")
    return A.decorate(pos, semiring, dist), A.decorate(neg, semiring, dist)


def verdicts(trace: Trace, w_pos: A.WeightedAutomaton, w_neg: A.WeightedAutomaton):
    """One ``RobustnessVerdict`` per prefix of the trace, in one pass.

    ``w_pos``/``w_neg`` are a pair from ``build_monitor_pair``.  Both
    value streams and a set-wise run of the positive automaton (a single
    location for a compiled pair) advance together; ``satisfied`` is
    whether that run reaches a final location.
    """
    _check_variables(w_pos, trace)
    _check_variables(w_neg, trace)
    semiring = w_pos.semiring
    final = w_pos.base.final
    pos, neg = ValueStream(w_pos), ValueStream(w_neg)
    runs = A.reached_sets(w_pos.base, trace.samples)
    for sample, reached in zip(trace.samples, runs):
        d_phi = pos.step(sample)
        d_not_phi = neg.step(sample)
        yield RobustnessVerdict(
            rho=_rho(d_phi, pos.path_exists, d_not_phi, neg.path_exists, semiring),
            satisfied=not final.isdisjoint(reached),
            d_phi=d_phi,
            d_not_phi=d_not_phi,
        )


def robustness(
    trace: Trace,
    spec,
    semiring: Semiring,
    dist: PointwiseDistance | None = None,
) -> RobustnessVerdict:
    """Signed distance of the trace to the specification language."""
    (verdict,) = deque(verdicts(trace, *build_monitor_pair(spec, semiring, dist)), maxlen=1)
    return verdict


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
