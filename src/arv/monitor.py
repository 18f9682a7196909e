"""Trace measurement over weighted symbolic automata.

One dynamic-programming pass keeps, per location, the best cost of
reaching it with the consumed prefix.  Adding a sample scores each
distinct guard once and then sweeps the edges of the reached
locations, independent of trace length.  A specification compiles to
one minimal complete DFA over the minterms of its automaton's guards;
that DFA and its flipped copy are the monitor pair.  The two sides
share every edge and weight, so one pass of the program gives both the
distance to the specification (the costs inside its final set) and to
its negation (the costs outside it).  The robustness verdict combines
the two into a signed degree; the qualitative verdict, which resolves
the sign when the degree is zero, is the DFA's own run in the same
pass.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace

from . import automaton as A
from . import predicate as P
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
    no trace of this length".  Both read only the live (reached)
    locations, since an unreached one costs the additive identity.
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
        self._live = sorted(base.initial)

    @property
    def costs(self) -> dict:
        return dict(enumerate(self._costs))

    @property
    def value(self) -> SemiringValue:
        return self._over(self.w.base.final)[0]

    @property
    def path_exists(self) -> bool:
        return self._over(self.w.base.final)[1]

    def _over(self, final) -> tuple[SemiringValue, bool]:
        """The sum of the live costs in ``final``, and whether any live
        location lies in it."""
        live = [q for q in self._live if q in final]
        return self._semiring.sum(self._costs[q] for q in live), bool(live)

    def step(self, valuation: Valuation) -> None:
        """Score each distinct guard once, then sweep the edges of the
        reachable locations only."""
        sr = self._semiring
        e_plus = sr.e_plus
        oplus = sr.oplus
        otimes = sr.otimes
        costs = self._costs
        out = self._out
        new_costs = [e_plus] * len(costs)
        reached = [False] * len(costs)
        live = []
        try:
            scores = [weight(valuation) for weight in self._weights]
        except KeyError as exc:
            raise UnboundVariableError(f"unbound variable {exc.args[0]!r}") from None
        for src in self._live:
            c = costs[src]
            for dst, j in out[src]:
                if not reached[dst]:
                    reached[dst] = True
                    live.append(dst)
                if c != e_plus:
                    new_costs[dst] = oplus(new_costs[dst], otimes(c, scores[j]))
        self._costs = new_costs
        self._live = live


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
    DFA, which is decorated once; the other side is that DFA with its
    final set flipped, sharing its transitions and guards.
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


def verdicts(trace: Trace, w_pos: A.WeightedAutomaton, w_neg: A.WeightedAutomaton):
    """One ``RobustnessVerdict`` per prefix of the trace, in one pass.

    ``w_pos``/``w_neg`` are a pair from ``build_monitor_pair``: one DFA
    and its flipped copy, so a single value stream serves both sides.
    ``d_phi`` sums its live costs inside the positive final set and
    ``d_not_phi`` those inside the negative one.  ``satisfied`` is
    whether the DFA's own run, which takes the one edge whose minterm
    holds, is in a positive final location.
    """
    if w_neg.base.transitions is not w_pos.base.transitions or w_neg.guards is not w_pos.guards:
        raise ValueError("verdicts needs the two sides of one build_monitor_pair")
    _check_variables(w_pos, trace)
    semiring = w_pos.semiring
    pos_final, neg_final = w_pos.base.final, w_neg.base.final
    run = [[] for _ in range(w_pos.base.n_locations)]
    for src, guard, dst in w_pos.base.transitions:
        run[src].append((guard, dst))
    (q,) = w_pos.base.initial
    stream = ValueStream(w_pos)
    for sample in trace.samples:
        stream.step(sample)
        q = next(dst for guard, dst in run[q] if P.evaluate(sample, guard))
        d_phi, phi_exists = stream._over(pos_final)
        d_not_phi, not_phi_exists = stream._over(neg_final)
        yield RobustnessVerdict(
            rho=_rho(d_phi, phi_exists, d_not_phi, not_phi_exists, semiring),
            satisfied=q in pos_final,
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
