"""Reference implementations, kept only as oracles.

Each function here computes a quantity the monitor also computes, but
straight from its definition: grid folds for distances, explicit path
enumeration for the dynamic program, and candidate-trace enumeration
for the trace-to-language distance.  They are exponential and serve the
tests and ``arv oracle``; nothing on the monitoring path imports this
module.
"""

from __future__ import annotations

import random
from itertools import product

from . import automaton as A
from . import monitor as M
from . import predicate as P
from . import speclang as S
from .distance import PointwiseDistance, Valuation, default_distance, point_dist, vpd
from .generators import (
    CLOSED_OPS,
    random_automaton,
    random_dnf,
    random_sre,
    random_stl,
    random_trace,
    random_valuation,
)
from .intervals import complement_cover, meet
from .predicate import Dnf
from .semiring import BOOLEAN, MINMAX, TROPICAL, Semiring, SemiringValue
from .speclang import StlFormula, Trace
from .translate import translate_sre, translate_stl

# --- brute-force evaluators ----------------------------------------------------


def vpd_brute_force(
    valuation: Valuation,
    dnf: Dnf,
    semiring: Semiring,
    dist: PointwiseDistance,
    grid: range,
) -> SemiringValue:
    """Literal fold of the set-distance definition over a finite grid.

    Sums, with semiring addition, over every grid valuation satisfying
    the predicate, the product over variables of the pointwise
    distances.  Exact for the real-valued definition when thresholds and
    valuation values lie on the grid and all literals are closed.
    """
    variables = P.dnf_variables(dnf)
    if not variables:
        return semiring.e_times if P.is_sat(dnf) else semiring.e_plus
    acc = semiring.e_plus
    for point in product(grid, repeat=len(variables)):
        candidate = dict(zip(variables, (float(x) for x in point)))
        if not P.evaluate(candidate, dnf):
            continue
        weight = semiring.product(
            point_dist(valuation[x], candidate[x], dist) for x in variables
        )
        acc = semiring.oplus(acc, weight)
    return acc


def path_costs(trace: Trace, w: A.WeightedAutomaton, steps: int) -> dict:
    """Per-location cost after ``steps`` samples, by explicit enumeration.

    Walks every transition sequence of that length from an initial
    location, multiplies its per-step valuation distances, and sums the
    products per end location.  Independent of the dynamic-programming
    order; unreached locations cost the additive identity.
    """
    base = w.base
    sr = w.semiring
    by_src: dict = {}
    for src, guard, dst in base.transitions:
        by_src.setdefault(src, []).append((guard, dst))
    costs = dict.fromkeys(range(base.n_locations), sr.e_plus)

    def walk(q, depth, weight):
        if depth == steps:
            costs[q] = sr.oplus(costs[q], weight)
            return
        sample = trace.samples[depth]
        for guard, dst in by_src.get(q, ()):
            walk(dst, depth + 1, sr.otimes(weight, vpd(sample, guard, sr, w.dist)))

    for q in sorted(base.initial):
        walk(q, 0, sr.e_times)
    return costs


def path_enumeration_value(
    trace: Trace, w: A.WeightedAutomaton, max_paths: int = 10**6
) -> SemiringValue:
    """Fold over every structurally-accepting transition sequence: the
    sum of ``path_costs`` over the final locations."""
    base = w.base
    n = len(trace)
    succ: dict = {}
    for src, _, dst in base.transitions:
        succ.setdefault(src, []).append(dst)
    counts = {q: 1 for q in base.initial}
    for _ in range(n):
        nxt: dict = {}
        for q, c in counts.items():
            for dst in succ.get(q, ()):
                nxt[dst] = nxt.get(dst, 0) + c
        counts = nxt
    total = sum(c for q, c in counts.items() if q in base.final)
    if total > max_paths:
        raise ValueError(f"{total} accepting paths exceed the bound {max_paths}")
    costs = path_costs(trace, w, n)
    return w.semiring.sum(costs[q] for q in sorted(base.final))


def _qualitative(trace: Trace, spec) -> bool:
    if isinstance(spec, StlFormula):
        return S.eval_stl(trace, 0, spec)
    return S.sre_accepts(trace, spec)


def trace_distance_brute_force(
    trace: Trace,
    spec,
    semiring: Semiring,
    dist: PointwiseDistance,
    grid,
    max_candidates: int = 10**7,
) -> SemiringValue:
    """Fold of the trace-to-language distance over an explicit grid.

    Enumerates every same-length trace with values on the grid, keeps
    the ones satisfying the specification, and sums the multiplied
    pointwise sample distances.  Exact for closed comparisons whose
    thresholds lie on the grid.
    """
    variables = trace.variables
    n = len(trace)
    values = [float(g) for g in grid]
    total = len(values) ** (len(variables) * n)
    if total > max_candidates:
        raise ValueError(f"{total} candidate traces exceed the bound {max_candidates}")

    acc = semiring.e_plus
    points = list(product(values, repeat=len(variables)))
    for combo in product(points, repeat=n):
        candidate = Trace(variables, [dict(zip(variables, pt)) for pt in combo])
        if not _qualitative(candidate, spec):
            continue
        weight = semiring.e_times
        for s_orig, s_cand in zip(trace.samples, candidate.samples):
            for x in variables:
                weight = semiring.otimes(weight, point_dist(s_orig[x], s_cand[x], dist))
        acc = semiring.oplus(acc, weight)
    return acc


def accepts(a: A.SymbolicAutomaton, trace: Trace) -> bool:
    """NFA membership, by a set-wise run over the trace."""
    by_src: dict = {}
    for src, guard, dst in a.transitions:
        by_src.setdefault(src, []).append((guard, dst))
    current = set(a.initial)
    for sample in trace.samples:
        current = {
            dst
            for q in current
            for guard, dst in by_src.get(q, ())
            if P.evaluate(sample, guard)
        }
    return not a.final.isdisjoint(current)


# --- structural checks -----------------------------------------------------------


def is_deterministic_complete(a: A.SymbolicAutomaton) -> bool:
    """True when there is one initial location and, at every location,
    the outgoing guards' regions are pairwise disjoint and cover every
    valuation.  Exact: decided on the guards' box covers."""
    if len(a.initial) != 1:
        return False
    variables = list(a.variables) or ["_"]
    boxes_at: dict = {q: [] for q in range(a.n_locations)}
    for src, guard, _ in a.transitions:
        boxes_at[src].append(P.dnf_boxes(guard, variables))
    for regions in boxes_at.values():
        for i, boxes in enumerate(regions):
            if any(meet(boxes, other) for other in regions[:i]):
                return False
        if complement_cover([b for boxes in regions for b in boxes], len(variables)):
            return False
    return True


def dfa_equivalent(a: A.SymbolicAutomaton, b: A.SymbolicAutomaton) -> bool:
    """True when two complete DFAs accept the same non-empty traces.
    Exact: a breadth-first search of their product from the initial
    pair steps along the minterm pairs whose boxes meet, over both
    automata's variables, and compares the final flags at every pair
    it reaches after at least one step."""
    variables = sorted(set(a.variables) | set(b.variables))
    boxes: dict = {}  # guard -> its boxes over ``variables``

    def edges(d):
        out = [[] for _ in range(d.n_locations)]
        for src, guard, dst in d.transitions:
            if guard not in boxes:
                boxes[guard] = P.dnf_boxes(guard, variables)
            out[src].append((boxes[guard], dst))
        return out

    out_a, out_b = edges(a), edges(b)
    (p0,), (q0,) = a.initial, b.initial
    seen = set()
    order = [(p0, q0)]
    for p, q in order:  # breadth first: the list is its own queue
        for boxes_a, dst_a in out_a[p]:
            for boxes_b, dst_b in out_b[q]:
                pair = (dst_a, dst_b)
                if pair in seen or not meet(boxes_a, boxes_b):
                    continue
                if (dst_a in a.final) != (dst_b in b.final):
                    return False
                seen.add(pair)
                order.append(pair)
    return True


def guards_closed(auto: A.SymbolicAutomaton) -> bool:
    """True when every guard literal is a closed comparison, so a grid
    holding the thresholds attains every distance infimum."""
    for _, guard, _ in auto.transitions:
        for clause in guard.clauses:
            for lit in clause:
                if isinstance(lit, P.Cmp) and lit.op == "<":
                    return False
                if isinstance(lit, P.Not) and lit.arg.op == "<=":
                    return False
    return True


# --- randomized cross-check suites -------------------------------------------


def vpd_cross_check(cases: int, seed: int) -> int:
    """Distance engine vs grid fold: closed literals, thresholds in
    [-8, 8], valuations and grid on [-12, 12]."""
    rng = random.Random(seed)
    grid = range(-12, 13)
    mismatches = 0
    for _ in range(cases):
        variables = ["x"] if rng.random() < 0.6 else ["x", "y"]
        dnf = random_dnf(rng, variables, ops=CLOSED_OPS)
        valuation = random_valuation(rng, variables)
        expected = vpd_brute_force(valuation, dnf, MINMAX, PointwiseDistance.ABS_DIFF, grid)
        if vpd(valuation, dnf, MINMAX, PointwiseDistance.ABS_DIFF) != expected:
            mismatches += 1
        minimized = P.wedge_minimize(dnf)
        expected = vpd_brute_force(valuation, dnf, TROPICAL, PointwiseDistance.ABS_DIFF, grid)
        if vpd(valuation, minimized, TROPICAL, PointwiseDistance.ABS_DIFF) != expected:
            mismatches += 1
    return mismatches


def value_cross_check(cases: int, seed: int) -> int:
    """Dynamic program vs explicit path enumeration on random automata."""
    rng = random.Random(seed)
    mismatches = 0
    for _ in range(cases):
        variables = ("x", "y")
        auto = random_automaton(rng, variables, max_transitions=6)
        trace = random_trace(rng, variables, rng.randint(1, 5))
        for semiring in (BOOLEAN, MINMAX, TROPICAL):
            w = A.decorate(auto, semiring, default_distance(semiring))
            if M.trace_value(trace, w) != path_enumeration_value(trace, w):
                mismatches += 1
    return mismatches


def language_distance_cross_check(cases: int, seed: int) -> int:
    """End-to-end pipeline vs the trace-to-language grid fold, on
    ``cases`` STL formulas and then ``cases`` SREs.

    Checks the specification's own automaton through ``trace_value`` and
    the compiled monitor pair through ``verdict``: its ``d_phi`` against
    the grid fold and its ``satisfied`` against ``eval_stl`` or
    ``sre_accepts``.  ``d_not_phi`` is not compared, since the negation
    has open comparisons whose infimum the grid never attains.
    Specifications are resampled until their compiled guards contain
    only closed comparisons, so the grid attains every infimum of
    ``d_phi``.
    """
    rng = random.Random(seed)
    grid = range(0, 5)
    mismatches = 0
    for draw, translate in ((random_stl, translate_stl), (random_sre, translate_sre)):
        done = 0
        while done < cases:
            spec = draw(rng, ["x"], depth=2, ops=CLOSED_OPS)
            auto = translate(spec)
            if not guards_closed(auto):
                continue
            done += 1
            trace = random_trace(rng, ("x",), rng.randint(1, 3), 0, 4)
            for semiring in (BOOLEAN, MINMAX, TROPICAL):
                dist = default_distance(semiring)
                w = A.decorate(auto, semiring, dist)
                expected = trace_distance_brute_force(trace, spec, semiring, dist, grid)
                if M.trace_value(trace, w) != expected:
                    mismatches += 1
                last = M.verdict(trace, *M.build_monitor_pair(spec, semiring, dist))
                if last.d_phi != expected or last.satisfied != _qualitative(trace, spec):
                    mismatches += 1
    return mismatches
