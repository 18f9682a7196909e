"""Seeded random generators for the cross-check suites.

Everything draws integer thresholds and integer sample values so that
the semiring arithmetic in the checks stays exact.
"""

from __future__ import annotations

import random

from . import predicate as P
from . import speclang as S
from .automaton import SymbolicAutomaton, make_automaton
from .speclang import TimeWindow, Trace

CLOSED_OPS = ("<=", ">=")
ALL_OPS = ("<", "<=", ">", ">=")


def random_literal(rng: random.Random, variables, lo=-8, hi=8, ops=CLOSED_OPS) -> P.Pred:
    return P.comparison(rng.choice(variables), rng.choice(ops), float(rng.randint(lo, hi)))


def random_predicate(rng: random.Random, variables, depth=3, lo=-8, hi=8, ops=ALL_OPS) -> P.Pred:
    if depth == 0 or rng.random() < 0.3:
        r = rng.random()
        if r < 0.05:
            return P.TOP
        if r < 0.1:
            return P.BOTTOM
        return random_literal(rng, variables, lo, hi, ops)
    kind = rng.random()
    if kind < 0.2:
        return P.Not(random_predicate(rng, variables, depth - 1, lo, hi, ops))
    left = random_predicate(rng, variables, depth - 1, lo, hi, ops)
    right = random_predicate(rng, variables, depth - 1, lo, hi, ops)
    return P.And(left, right) if kind < 0.6 else P.Or(left, right)


def random_dnf(rng: random.Random, variables, max_clauses=3, max_literals=3, lo=-8, hi=8, ops=CLOSED_OPS) -> P.Dnf:
    clauses = []
    for _ in range(rng.randint(1, max_clauses)):
        clause = tuple(
            random_literal(rng, variables, lo, hi, ops)
            for _ in range(rng.randint(1, max_literals))
        )
        clauses.append(clause)
    return P.Dnf(tuple(clauses))


def random_valuation(rng: random.Random, variables, lo=-12, hi=12) -> dict:
    return {v: float(rng.randint(lo, hi)) for v in variables}


def random_trace(rng: random.Random, variables, length, lo=0, hi=4) -> Trace:
    return Trace(
        tuple(variables),
        [random_valuation(rng, variables, lo, hi) for _ in range(length)],
    )


def random_window(rng: random.Random, max_bound=2) -> TimeWindow:
    lo = rng.randint(0, max_bound)
    if rng.random() < 0.3:
        return TimeWindow(lo, None)
    return TimeWindow(lo, rng.randint(lo, max_bound))


def random_stl(
    rng: random.Random,
    variables,
    depth=3,
    const_lo=0,
    const_hi=3,
    max_bound=2,
    ops=ALL_OPS,
) -> S.StlFormula:
    if depth == 0 or rng.random() < 0.25:
        r = rng.random()
        if r < 0.05:
            return S.TRUE
        if r < 0.1:
            return S.FALSE
        return S.Atom(
            rng.choice(variables), rng.choice(ops), float(rng.randint(const_lo, const_hi))
        )

    def sub():
        return random_stl(rng, variables, depth - 1, const_lo, const_hi, max_bound, ops)

    r = rng.random()
    if r < 0.35:
        return rng.choice([S.Not, S.Next])(sub())
    if r < 0.6:
        return rng.choice([S.Eventually, S.Always])(sub(), random_window(rng, max_bound))
    if r < 0.8:
        # a choice among one still draws, so seeded streams stay as they were
        return rng.choice([S.Until])(sub(), sub(), random_window(rng, max_bound))
    return rng.choice([S.Or, S.And, S.Implies])(sub(), sub())


def random_sre(
    rng: random.Random,
    variables,
    depth=3,
    const_lo=0,
    const_hi=3,
    max_bound=2,
    ops=ALL_OPS,
    star_budget=1,
) -> S.SreExpr:
    if depth == 0 or rng.random() < 0.3:
        r = rng.random()
        if r < 0.1:
            return S.EPSILON
        return S.SreBasic(
            random_predicate(rng, variables, depth=1, lo=const_lo, hi=const_hi, ops=ops)
        )
    r = rng.random()
    if r < 0.15 and star_budget > 0:
        return S.SreStar(
            random_sre(rng, variables, depth - 1, const_lo, const_hi, max_bound, ops, star_budget - 1)
        )
    if r < 0.3:
        lo = rng.randint(0, max_bound)
        hi = None if rng.random() < 0.3 else rng.randint(lo, max_bound)
        return S.SreDuration(
            random_sre(rng, variables, depth - 1, const_lo, const_hi, max_bound, ops, star_budget),
            TimeWindow(lo, hi),
        )
    ctor = rng.choice([S.SreConcat, S.SreUnion, S.SreIntersect])
    return ctor(
        random_sre(rng, variables, depth - 1, const_lo, const_hi, max_bound, ops, star_budget),
        random_sre(rng, variables, depth - 1, const_lo, const_hi, max_bound, ops, star_budget),
    )


def random_automaton(
    rng: random.Random,
    variables,
    max_locations=5,
    max_transitions=8,
    const_lo=0,
    const_hi=4,
    ops=ALL_OPS,
) -> SymbolicAutomaton:
    n = rng.randint(1, max_locations)
    transitions = []
    for _ in range(rng.randint(1, max_transitions)):
        src = rng.randrange(n)
        dst = rng.randrange(n)
        lits = tuple(
            random_literal(rng, variables, const_lo, const_hi, ops)
            for _ in range(rng.randint(1, 2))
        )
        transitions.append((src, P.Dnf((lits,)), dst))
    initial = {rng.randrange(n)}
    n_final = rng.randint(1, n)
    final = set(rng.sample(range(n), n_final))
    return make_automaton(tuple(sorted(set(variables))), n, initial, final, transitions)


def all_traces(variables, values, length):
    """Every trace of exactly ``length`` samples over the value grid."""
    from itertools import product

    variables = tuple(variables)
    points = [
        dict(zip(variables, (float(x) for x in pt)))
        for pt in product(values, repeat=len(variables))
    ]
    for combo in product(points, repeat=length):
        yield Trace(variables, list(combo))
