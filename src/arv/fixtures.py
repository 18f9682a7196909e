"""Worked-example objects used by the ``fixtures`` subcommand and tests."""

from __future__ import annotations

from . import predicate as P
from .automaton import SymbolicAutomaton, make_automaton
from .speclang import Trace

# three-location automaton: wait anywhere, then hit the guard twice in a row
GUARD = P.parse_predicate("x <= 3 && y >= 6")


def example_automaton() -> SymbolicAutomaton:
    return make_automaton(
        variables=("x", "y"),
        n_locations=3,
        initial={0},
        final={2},
        transitions=[
            (0, P.TRUE, 0),
            (0, GUARD, 1),
            (1, GUARD, 2),
            (2, P.TRUE, 2),
        ],
    )


def example_trace() -> Trace:
    rows = [(4, 2), (5, 3), (2, 5), (3, 5)]
    return Trace(("x", "y"), [{"x": float(x), "y": float(y)} for x, y in rows])


PHI1_TEXT = "F (x <= 5 && G[0,1](x <= 3 && y > 6))"
PHI2_TEXT = "T ; ((x<=5 ; T) & <x<=3 && y>=6>[1,1]) ; T"

PSI1_TEXT = "a >= -30 && a <= 30"
PSI2_TEXT = "(a >= -30 && a < 0) || (a >= 0 && a <= 30)"
PSI3_TEXT = "F(a >= -10)"
PSI4_TEXT = "F((a >= -10 && a <= 60) || (a >= 55))"
PSI5_TEXT = "G(a >= 5 && a < 5)"
PSI6_TEXT = f"!(F(({PSI1_TEXT})) || F(a < -30 || a > 30))"

INF = float("inf")

# per-state cost columns (init, v0..v3) from the published example run
BOOLEAN_TABLE = {
    0: [0, 0, 0, 0, 0],
    1: [1, 1, 1, 1, 1],
    2: [1, 1, 1, 1, 1],
}
MINMAX_TABLE = {
    0: [0, 0, 0, 0, 0],
    1: [INF, 4, 3, 1, 1],
    2: [INF, INF, 4, 3, 1],
}
BOOLEAN_FINAL = 1.0
MINMAX_FINAL = 1.0

# the min-plus run, anchored to path enumeration (weights 10, 6 and 2)
TROPICAL_PATH_WEIGHTS = (10.0, 6.0, 2.0)
TROPICAL_FINAL = 2.0
