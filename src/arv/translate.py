"""Compiling specifications into symbolic automata.

STL goes through a finite-trace tableau: after ``unfold_bounded``, every
formula is a Boolean combination of comparison atoms, strong next, and
one residual until shape.  An automaton location is a set of pending
obligations, each tagged with the polarity under which it must hold;
consuming a sample discharges the atomic part as a transition guard
(one clause in normal form) and defers the rest.  A location accepts
when everything pending is negative, since negated next-obligations
hold vacuously once the trace ends while positive ones still demand a
successor.

The cost is linear in the window bounds.  Formulas are hash-consed, so
obligations hash and compare in constant time; a location's obligations
are ordered by the rank in which this translation first met them, never
by their text; the window chains are unfolded by loops; and each
distinct obligation and each distinct set of now-literals is expanded
or normalized once.  Window steps and tableau locations are both
capped at ``automaton.MAX_SUBSETS``.

Regular expressions compile compositionally into fragments with epsilon
transitions, each proposition the ``Dnf`` the parser built; epsilon moves
exist only here and are eliminated whenever a fragment becomes an
automaton, whose normal form drops an unsatisfiable proposition's
edges.  A duration is the product of its argument's automaton with a
length counter, a chain of ``TRUE``-guarded steps, so ``product`` is the
one synchronous product here and its location budget bounds what nested
and starred durations build.  Duration windows are also budgeted like
STL windows, before any fragment is built.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import automaton as A
from . import predicate as P
from . import speclang as S
from .automaton import SymbolicAutomaton, canonicalize, make_automaton, product, trim
from .errors import UnsupportedFragmentError
from .predicate import comparison


def _atom_literal(atom: S.Atom, positive: bool) -> P.Literal:
    lit = comparison(atom.var, atom.op, atom.value)
    return lit if positive else P.negate_literal(lit)


def _combine(alternatives_a, alternatives_b):
    out = []
    for nows_a, nexts_a in alternatives_a:
        for nows_b, nexts_b in alternatives_b:
            out.append((nows_a | nows_b, nexts_a | nexts_b))
    return out


_EMPTY = frozenset()


class _Tableau:
    """Expansion of obligations for one translation, memoized per node
    and polarity.  ``rank`` numbers the obligations in the order the
    tableau first meets them; sorting a state's obligations by it is
    deterministic and never looks inside a formula."""

    def __init__(self, start):
        self.cache: dict = {}
        self.rank = {start: 0}
        self.guards: dict = {}  # now-literals -> their conjunction's normal form, None when false

    def _defer(self, obligation, positive):
        self.rank.setdefault(obligation, len(self.rank))
        return [(_EMPTY, frozenset({(obligation, positive)}))]

    def expand(self, node, positive):
        """Alternatives (now-literals, deferred obligations) for one node."""
        key = (node, positive)
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        expand = self.expand
        if isinstance(node, S.TrueFormula):
            alts = [(_EMPTY, _EMPTY)] if positive else []
        elif isinstance(node, S.FalseFormula):
            alts = [] if positive else [(_EMPTY, _EMPTY)]
        elif isinstance(node, S.Atom):
            alts = [(frozenset({_atom_literal(node, positive)}), _EMPTY)]
        elif isinstance(node, S.Not):
            alts = expand(node.arg, not positive)
        elif isinstance(node, S.Or):
            if positive:
                alts = expand(node.left, True) + expand(node.right, True)
            else:
                alts = _combine(expand(node.left, False), expand(node.right, False))
        elif isinstance(node, S.And):
            if positive:
                alts = _combine(expand(node.left, True), expand(node.right, True))
            else:
                alts = expand(node.left, False) + expand(node.right, False)
        elif isinstance(node, S.Next):
            alts = self._defer(node.arg, positive)
        elif isinstance(node, S.Until):
            if node.window != S.RESIDUAL_WINDOW:
                raise ValueError(f"untranslated until window {node.window}")
            # one-step fixpoint: demand (right or (left and self)) at the successor
            alts = self._defer(S._or(node.right, S._and(node.left, node)), positive)
        else:
            raise TypeError(f"unexpected node in tableau: {node!r}")
        self.cache[key] = alts
        return alts

    def alternatives(self, state):
        """The (guard, deferred obligations) pairs of a state whose guard
        is satisfiable."""
        alts = [(_EMPTY, _EMPTY)]
        rank = self.rank
        for obligation, positive in sorted(state, key=lambda e: (rank[e[0]], e[1])):
            alts = _combine(alts, self.expand(obligation, positive))
            if not alts:
                break
        pruned = []
        for nows, nexts in dict.fromkeys(alts):
            if nows not in self.guards:
                self.guards[nows] = A.normal_guard(P.Dnf((tuple(nows) or (P.TOP,),)))
            if self.guards[nows] is not None:
                pruned.append((self.guards[nows], nexts))
        return pruned


def translate_stl(formula: S.StlFormula) -> SymbolicAutomaton:
    """Tableau translation of a future STL formula.

    The automaton accepts exactly the traces satisfying the formula at
    position 0.  Both the window unfolding and the tableau stop at
    ``automaton.MAX_SUBSETS`` steps and locations with an
    ``UnsupportedFragmentError``.
    """
    steps = _window_steps(formula, "unfolding the formula's windows takes")
    core = S.unfold_bounded(formula)
    variables = tuple(sorted(S.stl_variables(formula)))

    tableau = _Tableau(core)
    start = frozenset({(core, True)})
    index = {start: 0}
    order = [start]
    transitions = []
    for state in order:
        for guard, nexts in tableau.alternatives(state):
            if nexts not in index:
                if len(order) >= A.MAX_SUBSETS:
                    raise UnsupportedFragmentError(
                        f"the tableau of a formula with {steps} window steps exceeds "
                        f"{A.MAX_SUBSETS} locations"
                    )
                index[nexts] = len(order)
                order.append(nexts)
            transitions.append((index[state], guard, index[nexts]))
    final = {
        index[s] for s in order if all(not positive for _, positive in s)
    }
    a = make_automaton(variables, len(order), {0}, final, transitions)
    return canonicalize(trim(a))


def _window_steps(root, what: str) -> int:
    """The steps unfolding a formula's or an expression's windows takes:
    per node object of ``speclang.nodes``, one for a next and a window's
    ``hi``, or its ``lo`` when unbounded.  More than
    ``automaton.MAX_SUBSETS`` steps raise ``UnsupportedFragmentError``,
    saying ``what`` takes them."""
    steps = 0
    for node in S.nodes(root):
        w = getattr(node, "window", None)
        if w is not None:
            steps += w.lo if w.hi is None else w.hi
        elif isinstance(node, S.Next):
            steps += 1
    if steps > A.MAX_SUBSETS:
        raise UnsupportedFragmentError(
            f"{what} {steps} steps, more than the budget of {A.MAX_SUBSETS}"
        )
    return steps


# --- regular expressions -------------------------------------------------------


@dataclass
class _Frag:
    n: int
    initial: set
    final: set
    transitions: list
    eps: list


def _shift(frag: _Frag, off: int) -> _Frag:
    return _Frag(
        frag.n,
        {q + off for q in frag.initial},
        {q + off for q in frag.final},
        [(s + off, g, d + off) for s, g, d in frag.transitions],
        [(s + off, d + off) for s, d in frag.eps],
    )


def eps_closure(frag: _Frag) -> list[set[int]]:
    succ: list[set[int]] = [set() for _ in range(frag.n)]
    for src, dst in frag.eps:
        succ[src].add(dst)
    closures = []
    for q in range(frag.n):
        seen = {q}
        stack = [q]
        while stack:
            s = stack.pop()
            for t in succ[s]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        closures.append(seen)
    return closures


def eps_eliminate(frag: _Frag, variables) -> SymbolicAutomaton:
    """The automaton of a fragment: guarded transitions saturated through
    epsilon moves, which are then dropped."""
    closures = eps_closure(frag)
    by_src: dict = {}
    for src, guard, dst in frag.transitions:
        by_src.setdefault(src, []).append((guard, dst))
    transitions = [
        (q, guard, dst)
        for q in range(frag.n)
        for s in sorted(closures[q])
        for guard, dst in by_src.get(s, ())
    ]
    final = {q for q in range(frag.n) if closures[q] & frag.final}
    return make_automaton(variables, frag.n, frag.initial, final, transitions)


def _from_automaton(a: SymbolicAutomaton) -> _Frag:
    return _Frag(
        a.n_locations,
        set(a.initial),
        set(a.final),
        list(a.transitions),
        [],
    )


def _length(w: S.TimeWindow) -> SymbolicAutomaton:
    """The counter of a duration window: a chain of ``cap + 1`` locations
    joined by ``TRUE`` steps, accepting from ``lo`` to ``cap``, where
    ``cap`` is ``hi``, or ``lo`` with a loop when the window is
    unbounded."""
    cap = w.lo if w.hi is None else w.hi
    steps = [(c, P.TRUE, c + 1) for c in range(cap)]
    if w.hi is None:
        steps.append((cap, P.TRUE, cap))
    return make_automaton((), cap + 1, {0}, range(w.lo, cap + 1), steps)


def _build(expr: S.SreExpr, variables) -> _Frag:
    if isinstance(expr, S.Epsilon):
        return _Frag(1, {0}, {0}, [], [])
    if isinstance(expr, S.SreBasic):
        return _Frag(2, {0}, {0, 1}, [(0, expr.pred, 1), (1, expr.pred, 1)], [])
    if isinstance(expr, S.SreConcat):
        left = _build(expr.left, variables)
        right = _shift(_build(expr.right, variables), left.n)
        eps = left.eps + right.eps + [(f, i) for f in left.final for i in right.initial]
        return _Frag(
            left.n + right.n,
            left.initial,
            right.final,
            left.transitions + right.transitions,
            eps,
        )
    if isinstance(expr, S.SreUnion):
        left = _build(expr.left, variables)
        right = _shift(_build(expr.right, variables), left.n)
        return _Frag(
            left.n + right.n,
            left.initial | right.initial,
            left.final | right.final,
            left.transitions + right.transitions,
            left.eps + right.eps,
        )
    if isinstance(expr, S.SreIntersect):
        left = eps_eliminate(_build(expr.left, variables), variables)
        right = eps_eliminate(_build(expr.right, variables), variables)
        return _from_automaton(product(left, right))
    if isinstance(expr, S.SreStar):
        inner = _build(expr.arg, variables)
        hub = inner.n
        eps = inner.eps + [(hub, q) for q in inner.initial] + [(f, hub) for f in inner.final]
        return _Frag(inner.n + 1, {hub}, {hub}, inner.transitions, eps)
    if isinstance(expr, S.SreDuration):
        inner = eps_eliminate(_build(expr.arg, variables), variables)
        return _from_automaton(product(inner, _length(expr.window)))
    raise TypeError(f"not an SRE node: {expr!r}")


def translate_sre(expr: S.SreExpr) -> SymbolicAutomaton:
    """Compile a signal regular expression to an epsilon-free automaton
    accepting exactly the traces the expression matches end to end.
    Durations of more than ``automaton.MAX_SUBSETS`` steps in all raise
    ``UnsupportedFragmentError`` before anything is built."""
    _window_steps(expr, "the expression's durations take")
    variables = tuple(sorted(S.sre_variables(expr)))
    a = eps_eliminate(_build(expr, variables), variables)
    return canonicalize(trim(a))
