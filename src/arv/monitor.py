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

Within a few steps the live sets of most automata reach one that is its
own successor, a *fixed point*; from there every sample takes the same
edges and only their weights change.  There a generated *loop*
(``_block_loop``) takes over from the plans: one function per live set
and variant, built on first use, that scores the guards inline and
relaxes every edge, with no table, recipe, shape or plan to look up.
Once ``advance`` stands on a fixed point with at least ``LOOP_AFTER``
samples left in its block, it runs the rest of the block through a loop
that reads the block's columns (with rows, for a final verdict, or with
no DFA run); once ``step`` has stood on a fixed point ``LOOP_AFTER``
times, it runs the one-sample variant, which reads the valuation.
Compiling a loop costs about as much as a few hundred interpreted
samples, so transients, shorter blocks, live-set cycles longer than one
step and the first ``LOOP_AFTER`` steps keep the plans.

A fixed point of a complete automaton (as ``determinize`` builds) is
*settled* (``_Program.settled``) when each member's edges all lead back
to that member: the accept and reject sinks of a bounded-horizon
specification, say.  There some guard of each member holds at every
sample, so each cost passes on unchanged, and a priced edge offers
``c ⊗ w``, never below ``c``: no cost, DFA run or verdict row can
change.  ``step`` still builds each sample's atom table, so every bad
value raises as before, and then returns; ``advance`` relaxes the
transient (plus one step, for a row to repeat) and, with rows, repeats
the last row for the rest of the block, after the block has been read
and checked like any other.  No loop is built for a settled live set.

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
from functools import partial
from itertools import chain, count, repeat
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
    (``next``, filled when first needed, the same for every sample); per
    weight shape the ``_Plan`` of a step from it; how many steps lead
    from it to a live set that is its own successor (``settle``, -1 if
    none does, filled by ``_Program.settle``); whether no sample can
    change a cost on it (``settled``, from ``_Program.settled``); and how
    many of ``step``'s samples have run its plans (``stood``)."""

    __slots__ = ("members", "n_final", "next", "plans", "settle", "settled", "stood")

    def __init__(self, members, final, settled: bool):
        self.members = sorted(members, key=lambda q: (q not in final, q))
        self.n_final = sum(q in final for q in members)
        self.next = None
        self.plans: dict = {}
        self.settle = None
        self.settled = settled
        self.stood = 0


class _Plan:
    """A step from one live set under one weight shape: the live set after
    it (``next``) and one row ``(free, priced)`` per member, where ``free``
    lists the destinations (indices into ``next.members``) of its edges
    whose guard holds and ``priced`` the ``(destination, slot)`` pairs of
    the others."""

    __slots__ = ("next", "rows")

    def __init__(self, nxt: _LiveSet, rows: list):
        self.next, self.rows = nxt, rows


class _Program:
    """What the streams over one weighted automaton share: its guards'
    ``Scorer``, per source location its ``(destination, guard index)``
    edges, the memo of live sets with their successors and plans, their
    relax, and the generated loops of its fixed-point live sets (``loops``)."""

    def __init__(self, w: A.WeightedAutomaton):
        base = w.base
        self.scorer, index = A.compiled_weights(w)
        self.out = [[] for _ in range(base.n_locations)]
        for (src, _, dst), j in zip(base.transitions, index):
            self.out[src].append((dst, j))
        self.final = base.final
        self.complete = base.complete
        self.semiring = w.semiring
        self.live_sets: dict = {}
        self.relax = _relax(self, w.semiring)
        self.loops: dict = {}  # (live set, run?, rows?, step?) -> (loop, its variables)

    def live_set(self, members) -> _LiveSet:
        members = frozenset(members)
        live = self.live_sets.get(members)
        if live is None:
            live = self.live_sets[members] = _LiveSet(members, self.final, self.settled(members))
        return live

    def successor(self, live: _LiveSet) -> _LiveSet:
        if live.next is None:
            live.next = self.live_set(dst for q in live.members for dst, _ in self.out[q])
        return live.next

    def settle(self, live: _LiveSet, budget: int):
        """``live.settle``, found by walking its successors and memoized on
        every live set walked through, or None if telling takes more than
        ``budget`` steps."""
        start, path = live, {}  # the live sets walked through, in order
        while live.settle is None:
            if self.successor(live) is live:
                live.settle = 0
            elif live in path:  # a cycle through several live sets
                live.settle = -1
            elif len(path) >= budget:
                return None
            else:
                path[live] = None
                live = live.next
        end, n = live.settle, len(path)
        for i, q in enumerate(path):
            q.settle = -1 if end < 0 else end + n - i
        return start.settle

    def settled(self, members) -> bool:
        """Whether no sample can change a cost on the live set of
        ``members``: the automaton is ``complete`` and each member's edges
        all lead back to it (so the live set is its own successor).  Then
        some guard of each member holds at any sample, so its cost passes
        on unchanged and every priced candidate ``c ⊗ w`` is no lower: no
        cost, run or verdict row changes.  A live set of an automaton not
        known to be complete never settles, which changes no value."""
        out = self.out
        return self.complete and all(all(dst == q for dst, _ in out[q]) for q in members)

    def loop(self, live: _LiveSet, run: bool, rows: bool, step: bool = False):
        """The ``_block_loop`` of ``live`` for a stream that moves a DFA's
        run or not, for a list of rows or none (always none with
        ``step``), and for a block or, with ``step``, one sample, built on
        first use."""
        key = live, run, run and rows, step  # without a run there are no rows
        loop = self.loops.get(key)
        if loop is None:
            loop = self.loops[key] = _block_loop(self, live, *key[1:])
        return loop

    def make_plan(self, live: _LiveSet, shape: int):
        """The plan of a step from ``live`` under a weight shape.  An edge
        whose guard has no clause is left out (it never relaxes), and so
        is a priced edge to a destination its source reaches free (its
        cost ``c ⊗ w`` is never below ``c``)."""
        out = self.out
        self.successor(live)
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
        plan = live.plans[shape] = _Plan(live.next, rows)
        return plan


LOOP_AFTER = 256  # samples run through the plans on a fixed point before its loop runs


_serial = count()  # numbers the generated functions


def _compile(lines: list, namespace: dict):
    """The function that the generated source ``lines`` defines, named by
    its first line, compiled under a file name of its own, ``<arv loop
    17>``, so that profiles keep apart the functions of one name."""
    name = lines[0][4:lines[0].index("(")]
    exec(compile("\n".join(lines), f"<arv {name} {next(_serial)}>", "exec"), namespace)
    return namespace[name]


class _Moves(dict):
    """The DFA run's moves from one member of a live set that is its own
    successor: per truth code of the atoms of a block loop, the member
    reached by its first edge whose guard holds (``find``), looked up
    when the code is first met."""

    __slots__ = ("find",)

    def __init__(self, find):
        self.find = find

    def __missing__(self, code):
        move = self[code] = self.find(code)
        return move


def _block_loop(prog: _Program, live: _LiveSet, run: bool, rows: bool, step: bool):
    """The rest of a block from ``live``, a live set that is its own
    successor, as one function ``(samples, costs, run, append) -> (costs,
    run)`` built with ``exec``; and the variables whose block columns it
    reads, zipped, as ``samples``.  Per sample it computes each atom's
    truth and each used literal's distance (``e_times`` if it holds) as
    ``Scorer.tables`` does, and each guard's weight as
    ``Scorer.compound`` does: a ⊗ over a clause's literals in their
    order (one that holds weighs ``e_times``, which changes no ⊗), a
    min over its clauses.  A guard that holds weighs exactly
    ``e_times``, and ``c ⊗ e_times`` is ``c``, so pricing every edge
    gives the costs of the interpreted loop of ``_relax``; it skips the
    same members, at ``e_plus``.  Parallel edges (one member, one
    destination) relax once, with the least of their weights: ``c ⊗
    min(w)`` equals ``min(c ⊗ w)``, as ⊗ and its rounding are monotone.
    With ``run`` it moves the DFA's run by the sample's truth code
    (``_Moves``), and with ``rows`` it appends each prefix's verdict as
    ``_relax`` does.

    With ``step`` it is the same body for one sample, ``(valuation,
    costs, run) -> (costs, run)``: it reads every variable of the
    scorer's atoms, not only those the body uses, and checks each with
    ``-INF < v < INF``.  On a failed check, a ``KeyError`` or a
    ``TypeError`` it calls ``Scorer.table``, which raises what a step
    through the plans raises, and the stream keeps its costs.  The
    source holds only integer indices and fixed names; thresholds, units
    and variable names are bound in its namespace."""
    scorer, semiring = prog.scorer, prog.semiring
    add = semiring.otimes is operator.add  # else ⊗ is max
    at = {q: i for i, q in enumerate(live.members)}
    edges = []  # per member, per destination, the guards with clauses of its edges there
    for q in live.members:
        to: dict = {}
        for dst, j in prog.out[q]:
            if scorer.guards[j]:
                to.setdefault(at[dst], set()).add(j)
        edges.append({d: tuple(sorted(js)) for d, js in to.items()})
    groups = list(dict.fromkeys(js for row in edges for js in row.values()))
    guards = sorted({j for js in groups for j in js})
    atoms = sorted({a for j in guards for clause in scorer.guards[j] for a, _ in clause})
    variables = list(dict.fromkeys(scorer.atoms[a][0] for a in (range(scorer.n_atoms) if step else atoms)))
    m, k = len(live.members), live.n_final
    cs, ns = [f"c{i}" for i in range(m)], [f"n{i}" for i in range(m)]
    x_of = {a: f"x{variables.index(scorer.atoms[a][0])}" for a in atoms}
    body = []
    for a in atoms:
        x = x_of[a]
        body.append(f"t{a} = {x} < k{a}" if scorer.atoms[a][1] else f"t{a} = {x} <= k{a}")
    literals = {lit for j in guards for clause in scorer.guards[j] for lit in clause}
    for a, negated in sorted(literals):
        x = x_of[a]
        gap = f"(0.0 if {x} == k{a} else 1.0)" if scorer.discrete else f"abs({x} - k{a})"
        body.append(f"m{a} = {gap} if t{a} else E1" if negated else f"l{a} = E1 if t{a} else {gap}")
    for j in guards:
        for i, clause in enumerate(scorer.guards[j]):
            names = [f"m{a}" if negated else f"l{a}" for a, negated in clause] or ["E1"]
            target = f"g{j}" if i == 0 else "w"
            if add:
                body.append(f"{target} = {' + '.join(names)}")
            else:
                body.append(f"{target} = {names[0]}")
                body += [f"if {name} > {target}: {target} = {name}" for name in names[1:]]
            if i:
                body.append(f"if w < g{j}: g{j} = w")
    weight = {}  # per group of parallel edges' guards, the name of their least weight
    for i, js in enumerate(groups):
        weight[js] = f"g{js[0]}" if len(js) == 1 else f"u{i}"
        if len(js) > 1:
            body += _least([f"g{j}" for j in js], f"u{i}")
    if m:
        body.append(" = ".join(ns) + " = E")
    for i, row in enumerate(edges):
        if row:
            body.append(f"if c{i} < E:")
        for d, js in row.items():
            g = weight[js]
            body.append(f"    v = c{i} + {g}" if add else f"    v = {g} if {g} > c{i} else c{i}")
            body.append(f"    if v < n{d}: n{d} = v")
    body += [f"c{i} = n{i}" for i in range(m)]
    if run:
        code = " | ".join(f"t{a} << {b}" if b else f"t{a}" for b, a in enumerate(atoms)) or "0"
        body.append(f"run = moves[run][{code}]")
    if rows:
        body.append(f"if run < {k}:")
        if k < m:
            body += ["    " + line for line in _least(ns[k:], "d")]
            body.append("    append((d or 0.0, True, E1, d))")
        else:
            body.append("    append((INF, True, E1, E))")
        body.append("else:")
        if k:
            body += ["    " + line for line in _least(ns[:k], "d")]
            body.append("    append((-d if d else 0.0, False, d, E1))")
        else:
            body.append("    append((-INF, False, E, E1))")
    xs = [f"x{i}" for i in range(len(variables))]
    lines = [
        "def step(valuation, costs, run):" if step else "def loop(samples, costs, run, append):",
        f"    [{', '.join(cs)}] = costs",
    ]
    if step:
        lines.append("    try:")
        lines += [f"        {x} = valuation[v{i}]" for i, x in enumerate(xs)]
        lines.append(f"        if {' and '.join(f'-INF < {x} < INF' for x in xs) or 'True'}:")
        lines += ["            " + line for line in body]
        lines.append(f"            return [{', '.join(cs)}], run")
        lines += ["    except (KeyError, TypeError):", "        pass", "    table(valuation)"]
        lines.append('    raise ValueError("the step loop refused a valuation that the atom table takes")')
    else:
        lines.append(f"    for {', '.join(xs) or '_'} in samples:")
        lines += ["        " + line for line in body or ["pass"]]
        lines.append(f"    return [{', '.join(cs)}], run")
    namespace = {f"k{a}": scorer.atoms[a][2] for a in atoms}
    namespace.update({f"v{i}": var for i, var in enumerate(variables)})
    namespace.update(E=semiring.e_plus, E1=semiring.e_times, INF=INF, table=scorer.table)
    if run:
        namespace["moves"] = [_Moves(partial(_move, prog, atoms, at, q)) for q in live.members]
    return _compile(lines, namespace), variables


def _least(names, target: str) -> list:
    """Lines that set ``target`` to the first least of ``names``, as
    ``min`` does (which, called, costs several times more)."""
    if len(names) == 2:
        return [f"{target} = {names[1]} if {names[1]} < {names[0]} else {names[0]}"]
    return [f"{target} = {names[0]}"] + [f"if {name} < {target}: {target} = {name}" for name in names[1:]]


def _move(prog: _Program, atoms, at, q, code: int) -> int:
    """The index in ``at`` of the destination of the first edge of ``q``
    whose guard holds, where atom ``atoms[b]`` holds iff bit ``b`` of
    ``code`` is set; a literal holds iff its atom's truth is not its
    ``negated``."""
    truth = {a: bool(code >> b & 1) for b, a in enumerate(atoms)}
    guards = prog.scorer.guards
    for dst, j in prog.out[q]:
        if any(all(truth[a] != negated for a, negated in clause) for clause in guards[j]):
            return at[dst]
    raise ValueError("the block loop's run met a location where no guard holds")


def _relax(prog: _Program, semiring: Semiring):
    """The one relax, ``relax(stream, tables, rows)``: per atom table of a
    block, the recipe of its truths and the live set's plan for their
    shape, then a free edge passes its source's cost on and a priced one
    ⊗s it with its slot's weight, written out as ``+`` or max (⊕ is min,
    so relaxing is one comparison); a member at ``e_plus`` is skipped.  A
    monitor pair's stream (``_stream``) also moves the DFA's run along its
    one free edge, so the run costs ``e_times`` and, with a list ``rows``,
    each prefix's verdict is read from a min over the other side alone,
    ``_rho``'s sign rule written out.  The stream's live set, costs and
    run carry over to the next block."""
    recipes, recipe, compound = prog.scorer.recipes, prog.scorer.recipe, prog.scorer.compound
    make_plan, add = prog.make_plan, semiring.otimes is operator.add  # else ⊗ is max
    e_plus, e_times = semiring.e_plus, semiring.e_times

    def relax(stream, tables, rows):
        live, costs, run = stream._live, stream._costs, stream._run
        for truths, distances in tables:
            shape, compounds = recipes.get(truths) or recipe(truths)
            if compounds:
                compound(distances, compounds)
            plan = live.plans.get(shape) or make_plan(live, shape)
            live = plan.next
            new_costs = [e_plus] * len(live.members)
            for c, (free, priced) in zip(costs, plan.rows):
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
            costs = new_costs
            if run is None:
                continue
            run = plan.rows[run][0][0]
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
    plan per shape it has met.  On a fixed-point live set a generated
    loop gives the same costs as the plans: ``advance`` runs the samples
    of a long block through its block variant, and ``step`` runs its
    one-sample variant once it has stood there ``LOOP_AFTER`` times.
    Once the live set is settled (no sample can change a cost), ``step``
    only checks each sample and ``advance`` only reads and checks each
    block, repeating the last verdict row.  These memos, the loops and
    the scorer are the automaton's ``_Program``, built by its first
    stream and shared.  The stream keeps one cost per member of the
    current live set, in its order, and the step loop it runs
    (``_loop``); ``costs`` spells the costs out over every location.
    """

    def __init__(self, w: A.WeightedAutomaton):
        self.w = w
        prog = w.__dict__.get("_program")
        if prog is None:  # a flipped copy is a new automaton, with its own
            prog = _Program(w)
            object.__setattr__(w, "_program", prog)
        self._prog = prog
        self._scorer = prog.scorer
        self._live_sets = prog.live_sets
        self._semiring = w.semiring
        self._relax = prog.relax
        self._live = prog.live_set(w.base.initial)
        self._costs = [w.semiring.e_times] * len(self._live.members)
        self._run = None  # a DFA's own location, as an index into the live set
        self._loop = None  # the step loop of the live set, a fixed point

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
        value that is not a finite number), relaxed as a block of one
        unless the live set is settled, where it would change nothing.  On
        a fixed point (``_Program.settle``) that steps have stood on
        ``LOOP_AFTER`` times, the step loop (``_block_loop``) does both,
        with the same costs and errors."""
        loop, live = self._loop, self._live
        if loop is None and live.stood == LOOP_AFTER and not live.settled and self._prog.settle(live, 0) == 0:
            loop = self._loop = self._prog.loop(live, self._run is not None, False, step=True)[0]
        try:
            if loop:
                self._costs, self._run = loop(valuation, self._costs, self._run)
                return
            table = self._scorer.table(valuation)
        except KeyError as exc:
            raise UnboundVariableError(f"unbound variable {exc.args[0]!r}") from None
        live.stood += 1
        if not live.settled:
            self._relax(self, (table,), None)

    def advance(self, trace, rows: list | None = None) -> None:
        """A ``Trace`` or its blocks (``speclang.trace_blocks``), block by
        block: its atom tables (``Scorer.tables``), then the relax, which
        for a monitor pair appends each prefix's verdict to a list ``rows``.
        Once the live set is settled, the rest of the block changes nothing,
        and with ``rows`` one more step gives the row that each of its
        samples repeats; from any other fixed-point live set with at least
        ``LOOP_AFTER`` samples of the block left, the block loop relaxes
        the rest.  Every block is checked as a ``Trace`` and for the
        automaton's variables either way."""
        prog = self._prog
        for block in (trace,) if isinstance(trace, Trace) else trace:
            _check_variables(self.w, block)
            n = len(block)
            start = prog.settle(self._live, n - 1)
            if start is None or not 0 <= start < n:
                self._relax(self, self._scorer.tables(block), rows)
                continue
            fixed = self._live
            for _ in range(start):
                fixed = fixed.next
            if fixed.settled:  # a row to repeat takes one more step
                stop = start + (rows is not None)
                if stop:
                    self._relax(self, self._scorer.tables(block, stop), rows)
                if rows is not None:
                    rows.extend(repeat(rows[-1], n - stop))
                continue
            if start > n - max(LOOP_AFTER, 1):  # too few samples left for a loop
                self._relax(self, self._scorer.tables(block), rows)
                continue
            if start:
                self._relax(self, self._scorer.tables(block, start), rows)
            loop, variables = prog.loop(self._live, self._run is not None, rows is not None)
            cols = [block.columns[var][start:] if start else block.columns[var] for var in variables]
            samples = cols[0] if len(cols) == 1 else zip(*cols) if cols else range(n - start)
            append = None if rows is None else rows.append
            self._costs, self._run = loop(samples, self._costs, self._run, append)


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
