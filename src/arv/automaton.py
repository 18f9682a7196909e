"""Symbolic automata over real-valued valuations and their weighted form.

Transitions carry guards instead of letters, each a flat ``Dnf``, and
every automaton is epsilon-free: epsilon moves exist only inside the SRE
builder (``translate``), which eliminates them before an automaton is
made.  ``normal_guard`` is the one place a guard is normalized: every
DNF, whether the predicate parser or a builder made it, becomes
``wedge_minimize``'s normal form, each clause its box's bound literals,
and guards whose normal form is false drop.  ``product`` conjoins
guards clause by clause and stops at ``MAX_SUBSETS`` locations,
``determinize`` builds its minterms as DNFs of box covers,
``decorate`` only attaches the weight rule, and the printers write a
guard's clauses flat.  The algebra relies on interval reasoning for
satisfiability, so no solver is needed.

``determinize`` splits the valuation space once into the minterms of an
automaton's guards, runs the subset construction over minterm indices
(pruned by simulation once it outgrows the automaton), minimizes by
Hopcroft's partition refinement and merges the minterms no location
tells apart (after D'Antoni & Veanes, *Minimization of Symbolic
Automata*, POPL 2014).  The result is complete, with one transition per
location and minterm, so ``flip`` (swapping its final set) complements it.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, replace

from . import predicate as P
from .distance import PointwiseDistance, Scorer, check_fits
from .errors import ParseError, UnsupportedFragmentError
from .intervals import Box, complement_cover, meet
from .predicate import Dnf
from .semiring import Semiring

# Locations a product, and subsets a determinization, may build before
# they give up.
MAX_SUBSETS = 1 << 16


@dataclass(frozen=True)
class SymbolicAutomaton:
    """Locations with DNF-guarded transitions."""

    variables: tuple[str, ...]
    n_locations: int
    initial: frozenset[int]
    final: frozenset[int]
    transitions: tuple[tuple[int, Dnf, int], ...]

    def __eq__(self, other):
        if not isinstance(other, SymbolicAutomaton):
            return NotImplemented
        return (
            self.variables == other.variables
            and self.n_locations == other.n_locations
            and self.initial == other.initial
            and self.final == other.final
            and Counter(self.transitions) == Counter(other.transitions)
        )

    def __hash__(self):
        return hash((self.variables, self.n_locations, self.initial, self.final))


def make_automaton(variables, n_locations, initial, final, transitions) -> SymbolicAutomaton:
    """Normalize and prune: each ``Dnf`` guard becomes ``normal_guard``'s
    form, and false guards and duplicate edges (equal DNFs) go."""
    pruned = []
    seen = set()
    normal: dict = {}  # guard -> its normal form, or None when unsatisfiable
    for src, guard, dst in transitions:
        if guard not in normal:
            normal[guard] = normal_guard(guard)
        edge = (src, normal[guard], dst)
        if edge[1] is None or edge in seen:
            continue
        seen.add(edge)
        pruned.append(edge)
    return SymbolicAutomaton(
        variables=tuple(variables),
        n_locations=n_locations,
        initial=frozenset(initial),
        final=frozenset(final),
        transitions=tuple(pruned),
    )


def normal_guard(guard: Dnf) -> Dnf | None:
    """A guard's normal form, ``wedge_minimize``'s (one already flagged
    ``wedge_minimal`` is kept), or None when the guard is unsatisfiable."""
    dnf = guard if guard.wedge_minimal else P.wedge_minimize(guard)
    return None if dnf.clauses == ((P.BOTTOM,),) else dnf


def product(a: SymbolicAutomaton, b: SymbolicAutomaton) -> SymbolicAutomaton:
    """Synchronous intersection over the reachable location pairs; guards
    conjoin clause by clause and unsatisfiable pairs drop.  Past
    ``MAX_SUBSETS`` locations it raises ``UnsupportedFragmentError``."""
    variables = tuple(sorted(set(a.variables) | set(b.variables)))
    a_out: dict = {}
    for src, g, dst in a.transitions:
        a_out.setdefault(src, []).append((g, dst))
    b_out: dict = {}
    for src, g, dst in b.transitions:
        b_out.setdefault(src, []).append((g, dst))

    index: dict = {}
    order: list = []

    def state_id(pair):
        if pair not in index:
            if len(order) >= MAX_SUBSETS:
                raise UnsupportedFragmentError(
                    f"the product of a {a.n_locations}-location and a {b.n_locations}-location "
                    f"automaton exceeds {MAX_SUBSETS} locations"
                )
            index[pair] = len(order)
            order.append(pair)
        return index[pair]

    transitions = []
    conjoined: dict = {}  # (guard of a, guard of b) -> their conjunction's normal form, None when false
    frontier = [(qa, qb) for qa in sorted(a.initial) for qb in sorted(b.initial)]
    for pair in frontier:
        state_id(pair)
    k = 0
    while k < len(order):
        qa, qb = order[k]
        k += 1
        for g1, d1 in a_out.get(qa, ()):
            for g2, d2 in b_out.get(qb, ()):
                if (g1, g2) not in conjoined:
                    guard = Dnf(tuple(c1 + c2 for c1 in g1.clauses for c2 in g2.clauses))
                    conjoined[g1, g2] = normal_guard(guard)
                guard = conjoined[g1, g2]
                if guard is None:
                    continue
                transitions.append((index[(qa, qb)], guard, state_id((d1, d2))))
    initial = {index[(qa, qb)] for qa in a.initial for qb in b.initial}
    final = {
        i for (pair, i) in ((p, index[p]) for p in order) if pair[0] in a.final and pair[1] in b.final
    }
    return make_automaton(variables, len(order), initial, final, transitions)


# --- minterms ----------------------------------------------------------------


def _minterms(guards, variables):
    """The non-empty cells the guards cut the valuation space into: per
    cell, its maximal boxes and whether it lies inside each guard.  A
    guard's outside and inside are covered by their maximal boxes, the
    ``complement_cover`` of its clause boxes and of that; a cell meets
    its cover with both, so its cover is maximal too."""
    cells = [([Box.full(len(variables))], ())]
    for guard in guards:
        clauses = P.dnf_boxes(guard, variables)
        outside = complement_cover(clauses, len(variables))
        if not outside:  # the guard always holds, so it splits no cell
            cells = [(boxes, covers + (True,)) for boxes, covers in cells]
            continue
        inside = clauses if len(clauses) == 1 else complement_cover(outside, len(variables))
        cells = [
            (part, covers + (side,))
            for boxes, covers in cells
            for side, region in ((True, inside), (False, outside))
            if (part := meet(boxes, region))
        ]
    return cells


def _region_dnf(maximal, variables) -> Dnf:
    """A region's DNF, one clause per maximal box, sorted by the bounds."""
    key = lambda box: [(c.lo, c.hi, c.lo_closed, c.hi_closed) for c in box.components]
    return P.boxes_to_dnf(sorted(maximal, key=key), variables)


def _subsets(a: SymbolicAutomaton, joined, inside, n_minterms):
    """Subset construction over minterm indices.

    Subsets are bitmasks over the locations of ``a`` that reach a final
    one, numbered densely: the others accept nothing, so dropping them
    keeps each subset's language.  ``joined`` maps ``a``'s (source,
    destination) pairs to their guards' union, and ``inside[guard]``
    lists the minterms inside that guard.  A location's successors on
    all minterms pack into one integer, ``n`` bits each, so a subset
    costs one OR per member.  Past ``4·n`` (or ``MAX_SUBSETS``) subsets
    it restarts, pruned by ``_dominated`` (which keeps languages, so the
    minimal DFA).  Returns, per subset in discovery order (the initial
    one first), whether it is accepting and its successor on each
    minterm.
    """
    into: dict = {}
    for src, dst in joined:
        into.setdefault(dst, set()).add(src)
    at = {q: i for i, q in enumerate(sorted(_reach(set(a.final), into)))}
    n = len(at)
    edges = [(at[src], at[dst], g) for (src, dst), g in joined.items() if src in at and dst in at]
    spread = {g: sum(1 << (j * n) for j in js) for g, js in inside.items()}
    succ = [0] * n
    for src, dst, guard in edges:
        succ[src] |= spread[guard] << dst
    start = sum(1 << at[q] for q in a.initial if q in at)
    found = _explore(start, succ, n, n_minterms, None, min(4 * n, MAX_SUBSETS))
    final = sum(1 << at[q] for q in a.final)
    if found is None:
        pred = [0] * n
        for src, dst, guard in edges:
            pred[dst] |= spread[guard] << src
        kill = _dominated(pred, final, n_minterms)
        found = _explore(start, succ, n, n_minterms, kill, MAX_SUBSETS)
    if found is None:
        raise UnsupportedFragmentError(
            f"determinizing a {a.n_locations}-location automaton with "
            f"{len(a.transitions)} transitions over {n_minterms} minterms "
            f"exceeds {MAX_SUBSETS} subsets"
        )
    subsets, delta = found
    return [bool(s & final) for s in subsets], delta


def _reach(seen: set, step: dict) -> set:
    """``seen`` grown by every location ``step`` (location -> set of
    locations) leads to from it, in any number of steps."""
    frontier = list(seen)
    while frontier:
        for nxt in step.get(frontier.pop(), set()) - seen:
            seen.add(nxt)
            frontier.append(nxt)
    return seen


def _bits(mask):
    """The indices of a bitmask's set bits, lowest first."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def _explore(start, succ, n, n_minterms, kill, budget):
    """The subsets reachable from ``start`` and their successor indices, or
    None past ``budget`` subsets.  With ``kill``, a successor drops what its
    members kill, and ``index`` maps it unpruned to its pruned index too."""
    mask = (1 << n) - 1
    index = {start: 0}
    order = [start]
    delta = []
    for subset in order:
        packed = 0
        bits = subset
        while bits:
            low = bits & -bits
            bits ^= low
            packed |= succ[low.bit_length() - 1]
        row = []
        for _ in range(n_minterms):
            target = packed & mask
            packed >>= n
            k = index.get(target)
            if k is None:
                pruned = target
                for q in _bits(target if kill else 0):
                    pruned &= ~kill[q]
                k = index.get(pruned)
                if k is None:
                    if len(order) >= budget:
                        return None
                    k = index[pruned] = len(order)
                    order.append(pruned)
                index[target] = k
            row.append(k)
        delta.append(row)
    return order, delta


def _dominated(pred, final, n_minterms):
    """Per location, the locations it makes redundant in a subset: those
    it simulates, bar one that simulates it back and has a lower index.
    ``sim[p]``, the locations that simulate ``p``, is refined from "final
    if ``p`` is" to the greatest simulation (Abdulla et al., TACAS 2010):
    on each minterm a member matches each successor of ``p`` by one that
    simulates it.  ``pred`` packs each location's predecessors per
    minterm; a location whose ``sim`` shrank narrows its predecessors'."""
    n = len(pred)
    mask = (1 << n) - 1
    width = range(0, n * n_minterms, n)
    sim = [final if final >> p & 1 else mask for p in range(n)]
    waiting = mask  # highest first: mostly successors before predecessors
    while waiting:
        q = waiting.bit_length() - 1
        waiting ^= 1 << q
        pre = 0  # per minterm, the locations with a successor in sim[q]
        for s in _bits(sim[q]):
            pre |= pred[s]
        for shift in width:
            for r in _bits((pred[q] >> shift) & mask):
                if sim[r] & ~(pre >> shift):
                    sim[r] &= pre >> shift
                    waiting |= 1 << r
    kill = [0] * n
    for p in range(n):
        for q in _bits(sim[p] & ~(1 << p)):
            if not (p < q and sim[q] >> p & 1):
                kill[q] |= 1 << p
    return kill


def _hopcroft(accepting, delta, n_minterms):
    """Block of each DFA location in the coarsest partition that separates
    accepting locations and is stable under every minterm.

    Hopcroft's partition refinement over inverse transitions, in
    O(m·n·log n) for n locations and m minterms: a block is split by the
    locations that move into a splitter block on one minterm, and of the
    two halves of a block not waiting to be a splitter only the smaller
    one is queued.  Blocks are numbered by their first location.
    """
    n = len(delta)
    inverse = [[[] for _ in range(n)] for _ in range(n_minterms)]
    for s, row in enumerate(delta):
        for j, t in enumerate(row):
            inverse[j][t].append(s)
    final = {s for s in range(n) if accepting[s]}
    members = [part for part in (final, set(range(n)) - final) if part]
    block = [0] * n
    for b, part in enumerate(members):
        for s in part:
            block[s] = b
    # with {final, other} split, refining by the smaller part suffices
    waiting = [] if len(members) < 2 else [0 if len(members[0]) <= len(members[1]) else 1]
    queued = set(waiting)
    while waiting:
        splitter = list(members[waiting[-1]])
        queued.discard(waiting.pop())
        for into in inverse:
            hits: dict = {}
            for t in splitter:
                for s in into[t]:
                    hits.setdefault(block[s], []).append(s)
            for b, hit in hits.items():
                if len(hit) == len(members[b]):
                    continue
                new = len(members)
                members.append(set(hit))
                members[b] -= members[new]
                for s in hit:
                    block[s] = new
                half = new if b in queued or len(hit) <= len(members[b]) else b
                waiting.append(half)
                queued.add(half)
    number: dict = {}
    return [number.setdefault(b, len(number)) for b in block]


def determinize(a: SymbolicAutomaton) -> SymbolicAutomaton:
    """The minimal complete deterministic automaton of ``a`` over the
    coarsest alphabet: the one DFA of its language.

    Parallel edges join, the valuation space is split once into the
    minterms of the joined guards, the subset construction runs over
    minterm indices, and Hopcroft refinement merges equivalent subsets
    in O(m·n·log n) for n subsets and m minterms.  Minterms with the same
    successor at every location then merge, each printed as its maximal
    boxes.  Locations are numbered by their first subset in discovery
    order, so the initial one is 0.  Every location has one transition
    per minterm and the empty subset is a real sink, so ``flip``
    complements.  Past ``MAX_SUBSETS`` subsets it raises
    ``UnsupportedFragmentError``.
    """
    variables = a.variables or ("_",)
    joined: dict = {}  # (source, destination) -> the union of their guards
    for src, g, dst in a.transitions:
        h = joined.get((src, dst))
        joined[src, dst] = g if h is None else Dnf(h.clauses + g.clauses)
    guards = list(dict.fromkeys(joined.values()))
    cells = _minterms(guards, variables)
    inside = {
        g: [j for j, (_, covers) in enumerate(cells) if covers[i]] for i, g in enumerate(guards)
    }
    accepting, delta = _subsets(a, joined, inside, len(cells))
    block = _hopcroft(accepting, delta, len(cells))
    # blocks are numbered by their first subset in discovery order, so the
    # initial subset's block is 0
    rep: dict = {}
    for s, b in enumerate(block):
        rep.setdefault(b, s)
    columns: dict = {}  # successor block at every location -> its minterms, then guard
    for j in range(len(cells)):
        columns.setdefault(tuple(block[delta[s][j]] for s in rep.values()), []).append(j)
    for column, group in columns.items():
        maximal = cells[group[0]][0]
        if len(group) > 1:
            union = [box for j in group for box in cells[j][0]]
            maximal = complement_cover(complement_cover(union, len(variables)), len(variables))
        columns[column] = _region_dnf(maximal, variables)
    transitions = tuple((b, guard, column[b]) for b in rep for column, guard in columns.items())
    final = frozenset(b for b, s in rep.items() if accepting[s])
    return SymbolicAutomaton(a.variables, len(rep), frozenset({0}), final, transitions)


def flip(d: SymbolicAutomaton) -> SymbolicAutomaton:
    """Swap accepting and rejecting locations: the complement of a
    complete deterministic automaton."""
    return replace(d, final=frozenset(range(d.n_locations)) - d.final)


def complement(a: SymbolicAutomaton) -> SymbolicAutomaton:
    """Complement: the minimal complete DFA with its final set flipped."""
    return flip(determinize(a))


# --- normalization -----------------------------------------------------------


def canonicalize(a: SymbolicAutomaton) -> SymbolicAutomaton:
    """Renumber locations in BFS order from the initial set; unreachable
    locations keep their relative order at the end."""
    text: dict = {}  # each distinct guard's printed form, printed once
    by_src: dict = {}
    for src, guard, dst in a.transitions:
        if guard not in text:
            text[guard] = P.print_predicate(guard)
        by_src.setdefault(src, []).append((text[guard], dst))

    order = sorted(a.initial)
    seen = set(order)
    for q in order:  # breadth first: the list is its own queue
        for _, dst in sorted(by_src.get(q, [])):
            if dst not in seen:
                seen.add(dst)
                order.append(dst)
    for q in range(a.n_locations):
        if q not in seen:
            order.append(q)
    renum = {old: new for new, old in enumerate(order)}
    transitions = tuple(
        sorted(
            ((renum[s], g, renum[d]) for s, g, d in a.transitions),
            key=lambda t: (t[0], t[2], text[t[1]]),
        )
    )
    return replace(
        a,
        initial=frozenset(renum[q] for q in a.initial),
        final=frozenset(renum[q] for q in a.final),
        transitions=transitions,
    )


def trim(a: SymbolicAutomaton) -> SymbolicAutomaton:
    """Drop locations that lie on no initial-to-final path.  Initial
    locations survive even when dead so the automaton stays runnable."""
    succ: dict = {}
    pred: dict = {}
    for src, _, dst in a.transitions:
        succ.setdefault(src, set()).add(dst)
        pred.setdefault(dst, set()).add(src)
    fwd = _reach(set(a.initial), succ)
    bwd = _reach(fwd & a.final, pred) & fwd
    keep = sorted(bwd | set(a.initial))
    renum = {old: new for new, old in enumerate(keep)}
    kept = set(keep)
    transitions = [
        (renum[s], g, renum[d]) for s, g, d in a.transitions if s in kept and d in kept
    ]
    return make_automaton(
        a.variables,
        len(keep),
        {renum[q] for q in a.initial},
        {renum[q] for q in a.final if q in kept},
        transitions,
    )


# --- weighted form -----------------------------------------------------------


@dataclass(frozen=True)
class WeightedAutomaton:
    """A symbolic automaton whose transition weights are, by definition,
    the distance between the consumed valuation and the guard."""

    base: SymbolicAutomaton
    semiring: Semiring
    dist: PointwiseDistance

    @property
    def variables(self):
        return self.base.variables


def decorate(a: SymbolicAutomaton, semiring: Semiring, dist: PointwiseDistance) -> WeightedAutomaton:
    """Attach the weight rule.  The guards stay as ``make_automaton`` or
    ``determinize`` made them; without multiplicative idempotence a
    weight is exact only on conjunction-minimal guards, so there a guard
    not flagged ``wedge_minimal`` raises ``ValueError``, as in ``vpd``,
    and so does a distance that does not fit the carrier."""
    check_fits(semiring, dist)
    if not semiring.multiplicatively_idempotent:
        for _, guard, _ in a.transitions:
            if not guard.wedge_minimal:
                raise ValueError(f"semiring {semiring.name!r} requires ∧-minimal DNF")
    return WeightedAutomaton(a, semiring, dist)


def compiled_weights(w: WeightedAutomaton):
    """One ``Scorer`` over the distinct guards, and per transition the
    index of its guard's weight."""
    index: dict = {}
    for _, g, _ in w.base.transitions:
        index.setdefault(g, len(index))
    return Scorer(tuple(index), w.semiring, w.dist), [index[g] for _, g, _ in w.base.transitions]


# --- serialization -----------------------------------------------------------


def to_dot(a: SymbolicAutomaton) -> str:
    lines = ["digraph automaton {", "  rankdir=LR;"]
    for q in range(a.n_locations):
        shape = "doublecircle" if q in a.final else "circle"
        style = ' style=bold color=blue' if q in a.initial else ""
        lines.append(f'  {q} [shape={shape}{style} label="q{q}"];')
    for src, guard, dst in a.transitions:
        label = P.print_predicate(guard).replace('"', '\\"')
        lines.append(f'  {src} -> {dst} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json(a: SymbolicAutomaton) -> str:
    a = canonicalize(a)
    doc = {
        "variables": list(a.variables),
        "locations": list(range(a.n_locations)),
        "initial": sorted(a.initial),
        "final": sorted(a.final),
        "transitions": [
            {"src": s, "guard": P.print_predicate(g), "dst": d} for s, g, d in a.transitions
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def _expect_key(doc, key, path):
    if key not in doc:
        raise ParseError(f"missing key {key!r} at {path}")
    return doc[key]


def from_json(text: str) -> SymbolicAutomaton:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("schema error at $: expected an object")
    variables = _expect_key(doc, "variables", "$")
    locations = _expect_key(doc, "locations", "$")
    initial = _expect_key(doc, "initial", "$")
    final = _expect_key(doc, "final", "$")
    raw_transitions = _expect_key(doc, "transitions", "$")
    if not isinstance(locations, list) or not all(isinstance(q, int) for q in locations):
        raise ParseError("schema error at $.locations: expected a list of ints")
    n = len(locations)
    for name, group in (("initial", initial), ("final", final)):
        if not isinstance(group, list) or not all(isinstance(q, int) and 0 <= q < n for q in group):
            raise ParseError(f"schema error at $.{name}: expected location ids")
    transitions = []
    for i, t in enumerate(raw_transitions):
        if not isinstance(t, dict):
            raise ParseError(f"schema error at $.transitions[{i}]: expected an object")
        src = _expect_key(t, "src", f"$.transitions[{i}]")
        dst = _expect_key(t, "dst", f"$.transitions[{i}]")
        guard_text = _expect_key(t, "guard", f"$.transitions[{i}]")
        if not (isinstance(src, int) and 0 <= src < n and isinstance(dst, int) and 0 <= dst < n):
            raise ParseError(f"schema error at $.transitions[{i}]: bad src/dst")
        try:
            guard = P.parse_predicate(guard_text)
        except ParseError as exc:
            raise ParseError(f"schema error at $.transitions[{i}].guard: {exc}") from None
        transitions.append((src, guard, dst))
    return make_automaton(tuple(variables), n, initial, final, transitions)
