import itertools
import random
from dataclasses import replace

import pytest

from arv import predicate as P
from arv.automaton import (
    _minterms,
    _region_dnf,
    canonicalize,
    complement,
    decorate,
    determinize,
    from_json,
    make_automaton,
    product,
    to_dot,
    to_json,
    trim,
)
from arv.distance import PointwiseDistance, default_distance
from arv.errors import ParseError
from arv.fixtures import example_automaton
from arv.generators import random_automaton, random_predicate
from arv.oracles import accepts, dfa_equivalent, is_deterministic_complete
from arv.semiring import MINMAX, TROPICAL
from arv.speclang import Trace
from arv.translate import _Frag, eps_eliminate
from conftest import traces_upto


def g(text):
    return P.parse_predicate(text)


def single_word_acceptor(literals):
    transitions = [(i, lit, i + 1) for i, lit in enumerate(literals)]
    return make_automaton(("x",), len(literals) + 1, {0}, {len(literals)}, transitions)


def test_make_automaton_prunes_unsat_and_duplicates():
    a = make_automaton(
        ("x",),
        2,
        {0},
        {1},
        [
            (0, g("x <= 3"), 1),
            (0, g("x <= 3"), 1),
            (0, g("x >= 5 && x < 5"), 1),
        ],
    )
    assert len(a.transitions) == 1


def test_eps_eliminate_preserves_concat_language():
    # concatenation gadget with an epsilon bridge
    glued = _Frag(4, {0}, {3}, [(0, g("x <= 2"), 1), (2, g("x >= 5"), 3)], [(1, 2)])
    flat = eps_eliminate(glued, ("x",))
    for t in traces_upto(("x",), range(0, 7), 3):
        expected = len(t) == 2 and t.samples[0]["x"] <= 2 and t.samples[1]["x"] >= 5
        assert accepts(flat, t) == expected


def test_product_with_top_loop_is_identity():
    top = make_automaton(("x",), 1, {0}, {0}, [(0, P.TRUE, 0)])
    a = single_word_acceptor([g("x <= 2"), g("x >= 4")])
    prod = product(top, a)
    for t in traces_upto(("x",), range(0, 6), 3):
        assert accepts(prod, t) == accepts(a, t)


def test_determinize_and_complement():
    rng = random.Random(33)
    for _ in range(15):
        a = random_automaton(rng, ("x",), max_locations=4, max_transitions=5)
        d = determinize(a)
        c = complement(a)
        assert is_deterministic_complete(d)
        for t in traces_upto(("x",), range(0, 6), 3):
            assert accepts(d, t) == accepts(a, t)
            assert accepts(c, t) == (not accepts(a, t))
        d2 = determinize(d)
        for t in traces_upto(("x",), range(0, 6), 2):
            assert accepts(d2, t) == accepts(d, t)


@pytest.mark.parametrize(
    "guards, expected",
    [
        (("x <= 2", "x > 2"), True),
        (("x <= 2 && y <= 0", "x <= 2 && y > 0", "x > 2"), True),
        # a gap and an overlap that hold no threshold and lie within half a
        # unit of one, where a probe grid around the thresholds misses them
        (("x <= 2", "x >= 2.2"), False),
        (("x < 2.2", "x > 2"), False),
        (("x <= 2", "x > 2 && y <= 0"), False),
        (("x <= 2", "x >= 2"), False),
    ],
)
def test_is_deterministic_complete_is_exact(guards, expected):
    transitions = [(0, g(text), 0) for text in guards]
    a = make_automaton(("x", "y"), 1, {0}, {0}, transitions)
    assert is_deterministic_complete(a) == expected
    two_initial = make_automaton(("x", "y"), 2, {0, 1}, {0}, transitions + [(1, g("true"), 1)])
    assert not is_deterministic_complete(two_initial)


def test_determinize_is_minimal_with_one_minterm_per_edge():
    from arv.speclang import negate, parse_sre, parse_stl
    from arv.translate import translate_sre, translate_stl

    rng = random.Random(35)
    automata = [random_automaton(rng, ("x", "y"), max_locations=5, max_transitions=8) for _ in range(20)]
    automata += [
        translate_stl(parse_stl("G(x <= 5 -> F[0,4] y >= 2)")),
        translate_stl(parse_stl("!(G[0,6] F[0,2] x >= 8)")),
        translate_sre(parse_sre("(<x <= 7>[1,5] ; <y >= 2>[1,3])*")),
        translate_sre(parse_sre("(T ; <x <= 2>[2,4] ; T) & (T ; <y >= 8>[1,3] ; T)")),
    ]
    for a in automata:
        d = determinize(a)
        assert determinize(d).n_locations == d.n_locations
        minterms = {g for _, g, _ in d.transitions}
        assert len(d.transitions) == d.n_locations * len(minterms)
        assert is_deterministic_complete(d)
    # known minimal sizes: the tableaux have 17 and 6 locations; the
    # formula's DFA keeps one more, an initial location that rejects the
    # empty trace but is otherwise equivalent to a later one
    f = parse_stl("G(x <= 5 -> F[0,4] y >= 2)")
    assert determinize(translate_stl(f)).n_locations == 7
    assert determinize(translate_stl(negate(f))).n_locations == 6
    assert automata[-1].n_locations == 31
    assert determinize(automata[-1]).n_locations == 6


# guards with a whole-space clause, unsatisfiable clauses, nested and
# overlapping clauses; ``{a}`` and ``{b}`` name variables, maybe the same
GUARD_SHAPES = (
    "true",
    "({a} < 1 && {a} > 2) || {b} <= 0",
    "{a} < 1 && {a} > 2",
    "{a} <= 1 || {a} <= 3 || ({a} <= 2 && {b} >= -1)",
    "({a} <= 2 && {b} <= 2) || ({a} >= 1 && {b} >= 1)",
    "!({a} <= 1 || {b} > 3)",
)


def _arrangement_points(guards, variables):
    """One point per cell of the threshold arrangement: on each axis,
    every threshold, the midpoints between them and one point beyond
    each end."""
    axes = []
    for var in variables:
        ks = sorted(
            {0.0}
            | {
                (lit.arg if isinstance(lit, P.Not) else lit).k
                for guard in guards
                for clause in guard.clauses
                for lit in clause
                if isinstance(lit, (P.Cmp, P.Not)) and lit.var == var
            }
        )
        mids = [(lo + hi) / 2 for lo, hi in zip(ks, ks[1:])]
        axes.append(ks + mids + [ks[0] - 1, ks[-1] + 1])
    return [dict(zip(variables, point)) for point in itertools.product(*axes)]


def test_minterms_partition_the_space_and_match_each_guard():
    """Checked by ``evaluate`` alone, independently of boxes: at a point
    of every cell of the threshold arrangement exactly one minterm
    holds, and its covers are the guards' truths there."""
    rng = random.Random(71)
    for _ in range(150):
        variables = ["x", "y", "z"][: rng.randint(1, 3)]
        guards = []
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.5:
                text = random_predicate(rng, variables, depth=3, lo=-3, hi=3)
            else:
                a, b = rng.choice(variables), rng.choice(variables)
                text = rng.choice(GUARD_SHAPES).format(a=a, b=b)
            guards.append(g(text))
        cells = [(_region_dnf(boxes, variables), covers) for boxes, covers in _minterms(guards, variables)]
        assert len({covers for _, covers in cells}) == len(cells)
        for point in _arrangement_points(guards, variables):
            holding = [covers for dnf, covers in cells if P.evaluate(point, dnf)]
            assert holding == [tuple(P.evaluate(point, guard) for guard in guards)]


def test_determinize_subset_budget(monkeypatch):
    import arv.automaton
    from arv.errors import UnsupportedFragmentError

    # x <= 0 at some step among the last three: 2^3 subsets
    a = make_automaton(
        ("x",), 4, {0}, {3},
        [(0, P.TRUE, 0), (0, g("x <= 0"), 1), (1, P.TRUE, 2), (2, P.TRUE, 3)],
    )
    assert determinize(a).n_locations == 8
    monkeypatch.setattr(arv.automaton, "MAX_SUBSETS", 7)
    with pytest.raises(UnsupportedFragmentError, match="4-location automaton .* exceeds 7 subsets"):
        determinize(a)


def _recent_x_le_0(k, copies=1):
    """x <= 0 at one of the last k steps: 2^k subsets, k + 1 after pruning.
    With two copies of the chain, each location simulates its twin."""
    n = copies * k + 1
    chains = [(0, g("x <= 0"), c * k + 1) for c in range(copies)]
    chains += [(q, P.TRUE, q + 1) for q in range(1, n - 1) if q % k]
    return make_automaton(("x",), n, {0}, range(1, n), [(0, P.TRUE, 0)] + chains)


def test_pruned_subsets_give_the_plain_dfa(monkeypatch):
    """Pruning subsets by simulation changes no DFA: with ``_dominated``
    marking nothing, the construction is the plain one, and its minimal
    DFA prints byte for byte the same."""
    import arv.automaton

    rng = random.Random(2010)
    automata = [random_automaton(rng, ("x", "y"), max_locations=9, max_transitions=24) for _ in range(150)]
    automata += [_recent_x_le_0(k, copies) for k in range(1, 11) for copies in (1, 2)]
    pruned = [to_json(determinize(a)) for a in automata]
    assert pruned[-1] == pruned[-2] and determinize(automata[-1]).n_locations == 11
    real, pruning = arv.automaton._dominated, []

    def plain(*args):
        kill = real(*args)
        pruning.append(any(kill))
        return [0] * len(kill)

    monkeypatch.setattr(arv.automaton, "_dominated", plain)
    assert [to_json(determinize(a)) for a in automata] == pruned
    # the restart ran on 21 random automata and 6 + 5 of the family, and pruned in 16
    assert (len(pruning), sum(pruning)) == (32, 16)


def test_trim_keeps_language():
    a = make_automaton(
        ("x",),
        4,
        {0},
        {1},
        [(0, g("x <= 1"), 1), (0, g("x >= 3"), 2), (3, P.TRUE, 1)],
    )
    t = trim(a)
    assert t.n_locations == 2
    for trc in traces_upto(("x",), range(0, 5), 2):
        assert accepts(t, trc) == accepts(a, trc)


def test_make_automaton_minimizes_guards():
    a = make_automaton(
        ("x",),
        2,
        {0},
        {1},
        [(0, g("x <= 3 && x <= 5"), 1), (1, P.TRUE, 1), (1, g("true && x >= 1"), 0)],
    )
    guards = [guard for _, guard, _ in a.transitions]
    assert all(dnf.wedge_minimal for dnf in guards)
    assert [set(c) for c in guards[0].clauses] == [{P.Cmp("x", "<=", 3.0)}]
    # the TOP literal a product conjoins into a clause goes
    assert guards[2] == g("x >= 1")
    # decorating keeps the guards; a top guard weighs nothing under any valuation
    w = decorate(a, TROPICAL, PointwiseDistance.ABS_DIFF)
    assert w.base is a
    from arv.distance import vpd

    assert vpd({"x": 123.0}, guards[1], TROPICAL, w.dist) == 0.0


def test_decorate_rejects_a_guard_not_flagged_minimal():
    from arv.automaton import SymbolicAutomaton

    raw = P.Dnf(((g("x <= 3"), g("x <= 5")),))
    a = SymbolicAutomaton(("x",), 2, frozenset({0}), frozenset({1}), ((0, raw, 1),))
    with pytest.raises(ValueError, match="tropical.*minimal"):
        decorate(a, TROPICAL, PointwiseDistance.ABS_DIFF)
    # multiplicatively idempotent semirings score any DNF exactly
    assert decorate(a, MINMAX, PointwiseDistance.ABS_DIFF).base is a


def test_fixture_dot_shape():
    dot = to_dot(example_automaton())
    assert dot.count("shape=") == 3
    assert dot.count("->") == 4


def test_json_roundtrip():
    rng = random.Random(43)
    for _ in range(20):
        a = random_automaton(rng, ("x", "y"), max_locations=4, max_transitions=6)
        text = to_json(a)
        back = from_json(text)
        assert back == canonicalize(a)
        assert to_json(back) == text


def test_guard_rendering_roundtrip():
    guard = g("x <= 3 && !(y < 6)")
    assert P.print_predicate(guard) == "x <= 3 && !(y < 6)"
    assert P.parse_predicate(P.print_predicate(guard)) == guard


def test_from_json_schema_errors():
    with pytest.raises(ParseError, match="invalid JSON"):
        from_json("{nope")
    with pytest.raises(ParseError, match=r"\$\.locations"):
        from_json('{"variables": [], "locations": "x", "initial": [], "final": [], "transitions": []}')
    with pytest.raises(ParseError, match=r"transitions\[0\]"):
        from_json(
            '{"variables": ["x"], "locations": [0], "initial": [0], "final": [0],'
            ' "transitions": [{"src": 0, "dst": 5, "guard": "x <= 1"}]}'
        )
    with pytest.raises(ParseError, match=r"guard"):
        from_json(
            '{"variables": ["x"], "locations": [0], "initial": [0], "final": [0],'
            ' "transitions": [{"src": 0, "dst": 0, "guard": "x <="}]}'
        )


def test_monitors_share_one_automaton():
    from arv.monitor import ValueStream, trace_value

    auto = example_automaton()
    w = decorate(auto, MINMAX, default_distance(MINMAX))
    t1 = Trace(("x", "y"), [{"x": 1.0, "y": 9.0}, {"x": 2.0, "y": 9.0}])
    t2 = Trace(("x", "y"), [{"x": 9.0, "y": 0.0}, {"x": 9.0, "y": 0.0}])
    s1, s2 = ValueStream(w), ValueStream(w)
    for a, b in zip(t1.samples, t2.samples):
        s1.step(a)
        s2.step(b)
    assert s1.value == trace_value(t1, w)
    assert s2.value == trace_value(t2, w)


def _equivalent_pairs(d):
    """Pairs of distinct locations of a complete DFA that accept the same
    language: they agree on acceptance, and so do all their successors."""
    pairs = [(p, q) for p in range(d.n_locations) for q in range(p + 1, d.n_locations)]
    return [
        (p, q)
        for p, q in pairs
        if (p in d.final) == (q in d.final)
        and dfa_equivalent(replace(d, initial=frozenset({p})), replace(d, initial=frozenset({q})))
    ]


def test_determinize_merges_every_equivalent_location():
    from arv.generators import random_sre, random_stl
    from arv.speclang import negate
    from arv.translate import translate_sre, translate_stl

    rng = random.Random(41)
    automata = [
        random_automaton(rng, ("x", "y"), max_locations=6, max_transitions=10) for _ in range(120)
    ]
    automata += [
        translate_stl(negate(random_stl(rng, ["x", "y"], depth=3, max_bound=3))) for _ in range(40)
    ]
    automata += [translate_sre(random_sre(rng, ["x", "y"], depth=3)) for _ in range(40)]
    for a in automata:
        d = determinize(a)
        assert d.initial == {0}
        assert is_deterministic_complete(d)
        assert _equivalent_pairs(d) == []
        assert determinize(d).n_locations == d.n_locations


def test_every_guard_in_the_automaton_layer_is_a_dnf():
    from arv.generators import random_sre, random_stl
    from arv.speclang import negate
    from arv.translate import translate_sre, translate_stl

    rng = random.Random(47)
    stl = [translate_stl(negate(random_stl(rng, ["x", "y"], depth=3))) for _ in range(15)]
    sre = [translate_sre(random_sre(rng, ["x", "y"], depth=3)) for _ in range(15)]
    made = [example_automaton(), from_json(to_json(example_automaton()))]
    products = [product(a, b) for a, b in zip(stl, sre)]
    dfas = [determinize(a) for a in stl + sre + made]
    weighted = [decorate(a, TROPICAL, PointwiseDistance.ABS_DIFF) for a in dfas + made]
    for a in stl + sre + made + products + dfas + [w.base for w in weighted]:
        assert all(type(g) is P.Dnf and g.wedge_minimal for _, g, _ in a.transitions)
