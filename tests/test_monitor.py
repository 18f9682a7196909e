import math
import random
from dataclasses import replace

import pytest

import arv.monitor
from arv import fixtures as FX
from arv.automaton import decorate, make_automaton
from arv.distance import PointwiseDistance, default_distance
from arv.errors import UnboundVariableError, UnsupportedFragmentError
from arv.generators import random_stl, random_trace
from arv.monitor import (
    RobustnessVerdict,
    ValueStream,
    _stream,
    build_monitor_pair,
    robustness,
    robustness_prefix_series,
    trace_value,
    verdict,
    verdict_rows,
    verdicts,
)
from arv.oracles import path_costs, path_enumeration_value, trace_distance_brute_force
from arv import predicate as P
from arv.semiring import BOOLEAN, MINMAX, TROPICAL
from arv.speclang import StlFormula, Trace, eval_stl, negate, parse_sre, parse_stl, sre_accepts
from arv.translate import translate_stl

INF = math.inf
ALL = (BOOLEAN, MINMAX, TROPICAL)


def weighted_fixture(semiring):
    return decorate(FX.example_automaton(), semiring, default_distance(semiring))


def stream_columns(trace, w):
    stream = ValueStream(w)
    cols = [stream.costs]
    for sample in trace.samples:
        stream.step(sample)
        cols.append(stream.costs)
    return cols, stream


def tr(*values):
    return Trace(("x",), [{"x": float(v)} for v in values])


def test_fixture_boolean_block():
    cols, stream = stream_columns(FX.example_trace(), weighted_fixture(BOOLEAN))
    for q, row in FX.BOOLEAN_TABLE.items():
        assert [cols[i][q] for i in range(5)] == [float(v) for v in row]
    assert stream.value == FX.BOOLEAN_FINAL


def test_fixture_minmax_block():
    cols, stream = stream_columns(FX.example_trace(), weighted_fixture(MINMAX))
    for q, row in FX.MINMAX_TABLE.items():
        assert [cols[i][q] for i in range(5)] == [float(v) for v in row]
    assert stream.value == FX.MINMAX_FINAL


def test_fixture_tropical_matches_path_oracle():
    trace = FX.example_trace()
    w = weighted_fixture(TROPICAL)
    assert trace_value(trace, w) == FX.TROPICAL_FINAL
    assert path_enumeration_value(trace, w) == FX.TROPICAL_FINAL
    # per-state costs match explicit path enumeration at every step
    cols, _ = stream_columns(trace, w)
    for steps in range(5):
        expected = path_costs(trace, w, steps)
        assert cols[steps] == expected


def test_fixture_tropical_path_weights():
    trace = FX.example_trace()
    w = weighted_fixture(TROPICAL)
    base = w.base
    from arv.distance import vpd

    by_src = {}
    for src, guard, dst in base.transitions:
        by_src.setdefault(src, []).append((guard, dst))
    weights = []

    def walk(q, depth, acc):
        if depth == len(trace):
            if q in base.final:
                weights.append(acc)
            return
        for guard, dst in by_src.get(q, ()):
            step = vpd(trace.samples[depth], guard, TROPICAL, w.dist)
            walk(dst, depth + 1, acc + step)

    walk(0, 0, 0.0)
    assert sorted(weights, reverse=True) == sorted(FX.TROPICAL_PATH_WEIGHTS, reverse=True)


def test_stream_matches_batch_per_prefix():
    rng = random.Random(3)
    w = weighted_fixture(TROPICAL)
    trace = Trace(
        ("x", "y"),
        [
            {"x": float(rng.randint(0, 8)), "y": float(rng.randint(0, 8))}
            for _ in range(7)
        ],
    )
    stream = ValueStream(w)
    for k, sample in enumerate(trace.samples, start=1):
        stream.step(sample)
        prefix = Trace(trace.variables, trace.samples[:k])
        assert stream.value == trace_value(prefix, w)


def test_costs_stay_within_natural_order_bounds():
    rng = random.Random(19)
    for semiring in ALL:
        w = weighted_fixture(semiring)
        stream = ValueStream(w)
        for _ in range(6):
            stream.step({"x": float(rng.randint(0, 9)), "y": float(rng.randint(0, 9))})
            for value in stream.costs.values():
                assert semiring.nat_leq(semiring.e_times, value)
                assert semiring.nat_leq(value, semiring.e_plus)


def test_trace_value_unbound_variable():
    w = weighted_fixture(MINMAX)
    with pytest.raises(UnboundVariableError):
        trace_value(Trace(("x",), [{"x": 1.0}]), w)


def test_path_enumeration_bound():
    w = weighted_fixture(TROPICAL)
    with pytest.raises(ValueError, match="exceed"):
        path_enumeration_value(FX.example_trace(), w, max_paths=1)


def test_path_enumeration_no_accepting_path():
    a = make_automaton(("x",), 2, {0}, {1}, [(0, P.parse_predicate("x <= 1"), 1)])
    w = decorate(a, MINMAX, PointwiseDistance.ABS_DIFF)
    t = tr(0, 0, 0)
    assert path_enumeration_value(t, w) == INF
    assert trace_value(t, w) == INF


def test_trace_distance_brute_force_examples():
    t = tr(3)
    f = parse_stl("F x <= 1")
    assert trace_distance_brute_force(t, f, TROPICAL, PointwiseDistance.ABS_DIFF, range(0, 5)) == 2.0
    unsat = parse_stl("G(x >= 5 && x < 5)")
    assert trace_distance_brute_force(t, unsat, MINMAX, PointwiseDistance.ABS_DIFF, range(0, 5)) == INF
    t2 = tr(3, 4)
    sat = parse_stl("G x <= 4")
    assert trace_distance_brute_force(t2, sat, MINMAX, PointwiseDistance.ABS_DIFF, range(0, 5)) == 0.0
    bare = Trace((), [{}, {}])
    assert trace_distance_brute_force(bare, parse_stl("F true"), MINMAX, PointwiseDistance.ABS_DIFF, range(0, 5)) == 0.0
    assert trace_distance_brute_force(bare, parse_stl("G false"), TROPICAL, PointwiseDistance.ABS_DIFF, range(0, 5)) == INF


def test_trace_distance_brute_force_bound():
    t = tr(1, 1, 1, 1, 1, 1)
    with pytest.raises(ValueError, match="exceed"):
        trace_distance_brute_force(
            t, parse_stl("F x <= 1"), MINMAX, PointwiseDistance.ABS_DIFF, range(0, 10), max_candidates=10
        )


def test_robustness_examples():
    f = parse_stl("G x <= 10")
    t = tr(4, 7)
    verdict = robustness(t, f, MINMAX)
    assert verdict.rho == 3.0 and verdict.satisfied
    assert verdict.d_phi == 0.0 and verdict.d_not_phi == 3.0

    t_bad = tr(4, 13)
    verdict = robustness(t_bad, f, MINMAX)
    assert verdict.rho == -3.0 and not verdict.satisfied

    for t_any, expected in ((tr(1), 1.0), (tr(11), -1.0)):
        verdict = robustness(t_any, f, BOOLEAN)
        assert verdict.rho == expected
        assert verdict.satisfied == (expected > 0)


def test_robustness_unsatisfiable_spec():
    psi5 = parse_stl(FX.PSI5_TEXT)
    t = Trace(("a",), [{"a": 0.0}, {"a": 1.0}])
    for semiring in ALL:
        verdict = robustness(t, psi5, semiring)
        assert verdict.rho == -INF and not verdict.satisfied


def test_robustness_valid_spec():
    f = parse_stl("true")
    for semiring in ALL:
        verdict = robustness(tr(1, 2), f, semiring)
        assert verdict.rho == INF and verdict.satisfied


def test_robustness_sre():
    e = parse_sre("x <= 3")
    verdict = robustness(tr(1, 2), e, MINMAX)
    assert verdict.rho == 1.0 and verdict.satisfied
    verdict = robustness(tr(1, 9), e, MINMAX)
    assert verdict.rho == -6.0 and not verdict.satisfied


def test_prefix_series_matches_per_prefix_runs():
    rng = random.Random(47)
    for _ in range(12):
        f = random_stl(rng, ["x"], depth=2)
        t = random_trace(rng, ("x",), 6)
        for semiring in ALL:
            series = robustness_prefix_series(t, f, semiring)
            assert [row[0] for row in series] == list(range(1, 7))
            for step, rho, satisfied in series:
                prefix = Trace(t.variables, t.samples[:step])
                single = robustness(prefix, f, semiring)
                assert rho == single.rho
                assert satisfied == eval_stl(prefix, 0, f)


def test_prefix_series_sre():
    from arv.speclang import sre_accepts

    e = parse_sre("x <= 3")
    t = tr(1, 5, 2)
    series = robustness_prefix_series(t, e, MINMAX)
    for step, rho, satisfied in series:
        prefix = Trace(t.variables, t.samples[:step])
        assert satisfied == sre_accepts(prefix, e)
        assert rho == robustness(prefix, e, MINMAX).rho


def test_prefix_series_boolean_range_and_constant_case():
    t = tr(2, 2, 2, 2)
    f = parse_stl("G x <= 5")
    series = robustness_prefix_series(t, f, BOOLEAN)
    assert all(rho in (-1.0, 1.0) for _, rho, _ in series)
    series = robustness_prefix_series(t, f, MINMAX)
    assert [rho for _, rho, _ in series] == [3.0, 3.0, 3.0, 3.0]


def test_verdicts_never_consult_the_reference_evaluators(monkeypatch):
    """rho and satisfied come from the compiled automata alone, and agree
    with what the reference evaluators say."""
    import arv.speclang
    from arv.generators import random_sre

    rng = random.Random(59)
    cases = []
    for _ in range(20):
        cases.append((random_stl(rng, ["x"], depth=2), random_trace(rng, ("x",), 5)))
        cases.append((random_sre(rng, ["x"], depth=2), random_trace(rng, ("x",), 4)))
    expected = []
    for spec, t in cases:
        single = [robustness(t, spec, sr) for sr in ALL]
        series = [robustness_prefix_series(t, spec, sr) for sr in ALL]
        if isinstance(spec, StlFormula):
            assert all(v.satisfied == eval_stl(t, 0, spec) for v in single)
        else:
            assert all(v.satisfied == sre_accepts(t, spec) for v in single)
        expected.append((single, series))

    def forbidden(*_args, **_kwargs):
        raise AssertionError("reference evaluator called on the monitoring path")

    monkeypatch.setattr(arv.speclang, "eval_stl", forbidden)
    monkeypatch.setattr(arv.speclang, "sre_accepts", forbidden)
    for (spec, t), (single, series) in zip(cases, expected):
        assert [robustness(t, spec, sr) for sr in ALL] == single
        assert [robustness_prefix_series(t, spec, sr) for sr in ALL] == series


MONITORED = ("G (x <= 5 -> F[0,3] x >= 2)", "(x <= 3)* ; x >= 6")


def _spec(text):
    return parse_stl(text) if text.startswith("G") else parse_sre(text)


def test_verdicts_step_one_stream_per_trace(monkeypatch):
    init = ValueStream.__init__
    built = []

    def counting(self, w):
        built.append(w)
        init(self, w)

    monkeypatch.setattr(ValueStream, "__init__", counting)
    traces = [tr(1, 7, 3), tr(6, 6), tr(0, 2, 9, 4)]
    for text in MONITORED:
        w_pos, w_neg = build_monitor_pair(_spec(text), TROPICAL)
        built.clear()
        for t in traces:
            assert len(list(verdicts(t, w_pos, w_neg))) == len(t)
        assert built == [w_pos] * len(traces)


def test_monitor_pair_decorates_once_and_shares_edges(monkeypatch):
    import arv.automaton

    decorate_ = arv.automaton.decorate
    calls = []

    def counting(*args):
        calls.append(args)
        return decorate_(*args)

    monkeypatch.setattr(arv.automaton, "decorate", counting)
    for text in MONITORED:
        calls.clear()
        w_pos, w_neg = build_monitor_pair(_spec(text), MINMAX)
        assert len(calls) == 1
        assert w_pos.base.transitions is w_neg.base.transitions
        assert w_pos.base.final == frozenset(range(w_pos.base.n_locations)) - w_neg.base.final


def test_verdicts_reject_automata_of_different_pairs():
    f = parse_stl(MONITORED[0])
    unrelated = (
        decorate(translate_stl(f), MINMAX, PointwiseDistance.ABS_DIFF),
        decorate(translate_stl(negate(f)), MINMAX, PointwiseDistance.ABS_DIFF),
    )
    mixed = (build_monitor_pair(f, MINMAX)[0], build_monitor_pair(f, MINMAX)[1])
    w = build_monitor_pair(f, MINMAX)[0]
    for w_pos, w_neg in (unrelated, mixed, (w, w)):
        with pytest.raises(ValueError, match="build_monitor_pair"):
            list(verdicts(tr(1, 2), w_pos, w_neg))


def test_signed_degree_matches_enumerated_language_distance():
    """rho against explicit enumeration of the nearer language side,
    including the empty-language endpoints."""
    from arv.oracles import guards_closed
    from arv.distance import point_dist
    from arv.generators import all_traces

    def language_stats(formula, trace, sr, dist):
        best = sr.e_plus
        any_model = False
        for cand in all_traces(trace.variables, range(0, 5), len(trace)):
            if not eval_stl(cand, 0, formula):
                continue
            any_model = True
            w = sr.e_times
            for s0, s1 in zip(trace.samples, cand.samples):
                for v in trace.variables:
                    w = sr.otimes(w, point_dist(s0[v], s1[v], dist))
            best = sr.oplus(best, w)
        return any_model, best

    rng = random.Random(7171)
    checked = 0
    tried = 0
    while checked < 120 and tried < 1500:
        tried += 1
        f = random_stl(rng, ["x"], depth=2, ops=("<=", ">="))
        t = random_trace(rng, ("x",), rng.randint(1, 3), 0, 4)
        sat = eval_stl(t, 0, f)
        side = negate(f) if sat else f
        if not guards_closed(translate_stl(side)):
            continue
        for sr in ALL:
            got = robustness(t, f, sr).rho
            any_model, d = language_stats(side, t, sr, default_distance(sr))
            if sat:
                expected = d if any_model else INF
            else:
                expected = -d if any_model else -INF
            assert got == expected
            checked += 1
    assert checked >= 120


def test_value_identity_iff_accepted_for_closed_guards():
    from arv.oracles import accepts
    from arv.generators import CLOSED_OPS, random_automaton

    rng = random.Random(67)
    for _ in range(60):
        auto = random_automaton(rng, ("x",), max_transitions=5, ops=CLOSED_OPS)
        t = random_trace(rng, ("x",), rng.randint(1, 4))
        accepted = accepts(auto, t)
        for semiring in ALL:
            w = decorate(auto, semiring, default_distance(semiring))
            assert (trace_value(t, w) == semiring.e_times) == accepted


RESPONSE_K8 = "G(x <= 5 -> F[0,8] y >= 2)"


def test_monitor_pair_of_response_is_small():
    w_pos, w_neg = build_monitor_pair(parse_stl(RESPONSE_K8), TROPICAL)
    for w in (w_pos, w_neg):
        assert w.base.n_locations <= 12
        assert len(w.base.initial) == 1
    assert w_pos.base.final == frozenset(range(w_neg.base.n_locations)) - w_neg.base.final


def test_response_minterms_are_one_clause_each():
    """Minterms are covers of whole boxes: the ``y >= 2`` cell is one
    clause, not the two halves ``x <= 5`` cuts it into."""
    for w in build_monitor_pair(parse_stl("G(x <= 5 -> F[0,3] y >= 2)"), MINMAX):
        guards = {g for _, g, _ in w.base.transitions}
        assert len(guards) == 3
        assert all(len(g.clauses) == 1 for g in guards)
        assert P.parse_predicate("!(y < 2)") in guards


def test_cnf_proposition_minterms_stay_small():
    """A CNF-shaped proposition (32 clauses over 10 variables) splits
    into a minterm of 5 clauses and one of 32, and its verdicts agree
    with ``sre_accepts``."""
    n = 5
    text = "((" + ") && (".join(f"a{i} < 1 || b{i} < 1" for i in range(n)) + "))*"
    e = parse_sre(text)
    pair = build_monitor_pair(e, MINMAX)
    for w in pair:
        assert w.base.n_locations == 2
        assert sorted(len(g.clauses) for g in {g for _, g, _ in w.base.transitions}) == [5, 32]
    variables = tuple(f"{c}{i}" for i in range(n) for c in "ab")
    rng = random.Random(5)
    seen = set()
    for _ in range(200):
        samples = [
            {v: rng.choice((0.0, 0.0, 0.5, 1.0, 2.0)) for v in variables}
            for _ in range(rng.randint(1, 3))
        ]
        trace = Trace(variables, samples)
        satisfied = verdict(trace, *pair).satisfied
        assert satisfied == sre_accepts(trace, e)
        seen.add(satisfied)
    assert seen == {True, False}


@pytest.mark.parametrize("n", [10, 16])
def test_flat_disjunction_guards_are_linear_in_variables(n):
    """The minterms of a disjunction over n variables cover at most 2n
    clause boxes each, not 3^n - 1 grid cells."""
    text = "G(" + " || ".join(f"x{i} >= {i}" for i in range(n)) + ")"
    w_pos, _ = build_monitor_pair(parse_stl(text), TROPICAL)
    assert w_pos.base.n_locations == 2
    assert max(len(g.clauses) for _, g, _ in w_pos.base.transitions) <= 2 * n


@pytest.mark.parametrize(
    "text",
    [
        "<<x <= 1>[0,3]>[1,4]",
        "<<x >= 1>[2,inf] | <y <= 2>[1,3]>[3,6]",
        "<(<x <= 1>[1,3] ; y >= 1)*>[2,5]",
        "<(x <= 1 ; <y >= 2>[1,2])*>[3,inf]",
        "(<x <= 2>[1,3] ; <<y <= 1>[0,2]>[1,3])* ; <T>[3,6]",
    ],
)
def test_nested_and_starred_durations_match_sre_accepts(text):
    e = parse_sre(text)
    pair = build_monitor_pair(e, MINMAX)
    rng = random.Random(text)
    for _ in range(30):
        samples = [
            {"x": float(rng.randint(0, 3)), "y": float(rng.randint(0, 3))}
            for _ in range(rng.randint(1, 8))
        ]
        trace = Trace(("x", "y"), samples)
        for t, v in enumerate(verdicts(trace, *pair), start=1):
            assert v.satisfied == sre_accepts(Trace(("x", "y"), samples[:t]), e)


def test_monitor_pair_subset_budget(monkeypatch):
    import arv.automaton

    monkeypatch.setattr(arv.automaton, "MAX_SUBSETS", 64)
    with pytest.raises(UnsupportedFragmentError, match="exceeds 64 subsets"):
        build_monitor_pair(parse_stl("G[0,20](x <= 5 -> F[0,20] y >= 2)"), TROPICAL)


@pytest.mark.parametrize(
    "text, size",
    [
        ("G(x <= 5 -> F[0,16] y >= 2)", 18),
        ("G(x <= 5 -> F[0,30] y >= 2)", 32),
        ("G(x <= 5 -> F[0,100] y >= 2)", 102),
        ("G[0,20](x <= 5 -> F[0,20] y >= 2)", 233),
    ],
)
def test_windowed_responses_compile_to_their_minimal_size(text, size):
    """Simulation-pruned subsets keep these compiles polynomial in the
    window; a plain subset construction needs 2^(k+1) subsets."""
    import time

    formula = parse_stl(text)
    start = time.perf_counter()
    pair = build_monitor_pair(formula, MINMAX)
    assert time.perf_counter() - start < 5
    assert pair[0].base.n_locations == size
    rng = random.Random(size)
    seen = set()
    for _ in range(40):
        trace = random_trace(rng, ("x", "y"), rng.randint(1, 8), lo=0, hi=8)
        for t, v in enumerate(verdicts(trace, *pair), start=1):
            expected = eval_stl(Trace(("x", "y"), trace.samples[:t]), 0, formula)
            assert v.satisfied is expected
            seen.add(expected)
    assert seen == {True, False}


def _raw_or_compiled(compiled):
    """An STL response automaton whose guards repeat and share atoms: the
    raw tableau, or one side of the compiled DFA pair."""
    f = parse_stl("G (x <= 5 -> F[0,3] y >= 2)")
    if compiled:
        return build_monitor_pair(f, MINMAX)[1]
    return decorate(translate_stl(f), MINMAX, PointwiseDistance.ABS_DIFF)


@pytest.mark.parametrize("compiled", [False, True])
def test_stream_compiles_one_scorer(monkeypatch, compiled):
    import arv.automaton

    w = _raw_or_compiled(compiled)
    guards = [g for _, g, _ in w.base.transitions]
    distinct = set(guards)
    assert len(distinct) < len(guards)
    built = []

    class Counting(arv.automaton.Scorer):
        def __init__(self, dnfs, *args):
            built.append(dnfs)
            super().__init__(dnfs, *args)

    monkeypatch.setattr(arv.automaton, "Scorer", Counting)
    ValueStream(w)
    assert len(built) == 1
    assert sorted(map(repr, built[0])) == sorted(map(repr, distinct))


@pytest.mark.parametrize("compiled", [False, True])
def test_step_reads_each_distinct_atom_once(compiled):
    w = _raw_or_compiled(compiled)
    atoms = set()
    literals = 0
    for _, dnf, _ in w.base.transitions:
        for clause in dnf.clauses:
            for lit in clause:
                if isinstance(lit, P.Top):
                    continue
                c = lit if isinstance(lit, P.Cmp) else lit.arg
                atoms.add((c.var, c.op, c.k))
                literals += 1
    assert len(atoms) < literals
    reads = []

    class CountingValuation(dict):
        def __getitem__(self, var):
            reads.append(var)
            return super().__getitem__(var)

    stream = ValueStream(w)
    for sample in ({"x": 1.0, "y": 0.0}, {"x": 7.0, "y": 3.0}, {"x": 5.0, "y": 2.0}):
        reads.clear()
        stream.step(CountingValuation(sample))
        assert sorted(reads) == sorted(var for var, _, _ in atoms)


@pytest.mark.parametrize(
    "text",
    ["G(x <= 5 -> F[0,6] y >= 2)", "G[0,20] F[0,5] x >= 8", "(<x <= 7>[1,5] ; <y >= 2>[1,3])*"],
    ids=["response-k6", "bounded-recurrence", "star"],
)
def test_live_set_memo_does_not_grow_with_trace_length(monkeypatch, unsettled, text):
    """Live sets, plans and step loops, with the loop after ``LOOP_AFTER``
    steps on a fixed point and from the first one: at most one step loop
    per fixed point (the streams here move no DFA run), built by the
    first 1000 samples and no more after 20000."""
    spec = parse_stl(text) if text.startswith("G") else parse_sre(text)
    rng = random.Random(31)
    samples = [{"x": rng.randint(0, 40) / 4, "y": rng.randint(0, 16) / 4} for _ in range(20_000)]
    for loop_after in (arv.monitor.LOOP_AFTER, 0):
        monkeypatch.setattr(arv.monitor, "LOOP_AFTER", loop_after)
        w_pos, _ = build_monitor_pair(spec, TROPICAL)
        counts, plans, loops = [], [], []
        for n in (1_000, 20_000):
            stream = ValueStream(w_pos)
            for sample in samples[:n]:
                stream.step(sample)
            counts.append(len(stream._live_sets))
            plans.append(plan_count(stream))
            loops.append(len(step_loops(w_pos)))
        assert counts[0] == counts[1]
        assert plans[0] == plans[1]
        fixed_points = sum(live.next is live for live in stream._live_sets.values())
        assert 0 < loops[0] == loops[1] <= fixed_points
        # keyed by members, not by the order a step visits them in
        assert counts[0] <= w_pos.base.n_locations + 1


def plans_of(stream):
    return [plan for live in stream._live_sets.values() for plan in live.plans.values()]


def plan_count(stream):
    return len(plans_of(stream))


def step_loops(w):
    """The keys of the step loops built for a weighted automaton."""
    program = w.__dict__.get("_program")
    return [key for key in program.loops if key[3]] if program else []


FLAT = [f"x{i}" for i in range(12)]  # the variables of a flat disjunction over 12 atoms


def _flat_disjunction_samples(seed: int):
    rng = random.Random(seed)
    while True:
        yield {x: rng.choice((0.0, 0.5, 1.0, 2.0)) for x in FLAT}


def test_plans_are_keyed_by_weight_shape_not_by_truths(plans_only):
    """A flat disjunction over 12 atoms meets thousands of truth vectors,
    but they fall into a few weight shapes, and plans are kept per shape."""
    w_pos, _ = build_monitor_pair(parse_stl("G(" + " || ".join(f"{x} < 1" for x in FLAT) + ")"), MINMAX)
    stream = ValueStream(w_pos)
    for _, sample in zip(range(8000), _flat_disjunction_samples(12)):
        stream.step(sample)
    assert len(stream._scorer.recipes) > 2000
    assert plan_count(stream) <= 30


def test_a_step_loop_stops_the_recipe_memo_growing():
    """The flat disjunction's live set is a fixed point from the second
    sample, so after ``LOOP_AFTER`` samples the step loop scores them with
    no recipe: the memo holds as many recipes after 80000 samples as
    after 8000."""
    w_pos, _ = build_monitor_pair(parse_stl("G(" + " || ".join(f"{x} < 1" for x in FLAT) + ")"), MINMAX)
    stream = ValueStream(w_pos)
    samples, recipes = _flat_disjunction_samples(12), []
    for n in (8000, 72_000):  # 8000, then 80000 in all
        for _, sample in zip(range(n), samples):
            stream.step(sample)
        recipes.append(len(stream._scorer.recipes))
    assert stream._loop and 0 < recipes[0] == recipes[1] <= arv.monitor.LOOP_AFTER + 1


@pytest.mark.parametrize("semiring", ALL, ids=lambda s: s.name)
@pytest.mark.parametrize("compiled", [False, True], ids=["tableau", "dfa"])
def test_costs_match_path_enumeration_where_guards_overlap(semiring, compiled):
    """On the raw tableau several guards of one location hold at once, so
    a step passes a cost on along several free edges; on the DFA pair one
    minterm holds.  Either way ``costs`` equals path enumeration after
    every step, on samples that sit on the thresholds too."""
    f = parse_stl("G (x <= 5 -> F[0,3] y >= 2)")
    if compiled:
        sides = build_monitor_pair(f, semiring)
    else:
        sides = (decorate(translate_stl(f), semiring, default_distance(semiring)),)
    rng = random.Random(5)
    trace = Trace(("x", "y"), [
        {"x": rng.choice((4.0, 5.0, 6.0)), "y": rng.choice((1.0, 2.0, 3.0))} for _ in range(6)
    ])
    free = set()  # how many free destinations the plans' rows list
    for w in sides:
        stream = ValueStream(w)
        for steps, sample in enumerate(trace.samples, start=1):
            stream.step(sample)
            assert stream.costs == path_costs(trace, w, steps)
        for live in stream._live_sets.values():
            free.update(len(dsts) for plan in live.plans.values() for dsts, _ in plan.rows)
    if compiled:
        assert free == {1}
    else:
        assert max(free) >= 2


INTERPRETED = 10**9  # a LOOP_AFTER no test trace reaches
SHIPPED = arv.monitor.LOOP_AFTER


def _half_grid_samples(rng, n):
    """``n`` samples over x and y whose values sit on the integer
    thresholds of the random specs or half a unit off them."""
    return [{"x": rng.randint(-1, 9) / 2, "y": rng.randint(-1, 9) / 2} for _ in range(n)]


def _step_reads(sides, samples):
    """One stream per side, and for a monitor pair a ``_stream`` that moves
    the DFA's run, stepped over the samples: per step each stream's
    costs, value, path_exists and run, as one ``repr``."""
    streams = [ValueStream(w) for w in sides]
    if len(sides) == 2:
        streams.append(_stream(*sides))
    reads = []
    for sample in samples:
        for stream in streams:
            stream.step(sample)
            reads.append((stream.costs, stream.value, stream.path_exists, stream._run))
    return repr(reads)


def _stepped(monkeypatch, sides, samples, loop_after):
    """``_step_reads`` on fresh programs with ``LOOP_AFTER`` at
    ``loop_after``, and the step loops they built."""
    monkeypatch.setattr(arv.monitor, "LOOP_AFTER", loop_after)
    sides = [replace(w) for w in sides]
    return _step_reads(sides, samples), [(w, key) for w in sides for key in step_loops(w)]


@pytest.mark.parametrize("semiring", ALL, ids=lambda s: s.name)
def test_step_loops_equal_the_interpreted_loop(monkeypatch, semiring):
    """Random STL and SRE pairs, stepped over samples on and half a unit
    off the thresholds: after every step, both sides' costs, value and
    path_exists and the DFA run of a ``_stream`` are the same with the
    step loop from the first step on a fixed point as with the plans
    alone."""
    from arv.generators import random_sre

    rng = random.Random(256)
    built = 0
    for k in range(60):
        make = random_stl if k % 2 else random_sre
        pair = build_monitor_pair(make(rng, ["x", "y"], depth=2), semiring)
        samples = _half_grid_samples(rng, rng.randint(1, 12))
        with_loops, loops = _stepped(monkeypatch, pair, samples, 0)
        without, none = _stepped(monkeypatch, pair, samples, INTERPRETED)
        assert with_loops == without and none == []
        built += len(loops)
    assert built > 50


def test_step_loops_equal_the_interpreted_loop_on_nfas(monkeypatch):
    """On random NFAs, where a member passes its cost on along several
    free edges or has no edge at all, the step loop gives every
    location's cost, the value and path_exists after every step as the
    plans do."""
    from arv.generators import random_automaton

    rng = random.Random(1024)
    edges = set()  # per member of a live set with a step loop, its number of edges
    for _ in range(120):
        a = random_automaton(rng, ("x", "y"), max_locations=6, max_transitions=14)
        samples = _half_grid_samples(rng, rng.randint(1, 8))
        for semiring in ALL:
            w = decorate(a, semiring, default_distance(semiring))
            with_loops, loops = _stepped(monkeypatch, (w,), samples, 0)
            without, _ = _stepped(monkeypatch, (w,), samples, INTERPRETED)
            assert with_loops == without
            edges.update(len(v._program.out[q]) for v, key in loops for q in key[0].members)
    assert 0 in edges and max(edges) >= 2


@pytest.mark.parametrize("semiring", ALL, ids=lambda s: s.name)
def test_a_stream_crossing_the_threshold_mid_block_gives_a_fresh_streams_series(monkeypatch, semiring):
    """With ``LOOP_AFTER`` at 7, a 40-sample trace crosses it mid-trace:
    stepped, its streams switch to the step loop after 7 steps on the
    fixed point, and read as one block, the block loop takes over after
    the transient.  Later traces through the same pair run the loops
    from their first step on the fixed point.  Every read equals a fresh
    pair's with the plans alone."""
    rng = random.Random(7)
    traces = [random_trace(rng, ("x", "y"), 40, lo=0, hi=10) for _ in range(3)]
    built = 0
    for text in (*MONITORED, "(T ; <x <= 2>[2,4] ; T) & (T ; <y >= 8>[1,3] ; T)"):
        pair = build_monitor_pair(_spec(text), semiring)
        for t in traces:
            fresh, _ = _stepped(monkeypatch, pair, t.samples, INTERPRETED)
            fresh_series = repr(list(verdicts(t, *(replace(w) for w in pair))))
            monkeypatch.setattr(arv.monitor, "LOOP_AFTER", 7)
            assert _step_reads(pair, t.samples) == fresh
            assert repr(list(verdicts(t, *pair))) == fresh_series
        built += len(step_loops(pair[0])) + len(step_loops(pair[1]))
    assert built == 9  # per spec, a plain and a run variant on the positive side and a plain one on the negative


def _loops_built(w):
    program = w.__dict__.get("_program")
    return len(program.loops) if program else 0


def _reads_with_and_without_block_loops(monkeypatch, pair, trace):
    """``verdict_rows``, ``verdict`` and both sides' ``trace_value`` of a
    monitor pair, as one ``repr``: on fresh programs with the block loops
    at the shipped ``LOOP_AFTER``, then with no loop; and how many loops
    the first read built."""
    got, loops = [], 0
    for after in (SHIPPED, INTERPRETED):
        monkeypatch.setattr(arv.monitor, "LOOP_AFTER", after)
        pos, neg = (replace(w) for w in pair)  # fresh programs
        got.append(repr((list(verdict_rows(trace, pos, neg)), verdict(trace, pos, neg),
                         trace_value(trace, pos), trace_value(trace, neg))))
        loops = loops or _loops_built(pos) + _loops_built(neg)
    return got[0], got[1], loops


@pytest.mark.parametrize("semiring", ALL, ids=lambda s: s.name)
def test_block_loops_equal_the_per_shape_path(monkeypatch, unsettled, semiring):
    """Random STL and SRE pairs on traces of at least ``2 * LOOP_AFTER``
    samples: every read prints the same with the block loops as with the
    per-shape plans alone, and most pairs build all three loop variants
    (rows, final, no DFA run)."""
    from arv.generators import random_sre

    rng = random.Random(2718)
    built, sizes = [], []
    for k in range(60):
        make = random_stl if k % 2 else random_sre
        pair = build_monitor_pair(make(rng, ["x", "y"], depth=2 + k % 3 // 2, max_bound=3), semiring)
        t = random_trace(rng, ("x", "y"), rng.randint(2, 3) * SHIPPED)
        with_loops, without, loops = _reads_with_and_without_block_loops(monkeypatch, pair, t)
        assert with_loops == without
        built.append(loops)
        sizes.append(pair[0].base.n_locations)
    assert built.count(4) > 50  # rows, final and a plain stream on each side
    assert max(sizes) >= 8


@pytest.mark.parametrize("semiring", ALL, ids=lambda s: s.name)
@pytest.mark.parametrize("text", [
    "G(x < 3 -> F[0,2] !(y > 5))",
    "G(!(x >= 3) || y <= 5 && x > 1)",
    "(T ; <x < 3 && !(y > 5)>[2,3] ; T) & (T ; <y >= 5 || x <= 1>[1,2] ; T)",
])
def test_block_loops_equal_the_per_shape_path_on_thresholds(monkeypatch, semiring, text):
    """Strict and negated literals, on traces whose values sit on their
    thresholds or half a unit off them."""
    rng = random.Random(text)
    values = (0.5, 1.0, 1.5, 2.5, 3.0, 3.5, 4.5, 5.0, 5.5)
    t = Trace(("x", "y"), [{"x": rng.choice(values), "y": rng.choice(values)} for _ in range(700)])
    with_loops, without, loops = _reads_with_and_without_block_loops(monkeypatch, build_monitor_pair(_spec(text), semiring), t)
    assert with_loops == without and loops >= 4


@pytest.mark.parametrize("semiring", ALL, ids=lambda s: s.name)
def test_block_loops_start_mid_block_and_carry_across_blocks(tmp_path, monkeypatch, semiring):
    """Blocks of 300 rows: the loop takes over after the transient, in
    the middle of the first block, runs whole later blocks from their
    first row and leaves the last, shorter one to the plans; the series
    and the verdict equal those of the whole trace without loops."""
    import arv.speclang
    from arv.speclang import trace_blocks, write_trace_csv

    rng = random.Random(300)
    trace = random_trace(rng, ("x", "y"), 1000, lo=0, hi=10)
    path = tmp_path / "t.csv"
    write_trace_csv(trace, path)
    monkeypatch.setattr(arv.speclang, "CHUNK_ROWS", 300)
    for text in (*MONITORED, "(T ; <x <= 2>[2,4] ; T) & (T ; <y >= 8>[1,3] ; T)"):
        pair = build_monitor_pair(_spec(text), semiring)
        monkeypatch.setattr(arv.monitor, "LOOP_AFTER", INTERPRETED)
        fresh = tuple(replace(w) for w in pair)
        want = repr((list(verdicts(trace, *fresh)), verdict(trace, *fresh)))
        monkeypatch.setattr(arv.monitor, "LOOP_AFTER", SHIPPED)
        blocks = [len(rows) for rows in verdict_rows(trace_blocks(path), *pair)]
        assert blocks == [300, 300, 300, 100]
        assert repr((list(verdicts(trace_blocks(path), *pair)), verdict(trace_blocks(path), *pair))) == want
        assert 0 < pair[0]._program.live_set(pair[0].base.initial).settle < 300
        assert _loops_built(pair[0]) == 2


@pytest.mark.parametrize("semiring", ALL, ids=lambda s: s.name)
def test_block_loops_weigh_multi_clause_guards(monkeypatch, semiring):
    """The CNF star's guards have several clauses of several literals,
    and its loop takes the min over their ⊗s as the compounds do."""
    names = [(f"x{i}", f"y{i}") for i in range(2)]
    text = "(" + " && ".join(f"({x} < 1 || {y} < 1)" for x, y in names) + ")*"
    pair = build_monitor_pair(parse_sre(text), semiring)
    guards = ValueStream(pair[0])._scorer.guards  # per guard, per clause, its literals
    assert max(len(clauses) for clauses in guards) >= 2
    assert max(len(clause) for clauses in guards for clause in clauses) >= 2
    rng = random.Random(5)
    variables = [v for xy in names for v in xy]
    t = Trace(tuple(variables), [{v: rng.choice((0.0, 0.5, 1.0, 2.0)) for v in variables} for _ in range(800)])
    with_loops, without, loops = _reads_with_and_without_block_loops(monkeypatch, pair, t)
    assert with_loops == without and loops >= 4


def test_generated_functions_have_file_names_of_their_own(monkeypatch):
    """Step loops and block loops compile under distinct file names, so a
    profile keys each one apart."""
    monkeypatch.setattr(arv.monitor, "LOOP_AFTER", 0)
    pair = build_monitor_pair(parse_stl("G(x <= 5 -> F[0,3] y >= 2)"), MINMAX)
    for w in pair:
        stream = ValueStream(w)
        for sample in random_trace(random.Random(3), ("x", "y"), 40, lo=0, hi=10).samples:
            stream.step(sample)
    verdict(random_trace(random.Random(4), ("x", "y"), 40, lo=0, hi=10), *pair)
    names = {key: loop.__code__.co_filename for w in pair for key, (loop, _) in w._program.loops.items()}
    steps = [name for key, name in names.items() if key[3]]
    blocks = [name for key, name in names.items() if not key[3]]
    assert len(steps) == 2 and len(blocks) == 1
    assert len(set(names.values())) == len(names)
    assert all(name.startswith("<arv step ") for name in steps)
    assert blocks[0].startswith("<arv loop ")


def test_a_period_two_live_set_cycle_never_builds_a_loop(monkeypatch):
    """``(<y >= 1>[2,2])*`` alternates between two live sets forever, so
    no live set is its own successor and the plans run every block."""
    built = []
    real = arv.monitor._block_loop
    monkeypatch.setattr(arv.monitor, "_block_loop", lambda *args: built.append(args) or real(*args))
    rng = random.Random(2)
    t = random_trace(rng, ("y",), 5000, lo=0, hi=3)
    for semiring in ALL:
        pair = build_monitor_pair(parse_sre("(<y >= 1>[2,2])*"), semiring)
        list(verdict_rows(t, *pair))
        verdict(t, *pair)
        trace_value(t, pair[1])
        assert pair[0]._program.live_set(pair[0].base.initial).settle == -1
    assert built == []


def test_verdict_is_the_last_of_verdicts():
    from arv.generators import random_sre

    rng = random.Random(4242)
    for k in range(60):
        make = random_stl if k % 2 else random_sre
        spec = make(rng, ["x", "y"], depth=2)
        t = random_trace(rng, ("x", "y"), rng.randint(1, 6))
        for sr in ALL:
            pair = build_monitor_pair(spec, sr)
            got = verdict(t, *pair)
            assert type(got) is RobustnessVerdict
            assert repr(got) == repr(list(verdicts(t, *pair))[-1])
            assert got == robustness(t, spec, sr)


def test_robustness_verdict_is_a_named_tuple():
    v = RobustnessVerdict(3.0, True, 0.0, 3.0)
    assert RobustnessVerdict._fields == ("rho", "satisfied", "d_phi", "d_not_phi")
    assert repr(v) == "RobustnessVerdict(rho=3.0, satisfied=True, d_phi=0.0, d_not_phi=3.0)"
    assert v == RobustnessVerdict(rho=3.0, satisfied=True, d_phi=0.0, d_not_phi=3.0)
    assert v != RobustnessVerdict(3.0, False, 0.0, 3.0)
    assert (v.rho, v.satisfied, v.d_phi, v.d_not_phi) == (3.0, True, 0.0, 3.0)


@pytest.mark.parametrize("semiring", ALL, ids=lambda s: s.name)
def test_live_indexed_costs_match_path_enumeration(semiring):
    """The stream keeps one cost per live location; ``costs`` spells them
    out over all 113 locations, as explicit path enumeration does."""
    w_pos, _ = build_monitor_pair(parse_stl("G[0,20] F[0,5] x >= 8"), semiring)
    assert w_pos.base.n_locations == 113
    rng = random.Random(113)
    trace = Trace(("x",), [{"x": rng.randint(0, 40) / 4} for _ in range(10)])
    stream = ValueStream(w_pos)
    assert stream.costs == path_costs(trace, w_pos, 0)
    for steps, sample in enumerate(trace.samples, start=1):
        stream.step(sample)
        assert len(stream._costs) <= 7
        assert stream.costs == path_costs(trace, w_pos, steps)


@pytest.mark.parametrize("semiring", ALL, ids=lambda s: s.name)
def test_column_tables_equal_row_tables(semiring):
    """Per sample, the atom table built a column at a time
    (``Scorer.tables``) equals the one ``Scorer.table`` builds from the
    sample's row, on random STL and SRE specs with strict and non-strict
    atoms, under every distance that fits the semiring."""
    from arv.generators import random_sre
    from arv.monitor import spec_dfa

    rng = random.Random(1966)
    dists = [default_distance(semiring)]
    if semiring is not BOOLEAN:
        dists.append(PointwiseDistance.DISCRETE01)
    strict = sizes = 0
    for k in range(220):
        make = random_stl if k % 2 else random_sre
        dfa = spec_dfa(make(rng, ["x", "y"], depth=2))
        for dist in dists:
            scorer = ValueStream(decorate(dfa, semiring, dist))._scorer
            strict += sum(s for _, s, _ in scorer.atoms)
            for _ in range(2):
                trace = random_trace(rng, ("x", "y"), rng.randint(1, 7), lo=-1, hi=4)
                got = list(scorer.tables(trace))
                assert got == [scorer.table(sample) for sample in trace.samples]
                assert all(type(distances) is list for _, distances in got)
                sizes += len(got)
    assert strict > 0 and sizes > 1000


def test_a_spec_without_atoms_gets_one_table_and_verdict_per_sample():
    """SRE ``T*`` compiles to one guard with no atom: ``zip`` of no
    columns yields nothing, yet every sample needs its (empty) table."""
    pair = build_monitor_pair(parse_sre("T*"), MINMAX)
    trace = tr(3, 1, 4, 1, 5)
    scorer = ValueStream(pair[0])._scorer
    assert scorer.n_atoms == 0
    tables = list(scorer.tables(trace))
    assert tables == [((), [])] * 5
    assert len({id(distances) for _, distances in tables}) == 5
    series = list(verdicts(trace, *pair))
    assert len(series) == 5
    assert all(v.satisfied and v.rho == INF for v in series)
    assert trace_value(trace, pair[0]) == MINMAX.e_times


def test_streams_over_one_automaton_share_one_program():
    """The scorer, the live-set memo and its plans are built once per
    weighted automaton, by its first stream; the flipped side of a pair
    is another automaton and gets its own."""
    w_pos, w_neg = build_monitor_pair(parse_stl(MONITORED[0]), TROPICAL)
    a, b = ValueStream(w_pos), ValueStream(w_pos)
    assert a._scorer is b._scorer and a._live_sets is b._live_sets
    neg = ValueStream(w_neg)
    assert neg._scorer is not a._scorer and neg._live_sets is not a._live_sets
    a.step({"x": 7.0})
    assert b._live_sets is a._live_sets and len(b._live_sets) > 1
    assert ValueStream(w_pos)._live.members == b._live.members


@pytest.mark.parametrize("text", MONITORED)
def test_one_pair_serves_traces_in_any_order(text):
    """Verdict series through one pair, whose program earlier traces have
    filled, equal those from a fresh pair per trace."""
    spec = _spec(text)
    rng = random.Random(77)
    traces = [random_trace(rng, ("x",), rng.randint(1, 12), lo=0, hi=8) for _ in range(4)]
    for semiring in ALL:
        fresh = [list(verdicts(t, *build_monitor_pair(spec, semiring))) for t in traces]
        for order in (traces, traces[::-1]):
            pair = build_monitor_pair(spec, semiring)
            got = {id(t): list(verdicts(t, *pair)) for t in order}
            assert [got[id(t)] for t in traces] == fresh
            assert [trace_value(t, pair[0]) for t in traces] == [s[-1].d_phi for s in fresh]


def _fresh_verdict(prefix, w_pos):
    """The verdict of a prefix from a fresh stream stepped over it: its
    ``costs`` split by the positive final set, ``_rho``'s sign rule over
    the locations some path of the prefix's length reaches, and the DFA's
    run taken one edge at a time by ``predicate.evaluate``."""
    from arv.monitor import _rho

    base, sr = w_pos.base, w_pos.semiring
    stream = ValueStream(w_pos)
    run, reached = 0, set(base.initial)
    for sample in prefix.samples:
        stream.step(sample)
        (run,) = [d for s, g, d in base.transitions if s == run and P.evaluate(sample, g)]
        reached = {d for s, _, d in base.transitions if s in reached}
    costs = stream.costs
    d_phi = min((c for q, c in costs.items() if q in base.final), default=sr.e_plus)
    d_not_phi = min((c for q, c in costs.items() if q not in base.final), default=sr.e_plus)
    rho = _rho(d_phi, bool(reached & base.final), d_not_phi, bool(reached - base.final), sr)
    return RobustnessVerdict(rho, run in base.final, d_phi, d_not_phi)


def test_fused_prefix_read_equals_a_fresh_stream_per_prefix():
    """Each verdict that ``verdicts`` reads inside its one loop equals one
    computed apart for its prefix, compared by ``repr`` so that ``-0.0``
    and the infinities show; 300 seeded random STL and SRE specs, three
    semirings, traces of 1 to 6 samples, and specs whose positive final
    set is empty or total."""
    import inspect

    from arv.generators import random_sre

    rng = random.Random(2218)
    specs = [parse_stl("x <= 5 || x > 5"), parse_stl("x <= 1 && x > 1"),
             parse_sre("<T>[3,inf] | <x <= 5>[1,1]")]
    specs += [(random_stl if k % 2 else random_sre)(rng, ["x", "y"], depth=2) for k in range(300)]
    finals = set()
    rhos = set()
    for spec in specs:
        for sr in ALL:
            w_pos, w_neg = build_monitor_pair(spec, sr)
            finals.add(len(w_pos.base.final) / w_pos.base.n_locations)
            trace = random_trace(rng, ("x", "y"), rng.randint(1, 6), lo=0, hi=6)
            series = verdicts(trace, w_pos, w_neg)
            assert inspect.isgenerator(series)
            for n, got in enumerate(series, start=1):
                prefix = Trace.from_columns(
                    trace.variables, {v: col[:n] for v, col in trace.columns.items()}
                )
                assert repr(got) == repr(_fresh_verdict(prefix, w_pos))
                rhos.add(got.rho if math.isinf(got.rho) or got.rho == 0 else 1.0)
    assert {0.0, 1.0} <= finals
    assert {-INF, INF, 0.0, 1.0} <= rhos


@pytest.mark.parametrize(
    "valuation, message",
    [
        ({"x": math.nan, "y": 1.0}, "non-finite value nan for variable 'x'"),
        ({"x": 1.0, "y": -math.inf}, "non-finite value -inf for variable 'y'"),
        ({"x": "3", "y": 1.0}, "non-numeric value '3' for variable 'x'"),
    ],
)
def test_a_step_refuses_a_value_that_is_not_a_finite_number(valuation, message):
    """A NaN used to leave the tropical value at 0 (it compares false) and
    a string ended in a bare ``TypeError``."""
    from arv.errors import ParseError

    w_pos, _ = build_monitor_pair(parse_stl("G(x <= 5 -> F[0,2] y >= 2)"), TROPICAL)
    stream = ValueStream(w_pos)
    with pytest.raises(ParseError) as err:
        stream.step(valuation)
    assert str(err.value) == message


def test_a_trace_in_blocks_reads_as_the_whole_trace():
    """The live set, the costs and the DFA's run carry from one block to
    the next: ``verdicts``, ``verdict`` and ``trace_value`` over a trace
    cut into blocks of random sizes equal those over the whole trace
    (compared by ``repr``), and so do ``step`` and ``advance`` fed the
    samples of one stream in turn."""
    from arv.generators import random_sre

    rng = random.Random(3003)
    for k in range(80):
        spec = (random_stl if k % 2 else random_sre)(rng, ["x", "y"], depth=2)
        trace = random_trace(rng, ("x", "y"), rng.randint(1, 12), lo=0, hi=6)
        cuts = sorted(rng.sample(range(1, len(trace)), rng.randint(0, len(trace) - 1)))
        blocks = [
            Trace.from_columns(trace.variables, {v: col[a:b] for v, col in trace.columns.items()})
            for a, b in zip([0, *cuts], [*cuts, len(trace)])
        ]
        for sr in ALL:
            pair = build_monitor_pair(spec, sr)
            assert repr(list(verdicts(iter(blocks), *pair))) == repr(list(verdicts(trace, *pair)))
            assert repr(verdict(iter(blocks), *pair)) == repr(verdict(trace, *pair))
            assert trace_value(iter(blocks), pair[0]) == trace_value(trace, pair[0])
            stream = ValueStream(pair[0])
            for i, sample in enumerate(trace.samples):
                if i % 2:
                    stream.step(sample)
                else:
                    stream.advance(Trace(trace.variables, [sample]))
            assert stream.value == trace_value(trace, pair[0])


BOUNDED_STL = (  # templates whose live sets end on the accept and reject sinks
    "G[0,{a}] F[0,{b}] ({p})",
    "F[0,{a}] G[0,{b}] ({p})",
    "G[0,{a}](({p}) -> F[0,{b}] ({q}))",
    "({p}) U[{a},{b}] ({q})",
)


def _bounded_spec(rng, k):
    """A random specification that settles once its horizon is past: a
    bounded STL template over random predicates, or a star-free SRE."""
    from arv.generators import random_predicate, random_sre

    if k % 2:
        return random_sre(rng, ["x", "y"], depth=3, max_bound=3, star_budget=0)
    p, q = (random_predicate(rng, ["x", "y"], depth=1, lo=0, hi=4) for _ in range(2))
    a = rng.randint(0, 4)
    return parse_stl(rng.choice(BOUNDED_STL).format(a=a, b=rng.randint(a, a + 3), p=p, q=q))


def _reads(pair, trace):
    """``verdict_rows``, ``verdict``, both sides' ``trace_value`` and both
    sides' costs after every ``step``, as one ``repr``, on fresh programs;
    and how many settled live sets they met.  ``trace`` is a ``Trace`` or
    a CSV file, which the reads take in blocks (``trace_blocks``)."""
    from arv.speclang import read_trace_csv, trace_blocks

    if isinstance(trace, Trace):
        samples, blocks = trace.samples, lambda: trace
    else:
        samples, blocks = read_trace_csv(str(trace)).samples, lambda: trace_blocks(str(trace))
    pos, neg = (replace(w) for w in pair)
    costs = []
    for w in (pos, neg):
        stream = ValueStream(w)
        for sample in samples:
            stream.step(sample)
            costs.append(stream.costs)
    rows = [row for block in verdict_rows(blocks(), pos, neg) for row in block]
    reads = rows, verdict(blocks(), pos, neg), trace_value(blocks(), pos), trace_value(blocks(), neg), costs
    settled = sum(live.settled for w in (pos, neg) for live in w._program.live_sets.values())
    return repr(reads), settled


def _with_and_without_settling(monkeypatch, pair, trace, whole=None):
    """``_reads`` of ``trace`` with settled live sets on, then of ``whole``
    (by default the same trace) with them off."""
    on, settled = _reads(pair, trace)
    with monkeypatch.context() as m:
        m.setattr(arv.monitor._Program, "settled", lambda self, members: False)
        off, _ = _reads(pair, trace if whole is None else whole)
    return on, off, settled


@pytest.mark.parametrize("semiring", ALL, ids=lambda s: s.name)
def test_settling_changes_no_value(monkeypatch, semiring):
    """Random bounded STL and star-free SRE pairs: every verdict row,
    verdict, trace value and cost after every step prints the same with
    settled live sets as with every sample relaxed, and most pairs
    settle within their traces."""
    rng = random.Random(28)
    settled = 0
    for k in range(60):
        pair = build_monitor_pair(_bounded_spec(rng, k), semiring)
        t = random_trace(rng, ("x", "y"), rng.randint(1, 40), lo=0, hi=5)
        on, off, met = _with_and_without_settling(monkeypatch, pair, t)
        assert on == off
        settled += met > 0
    assert settled > 40


@pytest.mark.parametrize("semiring", ALL, ids=lambda s: s.name)
@pytest.mark.parametrize("rows", [1, 2, 5, 16])
def test_settling_mid_block_at_a_block_start_and_across_blocks(tmp_path, monkeypatch, semiring, rows):
    """Traces read ``rows`` samples a block at a time, so streams settle
    in the middle of a block, at its first sample and before whole later
    blocks; each read equals that of the whole trace with every sample
    relaxed."""
    import arv.speclang
    from arv.speclang import write_trace_csv

    monkeypatch.setattr(arv.speclang, "CHUNK_ROWS", rows)
    rng = random.Random(rows)
    settled = 0
    for k in range(16):
        pair = build_monitor_pair(_bounded_spec(rng, k), semiring)
        t = random_trace(rng, ("x", "y"), rng.randint(20, 60), lo=0, hi=5)
        path = tmp_path / "t.csv"
        write_trace_csv(t, path)
        on, off, met = _with_and_without_settling(monkeypatch, pair, path, t)
        assert on == off
        settled += met > 0
    assert settled > 8


def test_golden_series_are_the_same_with_settled_live_sets(tmp_path, monkeypatch):
    """Every golden series file, byte for byte, with settled live sets on;
    ``bounded-recurrence`` settles in each of its semirings."""
    from test_cli import _check_golden_series

    met = []
    real = arv.monitor._Program.settled
    monkeypatch.setattr(arv.monitor._Program, "settled", lambda self, members: met.append(real(self, members)) or met[-1])
    _check_golden_series(tmp_path)
    assert met.count(True) >= 3


def test_errors_after_the_horizon_are_unchanged(tmp_path, monkeypatch):
    """A settled stream still reads and checks every sample: a bad row in
    a later block raises the ``ParseError`` that a stream relaxing every
    sample raises, and a settled ``step`` refuses a NaN and an unbound
    variable."""
    from arv.errors import ParseError
    from arv.speclang import trace_blocks

    pair = build_monitor_pair(parse_stl("G[0,20] F[0,5] x >= 8"), MINMAX)
    rng = random.Random(5)
    lines = ["x,y"] + [f"{rng.randint(0, 40) / 4},1" for _ in range(6000)]
    cases = {
        "nan,1": "non-finite value 'nan' in trace row 5001, column 'x'",
        "abc,1": "non-numeric cell in trace row 5001, column 'x'",
        "7": "trace row 5001 has 1 cells, expected 2",
    }
    for row, message in cases.items():
        path = tmp_path / "t.csv"
        path.write_text("\n".join(lines[:5000] + [row] + lines[5001:]) + "\n")
        for settled in (True, False):
            with monkeypatch.context() as m:
                if not settled:
                    m.setattr(arv.monitor._Program, "settled", lambda self, members: False)
                fresh = [replace(w) for w in pair]
                with pytest.raises(ParseError) as err:
                    list(verdict_rows(trace_blocks(str(path)), *fresh))
                assert str(err.value) == message
                with pytest.raises(ParseError) as err:
                    verdict(trace_blocks(str(path)), *fresh)
                assert str(err.value) == message
    stream = ValueStream(pair[0])
    for sample in random_trace(rng, ("x", "y"), 40, lo=0, hi=10).samples:
        stream.step(sample)
    assert stream._live.settled
    with pytest.raises(ParseError, match="non-finite value nan for variable 'x'"):
        stream.step({"x": math.nan})
    with pytest.raises(UnboundVariableError, match="unbound variable 'x'"):
        stream.step({})


@pytest.mark.parametrize("semiring", ALL, ids=lambda s: s.name)
def test_a_self_loop_that_leaves_valuations_uncovered_never_settles(semiring):
    """One location whose one edge loops on ``x <= 0``: its live set is
    its own successor, but a sample with ``x = 1`` prices the loop, so it
    is not settled and the cost grows by ``⊗ 1``."""
    loop = P.Dnf(((P.comparison("x", "<=", 0.0),),))
    a = make_automaton(("x",), 1, {0}, {0}, [(0, loop, 0)])
    assert not a.complete
    stream = ValueStream(decorate(a, semiring, default_distance(semiring)))
    got = []
    for _ in range(2):
        stream.step({"x": 1.0})
        got.append(stream.costs[0])
    assert not stream._live.settled
    assert got == {"boolean": [1.0, 1.0], "minmax": [1.0, 1.0], "tropical": [1.0, 2.0]}[semiring.name]


@pytest.mark.parametrize("semiring", ALL, ids=lambda s: s.name)
def test_a_settled_stream_builds_nothing_more(monkeypatch, semiring):
    """Plans, step loops and block loops of a settled stream are the same
    after 30 samples as after 10⁴, fed by ``step`` or by ``advance``, and
    no loop is built: not even with the loops from the first step on a
    fixed point, which build them once settling is off."""
    rng = random.Random(30)
    t = random_trace(rng, ("x",), 10_000, lo=0, hi=10)
    counts = []
    for n in (30, 10_000):
        prefix = Trace.from_columns(("x",), {"x": t.columns["x"][:n]})
        pair = build_monitor_pair(parse_stl("G[0,20] F[0,5] x >= 8"), semiring)
        assert pair[0].base.complete and pair[1].base.complete
        stream = ValueStream(pair[0])
        for sample in prefix.samples:
            stream.step(sample)
        assert stream._live.settled
        list(verdict_rows(prefix, *pair))
        verdict(prefix, *pair)
        trace_value(prefix, pair[1])
        counts.append([(plan_count(ValueStream(w)), len(step_loops(w)), _loops_built(w)) for w in pair])
    assert counts[0] == counts[1]
    assert counts[0][0][1:] == counts[0][1][1:] == (0, 0)
    monkeypatch.setattr(arv.monitor, "LOOP_AFTER", 0)
    blocks = [Trace.from_columns(("x",), {"x": t.columns["x"][i:i + 100]}) for i in range(0, 1000, 100)]
    for settling in (True, False):
        if not settling:
            monkeypatch.setattr(arv.monitor._Program, "settled", lambda self, members: False)
        pair = build_monitor_pair(parse_stl("G[0,20] F[0,5] x >= 8"), semiring)
        stream = ValueStream(pair[0])
        for sample in t.samples[:1000]:
            stream.step(sample)
        list(verdict_rows(iter(blocks), *pair))
        assert (_loops_built(pair[0]) == 0) is settling


@pytest.mark.parametrize("text", ["G(x <= 5 -> F[0,2] y >= 2)", "G(x >= 0) && F[0,3] y >= 2"])
def test_a_step_loop_refuses_what_the_atom_table_refuses(text):
    """At a step loop, NaN, ±inf, a string, ``None``, a complex value and
    a missing variable each raise what ``Scorer.table`` raises (a missing
    one as ``UnboundVariableError``), with the same message, and leave the
    costs as they were, so the stream goes on as if it had not seen them.
    The response runs on its monitor pair, with a DFA run.  The second
    spec runs on its tableau, whose fixed point reads only ``x`` (a DFA
    splits every guard by every atom): a NaN in ``y`` still raises."""
    bad = [
        {"x": math.nan, "y": 1.0}, {"x": 1.0, "y": math.nan}, {"x": math.inf, "y": 1.0},
        {"x": 1.0, "y": -math.inf}, {"x": "a", "y": 1.0}, {"x": None, "y": 1.0},
        {"x": 1j, "y": 1.0}, {"x": 1.0}, {"y": 1.0},
    ]
    rng = random.Random(text)
    good = [{"x": rng.randint(0, 16) / 2, "y": rng.randint(0, 8) / 2} for _ in range(SHIPPED + 40)]
    for semiring in ALL:
        if text.startswith("G(x <= 5"):
            pair = build_monitor_pair(_spec(text), semiring)
            streams, fresh = ([ValueStream(pair[0]), _stream(*pair)] for _ in range(2))
        else:
            w = decorate(translate_stl(parse_stl(text)), semiring, default_distance(semiring))
            streams, fresh = [ValueStream(w)], [ValueStream(w)]
        for sample in good[:SHIPPED + 20]:
            for stream in streams + fresh:
                stream.step(sample)
        assert all(stream._loop for stream in streams)
        for valuation in bad:
            try:
                streams[0]._scorer.table(valuation)
            except KeyError as exc:
                want = UnboundVariableError(f"unbound variable {exc.args[0]!r}")
            except Exception as exc:
                want = exc
            for stream in streams:
                before = stream.costs, stream._run
                with pytest.raises(type(want)) as err:
                    stream.step(valuation)
                assert str(err.value) == str(want)
                assert (stream.costs, stream._run) == before
        for sample in good[SHIPPED + 20:]:
            for stream in streams + fresh:
                stream.step(sample)
        assert [(s.costs, s._run) for s in streams] == [(s.costs, s._run) for s in fresh]
    if text.startswith("G(x >= 0)"):  # the step loop checks y, which its body does not read
        live, prog = streams[0]._live, streams[0]._prog
        assert prog.loop(live, False, False, True)[1] == ["x", "y"]
        assert prog.loop(live, False, False)[1] == ["x"]
