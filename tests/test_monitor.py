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
    build_monitor_pair,
    robustness,
    robustness_prefix_series,
    trace_value,
    verdict,
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
def test_live_set_memo_does_not_grow_with_trace_length(monkeypatch, text):
    """Live sets, plans and kernels, with kernels after ``KERNEL_AFTER``
    uses and with kernels from the first use."""
    spec = parse_stl(text) if text.startswith("G") else parse_sre(text)
    rng = random.Random(31)
    samples = [{"x": rng.randint(0, 40) / 4, "y": rng.randint(0, 16) / 4} for _ in range(20_000)]
    for kernel_after in (arv.monitor.KERNEL_AFTER, 0):
        monkeypatch.setattr(arv.monitor, "KERNEL_AFTER", kernel_after)
        w_pos, _ = build_monitor_pair(spec, TROPICAL)
        counts, plans, kernels = [], [], []
        for n in (1_000, 20_000):
            stream = ValueStream(w_pos)
            for sample in samples[:n]:
                stream.step(sample)
            counts.append(len(stream._live_sets))
            plans.append(plan_count(stream))
            kernels.append(kernel_count(stream))
        assert counts[0] == counts[1]
        assert plans[0] == plans[1]
        # kernels are kept per plan, so they are bounded like plans
        assert 0 < kernels[0] <= kernels[1] <= plans[1]
        if kernel_after == 0:
            assert kernels[0] == kernels[1]
        # keyed by members, not by the order a step visits them in
        assert counts[0] <= w_pos.base.n_locations + 1


def plans_of(stream):
    return [plan for live in stream._live_sets.values() for plan in live.plans.values()]


def plan_count(stream):
    return len(plans_of(stream))


def kernel_count(stream):
    return sum(plan.kernel is not None for plan in plans_of(stream))


def test_plans_are_keyed_by_weight_shape_not_by_truths():
    """A flat disjunction over 12 atoms meets thousands of truth vectors,
    but they fall into a few weight shapes, and plans are kept per shape."""
    names = [f"x{i}" for i in range(12)]
    w_pos, _ = build_monitor_pair(parse_stl("G(" + " || ".join(f"{x} < 1" for x in names) + ")"), MINMAX)
    rng = random.Random(12)
    stream = ValueStream(w_pos)
    for _ in range(8000):
        stream.step({x: rng.choice((0.0, 0.5, 1.0, 2.0)) for x in names})
    assert len(stream._scorer.recipes) > 2000
    assert plan_count(stream) <= 30


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


INTERPRETED = 10**9  # a KERNEL_AFTER no test trace reaches


def _kernels_built(sides):
    return sum(kernel_count(ValueStream(w)) for w in sides)


@pytest.mark.parametrize("semiring", ALL, ids=lambda s: s.name)
def test_kernels_equal_the_interpreted_loop(monkeypatch, semiring):
    """With every dense plan compiled before its first step, the verdict
    series of random STL and SRE pairs, read from either side, print the
    same as with the loop alone."""
    from arv.generators import random_sre

    rng = random.Random(256)
    built = 0
    for k in range(60):
        make = random_stl if k % 2 else random_sre
        pair = build_monitor_pair(make(rng, ["x", "y"], depth=2), semiring)
        t = random_trace(rng, ("x", "y"), rng.randint(1, 12))
        got = []
        for after in (0, INTERPRETED):
            monkeypatch.setattr(arv.monitor, "KERNEL_AFTER", after)
            pos, neg = (replace(w) for w in pair)  # fresh programs
            got.append(repr([list(verdicts(t, pos, neg)), list(verdicts(t, neg, pos))]))
            built += after == 0 and _kernels_built((pos, neg))
        assert got[0] == got[1]
    assert built > 200


def test_kernels_equal_the_interpreted_loop_on_nfas(monkeypatch):
    """On random NFAs, where a member passes its cost on along several
    free edges or has no edge at all, kernels give every location's cost
    after every step as the loop does."""
    from arv.generators import random_automaton

    rng = random.Random(1024)
    rows = set()  # (free, priced) edge counts of the rows that got kernels
    for _ in range(120):
        a = random_automaton(rng, ("x", "y"), max_locations=6, max_transitions=14)
        t = random_trace(rng, ("x", "y"), rng.randint(1, 8))
        for semiring in ALL:
            w = decorate(a, semiring, default_distance(semiring))
            got, streams = [], []
            for after in (0, INTERPRETED):
                monkeypatch.setattr(arv.monitor, "KERNEL_AFTER", after)
                cols, stream = stream_columns(t, replace(w))
                got.append(repr((cols, trace_value(t, stream.w))))
                streams.append(stream)
            assert got[0] == got[1]
            rows.update((len(f), len(p)) for plan in plans_of(streams[0]) if plan.kernel for f, p in plan.rows)
    assert (0, 0) in rows and max(f for f, _ in rows) >= 2


@pytest.mark.parametrize("semiring", ALL, ids=lambda s: s.name)
def test_a_stream_crossing_the_threshold_mid_block_gives_a_fresh_streams_series(monkeypatch, semiring):
    """With kernels after 7 uses, plans get them in the middle of a
    40-sample block; later traces through the same pair run them from
    their first sample.  Every series equals a fresh interpreted pair's.
    Under ``boolean`` these plans meet mostly ``e_plus`` costs and keep
    the loop."""
    rng = random.Random(7)
    traces = [random_trace(rng, ("x", "y"), 40, lo=0, hi=10) for _ in range(3)]
    built = 0
    for text in (*MONITORED, "(T ; <x <= 2>[2,4] ; T) & (T ; <y >= 8>[1,3] ; T)"):
        pair = build_monitor_pair(_spec(text), semiring)
        monkeypatch.setattr(arv.monitor, "KERNEL_AFTER", INTERPRETED)
        fresh = [repr(list(verdicts(t, *(replace(w) for w in pair)))) for t in traces]
        monkeypatch.setattr(arv.monitor, "KERNEL_AFTER", 7)
        assert [repr(list(verdicts(t, *pair))) for t in traces] == fresh
        built += _kernels_built(pair)
    assert (built > 0) is (semiring is not BOOLEAN)  # Boolean plans here are sparse


def test_boolean_star_plans_stay_interpreted():
    """Under ``boolean`` most of the star's costs are ``e_plus``, which
    the loop skips, so its plans keep the loop past ``KERNEL_AFTER``
    uses; under ``minmax`` the same plans get kernels."""
    star = parse_sre("(<x <= 7>[1,5] ; <y >= 2>[1,3])*")
    rng = random.Random(8)
    trace = random_trace(rng, ("x", "y"), 3000, lo=0, hi=10)
    for semiring, kernels in ((BOOLEAN, False), (MINMAX, True)):
        w_pos, _ = build_monitor_pair(star, semiring)
        stream = ValueStream(w_pos)
        stream.advance(trace)
        plans = [plan for plan in plans_of(stream) if plan.uses >= arv.monitor.KERNEL_AFTER]
        assert plans and all(bool(plan.kernel) is kernels for plan in plans)


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
