"""The oracle module's boundary, and a fuzz of every text and byte input
the command line and parsers accept."""

import ast
import contextlib
import dataclasses
import importlib
import inspect
import io
import random
from pathlib import Path

import pytest

import arv
from arv import automaton, oracles
from arv.automaton import SymbolicAutomaton, WeightedAutomaton, decorate, determinize, flip
from arv.cli import main
from arv.distance import default_distance
from arv.errors import ArvError
from arv.generators import random_sre, random_stl, random_trace
from arv.monitor import (
    RobustnessVerdict,
    ValueStream,
    _rho,
    build_monitor_pair,
    spec_dfa,
    verdicts,
)
from arv.predicate import Cmp, Dnf, Literal, Not, parse_predicate
from arv.semiring import BOOLEAN, MINMAX, TROPICAL, Semiring
from arv.speclang import (
    Atom,
    StlFormula,
    Trace,
    eval_stl,
    negate,
    parse_spec_text,
    sre_accepts,
    sre_variables,
    stl_variables,
)
from arv.translate import translate_sre, translate_stl

SRC = Path(arv.__file__).parent

MONITORING_PATH = ("monitor", "automaton", "translate", "distance", "predicate", "speclang")

# names that moved to ``arv.oracles`` or were deleted, by their old module
GONE = {
    "cli": ("vpd_cross_check", "value_cross_check", "language_distance_cross_check", "_guards_closed"),
    "monitor": ("path_enumeration_value", "trace_distance_brute_force", "_qualitative"),
    "distance": ("vpd_brute_force", "_literal_weight", "compile_weight"),
    "fixtures": ("state_costs_by_paths",),
    "automaton": (
        "is_deterministic_complete",
        "mintermize",
        "union",
        "eps_closure",
        "eps_eliminate",
        "reached_sets",
        "accepts",
        "_guard_boxes",
        "_refine",
    ),
    "intervals": ("subtract_boxes",),
    "semiring": ("nat_lt",),
    "predicate": (
        "evaluate_clause",
        "minimal_dnf",
        "Pred",
        "Or",
        "And",
        "to_dnf",
        "_nnf",
        "_clauses",
        "variables_of",
        "evaluate_dnf",
    ),
    "speclang": ("Since", "Once", "Historically", "Prev", "PAST_OPERATORS", "_past_positions"),
}


def _imported_modules(path: Path) -> set:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ("." * node.level) + (node.module or "")
            names.add(base)
            names.update(f"{base}.{alias.name}".replace("..", ".") for alias in node.names)
    return names


@pytest.mark.parametrize("module", MONITORING_PATH)
def test_monitoring_path_never_imports_the_oracles(module):
    imported = _imported_modules(SRC / f"{module}.py")
    assert not {name for name in imported if name.split(".")[-1] == "oracles"}


def test_moved_and_deleted_names_are_gone():
    for module, names in GONE.items():
        mod = importlib.import_module(f"arv.{module}")
        assert [n for n in names if hasattr(mod, n)] == [], module
    assert not {"eps_eliminate", "mintermize", "union", "to_dnf"} & set(arv.__all__)
    assert "eps" not in {f.name for f in dataclasses.fields(SymbolicAutomaton)}
    assert not hasattr(Dnf, "to_pred")
    assert [f.name for f in dataclasses.fields(WeightedAutomaton)] == ["base", "semiring", "dist"]
    assert not hasattr(Atom, "to_literal")
    assert not {"__and__", "__or__", "__invert__"} & set(vars(Literal))
    assert not {"additively_idempotent", "bounded"} & {f.name for f in dataclasses.fields(Semiring)}
    assert "past" not in inspect.signature(random_stl).parameters
    assert "from_path" not in inspect.signature(arv.read_trace_csv).parameters
    for name in ("path_enumeration_value", "trace_distance_brute_force", "vpd_brute_force"):
        assert getattr(arv, name) is getattr(oracles, name)


# --- fuzz -------------------------------------------------------------------------

SPEC_SEEDS = (
    "G x <= 5",
    "F[0,3] (x > 1 && y < 2)",
    "G (x <= 5 -> F[0,2] y >= 2)",
    "a U[1,2] !b",
    "#lang sre\n<x <= 3>[1,2] ; (y > 1 | E)*",
    "#lang sre\n(x <= 5 ; T) & <x <= 3 && y >= 6>[1,1]",
)
PRED_SEEDS = ("x <= 3 && x <= 5", "!(x < 1) || y >= -2.5", "true", "(a > 0 || b <= 1) && !c < 4")
TEXT_TOKENS = (
    "(", ")", "[", "]", ",", ";", "&", "|", "*", "!", "&&", "||", "->", "<", "<=", ">",
    ">=", "=", "-", ".", "e", "inf", "nan", "1e999", "0", "9", "x", "y", " ", "\n",
    "#lang sre\n", "#lang stl\n", "#lang", "F", "G", "U", "X", "E", "T", "S", "P", "H", "Y",
    "\x00", "\ufeff", "é",
)
CSV_SEEDS = (b"x\n1\n2.5\n-3\n", b"x,y\n1,2\n\n3,4\n", b"y\n1\n", b"x\r\n6\r\n")
CSV_TOKENS = (
    b"\xff", b"\x00", b",", b"\n", b"\r", b'"', b"nan", b"inf", b"-inf", b"1e999", b"x",
    b"y", b"\xc3\xa9", b"\xef\xbb\xbf", b" ", b"-", b".", b"5",
)
VALUATION_SEEDS = ("x=1,y=2", "x=6", "y = -1.5, x = 0")
VALUATION_TOKENS = ("=", ",", " ", "x", "y", "1", "-", ".", "e5", "nan", "inf", "1e999", "_", "é", "abc")


def _mutate(rng, seq, tokens, chars):
    for _ in range(rng.randint(1, 4)):
        i = rng.randint(0, len(seq))
        op = rng.random()
        if op < 0.45:
            seq = seq[:i] + rng.choice(tokens) + seq[i:]
        elif op < 0.75:
            seq = seq[:i] + seq[i + rng.randint(1, 3):]
        elif op < 0.85:
            j = rng.randint(0, len(seq))
            seq = seq[:i] + seq[min(i, j):max(i, j)] + seq[i:]
        else:
            seq = seq[:i] + chars(rng.randrange(256)) + seq[i + 1:]
    return seq


def _text(rng, seeds, tokens):
    return _mutate(rng, rng.choice(seeds), tokens, chr)


def _outcome(label, call, *args):
    """The call's result, or None for an ``ArvError``; any other exception
    fails the test naming the input."""
    try:
        return call(*args)
    except ArvError:
        return None
    except Exception as exc:
        raise AssertionError(f"{label} raised {exc!r}") from exc


def _exit(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def _compile_and_monitor(lang, spec, rng):
    variables = sorted((stl_variables if lang == "stl" else sre_variables)(spec)) or ["x"]
    trace = random_trace(rng, tuple(variables), 4, -2, 8)
    return list(verdicts(trace, *build_monitor_pair(spec, MINMAX)))


def test_fuzz_inputs_end_in_an_exit_code_or_arv_error(tmp_path, monkeypatch):
    # a small budget keeps a mutated wide window from compiling for long
    monkeypatch.setattr(automaton, "MAX_SUBSETS", 4096)
    rng = random.Random(20240605)
    for _ in range(500):
        text = _text(rng, SPEC_SEEDS, TEXT_TOKENS)
        parsed = _outcome(f"parse_spec_text({text!r})", parse_spec_text, text)
        if parsed is not None:
            _outcome(f"compiling and monitoring {text!r}", _compile_and_monitor, *parsed, rng)
    for _ in range(400):
        text = _text(rng, PRED_SEEDS, TEXT_TOKENS)
        _outcome(f"parse_predicate({text!r})", parse_predicate, text)

    spec = tmp_path / "spec.stl"
    spec.write_text("G x <= 5\n", encoding="utf-8")
    trace = tmp_path / "t.csv"
    for _ in range(600):
        data = _mutate(rng, rng.choice(CSV_SEEDS), CSV_TOKENS, lambda b: bytes([b]))
        trace.write_bytes(data)
        argv = ["monitor", "--spec", str(spec), "--trace", str(trace)]
        assert _outcome(f"arv monitor on trace bytes {data!r}", _exit, argv) in (0, 2, 3, 4), data
    for _ in range(400):
        valuation = _text(rng, VALUATION_SEEDS, VALUATION_TOKENS)
        argv = ["vpd", f"--valuation={valuation}", "--pred", "x <= 3 && y >= 1"]
        assert _outcome(f"arv vpd --valuation {valuation!r}", _exit, argv) in (0, 2, 3, 4), valuation


# --- the compiled DFA pair against two-NFA references -----------------------------


def _dfa_pair_mismatches(spec, trace, semiring):
    """Prefixes where the compiled pair's verdicts differ from a reference
    built from the specification's own automata: for STL one value
    stream on the formula's tableau and one on its negation's, with
    ``satisfied`` from NFA membership in the formula's tableau; for SRE
    the expression's automaton and ``sre_accepts``.  An SRE's complement
    has open guards, so its ``d_not_phi`` has no exact reference; only
    the sign of ``rho`` is checked against ``satisfied``."""
    dist = default_distance(semiring)
    got = list(verdicts(trace, *build_monitor_pair(spec, semiring)))
    bad = 0
    if isinstance(spec, StlFormula):
        ref_pos = decorate(translate_stl(spec), semiring, dist)
        ref_neg = decorate(translate_stl(negate(spec)), semiring, dist)
        pos, neg = ValueStream(ref_pos), ValueStream(ref_neg)
        for t, (sample, v) in enumerate(zip(trace.samples, got), start=1):
            pos.step(sample)
            neg.step(sample)
            expected = RobustnessVerdict(
                rho=_rho(pos.value, pos.path_exists, neg.value, neg.path_exists, semiring),
                satisfied=oracles.accepts(ref_pos.base, Trace(trace.variables, trace.samples[:t])),
                d_phi=pos.value,
                d_not_phi=neg.value,
            )
            bad += v != expected
        return bad
    stream = ValueStream(decorate(translate_sre(spec), semiring, dist))
    for t, (sample, v) in enumerate(zip(trace.samples, got), start=1):
        stream.step(sample)
        accepted = sre_accepts(Trace(trace.variables, trace.samples[:t]), spec)
        sign_ok = v.rho == 0 or (v.rho > 0) == v.satisfied
        bad += v.d_phi != stream.value or v.satisfied != accepted or not sign_ok
    return bad


def test_dfa_pair_matches_two_nfa_reference():
    rng = random.Random(20241018)
    mismatches = checked = 0
    for i in range(300):
        variables = ["x", "y"] if i % 4 == 0 else ["x"]
        maker = random_stl if i % 2 else random_sre
        spec = maker(rng, variables, depth=3)
        for semiring in (BOOLEAN, MINMAX, TROPICAL):
            trace = random_trace(rng, tuple(variables), rng.randint(1, 7), 0, 4)
            mismatches += _dfa_pair_mismatches(spec, trace, semiring)
            checked += len(trace)
    assert checked > 3000
    # specs over four to eight variables, whose minterms are covers of many boxes
    rng = random.Random(20261019)
    for i in range(60):
        variables = [f"x{j}" for j in range(rng.randint(4, 8))]
        maker, used = (random_stl, stl_variables) if i % 2 else (random_sre, sre_variables)
        spec = maker(rng, variables, depth=3)
        while len(used(spec)) < 4:
            spec = maker(rng, variables, depth=3)
        for semiring in (BOOLEAN, MINMAX, TROPICAL):
            trace = random_trace(rng, tuple(variables), rng.randint(1, 7), 0, 4)
            mismatches += _dfa_pair_mismatches(spec, trace, semiring)
    assert mismatches == 0


# --- exact DFA equivalence ----------------------------------------------------------


def test_spec_dfa_has_the_language_of_the_formula_tableau():
    """The STL DFA, the complement of the negation's tableau, accepts the
    non-empty traces that the formula's own tableau accepts; on the
    empty trace the two differ by design."""
    rng = random.Random(1802)
    empty_differs = 0
    for i in range(320):
        variables = ["x", "y"] if i % 3 == 0 else ["x"]
        formula = random_stl(rng, variables, depth=3, max_bound=3)
        dfa, reference = spec_dfa(formula), determinize(translate_stl(formula))
        assert oracles.dfa_equivalent(dfa, reference), formula
        assert dfa.initial <= dfa.final
        empty_differs += not reference.initial <= reference.final
    assert empty_differs == 320


def test_dfa_equivalence_tells_languages_apart():
    texts = [
        "G(x <= 5 -> F[0,3] y >= 2)",
        "G(x <= 5 -> F[0,4] y >= 2)",
        "G(x <= 5 -> F[0,3] y > 2)",
        "F[0,3] G[0,3] x >= 1",
        "#lang sre\n<x >= 8>[2,3]",
        "#lang sre\n<x >= 8>[2,4]",
    ]
    dfas = [spec_dfa(parse_spec_text(text)[1]) for text in texts]
    for i, a in enumerate(dfas):
        assert oracles.dfa_equivalent(a, a)
        assert not oracles.dfa_equivalent(a, flip(a))
        for b in dfas[i + 1 :]:
            assert not oracles.dfa_equivalent(a, b)
            assert not oracles.dfa_equivalent(b, a)
    # equal languages over different variables and minterms
    true_dfa = spec_dfa(parse_spec_text("G(x >= 1 || x < 1)")[1])
    split_dfa = spec_dfa(parse_spec_text("G(y <= 3 || y > 3)")[1])
    assert oracles.dfa_equivalent(true_dfa, split_dfa)
    g = spec_dfa(parse_spec_text("G x >= 1")[1])
    either = spec_dfa(parse_spec_text("G x >= 1 && y >= 0 || G x >= 1 && y < 0")[1])
    assert oracles.dfa_equivalent(either, g)
    assert not oracles.dfa_equivalent(spec_dfa(parse_spec_text("G(x >= 1 && y >= 0)")[1]), g)


def test_dfa_equivalence_agrees_with_runs_on_short_traces():
    """Rewrites that keep a random formula's meaning give equivalent
    DFAs.  Pairs of random formulas the oracle calls equivalent accept
    the same traces of length 1 to 3 on a grid; pairs it separates
    differ on some non-empty trace, which a short one often shows."""
    from conftest import traces_upto

    from arv.speclang import FALSE, And, Not, Or

    rng = random.Random(1803)
    traces = traces_upto(("x",), (0.0, 1.0, 2.0, 3.0), 3)
    separated_short = 0
    for _ in range(150):
        f, g = (random_stl(rng, ["x"], depth=2, max_bound=1) for _ in range(2))
        a, b = spec_dfa(f), spec_dfa(g)
        for same in (And(f, f), Or(FALSE, f), Not(Not(f))):
            assert oracles.dfa_equivalent(a, spec_dfa(same)), same
        runs_agree = all(oracles.accepts(a, t) == oracles.accepts(b, t) for t in traces)
        if oracles.dfa_equivalent(a, b):
            assert runs_agree, (f, g)
        else:
            separated_short += not runs_agree
    assert separated_short > 50


# --- samples on the thresholds ---------------------------------------------------

BOUNDARY_SPECS = (
    "G (x < 3 -> F[0,2] y >= 5)",
    "F[0,2] (x > 3 && x <= 5)",
    "(x < 3) U[1,2] (y <= 5 || x >= 5)",
    "G[0,1] !(y < 5) || X x <= 3",
    "#lang sre\n<x < 3>[1,2] ; <y >= 5>[1,2]",
    "#lang sre\n(x <= 3)* ; x > 5",
    "#lang sre\n(T ; <x > 3>[2,3] ; T) & (T ; y < 5 ; T)",
)


def _thresholds(w):
    """Per variable, the constants its atoms compare it with."""
    out: dict = {}
    for _, dnf, _ in w.base.transitions:
        for clause in dnf.clauses:
            for lit in clause:
                c = lit.arg if isinstance(lit, Not) else lit
                if isinstance(c, Cmp):
                    out.setdefault(c.var, set()).add(c.k)
    return {var: sorted(ks) for var, ks in out.items()}


def test_samples_on_thresholds_match_the_references():
    """Every sample equals a constant of the specification, where a
    violated strict or non-strict atom still has distance 0: the
    qualitative verdict must come from the atoms' truth, not from the
    distance."""
    rng = random.Random(20241019)
    specs = [parse_spec_text(text)[1] for text in BOUNDARY_SPECS]
    for i in range(60):
        maker = random_stl if i % 2 else random_sre
        specs.append(maker(rng, ["x", "y"], depth=3))
    zero_yet_violated = mismatches = checked = 0
    for spec in specs:
        for semiring in (BOOLEAN, MINMAX, TROPICAL):
            w_pos, w_neg = build_monitor_pair(spec, semiring)
            ks = _thresholds(w_pos)
            if not ks:
                continue
            variables = w_pos.variables
            for _ in range(4):
                samples = [
                    {v: rng.choice(ks.get(v, [0.0])) for v in variables}
                    for _ in range(rng.randint(1, 6))
                ]
                trace = Trace(variables, samples)
                mismatches += _dfa_pair_mismatches(spec, trace, semiring)
                for t, v in enumerate(verdicts(trace, w_pos, w_neg), start=1):
                    prefix = Trace(variables, samples[:t])
                    if isinstance(spec, StlFormula):
                        expected = eval_stl(prefix, 0, spec)
                    else:
                        expected = sre_accepts(prefix, spec)
                    mismatches += v.satisfied != expected
                    zero_yet_violated += v.d_phi == semiring.e_times and not v.satisfied
                    checked += 1
    assert checked > 2000
    assert zero_yet_violated > 0
    assert mismatches == 0


def test_language_cross_check_runs_sre_cases(monkeypatch):
    """After its STL formulas the language check draws as many SREs and
    checks their verdicts against ``sre_accepts``, so a wrong
    ``sre_accepts`` shows as mismatches."""
    import arv.speclang

    drawn = []
    real = arv.speclang.sre_accepts
    monkeypatch.setattr(arv.speclang, "sre_accepts", lambda t, e: drawn.append(e) or real(t, e))
    assert oracles.language_distance_cross_check(20, seed=3) == 0
    assert len({id(e) for e in drawn}) == 20
    monkeypatch.setattr(arv.speclang, "sre_accepts", lambda t, e: not real(t, e))
    assert oracles.language_distance_cross_check(20, seed=3) > 0
