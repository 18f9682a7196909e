import math
import random

import pytest

from arv import predicate as P
from arv import speclang as S
from arv.errors import ParseError
from arv.generators import random_stl, random_trace
from arv.speclang import (
    Atom,
    Eventually,
    Next,
    TimeWindow,
    Trace,
    Until,
    desugar,
    eval_sre,
    eval_stl,
    negate,
    parse_spec_text,
    parse_sre,
    parse_stl,
    print_sre,
    print_stl,
    read_trace_csv,
    unfold_bounded,
    write_trace_csv,
)
from conftest import traces_upto


def tr(*values):
    return Trace(("x",), [{"x": float(v)} for v in values])


# --- parsing -----------------------------------------------------------------


def test_parse_stl_structure():
    f = parse_stl("F (x <= 5 && G[0,1](x <= 3 && y > 6))")
    assert isinstance(f, Eventually)
    inner = f.arg
    assert isinstance(inner, S.And)
    assert inner.left == Atom("x", "<=", 5.0)
    g = inner.right
    assert isinstance(g, S.Always) and g.window == TimeWindow(0, 1)
    assert g.arg == S.And(Atom("x", "<=", 3.0), Atom("y", ">", 6.0))


def test_parse_stl_unsat_fixture():
    f = parse_stl("G((a >= 5) && (a < 5))")
    assert isinstance(f, S.Always)
    assert f.arg == S.And(Atom("a", ">=", 5.0), Atom("a", "<", 5.0))


def test_parse_sre_structure():
    e = parse_sre("T ; ((x<=5 ; T) & <x<=3 && y>=6>[1,1]) ; T")
    assert isinstance(e, S.SreConcat)
    assert isinstance(e.left, S.SreConcat)
    assert e.left.left == S.SreBasic(P.TRUE)
    mid = e.left.right
    assert isinstance(mid, S.SreIntersect)
    assert isinstance(mid.left, S.SreConcat)
    assert isinstance(mid.right, S.SreDuration)
    assert mid.right.window == TimeWindow(1, 1)


def test_parse_window_forms():
    assert parse_stl("F[2,5] x <= 1") == Eventually(Atom("x", "<=", 1.0), TimeWindow(2, 5))
    assert parse_stl("F[2,inf] x <= 1") == Eventually(Atom("x", "<=", 1.0), TimeWindow(2, None))
    assert parse_stl("F x <= 1") == Eventually(Atom("x", "<=", 1.0), TimeWindow(0, None))
    assert parse_stl("x <= 1 U[1,2] x <= 0") == Until(
        Atom("x", "<=", 1.0), Atom("x", "<=", 0.0), TimeWindow(1, 2)
    )


def test_parse_negative_constants():
    f = parse_stl("a < -30 || a > 30")
    assert f == S.Or(Atom("a", "<", -30.0), Atom("a", ">", 30.0))


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_stl("F (x <= )")
    with pytest.raises(ParseError):
        parse_stl("x <= 3 extra")
    with pytest.raises(ParseError):
        parse_stl("G[2,1] x <= 3")
    with pytest.raises(ParseError):
        parse_sre("<x <= 3>[1,1")


@pytest.mark.parametrize(
    "text, message",
    [
        ("Y x <= 3", r"unexpected operator 'Y' \(at offset 0\)"),
        ("x <= 3 S x <= 1", r"trailing input after formula \(at offset 7\)"),
        ("G (P x <= 3)", r"unexpected operator 'P' \(at offset 3\)"),
        ("H x <= 0", r"unexpected operator 'H' \(at offset 0\)"),
    ],
    ids=["Y", "S", "P", "H"],
)
def test_past_operators_do_not_parse(text, message):
    # S, P, H and Y have no translation to an automaton; the letters stay
    # reserved, so a past-time spec fails at the operator
    with pytest.raises(ParseError, match=message):
        parse_stl(text)


def test_spec_text_directive():
    kind, f = parse_spec_text("#lang stl\nG x <= 3\n")
    assert kind == "stl" and isinstance(f, S.Always)
    kind, e = parse_spec_text("#lang sre\nT ; x <= 3\n")
    assert kind == "sre" and isinstance(e, S.SreConcat)
    kind, f = parse_spec_text("x <= 3")
    assert kind == "stl"
    with pytest.raises(ParseError):
        parse_spec_text("#lang prolog\nfoo")
    with pytest.raises(ParseError):
        parse_spec_text("   \n\n")


# --- rewriting ---------------------------------------------------------------


def test_desugar_core_shapes():
    f = desugar(Eventually(Atom("x", "<", 1.0)))
    assert f == Until(S.TRUE, Atom("x", "<", 1.0), TimeWindow(0, None))
    f = desugar(Next(Atom("x", "<", 1.0)))
    assert f == Until(S.FALSE, Atom("x", "<", 1.0), TimeWindow(1, 1))
    g = desugar(parse_stl("G[0,1] x <= 3"))
    assert g == S.Not(
        Until(S.TRUE, S.Not(Atom("x", "<=", 3.0)), TimeWindow(0, 1))
    )


def test_negate():
    f = parse_stl("G x <= 3")
    assert negate(f) == S.Not(f)
    assert negate(negate(f)) == f


def test_unfold_examples():
    psi = Atom("x", "<=", 1.0)
    assert unfold_bounded(Eventually(psi, TimeWindow(0, 0))) == psi
    assert unfold_bounded(Eventually(psi, TimeWindow(1, 2))) == Next(S.Or(psi, Next(psi)))
    # bounded always: equivalent to the argument now and (weakly) next
    g = unfold_bounded(parse_stl("G[0,1] x <= 1"))
    for values in ([0], [2], [0, 0], [0, 2], [2, 0], [1, 1, 5]):
        t = tr(*values)
        assert eval_stl(t, 0, g) == eval_stl(t, 0, parse_stl("G[0,1] x <= 1"))


def test_stl_nodes_are_hash_consed():
    import copy
    import pickle
    import sys

    text = "G[0,5] (x <= 5 -> F[0,3] y >= 2)"
    f = parse_stl(text)
    assert f is parse_stl(text)
    assert copy.deepcopy(f) is f
    assert pickle.loads(pickle.dumps(f)) is f
    assert Atom("x", "<=", 5) is Atom("x", "<=", 5.0)
    assert Atom("x", "<", -0.0) is not Atom("x", "<", 0.0)
    assert Eventually(Atom("x", "<", 1.0)) is Eventually(Atom("x", "<", 1.0), S.FULL_WINDOW)
    # chains far deeper than the recursion limit hash and compare in O(1)
    depth = 3 * sys.getrecursionlimit()
    chains = []
    for _ in range(2):
        node = Atom("x", ">=", 1.0)
        for _ in range(depth):
            node = Next(node)
        chains.append(node)
    assert chains[0] is chains[1]
    assert {chains[0]: 1}[chains[1]] == 1
    wide = unfold_bounded(parse_stl(f"F[0,{depth}] x >= 1"))
    assert wide is unfold_bounded(parse_stl(f"F[0,{depth}] x >= 1"))
    assert hash(wide) == hash(unfold_bounded(parse_stl(f"F[0,{depth}] x >= 1")))


def test_unfold_core_shape():
    rng = random.Random(17)
    allowed = (S.Atom, S.TrueFormula, S.FalseFormula, S.Not, S.Or, S.And, S.Next, S.Until)
    for _ in range(100):
        f = random_stl(rng, ["x"], depth=3)
        out = unfold_bounded(f)
        stack = [out]
        while stack:
            node = stack.pop()
            assert isinstance(node, allowed)
            if isinstance(node, S.Until):
                assert node.window == S.RESIDUAL_WINDOW
            for attr in ("arg", "left", "right"):
                child = getattr(node, attr, None)
                if child is not None:
                    stack.append(child)


def test_desugar_and_unfold_preserve_semantics():
    rng = random.Random(23)
    traces = traces_upto(("x",), range(3), 4)
    for _ in range(60):
        f = random_stl(rng, ["x"], depth=3, const_lo=0, const_hi=2)
        cored = desugar(f)
        unfolded = unfold_bounded(f)
        for t in traces:
            for i in range(len(t)):
                expected = eval_stl(t, i, f)
                assert eval_stl(t, i, cored) == expected
                assert eval_stl(t, i, unfolded) == expected


# --- qualitative STL ------------------------------------------------------------


def test_eval_stl_examples():
    assert eval_stl(tr(4, 2), 0, parse_stl("F x <= 3"))
    assert eval_stl(tr(4), 0, parse_stl("G[0,1] x <= 5"))
    psi5 = parse_stl("G(a >= 5 && a < 5)")
    t = Trace(("a",), [{"a": 0.0}])
    assert not eval_stl(t, 0, psi5)


def test_eval_stl_until_strictness():
    # the left argument is not required at the current position
    f = parse_stl("x <= 0 U x >= 5")
    assert eval_stl(tr(1, 0, 5), 0, f)
    assert eval_stl(tr(1, 5), 0, f)
    assert not eval_stl(tr(1, 1, 5), 0, f)


def test_eval_stl_negation_complement():
    rng = random.Random(41)
    for _ in range(80):
        f = random_stl(rng, ["x"], depth=3)
        t = random_trace(rng, ("x",), rng.randint(1, 4), 0, 3)
        for i in range(len(t)):
            assert eval_stl(t, i, S.Not(f)) == (not eval_stl(t, i, f))


def test_eval_stl_bounds_check():
    with pytest.raises(ValueError):
        eval_stl(tr(1), 1, parse_stl("x <= 3"))


# --- qualitative SRE -------------------------------------------------------------


def test_eval_sre_examples():
    assert eval_sre(tr(2), 0, 1, parse_sre("x <= 3"))
    e = parse_sre("E")
    t = tr(1, 2)
    assert eval_sre(t, 1, 1, e)
    assert not eval_sre(t, 1, 2, e)
    dur = parse_sre("<x <= 9>[1,1] ; T")
    assert eval_sre(tr(0, 1, 2), 0, 3, dur)


def test_eval_sre_basic_matches_empty_segment():
    e = parse_sre("x <= 3")
    t = tr(9, 9)
    assert eval_sre(t, 1, 1, e)
    assert not eval_sre(t, 0, 1, e)


def test_eval_sre_star_and_union():
    e = parse_sre("(<x <= 1>[1,1] ; <x >= 5>[1,1])*")
    assert eval_sre(tr(0, 7, 1, 6), 0, 4, e)
    assert not eval_sre(tr(0, 7, 1), 0, 3, e)
    assert eval_sre(tr(3), 0, 0, e)
    u = parse_sre("<x <= 1>[1,1] | <x >= 5>[1,1]")
    assert eval_sre(tr(0), 0, 1, u)
    assert eval_sre(tr(6), 0, 1, u)
    assert not eval_sre(tr(3), 0, 1, u)


def test_eval_sre_duration_clips():
    e = parse_sre("<T>[2,inf]")
    assert not eval_sre(tr(1), 0, 1, e)
    assert eval_sre(tr(1, 1), 0, 2, e)
    assert eval_sre(tr(1, 1, 1), 0, 3, e)


def test_eval_sre_segment_bounds():
    with pytest.raises(ValueError):
        eval_sre(tr(1), 1, 0, parse_sre("T"))


# --- printing ----------------------------------------------------------------------


def test_stl_print_parse_roundtrip():
    rng = random.Random(59)
    for _ in range(300):
        f = random_stl(rng, ["x", "y"], depth=4)
        assert parse_stl(print_stl(f)) == f


def test_sre_print_parse_roundtrip():
    rng = random.Random(61)
    from arv.generators import random_sre

    for _ in range(300):
        e = random_sre(rng, ["x", "y"], depth=4)
        assert parse_sre(print_sre(e)) == e


# --- traces -----------------------------------------------------------------------


def test_trace_csv_roundtrip(tmp_path):
    rng = random.Random(71)
    t = random_trace(rng, ("u", "v"), 17, -5, 5)
    path = tmp_path / "t.csv"
    write_trace_csv(t, path)
    back = read_trace_csv(path)
    assert back.variables == t.variables
    assert back.samples == t.samples


def test_trace_csv_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x,y\n1,2\n3\n")
    with pytest.raises(ParseError):
        read_trace_csv(p)
    p.write_text("x,y\n1,oops\n")
    with pytest.raises(ParseError):
        read_trace_csv(p)
    p.write_text("x,y\n")
    with pytest.raises(ParseError):
        read_trace_csv(p)


def test_trace_csv_rejects_nan_naming_row_and_column(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x,y\n1,2\n3,nan\n")
    with pytest.raises(ParseError, match=r"row 3, column 'y'"):
        read_trace_csv(p)
    p.write_text("x,y\n\n1,2\n\n3,nan\n")
    with pytest.raises(ParseError, match=r"row 5, column 'y'"):
        read_trace_csv(p)


@pytest.mark.parametrize("cell", ["inf", "-inf", "1e999"])
def test_trace_csv_rejects_infinite_naming_row_and_column(tmp_path, cell):
    p = tmp_path / "bad.csv"
    p.write_text(f"x,y\n{cell},2\n")
    with pytest.raises(ParseError, match=r"row 2, column 'x'"):
        read_trace_csv(p)


def test_trace_csv_rejects_duplicate_column(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x,x\n1,2\n")
    with pytest.raises(ParseError, match=r"'x' twice"):
        read_trace_csv(p)


def test_trace_csv_rejects_empty_column_name(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x, \n1,2\n")
    with pytest.raises(ParseError, match=r"column 2 has no name"):
        read_trace_csv(p)


def test_trace_csv_skips_blank_lines(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("x\n\n1\n\n2\n")
    t = read_trace_csv(p)
    assert [s["x"] for s in t.samples] == [1.0, 2.0]


def test_empty_trace_rejected():
    with pytest.raises(ValueError):
        Trace(("x",), [])


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_trace_rejects_non_finite_sample_naming_index_and_variable(bad):
    with pytest.raises(ParseError, match=r"sample 1, variable 'y'"):
        Trace(("x", "y"), [{"x": 1.0, "y": 2.0}, {"x": 1.0, "y": bad}])


@pytest.mark.parametrize("bad", ["a", None, [1.0]])
def test_trace_rejects_non_numeric_sample_naming_index_and_variable(bad):
    with pytest.raises(ParseError, match=r"non-numeric value .* at sample 1, variable 'y'"):
        Trace(("x", "y"), [{"x": 1.0, "y": 2.0}, {"x": 1.0, "y": bad}])


def test_trace_csv_rejects_malformed_csv(tmp_path):
    p = tmp_path / "big.csv"
    p.write_text("x\n" + "1" * 200_000 + "\n")
    with pytest.raises(ParseError, match=r"not valid CSV: field larger than field limit"):
        read_trace_csv(p)
