import math
import random

import pytest

from arv import predicate as P
from arv.errors import ParseError, UnboundVariableError
from arv.generators import random_predicate
from arv.intervals import Box, Interval, complement_boxes
from conftest import grid_points, in_boxes

INF = math.inf


def lit(text):
    """The one literal of a one-literal predicate."""
    ((literal,),) = P.parse_predicate(text).clauses
    return literal


def clause_set(dnf):
    return [set(c) for c in dnf.clauses]


# --- the parser builds the DNF ---------------------------------------------------


def test_parse_de_morgan():
    dnf = P.parse_predicate("!(x <= 3 || y <= 2)")
    assert clause_set(dnf) == [{lit("!(x <= 3)"), lit("!(y <= 2)")}]


def test_parse_keeps_existing_dnf():
    dnf = P.parse_predicate("(x <= 3 && x <= 5 && y <= 5) || z > 0")
    assert clause_set(dnf) == [
        {lit("x <= 3"), lit("x <= 5"), lit("y <= 5")},
        {lit("z > 0")},
    ]


def test_parse_top():
    assert P.parse_predicate("true").clauses == ((P.TOP,),)
    assert P.parse_predicate("!T").clauses == ((P.BOTTOM,),)
    assert P.parse_predicate("!!false").clauses == ((P.BOTTOM,),)


def test_parse_pins_clause_and_literal_order():
    """Under a negation ``&&`` lists clauses in text order and ``||``
    combines them pairwise, left literals first."""
    a, b, c = (P.Not(P.Cmp(v, "<", 1.0)) for v in "abc")
    assert P.parse_predicate("!(a < 1 && (b < 1 || c < 1))").clauses == ((a,), (b, c))
    assert P.parse_predicate("(a >= 1 || b >= 1) && c >= 1").clauses == ((a, c), (b, c))
    assert P.parse_predicate("!(x > 2) && !!(y >= 3)").clauses == (
        (P.Cmp("x", "<=", 2.0), P.Not(P.Cmp("y", "<", 3.0))),
    )


# --- conjunction minimization -------------------------------------------------


def test_wedge_minimize_drops_implied_upper_bound():
    dnf = P.parse_predicate("x <= 3 && x <= 5")
    out = P.wedge_minimize(dnf)
    assert out.wedge_minimal
    assert clause_set(out) == [{lit("x <= 3")}]


def test_wedge_minimize_keeps_minimal_input():
    dnf = P.parse_predicate("(x <= 3 && y <= 5) || z > 0")
    out = P.wedge_minimize(dnf)
    assert clause_set(out) == clause_set(dnf)


def test_wedge_minimize_negated_literals():
    dnf = P.parse_predicate("!(x < 1) && !(x < 1.5)")
    out = P.wedge_minimize(dnf)
    assert clause_set(out) == [{lit("!(x < 1.5)")}]


def test_wedge_minimize_idempotent_and_minimal():
    rng = random.Random(5)
    for _ in range(200):
        once = P.wedge_minimize(P.parse_predicate(random_predicate(rng, ["x", "y"], depth=3)))
        twice = P.wedge_minimize(once)
        assert once.clauses == twice.clauses
        for clause in once.clauses:
            comparisons = [l for l in clause if isinstance(l, (P.Cmp, P.Not))]
            for i, a in enumerate(comparisons):
                for j, b in enumerate(comparisons):
                    if i == j:
                        continue
                    if a.var == b.var:
                        assert not P.literal_interval(a).subset_of(P.literal_interval(b))


def test_wedge_minimize_false_clauses():
    dnf = P.Dnf(((P.BOTTOM, lit("x <= 3")), (lit("y <= 0"),)))
    assert clause_set(P.wedge_minimize(dnf)) == [{lit("y <= 0")}]
    all_false = P.Dnf(((P.BOTTOM,), (P.BOTTOM, lit("x <= 1"))))
    assert clause_set(P.wedge_minimize(all_false)) == [{P.BOTTOM}]


def test_wedge_minimize_top_literals():
    dnf = P.Dnf(((P.TOP, lit("x <= 3")),))
    assert clause_set(P.wedge_minimize(dnf)) == [{lit("x <= 3")}]
    assert clause_set(P.wedge_minimize(P.Dnf(((P.TOP,),)))) == [{P.TOP}]


def test_dnf_unpickled_under_another_hash_seed_finds_its_equal():
    """A DNF's hash is computed once; unpickling computes it again, so a
    guard pickled by another process still keys the same dictionary slot."""
    import os
    import pickle
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(P.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED="4242")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = (
        "import pickle, sys; from arv import predicate as P; sys.stdout.buffer.write("
        "pickle.dumps(P.parse_predicate('x <= 1 && y > 2 || z < 0')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, timeout=60, check=True
    )
    dnf = P.parse_predicate("x <= 1 && y > 2 || z < 0")
    assert {dnf: "guard"}.get(pickle.loads(done.stdout)) == "guard"


# --- satisfiability -----------------------------------------------------------


def test_is_sat_examples():
    assert not P.is_sat(P.parse_predicate("x >= 5 && x < 5"))
    assert P.is_sat(P.TRUE)
    assert P.is_sat(P.parse_predicate("(x <= 1 && !(x <= 2)) || y <= 0"))


# --- intervals ------------------------------------------------------------------


def test_literal_interval_cases():
    assert P.literal_interval(lit("x <= 3")) == Interval.make(-INF, 3, False, True)
    assert P.literal_interval(lit("!(x < 2.5)")) == Interval.make(2.5, INF, True, False)
    assert P.literal_interval(lit("x < 0")) == Interval.make(-INF, 0, False, False)


def test_conjunct_box():
    idx = {"x": 0}
    full = Box.full(1)
    box = P.conjunct_box(full, (lit("x <= 3"), lit("!(x < 1)")), idx)
    assert box.components[0] == Interval.make(1, 3, True, True)
    assert P.conjunct_box(full, (P.BOTTOM,), idx).is_empty
    assert P.conjunct_box(full, (P.TOP,), idx) == full


def test_complement_boxes_square():
    """Two slabs outside the box on x, then two inside it on x and
    outside on y."""
    box = Box.make([Interval.make(2, 4, True, True), Interval.make(2, 4, True, True)])
    cells = complement_boxes(box)
    left = Interval.make(-INF, 2, False, False)
    mid = Interval.make(2, 4, True, True)
    right = Interval.make(4, INF, False, False)
    full = Interval.full()
    assert [tuple(c.components) for c in cells] == [
        (left, full),
        (right, full),
        (mid, left),
        (mid, right),
    ]


def test_complement_boxes_edge_cases():
    assert complement_boxes(Box.full(2)) == []
    cells = complement_boxes(Box.make([Interval.make(0, 1, True, True)]))
    assert {tuple(c.components) for c in cells} == {
        (Interval.make(-INF, 0, False, False),),
        (Interval.make(1, INF, False, False),),
    }


def test_complement_boxes_partition_grid():
    rng = random.Random(31)
    pts = grid_points(["x", "y"], -5, 5)
    for _ in range(30):
        lo1, lo2 = rng.randint(-4, 2), rng.randint(-4, 2)
        box = Box.make(
            [
                Interval.make(lo1, lo1 + rng.randint(0, 3), True, rng.random() < 0.5),
                Interval.make(lo2, lo2 + rng.randint(0, 3), rng.random() < 0.5, True),
            ]
        )
        if box.is_empty:
            continue
        cells = complement_boxes(box)
        for pt in pts:
            point = [pt["x"], pt["y"]]
            hits = sum(1 for c in cells if c.contains(point)) + (1 if box.contains(point) else 0)
            assert hits == 1


# --- disjoint region form -------------------------------------------------------


def test_dnf_boxes_single_clause():
    boxes = P.dnf_boxes(P.parse_predicate("x <= 3"), ["x"])
    assert len(boxes) == 1
    assert boxes[0].components[0] == Interval.make(-INF, 3, False, True)


def test_dnf_boxes_overlapping_rectangles():
    text = (
        "(!(x < 2.5) && x <= 4 && !(y < 0.5) && y <= 3.5)"
        " || (!(x < 1) && !(x < 1.5) && x <= 4 && !(y < 0.5) && y <= 2)"
    )
    dnf = P.parse_predicate(text)
    boxes = P.dnf_boxes(dnf, ["x", "y"])
    for i, a in enumerate(boxes):
        for b in boxes[i + 1 :]:
            assert a.intersect(b).is_empty
    for pt in grid_points(["x", "y"], -1, 6):
        assert in_boxes(boxes, ["x", "y"], pt) == P.evaluate(pt, dnf)


def test_dnf_boxes_union_region():
    dnf = P.parse_predicate("x <= 3 || x <= 5")
    boxes = P.dnf_boxes(dnf, ["x"])
    for pt in grid_points(["x"], -10, 10):
        assert in_boxes(boxes, ["x"], pt) == (pt["x"] <= 5)


def test_boxes_to_dnf_cases():
    out = P.boxes_to_dnf([Box.make([Interval.make(1, 3, True, True)])], ["x"])
    assert clause_set(out) == [{lit("x <= 3"), lit("!(x < 1)")}]
    assert clause_set(P.boxes_to_dnf([Box.full(1)], ["x"])) == [{P.TOP}]
    out = P.boxes_to_dnf([Box.make([Interval.make(2, INF, False, False)])], ["x"])
    assert clause_set(out) == [{lit("!(x <= 2)")}]
    assert clause_set(P.boxes_to_dnf([], ["x"])) == [{P.BOTTOM}]


def test_minimal_dnf_region_equivalent():
    text = (
        "(!(x < 2.5) && x <= 4 && !(y < 0.5) && y <= 3.5)"
        " || (!(x < 1) && !(x < 1.5) && x <= 4 && !(y < 0.5) && y <= 2)"
    )
    dnf = P.parse_predicate(text)
    minimal = P.boxes_to_dnf(P.dnf_boxes(dnf, ["x", "y"]), ["x", "y"])
    assert minimal.wedge_minimal
    for pt in grid_points(["x", "y"], -1, 6):
        assert P.evaluate(pt, minimal) == P.evaluate(pt, dnf)
    boxes = P.dnf_boxes(minimal, ["x", "y"])
    for i, a in enumerate(boxes):
        for b in boxes[i + 1 :]:
            assert a.intersect(b).is_empty


def test_minimal_dnf_simple_cases():
    out = P.boxes_to_dnf(P.dnf_boxes(P.parse_predicate("x <= 3"), ["x"]), ["x"])
    assert clause_set(out) == [{lit("x <= 3")}]
    dnf = P.parse_predicate("x <= 3 || x <= 5")
    out = P.boxes_to_dnf(P.dnf_boxes(dnf, ["x"]), ["x"])
    for pt in grid_points(["x"], -10, 10):
        assert P.evaluate(pt, out) == (pt["x"] <= 5)


# --- evaluation -------------------------------------------------------------------


def test_evaluate_examples():
    assert P.evaluate({"x": 2.0}, P.parse_predicate("x <= 3"))
    assert not P.evaluate({"x": 6.0}, P.parse_predicate("x <= 3 && x <= 5"))
    assert P.evaluate({"x": 5.0}, P.parse_predicate("!(x < 5)"))
    assert P.evaluate({"x": 6.0}, P.parse_predicate("x <= 3 || true"))
    assert not P.evaluate({}, P.parse_predicate("false"))
    with pytest.raises(UnboundVariableError):
        P.evaluate({"y": 0.0}, P.parse_predicate("x <= 3"))


# --- the representations agree everywhere -----------------------------------------


def python_truth(text):
    """The predicate text as a function of a valuation, evaluated by
    Python's own ``not``, ``and`` and ``or``: a reference independent of
    the parser."""
    code = compile(
        text.replace("&&", " and ").replace("||", " or ").replace("!", "not "), "<pred>", "eval"
    )
    constants = {"__builtins__": {}, "true": True, "T": True, "false": False}
    return lambda valuation: eval(code, constants, valuation)


def test_representations_agree_on_grid():
    rng = random.Random(2049)
    for case in range(150):
        n_vars = rng.choice([1, 1, 2, 2, 3])
        variables = ["x", "y", "z"][:n_vars]
        text = random_predicate(rng, variables, depth=3)
        truth = python_truth(text)
        dnf = P.parse_predicate(text)
        minimized = P.wedge_minimize(dnf)
        minimal = P.boxes_to_dnf(P.dnf_boxes(dnf, variables), variables)
        boxes = P.dnf_boxes(dnf, variables)
        for i, a in enumerate(boxes):
            for b in boxes[i + 1 :]:
                assert a.intersect(b).is_empty
        for pt in grid_points(variables, -10, 10):
            expected = truth(pt)
            assert P.evaluate(pt, dnf) == expected
            assert P.evaluate(pt, minimized) == expected
            assert P.evaluate(pt, minimal) == expected
            assert in_boxes(boxes, variables, pt) == expected


# --- concrete syntax ---------------------------------------------------------------


def test_parse_desugars_ge_gt():
    assert lit("x > 3") == P.Not(P.Cmp("x", "<=", 3.0))
    assert lit("x >= 3") == P.Not(P.Cmp("x", "<", 3.0))


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        P.parse_predicate("x <= ")
    with pytest.raises(ParseError):
        P.parse_predicate("x <= 3 &&")
    with pytest.raises(ParseError):
        P.parse_predicate("x <= 3 y <= 2")
    with pytest.raises(ParseError, match="non-finite"):
        P.parse_predicate("x <= 1e999")


@pytest.mark.parametrize("text", ["0.00001", "10000000000000000", "123456789012345678901"])
def test_exponent_constants_round_trip(text):
    """Constants that print as 1e-05, 1e+16 and 1.2345678901234568e+20
    reparse through the predicate, STL and automaton JSON syntaxes."""
    from arv.automaton import from_json, to_json
    from arv.speclang import parse_stl, print_stl
    from arv.translate import translate_stl

    p = P.parse_predicate(f"x <= {text}")
    assert P.parse_predicate(P.print_predicate(p)) == p
    f = parse_stl(f"G x <= {text}")
    assert parse_stl(print_stl(f)) == f
    doc = to_json(translate_stl(f))
    assert to_json(from_json(doc)) == doc


def test_print_parse_roundtrip_random():
    rng = random.Random(404)
    for _ in range(300):
        dnf = P.parse_predicate(random_predicate(rng, ["x", "y", "z"], depth=4))
        assert P.parse_predicate(P.print_predicate(dnf)) == dnf
