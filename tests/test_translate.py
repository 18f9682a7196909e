import random

import pytest

from arv import predicate as P
from arv.errors import UnsupportedFragmentError
from arv.fixtures import PHI1_TEXT, PHI2_TEXT
from arv.generators import random_sre, random_stl
from arv.oracles import accepts
from arv.speclang import Trace, eval_sre, eval_stl, parse_sre, parse_stl
from arv.translate import translate_sre, translate_stl
from conftest import traces_upto


def test_translate_eventually_shape():
    a = translate_stl(parse_stl("F x <= 3"))
    assert a.n_locations == 2
    rendered = sorted(
        (src, P.print_predicate(guard), dst) for src, guard, dst in a.transitions
    )
    assert rendered == [
        (0, "true", 0),
        (0, "x <= 3", 1),
        (1, "true", 1),
    ]
    assert set(a.initial) == {0} and set(a.final) == {1}


def test_translate_worked_example_shape():
    a = translate_stl(parse_stl(PHI1_TEXT))
    assert a.n_locations == 3
    assert len(a.transitions) == 4


def test_translate_false_has_no_accepting_path():
    from arv.speclang import FALSE

    a = translate_stl(FALSE)
    for t in traces_upto(("x",), range(0, 3), 3):
        assert not accepts(a, t)


def test_translate_sre_basic_shape():
    a = translate_sre(parse_sre("x <= 3"))
    assert a.n_locations == 2
    assert set(a.initial) <= set(a.final)
    for t in traces_upto(("x",), range(0, 6), 4):
        expected = all(s["x"] <= 3 for s in t.samples)
        assert accepts(a, t) == expected


def test_translate_sre_duration_exact_length():
    a = translate_sre(parse_sre("<x <= 9>[1,1]"))
    for t in traces_upto(("x",), range(8, 11), 3):
        expected = len(t) == 1 and t.samples[0]["x"] <= 9
        assert accepts(a, t) == expected


def test_nested_duration_compiles_in_linear_size():
    """A duration is a product with a length counter, which builds only
    the location pairs reachable from the initial ones."""
    import time

    from arv.automaton import determinize

    start = time.perf_counter()
    a = translate_sre(parse_sre("<<x <= 1>[0,400]>[0,400]"))
    d = determinize(a)
    assert time.perf_counter() - start < 1
    assert (a.n_locations, d.n_locations) == (401, 402)


def test_duration_product_budget(monkeypatch):
    import arv.automaton

    # 16 duration steps pass the up-front check; the outer product does not
    e = parse_sre("<(<x <= 1>[0,8] ; y <= 1)*>[0,8]")
    assert translate_sre(e).n_locations == 45
    monkeypatch.setattr(arv.automaton, "MAX_SUBSETS", 40)
    with pytest.raises(UnsupportedFragmentError, match="product of .* exceeds 40 locations"):
        translate_sre(e)


def test_translate_stl_matches_reference_semantics():
    rng = random.Random(1009)
    traces_1 = traces_upto(("x",), range(0, 4), 4)
    traces_2 = traces_upto(("x", "y"), range(0, 4), 3)
    for _ in range(25):
        f = random_stl(rng, ["x"], depth=3)
        a = translate_stl(f)
        for t in traces_1:
            assert accepts(a, t) == eval_stl(t, 0, f)
    for _ in range(6):
        f = random_stl(rng, ["x", "y"], depth=2)
        a = translate_stl(f)
        for t in traces_2:
            assert accepts(a, t) == eval_stl(t, 0, f)


def test_translate_sre_matches_reference_semantics():
    rng = random.Random(1013)
    traces_1 = traces_upto(("x",), range(0, 4), 4)
    for _ in range(20):
        e = random_sre(rng, ["x"], depth=3)
        a = translate_sre(e)
        for t in traces_1:
            assert accepts(a, t) == eval_sre(t, 0, len(t), e)


def xy_traces(x_values, y_values, length):
    from itertools import product

    points = [
        {"x": float(x), "y": float(y)} for x, y in product(x_values, y_values)
    ]
    for combo in product(points, repeat=length):
        yield Trace(("x", "y"), list(combo))


def test_worked_example_pair_languages():
    """The STL and SRE forms of the worked example are compared on a
    value grid; differences are reported, not hidden (the regular
    expression admits single-point witnesses under the empty-segment
    reading of basic propositions)."""
    phi1 = parse_stl(PHI1_TEXT)
    phi2 = parse_sre(PHI2_TEXT)
    a1, a2 = translate_stl(phi1), translate_sre(phi2)
    witnesses = []
    total = 0
    for n in (1, 2):
        for t in xy_traces((2, 3, 4, 5, 6), (5, 6, 7), n):
            total += 1
            r1, r2 = accepts(a1, t), accepts(a2, t)
            if r1 != r2:
                witnesses.append((t, r1, r2))
    assert total > 0
    if witnesses:
        t, r1, r2 = witnesses[0]
        rows = [(s["x"], s["y"]) for s in t.samples]
        print(f"language mismatch on {len(witnesses)} traces, e.g. {rows}: stl={r1} sre={r2}")


# Prints `arv translate --json` and the raw monitor pair of each spec
# named on the command line, then compiles unrelated specs, then prints
# the first ones again.
_DETERMINISM_SCRIPT = """
import random, sys
from pathlib import Path
from arv import predicate as P
from arv.cli import main
from arv.generators import random_stl
from arv.monitor import build_monitor_pair
from arv.semiring import TROPICAL
from arv.speclang import parse_stl

def show(path):
    out = Path(path).with_suffix(".json")
    assert main(["translate", "--spec", path, "--json", str(out)]) == 0
    print(out.read_text())
    w, _ = build_monitor_pair(parse_stl(Path(path).read_text()), TROPICAL)
    a = w.base
    print(a.n_locations, sorted(a.initial), sorted(a.final))
    print([(s, P.print_predicate(g), d) for s, g, d in a.transitions])

for path in sys.argv[1:]:
    show(path)
rng = random.Random(5)
for _ in range(30):
    build_monitor_pair(random_stl(rng, ["x", "y"], depth=3, max_bound=3), TROPICAL)
print("--- again")
for path in sys.argv[1:]:
    show(path)
"""


def test_translation_independent_of_hash_seed_and_history(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import arv

    specs = [
        "G(x <= 5 -> F[0,4] y >= 2)",
        "G[0,6] F[0,2] x >= 8",
        "(x >= 1 U[1,4] y <= 2) || G[2,5] (x <= 0 || X y >= 3)",
        "F[0,40] (x >= 1 && X y <= 0)",
        # nondeterministic tableaux: locations with several equal guards
        "X (F[0,3] x <= 1 || (y > 2 U[1,3] true)) U[1,3] (G[2,3] x > 0 U[0,2] F[0,2] !y >= 3)",
        "X ((F[1,inf] x <= 2 U[0,3] !y > 2) U[3,3] (F[0,0] y >= 2 -> y > 0 || x > 0))",
    ]
    paths = []
    for i, text in enumerate(specs):
        path = tmp_path / f"s{i}.stl"
        path.write_text(text + "\n", encoding="utf-8")
        paths.append(str(path))
    src = str(Path(arv.__file__).resolve().parents[1])
    outputs = []
    for seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", _DETERMINISM_SCRIPT, *paths],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        first, again = done.stdout.split("--- again\n")
        assert first == again
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]


def test_window_steps_walk_a_concatenation_deeper_than_the_recursion_limit():
    import sys

    from arv.speclang import SreBasic, SreConcat, SreDuration, TimeWindow
    from arv.translate import _window_steps

    depth = sys.getrecursionlimit() + 500
    expr = SreBasic(P.parse_predicate("x <= 1"))
    for i in range(depth):
        expr = SreConcat(expr, SreDuration(SreBasic(P.parse_predicate("y >= 0")), TimeWindow(i % 3, 2)))
    assert _window_steps(expr, "the expression's durations take") == 2 * depth
