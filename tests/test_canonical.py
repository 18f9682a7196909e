"""One DFA per language: ``determinize`` returns the minimal DFA over the
coarsest alphabet, its guards printed as their maximal boxes, so equal
languages give byte-equal ``arv translate --json``."""

import random
import time
from pathlib import Path

import pytest

from arv import predicate as P
from arv import speclang as S
from arv.automaton import to_json
from arv.cli import main
from arv.generators import random_sre, random_stl
from arv.intervals import complement_cover
from arv.monitor import spec_dfa
from arv.oracles import dfa_equivalent, is_deterministic_complete
from arv.speclang import parse_spec_text
from conftest import benchmark_entries

GOLDEN = Path(__file__).resolve().parent / "golden"
WORKED_EXAMPLE = "F (x <= 5 && G[0,1](x <= 3 && y > 6))\n"


def dfa(text):
    return spec_dfa(parse_spec_text(text)[1])


def _translate_json(tmp_path, text):
    spec = tmp_path / "spec.txt"
    spec.write_text(text, encoding="utf-8")
    out = tmp_path / "out.json"
    assert main(["translate", "--spec", str(spec), "--json", str(out)]) == 0
    return out.read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "name, text",
    [(e.name, e.spec_text) for e in benchmark_entries()] + [("worked-example", WORKED_EXAMPLE)],
)
def test_translate_json_matches_golden_file(tmp_path, name, text):
    assert _translate_json(tmp_path, text) == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


def _without_variables(text):
    return text[text.index('"locations"'):]


def test_absorbed_disjunct_gives_the_same_dfa():
    # the second formula mentions y, so only the variable lists differ
    one, two = to_json(dfa("F(x <= 1)")), to_json(dfa("F(x <= 1) || F(x <= 1 && y > 3)"))
    assert one != two
    assert _without_variables(one) == _without_variables(two)


def test_split_conjunction_gives_the_same_dfa():
    assert to_json(dfa("G(x <= 1 && y <= 1)")) == to_json(dfa("G(x <= 1) && G(y <= 1)"))


def _rewrite(rng):
    """A random formula and a rewrite of it with the same language: an
    absorption, a case split on a second formula over no new variables,
    or an ``F`` window split in two."""
    phi = random_stl(rng, ["x", "y"], depth=2)
    psi = random_stl(rng, ["x", "y"], depth=2)
    while not S.stl_variables(psi) <= S.stl_variables(phi):
        psi = random_stl(rng, ["x", "y"], depth=2)
    kind = rng.randrange(4)
    if kind == 0:
        return phi, S.Or(phi, S.And(phi, psi))
    if kind == 1:
        return phi, S.And(phi, S.Or(phi, psi))
    if kind == 2:
        return phi, S.Or(S.And(phi, psi), S.And(phi, S.Not(psi)))
    hi = rng.randint(1, 4)
    mid = rng.randrange(hi)
    return (
        S.Eventually(phi, S.TimeWindow(0, hi)),
        S.Or(S.Eventually(phi, S.TimeWindow(0, mid)), S.Eventually(phi, S.TimeWindow(mid + 1, hi))),
    )


def test_meaning_preserving_rewrites_give_byte_equal_json():
    rng = random.Random(19)
    for _ in range(300):
        phi, rewritten = _rewrite(rng)
        a, b = spec_dfa(phi), spec_dfa(rewritten)
        assert dfa_equivalent(a, b), (S.print_stl(phi), S.print_stl(rewritten))
        assert to_json(a) == to_json(b), (S.print_stl(phi), S.print_stl(rewritten))


def test_wide_conjunction_keeps_two_minterms():
    text = "G(" + " && ".join(f"x{i} < 1" for i in range(16)) + ")"
    t0 = time.perf_counter()
    d = dfa(text)
    elapsed = time.perf_counter() - t0
    assert (d.n_locations, len(d.transitions)) == (2, 4)
    assert elapsed < 1.0


def _maximal_and_sorted(guard, variables):
    boxes = P.dnf_boxes(guard, variables)
    key = lambda box: [(c.lo, c.hi, c.lo_closed, c.hi_closed) for c in box.components]
    maximal = complement_cover(complement_cover(boxes, len(variables)), len(variables))
    return boxes == sorted(maximal, key=key)


def test_every_guard_is_its_regions_maximal_boxes():
    rng = random.Random(1901)
    texts = [e.spec_text for e in benchmark_entries()] + [WORKED_EXAMPLE]
    for i in range(120):
        if i % 2:
            texts.append("#lang sre\n" + S.print_sre(random_sre(rng, ["x", "y"], depth=3)) + "\n")
        else:
            texts.append(S.print_stl(random_stl(rng, ["x", "y"], depth=3)) + "\n")
    for text in texts:
        d = dfa(text)
        variables = list(d.variables) or ["_"]
        assert is_deterministic_complete(d), text
        for _, guard, _ in d.transitions:
            assert guard.wedge_minimal
            assert _maximal_and_sorted(guard, variables), (text, P.print_predicate(guard))
