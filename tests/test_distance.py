import math
import random

import pytest

from arv import predicate as P
from arv.distance import HELD, NEVER, PointwiseDistance, Scorer, default_distance, point_dist, vpd
from arv.generators import CLOSED_OPS, random_dnf, random_valuation
from arv.oracles import vpd_brute_force, vpd_cross_check
from arv.semiring import BOOLEAN, MINMAX, TROPICAL

ABS = PointwiseDistance.ABS_DIFF
D01 = PointwiseDistance.DISCRETE01
INF = math.inf


def dnf(text):
    return P.parse_predicate(text)


def test_point_dist_examples():
    assert point_dist(6.0, 3.0, ABS) == 3.0
    assert point_dist(5.0, 5.0, ABS) == 0.0
    assert point_dist(2.0, 7.0, D01) == 1.0
    assert point_dist(2.0, 2.0, D01) == 0.0


@pytest.mark.parametrize("kind", [ABS, D01])
def test_point_dist_metric_axioms(kind):
    rng = random.Random(8)
    for _ in range(2000):
        a, b, c = (float(rng.randint(-20, 20)) for _ in range(3))
        assert point_dist(a, b, kind) >= 0
        assert (point_dist(a, b, kind) == 0) == (a == b)
        assert point_dist(a, b, kind) == point_dist(b, a, kind)
        assert point_dist(a, b, kind) <= point_dist(a, c, kind) + point_dist(c, b, kind)


def test_default_distance_pairing():
    assert default_distance(BOOLEAN) is D01
    assert default_distance(MINMAX) is ABS
    assert default_distance(TROPICAL) is ABS


def test_vpd_minimization_example():
    raw = dnf("x <= 3 && x <= 5")
    minimized = P.wedge_minimize(raw)
    assert vpd({"x": 6.0}, minimized, TROPICAL, ABS) == 3.0
    assert vpd({"x": 6.0}, raw, TROPICAL, ABS, demonstration=True) == 4.0
    with pytest.raises(ValueError, match="minimal DNF"):
        vpd({"x": 6.0}, raw, TROPICAL, ABS)


def test_a_distance_must_fit_the_carrier():
    """``absdiff`` can exceed the Boolean carrier {0, 1}: ``vpd`` and
    ``decorate`` refuse the pair, and accept every other one."""
    from arv.automaton import decorate
    from arv.fixtures import example_automaton

    guard = P.wedge_minimize(dnf("x <= 1"))
    with pytest.raises(ValueError, match="does not fit"):
        vpd({"x": 1.5}, guard, BOOLEAN, ABS)
    with pytest.raises(ValueError, match="does not fit"):
        decorate(example_automaton(), BOOLEAN, ABS)
    for semiring, kind in ((BOOLEAN, D01), (MINMAX, ABS), (MINMAX, D01), (TROPICAL, ABS), (TROPICAL, D01)):
        assert vpd({"x": 1.0}, guard, semiring, kind) == semiring.e_times
        assert decorate(example_automaton(), semiring, kind).dist is kind


def test_vpd_satisfied_gives_identity():
    for semiring, kind in ((BOOLEAN, D01), (MINMAX, ABS), (TROPICAL, ABS)):
        assert vpd({"x": 5.0}, P.wedge_minimize(dnf("x <= 5")), semiring, kind) == semiring.e_times


def test_vpd_minmax_mixed_literals():
    got = vpd({"x": 4.0, "y": 2.0}, dnf("x <= 3 && !(y < 6)"), MINMAX, ABS)
    assert got == 4.0


def test_vpd_unsat_gives_e_plus():
    for semiring, kind in ((BOOLEAN, D01), (MINMAX, ABS), (TROPICAL, ABS)):
        unsat = P.wedge_minimize(dnf("x >= 5 && x < 5"))
        assert vpd({"x": 0.0}, unsat, semiring, kind) == semiring.e_plus


def test_vpd_brute_force_examples():
    grid = range(-10, 11)
    assert vpd_brute_force({"x": 6.0}, dnf("x <= 3"), TROPICAL, ABS, grid) == 3.0
    assert vpd_brute_force({"x": 0.0}, dnf("x >= 5 && x < 5"), MINMAX, ABS, grid) == INF
    assert vpd_brute_force({"x": 2.0}, dnf("x <= 4"), MINMAX, ABS, grid) == 0.0


def test_vpd_zero_iff_satisfied_closed_literals():
    rng = random.Random(55)
    for _ in range(400):
        variables = ["x"] if rng.random() < 0.5 else ["x", "y"]
        d = random_dnf(rng, variables, ops=CLOSED_OPS)
        v = random_valuation(rng, variables)
        if not P.is_sat(d):
            continue
        for semiring in (BOOLEAN, MINMAX, TROPICAL):
            kind = default_distance(semiring)
            use = P.wedge_minimize(d) if semiring is TROPICAL else d
            value = vpd(v, use, semiring, kind)
            assert (value == semiring.e_times) == P.evaluate(v, d)


def test_engine_matches_grid_fold_sample():
    assert vpd_cross_check(150, seed=7) == 0


def naive_weight(valuation, dnf, semiring, dist):
    """The per-literal fold over the satisfiable clauses: ⊕ (min) over
    clauses of the ⊗ of the violated literals' pointwise distances."""
    best = semiring.e_plus
    for clause in dnf.clauses:
        if not P.is_sat(P.Dnf((clause,))):
            continue
        acc = semiring.e_times
        for lit in clause:
            if isinstance(lit, P.Top) or P.evaluate(valuation, P.Dnf(((lit,),))):
                continue
            c = lit if isinstance(lit, P.Cmp) else lit.arg
            acc = semiring.otimes(acc, point_dist(valuation[c.var], c.k, dist))
        if acc < best:
            best = acc
    return best


def random_guard(rng, atoms):
    """A DNF over a few shared atoms: ``Top``, ``Bottom``, atoms repeated
    within and across clauses, clauses with an atom and its negation, and
    sometimes no clause at all."""
    clauses = []
    for _ in range(rng.randint(0, 4)):
        clause = []
        for _ in range(rng.randint(1, 4)):
            r = rng.random()
            if r < 0.1:
                clause.append(P.TOP)
            elif r < 0.13:
                clause.append(P.BOTTOM)
            else:
                a = rng.choice(atoms)
                clause.append(P.Not(a) if rng.random() < 0.5 else a)
        clauses.append(tuple(clause))
    return P.Dnf(tuple(clauses))


@pytest.mark.parametrize("semiring", [BOOLEAN, MINMAX, TROPICAL], ids=lambda s: s.name)
@pytest.mark.parametrize("kind", [ABS, D01], ids=lambda k: k.value)
def test_scorer_equals_the_per_literal_fold(semiring, kind):
    """Scoring through memoized recipes equals folding every literal, on
    samples that often sit exactly on a threshold (where ``x < k`` fails
    at distance 0); recipes are reused across samples of one scorer."""
    rng = random.Random(2016)
    values = (-1.0, 0.0, 0.5, 1.0, 2.0, 3.0)
    compounds = 0
    for _ in range(150):
        atoms = [
            P.Cmp(rng.choice("xy"), rng.choice(("<", "<=")), float(rng.randint(0, 2)))
            for _ in range(rng.randint(1, 4))
        ]
        guards = [random_guard(rng, atoms) for _ in range(rng.randint(1, 4))]
        scorer = Scorer(guards, semiring, kind)
        for _ in range(12):
            v = {"x": rng.choice(values), "y": rng.choice(values)}
            assert scorer.score(v) == [naive_weight(v, g, semiring, kind) for g in guards]
        compounds += sum(s >= scorer.n_atoms for slots in scorer.shapes for s in slots)
    assert compounds > 0


def test_scorer_slots_at_a_threshold():
    """At ``x = 1``, ``x < 1`` is violated at distance 0 and its negation
    holds: the recipe tells them apart by the truths, not the distance."""
    guards = [dnf("x < 1"), dnf("!(x < 1)"), dnf("x < 0 && y <= 2 || x < 1 && y <= 1"), dnf("false")]
    scorer = Scorer(guards, MINMAX, ABS)
    assert scorer.score({"x": 1.0, "y": 3.0}) == [0.0, 0.0, 1.0, INF]
    (truth,) = scorer.recipes
    shape, compounds = scorer.recipes[truth]
    assert scorer.shapes[shape] == (0, HELD, scorer.n_atoms, NEVER)
    assert compounds == (((1, 2), (0, 3)),)


def test_vpd_refuses_a_value_that_is_not_a_finite_number():
    """A NaN compares false with every threshold, so ``x <= 3`` used to
    score it as violated by 0 and the conjunction as 1."""
    from arv.errors import ParseError

    pred = dnf("x <= 3 && y >= 1")
    with pytest.raises(ParseError, match=r"^non-finite value nan for variable 'x'$"):
        vpd({"x": math.nan, "y": 0.0}, pred, MINMAX, ABS)
    assert vpd({"x": 3.0, "y": 0.0}, pred, MINMAX, ABS) == 1.0
