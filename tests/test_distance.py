import math
import random

import pytest

from arv import predicate as P
from arv.distance import PointwiseDistance, default_distance, point_dist, vpd
from arv.generators import CLOSED_OPS, random_dnf, random_valuation
from arv.oracles import vpd_brute_force, vpd_cross_check
from arv.semiring import BOOLEAN, MINMAX, TROPICAL

ABS = PointwiseDistance.ABS_DIFF
D01 = PointwiseDistance.DISCRETE01
INF = math.inf


def dnf(text):
    return P.to_dnf(P.parse_predicate(text))


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
            assert (value == semiring.e_times) == P.evaluate_dnf(v, d)


def test_engine_matches_grid_fold_sample():
    assert vpd_cross_check(150, seed=7) == 0
