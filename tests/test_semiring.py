import math
import random

import pytest

from arv.semiring import BOOLEAN, MINMAX, SEMIRINGS, TROPICAL, _max, by_name, to_signed

INF = math.inf
ALL = (BOOLEAN, MINMAX, TROPICAL)


def samples(semiring, rng, n):
    if semiring is BOOLEAN:
        pool = [0.0, 1.0]
        return [rng.choice(pool) for _ in range(n)]
    out = []
    for _ in range(n):
        r = rng.random()
        out.append(INF if r < 0.05 else float(rng.randint(0, 40)))
    return out


def test_instance_tables():
    assert TROPICAL.oplus(3.0, 5.0) == 3.0
    assert TROPICAL.oplus(7.0, INF) == 7.0
    assert BOOLEAN.oplus(0.0, 1.0) == 0.0
    assert TROPICAL.otimes(3.0, 5.0) == 8.0
    assert MINMAX.otimes(4.0, 0.0) == 4.0
    assert TROPICAL.otimes(3.0, INF) == INF
    assert (BOOLEAN.e_plus, BOOLEAN.e_times) == (1.0, 0.0)
    assert (MINMAX.e_plus, MINMAX.e_times) == (INF, 0.0)
    assert (TROPICAL.e_plus, TROPICAL.e_times) == (INF, 0.0)


def test_instance_flags():
    assert BOOLEAN.multiplicatively_idempotent and MINMAX.multiplicatively_idempotent
    assert not TROPICAL.multiplicatively_idempotent


def test_every_oplus_is_min():
    """The value stream relaxes edges with ``<`` and takes ``min`` over
    live costs, which is exact only while every ⊕ is min."""
    grid = (0.0, 0.25, 1.0, 2.5, INF)
    for semiring in SEMIRINGS.values():
        for a in grid:
            for b in grid:
                assert semiring.oplus(a, b) == min(a, b), (semiring.name, a, b)


def test_max_otimes_is_builtin_max():
    """``_max`` keeps builtin ``max``'s two-argument rule: the first
    argument unless the second is greater, so ties between ``0.0`` and
    ``-0.0`` and a NaN in either position come out the same."""
    assert BOOLEAN.otimes is _max and MINMAX.otimes is _max
    grid = (-INF, -2.5, -0.0, 0.0, 1.0, 3.0, INF, math.nan)
    for a in grid:
        for b in grid:
            got, want = _max(a, b), max(a, b)
            if math.isnan(want):
                assert math.isnan(got), (a, b)
            else:
                assert got == want, (a, b)
                assert math.copysign(1.0, got) == math.copysign(1.0, want), (a, b)
    assert math.copysign(1.0, _max(0.0, -0.0)) == 1.0
    assert math.copysign(1.0, _max(-0.0, 0.0)) == -1.0
    assert math.isnan(_max(math.nan, 1.0)) and _max(1.0, math.nan) == 1.0


def test_by_name():
    assert by_name("Tropical") is TROPICAL
    with pytest.raises(ValueError):
        by_name("viterbi")


@pytest.mark.parametrize("semiring", ALL, ids=lambda s: s.name)
def test_axioms_on_random_triples(semiring):
    rng = random.Random(101)
    vals = samples(semiring, rng, 3 * 10_500)
    it = iter(vals)
    for a, b, c in zip(it, it, it):
        assert semiring.oplus(a, b) == semiring.oplus(b, a)
        assert semiring.oplus(semiring.oplus(a, b), c) == semiring.oplus(a, semiring.oplus(b, c))
        assert semiring.otimes(semiring.otimes(a, b), c) == semiring.otimes(a, semiring.otimes(b, c))
        assert semiring.otimes(a, semiring.oplus(b, c)) == semiring.oplus(
            semiring.otimes(a, b), semiring.otimes(a, c)
        )
        assert semiring.oplus(a, semiring.e_plus) == a
        assert semiring.otimes(a, semiring.e_times) == a
        # e_plus annihilates multiplication; boundedness: e_times annihilates addition
        assert semiring.otimes(a, semiring.e_plus) == semiring.e_plus
        assert semiring.oplus(a, semiring.e_times) == semiring.e_times
        assert semiring.oplus(a, a) == a
        if semiring.multiplicatively_idempotent:
            assert semiring.otimes(a, a) == a


@pytest.mark.parametrize("semiring", ALL, ids=lambda s: s.name)
def test_natural_order_is_partial_order(semiring):
    rng = random.Random(77)
    vals = samples(semiring, rng, 3000)
    for a in vals[:300]:
        assert semiring.nat_leq(a, a)
    it = iter(vals)
    for a, b, c in zip(it, it, it):
        if semiring.nat_leq(a, b) and semiring.nat_leq(b, a):
            assert a == b
        if semiring.nat_leq(a, b) and semiring.nat_leq(b, c):
            assert semiring.nat_leq(a, c)


@pytest.mark.parametrize("semiring", ALL, ids=lambda s: s.name)
def test_natural_order_bounds_and_monotonicity(semiring):
    rng = random.Random(13)
    vals = samples(semiring, rng, 3000)
    for a in vals:
        assert semiring.nat_leq(semiring.e_times, a)
        assert semiring.nat_leq(a, semiring.e_plus)
    it = iter(vals)
    for a, b, c in zip(it, it, it):
        if semiring.nat_leq(a, b):
            assert semiring.nat_leq(semiring.oplus(a, c), semiring.oplus(b, c))
            assert semiring.nat_leq(semiring.otimes(a, c), semiring.otimes(b, c))


def test_natural_order_examples():
    assert TROPICAL.nat_leq(3.0, 5.0)
    assert not BOOLEAN.nat_leq(1.0, 0.0)
    assert BOOLEAN.nat_leq(0.0, 1.0)


def test_to_signed():
    assert to_signed(INF, negate=True) == -INF
    assert to_signed(0.0, negate=False) == 0.0
    assert to_signed(3.0, negate=True) == -3.0
    negzero = to_signed(0.0, negate=True)
    assert negzero == 0.0 and math.copysign(1.0, negzero) == 1.0
    assert to_signed(1.0, negate=False) == 1.0


def test_fold_helpers():
    assert TROPICAL.sum([]) == INF
    assert TROPICAL.product([]) == 0.0
    assert MINMAX.sum([4.0, 2.0, 9.0]) == 2.0
    assert TROPICAL.product([1.0, 2.0, 3.0]) == 6.0
