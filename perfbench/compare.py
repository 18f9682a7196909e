"""Compare two sets of benchmark results, or summarize one.

    python3 perfbench/compare.py BASE_DIR NEW_DIR
    python3 perfbench/compare.py RUNS_DIR

Each set is a directory of record files (or one such file) written by
``run.py --out``. Runs of the two sets are best made in alternating order
(base, new, base, new, ...) with the same seeds.

For every workload and metric the table gives each set's median and
quartiles, and its spread: the distance between the quartiles as a share
of the median. With two sets it adds the change of the median and a
verdict against the bound that ``BENCHMARK.json`` fixes for the metric:

* ``REGRESSED``  the new median is worse than the base median by more than the bound;
* ``unresolved`` a set's spread is wider than the bound, so no call can be
  made, unless every new run reads better than every base run (``better``);
* ``better``     the new side wins at least nine tenths of the seed-matched
  pairs and the medians differ by more than the base set's quartile distance;
* ``ok``         none of the above.

Per-layer metrics (from ``--trace 1`` runs) have no bound; their medians
and changes are listed for reading. The exit status is 1 when a metric
regressed or a run reported incorrect output, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_set(path: str) -> list[dict]:
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    return [json.loads(f.read_text(encoding="utf-8")) for f in files]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def _group(records):
    """{(workload, metric): {seed: value}} and the set of failed runs."""
    out: dict = defaultdict(dict)
    bad = []
    for r in records:
        res = r["result"]
        if not res["correct"]:
            bad.append(f"{r['workload']} seed {r['seed']} trace {r['trace']}")
        for name, m in res["metrics"].items():
            out[(r["workload"], name)][r["seed"]] = m["value"]
    return out, bad


def _verdict(meta, base: dict, new: dict) -> str:
    if meta is None or "bound" not in meta:
        return ""
    bound, lower = meta["bound"], meta["better"] == "lower"
    a, b = list(base.values()), list(new.values())
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse = (med_b - med_a) / med_a if lower else (med_a - med_b) / med_a

    def better(x, y):  # x reads better than y
        return x < y if lower else x > y

    if max(spread(a), spread(b)) > bound:
        return "better" if all(better(y, x) for x in a for y in b) else "unresolved"
    if worse > bound:
        return "REGRESSED"
    seeds = sorted(set(base) & set(new))
    wins = sum(1 for s in seeds if better(new[s], base[s]))
    q1, _, q3 = quartiles(a)
    if seeds and wins >= 0.9 * len(seeds) and abs(med_b - med_a) > q3 - q1:
        return "better"
    return "ok"


def _fmt(v: float) -> str:
    return f"{v:.4g}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="compare benchmark result sets")
    ap.add_argument("sets", nargs="+", help="one or two result directories (or record files)")
    args = ap.parse_args(argv)
    if len(args.sets) > 2:
        ap.error("give one set, or two: base and new")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    meta = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    sets = [_group(load_set(s)) for s in args.sets]
    status = 0
    for label, (_, bad) in zip(("base", "new"), sets):
        for b in bad:
            print(f"INCORRECT OUTPUT in {label} run: {b}")
            status = 1
    keys = sorted(set().union(*(g.keys() for g, _ in sets)))
    header = f"{'workload':<18} {'metric':<30} {'unit':<6}"
    for label in ("base", "new")[: len(sets)]:
        header += f" | {label + ' median [q1, q3] spread':<40}"
    print(header + (" | change  bound  verdict" if len(sets) == 2 else " | bound  steady"))
    for workload, metric in keys:
        m = meta.get(metric)
        row = f"{workload:<18} {metric:<30} {(m or {}).get('unit', ''):<6}"
        cols = []
        for groups, _ in sets:
            values = list(groups.get((workload, metric), {}).values())
            if not values:
                cols.append(None)
                row += f" | {'-':<40}"
                continue
            q1, med, q3 = quartiles(values)
            cols.append(groups[(workload, metric)])
            cell = f"{_fmt(med)} [{_fmt(q1)}, {_fmt(q3)}] {spread(values):.3f} n={len(values)}"
            row += f" | {cell:<40}"
        bound = (m or {}).get("bound")
        if len(sets) == 2 and None not in cols:
            med_a = statistics.median(cols[0].values())
            med_b = statistics.median(cols[1].values())
            change = (med_b - med_a) / med_a if med_a else float("nan")
            verdict = _verdict(m, cols[0], cols[1])
            status |= verdict == "REGRESSED"
            row += f" | {change:+.3f} {bound if bound is not None else '-':>6} {verdict}"
        elif len(sets) == 1 and bound is not None and cols[0] is not None:
            s = spread(list(cols[0].values()))
            row += f" | {bound:>5} {'yes' if s < bound / 3 else 'within bound' if s <= bound else 'NO'}"
        print(row)
    return status


if __name__ == "__main__":
    sys.exit(main())
