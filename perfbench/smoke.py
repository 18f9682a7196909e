"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

For each workload it runs the smallest entry for one pass, untraced and
traced, and checks that the run is correct and that the metric names it
emits are exactly those ``BENCHMARK.json`` lists. It then perturbs one
reference verdict and checks that the correctness check catches it, and
checks that the benchmark refuses to run where no arv sources exist.
Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile

import corpus
import reference
import run

failures = 0


def check(ok: bool, what: str):
    global failures
    failures += not ok
    print(f"{'PASS' if ok else 'FAIL'} {what}", flush=True)


def smallest(workload: str) -> str:
    return min(corpus.entries(workload), key=lambda e: e.samples).name


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
             1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    check(sorted(w["name"] for w in bench["workloads"]) == sorted(corpus.WORKLOADS),
          "BENCHMARK.json names the workloads the corpus defines")
    for workload in corpus.WORKLOADS:
        name = smallest(workload)
        exp = reference.load(workload, 0)
        for trace in (0, 1):
            result, _ = run.run(workload, 0, 0, trace, only={name}, expected=exp, min_passes=1)
            where = f"{workload}/{name} trace {trace}"
            check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                  f"{where}: correct, {result['attempted']} checked")
            check({n: m["unit"] for n, m in result["metrics"].items()} == units[trace],
                  f"{where}: metric names and units match BENCHMARK.json")
            values = [m["value"] for m in result["metrics"].values()]
            check(all(isinstance(v, (int, float)) and math.isfinite(v) for v in values),
                  f"{where}: every metric is a finite number")
            if trace == 0:
                check(all(v > 0 for v in values), f"{where}: every end-to-end metric is above 0")
        bad = copy.deepcopy(exp)
        first = next(iter(bad["entries"][name]["traces"].values()))
        first["satisfied"] = not first["satisfied"]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            result, _ = run.run(workload, 0, 0, 0, only={name}, expected=bad, min_passes=1)
        check(not result["correct"] and result["failed"] > 0 and "satisfied" in err.getvalue(),
              f"{workload}/{name}: a perturbed reference verdict is caught")

    with tempfile.TemporaryDirectory(dir=run.work_root()) as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.HERE, f"{tmp}/perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "stl-response", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180,
        )
        check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
              f"without arv sources the run exits {proc.returncode} and prints no result")
    print("all checks pass" if failures == 0 else f"{failures} checks failed")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
