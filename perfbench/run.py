"""The arv benchmark: `arv monitor`, timed end to end, on one workload.

    python3 perfbench/run.py --workload stl-response --seed 1 --seconds 60 --trace 0

A run writes the workload's spec and trace files from the seed, loads the
reference verdicts of that input variant (checked in under
``perfbench/expected``; see ``reference.variant``), and then measures for
about ``--seconds`` seconds in one process and one thread.
A pass runs the workload's `arv monitor` invocations one at a time,
in-process through ``arv.cli.main`` with stdout captured (a closed loop),
and checks every invocation's output against the reference.

* With ``--trace 0`` each iteration compiles every spec once, streams
  every trace one sample at a time through its entry's compiled
  (positive, negated) ``ValueStream`` pair, runs one pass, and streams
  again. Times are best-of-N per unit (see ``best_sum``).
* With ``--trace 1`` untraced and traced passes alternate; the traced ones
  record spans around arv's call boundaries (see ``spans.py``).

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0`` and
the per-layer metrics with ``--trace 1``, as named in ``BENCHMARK.json``.
The lines before it print the same metrics as a table, ``fail_frac``, and
with ``--trace 1`` one size row per spec.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from array import array
from functools import partial
from pathlib import Path

import corpus
import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
MIN_PASSES = {0: 3, 1: 2}

END_TO_END_UNITS = {
    "run_s": "s",
    "samples_per_s": "1/s",
    "setup_s": "s",
    "step_us_p50": "us",
    "step_us_p95": "us",
    "peak_rss_mb": "MB",
}


def import_arv():
    """Put the checkout's ``src`` first on the import path."""
    src = ROOT / "src"
    if not (src / "arv" / "cli.py").is_file():
        raise SystemExit(f"error: no arv sources at {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))


def work_root() -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR


def argv_of(inv, mode: str) -> list[str]:
    argv = ["monitor", "--spec", str(inv.spec_path), "--semiring", inv.entry.semiring]
    for path in inv.trace_paths:
        argv += ["--trace", str(path)]
    if mode == "prefix-series":
        return argv + ["--prefix-series", str(inv.series_path)]
    return argv + ["--json"]


class Bench:
    """One run: inputs, reference, compiled pairs and the measured passes."""

    def __init__(self, workload: str, seed: int, workdir: Path, only=None, expected=None):
        from arv import cli

        self.cli = cli
        self.workload = workload
        self.mode = corpus.mode(workload)
        seed = reference.variant(seed)
        self.invocations = corpus.write_inputs(workload, seed, workdir, only)
        self.argvs = [argv_of(inv, self.mode) for inv in self.invocations]
        self.samples = sum(inv.entry.samples for inv in self.invocations)
        if expected is None:
            expected = reference.load(workload, seed)
        if expected is None:
            raise SystemExit(f"error: no reference verdicts at {reference.expected_path(workload, seed)}")
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.pairs: dict = {}

    # --- set-up -----------------------------------------------------------

    def setup_round(self) -> list[float]:
        """Parse + build_monitor_pair once per spec; returns each one's time."""
        from arv import monitor as M
        from arv import speclang as S
        from arv.semiring import by_name

        times = []
        gc.collect()
        for inv in self.invocations:
            e = inv.entry
            t0 = time.perf_counter()
            _, spec = S.parse_spec_text(e.spec_text)
            pair = M.build_monitor_pair(spec, by_name(e.semiring))
            times.append(time.perf_counter() - t0)
            self.pairs[e.name] = pair
        return times

    # --- command-line passes ------------------------------------------------

    def cli_pass(self, rec=None) -> list[float]:
        """Run every invocation once; returns the wall time of each."""
        outputs, times = [], []
        gc.collect()
        for inv, argv in zip(self.invocations, self.argvs):
            if rec is not None:
                rec.op += 1
                rec.entry = inv.entry.name
            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = self.cli.main(argv)
            except (Exception, SystemExit) as exc:  # a crash counts as a failed invocation
                code = exc
            times.append(time.perf_counter() - t0)
            outputs.append((inv, code, out.getvalue(), err.getvalue()))
        for inv, code, out, err in outputs:
            self._judge(inv.entry.name, partial(self._check_invocation, inv, code, out, err))
        return times

    def _check_invocation(self, inv, code, out: str, err: str) -> list[str]:
        if code != 0:
            return [f"exit {code!r}: {err.strip()[:200]}"]
        if self.mode == "final":
            return reference.check_final(self.expected, inv, out)
        return reference.check_series(self.expected, inv)

    def _judge(self, label: str, check):
        """Count one operation; ``check()`` lists what is wrong with it."""
        self.attempted += 1
        try:
            problems = check()
        except KeyError as exc:
            problems = [f"reference lacks {exc}"]
        if problems:
            self.failed += 1
            for p in problems[:3]:
                print(f"FAIL {label}: {p}", file=sys.stderr)

    # --- streaming passes ---------------------------------------------------

    def load_traces(self):
        from arv.speclang import read_trace_csv

        self.streams = [
            (inv.entry, t, read_trace_csv(str(path)).samples)
            for inv in self.invocations
            for t, path in zip(inv.entry.traces, inv.trace_paths)
        ]

    def stream_pass(self, best: array):
        """Feed each trace through its compiled pair one sample at a time.

        ``best`` holds, per sample position over all traces, the fastest
        latency seen so far in nanoseconds; it is lowered in place."""
        from arv.monitor import ValueStream

        clock = time.perf_counter_ns
        gc.collect()
        i = 0
        for e, t, samples in self.streams:
            w_pos, w_neg = self.pairs[e.name]
            pos, neg = ValueStream(w_pos), ValueStream(w_neg)
            step_pos, step_neg = pos.step, neg.step
            for sample in samples:
                t0 = clock()
                step_pos(sample)
                step_neg(sample)
                d = clock() - t0
                if d < best[i]:
                    best[i] = d
                i += 1
            self._judge(f"{e.name}/{t.name} stream", partial(
                reference.check_stream, self.expected, e, t, pos.value, neg.value))

    # --- sizes ----------------------------------------------------------------

    def size_rows(self, peaks) -> list[dict]:
        from arv.predicate import print_predicate

        rows = []
        for inv in self.invocations:
            e = inv.entry
            row = {"entry": e.name, "spec": e.spec, "semiring": e.semiring}
            for role, w in zip(("pos", "neg"), self.pairs[e.name]):
                row[f"{role}_locations"] = w.base.n_locations
                row[f"{role}_transitions"] = len(w.base.transitions)
                row[f"{role}_guards"] = len({print_predicate(g) for _, g, _ in w.base.transitions})
                row[f"{role}_live_peak"] = peaks.get((e.name, role), 0)
            rows.append(row)
        return rows


def _percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def best_sum(times) -> float:
    """Sum over units (invocations, specs) of each unit's fastest time.

    The work of a unit is the same in every pass, so its fastest time is
    the one least disturbed by other tenants of a shared machine. Measured
    on a 2-vCPU VM whose speed switched by up to 1.5x within seconds, the
    per-unit median moved by 30% between runs and the fastest time by 6%.
    """
    return sum(min(t) for t in times)


def _loop(seconds: float, min_passes: int, body):
    """Call ``body`` until the next call would end after ``seconds``."""
    start = time.perf_counter()
    n = 0
    last = 0.0
    while n < min_passes or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        body()
        last = time.perf_counter() - t0
        n += 1


def end_to_end(bench: Bench, seconds: float, min_passes: int):
    """The end-to-end metrics of one untraced run, and their table."""
    bench.load_traces()
    setups, passes = [], []
    best = array("q", [2**62]) * bench.samples

    def body():
        setups.append(bench.setup_round())
        bench.stream_pass(best)
        passes.append(bench.cli_pass())
        # a second streaming pass: the step percentiles rank per-sample
        # minima, which need more repetitions than whole invocations do
        bench.stream_pass(best)

    _loop(seconds, min_passes, body)
    run_s = best_sum(list(zip(*passes)))
    lat = sorted(best)
    metrics = {
        "run_s": run_s,
        "samples_per_s": bench.samples / run_s,
        "setup_s": best_sum(list(zip(*setups))),
        "step_us_p50": _percentile(lat, 0.50) / 1e3,
        "step_us_p95": _percentile(lat, 0.95) / 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    lines = [f"# {len(passes)} passes of {len(bench.invocations)} invocations, "
             f"{bench.samples} samples each; {2 * len(passes)} streaming passes; "
             f"{len(setups)} set-up rounds"]
    for name, value in metrics.items():
        lines.append(f"{name:<16} {value:>14.6g} {END_TO_END_UNITS[name]}")
    return metrics, lines


def per_layer(bench: Bench, seconds: float, min_passes: int):
    """The per-layer metrics of one traced run, and their table."""
    import spans

    plain, traced, layers, recs = [], [], [], []

    def body():
        plain.append(bench.cli_pass())
        rec = spans.Recorder()
        t0 = time.perf_counter()
        with spans.tracing(rec):
            times = bench.cli_pass(rec)
        layers.append(spans.layer_metrics(rec, time.perf_counter() - t0))
        traced.append(times)
        recs.append(rec)

    bench.setup_round()
    observed = spans.Recorder()
    t0 = time.perf_counter()
    with spans.observing(observed):
        bench.cli_pass(observed)
    _loop(seconds - (time.perf_counter() - t0), min_passes, body)
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    metrics.update(spans.live_metrics(observed.live))
    rows = bench.size_rows(observed.live.peak_by_role)
    for role, prefix in (("pos", "translate."), ("neg", "translate.neg_")):
        metrics[f"{prefix}locations"] = sum(r[f"{role}_locations"] for r in rows)
        metrics[f"{prefix}transitions"] = sum(r[f"{role}_transitions"] for r in rows)
    metrics["translate.distinct_guards"] = sum(r["pos_guards"] for r in rows)
    metrics["bench.trace_overhead_s"] = best_sum(list(zip(*traced))) - best_sum(list(zip(*plain)))
    lines = [f"# {len(traced)} traced and {len(plain)} untraced passes"]
    for r in rows:
        lines.append(
            f"size {r['entry']:<20} {r['semiring']:<8} "
            f"pos {r['pos_locations']:>5} loc {r['pos_transitions']:>6} tr "
            f"{r['pos_guards']:>3} guards {r['pos_live_peak']:>5} live-peak | "
            f"neg {r['neg_locations']:>5} loc {r['neg_transitions']:>6} tr "
            f"{r['neg_guards']:>3} guards {r['neg_live_peak']:>5} live-peak")
    for name in sorted(metrics):
        lines.append(f"{name:<32} {metrics[name]:>14.6g}")
    _write_spans(bench, recs, rows)
    return metrics, lines


def _write_spans(bench: Bench, recs, rows):
    path = work_root() / f"spans-{bench.workload}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps({"size": row}) + "\n")
        keys = ("name", "start", "end", "parent", "op", "child_s", "calls", "busy_s")
        for i, rec in enumerate(recs):
            for span in rec.spans:
                fh.write(json.dumps({"pass": i, **dict(zip(keys, span))}) + "\n")


def run(workload: str, seed: int, seconds: float, trace: int, only=None,
        expected=None, min_passes=None):
    """Measure one workload; returns (result object, text lines)."""
    import_arv()
    workdir = work_root() / f"run-{os.getpid()}"
    try:
        bench = Bench(workload, seed, workdir, only, expected)
        if min_passes is None:
            min_passes = MIN_PASSES[trace]
        measure = per_layer if trace else end_to_end
        metrics, lines = measure(bench, seconds, min_passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    fail_frac = bench.failed / max(bench.attempted, 1)
    lines.append(f"fail_frac {fail_frac:.6g} ({bench.failed} of {bench.attempted} checked)")
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    return result, lines


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write {workload, seed, trace, result} here, for compare.py")
    args = ap.parse_args(argv)
    result, lines = run(args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "result": result}
        Path(args.out).write_text(json.dumps(record) + "\n", encoding="utf-8")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
