"""Reference verdicts of the benchmark and the checks against them.

The reference of a (workload, seed) pair holds, per trace, ``rho``,
``satisfied``, ``d_phi`` and ``d_not_phi`` as the library computes them.
For prefix series it also holds the row count and a digest of every
``(t, rho, satisfied)`` row. While a reference is made, the quantitative
verdict (the automata's ``rho``) must agree in sign with the qualitative
one (``eval_stl``; for SRE, ``sre_accepts`` on short prefixes, because it
is super-quadratic), and ``satisfied`` must be the verdict the trace
generator aimed for.

Checked-in references live in ``perfbench/expected/<workload>/seed-<n>.json``
for the input variants 0 to ``VARIANTS - 1``; a run with seed ``n`` uses
variant ``n % VARIANTS``, so every seed has one. Regenerate them with

    python3 perfbench/reference.py --workload stl-response --seeds 0-29
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

import corpus

HERE = Path(__file__).resolve().parent
EXPECTED_DIR = HERE / "expected"
# prefixes up to this length are checked against sre_accepts
SRE_ORACLE_PREFIX = 24
# input variants with a checked-in reference
VARIANTS = 30


def jnum(x: float):
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def same(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b) or math.isnan(a) or math.isnan(b):
        return a == b
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def sign_ok(rho: float, satisfied: bool) -> bool:
    """rho > 0 implies satisfied, rho < 0 implies violated."""
    return not ((rho > 0 and not satisfied) or (rho < 0 and satisfied))


def series_digest(rows) -> str:
    """Digest of (t, rho, satisfied) rows, insensitive to number formatting."""
    h = hashlib.sha256()
    for t, rho, sat in rows:
        h.update(f"{int(t)},{float(rho)!r},{bool(sat)}\n".encode())
    return h.hexdigest()


def variant(seed: int) -> int:
    """The input variant, and reference, that a run with this seed uses."""
    return seed % VARIANTS


def expected_path(workload: str, seed: int) -> Path:
    return EXPECTED_DIR / workload / f"seed-{seed}.json"


def load(workload: str, seed: int):
    path = expected_path(workload, seed)
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


# --- making a reference -------------------------------------------------------


def compute(workload: str, seed: int, invocations) -> dict:
    """Reference verdicts from the library, cross-checked by the oracles.

    Raises ``RuntimeError`` on any disagreement, so a reference that would
    enshrine a wrong verdict is never written.
    """
    from arv import monitor as M
    from arv import speclang as S
    from arv.semiring import by_name

    entries = {}
    for inv in invocations:
        e = inv.entry
        _, spec = S.parse_spec_text(e.spec_text)
        semiring = by_name(e.semiring)
        traces = {}
        for t, path in zip(e.traces, inv.trace_paths):
            trace = S.read_trace_csv(str(path))
            where = f"{workload} seed {seed} {e.name}/{t.name}"
            if corpus.mode(workload) == "final":
                v = M.robustness(trace, spec, semiring)  # satisfied is eval_stl's verdict
                doc = {"rho": jnum(v.rho), "satisfied": v.satisfied,
                       "d_phi": jnum(v.d_phi), "d_not_phi": jnum(v.d_not_phi)}
            else:
                rows = M.robustness_prefix_series(trace, spec, semiring)
                for tt, _, sat in rows[:SRE_ORACLE_PREFIX]:
                    prefix = S.Trace(trace.variables, trace.samples[:tt])
                    if sat != S.sre_accepts(prefix, spec):
                        raise RuntimeError(f"{where}: prefix {tt} disagrees with sre_accepts")
                for tt, rho, sat in rows:
                    if not sign_ok(rho, sat):
                        raise RuntimeError(f"{where}: prefix {tt} breaks the sign rule")
                w_pos, w_neg = M.build_monitor_pair(spec, semiring)
                pos, neg = M.ValueStream(w_pos), M.ValueStream(w_neg)
                for sample in trace.samples:
                    pos.step(sample)
                    neg.step(sample)
                _, rho, sat = rows[-1]
                doc = {"rho": jnum(rho), "satisfied": sat,
                       "d_phi": jnum(pos.value), "d_not_phi": jnum(neg.value),
                       "rows": len(rows), "satisfied_rows": sum(1 for r in rows if r[2]),
                       "digest": series_digest(rows)}
            if not sign_ok(float(doc["rho"]), doc["satisfied"]):
                raise RuntimeError(f"{where}: the verdict breaks the sign rule")
            if t.kind in ("sat", "viol") and doc["satisfied"] != (t.kind == "sat"):
                raise RuntimeError(f"{where}: generator aimed for {t.kind}")
            traces[t.name] = doc
        entries[e.name] = {"spec": e.spec, "semiring": e.semiring, "traces": traces}
    return {"workload": workload, "seed": seed, "entries": entries}


# --- checking outputs ---------------------------------------------------------


def _verdict_mismatches(where, exp, got, keys) -> list[str]:
    out = []
    for key in keys:
        if key == "satisfied":
            if got[key] != exp[key]:
                out.append(f"{where}: satisfied {got[key]} != expected {exp[key]}")
        elif not same(float(got[key]), float(exp[key])):
            out.append(f"{where}: {key} {got[key]} != expected {exp[key]}")
    return out


def parse_json_docs(stdout: str) -> list[dict]:
    """The JSON verdict blocks that `arv monitor --json` prints per trace."""
    docs, block = [], None
    for line in stdout.splitlines():
        if block is None and line == "{":
            block = [line]
        elif block is not None:
            block.append(line)
            if line == "}":
                docs.append(json.loads("\n".join(block)))
                block = None
    return docs


def check_final(expected: dict, inv, stdout: str) -> list[str]:
    """Mismatches between one final-mode invocation's output and the reference."""
    e = inv.entry
    exp_traces = expected["entries"][e.name]["traces"]
    docs = parse_json_docs(stdout)
    if len(docs) != len(e.traces):
        return [f"{e.name}: {len(docs)} verdicts printed for {len(e.traces)} traces"]
    out = []
    for t, got in zip(e.traces, docs):
        where = f"{e.name}/{t.name}"
        try:
            if not sign_ok(float(got["rho"]), got["satisfied"]):
                out.append(f"{where}: verdict breaks the sign rule")
            out += _verdict_mismatches(where, exp_traces[t.name], got,
                                       ("rho", "satisfied", "d_phi", "d_not_phi"))
        except (KeyError, TypeError, ValueError) as exc:
            out.append(f"{where}: malformed verdict ({exc!r})")
    return out


def read_series(path: Path):
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "t,rho,satisfied":
        raise ValueError(f"{path.name}: bad header")
    rows = []
    for line in lines[1:]:
        t, rho, sat = line.split(",")
        if sat not in ("true", "false"):
            raise ValueError(f"{path.name}: bad satisfied cell {sat!r}")
        rows.append((int(t), float(rho), sat == "true"))
    return rows


def series_out_path(inv, trace_path: Path) -> Path:
    """Where `arv monitor --prefix-series` puts one trace's series."""
    if len(inv.trace_paths) == 1:
        return inv.series_path
    s = inv.series_path
    return s.with_name(f"{s.stem}.{trace_path.stem}{s.suffix}")


def check_series(expected: dict, inv) -> list[str]:
    """Mismatches between one prefix-series invocation's files and the reference."""
    e = inv.entry
    exp_traces = expected["entries"][e.name]["traces"]
    out = []
    for t, trace_path in zip(e.traces, inv.trace_paths):
        where = f"{e.name}/{t.name}"
        exp = exp_traces[t.name]
        try:
            rows = read_series(series_out_path(inv, trace_path))
        except (OSError, ValueError) as exc:
            out.append(f"{where}: unreadable series ({exc})")
            continue
        if len(rows) != exp["rows"]:
            out.append(f"{where}: {len(rows)} rows != expected {exp['rows']}")
            continue
        bad = [r[0] for r in rows if not sign_ok(r[1], r[2])]
        if bad:
            out.append(f"{where}: rows {bad[:5]} break the sign rule")
        _, rho, sat = rows[-1]
        out += _verdict_mismatches(where, exp, {"rho": rho, "satisfied": sat},
                                   ("rho", "satisfied"))
        if series_digest(rows) != exp["digest"]:
            out.append(f"{where}: series differs from the reference")
    return out


def check_stream(expected: dict, e, t, d_phi: float, d_not_phi: float) -> list[str]:
    """Mismatches of a streamed (positive, negated) pair's final values."""
    exp = expected["entries"][e.name]["traces"][t.name]
    got = {"d_phi": d_phi, "d_not_phi": d_not_phi}
    return _verdict_mismatches(f"{e.name}/{t.name}", exp, got, ("d_phi", "d_not_phi"))


# --- command line ------------------------------------------------------------


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    import run

    ap = argparse.ArgumentParser(description="write checked-in reference verdicts")
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seeds", required=True, help="e.g. 0-39 or 1,5,7")
    args = ap.parse_args(argv)
    seeds = _seeds(args.seeds)
    if any(not 0 <= s < VARIANTS for s in seeds):
        ap.error(f"seeds are input variants, 0 to {VARIANTS - 1}")
    run.import_arv()
    for seed in seeds:
        with tempfile.TemporaryDirectory(dir=run.work_root()) as tmp:
            invocations = corpus.write_inputs(args.workload, seed, Path(tmp))
            doc = compute(args.workload, seed, invocations)
        path = expected_path(args.workload, seed)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(HERE.parent)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
