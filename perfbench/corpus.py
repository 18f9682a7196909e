"""Workloads of the arv benchmark and their seeded input generators.

A workload is a list of entries. An entry is one `arv monitor` invocation:
one specification, one semiring, and a batch of traces. Traces are built
from the seed alone, so the same seed gives the same files. Sample values
are multiples of 1/4, which binary floating point represents exactly, so
tropical sums do not depend on the order in which a monitor adds them.

The structure of every trace (its length, and where a violation is placed)
is fixed per entry; the seed only draws the free sample values. That keeps
the work per run nearly independent of the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("stl-response", "sre-prefix-series")


@dataclass(frozen=True)
class TraceSpec:
    """One trace of an entry: its name and how to draw it."""

    name: str
    length: int
    kind: str  # "sat" or "viol", the verdict the generator aims for, or "any"


@dataclass(frozen=True)
class Entry:
    """One `arv monitor` invocation of a workload."""

    name: str
    lang: str  # "stl" or "sre"
    spec: str
    semiring: str
    family: str  # selects the trace generator below
    traces: tuple[TraceSpec, ...]
    threshold: float = 0.0  # generator parameter: the atom's constant
    window: int = 0  # generator parameter: the F window
    scope: int | None = None  # bounded outer G, or None when unbounded

    @property
    def samples(self) -> int:
        return sum(t.length for t in self.traces)

    @property
    def spec_text(self) -> str:
        return f"#lang {self.lang}\n{self.spec}\n"


def _batch(length: int) -> tuple[TraceSpec, ...]:
    return (TraceSpec("sat", length, "sat"), TraceSpec("viol", length, "viol"))


# Response-family traces are short enough that a run holds several passes:
# the largest automata step at about a millisecond per sample.
RESPONSE_LEN = 200


def _stl_response() -> list[Entry]:
    entries = []
    for k, semiring in zip((3, 4, 5, 6), ("minmax", "tropical", "minmax", "boolean")):
        entries.append(
            Entry(f"response-k{k}", "stl", f"G(x <= 5 -> F[0,{k}] y >= 2)", semiring,
                  "response", _batch(RESPONSE_LEN), threshold=2.0, window=k)
        )
    entries += [
        Entry("bounded-response", "stl", "G[0,10](x <= 5 -> F[0,5] y >= 2)", "tropical",
              "response", _batch(RESPONSE_LEN), threshold=2.0, window=5, scope=10),
        Entry("recurrence", "stl", "G F[0,5] x >= 9", "boolean",
              "recurrence", _batch(RESPONSE_LEN), threshold=9.0, window=5),
        Entry("bounded-recurrence", "stl", "G[0,20] F[0,5] x >= 8", "minmax",
              "recurrence", _batch(RESPONSE_LEN), threshold=8.0, window=5, scope=20),
        # the quadratic case of the qualitative evaluator: x >= 9 only at the end
        Entry("gf-last", "stl", "G F x >= 9", "tropical", "last-hit",
              (TraceSpec("long", 2_000, "sat"),), threshold=9.0),
    ]
    return entries


SRE_LEN = 1_000


def _sre_prefix_series() -> list[Entry]:
    return [
        Entry("intersect", "sre", "(T ; <x <= 2>[2,4] ; T) & (T ; <y >= 8>[1,3] ; T)",
              "minmax", "uniform", (TraceSpec("a", SRE_LEN, "any"), TraceSpec("b", SRE_LEN, "any"))),
        Entry("duration", "sre", "T ; <x >= 8>[3,10] ; T", "tropical", "uniform",
              (TraceSpec("a", SRE_LEN, "any"), TraceSpec("b", SRE_LEN, "any"))),
        Entry("star", "sre", "(<x <= 7>[1,5] ; <y >= 2>[1,3])*", "boolean", "blocks",
              _batch(SRE_LEN)),
    ]


def entries(workload: str) -> list[Entry]:
    if workload == "stl-response":
        return _stl_response()
    if workload == "sre-prefix-series":
        return _sre_prefix_series()
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def mode(workload: str) -> str:
    return "prefix-series" if workload == "sre-prefix-series" else "final"


# --- trace generators ---------------------------------------------------------


def _q(rng: random.Random, lo: float, hi: float) -> float:
    """A multiple of 1/4 in [lo, hi]."""
    return rng.randint(round(lo * 4), round(hi * 4)) / 4


def _response(rng, e: Entry, t: TraceSpec):
    """G(x <= 5 -> F[0,k] y >= 2): y >= 2 recurs every k+1 samples and at
    the end; a violation is x <= 5 followed by k+1 samples of y < 2."""
    n, k = t.length, e.window
    rows = []
    for i in range(n):
        x = _q(rng, 0, 10)
        forced = i % (k + 1) == 0 or i == n - 1
        y = _q(rng, e.threshold, 4) if forced else _q(rng, 0, 4)
        rows.append([x, y])
    if t.kind == "viol":
        p = e.scope // 2 if e.scope is not None else (3 * n) // 4
        rows[p][0] = _q(rng, 0, 5)
        for j in range(p, p + k + 1):
            rows[j][1] = _q(rng, 0, e.threshold - 0.25)
    return ("x", "y"), rows


def _recurrence(rng, e: Entry, t: TraceSpec):
    """G F[0,k] x >= c: x >= c every k+1 samples and at the end; a
    violation is k+1 samples of x < c."""
    n, k, c = t.length, e.window, e.threshold
    rows = []
    for i in range(n):
        forced = i % (k + 1) == 0 or i == n - 1
        rows.append([_q(rng, c, 10) if forced else _q(rng, 0, 10)])
    if t.kind == "viol":
        p = e.scope // 2 if e.scope is not None else (3 * n) // 4
        for j in range(p, p + k + 1):
            rows[j][0] = _q(rng, 0, c - 0.25)
    return ("x",), rows


def _last_hit(rng, e: Entry, t: TraceSpec):
    """G F x >= c with x >= c only at the last sample."""
    c, n = e.threshold, t.length
    return ("x",), [[_q(rng, c, 10) if i == n - 1 else _q(rng, 0, c - 0.25)] for i in range(n)]


def _uniform(rng, e: Entry, t: TraceSpec):
    return ("x", "y"), [[_q(rng, 0, 10), _q(rng, 0, 10)] for _ in range(t.length)]


def _blocks(rng, e: Entry, t: TraceSpec):
    """(<x <= 7>[1,5] ; <y >= 2>[1,3])*: alternating blocks that follow
    the pattern; the violating trace breaks it once at half length."""
    rows = []
    while len(rows) < t.length:
        left = t.length - len(rows)
        if left <= 8:  # the last pair of blocks ends exactly at the end
            a = min(5, left - 1)
            b = left - a
        else:
            a, b = rng.randint(1, 5), rng.randint(1, 3)
            if left - a - b == 1:  # a single sample cannot hold a pair
                a, b = (a, b + 1) if b < 3 else (a + 1, b) if a < 5 else (a, b - 1)
        rows += [[_q(rng, 0, 7), _q(rng, 0, 1.75)] for _ in range(a)]
        rows += [[_q(rng, 7.25, 10), _q(rng, 2, 10)] for _ in range(b)]
    if t.kind == "viol":
        rows[t.length // 2] = [_q(rng, 7.25, 10), _q(rng, 0, 1.75)]
    return ("x", "y"), rows


_GENERATORS = {
    "response": _response,
    "recurrence": _recurrence,
    "last-hit": _last_hit,
    "uniform": _uniform,
    "blocks": _blocks,
}


def trace_rows(e: Entry, t: TraceSpec, seed: int, index: int):
    """(variables, rows) of one trace; depends only on the arguments."""
    rng = random.Random(f"{seed}/{e.name}/{index}/{t.name}")
    return _GENERATORS[e.family](rng, e, t)


def _fmt(v: float) -> str:
    return str(int(v)) if v.is_integer() else repr(v)


@dataclass(frozen=True)
class Invocation:
    """The files of one entry, as written for the command line."""

    entry: Entry
    spec_path: Path
    trace_paths: tuple[Path, ...]
    series_path: Path  # prefix-series target; unused in final mode


def write_inputs(workload: str, seed: int, workdir: Path, only=None) -> list[Invocation]:
    """Write every entry's spec and trace CSV files into ``workdir``."""
    workdir.mkdir(parents=True, exist_ok=True)
    out = []
    for i, e in enumerate(entries(workload)):
        if only is not None and e.name not in only:
            continue
        spec_path = workdir / f"{e.name}.spec"
        spec_path.write_text(e.spec_text, encoding="utf-8")
        paths = []
        for j, t in enumerate(e.traces):
            variables, rows = trace_rows(e, t, seed, i * 16 + j)
            path = workdir / f"{e.name}-{t.name}.csv"
            lines = [",".join(variables)] + [",".join(_fmt(v) for v in row) for row in rows]
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            paths.append(path)
        out.append(Invocation(e, spec_path, tuple(paths), workdir / f"series-{e.name}.csv"))
    return out
