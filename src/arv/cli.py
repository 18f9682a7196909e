"""Batch command-line front end.

Subcommands: ``monitor`` (verdict or prefix series for trace files),
``translate`` (the DFA ``monitor`` runs, as DOT/JSON), ``oracle`` (the
randomized cross-check suites of ``oracles``), ``fixtures`` (reproduce
the worked example tables) and ``vpd`` (score one valuation against
one predicate).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import re
import sys
from pathlib import Path

from . import automaton as A
from . import fixtures as FX
from . import monitor as M
from . import oracles as O
from . import predicate as P
from .distance import PointwiseDistance, default_distance, vpd
from .errors import ArvError, ParseError, UnsupportedFragmentError
from .semiring import SEMIRINGS, TROPICAL, by_name
# ``read_trace_csv`` stays importable here: perfbench/spans.py wraps ``arv.cli.read_trace_csv``
from .speclang import parse_spec_text, read_trace_csv, read_utf8, trace_blocks  # noqa: F401


def _json_value(x: float):
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def _verdict_doc(verdict: M.RobustnessVerdict) -> dict:
    return {
        "rho": _json_value(verdict.rho),
        "satisfied": verdict.satisfied,
        "d_phi": _json_value(verdict.d_phi),
        "d_not_phi": _json_value(verdict.d_not_phi),
    }


@contextlib.contextmanager
def _atomic_write(path: Path):
    """A text file on ``PATH.tmp``, renamed to ``path`` once the block
    ends; on any error it is removed and ``path`` is left as it was."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


def _load_spec(path: str):
    return parse_spec_text(read_utf8(path, f"spec file {path}"))


def _refuse_overwrite(out, taken: dict) -> None:
    """Before anything is written: refuse an output path that resolves to
    a file in ``taken``, which maps ``os.path.realpath`` paths to their
    names.  (``Path.resolve`` raises on a symlink loop before Python 3.13;
    ``realpath`` does not.)"""
    hit = taken.get(os.path.realpath(out))
    if hit is not None:
        raise ParseError(f"output {out} would overwrite {hit}")


def _out_path(base: str, trace_path: str, many: bool) -> Path:
    out = Path(base)
    if not many:
        return out
    stem = Path(trace_path).stem
    return out.with_name(f"{out.stem}.{stem}{out.suffix}")


def cmd_monitor(args) -> int:
    if args.prefix_series and (args.out or args.json):
        raise ParseError("--prefix-series writes the whole series; it excludes --out and --json")
    many = len(args.trace) > 1
    base = args.prefix_series or args.out
    if base:
        inputs = {os.path.realpath(p): f"the input {p}" for p in (args.spec, *args.trace)}
        written: dict = {}  # output path -> the trace that writes it
        for trace_path in args.trace:
            path = _out_path(base, trace_path, many)
            _refuse_overwrite(path, inputs)
            if path in written:
                raise ParseError(
                    f"traces {written[path]} and {trace_path} would both write {path}; "
                    "their file names need distinct stems"
                )
            written[path] = trace_path
    _, spec = _load_spec(args.spec)
    w_pos, w_neg = M.build_monitor_pair(spec, by_name(args.semiring))
    for trace_path in args.trace:
        blocks = trace_blocks(trace_path)
        if args.prefix_series:
            t = 0
            with _atomic_write(_out_path(args.prefix_series, trace_path, many)) as fh:
                fh.write("t,rho,satisfied\n")
                for rows in M.verdict_rows(blocks, w_pos, w_neg):
                    lines = []
                    cells: dict = {}  # (rho, satisfied) -> its two cells, formatted once a block
                    for t, (rho, satisfied, _, _) in enumerate(rows, start=t + 1):
                        cell = cells.get((rho, satisfied))
                        if cell is None:
                            cell = cells[rho, satisfied] = f"{_fmt_num(rho)},{'true' if satisfied else 'false'}"
                        lines.append(f"{t},{cell}\n")
                    fh.write("".join(lines))
            status = "satisfied" if satisfied else "violated"
            print(f"{trace_path}: prefix series of {t} rows, final rho = {_fmt_num(rho)} ({status})")
        else:
            verdict = M.verdict(blocks, w_pos, w_neg)
            status = "satisfied" if verdict.satisfied else "violated"
            print(
                f"{trace_path}: rho = {_fmt_num(verdict.rho)} ({status}), "
                f"d_phi = {_fmt_num(verdict.d_phi)}, d_not_phi = {_fmt_num(verdict.d_not_phi)}"
            )
            if args.json or args.out:
                text = json.dumps(_verdict_doc(verdict), indent=2) + "\n"
                if args.out:
                    with _atomic_write(_out_path(args.out, trace_path, many)) as fh:
                        fh.write(text)
                else:
                    sys.stdout.write(text)
    return 0


def _fmt_num(x: float) -> str:
    x = float(x)
    return str(int(x)) if x.is_integer() else repr(x)


def cmd_translate(args) -> int:
    taken = {os.path.realpath(args.spec): f"the input {args.spec}"}
    for flag, out in (("--dot", args.dot), ("--json", args.json_out)):
        if out:
            _refuse_overwrite(out, taken)
            taken[os.path.realpath(out)] = f"the {flag} output {out}"
    _, spec = _load_spec(args.spec)
    dfa = A.canonicalize(M.spec_dfa(spec))
    print(
        f"{args.spec}: {dfa.n_locations} locations, {len(dfa.transitions)} transitions, "
        f"{len(dfa.final)} accepting"
    )
    if args.dot:
        with _atomic_write(Path(args.dot)) as fh:
            fh.write(A.to_dot(dfa))
    if args.json_out:
        with _atomic_write(Path(args.json_out)) as fh:
            fh.write(A.to_json(dfa))
    return 0


_NAME = re.compile(r"[^\W\d]\w*")


def _parse_valuation(text: str) -> dict:
    """``name=value`` bindings separated by commas; each name once, each
    value a finite number."""
    valuation = {}
    for binding in text.split(","):
        name, eq, value = binding.partition("=")
        name = name.strip()
        if not eq:
            raise ParseError(f"valuation binding {binding.strip()!r} lacks '='")
        if not _NAME.fullmatch(name):
            raise ParseError(f"bad variable name {name!r} in valuation")
        if name in valuation:
            raise ParseError(f"valuation binds {name!r} twice")
        try:
            x = float(value)
        except ValueError:
            raise ParseError(f"non-numeric value {value.strip()!r} for {name!r}") from None
        if not math.isfinite(x):
            raise ParseError(f"non-finite value {value.strip()!r} for {name!r}")
        valuation[name] = x
    return valuation


def cmd_vpd(args) -> int:
    valuation = _parse_valuation(args.valuation)
    dnf = P.parse_predicate(args.pred)
    semiring = by_name(args.semiring)
    dist = (
        PointwiseDistance(args.dist) if args.dist else default_distance(semiring)
    )
    if not args.raw:
        dnf = P.wedge_minimize(dnf)
    try:
        value = vpd(valuation, dnf, semiring, dist, demonstration=args.raw)
    except ValueError as exc:  # a --dist that does not fit the semiring
        raise ParseError(str(exc)) from None
    print(_fmt_num(value))
    return 0


def cmd_oracle(args) -> int:
    total = 0
    checks = [
        ("valuation-predicate distance", O.vpd_cross_check, args.vpd_cases),
        ("trace value vs path enumeration", O.value_cross_check, args.value_cases),
        (
            "pipeline vs language distance, STL and SRE each",
            O.language_distance_cross_check,
            args.language_cases,
        ),
    ]
    for label, fn, cases in checks:
        mism = fn(cases, args.seed)
        total += mism
        print(f"{label}: {cases} cases, {mism} mismatches")
    print(f"total mismatches: {total}")
    return 0 if total == 0 else 1


# --- fixtures -----------------------------------------------------------------


def cmd_fixtures(_args) -> int:
    trace = FX.example_trace()
    auto = FX.example_automaton()
    failures = 0

    print("conjunction minimization, min-plus distance for x = 6:")
    raw = P.parse_predicate("x <= 3 && x <= 5")
    minimized = P.wedge_minimize(raw)
    got_raw = vpd({"x": 6.0}, raw, TROPICAL, PointwiseDistance.ABS_DIFF, demonstration=True)
    got_min = vpd({"x": 6.0}, minimized, TROPICAL, PointwiseDistance.ABS_DIFF)
    for label, got, expected in (("raw", got_raw, 4.0), ("minimized", got_min, 3.0)):
        ok = got == expected
        failures += 0 if ok else 1
        print(f"  {label:>9}: {_fmt_num(got)} (expected {_fmt_num(expected)}) {'PASS' if ok else 'FAIL'}")

    published = {"boolean": (FX.BOOLEAN_TABLE, FX.BOOLEAN_FINAL), "minmax": (FX.MINMAX_TABLE, FX.MINMAX_FINAL)}
    for name in ("boolean", "minmax", "tropical"):
        semiring = SEMIRINGS[name]
        w = A.decorate(auto, semiring, default_distance(semiring))
        if name in published:
            table, final_expected = published[name]
            source = "published run"
        else:
            table = {
                q: [O.path_costs(trace, w, i)[q] for i in range(len(trace) + 1)]
                for q in range(auto.n_locations)
            }
            final_expected = FX.TROPICAL_FINAL
            source = "path-enumeration oracle"
        print(f"{name} cost table (expected from {source}):")
        stream = M.ValueStream(w)
        columns = [stream.costs]
        for sample in trace.samples:
            stream.step(sample)
            columns.append(stream.costs)
        for q in range(auto.n_locations):
            row = [columns[i][q] for i in range(len(columns))]
            cells = []
            for i, got in enumerate(row):
                expected = float(table[q][i])
                ok = got == expected
                failures += 0 if ok else 1
                cells.append(f"{_fmt_num(got)}{'' if ok else '!FAIL'}")
            print(f"  q{q}: " + " ".join(f"{c:>6}" for c in cells))
        final = stream.value
        ok = final == final_expected
        failures += 0 if ok else 1
        print(f"  final value: {_fmt_num(final)} (expected {_fmt_num(final_expected)}) {'PASS' if ok else 'FAIL'}")

    print("all cells PASS" if failures == 0 else f"{failures} cells FAILED")
    return 0 if failures == 0 else 1


def _case_count(text: str) -> int:
    """An ``oracle`` case count: a non-negative integer."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"case count {text} is negative")
    return int(text)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every call
    of ``main``: parsing fills a fresh namespace, so calls stay apart."""
    parser = argparse.ArgumentParser(
        prog="arv",
        description="Semiring-parametric robustness monitoring over symbolic weighted automata",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mon = sub.add_parser("monitor", help="measure traces against a specification")
    p_mon.add_argument("--spec", required=True, help="spec file (#lang stl|sre, default stl)")
    p_mon.add_argument("--trace", required=True, action="append", help="trace CSV (repeatable)")
    p_mon.add_argument("--semiring", default="minmax", choices=sorted(SEMIRINGS))
    p_mon.add_argument("--prefix-series", metavar="PATH", help="write per-prefix CSV here")
    p_mon.add_argument("--json", action="store_true", help="print the verdict as JSON")
    p_mon.add_argument("--out", help="write the verdict JSON to this path")
    p_mon.set_defaults(fn=cmd_monitor)

    p_tr = sub.add_parser("translate", help="compile a specification to an automaton")
    p_tr.add_argument("--spec", required=True)
    p_tr.add_argument("--dot", help="write GraphViz here")
    p_tr.add_argument("--json", dest="json_out", help="write the JSON form here")
    p_tr.set_defaults(fn=cmd_translate)

    p_or = sub.add_parser("oracle", help="run the randomized cross-check suites")
    p_or.add_argument("--vpd-cases", type=_case_count, default=1000)
    p_or.add_argument("--value-cases", type=_case_count, default=500)
    p_or.add_argument("--language-cases", type=_case_count, default=200)
    p_or.add_argument("--seed", type=int, default=2024)
    p_or.set_defaults(fn=cmd_oracle)

    p_fx = sub.add_parser("fixtures", help="reproduce the worked example tables")
    p_fx.set_defaults(fn=cmd_fixtures)

    p_vpd = sub.add_parser("vpd", help="distance of one valuation to one predicate")
    p_vpd.add_argument("--valuation", required=True, help='e.g. "x=6,y=2"')
    p_vpd.add_argument("--pred", required=True, help='e.g. "x <= 3 && x <= 5"')
    p_vpd.add_argument("--semiring", default="minmax", choices=sorted(SEMIRINGS))
    p_vpd.add_argument("--dist", choices=[d.value for d in PointwiseDistance])
    p_vpd.add_argument(
        "--raw",
        action="store_true",
        help="skip conjunction minimization (demonstration mode)",
    )
    p_vpd.set_defaults(fn=cmd_vpd)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except ArvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # the parsers and ``unfold_bounded`` recurse once per nesting level
        print(
            "error: specification too deeply nested (recursion limit reached)",
            file=sys.stderr,
        )
        return UnsupportedFragmentError.exit_code
    except MemoryError:
        print("error: out of memory (specification or trace too large)", file=sys.stderr)
        return UnsupportedFragmentError.exit_code


if __name__ == "__main__":
    sys.exit(main())
