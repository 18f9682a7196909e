import json
import random
import time
from pathlib import Path

import pytest

from arv.cli import _fmt_num, main
from arv.generators import random_trace
from arv.speclang import Trace, read_trace_csv, write_trace_csv
from conftest import benchmark_entries


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def spec_file(tmp_path):
    return write(tmp_path / "spec.stl", "G(x <= 10)\n")


@pytest.fixture
def trace_file(tmp_path):
    return write(tmp_path / "t.csv", "x\n4\n7\n2\n9\n")


def test_monitor_final_json(spec_file, trace_file, tmp_path, capsys):
    out = tmp_path / "verdict.json"
    code = main(
        ["monitor", "--spec", spec_file, "--trace", trace_file, "--semiring", "minmax", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["rho"] == 1.0
    assert doc["satisfied"] is True
    printed = capsys.readouterr().out
    assert "rho = 1" in printed


def test_monitor_infinite_rho_spelling(tmp_path, capsys):
    spec = write(tmp_path / "psi5.stl", "G(a >= 5 && a < 5)\n")
    trace = write(tmp_path / "t.csv", "a\n1\n2\n")
    code = main(["monitor", "--spec", spec, "--trace", trace, "--semiring", "minmax", "--json"])
    assert code == 0
    printed = capsys.readouterr().out
    doc = json.loads(printed[printed.index("{") :])
    assert doc["rho"] == "-inf"
    assert doc["satisfied"] is False


def test_monitor_prefix_series(spec_file, tmp_path, capsys):
    trace = write(tmp_path / "t.csv", "x\n4\n7\n2\n9\n")
    out = tmp_path / "series.csv"
    code = main(
        [
            "monitor",
            "--spec",
            spec_file,
            "--trace",
            trace,
            "--semiring",
            "tropical",
            "--prefix-series",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,rho,satisfied"
    assert len(lines) == 5
    assert lines[1].startswith("1,")


def test_main_calls_in_one_process_stay_independent(spec_file, tmp_path, capsys):
    """The parser is built once and shared; a ``--trace`` list or a
    ``--json`` flag of one call must not leak into the next."""
    a = write(tmp_path / "a.csv", "x\n1\n")
    b = write(tmp_path / "b.csv", "x\n20\n")
    c = write(tmp_path / "c.csv", "x\n7\n")
    assert main(["monitor", "--spec", spec_file, "--trace", a, "--trace", b, "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["monitor", "--spec", spec_file, "--trace", c]) == 0
    second = capsys.readouterr().out
    assert first.count("rho = ") == 2 and first.count("{") == 2
    assert second == f"{c}: rho = 3 (satisfied), d_phi = 0, d_not_phi = 3\n"
    assert main(["monitor", "--spec", spec_file, "--trace", a, "--trace", b, "--json"]) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize(
    "x, text",
    [
        (float("inf"), "inf"),
        (float("-inf"), "-inf"),
        (-0.0, "0"),
        (3.0, "3"),
        (0.25, "0.25"),
        (2.5e-7, "2.5e-07"),
        (1e16, "10000000000000000"),
    ],
)
def test_fmt_num_spelling(x, text):
    assert _fmt_num(x) == text


def test_monitor_multiple_traces(spec_file, tmp_path):
    t1 = write(tmp_path / "a.csv", "x\n1\n")
    t2 = write(tmp_path / "b.csv", "x\n20\n")
    out = tmp_path / "v.json"
    code = main(
        ["monitor", "--spec", spec_file, "--trace", t1, "--trace", t2, "--out", str(out)]
    )
    assert code == 0
    doc_a = json.loads((tmp_path / "v.a.json").read_text())
    doc_b = json.loads((tmp_path / "v.b.json").read_text())
    assert doc_a["rho"] == 9.0
    assert doc_b["rho"] == -10.0


@pytest.mark.parametrize("mode", ["--out", "--prefix-series"])
def test_monitor_refuses_traces_that_would_share_an_output(spec_file, tmp_path, capsys, mode):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    t1 = write(tmp_path / "a" / "run.csv", "x\n1\n")
    t2 = write(tmp_path / "b" / "run.csv", "x\n20\n")
    out = tmp_path / "out.csv"
    argv = ["monitor", "--spec", spec_file, "--trace", t1, "--trace", t2, mode, str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: traces {t1} and {t2} would both write")
    assert "Traceback" not in captured.err
    assert list(tmp_path.glob("out*")) == []


@pytest.mark.parametrize(
    "traces, mode, out, hit",
    [
        (["b.csv"], "--out", "b.csv", "b.csv"),
        (["b.csv"], "--prefix-series", "sub/../b.csv", "b.csv"),
        (["a.csv", "out.a.csv"], "--prefix-series", "out.csv", "out.a.csv"),
        (["a.csv", "stl.csv"], "--out", "spec", "spec.stl"),
        (["a.csv"], "--out", "spec.stl", "spec.stl"),
    ],
    ids=["out-is-trace", "series-is-trace", "series-of-a-is-trace", "out-of-stl-is-spec", "out-is-spec"],
)
def test_monitor_refuses_to_overwrite_its_inputs(spec_file, tmp_path, monkeypatch, capsys, traces, mode, out, hit):
    """An output that resolves to a ``--trace`` or ``--spec`` file is
    refused before anything is read or written; the inputs stay as they
    were, byte for byte."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    for name in traces:
        write(tmp_path / name, "x\n1\n20\n")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
    argv = ["monitor", "--spec", "spec.stl", mode, out]
    for name in traces:
        argv += ["--trace", name]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: output ")
    assert captured.err.rstrip().endswith(f"would overwrite the input {hit}")
    assert "Traceback" not in captured.err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before


@pytest.mark.parametrize(
    "extra",
    [["--out", "v.json"], ["--json"], ["--json", "--out", "v.json"]],
    ids=["out", "json", "json-out"],
)
def test_monitor_prefix_series_excludes_verdict_outputs(spec_file, trace_file, tmp_path, capsys, extra):
    extra = [str(tmp_path / a) if a.endswith(".json") else a for a in extra]
    series = tmp_path / "series.csv"
    argv = ["monitor", "--spec", spec_file, "--trace", trace_file, "--prefix-series", str(series)]
    assert main(argv + extra) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--prefix-series" in captured.err and "Traceback" not in captured.err
    assert not series.exists() and not (tmp_path / "v.json").exists()


def test_monitor_exit_codes(tmp_path):
    bad_spec = write(tmp_path / "bad.stl", "G(x <= )\n")
    trace = write(tmp_path / "t.csv", "x\n1\n")
    assert main(["monitor", "--spec", bad_spec, "--trace", trace]) == 2

    spec = write(tmp_path / "s.stl", "G(y <= 1)\n")
    assert main(["monitor", "--spec", spec, "--trace", trace]) == 3

    past = write(tmp_path / "p.stl", "Y x <= 1\n")
    assert main(["monitor", "--spec", past, "--trace", trace]) == 2

    wide = write(tmp_path / "w.stl", "F[0,100000] x >= 1\n")
    assert main(["monitor", "--spec", wide, "--trace", trace]) == 4

    bad_trace = write(tmp_path / "bad.csv", "x\noops\n")
    assert main(["monitor", "--spec", spec_file_text(tmp_path), "--trace", bad_trace]) == 2


def test_monitor_non_finite_sample_is_parse_error(spec_file, tmp_path, capsys):
    trace = write(tmp_path / "t.csv", "x\n1\nnan\n")
    assert main(["monitor", "--spec", spec_file, "--trace", trace]) == 2
    assert "row 3, column 'x'" in capsys.readouterr().err


def test_monitor_deep_nesting_is_clean_error(tmp_path, capsys):
    # the parser still recurses once per nesting level
    spec = write(tmp_path / "deep.stl", "!" * 3000 + "x >= 1\n")
    trace = write(tmp_path / "t.csv", "x\n0\n1\n")
    assert main(["monitor", "--spec", spec, "--trace", trace]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("text", ["F[0,1000] x >= 1", "G[100,3000] x <= 5"])
def test_monitor_wide_windows(tmp_path, capsys, text):
    from arv.speclang import eval_stl, parse_stl

    spec = write(tmp_path / "wide.stl", text + "\n")
    traces = {
        "zeros": [0.0] * 5,
        "late": [0.0, 0.0, 0.0, 2.0],
        "first": [1.0],
        "high": [7.0, 7.0, 7.0],
        # reach into G's window [100, 3000]
        "early-high": [7.0] * 100 + [0.0, 0.0],
        "late-high": [0.0] * 101 + [7.0],
    }
    argv = ["monitor", "--spec", spec, "--out", str(tmp_path / "verdict.json")]
    for name, values in traces.items():
        rows = "".join(f"{v}\n" for v in values)
        argv += ["--trace", write(tmp_path / f"{name}.csv", "x\n" + rows)]
    assert main(argv) == 0
    formula = parse_stl(text)
    for name, values in traces.items():
        doc = json.loads((tmp_path / f"verdict.{name}.json").read_text())
        trace = Trace(("x",), [{"x": v} for v in values])
        assert doc["satisfied"] is eval_stl(trace, 0, formula), name


def test_monitor_translation_budget_is_clean_error(tmp_path, monkeypatch, capsys):
    import arv.automaton

    monkeypatch.setattr(arv.automaton, "MAX_SUBSETS", 16)
    trace = write(tmp_path / "t.csv", "x,y\n1,3\n")
    wide = write(tmp_path / "wide.stl", "F[0,20] x >= 1\n")
    assert main(["monitor", "--spec", wide, "--trace", trace]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: unfolding the formula's windows takes 20 steps")
    assert "more than the budget of 16" in err
    assert "Traceback" not in err
    # 8 window steps, but more than 16 tableau locations
    deep = write(tmp_path / "deep.stl", "F[0,2] G[0,2] x >= 1 && F[0,2] G[0,2] y >= 1\n")
    assert main(["monitor", "--spec", deep, "--trace", trace]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: the tableau of a formula with 8 window steps exceeds 16 locations")
    assert "Traceback" not in err


@pytest.mark.parametrize("hi", [100_000, 1_000_000])
def test_monitor_sre_duration_budget_is_clean_error(tmp_path, capsys, hi):
    from arv.automaton import MAX_SUBSETS

    spec = write(tmp_path / "long.sre", f"#lang sre\n<(x <= 1)>[0,{hi}]\n")
    trace = write(tmp_path / "t.csv", "x\n1\n")
    start = time.perf_counter()
    assert main(["monitor", "--spec", spec, "--trace", trace]) == 4
    assert time.perf_counter() - start < 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: the expression's durations take {hi} steps")
    assert f"more than the budget of {MAX_SUBSETS}" in err
    assert "Traceback" not in err


def test_monitor_flat_disjunction_over_ten_variables(tmp_path):
    from arv.speclang import eval_stl, parse_stl

    names = [f"x{i}" for i in range(10)]
    text = "G(" + " || ".join(f"{v} >= {i}" for i, v in enumerate(names)) + ")"
    spec = write(tmp_path / "flat.stl", text + "\n")
    below = [i - 1 for i in range(10)]
    traces = {
        "below": [below] * 3,
        "one-above": [below[:4] + [4] + below[5:], below[:9] + [9.5]],
        "late-below": [list(range(10)), list(range(10)), below],
        "edges": [[i - 0.5 for i in range(9)] + [9]],
    }
    argv = ["monitor", "--spec", spec, "--out", str(tmp_path / "verdict.json")]
    for name, rows in traces.items():
        body = "".join(",".join(map(str, row)) + "\n" for row in rows)
        argv += ["--trace", write(tmp_path / f"{name}.csv", ",".join(names) + "\n" + body)]
    assert main(argv) == 0
    formula = parse_stl(text)
    for name, rows in traces.items():
        doc = json.loads((tmp_path / f"verdict.{name}.json").read_text())
        trace = Trace(tuple(names), [dict(zip(names, map(float, row))) for row in rows])
        assert doc["satisfied"] is eval_stl(trace, 0, formula), name


def test_monitor_subset_budget_is_clean_error(tmp_path, monkeypatch, capsys):
    import arv.automaton

    # 40 window steps and a 42-location tableau, but 233 pruned subsets
    monkeypatch.setattr(arv.automaton, "MAX_SUBSETS", 64)
    spec = write(tmp_path / "resp.stl", "G[0,20](x <= 5 -> F[0,20] y >= 2)\n")
    trace = write(tmp_path / "t.csv", "x,y\n1,3\n")
    assert main(["monitor", "--spec", spec, "--trace", trace]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: determinizing a 42-location automaton")
    assert "exceeds 64 subsets" in err
    assert "Traceback" not in err


def test_monitor_product_budget_is_clean_error(tmp_path, monkeypatch, capsys):
    import arv.automaton

    monkeypatch.setattr(arv.automaton, "MAX_SUBSETS", 40)
    spec = write(tmp_path / "nested.sre", "#lang sre\n<(<x <= 1>[0,8] ; y <= 1)*>[0,8]\n")
    trace = write(tmp_path / "t.csv", "x,y\n1,3\n")
    assert main(["monitor", "--spec", spec, "--trace", trace]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: the product of a 12-location and a 9-location automaton")
    assert "exceeds 40 locations" in err
    assert "Traceback" not in err


def test_monitor_out_of_memory_is_clean_error(spec_file, trace_file, monkeypatch, capsys):
    import arv.monitor

    def exhausted(*_args, **_kwargs):
        raise MemoryError

    monkeypatch.setattr(arv.monitor, "build_monitor_pair", exhausted)
    assert main(["monitor", "--spec", spec_file, "--trace", trace_file]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: out of memory")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("series", [False, True])
def test_monitor_compiles_spec_once_for_many_traces(spec_file, tmp_path, monkeypatch, series):
    import arv.monitor

    calls = []
    build = arv.monitor.build_monitor_pair

    def counting(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(arv.monitor, "build_monitor_pair", counting)
    t1 = write(tmp_path / "a.csv", "x\n1\n")
    t2 = write(tmp_path / "b.csv", "x\n20\n3\n")
    argv = ["monitor", "--spec", spec_file, "--trace", t1, "--trace", t2]
    argv += ["--prefix-series", str(tmp_path / "s.csv")] if series else ["--json"]
    assert main(argv) == 0
    assert len(calls) == 1


def spec_file_text(tmp_path):
    return write(tmp_path / "ok.stl", "G(x <= 1)\n")


def test_monitor_sre_spec(tmp_path, capsys):
    spec = write(tmp_path / "s.sre", "#lang sre\nx <= 3\n")
    trace = write(tmp_path / "t.csv", "x\n1\n2\n")
    code = main(["monitor", "--spec", spec, "--trace", trace, "--semiring", "minmax", "--json"])
    assert code == 0
    printed = capsys.readouterr().out
    doc = json.loads(printed[printed.index("{") :])
    assert doc["rho"] == 1.0


def test_translate_outputs(tmp_path, capsys):
    spec = write(tmp_path / "phi1.stl", "F (x <= 5 && G[0,1](x <= 3 && y > 6))\n")
    dot = tmp_path / "a.dot"
    jsn = tmp_path / "a.json"
    code = main(["translate", "--spec", spec, "--dot", str(dot), "--json", str(jsn)])
    assert code == 0
    text = dot.read_text()
    assert text.count("shape=") == 4
    assert text.count("->") == 8
    doc = json.loads(jsn.read_text())
    assert len(doc["locations"]) == 4
    assert len(doc["transitions"]) == 8
    assert "4 locations, 8 transitions, 3 accepting" in capsys.readouterr().out


@pytest.mark.parametrize(
    "outputs, hit",
    [
        (["--json", "spec.stl"], "the input spec.stl"),
        (["--dot", "sub/../spec.stl"], "the input spec.stl"),
        (["--dot", "o.txt", "--json", "o.txt"], "the --dot output o.txt"),
        (["--dot", "o.txt", "--json", "sub/../o.txt"], "the --dot output o.txt"),
    ],
    ids=["json-is-spec", "dot-is-spec", "json-is-dot", "json-resolves-to-dot"],
)
def test_translate_refuses_to_overwrite(spec_file, tmp_path, monkeypatch, capsys, outputs, hit):
    """An output that resolves to the spec or to the other output is
    refused before anything is written: exit 2, the spec unchanged and
    no output file left."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    before = Path(spec_file).read_bytes()
    assert main(["translate", "--spec", "spec.stl", *outputs]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: output {outputs[-1]} would overwrite {hit}\n"
    assert Path(spec_file).read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.stl", "sub"]


def test_outputs_through_a_symlink_loop_are_written(spec_file, tmp_path, monkeypatch, capsys):
    """The overwrite check resolves an output that is a symlink loop
    without a traceback; the atomic write then replaces the link."""
    monkeypatch.chdir(tmp_path)
    write(tmp_path / "t.csv", "x\n1\n")
    for argv in (
        ["translate", "--spec", "spec.stl", "--json", "loop"],
        ["monitor", "--spec", "spec.stl", "--trace", "t.csv", "--out", "loop"],
    ):
        (tmp_path / "loop").unlink(missing_ok=True)
        (tmp_path / "loop").symlink_to("loop")
        assert main(argv) == 0
        assert json.loads((tmp_path / "loop").read_text())
    assert "Traceback" not in capsys.readouterr().err


def _translated(tmp_path, text):
    """``arv translate``'s DOT and JSON of a spec file holding ``text``."""
    spec = write(tmp_path / "spec.txt", text)
    dot, jsn = tmp_path / "a.dot", tmp_path / "a.json"
    assert main(["translate", "--spec", spec, "--dot", str(dot), "--json", str(jsn)]) == 0
    return dot.read_text(), jsn.read_text()


def _spec_texts():
    """The benchmark's spec files and 100 random STL and SRE specs."""
    import random

    from arv.generators import random_sre, random_stl
    from arv.speclang import print_sre, print_stl

    texts = [e.spec_text for e in benchmark_entries()]
    assert len(texts) == 11
    rng = random.Random(1801)
    for i in range(100):
        if i % 2:
            texts.append("#lang sre\n" + print_sre(random_sre(rng, ["x", "y"], depth=3)) + "\n")
        else:
            texts.append(print_stl(random_stl(rng, ["x", "y"], depth=3)) + "\n")
    return texts


def test_translate_prints_the_monitor_dfa(tmp_path):
    from arv.automaton import to_json
    from arv.monitor import build_monitor_pair
    from arv.semiring import MINMAX
    from arv.speclang import parse_spec_text

    for text in _spec_texts():
        _, jsn = _translated(tmp_path, text)
        w_pos, _ = build_monitor_pair(parse_spec_text(text)[1], MINMAX)
        assert jsn == to_json(w_pos.base), text


def test_translate_dot_and_json_number_locations_alike(tmp_path):
    import re

    for text in _spec_texts()[:40]:
        dot, jsn = _translated(tmp_path, text)
        doc = json.loads(jsn)
        edges = re.findall(r'^  (\d+) -> (\d+) \[label="(.*)"\];$', dot, re.M)
        assert edges == [
            (str(t["src"]), str(t["dst"]), t["guard"].replace('"', '\\"'))
            for t in doc["transitions"]
        ]
        finals = [int(q) for q in re.findall(r"^  (\d+) \[shape=doublecircle", dot, re.M)]
        assert finals == doc["final"]
        assert re.findall(r"^  (\d+) \[.*color=blue", dot, re.M) == [str(q) for q in doc["initial"]]


def test_translate_and_monitor_refuse_alike(tmp_path, monkeypatch, capsys):
    import arv.automaton

    monkeypatch.setattr(arv.automaton, "MAX_SUBSETS", 64)
    spec = write(tmp_path / "resp.stl", "G[0,20](x <= 5 -> F[0,20] y >= 2)\n")
    trace = write(tmp_path / "t.csv", "x,y\n1,3\n")
    assert main(["translate", "--spec", spec]) == 4
    translate_err = capsys.readouterr().err
    assert main(["monitor", "--spec", spec, "--trace", trace]) == 4
    assert capsys.readouterr().err == translate_err
    assert translate_err.startswith("error: determinizing a 42-location automaton")


@pytest.mark.parametrize(
    "text",
    [
        "G(x <= 5 -> F[0,12] y >= 2)",
        "G(a <= 5 -> F[0,6] b >= 2) && G(c <= 5 -> F[0,6] d >= 2)",
    ],
)
def test_translate_compiles_responses_quickly(text, tmp_path, capsys):
    spec = write(tmp_path / "resp.stl", text + "\n")
    start = time.perf_counter()
    assert main(["translate", "--spec", spec]) == 0
    assert time.perf_counter() - start < 2
    assert " 1 accepting" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["monitor", "--trace", "TRACE", "--out"],
        ["translate", "--json"],
    ],
)
def test_failed_write_leaves_no_temp_file(argv, spec_file, trace_file, tmp_path, capsys):
    target = tmp_path / "taken"
    target.mkdir()
    argv = [trace_file if a == "TRACE" else a for a in argv]
    assert main([argv[0], "--spec", spec_file, *argv[1:], str(target)]) == 2
    assert "error: " in capsys.readouterr().err
    assert target.is_dir()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.stl", "t.csv", "taken"]


def test_vpd_subcommand(capsys):
    code = main(
        ["vpd", "--valuation", "x=6", "--pred", "x <= 3 && x <= 5", "--semiring", "tropical", "--raw"]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "4"
    code = main(
        ["vpd", "--valuation", "x=6", "--pred", "x <= 3 && x <= 5", "--semiring", "tropical"]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "3"


def test_vpd_rejects_a_distance_outside_the_carrier(capsys):
    argv = ["vpd", "--valuation", "x=1.5", "--pred", "x <= 1", "--semiring", "boolean"]
    assert main(argv + ["--dist", "absdiff"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: distance 'absdiff' does not fit")
    assert main(argv + ["--dist", "discrete01"]) == 0
    assert capsys.readouterr().out.strip() == "1"


@pytest.mark.parametrize("option", ["--vpd-cases", "--value-cases", "--language-cases"])
def test_oracle_rejects_a_negative_case_count(option, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", option, "-3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument {option}: case count -3 is negative" in captured.err


def test_fixtures_subcommand(capsys):
    assert main(["fixtures"]) == 0
    out = capsys.readouterr().out
    assert "all cells PASS" in out
    assert "!FAIL" not in out


def test_oracle_subcommand_small(capsys):
    code = main(
        ["oracle", "--vpd-cases", "30", "--value-cases", "15", "--language-cases", "8", "--seed", "5"]
    )
    assert code == 0
    assert "total mismatches: 0" in capsys.readouterr().out


def test_csv_roundtrip_value_identical(tmp_path):
    import random

    rng = random.Random(123)
    trace = Trace(
        ("w", "v"),
        [
            {"w": float(rng.randint(-100, 100)), "v": rng.random() * 10}
            for _ in range(25)
        ],
    )
    path = tmp_path / "t.csv"
    write_trace_csv(trace, path)
    back = read_trace_csv(path)
    assert back.variables == trace.variables
    assert back.samples == trace.samples


def test_monitor_spec_not_utf8_is_parse_error(trace_file, tmp_path, capsys):
    spec = tmp_path / "bad.stl"
    spec.write_bytes(b"G(x <= 10) \xff\n")
    assert main(["monitor", "--spec", str(spec), "--trace", trace_file]) == 2
    assert f"spec file {spec} is not UTF-8" in capsys.readouterr().err


def test_translate_spec_not_utf8_is_parse_error(tmp_path, capsys):
    spec = tmp_path / "bad.stl"
    spec.write_bytes(b"\xffG(x <= 10)\n")
    assert main(["translate", "--spec", str(spec)]) == 2
    assert f"spec file {spec} is not UTF-8" in capsys.readouterr().err


def test_spec_not_utf8_names_the_file_offset_after_a_byte_order_mark(tmp_path, capsys):
    spec = tmp_path / "bad.stl"
    spec.write_bytes(b"\xef\xbb\xbfG \xffx <= 1\n")
    assert main(["translate", "--spec", str(spec)]) == 2
    assert f"spec file {spec} is not UTF-8 text (byte 5)" in capsys.readouterr().err


def test_trace_not_utf8_names_the_file_offset_in_a_long_file(spec_file, tmp_path, capsys):
    trace = tmp_path / "bad.csv"
    trace.write_bytes(b"x\n" + b"1\n" * 5999 + b"\xff\n")
    assert main(["monitor", "--spec", spec_file, "--trace", str(trace)]) == 2
    assert f"trace file {trace} is not UTF-8 text (byte 12000)" in capsys.readouterr().err


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
def test_monitor_accepts_a_byte_order_mark(tmp_path, capsys, bom):
    spec = tmp_path / "s.stl"
    spec.write_bytes(bom + b"G(x <= 10)\n")
    trace = tmp_path / "t.csv"
    trace.write_bytes(bom + b"x,y\n4,0\n12,1\n")
    assert main(["monitor", "--spec", str(spec), "--trace", str(trace), "--json"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out[out.index("{"):]) == {
        "rho": -2.0,
        "satisfied": False,
        "d_phi": 2.0,
        "d_not_phi": 0.0,
    }


def test_monitor_trace_not_utf8_is_parse_error(spec_file, tmp_path, capsys):
    trace = tmp_path / "bad.csv"
    trace.write_bytes(b"x\n4\n\xff7\n")
    assert main(["monitor", "--spec", spec_file, "--trace", str(trace)]) == 2
    assert f"trace file {trace} is not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize(
    "valuation, message",
    [
        ("x=abc", "non-numeric value 'abc'"),
        ("x", "lacks '='"),
        ("x=nan", "non-finite value 'nan'"),
        ("x=-inf", "non-finite value '-inf'"),
        ("x=1,x=2", "binds 'x' twice"),
        ("1x=2", "bad variable name '1x'"),
        ("=2", "bad variable name ''"),
    ],
)
def test_vpd_bad_valuation_is_parse_error(valuation, message, capsys):
    code = main(["vpd", "--valuation", valuation, "--pred", "x <= 3", "--semiring", "minmax"])
    assert code == 2
    assert message in capsys.readouterr().err


SERIES = Path(__file__).resolve().parent / "golden" / "series"
SERIES_SPECS = {
    e.name: e.spec_text
    for e in benchmark_entries()
    if e.name in ("response-k3", "bounded-recurrence", "intersect", "duration", "star")
}
# accepts every trace of 1 sample with x <= 5, none of 2 and all longer ones
SERIES_SPECS["all-signs"] = "#lang sre\n<T>[3,inf] | <x <= 5>[1,1]\n"


@pytest.mark.parametrize("semiring", ["boolean", "minmax", "tropical"])
@pytest.mark.parametrize("name", list(SERIES_SPECS))
def test_prefix_series_matches_golden_file(tmp_path, capsys, name, semiring):
    """``--prefix-series`` bytes, pinned before its verdicts were read
    inside the relax: two STL and three SRE benchmark specs, and one
    whose series holds -inf and inf, each on a seeded 50-sample trace."""
    spec = write(tmp_path / "spec.txt", SERIES_SPECS[name])
    trace = tmp_path / "t.csv"
    write_trace_csv(random_trace(random.Random(name), ("x", "y"), 50, lo=0, hi=10), trace)
    out = tmp_path / "series.csv"
    argv = ["monitor", "--spec", spec, "--trace", str(trace), "--semiring", semiring]
    assert main(argv + ["--prefix-series", str(out)]) == 0
    assert out.read_bytes() == (SERIES / f"{name}.{semiring}.csv").read_bytes()
    assert capsys.readouterr().out.startswith(f"{trace}: prefix series of 50 rows, final rho = ")


def test_golden_series_hold_every_kind_of_rho():
    rhos = {line.split(",")[1] for f in SERIES.glob("*.csv") for line in f.read_text().splitlines()[1:]}
    assert {"-inf", "inf", "0"} < rhos


def _check_golden_series(tmp_path):
    for name, text in SERIES_SPECS.items():
        spec = write(tmp_path / "spec.txt", text)
        trace = tmp_path / "t.csv"
        write_trace_csv(random_trace(random.Random(name), ("x", "y"), 50, lo=0, hi=10), trace)
        for semiring in ("boolean", "minmax", "tropical"):
            out = tmp_path / "series.csv"
            argv = ["monitor", "--spec", spec, "--trace", str(trace), "--semiring", semiring]
            assert main(argv + ["--prefix-series", str(out)]) == 0
            assert out.read_bytes() == (SERIES / f"{name}.{semiring}.csv").read_bytes()


@pytest.mark.parametrize("rows", [1, 3])
def test_prefix_series_is_the_same_at_any_block_size(tmp_path, monkeypatch, rows):
    """The golden series, written a block of 1 or 3 samples at a time."""
    import arv.speclang

    monkeypatch.setattr(arv.speclang, "CHUNK_ROWS", rows)
    _check_golden_series(tmp_path)


def test_prefix_series_is_the_same_with_kernels_from_the_first_use(tmp_path, monkeypatch):
    """The golden series, with every dense plan run by its generated
    kernel from its first step."""
    import arv.monitor

    built = []
    real = arv.monitor._kernel
    monkeypatch.setattr(arv.monitor, "KERNEL_AFTER", 0)
    monkeypatch.setattr(arv.monitor, "_kernel", lambda *args: built.append(args) or real(*args))
    _check_golden_series(tmp_path)
    assert len(built) > 100


@pytest.mark.parametrize("mode", [["--prefix-series"], ["--out"], []])
def test_a_bad_row_in_a_later_block_writes_and_prints_nothing(tmp_path, monkeypatch, capsys, mode):
    """The first block is read and relaxed before the second one fails:
    no output, no ``PATH.tmp`` and no verdict line are left behind, and
    an output from an earlier run stays as it was."""
    import arv.speclang

    monkeypatch.setattr(arv.speclang, "CHUNK_ROWS", 2)
    spec = write(tmp_path / "spec.stl", "G(x <= 10)\n")
    trace = write(tmp_path / "t.csv", "x\n1\n2\n3\nabc\n5\n")
    out = tmp_path / "out.csv"
    argv = ["monitor", "--spec", spec, "--trace", trace, *mode, *([str(out)] if mode else [])]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: non-numeric cell in trace row 5, column 'x'\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.stl", "t.csv"]
    if mode:
        out.write_text("earlier\n")
        assert main(argv) == 2
        assert out.read_text() == "earlier\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "spec.stl", "t.csv"]


@pytest.mark.parametrize("series", [False, True])
def test_many_traces_keep_their_order_across_blocks(tmp_path, monkeypatch, capsys, series):
    """With several ``--trace`` files read a block of 2 samples at a time,
    each verdict line comes in argument order and reads as when that
    trace is monitored alone."""
    import arv.speclang

    monkeypatch.setattr(arv.speclang, "CHUNK_ROWS", 2)
    spec = write(tmp_path / "spec.stl", "G(x <= 5 -> F[0,2] x >= 2)\n")
    rng = random.Random(5)
    traces = []
    for name in ("c", "a", "b"):
        path = tmp_path / f"{name}.csv"
        write_trace_csv(random_trace(rng, ("x",), rng.randint(3, 9), lo=0, hi=8), path)
        traces.append(str(path))

    def run(paths):
        argv = ["monitor", "--spec", spec]
        for p in paths:
            argv += ["--trace", p]
        if series:
            argv += ["--prefix-series", str(tmp_path / "s.csv")]
        assert main(argv) == 0
        return capsys.readouterr().out.splitlines()

    alone = [run([p])[0] for p in traces]
    assert run(traces) == alone
    assert run(traces[::-1]) == alone[::-1]
