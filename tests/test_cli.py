import json
import time

import pytest

from arv.cli import main
from arv.speclang import Trace, read_trace_csv, write_trace_csv


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

    monkeypatch.setattr(arv.automaton, "MAX_SUBSETS", 16)
    spec = write(tmp_path / "resp.stl", "G(x <= 5 -> F[0,8] y >= 2)\n")
    trace = write(tmp_path / "t.csv", "x,y\n1,3\n")
    assert main(["monitor", "--spec", spec, "--trace", trace]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: determinizing a 10-location automaton")
    assert "exceeds 16 subsets" in err
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
    assert text.count("shape=") == 3
    assert text.count("->") == 4
    doc = json.loads(jsn.read_text())
    assert len(doc["locations"]) == 3
    assert len(doc["transitions"]) == 4
    assert "3 locations" in capsys.readouterr().out


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
