import csv
import io
import math
import random
import re

import pytest

from arv import predicate as P
from arv import speclang as S
from arv.errors import ParseError
from arv.generators import random_stl, random_trace
from arv.speclang import (
    Atom,
    Eventually,
    Next,
    TimeWindow,
    Trace,
    Until,
    eval_sre,
    eval_stl,
    negate,
    parse_spec_text,
    parse_sre,
    parse_stl,
    print_sre,
    print_stl,
    read_trace_csv,
    unfold_bounded,
    write_trace_csv,
)
from conftest import traces_upto


def tr(*values):
    return Trace(("x",), [{"x": float(v)} for v in values])


# --- parsing -----------------------------------------------------------------


def test_parse_stl_structure():
    f = parse_stl("F (x <= 5 && G[0,1](x <= 3 && y > 6))")
    assert isinstance(f, Eventually)
    inner = f.arg
    assert isinstance(inner, S.And)
    assert inner.left == Atom("x", "<=", 5.0)
    g = inner.right
    assert isinstance(g, S.Always) and g.window == TimeWindow(0, 1)
    assert g.arg == S.And(Atom("x", "<=", 3.0), Atom("y", ">", 6.0))


def test_parse_stl_unsat_fixture():
    f = parse_stl("G((a >= 5) && (a < 5))")
    assert isinstance(f, S.Always)
    assert f.arg == S.And(Atom("a", ">=", 5.0), Atom("a", "<", 5.0))


def test_parse_sre_structure():
    e = parse_sre("T ; ((x<=5 ; T) & <x<=3 && y>=6>[1,1]) ; T")
    assert isinstance(e, S.SreConcat)
    assert isinstance(e.left, S.SreConcat)
    assert e.left.left == S.SreBasic(P.TRUE)
    mid = e.left.right
    assert isinstance(mid, S.SreIntersect)
    assert isinstance(mid.left, S.SreConcat)
    assert isinstance(mid.right, S.SreDuration)
    assert mid.right.window == TimeWindow(1, 1)


def test_parse_window_forms():
    assert parse_stl("F[2,5] x <= 1") == Eventually(Atom("x", "<=", 1.0), TimeWindow(2, 5))
    assert parse_stl("F[2,inf] x <= 1") == Eventually(Atom("x", "<=", 1.0), TimeWindow(2, None))
    assert parse_stl("F x <= 1") == Eventually(Atom("x", "<=", 1.0), TimeWindow(0, None))
    assert parse_stl("x <= 1 U[1,2] x <= 0") == Until(
        Atom("x", "<=", 1.0), Atom("x", "<=", 0.0), TimeWindow(1, 2)
    )


def test_parse_negative_constants():
    f = parse_stl("a < -30 || a > 30")
    assert f == S.Or(Atom("a", "<", -30.0), Atom("a", ">", 30.0))


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_stl("F (x <= )")
    with pytest.raises(ParseError):
        parse_stl("x <= 3 extra")
    with pytest.raises(ParseError):
        parse_stl("G[2,1] x <= 3")
    with pytest.raises(ParseError):
        parse_sre("<x <= 3>[1,1")


@pytest.mark.parametrize(
    "text, message",
    [
        ("Y x <= 3", r"unexpected operator 'Y' \(at offset 0\)"),
        ("x <= 3 S x <= 1", r"trailing input after formula \(at offset 7\)"),
        ("G (P x <= 3)", r"unexpected operator 'P' \(at offset 3\)"),
        ("H x <= 0", r"unexpected operator 'H' \(at offset 0\)"),
    ],
    ids=["Y", "S", "P", "H"],
)
def test_past_operators_do_not_parse(text, message):
    # S, P, H and Y have no translation to an automaton; the letters stay
    # reserved, so a past-time spec fails at the operator
    with pytest.raises(ParseError, match=message):
        parse_stl(text)


def test_spec_text_directive():
    kind, f = parse_spec_text("#lang stl\nG x <= 3\n")
    assert kind == "stl" and isinstance(f, S.Always)
    kind, e = parse_spec_text("#lang sre\nT ; x <= 3\n")
    assert kind == "sre" and isinstance(e, S.SreConcat)
    kind, f = parse_spec_text("x <= 3")
    assert kind == "stl"
    with pytest.raises(ParseError):
        parse_spec_text("#lang prolog\nfoo")
    with pytest.raises(ParseError):
        parse_spec_text("   \n\n")


# --- rewriting ---------------------------------------------------------------


def test_negate():
    f = parse_stl("G x <= 3")
    assert negate(f) == S.Not(f)
    assert negate(negate(f)) == f
    assert negate(S.TRUE) is S.FALSE and negate(S.FALSE) is S.TRUE


def test_unfold_examples():
    psi = Atom("x", "<=", 1.0)
    assert unfold_bounded(Eventually(psi, TimeWindow(0, 0))) == psi
    assert unfold_bounded(Eventually(psi, TimeWindow(1, 2))) == Next(S.Or(psi, Next(psi)))
    # bounded always: equivalent to the argument now and (weakly) next
    g = unfold_bounded(parse_stl("G[0,1] x <= 1"))
    for values in ([0], [2], [0, 0], [0, 2], [2, 0], [1, 1, 5]):
        t = tr(*values)
        assert eval_stl(t, 0, g) == eval_stl(t, 0, parse_stl("G[0,1] x <= 1"))


def test_stl_nodes_are_hash_consed():
    import copy
    import pickle
    import sys

    text = "G[0,5] (x <= 5 -> F[0,3] y >= 2)"
    f = parse_stl(text)
    assert f is parse_stl(text)
    assert copy.deepcopy(f) is f
    assert pickle.loads(pickle.dumps(f)) is f
    assert Atom("x", "<=", 5) is Atom("x", "<=", 5.0)
    # -0.0 is stored as 0.0, so the two constants build one node
    assert Atom("x", "<", -0.0) is Atom("x", "<", 0.0)
    assert math.copysign(1.0, Atom("x", "<", -0.0).value) == 1.0
    assert Eventually(Atom("x", "<", 1.0)) is Eventually(Atom("x", "<", 1.0), S.FULL_WINDOW)
    # chains far deeper than the recursion limit hash and compare in O(1)
    depth = 3 * sys.getrecursionlimit()
    chains = []
    for _ in range(2):
        node = Atom("x", ">=", 1.0)
        for _ in range(depth):
            node = Next(node)
        chains.append(node)
    assert chains[0] is chains[1]
    assert {chains[0]: 1}[chains[1]] == 1
    wide = unfold_bounded(parse_stl(f"F[0,{depth}] x >= 1"))
    assert wide is unfold_bounded(parse_stl(f"F[0,{depth}] x >= 1"))
    assert hash(wide) == hash(unfold_bounded(parse_stl(f"F[0,{depth}] x >= 1")))


def test_unfold_core_shape():
    rng = random.Random(17)
    allowed = (S.Atom, S.TrueFormula, S.FalseFormula, S.Not, S.Or, S.And, S.Next, S.Until)
    for _ in range(100):
        f = random_stl(rng, ["x"], depth=3)
        out = unfold_bounded(f)
        stack = [out]
        while stack:
            node = stack.pop()
            assert isinstance(node, allowed)
            if isinstance(node, S.Until):
                assert node.window == S.RESIDUAL_WINDOW
            for attr in ("arg", "left", "right"):
                child = getattr(node, attr, None)
                if child is not None:
                    stack.append(child)


def test_desugar_and_unfold_preserve_semantics():
    rng = random.Random(23)
    traces = traces_upto(("x",), range(3), 4)
    for _ in range(60):
        f = random_stl(rng, ["x"], depth=3, const_lo=0, const_hi=2)
        unfolded = unfold_bounded(f)
        for t in traces:
            for i in range(len(t)):
                assert eval_stl(t, i, unfolded) == eval_stl(t, i, f)


# --- qualitative STL ------------------------------------------------------------


def test_eval_stl_examples():
    assert eval_stl(tr(4, 2), 0, parse_stl("F x <= 3"))
    assert eval_stl(tr(4), 0, parse_stl("G[0,1] x <= 5"))
    psi5 = parse_stl("G(a >= 5 && a < 5)")
    t = Trace(("a",), [{"a": 0.0}])
    assert not eval_stl(t, 0, psi5)


def test_eval_stl_until_strictness():
    # the left argument is not required at the current position
    f = parse_stl("x <= 0 U x >= 5")
    assert eval_stl(tr(1, 0, 5), 0, f)
    assert eval_stl(tr(1, 5), 0, f)
    assert not eval_stl(tr(1, 1, 5), 0, f)


def test_eval_stl_negation_complement():
    rng = random.Random(41)
    for _ in range(80):
        f = random_stl(rng, ["x"], depth=3)
        t = random_trace(rng, ("x",), rng.randint(1, 4), 0, 3)
        for i in range(len(t)):
            assert eval_stl(t, i, S.Not(f)) == (not eval_stl(t, i, f))


def test_eval_stl_bounds_check():
    with pytest.raises(ValueError):
        eval_stl(tr(1), 1, parse_stl("x <= 3"))


# --- qualitative SRE -------------------------------------------------------------


def test_eval_sre_examples():
    assert eval_sre(tr(2), 0, 1, parse_sre("x <= 3"))
    e = parse_sre("E")
    t = tr(1, 2)
    assert eval_sre(t, 1, 1, e)
    assert not eval_sre(t, 1, 2, e)
    dur = parse_sre("<x <= 9>[1,1] ; T")
    assert eval_sre(tr(0, 1, 2), 0, 3, dur)


def test_eval_sre_basic_matches_empty_segment():
    e = parse_sre("x <= 3")
    t = tr(9, 9)
    assert eval_sre(t, 1, 1, e)
    assert not eval_sre(t, 0, 1, e)


def test_eval_sre_star_and_union():
    e = parse_sre("(<x <= 1>[1,1] ; <x >= 5>[1,1])*")
    assert eval_sre(tr(0, 7, 1, 6), 0, 4, e)
    assert not eval_sre(tr(0, 7, 1), 0, 3, e)
    assert eval_sre(tr(3), 0, 0, e)
    u = parse_sre("<x <= 1>[1,1] | <x >= 5>[1,1]")
    assert eval_sre(tr(0), 0, 1, u)
    assert eval_sre(tr(6), 0, 1, u)
    assert not eval_sre(tr(3), 0, 1, u)


def test_eval_sre_duration_clips():
    e = parse_sre("<T>[2,inf]")
    assert not eval_sre(tr(1), 0, 1, e)
    assert eval_sre(tr(1, 1), 0, 2, e)
    assert eval_sre(tr(1, 1, 1), 0, 3, e)


def test_eval_sre_segment_bounds():
    with pytest.raises(ValueError):
        eval_sre(tr(1), 1, 0, parse_sre("T"))


# --- printing ----------------------------------------------------------------------


def test_stl_print_parse_roundtrip():
    rng = random.Random(59)
    for _ in range(300):
        f = random_stl(rng, ["x", "y"], depth=4)
        assert parse_stl(print_stl(f)) == f


def test_sre_print_parse_roundtrip():
    rng = random.Random(61)
    from arv.generators import random_sre

    for _ in range(300):
        e = random_sre(rng, ["x", "y"], depth=4)
        assert parse_sre(print_sre(e)) == e


# --- traces -----------------------------------------------------------------------


def test_trace_csv_roundtrip(tmp_path):
    rng = random.Random(71)
    t = random_trace(rng, ("u", "v"), 17, -5, 5)
    path = tmp_path / "t.csv"
    write_trace_csv(t, path)
    back = read_trace_csv(path)
    assert back.variables == t.variables
    assert back.samples == t.samples


def test_trace_csv_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x,y\n1,2\n3\n")
    with pytest.raises(ParseError):
        read_trace_csv(p)
    p.write_text("x,y\n1,oops\n")
    with pytest.raises(ParseError):
        read_trace_csv(p)
    p.write_text("x,y\n")
    with pytest.raises(ParseError):
        read_trace_csv(p)


def test_trace_csv_rejects_nan_naming_row_and_column(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x,y\n1,2\n3,nan\n")
    with pytest.raises(ParseError, match=r"row 3, column 'y'"):
        read_trace_csv(p)
    p.write_text("x,y\n\n1,2\n\n3,nan\n")
    with pytest.raises(ParseError, match=r"row 5, column 'y'"):
        read_trace_csv(p)


@pytest.mark.parametrize("cell", ["inf", "-inf", "1e999"])
def test_trace_csv_rejects_infinite_naming_row_and_column(tmp_path, cell):
    p = tmp_path / "bad.csv"
    p.write_text(f"x,y\n{cell},2\n")
    with pytest.raises(ParseError, match=r"row 2, column 'x'"):
        read_trace_csv(p)


# each message as the row-at-a-time reader gave it: the first offending
# row in file order, and in that row its first bad cell
CSV_ERRORS = {
    "x,y\n1,2\n3,abc\n4,5\n6\n": "non-numeric cell in trace row 3, column 'y'",
    "x,y\n1,2\n3,4\n5,nan\n6,7\nq,8\n": "non-finite value 'nan' in trace row 4, column 'y'",
    "x,y\n1\ninf,2\n": "trace row 2 has 1 cells, expected 2",
    "x,y\n": "trace file has no samples",
    "x,y\n\n \n": "trace file has no samples",
    "x,y\n1,2,3\n4,5,6\n": "trace row 2 has 3 cells, expected 2",
    "x,y\n1,2\n1,2,3\nnan,1\n": "trace row 3 has 3 cells, expected 2",
    "x,y\n1,2\n1,nan\n1,2,3\n": "non-finite value 'nan' in trace row 3, column 'y'",
    "x,y\n1,2\n-inf,zz\n": "non-finite value '-inf' in trace row 3, column 'x'",
    "x,y\n1,2\nzz,nan\n": "non-numeric cell in trace row 3, column 'x'",
    "x,y\n\n1,2\n\n3\n": "trace row 5 has 1 cells, expected 2",
    "x,y\n 1 , 2 \n 3 , nan \n": "non-finite value 'nan' in trace row 3, column 'y'",
    "x,y,z\n1,2\n1,a,3\n": "trace row 2 has 2 cells, expected 3",
}


@pytest.mark.parametrize("text", list(CSV_ERRORS))
def test_trace_csv_reports_the_first_bad_row_in_file_order(tmp_path, text):
    p = tmp_path / "bad.csv"
    p.write_text(text)
    with pytest.raises(ParseError) as err:
        read_trace_csv(p)
    assert str(err.value) == CSV_ERRORS[text]


def _row_at_a_time_error(text):
    """The error of reading the rows one at a time, each row's cell count
    checked first and then its cells left to right."""
    rows = list(S._csv_rows(io.StringIO(text, newline="")))
    header = tuple(h.strip() for h in rows[0][1])
    for lineno, row in rows[1:]:
        if len(row) != len(header):
            return f"trace row {lineno} has {len(row)} cells, expected {len(header)}"
        for name, cell in zip(header, row):
            try:
                value = float(cell)
            except ValueError:
                return f"non-numeric cell in trace row {lineno}, column {name!r}"
            if not math.isfinite(value):
                return f"non-finite value {cell.strip()!r} in trace row {lineno}, column {name!r}"
    return "trace file has no samples" if len(rows) == 1 else None


def _seeded_csv_texts():
    """400 seeded files with several faults (wrong cell counts, text, nan,
    inf) at random rows and columns, and blank rows."""
    rng = random.Random(2005)
    faults = ("", "abc", "nan", "inf", "-inf", "1e999", None, "extra")
    for _ in range(400):
        width = rng.randint(1, 3)
        lines = [",".join("xyz"[:width])]
        for _ in range(rng.randint(0, 6)):
            cells = [str(rng.randint(-5, 5) / 2) for _ in range(width)]
            if rng.random() < 0.15:
                fault = rng.choice(faults)
                if fault is None:
                    cells.pop()
                elif fault == "extra":
                    cells.append("1")
                else:
                    cells[rng.randrange(width)] = fault
            lines.append(",".join(cells) if cells else "")
            if rng.random() < 0.1:
                lines.append("")
        yield "\n".join(lines) + "\n"


def test_trace_csv_errors_match_a_row_at_a_time_read(tmp_path):
    """On the seeded files, the reader reports what a row-at-a-time read
    reports, and a clean file reads back its values."""
    p = tmp_path / "t.csv"
    clean = 0
    for text in _seeded_csv_texts():
        p.write_text(text)
        expected = _row_at_a_time_error(text)
        if expected is None:
            clean += 1
            rows = [row for _, row in list(S._csv_rows(io.StringIO(text, newline="")))[1:]]
            assert read_trace_csv(p).samples == [
                {v: float(c) for v, c in zip("xyz", row)} for row in rows
            ]
        else:
            with pytest.raises(ParseError) as err:
                read_trace_csv(p)
            assert str(err.value) == expected
    assert 50 < clean < 350


def _read_outcome(path):
    """A trace file read to its ``(variables, columns)``, or to its error text."""
    try:
        trace = read_trace_csv(path)
    except ParseError as err:
        return str(err)
    return trace.variables, trace.columns


# files whose quoted cells, blank rows, line ends and faults fall on the
# edges of small blocks
BLOCK_EDGE_FILES = [
    b'x,y\n1,2\n"3\n",4\n5,6\n7,8\n',  # a quoted cell over two lines
    b'x,y\n1,2\n3,"4\n\n"\n5,abc\n',
    b"x,y\r\n1,2\r\n3,4\r\n\r\n5,6\r\n7,8",  # CRLF, no final line end
    b"x,y\r\n1,2\r\n3,nan\r\n",
    b"\xef\xbb\xbfx,y\n1,2\n3,4\n5,6\n",  # a byte-order mark
    b"\xef\xbb\xbfx,y\n1,2\n3,4\n5,zz\n",
    b"x,y\n1,2\n\n \n3,4\n , \n\t\n5,6\n\n",  # blank and whitespace-only rows
    b"x,y\n1,2\n\n \n3,4\n , \n5,\n",
    b"\nx,y\n\n1,2\n3,4\n",  # blank lines before the header
    b"x\n" + b"1\n" * 20 + b"\xff\n",  # a bad byte after the first block
    b"x,y\n" + b"1,2\n" * 9 + b"3,nan\n",  # a NaN in the last row
    b"x,y\n" + b"1,2\n" * 9 + b"3,4",
    b"x,y\n" + b"1,2\n" * 9 + b"3,q",  # a bad last line, without its newline
    b"x,y\n1,2,3\n4\n5,6\n",  # cell counts that add up to two rows' worth
    b"x,x\n1,2\n",
    b"x,y\n\n\n",
]


@pytest.mark.parametrize("rows", [1, 2, 3, 7])
def test_block_size_changes_no_trace_and_no_error(tmp_path, monkeypatch, rows):
    """Read in blocks of 1, 2, 3 or 7 rows, every file gives the trace, or
    the error text, that the default block size gives: the seeded files
    above and files with quoted multi-line cells, CRLF line ends, a
    byte-order mark, blank rows, a bad UTF-8 byte, a NaN or a bad last
    line at a block edge."""
    p = tmp_path / "t.csv"
    files = [text.encode() for text in _seeded_csv_texts()] + BLOCK_EDGE_FILES
    expected = []
    for data in files:
        p.write_bytes(data)
        expected.append(_read_outcome(p))
    monkeypatch.setattr(S, "CHUNK_ROWS", rows)
    for data, want in zip(files, expected):
        p.write_bytes(data)
        assert _read_outcome(p) == want, data
    assert expected[len(files) - len(BLOCK_EDGE_FILES) :][:4] == [
        (("x", "y"), {"x": [1.0, 3.0, 5.0, 7.0], "y": [2.0, 4.0, 6.0, 8.0]}),
        "non-numeric cell in trace row 6, column 'y'",
        (("x", "y"), {"x": [1.0, 3.0, 5.0, 7.0], "y": [2.0, 4.0, 6.0, 8.0]}),
        "non-finite value 'nan' in trace row 3, column 'y'",
    ]
    assert expected[-7] == f"trace file {p} is not UTF-8 text (byte 42)"
    assert expected[-6] == "non-finite value 'nan' in trace row 11, column 'y'"
    assert expected[-4:-2] == [
        "non-numeric cell in trace row 11, column 'y'",
        "trace row 2 has 3 cells, expected 2",
    ]


@pytest.mark.parametrize("rows", [2, 4096])
def test_crlf_files_read_like_their_lf_twins_in_bulk(tmp_path, monkeypatch, rows):
    """A CRLF file without quotes gives its LF twin's columns, or its error
    text with the same line numbers, and takes the bulk path: it re-reads
    rows through ``csv.reader`` only where the twin does.  A lone carriage
    return keeps the ``csv.reader`` path."""
    monkeypatch.setattr(S, "CHUNK_ROWS", rows)
    row_reads = []
    real = S._csv_rows
    monkeypatch.setattr(S, "_csv_rows", lambda *args: row_reads.append(1) or real(*args))
    p = tmp_path / "t.csv"
    files = [text.encode() for text in _seeded_csv_texts()] + BLOCK_EDGE_FILES
    twins = [data for data in files if b"\r" not in data and b'"' not in data and b"\xff" not in data]
    errors = 0
    for lf in twins:
        outcomes = []
        for data in (lf, lf.replace(b"\n", b"\r\n")):
            p.write_bytes(data)
            row_reads.clear()
            outcomes.append((_read_outcome(p), len(row_reads)))
        assert outcomes[1] == outcomes[0], lf
        errors += isinstance(outcomes[0][0], str)
    assert errors > 50
    p.write_bytes(b"x,y\r\n1,2\r3,4\r\n")
    assert _read_outcome(p) == (("x", "y"), {"x": [1.0, 3.0], "y": [2.0, 4.0]})
    assert row_reads


@pytest.mark.parametrize("rows", [1, 3, 4096])
def test_a_csv_error_anywhere_comes_before_a_bad_row(tmp_path, monkeypatch, rows):
    """As when the whole file was parsed before any row was checked: a
    cell over the CSV field limit, alone or after a bad row or a bad
    header, or in the header, is what the reader reports."""
    monkeypatch.setattr(S, "CHUNK_ROWS", rows)
    p = tmp_path / "t.csv"
    texts = [
        "x,y\n1,abc\n2,3\n4,1234567890123\n",
        "x,x\n1,2\n2,3\n4,1234567890123\n",
        "x,y\n1,2\n4,0000000000001\n",
        "x,yyyyyyyyyyyyy\n1,2\n",
    ]
    limit = csv.field_size_limit(12)
    try:
        for text in texts:
            p.write_text(text)
            with pytest.raises(ParseError, match=r"is not valid CSV: field larger than field limit \(12\)$"):
                read_trace_csv(p)
    finally:
        csv.field_size_limit(limit)


def test_trace_blocks_hold_at_most_chunk_rows_samples(tmp_path, monkeypatch):
    monkeypatch.setattr(S, "CHUNK_ROWS", 3)
    p = tmp_path / "t.csv"
    p.write_text("x\n" + "".join(f"{i}\n" for i in range(8)))
    blocks = list(S.trace_blocks(p))
    assert [b.columns["x"] for b in blocks] == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0], [6.0, 7.0]]
    assert read_trace_csv(p).columns == {"x": [float(i) for i in range(8)]}


def test_trace_stores_its_columns():
    t = Trace(("x", "y"), [{"x": 1.0, "y": 2.0}, {"x": 3, "y": -1.5}])
    assert t.columns == {"x": [1.0, 3], "y": [2.0, -1.5]}
    assert len(t) == 2
    assert t.samples == [{"x": 1.0, "y": 2.0}, {"x": 3, "y": -1.5}]
    assert t.samples is t.samples
    u = Trace.from_columns(("x", "y"), {"x": [1.0, 3], "y": [2.0, -1.5]})
    assert len(u) == 2 and u.samples == t.samples
    nothing = Trace((), [{}, {}, {}])
    assert len(nothing) == 3 and nothing.samples == [{}, {}, {}]


def test_trace_csv_rejects_duplicate_column(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x,x\n1,2\n")
    with pytest.raises(ParseError, match=r"'x' twice"):
        read_trace_csv(p)


def test_trace_csv_rejects_empty_column_name(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x, \n1,2\n")
    with pytest.raises(ParseError, match=r"column 2 has no name"):
        read_trace_csv(p)


def test_trace_csv_skips_blank_lines(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("x\n\n1\n\n2\n")
    t = read_trace_csv(p)
    assert [s["x"] for s in t.samples] == [1.0, 2.0]


def test_trace_csv_skips_a_whitespace_only_row_between_samples(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("x,y\n1,2\n  \t \n3,4\n , \n5,6\n")
    t = read_trace_csv(p)
    assert t.columns == {"x": [1.0, 3.0, 5.0], "y": [2.0, 4.0, 6.0]}


def test_trace_csv_names_the_file_line_of_a_bad_cell_after_a_blank_row(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x,y\n1,2\n\n \n3,abc\n")
    with pytest.raises(ParseError, match=r"^non-numeric cell in trace row 5, column 'y'$"):
        read_trace_csv(p)


def test_csv_rows_skip_exactly_the_blank_rows():
    """Blank lines and rows of blank cells are dropped; a row with any
    non-blank cell is kept, also when its first cell is blank."""
    text = "x,y\n\n , \n,5\n1,\n \t,\n3,4\n,\n"
    rows = list(S._csv_rows(io.StringIO(text, newline="")))
    reference = csv.reader(io.StringIO(text, newline=""))
    expected = [(reference.line_num, r) for r in reference if any(cell.strip() for cell in r)]
    assert rows == expected
    assert rows == [(1, ["x", "y"]), (4, ["", "5"]), (5, ["1", ""]), (7, ["3", "4"])]


def test_empty_trace_rejected():
    with pytest.raises(ValueError):
        Trace(("x",), [])


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_trace_rejects_non_finite_sample_naming_index_and_variable(bad):
    with pytest.raises(ParseError, match=r"sample 1, variable 'y'"):
        Trace(("x", "y"), [{"x": 1.0, "y": 2.0}, {"x": 1.0, "y": bad}])


@pytest.mark.parametrize("bad", ["a", None, [1.0]])
def test_trace_rejects_non_numeric_sample_naming_index_and_variable(bad):
    with pytest.raises(ParseError, match=r"non-numeric value .* at sample 1, variable 'y'"):
        Trace(("x", "y"), [{"x": 1.0, "y": 2.0}, {"x": 1.0, "y": bad}])


@pytest.mark.parametrize("bad, kind", [
    (math.nan, "non-finite"), (math.inf, "non-finite"), (-math.inf, "non-finite"),
    ("3", "non-numeric"), (None, "non-numeric"),
])
def test_from_columns_names_the_first_bad_value_in_sample_order(bad, kind):
    with pytest.raises(ParseError, match=rf"^{kind} value {re.escape(repr(bad))} at sample 1, variable 'y'$"):
        Trace.from_columns(("x", "y"), {"x": [1.0, 2.0, bad], "y": [2.0, bad, 3.0]})
    with pytest.raises(ParseError, match=r"at sample 1, variable 'x'$"):
        Trace.from_columns(("x", "y"), {"x": [1.0, bad], "y": [2.0, bad]})


@pytest.mark.parametrize("variables, columns", [
    (("x", "y"), {"x": [1.0, 2.0, 3.0], "y": [1.0]}),
    (("x", "y"), {"x": [1.0]}),
    (("x",), {"x": []}),
    ((), {}),
])
def test_from_columns_rejects_ragged_or_empty_columns(variables, columns):
    with pytest.raises(ValueError):
        Trace.from_columns(variables, columns)


def test_robustness_refuses_a_nan_column_trace():
    from arv.monitor import robustness
    from arv.semiring import TROPICAL

    with pytest.raises(ParseError, match=r"^non-finite value nan at sample 0, variable 'x'$"):
        robustness(
            Trace.from_columns(("x", "y"), {"x": [math.nan, 1.0], "y": [1.0, 1.0]}),
            parse_stl("G(x <= 5 -> F[0,2] y >= 2)"),
            TROPICAL,
        )


def test_spec_walks_return_on_ten_thousand_parts():
    """The variables functions and the window count share one iterative
    walk, so a flat conjunction or sequence far deeper than the
    recursion limit is scanned."""
    from arv.translate import _window_steps

    n = 10_000
    flat = parse_stl(" && ".join(f"x{i % 7} >= {i}" for i in range(n)))
    assert S.stl_variables(flat) == {f"x{k}" for k in range(7)}
    assert _window_steps(flat, "unfolding takes") == 0
    seq = parse_sre(" ; ".join(f"<y{i % 5} <= {i}>[0,2]" for i in range(n)))
    assert S.sre_variables(seq) == {f"y{k}" for k in range(5)}
    assert _window_steps(seq, "durations take") == 2 * n


def test_trace_csv_rejects_malformed_csv(tmp_path):
    p = tmp_path / "big.csv"
    p.write_text("x\n" + "1" * 200_000 + "\n")
    with pytest.raises(ParseError, match=r"not valid CSV: field larger than field limit"):
        read_trace_csv(p)
