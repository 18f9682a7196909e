"""Discrete-time STL and signal regular expressions.

Both languages share the comparison syntax of the predicate module and
are interpreted over finite, non-empty traces with one sample per time
step.  The evaluators here are the qualitative reference semantics: the
until operator is strict in both arguments, time windows clip at the
trace boundary, and a regular expression matches a trace when it
matches the full segment from position 0 to the trace length.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import inspect
import io
import itertools
import math
import re
import threading
import weakref
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

from . import predicate as P
from .errors import ParseError, UnboundVariableError

_ATOM_OPS = ("<", "<=", ">", ">=")


@dataclass(frozen=True)
class TimeWindow:
    """Discrete window [lo, hi] with hi=None for an unbounded right end."""

    lo: int = 0
    hi: int | None = None

    def __post_init__(self):
        if self.lo < 0 or (self.hi is not None and self.hi < self.lo):
            raise ValueError(f"bad time window [{self.lo},{self.hi}]")

    @property
    def unbounded(self) -> bool:
        return self.hi is None

    def __repr__(self):
        hi = "inf" if self.hi is None else self.hi
        return f"[{self.lo},{hi}]"


FULL_WINDOW = TimeWindow(0, None)


_NODES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_NODES_LOCK = threading.Lock()


class StlFormula:
    """An STL node.  Nodes are hash-consed (Filliâtre & Conchon,
    *Type-Safe Modular Hash-Consing*, 2006): building a node whose
    structure already exists returns the existing object, so equality
    is identity, and each node keeps a hash computed once from its
    children's stored hashes.  Neither ``hash`` nor ``==`` recurses."""

    _fields: tuple[str, ...] = ()
    _hash: int

    def __new__(cls, *args, **kwargs):
        if kwargs or len(args) != len(cls._fields):
            bound = cls.__signature__.bind(*args, **kwargs)
            bound.apply_defaults()
            args = tuple(bound.arguments.values())
        return _intern(cls, args, (cls, *args))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)


def _intern(cls, values, key):
    node = _NODES.get(key)
    if node is None:
        node = object.__new__(cls)
        for name, value in zip(cls._fields, values):
            object.__setattr__(node, name, value)
        object.__setattr__(node, "_hash", hash(key))
        with _NODES_LOCK:
            node = _NODES.setdefault(key, node)
    return node


def _hashconsed(cls):
    """Declare an STL node class: a frozen dataclass built by
    ``StlFormula.__new__``, which binds its fields and interns it."""
    cls = dataclass(frozen=True, eq=False, init=False)(cls)
    params = [
        inspect.Parameter(
            f.name,
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
            default=inspect.Parameter.empty if f.default is MISSING else f.default,
        )
        for f in fields(cls)
    ]
    cls._fields = tuple(p.name for p in params)
    cls.__signature__ = inspect.Signature(params)
    return cls


@_hashconsed
class Atom(StlFormula):
    var: str
    op: str
    value: float

    def __new__(cls, var, op, value):
        # -0.0 + 0.0 is 0.0: the two compare, print and measure alike
        value = float(value) + 0.0
        return _intern(cls, (var, op, value), (cls, var, op, value))


@_hashconsed
class TrueFormula(StlFormula):
    pass


@_hashconsed
class FalseFormula(StlFormula):
    pass


@_hashconsed
class Not(StlFormula):
    arg: StlFormula


@_hashconsed
class Or(StlFormula):
    left: StlFormula
    right: StlFormula


@_hashconsed
class And(StlFormula):
    left: StlFormula
    right: StlFormula


@_hashconsed
class Implies(StlFormula):
    left: StlFormula
    right: StlFormula


@_hashconsed
class Until(StlFormula):
    left: StlFormula
    right: StlFormula
    window: TimeWindow = FULL_WINDOW


@_hashconsed
class Eventually(StlFormula):
    arg: StlFormula
    window: TimeWindow = FULL_WINDOW


@_hashconsed
class Always(StlFormula):
    arg: StlFormula
    window: TimeWindow = FULL_WINDOW


@_hashconsed
class Next(StlFormula):
    arg: StlFormula


TRUE = TrueFormula()
FALSE = FalseFormula()


class SreExpr:
    pass


@dataclass(frozen=True)
class Epsilon(SreExpr):
    pass


@dataclass(frozen=True)
class SreBasic(SreExpr):
    pred: P.Dnf


@dataclass(frozen=True)
class SreConcat(SreExpr):
    left: SreExpr
    right: SreExpr


@dataclass(frozen=True)
class SreUnion(SreExpr):
    left: SreExpr
    right: SreExpr


@dataclass(frozen=True)
class SreIntersect(SreExpr):
    left: SreExpr
    right: SreExpr


@dataclass(frozen=True)
class SreStar(SreExpr):
    arg: SreExpr


@dataclass(frozen=True)
class SreDuration(SreExpr):
    arg: SreExpr
    window: TimeWindow


EPSILON = Epsilon()


# --- traces -----------------------------------------------------------------


class Trace:
    """Finite sequence of valuations, one per time step, stored as one
    column of values per variable (``columns``), which both constructors
    check alike.  ``samples`` is the row view, one dict per step, built
    on first use."""

    def __init__(self, variables, samples):
        try:
            columns = {v: [sample[v] for sample in samples] for v in variables}
        except KeyError as exc:
            raise UnboundVariableError(f"sample missing variable {exc.args[0]!r}") from None
        self._check(variables, columns, len(samples))

    @classmethod
    def from_columns(cls, variables, columns: dict) -> Trace:
        """A trace of one column of samples per variable."""
        trace = cls.__new__(cls)
        trace._check(variables, columns, len(columns.get(variables[0], ())) if variables else 0)
        return trace

    def _check(self, variables, columns, length):
        """``ValueError`` without samples or for ragged columns, and
        ``ParseError`` for the first value in sample order that is not a
        finite number."""
        if not length or any(len(columns.get(v, ())) != length for v in variables):
            raise ValueError("traces must contain at least one sample, and each column one value per sample")
        try:
            clean = all(all(map(math.isfinite, columns[v])) for v in variables)
        except TypeError:
            clean = False
        for i, row in enumerate(() if clean else zip(*map(columns.get, variables))):
            for v, x in zip(variables, row):
                try:
                    if math.isfinite(x):
                        continue
                    kind = "non-finite"
                except TypeError:
                    kind = "non-numeric"
                raise ParseError(f"{kind} value {x!r} at sample {i}, variable {v!r}")
        self.variables, self.columns, self._length = variables, columns, length

    @functools.cached_property
    def samples(self) -> list[dict]:
        rows = zip(*map(self.columns.get, self.variables)) if self.variables else [()] * self._length
        return [dict(zip(self.variables, row)) for row in rows]

    def __len__(self):
        return self._length


def _csv_rows(fh, offset: int = 0):
    """Non-blank CSV rows, as they are parsed, each with the line number it
    ends on plus ``offset``."""
    reader = csv.reader(fh)
    # the generator runs only for a row whose first cell is blank
    return (
        (offset + reader.line_num, r)
        for r in reader
        if r and (r[0].strip() or any(cell.strip() for cell in r))
    )


def _bad_row(header, body) -> ParseError:
    """The error for the first row, in file order, that is not one finite
    number per column: a wrong cell count, else its first bad cell."""
    for lineno, row in body:
        if len(row) != len(header):
            return ParseError(f"trace row {lineno} has {len(row)} cells, expected {len(header)}")
        for name, cell in zip(header, row):
            try:
                value = float(cell)
            except ValueError:
                return ParseError(f"non-numeric cell in trace row {lineno}, column {name!r}")
            if not math.isfinite(value):
                return ParseError(
                    f"non-finite value {cell.strip()!r} in trace row {lineno}, column {name!r}"
                )
    raise AssertionError("no row is bad")


def read_utf8(path, source: str) -> str:
    """The text of a UTF-8 file, less a leading byte-order mark.  The
    whole file is decoded at once, so a bad byte is reported at its
    offset in the file."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{source} is not UTF-8 text (byte {exc.start})") from None


# the samples a trace is read, checked, scored and relaxed in at a time
CHUNK_ROWS = 4096


def read_trace_csv(path) -> Trace:
    """Header row of variable names, one numeric row per sample; blank
    lines skipped; a file may start with a UTF-8 byte-order mark.  Errors
    name the file line of the first offending row.  This is
    ``trace_blocks`` read to the end, as one trace."""
    blocks = list(trace_blocks(path))
    columns = {v: list(itertools.chain.from_iterable(b.columns[v] for b in blocks)) for v in blocks[0].variables}
    return Trace.from_columns(blocks[0].variables, columns)


def trace_blocks(path):
    """A trace CSV file (see ``read_trace_csv``), decoded at once, as
    ``Trace`` blocks of at most ``CHUNK_ROWS`` samples, each read when
    asked for: in bulk (``_bulk_block``) if the file has no quote,
    carriage return or NUL and starts with its header, else through
    ``csv.reader``; CRLF becomes LF first if each CR ends a line and there
    is no quote or NUL.  A block that does not convert is re-read row by row,
    at its offset in the file, for ``_bad_row`` to name its first bad row."""
    source = f"trace file {path}"
    text = read_utf8(path, source)
    if "\r" in text and text.count("\r") == text.count("\r\n") and not any(c in text for c in '"\0'):
        text = text.replace("\r\n", "\n")
    try:
        try:
            blocks = 0
            for blocks, block in enumerate(filter(None, _blocks(text)), start=1):
                yield block
            if not blocks:
                raise ParseError("trace file has no samples")
        except ParseError:  # a CSV error anywhere in the file comes first
            for _ in csv.reader(io.StringIO(text, newline="")):
                pass
            raise
    except csv.Error as exc:
        raise ParseError(f"{source} is not valid CSV: {exc}") from None


def _blocks(text: str):
    """``trace_blocks`` of a file's text, with None for a block of blank rows."""
    end = text.find("\n") + 1 or len(text)
    first, limit = text[:end].split(","), csv.field_size_limit()
    if not any(map(str.strip, first)) or max(map(len, first)) > limit or any(c in text for c in '"\r\0'):
        rows = _csv_rows(io.StringIO(text, newline=""))
        header = _header(next(rows, (0, None))[1])
        while batch := list(itertools.islice(rows, CHUNK_ROWS)):
            yield _rows_block(header, batch)
        return
    header, line = _header(first), 1  # the lines before the block
    for match in re.compile(r"(?:.*\n){1,%d}|.+" % CHUNK_ROWS).finditer(text, end):
        block = match.group().removesuffix("\n") + "\n"
        yield _bulk_block(header, block, limit) or _rows_block(
            header, list(_csv_rows(io.StringIO(block, newline=""), line))
        )
        line += block.count("\n")


def _header(cells) -> tuple:
    """The names of a header row's cells (None: no header row)."""
    if cells is None:
        raise ParseError("trace file has no header row")
    header = tuple(h.strip() for h in cells)
    for col, name in enumerate(header, start=1):
        if not name:
            raise ParseError(f"trace header column {col} has no name")
        if name in header[: col - 1]:
            raise ParseError(f"trace header names column {name!r} twice")
    return header


def _bulk_block(header, block: str, limit: int):
    """Lines free of quotes, each ending in a newline, as a ``Trace``: one
    split, one ``float`` per cell, a slice per column.  Each newline is a
    cell of its own; with the right count of cells, one off its place
    lands in a column, where ``float`` refuses it.  None for any other
    block, or a cell that is not a finite number or over the field limit."""
    width, rows = len(header) + 1, block.count("\n")
    cells = block[:-1].replace("\n", ",\n,").split(",")
    if len(cells) != rows * width - 1:
        return None
    with contextlib.suppress(ValueError, ParseError):
        if len(block) <= limit or max(map(len, cells)) <= limit:
            return Trace.from_columns(header, {v: list(map(float, cells[j::width])) for j, v in enumerate(header)})
    return None


def _rows_block(header, rows):
    """Parsed rows with their line numbers as a ``Trace`` (None for no
    rows), or the error of ``_bad_row``."""
    try:
        return Trace.from_columns(header, _columns((row for _, row in rows), header)) if rows else None
    except (ValueError, ParseError):
        raise _bad_row(header, rows) from None


def _columns(rows, header) -> dict[str, list[float]]:
    """The rows as columns of floats, keyed by the header; ``ValueError``
    unless every row holds one number per column (``zip`` is strict)."""
    columns = (list(map(float, col)) for col in zip(*rows, strict=True))
    return dict(zip(header, columns, strict=True))


def write_trace_csv(trace: Trace, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(trace.variables)
        writer.writerows(zip(*map(trace.columns.get, trace.variables)))


# --- walking a spec -----------------------------------------------------------


def nodes(root):
    """Each node object of a formula or an expression once (STL nodes are
    hash-consed, SRE nodes are not), walked with a stack, not recursion."""
    seen = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        yield node
        stack += [getattr(node, attr) for attr in ("arg", "left", "right") if hasattr(node, attr)]


def stl_variables(f: StlFormula) -> set[str]:
    return {node.var for node in nodes(f) if isinstance(node, Atom)}


def sre_variables(e: SreExpr) -> set[str]:
    return {v for node in nodes(e) if isinstance(node, SreBasic) for v in P.dnf_variables(node.pred)}


# --- qualitative STL evaluation ---------------------------------------------


def _future_positions(i: int, w: TimeWindow, n: int):
    start = i + w.lo
    end = n - 1 if w.hi is None else min(i + w.hi, n - 1)
    return range(start, end + 1)


def eval_stl(trace: Trace, i: int, formula: StlFormula) -> bool:
    """Satisfaction of ``formula`` by ``trace`` at position ``i``."""
    n = len(trace)
    if not 0 <= i < n:
        raise ValueError(f"position {i} outside trace of length {n}")
    columns = trace.columns
    memo: dict = {}

    def ev(f, i):
        key = (id(f), i)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if isinstance(f, Atom):
            try:
                v = columns[f.var][i]
            except KeyError:
                raise UnboundVariableError(f"unbound variable {f.var!r}") from None
            if f.op == "<":
                r = v < f.value
            elif f.op == "<=":
                r = v <= f.value
            elif f.op == ">":
                r = v > f.value
            else:
                r = v >= f.value
        elif isinstance(f, TrueFormula):
            r = True
        elif isinstance(f, FalseFormula):
            r = False
        elif isinstance(f, Not):
            r = not ev(f.arg, i)
        elif isinstance(f, Or):
            r = ev(f.left, i) or ev(f.right, i)
        elif isinstance(f, And):
            r = ev(f.left, i) and ev(f.right, i)
        elif isinstance(f, Implies):
            r = (not ev(f.left, i)) or ev(f.right, i)
        elif isinstance(f, Until):
            r = any(
                ev(f.right, j) and all(ev(f.left, k) for k in range(i + 1, j))
                for j in _future_positions(i, f.window, n)
            )
        elif isinstance(f, Eventually):
            r = any(ev(f.arg, j) for j in _future_positions(i, f.window, n))
        elif isinstance(f, Always):
            r = all(ev(f.arg, j) for j in _future_positions(i, f.window, n))
        elif isinstance(f, Next):
            r = i + 1 < n and ev(f.arg, i + 1)
        else:
            raise TypeError(f"not an STL node: {f!r}")
        memo[key] = r
        return r

    return ev(formula, i)


# --- qualitative SRE evaluation ---------------------------------------------


def _sre_matches(trace: Trace, expr: SreExpr, memo: dict) -> set:
    """Set of segments (i, j), 0 <= i <= j <= len(trace), matching expr."""
    key = id(expr)
    hit = memo.get(key)
    if hit is not None:
        return hit
    n = len(trace)
    if isinstance(expr, Epsilon):
        out = {(i, i) for i in range(n + 1)}
    elif isinstance(expr, SreBasic):
        sat = [P.evaluate(s, expr.pred) for s in trace.samples]
        out = set()
        for i in range(n + 1):
            out.add((i, i))
            j = i
            while j < n and sat[j]:
                j += 1
                out.add((i, j))
    elif isinstance(expr, SreConcat):
        m1 = _sre_matches(trace, expr.left, memo)
        m2 = _sre_matches(trace, expr.right, memo)
        starts = {}
        for k, j in m2:
            starts.setdefault(k, set()).add(j)
        out = {(i, j) for (i, k) in m1 for j in starts.get(k, ())}
    elif isinstance(expr, SreUnion):
        out = _sre_matches(trace, expr.left, memo) | _sre_matches(trace, expr.right, memo)
    elif isinstance(expr, SreIntersect):
        out = _sre_matches(trace, expr.left, memo) & _sre_matches(trace, expr.right, memo)
    elif isinstance(expr, SreStar):
        base = _sre_matches(trace, expr.arg, memo)
        reach = [{i} for i in range(n + 1)]
        changed = True
        while changed:
            changed = False
            for i in range(n + 1):
                for k in list(reach[i]):
                    for (a, b) in base:
                        if a == k and b not in reach[i]:
                            reach[i].add(b)
                            changed = True
        out = {(i, j) for i in range(n + 1) for j in reach[i] if j >= i}
    elif isinstance(expr, SreDuration):
        inner = _sre_matches(trace, expr.arg, memo)
        w = expr.window
        out = {
            (i, j)
            for (i, j) in inner
            if j - i >= w.lo and (w.hi is None or j - i <= w.hi)
        }
    else:
        raise TypeError(f"not an SRE node: {expr!r}")
    memo[key] = out
    return out


def eval_sre(trace: Trace, i: int, j: int, expr: SreExpr) -> bool:
    """Match of ``expr`` against the segment [i, j) of ``trace``."""
    n = len(trace)
    if not 0 <= i <= j <= n:
        raise ValueError(f"bad segment ({i},{j}) for trace of length {n}")
    return (i, j) in _sre_matches(trace, expr, {})


def sre_accepts(trace: Trace, expr: SreExpr) -> bool:
    return eval_sre(trace, 0, len(trace), expr)


# --- rewriting ----------------------------------------------------------------


def negate(f: StlFormula) -> StlFormula:
    """The negation of ``f``: a double negation cancels, and ``true`` and
    ``false`` swap."""
    if isinstance(f, Not):
        return f.arg
    if isinstance(f, TrueFormula):
        return FALSE
    if isinstance(f, FalseFormula):
        return TRUE
    return Not(f)


def _or(a, b):
    if isinstance(a, TrueFormula) or isinstance(b, TrueFormula):
        return TRUE
    if isinstance(a, FalseFormula):
        return b
    if isinstance(b, FalseFormula):
        return a
    return Or(a, b)


def _and(a, b):
    if isinstance(a, FalseFormula) or isinstance(b, FalseFormula):
        return FALSE
    if isinstance(a, TrueFormula):
        return b
    if isinstance(b, TrueFormula):
        return a
    return And(a, b)


def _next(a):
    if isinstance(a, FalseFormula):
        return FALSE
    return Next(a)


RESIDUAL_WINDOW = TimeWindow(1, None)


def _unfold_nonstrict(left, right, lo, hi):
    # until whose lower-bound side also constrains the current position:
    # built from the last window step outwards, one loop per window part
    if hi is None:
        node = _or(right, _and(left, Until(left, right, RESIDUAL_WINDOW)))
    else:
        node = right
        for _ in range(hi - lo):
            node = _or(right, _and(left, _next(node)))
    for _ in range(lo):
        node = _and(left, _next(node))
    return node


def _unfold_strict(left, right, window):
    lo, hi = window.lo, window.hi
    if lo == 0:
        if hi == 0:
            return right
        if hi is None:
            return _or(right, Until(left, right, RESIDUAL_WINDOW))
        return _or(right, _next(_unfold_nonstrict(left, right, 0, hi - 1)))
    if lo == 1 and hi is None:
        return Until(left, right, RESIDUAL_WINDOW)
    nhi = None if hi is None else hi - 1
    return _next(_unfold_nonstrict(left, right, lo - 1, nhi))


def unfold_bounded(f: StlFormula) -> StlFormula:
    """Rewrite a formula, in one walk, to the tableau's input: atoms,
    ``true`` and ``false``, ``!``, ``||``, ``&&``, strong next and the
    single residual until shape with window [1, inf).  ``&&`` and ``->``
    become ``!`` and ``||``, ``F`` and ``G`` untils with a ``true`` left
    side, and bounded windows nested next/or/and form; double negations
    and negated constants go."""

    def walk(node):
        if isinstance(node, (Atom, TrueFormula, FalseFormula)):
            return node
        if isinstance(node, Not):
            return negate(walk(node.arg))
        if isinstance(node, Or):
            return _or(walk(node.left), walk(node.right))
        if isinstance(node, And):
            return negate(_or(negate(walk(node.left)), negate(walk(node.right))))
        if isinstance(node, Implies):
            return _or(negate(walk(node.left)), walk(node.right))
        if isinstance(node, Next):
            return _next(walk(node.arg))
        if isinstance(node, Until):
            return _unfold_strict(walk(node.left), walk(node.right), node.window)
        if isinstance(node, Eventually):
            return _unfold_strict(TRUE, walk(node.arg), node.window)
        if isinstance(node, Always):
            return negate(_unfold_strict(TRUE, negate(walk(node.arg)), node.window))
        raise TypeError(f"not an STL node: {node!r}")

    return walk(f)


# --- concrete syntax ----------------------------------------------------------

_STL_UNARY = {"F": Eventually, "G": Always}
# S, P, H and Y name past operators, which no translation accepts; they
# stay reserved so a past-time spec fails at the operator itself
_STL_RESERVED = {"F", "G", "X", "Y", "U", "S", "P", "H", "T", "E", "true", "false"}


def _parse_window(t: P._Tokens, default=FULL_WINDOW) -> TimeWindow:
    if t.peek()[0] != "[":
        return default
    t.next()
    kind, lo, pos = t.next()
    if kind != "num" or lo != int(lo) or lo < 0:
        raise ParseError("window bounds must be naturals", pos)
    t.expect(",")
    kind, hi, pos = t.next()
    if kind == "ident" and hi == "inf":
        hi = None
    elif kind == "num" and hi == int(hi) and hi >= 0:
        hi = int(hi)
    else:
        raise ParseError("window upper bound must be a natural or inf", pos)
    t.expect("]")
    try:
        return TimeWindow(int(lo), hi)
    except ValueError as exc:
        raise ParseError(str(exc), pos) from None


class _StlParser:
    """Precedence: unary/temporal-unary > && > || > U > ->."""

    def __init__(self, tokens: P._Tokens):
        self.t = tokens

    def parse(self) -> StlFormula:
        node = self.parse_implies()
        kind, _, pos = self.t.peek()
        if kind != "eof":
            raise ParseError("trailing input after formula", pos)
        return node

    def parse_implies(self) -> StlFormula:
        node = self.parse_until()
        if self.t.peek()[0] == "->":
            self.t.next()
            return Implies(node, self.parse_implies())
        return node

    def parse_until(self) -> StlFormula:
        node = self.parse_or()
        while self.t.peek()[:2] == ("ident", "U"):
            self.t.next()
            window = _parse_window(self.t)
            node = Until(node, self.parse_or(), window)
        return node

    def parse_or(self) -> StlFormula:
        node = self.parse_and()
        while self.t.peek()[0] == "||":
            self.t.next()
            node = Or(node, self.parse_and())
        return node

    def parse_and(self) -> StlFormula:
        node = self.parse_unary()
        while self.t.peek()[0] == "&&":
            self.t.next()
            node = And(node, self.parse_unary())
        return node

    def parse_unary(self) -> StlFormula:
        kind, value, pos = self.t.peek()
        if kind == "!":
            self.t.next()
            return Not(self.parse_unary())
        if kind == "ident" and value in _STL_UNARY:
            self.t.next()
            window = _parse_window(self.t)
            return _STL_UNARY[value](self.parse_unary(), window)
        if kind == "ident" and value == "X":
            self.t.next()
            return Next(self.parse_unary())
        return self.parse_atom()

    def parse_atom(self) -> StlFormula:
        kind, value, pos = self.t.peek()
        if kind == "(":
            self.t.next()
            node = self.parse_implies()
            self.t.expect(")")
            return node
        if kind == "ident":
            if value in ("true", "T"):
                self.t.next()
                return TRUE
            if value == "false":
                self.t.next()
                return FALSE
            if value in _STL_RESERVED:
                raise ParseError(f"unexpected operator {value!r}", pos)
            self.t.next()
            op_kind, op, op_pos = self.t.next()
            if op_kind != "cmp":
                raise ParseError(f"expected comparison after variable {value!r}", op_pos)
            num_kind, k, num_pos = self.t.next()
            if num_kind != "num":
                raise ParseError("expected numeric constant in comparison", num_pos)
            return Atom(value, op, float(k))
        raise ParseError(f"expected formula, found {P._Tokens._show(self.t.peek())}", pos)


def parse_stl(text: str) -> StlFormula:
    return _StlParser(P._Tokens(text)).parse()


class _SreParser:
    """Precedence: postfix * > ; (concat) > & (intersect) > | (union)."""

    def __init__(self, tokens: P._Tokens):
        self.t = tokens

    def parse(self) -> SreExpr:
        node = self.parse_union()
        kind, _, pos = self.t.peek()
        if kind != "eof":
            raise ParseError("trailing input after expression", pos)
        return node

    def parse_union(self) -> SreExpr:
        node = self.parse_intersect()
        while self.t.peek()[0] == "|":
            self.t.next()
            node = SreUnion(node, self.parse_intersect())
        return node

    def parse_intersect(self) -> SreExpr:
        node = self.parse_concat()
        while self.t.peek()[0] == "&":
            self.t.next()
            node = SreIntersect(node, self.parse_concat())
        return node

    def parse_concat(self) -> SreExpr:
        node = self.parse_postfix()
        while self.t.peek()[0] == ";":
            self.t.next()
            node = SreConcat(node, self.parse_postfix())
        return node

    def parse_postfix(self) -> SreExpr:
        node = self.parse_primary()
        while self.t.peek()[0] == "*":
            self.t.next()
            node = SreStar(node)
        return node

    def parse_primary(self) -> SreExpr:
        kind, value, pos = self.t.peek()
        if kind == "cmp" and value == "<":
            self.t.next()
            inner = self.parse_union()
            close_kind, close_val, close_pos = self.t.next()
            if (close_kind, close_val) != ("cmp", ">"):
                raise ParseError("expected '>' closing duration brackets", close_pos)
            window = _parse_window(self.t, default=None)
            if window is None:
                raise ParseError("duration brackets need a window", close_pos)
            return SreDuration(inner, window)
        if kind == "ident" and value == "E":
            self.t.next()
            return EPSILON
        if kind == "(":
            mark = self.t.pos
            try:
                return SreBasic(P._PredParser(self.t).parse_dnf())
            except ParseError:
                self.t.pos = mark
            self.t.next()
            node = self.parse_union()
            self.t.expect(")")
            return node
        if kind in ("ident", "!"):
            return SreBasic(P._PredParser(self.t).parse_dnf())
        raise ParseError(f"expected expression, found {P._Tokens._show(self.t.peek())}", pos)


def parse_sre(text: str) -> SreExpr:
    return _SreParser(P._Tokens(text)).parse()


def parse_spec_text(text: str):
    """Parse a spec file body: optional first-line ``#lang stl|sre``."""
    lines = text.splitlines()
    lang = "stl"
    body_lines = []
    seen_content = False
    for line in lines:
        stripped = line.strip()
        if not seen_content and stripped.startswith("#lang"):
            lang = stripped.split()[-1].lower()
            if lang not in ("stl", "sre"):
                raise ParseError(f"unknown spec language {lang!r}")
            seen_content = True
            continue
        if stripped:
            seen_content = True
        body_lines.append(line)
    body = "\n".join(body_lines).strip()
    if not body:
        raise ParseError("empty specification")
    if lang == "stl":
        return "stl", parse_stl(body)
    return "sre", parse_sre(body)


# --- pretty printing ----------------------------------------------------------


def _window_suffix(w: TimeWindow) -> str:
    if w == FULL_WINDOW:
        return ""
    hi = "inf" if w.hi is None else w.hi
    return f"[{w.lo},{hi}]"


def print_stl(f: StlFormula) -> str:
    """Concrete syntax; reparsing the output rebuilds the same tree."""

    def prec(node):
        if isinstance(node, Implies):
            return 0
        if isinstance(node, Until):
            return 1
        if isinstance(node, Or):
            return 2
        if isinstance(node, And):
            return 3
        return 4

    def wrap(node, limit):
        s = go(node)
        return f"({s})" if prec(node) < limit else s

    def go(node):
        if isinstance(node, Atom):
            return f"{node.var} {node.op} {P.fmt_const(node.value)}"
        if isinstance(node, TrueFormula):
            return "true"
        if isinstance(node, FalseFormula):
            return "false"
        if isinstance(node, Not):
            return f"!{wrap(node.arg, 4)}"
        if isinstance(node, Or):
            right = wrap(node.right, 3)
            if isinstance(node.right, Or):
                right = f"({go(node.right)})"
            return f"{wrap(node.left, 2)} || {right}"
        if isinstance(node, And):
            right = wrap(node.right, 4)
            return f"{wrap(node.left, 3)} && {right}"
        if isinstance(node, Implies):
            return f"{wrap(node.left, 1)} -> {wrap(node.right, 0)}"
        if isinstance(node, Until):
            right = wrap(node.right, 2)
            if isinstance(node.right, Until):
                right = f"({go(node.right)})"
            return f"{wrap(node.left, 2)} U{_window_suffix(node.window)} {right}"
        if isinstance(node, Eventually):
            return f"F{_window_suffix(node.window)} {wrap(node.arg, 4)}"
        if isinstance(node, Always):
            return f"G{_window_suffix(node.window)} {wrap(node.arg, 4)}"
        if isinstance(node, Next):
            return f"X {wrap(node.arg, 4)}"
        raise TypeError(f"not an STL node: {node!r}")

    return go(f)


def print_sre(e: SreExpr) -> str:
    def prec(node):
        if isinstance(node, SreUnion):
            return 0
        if isinstance(node, SreIntersect):
            return 1
        if isinstance(node, SreConcat):
            return 2
        return 3

    def wrap(node, limit):
        s = go(node)
        return f"({s})" if prec(node) < limit else s

    def go(node):
        if isinstance(node, Epsilon):
            return "E"
        if isinstance(node, SreBasic):
            return P.print_predicate(node.pred)
        if isinstance(node, SreConcat):
            right = wrap(node.right, 3) if isinstance(node.right, SreConcat) else wrap(node.right, 2)
            return f"{wrap(node.left, 2)} ; {right}"
        if isinstance(node, SreIntersect):
            right = wrap(node.right, 2) if isinstance(node.right, SreIntersect) else wrap(node.right, 1)
            return f"{wrap(node.left, 1)} & {right}"
        if isinstance(node, SreUnion):
            right = wrap(node.right, 1) if isinstance(node.right, SreUnion) else wrap(node.right, 0)
            return f"{wrap(node.left, 0)} | {right}"
        if isinstance(node, SreStar):
            return f"({go(node.arg)})*"
        if isinstance(node, SreDuration):
            hi = "inf" if node.window.hi is None else node.window.hi
            return f"<{go(node.arg)}>[{node.window.lo},{hi}]"
        raise TypeError(f"not an SRE node: {node!r}")

    return go(e)
