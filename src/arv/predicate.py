"""Predicates over real-valued variables.

A predicate is a Boolean combination of single-variable comparisons
``x < k`` / ``x <= k``.  ``Pred`` trees live at the edges only: the
parsers build them and ``print_predicate`` prints them.  Inside the
automaton layer every guard is a flat ``Dnf``, converted once by
``to_dnf`` where an automaton is made, and there ``wedge_minimize``
strips redundant conjuncts so that distance computation stays exact for
semirings whose multiplication is not idempotent, and ``dnf_boxes`` /
``boxes_to_dnf`` move between a DNF and its region as disjoint boxes.

Concrete syntax (shared with the specification parsers):
``x <= 3 && !(y < 2) || z < 0`` with operators ``&&``, ``||``, ``!`` and
comparisons ``<``, ``<=``, ``>``, ``>=``; the latter two desugar to
negated literals.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from itertools import product

from .errors import ParseError, UnboundVariableError
from .intervals import INF, Box, Interval, subtract_boxes


class Pred:
    """Base class for predicate AST nodes."""


@dataclass(frozen=True)
class Top(Pred):
    def __repr__(self):
        return "true"


@dataclass(frozen=True)
class Bottom(Pred):
    def __repr__(self):
        return "false"


@dataclass(frozen=True)
class Cmp(Pred):
    """Atomic comparison ``var op k`` with op in {"<", "<="}."""

    var: str
    op: str
    k: float

    def __repr__(self):
        return f"{self.var} {self.op} {fmt_const(self.k)}"


@dataclass(frozen=True)
class Not(Pred):
    arg: Pred

    def __repr__(self):
        return f"!({self.arg!r})"


@dataclass(frozen=True)
class Or(Pred):
    left: Pred
    right: Pred


@dataclass(frozen=True)
class And(Pred):
    left: Pred
    right: Pred


TOP = Top()
BOTTOM = Bottom()

# A DNF literal is Top, Bottom, Cmp, or Not(Cmp).
Literal = Pred


@dataclass(frozen=True)
class Dnf:
    """Predicate in disjunctive normal form: a union of literal
    conjunctions.  Guards key dictionaries all through the automaton
    layer, so the hash is computed once (and again when unpickled, as
    string hashes differ between processes)."""

    clauses: tuple[tuple[Literal, ...], ...]
    wedge_minimal: bool = field(default=False, compare=False)
    _hash: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(self.clauses))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return Dnf, (self.clauses, self.wedge_minimal)


def fmt_const(k: float) -> str:
    if isinstance(k, float) and k.is_integer() and abs(k) < 1e15:
        return str(int(k))
    return str(k)


def comparison(var: str, op: str, k: float) -> Pred:
    """Build a literal from any of <, <=, >, >= (the last two negate)."""
    k = float(k)
    if op == "<":
        return Cmp(var, "<", k)
    if op == "<=":
        return Cmp(var, "<=", k)
    if op == ">":
        return Not(Cmp(var, "<=", k))
    if op == ">=":
        return Not(Cmp(var, "<", k))
    raise ValueError(f"unknown comparison operator {op!r}")


def variables_of(p: Pred) -> set[str]:
    if isinstance(p, Cmp):
        return {p.var}
    if isinstance(p, Not):
        return variables_of(p.arg)
    if isinstance(p, (And, Or)):
        return variables_of(p.left) | variables_of(p.right)
    return set()


def evaluate(valuation: dict, p: Pred) -> bool:
    """Standard Boolean evaluation of a predicate under a valuation."""
    if isinstance(p, Top):
        return True
    if isinstance(p, Bottom):
        return False
    if isinstance(p, Cmp):
        try:
            v = valuation[p.var]
        except KeyError:
            raise UnboundVariableError(f"unbound variable {p.var!r}") from None
        return v < p.k if p.op == "<" else v <= p.k
    if isinstance(p, Not):
        return not evaluate(valuation, p.arg)
    if isinstance(p, Or):
        return evaluate(valuation, p.left) or evaluate(valuation, p.right)
    if isinstance(p, And):
        return evaluate(valuation, p.left) and evaluate(valuation, p.right)
    raise TypeError(f"not a predicate node: {p!r}")


def evaluate_dnf(valuation: dict, dnf: Dnf) -> bool:
    return any(all(evaluate(valuation, lit) for lit in c) for c in dnf.clauses)


# --- DNF conversion -------------------------------------------------------


def _nnf(p: Pred, negated: bool) -> Pred:
    if isinstance(p, Top):
        return BOTTOM if negated else TOP
    if isinstance(p, Bottom):
        return TOP if negated else BOTTOM
    if isinstance(p, Cmp):
        return Not(p) if negated else p
    if isinstance(p, Not):
        return _nnf(p.arg, not negated)
    if isinstance(p, Or):
        l, r = _nnf(p.left, negated), _nnf(p.right, negated)
        return And(l, r) if negated else Or(l, r)
    if isinstance(p, And):
        l, r = _nnf(p.left, negated), _nnf(p.right, negated)
        return Or(l, r) if negated else And(l, r)
    raise TypeError(f"not a predicate node: {p!r}")


def _clauses(p: Pred) -> list[tuple]:
    if isinstance(p, (Top, Bottom, Cmp, Not)):
        return [(p,)]
    if isinstance(p, Or):
        return _clauses(p.left) + _clauses(p.right)
    if isinstance(p, And):
        return [l + r for l, r in product(_clauses(p.left), _clauses(p.right))]
    raise TypeError(f"not a predicate node: {p!r}")


def to_dnf(p: Pred) -> Dnf:
    """Push negations to the literals and distribute conjunction over
    disjunction.  Clause and literal order follow the input."""
    return Dnf(tuple(_clauses(_nnf(p, False))))


# --- intervals of literals ------------------------------------------------


def literal_interval(lit: Literal) -> Interval:
    """The half-line a comparison literal denotes."""
    if isinstance(lit, Cmp):
        return Interval.make(-INF, lit.k, False, lit.op == "<=")
    if isinstance(lit, Not) and isinstance(lit.arg, Cmp):
        c = lit.arg
        return Interval.make(c.k, INF, c.op == "<", False)
    raise ValueError(f"not a comparison literal: {lit!r}")


def conjunct_box(box: Box, clause, var_index: dict) -> Box:
    """Intersect ``box`` with the region of a conjunct of literals."""
    comps = list(box.components)
    for lit in clause:
        if isinstance(lit, Top):
            continue
        if isinstance(lit, Bottom):
            return Box.all_empty(len(comps))
        var = lit.var if isinstance(lit, Cmp) else lit.arg.var
        i = var_index[var]
        comps[i] = comps[i].intersect(literal_interval(lit))
        if comps[i].empty:
            return Box.all_empty(len(comps))
    return Box(tuple(comps))


def _clause_sat(clause, var_index) -> bool:
    return not conjunct_box(Box.full(len(var_index)), clause, var_index).is_empty


def _index(variables) -> dict:
    return {v: i for i, v in enumerate(variables)}


def dnf_variables(dnf: Dnf) -> list[str]:
    seen = []
    for clause in dnf.clauses:
        for lit in clause:
            for v in variables_of(lit):
                if v not in seen:
                    seen.append(v)
    return seen


def is_sat(dnf: Dnf) -> bool:
    """Satisfiability by per-variable interval intersection.

    Complete here because literals constrain one variable each, so a
    conjunct is satisfiable iff no per-variable intersection empties out.
    """
    idx = _index(dnf_variables(dnf) or ["_"])
    return any(_clause_sat(c, idx) for c in dnf.clauses)


# --- conjunction minimization ---------------------------------------------


def _minimize_clause(clause) -> tuple:
    lits = []
    for lit in clause:
        if lit not in lits:
            lits.append(lit)
    if any(isinstance(l, Bottom) for l in lits):
        return (BOTTOM,)
    comparisons = [l for l in lits if not isinstance(l, Top)]
    if not comparisons:
        return (TOP,)
    keep = []
    for j, lj in enumerate(comparisons):
        ij = literal_interval(lj)
        implied = False
        for i, li in enumerate(comparisons):
            if i == j:
                continue
            vi = li.var if isinstance(li, Cmp) else li.arg.var
            vj = lj.var if isinstance(lj, Cmp) else lj.arg.var
            if vi == vj and literal_interval(li).subset_of(ij):
                implied = True
                break
        if not implied:
            keep.append(lj)
    return tuple(keep)


def wedge_minimize(dnf: Dnf) -> Dnf:
    """Drop, per clause, every literal implied by another literal of the
    same clause.  Implication between same-variable literals is interval
    containment; literals over distinct variables never imply each other.
    A clause reduced to false is dropped unless the whole predicate is
    false."""
    out = []
    for clause in dnf.clauses:
        reduced = _minimize_clause(clause)
        if reduced == (BOTTOM,):
            continue
        out.append(reduced)
    if not out:
        out = [(BOTTOM,)]
    return Dnf(tuple(out), wedge_minimal=True)


# --- region form: disjoint boxes and back ----------------------------------


def dnf_boxes(dnf: Dnf, variables=None) -> list[Box]:
    """A pairwise-disjoint box cover of the DNF's region.

    Later clauses enter whole; earlier accumulated boxes are carved down
    to their parts outside the new clause.
    """
    if variables is None:
        variables = dnf_variables(dnf)
    variables = list(variables) or ["_"]
    idx = _index(variables)
    n = len(variables)
    boxes: list[Box] = []
    for clause in dnf.clauses:
        region = conjunct_box(Box.full(n), clause, idx)
        if region.is_empty:
            continue
        if region.is_full:
            return [region]
        boxes = [region] + subtract_boxes(boxes, region)
    return boxes


def _interval_literals(var: str, comp: Interval) -> list:
    lits = []
    lo, hi = comp.lo, comp.hi
    if comp.lo_closed and comp.hi_closed:
        lits = [Cmp(var, "<=", hi), Not(Cmp(var, "<", lo))]
    elif not comp.lo_closed and not comp.hi_closed:
        if lo == -INF and hi != INF:
            lits = [Cmp(var, "<", hi)]
        elif lo != -INF and hi == INF:
            lits = [Not(Cmp(var, "<=", lo))]
        elif lo != -INF and hi != INF:
            lits = [Cmp(var, "<", hi), Not(Cmp(var, "<=", lo))]
    elif comp.lo_closed:
        lits = [Not(Cmp(var, "<", lo))]
        if hi != INF:
            lits.append(Cmp(var, "<", hi))
    else:
        lits = [Cmp(var, "<=", hi)]
        if lo != -INF:
            lits.append(Not(Cmp(var, "<=", lo)))
    return lits


def boxes_to_dnf(boxes, variables) -> Dnf:
    """Encode each box as one conjunct of bound literals."""
    clauses = []
    for box in boxes:
        if box.is_empty:
            continue
        lits = []
        for var, comp in zip(variables, box.components):
            lits.extend(_interval_literals(var, comp))
        clauses.append(tuple(lits) if lits else (TOP,))
    if not clauses:
        clauses = [(BOTTOM,)]
    return Dnf(tuple(clauses), wedge_minimal=True)


# --- concrete syntax --------------------------------------------------------

_CMP_OPS = ("<=", ">=", "<", ">")
_EXPONENT = re.compile(r"[eE][+-]?[0-9]+")


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.toks: list[tuple[str, object, int]] = []
        self._lex()
        self.pos = 0

    def _lex(self):
        text, i, n = self.text, 0, len(self.text)
        while i < n:
            c = text[i]
            if c.isspace():
                i += 1
                continue
            if text.startswith("&&", i):
                self.toks.append(("&&", None, i)); i += 2
            elif text.startswith("||", i):
                self.toks.append(("||", None, i)); i += 2
            elif text.startswith("->", i):
                self.toks.append(("->", None, i)); i += 2
            elif text.startswith("<=", i):
                self.toks.append(("cmp", "<=", i)); i += 2
            elif text.startswith(">=", i):
                self.toks.append(("cmp", ">=", i)); i += 2
            elif c in "<>":
                self.toks.append(("cmp", c, i)); i += 1
            elif c in "()[],;&|!*":
                self.toks.append((c, None, i)); i += 1
            elif c == "-" or c.isdigit() or c == ".":
                j = i + 1 if c == "-" else i
                while j < n and (text[j].isdigit() or text[j] == "."):
                    j += 1
                exp = _EXPONENT.match(text, j)
                if exp:
                    j = exp.end()
                lit = text[i:j]
                try:
                    value = float(lit)
                except ValueError:
                    raise ParseError(f"bad number {lit!r}", i)
                if not math.isfinite(value):
                    raise ParseError(f"non-finite number {lit!r}", i)
                self.toks.append(("num", value, i)); i = j
            elif c.isalpha() or c == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.toks.append(("ident", text[i:j], i)); i = j
            else:
                raise ParseError(f"unexpected character {c!r}", i)

    def peek(self):
        if self.pos < len(self.toks):
            return self.toks[self.pos]
        return ("eof", None, len(self.text))

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {self._show(tok)}", tok[2])
        return tok

    @staticmethod
    def _show(tok):
        kind, value, _ = tok
        return repr(value) if value is not None else repr(kind)


_PRED_KEYWORDS = {"true": TOP, "T": TOP, "false": BOTTOM}


class _PredParser:
    """Recursive descent over: or > and > unary > atom."""

    def __init__(self, tokens: _Tokens):
        self.t = tokens

    def parse_or(self) -> Pred:
        node = self.parse_and()
        while self.t.peek()[0] == "||":
            self.t.next()
            node = Or(node, self.parse_and())
        return node

    def parse_and(self) -> Pred:
        node = self.parse_unary()
        while self.t.peek()[0] == "&&":
            self.t.next()
            node = And(node, self.parse_unary())
        return node

    def parse_unary(self) -> Pred:
        kind, value, pos = self.t.peek()
        if kind == "!":
            self.t.next()
            return Not(self.parse_unary())
        if kind == "(":
            self.t.next()
            node = self.parse_or()
            self.t.expect(")")
            return node
        if kind == "ident":
            if value in _PRED_KEYWORDS:
                self.t.next()
                return _PRED_KEYWORDS[value]
            self.t.next()
            op_kind, op, op_pos = self.t.next()
            if op_kind != "cmp":
                raise ParseError(f"expected comparison after variable {value!r}", op_pos)
            num_kind, k, num_pos = self.t.next()
            if num_kind != "num":
                raise ParseError("expected numeric constant in comparison", num_pos)
            return comparison(value, op, k)
        raise ParseError(f"expected predicate, found {_Tokens._show(self.t.peek())}", pos)


def parse_predicate(text: str) -> Pred:
    tokens = _Tokens(text)
    node = _PredParser(tokens).parse_or()
    kind, _, pos = tokens.peek()
    if kind != "eof":
        raise ParseError("trailing input after predicate", pos)
    return node


def print_predicate(p: Pred | Dnf) -> str:
    """Concrete syntax; negated comparisons render as ``!(x < k)``.

    A ``Dnf`` prints flat, `` || `` between clauses and `` && `` between
    literals, and ``to_dnf`` of the reparsed text gives back its clauses.
    A ``Pred`` is parenthesized so that reparsing the output rebuilds
    the same tree (the binary operators parse left-associative).
    """
    if isinstance(p, Dnf):
        return " || ".join(" && ".join(map(print_predicate, c)) for c in p.clauses)
    if isinstance(p, Top):
        return "true"
    if isinstance(p, Bottom):
        return "false"
    if isinstance(p, Cmp):
        return f"{p.var} {p.op} {fmt_const(p.k)}"
    if isinstance(p, Not):
        return f"!({print_predicate(p.arg)})"
    if isinstance(p, Or):
        left = print_predicate(p.left)
        right = print_predicate(p.right)
        if isinstance(p.right, Or):
            right = f"({right})"
        return f"{left} || {right}"
    if isinstance(p, And):
        left = print_predicate(p.left)
        right = print_predicate(p.right)
        if isinstance(p.left, Or):
            left = f"({left})"
        if isinstance(p.right, (Or, And)):
            right = f"({right})"
        return f"{left} && {right}"
    raise TypeError(f"not a predicate node: {p!r}")
