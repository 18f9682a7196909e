"""Predicates over real-valued variables, in one form: the ``Dnf``.

A predicate is a Boolean combination of single-variable comparisons
``x < k`` / ``x <= k``.  The parser builds its disjunctive normal form
directly, pushing negations to the literals and distributing
conjunction over disjunction as it reads, so no predicate tree exists:
propositions, guards and ``vpd`` arguments are all flat ``Dnf``s over
the literals ``Top``, ``Bottom``, ``Cmp`` and ``Not`` of a ``Cmp``.
``evaluate`` is the one evaluator and ``print_predicate`` the one
printer.  ``dnf_boxes`` / ``boxes_to_dnf`` move between a DNF and its
region as a cover of boxes, one per satisfiable clause, and
``wedge_minimize`` is their round trip, the one normal form: each
clause becomes its box's bound literals (variables sorted, per variable
the upper bound's literal before the lower bound's).  No literal left
implies another, so distance computation stays exact for semirings
whose multiplication is not idempotent.

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
from .intervals import INF, Box, Interval


class Literal:
    """Base class of the DNF literals: ``Top``, ``Bottom``, ``Cmp`` and
    ``Not`` of a ``Cmp``."""


@dataclass(frozen=True)
class Top(Literal):
    def __repr__(self):
        return "true"


@dataclass(frozen=True)
class Bottom(Literal):
    def __repr__(self):
        return "false"


@dataclass(frozen=True)
class Cmp(Literal):
    """Atomic comparison ``var op k`` with op in {"<", "<="}."""

    var: str
    op: str
    k: float

    def __repr__(self):
        return f"{self.var} {self.op} {fmt_const(self.k)}"


@dataclass(frozen=True)
class Not(Literal):
    """A negated comparison; ``arg`` is a ``Cmp``."""

    arg: Cmp

    @property
    def var(self) -> str:
        return self.arg.var

    def __repr__(self):
        return f"!({self.arg!r})"


TOP = Top()
BOTTOM = Bottom()


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


# the guard of a step that reads any sample
TRUE = Dnf(((TOP,),), wedge_minimal=True)


def fmt_const(k: float) -> str:
    if isinstance(k, float) and k.is_integer() and abs(k) < 1e15:
        return str(int(k))
    return str(k)


def comparison(var: str, op: str, k: float) -> Literal:
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


def negate_literal(lit: Literal) -> Literal:
    """The literal that holds exactly where ``lit`` does not."""
    if isinstance(lit, Top):
        return BOTTOM
    if isinstance(lit, Bottom):
        return TOP
    if isinstance(lit, Not):
        return lit.arg
    return Not(lit)


def _holds(valuation: dict, lit: Literal) -> bool:
    if isinstance(lit, Top):
        return True
    if isinstance(lit, Bottom):
        return False
    if isinstance(lit, Not):
        return not _holds(valuation, lit.arg)
    try:
        v = valuation[lit.var]
    except KeyError:
        raise UnboundVariableError(f"unbound variable {lit.var!r}") from None
    return v < lit.k if lit.op == "<" else v <= lit.k


def evaluate(valuation: dict, dnf: Dnf) -> bool:
    """Standard Boolean evaluation of a DNF under a valuation."""
    return any(all(_holds(valuation, lit) for lit in c) for c in dnf.clauses)


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
        i = var_index[lit.var]
        comps[i] = comps[i].intersect(literal_interval(lit))
        if comps[i].empty:
            return Box.all_empty(len(comps))
    return Box(tuple(comps))


def _clause_sat(clause, var_index) -> bool:
    return not conjunct_box(Box.full(len(var_index)), clause, var_index).is_empty


def _index(variables) -> dict:
    return {v: i for i, v in enumerate(variables)}


def dnf_variables(dnf: Dnf) -> list[str]:
    """The variables a DNF mentions, in order of first occurrence."""
    seen: dict = {}
    for clause in dnf.clauses:
        for lit in clause:
            if isinstance(lit, (Cmp, Not)):
                seen.setdefault(lit.var)
    return list(seen)


def is_sat(dnf: Dnf) -> bool:
    """Satisfiability by per-variable interval intersection.

    Complete here because literals constrain one variable each, so a
    conjunct is satisfiable iff no per-variable intersection empties out.
    """
    idx = _index(dnf_variables(dnf) or ["_"])
    return any(_clause_sat(c, idx) for c in dnf.clauses)


# --- region form: clause boxes and back, and the normal form ------------------


def dnf_boxes(dnf: Dnf, variables=None) -> list[Box]:
    """The non-empty boxes of the DNF's clauses, a cover of its region;
    they may overlap."""
    if variables is None:
        variables = dnf_variables(dnf)
    variables = list(variables) or ["_"]
    idx = _index(variables)
    full = Box.full(len(variables))
    boxes = [conjunct_box(full, clause, idx) for clause in dnf.clauses]
    return [box for box in boxes if not box.is_empty]


def _interval_literals(var: str, comp: Interval) -> list:
    """The bound literals of an interval: its upper bound's, then its lower bound's."""
    lits = []
    if comp.hi != INF:
        lits.append(Cmp(var, "<=" if comp.hi_closed else "<", comp.hi))
    if comp.lo != -INF:
        lits.append(Not(Cmp(var, "<" if comp.lo_closed else "<=", comp.lo)))
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


def wedge_minimize(dnf: Dnf) -> Dnf:
    """The normal form: each clause becomes its box's bound literals over
    the DNF's variables sorted, per variable the tightest upper literal
    and then the tightest lower one, so no literal implies another.
    Unsatisfiable clauses drop; the result is false only if none is left."""
    variables = sorted(dnf_variables(dnf))
    return boxes_to_dnf(dnf_boxes(dnf, variables), variables)


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


def _join(left: list, right: list, conjoin: bool) -> list:
    """The clauses of the conjunction (pairwise concatenated, left
    clause first) or of the disjunction (left list first) of two
    clause lists."""
    if conjoin:
        return [l + r for l, r in product(left, right)]
    return left + right


class _PredParser:
    """Recursive descent over: or > and > unary > atom, building the DNF
    during the parse.  ``negated`` is the parity of the enclosing ``!``s:
    under it a literal becomes its complement, ``||`` conjoins clause
    lists and ``&&`` concatenates them, so negations end at the literals
    and conjunction distributes over disjunction.  Clause and literal
    order follow the text."""

    def __init__(self, tokens: _Tokens):
        self.t = tokens

    def parse_dnf(self) -> Dnf:
        return Dnf(tuple(self.parse_or(False)))

    def parse_or(self, negated: bool) -> list:
        clauses = self.parse_and(negated)
        while self.t.peek()[0] == "||":
            self.t.next()
            clauses = _join(clauses, self.parse_and(negated), negated)
        return clauses

    def parse_and(self, negated: bool) -> list:
        clauses = self.parse_unary(negated)
        while self.t.peek()[0] == "&&":
            self.t.next()
            clauses = _join(clauses, self.parse_unary(negated), not negated)
        return clauses

    def parse_unary(self, negated: bool) -> list:
        kind, value, pos = self.t.peek()
        if kind == "!":
            self.t.next()
            return self.parse_unary(not negated)
        if kind == "(":
            self.t.next()
            clauses = self.parse_or(negated)
            self.t.expect(")")
            return clauses
        if kind == "ident":
            if value in _PRED_KEYWORDS:
                self.t.next()
                lit = _PRED_KEYWORDS[value]
            else:
                self.t.next()
                op_kind, op, op_pos = self.t.next()
                if op_kind != "cmp":
                    raise ParseError(f"expected comparison after variable {value!r}", op_pos)
                num_kind, k, num_pos = self.t.next()
                if num_kind != "num":
                    raise ParseError("expected numeric constant in comparison", num_pos)
                lit = comparison(value, op, k)
            return [(negate_literal(lit) if negated else lit,)]
        raise ParseError(f"expected predicate, found {_Tokens._show(self.t.peek())}", pos)


def parse_predicate(text: str) -> Dnf:
    tokens = _Tokens(text)
    dnf = _PredParser(tokens).parse_dnf()
    kind, _, pos = tokens.peek()
    if kind != "eof":
        raise ParseError("trailing input after predicate", pos)
    return dnf


def print_predicate(dnf: Dnf) -> str:
    """Concrete syntax, `` || `` between clauses and `` && `` between
    literals, each literal as its ``repr`` (a negated comparison as
    ``!(x < k)``).  Parsing the output gives back the same clauses."""
    return " || ".join(" && ".join(map(repr, c)) for c in dnf.clauses)
