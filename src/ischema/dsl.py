"""Textual surface language and interchange formats.

Theory files (.ist):

    theory NAME
      sort IDENT < IDENT
      role IDENT {, IDENT} : IDENT
      relation IDENT ( SORT {, SORT} ) [:= numExpr CMP numExpr]
      param IDENT = RATIONAL
      axiom formula
    end

Scenario files (.scn):

    scenario NAME
      entity IDENT : SORT = Shape(args) [with IDENT = RATIONAL {, ...}]
      ( trace length NAT { state NAT { IDENT.IDENT = RATIONAL ... } }
      | rules { ruleDecl } horizon NAT )
    end

    ruleDecl := gravity ( RATIONAL )
              | umph IDENT on IDENT ( RATIONAL , RATIONAL ) [passive] [until formula]
              | rule IDENT [forall IDENT : IDENT] when formula
                    do effect {, effect} [until formula]
    effect   := IDENT.IDENT := numExpr | IDENT.IDENT += numExpr
              | addforce IDENT on IDENT ( RATIONAL , RATIONAL ) [passive]
              | removeforce IDENT on IDENT

Formulas use prefix operators not/next/always/eventually/before (tightest),
then until, and, or, -> (loosest); quantifiers are `forall x : Sort . body`.
Comments run from `#` to end of line. Unspecified trace parameters inherit
from the previous state.

Traces interchange as canonical JSON with rationals rendered as exact decimal
strings when finite and "p/q" otherwise; equal traces serialize to identical
bytes.
"""

from __future__ import annotations

import bisect
import itertools
import json
import operator
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import dynamics, geometry
from .errors import IschemaError, UnknownSort, ValueOutOfRange
from .geometry import (
    COMPARATORS,
    Add,
    Const,
    DeltaExpr,
    EvalContext,
    MeasureExpr,
    Mul,
    NameRef,
    Neg,
    NumExpr,
    ParamRef,
    Sub,
    ThetaExpr,
)
from .logic import (
    Always,
    And,
    Atom,
    Before,
    Compare,
    Eventually,
    Exists,
    FalseF,
    Final,
    Forall,
    Formula,
    Implies,
    Next,
    Not,
    Or,
    TrueF,
    Until,
)
from .model import (
    SHAPE_PARAMS,
    EntityDecl,
    ForceFluent,
    RelationSig,
    Scenario,
    ShapeKind,
    Sort,
    SortHierarchy,
    State,
    Theory,
    Trace,
    declare_scenario,
    make_entity,
)
from .tree import Node

# --- diagnostics -------------------------------------------------------------


@dataclass(frozen=True)
class SourceSpan:
    file: str
    line: int  # 1-based
    column: int  # 1-based

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    code: str
    message: str
    span: SourceSpan

    def __str__(self) -> str:
        return f"{self.span}: {self.severity}[{self.code}]: {self.message}"


# Where diagnostics point that have no position of their own.
_NO_SPAN = SourceSpan("<input>", 1, 1)


class DslError(IschemaError):
    """Parse or validation failure carrying one or more diagnostics."""

    def __init__(self, diagnostics: Sequence[Diagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


# --- lexer --------------------------------------------------------------------

RESERVED = frozenset(
    {
        "theory", "end", "sort", "role", "relation", "param", "axiom",
        "forall", "exists", "not", "and", "or", "until", "next", "always",
        "eventually", "before", "final", "true", "false",
        "scenario", "entity", "trace", "length", "state", "rules", "horizon",
        "delta", "theta", "measure",
    }
)

# One alternative per token kind; no two of them start with the same
# character, so their order only puts the common ones first. Whitespace and
# comments match no named group and are dropped. Any other character matches
# `unexpected`, so the scan covers the text without gaps.
_TOKEN_RE = re.compile(
    r"""
    [ \t\r\n]+
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>:=|\+=|->|<=|>=|!=|[()<>={},.:+\-*])
  | (?P<rational>\d+/\d+|\d+\.\d+|\d+)
  | \#[^\n]*
  | (?P<unexpected>.)
    """,
    re.VERBOSE,
)


class _Source:
    """A text being parsed and its file name. Positions are 1-based lines
    and columns; a column counts characters and only "\\n" ends a line."""

    __slots__ = ("file", "text", "_newlines")

    def __init__(self, file: str, text: str):
        self.file = file
        self.text = text
        self._newlines: Optional[list[int]] = None  # offsets of "\\n", on first use

    def span(self, offset: int) -> SourceSpan:
        if self._newlines is None:
            self._newlines = [m.start() for m in re.finditer("\n", self.text)]
        line = bisect.bisect_left(self._newlines, offset)
        line_start = self._newlines[line - 1] + 1 if line else 0
        return SourceSpan(self.file, line + 1, offset - line_start + 1)


class Token:
    """A lexeme: its kind, text and offset in its source. Its line and
    column are found only when its span is asked for."""

    __slots__ = ("kind", "text", "offset", "source")

    def __init__(self, kind: str, text: str, offset: int, source: _Source):
        self.kind = kind  # "rational" | "ident" | "op" | "eof"
        self.text = text
        self.offset = offset
        self.source = source

    @property
    def span(self) -> SourceSpan:
        return self.source.span(self.offset)


def tokenize(text: str, filename: str = "<input>") -> list[Token]:
    source = _Source(filename, text)
    tokens: list[Token] = []
    append = tokens.append
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        if kind == "unexpected":
            message = f"unexpected character {m.group()!r}"
            raise DslError([Diagnostic("error", "syntax", message, source.span(m.start()))])
        append(Token(kind, m.group(), m.start(), source))
    tokens.append(Token("eof", "", len(text), source))
    return tokens


def text_to_rational(text: str) -> Fraction:
    return Fraction(text)


def rational_to_text(q: Fraction) -> str:
    """Exact decimal when the denominator is 2^a 5^b, else "p/q". Raises
    ValueOutOfRange for a value with more digits than the interpreter
    converts to text."""
    if not isinstance(q, Fraction):
        q = Fraction(q)
    n, d = q.numerator, q.denominator
    try:
        if d == 1:
            return str(n)
        twos = (d & -d).bit_length() - 1  # the trailing zero bits
        odd, fives = d >> twos, 0
        while odd % 5 == 0:
            odd //= 5
            fives += 1
        if odd != 1:
            return f"{n}/{d}"
        k = max(twos, fives)
        digits = str(abs(n) * 10**k // d).rjust(k + 1, "0")
    except ValueError:  # beyond the interpreter's limit on digits converted
        limit = sys.get_int_max_str_digits()
        raise ValueOutOfRange(f"a value of more than {limit} digits is too long to print") from None
    sign = "-" if n < 0 else ""
    return f"{sign}{digits[:-k]}.{digits[-k:]}"


# --- parser --------------------------------------------------------------------

_SHAPES = {s.value: s for s in ShapeKind}

# The surface syntax of every operator, read by the parser and the printers:
# keyword, precedence (higher binds tighter) and associativity. Formulas and
# numeric expressions have separate scales, and leaves (_ATOM) bind tighter
# than any operator. A quantifier ("binder") reaches as far right as it can.
OPERATORS: dict[type, tuple[str, int, str]] = {
    Implies: ("->", 1, "right"),
    Or: ("or", 2, "left"),
    And: ("and", 3, "left"),
    Until: ("until", 4, "right"),
    Not: ("not", 5, "prefix"),
    Next: ("next", 5, "prefix"),
    Always: ("always", 5, "prefix"),
    Eventually: ("eventually", 5, "prefix"),
    Before: ("before", 5, "prefix"),
    Forall: ("forall", 1, "binder"),
    Exists: ("exists", 1, "binder"),
    Add: ("+", 1, "left"),
    Sub: ("-", 1, "left"),
    Mul: ("*", 2, "left"),
    Neg: ("-", 3, "prefix"),
}
_ATOM = 6
_CONSTANTS = {"true": TrueF, "false": FalseF, "final": Final}
_FUNCTIONS = {"delta": DeltaExpr, "theta": ThetaExpr, "measure": MeasureExpr}
_KEYWORDS = {cls: kw for kw, cls in (_CONSTANTS | _FUNCTIONS).items()}


def _operators(base: type, *kinds: str) -> dict[str, type]:
    """{keyword: class} of the operators of one grammar and kind."""
    table = OPERATORS.items()
    return {kw: cls for cls, (kw, _, kind) in table if issubclass(cls, base) and kind in kinds}


_BINARY = _operators(Formula, "left", "right")
_UNARY = _operators(Formula, "prefix")
_QUANTIFIERS = _operators(Formula, "binder")
_NUM_BINARY = _operators(NumExpr, "left", "right")
_NUM_UNARY = _operators(NumExpr, "prefix")

# How deeply formulas and numeric expressions may nest. No node may sit below
# more than MAX_NESTING formula or expression nodes, and while parsing every
# parenthesised group counts as a level too. Deeper input is a syntax error,
# so that parsing, sort-checking, evaluation and printing, which all recurse
# over the tree, stay within the interpreter's recursion limit.
MAX_NESTING = 64

# The most instants a trace may have: a scenario's `trace length` and
# `horizon`, and the `--steps` of `simulate` and `enumerate`. A larger number
# is refused before any state is built, since every instant holds a state of
# every parameter.
MAX_INSTANTS = 10_000


def nesting_depth(node: Node) -> int:
    """The most formula and numeric-expression nodes above any node of
    `node` (0 for a leaf). Iterative, so it can measure any tree."""
    deepest = 0
    stack = [(node, 0)]
    while stack:
        node, above = stack.pop()
        deepest = max(deepest, above)
        stack.extend((child, above + 1) for child in node.children)
    return deepest


# The tokens that may follow a parenthesized group in a comparison.
_NUMERIC_FOLLOWERS = frozenset(_NUM_BINARY) | frozenset(COMPARATORS)


def _closers(tokens: Sequence[Token]) -> dict[int, int]:
    """The position of each "(" in `tokens` -> that of its matching ")";
    an unmatched "(" has none."""
    out: dict[int, int] = {}
    opened: list[int] = []
    for i, tok in enumerate(tokens):
        if tok.text == "(":
            opened.append(i)
        elif tok.text == ")" and opened:
            out[opened.pop()] = i
    return out


class _Parser:
    def __init__(self, tokens: list[Token]):
        # The cursor never passes the eof token, and the parser looks at most
        # one token ahead, so one more eof keeps every look in range.
        self.tokens = [*tokens, tokens[-1]]
        self.pos = 0
        self.depth = 0  # enclosing nested constructs of the one being parsed
        self.closer = _closers(self.tokens)

    # -- token helpers. The token text alone decides a match: no number and
    # no end of input spells a keyword or an operator.

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[self.pos + offset]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept(self, text: str) -> bool:
        if self.tokens[self.pos].text == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.text != text:
            self.fail(f"expected keyword {text!r}" if text.isalpha() else f"expected {text!r}")
        self.pos += 1
        return tok

    def end(self) -> None:
        if self.peek().kind != "eof":
            self.fail("unexpected trailing input")

    def items(self, parse_item) -> list:
        """One or more `parse_item()` results separated by commas."""
        found = [parse_item()]
        while self.accept(","):
            found.append(parse_item())
        return found

    def expect_ident(self, what: str = "identifier", allow_reserved: bool = False) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "ident":
            self.fail(f"expected {what}")
        if not allow_reserved and tok.text in RESERVED:
            self.fail(f"{tok.text!r} is a reserved word")
        self.pos += 1
        return tok

    def expect_nat(self) -> int:
        tok = self.peek()
        if tok.kind != "rational" or not tok.text.isdigit():
            self.fail("expected a natural number")
        self.next()
        return self._integer(tok.text, tok)

    def _integer(self, digits: str, tok: Token) -> int:
        """The integer that `digits`, a part of literal `tok`, spell."""
        try:
            return int(digits)
        except ValueError:  # beyond the interpreter's limit on digits converted
            self.fail(f"number of {len(digits)} digits is too long", tok.span)

    def expect_rational(self) -> Fraction:
        """The value of the rational literal at the cursor, negated if a
        minus precedes it, consumed: `n`, `p/q` or `a.b`, which is
        `ab / 10^len(b)`."""
        tok = self.tokens[self.pos]
        sign = 1
        if tok.text == "-":
            sign = -1
            self.pos += 1
            tok = self.tokens[self.pos]
        if tok.kind != "rational":
            self.fail("expected a rational number")
        self.pos += 1
        text = tok.text
        if "/" in text:
            numerator, denominator = text.split("/")
            q = self._integer(denominator, tok)
            if q == 0:
                self.fail(f"zero denominator in {text!r}", tok.span)
            return Fraction(sign * self._integer(numerator, tok), q)
        if "." in text:
            whole, decimals = text.split(".")
            return Fraction(sign * self._integer(whole + decimals, tok), 10 ** len(decimals))
        return Fraction(sign * self._integer(text, tok))

    def fail(self, message: str, span: Optional[SourceSpan] = None) -> None:
        span = span or self.peek().span
        raise DslError([Diagnostic("error", "syntax", message, span)])

    def _nested(self, opener: Token, parse, *args):
        """Parse the operand or group that `opener` begins, one level deeper."""
        if self.depth >= MAX_NESTING:
            self.fail(f"nesting deeper than {MAX_NESTING} levels", opener.span)
        self.depth += 1
        try:
            return parse(*args)
        finally:
            self.depth -= 1

    def _shallow(self, node, start: Token):
        """`node`, parsed from `start` on, if it nests at most MAX_NESTING deep."""
        if nesting_depth(node) > MAX_NESTING:
            self.fail(f"nesting deeper than {MAX_NESTING} levels", start.span)
        return node

    # -- operators, by precedence climbing over OPERATORS

    def _binary(self, table: dict[str, type], operand, min_prec: int = 0):
        """Operands joined by binary operators of `table` that bind at least
        as tightly as `min_prec`."""
        node = operand()
        while True:
            cls = table.get(self.peek().text)
            if cls is None or OPERATORS[cls][1] < min_prec:
                return node
            tok = self.next()
            _, prec, assoc = OPERATORS[cls]
            if assoc == "right":
                node = cls(node, self._nested(tok, self._binary, table, operand, prec))
            else:
                node = cls(node, self._binary(table, operand, prec + 1))

    def _prefix(self, table: dict[str, type], primary):
        cls = table.get(self.peek().text)
        if cls is None:
            return primary()
        tok = self.next()
        return cls(self._nested(tok, self._prefix, table, primary))

    # -- formulas

    def formula(self) -> Formula:
        start = self.peek()
        phi = self._binary(_BINARY, self._unary)
        return self._shallow(phi, start) if self.depth == 0 else phi

    def _unary(self) -> Formula:
        return self._prefix(_UNARY, self._primary)

    def _primary(self) -> Formula:
        tok = self.peek()
        if tok.text in _CONSTANTS:
            self.next()
            return _CONSTANTS[tok.text]()
        if tok.text in _QUANTIFIERS:
            self.next()
            var = self.expect_ident("quantified variable")
            self.expect(":")
            sort = self.expect_ident("sort name")
            self.expect(".")
            body = self._nested(tok, self.formula)
            return _QUANTIFIERS[tok.text](var.text, sort.text, body, span=sort.span)
        if tok.kind == "ident" and tok.text not in RESERVED and self.peek(1).text == "(":
            self.pos += 2
            args = self.items(self._term)
            self.expect(")")
            return Atom(tok.text, tuple(args), span=tok.span)
        return self._comparison(tok)

    def _term(self):
        tok = self.peek()
        if tok.kind == "ident" and tok.text not in _FUNCTIONS and self.peek(1).text in (",", ")"):
            return self.expect_ident().text
        return self.num_expr()

    def _comparison(self, start: Token) -> Formula:
        """A comparison, or a parenthesized formula at a "(" that opens no
        numeric group. A comparison that starts with a group has an
        arithmetic operator or a comparator right after the group's ")", so
        any other "(" opens a formula. A group followed by one that still
        fails to parse as a comparison is read as a formula, whose error
        is the one reported."""
        if start.text != "(":
            return self._compare(start.span)
        after = self.closer.get(self.pos)
        if after is not None and self.tokens[after + 1].text in _NUMERIC_FOLLOWERS:
            saved = self.pos
            try:
                return self._compare(start.span)
            except DslError:
                self.pos = saved
        self.expect("(")
        inner = self._nested(start, self.formula)
        self.expect(")")
        return inner

    def _compare(self, span, check=lambda side: side) -> Compare:
        """`lhs CMP rhs`, passing each side through `check` once both parse."""
        lhs = self.num_expr()
        if self.peek().text not in COMPARATORS:
            self.fail("expected a comparison operator")
        cmp = self.next().text
        rhs = self.num_expr()
        return Compare(check(lhs), cmp, check(rhs), span=span)

    # -- numeric expressions

    def num_expr(self) -> NumExpr:
        return self._binary(_NUM_BINARY, self._num_unary)

    def _num_unary(self) -> NumExpr:
        return self._prefix(_NUM_UNARY, self._num_primary)

    def _num_primary(self) -> NumExpr:
        tok = self.peek()
        if tok.kind == "rational":
            return Const(self.expect_rational())
        if self.accept("("):
            inner = self._nested(tok, self.num_expr)
            self.expect(")")
            return inner
        if tok.kind == "ident":
            if tok.text in _FUNCTIONS:
                self.next()
                self.expect("(")
                names = [self.expect_ident("entity").text]
                for _ in _FUNCTIONS[tok.text].SYMBOLS[1:]:
                    self.expect(",")
                    names.append(self.expect_ident("entity").text)
                self.expect(")")
                return _FUNCTIONS[tok.text](*names)
            if tok.text in RESERVED:
                self.fail(f"{tok.text!r} is a reserved word")
            self.next()
            if self.accept("."):
                param = self.expect_ident("parameter name", allow_reserved=True)
                return ParamRef(tok.text, param.text)
            return NameRef(tok.text)
        self.fail("expected a numeric expression")

    # -- theory

    def theory(self) -> Theory:
        self.expect("theory")
        name = self.expect_ident("theory name")
        sorts: list[Sort] = []
        roles: list[tuple[str, str]] = []
        role_spans: list[SourceSpan] = []
        relations: list[RelationSig] = []
        params: list[tuple[str, Fraction]] = []
        axioms: list[Formula] = []
        while not self.accept("end"):
            if self.accept("sort"):
                child = self.expect_ident("sort name")
                self.expect("<")
                parent = self.expect_ident("parent sort")
                sorts.append(Sort(child.text, parent.text, child.span, parent.span))
            elif self.accept("role"):
                names = self.items(lambda: self.expect_ident("role name").text)
                self.expect(":")
                sort = self.expect_ident("sort name")
                roles.extend((n, sort.text) for n in names)
                role_spans.extend(sort.span for _ in names)
            elif self.accept("relation"):
                rel = self.expect_ident("relation name")
                self.expect("(")
                arg_sorts = self.items(lambda: self.expect_ident("sort name"))
                self.expect(")")
                definition = None
                if self.accept(":="):
                    definition = self._compare(self.peek().span, lambda side: self._shallow(side, rel))
                relations.append(RelationSig(
                    rel.text,
                    tuple(s.text for s in arg_sorts),
                    definition,
                    tuple(s.span for s in arg_sorts),
                ))
            elif self.accept("param"):
                params.append(self._assignment("parameter name"))
            elif self.accept("axiom"):
                axioms.append(self.formula())
            else:
                self.fail("expected sort, role, relation, param, axiom, or end")
        self.end()
        return Theory(
            name=name.text,
            sorts=tuple(sorts),
            roles=tuple(roles),
            relations=tuple(relations),
            axioms=tuple(axioms),
            numeric_params=tuple(params),
            role_spans=tuple(role_spans),
        )

    def _assignment(self, what: str) -> tuple[str, Fraction]:
        """`name = rational`, where `what` describes the name."""
        name = self.expect_ident(what)
        self.expect("=")
        return name.text, self.expect_rational()

    # -- scenario

    def scenario(self) -> Scenario:
        self.expect("scenario")
        name = self.expect_ident("scenario name")
        entities: list[EntityDecl] = []
        while self.accept("entity"):
            entities.append(self._entity_decl())
        trace = rules = horizon = None
        if self.accept("trace"):
            trace = self._trace_block(entities)
        elif self.accept("rules"):
            rules = self._rules_block()
            self.expect("horizon")
            horizon_tok = self.peek()
            horizon = self.expect_nat()
            if horizon > MAX_INSTANTS:
                self.fail(f"horizon must be at most {MAX_INSTANTS}", horizon_tok.span)
        else:
            self.fail("expected a trace block or a rules block")
        self.expect("end")
        self.end()
        try:
            return declare_scenario(
                entities, trace=trace, rules=rules, horizon=horizon, name=name.text
            )
        except IschemaError as exc:
            self.fail(str(exc), name.span)

    def _entity_decl(self) -> EntityDecl:
        eid = self.expect_ident("entity id")
        self.expect(":")
        sort = self.expect_ident("sort name")
        self.expect("=")
        shape_tok = self.expect_ident("shape name", allow_reserved=True)
        shape = _SHAPES.get(shape_tok.text)
        if shape is None:
            self.fail(f"unknown shape {shape_tok.text!r}", shape_tok.span)
        self.expect("(")
        values = self.items(self.expect_rational)
        self.expect(")")
        attrs = []
        if self.accept("with"):
            attrs = self.items(lambda: self._assignment("attribute name"))
        try:
            return make_entity(eid.text, sort.text, shape, values, attrs)
        except IschemaError as exc:
            self.fail(str(exc), eid.span)

    def _trace_block(self, entities: list[EntityDecl]) -> Trace:
        self.expect("length")
        length_tok = self.peek()
        length = self.expect_nat()
        if length < 1:
            self.fail("trace length must be at least 1", length_tok.span)
        if length > MAX_INSTANTS:
            self.fail(f"trace length must be at most {MAX_INSTANTS}", length_tok.span)
        overrides: dict[int, dict[tuple[str, str], Fraction]] = {}
        params = {e.id: e.param_names() for e in reversed(entities)}  # the first of a repeated id
        while self.accept("state"):
            idx_tok = self.peek()
            idx = self.expect_nat()
            if idx >= length:
                self.fail(f"state index {idx} outside trace of length {length}", idx_tok.span)
            block = overrides.setdefault(idx, {})
            self.expect("{")
            while not self.accept("}"):
                ent = self.expect_ident("entity id")
                names = params.get(ent.text)
                if names is None:
                    self.fail(f"unknown entity {ent.text!r}", ent.span)
                self.expect(".")
                pname = self.expect_ident("parameter name", allow_reserved=True)
                if pname.text not in names:
                    self.fail(f"{ent.text} has no parameter {pname.text!r}", pname.span)
                self.expect("=")
                block[(ent.text, pname.text)] = self.expect_rational()
        states = []
        current = {(e.id, n): v for e in entities for n, v in e.params}
        for t in range(length):
            current = {**current, **overrides.get(t, {})}
            states.append(State(time=t, values=current))
        return Trace(tuple(states))

    def _rules_block(self) -> list[dynamics.Rule]:
        rules: list[dynamics.Rule] = []
        while True:
            if self.accept("gravity"):
                self.expect("(")
                delta_tok = self.peek()
                delta = self.expect_rational()
                self.expect(")")
                try:
                    rules.append(dynamics.gravity_rule(delta))
                except IschemaError as exc:
                    self.fail(str(exc), delta_tok.span)
            elif self.accept("umph"):
                f, span = self._push()
                until = self.formula() if self.accept("until") else None
                rules.append(dynamics.umph_rule(f.label, f.target, f.dx, f.dy, f.mode, until, span))
            elif self.accept("rule"):
                rname = self.expect_ident("rule name")
                scope = scope_span = None
                if self.accept("forall"):
                    var = self.expect_ident("variable")
                    self.expect(":")
                    sort = self.expect_ident("sort name")
                    scope, scope_span = (var.text, sort.text), sort.span
                self.expect("when")
                condition = self.formula()
                self.expect("do")
                effects = self.items(self._effect)
                until = self.formula() if self.accept("until") else None
                rules.append(
                    dynamics.Rule(
                        name=rname.text,
                        condition=condition,
                        effects=tuple(effects),
                        scope=scope,
                        until=until,
                        scope_span=scope_span,
                    )
                )
            else:
                return rules

    def _push(self) -> tuple[ForceFluent, SourceSpan]:
        """`label on target (dx, dy) [passive]`, as umph and addforce write it,
        with the target's span."""
        label = self.expect_ident("force label")
        self.expect("on")
        target = self.expect_ident("entity id")
        self.expect("(")
        dx = self.expect_rational()
        self.expect(",")
        dy = self.expect_rational()
        self.expect(")")
        mode = "passive" if self.accept("passive") else "active"
        return ForceFluent(label.text, target.text, dx, dy, mode), target.span

    def _effect(self) -> dynamics.Effect:
        if self.accept("addforce"):
            return dynamics.AddForce(*self._push())
        if self.accept("removeforce"):
            label = self.expect_ident("force label")
            self.expect("on")
            target = self.expect_ident("entity id")
            return dynamics.RemoveForce(label.text, target.text, target.span)
        ent = self.expect_ident("entity id or variable")
        self.expect(".")
        param = self.expect_ident("parameter name", allow_reserved=True)
        for op, effect in ((":=", dynamics.SetParam), ("+=", dynamics.DeltaParam)):
            if self.accept(op):
                return effect(ent.text, param.text, self._shallow(self.num_expr(), ent), ent.span)
        self.fail("expected := or += in effect")


def parse_theory(text: str, filename: str = "<input>") -> Theory:
    return _Parser(tokenize(text, filename)).theory()


def parse_scenario(text: str, filename: str = "<input>") -> Scenario:
    return _Parser(tokenize(text, filename)).scenario()


def parse_formula(text: str, filename: str = "<formula>") -> Formula:
    parser = _Parser(tokenize(text, filename))
    phi = parser.formula()
    parser.end()
    return phi


# --- sort checker ----------------------------------------------------------------


class _SortChecker:
    def __init__(self, hierarchy: SortHierarchy, relations: dict[str, RelationSig],
                 numeric_params: set[str], entity_sorts: dict[str, str]):
        self.hierarchy = hierarchy
        self.relations = relations
        self.numeric_params = numeric_params
        self.entity_sorts = entity_sorts
        self.diagnostics: list[Diagnostic] = []

    def error(self, code: str, message: str, span) -> None:
        self.diagnostics.append(Diagnostic("error", code, message, span or _NO_SPAN))

    def term_sort(self, name: str, scope: dict[str, str]) -> Optional[str]:
        return scope.get(name, self.entity_sorts.get(name))

    def check(self, node: Node, scope: dict[str, str], span=None) -> None:
        """Sort-check a formula or numeric expression. `span` locates errors
        in nodes that carry no span of their own."""
        if isinstance(node, Atom):
            return self.check_atom(node, scope)
        if isinstance(node, (Forall, Exists)):
            if not self.hierarchy.known(node.sort):
                return self.error("unknown-sort", f"unknown sort {node.sort!r}", node.span)
            scope = {**scope, node.var: node.sort}
        elif isinstance(node, NameRef):
            if node.name not in self.numeric_params:
                self.error("unbound-symbol", f"{node.name!r} is not a declared numeric parameter", span)
        elif isinstance(node, Compare):
            span = node.span
        for name in node.symbols:
            if self.term_sort(name, scope) is None:
                self.error("unbound-symbol", f"unknown entity or role {name!r}", span)
        for child in node.children:
            self.check(child, scope, span)

    def check_atom(self, atom: Atom, scope: dict[str, str]) -> None:
        sig = self.relations.get(atom.relation)
        row = geometry.BUILTIN_RELATIONS.get(atom.relation)
        if row is None and (sig is None or sig.definition is None):
            self.error("unknown-relation", f"unknown relation {atom.relation!r}", atom.span)
            return
        entity_terms: list[tuple[str, Optional[str]]] = []
        numeric_count = 0
        for term in atom.args:  # read in `logic.resolve_args`'s order
            if type(term) is not str:
                self.check(term, scope, atom.span)
                numeric_count += 1
            elif term in scope:
                entity_terms.append((term, scope[term]))
            elif term in self.numeric_params:
                numeric_count += 1
            elif term in self.entity_sorts:
                entity_terms.append((term, self.entity_sorts[term]))
            else:
                message = f"symbol {term!r} is not a declared role, variable, or entity"
                self.error("unbound-symbol", message, atom.span)
        if sig is not None:
            if len(entity_terms) != len(sig.arg_sorts):
                self.error(
                    "arity",
                    f"{atom.relation} expects {len(sig.arg_sorts)} entity arguments, "
                    f"got {len(entity_terms)}",
                    atom.span,
                )
                return
            if sig.definition is not None and numeric_count:
                message = f"{atom.relation} expects no numeric arguments, got {numeric_count}"
                self.error("arity", message, atom.span)
            for (name, sort), expected in zip(entity_terms, sig.arg_sorts):
                if not self.hierarchy.known(expected):
                    self.error("unknown-sort", f"unknown sort {expected!r}", atom.span)
                # a term of unknown sort was reported where its sort was declared
                elif self.hierarchy.known(sort) and not self.hierarchy.subsort_of(sort, expected):
                    self.error(
                        "sort-mismatch",
                        f"{atom.relation} expects {expected} here, but {name} has sort {sort}",
                        atom.span,
                    )
        if sig is None or sig.definition is None:
            if len(entity_terms) != row.entities or numeric_count > row.numeric:
                self.error("arity", geometry.arity_message(atom.relation), atom.span)


def sort_check(obj: Theory | Scenario, ctx: Optional[EvalContext] = None) -> list[Diagnostic]:
    """Empty result iff every relation application matches its signature up to
    subsorting and every symbol reference is declared. A theory may be
    checked against `ctx`, a context built for it and a scenario: its
    axioms and templates may then also name the scenario's entities, and
    the check reads the context's sort hierarchy."""
    if isinstance(obj, Theory):
        try:
            hierarchy = obj.hierarchy() if ctx is None else ctx.hierarchy
        except UnknownSort as exc:
            return [Diagnostic("error", "unknown-sort", str(exc), exc.span or _NO_SPAN)]
        relations = {sig.name: sig for sig in obj.relations}
        checker = _SortChecker(
            hierarchy,
            relations,
            {n for n, _ in obj.numeric_params},
            entity_sorts={e.id: e.sort for e in ctx.entities.values()} if ctx is not None else {},
        )
        scope = dict(obj.roles)
        for (role, sort), span in itertools.zip_longest(obj.roles, obj.role_spans):
            if not hierarchy.known(sort):
                checker.error("unknown-sort", f"role {role!r} has unknown sort {sort!r}", span)
        for sig in obj.relations:
            template_scope = {f"arg{i + 1}": s for i, s in enumerate(sig.arg_sorts)}
            for s, span in itertools.zip_longest(sig.arg_sorts, sig.sort_spans):
                if not hierarchy.known(s):
                    checker.error("unknown-sort", f"unknown sort {s!r} in relation {sig.name}", span)
            if sig.definition is not None:
                checker.check(sig.definition, template_scope)
        for axiom in obj.axioms:
            checker.check(axiom, scope)
        return checker.diagnostics

    if isinstance(obj, Scenario):
        hierarchy = SortHierarchy()
        decls = {e.id: e for e in obj.entities}
        checker = _SortChecker(hierarchy, {}, set(), {e.id: e.sort for e in obj.entities})
        for rule in obj.rules or ():
            scope = dict([rule.scope]) if rule.scope else {}
            if rule.scope and not hierarchy.known(rule.scope[1]):
                checker.error("unknown-sort", f"unknown sort {rule.scope[1]!r}", rule.scope_span)
                continue
            checker.check(rule.condition, scope)
            if rule.until is not None:
                checker.check(rule.until, scope)
            for eff in rule.effects:
                if isinstance(eff, (dynamics.SetParam, dynamics.DeltaParam)):
                    decl = decls.get(eff.target)
                    if decl is not None and eff.param not in decl.param_names():
                        message = f"{eff.target} has no parameter {eff.param!r}"
                        checker.error("unknown-parameter", message, eff.span)
                    elif decl is None and eff.target not in scope:
                        message = f"unknown effect target {eff.target!r}"
                        checker.error("unbound-symbol", message, eff.span)
                    checker.check(eff.expr, scope, eff.span)
                elif isinstance(eff, (dynamics.AddForce, dynamics.RemoveForce)):
                    if eff.target not in decls:
                        message = f"force targets unknown entity {eff.target!r}"
                        checker.error("unbound-symbol", message, eff.span)
        return checker.diagnostics

    raise TypeError(f"cannot sort-check {obj!r}")


# --- pretty printers ---------------------------------------------------------------


def formula_to_text(node: Node, parent: int = 0) -> str:
    """A formula or numeric expression in surface syntax, in parentheses when
    it binds more loosely than `parent`."""
    op = OPERATORS.get(type(node))
    if op is None:
        text, prec = _leaf_text(node), _ATOM
    else:
        keyword, prec, assoc = op
        kids = node.children
        if assoc == "binder":
            text = f"{keyword} {node.var} : {node.sort} . {formula_to_text(kids[0])}"
        elif assoc == "prefix":
            text = keyword + (" " if keyword.isalpha() else "") + formula_to_text(kids[0], prec)
        else:
            left, right = (prec, prec + 1) if assoc == "left" else (prec + 1, prec)
            text = f"{formula_to_text(kids[0], left)} {keyword} "
            text += formula_to_text(kids[1], right)
    if isinstance(node, NumExpr) and text.startswith("-"):
        # a leading minus prints as loosely as binary minus: a * (-b), -(-b)
        prec = OPERATORS[Sub][1]
    return f"({text})" if prec < parent else text


def _leaf_text(node: Node) -> str:
    keyword = _KEYWORDS.get(type(node))
    if keyword is not None:  # true, false, final, delta(a, b), theta(a, b), measure(e)
        return keyword + (f"({', '.join(node.symbols)})" if node.symbols else "")
    if isinstance(node, Atom):
        args = (t if type(t) is str else formula_to_text(t) for t in node.args)
        return f"{node.relation}({', '.join(args)})"
    if isinstance(node, Compare):
        return f"{formula_to_text(node.lhs)} {node.cmp} {formula_to_text(node.rhs)}"
    if isinstance(node, Const):
        return rational_to_text(node.value)
    if isinstance(node, ParamRef):
        return f"{node.entity}.{node.param}"
    if isinstance(node, NameRef):
        return node.name
    raise TypeError(f"cannot print {node!r}")


def serialize_theory(theory: Theory) -> str:
    lines = [f"theory {theory.name}"]
    for s in theory.sorts:
        lines.append(f"  sort {s.name} < {s.parent}")
    for role, sort in theory.roles:
        lines.append(f"  role {role} : {sort}")
    for sig in theory.relations:
        decl = f"  relation {sig.name}({', '.join(sig.arg_sorts)})"
        if sig.definition is not None:
            decl += " := " + formula_to_text(sig.definition)
        lines.append(decl)
    for name, value in theory.numeric_params:
        lines.append(f"  param {name} = {rational_to_text(value)}")
    for axiom in theory.axioms:
        lines.append(f"  axiom {formula_to_text(axiom)}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def _push_text(f: ForceFluent) -> str:
    text = f"{f.label} on {f.target} ({rational_to_text(f.dx)}, {rational_to_text(f.dy)})"
    return text + (" passive" if f.mode == "passive" else "")


def _effect_to_text(eff) -> str:
    if isinstance(eff, dynamics.SetParam):
        return f"{eff.target}.{eff.param} := {formula_to_text(eff.expr)}"
    if isinstance(eff, dynamics.DeltaParam):
        return f"{eff.target}.{eff.param} += {formula_to_text(eff.expr)}"
    if isinstance(eff, dynamics.AddForce):
        return "addforce " + _push_text(eff.force)
    if isinstance(eff, dynamics.RemoveForce):
        return f"removeforce {eff.label} on {eff.target}"
    raise TypeError(f"cannot print effect {eff!r}")


def _rule_to_text(rule: dynamics.Rule) -> str:
    if rule.kind == "gravity":
        return f"  gravity({rational_to_text(rule.effects[0].delta)})"
    if rule.kind == "umph":
        label = rule.name.split(":", 1)[1]
        dx, dy = (e.expr.value for e in rule.effects)
        push = ForceFluent(label, rule.effects[0].target, dx, dy, rule.mode)
        text = "  umph " + _push_text(push)
    else:
        text = f"  rule {rule.name}"
        if rule.scope is not None:
            text += f" forall {rule.scope[0]} : {rule.scope[1]}"
        text += f" when {formula_to_text(rule.condition)}"
        text += " do " + ", ".join(_effect_to_text(e) for e in rule.effects)
    if rule.until is not None:
        text += f" until {formula_to_text(rule.until)}"
    return text


def serialize_scenario(sc: Scenario) -> str:
    lines = [f"scenario {sc.name}"]
    for e in sc.entities:
        n_geo = len(SHAPE_PARAMS[e.shape])
        geo = ", ".join(rational_to_text(v) for _, v in e.params[:n_geo])
        line = f"  entity {e.id} : {e.sort} = {e.shape.value}({geo})"
        attrs = e.params[n_geo:]
        if attrs:
            line += " with " + ", ".join(f"{n} = {rational_to_text(v)}" for n, v in attrs)
        lines.append(line)
    if sc.trace is not None:
        lines.append(f"  trace length {sc.trace.length}")
        previous = {(e.id, n): v for e in sc.entities for n, v in e.params}
        for state in sc.trace.states:
            diffs = [
                (eid, pname, v)
                for (eid, pname), v in sorted(state.values.items())
                if previous[(eid, pname)] != v
            ]
            if diffs:
                inner = " ".join(
                    f"{eid}.{pname} = {rational_to_text(v)}" for eid, pname, v in diffs
                )
                lines.append(f"  state {state.time} {{ {inner} }}")
            previous = dict(state.values)
    else:
        lines.append("  rules")
        for rule in sc.rules or ():
            lines.append(_rule_to_text(rule))
        lines.append(f"  horizon {sc.horizon}")
    lines.append("end")
    return "\n".join(lines) + "\n"


# --- trace JSON -----------------------------------------------------------------


class _Params(list):
    """An entity's `params` list of [name, value] lists, with `pairs`: each
    name and value as a JSON string, from which `json_text` writes the list."""

    __slots__ = ("pairs",)


def _entity_to_json(e: EntityDecl) -> dict:
    params = _Params([n, rational_to_text(v)] for n, v in e.params)
    params.pairs = [(_json_string(n), _json_string(v)) for n, v in params]
    return {"id": e.id, "sort": e.sort, "shape": e.shape.value, "params": params}


def _force_to_json(f: ForceFluent) -> dict:
    return {
        "label": f.label,
        "target": f.target,
        "dx": rational_to_text(f.dx),
        "dy": rational_to_text(f.dy),
        "mode": f.mode,
    }


class _Values(dict):
    """A state's `values` object, "<id>.<param>" to rational text, with
    `lines`: its members as `json_text` writes them, `"<id>.<param>": "<text>"`,
    in sorted key order."""

    __slots__ = ("lines",)


class _KeySet:
    """The text that the documents of states with one key set share: the keys
    in sorted JSON order, each one's `"<id>.<param>": ` head, and the values,
    `values` object and forces of the state written last."""

    __slots__ = ("keys", "names", "heads", "last", "values_obj", "forces", "force_list")

    def __init__(self, keys):
        by_name = {f"{eid}.{pname}": (eid, pname) for eid, pname in keys}
        self.names = sorted(by_name)
        self.keys = [by_name[name] for name in self.names]
        self.heads = [_json_string(name) + ": " for name in self.names]
        self.last = [None] * len(self.keys)  # no value is None: the first state converts them all
        self.values_obj = _Values.fromkeys(self.names)
        self.values_obj.lines = [None] * len(self.keys)
        self.forces, self.force_list = frozenset(), []

    def values(self, values) -> _Values:
        """The `values` object of a state's `values`: the one written last
        while every value is the same object (`is`) as there, else a copy of
        it in which only the values that are not are converted again."""
        current = list(map(values.__getitem__, self.keys))
        changed = list(itertools.compress(itertools.count(), map(operator.is_not, current, self.last)))
        if changed:
            obj, lines = _Values(self.values_obj), self.values_obj.lines.copy()
            for i in changed:
                obj[self.names[i]] = text = rational_to_text(current[i])
                lines[i] = self.heads[i] + _json_string(text)
            obj.lines = lines
            self.last, self.values_obj = current, obj
        return self.values_obj

    def forces_of(self, forces: frozenset) -> list:
        """The `forces` list of `forces`, the same list object while they
        equal the forces of the state written last."""
        if forces != self.forces:
            self.forces = forces
            self.force_list = [_force_to_json(f) for f in sorted(forces, key=lambda f: (f.label, f.target))]
        return self.force_list


def trace_to_json(trace: Trace, entities: Sequence[EntityDecl], shared: Optional[dict] = None) -> dict:
    """The JSON document of a trace, with exact rational strings. The
    documents of several traces built with one `shared` dict share one entity
    list and one document per State object, which `json_text` writes once.

    `shared` also keeps, per key set, the text of the state written last. A
    state's `values` object reuses its `"<id>.<param>": "<text>"` line for
    each value that is the same object (`is`) as there, so only a value a
    step rewrote is converted again, and it is that same object when every
    value is; its `forces` list is that same list while the forces are equal.
    `json_text` writes an object that recurs at one level once."""
    if shared is None:
        shared = {}
    if "entities" not in shared:
        shared["entities"] = [_entity_to_json(e) for e in entities]
    key_set = frozenset(trace.states[0].values)
    kept = shared.get(key_set)
    if kept is None:
        kept = shared[key_set] = _KeySet(key_set)
    states = []
    for s in trace.states:
        if id(s) not in shared:  # the state is kept with its document, so its id stays its own
            shared[id(s)] = s, {"t": s.time, "values": kept.values(s.values), "forces": kept.forces_of(s.forces)}
        states.append(shared[id(s)][1])
    return {"length": trace.length, "entities": shared["entities"], "states": states}


_json_string = json.encoder.encode_basestring_ascii


def json_text(doc) -> str:
    """`json.dumps(doc, sort_keys=True, indent=2)` for a document of dicts
    with string keys, lists and JSON scalars, writing a dict or list that
    occurs in it more than once at one level, as one object, once. A state's
    `values` object (`_Values`) is written from its ready `lines`, and an
    entity's `params` list (`_Params`) from its ready `pairs`."""
    written: dict[tuple[int, int], str] = {}

    def write(obj, level: int) -> str:
        if isinstance(obj, str):
            return _json_string(obj)
        key = (id(obj), level)  # ids are unique while `doc` holds the objects
        if key in written:
            return written[key]
        if not obj or not isinstance(obj, (dict, list)):
            written[key] = json.dumps(obj)
        else:
            pad = "\n" + "  " * (level + 1)
            if isinstance(obj, dict):
                if type(obj) is _Values:
                    items = obj.lines
                else:
                    items = [f"{_json_string(k)}: {write(v, level + 1)}" for k, v in sorted(obj.items())]
                written[key] = "{" + pad + ("," + pad).join(items) + "\n" + "  " * level + "}"
            else:
                if type(obj) is _Params:  # each [name, value] list one level deeper
                    inner = pad + "  "
                    items = [f"[{inner}{n},{inner}{v}{pad}]" for n, v in obj.pairs]
                else:
                    items = [write(v, level + 1) for v in obj]
                written[key] = "[" + pad + ("," + pad).join(items) + "\n" + "  " * level + "]"
        return written[key]

    return write(doc, 0)


def serialize_trace(trace: Trace, entities: Sequence[EntityDecl]) -> str:
    """Canonical JSON: sorted keys, exact rational strings, byte-identical for
    equal traces."""
    return json_text(trace_to_json(trace, entities)) + "\n"


def parse_trace_json(text: str) -> tuple[tuple[EntityDecl, ...], Trace]:
    doc = json.loads(text)
    entities = tuple(
        EntityDecl(
            id=e["id"],
            sort=e["sort"],
            shape=ShapeKind(e["shape"]),
            params=tuple((n, text_to_rational(v)) for n, v in e["params"]),
        )
        for e in doc["entities"]
    )
    states = []
    for s in doc["states"]:
        values = {}
        for key, v in s["values"].items():
            eid, pname = key.split(".", 1)
            values[(eid, pname)] = text_to_rational(v)
        forces = frozenset(
            ForceFluent(
                label=f["label"],
                target=f["target"],
                dx=text_to_rational(f["dx"]),
                dy=text_to_rational(f["dy"]),
                mode=f["mode"],
            )
            for f in s["forces"]
        )
        states.append(State(time=s["t"], values=values, forces=forces))
    return entities, Trace(tuple(states))
