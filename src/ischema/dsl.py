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

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import dynamics, geometry
from .errors import IschemaError
from .geometry import (
    COMPARATORS,
    Add,
    Const,
    ConstraintAtom,
    DeltaExpr,
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
    NumTerm,
    Or,
    Sym,
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
    length: int = 1

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

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r\n]+)
  | (?P<comment>\#[^\n]*)
  | (?P<rational>\d+/\d+|\d+\.\d+|\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>:=|\+=|->|<=|>=|!=|[()<>={},.:+\-*])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # "rational" | "ident" | "op" | "eof"
    text: str
    span: SourceSpan


def tokenize(text: str, filename: str = "<input>") -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            span = SourceSpan(filename, line, col, 1)
            raise DslError([
                Diagnostic("error", "syntax", f"unexpected character {text[pos]!r}", span)
            ])
        lexeme = m.group(0)
        kind = m.lastgroup
        if kind not in ("ws", "comment"):
            span = SourceSpan(filename, line, col, len(lexeme))
            tokens.append(Token(kind, lexeme, span))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(Token("eof", "", SourceSpan(filename, line, col, 0)))
    return tokens


def text_to_rational(text: str) -> Fraction:
    return Fraction(text)


def rational_to_text(q: Fraction) -> str:
    """Exact decimal when the denominator is 2^a 5^b, else "p/q"."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    d = q.denominator
    twos = fives = 0
    while d % 2 == 0:
        d //= 2
        twos += 1
    while d % 5 == 0:
        d //= 5
        fives += 1
    if d != 1:
        return f"{q.numerator}/{q.denominator}"
    k = max(twos, fives)
    scaled = abs(q.numerator) * 10**k // q.denominator
    digits = str(scaled).rjust(k + 1, "0")
    sign = "-" if q.numerator < 0 else ""
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


class _Parser:
    def __init__(self, tokens: list[Token], filename: str):
        self.tokens = tokens
        self.pos = 0
        self.filename = filename
        self.depth = 0  # enclosing nested constructs of the one being parsed

    # -- token helpers

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.peek()
        self.pos += 1
        return tok

    def at_op(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.text == text

    def at_word(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and tok.text == text

    def accept_op(self, text: str) -> bool:
        if self.at_op(text):
            self.pos += 1
            return True
        return False

    def accept_word(self, text: str) -> bool:
        if self.at_word(text):
            self.pos += 1
            return True
        return False

    def expect_op(self, text: str) -> Token:
        if not self.at_op(text):
            self.fail(f"expected {text!r}")
        return self.next()

    def expect_word(self, text: str) -> Token:
        if not self.at_word(text):
            self.fail(f"expected keyword {text!r}")
        return self.next()

    def expect_ident(self, what: str = "identifier", allow_reserved: bool = False) -> Token:
        tok = self.peek()
        if tok.kind != "ident":
            self.fail(f"expected {what}")
        if not allow_reserved and tok.text in RESERVED:
            self.fail(f"{tok.text!r} is a reserved word")
        return self.next()

    def expect_nat(self) -> int:
        tok = self.peek()
        if tok.kind != "rational" or not tok.text.isdigit():
            self.fail("expected a natural number")
        self.next()
        return int(tok.text)

    def expect_rational(self) -> Fraction:
        negative = self.accept_op("-")
        tok = self.peek()
        if tok.kind != "rational":
            self.fail("expected a rational number")
        self.next()
        value = text_to_rational(tok.text)
        return -value if negative else value

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
        as tightly as `min_prec`. The token text alone identifies an
        operator: no number or end of input spells one."""
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
        if tok.kind == "ident" and tok.text in _CONSTANTS:
            self.next()
            return _CONSTANTS[tok.text]()
        if tok.kind == "ident" and tok.text in _QUANTIFIERS:
            self.next()
            var = self.expect_ident("quantified variable")
            self.expect_op(":")
            sort = self.expect_ident("sort name")
            self.expect_op(".")
            body = self._nested(tok, self.formula)
            return _QUANTIFIERS[tok.text](var.text, sort.text, body)
        if (
            tok.kind == "ident"
            and tok.text not in RESERVED
            and self.peek(1).kind == "op"
            and self.peek(1).text == "("
        ):
            return self._relation_atom()
        return self._comparison(tok)

    def _relation_atom(self) -> Formula:
        name = self.expect_ident("relation name")
        self.expect_op("(")
        args: list = [self._term()]
        while self.accept_op(","):
            args.append(self._term())
        self.expect_op(")")
        return Atom(name.text, tuple(args), span=name.span)

    def _term(self):
        tok = self.peek()
        if (
            tok.kind == "ident"
            and tok.text not in _FUNCTIONS
            and self.peek(1).kind == "op"
            and self.peek(1).text in (",", ")")
        ):
            self.next()
            return Sym(tok.text)
        return NumTerm(self.num_expr())

    def _comparison(self, start: Token) -> Formula:
        saved = self.pos
        try:
            lhs = self.num_expr()
            cmp_tok = self.peek()
            if cmp_tok.kind == "op" and cmp_tok.text in COMPARATORS:
                self.next()
                rhs = self.num_expr()
                return Compare(ConstraintAtom(lhs, cmp_tok.text, rhs), span=start.span)
            if not (start.kind == "op" and start.text == "("):
                self.fail("expected a comparison operator", cmp_tok.span)
        except DslError:
            if not (start.kind == "op" and start.text == "("):
                raise
        # fall back to a parenthesized formula
        self.pos = saved
        self.expect_op("(")
        inner = self._nested(start, self.formula)
        self.expect_op(")")
        return inner

    # -- numeric expressions

    def num_expr(self) -> NumExpr:
        return self._binary(_NUM_BINARY, self._num_unary)

    def _num_unary(self) -> NumExpr:
        return self._prefix(_NUM_UNARY, self._num_primary)

    def _num_primary(self) -> NumExpr:
        tok = self.peek()
        if tok.kind == "rational":
            self.next()
            return Const(text_to_rational(tok.text))
        if self.accept_op("("):
            inner = self._nested(tok, self.num_expr)
            self.expect_op(")")
            return inner
        if tok.kind == "ident":
            if tok.text in _FUNCTIONS:
                self.next()
                self.expect_op("(")
                names = [self.expect_ident("entity").text]
                for _ in _FUNCTIONS[tok.text].SYMBOLS[1:]:
                    self.expect_op(",")
                    names.append(self.expect_ident("entity").text)
                self.expect_op(")")
                return _FUNCTIONS[tok.text](*names)
            if tok.text in RESERVED:
                self.fail(f"{tok.text!r} is a reserved word")
            self.next()
            if self.accept_op("."):
                param = self.expect_ident("parameter name", allow_reserved=True)
                return ParamRef(tok.text, param.text)
            return NameRef(tok.text)
        self.fail("expected a numeric expression")

    # -- theory

    def theory(self) -> Theory:
        self.expect_word("theory")
        name = self.expect_ident("theory name")
        sorts: list[Sort] = []
        roles: list[tuple[str, str]] = []
        relations: list[RelationSig] = []
        params: list[tuple[str, Fraction]] = []
        axioms: list[Formula] = []
        while not self.at_word("end"):
            if self.accept_word("sort"):
                child = self.expect_ident("sort name")
                self.expect_op("<")
                parent = self.expect_ident("parent sort")
                sorts.append(Sort(child.text, parent.text))
            elif self.accept_word("role"):
                names = [self.expect_ident("role name")]
                while self.accept_op(","):
                    names.append(self.expect_ident("role name"))
                self.expect_op(":")
                sort = self.expect_ident("sort name")
                roles.extend((n.text, sort.text) for n in names)
            elif self.accept_word("relation"):
                rel = self.expect_ident("relation name")
                self.expect_op("(")
                arg_sorts = [self.expect_ident("sort name").text]
                while self.accept_op(","):
                    arg_sorts.append(self.expect_ident("sort name").text)
                self.expect_op(")")
                definition = None
                if self.accept_op(":="):
                    lhs = self.num_expr()
                    cmp_tok = self.peek()
                    if cmp_tok.kind != "op" or cmp_tok.text not in COMPARATORS:
                        self.fail("expected a comparison operator")
                    self.next()
                    rhs = self.num_expr()
                    definition = ConstraintAtom(
                        self._shallow(lhs, rel), cmp_tok.text, self._shallow(rhs, rel)
                    )
                relations.append(RelationSig(rel.text, tuple(arg_sorts), definition))
            elif self.accept_word("param"):
                pname = self.expect_ident("parameter name")
                self.expect_op("=")
                params.append((pname.text, self.expect_rational()))
            elif self.accept_word("axiom"):
                axioms.append(self.formula())
            else:
                self.fail("expected sort, role, relation, param, axiom, or end")
        self.expect_word("end")
        if self.peek().kind != "eof":
            self.fail("unexpected trailing input")
        return Theory(
            name=name.text,
            sorts=tuple(sorts),
            roles=tuple(roles),
            relations=tuple(relations),
            axioms=tuple(axioms),
            numeric_params=tuple(params),
        )

    # -- scenario

    def scenario(self) -> Scenario:
        self.expect_word("scenario")
        name = self.expect_ident("scenario name")
        entities: list[EntityDecl] = []
        while self.at_word("entity"):
            entities.append(self._entity_decl())
        trace = None
        rules = None
        horizon = None
        if self.at_word("trace"):
            trace = self._trace_block(entities)
        elif self.at_word("rules"):
            rules = self._rules_block()
            self.expect_word("horizon")
            horizon = self.expect_nat()
        else:
            self.fail("expected a trace block or a rules block")
        self.expect_word("end")
        if self.peek().kind != "eof":
            self.fail("unexpected trailing input")
        try:
            return declare_scenario(
                entities, trace=trace, rules=rules, horizon=horizon, name=name.text
            )
        except IschemaError as exc:
            self.fail(str(exc), name.span)

    def _entity_decl(self) -> EntityDecl:
        self.expect_word("entity")
        eid = self.expect_ident("entity id")
        self.expect_op(":")
        sort = self.expect_ident("sort name")
        self.expect_op("=")
        shape_tok = self.expect_ident("shape name", allow_reserved=True)
        shape = _SHAPES.get(shape_tok.text)
        if shape is None:
            self.fail(f"unknown shape {shape_tok.text!r}", shape_tok.span)
        self.expect_op("(")
        values = [self.expect_rational()]
        while self.accept_op(","):
            values.append(self.expect_rational())
        self.expect_op(")")
        attrs: list[tuple[str, Fraction]] = []
        if self.accept_word("with"):
            while True:
                aname = self.expect_ident("attribute name")
                self.expect_op("=")
                attrs.append((aname.text, self.expect_rational()))
                if not self.accept_op(","):
                    break
        try:
            return make_entity(eid.text, sort.text, shape, values, attrs)
        except IschemaError as exc:
            self.fail(str(exc), eid.span)

    def _trace_block(self, entities: list[EntityDecl]) -> Trace:
        self.expect_word("trace")
        self.expect_word("length")
        length_tok = self.peek()
        length = self.expect_nat()
        if length < 1:
            self.fail("trace length must be at least 1", length_tok.span)
        overrides: dict[int, dict[tuple[str, str], Fraction]] = {}
        ids = {e.id for e in entities}
        while self.at_word("state"):
            self.expect_word("state")
            idx_tok = self.peek()
            idx = self.expect_nat()
            if idx >= length:
                self.fail(f"state index {idx} outside trace of length {length}", idx_tok.span)
            block = overrides.setdefault(idx, {})
            self.expect_op("{")
            while not self.at_op("}"):
                ent = self.expect_ident("entity id")
                if ent.text not in ids:
                    self.fail(f"unknown entity {ent.text!r}", ent.span)
                self.expect_op(".")
                pname = self.expect_ident("parameter name", allow_reserved=True)
                decl = next(e for e in entities if e.id == ent.text)
                if pname.text not in decl.param_names():
                    self.fail(f"{ent.text} has no parameter {pname.text!r}", pname.span)
                self.expect_op("=")
                block[(ent.text, pname.text)] = self.expect_rational()
            self.expect_op("}")
        states = []
        current = {(e.id, n): v for e in entities for n, v in e.params}
        for t in range(length):
            current = {**current, **overrides.get(t, {})}
            states.append(State(time=t, values=current))
        return Trace(tuple(states))

    def _rules_block(self) -> list[dynamics.Rule]:
        self.expect_word("rules")
        rules: list[dynamics.Rule] = []
        while True:
            if self.at_word("gravity"):
                self.next()
                self.expect_op("(")
                delta_tok = self.peek()
                delta = self.expect_rational()
                self.expect_op(")")
                try:
                    rules.append(dynamics.gravity_rule(delta))
                except IschemaError as exc:
                    self.fail(str(exc), delta_tok.span)
            elif self.at_word("umph"):
                self.next()
                label = self.expect_ident("force label")
                self.expect_word("on")
                target = self.expect_ident("entity id")
                self.expect_op("(")
                dx = self.expect_rational()
                self.expect_op(",")
                dy = self.expect_rational()
                self.expect_op(")")
                mode = "passive" if self.accept_word("passive") else "active"
                until = self.formula() if self.accept_word("until") else None
                rules.append(
                    dynamics.umph_rule(label.text, target.text, dx, dy, mode=mode, until=until)
                )
            elif self.at_word("rule"):
                self.next()
                rname = self.expect_ident("rule name")
                scope = None
                if self.accept_word("forall"):
                    var = self.expect_ident("variable")
                    self.expect_op(":")
                    sort = self.expect_ident("sort name")
                    scope = (var.text, sort.text)
                self.expect_word("when")
                condition = self.formula()
                self.expect_word("do")
                effects = [self._effect()]
                while self.accept_op(","):
                    effects.append(self._effect())
                until = self.formula() if self.accept_word("until") else None
                rules.append(
                    dynamics.Rule(
                        name=rname.text,
                        condition=condition,
                        effects=tuple(effects),
                        scope=scope,
                        until=until,
                    )
                )
            else:
                return rules

    def _effect(self) -> dynamics.Effect:
        if self.accept_word("addforce"):
            label = self.expect_ident("force label")
            self.expect_word("on")
            target = self.expect_ident("entity id")
            self.expect_op("(")
            dx = self.expect_rational()
            self.expect_op(",")
            dy = self.expect_rational()
            self.expect_op(")")
            mode = "passive" if self.accept_word("passive") else "active"
            return dynamics.AddForce(ForceFluent(label.text, target.text, dx, dy, mode))
        if self.accept_word("removeforce"):
            label = self.expect_ident("force label")
            self.expect_word("on")
            target = self.expect_ident("entity id")
            return dynamics.RemoveForce(label.text, target.text)
        ent = self.expect_ident("entity id or variable")
        self.expect_op(".")
        param = self.expect_ident("parameter name", allow_reserved=True)
        if self.accept_op(":="):
            return dynamics.SetParam(ent.text, param.text, self._shallow(self.num_expr(), ent))
        if self.accept_op("+="):
            return dynamics.DeltaParam(ent.text, param.text, self._shallow(self.num_expr(), ent))
        self.fail("expected := or += in effect")


def parse_theory(text: str, filename: str = "<input>") -> Theory:
    return _Parser(tokenize(text, filename), filename).theory()


def parse_scenario(text: str, filename: str = "<input>") -> Scenario:
    return _Parser(tokenize(text, filename), filename).scenario()


def parse_formula(text: str, filename: str = "<formula>") -> Formula:
    parser = _Parser(tokenize(text, filename), filename)
    phi = parser.formula()
    if parser.peek().kind != "eof":
        parser.fail("unexpected trailing input")
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
        self._fallback_span = SourceSpan("<input>", 1, 1, 0)

    def error(self, code: str, message: str, span) -> None:
        self.diagnostics.append(
            Diagnostic("error", code, message, span or self._fallback_span)
        )

    def term_sort(self, name: str, scope: dict[str, str]) -> Optional[str]:
        if name in scope:
            return scope[name]
        if name in self.entity_sorts:
            return self.entity_sorts[name]
        return None

    def check(self, node: Node, scope: dict[str, str], span=None) -> None:
        """Sort-check a formula or numeric expression. `span` locates errors
        in nodes that carry no span of their own."""
        if isinstance(node, Atom):
            return self.check_atom(node, scope)
        if isinstance(node, (Forall, Exists)):
            if not self.hierarchy.known(node.sort):
                return self.error("unknown-sort", f"unknown sort {node.sort!r}", span)
            scope = {**scope, node.var: node.sort}
        elif isinstance(node, NameRef):
            if node.name not in self.numeric_params and self.term_sort(node.name, scope) is None:
                message = f"{node.name!r} is not a declared numeric parameter"
                self.error("unbound-symbol", message, span)
        elif isinstance(node, Compare):
            span = node.span
        for name in node.symbols:
            if self.term_sort(name, scope) is None:
                self.error("unbound-symbol", f"unknown entity or role {name!r}", span)
        for child in node.children:
            self.check(child, scope, span)

    def check_atom(self, atom: Atom, scope: dict[str, str]) -> None:
        sig = self.relations.get(atom.relation)
        builtin = geometry.BUILTIN_RELATIONS.get(atom.relation)
        if builtin is None and (sig is None or sig.definition is None):
            self.error("unknown-relation", f"unknown relation {atom.relation!r}", atom.span)
            return
        entity_terms: list[tuple[str, Optional[str]]] = []
        numeric_count = 0
        for term in atom.args:
            if isinstance(term, Sym):
                sort = self.term_sort(term.name, scope)
                if sort is None:
                    if term.name in self.numeric_params:
                        numeric_count += 1
                        continue
                    self.error(
                        "unbound-symbol",
                        f"symbol {term.name!r} is not a declared role, variable, or entity",
                        atom.span,
                    )
                    continue
                entity_terms.append((term.name, sort))
            else:
                self.check(term.expr, scope, atom.span)
                numeric_count += 1
        if sig is not None:
            if len(entity_terms) != len(sig.arg_sorts):
                self.error(
                    "arity",
                    f"{atom.relation} expects {len(sig.arg_sorts)} entity arguments, "
                    f"got {len(entity_terms)}",
                    atom.span,
                )
                return
            for (name, sort), expected in zip(entity_terms, sig.arg_sorts):
                if not self.hierarchy.known(expected):
                    self.error("unknown-sort", f"unknown sort {expected!r}", atom.span)
                elif not self.hierarchy.subsort_of(sort, expected):
                    self.error(
                        "sort-mismatch",
                        f"{atom.relation} expects {expected} here, but {name} has sort {sort}",
                        atom.span,
                    )
        if sig is None or sig.definition is None:
            n_entities, n_numeric, _ = builtin
            if len(entity_terms) != n_entities or numeric_count > n_numeric:
                self.error("arity", geometry.arity_message(atom.relation), atom.span)


def sort_check(obj: Theory | Scenario, hierarchy: SortHierarchy | None = None) -> list[Diagnostic]:
    """Empty result iff every relation application matches its signature up to
    subsorting and every symbol reference is declared."""
    if isinstance(obj, Theory):
        try:
            hierarchy = hierarchy or obj.hierarchy()
        except IschemaError as exc:
            return [Diagnostic("error", "unknown-sort", str(exc), SourceSpan("<input>", 1, 1, 0))]
        relations = {sig.name: sig for sig in obj.relations}
        checker = _SortChecker(
            hierarchy,
            relations,
            {n for n, _ in obj.numeric_params},
            entity_sorts={},
        )
        scope = dict(obj.roles)
        for role, sort in obj.roles:
            if not hierarchy.known(sort):
                checker.error("unknown-sort", f"role {role!r} has unknown sort {sort!r}", None)
        for sig in obj.relations:
            template_scope = {f"arg{i + 1}": s for i, s in enumerate(sig.arg_sorts)}
            for s in sig.arg_sorts:
                if not hierarchy.known(s):
                    checker.error("unknown-sort", f"unknown sort {s!r} in relation {sig.name}", None)
            if sig.definition is not None:
                checker.check(sig.definition.lhs, template_scope)
                checker.check(sig.definition.rhs, template_scope)
        for axiom in obj.axioms:
            checker.check(axiom, scope)
        return checker.diagnostics

    if isinstance(obj, Scenario):
        hierarchy = hierarchy or SortHierarchy()
        entity_sorts = {e.id: e.sort for e in obj.entities}
        checker = _SortChecker(hierarchy, {}, set(), entity_sorts)
        for rule in obj.rules or ():
            scope = dict([rule.scope]) if rule.scope else {}
            if rule.scope and not hierarchy.known(rule.scope[1]):
                checker.error("unknown-sort", f"unknown sort {rule.scope[1]!r}", None)
                continue
            checker.check(rule.condition, scope)
            if rule.until is not None:
                checker.check(rule.until, scope)
            for eff in rule.effects:
                if isinstance(eff, (dynamics.SetParam, dynamics.DeltaParam)):
                    if eff.target in entity_sorts:
                        decl = next(e for e in obj.entities if e.id == eff.target)
                        if eff.param not in decl.param_names():
                            checker.error(
                                "unknown-parameter",
                                f"{eff.target} has no parameter {eff.param!r}",
                                None,
                            )
                    elif rule.scope is None or eff.target != rule.scope[0]:
                        checker.error(
                            "unbound-symbol", f"unknown effect target {eff.target!r}", None
                        )
                    checker.check(eff.expr, scope)
                elif isinstance(eff, dynamics.AddForce):
                    if eff.force.target not in entity_sorts:
                        checker.error(
                            "unbound-symbol",
                            f"force targets unknown entity {eff.force.target!r}",
                            None,
                        )
                elif isinstance(eff, dynamics.RemoveForce):
                    if eff.target not in entity_sorts:
                        checker.error(
                            "unbound-symbol",
                            f"force targets unknown entity {eff.target!r}",
                            None,
                        )
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
        args = (t.name if isinstance(t, Sym) else formula_to_text(t.expr) for t in node.args)
        return f"{node.relation}({', '.join(args)})"
    if isinstance(node, Compare):
        c = node.constraint
        return f"{formula_to_text(c.lhs)} {c.cmp} {formula_to_text(c.rhs)}"
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
            c = sig.definition
            decl += f" := {formula_to_text(c.lhs)} {c.cmp} {formula_to_text(c.rhs)}"
        lines.append(decl)
    for name, value in theory.numeric_params:
        lines.append(f"  param {name} = {rational_to_text(value)}")
    for axiom in theory.axioms:
        lines.append(f"  axiom {formula_to_text(axiom)}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def _effect_to_text(eff) -> str:
    if isinstance(eff, dynamics.SetParam):
        return f"{eff.target}.{eff.param} := {formula_to_text(eff.expr)}"
    if isinstance(eff, dynamics.DeltaParam):
        return f"{eff.target}.{eff.param} += {formula_to_text(eff.expr)}"
    if isinstance(eff, dynamics.AddForce):
        f = eff.force
        text = f"addforce {f.label} on {f.target} ({rational_to_text(f.dx)}, {rational_to_text(f.dy)})"
        return text + (" passive" if f.mode == "passive" else "")
    if isinstance(eff, dynamics.RemoveForce):
        return f"removeforce {eff.label} on {eff.target}"
    raise TypeError(f"cannot print effect {eff!r}")


def _rule_to_text(rule: dynamics.Rule) -> str:
    if rule.kind == "gravity":
        delta = rule.effects[0].delta
        return f"  gravity({rational_to_text(delta)})"
    if rule.kind == "umph":
        label = rule.name.split(":", 1)[1]
        dx = rule.effects[0].expr.value
        dy = rule.effects[1].expr.value
        text = f"  umph {label} on {rule.effects[0].target} ({rational_to_text(dx)}, {rational_to_text(dy)})"
        if rule.mode == "passive":
            text += " passive"
        if rule.until is not None:
            text += f" until {formula_to_text(rule.until)}"
        return text
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


def _entity_to_json(e: EntityDecl) -> dict:
    return {
        "id": e.id,
        "sort": e.sort,
        "shape": e.shape.value,
        "params": [[n, rational_to_text(v)] for n, v in e.params],
    }


def _force_to_json(f: ForceFluent) -> dict:
    return {
        "label": f.label,
        "target": f.target,
        "dx": rational_to_text(f.dx),
        "dy": rational_to_text(f.dy),
        "mode": f.mode,
    }


def serialize_trace(trace: Trace, entities: Sequence[EntityDecl]) -> str:
    """Canonical JSON: sorted keys, exact rational strings, byte-identical for
    equal traces."""
    doc = {
        "length": trace.length,
        "entities": [_entity_to_json(e) for e in entities],
        "states": [
            {
                "t": s.time,
                "values": {
                    f"{eid}.{pname}": rational_to_text(v)
                    for (eid, pname), v in s.values.items()
                },
                "forces": [
                    _force_to_json(f)
                    for f in sorted(s.forces, key=lambda f: (f.label, f.target))
                ],
            }
            for s in trace.states
        ],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


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
