"""Sorted first-order temporal formulas and their finite-trace evaluation.

The trace is complete (every parameter has a value at every instant), so
default negation is evaluated classically here: what cannot be established in
the trace is false. Non-monotonic behavior lives in the simulator.

Temporal operators over a trace of length T, evaluated at instant t:

    next f        strong: t+1 < T and f at t+1
    always f      f at every t' in [t, T)
    eventually f  f at some t' in [t, T)
    f until g     g at some t'' >= t, f at every t' in [t, t'')
    final         t = T-1
    before f      f at some t' in [0, t]   (reflexive past)

`eval_formula` decides a local operand of `always` and `eventually` only at
the `instants` where something it reads has changed: LTL without `next` is
stutter-invariant (Lamport, IFIP 1983; Peled and Wilke, IPL 1997), so the
verdict, the first instant that fails or raises, the error and the witness
stay those of deciding every instant, as `reference_eval` still does.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Callable, Mapping, Optional, Sequence

from . import geometry
from .errors import (
    MissingRole,
    SortMismatchInBinding,
    TimeOutOfRange,
    UnboundSymbol,
)
from .geometry import EvalContext, NumExpr, eval_constraint, eval_num_expr
from .model import Scenario, State, Theory, Trace
from .tree import Node, all_symbols

Binding = Mapping[str, str]


# --- formula AST --------------------------------------------------------------------


class Formula(Node):
    __slots__ = ()


class Atom(Formula):
    """A relation applied to its arguments, each a name (a role or bound
    variable of the binding, else a numeric parameter of the theory, else an
    entity id) or a numeric expression, e.g. the threshold of closeTo."""

    __slots__ = FIELDS = ("relation", "args")

    @property
    def children(self) -> tuple:
        return tuple([t for t in self.args if type(t) is not str])

    @property
    def symbols(self) -> tuple[str, ...]:  # a name may also be a numeric parameter
        return tuple([t for t in self.args if type(t) is str])

    def rebuild(self, children, symbols=None) -> "Atom":
        exprs, names = iter(children), iter(self.symbols if symbols is None else symbols)
        args = (next(names) if type(t) is str else next(exprs) for t in self.args)
        return Atom(self.relation, tuple(args), span=self.span)


class Compare(Formula):
    """lhs CMP rhs with CMP in geometry.COMPARATORS; also the body of a
    relation template. Equality and disequality over expressions containing
    distance, angle or measure terms hold within the configured tolerance.
    `form` is the node's `geometry.comparison_form`, classified once."""

    FIELDS = ("lhs", "cmp", "rhs")
    __slots__ = (*FIELDS, "form")
    CHILDREN = ("lhs", "rhs")

    def __init__(self, lhs: NumExpr, cmp: str, rhs: NumExpr, span=None):
        super().__init__(lhs, cmp, rhs, span=span)
        object.__setattr__(self, "form", geometry.comparison_form(lhs, rhs))


class TrueF(Formula):
    __slots__ = ()


class FalseF(Formula):
    __slots__ = ()


class Not(Formula):
    __slots__ = FIELDS = CHILDREN = ("operand",)


class And(Formula):
    __slots__ = FIELDS = CHILDREN = ("left", "right")


class Or(Formula):
    __slots__ = FIELDS = CHILDREN = ("left", "right")


class Implies(Formula):
    __slots__ = FIELDS = CHILDREN = ("left", "right")


class Forall(Formula):
    __slots__ = FIELDS = ("var", "sort", "body")  # the span is the sort name's
    CHILDREN = ("body",)


class Exists(Formula):
    __slots__ = FIELDS = ("var", "sort", "body")  # the span is the sort name's
    CHILDREN = ("body",)


class Next(Formula):
    __slots__ = FIELDS = CHILDREN = ("operand",)


class Always(Formula):
    FIELDS = CHILDREN = ("operand",)
    __slots__ = (*FIELDS, "reads")  # the operand's `local_reads`

    def __init__(self, operand: Formula, span=None):
        super().__init__(operand, span=span)
        object.__setattr__(self, "reads", local_reads(operand))


class Eventually(Formula):
    FIELDS = CHILDREN = ("operand",)
    __slots__ = (*FIELDS, "reads")  # the operand's `local_reads`

    def __init__(self, operand: Formula, span=None):
        super().__init__(operand, span=span)
        object.__setattr__(self, "reads", local_reads(operand))


class Until(Formula):
    __slots__ = FIELDS = CHILDREN = ("left", "right")


class Final(Formula):
    __slots__ = ()


class Before(Formula):
    __slots__ = FIELDS = CHILDREN = ("operand",)


# --- shared atom semantics ------------------------------------------------------


def resolve_args(
    atom: Atom, state: State, binding: Binding, ctx: EvalContext
) -> tuple[list[str], list]:
    """The atom's entity arguments and its numeric ones, these read in `state`."""
    entity_args: list[str] = []
    num_args: list = []
    for term in atom.args:
        if type(term) is not str:
            num_args.append(eval_num_expr(term, state, ctx, binding))
        elif term in binding:
            entity_args.append(binding[term])
        elif term in ctx.numeric_params:
            num_args.append(ctx.numeric_params[term])
        elif term in ctx.entities:
            entity_args.append(term)
        else:
            raise UnboundSymbol(f"symbol {term!r} is not bound and names no entity")
    return entity_args, num_args


def decide(phi: Formula, states: Sequence[State], t: int, binding: Binding, ctx: EvalContext) -> bool:
    """The atom or comparison `phi` at instant t of `states`; the step
    relations also read state t+1, where there is one."""
    if type(phi) is Compare:
        return eval_constraint(phi, states[t], ctx, binding)
    entity_args, num_args = resolve_args(phi, states[t], binding, ctx)
    after = states[t + 1] if t + 1 < len(states) else None
    return geometry.eval_relation(phi.relation, entity_args, states[t], ctx, num_args, after)


# The formula nodes `decide` decides.
LEAVES = frozenset({Atom, Compare})


# --- runs of equal instants ----------------------------------------------------


# The nodes that read other instants or bind a variable.
_NOT_LOCAL = frozenset({Forall, Exists, Next, Always, Eventually, Until, Before})


def local_reads(phi: Formula) -> Optional[tuple[frozenset, frozenset, bool]]:
    """When `phi` is local, holding no quantifier and no temporal operator
    but `final`: the symbols it names, the relations it applies, and
    whether it holds `final`. None otherwise. Iterative, since an operand
    is classified before the parser measures its depth."""
    symbols, relations, final = set(), set(), False
    stack = [phi]
    while stack:
        node = stack.pop()
        if type(node) in _NOT_LOCAL or not isinstance(node, Node):
            return None
        if type(node) is Atom:
            relations.add(node.relation)
        final = final or type(node) is Final
        symbols.update(node.symbols)
        stack.extend(node.children)
    return frozenset(symbols), frozenset(relations), final


def instants(reads: tuple, trace: Trace, t: int, binding: Binding, ctx: EvalContext) -> Sequence[int]:
    """The instants of [t, T), ascending, at which a local formula with
    `reads` can change value: t; each change instant after t (see
    `Trace.changes`) of an entity that a symbol of it names or is bound to,
    or that an applied template's body names; the instant before each, when
    it applies a step relation; and T - 1, when it applies one or holds
    `final`. At any other instant it reads the values of the instant before,
    so it has the same value there, or raises the same error."""
    symbols, relations, final = reads
    T = trace.length
    if t + 1 >= T:
        return (t,)
    step = any(geometry.reads_next_state(r, ctx) for r in relations)
    names = set(symbols)
    for r in relations:
        template = ctx.relations.get(r)
        if template is not None:
            names |= all_symbols(template.definition)
    record = trace.changes()
    out = {t, T - 1} if step or final else {t}
    for name in names:
        for entity in (name, binding.get(name)):
            for c in record.get(entity, ()):
                if c > t:
                    out.add(c)
                    if step:
                        out.add(c - 1)
    return sorted(out)


# --- production evaluator ------------------------------------------------------


def eval_formula(
    phi: Formula,
    trace: Trace,
    t: int,
    binding: Binding,
    ctx: EvalContext,
    _memo: dict | None = None,
) -> bool:
    """Truth of `phi` at instant `t`, with short-circuiting and memoization."""
    if not 0 <= t < trace.length:
        raise TimeOutOfRange(f"instant {t} outside trace of length {trace.length}")
    binding = dict(binding) if binding else {}
    memo: dict = {} if _memo is None else _memo
    return _eval_scoped(phi, trace, t, binding, ctx, memo)


def _eval_scoped(phi: Formula, trace: Trace, t: int, binding: dict, ctx: EvalContext, memo: dict) -> bool:
    """_eval under a new binding; its part of the memo key is built here, once
    per quantifier scope, and passed down as `bkey`."""
    return _eval(phi, trace, t, binding, tuple(sorted(binding.items())), ctx, memo)


def _eval(
    phi: Formula, trace: Trace, t: int, binding: dict, bkey: tuple, ctx: EvalContext, memo: dict
) -> bool:
    key = (id(phi), t, bkey)
    if key in memo:
        return memo[key]
    result = _eval_node(phi, trace, t, binding, bkey, ctx, memo)
    memo[key] = result
    return result


def _eval_node(
    phi: Formula, trace: Trace, t: int, binding: dict, bkey: tuple, ctx: EvalContext, memo: dict
) -> bool:
    T = trace.length
    if type(phi) in LEAVES:
        return decide(phi, trace.states, t, binding, ctx)
    if isinstance(phi, TrueF):
        return True
    if isinstance(phi, FalseF):
        return False
    if isinstance(phi, Final):
        return t == T - 1
    if isinstance(phi, Not):
        return not _eval(phi.operand, trace, t, binding, bkey, ctx, memo)
    if isinstance(phi, And):
        return _eval(phi.left, trace, t, binding, bkey, ctx, memo) and _eval(
            phi.right, trace, t, binding, bkey, ctx, memo
        )
    if isinstance(phi, Or):
        return _eval(phi.left, trace, t, binding, bkey, ctx, memo) or _eval(
            phi.right, trace, t, binding, bkey, ctx, memo
        )
    if isinstance(phi, Implies):
        return (not _eval(phi.left, trace, t, binding, bkey, ctx, memo)) or _eval(
            phi.right, trace, t, binding, bkey, ctx, memo
        )
    if isinstance(phi, Forall):
        return all(
            _eval_scoped(phi.body, trace, t, {**binding, phi.var: e}, ctx, memo)
            for e in ctx.domain(phi.sort)
        )
    if isinstance(phi, Exists):
        return any(
            _eval_scoped(phi.body, trace, t, {**binding, phi.var: e}, ctx, memo)
            for e in ctx.domain(phi.sort)
        )
    if isinstance(phi, Next):
        return t + 1 < T and _eval(phi.operand, trace, t + 1, binding, bkey, ctx, memo)
    if isinstance(phi, (Always, Eventually)):
        span = range(t, T) if phi.reads is None else instants(phi.reads, trace, t, binding, ctx)
        holds = (_eval(phi.operand, trace, u, binding, bkey, ctx, memo) for u in span)
        return all(holds) if type(phi) is Always else any(holds)
    if isinstance(phi, Until):
        for u in range(t, T):
            if _eval(phi.right, trace, u, binding, bkey, ctx, memo):
                return all(
                    _eval(phi.left, trace, v, binding, bkey, ctx, memo) for v in range(t, u)
                )
        return False
    if isinstance(phi, Before):
        return any(_eval(phi.operand, trace, u, binding, bkey, ctx, memo) for u in range(0, t + 1))
    raise TypeError(f"not a formula: {phi!r}")


# --- reference oracle ------------------------------------------------------------

def reference_eval(
    phi: Formula,
    trace: Trace,
    t: int,
    binding: Binding,
    ctx: EvalContext,
) -> bool:
    """Naive recursive expansion with no sharing, memoization, or early exit.

    Same contract as eval_formula; exists to cross-check it.
    """
    if not 0 <= t < trace.length:
        raise TimeOutOfRange(f"instant {t} outside trace of length {trace.length}")
    return _ref(phi, trace, t, dict(binding) if binding else {}, ctx)


def _ref(phi: Formula, trace: Trace, t: int, binding: dict, ctx: EvalContext) -> bool:
    T = trace.length
    if type(phi) in LEAVES:
        return decide(phi, trace.states, t, binding, ctx)
    if isinstance(phi, TrueF):
        return True
    if isinstance(phi, FalseF):
        return False
    if isinstance(phi, Final):
        return t == T - 1
    if isinstance(phi, Not):
        return not _ref(phi.operand, trace, t, binding, ctx)
    if isinstance(phi, And):
        results = [_ref(phi.left, trace, t, binding, ctx), _ref(phi.right, trace, t, binding, ctx)]
        return results[0] and results[1]
    if isinstance(phi, Or):
        results = [_ref(phi.left, trace, t, binding, ctx), _ref(phi.right, trace, t, binding, ctx)]
        return results[0] or results[1]
    if isinstance(phi, Implies):
        results = [_ref(phi.left, trace, t, binding, ctx), _ref(phi.right, trace, t, binding, ctx)]
        return (not results[0]) or results[1]
    if isinstance(phi, Forall):
        results = [
            _ref(phi.body, trace, t, {**binding, phi.var: e}, ctx)
            for e in ctx.domain(phi.sort)
        ]
        return all(results)
    if isinstance(phi, Exists):
        results = [
            _ref(phi.body, trace, t, {**binding, phi.var: e}, ctx)
            for e in ctx.domain(phi.sort)
        ]
        return any(results)
    if isinstance(phi, Next):
        if t + 1 >= T:
            return False
        return _ref(phi.operand, trace, t + 1, binding, ctx)
    if isinstance(phi, Always):
        results = [_ref(phi.operand, trace, u, binding, ctx) for u in range(t, T)]
        return all(results)
    if isinstance(phi, Eventually):
        results = [_ref(phi.operand, trace, u, binding, ctx) for u in range(t, T)]
        return any(results)
    if isinstance(phi, Until):
        witnessed = []
        for u in range(t, T):
            right_here = _ref(phi.right, trace, u, binding, ctx)
            left_upto = [_ref(phi.left, trace, v, binding, ctx) for v in range(t, u)]
            witnessed.append(right_here and all(left_upto))
        return any(witnessed)
    if isinstance(phi, Before):
        results = [_ref(phi.operand, trace, u, binding, ctx) for u in range(0, t + 1)]
        return any(results)
    raise TypeError(f"not a formula: {phi!r}")


def substitute_symbols(phi: Formula, mapping: Mapping[str, str]) -> Formula:
    """Rename free symbols (roles to entity ids, say); bound variables shadow.
    A quantifier whose variable a renamed symbol would be captured by binds
    the first of `<var>_1`, `<var>_2`, ... free in neither its body nor the
    mapping's values instead."""
    return _substitute(phi, mapping)


def _substitute(node: Node, live: Mapping[str, str]) -> Node:
    # Module-level, not a closure: a recursive closure is a reference cycle
    # that only the cyclic collector frees.
    if isinstance(node, (Forall, Exists)):
        live = {k: v for k, v in live.items() if k != node.var}
        if node.var in live.values():
            free = _free_symbols(node.body)
            if any(live.get(s) == node.var for s in free):
                taken = free | set(live.values())
                var = next(name for i in count(1) if (name := f"{node.var}_{i}") not in taken)
                body = _substitute(node.body, {**live, node.var: var})
                return type(node)(var, node.sort, body, span=node.span)
    children = [_substitute(child, live) for child in node.children]
    return node.rebuild(children, [live.get(s, s) for s in node.symbols])


def _free_symbols(node: Node) -> set[str]:
    names = set(node.symbols).union(*map(_free_symbols, node.children))
    if isinstance(node, (Forall, Exists)):
        names.discard(node.var)
    return names


# --- theory checking ---------------------------------------------------------------


@dataclass(frozen=True)
class Witness:
    """Earliest failing instant plus the innermost failing subformula there
    and the (symbol, entity) pairs it fails under: roles and quantified variables."""

    time: int
    formula: Formula
    binding: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class AxiomResult:
    index: int
    formula: Formula
    satisfied: bool
    witness: Optional[Witness] = None


@dataclass(frozen=True)
class CheckReport:
    theory: str
    binding: tuple[tuple[str, str], ...]
    axioms: tuple[AxiomResult, ...]

    @property
    def satisfied(self) -> bool:
        return all(a.satisfied for a in self.axioms)


def _find_witness(phi: Formula, trace: Trace, t: int, binding: dict, ctx: EvalContext, memo: dict) -> Witness:
    """Descend into a formula known to be false at t; leftmost depth-first."""
    T = trace.length

    def holds(f: Formula, u: int, b: dict) -> bool:
        return _eval_scoped(f, trace, u, b, ctx, memo)

    if isinstance(phi, And):
        for side in (phi.left, phi.right):
            if not holds(side, t, binding):
                return _find_witness(side, trace, t, binding, ctx, memo)
    if isinstance(phi, Or):
        return _find_witness(phi.left, trace, t, binding, ctx, memo)
    if isinstance(phi, Implies):
        return _find_witness(phi.right, trace, t, binding, ctx, memo)
    if isinstance(phi, Forall):
        for e in ctx.domain(phi.sort):
            b = {**binding, phi.var: e}
            if not holds(phi.body, t, b):
                return _find_witness(phi.body, trace, t, b, ctx, memo)
    if isinstance(phi, Exists):
        domain = ctx.domain(phi.sort)
        if domain:
            b = {**binding, phi.var: domain[0]}
            return _find_witness(phi.body, trace, t, b, ctx, memo)
    if isinstance(phi, Next):
        if t + 1 < T:
            return _find_witness(phi.operand, trace, t + 1, binding, ctx, memo)
    if isinstance(phi, Always):
        for u in range(t, T):
            if not holds(phi.operand, u, binding):
                return _find_witness(phi.operand, trace, u, binding, ctx, memo)
    if isinstance(phi, Eventually):
        return _find_witness(phi.operand, trace, t, binding, ctx, memo)
    if isinstance(phi, Until):
        hits = [u for u in range(t, T) if holds(phi.right, u, binding)]
        if not hits:
            return _find_witness(phi.right, trace, t, binding, ctx, memo)
        for u in range(t, hits[0]):
            if not holds(phi.left, u, binding):
                return _find_witness(phi.left, trace, u, binding, ctx, memo)
    if isinstance(phi, Before):
        return _find_witness(phi.operand, trace, 0, binding, ctx, memo)
    return Witness(time=t, formula=phi, binding=tuple(binding.items()))


def validate_binding(theory: Theory, binding: Binding, ctx: EvalContext) -> None:
    """Every role bound to a declared entity of a compatible sort; `ctx` is
    the scenario's context for this theory."""
    for role, sort in theory.roles:
        if role not in binding:
            raise MissingRole(f"role {role!r} of theory {theory.name} is unbound")
        entity = binding[role]
        if entity not in ctx.entities:
            raise MissingRole(f"role {role!r} bound to unknown entity {entity!r}")
        if entity not in ctx.domain(sort):
            raise SortMismatchInBinding(
                f"role {role}:{sort} cannot be bound to {entity}:{ctx.entities[entity].sort}"
            )


def check_theory(
    theory: Theory,
    scenario: Scenario,
    binding: Binding,
    ctx: EvalContext | None = None,
    evaluator: Callable = eval_formula,
    stop_at_first_false: bool = False,
) -> CheckReport:
    """Evaluate every axiom at instant 0 under the role binding.

    Violated axioms carry a witness: the earliest failing instant and an
    innermost failing subformula, chosen leftmost depth-first.

    `ctx`, a context for the theory and the scenario, holds the tolerances;
    None means `EvalContext.for_scenario(scenario, theory)`, with the default
    ones. With `stop_at_first_false` the axioms after the first violated one
    are not evaluated and no witness is built: the report ends at that axiom,
    which is enough to tell whether the binding satisfies the theory.
    """
    if scenario.trace is None:
        raise TimeOutOfRange("checking needs a concrete trace; simulate first")
    if ctx is None:
        ctx = EvalContext.for_scenario(scenario, theory)
    validate_binding(theory, binding, ctx)
    trace = scenario.trace
    results = []
    for i, axiom in enumerate(theory.axioms):
        memo: dict = {}
        if evaluator is eval_formula:
            ok = eval_formula(axiom, trace, 0, binding, ctx, _memo=memo)
        else:
            ok = evaluator(axiom, trace, 0, binding, ctx)
        if not ok and stop_at_first_false:
            results.append(AxiomResult(index=i, formula=axiom, satisfied=False))
            break
        witness = None
        if not ok:
            witness = _find_witness(axiom, trace, 0, dict(binding), ctx, memo)
        results.append(AxiomResult(index=i, formula=axiom, satisfied=ok, witness=witness))
    return CheckReport(theory=theory.name, binding=tuple(sorted(binding.items())), axioms=tuple(results))
