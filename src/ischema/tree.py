"""The one node type and traversal interface of formulas and numeric expressions.

Each node class names its fields once, and `Node` derives the rest from
them, so importing the node classes generates no code. A walker says what
it does at the nodes it cares about and descends through `children`
everywhere else, as in "Scrap your boilerplate" (Lämmel and Peyton Jones,
TLDI 2003).
"""

from __future__ import annotations

from typing import Optional, Sequence


class Node:
    """Base of formula and numeric-expression nodes.

    A subclass names its fields, which are also slots, in one FIELDS tuple
    and is built as `Cls(*fields, span=None)`. Nodes are immutable. They are
    equal when of one class with equal fields, and hash as the tuple of their
    fields; the `span`, where the node was parsed, takes part in neither.
    `children` are the sub-formulas and sub-expressions in field order,
    `symbols` the entity symbols (entity ids, roles, bound variables) the
    node names itself, and `rebuild` the same node over new ones. Subclasses
    list the fields holding them in CHILDREN and SYMBOLS. Only `logic.Atom`
    overrides the three members, as its names and expressions share one
    `args` tuple.
    """

    __slots__ = ("span",)
    FIELDS: tuple[str, ...] = ()
    CHILDREN: tuple[str, ...] = ()
    SYMBOLS: tuple[str, ...] = ()

    def __init__(self, *values, span=None):
        if len(values) != len(self.FIELDS):
            raise TypeError(f"{type(self).__name__} takes {len(self.FIELDS)} fields, got {len(values)}")
        for name, value in zip(self.FIELDS, values):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "span", span)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.FIELDS])

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self.FIELDS)})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot change {name!r}: {type(self).__name__} nodes are immutable")

    __delattr__ = __setattr__

    def __reduce__(self):  # copy and pickle build through __init__, as assignment raises
        return type(self), self._values(), self.span

    def __setstate__(self, span):
        object.__setattr__(self, "span", span)

    @property
    def children(self) -> tuple:
        return tuple([getattr(self, name) for name in self.CHILDREN])

    @property
    def symbols(self) -> tuple[str, ...]:
        return tuple([getattr(self, name) for name in self.SYMBOLS])

    def rebuild(self, children: Sequence, symbols: Optional[Sequence[str]] = None):
        changes = dict(zip(self.CHILDREN, children))
        if symbols is not None:
            changes.update(zip(self.SYMBOLS, symbols))
        if not changes:
            return self
        return type(self)(*[changes.get(name, getattr(self, name)) for name in self.FIELDS], span=self.span)


def all_symbols(node: Node) -> set[str]:
    """The entity symbols that `node` and the nodes below it name."""
    return set(node.symbols).union(*map(all_symbols, node.children))
