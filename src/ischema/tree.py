"""The one traversal interface of formulas and numeric expressions.

A walker says what it does at the nodes it cares about and descends through
`children` everywhere else, as in "Scrap your boilerplate" (Lämmel and
Peyton Jones, TLDI 2003).
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence


class Node:
    """Base of formula and numeric-expression nodes.

    `children` are the sub-formulas and sub-expressions in field order,
    `symbols` the entity symbols (entity ids, roles, bound variables) the
    node names itself, and `rebuild` the same node over new ones. Subclasses
    list the fields holding them in CHILDREN and SYMBOLS. Only `logic.Atom`
    overrides the three members, as its names and expressions share one
    `args` tuple.
    """

    __slots__ = ()
    CHILDREN: tuple[str, ...] = ()
    SYMBOLS: tuple[str, ...] = ()

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
        return dataclasses.replace(self, **changes) if changes else self


def all_symbols(node: Node) -> set[str]:
    """The entity symbols that `node` and the nodes below it name."""
    return set(node.symbols).union(*map(all_symbols, node.children))
