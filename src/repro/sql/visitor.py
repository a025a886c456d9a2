"""Generic AST traversal and transformation helpers.

Both transforms build a new tree and never assign into the one they are
given.  :func:`transform_topdown` lets a function replace a node before its
children are visited; the measure expansion (:mod:`repro.core.expansion`)
and its window strategy print their rewrites with it.  :func:`transform`
rebuilds bottom-up, calling a function on every expression node (the
fingerprint tests use it as their reference normalizer).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterable, Iterator, Optional, TypeVar

from repro.sql import ast

__all__ = ["transform", "find_all", "contains", "and_all"]

NodeT = TypeVar("NodeT", bound=ast.Node)


def transform(
    node: NodeT,
    fn: Callable[[ast.Expression], ast.Expression],
    *,
    into_queries: bool = True,
) -> NodeT:
    """Return a copy of ``node`` with ``fn`` applied to every expression.

    Children are transformed first (bottom-up), then ``fn`` is applied to the
    rebuilt expression itself.  When ``into_queries`` is false, nested
    :class:`~repro.sql.ast.Query` nodes are left untouched, which lets callers
    rewrite one query level at a time.
    """

    def rebuild(value):
        if isinstance(value, ast.Query) and not into_queries:
            return value
        if isinstance(value, ast.Node):
            changes = {}
            for f in dataclasses.fields(value):
                old = getattr(value, f.name)
                new = rebuild_value(old)
                if new is not old:
                    changes[f.name] = new
            result = dataclasses.replace(value, **changes) if changes else value
            if isinstance(result, ast.Expression):
                result = fn(result)
            return result
        return value

    def rebuild_value(value):
        if isinstance(value, ast.Node):
            return rebuild(value)
        if isinstance(value, list):
            new_items = [rebuild_value(item) for item in value]
            if all(a is b for a, b in zip(new_items, value)):
                return value
            return new_items
        if isinstance(value, tuple) and any(
            isinstance(item, ast.Node) for item in value
        ):
            return tuple(rebuild_value(item) for item in value)
        return value

    return rebuild(node)


def transform_topdown(
    node: ast.Node,
    fn: Callable[[ast.Node], "ast.Node | None"],
    *,
    into_queries: bool = False,
) -> ast.Node:
    """Rebuild an AST top-down: ``fn`` sees each node before its children and
    may return a replacement, which is NOT descended into.  Returning None
    recurses into the (rebuilt) children."""

    def rebuild(value):
        if isinstance(value, ast.Query) and not into_queries:
            return value
        if isinstance(value, ast.Node):
            replacement = fn(value)
            if replacement is not None:
                return replacement
            changes = {}
            for f in dataclasses.fields(value):
                old = getattr(value, f.name)
                new = rebuild_value(old)
                if new is not old:
                    changes[f.name] = new
            return dataclasses.replace(value, **changes) if changes else value
        return value

    def rebuild_value(value):
        if isinstance(value, ast.Node):
            return rebuild(value)
        if isinstance(value, list):
            new_items = [rebuild_value(item) for item in value]
            if all(a is b for a, b in zip(new_items, value)):
                return value
            return new_items
        if isinstance(value, tuple) and any(
            isinstance(item, ast.Node) for item in value
        ):
            return tuple(rebuild_value(item) for item in value)
        return value

    return rebuild(node)


def find_all(node: ast.Node, node_type: type[NodeT]) -> Iterator[NodeT]:
    """Yield every descendant (including ``node`` itself) of ``node_type``."""
    for descendant in node.walk():
        if isinstance(descendant, node_type):
            yield descendant


def contains(node: ast.Node, node_type: type[ast.Node]) -> bool:
    """True if any descendant of ``node`` has type ``node_type``."""
    return next(find_all(node, node_type), None) is not None


def and_all(conjuncts: Iterable[ast.Expression]) -> Optional[ast.Expression]:
    """The left-deep AND of ``conjuncts`` (None for none)."""
    result: Optional[ast.Expression] = None
    for conjunct in conjuncts:
        result = conjunct if result is None else ast.Binary("AND", result, conjunct)
    return result
