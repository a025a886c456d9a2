"""Correlation utilities: walking and rewriting bound expressions and plans.

The binder uses these to

* collect the correlated references of a subquery (memoization keys),
* "lift" expressions over an Aggregate: outer references at depth 1 that
  point at the query's FROM row must be remapped onto group-key slots.

Nothing here lists node types: :func:`transform_expr` rebuilds through each
class's declared ``CHILDREN`` (:mod:`repro.semantics.bound`), and the plan
helpers ask each node for its own expressions and inputs
(:mod:`repro.plan.logical`).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

from repro.errors import BindError
from repro.plan import logical as plans
from repro.semantics import bound as b

__all__ = [
    "transform_expr",
    "plan_expressions",
    "collect_outer_refs",
    "remap_subquery",
    "transform_plan_exprs",
]


def transform_expr(
    expr: b.BoundExpr,
    fn: Callable[[b.BoundExpr], Optional[b.BoundExpr]],
) -> b.BoundExpr:
    """Rebuild ``expr`` top-down: if ``fn`` returns a node, it replaces the
    subtree wholesale; otherwise children are transformed recursively."""
    replacement = fn(expr)
    if replacement is not None:
        return replacement
    changes = {}
    for name in expr.CHILDREN:
        value = getattr(expr, name)
        new = b.map_exprs(value, transform_expr, fn)
        if new is not value:
            changes[name] = new
    return _replaced(expr, changes) if changes else expr


def _replaced(expr: b.BoundExpr, changes: dict) -> b.BoundExpr:
    rebuilt = dataclasses.replace(expr, **changes)  # type: ignore[type-var]
    rebuilt.span = expr.span  # not a field: errors keep their source position
    return rebuilt


def plan_expressions(plan: plans.LogicalPlan) -> list[b.BoundExpr]:
    """Every bound expression embedded in ``plan`` (this node and all
    inputs), without descending into subquery plans."""
    return [expr for node in plan.walk() for expr in node.expressions()]


def collect_outer_refs(plan: plans.LogicalPlan) -> list[tuple[int, int]]:
    """Collect (depth, offset) of every outer reference escaping ``plan``.

    Depths are as seen from directly inside the plan; references from nested
    subqueries are shifted down accordingly.  Duplicates removed, order
    deterministic.
    """
    seen: dict[tuple[int, int], None] = {}

    def note(expr: b.BoundExpr, below: int) -> None:
        """``below``: how many scopes under the plan's rows ``expr`` is bound."""
        for node in b.walk(expr):
            if isinstance(node, b.BoundOuterColumn):
                refs = [(node.depth, node.offset)]
            elif isinstance(node, b.BoundSubquery):
                refs = [(depth - 1, offset) for depth, offset in node.outer_refs]
            elif isinstance(node, b.BoundMeasureEval):
                # The walk itself reads what is bound over the call-site row;
                # an AT WHERE predicate is bound over the source, one below.
                def note_nested(e: b.BoundExpr, nested: bool) -> b.BoundExpr:
                    if nested:
                        note(e, below + 1)
                    return e

                node.context.map_site_exprs(note_nested)
                continue
            else:
                continue
            for depth, offset in refs:
                if depth > below:
                    seen[(depth - below, offset)] = None

    for expr in plan_expressions(plan):
        note(expr, 0)
    return list(seen)


def transform_plan_exprs(
    plan: plans.LogicalPlan,
    fn: Callable[[b.BoundExpr], b.BoundExpr],
) -> plans.LogicalPlan:
    """``plan`` with ``fn`` applied to every expression of it and of all its
    inputs (not descending into subquery plans — callers handle those via
    ``fn``); a node no expression of which changed is kept as it is."""
    children = [transform_plan_exprs(child, fn) for child in plan.inputs()]
    return plan.with_inputs(*children).map_expressions(fn)


def normalize_outer(expr: b.BoundExpr, depth: int) -> Optional[b.BoundExpr]:
    """Rewrite outer references at ``depth`` into local column references.

    Returns None when the expression contains subqueries or other-depth
    outer references (no safe normal form for fingerprint matching).
    """
    blocked = False

    def visit(node: b.BoundExpr) -> Optional[b.BoundExpr]:
        nonlocal blocked
        if isinstance(node, b.BoundOuterColumn):
            if node.depth == depth:
                return b.BoundColumn(node.offset, node.dtype, node.name)
            blocked = True
            return node
        if isinstance(node, (b.BoundSubquery, b.BoundMeasureEval)):
            blocked = True
            return node
        return None

    normalized = transform_expr(expr, visit)
    return None if blocked else normalized


def remap_outer_expr(
    expr: b.BoundExpr,
    mapping: dict[int, int],
    expr_mapping: dict[str, tuple[int, "b.DataType"]],
    depth: int = 1,
) -> b.BoundExpr:
    """Remap outer references at ``depth`` onto aggregate-output slots.

    A whole subtree whose outer-normalized form matches a GROUP BY
    expression is replaced by one outer reference to that key's slot (this is
    what makes ``YEAR(o.orderDate)`` legal against ``GROUP BY
    YEAR(orderDate)``); remaining lone references must be group keys
    themselves (SQL's correlation rule for aggregates).
    """

    def visit(node: b.BoundExpr) -> Optional[b.BoundExpr]:
        if not isinstance(node, b.BoundOuterColumn):
            has_target_ref = any(
                isinstance(n, b.BoundOuterColumn) and n.depth == depth
                for n in b.walk(node)
            )
            if has_target_ref:
                normalized = normalize_outer(node, depth)
                if normalized is not None:
                    hit = expr_mapping.get(b.fingerprint(normalized))
                    if hit is not None:
                        slot, dtype = hit
                        return b.BoundOuterColumn(depth, slot, dtype)
        if isinstance(node, b.BoundOuterColumn) and node.depth == depth:
            if node.offset not in mapping:
                raise BindError(
                    f"correlated reference to {node.name or 'a column'} "
                    "must be a GROUP BY expression of the outer query"
                )
            return b.BoundOuterColumn(
                depth, mapping[node.offset], node.dtype, node.name
            )
        if isinstance(node, b.BoundSubquery):
            return remap_subquery(node, mapping, expr_mapping, depth + 1)
        if isinstance(node, b.BoundMeasureEval):
            # A rebuild leaves the context alone: renumber what it reads of
            # the call site there.
            node.context.map_site_exprs(
                lambda e, nested: remap_outer_expr(
                    e, mapping, expr_mapping, depth + nested
                )
            )
            return node
        return None

    return transform_expr(expr, visit)


def remap_subquery(
    node: b.BoundSubquery,
    mapping: dict[int, int],
    expr_mapping: dict[str, tuple[int, "b.DataType"]],
    depth: int = 1,
) -> b.BoundSubquery:
    """``node`` over a plan whose outer references at ``depth`` are remapped
    (see :func:`remap_outer_expr`).  A new node, never the old one changed in
    place: its fingerprint is kept on it.  Always one: an unchanged plan may
    still hold a measure evaluation whose context was renumbered."""
    plan = transform_plan_exprs(
        node.plan, lambda e: remap_outer_expr(e, mapping, expr_mapping, depth)
    )
    return _replaced(node, {"plan": plan, "outer_refs": collect_outer_refs(plan)})  # type: ignore[return-value]
