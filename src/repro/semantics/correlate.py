"""Correlation utilities: walking and rewriting bound expressions and plans.

The binder uses these to

* collect the correlated references of a subquery (memoization keys),
* "lift" expressions over an Aggregate: outer references at depth 1 that
  point at the query's FROM row must be remapped onto group-key slots.
"""

from __future__ import annotations

import dataclasses
import functools
import types
from typing import Callable, Iterator, Optional

from repro.errors import BindError
from repro.plan import logical as plans
from repro.semantics import bound as b
from repro.types.datatypes import MeasureType, ScalarType

__all__ = [
    "transform_expr",
    "plan_expressions",
    "collect_outer_refs",
    "remap_plan_outer",
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
    for name in _field_names(type(expr)):
        value = getattr(expr, name)
        if type(value) in _CHILDLESS:
            continue
        new = _transform_value(value, fn)
        if new is not value:
            changes[name] = new
    if not changes:
        return expr
    rebuilt = dataclasses.replace(expr, **changes)  # type: ignore[arg-type]
    rebuilt.span = expr.span  # not a field: errors keep their source position
    return rebuilt


#: Field value types that cannot hold an expression (every plan is walked
#: several times per statement, mostly over these).
_CHILDLESS = frozenset(
    [str, int, bool, float, type(None), ScalarType, MeasureType,
     types.FunctionType, types.BuiltinFunctionType]
)


@functools.cache
def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


def _transform_value(value, fn):
    if isinstance(value, b.BoundExpr):
        return transform_expr(value, fn)
    if isinstance(value, list):
        new_items = [_transform_value(item, fn) for item in value]
        if all(new is old for new, old in zip(new_items, value)):
            return value
        return new_items
    if isinstance(value, tuple) and any(isinstance(item, b.BoundExpr) for item in value):
        new_items = tuple(_transform_value(item, fn) for item in value)
        if all(new is old for new, old in zip(new_items, value)):
            return value
        return new_items
    if isinstance(value, b.SortSpec):
        new_expr = transform_expr(value.expr, fn)
        if new_expr is value.expr:
            return value
        return b.SortSpec(new_expr, value.descending, value.nulls_first)
    return value


def plan_expressions(plan: plans.LogicalPlan) -> Iterator[b.BoundExpr]:
    """Yield every bound expression embedded in ``plan`` (this node and all
    inputs), without descending into subquery plans."""
    if isinstance(plan, plans.ValuesPlan):
        for row in plan.rows:
            yield from row
    elif isinstance(plan, plans.Filter):
        yield plan.predicate
    elif isinstance(plan, plans.Project):
        yield from plan.exprs
    elif isinstance(plan, plans.Join):
        if plan.condition is not None:
            yield plan.condition
    elif isinstance(plan, plans.Aggregate):
        yield from plan.group_exprs
        yield from plan.agg_calls
    elif isinstance(plan, plans.Window):
        yield from plan.calls
    elif isinstance(plan, plans.Sort):
        for spec in plan.keys:
            yield spec.expr
    elif isinstance(plan, plans.Limit):
        if plan.limit is not None:
            yield plan.limit
        if plan.offset is not None:
            yield plan.offset
    for child in plan.inputs():
        yield from plan_expressions(child)


def collect_outer_refs(plan: plans.LogicalPlan) -> list[tuple[int, int]]:
    """Collect (depth, offset) of every outer reference escaping ``plan``.

    Depths are as seen from directly inside the plan; references from nested
    subqueries are shifted down accordingly.  Duplicates removed, order
    deterministic.
    """
    seen: dict[tuple[int, int], None] = {}

    def visit_expr(expr: b.BoundExpr, shift: int) -> None:
        for node in b.walk(expr):
            if isinstance(node, b.BoundOuterColumn):
                depth = node.depth - shift
                if depth >= 1:
                    seen[(depth, node.offset)] = None
            elif isinstance(node, b.BoundSubquery):
                for ref_depth, offset in node.outer_refs:
                    depth = ref_depth - shift - 1
                    if depth >= 1:
                        seen[(depth, offset)] = None
            elif isinstance(node, b.BoundMeasureEval):
                for child in node.context.child_exprs():
                    visit_expr(child, shift)

    for expr in plan_expressions(plan):
        visit_expr(expr, 0)
    return list(seen)


def transform_plan_exprs(
    plan: plans.LogicalPlan,
    fn: Callable[[b.BoundExpr], b.BoundExpr],
) -> None:
    """Apply ``fn`` to every expression of ``plan`` in place (all inputs,
    not descending into subquery plans — callers handle those via ``fn``)."""
    if isinstance(plan, plans.ValuesPlan):
        plan.rows = [[fn(cell) for cell in row] for row in plan.rows]
    elif isinstance(plan, plans.Filter):
        plan.predicate = fn(plan.predicate)
    elif isinstance(plan, plans.Project):
        plan.exprs = [fn(expr) for expr in plan.exprs]
    elif isinstance(plan, plans.Join):
        if plan.condition is not None:
            plan.condition = fn(plan.condition)
    elif isinstance(plan, plans.Aggregate):
        plan.group_exprs = [fn(expr) for expr in plan.group_exprs]
        plan.agg_calls = [fn(call) for call in plan.agg_calls]  # type: ignore[misc]
    elif isinstance(plan, plans.Window):
        plan.calls = [fn(call) for call in plan.calls]  # type: ignore[misc]
    elif isinstance(plan, plans.Sort):
        plan.keys = [
            b.SortSpec(fn(spec.expr), spec.descending, spec.nulls_first)
            for spec in plan.keys
        ]
    elif isinstance(plan, plans.Limit):
        if plan.limit is not None:
            plan.limit = fn(plan.limit)
        if plan.offset is not None:
            plan.offset = fn(plan.offset)
    for child in plan.inputs():
        transform_plan_exprs(child, fn)


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
                    from repro.semantics.bound import fingerprint

                    hit = expr_mapping.get(fingerprint(normalized))
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
            remap_plan_outer(node.plan, mapping, expr_mapping, depth + 1)
            node.outer_refs = collect_outer_refs(node.plan)
            return node
        return None

    return transform_expr(expr, visit)


def remap_plan_outer(
    plan: plans.LogicalPlan,
    mapping: dict[int, int],
    expr_mapping: Optional[dict[str, tuple[int, "b.DataType"]]] = None,
    depth: int = 1,
) -> None:
    """Remap a subquery plan's outer references in place (see
    :func:`remap_outer_expr`)."""
    expr_mapping = expr_mapping or {}
    transform_plan_exprs(
        plan, lambda e: remap_outer_expr(e, mapping, expr_mapping, depth)
    )
