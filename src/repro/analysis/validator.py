"""Plan/IR invariant validator.

Checks a bound :class:`~repro.plan.logical.LogicalPlan` for structural
invariants that must hold after binding and after every optimizer rewrite:

* every operator's schema arity is consistent with its definition
  (``Project`` emits one column per expression, ``Join`` emits left ++ right,
  a ``JoinPipeline`` the columns it lists, ``Aggregate`` emits keys ++ aggs
  ++ optional grouping id ++ optional captured rows, ``Window`` appends one
  column per call, set operations have equal-arity inputs);
* every :class:`~repro.semantics.bound.BoundColumn` offset is in range for
  the row the expression is evaluated over — the classic post-rewrite bug is
  a filter pushed below a join without re-shifting its ordinals;
* every :class:`~repro.semantics.bound.BoundOuterColumn` resolves to a real
  enclosing scope (depth no larger than the subquery nesting, offset in range
  for that scope's row).

Validation is off by default; enable it with ``REPRO_VALIDATE=1`` (any value
other than ``0``/empty) or per-database with ``Database(validate=True)``.
When enabled, the optimizer additionally fingerprints the plan between
passes and raises :class:`~repro.errors.ValidationError` the moment a rule
claims progress while leaving the plan semantically identical — the
non-convergence bug class that otherwise surfaces as an opaque
"fixpoint not reached" :class:`~repro.errors.InternalError` 50 passes later.

A :class:`BoundMeasureEval` is checked in both of its frames: what it reads
of the call-site row (group-term values, ``SET`` values, the hidden
grouping-id and captured-rows slots) against the current operator's input,
and everything evaluated over the measure's *source* relation (the formula,
group-term and ``SET`` dimensions, ``AT WHERE`` predicates, VISIBLE's and
inherited dimension maps, the group's dimensions) against
``source_plan.arity`` — the one thing column pruning can get wrong.  Each
source plan is itself checked once, with no enclosing scope: it must be
self-contained.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.errors import ValidationError
from repro.plan import logical as plans
from repro.semantics import bound as b

__all__ = [
    "validation_enabled",
    "validate_plan",
    "check_plan",
    "plan_fingerprint",
]


def validation_enabled() -> bool:
    """True when ``REPRO_VALIDATE`` is set to anything but ``0`` / empty."""
    return os.environ.get("REPRO_VALIDATE", "") not in ("", "0")


# ---------------------------------------------------------------------------
# Invariant checking
# ---------------------------------------------------------------------------


class _Checker:
    def __init__(self) -> None:
        self.violations: list[str] = []
        #: Measure evaluations, source plans and (formula, source) pairs
        #: already checked, by id; the plan under check keeps them alive.
        self.seen: set = set()

    def fail(self, where: str, message: str) -> None:
        self.violations.append(f"{where}: {message}")

    # -- expressions --------------------------------------------------------

    def check_expr(
        self, expr: Optional[b.BoundExpr], arity: int, outer: list[int], where: str
    ) -> None:
        """Check ``expr`` evaluated over a row of ``arity`` columns.

        ``outer`` is the stack of enclosing row arities (innermost last) that
        a :class:`BoundOuterColumn` of depth ``d`` indexes via ``outer[-d]``.
        """
        if expr is None:
            return
        if isinstance(expr, b.BoundColumn):
            if not (0 <= expr.offset < arity):
                self.fail(
                    where,
                    f"BoundColumn offset {expr.offset} out of range "
                    f"for input arity {arity}",
                )
            return
        if isinstance(expr, b.BoundOuterColumn):
            if expr.depth < 1 or expr.depth > len(outer):
                self.fail(
                    where,
                    f"BoundOuterColumn depth {expr.depth} exceeds subquery "
                    f"nesting depth {len(outer)}",
                )
            elif not (0 <= expr.offset < outer[-expr.depth]):
                self.fail(
                    where,
                    f"BoundOuterColumn offset {expr.offset} out of range for "
                    f"enclosing row arity {outer[-expr.depth]} "
                    f"(depth {expr.depth})",
                )
            return
        if isinstance(expr, b.BoundGroupingId):
            if not (0 <= expr.grouping_column < arity):
                self.fail(
                    where,
                    f"BoundGroupingId reads column {expr.grouping_column} "
                    f"but input arity is {arity}",
                )
            return
        if isinstance(expr, b.BoundMeasureEval):
            self.check_measure(expr, arity, outer, where)
            return
        if isinstance(expr, b.BoundSubquery):
            if expr.operand is not None:
                self.check_expr(expr.operand, arity, outer, where)
            self.check_plan(expr.plan, outer + [arity], where + " > subquery")
            return
        for child in expr.children():
            self.check_expr(child, arity, outer, where)

    # -- measure evaluations ---------------------------------------------------

    def check_measure(
        self,
        node: b.BoundMeasureEval,
        arity: int,
        outer: list[int],
        where: str,
        inside: Optional[int] = None,
    ) -> None:
        """Check ``node`` evaluated at a call site of ``arity`` columns;
        ``inside`` is the arity of the source relation whose formula holds
        it (an inherited context's offsets point into those rows)."""
        if id(node) in self.seen:
            return
        self.seen.add(id(node))
        measure, spec = node.measure, node.context
        group = measure.group
        where = f"{where} > measure {measure.name!r}"
        source = group.source_plan
        if id(source) not in self.seen:
            self.seen.add(id(source))
            self.check_plan(source, [], f"{where} source")
            for dimension in group.dims.values():
                self.check_expr(
                    dimension.source_expr, source.arity, [],
                    f"{where} dimension {dimension.name!r}",
                )
        width = source.arity
        if (id(measure.formula), id(source)) not in self.seen:
            self.seen.add((id(measure.formula), id(source)))
            self.check_formula(
                measure.formula, width, arity, outer, f"{where} formula"
            )
        for slot, offset in (
            ("grouping id", spec.grouping_id_offset),
            ("captured rows", spec.captured_rows_offset),
        ):
            if offset is not None and not (0 <= offset < arity):
                self.fail(
                    where,
                    f"{slot} offset {offset} out of range for call-site "
                    f"arity {arity}",
                )
        for expr in spec.child_exprs():
            self.check_expr(expr, arity, outer, where)

        def check_source_expr(expr: b.BoundExpr, correlated: bool) -> b.BoundExpr:
            # Over a source row the call-site row is the enclosing scope.
            scopes = outer + [arity] if correlated else []
            self.check_expr(expr, width, scopes, f"{where} context")
            return expr

        spec.map_source_exprs(check_source_expr)
        if inside is not None:
            for offset in spec.inherit_offsets:
                if not (0 <= offset < inside):
                    self.fail(
                        where,
                        f"inherited offset {offset} out of range for the "
                        f"enclosing source arity {inside}",
                    )

    def check_formula(
        self, expr: b.BoundExpr, width: int, arity: int, outer: list[int], where: str
    ) -> None:
        """A measure formula: aggregates over source rows of ``width``
        columns, evaluated from a call site of ``arity`` columns."""
        if isinstance(expr, b.BoundMeasureEval):
            self.check_measure(expr, arity, outer, where, inside=width)
        elif isinstance(expr, b.BoundAggCall):
            self.check_expr(expr, width, outer + [arity], where)
        elif isinstance(expr, b.BoundSubquery):
            # Row-independent: runs against an empty row under the call site.
            self.check_expr(expr, 0, outer + [arity], where)
        else:
            for child in expr.children():
                self.check_formula(child, width, arity, outer, where)

    # -- operators ----------------------------------------------------------

    def check_plan(
        self, plan: plans.LogicalPlan, outer: list[int], path: str
    ) -> None:
        where = f"{path}/{plan.label()}" if path else plan.label()
        for child in plan.inputs():
            self.check_plan(child, outer, where)
        # An operator's expressions read its inputs' columns side by side
        # (one input's row, a join's candidate pair, nothing for VALUES).
        width = sum(child.arity for child in plan.inputs())
        for expr in plan.expressions():
            self.check_expr(expr, width, outer, where)

        if isinstance(plan, plans.ValuesPlan):
            for i, row in enumerate(plan.rows):
                if len(row) != plan.arity:
                    self.fail(
                        where,
                        f"row {i} has {len(row)} cells for arity {plan.arity}",
                    )
        elif isinstance(plan, (plans.Filter, plans.Sort)):
            if plan.arity != plan.input.arity:
                self.fail(
                    where,
                    f"schema arity {plan.arity} != input arity "
                    f"{plan.input.arity}",
                )
        elif isinstance(plan, plans.Project):
            if len(plan.exprs) != plan.arity:
                self.fail(
                    where,
                    f"{len(plan.exprs)} expressions for schema arity "
                    f"{plan.arity}",
                )
        elif isinstance(plan, plans.Join):
            if plan.arity != width:
                self.fail(
                    where,
                    f"schema arity {plan.arity} != left+right arity {width}",
                )
        elif isinstance(plan, plans.JoinPipeline):
            if plan.arity != len(plan.emit) or not set(plan.emit) <= set(range(width)):
                self.fail(where, f"emits {plan.emit} of {width} for arity {plan.arity}")
            for join in plan.joins:  # a step reads no input after its own
                self.check_expr(join.condition, join.arity, outer, where)
        elif isinstance(plan, plans.Aggregate):
            expected = (
                len(plan.group_exprs)
                + len(plan.agg_calls)
                + (1 if plan.has_grouping_id else 0)
                + (1 if plan.capture_rows else 0)
            )
            if plan.arity != expected:
                self.fail(
                    where,
                    f"schema arity {plan.arity} != keys+aggs+hidden "
                    f"{expected}",
                )
            for gset in plan.grouping_sets:
                for index in gset:
                    if not (0 <= index < len(plan.group_exprs)):
                        self.fail(
                            where,
                            f"grouping set references key {index} but there "
                            f"are {len(plan.group_exprs)} group expressions",
                        )
        elif isinstance(plan, plans.Window):
            expected = plan.input.arity + len(plan.calls)
            if plan.arity != expected:
                self.fail(
                    where,
                    f"schema arity {plan.arity} != input+calls {expected}",
                )
        elif isinstance(plan, plans.SetOpPlan):
            if plan.left.arity != plan.right.arity:
                self.fail(
                    where,
                    f"set operation inputs disagree on arity "
                    f"({plan.left.arity} vs {plan.right.arity})",
                )


def validate_plan(plan: plans.LogicalPlan, phase: str = "") -> list[str]:
    """Return every invariant violation in ``plan`` (empty list = valid)."""
    checker = _Checker()
    checker.check_plan(plan, [], phase)
    return checker.violations


def check_plan(plan: plans.LogicalPlan, phase: str = "") -> None:
    """Raise :class:`ValidationError` if ``plan`` breaks any invariant."""
    violations = validate_plan(plan, phase)
    if violations:
        label = phase or "plan"
        detail = "; ".join(violations[:5])
        more = f" (+{len(violations) - 5} more)" if len(violations) > 5 else ""
        raise ValidationError(
            f"plan validation failed after {label}: {detail}{more}",
            tuple(violations),
        )


# ---------------------------------------------------------------------------
# Structural fingerprints (optimizer progress detection)
# ---------------------------------------------------------------------------


def plan_fingerprint(plan: plans.LogicalPlan) -> str:
    """A structural fingerprint of a whole plan tree
    (:meth:`~repro.plan.logical.LogicalPlan.fingerprint`).

    Two plans with equal fingerprints are semantically identical: same
    operators, same schemas, same expressions (compared structurally, down
    through subquery plans).  The optimizer compares fingerprints across
    passes to detect a rewrite rule that claims progress without changing
    the plan.
    """
    return plan.fingerprint()
