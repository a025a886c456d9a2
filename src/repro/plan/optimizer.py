"""Logical plan optimizer.

A small rule-based optimizer applied between binding and execution:

* **constant folding** — literal-only scalar expressions are evaluated once
  (in filters, projections, join conditions, sort keys, LIMIT bounds, and
  VALUES rows), with boolean identity simplification (``x AND TRUE`` →
  ``x``) and strict-NULL propagation (``col = NULL`` → ``NULL``) on top;
* **contradiction elimination** — a Filter whose predicate folded to a
  constant FALSE/NULL is replaced by an empty VALUES relation;
* **outer-join strengthening** — a LEFT/RIGHT/FULL join under a filter that
  rejects the padded NULL rows (per the dataflow analysis in
  :mod:`repro.analysis.dataflow`) is converted to the matching stricter
  join kind;
* **filter merging** — adjacent Filter nodes combine into one;
* **filter pushdown** — Filters move into the sides of inner joins when the
  predicate only references one side;
* **trivial project elimination** — identity Projects are dropped;
* **column pruning** (:mod:`repro.plan.pruning`, the last step) — every
  relation is cut to the columns read of it: unused Project expressions are
  dropped and scans feeding a join are narrowed to the join keys plus what
  is read above.

A rule looks at one node.  Reaching a node's inputs and expressions is the
node's own business (``with_inputs`` / ``map_expressions``,
:mod:`repro.plan.logical`), so nothing here lists the plan classes.

Measure machinery: the rules themselves still bail out wherever a measure
evaluation is involved (a filter holding one is never pushed), and no rule
touches a call-site row's numbering.  What the optimizer *does* do is
(a) rewrite each measure source relation once and hand the same node to the
main tree and to the ``MeasureGroup`` (:func:`_shared_source`), so the
executor runs it once per statement, and (b) renumber, in the pruning pass,
the expressions evaluated over a source relation it narrowed — formulas,
group-term and ``SET`` dimensions, ``AT WHERE`` predicates, VISIBLE's and
inherited dimension maps.  The A02 ablation benchmark runs with the
optimizer disabled to measure the rules' effect.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.errors import InternalError, SqlError, ValidationError
from repro.plan import logical as plans
from repro.semantics import bound as b
from repro.semantics.correlate import transform_expr
from repro.types import infer_literal_type

__all__ = ["optimize"]

#: Safety valve for the fixpoint loop.  Each pass fires at most one rule per
#: node, so deep plans legitimately need many passes (e.g. pushing a filter
#: down one join level per pass), but a rule pair that keeps undoing each
#: other would loop forever — at this bound we assume that happened.
MAX_PASSES = 50


def optimize(
    plan: plans.LogicalPlan, *, validate: Optional[bool] = None
) -> plans.LogicalPlan:
    """Apply the rule set bottom-up until a fixpoint, then prune columns.

    With ``validate`` (default: the ``REPRO_VALIDATE`` environment flag) the
    plan's structural invariants — measure source relations and the
    expressions evaluated over them included — are checked before the first
    pass, after every pass and after column pruning, and the fixpoint loop
    additionally fingerprints the plan between passes: a pass that reports
    progress while leaving the plan structurally identical is a broken
    rewrite rule, reported immediately as a
    :class:`~repro.errors.ValidationError` instead of spinning to the
    ``MAX_PASSES`` cap and surfacing as an opaque InternalError.
    """
    from repro.analysis.validator import check_plan, validation_enabled
    from repro.plan.pruning import prune_columns

    if validate is None:
        validate = validation_enabled()
    if validate:
        check_plan(plan, "binding")
    plan = prune_columns(_fixpoint(plan, validate), _shared_source)
    if validate:
        check_plan(plan, "column pruning")
    return plan


def _fixpoint(plan: plans.LogicalPlan, validate: bool) -> plans.LogicalPlan:
    from repro.analysis.validator import check_plan, plan_fingerprint

    fp = plan_fingerprint(plan) if validate else None
    for pass_number in range(1, MAX_PASSES + 1):
        plan, changed = _rewrite(plan)
        if not changed:
            return plan
        if validate:
            check_plan(plan, f"optimizer pass {pass_number}")
            new_fp = plan_fingerprint(plan)
            if new_fp == fp:
                raise ValidationError(
                    f"optimizer pass {pass_number} claimed progress but "
                    f"produced a structurally identical plan; a rewrite rule "
                    f"is rebuilding nodes without changing them"
                )
            fp = new_fp
    raise InternalError(
        f"plan optimizer did not reach a fixpoint after {MAX_PASSES} passes; "
        f"a rewrite rule is oscillating"
    )


def _shared_source(plan: plans.LogicalPlan) -> plans.LogicalPlan:
    """The rewritten form of a measure source relation.

    Computed once and kept on the node (``_optimized``: the rewritten node,
    or True on a node that is one), so the main tree — which meets the
    relation as its FROM — and every ``MeasureGroup`` holding it are handed
    the *same* node and the executor runs it once.  A source's own passes
    skip the per-pass checks; the structural check after pruning covers it.
    """
    done = plan.__dict__.get("_optimized")
    if done is None:
        done, changed = _rewrite_node(plan)
        if changed:
            done = _fixpoint(done, False)
        plans.mark_shared(done)._optimized = True
        if done is not plan:
            plan._optimized = done
    return plan if done is True else done


def _rewrite(plan: plans.LogicalPlan) -> tuple[plans.LogicalPlan, bool]:
    if plan.shared:
        # Another relation's business: swap in its rewritten form whole.  A
        # rule firing above it (a filter pushed into its join) may still
        # take it apart; the tree then reads a relation of its own and the
        # two run separately.
        source = _shared_source(plan)
        return source, source is not plan
    return _rewrite_node(plan)


def _rewrite_node(plan: plans.LogicalPlan) -> tuple[plans.LogicalPlan, bool]:
    """Rewrite the inputs, then fire the first local rule that applies."""
    rebuilt = plan.with_inputs(*[_rewrite(child)[0] for child in plan.inputs()])
    for rule in _RULES:
        rewritten = rule(rebuilt)
        if rewritten is not None:
            return rewritten, True
    return rebuilt, rebuilt is not plan


def _is_pure(expr: b.BoundExpr) -> bool:
    """True when the expression is literal-only and side-effect free."""
    if isinstance(expr, b.BoundLiteral):
        return True
    if isinstance(expr, b.BoundCall) and expr.op not in ("$GROUPING",):
        return all(_is_pure(arg) for arg in expr.args)
    if isinstance(expr, b.BoundCase):
        parts = [c for pair in expr.whens for c in pair]
        if expr.else_result is not None:
            parts.append(expr.else_result)
        return all(_is_pure(p) for p in parts)
    if isinstance(expr, b.BoundCast):
        return _is_pure(expr.operand)
    return False


def _cannot_error(expr: b.BoundExpr) -> bool:
    """True when evaluating ``expr`` can never raise: dropping it from a
    plan cannot suppress a runtime error the original query would surface."""
    return isinstance(
        expr, (b.BoundLiteral, b.BoundColumn, b.BoundParameter)
    )


def _is_literal(expr: b.BoundExpr, value) -> bool:
    return isinstance(expr, b.BoundLiteral) and expr.value is value


def _simplify_call(node: b.BoundCall) -> Optional[b.BoundExpr]:
    """Boolean identities and strict-NULL propagation, justified by the
    dataflow lattice (see ``repro.analysis.dataflow.STRICT_OPS``).

    The evaluator computes AND/OR left-to-right with short-circuiting, so a
    simplification may only drop an operand that either would never have
    been evaluated or provably cannot raise.
    """
    if node.op == "AND" and len(node.args) == 2:
        left, right = node.args
        if _is_literal(left, False):
            return left
        if _is_literal(left, True):
            return right
        if _is_literal(right, True):
            return left
        if _is_literal(right, False) and _cannot_error(left):
            return right
        return None
    if node.op == "OR" and len(node.args) == 2:
        left, right = node.args
        if _is_literal(left, True):
            return left
        if _is_literal(left, False):
            return right
        if _is_literal(right, False):
            return left
        if _is_literal(right, True) and _cannot_error(left):
            return right
        return None
    from repro.analysis.dataflow import STRICT_OPS

    if node.op in STRICT_OPS and any(
        _is_literal(arg, None) for arg in node.args
    ):
        # A strict operator with a known-NULL operand is NULL — but only
        # fold when the discarded operands cannot raise at runtime.
        if all(
            _cannot_error(arg) for arg in node.args
            if not _is_literal(arg, None)
        ):
            return b.BoundLiteral(None, node.dtype)
    return None


def fold_constants(expr: b.BoundExpr) -> b.BoundExpr:
    """Evaluate literal-only subtrees once; simplify boolean identities and
    strict-NULL applications as their operands fold to literals."""

    def visit(node: b.BoundExpr) -> Optional[b.BoundExpr]:
        if isinstance(node, b.BoundLiteral):
            return node
        if _is_pure(node):
            from repro.engine.compile import compile_expr
            from repro.engine.evaluator import ExecutionContext

            try:
                value = compile_expr(node)((), None, ExecutionContext(None))
            except SqlError:
                return node  # fold nothing that errors (e.g. 1/0 under CASE)
            return b.BoundLiteral(value, infer_literal_type(value))
        if isinstance(node, b.BoundCall):
            simplified = _simplify_call(node)
            if simplified is not None:
                # Re-fold: the surviving operand may simplify further.
                return fold_constants(simplified)
        return None

    return transform_expr(expr, visit)


def _fold_plan_constants(plan: plans.LogicalPlan) -> Optional[plans.LogicalPlan]:
    if isinstance(plan, (plans.Aggregate, plans.Window)):
        # Group keys, aggregate and window calls stay as bound: the rule has
        # never covered them, and widening it changes plans.
        return None
    folded = plan.map_expressions(fold_constants)
    if isinstance(folded, plans.Filter) and _is_literal(folded.predicate, True):
        return folded.input
    if isinstance(folded, plans.Join) and _is_literal(folded.condition, True):
        # A TRUE condition matches every pair — same as no condition
        # for every join kind the executor implements.
        return dataclasses.replace(folded, condition=None)
    return None if folded is plan else folded


def _eliminate_contradiction(plan: plans.LogicalPlan) -> Optional[plans.LogicalPlan]:
    """Filter with a statically FALSE/NULL predicate → empty relation.

    Only fires on an already-folded literal predicate: the fold machinery
    guarantees nothing that could raise at runtime was discarded to get
    there, so replacing the whole subtree with zero rows is exact.
    """
    if (
        isinstance(plan, plans.Filter)
        and isinstance(plan.predicate, b.BoundLiteral)
        and plan.predicate.value is not True
    ):
        return plans.ValuesPlan([], list(plan.schema))
    return None


def _strengthen_outer_join(plan: plans.LogicalPlan) -> Optional[plans.LogicalPlan]:
    """Convert an outer join under a padded-row-rejecting filter to the
    matching stricter kind.

    Justified by the dataflow facts: re-inferring the filter predicate with
    one side's columns pinned to the constant NULL yields a constant
    FALSE/NULL, so the NULL-padded rows that distinguish the outer join
    from its stricter counterpart never survive the filter.  Surviving rows
    keep their order (both join algorithms emit matches in left-row order),
    so results are byte-identical.
    """
    if not (isinstance(plan, plans.Filter) and isinstance(plan.input, plans.Join)):
        return None
    join = plan.input
    if join.kind not in ("LEFT", "RIGHT", "FULL"):
        return None
    from repro.analysis.dataflow import analyze_plan, is_null_rejecting

    left_width = len(join.left.schema)
    input_facts = analyze_plan(join)
    left_offsets = set(range(left_width))
    right_offsets = set(range(left_width, len(join.schema)))
    rejects_left_pad = join.kind in ("RIGHT", "FULL") and is_null_rejecting(
        plan.predicate, input_facts, left_offsets
    )
    rejects_right_pad = join.kind in ("LEFT", "FULL") and is_null_rejecting(
        plan.predicate, input_facts, right_offsets
    )
    if join.kind == "LEFT":
        new_kind = "INNER" if rejects_right_pad else None
    elif join.kind == "RIGHT":
        new_kind = "INNER" if rejects_left_pad else None
    else:  # FULL
        if rejects_left_pad and rejects_right_pad:
            new_kind = "INNER"
        elif rejects_right_pad:
            # Right-padded rows (left + NULLs) die: what survives is what a
            # RIGHT join produces (matches + NULL-padded left side).
            new_kind = "RIGHT"
        elif rejects_left_pad:
            new_kind = "LEFT"
        else:
            new_kind = None
    if new_kind is None:
        return None
    return plans.Filter(dataclasses.replace(join, kind=new_kind), plan.predicate)


def _merge_filters(plan: plans.LogicalPlan) -> Optional[plans.LogicalPlan]:
    if isinstance(plan, plans.Filter) and isinstance(plan.input, plans.Filter):
        inner = plan.input
        return plans.Filter(
            inner.input, b.conjoin([inner.predicate, plan.predicate])
        )
    return None


def _references_measures(expr: b.BoundExpr) -> bool:
    return any(
        isinstance(node, (b.BoundMeasureEval, b.BoundSubquery))
        for node in b.walk(expr)
    )


def _push_filter_into_join(plan: plans.LogicalPlan) -> Optional[plans.LogicalPlan]:
    if not (isinstance(plan, plans.Filter) and isinstance(plan.input, plans.Join)):
        return None
    join = plan.input
    if join.kind != "INNER":
        return None
    if _references_measures(plan.predicate):
        return None
    left_width = len(join.left.schema)

    def side_of(expr: b.BoundExpr) -> Optional[str]:
        sides = set()
        for node in b.walk(expr):
            if isinstance(node, b.BoundColumn):
                sides.add("L" if node.offset < left_width else "R")
            elif isinstance(node, b.BoundOuterColumn):
                return None
        if len(sides) == 1:
            return sides.pop()
        return None

    left_preds, right_preds, rest = [], [], []
    for conjunct in b.conjuncts(plan.predicate):
        side = side_of(conjunct)
        if side == "L":
            left_preds.append(conjunct)
        elif side == "R":
            right_preds.append(_shift(conjunct, -left_width))
        else:
            rest.append(conjunct)
    if not left_preds and not right_preds:
        return None
    new_left = join.left
    new_right = join.right
    if left_preds:
        new_left = plans.Filter(join.left, b.conjoin(left_preds))
    if right_preds:
        new_right = plans.Filter(join.right, b.conjoin(right_preds))
    new_join = join.with_inputs(new_left, new_right)
    if rest:
        return plans.Filter(new_join, b.conjoin(rest))
    return new_join


def _shift(expr: b.BoundExpr, delta: int) -> b.BoundExpr:
    def visit(node: b.BoundExpr) -> Optional[b.BoundExpr]:
        if isinstance(node, b.BoundColumn):
            return b.BoundColumn(node.offset + delta, node.dtype, node.name)
        return None

    return transform_expr(expr, visit)


def _drop_identity_project(plan: plans.LogicalPlan) -> Optional[plans.LogicalPlan]:
    if not isinstance(plan, plans.Project):
        return None
    if len(plan.exprs) != len(plan.input.schema):
        return None
    for index, expr in enumerate(plan.exprs):
        if not (isinstance(expr, b.BoundColumn) and expr.offset == index):
            return None
    # Keep output names: only drop when they match the input's, otherwise the
    # projection is a (cheap but meaningful) rename.
    if [name for name, _ in plan.schema] != [name for name, _ in plan.input.schema]:
        return None
    return plan.input


#: The local rules, in firing order; each returns the rewritten node or None.
_RULES = (
    _fold_plan_constants,
    _eliminate_contradiction,
    _strengthen_outer_join,
    _merge_filters,
    _push_filter_into_join,
    _drop_identity_project,
)
