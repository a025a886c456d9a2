"""RP114-RP118: inference-driven diagnostics over the bound plan.

These rules run after a statement binds successfully.  The linter hands the
bound (un-optimized) logical plan to :func:`dataflow_diagnostics`, which
runs the :mod:`repro.analysis.dataflow` abstract interpretation and walks
every operator's expressions looking for constructs that are *statically*
wrong even though they bind:

* **RP114** — a comparison (or IN list) whose operand types have no common
  supertype; the runtime comparison is guaranteed to raise.
* **RP115** — a WHERE/HAVING/ON predicate the dataflow lattice proves is
  always NULL or always false; no row can ever satisfy it.
* **RP116** — a CAST of a statically-known constant that
  :func:`~repro.engine.evaluator.cast_value` rejects; it fails on the first
  evaluated row.
* **RP117** — ``AT (SET dim = value)`` pinning a dimension to a value whose
  type is incompatible with the dimension column's type; the synthesized
  context predicate can never match.
* **RP118** — a grouping key read from the NULL-padded side of an outer
  join; unmatched rows silently merge into a spurious NULL group.

Spans come from the bound expressions themselves (the binder stamps every
bound node with its AST position), so findings point into the original SQL.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.dataflow import (
    OperatorFacts,
    analyze_plan,
    infer_expr,
)
from repro.analysis.diagnostics import Diagnostic, rule_severity
from repro.core.modifiers import BoundSet
from repro.errors import SqlError, TypeCheckError
from repro.plan import logical as plans
from repro.semantics import bound as b
from repro.types import UNKNOWN, common_type

__all__ = ["dataflow_diagnostics"]

#: Comparison operators whose runtime implementation raises on operands
#: with no common supertype (types/values._comparable).
_COMPARISON_OPS = frozenset(
    ["=", "<>", "<", "<=", ">", ">=", "IS DISTINCT", "IS NOT DISTINCT"]
)


def dataflow_diagnostics(catalog, plan: plans.LogicalPlan) -> list[Diagnostic]:
    """Run the RP114-RP118 rules over ``plan`` and return diagnostics."""
    checker = _Checker(catalog)
    checker.check_plan(plan)
    return checker.diags


def _diag(
    code: str, message: str, expr, hint: Optional[str] = None
) -> Diagnostic:
    span = getattr(expr, "span", None)
    return Diagnostic(code, rule_severity(code), message, span, hint)


class _Checker:
    def __init__(self, catalog) -> None:
        self.catalog = catalog
        self.diags: list[Diagnostic] = []
        self._visited: set[int] = set()

    # -- plan traversal ------------------------------------------------------

    def check_plan(self, plan: plans.LogicalPlan) -> None:
        if id(plan) in self._visited:
            return
        self._visited.add(id(plan))
        if getattr(plan, "facts", None) is None:
            analyze_plan(plan, self.catalog)
        self._visit(plan)

    def _visit(self, node: plans.LogicalPlan) -> None:
        # A pipeline's conditions are those of the binary joins it stands for.
        for operator in node.joins if isinstance(node, plans.JoinPipeline) else [node]:
            input_facts = self._input_facts(operator)
            if isinstance(operator, plans.Filter):
                self._check_predicate(operator.predicate, input_facts, "WHERE/HAVING")
            elif isinstance(operator, plans.Join) and operator.condition is not None:
                self._check_predicate(operator.condition, input_facts, "join ON")
            elif isinstance(operator, plans.Aggregate):
                self._check_group_keys(operator, input_facts)
            for expr in operator.expressions():
                self._check_expr(expr, input_facts)
        for child in node.inputs():
            if id(child) not in self._visited:
                self._visited.add(id(child))
                self._visit(child)

    def _input_facts(
        self, node: plans.LogicalPlan
    ) -> Optional[OperatorFacts]:
        """Facts describing the rows this node's expressions evaluate over."""
        if isinstance(node, plans.Join):
            left = getattr(node.left, "facts", None)
            right = getattr(node.right, "facts", None)
            if left is None or right is None:
                return None
            # The join condition runs over candidate pairs, before padding.
            return OperatorFacts(list(left.columns) + list(right.columns))
        inputs = list(node.inputs())
        if len(inputs) == 1:
            return getattr(inputs[0], "facts", None)
        return None

    # -- RP115 ---------------------------------------------------------------

    def _check_predicate(
        self,
        predicate: b.BoundExpr,
        input_facts: Optional[OperatorFacts],
        where: str,
    ) -> None:
        fact = infer_expr(predicate, input_facts)
        if not fact.is_const or fact.const is True:
            return
        shape = "NULL" if fact.const is None else "false"
        self.diags.append(
            _diag(
                "RP115",
                f"{where} predicate always evaluates to {shape}; "
                f"no row can satisfy it",
                predicate,
                hint="a comparison with NULL is never true; use IS NULL, "
                "or fix the constant condition",
            )
        )

    # -- RP118 ---------------------------------------------------------------

    def _check_group_keys(
        self, node: plans.Aggregate, input_facts: Optional[OperatorFacts]
    ) -> None:
        if input_facts is None:
            return
        active: set[int] = set()
        for grouping in node.grouping_sets:
            active.update(grouping)
        for index in sorted(active):
            if index >= len(node.group_exprs):
                continue
            expr = node.group_exprs[index]
            fact = infer_expr(expr, input_facts)
            if fact.padded:
                name = fact.name or getattr(expr, "name", "") or "?"
                self.diags.append(
                    _diag(
                        "RP118",
                        f"grouping key {name!r} comes from the NULL-padded "
                        f"side of an outer join; unmatched rows collapse "
                        f"into one NULL group",
                        expr,
                        hint="COALESCE the key to a sentinel, or make the "
                        "join INNER if unmatched rows are not wanted",
                    )
                )

    # -- expression walk (RP114, RP116, RP117) -------------------------------

    def _check_expr(
        self, root: b.BoundExpr, input_facts: Optional[OperatorFacts]
    ) -> None:
        for node in b.walk(root):
            if isinstance(node, b.BoundCall):
                self._check_comparison(node)
            elif isinstance(node, b.BoundInList):
                self._check_in_list(node)
            elif isinstance(node, b.BoundCast):
                self._check_cast(node, input_facts)
            elif isinstance(node, b.BoundMeasureEval):
                self._check_measure_modifiers(node)
            elif isinstance(node, b.BoundSubquery):
                self.check_plan(node.plan)

    def _incompatible(self, left, right) -> bool:
        ltype = getattr(left, "dtype", UNKNOWN)
        rtype = getattr(right, "dtype", UNKNOWN)
        if ltype.unwrap() is UNKNOWN or rtype.unwrap() is UNKNOWN:
            return False
        try:
            common_type(ltype, rtype)
        except TypeCheckError:
            return True
        return False

    def _check_comparison(self, call: b.BoundCall) -> None:
        if call.op not in _COMPARISON_OPS or len(call.args) != 2:
            return
        left, right = call.args
        if self._incompatible(left, right):
            self.diags.append(
                _diag(
                    "RP114",
                    f"cannot compare {left.dtype} with {right.dtype}; "
                    f"this comparison raises at runtime",
                    call,
                    hint="CAST one side to a common type",
                )
            )

    def _check_in_list(self, node: b.BoundInList) -> None:
        for item in node.items:
            if self._incompatible(node.operand, item):
                self.diags.append(
                    _diag(
                        "RP114",
                        f"IN list item of type {item.dtype} cannot be "
                        f"compared with {node.operand.dtype}",
                        item,
                        hint="CAST the item to the operand's type",
                    )
                )

    def _check_cast(
        self, cast: b.BoundCast, input_facts: Optional[OperatorFacts]
    ) -> None:
        operand = infer_expr(cast.operand, input_facts)
        if not operand.is_const or operand.const is None:
            return
        from repro.engine.evaluator import cast_value

        try:
            cast_value(operand.const, cast.dtype)
        except SqlError:
            self.diags.append(
                _diag(
                    "RP116",
                    f"CAST of {operand.const!r} to {cast.dtype} always "
                    f"fails at runtime",
                    cast,
                    hint="the value can never be represented in the "
                    "target type",
                )
            )

    def _check_measure_modifiers(self, node: b.BoundMeasureEval) -> None:
        for modifier in node.context.modifiers:
            if not isinstance(modifier, BoundSet):
                continue
            source = modifier.source_expr
            value = modifier.value_expr
            if self._incompatible(source, value):
                self.diags.append(
                    _diag(
                        "RP117",
                        f"AT SET pins dimension {modifier.dim_key!r} "
                        f"({source.dtype}) to a value of type "
                        f"{value.dtype}; the context predicate can never "
                        f"match",
                        value,
                        hint="SET values must be comparable with the "
                        "dimension column",
                    )
                )
