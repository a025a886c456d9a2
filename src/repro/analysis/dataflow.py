"""Typed dataflow analysis over bound plans.

A bottom-up abstract interpretation of the logical plan: every operator is
annotated with :class:`OperatorFacts` describing, for each output column,
the inferred type, nullability, and constant value when statically known,
plus relation-level facts — key sets (the operator's *grain*: column sets
whose values are unique per row) and cardinality bounds.

The facts serve three consumers:

* the linter's RP114–RP118 diagnostics (type-incompatible comparisons,
  statically NULL/false predicates, impossible casts, `AT` grain
  mismatches, outer-join-padded grouping keys);
* the optimizer's fact-justified rewrites (strict-NULL propagation,
  contradiction elimination, null-rejecting-filter outer-join
  strengthening);
* ``EXPLAIN (TYPES)`` and per-node :class:`~repro.profile.QueryProfile`
  annotations, with cardinality bounds recorded on the plan as the input
  for cost-based strategy selection (see ROADMAP).

Facts are attached to plan nodes as a ``facts`` attribute (not a dataclass
field, so plan equality/fingerprints are unaffected).  Cardinality bounds
for base-table scans are a snapshot of the catalog row counts at analysis
time; the plan cache's DML invalidation bounds their staleness.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Optional

from repro.engine.aggregates import AGGREGATES
from repro.errors import SqlError
from repro.plan import logical as plans
from repro.semantics import bound as b
from repro.types import (
    BOOLEAN,
    INTEGER,
    UNKNOWN,
    DataType,
    common_type,
)

__all__ = [
    "ColumnFacts",
    "OperatorFacts",
    "NOT_CONST",
    "analyze_plan",
    "annotate_plan",
    "infer_expr",
    "is_null_rejecting",
    "facts_lines",
    "explain_types_lines",
]


class _NotConst:
    """Sentinel: no constant value is known (``None`` is a real constant)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NOT_CONST"


NOT_CONST = _NotConst()

#: Operators that are NULL-strict: any NULL argument makes the result NULL.
#: BETWEEN is deliberately absent — ``x BETWEEN NULL AND 5`` evaluates as
#: ``x >= NULL AND x <= 5``, which is FALSE (not NULL) when ``x > 5``.
STRICT_OPS = frozenset(
    ["=", "<>", "<", "<=", ">", ">=", "+", "-", "*", "/", "%", "NEG", "||",
     "LIKE", "NOT LIKE", "NOT"]
)

#: Operators that never return NULL regardless of their arguments.
_NEVER_NULL_OPS = frozenset(
    ["IS NULL", "IS NOT NULL", "IS DISTINCT", "IS NOT DISTINCT"]
)

#: Window functions whose result is always non-null.
_NON_NULL_WINDOW_FUNCS = frozenset(
    ["ROW_NUMBER", "RANK", "DENSE_RANK", "COUNT", "NTILE"]
)


@dataclass
class ColumnFacts:
    """Facts about one output column of an operator."""

    name: str
    dtype: DataType
    nullable: bool = True
    #: Nullability introduced by outer-join padding specifically (the
    #: column's source side may be replaced wholesale by NULLs).  Grouping
    #: by such a column merges unmatched rows into a spurious NULL group,
    #: which is what RP118 warns about.
    padded: bool = False
    const: Any = NOT_CONST

    @property
    def is_const(self) -> bool:
        return self.const is not NOT_CONST

    def render(self) -> str:
        from repro.types import format_value

        text = f"{self.name or '?'} {self.dtype}"
        if self.is_const:
            text += f"={format_value(self.const)}"
        elif not self.nullable:
            text += "!"
        return text


@dataclass
class OperatorFacts:
    """Facts about one plan operator's output relation."""

    columns: list[ColumnFacts]
    #: Key sets: each frozenset of column positions is unique per output
    #: row.  ``frozenset()`` (the empty key) means "at most one row".
    keys: tuple = ()
    row_min: int = 0
    row_max: Optional[int] = None  # None = unbounded

    def column(self, offset: int) -> ColumnFacts:
        return self.columns[offset]

    def normalized(self) -> "OperatorFacts":
        """Canonicalize: dedupe/minimize keys, sync the empty key with a
        row_max of one."""
        if self.row_max is not None and self.row_max <= 1:
            keys = {frozenset()}
        else:
            keys = set(self.keys)
        if frozenset() in keys:
            keys = {frozenset()}
            self.row_max = 0 if self.row_max == 0 else min(
                self.row_max if self.row_max is not None else 1, 1
            )
        # Drop keys that are supersets of another key (non-minimal).
        minimal = [
            k for k in keys
            if not any(other < k for other in keys)
        ]
        self.keys = tuple(sorted(minimal, key=sorted))
        if self.row_max is not None and self.row_min > self.row_max:
            self.row_min = self.row_max
        return self


def _mul(a: Optional[int], x: Optional[int]) -> Optional[int]:
    if a is None or x is None:
        return None
    return a * x


def _add(a: Optional[int], x: Optional[int]) -> Optional[int]:
    if a is None or x is None:
        return None
    return a + x


def _min_bound(a: Optional[int], x: Optional[int]) -> Optional[int]:
    if a is None:
        return x
    if x is None:
        return a
    return min(a, x)


# ---------------------------------------------------------------------------
# Expression-level inference
# ---------------------------------------------------------------------------


def _const_args(facts: list[ColumnFacts]) -> Optional[list]:
    values = []
    for fact in facts:
        if not fact.is_const:
            return None
        values.append(fact.const)
    return values


def infer_expr(
    expr: b.BoundExpr,
    input_facts: Optional[OperatorFacts],
    analyzer: Optional["_Analyzer"] = None,
) -> ColumnFacts:
    """Infer (type, nullability, constness) of ``expr`` evaluated over rows
    described by ``input_facts`` (None = no input columns available)."""
    if isinstance(expr, b.BoundLiteral):
        return ColumnFacts(
            "", expr.dtype, nullable=expr.value is None, const=expr.value
        )
    if isinstance(expr, b.BoundColumn):
        if input_facts is not None and 0 <= expr.offset < len(input_facts.columns):
            source = input_facts.columns[expr.offset]
            return replace(source, name=expr.name or source.name)
        return ColumnFacts(expr.name, expr.dtype)
    if isinstance(expr, b.BoundParameter):
        return ColumnFacts("", expr.dtype)
    if isinstance(expr, b.BoundOuterColumn):
        return ColumnFacts(expr.name, expr.dtype)
    if isinstance(expr, b.BoundCall):
        return _infer_call(expr, input_facts, analyzer)
    if isinstance(expr, b.BoundCast):
        operand = infer_expr(expr.operand, input_facts, analyzer)
        const: Any = NOT_CONST
        if operand.is_const:
            if operand.const is None:
                const = None
            else:
                try:
                    from repro.engine.evaluator import cast_value

                    const = cast_value(operand.const, expr.dtype)
                except SqlError:
                    const = NOT_CONST  # impossible cast; RP116's business
        return ColumnFacts("", expr.dtype, nullable=operand.nullable, const=const,
                           padded=operand.padded)
    if isinstance(expr, b.BoundCase):
        nullable = expr.else_result is None
        for _, result in expr.whens:
            nullable = nullable or infer_expr(result, input_facts, analyzer).nullable
        if expr.else_result is not None:
            nullable = nullable or infer_expr(
                expr.else_result, input_facts, analyzer
            ).nullable
        return ColumnFacts("", expr.dtype, nullable=nullable)
    if isinstance(expr, b.BoundInList):
        operand = infer_expr(expr.operand, input_facts, analyzer)
        items = [infer_expr(i, input_facts, analyzer) for i in expr.items]
        nullable = operand.nullable or any(i.nullable for i in items)
        return ColumnFacts("", BOOLEAN, nullable=nullable)
    if isinstance(expr, b.BoundAggCall):
        return _infer_agg_call(expr, input_facts, analyzer)
    if isinstance(expr, b.BoundAggRef):
        return ColumnFacts("", expr.dtype)
    if isinstance(expr, b.BoundWindowCall):
        non_null = expr.func.upper() in _NON_NULL_WINDOW_FUNCS
        return ColumnFacts(expr.func.lower(), expr.dtype, nullable=not non_null)
    if isinstance(expr, b.BoundGroupingId):
        return ColumnFacts("grouping_id", INTEGER, nullable=False)
    if isinstance(expr, b.BoundSubquery):
        if analyzer is not None:
            analyzer.analyze(expr.plan)  # annotate for diagnostics/EXPLAIN
        if expr.kind == "EXISTS":
            return ColumnFacts("", BOOLEAN, nullable=False)
        return ColumnFacts("", expr.dtype)
    if isinstance(expr, b.BoundMeasureEval):
        return ColumnFacts("", expr.dtype)
    return ColumnFacts("", getattr(expr, "dtype", UNKNOWN))


def _infer_call(
    expr: b.BoundCall,
    input_facts: Optional[OperatorFacts],
    analyzer: Optional["_Analyzer"],
) -> ColumnFacts:
    arg_facts = [infer_expr(arg, input_facts, analyzer) for arg in expr.args]
    op = expr.op
    consts = _const_args(arg_facts)

    if op == "AND":
        if any(f.is_const and f.const is False for f in arg_facts):
            return ColumnFacts("", BOOLEAN, nullable=False, const=False)
        nullable = any(f.nullable for f in arg_facts)
        const = _try_eval(expr, consts)
        return _const_facts(BOOLEAN, nullable, const)
    if op == "OR":
        if any(f.is_const and f.const is True for f in arg_facts):
            return ColumnFacts("", BOOLEAN, nullable=False, const=True)
        nullable = any(f.nullable for f in arg_facts)
        const = _try_eval(expr, consts)
        return _const_facts(expr.dtype, nullable, const)
    if op in _NEVER_NULL_OPS:
        const = _try_eval(expr, consts)
        return _const_facts(expr.dtype, False, const)
    if op == "COALESCE":
        nullable = all(f.nullable for f in arg_facts)
        for fact in arg_facts:
            if fact.is_const and fact.const is not None:
                return ColumnFacts("", expr.dtype, nullable=False, const=fact.const)
            if not fact.is_const:
                break
        return ColumnFacts("", expr.dtype, nullable=nullable)
    if op in STRICT_OPS:
        # NULL-strict: one statically-NULL argument decides the result.
        if any(f.is_const and f.const is None for f in arg_facts):
            return ColumnFacts("", expr.dtype, nullable=True, const=None)
        nullable = any(f.nullable for f in arg_facts)
        const = _try_eval(expr, consts)
        return _const_facts(expr.dtype, nullable, const)
    # Generic function call: assume nothing about nullability beyond a
    # known constant result.
    const = _try_eval(expr, consts)
    if const is not NOT_CONST:
        return _const_facts(expr.dtype, const is None, const)
    return ColumnFacts("", expr.dtype)


def _const_facts(dtype: DataType, nullable: bool, const: Any) -> ColumnFacts:
    if const is not NOT_CONST:
        return ColumnFacts("", dtype, nullable=const is None, const=const)
    return ColumnFacts("", dtype, nullable=nullable)


def _try_eval(expr: b.BoundCall, consts: Optional[list]) -> Any:
    """Evaluate a call over known-constant arguments; NOT_CONST on failure
    (the expression then raises identically at runtime — not our call)."""
    if consts is None or expr.op == "$GROUPING":
        return NOT_CONST
    try:
        return expr.fn(*consts)
    except Exception:
        return NOT_CONST


def _infer_agg_call(
    call: b.BoundAggCall,
    input_facts: Optional[OperatorFacts],
    analyzer: Optional["_Analyzer"],
    group_never_empty: bool = False,
) -> ColumnFacts:
    func = call.func.upper()
    nulls = AGGREGATES[func].nulls  # a call is bound, so its name is known
    if nulls == "never":
        return ColumnFacts(func.lower(), call.dtype, nullable=False)
    if (
        group_never_empty
        and nulls == "strict"
        and call.filter_where is None
        and call.args
        and not infer_expr(call.args[0], input_facts, analyzer).nullable
    ):
        return ColumnFacts(func.lower(), call.dtype, nullable=False)
    return ColumnFacts(func.lower(), call.dtype)


# ---------------------------------------------------------------------------
# Operator-level propagation
# ---------------------------------------------------------------------------


class _Analyzer:
    def __init__(self, catalog=None):
        self.catalog = catalog

    def analyze(self, plan: plans.LogicalPlan) -> OperatorFacts:
        method = getattr(self, f"_analyze_{type(plan).__name__}", None)
        if method is None:
            facts = self._facts_from_schema(plan.schema)
            for child in plan.inputs():
                self.analyze(child)
        else:
            facts = method(plan)
        facts = facts.normalized()
        plan.facts = facts
        return facts

    def _facts_from_schema(self, schema) -> OperatorFacts:
        return OperatorFacts(
            [ColumnFacts(name, dtype) for name, dtype in schema]
        )

    # -- leaves ----------------------------------------------------------

    def _analyze_Scan(self, plan: plans.Scan) -> OperatorFacts:
        facts = self._facts_from_schema(plan.schema)
        count = self._table_rows(plan.table_name)
        if count is not None:
            facts.row_min = facts.row_max = count
        return facts

    def _analyze_SystemScan(self, plan: plans.SystemScan) -> OperatorFacts:
        # Providers run at execution time; only the schema is static.
        return self._facts_from_schema(plan.schema)

    def _table_rows(self, name: str) -> Optional[int]:
        if self.catalog is None:
            return None
        from repro.catalog.objects import BaseTable

        try:
            obj = self.catalog.resolve(name)
        except SqlError:
            return None
        if isinstance(obj, BaseTable):
            return len(obj.table.rows)
        return None

    def _analyze_ValuesPlan(self, plan: plans.ValuesPlan) -> OperatorFacts:
        columns = [ColumnFacts(name, dtype) for name, dtype in plan.schema]
        for index, (name, dtype) in enumerate(plan.schema):
            cell_facts = [
                infer_expr(row[index], None, self) for row in plan.rows
            ]
            if cell_facts:
                nullable = any(f.nullable for f in cell_facts)
                const: Any = NOT_CONST
                if all(f.is_const for f in cell_facts):
                    values = {_hashable(f.const) for f in cell_facts}
                    if len(values) == 1:
                        const = cell_facts[0].const
                columns[index] = ColumnFacts(
                    name, dtype, nullable=nullable, const=const
                )
            else:
                columns[index] = ColumnFacts(name, dtype, nullable=False)
        n = len(plan.rows)
        return OperatorFacts(columns, row_min=n, row_max=n)

    # -- unary operators --------------------------------------------------

    def _analyze_Filter(self, plan: plans.Filter) -> OperatorFacts:
        child = self.analyze(plan.input)
        pred = infer_expr(plan.predicate, child, self)
        columns = [replace(c) for c in child.columns]
        row_max = child.row_max
        row_min = 0
        if pred.is_const and pred.const is True:
            row_min = child.row_min
        if pred.is_const and pred.const is not True:
            row_max = 0
        # Equality with a constant pins the column for downstream operators.
        for offset, value in _equality_constants(plan.predicate):
            if 0 <= offset < len(columns) and not columns[offset].is_const:
                columns[offset] = replace(
                    columns[offset], const=value, nullable=value is None
                )
        return OperatorFacts(
            columns, keys=child.keys, row_min=row_min, row_max=row_max
        )

    def _analyze_Project(self, plan: plans.Project) -> OperatorFacts:
        child = self.analyze(plan.input)
        columns = []
        passthrough: dict[int, int] = {}  # input offset -> output offset
        for out_offset, (expr, (name, dtype)) in enumerate(
            zip(plan.exprs, plan.schema)
        ):
            fact = infer_expr(expr, child, self)
            if fact.dtype is UNKNOWN and dtype is not UNKNOWN:
                fact = replace(fact, dtype=dtype)
            columns.append(replace(fact, name=name))
            if isinstance(expr, b.BoundColumn) and expr.offset not in passthrough:
                passthrough[expr.offset] = out_offset
        keys = _remap_keys(child.keys, passthrough)
        return OperatorFacts(
            columns, keys=keys, row_min=child.row_min, row_max=child.row_max
        )

    def _analyze_Window(self, plan: plans.Window) -> OperatorFacts:
        child = self.analyze(plan.input)
        columns = [replace(c) for c in child.columns]
        for call, (name, dtype) in zip(
            plan.calls, plan.schema[len(child.columns):]
        ):
            fact = infer_expr(call, child, self)
            columns.append(replace(fact, name=name, dtype=dtype))
        return OperatorFacts(
            columns, keys=child.keys, row_min=child.row_min, row_max=child.row_max
        )

    def _analyze_Sort(self, plan: plans.Sort) -> OperatorFacts:
        child = self.analyze(plan.input)
        return OperatorFacts(
            [replace(c) for c in child.columns],
            keys=child.keys,
            row_min=child.row_min,
            row_max=child.row_max,
        )

    def _analyze_Limit(self, plan: plans.Limit) -> OperatorFacts:
        child = self.analyze(plan.input)
        row_min, row_max = 0, child.row_max
        limit = _static_int(plan.limit)
        offset = _static_int(plan.offset) or 0
        if limit is not None:
            row_max = _min_bound(row_max, max(limit, 0))
            if child.row_max is not None:
                available = max(child.row_min - offset, 0)
                row_min = min(available, max(limit, 0))
        return OperatorFacts(
            [replace(c) for c in child.columns],
            keys=child.keys,
            row_min=row_min,
            row_max=row_max,
        )

    def _analyze_Distinct(self, plan: plans.Distinct) -> OperatorFacts:
        child = self.analyze(plan.input)
        keys = set(child.keys)
        keys.add(frozenset(range(len(child.columns))))
        return OperatorFacts(
            [replace(c) for c in child.columns],
            keys=tuple(keys),
            row_min=min(child.row_min, 1),
            row_max=child.row_max,
        )

    # -- joins ------------------------------------------------------------

    def _analyze_Join(self, plan: plans.Join) -> OperatorFacts:
        left = self.analyze(plan.left)
        right = self.analyze(plan.right)
        left_width = len(left.columns)
        pad_left = plan.kind in ("RIGHT", "FULL")
        pad_right = plan.kind in ("LEFT", "FULL")
        columns = []
        for col in left.columns:
            col = replace(col)
            if pad_left:
                col = replace(
                    col, nullable=True, padded=True, const=NOT_CONST
                )
            columns.append(col)
        for col in right.columns:
            col = replace(col)
            if pad_right:
                col = replace(
                    col, nullable=True, padded=True, const=NOT_CONST
                )
            columns.append(col)

        left_unique, right_unique = _equi_join_uniqueness(
            plan, left, right, left_width
        )

        # Cardinality.
        lo: Optional[int]
        if plan.kind == "CROSS":
            lo, hi = _mul(left.row_min, right.row_min), _mul(
                left.row_max, right.row_max
            )
        else:
            hi = _mul(left.row_max, right.row_max)
            if right_unique:  # each left row matches at most one right row
                hi = left.row_max if plan.kind in ("INNER", "LEFT") else hi
            if left_unique and plan.kind in ("INNER", "RIGHT"):
                hi = _min_bound(hi, right.row_max)
            lo = 0
            if plan.kind in ("LEFT", "FULL"):
                lo = max(lo, left.row_min)
            if plan.kind in ("RIGHT", "FULL"):
                lo = max(lo, right.row_min)

        # Keys: pairwise unions always hold; a unique join key on one side
        # preserves the other side's keys outright.
        shifted_right_keys = [
            frozenset(offset + left_width for offset in key)
            for key in right.keys
        ]
        keys = {
            lkey | rkey for lkey in left.keys for rkey in shifted_right_keys
        }
        if right_unique and plan.kind in ("INNER", "LEFT"):
            keys.update(left.keys)
        if left_unique and plan.kind in ("INNER", "RIGHT"):
            keys.update(shifted_right_keys)
        return OperatorFacts(columns, keys=tuple(keys), row_min=lo, row_max=hi)

    def _analyze_JoinPipeline(self, plan: plans.JoinPipeline) -> OperatorFacts:
        # The Join transfer folded over the steps, read at the emitted columns.
        joined = self.analyze(plan.joins[-1])
        columns = [replace(joined.columns[old]) for old in plan.emit]
        keys = _remap_keys(joined.keys, {old: new for new, old in enumerate(plan.emit)})
        return OperatorFacts(columns, keys, joined.row_min, joined.row_max)

    # -- aggregation -------------------------------------------------------

    def _analyze_Aggregate(self, plan: plans.Aggregate) -> OperatorFacts:
        child = self.analyze(plan.input)
        single_set = len(plan.grouping_sets) == 1
        active = frozenset(plan.grouping_sets[0]) if single_set else frozenset()
        global_only = single_set and not plan.grouping_sets[0]
        # With one non-global grouping set every emitted group is non-empty;
        # with the global set the one output row may aggregate zero rows.
        group_never_empty = single_set and not global_only

        columns: list[ColumnFacts] = []
        for index, expr in enumerate(plan.group_exprs):
            name = (
                plan.schema[index][0] if index < len(plan.schema) else ""
            )
            if single_set and index not in active:
                columns.append(ColumnFacts(name, plan.schema[index][1], const=None))
                continue
            fact = infer_expr(expr, child, self)
            if not single_set:
                # ROLLUP/CUBE suppress keys per grouping set with NULLs.
                fact = replace(fact, nullable=True, const=NOT_CONST)
            columns.append(replace(fact, name=name))
        for call, (name, dtype) in zip(
            plan.agg_calls, plan.schema[len(plan.group_exprs):]
        ):
            fact = _infer_agg_call(
                call, child, self, group_never_empty=group_never_empty
            )
            columns.append(replace(fact, name=name, dtype=dtype))
        while len(columns) < len(plan.schema):
            name, dtype = plan.schema[len(columns)]
            extra = ColumnFacts(name, dtype)
            if plan.has_grouping_id and len(columns) == plan.grouping_id_offset:
                extra = ColumnFacts(name, dtype, nullable=False)
            columns.append(extra)

        keys: tuple = ()
        if single_set:
            keys = (frozenset(plan.grouping_sets[0]),)
        if global_only:
            return OperatorFacts(columns, keys=keys, row_min=1, row_max=1)
        row_min = 0
        row_max: Optional[int] = None
        for grouping in plan.grouping_sets:
            set_min = 1 if (not grouping or child.row_min > 0) else 0
            set_max = 1 if not grouping else child.row_max
            row_min += set_min
            row_max = _add(row_max if row_max is not None else 0, set_max)
        return OperatorFacts(columns, keys=keys, row_min=row_min, row_max=row_max)

    # -- set operations ----------------------------------------------------

    def _analyze_SetOpPlan(self, plan: plans.SetOpPlan) -> OperatorFacts:
        left = self.analyze(plan.left)
        right = self.analyze(plan.right)
        columns = []
        for index, (name, dtype) in enumerate(plan.schema):
            lcol = left.columns[index] if index < len(left.columns) else None
            rcol = right.columns[index] if index < len(right.columns) else None
            if lcol is None or rcol is None:
                columns.append(ColumnFacts(name, dtype))
                continue
            if plan.op in ("INTERSECT", "EXCEPT"):
                # Output rows are drawn from the left input only.
                columns.append(replace(lcol, name=name))
                continue
            const: Any = NOT_CONST
            if (
                lcol.is_const
                and rcol.is_const
                and _hashable(lcol.const) == _hashable(rcol.const)
            ):
                const = lcol.const
            columns.append(
                ColumnFacts(
                    name,
                    dtype,
                    nullable=lcol.nullable or rcol.nullable,
                    padded=lcol.padded or rcol.padded,
                    const=const,
                )
            )
        dedup = not plan.all
        keys: tuple = ()
        if dedup:
            keys = (frozenset(range(len(plan.schema))),)
        if plan.op == "UNION":
            lo = (
                max(min(left.row_min, 1), min(right.row_min, 1))
                if dedup
                else left.row_min + right.row_min
            )
            hi = _add(left.row_max, right.row_max)
        elif plan.op == "INTERSECT":
            lo, hi = 0, _min_bound(left.row_max, right.row_max)
        else:  # EXCEPT
            lo, hi = 0, left.row_max
        return OperatorFacts(columns, keys=keys, row_min=lo, row_max=hi)


def _hashable(value: Any) -> Any:
    try:
        hash(value)
        return value
    except TypeError:
        return repr(value)


def _static_int(expr: Optional[b.BoundExpr]) -> Optional[int]:
    if isinstance(expr, b.BoundLiteral) and isinstance(expr.value, int):
        return expr.value
    return None


def _remap_keys(keys, passthrough: dict[int, int]) -> tuple:
    remapped = []
    for key in keys:
        if all(offset in passthrough for offset in key):
            remapped.append(frozenset(passthrough[offset] for offset in key))
    return tuple(remapped)


def _equality_constants(predicate: b.BoundExpr):
    """Yield ``(offset, value)`` for top-level ``col = literal`` conjuncts."""
    for conjunct in b.conjuncts(predicate):
        if (
            isinstance(conjunct, b.BoundCall)
            and conjunct.op == "="
            and len(conjunct.args) == 2
        ):
            first, second = conjunct.args
            for col, lit in ((first, second), (second, first)):
                if (
                    isinstance(col, b.BoundColumn)
                    and isinstance(lit, b.BoundLiteral)
                    and lit.value is not None
                ):
                    yield col.offset, lit.value


def _equi_join_uniqueness(
    plan: plans.Join,
    left: OperatorFacts,
    right: OperatorFacts,
    left_width: int,
) -> tuple[bool, bool]:
    """Whether the equi-join columns cover a key of either side (each row of
    the other side then matches at most one row)."""
    if plan.condition is None:
        return False, False
    left_cols: set[int] = set()
    right_cols: set[int] = set()
    for conjunct in b.conjuncts(plan.condition):
        if (
            isinstance(conjunct, b.BoundCall)
            and conjunct.op == "="
            and len(conjunct.args) == 2
            and all(isinstance(a, b.BoundColumn) for a in conjunct.args)
        ):
            offsets = sorted(a.offset for a in conjunct.args)
            if offsets[0] < left_width <= offsets[1]:
                left_cols.add(offsets[0])
                right_cols.add(offsets[1] - left_width)
    left_unique = any(key and key <= left_cols for key in left.keys)
    right_unique = any(key and key <= right_cols for key in right.keys)
    return left_unique, right_unique


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def analyze_plan(plan: plans.LogicalPlan, catalog=None) -> OperatorFacts:
    """Analyze ``plan`` bottom-up, attach ``facts`` to every node (including
    subquery plans reached through bound expressions), and return the root's
    facts."""
    return _Analyzer(catalog).analyze(plan)


def annotate_plan(plan: plans.LogicalPlan, catalog=None) -> plans.LogicalPlan:
    """:func:`analyze_plan`, returning the plan for pipeline chaining."""
    analyze_plan(plan, catalog)
    return plan


def is_null_rejecting(
    predicate: b.BoundExpr,
    input_facts: OperatorFacts,
    null_offsets: set[int],
) -> bool:
    """True when ``predicate`` cannot evaluate to TRUE on any row whose
    columns at ``null_offsets`` are all NULL (an outer join's padded row).

    Justified by the dataflow lattice: the columns in question are pinned to
    the constant NULL and the predicate re-inferred; a constant FALSE or
    NULL result means padded rows never survive the filter.
    """
    for node in b.walk(predicate):
        if isinstance(
            node, (b.BoundMeasureEval, b.BoundSubquery, b.BoundOuterColumn)
        ):
            return False
    columns = [
        replace(col, const=None, nullable=True)
        if offset in null_offsets
        else replace(col, const=NOT_CONST)
        for offset, col in enumerate(input_facts.columns)
    ]
    fact = infer_expr(predicate, OperatorFacts(columns), None)
    return fact.is_const and fact.const is not True


# ---------------------------------------------------------------------------
# Rendering (EXPLAIN (TYPES), profile annotations)
# ---------------------------------------------------------------------------


def facts_lines(facts: OperatorFacts) -> list[str]:
    """Human-readable fact summary lines for one operator."""
    columns = ", ".join(col.render() for col in facts.columns)
    if facts.row_max is None:
        rows = f"{facts.row_min}..*"
    elif facts.row_min == facts.row_max:
        rows = str(facts.row_min)
    else:
        rows = f"{facts.row_min}..{facts.row_max}"
    relation = f"rows={rows}"
    rendered_keys = []
    for key in facts.keys:
        names = [
            facts.columns[offset].name or f"${offset}"
            for offset in sorted(key)
        ]
        rendered_keys.append("(" + ", ".join(names) + ")")
    if rendered_keys:
        relation += " key=" + " ".join(sorted(rendered_keys))
    return [f"[{columns}]", relation]


def facts_summary(facts: OperatorFacts) -> dict:
    """JSON-friendly fact summary (QueryProfile operator annotations)."""
    return {
        "columns": [
            {
                "name": col.name,
                "type": str(col.dtype),
                "nullable": col.nullable,
                **({"const": col.const} if col.is_const else {}),
            }
            for col in facts.columns
        ],
        "keys": [sorted(key) for key in facts.keys],
        "row_min": facts.row_min,
        "row_max": facts.row_max,
    }


def explain_types_lines(
    plan: plans.LogicalPlan, catalog=None, indent: int = 0
) -> list[str]:
    """Render the plan tree with per-node dataflow facts (EXPLAIN (TYPES))."""
    if getattr(plan, "facts", None) is None:
        analyze_plan(plan, catalog)
    pad = "  " * indent
    lines = [pad + plan.label()]
    facts = getattr(plan, "facts", None)
    if facts is not None:
        for line in facts_lines(facts):
            lines.append(pad + "    " + line)
    for child in plan.inputs():
        lines.extend(explain_types_lines(child, catalog, indent + 1))
    return lines
