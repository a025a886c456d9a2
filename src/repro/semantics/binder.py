"""Query binding: AST queries to logical plans.

The binder is where the paper's semantics live:

* a query over a table with measures keeps the measure columns *virtual* —
  the relation's plan produces only regular columns, and measure references
  become :class:`~repro.semantics.bound.BoundMeasureEval` expressions;
* ``AS MEASURE`` items define new :class:`~repro.core.definition.MeasureInstance`
  objects whose source plan is the defining query's FROM+WHERE (the WHERE is
  baked in, paper section 3.5) and whose dimensions are the defining query's
  non-measure output columns;
* at aggregate call sites the evaluation context is the conjunction of group
  keys mapped onto the measure's dimensions (paper section 3.3); keys that do
  not map (e.g. group keys from the other side of a join, Listing 9) are
  dropped; grouping sets suppress the terms of rolled-up dimensions
  (Listing 8);
* at row-grain call sites (WHERE clause, non-aggregate SELECT) every
  dimension is pinned to the current row.

Queries bind in two modes.  ``relation`` mode (FROM clauses, views, CTEs)
preserves measure columns so that tables with measures compose and stay
closed (paper section 5.4).  ``top`` mode materializes measure columns at row
grain for display.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from repro.catalog.catalog import Catalog
from repro.catalog.objects import BaseTable, CatalogObject, SystemTable, View
from repro.core.context import ContextSpec, GroupTermSpec, VisibleInfo
from repro.core.definition import Dimension, MeasureGroup, MeasureInstance
from repro.core.modifiers import BoundSet, BoundVisible, BoundWhere
from repro.engine.executor import equi_key
from repro.errors import BindError, MeasureError, UnsupportedError
from repro.plan import logical as plans
from repro.semantics import bound as b
from repro.semantics.correlate import (
    collect_outer_refs,
    remap_outer_expr,
    remap_subquery,
    transform_expr,
)
from repro.semantics.exprbinder import ExprBinder, located
from repro.semantics.scope import RelColumn, Relation, Scope
from repro.sql import ast
from copy import deepcopy as copy_ast
from repro.types import INTEGER, DataType, MeasureType, UNKNOWN, common_type

__all__ = [
    "Binder",
    "BoundRelation",
    "BoundSelect",
    "FromSql",
    "OutputColumn",
    "QueryBinder",
    "output_column_name",
]


def output_column_name(item: ast.SelectItem, index: int) -> str:
    """The result-column name a SELECT item gets when it has no alias.

    Shared with the summary match, which names its answer's items with
    them so a summary hit returns the same column names as the normal path
    (``COUNT(*)`` must not surface as ``coalesce``).
    """
    if item.alias:
        return item.alias
    expr = item.expr
    if isinstance(expr, ast.ColumnRef):
        return expr.name
    if isinstance(expr, ast.FunctionCall):
        if expr.name.upper() in ("AGGREGATE", "EVAL") and expr.args and isinstance(
            expr.args[0], ast.ColumnRef
        ):
            return expr.args[0].name
        return expr.name.lower()
    return f"col{index + 1}"


@dataclass
class OutputColumn:
    """One output column of a bound query."""

    name: str
    dtype: DataType
    measure: Optional[MeasureInstance] = None

    @property
    def is_measure(self) -> bool:
        return self.measure is not None


@dataclass
class BoundRelation:
    """A query bound for use as a relation (FROM item, view, CTE).

    ``plan`` produces the non-measure columns in declaration order; measure
    columns are virtual.  ``dim_exprs`` runs parallel to the non-measure
    columns and gives each one's expression over the measure source row
    (None when the column is not a dimension of the exposed measure group).
    """

    plan: plans.LogicalPlan
    columns: list[OutputColumn]
    group: Optional[MeasureGroup] = None
    dim_exprs: list[Optional[b.BoundExpr]] = field(default_factory=list)

    @property
    def has_measures(self) -> bool:
        return any(column.is_measure for column in self.columns)


@dataclass
class FromSql:
    """A bound SELECT's FROM and WHERE, kept for whoever prints them back as
    SQL (:mod:`repro.core.expansion`).  A measure group's ``source_sql`` is
    this of its defining query: FROM, names and baked WHERE of the source."""

    from_clause: Optional[ast.TableRef]
    #: Names the FROM row: offset -> (relation alias, column), in FROM order.
    scope: Scope
    #: The bound condition of each ``ast.Join`` of the FROM clause (None for
    #: a cross join), in the order the joins were finished: post-order.
    joins: list[Optional[b.BoundExpr]] = field(default_factory=list)
    #: WHERE conjuncts; for a measure source, everything baked into it.
    where: Sequence[b.BoundExpr] = ()


@dataclass
class BoundSelect(FromSql):
    """What one SELECT bound to.  Nothing here is computed for the reader:
    it is what the binder decided anyway."""

    #: The SELECT list after ``*`` expansion, and what it bound to.
    items: Sequence[ast.SelectItem] = ()
    relation: Optional[BoundRelation] = None
    #: The non-measure items over the FROM row, in order (plain and
    #: measure-defining queries: what a materialized measure column is
    #: evaluated against); an aggregate query's items over its Aggregate
    #: output row.
    item_exprs: Sequence[b.BoundExpr] = ()
    #: An aggregate query's Aggregate output row: keys, then calls (None:
    #: not an aggregate query).
    group_exprs: Optional[list[b.BoundExpr]] = None
    agg_calls: Sequence[b.BoundAggCall] = ()
    #: The key slots each grouping set keeps (one set, every slot, for a
    #: plain GROUP BY).
    grouping_sets: Sequence[Sequence[int]] = ()
    #: An aggregate query's HAVING and ORDER BY keys, over that row.
    having: Optional[b.BoundExpr] = None
    order_by: Sequence[b.SortSpec] = ()


class Binder:
    """Top-level binder: resolves catalog objects and CTEs."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        self._cte_frames: list[dict[str, BoundRelation]] = []
        #: id(ast.Select) -> its :class:`BoundSelect`; id(the outermost AST
        #: node of a measure call site: the column, its AT, its AGGREGATE; a
        #: measure column a query returns bare) -> the
        #: :class:`~repro.semantics.bound.BoundMeasureEval` it became.
        self.selects: dict[int, BoundSelect] = {}
        self.sites: dict[int, b.BoundMeasureEval] = {}
        #: Lowered name -> every catalog object a name resolved to.
        self.reads: dict[str, CatalogObject] = {}

    # -- public API ----------------------------------------------------------

    def bind_query_as_relation(
        self, query: ast.Query, outer_scope: Optional[Scope]
    ) -> BoundRelation:
        if isinstance(query, ast.WithQuery):
            return self._bind_with(query, outer_scope, top=False)
        if isinstance(query, ast.Select):
            select = QueryBinder(self, query, outer_scope)
            select.bound.relation = relation = select.bind()
            return relation
        if isinstance(query, ast.SetOp):
            return self._bind_setop(query, outer_scope)
        if isinstance(query, ast.Values):
            return self._bind_values(query, outer_scope)
        if isinstance(query, ast.ShowStats):
            with located(query):
                raise BindError(
                    "SHOW STATS is a top-level statement; it cannot appear "
                    "inside a view, subquery, or set operation (lint rule RP112)",
                    rule="RP112",
                )
        raise UnsupportedError(f"cannot bind {type(query).__name__}")

    def bind_query_top(
        self, query: ast.Query, outer_scope: Optional[Scope] = None
    ) -> tuple[plans.LogicalPlan, list[OutputColumn]]:
        """Bind a query for direct execution, materializing measure columns
        at row grain.  A measure column the SELECT list names bare (it
        re-exports the column) is a call site here, and is recorded as one."""
        relation = self.bind_query_as_relation(query, outer_scope)
        plan, columns = materialize_measures(relation)
        if not relation.has_measures:
            return plan, columns
        while isinstance(query, ast.WithQuery):
            query = query.body
        select = self.selects.get(id(query))
        for item, expr in zip(select.items if select else (), plan.exprs):
            if isinstance(expr, b.BoundMeasureEval) and not item.is_measure:
                self.sites[id(item.expr)] = expr
        return plan, columns

    def bind_view(self, view: View) -> BoundRelation:
        """The relation ``view`` exposes: its query bound as a relation,
        under the view's column list when it declares one.  A view is a
        catalog object, so its names resolve in the catalog: the CTEs of
        the statement that names it are not in scope."""
        frames, self._cte_frames = self._cte_frames, []
        try:
            bound = self.bind_query_as_relation(view.query, None)
        finally:
            self._cte_frames = frames
        return _renamed(bound, view.column_names, f"view {view.name!r}")

    def lookup_cte(self, name: str) -> Optional[BoundRelation]:
        lowered = name.lower()
        for frame in reversed(self._cte_frames):
            if lowered in frame:
                return frame[lowered]
        return None

    # -- query forms ---------------------------------------------------------

    def _bind_with(
        self, query: ast.WithQuery, outer_scope: Optional[Scope], *, top: bool
    ) -> BoundRelation:
        frame: dict[str, BoundRelation] = {}
        self._cte_frames.append(frame)
        try:
            for cte in query.ctes:
                bound = self.bind_query_as_relation(cte.query, outer_scope)
                frame[cte.name.lower()] = _renamed(
                    bound, cte.columns, f"CTE {cte.name!r}"
                )
            return self.bind_query_as_relation(query.body, outer_scope)
        finally:
            self._cte_frames.pop()

    def _bind_setop(
        self, query: ast.SetOp, outer_scope: Optional[Scope]
    ) -> BoundRelation:
        left_plan, left_cols = self.bind_query_top(query.left, outer_scope)
        right_plan, right_cols = self.bind_query_top(query.right, outer_scope)
        if len(left_cols) != len(right_cols):
            raise BindError(
                f"{query.op} inputs return {len(left_cols)} and "
                f"{len(right_cols)} columns"
            )
        columns = [
            OutputColumn(lc.name, common_type(lc.dtype, rc.dtype))
            for lc, rc in zip(left_cols, right_cols)
        ]
        plan: plans.LogicalPlan = plans.SetOpPlan(
            query.op, query.all, left_plan, right_plan
        )
        if query.order_by or query.limit is not None or query.offset is not None:
            plan = self._setop_tail(plan, query, columns)
        return BoundRelation(plan, columns, None, [None] * len(columns))

    def _setop_tail(
        self,
        plan: plans.LogicalPlan,
        query: ast.SetOp,
        columns: list[OutputColumn],
    ) -> plans.LogicalPlan:
        keys: list[b.SortSpec] = []
        names = [c.name.lower() for c in columns]
        for item in query.order_by:
            if isinstance(item.expr, ast.Literal) and isinstance(item.expr.value, int):
                index = item.expr.value - 1
                if not 0 <= index < len(columns):
                    raise BindError(f"ORDER BY position {item.expr.value} out of range")
            elif isinstance(item.expr, ast.ColumnRef) and len(item.expr.parts) == 1:
                try:
                    index = names.index(item.expr.parts[0].lower())
                except ValueError:
                    raise BindError(
                        f"ORDER BY column {item.expr.parts[0]!r} is not in the "
                        "set operation's output"
                    ) from None
            else:
                raise BindError(
                    "ORDER BY on a set operation must use output names or ordinals"
                )
            keys.append(
                b.SortSpec(
                    b.BoundColumn(index, columns[index].dtype),
                    item.descending,
                    item.nulls_first,
                )
            )
        if keys:
            plan = plans.Sort(plan, keys)
        if query.limit is not None or query.offset is not None:
            binder = ExprBinder(_DummyQueryBinder(self), Scope(), clause="LIMIT")
            limit = binder.bind(query.limit) if query.limit is not None else None
            offset = binder.bind(query.offset) if query.offset is not None else None
            plan = plans.Limit(plan, limit, offset)
        return plan

    def _bind_values(
        self, query: ast.Values, outer_scope: Optional[Scope]
    ) -> BoundRelation:
        if not query.rows:
            raise BindError("VALUES requires at least one row")
        scope = Scope(outer_scope)
        binder = ExprBinder(_DummyQueryBinder(self), scope, clause="VALUES")
        width = len(query.rows[0])
        bound_rows: list[list[b.BoundExpr]] = []
        types: list[DataType] = [UNKNOWN] * width
        for row in query.rows:
            if len(row) != width:
                raise BindError("VALUES rows differ in arity")
            bound_row = [binder.bind(cell) for cell in row]
            for index, cell in enumerate(bound_row):
                types[index] = common_type(types[index], cell.dtype)
            bound_rows.append(bound_row)
        columns = [OutputColumn(f"col{i + 1}", types[i]) for i in range(width)]
        schema = [(c.name, c.dtype) for c in columns]
        plan = plans.ValuesPlan(bound_rows, schema)
        return BoundRelation(plan, columns, None, [None] * width)


class _DummyQueryBinder:
    """Minimal QueryBinder stand-in for scope-less expression binding."""

    def __init__(self, binder: Binder):
        self.binder = binder

    def resolve_sibling_measure(self, name: str):
        return None

    def new_measure_eval(self, measure, relation, inherited=False):
        raise MeasureError("measures are not allowed here")

    def relation_for_spec(self, spec):
        raise MeasureError("measures are not allowed here")

    def rewrite_to_source(self, expr, relation):
        return None

    def note_aggregate_operator(self, clause: str) -> None:
        pass

    def resolve_named_window(self, name: str):
        raise MeasureError("named windows are not allowed here")


def _renamed(bound: BoundRelation, names: list[str], what: str) -> BoundRelation:
    """``bound`` under a declared column list (a view's, a CTE's), if any."""
    if not names:
        return bound
    if len(names) != len(bound.columns):
        raise BindError(
            f"{what} declares {len(names)} columns but its query returns "
            f"{len(bound.columns)}"
        )
    columns = [
        OutputColumn(name, col.dtype, col.measure)
        for name, col in zip(names, bound.columns)
    ]
    return replace(bound, columns=columns)


def materialize_measures(
    relation: BoundRelation,
) -> tuple[plans.LogicalPlan, list[OutputColumn]]:
    """Evaluate a relation's measure columns at row grain, producing a plan
    whose output matches the declared column list exactly."""
    if not relation.has_measures:
        return relation.plan, relation.columns

    # Row-grain context: every dimension pinned to the current row's value.
    group_terms = []
    offset = 0
    nonmeasure_offsets: list[int] = []
    for column in relation.columns:
        if column.is_measure:
            nonmeasure_offsets.append(-1)
            continue
        dim = relation.dim_exprs[offset] if offset < len(relation.dim_exprs) else None
        if dim is not None:
            group_terms.append(
                GroupTermSpec(
                    b.fingerprint(dim), dim, b.BoundColumn(offset, column.dtype)
                )
            )
        nonmeasure_offsets.append(offset)
        offset += 1

    exprs: list[b.BoundExpr] = []
    out_columns: list[OutputColumn] = []
    for column, position in zip(relation.columns, nonmeasure_offsets):
        if column.is_measure:
            spec = ContextSpec(kind="row", group_terms=list(group_terms))
            measure = column.measure
            assert measure is not None
            exprs.append(b.BoundMeasureEval(measure, spec, measure.value_type))
            out_columns.append(OutputColumn(column.name, measure.value_type))
        else:
            exprs.append(b.BoundColumn(position, column.dtype, column.name))
            out_columns.append(OutputColumn(column.name, column.dtype))
    schema = [(c.name, c.dtype) for c in out_columns]
    return plans.Project(relation.plan, exprs, schema), out_columns


# ---------------------------------------------------------------------------
# Per-SELECT binder
# ---------------------------------------------------------------------------


class QueryBinder:
    """Binds one SELECT."""

    def __init__(
        self,
        binder: Binder,
        select: ast.Select,
        outer_scope: Optional[Scope],
    ):
        self.binder = binder
        self.select = select
        self.outer_scope = outer_scope
        self.scope = Scope(outer_scope)
        self.bound = binder.selects[id(select)] = BoundSelect(
            select.from_clause, self.scope
        )
        self.next_offset = 0
        self.join_preds: list[b.BoundExpr] = []
        self.bound_where: Optional[b.BoundExpr] = None
        #: ContextSpec id -> owning Relation, for AT modifier binding.
        self._spec_relations: dict[int, Relation] = {}
        #: Measure evals created while binding this query's clauses.
        self._measure_nodes: list[b.BoundMeasureEval] = []
        #: AS MEASURE items: name -> (ast item, bound formula or None).
        self._sibling_items: dict[str, ast.SelectItem] = {}
        self._sibling_formulas: dict[str, b.BoundExpr] = {}
        self._sibling_stack: list[str] = []
        self._derived_group: Optional[MeasureGroup] = None

    # -- services used by ExprBinder ----------------------------------------

    def new_measure_eval(
        self, measure: MeasureInstance, relation: Relation, inherited: bool = False
    ) -> b.BoundMeasureEval:
        if inherited:
            offsets = []
            dim_exprs = []
            for column in relation.columns:
                if column.offset is None:
                    continue
                dim = relation.dim_for_offset.get(column.offset)
                if dim is not None:
                    offsets.append(column.offset)
                    dim_exprs.append(dim)
            spec = ContextSpec(
                kind="inherited",
                inherit_offsets=offsets,
                inherit_dim_exprs=dim_exprs,
            )
        else:
            spec = ContextSpec(kind="row")
        node = b.BoundMeasureEval(measure, spec, measure.value_type)
        self._spec_relations[id(spec)] = relation
        self._measure_nodes.append(node)
        return node

    def relation_for_spec(self, spec: ContextSpec) -> Relation:
        relation = self._spec_relations.get(id(spec))
        if relation is None:
            raise MeasureError("AT applied to an expression that is not a measure")
        return relation

    def resolve_sibling_measure(self, name: str) -> Optional[b.BoundExpr]:
        lowered = name.lower()
        item = self._sibling_items.get(lowered)
        if item is None:
            return None
        if lowered in self._sibling_formulas:
            return self._sibling_formulas[lowered]
        if lowered in self._sibling_stack:
            cycle = " -> ".join(self._sibling_stack + [lowered])
            raise MeasureError(f"recursive measure definition: {cycle}")
        self._sibling_stack.append(lowered)
        try:
            formula = self._bind_formula(item.expr)
        finally:
            self._sibling_stack.pop()
        self._sibling_formulas[lowered] = formula
        return formula

    def note_aggregate_operator(self, clause: str) -> None:
        # AGGREGATE() turns the query into an aggregate query; detection is
        # done up front at the AST level, so nothing to do here.
        pass

    def resolve_named_window(self, name: str) -> ast.WindowSpec:
        lowered = name.lower()
        for window in self.select.windows:
            if window.name.lower() == lowered:
                return window.spec
        raise BindError(f"unknown window name {name!r}")

    def rewrite_to_source(
        self, expr: b.BoundExpr, relation: Relation
    ) -> Optional[b.BoundExpr]:
        """Rewrite a call-site expression onto the measure source row, or
        return None when it references columns outside the relation's
        dimensions."""
        failed = False

        def visit(node: b.BoundExpr) -> Optional[b.BoundExpr]:
            nonlocal failed
            if isinstance(node, b.BoundColumn):
                dim = relation.dim_for_offset.get(node.offset)
                if dim is None:
                    failed = True
                    return node
                return dim
            if isinstance(
                node,
                (b.BoundOuterColumn, b.BoundMeasureEval, b.BoundSubquery,
                 b.BoundAggCall, b.BoundWindowCall, b.BoundAggRef),
            ):
                failed = True
                return node
            return None

        rewritten = transform_expr(expr, visit)
        return None if failed else rewritten

    # -- main entry ---------------------------------------------------------

    def bind(self) -> BoundRelation:
        from_plan = self._bind_from_clause()
        self.bound.items = items = self._expand_stars(self.select.items)

        has_measure_defs = any(item.is_measure for item in items)
        is_aggregate = self._detect_aggregate(items)
        if has_measure_defs and is_aggregate:
            raise UnsupportedError(
                "defining measures in a grouped or aggregated query is not "
                "supported; define measures in a plain SELECT and aggregate "
                "in an outer query"
            )

        if self.select.where is not None:
            where_binder = ExprBinder(self, self.scope, clause="WHERE")
            self.bound_where = where_binder.bind(self.select.where)
            self.bound.where = b.conjuncts(self.bound_where)
            self._fill_row_contexts(self.bound_where)

        if has_measure_defs:
            return self._bind_measure_defining(from_plan, items)
        if is_aggregate:
            return self._bind_aggregate(from_plan, items)
        return self._bind_plain(from_plan, items)

    # -- FROM ---------------------------------------------------------------

    def _bind_from_clause(self) -> plans.LogicalPlan:
        if self.select.from_clause is None:
            # SELECT without FROM: a single empty row.
            return plans.ValuesPlan([[]], [])
        return self._bind_table_ref(self.select.from_clause)

    def _bind_table_ref(self, ref: ast.TableRef) -> plans.LogicalPlan:
        if isinstance(ref, ast.PivotRef):
            return self._bind_table_ref(self._desugar_pivot(ref))
        if isinstance(ref, ast.UnpivotRef):
            return self._bind_table_ref(self._desugar_unpivot(ref))
        if isinstance(ref, ast.TableName):
            return self._bind_table_name(ref)
        if isinstance(ref, ast.SubqueryRef):
            bound = self.binder.bind_query_as_relation(ref.query, self.outer_scope)
            self._add_bound_relation(bound, ref.alias, ref)
            return bound.plan
        if isinstance(ref, ast.Join):
            return self._bind_join(ref)
        raise UnsupportedError(f"cannot bind {type(ref).__name__} in FROM")

    def _desugar_pivot(self, ref: ast.PivotRef) -> ast.TableRef:
        """Rewrite PIVOT into a grouped CASE-aggregate derived table.

        ``t PIVOT(SUM(x) FOR k IN ('a', 'b' AS bee))`` becomes::

            (SELECT <other cols>,
                    SUM(CASE WHEN k = 'a' THEN x END) AS a,
                    SUM(CASE WHEN k = 'b' THEN x END) AS bee
             FROM t GROUP BY <other cols>) AS alias
        """
        if ref.agg.star_arg or not ref.agg.args:
            raise UnsupportedError("PIVOT requires a single-argument aggregate")
        columns = self._columns_of_table_ref(ref.input)
        consumed = {ref.key.name.lower()}
        for node in ref.agg.walk():
            if isinstance(node, ast.ColumnRef):
                consumed.add(node.name.lower())
        group_columns = [c for c in columns if c.lower() not in consumed]

        items = [
            ast.SelectItem(ast.ColumnRef((c,)), c) for c in group_columns
        ]
        for literal, alias in ref.values:
            name = alias or _pivot_column_name(literal.value)
            condition = ast.Binary("=", ast.ColumnRef(ref.key.parts), literal)
            guarded = ast.Case(
                None,
                [ast.CaseWhen(condition, ref.agg.args[0])],
                None,
            )
            items.append(
                ast.SelectItem(
                    ast.FunctionCall(
                        ref.agg.name, [guarded], distinct=ref.agg.distinct
                    ),
                    name,
                )
            )
        derived = ast.Select(
            items=items,
            from_clause=ref.input,
            group_by=[
                ast.SimpleGrouping(ast.ColumnRef((c,))) for c in group_columns
            ],
            force_aggregate=True,
        )
        return ast.SubqueryRef(derived, ref.alias or "pivot")

    def _desugar_unpivot(self, ref: ast.UnpivotRef) -> ast.TableRef:
        """Rewrite UNPIVOT into a UNION ALL, one branch per listed column,
        excluding NULL values (BigQuery semantics)."""
        columns = self._columns_of_table_ref(ref.input)
        listed = {c.lower() for c, _ in ref.columns}
        keep = [c for c in columns if c.lower() not in listed]
        branches: list[ast.Query] = []
        for column, label in ref.columns:
            items = [ast.SelectItem(ast.ColumnRef((c,)), c) for c in keep]
            items.append(
                ast.SelectItem(ast.Literal(label or column), ref.name_column)
            )
            items.append(
                ast.SelectItem(ast.ColumnRef((column,)), ref.value_column)
            )
            branches.append(
                ast.Select(
                    items=items,
                    from_clause=copy_ast(ref.input),
                    where=ast.IsNull(ast.ColumnRef((column,)), negated=True),
                )
            )
        union: ast.Query = branches[0]
        for branch in branches[1:]:
            union = ast.SetOp("UNION", True, union, branch)
        return ast.SubqueryRef(union, ref.alias or "unpivot")

    def _columns_of_table_ref(self, ref: ast.TableRef) -> list[str]:
        """Non-measure column names a FROM item exposes (for * and PIVOT)."""
        if isinstance(ref, ast.TableName):
            cte = self.binder.lookup_cte(ref.name)
            if cte is not None:
                return [c.name for c in cte.columns if not c.is_measure]
            obj = self.binder.catalog.resolve(ref.name)
            if isinstance(obj, (BaseTable, SystemTable)):
                return [c.name for c in obj.schema.columns]
            assert isinstance(obj, View)
            bound = self.binder.bind_view(obj)
            return [c.name for c in bound.columns if not c.is_measure]
        if isinstance(ref, ast.SubqueryRef):
            bound = self.binder.bind_query_as_relation(ref.query, self.outer_scope)
            return [c.name for c in bound.columns if not c.is_measure]
        if isinstance(ref, ast.Join):
            return self._columns_of_table_ref(ref.left) + self._columns_of_table_ref(
                ref.right
            )
        if isinstance(ref, ast.PivotRef):
            return self._columns_of_table_ref(self._desugar_pivot(ref))
        if isinstance(ref, ast.UnpivotRef):
            return self._columns_of_table_ref(self._desugar_unpivot(ref))
        raise UnsupportedError(f"cannot enumerate columns of {type(ref).__name__}")

    def _bind_table_name(self, ref: ast.TableName) -> plans.LogicalPlan:
        cte = self.binder.lookup_cte(ref.name)
        if cte is not None:
            self._add_bound_relation(cte, ref.alias or ref.name, ref)
            return cte.plan
        obj = self.binder.catalog.resolve(ref.name)
        self.binder.reads[ref.name.lower()] = obj
        if isinstance(obj, (BaseTable, SystemTable)):
            # System tables bind exactly like stored tables — same scope
            # wiring, same column offsets — but plan to a SystemScan leaf
            # so the executor reads the provider's snapshot, not storage.
            schema = [(c.name, c.dtype) for c in obj.schema.columns]
            plan_cls = (
                plans.SystemScan if isinstance(obj, SystemTable) else plans.Scan
            )
            plan = plan_cls(obj.name, schema)
            start = self.next_offset
            columns = [
                RelColumn(c.name, c.dtype, start + i)
                for i, c in enumerate(obj.schema.columns)
            ]
            relation = Relation(
                ref.alias or ref.name, columns, start, len(columns)
            )
            with located(ref):
                self.scope.add_relation(relation)
            self.next_offset += len(columns)
            return plan
        assert isinstance(obj, View)
        bound = self.binder.bind_view(obj)
        self._add_bound_relation(bound, ref.alias or obj.name, ref)
        return bound.plan

    def _add_bound_relation(
        self, bound: BoundRelation, alias: Optional[str], ref: ast.TableRef
    ) -> None:
        start = self.next_offset
        columns: list[RelColumn] = []
        dim_for_offset: dict[int, b.BoundExpr] = {}
        position = 0
        for index, column in enumerate(bound.columns):
            if column.is_measure:
                columns.append(RelColumn(column.name, column.dtype, None, column.measure))
                continue
            offset = start + position
            columns.append(RelColumn(column.name, column.dtype, offset))
            dim = (
                bound.dim_exprs[position]
                if position < len(bound.dim_exprs)
                else None
            )
            if dim is not None:
                dim_for_offset[offset] = dim
            position += 1
        relation = Relation(
            alias, columns, start, position, bound.group, dim_for_offset
        )
        with located(ref):
            self.scope.add_relation(relation)
        self.next_offset += position

    def _bind_join(self, ref: ast.Join) -> plans.LogicalPlan:
        left_plan = self._bind_table_ref(ref.left)
        left_relations = list(self.scope.relations)
        right_plan = self._bind_table_ref(ref.right)
        right_relations = [
            r for r in self.scope.relations if r not in left_relations
        ]

        condition: Optional[b.BoundExpr] = None
        using = list(ref.using)
        if ref.natural:
            left_names = {
                c.name.lower()
                for rel in left_relations
                for c in rel.columns
                if not c.is_measure
            }
            using = [
                c.name
                for rel in right_relations
                for c in rel.columns
                if not c.is_measure and c.name.lower() in left_names
            ]
            if not using:
                raise BindError("NATURAL JOIN has no common columns")
        if using:
            condition = self._using_condition(left_relations, right_relations, using)
            for name in using:
                self.scope.merged_names.add(name.lower())
        elif ref.condition is not None:
            binder = ExprBinder(self, self.scope, clause="JOIN ON")
            condition = binder.bind(ref.condition)
            self._fill_row_contexts(condition)

        self.bound.joins.append(condition)
        if ref.kind != "CROSS" and condition is not None:
            self.join_preds.extend(b.conjuncts(condition))
        kind = ref.kind
        return plans.Join(kind, left_plan, right_plan, condition)

    def _using_condition(
        self,
        left_relations: list[Relation],
        right_relations: list[Relation],
        using: list[str],
    ) -> b.BoundExpr:
        from repro.types import BOOLEAN, sql_compare

        equalities = []
        for name in using:
            left_col = self._find_in(left_relations, name)
            right_col = self._find_in(right_relations, name)
            equalities.append(
                b.BoundCall(
                    "=",
                    [
                        b.BoundColumn(left_col.offset, left_col.dtype, left_col.name),
                        b.BoundColumn(right_col.offset, right_col.dtype, right_col.name),
                    ],
                    BOOLEAN,
                    lambda a, c: sql_compare("=", a, c),
                )
            )
        condition = b.conjoin(equalities)
        assert condition is not None
        return condition

    def _find_in(self, relations: list[Relation], name: str) -> RelColumn:
        for relation in relations:
            column = relation.find(name)
            if column is not None:
                if column.is_measure:
                    raise BindError(f"USING column {name!r} is a measure")
                return column
        raise BindError(f"USING column {name!r} not found")

    # -- star expansion and aggregate detection ------------------------------

    def _expand_stars(self, items: list[ast.SelectItem]) -> list[ast.SelectItem]:
        has_measure_defs = any(item.is_measure for item in items)
        expanded: list[ast.SelectItem] = []
        for item in items:
            if not isinstance(item.expr, ast.Star):
                expanded.append(item)
                continue
            qualifier = item.expr.qualifier
            relations = self.scope.relations
            if qualifier is not None:
                relations = [
                    r
                    for r in relations
                    if r.alias and r.alias.lower() == qualifier.lower()
                ]
                if not relations:
                    raise BindError(f"unknown relation {qualifier!r} in {qualifier}.*")
            for relation in relations:
                for column in relation.columns:
                    if column.is_measure and has_measure_defs:
                        # Measures of the input cannot be dimensions of the
                        # measures being defined; skip them in the expansion.
                        continue
                    parts = (
                        (relation.alias, column.name)
                        if relation.alias
                        else (column.name,)
                    )
                    expanded.append(
                        ast.SelectItem(ast.ColumnRef(tuple(parts)), column.name)
                    )
        if not expanded:
            raise BindError("SELECT list is empty after * expansion")
        return expanded

    def _detect_aggregate(self, items: list[ast.SelectItem]) -> bool:
        if (
            self.select.group_by
            or self.select.having is not None
            or self.select.force_aggregate
        ):
            return True
        from repro.engine.aggregates import is_aggregate_function

        def scan(expr: ast.Node) -> bool:
            if isinstance(expr, ast.Query):
                return False
            if isinstance(expr, ast.FunctionCall):
                name = expr.name.upper()
                if name == "AGGREGATE":
                    return True
                if (
                    is_aggregate_function(name)
                    and expr.over is None
                    and expr.over_name is None
                ):
                    return True
            return any(scan(child) for child in expr.children())

        for item in items:
            if item.is_measure:
                continue
            if scan(item.expr):
                return True
        return False

    # -- shared helpers ------------------------------------------------------

    def _filtered(self, from_plan: plans.LogicalPlan) -> plans.LogicalPlan:
        if self.bound_where is None:
            return from_plan
        return plans.Filter(from_plan, self.bound_where)

    def _measure_source(self, plan: plans.LogicalPlan) -> plans.LogicalPlan:
        """``plan`` marked as a measure group's source relation.

        The executor keeps a marked node's rows for the whole execution, so
        the relation must not depend on an enclosing query's row (it never
        could: measure evaluation runs it with no outer environment)."""
        if self.outer_scope is not None and collect_outer_refs(plan):
            raise UnsupportedError(
                "a measure-defining query cannot reference columns of an "
                "enclosing query"
            )
        return plans.mark_shared(plan)

    def _fill_row_contexts(self, expr: b.BoundExpr) -> None:
        """Give every not-yet-finalized measure eval in ``expr`` a row-grain
        context (used for WHERE/ON clauses and plain SELECTs)."""
        for node in b.walk(expr):
            if isinstance(node, b.BoundMeasureEval) and node.context.kind == "row":
                if node.context.group_terms:
                    continue  # already filled
                relation = self._spec_relations.get(id(node.context))
                if relation is None:
                    continue
                self._fill_row_context(node.context, relation)

    def _fill_row_context(self, spec: ContextSpec, relation: Relation) -> None:
        terms = []
        for column in relation.columns:
            if column.offset is None:
                continue
            dim = relation.dim_for_offset.get(column.offset)
            if dim is None:
                continue
            terms.append(
                GroupTermSpec(
                    b.fingerprint(dim),
                    dim,
                    b.BoundColumn(column.offset, column.dtype, column.name),
                )
            )
        spec.group_terms = terms
        spec.visible = self._make_visible_info(spec, relation)

    def _visible_preds(self) -> list[b.BoundExpr]:
        """What VISIBLE conjoins: the query's WHERE and join conjuncts that
        evaluate no measure themselves."""
        preds: list[b.BoundExpr] = []
        if self.bound_where is not None:
            preds.extend(b.conjuncts(self.bound_where))
        preds.extend(self.join_preds)
        return [
            p
            for p in preds
            if not any(isinstance(n, b.BoundMeasureEval) for n in b.walk(p))
        ]

    def _make_visible_info(
        self, spec: ContextSpec, relation: Relation
    ) -> Optional[VisibleInfo]:
        """VISIBLE's conjuncts, split by what each reads of ``relation``'s
        range in the FROM row (see :class:`VisibleInfo`); None when the call
        site has no VISIBLE modifier or the query nothing to conjoin."""
        if not any(isinstance(m, BoundVisible) for m in spec.modifiers):
            return None
        preds = self._visible_preds()
        if not preds:
            return None
        start, end = relation.start, relation.start + relation.width
        info = VisibleInfo(
            range_start=start,
            range_end=end,
            offset_dim_exprs=[
                relation.dim_for_offset.get(offset) for offset in range(start, end)
            ],
        )
        read: set = set()  # range-relative offsets some conjunct reads
        opaque = False  # ... unless one reads the row where this cannot see
        for pred in preds:
            key = equi_key(pred, start, end)
            if key is not None:
                info.keys.append((key[0] - start, key[1]))
                info.key_preds.append(pred)
                read.add(key[0] - start)
                continue
            inside = outside = False
            for node in b.walk(pred):
                if isinstance(node, b.BoundColumn):
                    if start <= node.offset < end:
                        inside = True
                        read.add(node.offset - start)
                    else:
                        outside = True
                elif isinstance(node, _OFFSETS_READ_ELSEWHERE):
                    inside = outside = opaque = True
                    break
            if inside and outside:
                info.residual.append(pred)
            elif inside:
                info.local.append(pred)
            else:
                info.outer.append(pred)
        if not opaque:
            # A column no conjunct reads need not be substituted (nor kept
            # in the source relation for it): NULL stands in.
            info.offset_dim_exprs = [
                expr if offset in read else None
                for offset, expr in enumerate(info.offset_dim_exprs)
            ]
        return info

    def _item_name(self, item: ast.SelectItem, index: int) -> str:
        return output_column_name(item, index)

    # -- measure-defining queries ---------------------------------------------

    def _bind_formula(self, expr: ast.Expression) -> b.BoundExpr:
        binder = ExprBinder(
            self,
            self.scope,
            allow_aggregates=True,
            formula_mode=True,
            clause="measure definition",
        )
        return binder.bind(expr)

    def _bind_measure_defining(
        self, from_plan: plans.LogicalPlan, items: list[ast.SelectItem]
    ) -> BoundRelation:
        for item in items:
            if item.is_measure:
                if not item.alias:
                    raise MeasureError("AS MEASURE requires a name")
                lowered = item.alias.lower()
                if lowered in self._sibling_items:
                    raise MeasureError(f"duplicate measure name {item.alias!r}")
                self._sibling_items[lowered] = item

        source_plan = self._measure_source(self._filtered(from_plan))
        # (Not ``self.bound`` itself: it leads to the relation, and the
        # relation back to this group.)
        here = self.bound
        source_sql = FromSql(here.from_clause, here.scope, here.joins, here.where)
        group = MeasureGroup(source_plan, {}, [], source_sql)

        item_binder = ExprBinder(self, self.scope, clause="SELECT")
        columns: list[OutputColumn] = []
        dim_exprs: list[Optional[b.BoundExpr]] = []
        project_exprs: list[b.BoundExpr] = []
        measures: list[tuple[int, MeasureInstance]] = []

        for index, item in enumerate(items):
            name = self._item_name(item, index)
            if item.is_measure:
                formula = self.resolve_sibling_measure(item.alias)
                assert formula is not None
                value_type = formula.dtype.unwrap()
                instance = MeasureInstance(item.alias, group, formula, value_type)
                columns.append(
                    OutputColumn(name, MeasureType(value_type), instance)
                )
                measures.append((index, instance))
                continue
            bound = item_binder.bind(item.expr)
            if any(isinstance(n, b.BoundAggCall) for n in b.walk(bound)):
                raise BindError(
                    "aggregate functions in a measure-defining query are only "
                    "allowed inside AS MEASURE items"
                )
            if any(isinstance(n, b.BoundMeasureEval) for n in b.walk(bound)):
                raise MeasureError(
                    "a measure-defining query cannot project measures of its "
                    "input; compose them with AGGREGATE(...) AS MEASURE instead"
                )
            dim_name = name.lower()
            if dim_name in group.dims:
                raise BindError(f"duplicate column name {name!r}")
            group.dims[dim_name] = Dimension(name, bound, bound.dtype)
            group.dim_order.append(name)
            columns.append(OutputColumn(name, bound.dtype))
            dim_exprs.append(bound)
            project_exprs.append(bound)

        self.bound.item_exprs = project_exprs
        schema = [
            (c.name, c.dtype) for c in columns if not c.is_measure
        ]
        plan: plans.LogicalPlan = plans.Project(source_plan, project_exprs, schema)
        plan = self._apply_tail(plan, columns, project_exprs, allow_order=True)
        return BoundRelation(plan, columns, group, dim_exprs)

    # -- plain (non-aggregate) queries ---------------------------------------

    def _bind_plain(
        self, from_plan: plans.LogicalPlan, items: list[ast.SelectItem]
    ) -> BoundRelation:
        item_binder = ExprBinder(
            self, self.scope, allow_windows=True, clause="SELECT"
        )
        columns: list[OutputColumn] = []
        dim_exprs: list[Optional[b.BoundExpr]] = []
        bound_items: list[Optional[b.BoundExpr]] = []
        reexports: list[tuple[int, MeasureInstance, Relation]] = []

        for index, item in enumerate(items):
            name = self._item_name(item, index)
            if isinstance(item.expr, ast.ColumnRef):
                resolution = self._try_resolve(item.expr)
                if (
                    resolution is not None
                    and resolution.depth == 0
                    and resolution.column.is_measure
                ):
                    columns.append(
                        OutputColumn(
                            name,
                            MeasureType(resolution.column.measure.value_type),
                            resolution.column.measure,
                        )
                    )
                    bound_items.append(None)
                    reexports.append(
                        (index, resolution.column.measure, resolution.relation)
                    )
                    continue
            bound = item_binder.bind(item.expr)
            self._fill_row_contexts(bound)
            columns.append(OutputColumn(name, bound.dtype.unwrap()))
            bound_items.append(bound)

        self.bound.item_exprs = [e for e in bound_items if e is not None]
        group, dim_exprs, remapped = self._finish_reexports(
            reexports, columns, bound_items
        )

        bound_qualify: Optional[b.BoundExpr] = None
        if self.select.qualify is not None:
            qualify_binder = ExprBinder(
                self, self.scope, allow_windows=True, clause="QUALIFY"
            )
            bound_qualify = qualify_binder.bind(self.select.qualify)
            self._fill_row_contexts(bound_qualify)

        filtered = self._filtered(from_plan)
        exprs = [e for e in bound_items if e is not None]
        if bound_qualify is not None:
            exprs = exprs + [bound_qualify]
        plan, exprs = self._extract_windows(filtered, exprs)
        if bound_qualify is not None:
            bound_qualify = exprs[-1]
            exprs = exprs[:-1]
            plan = plans.Filter(plan, bound_qualify)
        # Rebuild bound_items with window-extracted expressions.
        rebuilt: list[Optional[b.BoundExpr]] = []
        iterator = iter(exprs)
        for original in bound_items:
            rebuilt.append(None if original is None else next(iterator))
        bound_items = rebuilt

        nonmeasure_exprs = [e for e in bound_items if e is not None]
        schema = [
            (c.name, c.dtype)
            for c in columns
            if not c.is_measure
        ]
        out_plan: plans.LogicalPlan = plans.Project(plan, nonmeasure_exprs, schema)
        out_plan = self._apply_tail(
            out_plan, columns, nonmeasure_exprs, allow_order=True
        )
        final_columns = [
            OutputColumn(
                c.name,
                c.dtype,
                remapped.get(i, c.measure),
            )
            for i, c in enumerate(columns)
        ]
        return BoundRelation(out_plan, final_columns, group, dim_exprs)

    def _try_resolve(self, ref: ast.ColumnRef):
        try:
            return self.scope.resolve(ref.parts)
        except BindError:
            return None

    def _finish_reexports(
        self,
        reexports: list[tuple[int, MeasureInstance, Relation]],
        columns: list[OutputColumn],
        bound_items: list[Optional[b.BoundExpr]],
    ) -> tuple[
        Optional[MeasureGroup],
        list[Optional[b.BoundExpr]],
        dict[int, MeasureInstance],
    ]:
        """Re-export measure columns through a plain query (paper section 5.4).

        The query's WHERE clause is baked into the re-exported measures by
        filtering a derived copy of the source plan; the projected non-measure
        items become the new dimensionality.
        """
        if not reexports:
            return None, [None] * sum(1 for c in columns if not c.is_measure), {}

        relations = {id(rel): rel for _, _, rel in reexports}
        if len(relations) > 1:
            raise UnsupportedError(
                "re-exporting measures from more than one source relation is "
                "not supported"
            )
        relation = next(iter(relations.values()))
        old_group = relation.group
        assert old_group is not None

        if self.bound_where is not None:
            translated = self.rewrite_to_source(self.bound_where, relation)
            if translated is None:
                raise UnsupportedError(
                    "cannot re-export measures through a WHERE clause that "
                    "references columns outside the measure table"
                )
            new_source = self._measure_source(
                plans.Filter(old_group.source_plan, translated)
            )
            source_sql = replace(
                old_group.source_sql,
                where=[*old_group.source_sql.where, *b.conjuncts(translated)],
            )
        else:
            new_source, source_sql = old_group.source_plan, old_group.source_sql

        # Translate projected non-measure items into source expressions: they
        # are the new measure group's dimensions.
        new_group = MeasureGroup(new_source, {}, [], source_sql)
        dim_exprs: list[Optional[b.BoundExpr]] = []
        nonmeasure_index = 0
        for column, bound in zip(columns, bound_items):
            if column.is_measure:
                continue
            dim = (
                self.rewrite_to_source(bound, relation)
                if bound is not None
                else None
            )
            dim_exprs.append(dim)
            if dim is not None:
                lowered = column.name.lower()
                if lowered not in new_group.dims:
                    new_group.dims[lowered] = Dimension(column.name, dim, column.dtype)
                    new_group.dim_order.append(column.name)
            nonmeasure_index += 1

        remapped: dict[int, MeasureInstance] = {}
        for index, measure, _ in reexports:
            remapped[index] = MeasureInstance(
                measure.name, new_group, measure.formula, measure.value_type
            )
        return new_group, dim_exprs, remapped

    # -- aggregate queries ------------------------------------------------------

    def _bind_aggregate(
        self, from_plan: plans.LogicalPlan, items: list[ast.SelectItem]
    ) -> BoundRelation:
        filtered = self._filtered(from_plan)

        group_exprs, grouping_sets, offset_mapping = self._bind_group_by(items)
        self.bound.group_exprs, self.bound.grouping_sets = group_exprs, grouping_sets
        mapping = {b.fingerprint(e): i for i, e in enumerate(group_exprs)}

        select_binder = ExprBinder(
            self,
            self.scope,
            allow_aggregates=True,
            allow_windows=True,
            clause="SELECT",
        )
        bound_items = [select_binder.bind(item.expr) for item in items]
        bound_having = None
        if self.select.having is not None:
            having_binder = ExprBinder(
                self, self.scope, allow_aggregates=True, clause="HAVING"
            )
            bound_having = having_binder.bind(self.select.having)

        bound_qualify = None
        if self.select.qualify is not None:
            qualify_binder = ExprBinder(
                self,
                self.scope,
                allow_aggregates=True,
                allow_windows=True,
                clause="QUALIFY",
            )
            with located(self.select.qualify):
                bound_qualify = qualify_binder.bind(self.select.qualify)

        order_pre: list[tuple[str, object, ast.OrderItem]] = []
        names = [self._item_name(item, i) for i, item in enumerate(items)]
        for order_item in self.select.order_by:
            with located(order_item):
                kind, payload = self._classify_order_item(order_item, names)
            if kind == "expr":
                binder = ExprBinder(
                    self, self.scope, allow_aggregates=True, clause="ORDER BY"
                )
                payload = binder.bind(payload)
            order_pre.append((kind, payload, order_item))

        # Collect aggregate calls from every clause, then lay out the
        # aggregate output row: keys ++ aggs ++ [grouping id] ++ [rows].
        agg_calls: list[b.BoundAggCall] = []
        self.bound.agg_calls = agg_calls
        agg_index: dict[str, int] = {}

        def collect(expr: Optional[b.BoundExpr]) -> None:
            if expr is None:
                return
            for node in b.walk(expr):
                if isinstance(node, b.BoundAggCall):
                    key = b.fingerprint(node)
                    if key not in agg_index:
                        agg_index[key] = len(agg_calls)
                        agg_calls.append(node)

        for expr in bound_items:
            collect(expr)
        collect(bound_having)
        for kind, payload, _ in order_pre:
            if kind == "expr":
                collect(payload)  # type: ignore[arg-type]

        # Only VISIBLE reads the group's input rows, and only when the query
        # has predicates for it to conjoin.
        reads_group_rows = bool(self._visible_preds()) and any(
            isinstance(node, b.BoundMeasureEval)
            and any(isinstance(m, BoundVisible) for m in node.context.modifiers)
            for expr in [
                *bound_items,
                bound_having,
                bound_qualify,
                *[payload for kind, payload, _ in order_pre if kind == "expr"],
            ]
            if expr is not None
            for node in b.walk(expr)  # type: ignore[arg-type]
        )
        uses_grouping_fn = any(
            isinstance(node, b.BoundCall) and node.op == "$GROUPING"
            for expr in [*bound_items, bound_having]
            if expr is not None
            for node in b.walk(expr)
        )
        has_gid = len(grouping_sets) > 1 or uses_grouping_fn
        key_count = len(group_exprs)
        gid_offset = key_count + len(agg_calls) if has_gid else None
        captured_offset = (
            key_count + len(agg_calls) + (1 if has_gid else 0)
            if reads_group_rows
            else None
        )

        lifter = _Lifter(
            self,
            group_exprs,
            mapping,
            offset_mapping,
            agg_index,
            key_count,
            gid_offset,
            captured_offset,
        )
        lifted_items = []
        for item, expr in zip(items, bound_items):
            with located(item):
                lifted_items.append(lifter.lift(expr))
        lifted_having = None
        if bound_having is not None:
            with located(self.select.having):
                lifted_having = lifter.lift(bound_having)
        self.bound.item_exprs, self.bound.having = lifted_items, lifted_having

        agg_schema: list[tuple[str, DataType]] = []
        for i, expr in enumerate(group_exprs):
            agg_schema.append((f"$key{i}", expr.dtype))
        for i, call in enumerate(agg_calls):
            agg_schema.append((f"$agg{i}", call.dtype))
        if has_gid:
            agg_schema.append(("$grouping_id", INTEGER))
        if captured_offset is not None:
            agg_schema.append(("$group_rows", UNKNOWN))

        aggregate = plans.Aggregate(
            filtered,
            group_exprs,
            agg_calls,
            grouping_sets,
            agg_schema,
            emit_grouping_id=has_gid,
            capture_rows=captured_offset is not None,
        )
        plan: plans.LogicalPlan = aggregate
        if lifted_having is not None:
            plan = plans.Filter(plan, lifted_having)

        lifted_qualify: Optional[b.BoundExpr] = None
        if bound_qualify is not None:
            with located(self.select.qualify):
                lifted_qualify = lifter.lift(bound_qualify)

        with_qualify = (
            lifted_items + [lifted_qualify]
            if lifted_qualify is not None
            else lifted_items
        )
        plan, with_qualify = self._extract_windows(plan, with_qualify)
        if lifted_qualify is not None:
            plan = plans.Filter(plan, with_qualify[-1])
            lifted_items = with_qualify[:-1]
        else:
            lifted_items = with_qualify

        columns = [
            OutputColumn(name, expr.dtype.unwrap())
            for name, expr in zip(names, lifted_items)
        ]
        schema = [(c.name, c.dtype) for c in columns]
        out_plan: plans.LogicalPlan = plans.Project(plan, lifted_items, schema)

        # Resolve ORDER BY onto the projected output.
        sort_specs: list[b.SortSpec] = []
        hidden: list[b.BoundExpr] = []
        item_fps: Optional[list[str]] = None  # only an ORDER BY expression asks
        self.bound.order_by = order_by = []
        for kind, payload, order_item in order_pre:
            if kind in ("ordinal", "alias"):
                offset = payload  # type: ignore[assignment]
                lifted = self.bound.item_exprs[offset]
            else:
                with located(order_item):
                    lifted = lifter.lift(payload)  # type: ignore[arg-type]
                fp = b.fingerprint(lifted)
                if item_fps is None:
                    item_fps = [b.fingerprint(e) for e in lifted_items]
                if fp in item_fps:
                    offset = item_fps.index(fp)
                else:
                    offset = len(lifted_items) + len(hidden)
                    hidden.append(lifted)
            dtype = (
                columns[offset].dtype
                if offset < len(columns)
                else hidden[offset - len(lifted_items)].dtype
            )
            order_by.append(
                b.SortSpec(lifted, order_item.descending, order_item.nulls_first)
            )
            sort_specs.append(
                b.SortSpec(
                    b.BoundColumn(offset, dtype),
                    order_item.descending,
                    order_item.nulls_first,
                )
            )
        out_plan = self._finalize_sort(
            out_plan, columns, lifted_items, hidden, sort_specs
        )
        return BoundRelation(
            out_plan, columns, None, [None] * len(columns)
        )

    def _classify_order_item(
        self, order_item: ast.OrderItem, names: list[str]
    ) -> tuple[str, object]:
        expr = order_item.expr
        if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
            index = expr.value - 1
            if not 0 <= index < len(names):
                raise BindError(f"ORDER BY position {expr.value} out of range")
            return "ordinal", index
        if isinstance(expr, ast.ColumnRef) and len(expr.parts) == 1:
            # ORDER BY resolves output column names before input columns.
            lowered = expr.parts[0].lower()
            matches = [i for i, n in enumerate(names) if n.lower() == lowered]
            if len(matches) == 1:
                return "alias", matches[0]
            if len(matches) > 1 and self._try_resolve(expr) is None:
                raise BindError(
                    f"ORDER BY column {expr.parts[0]!r} is ambiguous", rule="RP107"
                )
        return "expr", expr

    def _extract_windows(
        self, plan: plans.LogicalPlan, exprs: list[b.BoundExpr]
    ) -> tuple[plans.LogicalPlan, list[b.BoundExpr]]:
        calls: list[b.BoundWindowCall] = []
        base = len(plan.schema)

        def visit(node: b.BoundExpr) -> Optional[b.BoundExpr]:
            if isinstance(node, b.BoundWindowCall):
                calls.append(node)
                return b.BoundColumn(base + len(calls) - 1, node.dtype)
            return None

        new_exprs = [transform_expr(expr, visit) for expr in exprs]
        if not calls:
            return plan, exprs
        schema = list(plan.schema) + [
            (f"$win{i}", call.dtype) for i, call in enumerate(calls)
        ]
        return plans.Window(plan, calls, schema), new_exprs

    def _apply_tail(
        self,
        plan: plans.LogicalPlan,
        columns: list[OutputColumn],
        projected_exprs: list[b.BoundExpr],
        *,
        allow_order: bool,
    ) -> plans.LogicalPlan:
        """Apply DISTINCT / ORDER BY / LIMIT to a non-aggregate query plan."""
        select = self.select
        sort_specs: list[b.SortSpec] = []
        hidden: list[b.BoundExpr] = []
        if select.order_by and allow_order:
            names = [c.name for c in columns if not c.is_measure]
            item_fps: Optional[list[str]] = None  # only an ORDER BY expression asks
            for order_item in select.order_by:
                with located(order_item):
                    kind, payload = self._classify_order_item(order_item, names)
                if kind in ("ordinal", "alias"):
                    offset = payload  # type: ignore[assignment]
                else:
                    binder = ExprBinder(
                        self, self.scope, allow_windows=True, clause="ORDER BY"
                    )
                    bound = binder.bind(payload)  # type: ignore[arg-type]
                    self._fill_row_contexts(bound)
                    fp = b.fingerprint(bound)
                    if item_fps is None:
                        item_fps = [b.fingerprint(e) for e in projected_exprs]
                    if fp in item_fps:
                        offset = item_fps.index(fp)
                    else:
                        offset = len(projected_exprs) + len(hidden)
                        hidden.append(bound)
                dtype = (
                    projected_exprs[offset].dtype
                    if offset < len(projected_exprs)
                    else hidden[offset - len(projected_exprs)].dtype
                )
                sort_specs.append(
                    b.SortSpec(
                        b.BoundColumn(offset, dtype),
                        order_item.descending,
                        order_item.nulls_first,
                    )
                )
        return self._finalize_sort(plan, columns, projected_exprs, hidden, sort_specs)

    def _finalize_sort(
        self,
        plan: plans.LogicalPlan,
        columns: list[OutputColumn],
        projected_exprs: list[b.BoundExpr],
        hidden: list[b.BoundExpr],
        sort_specs: list[b.SortSpec],
    ) -> plans.LogicalPlan:
        select = self.select
        if hidden:
            if select.distinct:
                raise BindError(
                    "ORDER BY expressions must appear in the SELECT list when "
                    "DISTINCT is used"
                )
            assert isinstance(plan, plans.Project)
            base = plan.input
            schema = list(plan.schema) + [
                (f"$sort{i}", e.dtype) for i, e in enumerate(hidden)
            ]
            plan = plans.Project(base, list(plan.exprs) + hidden, schema)
        if select.distinct:
            plan = plans.Distinct(plan)
        if sort_specs:
            plan = plans.Sort(plan, sort_specs)
        if hidden:
            width = len(projected_exprs)
            visible_schema = plan.schema[:width]
            plan = plans.Project(
                plan,
                [
                    b.BoundColumn(i, dtype)
                    for i, (_, dtype) in enumerate(visible_schema)
                ],
                list(visible_schema),
            )
        if select.limit is not None or select.offset is not None:
            binder = ExprBinder(self, Scope(), clause="LIMIT")
            limit = (
                binder.bind(select.limit) if select.limit is not None else None
            )
            offset = (
                binder.bind(select.offset) if select.offset is not None else None
            )
            plan = plans.Limit(plan, limit, offset)
        return plan

    # -- GROUP BY ----------------------------------------------------------

    def _bind_group_by(
        self, items: list[ast.SelectItem]
    ) -> tuple[list[b.BoundExpr], list[list[int]], dict[int, int]]:
        group_exprs: list[b.BoundExpr] = []
        registry: dict[str, int] = {}
        binder = ExprBinder(self, self.scope, clause="GROUP BY")

        def register(expr: ast.Expression) -> int:
            with located(expr):
                bound = self._bind_group_expr(binder, expr, items)
            fp = b.fingerprint(bound)
            if fp not in registry:
                registry[fp] = len(group_exprs)
                group_exprs.append(bound)
            return registry[fp]

        element_sets: list[list[list[int]]] = []
        for element in self.select.group_by:
            if isinstance(element, ast.SimpleGrouping):
                element_sets.append([[register(element.expr)]])
            elif isinstance(element, ast.Rollup):
                indexes = [register(e) for e in element.exprs]
                sets = [indexes[:i] for i in range(len(indexes), -1, -1)]
                element_sets.append(sets)
            elif isinstance(element, ast.Cube):
                indexes = [register(e) for e in element.exprs]
                sets = []
                for mask in range(1 << len(indexes)):
                    sets.append(
                        [indexes[i] for i in range(len(indexes)) if mask & (1 << i)]
                    )
                sets.sort(key=len, reverse=True)
                element_sets.append(sets)
            elif isinstance(element, ast.GroupingSets):
                sets = []
                for group in element.sets:
                    sets.append([register(e) for e in group])
                element_sets.append(sets)
            else:  # pragma: no cover - parser guarantees
                raise UnsupportedError(type(element).__name__)

        if not element_sets:
            grouping_sets: list[list[int]] = [[]]
        else:
            grouping_sets = [[]]
            for sets in element_sets:
                grouping_sets = [
                    existing + candidate
                    for existing in grouping_sets
                    for candidate in sets
                ]
            grouping_sets = [sorted(set(s)) for s in grouping_sets]

        # Mapping from FROM-row offsets to key slots, for remapping
        # correlated references and AT WHERE predicates.
        offset_mapping: dict[int, int] = {}
        for index, expr in enumerate(group_exprs):
            if isinstance(expr, b.BoundColumn):
                offset_mapping[expr.offset] = index
        return group_exprs, grouping_sets, offset_mapping

    def _bind_group_expr(
        self,
        binder: ExprBinder,
        expr: ast.Expression,
        items: list[ast.SelectItem],
    ) -> b.BoundExpr:
        if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
            index = expr.value - 1
            if not 0 <= index < len(items):
                raise BindError(f"GROUP BY position {expr.value} out of range")
            expr = items[index].expr
        elif isinstance(expr, ast.ColumnRef) and len(expr.parts) == 1:
            if self._try_resolve(expr) is None:
                lowered = expr.parts[0].lower()
                for item in items:
                    if item.alias and item.alias.lower() == lowered:
                        expr = item.expr
                        break
        bound = binder.bind(expr)
        for node in b.walk(bound):
            if isinstance(node, b.BoundMeasureEval):
                raise MeasureError("cannot GROUP BY a measure")
            if isinstance(node, b.BoundAggCall):
                raise BindError("aggregate functions are not allowed in GROUP BY")
            if isinstance(node, b.BoundCall) and node.op == "$GROUPING":
                raise BindError("GROUPING is not allowed in GROUP BY")
        return bound


def _pivot_column_name(value) -> str:
    text = str(value)
    if text.isidentifier():
        return text
    cleaned = "".join(ch if ch.isalnum() else "_" for ch in text)
    if not cleaned or cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned


#: Nodes whose column offsets are not offsets of the row they are evaluated
#: on: a VISIBLE conjunct holding one is never split off the residual.
_OFFSETS_READ_ELSEWHERE = (
    b.BoundSubquery,
    b.BoundMeasureEval,
    b.BoundAggCall,
    b.BoundAggRef,
    b.BoundWindowCall,
    b.BoundGroupingId,
)


class _Lifter:
    """Rewrites clause expressions over the Aggregate operator's output."""

    def __init__(
        self,
        qb: QueryBinder,
        group_exprs: list[b.BoundExpr],
        mapping: dict[str, int],
        offset_mapping: dict[int, int],
        agg_index: dict[str, int],
        key_count: int,
        gid_offset: Optional[int],
        captured_offset: Optional[int],
    ):
        self.qb = qb
        self.group_exprs = group_exprs
        self.mapping = mapping
        self.offset_mapping = offset_mapping
        self.expr_mapping = {
            b.fingerprint(expr): (slot, expr.dtype)
            for slot, expr in enumerate(group_exprs)
        }
        self.agg_index = agg_index
        self.key_count = key_count
        self.gid_offset = gid_offset
        self.captured_offset = captured_offset

    def lift(self, expr: b.BoundExpr) -> b.BoundExpr:
        def visit(node: b.BoundExpr) -> Optional[b.BoundExpr]:
            if isinstance(node, (b.BoundLiteral, b.BoundCurrentDim)):
                return node
            if isinstance(node, b.BoundAggCall):
                index = self.agg_index[b.fingerprint(node)]
                return b.BoundAggRef(self.key_count + index, node.dtype)
            if not isinstance(node, (b.BoundOuterColumn, b.BoundMeasureEval,
                                     b.BoundSubquery)):
                fp = b.fingerprint(node)
                slot = self.mapping.get(fp)
                if slot is not None:
                    return b.BoundColumn(slot, node.dtype)
            if isinstance(node, b.BoundCall) and node.op == "$GROUPING":
                return self._lift_grouping(node)
            if isinstance(node, b.BoundColumn):
                name = f" {node.name!r}" if node.name else ""
                raise BindError(
                    f"column{name} must appear in GROUP BY or be used in an "
                    "aggregate function"
                )
            if isinstance(node, b.BoundMeasureEval):
                self._finalize_measure(node)
                return node
            if isinstance(node, b.BoundSubquery):
                return remap_subquery(node, self.offset_mapping, self.expr_mapping)
            if isinstance(node, b.BoundOuterColumn):
                return node
            return None

        return transform_expr(expr, visit)

    def _lift_grouping(self, node: b.BoundCall) -> b.BoundGroupingId:
        if self.gid_offset is None:
            raise BindError("GROUPING requires GROUP BY")
        key_indexes = []
        for arg in node.args:
            slot = self.mapping.get(b.fingerprint(arg))
            if slot is None:
                raise BindError(
                    "GROUPING arguments must be GROUP BY expressions"
                )
            key_indexes.append(slot)
        return b.BoundGroupingId(self.gid_offset, key_indexes, INTEGER)

    def _finalize_measure(self, node: b.BoundMeasureEval) -> None:
        spec = node.context
        if spec.kind != "row" or spec.group_terms:
            # Inherited contexts and already-finalized specs pass through.
            return
        relation = self.qb.relation_for_spec(spec)
        spec.kind = "group"
        spec.grouping_id_offset = self.gid_offset
        spec.captured_rows_offset = self.captured_offset
        spec.visible = self.qb._make_visible_info(spec, relation)
        terms: list[GroupTermSpec] = []
        for index, group_expr in enumerate(self.group_exprs):
            rewritten = self.qb.rewrite_to_source(group_expr, relation)
            if rewritten is None:
                # Group keys outside the measure's dimensionality contribute
                # no term (paper section 3.6, Listing 9).
                continue
            terms.append(
                GroupTermSpec(
                    b.fingerprint(rewritten),
                    rewritten,
                    b.BoundColumn(index, group_expr.dtype),
                    grouping_bit=index,
                )
            )
        spec.group_terms = terms
        # Lift SET values and remap AT WHERE correlations.
        for modifier in spec.modifiers:
            if isinstance(modifier, BoundSet):
                modifier.value_expr = self.lift(modifier.value_expr)
            elif isinstance(modifier, BoundWhere):
                modifier.map_site_exprs(
                    lambda e, nested: remap_outer_expr(
                        e, self.offset_mapping, self.expr_mapping
                    )
                )
