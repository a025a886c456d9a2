"""The lint rule engine: RPxxx diagnostics over the AST and the bound query.

The linter never executes a statement and never raises on bad SQL: parse
failures become a single ``RP001`` diagnostic, and a statement that does not
bind becomes exactly one error diagnostic — the binder's message and span,
under the code of the rule the error enforces (``BindError.rule``: RP102,
RP103, RP106, RP107, RP112) or ``RP002``.

Each statement is bound once, by the real :class:`Binder`; the linter
resolves no name of its own.  The rules about what a name *is* read that
bind's records and run only when it succeeds: RP101 looks at the measure
call sites (``Binder.sites``) of the queries the binder did not aggregate
(``Binder.selects``); RP110, for the aggregate ones, runs the summary match
on the same bind in no-record mode and converts its
:class:`~repro.matview.rewriter.CandidateReport` objects into advisory
diagnostics; RP114–RP118 run over the bound plan.  The rest (RP104, RP105,
RP108, RP109, RP111, RP113) are purely syntactic.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.analysis.diagnostics import (
    RULES,
    Diagnostic,
    rule_severity,
    sorted_diagnostics,
)
from repro.analysis.typecheck import dataflow_diagnostics
from repro.catalog.objects import View
from repro.errors import LexerError, ParseError, SqlError
from repro.matview import match, summary_candidates
from repro.semantics.binder import Binder, BoundSelect
from repro.sql import ast, parse_statements

__all__ = ["lint_sql", "lint_statement", "lint_query"]


def lint_sql(catalog, sql: str) -> list[Diagnostic]:
    """Lint a statement (or a semicolon-separated script).

    Parse failures become a single RP001 diagnostic; spans in the result are
    positions in ``sql`` itself."""
    try:
        statements = parse_statements(sql)
    except (LexerError, ParseError) as exc:
        span = (
            ast.Span(exc.line, exc.column) if getattr(exc, "line", 0) else None
        )
        return [_diag("RP001", str(exc), span)]
    diags: list[Diagnostic] = []
    for statement in statements:
        diags.extend(lint_statement(catalog, statement))
    return sorted_diagnostics(diags)


def lint_statement(catalog, statement: ast.Statement) -> list[Diagnostic]:
    """Lint a parsed statement (dispatches to :func:`lint_query`)."""
    if isinstance(statement, ast.QueryStatement):
        if isinstance(statement.query, ast.ShowStats):
            return []  # the one position where SHOW STATS is legal
        return lint_query(catalog, statement.query)
    if isinstance(statement, ast.ExplainPlan):
        if isinstance(statement.query, ast.ShowStats):
            return [
                _diag(
                    "RP112",
                    "EXPLAIN cannot apply to SHOW STATS; it is answered "
                    "from the telemetry registry and has no plan",
                    ast.node_span(statement.query),
                    hint="run SHOW STATS directly",
                )
            ]
        if statement.query is None:
            # EXPLAIN [ANALYZE] over DDL/DML parses but never executes:
            # only queries have plans.  Lint the wrapped statement too, so
            # e.g. an unhinged INSERT source still gets its own findings.
            target = statement.target
            diags = [
                _diag(
                    "RP111",
                    f"EXPLAIN cannot explain a "
                    f"{type(target).__name__} statement",
                    getattr(target, "span", None),
                    hint="EXPLAIN and EXPLAIN ANALYZE accept queries only",
                )
            ]
            diags.extend(lint_statement(catalog, target))
            return diags
        return lint_query(catalog, statement.query)
    if isinstance(statement, ast.ExplainExpand):
        return lint_query(catalog, statement.query)
    if isinstance(statement, ast.CreateMaterializedView):
        diags = _lint(catalog, statement.query, View(statement.name, statement.query))
        # RP113: a summary over a system table could never be matched or
        # invalidated (its source changes on every query), so creation is
        # rejected at runtime too (matview.definition).
        for node in statement.query.walk():
            if isinstance(node, ast.TableName) and catalog.is_system(node.name):
                diags.append(
                    _diag(
                        "RP113",
                        f"materialized view reads system table "
                        f"{node.name!r}; system tables are volatile and "
                        f"can never be subsumption-matched",
                        ast.node_span(node),
                        hint="use a plain CREATE VIEW over system tables",
                    )
                )
        return sorted_diagnostics(diags)
    if isinstance(statement, ast.CreateView):
        view = View(statement.name, statement.query, statement.column_names)
        return _lint(catalog, statement.query, view)
    if isinstance(statement, ast.CreateTableAs):
        return lint_query(catalog, statement.query)
    if isinstance(statement, ast.Insert):
        return lint_query(catalog, statement.source)
    # DDL/DML without an interesting query body: nothing to lint statically
    # beyond what execution itself checks.
    return []


def lint_query(
    catalog, query: ast.Query, *, view_def: bool = False
) -> list[Diagnostic]:
    """Run every lint rule over ``query`` (with ``view_def``, the body of a
    view definition) and return sorted diagnostics."""
    return _lint(catalog, query, View("", query) if view_def else None)


def _lint(catalog, query: ast.Query, view: Optional[View]) -> list[Diagnostic]:
    """``query``, bound once — as the view it defines, or for execution when
    ``view`` is None — and every rule run over it."""
    linter = _Linter(catalog)
    linter.check_binds(query, view)
    linter.lint_query(query, view_def=view is not None)
    return sorted_diagnostics(linter.diags)


def _diag(
    code: str,
    message: str,
    span: Optional[ast.Span],
    hint: Optional[str] = None,
) -> Diagnostic:
    return Diagnostic(code, rule_severity(code), message, span, hint)


def _sub_queries(node: ast.Node) -> Iterator[ast.Query]:
    """Directly nested queries of ``node`` (not recursing through them)."""
    for child in node.children():
        if isinstance(child, ast.Query):
            yield child
        else:
            yield from _sub_queries(child)


def _call_sites(node: ast.Node, sites: dict) -> Iterator[ast.Node]:
    """The outermost measure call sites in ``node``, top-down, outside the
    queries nested in it: the AST nodes the binder recorded in ``sites``."""
    if id(node) in sites:
        yield node
        return
    for child in node.children():
        if not isinstance(child, ast.Query):
            yield from _call_sites(child, sites)


class _Linter:
    def __init__(self, catalog) -> None:
        self.catalog = catalog
        self.diags: list[Diagnostic] = []
        #: The statement's binder once it has bound: what the rules over
        #: bound queries read (``selects``, ``sites``).
        self.binder: Optional[Binder] = None

    def report(
        self,
        code: str,
        message: str,
        node: Optional[ast.Node],
        hint: Optional[str] = None,
    ) -> None:
        self.diags.append(_diag(code, message, ast.node_span(node), hint))

    # -- the binder is the semantic oracle ----------------------------------

    def check_binds(self, query: ast.Query, view: Optional[View]) -> None:
        """Bind the statement once.  A bind error is one diagnostic: its
        rule's code (RP002 when it enforces none), message and span."""
        binder = Binder(self.catalog)
        try:
            if view is not None:
                plan = binder.bind_view(view).plan
            else:
                plan, _columns = binder.bind_query_top(query)
        except SqlError as exc:
            code = getattr(exc, "rule", None) or "RP002"
            line = getattr(exc, "line", 0)
            column = getattr(exc, "column", 0)
            message = getattr(exc, "message", None) or str(exc)
            span = ast.Span(line, column) if line else ast.node_span(query)
            self.diags.append(_diag(code, message, span, RULES[code][2]))
            return
        self.binder = binder
        # The dataflow-driven rules (RP114-RP118) run over the bound plan,
        # whose expressions carry source spans.
        self.diags.extend(dataflow_diagnostics(self.catalog, plan))

    # -- query traversal ----------------------------------------------------

    def lint_query(self, query: ast.Query, *, view_def: bool = False) -> None:
        if isinstance(query, ast.WithQuery):
            self._lint_with(query, view_def=view_def)
        elif isinstance(query, ast.SetOp):
            if query.limit is not None and not query.order_by:
                self.report(
                    "RP108",
                    "LIMIT without ORDER BY returns an arbitrary subset",
                    query,
                    hint="add ORDER BY to make the result deterministic",
                )
            self.lint_query(query.left, view_def=view_def)
            self.lint_query(query.right, view_def=view_def)
        elif isinstance(query, ast.Select):
            self._lint_select(query, view_def=view_def)
        elif isinstance(query, ast.Values):
            for sub in _sub_queries(query):
                self.lint_query(sub)

    def _lint_with(self, query: ast.WithQuery, *, view_def: bool) -> None:
        for cte in query.ctes:
            if self.catalog.get(cte.name) is not None:
                self.report(
                    "RP104",
                    f"CTE {cte.name!r} shadows a catalog table or view of "
                    f"the same name",
                    cte,
                    hint="rename the CTE to avoid surprising resolution",
                )
            self.lint_query(cte.query)
        # RP105: a CTE no later CTE and no part of the body ever names.
        for index, cte in enumerate(query.ctes):
            later = [c.query for c in query.ctes[index + 1 :]] + [query.body]
            if not any(
                isinstance(node, ast.TableName)
                and node.name.lower() == cte.name.lower()
                for scope in later
                for node in scope.walk()
            ):
                self.report(
                    "RP105",
                    f"CTE {cte.name!r} is defined but never referenced",
                    cte,
                    hint="drop the unused CTE",
                )
        self.lint_query(query.body, view_def=view_def)

    def _lint_select(self, select: ast.Select, *, view_def: bool) -> None:
        self._rule_select_stars(select, view_def)
        self._rule_duplicate_aliases(select)
        self._rule_limit_without_order(select)
        bound = self.binder.selects.get(id(select)) if self.binder else None
        if bound is not None:
            self._rule_row_grain_measures(select, bound)
            self._rule_summary_advisor(select, bound)
        for sub in _sub_queries(select):
            self.lint_query(sub)

    # -- individual rules ---------------------------------------------------

    def _rule_select_stars(self, select: ast.Select, view_def: bool) -> None:
        if not view_def:
            return
        for item in select.items:
            if isinstance(item.expr, ast.Star):
                star = (
                    f"{item.expr.qualifier}.*" if item.expr.qualifier else "*"
                )
                self.report(
                    "RP109",
                    f"SELECT {star} in a view definition silently changes "
                    f"when the underlying table does",
                    item,
                    hint="name the columns the view exposes",
                )

    def _rule_duplicate_aliases(self, select: ast.Select) -> None:
        seen: set[str] = set()
        for item in select.items:
            if not item.alias:
                continue
            lowered = item.alias.lower()
            if lowered in seen:
                self.report(
                    "RP104",
                    f"output alias {item.alias!r} duplicates an earlier "
                    f"select item",
                    item,
                    hint="give each output column a distinct alias",
                )
            seen.add(lowered)

    def _rule_limit_without_order(self, select: ast.Select) -> None:
        if select.limit is not None and not select.order_by:
            self.report(
                "RP108",
                "LIMIT without ORDER BY returns an arbitrary subset",
                select,
                hint="add ORDER BY to make the result deterministic",
            )

    def _rule_row_grain_measures(
        self, select: ast.Select, bound: BoundSelect
    ) -> None:
        """RP101: a call site that is a bare measure column, in a query the
        binder did not aggregate, is evaluated once per row."""
        if bound.group_exprs is not None:
            return
        roots: list[ast.Node] = [
            item.expr for item in select.items if not item.is_measure
        ]
        if select.where is not None:
            roots.append(select.where)
        roots.extend(o.expr for o in select.order_by)
        for root in roots:
            for site in _call_sites(root, self.binder.sites):
                if isinstance(site, ast.ColumnRef):
                    self.report(
                        "RP101",
                        f"measure {site.name!r} is evaluated at row grain "
                        f"here",
                        site,
                        hint="wrap it in AGGREGATE(...) in a grouped query, "
                        "or apply AT to set the context explicitly",
                    )

    def _rule_summary_advisor(
        self, select: ast.Select, bound: BoundSelect
    ) -> None:
        views = summary_candidates(self.catalog, select)
        if bound.group_exprs is None or not views:
            return
        outcome = match(views, select, self.binder, record=False)
        for report in outcome.reports:
            if report.status == "hit":
                continue
            if report.status == "stale":
                self.report(
                    "RP110",
                    f"summary {report.view!r} is stale and was skipped",
                    select,
                    hint=f"REFRESH MATERIALIZED VIEW {report.view} to "
                    f"re-enable it",
                )
            else:
                self.report(
                    "RP110",
                    f"summary {report.view!r} cannot answer this query "
                    f"[{report.rule}]: {report.reason}",
                    select,
                )
