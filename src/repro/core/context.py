"""Evaluation contexts for context-sensitive expressions.

The paper (section 3.4) defines the evaluation context as *a predicate whose
terms are one or more columns from the same table*.  We represent it as a
list of :class:`Term` objects; a source row is in the context iff every term
accepts it.  Term kinds:

* :class:`EqTerm` — ``dim IS NOT DISTINCT FROM value`` (group keys, SET);
* :class:`PredTerm` — an arbitrary predicate over the source row (AT WHERE,
  and the translatable part of VISIBLE);
* :class:`VisibleTerm` — the cross-relation part of VISIBLE in join queries:
  a source row is visible iff some row of the current group still satisfies
  the query's WHERE clause and join conditions after substituting the
  candidate's dimension values for the measure relation's columns;
* :class:`SemiMatchTerm` — inherited context for measures over measures: the
  candidate's dimension projection must match one of the outer filtered rows.

:class:`ContextSpec` is the *bind-time* description of how a call site builds
its context: which group keys map onto the measure's dimensions, where the
hidden grouping-id and captured-rows columns live, what VISIBLE would add,
and the bound ``AT`` modifiers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator, Optional

from repro.engine.compile import compile_expr, memo
from repro.semantics.bound import BoundExpr, fingerprint, walk
from repro.types import is_not_distinct, sql_eq

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.modifiers import BoundModifier
    from repro.engine.evaluator import EvalEnv, ExecutionContext

__all__ = [
    "Term",
    "summarize_terms",
    "EqTerm",
    "PredTerm",
    "VisibleTerm",
    "SemiMatchTerm",
    "GroupTermSpec",
    "VisibleInfo",
    "ContextSpec",
]


class Term:
    """One conjunct of an evaluation context.

    ``dim_key`` is the dimension identity for ALL/SET matching; it is None
    for non-dimension terms (predicates, VISIBLE, inherited matches).
    """

    def test(self, source_row: tuple, ctx: "ExecutionContext") -> bool:
        raise NotImplementedError  # pragma: no cover - interface

    def cache_key(self) -> tuple:
        raise NotImplementedError  # pragma: no cover - interface

    def current_value(self) -> tuple[bool, Any]:
        """(pinned, value) for CURRENT dim resolution."""
        return False, None

    @property
    def kind(self) -> str:
        """Stable lowercase slug (``eqterm`` ...) for profiling counters."""
        return type(self).__name__.lower()


def summarize_terms(terms: list["Term"]) -> dict[str, int]:
    """Term-kind histogram for one evaluation context.

    The measure evaluator feeds this to the profiler so a trace shows what a
    context was made of (e.g. ``{"eqterm": 2, "visibleterm": 1}``) without
    serializing the terms themselves.
    """
    histogram: dict[str, int] = {}
    for term in terms:
        key = term.kind
        histogram[key] = histogram.get(key, 0) + 1
    return histogram


@dataclass
class EqTerm(Term):
    """``source_expr IS NOT DISTINCT FROM value`` — or, when ``strict``,
    plain SQL ``=`` (NULLs never match), used for decomposed AT WHERE
    equality conjuncts.

    WHERE-derived terms carry ``dim_key`` None: they are predicate terms for
    the modifier algebra (``ALL dim`` does not remove them — the context's
    meaning must not depend on how its predicate was spelled, paper section
    3.5) while still being servable from the dimension indexes via their
    source-expression fingerprint.
    """

    dim_key: Optional[str]
    source_expr: BoundExpr
    value: Any
    strict: bool = False

    @property
    def index_key(self) -> str:
        """What the source rows are indexed by: the source expression as it
        is numbered *now* (``dim_key`` is the binder's name for the
        dimension, which column pruning does not renumber)."""
        return memo(self.source_expr, "_fingerprint", fingerprint)

    def test(self, source_row: tuple, ctx: "ExecutionContext") -> bool:
        actual = compile_expr(self.source_expr)(source_row, None, ctx)
        if self.strict:
            return sql_eq(actual, self.value) is True
        return is_not_distinct(actual, self.value)

    def cache_key(self) -> tuple:
        return ("eq", self.index_key, self.value, self.strict)

    def current_value(self) -> tuple[bool, Any]:
        return True, self.value


@dataclass
class PredTerm(Term):
    """An arbitrary predicate over the source row.

    ``parent_env`` supplies the call-site row for correlated references
    (depth >= 1) inside the predicate; ``key_values`` are the runtime values
    of those references, used for memoization.
    """

    pred: BoundExpr
    parent_env: Optional["EvalEnv"]
    key_values: tuple
    label: str
    dim_key: Optional[str] = None

    def test(self, source_row: tuple, ctx: "ExecutionContext") -> bool:
        return compile_expr(self.pred)(source_row, self.parent_env, ctx) is True

    def cache_key(self) -> tuple:
        return ("pred", self.label, self.key_values)


@dataclass
class VisibleTerm(Term):
    """Cross-relation VISIBLE semantics for join queries.

    A candidate source row ``i`` is accepted iff there exists a row ``g`` in
    ``group_rows`` (the current group's joined input rows) such that every
    predicate in ``preds`` holds on ``g`` *with the measure relation's column
    positions replaced by* ``i``'s dimension values.
    """

    preds: list[BoundExpr]
    group_rows: tuple
    range_start: int
    range_end: int
    offset_dim_exprs: list[Optional[BoundExpr]]
    parent_env: Optional["EvalEnv"]
    dim_key: Optional[str] = None

    def test(self, source_row: tuple, ctx: "ExecutionContext") -> bool:
        substituted = tuple(
            [
                None if expr is None else compile_expr(expr)(source_row, None, ctx)
                for expr in self.offset_dim_exprs
            ]
        )
        preds = [compile_expr(pred) for pred in self.preds]
        start, end, parent = self.range_start, self.range_end, self.parent_env
        for group_row in self.group_rows:
            candidate = group_row[:start] + substituted + group_row[end:]
            for pred in preds:
                if pred(candidate, parent, ctx) is not True:
                    break
            else:
                return True
        return False

    def cache_key(self) -> tuple:
        return ("vis", id(self.group_rows))


@dataclass
class SemiMatchTerm(Term):
    """Inherited context for measures composed from input measures.

    A candidate source row is accepted iff its projection through
    ``dim_exprs`` matches (IS NOT DISTINCT FROM, per column) some row of
    ``rows`` restricted to ``offsets``.
    """

    rows: tuple
    offsets: list[int]
    dim_exprs: list[BoundExpr]
    dim_key: Optional[str] = None

    def test(self, source_row: tuple, ctx: "ExecutionContext") -> bool:
        projection = [
            compile_expr(expr)(source_row, None, ctx) for expr in self.dim_exprs
        ]
        for row in self.rows:
            if all(
                is_not_distinct(row[offset], value)
                for offset, value in zip(self.offsets, projection)
            ):
                return True
        return False

    def cache_key(self) -> tuple:
        return ("semi", id(self.rows), tuple(self.offsets))


# ---------------------------------------------------------------------------
# Bind-time specification
# ---------------------------------------------------------------------------


@dataclass
class GroupTermSpec:
    """A potential EqTerm: one call-site group key mapped onto a dimension.

    ``value_expr`` is evaluated on the call-site row; ``grouping_bit`` is the
    group key's position for grouping-set suppression (None = always active,
    used for row-grain contexts).
    """

    dim_key: str
    source_expr: BoundExpr
    value_expr: BoundExpr
    grouping_bit: Optional[int] = None


@dataclass
class VisibleInfo:
    """What VISIBLE adds: the query's WHERE and join-condition conjuncts over
    the FROM row, plus the measure relation's position within that row."""

    preds: list[BoundExpr]
    range_start: int
    range_end: int
    offset_dim_exprs: list[Optional[BoundExpr]]


@dataclass
class ContextSpec:
    """Bind-time recipe for a call site's evaluation context.

    ``kind`` is ``'group'`` (aggregate query), ``'row'`` (row-grain call
    sites: WHERE clause, non-aggregate SELECT), or ``'inherited'`` (inside a
    composed measure's formula).
    """

    kind: str
    group_terms: list[GroupTermSpec] = field(default_factory=list)
    grouping_id_offset: Optional[int] = None
    captured_rows_offset: Optional[int] = None
    visible: Optional[VisibleInfo] = None
    modifiers: list["BoundModifier"] = field(default_factory=list)
    #: dim offsets/exprs for inherited contexts (measure-over-measure).
    inherit_offsets: list[int] = field(default_factory=list)
    inherit_dim_exprs: list[BoundExpr] = field(default_factory=list)

    def child_exprs(self) -> Iterator[BoundExpr]:
        """Expressions evaluated against the call-site row (for walkers)."""
        for term in self.group_terms:
            yield term.value_expr
        for modifier in self.modifiers:
            yield from modifier.child_exprs()

    def applies_visible(self) -> bool:
        """Whether evaluation reads ``visible``: only a VISIBLE modifier does,
        and only when the query has predicates for it to conjoin."""
        from repro.core.modifiers import BoundVisible

        return self.visible is not None and any(
            isinstance(modifier, BoundVisible) for modifier in self.modifiers
        )

    def map_source_exprs(self, fn) -> None:
        """Replace, in place, every expression evaluated over the measure's
        *source* rows by ``fn(expr, correlated)`` (``correlated``: the
        call-site row is its enclosing scope).  The one list of what a
        context reads of its source relation besides the formula: column
        pruning counts and renumbers through it, the validator checks."""
        for term in self.group_terms:
            term.source_expr = fn(term.source_expr, False)
        self.inherit_dim_exprs = [fn(e, False) for e in self.inherit_dim_exprs]
        for modifier in self.modifiers:
            modifier.map_source_exprs(fn)
        if self.applies_visible():
            self.visible.offset_dim_exprs = [
                None if e is None else fn(e, False)
                for e in self.visible.offset_dim_exprs
            ]

    def fingerprint(self) -> str:
        from repro.semantics.bound import fingerprint as fp

        parts = [self.kind]
        for term in self.group_terms:
            parts.append(f"{term.dim_key}={fp(term.value_expr)}@{term.grouping_bit}")
        for modifier in self.modifiers:
            parts.append(repr(type(modifier).__name__))
        return ";".join(parts)
