"""Bound AT modifiers and their application to evaluation contexts.

The AT operator (paper section 3.5, Table 3) transforms the evaluation
context.  Modifiers apply **left to right**: ``cse AT (m1 m2)`` is equivalent
to ``(cse AT (m2)) AT (m1)``, i.e. the context is transformed by m1 first and
the result handed to m2.

Application happens in :func:`apply_modifiers` — at runtime for the
interpreter, because SET values and WHERE predicates may reference the
call-site row (correlations) and the incoming context (``CURRENT dim``); at
expansion time for the SQL form, where the same references stay symbolic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Optional

from repro.core.context import (
    ContextSpec,
    EqTerm,
    PredTerm,
    Term,
    VisibleTerm,
)
from repro.engine.compile import compile_expr
from repro.errors import MeasureError
from repro.semantics import bound as b

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.evaluator import EvalEnv, ExecutionContext

__all__ = [
    "BoundModifier",
    "BoundAll",
    "BoundSet",
    "BoundVisible",
    "BoundWhere",
    "apply_modifiers",
    "ValueTerms",
]


class BoundModifier:
    """Base class for bound context modifiers."""

    def child_exprs(self) -> Iterator[b.BoundExpr]:
        return iter(())

    def map_source_exprs(self, fn) -> None:
        """See :meth:`ContextSpec.map_source_exprs`."""

    def map_site_exprs(self, fn) -> None:
        """See :meth:`ContextSpec.map_site_exprs`."""


@dataclass
class BoundAll(BoundModifier):
    """``ALL`` (dim_keys None: clear the entire context) or ``ALL dim...``
    (remove the named dimensions' terms, keeping everything else)."""

    dim_keys: Optional[list[str]] = None


@dataclass
class BoundSet(BoundModifier):
    """``SET dim = value``: pin a dimension to a computed value.

    ``value_expr`` is evaluated on the call-site row; any
    :class:`~repro.semantics.bound.BoundCurrentDim` inside it reads the
    incoming context.
    """

    dim_key: str
    source_expr: b.BoundExpr
    value_expr: b.BoundExpr

    def child_exprs(self) -> Iterator[b.BoundExpr]:
        yield self.value_expr

    def map_source_exprs(self, fn) -> None:
        self.source_expr = fn(self.source_expr, False)

    def map_site_exprs(self, fn) -> None:
        self.value_expr = fn(self.value_expr, False)


@dataclass
class BoundVisible(BoundModifier):
    """``VISIBLE``: conjoin the query's WHERE clause and join conditions."""


@dataclass
class BoundWhere(BoundModifier):
    """``WHERE predicate``: replace the context with ``predicate``.

    The predicate is bound over the measure's source row; call-site columns
    appear as outer references (depth >= 1).  ``outer_refs`` lists them for
    memoization; ``label`` is the predicate's fingerprint.

    Equality conjuncts of the form ``source_expr = call_site_expr`` are
    decomposed at bind time into ``eq_pairs`` so that evaluation can use the
    per-dimension source indexes; ``pred`` holds the residual conjuncts
    (None when fully decomposed).
    """

    pred: Optional[b.BoundExpr]
    label: str = ""
    eq_pairs: list[tuple[b.BoundExpr, b.BoundExpr]] = field(default_factory=list)
    outer_refs: list[tuple[int, int]] = field(init=False)

    def __post_init__(self) -> None:
        self.outer_refs = [
            (node.depth, node.offset)
            for node in b.walk(self.pred)
            if isinstance(node, b.BoundOuterColumn)
        ] if self.pred is not None else []

    def child_exprs(self) -> Iterator[b.BoundExpr]:
        return iter(())

    def map_source_exprs(self, fn) -> None:
        if self.pred is not None:
            # The call-site row is the predicate's enclosing scope.
            self.pred = fn(self.pred, True)
        self.eq_pairs = [
            (fn(source_expr, False), value_expr)
            for source_expr, value_expr in self.eq_pairs
        ]

    def map_site_exprs(self, fn) -> None:
        if self.pred is not None:
            self.pred = fn(self.pred, True)
        self.eq_pairs = [
            (source_expr, fn(value_expr, True))
            for source_expr, value_expr in self.eq_pairs
        ]
        self.__post_init__()  # outer_refs follow pred


def apply_modifiers(terms: list, spec: ContextSpec, make, *site) -> list:
    """Apply ``spec.modifiers`` to ``terms``, left to right.

    The algebra — ``ALL`` clears, ``ALL d`` removes by ``dim_key``, ``SET``
    replaces, ``VISIBLE`` appends, ``WHERE`` replaces everything — exists
    once, over whatever carries a term: anything with a ``dim_key``.
    ``make`` builds the carrier's terms, each call given ``*site``: the
    evaluator's :class:`ValueTerms` (values, tested against source rows; the
    site is ``env, ctx``) or SQL expansion's (predicates, printed)."""
    for modifier in spec.modifiers:
        if isinstance(modifier, BoundAll):
            if modifier.dim_keys is None:
                terms = []
            else:
                removed = set(modifier.dim_keys)
                terms = [t for t in terms if t.dim_key not in removed]
        elif isinstance(modifier, BoundSet):
            pinned = make.set_term(modifier, terms, *site)
            terms = [t for t in terms if t.dim_key != modifier.dim_key]
            terms = terms + [pinned]
        elif isinstance(modifier, BoundVisible):
            terms = terms + make.visible_terms(spec, *site)
        elif isinstance(modifier, BoundWhere):
            terms = make.where_terms(modifier, *site)
        else:  # pragma: no cover - defensive
            raise MeasureError(f"unknown modifier {type(modifier).__name__}")
    return terms


class ValueTerms:
    """The evaluator's terms: each modifier's value computed on the
    call-site row ``env`` now, to be tested against source rows."""

    @staticmethod
    def set_term(
        modifier: BoundSet,
        terms: list[Term],
        env: Optional["EvalEnv"],
        ctx: "ExecutionContext",
    ) -> Term:
        """The SET value on the call-site row.  ``CURRENT dim`` inside it
        reads the incoming terms through ``ctx.current_terms`` at call time,
        so the expression compiles once like any other (and nests: a value
        that itself evaluates a measure with a SET restores ours when it
        returns)."""
        incoming, ctx.current_terms = ctx.current_terms, terms
        try:
            value = compile_expr(modifier.value_expr)(env.row, env.parent, ctx)
        finally:
            ctx.current_terms = incoming
        return EqTerm(modifier.dim_key, modifier.source_expr, value)

    @staticmethod
    def where_terms(
        modifier: BoundWhere,
        env: Optional["EvalEnv"],
        ctx: "ExecutionContext",
    ) -> list[Term]:
        terms: list[Term] = []
        for source_expr, value_expr in modifier.eq_pairs:
            # The value side references the call site at depth 1.
            # dim_key=None: these are predicate terms, not removable
            # dimension terms.
            value = compile_expr(value_expr)((), env, ctx)
            terms.append(EqTerm(None, source_expr, value, strict=True))
        if modifier.pred is not None:
            key_values: tuple = ()
            if modifier.outer_refs and env is not None:
                try:
                    key_values = tuple(
                        env.at_depth(depth - 1).row[offset]
                        for depth, offset in modifier.outer_refs
                    )
                except Exception:  # noqa: BLE001 - fall back to uncacheable
                    key_values = (object(),)
            terms.append(PredTerm(modifier.pred, env, key_values, modifier.label))
        return terms

    @staticmethod
    def visible_terms(
        spec: ContextSpec, env: Optional["EvalEnv"], ctx: "ExecutionContext"
    ) -> list[Term]:
        """The VISIBLE term for the current call site.  The visible row set
        is the current group's input rows (captured by the Aggregate
        operator) or, at row-grain call sites, the current row itself."""
        info = spec.visible
        if info is None:
            # Nothing filters the query; VISIBLE adds no constraint.
            return []
        if spec.captured_rows_offset is not None and env is not None:
            group_rows = env.row[spec.captured_rows_offset]
        elif env is not None:
            group_rows = (env.row,)
        else:
            group_rows = ()
        parent = env.parent if env is not None else None
        return [VisibleTerm(info, group_rows, parent)]
