"""Top-down evaluation of measures (context-sensitive expressions).

This is the interpretation strategy: build the evaluation-context predicate,
select the positions of the measure's source rows that satisfy it, and run
the formula's aggregates over that slice of the source relation.  Results
are memoized per (measure, context) — value-based keys mean that e.g. ``AT
(ALL)`` grand totals are computed once per query, and repeated group contexts
are computed once per group.  Below the memo, what contexts over one source
have in common is computed once per statement and kept with the relation:
the per-dimension hash indexes that turn a context into positions, and the
aggregates' argument columns (:class:`~repro.engine.compile.Relation`), which
depend on the source row and not on the context that asks.  Together they are
the engine's realization of the paper's "localized self-join" execution
strategy (section 5.1); disable them with ``Database(cache=False)`` to see
the quadratic behaviour the paper's rewrite avoids (benchmarks/bench_cache.py).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.context import (
    ContextSpec,
    EqTerm,
    SemiMatchTerm,
    Term,
    VisibleTerm,
    summarize_terms,
)
from repro.core.modifiers import BoundAll, BoundWhere, ValueTerms, apply_modifiers
from repro.engine.compile import (
    Relation,
    Slice,
    compile_expr,
    compile_formula,
    relation_of,
    slot_key,
)
from repro.engine.evaluator import EvalEnv, ExecutionContext
from repro.engine.executor import execute_plan
from repro.errors import ExecutionError
from repro.semantics import bound as b

__all__ = ["evaluate_measure", "source_rows_for"]


def evaluate_measure(
    node: b.BoundMeasureEval,
    env: Optional[EvalEnv],
    ctx: ExecutionContext,
    formula_slice: Optional[Slice] = None,
) -> Any:
    """Evaluate a measure at a call site.

    ``env`` is the call-site environment (the row being produced).
    ``formula_slice`` is only set for inherited contexts: the outer measure's
    already-selected source rows.

    Under a watcher that keeps spans, each evaluation is a
    ``measure:<name>`` span annotated with the cache verdict; otherwise the
    wrapper is one early exit.
    """
    watch = ctx.watch
    if watch is None or watch.tracer is None:
        return _evaluate_measure_impl(node, env, ctx, formula_slice)
    token = watch.enter_measure(node.measure.name)
    hits_before = ctx.measure_cache_hits
    try:
        result = _evaluate_measure_impl(node, env, ctx, formula_slice)
    except BaseException:
        watch.exit_measure(token, cache_hit=False)
        raise
    watch.exit_measure(
        token, cache_hit=ctx.measure_cache_hits > hits_before
    )
    return result


def _evaluate_measure_impl(
    node: b.BoundMeasureEval,
    env: Optional[EvalEnv],
    ctx: ExecutionContext,
    formula_slice: Optional[Slice] = None,
) -> Any:
    spec = node.context
    if _first_modifier_replaces(spec):
        # The first modifier discards the incoming context (WHERE / bare
        # ALL): skip building the default terms per call.
        terms = apply_modifiers([], spec, ValueTerms, env, ctx)
    else:
        terms = _base_terms(spec, env, ctx, formula_slice)
        terms = apply_modifiers(terms, spec, ValueTerms, env, ctx)

    if ctx.watch is not None:
        for kind, count in summarize_terms(terms).items():
            ctx.watch.bump(f"context_terms.{kind}", count)

    ctx.measure_evaluations += 1
    cache_key = None
    if ctx.enable_cache:
        for term in terms:
            # Terms keyed by object identity must keep that object alive for
            # the whole execution, or a recycled id would alias cache entries.
            if isinstance(term, SemiMatchTerm):
                ctx.pinned.append(term.rows)
            elif isinstance(term, VisibleTerm):
                ctx.pinned.append(term.group_rows)
        try:
            cache_key = (
                id(node.measure),
                frozenset(term.cache_key() for term in terms),
            )
        except TypeError:
            cache_key = None
        if cache_key is not None and cache_key in ctx.measure_cache:
            ctx.measure_cache_hits += 1
            return ctx.measure_cache[cache_key]

    if ctx.watched:
        # An uncached evaluation filters the whole source relation: the
        # phase a VISIBLE query spends its time in must see a cancel too.
        ctx.checkpoint()
    selected = _context_slice(node.measure, terms, ctx)
    result = compile_formula(node.measure.formula)(selected, env, ctx)
    if cache_key is not None:
        ctx.measure_cache[cache_key] = result
    return result


def _context_slice(measure, terms: list[Term], ctx: ExecutionContext) -> Slice:
    """The slice of the measure's source relation satisfying the context.

    Equality terms are served from per-dimension hash indexes built once per
    measure source (the 'localized self-join' of paper section 5.1 made
    concrete): a context of k EqTerms costs an index intersection instead of
    a full scan per evaluation.  A VISIBLE term with join keys is served the
    same way from the group side — the source rows carrying a key value some
    row of the group carries — so grouping by another relation's column
    costs a lookup per group row, not a test per source row per group.
    Whatever the indexes do not decide filters the candidates.  Positions
    stay ascending throughout: aggregate input order is source row order.
    With ``enable_cache`` off the relation keeps no columns either
    (:func:`~repro.engine.compile.relation_of`): every evaluation computes
    its arguments over the rows it selected.
    """
    relation = relation_of(
        measure.group.source_plan, source_rows_for(measure, ctx), ctx
    )
    buckets: list = []
    tests: list[Term] = []
    for term in terms:
        positions = None
        if ctx.enable_cache:
            positions = _indexed_positions(term, ctx, relation)
        if positions is not None:
            buckets.append(positions)
        # Positions decide an equality term; a VISIBLE term's local and
        # residual conjuncts still test each candidate.
        if positions is None or not isinstance(term, EqTerm):
            tests.append(term)

    candidates = None  # every row
    if buckets:
        buckets.sort(key=len)
        candidates = buckets[0]
        for bucket in buckets[1:]:
            as_set = set(bucket)
            candidates = [i for i in candidates if i in as_set]
    if tests:
        # A term's test may itself scan (VISIBLE's residual conjuncts, over
        # the group's rows): this loop checkpoints like the executor's row
        # loops, and that scan checkpoints on its own count.
        rows, watched = relation.rows, ctx.watched
        kept: list[int] = []
        for index, position in enumerate(
            range(len(rows)) if candidates is None else candidates
        ):
            if watched and not index & 0xFF:
                ctx.checkpoint(buffered_rows=len(kept))
            if _accept(tests, rows[position], ctx):
                kept.append(position)
        if ctx.watch is not None:
            for term in tests:
                for name, count in term.counters().items():
                    ctx.watch.bump(name, count)
        candidates = kept
    return Slice(relation, candidates)


def _indexed_positions(
    term: Term, ctx: ExecutionContext, relation: Relation
) -> Optional[list[int]]:
    """Ascending positions of the only source rows ``term`` can accept, read
    off a per-statement index; None when no index serves the term."""
    if isinstance(term, EqTerm):
        index = _dimension_index((term.source_expr,), ctx, relation)
        if index is None:
            return None
        try:
            return index.get(term.value, ())
        except TypeError:  # unhashable context value
            return None
    if not isinstance(term, VisibleTerm):
        return None
    # The source rows whose key dimensions equal the key of some surviving
    # row of the term's group.
    keys = term.probe_keys(ctx)
    if keys is None:
        return None
    if not keys:
        return []
    index = _dimension_index(tuple(term.key_dims), ctx, relation)
    if index is None:
        return None
    positions: list[int] = []
    for key in keys:
        positions += index.get(key, ())
    positions.sort()
    return positions


def _dimension_index(exprs: tuple, ctx: ExecutionContext, relation: Relation):
    """value -> ascending row positions for one dimension of one measure
    source (``relation``, the statement's: it has its owner), or tuple of
    values -> positions for several; built once per statement from the
    relation's columns.  None when a value is unhashable: no index."""
    names = tuple([slot_key(expr) for expr in exprs])
    key = (id(relation.owner), names[0] if len(names) == 1 else names)
    cache = ctx.dim_indexes
    if key in cache:
        return cache[key]
    columns = [relation.column(expr, None, ctx).values for expr in exprs]
    index: dict = {}
    watched = ctx.watched
    try:
        for position, value in enumerate(
            columns[0] if len(columns) == 1 else zip(*columns)
        ):
            if watched and not position & 0xFF:
                ctx.checkpoint(buffered_rows=position)
            index.setdefault(value, []).append(position)
    except TypeError:
        cache[key] = None  # unhashable dimension values: no index
        return None
    cache[key] = index
    return index


def _first_modifier_replaces(spec: ContextSpec) -> bool:
    if spec.kind == "inherited" or not spec.modifiers:
        return False
    first = spec.modifiers[0]
    if isinstance(first, BoundWhere):
        return True
    return isinstance(first, BoundAll) and first.dim_keys is None


def _accept(terms: list[Term], row: tuple, ctx: ExecutionContext) -> bool:
    for term in terms:
        if not term.test(row, ctx):
            return False
    return True


def _base_terms(
    spec: ContextSpec,
    env: Optional[EvalEnv],
    ctx: ExecutionContext,
    formula_slice: Optional[Slice],
) -> list[Term]:
    if spec.kind == "inherited":
        if formula_slice is None:
            raise ExecutionError(
                "inherited measure context evaluated outside a formula"
            )
        return [
            SemiMatchTerm(
                tuple(formula_slice.rows()), spec.inherit_offsets, spec.inherit_dim_exprs
            )
        ]

    terms: list[Term] = []
    bitmap = 0
    if spec.grouping_id_offset is not None and env is not None:
        bitmap = env.row[spec.grouping_id_offset] or 0
    for term_spec in spec.group_terms:
        if term_spec.grouping_bit is not None and (
            (bitmap >> term_spec.grouping_bit) & 1
        ):
            # This dimension is rolled up in the current grouping set, so it
            # contributes no term (paper Listing 8's grand-total row).
            continue
        value = (
            None
            if env is None
            else compile_expr(term_spec.value_expr)(env.row, env.parent, ctx)
        )
        terms.append(EqTerm(term_spec.dim_key, term_spec.source_expr, value))
    return terms


def source_rows_for(measure, ctx: ExecutionContext) -> list[tuple]:
    """The measure's source relation, materialized once per execution.

    The relation is self-contained (no outer references), so its rows do not
    depend on the call site; ``execute_plan`` reads and fills the same slot
    when the query's FROM is this very node, whichever gets there first.
    """
    plan = measure.group.source_plan
    rows = ctx.source_rows_cache.get(id(plan))
    if rows is None:
        rows = ctx.source_rows_cache[id(plan)] = execute_plan(plan, ctx)
    elif ctx.watch is not None:
        ctx.watch.operator_count(plan, "shared_hits")
    return rows
