"""Top-down evaluation of measures (context-sensitive expressions).

This is the interpretation strategy: build the evaluation-context predicate,
select the positions of the measure's source rows that satisfy it, and run
the formula's aggregates over that slice of the source relation.  Results
are memoized per (measure, context) — value-based keys mean that e.g. ``AT
(ALL)`` grand totals are computed once per query, and repeated group contexts
are computed once per group.  Below the memo, what contexts over one source
have in common is computed once per statement and kept with the relation
(:class:`~repro.engine.compile.Relation`): the groupings of its rows by the
expressions equality terms name — one lookup turns such a context into
positions, and the query's own Aggregate, grouping the same relation by the
same expressions, has usually built the grouping already — and the
aggregates' argument columns, which depend on the source row and not on the
context that asks.  Together they are
the engine's realization of the paper's "localized self-join" execution
strategy (section 5.1); disable them with ``Database(cache=False)`` to see
the quadratic behaviour the paper's rewrite avoids (benchmarks/bench_cache.py).
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

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

    Under a watcher that keeps time, each evaluation adds to the measure's
    evaluations, cache hits and time (``Watch.measures``); otherwise the
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
                ctx.pinned.append(term.members)
            elif isinstance(term, VisibleTerm):
                ctx.pinned.append(term.group)
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

    Equality terms are one lookup in a grouping of the source relation by
    their expressions (the 'localized self-join' of paper section 5.1 made
    concrete: when every term is an equality the context is a key), built
    once per statement by :meth:`~repro.engine.compile.Relation.groups` —
    the grouping the query's Aggregate made, when it grouped the same
    relation by the same expressions.  A VISIBLE term with join keys is
    served from the same kind of grouping, its key dimensions after the
    equality terms: one lookup per key some row of the group carries.
    Whatever the grouping does not decide tests the candidates.  Positions
    stay ascending throughout: aggregate input order is source row order.
    With ``enable_cache`` off the relation keeps no columns and no groupings
    either (:func:`~repro.engine.compile.relation_of`) and every row is
    tested: every evaluation computes its arguments over the rows it
    selected.
    """
    relation = relation_of(
        measure.group.source_plan, source_rows_for(measure, ctx), ctx
    )
    candidates, tests = None, terms  # every row, every term
    if ctx.enable_cache:
        candidates, tests = _grouped_positions(terms, ctx, relation)
    counted = tests
    if tests and ctx.enable_cache:
        candidates, tests = _narrowed(tests, candidates, relation, ctx)
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
        candidates = kept
    if ctx.watch is not None:
        for term in counted:
            for name, count in term.counters().items():
                ctx.watch.bump(name, count)
    return Slice(relation, candidates)


def _narrowed(
    tests: list[Term], candidates: Optional[list], relation: Relation, ctx: ExecutionContext
) -> tuple[Optional[list], list[Term]]:
    """The leading VISIBLE terms' local conjuncts, read as columns of the
    source relation at the candidates (:meth:`VisibleTerm.narrow`): what is
    left of the candidates, and of the terms to test on them — a term with
    no keys and no residual conjuncts leaves entirely.  Only leading terms:
    a candidate an earlier term rejects must not evaluate a later one."""
    for index, term in enumerate(tests):
        narrowed = None
        if isinstance(term, VisibleTerm) and (candidates is None or candidates):
            narrowed = term.narrow(relation, candidates, ctx)
        if narrowed is None:
            return candidates, tests[index:]
        candidates, decided = narrowed
        if not decided:
            return candidates, tests[index:]
    return candidates, []


def _grouped_positions(
    terms: list[Term], ctx: ExecutionContext, relation: Relation
) -> tuple[Optional[Sequence[int]], list[Term]]:
    """``(ascending positions of the only source rows the context can
    accept — None: any row —, the terms still to test on them)``.

    The lookup decides every equality term: a dict compares keys as IS NOT
    DISTINCT FROM does, and as SQL ``=`` does on anything but NULL — a
    strict term whose value is NULL accepts nothing.  A VISIBLE term's
    local and residual conjuncts are still tested.  An unhashable value
    leaves every term to the test.
    """
    equal: list[EqTerm] = []
    tests: list[Term] = []
    visible, probe = None, None
    for term in terms:
        if isinstance(term, EqTerm):
            if term.strict and term.value is None:
                return (), []
            equal.append(term)
            continue
        if visible is None and isinstance(term, VisibleTerm):
            probe = term.probe_keys(ctx)
            if probe is not None:
                visible = term
        tests.append(term)
    if visible is not None and not probe:
        return (), tests  # no row of the group carries a key
    exprs = [term.source_expr for term in equal]
    if visible is not None:
        exprs += visible.key_dims
    if not exprs:
        return None, tests
    grouping = relation.groups(exprs, None, ctx)
    if grouping is None:
        return None, terms
    values = tuple([term.value for term in equal])
    try:
        if visible is None:
            return grouping.get(values, ()), tests
        composite = len(visible.key_dims) > 1
        positions: list[int] = []
        for key in probe:
            positions += grouping.get(values + (key if composite else (key,)), ())
    except TypeError:  # an unhashable context value
        return None, terms
    positions.sort()
    return positions, tests


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
            SemiMatchTerm(formula_slice, spec.inherit_offsets, spec.inherit_dim_exprs)
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
