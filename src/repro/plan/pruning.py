"""Required columns: the optimizer's last step.

Top-down, every node learns which of its output columns anything above it
reads, and the plan is rebuilt to carry no others where tuples are created:
a :class:`~repro.plan.logical.Project` drops the expressions nobody reads,
a maximal left spine of joins that can run as hash steps becomes one
:class:`~repro.plan.logical.JoinPipeline` emitting the columns read above it,
and an input of any other :class:`~repro.plan.logical.Join` that passes
stored rows through (a scan, a filtered scan) is cut to the join keys plus
what is read above the join.  Any other ``Scan`` is left alone: its rows are
the stored tuples (a pipeline reads them by offset), and narrowing them
would only allocate.

An ``Aggregate`` over its own row-pure ``Project`` groups the Project's
input instead, the Project's expressions substituted into its keys and
arguments (:func:`_groups_through`): no row of the Project is built, and a
computed key such as ``YEAR(orderdate)`` is the same slot of a measure's
source relation as the measure's dimension.  A ``Filter`` between the two
goes along when the Project's columns it and the Aggregate read are plain
references: it then filters the measure's source itself, and its predicate
is the same slot as VISIBLE's local copy of it.

"Above" goes *through* measure evaluations.  A measure's source relation is
read by the main tree (when the query's FROM is that same node) and by the
evaluator, so what is required of it is the union of what its main-tree
parent reads, what the formula of every reachable
:class:`~repro.semantics.bound.BoundMeasureEval` reads, and every
source-relative expression the context machinery evaluates at run time
(group terms, ``SET`` dimensions, ``AT WHERE`` predicates, VISIBLE's
dimension map, inherited dimension maps).  Those
expressions are renumbered with the relation, by :meth:`_Pruner.remap`, once
per expression object.

The pass stops — asks for every column, which leaves a subtree's numbering
alone — wherever offsets are interpreted outside the plan or it cannot see
every reader: under an ``Aggregate`` whose group rows a VISIBLE above reads
(``GroupRef.rows_read``: it substitutes into them by position; one that
only asks whether a group is empty reads none), under ``Distinct`` and set
operations (every column is the value), and under any node whose
expressions hold a subquery, a measure evaluation or an aggregate-output
slot (their call-site offsets and outer references point into that node's
input row).
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from repro.core.definition import Dimension
from repro.engine.compile import row_pure
from repro.engine.executor import pipeline_keys
from repro.errors import InternalError
from repro.plan import logical as plans
from repro.semantics import bound as b
from repro.semantics.correlate import transform_expr

__all__ = ["prune_columns"]

#: "Every column": what a stop asks of its input.
ALL = None

Need = Optional[set]


def prune_columns(
    plan: plans.LogicalPlan,
    source_of: Callable[[plans.LogicalPlan], plans.LogicalPlan],
) -> plans.LogicalPlan:
    """``plan`` with every relation narrowed to the columns read of it.

    ``source_of`` maps a measure group's source plan to the node the
    optimizer's rules rewrote it into; every group reachable from ``plan``
    is re-pointed to it here (and then to its narrowed form), so the main
    tree and the evaluator keep sharing one node.
    """
    pruner = _Pruner(source_of)
    pruner.visit(plan, ALL)
    pruner.drain()
    if not pruner.narrows:
        return plan
    return pruner.rebuild(plan)


def _union(first: Need, second: Need) -> Need:
    return ALL if first is ALL or second is ALL else first | second


def _narrows_itself(plan: plans.LogicalPlan) -> bool:
    """Whether ``plan`` emits tuples it built from what was asked of it (so
    a join above need not cut it again)."""
    while isinstance(plan, (plans.Filter, plans.Sort, plans.Limit)):
        plan = plan.input
    return isinstance(plan, (plans.Project, plans.Join, plans.JoinPipeline))


def _groups_through(node: plans.Aggregate, read: set) -> bool:
    """Whether ``node`` can group its input Project's input instead, so that
    no row of the Project is built: the Project is the Aggregate's own (not
    a shared source) and row-pure, so its expressions compute the same
    values wherever they are evaluated, over the same rows; and no call has
    a FILTER, under which an argument is evaluated on fewer rows than the
    Project evaluates it.  (Where a VISIBLE reads the group rows by
    position, the caller asks for every column and does not ask this.)

    A row-pure ``Filter`` between them goes along when every column of the
    Project that it or the Aggregate reads (``read``, with the predicate's)
    is a plain reference: nothing the Project computes is then evaluated on
    fewer rows than before, and the Filter runs over the Project's input."""
    project = node.input
    if isinstance(project, plans.Filter):
        predicate, project = project.predicate, project.input
        if not (
            isinstance(project, plans.Project)
            and row_pure(predicate)
            and all(
                type(project.exprs[offset]) is b.BoundColumn
                for offset in read | _offsets(predicate)
            )
        ):
            return False
    return (
        isinstance(project, plans.Project)
        and not project.shared
        and all(call.filter_where is None for call in node.agg_calls)
        and all(map(row_pure, project.exprs))
    )


def _offsets(expr: b.BoundExpr) -> set:
    """The offsets of the current row a row-pure ``expr`` reads."""
    return {node.offset for node in b.walk(expr) if type(node) is b.BoundColumn}


def _chain(top: plans.Join) -> Optional[tuple]:
    """``(inputs, joins innermost first)`` of the pipeline ``top`` becomes —
    its maximal left spine of hash steps, ending above a shared join (which
    is materialized for its other readers) — or None when it is no step."""
    joins, node = [], top
    while isinstance(node, plans.Join) and pipeline_keys(node) and (
        node is top or not node.shared
    ):
        joins.insert(0, node)
        node = node.left
    return ([node] + [join.right for join in joins], joins) if joins else None


def _identity(width: int) -> dict:
    return {offset: offset for offset in range(width)}


def _renumbering(keep: list) -> Optional[dict]:
    """Old offset -> new offset when only ``keep`` (sorted) survive; None
    when they are a prefix, so every surviving offset is what it was."""
    if keep[-1:] == [len(keep) - 1]:
        return None
    return {old: new for new, old in enumerate(keep)}


#: Expression leaves that read no offset of the current row.
_NO_OFFSETS = frozenset(
    [b.BoundLiteral, b.BoundParameter, b.BoundOuterColumn, b.BoundCurrentDim]
)


class _Dropped(KeyError):
    """An expression reads a column that was pruned away."""


class _Pruner:
    def __init__(self, source_of):
        self.source_of = source_of
        #: id(node) -> (node, the output columns read of it so far).
        self.need: dict[int, tuple] = {}
        #: Shared nodes whose need grew since it was last passed down: they
        #: wait until every reader found so far has spoken.
        self.pending: list = []
        #: id(eval) -> (eval, its group's source, the source whose formula
        #: holds it or None); each is walked and renumbered once.
        self.evals: dict[int, tuple] = {}
        self.subqueries: dict[int, b.BoundSubquery] = {}
        #: (id(formula), id(source)) already counted.
        self.formulas: set = set()
        self.narrows = False
        #: Rebuild state: id(node) -> (new node, old offset -> new offset or
        #: None for "unchanged"); (id(expr, before or after), id(that map))
        #: -> (after, before, the map), which also pins the ids.
        self.built: dict[int, tuple] = {}
        self.moved: dict[tuple, tuple] = {}
        #: id(Aggregate) of those that group their Project's input instead.
        self.inlined: set[int] = set()

    # -- what is read ---------------------------------------------------------

    def visit(self, node: plans.LogicalPlan, need: Need) -> None:
        """Add ``need`` to what is read of ``node`` and pass it down."""
        seen = self.need.get(id(node))
        if seen is not None:
            known = seen[1]
            if known is ALL or (need is not ALL and need <= known):
                return
            need = _union(known, need)
        self.need[id(node)] = (node, need)
        if node.shared:
            self.pending.append(node)
        else:
            self.push(node, need)

    def drain(self) -> None:
        while self.pending:
            node = self.pending.pop()
            self.push(node, self.need[id(node)][1])

    def push(self, node: plans.LogicalPlan, need: Need) -> None:
        if isinstance(node, plans.Scan):
            return  # stored rows: narrowed, if at all, by the join above
        if isinstance(node, plans.Project):
            exprs = node.exprs
            if need is not ALL and len(need) < len(exprs):
                exprs = [exprs[i] for i in need]
                self.narrows = True
            self.visit(node.input, self.reads(exprs))
        elif isinstance(node, plans.Filter):
            self.visit(node.input, _union(need, self.reads([node.predicate])))
        elif isinstance(node, plans.Sort):
            keys = self.reads([spec.expr for spec in node.keys])
            self.visit(node.input, _union(need, keys))
        elif isinstance(node, plans.Limit):
            self.reads([e for e in (node.limit, node.offset) if e is not None])
            self.visit(node.input, need)
        elif isinstance(node, plans.Join):
            # Every condition of a spine is numbered like its top join's row.
            chain = _chain(node)
            sources, joins = chain or ([node.left, node.right], [node])
            conditions = [j.condition for j in joins if j.condition is not None]
            read = _union(need, self.reads(conditions))
            self.narrows = self.narrows or chain is not None
            base = 0
            for source in sources:
                cut = ALL
                if read is not ALL:
                    cut = {c - base for c in read if 0 <= c - base < source.arity}
                    if len(cut) < source.arity and not _narrows_itself(source):
                        self.narrows = True
                self.visit(source, cut)
                base += source.arity
        elif isinstance(node, plans.Aggregate):
            read = self.reads([*node.group_exprs, *node.agg_calls])
            if node.groups is not None and node.groups.rows_read:
                read = ALL  # VISIBLE substitutes into a group's rows by position
            if read is not ALL and _groups_through(node, read):
                self.inlined.add(id(node))
                self.narrows = True
            self.visit(node.input, read)
        elif isinstance(node, plans.Window):
            read = self.reads(node.calls)
            if need is not ALL and read is not ALL:
                width = node.input.arity
                read |= {c for c in need if c < width}
            else:
                read = ALL
            self.visit(node.input, read)
        else:
            if isinstance(node, plans.ValuesPlan):
                self.reads([cell for row in node.rows for cell in row])
            # Distinct, set operations: every column is the value.
            for child in node.inputs():
                self.visit(child, ALL)

    def reads(
        self,
        exprs: Iterable[b.BoundExpr],
        source: Optional[plans.LogicalPlan] = None,
    ) -> Need:
        """The offsets of the current row that ``exprs`` read, or ``ALL``
        when something in them interprets offsets on its own.

        ``source`` is the measure source relation whose rows ``exprs`` are
        evaluated over, None for a plan node's input row.  A measure
        evaluation's call-site offsets point at the plan node's input row,
        so one found in a formula pins nothing of the source.
        """
        columns: set = set()
        pinned = False
        stack = list(exprs)
        while stack:
            expr = stack.pop()
            kind = type(expr)
            if kind is b.BoundColumn:
                columns.add(expr.offset)
            elif kind is b.BoundCall:
                stack.extend(expr.args)
            elif kind in _NO_OFFSETS:
                pass
            elif kind is b.BoundMeasureEval:
                pinned = pinned or source is None
                self.found_eval(expr, source)
            elif kind is b.BoundSubquery:
                pinned = True  # its depth-1 references are offsets here
                if id(expr) not in self.subqueries:
                    self.subqueries[id(expr)] = expr
                    self.visit(expr.plan, ALL)
                if expr.operand is not None:
                    stack.append(expr.operand)
            elif kind is b.BoundAggRef or kind is b.BoundGroupingId:
                pinned = True
            else:
                stack.extend(expr.children())
        return ALL if pinned else columns

    def found_eval(
        self, node: b.BoundMeasureEval, inside: Optional[plans.LogicalPlan]
    ) -> None:
        """Count what evaluating ``node`` reads of its source relation;
        ``inside`` is the source whose formula holds it, if any."""
        if id(node) in self.evals:
            return
        measure, spec = node.measure, node.context
        group = measure.group
        source = group.source_plan = self.source_of(group.source_plan)
        self.evals[id(node)] = (node, source, inside)

        source_side: list = []
        spec.map_source_exprs(lambda e, correlated: source_side.append(e) or e)
        if (id(measure.formula), id(source)) not in self.formulas:
            self.formulas.add((id(measure.formula), id(source)))
            source_side.append(measure.formula)
        # Call-site rows keep their numbering (the node holding this
        # evaluation asks its input for every column); walk them only for
        # the subqueries and evaluations inside.
        self.reads(spec.child_exprs())
        if spec.visible is not None:
            self.reads(spec.visible.preds)
        self.visit(source, self.reads(source_side, source))
        if spec.kind == "inherited" and inside is not None:
            # Offsets into the enclosing measure's filtered source rows.
            self.visit(inside, set(spec.inherit_offsets))

    # -- rebuilding -------------------------------------------------------------

    def rebuild(self, plan: plans.LogicalPlan) -> plans.LogicalPlan:
        plan, _ = self.build(plan)
        for subquery in self.subqueries.values():
            subquery.plan, _ = self.build(subquery.plan)
            subquery.__dict__.pop("_fingerprint", None)  # it names the old plan
        for node, source, inside in self.evals.values():
            self.renumber(node, source, inside)
        return plan

    def build(self, node: plans.LogicalPlan) -> tuple:
        """``(narrowed node, old offset -> new offset)``, built once per
        node; the map is None where the numbering is unchanged."""
        done = self.built.get(id(node))
        if done is None:
            done = self._build(node, self.need[id(node)][1])
            if node.shared:
                plans.mark_shared(done[0])
            self.built[id(node)] = done
        return done

    def _build(self, node: plans.LogicalPlan, need: Need) -> tuple:
        if isinstance(node, plans.Project):
            child, moved = self.build(node.input)
            count = len(node.exprs)
            keep = range(count) if need is ALL or len(need) == count else sorted(need)
            if child is node.input and len(keep) == count:
                return node, None
            exprs = [self.remap(node.exprs[i], moved) for i in keep]
            if len(keep) == count:
                return plans.Project(child, exprs, node.schema), None
            return (
                plans.Project(child, exprs, [node.schema[i] for i in keep], count),
                _renumbering(keep),
            )
        if isinstance(node, plans.Join):
            return self._build_join(node)
        if isinstance(node, plans.Window):
            return self._build_window(node)
        if id(node) in self.inlined:
            return self._build_inlined(node), None
        built = [self.build(child) for child in node.inputs()]
        rebuilt = node.with_inputs(*[child for child, _ in built])
        if rebuilt is node:
            return node, None
        # One input whose numbering passes through (Filter, Sort, Limit), or
        # inputs asked for every column, where nothing moved (Distinct, set
        # operations); an Aggregate's output is numbered by its own keys.
        moved = built[0][1]
        rebuilt = rebuilt.map_expressions(lambda expr: self.remap(expr, moved))
        return rebuilt, None if isinstance(node, plans.Aggregate) else moved

    def _build_inlined(self, node: plans.Aggregate) -> plans.Aggregate:
        """``node`` over its Project's input, each of the Project's columns
        it reads replaced by the expression that computes it — and so is the
        predicate of a Filter between them, which moves down with it."""
        filtered = node.input if isinstance(node.input, plans.Filter) else None
        project, moved = self.build(node.input if filtered is None else filtered.input)
        exprs = project.exprs

        def inline(expr: b.BoundExpr) -> b.BoundExpr:
            def visit(node: b.BoundExpr) -> Optional[b.BoundExpr]:
                if isinstance(node, b.BoundColumn):
                    return exprs[node.offset if moved is None else moved[node.offset]]
                return None

            return transform_expr(expr, visit)

        below = project.input
        if filtered is not None:
            below = plans.Filter(below, inline(filtered.predicate))
        return node.with_inputs(below).map_expressions(inline)

    def _build_window(self, node: plans.Window) -> tuple:
        """The input's columns, then one per call."""
        child, moved = self.build(node.input)
        if child is node.input:
            return node, None
        width = node.input.arity
        calls = [self.remap(call, moved) for call in node.calls]
        schema = list(child.schema) + list(node.schema[width:])
        if moved is not None or child.arity != width:
            moved = dict(moved or _identity(child.arity))
            for index in range(len(calls)):
                moved[width + index] = child.arity + index
        return plans.Window(child, calls, schema), moved

    def _build_join(self, node: plans.Join) -> tuple:
        chain = _chain(node)
        sources = chain[0] if chain else node.inputs()
        built = [self.build(s) if chain else self._join_input(s) for s in sources]
        children = [child for child, _ in built]
        if chain is None and all(c is s for c, s in zip(children, sources)):
            return node, None
        # Old offset -> new offset in the inputs' rows side by side.
        moved, old_base, new_base = {}, 0, 0
        for old, (child, child_moved) in zip(sources, built):
            for was, now in (child_moved or _identity(child.arity)).items():
                moved[old_base + was] = new_base + now
            old_base += old.arity
            new_base += child.arity
        if all(was == now for was, now in moved.items()):
            moved = None
        if chain is None:
            rebuilt = plans.Join(node.kind, *children, node.condition)
            return rebuilt.map_expressions(lambda e: self.remap(e, moved)), moved
        need = self.need[id(node)][1]
        keep = list(range(node.arity)) if need is ALL else sorted(need)
        pipeline = plans.JoinPipeline(
            children,
            [join.kind for join in chain[1]],
            [self.remap(join.condition, moved) for join in chain[1]],
            keep if moved is None else [moved[old] for old in keep],
            [node.schema[old] for old in keep],
        )
        return pipeline, _renumbering(keep)

    def _join_input(self, node: plans.LogicalPlan) -> tuple:
        """A join input, cut to what is read of it when nothing below
        creates its tuples at that width already."""
        need = self.need[id(node)][1]
        child, moved = self.build(node)
        if need is ALL or len(need) >= child.arity or _narrows_itself(child):
            return child, moved
        keep = sorted(need)
        exprs = [
            b.BoundColumn(
                old if moved is None else moved[old], *reversed(node.schema[old])
            )
            for old in keep
        ]
        cut = plans.Project(
            child, exprs, [node.schema[old] for old in keep], child.arity
        )
        return cut, _renumbering(keep)

    def remap(self, expr: b.BoundExpr, moved: Optional[dict]) -> b.BoundExpr:
        """``expr`` reading the row renumbered by ``moved``.  Once per
        expression object and renumbering: the same instance sits in a
        view's ``Project``, its group's dimensions and every context built
        from them, and must come out of all of them as one, never shifted
        twice.  (Per renumbering too, because a rule that took a shared
        relation apart left the same condition object in two joins that are
        now cut differently.)"""
        if moved is None:
            return expr
        done = self.moved.get((id(expr), id(moved)))
        if done is None:

            def visit(node: b.BoundExpr) -> Optional[b.BoundExpr]:
                if isinstance(node, b.BoundColumn):
                    if node.offset not in moved:
                        raise _Dropped(node.offset)
                    column = b.BoundColumn(moved[node.offset], node.dtype, node.name)
                    column.span = node.span
                    return column
                return None

            done = (transform_expr(expr, visit), expr, moved)
            self.moved[(id(expr), id(moved))] = done
            self.moved[(id(done[0]), id(moved))] = done
        return done[0]

    def renumber(
        self,
        node: b.BoundMeasureEval,
        source: plans.LogicalPlan,
        inside: Optional[plans.LogicalPlan],
    ) -> None:
        """Point ``node``'s group at its narrowed source and renumber every
        source-relative expression its evaluation reads."""
        measure, spec = node.measure, node.context
        group = measure.group
        narrowed, moved = self.build(source)
        if group.source_plan is not narrowed:
            group.source_plan = narrowed
            if narrowed.arity != source.arity:
                self._renumber_dims(group, moved or _identity(narrowed.arity))
        if spec.kind == "inherited" and inside is not None:
            outer = self.build(inside)[1]
            if outer is not None:
                spec.inherit_offsets = [outer[o] for o in spec.inherit_offsets]
        if moved is None:
            return
        try:
            measure.formula = self.remap(measure.formula, moved)
            spec.map_source_exprs(lambda e, correlated: self.remap(e, moved))
        except _Dropped as exc:
            raise InternalError(
                f"column pruning dropped source column {exc.args[0]} that "
                f"measure {measure.name!r} still reads"
            ) from None

    def _renumber_dims(self, group, moved: dict) -> None:
        """The group's dimensions over the narrowed relation.  Nothing reads
        them after binding (``ALL dim`` / ``CURRENT dim`` were resolved to
        keys), so they are not a requirement: one whose columns are gone is
        dropped from the group."""
        kept: dict[str, Dimension] = {}
        for key, dimension in group.dims.items():
            try:
                kept[key] = Dimension(
                    dimension.name,
                    self.remap(dimension.source_expr, moved),
                    dimension.dtype,
                )
            except _Dropped:
                pass
        group.dims = kept
        group.dim_order = [
            name for name in group.dim_order if name.lower() in kept
        ]
