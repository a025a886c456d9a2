"""Evaluation contexts for context-sensitive expressions.

The paper (section 3.4) defines the evaluation context as *a predicate whose
terms are one or more columns from the same table*.  We represent it as a
list of :class:`Term` objects; a source row is in the context iff every term
accepts it.  Term kinds:

* :class:`EqTerm` — ``dim IS NOT DISTINCT FROM value`` (group keys, SET);
* :class:`PredTerm` — an arbitrary predicate over the source row (AT WHERE);
* :class:`VisibleTerm` — VISIBLE: a source row is visible iff some row of
  the current group still satisfies the query's WHERE clause and join
  conditions after substituting the candidate's dimension values for the
  measure relation's columns.  Evaluated as a hash semijoin: conjuncts that
  read only the measure relation run once per candidate, conjuncts that read
  only the other inputs choose the group rows once per group, ``col = col``
  conjuncts across the two are a hash lookup, and only what is left scans;
* :class:`SemiMatchTerm` — inherited context for measures over measures: the
  candidate's dimension projection must match one of the outer filtered rows.

:class:`ContextSpec` is the *bind-time* description of how a call site builds
its context: which group keys map onto the measure's dimensions, where the
hidden grouping-id column lives, which Aggregate's groups VISIBLE reads, what
VISIBLE would add, and the bound ``AT`` modifiers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Optional, Sequence

from repro.engine.compile import compile_expr, memo, row_getter, row_pure, slot_key
from repro.semantics.bound import BoundColumn, BoundExpr, BoundLiteral
from repro.semantics.correlate import transform_expr
from repro.types import is_not_distinct, sql_eq

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.modifiers import BoundModifier
    from repro.engine.compile import Relation, Slice
    from repro.engine.evaluator import EvalEnv, ExecutionContext
    from repro.plan.logical import GroupRef

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

    def counters(self) -> dict[str, int]:
        """What testing this term cost, as watcher counters."""
        return {}

    @property
    def kind(self) -> str:
        """Stable lowercase slug (``eqterm`` ...) for profiling counters."""
        return type(self).__name__.lower()


def summarize_terms(terms: list["Term"]) -> dict[str, int]:
    """Term-kind histogram for one evaluation context.

    The measure evaluator feeds this to the watcher so a trace shows what a
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
    3.5) while still being servable from a grouping of the source relation
    by their source expression.
    """

    dim_key: Optional[str]
    source_expr: BoundExpr
    value: Any
    strict: bool = False

    @property
    def index_key(self) -> str:
        return slot_key(self.source_expr)

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
    """VISIBLE, evaluated as a hash semijoin against the current group.

    A candidate source row ``s`` is accepted iff there exists a row ``g`` in
    ``group`` (the current group's joined input rows, as positions into the
    Aggregate's input — or the call-site row itself) such that every
    conjunct of ``info.preds`` holds on ``g`` *with the measure relation's
    column positions replaced by* ``s``'s dimension values.  The binder split
    the conjuncts by what they read (:class:`VisibleInfo`), and the ∃ factors
    over that split: *outer* conjuncts choose the group rows that can witness
    anything (once per term), *local* conjuncts are a function of ``s`` alone
    (one column over the source relation, read at the candidates:
    :meth:`narrow`), *key* conjuncts are one lookup in a hash table over
    the surviving group rows, and only the *residual* conjuncts run over the
    rows of that bucket.  With no keys the bucket is every surviving row —
    the general case, candidates x group rows.  With only local conjuncts
    (:attr:`VisibleInfo.reads_group_rows` false) no row of the group is read:
    all that matters is whether it has one.

    One term is built per evaluation, so the probe side lives here; the plan
    (and its ``VisibleInfo``) is shared between sessions and is only read.
    """

    info: "VisibleInfo"
    group: "Slice"
    parent_env: Optional["EvalEnv"]
    dim_key: Optional[str] = None

    def __post_init__(self):
        #: ``test`` calls; group rows read to index the group; group rows a
        #: residual conjunct ran on (what the scan's checkpoints count too);
        #: candidates the local conjuncts' columns were read at.
        self.probes = self.build_rows = self.residual_rows = self.masked = 0
        #: The group rows that pass the outer conjuncts; None until the
        #: first use indexes the group.
        self._survivors: Optional[Sequence] = None

    def _prepare(self, ctx: "ExecutionContext") -> None:
        """Index the group: rows passing the outer conjuncts, hashed on the
        group-row side of the keys.  The hash join's three rules: NULL keys
        never match, one key column is hashed bare and several as a tuple,
        and an unhashable key sends the key conjuncts back to the residual.
        """
        info, parent, watched = self.info, self.parent_env, ctx.watched
        # Only a conjunct that reads the group's rows gathers them; else the
        # Slice stands in for them and only its length is read (the local
        # conjuncts decide everything but whether anything is visible).
        survivors: Sequence = self.group.rows() if info.reads_group_rows else self.group
        if info.outer:
            outer = [compile_expr(pred) for pred in info.outer]
            self.build_rows += len(survivors)
            kept = []
            for position, row in enumerate(survivors):
                if watched and not position & 0xFF:
                    ctx.checkpoint(buffered_rows=len(kept))
                for pred in outer:
                    if pred(row, parent, ctx) is not True:
                        break
                else:
                    kept.append(row)
            survivors = kept
        residual = info.residual
        self._table = None
        if info.keys and None in self.key_dims:
            # A range column that is no dimension substitutes NULL, and
            # NULL = anything is never TRUE: nothing is visible.
            survivors = ()
        elif info.keys and survivors:
            self._composite = composite = len(info.keys) > 1
            self._candidate_key = itemgetter(*[inside for inside, _ in info.keys])
            group_key = itemgetter(*[outside for _, outside in info.keys])
            self.build_rows += len(survivors)
            table: dict = {}
            try:
                for position, row in enumerate(survivors):
                    if watched and not position & 0xFF:
                        ctx.checkpoint(buffered_rows=position)
                    key = group_key(row)
                    if key is None or composite and None in key:
                        continue
                    table.setdefault(key, []).append(row)
                self._table = table
            except TypeError:  # unhashable key value: scan for it instead
                residual = info.key_preds + residual
        self._dims = [
            None if expr is None else compile_expr(expr)
            for expr in info.offset_dim_exprs
        ]
        self._padding = (None,) * info.range_start
        self._local = [compile_expr(pred) for pred in info.local]
        self._residual = [compile_expr(pred) for pred in residual]
        self._survivors = survivors

    @property
    def key_dims(self) -> list[Optional[BoundExpr]]:
        """The source-row expression behind each key column (None: the
        column is not a dimension)."""
        dims = self.info.offset_dim_exprs
        return [dims[inside] for inside, _ in self.info.keys]

    def probe_keys(self, ctx: "ExecutionContext") -> Optional[Iterable]:
        """The distinct key values some surviving group row carries — every
        accepted candidate has one of them as its :attr:`key_dims` — or None
        when there is no hash table to read them from."""
        if self._survivors is None:
            self._prepare(ctx)
        if not self._survivors:
            return ()
        return self._table

    def narrow(
        self, relation: "Relation", candidates: Optional[list], ctx: "ExecutionContext"
    ) -> Optional[tuple[list, bool]]:
        """``(the candidates the local conjuncts accept, whether nothing is
        left to test)``, read off the columns of the conjuncts over the
        source (:meth:`VisibleInfo.source_local`) at ``candidates`` (None:
        every source row) — or None when a local conjunct is not row-pure and
        :meth:`test` must run it per candidate.  ``relation`` builds each
        column once per statement and takes it at the candidates, so a
        conjunct raises iff it raises on a candidate.  Conjuncts run left to
        right, each on what the one before accepted, as :meth:`test` runs
        them; over an empty group nothing is evaluated and nothing accepted.
        """
        local = self.info.source_local()
        if local is False:
            return None
        if self._survivors is None:
            self._prepare(ctx)
        if not self._survivors:
            return [], True
        for pred in local:
            mask = relation.column(pred, None, ctx, candidates).values
            if candidates is None:
                candidates = range(len(mask))
            self.masked += len(candidates)
            candidates = list(compress(candidates, [value is True for value in mask]))
            if not candidates:
                break
        self._local = []  # decided for every candidate left
        info = self.info
        return candidates, not (info.keys or info.residual)

    def test(self, source_row: tuple, ctx: "ExecutionContext") -> bool:
        if self._survivors is None:
            self._prepare(ctx)
        self.probes += 1
        bucket = self._survivors
        if not bucket:
            return False  # no row of the group can witness anything
        substituted = tuple(
            [None if dim is None else dim(source_row, None, ctx) for dim in self._dims]
        )
        if self._local:
            row = self._padding + substituted
            parent = self.parent_env
            for pred in self._local:
                if pred(row, parent, ctx) is not True:
                    return False
        residual = self._residual
        if self._table is not None:
            key = self._candidate_key(substituted)
            if key is None or self._composite and None in key:
                return False
            try:
                bucket = self._table.get(key)
            except TypeError:  # unhashable candidate value: compare it
                residual = [
                    compile_expr(pred) for pred in self.info.key_preds
                ] + residual
            if not bucket:
                return False
        if not residual:
            return True
        return self._scan(bucket, substituted, residual, ctx)

    def _scan(self, bucket, substituted: tuple, residual: list, ctx) -> bool:
        """Whether the residual conjuncts hold on some row of ``bucket`` with
        the candidate substituted in.  Checkpoints count group rows visited,
        not candidates, so cancel latency does not grow with the group."""
        start, end = self.info.range_start, self.info.range_end
        parent, watched = self.parent_env, ctx.watched
        visited = self.residual_rows
        try:
            for group_row in bucket:
                visited += 1
                if watched and not visited & 0xFF:
                    ctx.checkpoint()
                row = group_row[:start] + substituted + group_row[end:]
                for pred in residual:
                    if pred(row, parent, ctx) is not True:
                        break
                else:
                    return True
            return False
        finally:
            self.residual_rows = visited

    def cache_key(self) -> tuple:
        return ("vis", id(self.group))

    def counters(self) -> dict[str, int]:
        if self._survivors is None:
            return {}
        return {
            "visible.groups": 1,
            "visible.build_rows": self.build_rows,
            "visible.probes": self.probes,
            "visible.residual_rows": self.residual_rows,
            "visible.masked": self.masked,
        }


@dataclass
class SemiMatchTerm(Term):
    """Inherited context for measures composed from input measures.

    A candidate source row is accepted iff its projection through
    ``dim_exprs`` matches (IS NOT DISTINCT FROM, per column) some row of
    ``members`` (the enclosing measure's selected source rows, as positions)
    restricted to ``offsets`` — membership in the set of those restrictions,
    built once per term (tuple equality with ``None == None`` is the
    per-column comparison); unhashable values scan instead.
    """

    members: "Slice"
    offsets: list[int]
    dim_exprs: list[BoundExpr]
    dim_key: Optional[str] = None

    def __post_init__(self):
        self.probes = 0
        self._dims: Optional[list] = None  # compiled on first use, with:
        self._keys: Optional[set] = None  # rows restricted to offsets

    def test(self, source_row: tuple, ctx: "ExecutionContext") -> bool:
        if self._dims is None:
            try:
                self._keys = set(map(row_getter(self.offsets), self.members.rows()))
            except TypeError:
                self._keys = None
            self._dims = [compile_expr(expr) for expr in self.dim_exprs]
        self.probes += 1
        projection = tuple([dim(source_row, None, ctx) for dim in self._dims])
        if self._keys is not None:
            try:
                return projection in self._keys
            except TypeError:
                pass
        for row in self.members.rows():
            if all(
                is_not_distinct(row[offset], value)
                for offset, value in zip(self.offsets, projection)
            ):
                return True
        return False

    def cache_key(self) -> tuple:
        return ("semi", id(self.members), tuple(self.offsets))

    def counters(self) -> dict[str, int]:
        return {"semimatch.probes": self.probes}


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
    the FROM row, plus the measure relation's position within that row.

    The binder splits the conjuncts once per call site by what each reads of
    the measure relation's range ``[range_start, range_end)``:

    * ``local`` — only columns inside it: a function of the candidate alone;
    * ``outer`` — none of them: a function of the group row alone;
    * ``keys`` — ``col = col`` across the range with hash-compatible types
      (:func:`repro.engine.executor.equi_key`), as ``(offset relative to the
      range, group-row offset)``; ``key_preds`` are those conjuncts;
    * ``residual`` — everything else, and any conjunct whose offsets are
      interpreted elsewhere (subqueries, aggregate and grouping references).

    The four hold the conjunct objects themselves, and :attr:`preds` is their
    concatenation.  Nothing here changes once the statement is planned.
    """

    range_start: int
    range_end: int
    offset_dim_exprs: list[Optional[BoundExpr]]
    local: list[BoundExpr] = field(default_factory=list)
    outer: list[BoundExpr] = field(default_factory=list)
    keys: list[tuple[int, int]] = field(default_factory=list)
    key_preds: list[BoundExpr] = field(default_factory=list)
    residual: list[BoundExpr] = field(default_factory=list)

    @property
    def preds(self) -> list[BoundExpr]:
        return self.local + self.outer + self.key_preds + self.residual

    @property
    def reads_group_rows(self) -> bool:
        """Whether a conjunct reads the rows of the group (outer, key or
        residual); with only local ones, VISIBLE asks whether it has any."""
        return bool(self.outer or self.keys or self.residual)

    def source_local(self):
        """The ``local`` conjuncts over the measure's *source* row — each
        column of the range replaced by its dimension expression, a column
        that is no dimension by NULL, as a candidate substitutes them — or
        False when one is not row-pure (a correlated reference, a measure).
        Rewritten once per plan, on first use: after pruning renumbered both
        sides (``ContextSpec.map_*_exprs`` forget it)."""
        return memo(self, "_source_local", _local_over_source)


def _local_over_source(info: VisibleInfo):
    if not all(map(row_pure, info.local)):
        return False
    start, dims = info.range_start, info.offset_dim_exprs

    def substitute(node: BoundExpr) -> Optional[BoundExpr]:
        if not isinstance(node, BoundColumn):
            return None
        dim = dims[node.offset - start]
        return BoundLiteral(None, node.dtype) if dim is None else dim

    rewritten = [transform_expr(pred, substitute) for pred in info.local]
    return rewritten if all(map(row_pure, rewritten)) else False


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
    #: The Aggregate whose current group VISIBLE reads (group kind only).
    groups: Optional["GroupRef"] = None
    #: Set only where a VISIBLE modifier has conjuncts to conjoin.
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
        if self.visible is not None:
            self.visible.__dict__.pop("_source_local", None)
            self.visible.offset_dim_exprs = [
                None if e is None else fn(e, False)
                for e in self.visible.offset_dim_exprs
            ]

    def map_site_exprs(self, fn) -> None:
        """Replace, in place, every expression that reads the *call site* by
        ``fn(expr, nested)`` (``nested``: bound over the source row, so the
        call-site row is its enclosing scope) — VISIBLE's conjuncts, over
        the query's FROM row, included.  What lifting an enclosing query
        over its Aggregate renumbers through
        (:func:`repro.semantics.correlate.remap_outer_expr`)."""
        for term in self.group_terms:
            term.value_expr = fn(term.value_expr, False)
        for modifier in self.modifiers:
            modifier.map_site_exprs(fn)
        if self.visible is not None:
            self.visible.__dict__.pop("_source_local", None)
            for name in ("local", "outer", "key_preds", "residual"):
                preds = getattr(self.visible, name)
                setattr(self.visible, name, [fn(pred, False) for pred in preds])

    def fingerprint(self) -> str:
        from repro.semantics.bound import fingerprint as fp

        parts = [self.kind]
        for term in self.group_terms:
            parts.append(f"{term.dim_key}={fp(term.value_expr)}@{term.grouping_bit}")
        for modifier in self.modifiers:
            parts.append(repr(type(modifier).__name__))
        return ";".join(parts)
