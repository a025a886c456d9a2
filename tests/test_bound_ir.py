"""Unit tests for the bound IR, fingerprints, and correlation utilities —
and the guards that keep "what does this node hold" declared once: every
dataclass field of every bound expression and plan node is classified
(identity, child, input, expression), and no module lists node types to
reach a node's parts."""

from __future__ import annotations

import ast as pyast
import copy
import dataclasses
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import pytest

from repro.core.context import ContextSpec, GroupTermSpec
from repro.core.definition import MeasureGroup, MeasureInstance
from repro.plan import logical as plans
from repro.semantics import bound as b
from repro.semantics.correlate import (
    collect_outer_refs,
    normalize_outer,
    plan_expressions,
    remap_outer_expr,
    transform_expr,
)
from repro.types import BOOLEAN, DOUBLE, INTEGER, VARCHAR


def col(offset, dtype=INTEGER, name=""):
    return b.BoundColumn(offset, dtype, name)


def lit(value, dtype=INTEGER):
    return b.BoundLiteral(value, dtype)


def call(op, *args, dtype=INTEGER):
    return b.BoundCall(op, list(args), dtype, lambda *a: None)


# -- fingerprints ------------------------------------------------------------


def test_fingerprint_column_identity():
    assert b.fingerprint(col(3)) == b.fingerprint(col(3, VARCHAR, "other"))
    assert b.fingerprint(col(3)) != b.fingerprint(col(4))


def test_fingerprint_call_structure():
    left = call("+", col(0), lit(1))
    right = call("+", col(0), lit(1))
    assert b.fingerprint(left) == b.fingerprint(right)
    assert b.fingerprint(call("+", col(0), lit(2))) != b.fingerprint(left)


def test_fingerprint_distinguishes_agg_flavors():
    plain = b.BoundAggCall("SUM", [col(0)], False, False, None, INTEGER)
    distinct = b.BoundAggCall("SUM", [col(0)], True, False, None, INTEGER)
    assert b.fingerprint(plain) != b.fingerprint(distinct)


def test_fingerprint_literal_types():
    assert b.fingerprint(lit("x", VARCHAR)) == "'x'"
    assert b.fingerprint(lit(None, INTEGER)) == "NULL"


def test_walk_visits_all_nodes():
    expr = call("AND", call("=", col(0), lit(1), dtype=BOOLEAN), col(2), dtype=BOOLEAN)
    kinds = [type(node).__name__ for node in b.walk(expr)]
    assert kinds.count("BoundColumn") == 2
    assert kinds.count("BoundLiteral") == 1


def test_contains_aggregate():
    agg = b.BoundAggCall("SUM", [col(0)], False, False, None, INTEGER)
    assert b.contains_aggregate(call("+", agg, lit(1)))
    assert not b.contains_aggregate(call("+", col(0), lit(1)))


def test_max_outer_depth():
    outer = b.BoundOuterColumn(2, 1, INTEGER)
    assert b.max_outer_depth(call("+", col(0), outer)) == 2
    assert b.max_outer_depth(col(0)) == 0


# -- transform_expr -------------------------------------------------------------


def test_transform_replaces_subtree_and_stops():
    expr = call("+", call("*", col(0), lit(2)), col(1))

    def visit(node):
        if isinstance(node, b.BoundCall) and node.op == "*":
            return lit(99)
        return None

    result = transform_expr(expr, visit)
    assert b.fingerprint(result) == b.fingerprint(call("+", lit(99), col(1)))
    # The original expression is untouched.
    assert b.fingerprint(expr) != b.fingerprint(result)


def test_transform_identity_returns_same_object():
    expr = call("+", col(0), lit(1))
    assert transform_expr(expr, lambda n: None) is expr


# -- correlation -----------------------------------------------------------------


def make_plan(exprs):
    scan = plans.Scan("t", [("a", INTEGER), ("b", INTEGER)])
    return plans.Project(scan, exprs, [("x", INTEGER)] * len(exprs))


def test_collect_outer_refs_dedupes():
    plan = make_plan(
        [
            call("+", b.BoundOuterColumn(1, 0, INTEGER), b.BoundOuterColumn(1, 0, INTEGER)),
            b.BoundOuterColumn(2, 3, INTEGER),
        ]
    )
    assert collect_outer_refs(plan) == [(1, 0), (2, 3)]


def test_collect_outer_refs_shifts_nested_subqueries():
    inner = make_plan([b.BoundOuterColumn(2, 5, INTEGER)])
    subquery = b.BoundSubquery(inner, "SCALAR", INTEGER, outer_refs=[(2, 5)])
    plan = make_plan([subquery])
    # Depth 2 inside the subquery is depth 1 outside it.
    assert collect_outer_refs(plan) == [(1, 5)]


def test_normalize_outer_converts_refs():
    expr = call("YEAR", b.BoundOuterColumn(1, 2, INTEGER))
    normalized = normalize_outer(expr, 1)
    assert b.fingerprint(normalized) == b.fingerprint(call("YEAR", col(2)))


def test_normalize_outer_blocked_by_other_depths():
    expr = call("+", b.BoundOuterColumn(1, 0, INTEGER), b.BoundOuterColumn(2, 0, INTEGER))
    assert normalize_outer(expr, 1) is None


def test_remap_outer_expr_column_level():
    expr = b.BoundOuterColumn(1, 4, INTEGER, "k")
    remapped = remap_outer_expr(expr, {4: 0}, {})
    assert isinstance(remapped, b.BoundOuterColumn)
    assert remapped.offset == 0


def test_remap_outer_expr_expression_level():
    group_expr = call("YEAR", col(2))
    mapping = {}
    expr_mapping = {b.fingerprint(group_expr): (1, INTEGER)}
    expr = call("YEAR", b.BoundOuterColumn(1, 2, INTEGER))
    remapped = remap_outer_expr(expr, mapping, expr_mapping)
    assert isinstance(remapped, b.BoundOuterColumn)
    assert remapped.offset == 1


def test_remap_outer_expr_rejects_nongroup_ref():
    from repro.errors import BindError

    with pytest.raises(BindError):
        remap_outer_expr(b.BoundOuterColumn(1, 9, INTEGER, "q"), {}, {})


def test_plan_tree_string():
    scan = plans.Scan("t", [("a", INTEGER)])
    filtered = plans.Filter(scan, call("=", col(0), lit(1), dtype=BOOLEAN))
    text = plans.plan_tree_string(filtered)
    assert text.splitlines() == ["Filter", "  Scan(t)"]


def test_aggregate_layout_offsets():
    scan = plans.Scan("t", [("a", INTEGER)])
    agg = plans.Aggregate(
        scan,
        [col(0)],
        [b.BoundAggCall("COUNT", [], False, True, None, INTEGER)],
        [[0], []],
        [("k", INTEGER), ("c", INTEGER), ("$gid", INTEGER), ("$rows", INTEGER)],
        capture_rows=True,
    )
    assert agg.has_grouping_id
    assert agg.grouping_id_offset == 2
    assert agg.captured_rows_offset == 3


# -- every field is classified ------------------------------------------------


def declared_classes(base):
    """Every dataclass under ``base`` that the package defines: a new node
    class is covered without editing this file."""
    found, stack = [], list(base.__subclasses__())
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        if cls.__module__.startswith("repro.") and dataclasses.is_dataclass(cls):
            found.append(cls)
    return sorted(found, key=lambda cls: cls.__name__)


def scan(name="t"):
    return plans.Scan(name, [("a", INTEGER)])


def measure(name):
    return MeasureInstance(name, MeasureGroup(scan(), {}, []), lit(1), INTEGER)


#: Field type -> values of it: the first builds the instance under test (it
#: holds an expression wherever the type can), each of the others must give
#: a different fingerprint when it replaces the first.
SAMPLES = {
    "Any": lambda: [1, 2],
    "int": lambda: [1, 2],
    "str": lambda: ["a", "b"],
    "bool": lambda: [False, True],
    "Optional[int]": lambda: [1, None],
    "list[int]": lambda: [[0], [1], []],
    "list[str]": lambda: [["INNER"], ["LEFT"]],
    "list[list[int]]": lambda: [[[0]], [[0], []]],
    "list[tuple[int, int]]": lambda: [[(1, 0)], [(1, 1)], []],
    "DataType": lambda: [INTEGER, VARCHAR],
    "Schema": lambda: [[("x", INTEGER)], [("y", INTEGER)], [("x", VARCHAR)]],
    "Callable[..., Any]": lambda: [min, max],
    "BoundExpr": lambda: [col(0), col(1)],
    "Optional[BoundExpr]": lambda: [col(0), col(1), None],
    "list[BoundExpr]": lambda: [[col(0), col(1)], [col(1), col(0)], [col(0)]],
    "list[list[BoundExpr]]": lambda: [[[col(0)], [col(1)]], [[col(0)], [col(2)]]],
    "list[tuple[BoundExpr, BoundExpr]]": lambda: [
        [(col(0), col(1))], [(col(0), col(2))], [(col(2), col(1))]
    ],
    "list[SortSpec]": lambda: [
        [b.SortSpec(col(0))],
        [b.SortSpec(col(1))],
        [b.SortSpec(col(0), descending=True)],
        [b.SortSpec(col(0), nulls_first=True)],
        [],
    ],
    # A window frame: (unit, start kind, start offset, end kind, end offset).
    "Optional[tuple]": lambda: [
        ("ROWS", "PRECEDING", col(0), "FOLLOWING", col(1)),
        ("ROWS", "PRECEDING", col(0), "FOLLOWING", col(2)),
        ("RANGE", "PRECEDING", col(0), "FOLLOWING", col(1)),
        None,
    ],
    "list[BoundAggCall]": lambda: [
        [b.BoundAggCall("SUM", [col(0)], False, False, None, INTEGER)],
        [b.BoundAggCall("SUM", [col(1)], False, False, None, INTEGER)],
    ],
    "list[BoundWindowCall]": lambda: [
        [b.BoundWindowCall("SUM", [col(0)], [], [], None, INTEGER)],
        [b.BoundWindowCall("SUM", [col(1)], [], [], None, INTEGER)],
    ],
    "LogicalPlan": lambda: [scan("t"), scan("u")],
    "list[LogicalPlan]": lambda: [[scan("t"), scan("u")], [scan("t"), scan("v")]],
    "MeasureInstance": lambda: [measure("m"), measure("m")],
    "ContextSpec": lambda: [
        ContextSpec("group", [GroupTermSpec("$0", col(0), col(1))]),
        ContextSpec("group", [GroupTermSpec("$0", col(0), col(2))]),
        ContextSpec("row"),
    ],
}


def samples(cls):
    """``{field name: sample values}`` for dataclass ``cls``."""
    values = {}
    for f in dataclasses.fields(cls):
        kind = f.type.replace('"', "").replace("'", "")
        assert kind in SAMPLES, f"{cls.__name__}.{f.name}: no sample of type {kind}"
        values[f.name] = SAMPLES[kind]()
    return values


def build(cls):
    return cls(**{name: values[0] for name, values in samples(cls).items()})


def held(value, kind):
    """What a field value holds of ``kind``, found by looking at the value
    (the reference the declarations are checked against)."""
    if isinstance(value, kind):
        return [value]
    if isinstance(value, (list, tuple)):
        return [found for item in value for found in held(item, kind)]
    if isinstance(value, b.SortSpec):
        return held(value.expr, kind)
    return []


def is_in(node, nodes) -> bool:
    return any(node is other for other in nodes)


#: Fields that label a node without deciding what it computes (a type the
#: rest implies, column names, the runtime callable).
NOT_IDENTITY = {"name", "fn", "dtype", "schema"}


def check_identity_covers_fields(cls, fingerprint):
    node = build(cls)
    for name, (_, *others) in samples(cls).items():
        if name in NOT_IDENTITY:
            continue
        for other in others:
            changed = dataclasses.replace(node, **{name: other})
            assert fingerprint(changed) != fingerprint(node), (
                f"{cls.__name__}.{name} = {other!r} is not in its fingerprint"
            )
    assert fingerprint(copy.deepcopy(node)) == fingerprint(node), cls.__name__


def check_children_cover_fields(cls):
    node = build(cls)
    visited = []
    transform_expr(node, lambda n: visited.append(n))
    for f in dataclasses.fields(cls):
        for expr in held(getattr(node, f.name), b.BoundExpr):
            where = f"{cls.__name__}.{f.name} holds an expression that"
            assert is_in(expr, node.children()), f"{where} children() does not yield"
            assert is_in(expr, b.walk(node)), f"{where} walk() does not reach"
            assert is_in(expr, visited), f"{where} transform_expr does not visit"

    def bump(n):
        return col(n.offset + 10) if isinstance(n, b.BoundColumn) else None

    rebuilt = transform_expr(node, bump)
    for f in dataclasses.fields(cls):
        assert all(
            isinstance(e, b.BoundColumn) and e.offset >= 10
            for e in held(getattr(rebuilt, f.name), b.BoundExpr)
        ), f"transform_expr does not rebuild {cls.__name__}.{f.name}"


def check_plan_parts_cover_fields(cls):
    node = build(cls)
    exprs = []
    assert node.map_expressions(lambda e: exprs.append(e) or e) is node
    for f in dataclasses.fields(cls):
        value = getattr(node, f.name)
        where = f"{cls.__name__}.{f.name} holds"
        for plan in held(value, plans.LogicalPlan):
            assert is_in(plan, node.inputs()), f"{where} a plan not in inputs()"
        for expr in held(value, b.BoundExpr):
            assert is_in(expr, node.expressions()), (
                f"{where} an expression not in expressions()"
            )
            assert is_in(expr, exprs), f"{where} an expression map_expressions skips"
            assert is_in(expr, plan_expressions(plans.Distinct(node))), (
                f"{where} an expression plan_expressions does not reach"
            )
    assert node.with_inputs(*node.inputs()) is node
    swapped = node.with_inputs(*[scan("other") for _ in node.inputs()])
    assert [child.table_name for child in swapped.inputs()] == (
        ["other"] * len(node.inputs())  # a list-valued field holds several
    )
    for f in dataclasses.fields(cls):
        if f.name not in cls.INPUTS:  # every other field as it was
            assert getattr(swapped, f.name) is getattr(node, f.name)


BOUND_CLASSES = declared_classes(b.BoundExpr)
PLAN_CLASSES = declared_classes(plans.LogicalPlan)


def test_discovery_finds_the_ir():
    assert {b.BoundCall, b.BoundWindowCall, b.BoundMeasureEval} <= set(BOUND_CLASSES)
    assert {plans.Scan, plans.SystemScan, plans.Join, plans.Limit} <= set(PLAN_CLASSES)


@pytest.mark.parametrize("cls", BOUND_CLASSES, ids=lambda cls: cls.__name__)
def test_bound_expressions_declare_every_field(cls):
    check_identity_covers_fields(cls, b.fingerprint)
    check_children_cover_fields(cls)


def test_a_cast_is_identified_by_its_target_type():
    assert b.fingerprint(b.BoundCast(col(0), INTEGER)) != b.fingerprint(
        b.BoundCast(col(0), VARCHAR)
    )


@pytest.mark.parametrize("cls", PLAN_CLASSES, ids=lambda cls: cls.__name__)
def test_plan_nodes_declare_every_input_and_expression(cls):
    from repro.analysis.validator import plan_fingerprint

    check_identity_covers_fields(cls, plan_fingerprint)
    check_plan_parts_cover_fields(cls)


def test_the_guard_catches_an_unclassified_field():
    """What the three checks are for: a field added to a node class without
    saying what it is fails here, not in a query."""

    @dataclass
    class CallWithHint(b.BoundCall):  # spells its identity, forgets the field
        hint: int = 0

    @dataclass
    class CallWithFallback(b.BoundCall):  # holds an expression, not a child
        fallback: Optional[b.BoundExpr] = None

    @dataclass
    class FilterWithFallback(plans.Filter):  # an expression not in EXPRS
        fallback: Optional[b.BoundExpr] = None

    @dataclass
    class FilterWithSibling(plans.Filter):  # a plan not in INPUTS
        sibling: Optional[plans.LogicalPlan] = None

    SAMPLES["Optional[b.BoundExpr]"] = SAMPLES["Optional[BoundExpr]"]
    SAMPLES["Optional[plans.LogicalPlan]"] = SAMPLES["LogicalPlan"]
    try:
        with pytest.raises(AssertionError, match="hint .* not in its fingerprint"):
            check_identity_covers_fields(CallWithHint, b.fingerprint)
        with pytest.raises(AssertionError, match="fallback holds .* children"):
            check_children_cover_fields(CallWithFallback)
        with pytest.raises(AssertionError, match="fallback holds .* expressions"):
            check_plan_parts_cover_fields(FilterWithFallback)
        with pytest.raises(AssertionError, match="sibling holds a plan"):
            check_plan_parts_cover_fields(FilterWithSibling)

        # Classified, each passes — and a class that does not spell its own
        # fingerprint has the new field in it without doing anything.
        CallWithFallback.CHILDREN = ("args", "fallback")
        check_children_cover_fields(CallWithFallback)
        FilterWithFallback.EXPRS = ("predicate", "fallback")
        FilterWithSibling.INPUTS = ("input", "sibling")
        check_plan_parts_cover_fields(FilterWithFallback)
        check_plan_parts_cover_fields(FilterWithSibling)

        @dataclass
        class AggWithHint(b.BoundAggCall):
            hint: int = 0

        check_identity_covers_fields(AggWithHint, b.fingerprint)
    finally:
        del SAMPLES["Optional[b.BoundExpr]"], SAMPLES["Optional[plans.LogicalPlan]"]


# -- nothing lists node types to reach a node's parts ----------------------------

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: The per-module copies this IR replaced; none may come back.
DELETED_HELPERS = {
    "_node_exprs", "_expr_fp", "_conjuncts_of", "_split_and", "_and_all",
    "_conjoin", "_fix_and_fns", "split_conjuncts",
}

#: Where a dispatch over the plan classes is per-node *semantics* (how to run
#: it, what flows through it, what it reads of its input, its arity).
PER_NODE_SEMANTICS = {
    "plan/logical.py", "engine/executor.py", "analysis/dataflow.py", "plan/pruning.py",
}


def functions(tree):
    """``(qualified name, node)`` of every function in a module."""

    def visit(node, prefix):
        for child in pyast.iter_child_nodes(node):
            if isinstance(child, (pyast.FunctionDef, pyast.ClassDef)):
                name = f"{prefix}{child.name}"
                if isinstance(child, pyast.FunctionDef):
                    yield name, child
                yield from visit(child, name + ".")
            else:
                yield from visit(child, prefix)

    return visit(tree, "")


def plan_classes_tested(function) -> set:
    """The ``plans.X`` classes ``function`` passes to ``isinstance``."""
    tested = set()
    for node in pyast.walk(function):
        if (
            isinstance(node, pyast.Call)
            and isinstance(node.func, pyast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
        ):
            for target in pyast.walk(node.args[1]):
                if (
                    isinstance(target, pyast.Attribute)
                    and isinstance(target.value, pyast.Name)
                    and target.value.id == "plans"
                ):
                    tested.add(target.attr)
    return tested


def test_no_module_lists_node_types_to_reach_a_nodes_parts():
    defined: dict[str, list] = {}
    ladders = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        tree = pyast.parse(path.read_text())
        for name, function in functions(tree):
            defined.setdefault(function.name, []).append(module)
            if name == "_conjuncts":  # module level; methods may use the name
                defined.setdefault("module-level _conjuncts", []).append(module)
            exempt = module in PER_NODE_SEMANTICS or (
                module == "analysis/validator.py" and name == "_Checker.check_plan"
            )
            if not exempt and len(plan_classes_tested(function)) >= 6:
                ladders.append(f"{module}::{name}")
    assert ladders == []
    brought_back = (DELETED_HELPERS | {"module-level _conjuncts"}) & set(defined)
    assert not brought_back, {name: defined[name] for name in brought_back}
    assert defined["inputs"] == ["plan/logical.py"]
    assert [m for m in defined["children"] if m.startswith("semantics/")] == [
        "semantics/bound.py"
    ]
    assert defined["children"].count("semantics/bound.py") == 1


# -- one context semantics: the AST-level second binder is not back ---------------

#: What ``core/expansion.py`` used to re-derive from the AST, name by name
#: (its own scope, relation descriptors, measure-defining extraction, sibling
#: inlining, star expansion, source translation), and the window operator's
#: copy of the sort key.
SECOND_BINDER = {
    "_ExpScope", "ExpTable", "ExpRelation", "_measure_table_of",
    "_inline_siblings", "_star_columns", "translate_to_source", "_Directed",
}


def test_the_second_binder_is_not_back():
    defined: dict[str, list] = {}
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        for node in pyast.walk(pyast.parse(path.read_text())):
            if isinstance(node, (pyast.FunctionDef, pyast.ClassDef)):
                defined.setdefault(node.name, []).append(module)
    assert not SECOND_BINDER & set(defined), {
        name: defined[name] for name in SECOND_BINDER & set(defined)
    }
    # Whether a query is an aggregate query is asked of the binder; one name
    # resolver, one extraction of a measure-defining query, one algebra.
    assert defined["_detect_aggregate"] == ["semantics/binder.py"]
    assert defined["resolve"].count("semantics/scope.py") == 1
    assert not [m for m in defined["resolve"] if m.startswith("core/")]
    assert defined["_bind_measure_defining"] == ["semantics/binder.py"]
    assert defined["apply_modifiers"] == ["core/modifiers.py"]
    assert defined["unbind"] == ["semantics/unbind.py"]
    # The expander learns no column list on its own.
    expansion = (SRC / "core" / "expansion.py").read_text()
    assert "catalog.resolve" not in expansion
    assert "bind_query_as_relation" not in expansion


def test_no_dead_members_on_the_measure_definitions():
    from repro import Database
    from repro.semantics.binder import Binder
    from repro.sql import parse_query

    assert not hasattr(MeasureGroup, "dim_by_key")
    assert "formula_sql" not in MeasureInstance.__dataclass_fields__
    # ``source_sql`` is what expansion reads: the binder fills it in.
    db = Database()
    db.execute("CREATE TABLE t (k INTEGER, x INTEGER)")
    relation = Binder(db.catalog).bind_query_as_relation(
        parse_query("SELECT k, SUM(x) AS MEASURE m FROM t WHERE x > 0"), None
    )
    source = relation.group.source_sql
    assert [r.alias for r in source.scope.relations] == ["t"]
    assert len(source.where) == 1


# -- one watcher: the two per-operator classes are not back ------------------------

#: What ``profile/watch.py`` replaced: the two watcher classes and their
#: per-operator entries, the module of one of them, the two context slots and
#: the Database method that registered the second watcher.
TWO_WATCHERS = re.compile(
    r"\b(ProgressState|OperatorProgress|OperatorMetrics|engine\.progress"
    r"|ctx\.profiler|ctx\.progress|_start_progress)\b"
)


def test_the_two_watchers_are_not_back():
    left = [
        f"{path.relative_to(SRC)}:{number}"
        for path in sorted(SRC.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if TWO_WATCHERS.search(line)
    ]
    assert left == []
    assert not (SRC / "engine" / "progress.py").exists()
    assert not (SRC / "profile" / "metrics.py").exists()
    # One class the executor calls around an operator, one slot to reach it by.
    from repro.engine.evaluator import ExecutionContext

    slots = vars(ExecutionContext(None))
    assert "watch" in slots and not {"profiler", "progress"} & set(slots)
    executor = (SRC / "engine" / "executor.py").read_text()
    bracket = executor[executor.index("def execute_plan"):executor.index("def _execute_scan")]
    assert [bracket.count(f"watch.{call}(") for call in ("enter", "exit", "abort")] == [1, 1, 1]
    assert bracket.count("watch is None") == 1  # the unwatched path's one test


# -- one name resolver: lint reads what the binder bound ---------------------------

#: The linter's mirror of the binder: its relation descriptor, scope builder and
#: resolver, the two ways it listed a relation's columns, and the rules that
#: re-derived a bind error from them.
MINI_RESOLVER = {
    "_Rel", "_scope", "_resolve", "_columns_for_name", "_columns_of_query",
    "_rule_at_operands", "_check_at_dimensions", "_rule_ambiguous_columns",
    "_rule_aggregate_in_where", "_is_plain_aggregate_call",
}


def test_the_mini_resolver_is_not_back():
    defined: dict[str, list] = {}
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        for node in pyast.walk(pyast.parse(path.read_text())):
            if isinstance(node, (pyast.FunctionDef, pyast.ClassDef)):
                defined.setdefault(node.name, []).append(module)
    assert not MINI_RESOLVER & set(defined), {
        name: defined[name] for name in MINI_RESOLVER & set(defined)
    }
    # The linter learns no column list on its own: a catalog lookup is only
    # ever "does this name exist" (a CTE shadowing it, RP104).
    linter = (SRC / "analysis" / "linter.py").read_text()
    assert "bind_query_as_relation" not in linter
    assert ".resolve(" not in linter and ".schema" not in linter
    assert re.findall(r"catalog\.get\([^)]*\)(?! is not None)", linter) == []
    # Nothing names a view's columns from its column list but the binder.
    readers = [
        path.relative_to(SRC).as_posix()
        for path in sorted(SRC.rglob("*.py"))
        if re.search(r"zip\([^)]*\.column_names", path.read_text())
    ]
    assert readers == []


def test_lint_binds_each_statement_once(monkeypatch):
    from repro import Database
    from repro.semantics.binder import Binder
    from repro.workloads.listings import LISTINGS, SETUP
    from repro.workloads.paper_data import load_paper_tables
    from repro.workloads.tpch import TPCH_QUERIES, tpch_measure_database

    made = []
    init = Binder.__init__
    monkeypatch.setattr(
        Binder, "__init__", lambda self, catalog: made.append(init(self, catalog))
    )
    db = Database()
    load_paper_tables(db)
    per_statement = []
    for sql in [*SETUP.values(), *LISTINGS.values()]:
        before = len(made)
        assert db.lint(sql) == []
        per_statement.append(len(made) - before)
        if sql in SETUP.values():
            db.execute(sql)
    assert per_statement == [1] * 16  # 27 when lint bound each view again
    tpch = tpch_measure_database(0.001)
    for name, sql in TPCH_QUERIES.items():
        before = len(made)
        tpch.lint(sql)
        assert len(made) - before == 1, name


# -- one summary match: the text matcher is not back -------------------------------

#: What ``matview/`` matched queries by before it read the bind: the printer key,
#: the AST readers of a view's measures and of a query's shape, and the AST walk
#: that rewrote a query onto a summary (``_try_rewrite`` and its ``replace`` /
#: ``translate`` / ``translate_order``); and what the INSERT merge planned with.
TEXT_MATCHER = {
    "canonical", "_source_measure_names", "_unmatchable_shape", "_is_aggregate_call",
    "_is_measure_ref", "_contains_aggregate", "_classify_measure", "_classify",
    "_try_rewrite", "replace", "translate", "translate_order", "_merge_delta",
}


def _counting_binders(monkeypatch) -> list:
    from repro.semantics.binder import Binder

    made = []
    init = Binder.__init__
    monkeypatch.setattr(
        Binder, "__init__", lambda self, catalog: made.append(init(self, catalog))
    )
    return made


def _summary_database():
    from repro import Database
    from repro.workloads.paper_data import load_paper_tables

    db = Database()
    load_paper_tables(db)
    db.execute(
        "CREATE MATERIALIZED VIEW pc AS SELECT prodName, custName, "
        "SUM(revenue) AS r, COUNT(*) AS n FROM Orders GROUP BY prodName, custName"
    )
    return db


def test_the_text_matcher_is_not_back():
    defined: dict[str, list] = {}
    for path in sorted((SRC / "matview").glob("*.py")):
        module = path.relative_to(SRC).as_posix()
        for node in pyast.walk(pyast.parse(path.read_text())):
            if isinstance(node, (pyast.FunctionDef, pyast.ClassDef)):
                defined.setdefault(node.name, []).append(module)
    assert not TEXT_MATCHER & set(defined), {
        name: defined[name] for name in TEXT_MATCHER & set(defined)
    }
    source = "".join(path.read_text() for path in sorted(SRC.rglob("*.py")))
    for gone in ("canonical(", "__matview_delta", "_suppress_summaries"):
        assert gone not in source, gone
    # The answer is printed from the bind, never rewritten from the AST.
    matview = "".join(p.read_text() for p in (SRC / "matview").glob("*.py"))
    assert "transform_topdown" not in matview and "deepcopy" not in matview


def test_the_roll_up_rules_are_one_table():
    """The per-kind copies of the aggregate algebra are gone: summaries read
    ``engine/aggregates.py::AGGREGATES`` (states, finish, roll-up)."""
    from repro.matview.definition import SummaryMeasure

    source = {path: path.read_text() for path in SRC.rglob("*.py")}
    for gone in ("_kind", "_with_companions", "_rollup", "_MERGEABLE", "_combine", "_FACTORIES"):
        defined = [
            path.relative_to(SRC).as_posix()
            for path, text in source.items()
            for node in pyast.walk(pyast.parse(text))
            if isinstance(node, (pyast.FunctionDef, pyast.Assign))
            and gone in (
                [node.name] if isinstance(node, pyast.FunctionDef)
                else [t.id for t in node.targets if isinstance(t, pyast.Name)]
            )
        ]
        assert not defined, (gone, defined)
    assert "kind" not in {f.name for f in dataclasses.fields(SummaryMeasure)}


def test_a_summary_match_reads_the_bind_the_query_already_does(monkeypatch):
    from repro.sql import parse_query

    db = _summary_database()
    made = _counting_binders(monkeypatch)
    hit = db._plan(
        parse_query("SELECT prodName, SUM(revenue) FROM Orders GROUP BY 1"), facts=False
    )
    assert hit.strategy == "summary" and len(made) == 2  # the query, its answer
    miss = db._plan(
        parse_query("SELECT orderDate, SUM(revenue) FROM Orders GROUP BY orderDate"),
        facts=False,
    )
    assert miss.strategy == "interpreter" and miss.reports
    assert len(made) == 3  # the query's bind is the plan's
    # Lint matches on its one bind of each statement, summaries or not.
    for sql in [
        "SELECT orderDate, SUM(revenue) AS r FROM Orders GROUP BY orderDate",
        "SELECT custName, COUNT(*) FROM Orders GROUP BY custName",
        "SELECT prodName FROM Orders WHERE revenue > (SELECT AVG(revenue) FROM Orders)",
    ]:
        before = len(made)
        db.lint(sql)
        assert len(made) - before == 1, sql
    assert [d.code for d in db.lint(
        "SELECT orderDate, SUM(revenue) AS r FROM Orders GROUP BY orderDate"
    )] == ["RP110"]


def test_a_merged_insert_binds_no_delta_and_creates_no_table(monkeypatch):
    db = _summary_database()
    made = _counting_binders(monkeypatch)

    def no_table(*args, **kwargs):
        raise AssertionError("a catalog table was created")

    monkeypatch.setattr(db.catalog, "create_table", no_table)
    db.execute(
        "INSERT INTO Orders VALUES ('Happy', 'Zed', DATE '2024-01-01', 5, 1), "
        "('Acme', 'Bob', DATE '2024-01-02', 7, 2)"
    )
    assert len(made) == 1  # the VALUES the INSERT reads; the merge binds nothing
    view = db.catalog.get("pc")
    assert view.stats.incremental_merges == 1 and not view.stale
    merged = sorted(view.table.rows)
    monkeypatch.undo()
    db.execute("REFRESH MATERIALIZED VIEW pc")
    assert merged == sorted(db.catalog.get("pc").table.rows)


# -- one statement ring: the four rings and the three tables are not back ----------

#: What the statement ring replaced: the slow-query ring, the per-fingerprint
#: row the per-strategy rows were a breakdown of, the flip ring's columns, the
#: trace ring, and the three system tables now read off ``repro_statements`` /
#: ``repro_stat_statements``.
FOUR_RINGS = re.compile(
    r"\b(SlowQueryLog|StatementEntry|FLIP_COLUMNS|TraceBuffer|_log_slow"
    r"|repro_slow_queries|repro_plan_flips|repro_strategy_stats)\b"
)


def test_the_four_rings_are_not_back():
    left = [
        f"{path.relative_to(SRC)}:{number}"
        for path in sorted(SRC.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if FOUR_RINGS.search(line)
    ]
    assert left == []
    from repro import Database, telemetry
    from repro.introspect import SYSTEM_TABLE_NAMES
    from repro.telemetry.events import Ring

    # No trace is captured while a statement is observed.
    defined = [
        node.name
        for path in sorted((SRC / "telemetry").glob("*.py"))
        for node in pyast.walk(pyast.parse(path.read_text()))
        if isinstance(node, pyast.FunctionDef)
    ]
    assert "capture" not in defined
    assert len(SYSTEM_TABLE_NAMES) == 10 and "repro_statements" in SYSTEM_TABLE_NAMES
    tele = Database(telemetry=True).telemetry
    rings = [v for v in vars(tele).values() if isinstance(v, Ring)]
    assert rings == [tele.ring]
    assert not [
        name for name, v in vars(telemetry).items() if isinstance(v, type)
        and issubclass(v, Ring) and v is not Ring
    ]


def _profiled_database(**options):
    from repro import Database

    db = Database(telemetry=True, **options)
    db.execute("CREATE TABLE t (g VARCHAR, x INTEGER)")
    db.execute("INSERT INTO t VALUES ('a', 1), ('b', 2), ('a', 3)")
    return db


def test_observing_builds_no_event_and_flattens_no_trace(monkeypatch):
    """Events and traces are projections of the ring, built when read."""
    from repro.errors import SqlError
    from repro.telemetry import events, traces

    built = []
    for owner, name in (
        (events.Entry, "_event"),
        (events.Entry, "events"),
        (events.Entry, "flip"),
        (events.Entry, "slow_entry"),
        (traces, "_trace"),
    ):
        real = getattr(owner, name)
        monkeypatch.setattr(
            owner,
            name,
            lambda *a, _real=real, _name=name, **k: built.append(_name) or _real(*a, **k),
        )
    db = _profiled_database(slow_query_ms=0.0)
    for i in range(200):
        try:
            db.execute(
                f"SELECT g, SUM(x) FROM t WHERE x > {i % 3} GROUP BY g"
                if i % 10 else "SELECT nope FROM t"
            )
        except SqlError:
            pass
    assert built == []
    assert db.telemetry.ring.traced and db.telemetry.ring.slow
    assert db.export_traces() and db.slow_queries() and db.events()
    assert {"_trace", "slow_entry", "events", "_event"} <= set(built)


def _holding(ring) -> list:
    from repro.telemetry.events import Entry

    held = {id(e): e for e in [*ring.entries(), *ring.slow] if isinstance(e, Entry)}
    return sorted(e.seq for e in held.values() if e.profile is not None)


def test_at_most_two_hundred_profiles_are_held():
    from repro.telemetry.events import PROFILE_CAPACITY, RING_CAPACITY

    db = _profiled_database()
    tele = db.telemetry
    # Every statement slow, then none: the newest slow entries and the
    # newest traces are two disjoint sets of PROFILE_CAPACITY each.
    tele.slow_query_ms = 0.0
    for i in range(2400):
        db.execute(f"SELECT SUM(x) FROM t WHERE x > {i % 3}")
    tele.slow_query_ms = 1e12
    for i in range(100):
        db.execute(f"SELECT SUM(x) FROM t WHERE x > {i % 3}")
    assert PROFILE_CAPACITY == 100 and RING_CAPACITY == 1000
    last = tele.ring.entries()[-1].seq
    held = _holding(tele.ring)
    assert len(held) == 2 * PROFILE_CAPACITY
    assert held == list(range(last - 199, last + 1))
    export = json.loads(db.export_traces())
    assert export["trace_count"] == PROFILE_CAPACITY
    assert export["traces_dropped"] == 2500 - PROFILE_CAPACITY


def test_the_newest_slow_entries_keep_their_profile():
    from repro.telemetry.events import PROFILE_CAPACITY

    db = _profiled_database()
    tele = db.telemetry
    # Slow entries interleaved with fast ones, and more fast ones after:
    # the slow entries fall out of the traces but stay in the slow log.
    for i in range(600):
        tele.slow_query_ms = 0.0 if i % 3 == 0 else 1e12
        db.execute(f"SELECT SUM(x) FROM t WHERE x > {i % 3}")
    tele.slow_query_ms = 1e12
    for i in range(300):
        db.execute("SELECT COUNT(*) FROM t")
    slow = db.slow_queries()
    assert len(slow) == PROFILE_CAPACITY
    assert all(entry["profile"] is not None for entry in slow)
    seqs = [entry["seq"] for entry in slow]
    assert seqs == sorted(seqs)
    assert len(_holding(tele.ring)) == 2 * PROFILE_CAPACITY


# -- one write clock: a write is read off the stamps, never pushed ------------------

#: What each statement used to push: the summary invalidation and its counter,
#: the ANALYZE counter, the session's eviction by statement type, the cache's
#: eviction by relation name, and the table's one-row writers; and the walk
#: that listed a summary's sources beside the bind that resolves them.
PUSHED = {
    "on_mutation", "_invalidate", "note_rows_changed", "invalidate_for",
    "invalidate_relations", "invalidate_all", "insert_partial",
    "materialized_views_depending_on", "_base_dependencies",
}
PUSHED_NAMES = re.compile(r"\b(_stats_mods|_DML_TYPES|_DDL_TYPES|invalidations)\b|\"invalidation\"")
ROW_WRITERS = {"append", "extend", "insert", "clear", "pop", "remove", "sort", "reverse"}


def _own_nodes(scope):
    """The nodes of one function (or module) body, nested definitions aside."""
    stack = list(pyast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (pyast.FunctionDef, pyast.AsyncFunctionDef, pyast.ClassDef)):
            stack.extend(pyast.iter_child_nodes(node))


def row_writes(tree) -> list[int]:
    """Lines that assign into, append to or clear a row list: an ``x.rows`` /
    ``x._rows``, or a name the same function bound to one."""
    lines = set()
    for scope in pyast.walk(tree):
        if not isinstance(scope, (pyast.Module, pyast.FunctionDef, pyast.AsyncFunctionDef)):
            continue
        nodes = list(_own_nodes(scope))
        aliases = {
            target.id
            for node in nodes
            if isinstance(node, pyast.Assign)
            and isinstance(node.value, pyast.Attribute)
            and node.value.attr in ("rows", "_rows")
            for target in node.targets
            if isinstance(target, pyast.Name)
        }

        def row_list(node) -> bool:
            if isinstance(node, pyast.Name):
                return node.id in aliases
            return isinstance(node, pyast.Attribute) and node.attr in ("rows", "_rows")

        for node in nodes:
            targets = []
            if isinstance(node, (pyast.Assign, pyast.Delete)):
                targets = node.targets
            elif isinstance(node, (pyast.AugAssign, pyast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                if isinstance(target, pyast.Attribute) and target.attr == "_rows" or (
                    isinstance(target, pyast.Subscript) and row_list(target.value)
                ):
                    lines.add(node.lineno)
            if (
                isinstance(node, pyast.Call)
                and isinstance(node.func, pyast.Attribute)
                and node.func.attr in ROW_WRITERS
                and row_list(node.func.value)
            ):
                lines.add(node.lineno)
    return sorted(lines)


def test_nothing_pushes_a_write():
    from repro.analysis.lockcheck import ALLOWLIST
    from repro.catalog.objects import MaterializedView
    from repro.matview.stats import SummaryStats

    defined: dict[str, list] = {}
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        for node in pyast.walk(pyast.parse(path.read_text())):
            if isinstance(node, (pyast.FunctionDef, pyast.ClassDef)):
                defined.setdefault(node.name, []).append(module)
    assert not PUSHED & set(defined), {n: defined[n] for n in PUSHED & set(defined)}
    left = [
        f"{path.relative_to(SRC)}:{number}"
        for path in sorted(SRC.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if PUSHED_NAMES.search(line)
    ]
    assert left == []
    # Staleness is read off the stamps, never stored.
    assert isinstance(MaterializedView.stale, property)
    assert "stale" not in MaterializedView.__dataclass_fields__
    assert "invalidations" not in SummaryStats.__dataclass_fields__
    assert not [entry for entry in ALLOWLIST if "invalidate" in entry]


def test_only_the_table_writes_its_rows():
    writers = {
        path.relative_to(SRC).as_posix(): row_writes(pyast.parse(path.read_text()))
        for path in sorted(SRC.rglob("*.py"))
    }
    assert {m: lines for m, lines in writers.items() if lines} == {
        "storage/table.py": writers["storage/table.py"]
    }
    # The three shapes the direct writes had.
    assert len(row_writes(pyast.parse(
        "table.table.rows[:] = kept\n"
        "view.table.rows[position] = row\n"
        "rows = table.table.rows\n"
        "rows[index] = updated\n"
    ))) == 3


def _served_tables():
    from repro import Database
    from repro.server import SessionManager

    db = Database(telemetry=True)
    db.execute("CREATE TABLE t (x INTEGER)")
    db.execute("INSERT INTO t VALUES (1), (2), (3)")
    manager = SessionManager(db)
    return db, manager, manager.open_session()


def test_a_served_read_after_no_write_walks_no_cache_entry(monkeypatch):
    """A served read compares one integer, the write clock, with the cache's
    watermark; the entries are walked once per clock move."""
    from repro.api import PlannedQuery

    db, manager, session = _served_tables()
    walks = []
    invalidated = PlannedQuery.invalidated
    monkeypatch.setattr(
        PlannedQuery, "invalidated", lambda self: walks.append(self.sql) or invalidated(self)
    )
    reads = ["SELECT SUM(x) FROM t", "SELECT COUNT(*) FROM t"]
    for _ in range(5):
        for sql in reads:
            session.execute(sql)
    assert walks == [] and manager.plan_cache.stats()["hits"] == 8
    db.execute("INSERT INTO t VALUES (4)")  # direct, no session told
    for _ in range(5):
        for sql in reads:
            session.execute(sql)
    assert sorted(walks) == sorted(reads)  # one sweep, each entry once
    assert db.telemetry.plan_cache_evictions_total.value(reason="dml") == 2


def test_an_insert_into_part_replans_only_what_reads_part():
    from bench.builds import PART_BY_BRAND, PART_BY_MFGR, SUMMARY_QUERIES
    from repro.server import SessionManager
    from repro.workloads.tpch import TPCH_QUERIES, tpch_measure_database

    db = tpch_measure_database(0.001, summaries=True, telemetry=True)
    db.execute(PART_BY_BRAND)
    manager = SessionManager(db)
    session = manager.open_session()
    reads = [TPCH_QUERIES[name] for name in SUMMARY_QUERIES] + [PART_BY_MFGR]
    for sql in reads:
        session.execute(sql)
    cache = manager.plan_cache
    assert [row[2] for row in cache.rows()] == ["summary"] * 5
    before = cache.stats()
    session.execute(
        "INSERT INTO part VALUES (900001, 'p', 'Manufacturer#1', 'Brand#11', "
        "'ECONOMY ANODIZED', 1, 'SM BOX', 901.5, 'c')"
    )
    for sql in reads:
        session.execute(sql)
    after = cache.stats()
    assert (after["hits"] - before["hits"], after["misses"] - before["misses"]) == (4, 1)
    assert db.summary_stats()["part_by_brand"]["incremental_merges"] == 1
    assert [row[2] for row in cache.rows()] == ["summary"] * 5
