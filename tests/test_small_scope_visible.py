"""VISIBLE, checked on every small database.

The enumeration of :mod:`tests.test_small_scope_rollup` — every bag of at
most two rows over {NULL, 0, 1} — for two tables: the measure's ``T(d1, d2,
x)`` and ``U(k, y)``, which joins it.  Every template of :data:`TEMPLATES`
evaluates ``AT (VISIBLE)`` (``AGGREGATE(m)``) one way: with conjuncts that
read only the measure's relation (the Aggregate's input is then narrowed and
no row of a group is read, only whether it has one), through a join key (the
group rows hashed), or through a residual conjunct (the group rows scanned)
— under GROUP BY and under ROLLUP, over the global grouping set of an empty
input, in HAVING and ORDER BY, and in a summary defined with a WHERE.  Each
must return what the same query returns with the optimizer off: equal as
bags, or as lists under ORDER BY.  A counterexample prints as the INSERTs
that rebuild it.

Both ways share how a group's rows are found, so each answer must also be
the answer of the query's expansion (``strategy="subquery"``), which runs
with no measure left.  Tier-1 runs a fixed-seed sample of the database
pairs; ``-m slow`` runs every ``T`` against every ``U`` of at most one row
and a larger sample of the rest.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass

import pytest

from repro import Database
from repro.plan import logical as plans
from repro.semantics import bound as b
from repro.sql.parser import parse_query
from tests.test_small_scope_rollup import DOMAIN, INSTANCES, as_inserts

U_ROWS = list(itertools.product(DOMAIN, repeat=2))
#: Every bag of at most two rows of ``U``: 1 + 9 + 45.
U_INSTANCES = [(), *((row,) for row in U_ROWS)] + list(
    itertools.combinations_with_replacement(U_ROWS, 2)
)

SETUP = (
    "CREATE VIEW tm AS SELECT d1, d2, x, SUM(x) AS MEASURE sx, "
    "COUNT(*) AS MEASURE n FROM T",
    "CREATE MATERIALIZED VIEW tw AS SELECT d1, d2, AGGREGATE(sx) AS sx, "
    "AGGREGATE(n) AS n FROM tm WHERE x <> 0 GROUP BY d1, d2",
)


@dataclass(frozen=True)
class Template:
    name: str
    sql: str
    #: How its VISIBLE reads the group: "local" (only whether it has a
    #: row), "keyed" (a join key, hashed) or "residual" (scanned).
    kind: str


TEMPLATES = [
    Template(
        "all-local, GROUP BY",
        "SELECT d1, AGGREGATE(sx), sx, AGGREGATE(n) FROM tm WHERE d2 <> 1 GROUP BY d1",
        "local",
    ),
    Template(
        "all-local, ROLLUP",
        "SELECT d1, d2, AGGREGATE(sx), AGGREGATE(n), n FROM tm "
        "WHERE x IS NOT NULL AND d1 <> 0 GROUP BY ROLLUP(d1, d2)",
        "local",
    ),
    Template(
        "keyed, GROUP BY",
        "SELECT u.y, AGGREGATE(t.sx), AGGREGATE(t.n), t.n "
        "FROM tm AS t JOIN U AS u ON t.d1 = u.k GROUP BY u.y",
        "keyed",
    ),
    Template(
        "keyed, ROLLUP",
        "SELECT u.y, t.d2, AGGREGATE(t.sx), AGGREGATE(t.n) "
        "FROM tm AS t JOIN U AS u ON t.d1 = u.k WHERE t.x IS NOT NULL "
        "GROUP BY ROLLUP(u.y, t.d2)",
        "keyed",
    ),
    Template(
        "residual, GROUP BY",
        "SELECT u.y, AGGREGATE(t.sx), AGGREGATE(t.n) "
        "FROM tm AS t JOIN U AS u ON t.x < u.k GROUP BY u.y",
        "residual",
    ),
    Template(
        "residual, ROLLUP",
        "SELECT u.k, t.d1, AGGREGATE(t.n), t.n "
        "FROM tm AS t JOIN U AS u ON t.x <= u.y GROUP BY ROLLUP(u.k, t.d1)",
        "residual",
    ),
    Template(
        "all-local, global set over empty input",
        "SELECT AGGREGATE(sx), AGGREGATE(n), n FROM tm WHERE x > 5",
        "local",
    ),
    Template(
        "all-local over a cross join, global set",
        "SELECT AGGREGATE(t.sx), AGGREGATE(t.n), COUNT(*) FROM tm AS t CROSS JOIN U AS u "
        "WHERE t.x <> 0",
        "local",
    ),
    Template(
        "all-local over a cross join, ROLLUP",
        "SELECT u.y, AGGREGATE(t.n), t.n FROM tm AS t CROSS JOIN U AS u "
        "WHERE t.d1 IS NOT NULL GROUP BY ROLLUP(u.y)",
        "local",
    ),
    Template(
        "keyed, global set over empty input",
        "SELECT AGGREGATE(t.n), COUNT(*) FROM tm AS t JOIN U AS u ON t.d1 = u.k "
        "WHERE u.y > 5",
        "keyed",
    ),
    Template(
        "all-local, HAVING and ORDER BY",
        "SELECT d1, AGGREGATE(sx) AS s FROM tm WHERE d2 IS NOT NULL GROUP BY d1 "
        "HAVING AGGREGATE(n) > 0 ORDER BY AGGREGATE(sx) NULLS FIRST, d1 NULLS FIRST",
        "local",
    ),
    Template(
        "keyed, HAVING and ORDER BY",
        "SELECT u.y, AGGREGATE(t.n) AS c FROM tm AS t JOIN U AS u ON t.d2 = u.k "
        "GROUP BY u.y HAVING AGGREGATE(t.sx) IS NOT NULL OR COUNT(*) > 1 "
        "ORDER BY AGGREGATE(t.n), u.y NULLS FIRST",
        "keyed",
    ),
    Template(
        "a summary defined with a WHERE, read",
        "SELECT * FROM tw",
        "local",
    ),
    Template(
        "a summary defined with a WHERE, rolled up",
        "SELECT d1, AGGREGATE(sx), AGGREGATE(n) FROM tm WHERE x <> 0 GROUP BY d1",
        "local",
    ),
]


def build(t_rows, u_rows, **options) -> Database:
    db = Database(**options)
    db.create_table_from_rows(
        "T", [("d1", "INTEGER"), ("d2", "INTEGER"), ("x", "INTEGER")], list(t_rows)
    )
    db.create_table_from_rows("U", [("k", "INTEGER"), ("y", "INTEGER")], list(u_rows))
    for ddl in SETUP:
        db.execute(ddl)
    return db


def check(t_rows, u_rows) -> None:
    hot, cold = build(t_rows, u_rows), build(t_rows, u_rows, optimizer=False)
    database = as_inserts(t_rows) + "\n" + as_inserts(u_rows).replace(" T", " U")
    for template in TEMPLATES:
        where = f"{template.name}: {template.sql}\n{database}"
        got, want = hot.execute(template.sql).rows, cold.execute(template.sql).rows
        if "ORDER BY" not in template.sql:
            got, want = Counter(got), Counter(want)
        assert got == want, where
        # Both ways above find a group's rows through the same machinery;
        # the expansion, run as plain SQL, finds them through none of it.
        expanded = cold.execute_with_strategy(template.sql, (), strategy="subquery").rows
        assert Counter(expanded) == Counter(got), f"expansion of {where}"


def visible_kinds(db: Database, plan: plans.LogicalPlan) -> set:
    """How each VISIBLE in ``plan`` (or in the refresh plan of a summary it
    scans) reads its group; the Aggregate it names says the same."""
    kinds = set()
    for node in plan.walk():
        if isinstance(node, plans.Scan):
            summary = getattr(db.catalog.get(node.table_name), "definition", None)
            if summary is not None:
                kinds |= visible_kinds(db, summary.plan)
        for expr in node.expressions():
            for site in b.walk(expr):
                if isinstance(site, b.BoundMeasureEval) and site.context.visible:
                    info = site.context.visible
                    kind = "residual" if info.residual else "keyed" if info.keys else "local"
                    assert info.reads_group_rows == (kind != "local")
                    assert site.context.groups.rows_read == info.reads_group_rows
                    kinds.add(kind)
    return kinds


@pytest.mark.parametrize("template", TEMPLATES, ids=[t.name for t in TEMPLATES])
def test_each_template_reads_its_groups_as_it_says(template):
    db = build([(0, 1, 1), (1, None, 0)], [(0, 1), (1, None)])
    plan = db.plan_query(parse_query(template.sql)).plan
    assert visible_kinds(db, plan) == {template.kind}
    if template.kind == "local":
        aggregates = [n for n in plan.walk() if isinstance(n, plans.Aggregate)]
        assert all(not n.groups or not n.groups.rows_read for n in aggregates)


def test_the_database_pairs_are_every_two_bags_of_two_rows():
    assert len(U_INSTANCES) == 55 == len(set(U_INSTANCES))


def test_visible_on_a_sample_of_small_databases():
    """Each sampled ``T`` with an empty ``U`` (the cross join's empty input)
    and two sampled ones."""
    pick = random.Random(41)
    for t_rows in [(), *pick.sample(INSTANCES, 24)]:
        for u_rows in [(), *pick.sample(U_INSTANCES, 2)]:
            check(t_rows, u_rows)


@pytest.mark.slow
def test_visible_on_every_small_database():
    small_u = [u for u in U_INSTANCES if len(u) <= 1]
    for t_rows in INSTANCES:
        for u_rows in small_u:
            check(t_rows, u_rows)
    pairs = list(itertools.product(INSTANCES, U_INSTANCES))
    for t_rows, u_rows in random.Random(7).sample(pairs, 2000):
        check(t_rows, u_rows)
