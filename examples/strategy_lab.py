"""Strategy lab: how a measure query actually executes (paper sections 4.2,
5.1, 6.4).

Shows the same query under the top-down interpreter (with the
"localized self-join" cache), the general correlated-subquery expansion,
the inline rewrite, and the window-aggregate rewrite — with work counters.

Run with::

    python examples/strategy_lab.py
"""

import time

from repro.workloads import WorkloadConfig, workload_database

db = workload_database(WorkloadConfig(orders=3000, products=15, customers=40))
db.execute(
    """CREATE VIEW eo AS
       SELECT prodName, custName, YEAR(orderDate) AS y,
              SUM(revenue) AS MEASURE rev,
              AVG(revenue) AS MEASURE avgRev
       FROM Orders"""
)

AGG_QUERY = "SELECT prodName, AGGREGATE(rev) AS r FROM eo GROUP BY prodName ORDER BY prodName"
ROW_QUERY = """SELECT o.prodName, o.orderDate FROM
               (SELECT prodName, orderDate, revenue,
                       AVG(revenue) AS MEASURE a FROM Orders) AS o
               WHERE o.revenue > o.a AT (WHERE prodName = o.prodName)"""


def timed(label, fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    elapsed = (time.perf_counter() - start) * 1000
    print(f"  {label:35s} {elapsed:8.1f} ms  ({len(result.rows)} rows)")
    return result


print("== An aggregate-site measure query ==")
print(AGG_QUERY)

print("\n1. Interpreter (top-down contexts, memoized):")
timed("interpret", db.execute, AGG_QUERY)
stats = db.last_stats
print(
    f"     measure evaluations: {stats.measure_evaluations}, "
    f"cache hits: {stats.measure_cache_hits}"
)

print("\n2. General expansion (paper section 4.2 — Listing 5's shape):")
expanded = db.expand(AGG_QUERY)
print(f"   {expanded[:110]}...")
timed("execute expanded SQL", db.execute, expanded)
print(
    f"     correlated subquery executions: {db.last_stats.subquery_executions}, "
    f"cache hits: {db.last_stats.subquery_cache_hits}"
)

print("\n3. Inline rewrite (valid for this simple GROUP BY shape):")
inlined = db.expand(AGG_QUERY, strategy="inline")
print(f"   {inlined}")
timed("execute inlined SQL", db.execute, inlined)

print("\n\n== A row-site measure query (Listing 12's query 4) ==")
print(ROW_QUERY)

print("\n1. Interpreter:")
timed("interpret", db.execute, ROW_QUERY)

print("\n2. Window rewrite (the measures/OVER correspondence, section 5.1):")
windowed = db.expand(ROW_QUERY, strategy="window")
print(f"   {windowed[:110]}...")
timed("execute windowed SQL", db.execute, windowed)

print("\n3. Subquery rewrite:")
sub = db.expand(ROW_QUERY, strategy="subquery")
timed("execute subquery SQL", db.execute, sub)

print("\n4. WinMagic (Zuzarte et al. 2003): the window rewrite of query 1's")
print("   correlated subquery, closing the section 5.1 loop:")
Q1 = """SELECT o.prodName, o.orderDate FROM Orders AS o
        WHERE o.revenue > (SELECT AVG(revenue) FROM Orders AS o1
                           WHERE o1.prodName = o.prodName)"""
winmagicked = db.expand(Q1, strategy="window")
print(f"   {winmagicked[:110]}...")
timed("execute WinMagic SQL", db.execute, winmagicked)
timed("execute original q1", db.execute, Q1)

print("\nAll strategies return the same rows:")
rows = {
    "interpret": sorted(db.execute(ROW_QUERY).rows),
    "window": sorted(db.execute(windowed).rows),
    "subquery": sorted(db.execute(sub).rows),
}
baseline = rows["interpret"]
print(f"  agree: {all(r == baseline for r in rows.values())}")

print("\nEXPLAIN EXPAND works inside SQL too:")
print(db.execute(f"EXPLAIN EXPAND {AGG_QUERY}").scalar()[:140] + "...")
