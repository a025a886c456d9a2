"""``python -m repro.analysis --self-check``: lint the repo's own SQL.

The self-check exercises the linter against every SQL surface the repo
ships:

* the paper's listings (including the derived expansions, Listings 5/11)
  run against the paper tables — all must lint completely clean;
* every script in ``examples/``: each SQL string constant is linted and then
  executed in source order against a fresh database, so the catalog evolves
  exactly as the example's reader sees it.  A statement that executes
  successfully must not carry warning- or error-severity diagnostics;
* every query among the two — expanded to plain SQL (``subquery``) and run —
  must return the interpreter's rows, or the expansion must be refused
  (``UnsupportedError``): the next silent divergence between the two ways
  to run a measure fails here.

``make lint`` and the CI lint job run this; exit status 1 on any finding.
"""

from __future__ import annotations

import argparse
import ast as pyast
import pathlib
import sys

from repro import Database
from repro.analysis.diagnostics import BIND_CODES, Diagnostic, Severity
from repro.errors import SqlError, UnsupportedError
from repro.sql import ast, parse_statements, to_sql
from repro.workloads.listings import LISTINGS, SETUP, expanded_listings
from repro.workloads.paper_data import load_paper_tables

_SQL_HEADS = (
    "SELECT",
    "WITH",
    "VALUES",
    "CREATE",
    "INSERT",
    "UPDATE",
    "DELETE",
    "DROP",
    "TRUNCATE",
    "REFRESH",
    "EXPLAIN",
)


def _looks_like_sql(text: str) -> bool:
    head = text.lstrip().split(None, 1)
    return bool(head) and head[0].upper() in _SQL_HEADS


def _sql_constants(path: pathlib.Path) -> list[str]:
    """Every SQL-looking string constant in a Python file, in source order."""
    tree = pyast.parse(path.read_text(), filename=str(path))
    found: list[str] = []
    for node in pyast.walk(tree):
        if isinstance(node, pyast.Constant) and isinstance(node.value, str):
            if _looks_like_sql(node.value):
                found.append(node.value)
    return found


def _problems(diags: list[Diagnostic], *, threshold: Severity) -> list[Diagnostic]:
    return [d for d in diags if d.severity >= threshold]


def _print_findings(label: str, sql: str, diags: list[Diagnostic]) -> None:
    print(f"FAIL {label}")
    first_line = " ".join(sql.strip().splitlines()[:1])
    print(f"  sql: {first_line[:90]}")
    for diag in diags:
        print(f"  {diag.render()}")


def _check_listings() -> int:
    failures = 0
    db = Database()
    load_paper_tables(db)
    for name, ddl in SETUP.items():
        diags = db.lint(ddl)
        if diags:
            _print_findings(f"setup:{name}", ddl, diags)
            failures += 1
        db.execute(ddl)
    listings = dict(LISTINGS)
    listings.update(expanded_listings(db))
    typed = 0
    for name, sql in sorted(listings.items()):
        diags = db.lint(sql)
        if diags:
            _print_findings(f"paper:{name}", sql, diags)
            failures += 1
        failures += _check_listing_types(db, name, sql)
        failures += _check_expansion(db, f"paper:{name}", sql)
        typed += 1
    print(
        f"paper listings: {len(listings)} queries + {len(SETUP)} views, "
        f"{typed} dataflow-typed, {failures} with findings"
    )
    return failures


def _check_listing_types(db: Database, name: str, sql: str) -> int:
    """Dataflow coverage gate: every operator in a listing's plan must
    carry facts, and no inferred output column type may be UNKNOWN."""
    from repro.sql import parse_statement
    from repro.types import UNKNOWN

    statement = parse_statement(sql)
    query = getattr(statement, "query", None)
    if query is None:
        return 0
    try:
        planned = db.plan_query(query, sql=sql)
    except SqlError as exc:
        print(f"FAIL types:{name}: planning failed: {exc}")
        return 1
    failures = 0

    def visit(plan) -> None:
        nonlocal failures
        facts = getattr(plan, "facts", None)
        if facts is None:
            print(
                f"FAIL types:{name}: operator {plan.label()} carries no "
                f"dataflow facts"
            )
            failures += 1
        for child in plan.inputs():
            visit(child)

    visit(planned.plan)
    root_facts = getattr(planned.plan, "facts", None)
    if root_facts is not None:
        for column in root_facts.columns:
            if column.dtype.unwrap() is UNKNOWN:
                print(
                    f"FAIL types:{name}: output column "
                    f"{column.name or '?'!r} has UNKNOWN inferred type"
                )
                failures += 1
    return failures


def _check_expansion(db: Database, label: str, sql: str) -> int:
    """Each query of ``sql`` (which just ran) through its expansion: the
    interpreter's rows, floats to nine places, or a refusal."""

    def rows(result):
        return [
            tuple(round(v, 9) if isinstance(v, float) else v for v in row)
            for row in result.rows
        ]

    failures = 0
    for statement in parse_statements(sql):
        if not isinstance(statement, ast.QueryStatement) or isinstance(
            statement.query, ast.ShowStats
        ):
            continue
        text = to_sql(statement)
        try:
            expected = rows(db.execute(text))
        except SqlError:
            continue  # needs parameters or runtime state: nothing to compare
        try:
            expanded = rows(db.execute_with_strategy(text, strategy="subquery"))
        except UnsupportedError:
            continue
        except SqlError as exc:
            problem = f"its expansion fails: {type(exc).__name__}: {exc}"
        else:
            if expanded == expected:
                continue
            problem = "its expansion does not return the interpreter's rows"
        print(f"FAIL expand:{label}: {problem}")
        print(f"  sql: {text[:90]}")
        failures += 1
    return failures


def _check_examples(examples_dir: pathlib.Path) -> int:
    failures = 0
    executed = 0
    lint_only = 0
    for path in sorted(examples_dir.glob("*.py")):
        db = Database()
        for sql in _sql_constants(path):
            diags = db.lint(sql)
            try:
                db.execute_script(sql)
            except SqlError:
                # The constant depends on runtime state the extraction
                # cannot reproduce: tables loaded from Python, parameters,
                # or it is a fragment of dynamically-built SQL.  Parse and
                # binding diagnostics are meaningless then, but the purely
                # structural rules still apply.
                lint_only += 1
                diags = [
                    d for d in diags if d.code != "RP001" and d.code not in BIND_CODES
                ]
            else:
                executed += 1
                failures += _check_expansion(db, f"example:{path.name}", sql)
            problems = _problems(diags, threshold=Severity.WARNING)
            if problems:
                _print_findings(f"example:{path.name}", sql, problems)
                failures += 1
    print(
        f"examples: {executed} statements executed+linted, "
        f"{lint_only} linted only, {failures} with findings"
    )
    return failures


def _check_example_flips(examples_dir: pathlib.Path) -> int:
    """Replay every example's SQL with telemetry on; count plan flips.

    The examples are deterministic, so any ``plan_flip`` event is a
    regression — either nondeterminism crept into planning, or an example
    started re-running a statement across a plan-changing DDL.
    """
    failures = 0
    checked = 0
    for path in sorted(examples_dir.glob("*.py")):
        db = Database(telemetry=True)
        for sql in _sql_constants(path):
            try:
                db.execute_script(sql)
            except SqlError:
                # Same tolerance as _check_examples: the constant depends
                # on runtime state the replay cannot reproduce.
                continue
        checked += 1
        flips = [e for e in db.events() if e["event"] == "plan_flip"]
        if flips:
            failures += 1
            print(f"FAIL example:{path.name}: {len(flips)} plan flip(s)")
            for flip in flips:
                print(
                    f"  {flip['fingerprint']}: {flip['old_strategy']}/"
                    f"{flip['old_plan_hash']} -> {flip['new_strategy']}/"
                    f"{flip['new_plan_hash']}"
                )
                print(f"    sql: {flip['query'][:90]}")
    print(f"flip-check: {checked} examples replayed, {failures} with plan flips")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static-analysis self-check over the repo's own SQL.",
    )
    parser.add_argument(
        "--self-check",
        action="store_true",
        help="lint the paper listings and the bundled examples",
    )
    parser.add_argument(
        "--flip-check",
        action="store_true",
        help="replay the examples with telemetry on and fail on any "
        "plan_flip event",
    )
    parser.add_argument(
        "--lock-check",
        action="store_true",
        help="statically check repro/server and repro/introspect for "
        "Database state accessed outside rwlock scopes",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="with --lock-check, also print the allowlisted scopes",
    )
    parser.add_argument(
        "--examples-dir",
        default=None,
        help="override the examples directory (default: ./examples)",
    )
    args = parser.parse_args(argv)
    if not args.self_check and not args.flip_check and not args.lock_check:
        parser.print_help()
        return 2

    failures = 0
    examples_dir = pathlib.Path(args.examples_dir or "examples")
    if args.self_check:
        failures += _check_listings()
        if examples_dir.is_dir():
            failures += _check_examples(examples_dir)
        else:
            print(f"examples: directory {examples_dir} not found, skipped")
    if args.flip_check:
        if examples_dir.is_dir():
            failures += _check_example_flips(examples_dir)
        else:
            print(f"flip-check: directory {examples_dir} not found, skipped")
    if args.lock_check:
        from repro.analysis.lockcheck import run_lock_check

        failures += run_lock_check(verbose=args.verbose)
    if failures:
        print(f"self-check: FAILED ({failures} findings)")
        return 1
    print("self-check: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
