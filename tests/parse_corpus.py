"""The golden parse corpus: every SQL text in the repository, parsed.

``harvest()`` collects the texts: the paper's listings (with the two
expansions), the TPC-H views, queries and summaries, every string constant
in ``examples/*.py``, every ``sql`` fenced block in ``docs/`` and every
string constant in ``tests/*.py`` (the triple-quoted scripts and the
one-line statements and expressions the tests parse).  ``outcome()``
parses one text as a script (``parse_statements``) and as a scalar
expression (``parse_expression``) and records, for each, the whole AST
with every node's span, or the error's class, message, line and column.

``tests/data/parse_corpus.json`` maps each text to the digest of its
outcome; ``tests/test_parse_corpus.py`` asserts that today's parser agrees.
The fixture holds the texts themselves, so it does not depend on the files
they were harvested from.  To regenerate it on purpose (after a deliberate
change to what the parser produces)::

    PYTHONPATH=src python -m tests.parse_corpus --write
"""

from __future__ import annotations

import ast as pyast
import dataclasses
import hashlib
import json
import re
import sys
from pathlib import Path

from repro.sql import ast
from repro.sql.parser import parse_expression, parse_statements

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = Path(__file__).resolve().parent / "data" / "parse_corpus.json"

_SQL_FENCE = re.compile(r"```sql\n(.*?)```", re.DOTALL)


def _listing_texts() -> list[str]:
    from repro import Database
    from repro.workloads.listings import SETUP, all_listing_sql
    from repro.workloads.paper_data import load_paper_tables

    db = Database()
    load_paper_tables(db)
    for ddl in SETUP.values():
        db.execute(ddl)
    return list(SETUP.values()) + list(all_listing_sql(db).values())


def _tpch_texts() -> list[str]:
    from repro.workloads.tpch import TPCH_QUERIES, TPCH_SUMMARIES, TPCH_VIEWS

    return [*TPCH_VIEWS.values(), *TPCH_QUERIES.values(), *TPCH_SUMMARIES.values()]


def _string_constants(directory: str) -> list[str]:
    texts = []
    for path in sorted((ROOT / directory).glob("*.py")):
        tree = pyast.parse(path.read_text(encoding="utf-8"))
        texts.extend(
            node.value
            for node in pyast.walk(tree)
            if isinstance(node, pyast.Constant) and isinstance(node.value, str)
        )
    return texts


def _doc_texts() -> list[str]:
    texts = []
    for path in sorted((ROOT / "docs").glob("*.md")):
        texts.extend(_SQL_FENCE.findall(path.read_text(encoding="utf-8")))
    return texts


def harvest() -> list[str]:
    """Every SQL text in the repository, deduplicated, in a stable order."""
    texts = (
        _listing_texts()
        + _tpch_texts()
        + _string_constants("examples")
        + _doc_texts()
        + _string_constants("tests")
    )
    return sorted(set(texts))


def dump(value):
    """A node, with every field and its span, as nested tuples."""
    if isinstance(value, ast.Node):
        span = value.span
        return (
            type(value).__name__,
            None if span is None else (span.line, span.column, span.end_line, span.end_column),
            tuple((f.name, dump(getattr(value, f.name))) for f in dataclasses.fields(value)),
        )
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, tuple(dump(item) for item in value))
    return (type(value).__name__, repr(value))


def _attempt(parse, text: str):
    try:
        return ("ok", dump(parse(text)))
    except Exception as exc:  # the outcome records any failure, typed
        return (
            "error",
            type(exc).__name__,
            str(exc),
            getattr(exc, "line", None),
            getattr(exc, "column", None),
        )


def outcome(text: str) -> tuple:
    """What the parser makes of ``text``, as a script and as an expression."""
    return (_attempt(parse_statements, text), _attempt(parse_expression, text))


def digest(text: str) -> str:
    return hashlib.sha256(repr(outcome(text)).encode("utf-8")).hexdigest()[:16]


def load() -> dict[str, str]:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def write() -> None:
    corpus = {text: digest(text) for text in harvest()}
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(
        json.dumps(corpus, indent=0, sort_keys=True, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {len(corpus)} texts to {FIXTURE}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.parse_corpus --write")
    write()
