"""Lock-discipline checker for the concurrent server layer.

``python -m repro.analysis --lock-check`` parses (Python ``ast``, no
imports, no execution) every module in ``repro/server/``,
``repro/introspect/`` and ``repro/profile/`` (the running-queries directory
every session registers in) and flags accesses to shared Database state that are
not lexically inside a ``with <...>.rwlock.read():`` or
``with <...>.rwlock.write():`` block.

The discipline being enforced (see :mod:`repro.server.session`): every
statement against a shared Database runs under its single-writer /
many-reader lock.  Code in the server layer that reaches into the Database
— the catalog, or any of the execute/plan entry points — outside such a
scope is a data race with concurrent DDL unless its caller provably holds
the lock.  Those proven cases go in :data:`ALLOWLIST`, each with a
one-line justification that the checker prints on request.  An entry
whose file or function no longer exists is a finding too: it would
silently exempt the next function given that name.

Scope rules:

* A ``with`` block guards only its lexical body.  A nested ``def`` inside
  the block is *not* guarded — the closure runs later, when the lock is
  long released — so the checker resets the lock context at every
  function boundary.
* Receiver matching is syntactic: an access counts when the guarded
  member is read off a ``db`` name or a ``.db`` attribute chain
  (``db.catalog``, ``self.db.plan_query``, ``manager.db.execute``...).
  Aliasing through a differently-named local defeats the checker; the
  server code deliberately keeps Database references named ``db``.
"""

from __future__ import annotations

import ast
import pathlib
from dataclasses import dataclass

__all__ = [
    "GUARDED_MEMBERS",
    "ALLOWLIST",
    "LockFinding",
    "check_file",
    "run_lock_check",
]

#: Database members whose access touches shared mutable state and must be
#: covered by the rwlock (telemetry and plan_cache carry their own locks
#: and are deliberately absent).
GUARDED_MEMBERS = frozenset(
    [
        "catalog",
        "execute",
        "execute_script",
        "execute_planned",
        "plan_query",
        "lint",
        "_execute_statement",
        "_execute_observed",
        "_run_query",
        "create_table_from_rows",
    ]
)

#: ``<path relative to repro/>::<dotted function>`` -> justification.
#: An entry covers the function and everything lexically nested in it.
ALLOWLIST: dict[str, str] = {
    "server/session.py::Session._planned": (
        "only called from prepare() and _replay(), inside the caller's "
        "rwlock.read() scope"
    ),
    "server/session.py::Session._replay": (
        "only called from the run hook _run_read() hands to "
        "_execute_observed, inside its rwlock.read() scope"
    ),
    "server/session.py::SessionManager._install_system_tables": (
        "runs in the SessionManager constructor, before the manager is "
        "shared with any session"
    ),
    "server/server.py::main": (
        "preloads tables at startup, before the server accepts clients"
    ),
    "introspect/tables.py::install_system_tables": (
        "registration runs in the Database constructor; the provider "
        "closures run inside table scans, under the statement's lock"
    ),
}


@dataclass(frozen=True)
class LockFinding:
    """One unguarded access to shared Database state."""

    path: str  # relative to the repro package root
    line: int
    column: int
    function: str
    member: str

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.column}: unguarded access to "
            f"db.{self.member} in {self.function}() — wrap in "
            f"'with db.rwlock.read()/write()' or allowlist with a "
            f"justification"
        )


def _is_rwlock_scope(expr: ast.expr) -> bool:
    """``<anything>.rwlock.read()`` / ``.write()`` as a with-item."""
    return (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Attribute)
        and expr.func.attr in ("read", "write")
        and isinstance(expr.func.value, ast.Attribute)
        and expr.func.value.attr == "rwlock"
    )


def _is_db_receiver(expr: ast.expr) -> bool:
    """The receiver is a ``db`` name or ends in a ``.db`` attribute."""
    if isinstance(expr, ast.Name):
        return expr.id == "db"
    return isinstance(expr, ast.Attribute) and expr.attr == "db"


class _Visitor(ast.NodeVisitor):
    def __init__(self, rel_path: str) -> None:
        self.rel_path = rel_path
        self.stack: list[str] = []
        self.lock_depth = 0
        self.findings: list[LockFinding] = []
        #: The dotted name of every class and function the file defines.
        self.defined: set[str] = set()

    def _qualname(self) -> str:
        return ".".join(self.stack) or "<module>"

    def _allowlisted(self) -> bool:
        qual = self._qualname()
        for entry in ALLOWLIST:
            path, _, func = entry.partition("::")
            if path != self.rel_path:
                continue
            if qual == func or qual.startswith(func + "."):
                return True
        return False

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.stack.append(node.name)
        self.defined.add(self._qualname())
        self.generic_visit(node)
        self.stack.pop()

    def _visit_function(self, node) -> None:
        # A closure body runs when called, not where defined: whatever lock
        # was held around the def does not guard it.
        self.stack.append(node.name)
        self.defined.add(self._qualname())
        saved, self.lock_depth = self.lock_depth, 0
        self.generic_visit(node)
        self.lock_depth = saved
        self.stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def _visit_with(self, node) -> None:
        locked = any(_is_rwlock_scope(item.context_expr) for item in node.items)
        for item in node.items:
            self.visit(item.context_expr)
            if item.optional_vars is not None:
                self.visit(item.optional_vars)
        if locked:
            self.lock_depth += 1
        for stmt in node.body:
            self.visit(stmt)
        if locked:
            self.lock_depth -= 1

    visit_With = _visit_with
    visit_AsyncWith = _visit_with

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            node.attr in GUARDED_MEMBERS
            and _is_db_receiver(node.value)
            and self.lock_depth == 0
            and not self._allowlisted()
        ):
            self.findings.append(
                LockFinding(
                    self.rel_path,
                    node.lineno,
                    node.col_offset,
                    self._qualname(),
                    node.attr,
                )
            )
        self.generic_visit(node)


def _visit_file(path: pathlib.Path, rel_path: str) -> _Visitor:
    tree = ast.parse(path.read_text(), filename=str(path))
    visitor = _Visitor(rel_path)
    visitor.visit(tree)
    return visitor


def check_file(path: pathlib.Path, rel_path: str) -> list[LockFinding]:
    """Check one Python source file; returns its findings."""
    return _visit_file(path, rel_path).findings


def _package_root() -> pathlib.Path:
    import repro

    return pathlib.Path(repro.__file__).parent


def run_lock_check(*, verbose: bool = False) -> int:
    """Check ``repro/server/``, ``repro/introspect/`` and ``repro/profile/``
    and the allowlist's entries; print findings and return their count (the
    CLI exit-status contribution)."""
    root = _package_root()
    findings: list[LockFinding] = []
    defined: set[str] = set()
    checked = 0
    for subdir in ("server", "introspect", "profile"):
        directory = root / subdir
        if not directory.is_dir():
            continue
        for path in sorted(directory.glob("*.py")):
            rel = f"{subdir}/{path.name}"
            visitor = _visit_file(path, rel)
            findings.extend(visitor.findings)
            defined.update(f"{rel}::{name}" for name in visitor.defined)
            checked += 1
    stale = sorted(set(ALLOWLIST) - defined)
    for finding in findings:
        print(finding.render())
    for entry in stale:
        print(
            f"{entry}: stale allowlist entry — no such function in a "
            f"checked file; delete or rename it"
        )
    if verbose:
        for entry, reason in sorted(ALLOWLIST.items()):
            print(f"allowlisted {entry}: {reason}")
    print(
        f"lock-check: {checked} files checked, "
        f"{len(ALLOWLIST)} allowlisted scopes, "
        f"{len(findings) + len(stale)} findings"
    )
    return len(findings) + len(stale)
