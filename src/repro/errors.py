"""Exception hierarchy for the repro SQL engine.

Every user-facing failure raised by the library derives from :class:`SqlError`
so that applications can catch one exception type at the API boundary.  The
subclasses mirror the stage of query processing that detected the problem,
which makes test assertions and error reporting precise.
"""

from __future__ import annotations

from typing import Optional


class SqlError(Exception):
    """Base class for all errors raised by the repro engine."""


class LexerError(SqlError):
    """Raised when the tokenizer encounters malformed input.

    Carries the 1-based ``line`` and ``column`` of the offending character.
    """

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} at line {line}, column {column}")
        self.line = line
        self.column = column


class ParseError(SqlError):
    """Raised when the parser cannot derive a statement from the token stream."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        location = f" at line {line}, column {column}" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class BindError(SqlError):
    """Raised during semantic analysis: unknown names, ambiguity, misuse of
    aggregates, invalid measure references, and similar static errors.

    Carries the 1-based ``line`` and ``column`` of the offending construct
    when known (the binder attaches them from AST spans); both are 0 when
    the error has no source position (e.g. programmatically-built ASTs).

    ``rule`` is the lint code (``RPxxx``) of the static rule the error
    enforces, set where it is raised; None for a plain semantic error (which
    lint reports as ``RP002``).
    """

    def __init__(
        self,
        message: str,
        line: int = 0,
        column: int = 0,
        *,
        rule: Optional[str] = None,
    ):
        location = f" at line {line}, column {column}" if line else ""
        super().__init__(f"{message}{location}")
        self.message = message
        self.line = line
        self.column = column
        self.rule = rule

    def attach_location(self, line: int, column: int) -> "BindError":
        """Late-bind a source position onto an already-raised error.

        Used by the binder's dispatch loop: the innermost AST node that
        carries a span wins, and an error that already has a position keeps
        it as the exception propagates outward.
        """
        if not self.line and line:
            self.line = line
            self.column = column
            self.args = (f"{self.message} at line {line}, column {column}",)
        return self


class CatalogError(SqlError):
    """Raised for catalog problems: missing or duplicate tables and views,
    arity mismatches in DDL/DML, and schema violations."""


class TypeCheckError(BindError):
    """Raised when an expression is applied to operands of an unsupported type."""


class ExecutionError(SqlError):
    """Raised when a runtime evaluation fails (division by zero, a scalar
    subquery returning more than one row, cast failures, ...).

    Carries the 1-based ``line`` and ``column`` of the expression whose
    evaluation failed when the evaluator knows it (bound expressions carry
    their AST spans); both are 0 when the failure has no source position.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        location = f" at line {line}, column {column}" if line else ""
        super().__init__(f"{message}{location}")
        self.message = message
        self.line = line
        self.column = column

    def attach_location(self, line: int, column: int) -> "ExecutionError":
        """Late-bind a source position; the innermost position wins and an
        error that already has one keeps it while propagating outward."""
        if not self.line and line:
            self.line = line
            self.column = column
            self.args = (f"{self.message} at line {line}, column {column}",)
        return self


class QueryCancelled(ExecutionError):
    """Raised when an in-flight statement is cancelled (the query server's
    ``cancel`` operation).  The executor checks the session's cancel flag
    at every operator boundary, so cancellation lands between operators —
    never mid-row — and the session stays usable afterwards."""


class ResourceExhausted(ExecutionError):
    """Raised when a query exceeds its memory budget
    (``Database(memory_limit_bytes=...)``).

    The executor's materialization sites account estimated bytes as
    buffers grow and raise this *before* the interpreter OOMs; as an
    :class:`ExecutionError` it carries a source span when one is known,
    the failing operator is named in the message, and the session that
    ran the query stays usable — exactly like a cancellation."""


class MeasureError(BindError):
    """Raised for invalid measure definitions or uses: recursive measures,
    ``AT`` applied to a non-measure, ``CURRENT`` outside a ``SET`` modifier,
    unknown dimensions, and similar."""


class UnsupportedError(SqlError):
    """Raised for syntactically valid SQL that this engine does not implement."""


class InternalError(SqlError):
    """Raised when an engine invariant breaks (e.g. the plan optimizer fails
    to reach a fixpoint).  Always a bug in the engine, never user error."""


class ValidationError(InternalError):
    """Raised by the plan/IR validator (``REPRO_VALIDATE=1``) when a bound or
    optimized plan violates an engine invariant: schema arity mismatches,
    dangling column ordinals, impossible correlation depths, or an optimizer
    rule that claims progress while producing a semantically identical plan.

    ``violations`` lists every individual invariant breach found in the plan
    that triggered the error.
    """

    def __init__(self, message: str, violations: tuple = ()):
        super().__init__(message)
        self.violations = list(violations)
