"""Execution engine: expression compiler, operators, functions, aggregates, windows."""

from repro.engine.compile import compile_expr
from repro.engine.evaluator import EvalEnv, ExecutionContext
from repro.engine.executor import execute_plan

__all__ = ["EvalEnv", "ExecutionContext", "compile_expr", "execute_plan"]
