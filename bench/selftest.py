"""``python3 -m bench --selftest``: the benchmark checks itself.

* ``BENCHMARK.json`` is within the contract's limits;
* every workload, run for 2 s on tiny data in both trace modes, prints
  every declared metric once as ``name value unit``, nothing undeclared,
  and the result object last, with nothing failed;
* every oracle accepts the engine's result and rejects it with one cell
  perturbed;
* call counts and work counters are identical between two runs of a seed;
* the layer spans add up: ``0.95 <= trace.coverage <= 1.05`` on
  ``tpch_cold``, over ten seconds of plain and traced executions taking
  turns (a two-second run has too few to tell 5 % on a busy host).
"""

from __future__ import annotations

import json
import random
import re
import subprocess
import sys
import time

from bench import ROOT, builds, direct, measure, oracle, server_mixed
from bench.__main__ import WORKLOADS

SEED = 11
SECONDS = 2
_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
_PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}\Z")

#: Per-layer metrics that must repeat exactly for a seed.
EXACT = re.compile(
    r".*\.calls\Z|engine\.(rows_scanned|hash_joins|nested_loop_joins|"
    r"subquery_executions)\Z|core\.measure_evaluations\Z"
)


class Failure(AssertionError):
    pass


def check(condition, message: str) -> None:
    if not condition:
        raise Failure(message)


def check_spec(spec: dict) -> None:
    check(
        set(spec)
        == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        "BENCHMARK.json has exactly the contract's keys",
    )
    check(1 <= len(spec["paths"]) <= 16, "1 to 16 paths")
    for path in spec["paths"]:
        check(
            _PATH.match(path) and not path.startswith("/") and ".." not in path,
            f"path {path!r} is relative and plain",
        )
    check(len(spec["command"]) <= 32, "command has at most 32 strings")
    check(
        isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60,
        "run_seconds is a whole number from 1 to 60",
    )
    check(2 <= len(spec["workloads"]) <= 8, "2 to 8 workloads")
    check(
        [w["name"] for w in spec["workloads"]] == list(WORKLOADS),
        "the declared workloads are the ones the program runs",
    )
    for workload in spec["workloads"]:
        check(set(workload) == {"name", "why"}, "a workload has name and why")
        check(
            len(workload["why"]) <= 200 and "\n" not in workload["why"],
            f"{workload['name']}: why is one line of at most 200 characters",
        )
    check(1 <= len(spec["end_to_end"]) <= 16, "1 to 16 end-to-end metrics")
    check(1 <= len(spec["per_layer"]) <= 128, "1 to 128 per-layer metrics")
    names = [w["name"] for w in spec["workloads"]]
    for metric in spec["end_to_end"]:
        check(
            set(metric) == {"name", "unit", "better", "bound"},
            f"{metric.get('name')}: end-to-end keys",
        )
        # The contract allows 0.25; this benchmark holds itself to a tenth.
        check(0 < metric["bound"] <= 0.10, f"{metric['name']}: bound at most 0.10")
    for metric in spec["per_layer"]:
        check(
            set(metric) == {"name", "unit", "better"},
            f"{metric.get('name')}: per-layer keys",
        )
    for metric in spec["end_to_end"] + spec["per_layer"]:
        names.append(metric["name"])
        check(_UNIT.match(metric["unit"]), f"{metric['name']}: unit")
        check(metric["better"] in ("higher", "lower"), f"{metric['name']}: better")
    for name in names:
        check(_NAME.match(name), f"name {name!r} is well formed")
    check(len(names) == len(set(names)), "every name is used once")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(
        setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
        "setup_s is declared in seconds, lower is better",
    )
    check(
        setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
        "setup_s has the largest bound",
    )


def run_cli(workload: str, trace: int) -> dict:
    """One quick run through the command line; returns ``{name: value}``
    after checking what it printed against the contract."""
    argv = [
        sys.executable, "-m", "bench", "--workload", workload, "--quick",
        "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace),
    ]
    done = subprocess.run(
        argv, cwd=ROOT, capture_output=True, text=True, timeout=170
    )
    label = f"{workload} --trace {trace}"
    check(done.returncode == 0, f"{label}: exit code 0\n{done.stderr}")
    lines = done.stdout.splitlines()
    units = measure.declared(measure.load_spec(), bool(trace))
    printed: dict = {}
    for line in lines[:-1]:
        fields = line.split()
        check(len(fields) >= 3, f"{label}: line {line!r} is name value unit")
        name, value, unit = fields[:3]
        check(name in units, f"{label}: {name} is declared")
        check(name not in printed, f"{label}: {name} is printed once")
        check(unit == units[name], f"{label}: {name} has its declared unit")
        printed[name] = float(value)
    check(set(printed) == set(units), f"{label}: every declared metric is printed")
    result = json.loads(lines[-1])
    check(
        set(result) == {"correct", "attempted", "failed", "metrics"},
        f"{label}: the last line is the result object",
    )
    check(
        result["correct"] is True and result["failed"] == 0,
        f"{label}: {result['failed']} of {result['attempted']} failed",
    )
    check(result["attempted"] >= 1, f"{label}: something was attempted")
    check(set(result["metrics"]) == set(units), f"{label}: result metrics")
    for name, entry in result["metrics"].items():
        check(
            set(entry) == {"value", "unit"} and entry["value"] == printed[name],
            f"{label}: {name} in the result line",
        )
    return printed


def _perturbed(rows):
    """``rows`` with the last cell of the first row changed."""
    first = list(rows[0])
    cell = first[-1]
    if isinstance(cell, (int, float)) and not isinstance(cell, bool):
        first[-1] = cell * 1.001 + 1
    else:
        first[-1] = f"{cell}?"
    return [tuple(first)] + [tuple(row) for row in rows[1:]]


def check_oracles() -> int:
    """Each oracle accepts the engine's rows and rejects perturbed rows,
    rows in another order, and a missing row."""
    scale = builds.QUICK
    cases = []
    for workload in direct.WORKLOADS.values():
        built = workload.build(scale)
        expected = workload.expected(built)
        for name, sql in workload.statements(built):
            cases.append((name, built.db.execute(sql).rows, expected[name]))
    # The server's roll-up, and its count after a replayed INSERT.
    built = builds.build_server(scale.sf)
    row = server_mixed.Stream(0, SEED, None).part_row()
    built.db.execute(server_mixed.INSERT_PART, row)
    with oracle.TpchOracle(built.tables, server_mixed.TPCH_TABLES) as sqlite:
        sqlite.insert("part", [row])
        cases.append(
            (
                "part_by_mfgr",
                built.db.execute(builds.PART_BY_MFGR).rows,
                sqlite.rows(oracle.PART_BY_MFGR_ORACLE),
            )
        )
        cases.append(
            (
                "part_count",
                built.db.execute("SELECT COUNT(*) FROM part").rows,
                sqlite.rows(oracle.PART_COUNT_ORACLE),
            )
        )
    for name, rows, expected in cases:
        check(rows, f"oracle {name}: the engine returned rows")
        check(oracle.rows_match(rows, expected), f"oracle {name}: accepts")
        check(
            not oracle.rows_match(_perturbed(rows), expected),
            f"oracle {name}: rejects a perturbed cell",
        )
        check(
            not oracle.rows_match(rows[:-1], expected),
            f"oracle {name}: rejects a missing row",
        )
        if len(rows) > 1 and rows[0] != rows[-1]:
            check(
                not oracle.rows_match(rows[::-1], expected),
                f"oracle {name}: rejects another order",
            )
        verifier = oracle.Verifier({name: expected})
        verifier.check(name, rows)
        verifier.check(name, _perturbed(rows))
        check(
            (verifier.attempted, verifier.failed) == (2, 1),
            f"oracle {name}: a perturbed result counts as failed",
        )
    return len(cases)


def check_coverage() -> float:
    """``trace.coverage`` of ``tpch_cold`` as the traced run computes it,
    from many more executions than its two-second run has."""
    workload = direct.WORKLOADS["tpch_cold"]
    built = workload.build(builds.QUICK)
    statements = workload.statements(built)
    verifier = oracle.Verifier(workload.expected(built))
    direct.warm_up(built.db, statements, verifier)
    both = direct.alternate(
        built.db, statements, verifier, 10.0, random.Random(SEED)
    )
    check(verifier.failed == 0, "tpch_cold: plain and traced rows are correct")
    coverage = both.pipeline.metrics()["trace.coverage"]
    check(
        0.95 <= coverage <= 1.05,
        f"tpch_cold: trace.coverage {coverage:.3f} within 0.95..1.05 "
        f"({len(both.pass_times)} passes)",
    )
    return coverage


def main() -> int:
    started = time.perf_counter()
    try:
        check_spec(measure.load_spec())
        print("ok  BENCHMARK.json is within the contract")
        print(f"ok  {check_oracles()} oracles accept and reject")
        runs = [(w, t) for w in WORKLOADS for t in (0, 1, 1)]
        printed = [run_cli(*run) for run in runs]
        print(f"ok  {len(runs)} runs print what BENCHMARK.json declares")
        traced: dict = {}
        for (workload, trace), metrics in zip(runs, printed):
            if trace:
                traced.setdefault(workload, []).append(metrics)
        for workload, (first, second) in traced.items():
            for name in first:
                if EXACT.match(name):
                    check(
                        first[name] == second[name],
                        f"{workload}: {name} repeats "
                        f"({first[name]} then {second[name]})",
                    )
        print("ok  call counts and work counters repeat exactly")
        print(f"ok  tpch_cold trace.coverage {check_coverage():.3f}")
    except Failure as failure:
        print(f"FAIL  {failure}")
        return 1
    print(f"selftest passed in {time.perf_counter() - started:.0f} s")
    return 0
