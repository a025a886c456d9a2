"""Measurement helpers shared by every workload, and the result line."""

from __future__ import annotations

import dataclasses
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from typing import Callable, Sequence

from bench import SPEC_PATH, SRC

median = statistics.median


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile, ``p`` in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def iqr_ratio(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, the spread the driver computes over ten runs."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def log_log_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log y over log x: the scaling exponent."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum(
        (a - mx) ** 2 for a in lx
    )


def typical_latency(by_name: dict) -> float:
    """Each statement kind's median latency, averaged by how often the kind
    ran, from ``{name: [seconds]}``.

    Not the plain median over all samples.  With a handful of kinds whose
    latencies do not overlap, that value sits between two kinds' clusters
    (the slowest sample of one, the fastest of the next), which is an
    extreme-value statistic and does not repeat; and a kind slower than the
    median, such as ``server_mixed``'s writes, could double without moving
    it.  Here every kind counts with the share of statements it makes up.
    """
    total = sum(map(len, by_name.values()))
    return sum(
        median(values) * len(values) / total
        for values in by_name.values()
        if values
    )


def import_probe() -> float:
    """Seconds a fresh interpreter takes to import ``repro`` (bytecode warm),
    as measured inside that interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "t = time.perf_counter(); "
        "import repro, repro.workloads, repro.server; "
        "print(time.perf_counter() - t)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(SRC)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip())


def peak_rss_mb() -> float:
    """This process's peak resident set (Linux reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- host speed ------------------------------------------------------------------

#: The calibration kernel's CPU seconds at *reference speed*.  It fixes the
#: unit of every time reported "at reference speed" and nothing else: 4.0 ms
#: is what the kernel took on the sandbox in a quiet spell, so there the
#: values read like wall-clock.
KERNEL_REFERENCE_S = 0.0040

#: Kernel runs per probe.
PROBE_RUNS = 3


class _Node:
    __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right):
        self.op, self.left, self.right = op, left, right


def _evaluate(node, row):
    if isinstance(node, int):
        return row[node]
    if isinstance(node, float):
        return node
    left, right = _evaluate(node.left, row), _evaluate(node.right, row)
    return left * right if node.op == "*" else left - right


_KERNEL_ROWS = [(i, (i * 37 % 101) / 101, i * 0.25, i % 7) for i in range(4000)]
_KERNEL_TREE = _Node("*", 2, _Node("-", 1.0, 1))


def _kernel() -> int:
    """A fixed piece of interpreter-bound work in the engine's idiom: a
    tree-walking expression per row, a grouped sum, a hash index and a
    probe.  It imports nothing from the program under test."""
    rows = _KERNEL_ROWS
    groups: dict = {}
    for row in rows:
        value = _evaluate(_KERNEL_TREE, row)
        group = groups.get(row[3])
        if group is None:
            groups[row[3]] = [value, 1]
        else:
            group[0] += value
            group[1] += 1
    index: dict = {}
    for row in rows:
        index.setdefault(row[0] % 97, []).append(row)
    matches = []
    for row in rows[:1500]:
        for other in index.get(row[0] % 97, ()):
            if other[3] == row[3]:
                matches.append((row[0], other[0]))
    return len(matches) + len(groups)


def kernel_seconds() -> float:
    """CPU seconds this thread needs for one run of the kernel, now.

    Thread CPU time, not wall-clock: a client thread of ``server_mixed``
    probes while the other client and the server keep running, and must not
    count the time it waited for its turn."""
    start = time.thread_time()
    _kernel()
    return time.thread_time() - start


def host_speed(kernel_s: float) -> float:
    """Reference speed is 1.0; a host that needs 5 ms for the kernel runs
    at 0.8.  A time measured now, times the host speed now, is the time the
    work would have taken at reference speed."""
    return KERNEL_REFERENCE_S / kernel_s


class HostSpeed:
    """Host speed beside each piece of timed work, for one thread.

    Wall-clock on the shared host drifts: over minutes (the same query took
    286-347 ms across five minutes) and within a second (the kernel flips
    between 4.4 and 7 ms).  The drift is common to everything the
    interpreter does, so it can be measured and divided out, if it is
    measured close enough to the work: with three kernel runs before and
    three after each statement, twelve 30-second blocks of ``tpch_visible``
    spread 2.4 % (quartiles) where the raw rates spread 13.6 %; with one
    probe per pass they spread 5.5 %.

    Call :meth:`mark` before each piece of work and keep the slot it
    returns, :meth:`close` after the last, then :meth:`speed` per slot.
    """

    def __init__(self, every_s: float = 0.2):
        #: A new probe is taken when the last one is this old; shorter work
        #: shares the probes around it.
        self.every_s = every_s
        self._probes: list = []  # mean kernel seconds of PROBE_RUNS runs
        self._at = -math.inf

    def _probe(self) -> None:
        self._probes.append(
            statistics.fmean(kernel_seconds() for _ in range(PROBE_RUNS))
        )
        self._at = time.perf_counter()

    def mark(self) -> int:
        if time.perf_counter() - self._at >= self.every_s:
            self._probe()
        return len(self._probes)

    def close(self) -> None:
        self._probe()

    def speed(self, slot: int) -> float:
        """From the probe before the work and the one after it."""
        return host_speed(
            (self._probes[slot - 1] + self._probes[slot]) / 2
        )

    def median(self) -> float:
        return host_speed(median(self._probes))


def timed(thunk: Callable):
    """``(result, seconds)`` of one call."""
    start = time.perf_counter()
    result = thunk()
    return result, time.perf_counter() - start


def median_seconds(thunk: Callable, repeats: int) -> float:
    return median([timed(thunk)[1] for _ in range(max(1, repeats))])


def repeat_build(build: Callable, times: int):
    """Build ``times`` times; returns the last build, every build's seconds
    at reference host speed, and the wall seconds the whole took.

    Runs after all imports, so no interpreter start, import or ``.pyc``
    state is inside the timing.  The previous build is released and
    collected before the next one is timed, so every build starts from the
    same heap.  There is a probe between any two builds.
    """
    started = time.perf_counter()
    host = HostSpeed(every_s=0.0)
    built = None
    measured = []
    for _ in range(times):
        built = None
        gc.collect()
        slot = host.mark()
        built, elapsed = timed(build)
        measured.append((elapsed, slot))
    host.close()
    seconds = [elapsed * host.speed(slot) for elapsed, slot in measured]
    return built, seconds, time.perf_counter() - started


@dataclasses.dataclass
class Report:
    """What one run hands back: the counts of the result line, the metric
    values by name (units come from ``BENCHMARK.json``) and, for some, a
    note such as the sample count printed beside the value."""

    attempted: int = 0
    failed: int = 0
    metrics: dict = dataclasses.field(default_factory=dict)
    notes: dict = dataclasses.field(default_factory=dict)

    def put(self, name: str, value: float, note: str = "") -> None:
        self.metrics[name] = value
        if note:
            self.notes[name] = note


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def declared(spec: dict, trace: bool) -> dict:
    """``{name: unit}`` of the metrics a run in this mode must print."""
    return {
        m["name"]: m["unit"]
        for m in spec["per_layer" if trace else "end_to_end"]
    }


def emit(spec: dict, report: Report, trace: bool) -> None:
    """Print every declared metric as ``name value unit`` and, last, the
    result object.  A run that measured something undeclared, or missed a
    declared metric, is a bug in the benchmark and raises."""
    units = declared(spec, trace)
    missing = sorted(set(units) - set(report.metrics))
    extra = sorted(set(report.metrics) - set(units))
    if missing or extra:
        raise RuntimeError(
            f"metrics do not match BENCHMARK.json: missing {missing}, "
            f"undeclared {extra}"
        )
    metrics = {}
    for name, unit in units.items():
        value = report.metrics[name]
        note = report.notes.get(name)
        print(f"{name} {value!r} {unit}" + (f"  # {note}" if note else ""))
        metrics[name] = {"value": value, "unit": unit}
    result = {
        "correct": report.failed == 0 and report.attempted > 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
