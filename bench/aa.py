"""``python3 -m bench --aa R``: do two sets of runs of the same code agree?

Two interleaved sets (A B A B ...) of R full-length untraced runs per
workload, run i of both sets with seed i.  For every workload and
end-to-end metric it prints both medians, their relative gap (positive =
set B worse), and for each set the quartile spread (Q3 - Q1) / median, which
is what the driver compares with the bound, and (max - min) / median.  Exits
non-zero if a gap or a spread exceeds the metric's declared bound.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time

from bench import ROOT
from bench.__main__ import WORKLOADS
from bench.measure import iqr_ratio, load_spec


def one_run(workload: str, seed: int, seconds: float) -> dict:
    argv = [
        sys.executable, "-m", "bench", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(
        argv, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True
    )
    result = json.loads(done.stdout.splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(repeats: int, seconds: float) -> int:
    spec = load_spec()
    metrics = spec["end_to_end"]
    sets: dict = {
        (w, s): {m["name"]: [] for m in metrics}
        for w in WORKLOADS
        for s in "AB"
    }
    walls: list = []  # what a run takes, set-up and verification included
    for index in range(repeats):
        for workload in WORKLOADS:
            for which in "AB":
                started = time.perf_counter()
                values = one_run(workload, index + 1, seconds)
                walls.append(time.perf_counter() - started)
                for name, value in values.items():
                    sets[workload, which][name].append(value)
                print(
                    f"# run {index + 1}/{repeats} {workload} {which}: "
                    + " ".join(f"{n}={v:.5g}" for n, v in values.items())
                    + f" ({walls[-1]:.1f} s)",
                    flush=True,
                )

    print(
        "| workload | metric | median A | median B | gap | IQR/med A | "
        "IQR/med B | range/med A | range/med B | bound |"
    )
    print("|---|---|---|---|---|---|---|---|---|---|")
    worst = 0
    for workload in WORKLOADS:
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            a = sets[workload, "A"][name]
            b = sets[workload, "B"][name]
            med_a, med_b = statistics.median(a), statistics.median(b)
            gap = (med_b - med_a) / med_a
            if metric["better"] == "higher":
                gap = -gap
            spreads = [iqr_ratio(a), iqr_ratio(b)]
            ranges = [(max(v) - min(v)) / statistics.median(v) for v in (a, b)]
            # setup_s is held to its gap only, as by the driver.
            over = abs(gap) > bound or (
                name != "setup_s" and max(spreads) > bound
            )
            worst += over
            print(
                f"| {workload} | {name} | {med_a:.5g} | {med_b:.5g} | "
                f"{gap:+.1%} | {spreads[0]:.1%} | {spreads[1]:.1%} | "
                f"{ranges[0]:.1%} | {ranges[1]:.1%} | {bound:.0%}"
                f"{' EXCEEDED' if over else ''} |"
            )
    print(f"{worst} of {len(WORKLOADS) * len(metrics)} pairs exceed their bound")
    print(f"a run took {statistics.fmean(walls):.1f} s on average")
    return 1 if worst else 0
