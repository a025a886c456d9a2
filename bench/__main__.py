"""``python3 -m bench``: one workload per process, the result line last."""

from __future__ import annotations

import argparse
import sys

from bench import bootstrap, warm_bytecode

WORKLOADS = ("tpch_cold", "tpch_visible", "listings_direct", "server_mixed")


def run_workload(
    spec: dict, name: str, seed: int, seconds: float, trace: bool, quick: bool
):
    """One run of one workload; returns its :class:`~bench.measure.Report`."""
    from bench import builds, direct, measure, server_mixed

    scale = builds.QUICK if quick else builds.FULL
    names = measure.declared(spec, True)
    if name == "server_mixed":
        if trace:
            return server_mixed.run_traced(seed, seconds, scale, names)
        return server_mixed.run_untraced(seed, seconds, scale)
    workload = direct.WORKLOADS[name]
    if trace:
        return direct.run_traced(workload, seed, seconds, scale, names)
    return direct.run_untraced(workload, seed, seconds, scale)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, help="default: run_seconds of BENCHMARK.json"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true",
        help="tiny data and few builds: what --selftest runs, not a measurement",
    )
    parser.add_argument(
        "--selftest", action="store_true",
        help="check the benchmark's contract and its oracles (about a minute)",
    )
    parser.add_argument(
        "--aa", type=int, nargs="?", const=5, metavar="R",
        help="A/A: two interleaved sets of R untraced runs per workload",
    )
    args = parser.parse_args(argv)

    # Before anything is imported from the program or timed: the checkout's
    # own source on the path, and its bytecode compiled.
    bootstrap()
    warm_bytecode()

    from bench import measure

    spec = measure.load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.selftest:
        from bench import selftest

        return selftest.main()
    if args.aa is not None:
        from bench import aa

        return aa.main(args.aa, args.seconds)
    if args.workload is None:
        parser.error("--workload is required (or --selftest, or --aa)")

    report = run_workload(
        spec, args.workload, args.seed, args.seconds, bool(args.trace), args.quick
    )
    # The result line carries correctness; the exit code says it was printed.
    measure.emit(spec, report, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
