"""The ``server_mixed`` server process: ``python -m bench.serve``.

Builds the database, serves it on an ephemeral port through the public
``ServerThread`` harness, and talks to the driving process over its own
stdin/stdout, one JSON object per line:

* after the build, a ready line ``{"ready": true, "port": ..,
  "build_s": [..], "build_wall_s": .., "import_s": ..}``.  ``build_s`` are
  the builds as this process timed them, after its imports, at reference
  host speed like every ``setup_s``; ``build_wall_s`` is the wall-clock all
  of them took, probes included, as measured;
* ``stats`` on stdin is answered with one line: peak RSS, CPU seconds,
  plan-cache and summary counters;
* ``quit``, or end of input, stops the server and exits, so a driver that
  is killed never leaves a server behind.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def _say(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def _stats(db, manager, build_s) -> dict:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    evictions = db.metrics().get("plan_cache_evictions_total", {})
    return {
        "rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "plan_cache": manager.plan_cache.stats(),
        "plan_cache_invalidations": sum(
            series["value"] for series in evictions.get("series", ())
        ),
        "summaries": db.summary_stats(),
        "build_s": build_s,
    }


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(prog="bench.serve")
    parser.add_argument("--sf", type=float, required=True)
    parser.add_argument("--builds", type=int, default=1)
    args = parser.parse_args(argv)

    from bench import bootstrap

    bootstrap()
    from bench.builds import build_server
    from bench.measure import repeat_build
    from repro.server import ServerThread

    import_s = time.perf_counter() - started
    built, build_s, build_wall_s = repeat_build(
        lambda: build_server(args.sf), args.builds
    )
    server = ServerThread(built.db, port=0)
    _host, port = server.start()
    try:
        _say(
            {
                "ready": True,
                "port": port,
                "build_s": build_s,
                "build_wall_s": build_wall_s,
                "import_s": import_s,
            }
        )
        for line in sys.stdin:
            command = line.strip()
            if command == "stats":
                _say(_stats(built.db, server.manager, build_s))
            elif command == "quit":
                break
    finally:
        server.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
