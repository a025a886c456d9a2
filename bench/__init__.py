"""The repo benchmark: four workloads, four end-to-end metrics, a layer trace.

Run one workload the way the driver does, from the root of a checkout::

    python3 -m bench --workload tpch_cold --seed 7 --seconds 30 --trace 0

``--trace 1`` runs the same workload again with the outside-in layer trace
and prints the per-layer metrics instead.  ``python3 -m bench --selftest``
checks the contract, ``python3 -m bench --aa 5`` runs the A/A comparison the
regression bounds in ``BENCHMARK.json`` were taken from.  ``bench/README.md``
says how each metric is computed and why each workload exists.

The program under test is the checkout's own ``src/repro``, never an
installed copy: :func:`bootstrap` puts ``<checkout>/src`` first on
``sys.path`` and must run before any module here imports ``repro``.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"


def bootstrap() -> None:
    """Make ``import repro`` resolve to this checkout's source tree."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"bench: {SRC / 'repro'} not found; run from a full checkout"
        )
    src = str(SRC)
    if src in sys.path:
        sys.path.remove(src)
    sys.path.insert(0, src)


def warm_bytecode() -> None:
    """Compile ``src/`` and ``bench/`` so that a fresh checkout and a warm one
    run the same code path.

    Nothing that is timed afterwards (not ``setup_s``, not the server's
    build) includes an import, but child interpreters (the server, the
    ``harness.import_s`` probe) would otherwise compile 130 modules on a
    fresh checkout and only there.
    """
    import compileall

    for directory in (SRC, ROOT / "bench"):
        compileall.compile_dir(str(directory), quiet=2)
