"""Queue worker of the ``paper-queue2`` workload: ``wavm3 campaign-worker``, optionally traced.

Started by ``perfbench/run.py`` as::

    python3 perfbench/worker.py [--trace-dir DIR] -- <wavm3 arguments>

With ``--trace-dir`` the worker records spans around the same entry points
as the benchmark process and writes them into ``DIR`` when it exits.
"""

from __future__ import annotations

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    trace_dir = None
    if argv[:1] == ["--trace-dir"]:
        trace_dir, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    sys.path.insert(0, str(ROOT / "src"))
    from repro.cli import main as wavm3

    if trace_dir is None:
        return wavm3(argv)
    from spans import Tracer

    tracer = Tracer(pathlib.Path(trace_dir)).install()
    try:
        return wavm3(argv)
    finally:
        tracer.uninstall()
        tracer.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
