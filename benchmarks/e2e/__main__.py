"""``python3 -m benchmarks.e2e run|selfcheck`` (see README.md here)."""

from __future__ import annotations

import os
import signal
import sys


def main() -> int:
    # One thread per process, decided before numpy loads its BLAS: the
    # load of a run must not depend on how many cores the host has.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    src = os.path.join(root, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"benchmarks.e2e: no program to measure: {src}/repro is "
              "missing (run from a checkout of the repository)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    # Worker processes are spawned with this path, not the parent's
    # ``sys.path`` alone, so they find ``repro`` too.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(
            os.pathsep) if p])
    from .cli import main as cli_main
    from .harness import stop_children

    # A run leaves no process behind, whichever way it ends: SIGTERM
    # becomes an exception so that the sweep below still runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return cli_main(sys.argv[1:])
    finally:
        stop_children()


if __name__ == "__main__":
    sys.exit(main())
