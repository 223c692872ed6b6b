"""Makes ``repro`` importable for ``python -m pytest benchmarks/e2e -q``
(the benchmark itself does the same in ``__main__``), and stops the
processes the smoke runs start, as ``__main__`` does for a real run."""

import sys
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parents[2] / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)


@pytest.fixture(scope="session", autouse=True)
def _no_process_left_behind():
    yield
    from .harness import child_pids, stop_children

    stop_children()
    assert not child_pids()
