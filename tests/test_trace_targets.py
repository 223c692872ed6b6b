"""Every callable the end-to-end benchmark's tracer wraps still exists.

``benchmarks/e2e/trace.py`` times each layer from outside by wrapping
the callables its ``TARGETS`` name: a method is looked up in its own
class body (``cls.__dict__[attr]``, so an inherited one is a
``KeyError``), a function as a module attribute.  This test reads
``TARGETS`` from the file, without importing or editing it, and looks
every entry up the same way, so a change under ``src/`` that deletes,
renames or moves a traced callable fails here, not only in the
benchmark's traced run.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

TRACE = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "trace.py"


def traced_targets() -> list[tuple[str, str, str]]:
    """The ``(module, qualified name, layer)`` entries of ``TARGETS``."""
    for node in ast.parse(TRACE.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.AnnAssign) \
                and getattr(node.target, "id", None) == "TARGETS":
            return list(ast.literal_eval(node.value))
    raise AssertionError(f"{TRACE} defines no TARGETS")


@pytest.mark.parametrize("module_name, qualname, layer", traced_targets(),
                         ids=lambda value: value)
def test_traced_callable_resolves(module_name, qualname, layer):
    module = importlib.import_module(module_name)
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        raw = vars(getattr(module, cls_name)).get(attr)
        assert raw is not None, (
            f"{qualname} is not defined in the body of {cls_name}")
        if isinstance(raw, (classmethod, staticmethod)):
            raw = raw.__func__
    else:
        raw = getattr(module, qualname, None)
    assert callable(raw), f"{module_name}.{qualname} is not callable"
