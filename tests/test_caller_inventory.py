"""Every public top-level def of the package, found by a caller.

Nothing ships without a caller outside the tests or the docs
(docs/API.md, *Removal policy*): a public function or class that only
its tests use is deleted, not kept "for later".  This test lists every
public top-level ``def`` and ``class`` of ``repro`` and searches for its
name in ``src/repro`` (past its own definition line and the package
``__init__`` re-exports), ``benchmarks/`` and ``examples/``.  The names
found nowhere must be exactly the allowlist below, each with its reason.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CALLER_DIRS = (ROOT / "benchmarks", ROOT / "examples")

#: Public names no caller uses, kept on purpose: ``{name: reason}``.
ALLOWLIST = {
    "merge_isomorphic_pairs": "Theorem 1, checked by test_theorem1_merge.py",
    "FunctionDistance": "test hook: wraps a plain callable as a Distance",
}


def public_defs() -> dict[str, tuple[Path, int]]:
    """``{name: (module path, definition line)}`` of every public
    top-level function and class in the package."""
    defs = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not node.name.startswith("_")):
                defs[node.name] = (path, node.lineno)
    return defs


def reexports(path: Path, tree: ast.Module) -> set[tuple[int, str]]:
    """``(line, name)`` pairs of a package ``__init__`` that only
    re-export ``name``: its imports, and its ``__all__`` entries for the
    names it imports (a name it defines itself is exported, not
    re-exported)."""
    if path.name != "__init__.py":
        return set()
    imported, pairs = set(), set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported.add(name)
                pairs.update((n, name) for n in
                             range(node.lineno, node.end_lineno + 1))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            pairs.update((item.lineno, item.value)
                         for item in node.value.elts
                         if item.value in imported)
    return pairs


def searched_files() -> list[tuple[Path, list[str], set[tuple[int, str]]]]:
    """``(path, lines, skipped (line, name) pairs)`` of every file a
    caller may be in."""
    files = []
    for path in sorted(PACKAGE.rglob("*.py")):
        text = path.read_text()
        files.append((path, text.splitlines(),
                      reexports(path, ast.parse(text))))
    for folder in CALLER_DIRS:
        files += [(path, path.read_text().splitlines(), set())
                  for path in sorted(folder.rglob("*.py"))]
    return files


def uncalled() -> set[str]:
    files = searched_files()
    missing = set()
    for name, where in public_defs().items():
        word = re.compile(rf"\b{re.escape(name)}\b")
        if not any(word.search(line)
                   for path, lines, skipped in files
                   for n, line in enumerate(lines, 1)
                   if (path, n) != where and (n, name) not in skipped):
            missing.add(name)
    return missing


def test_every_public_def_has_a_caller():
    missing = uncalled()
    assert missing == set(ALLOWLIST), (
        "nothing ships without a caller outside the tests or the docs: "
        f"delete {sorted(missing - set(ALLOWLIST))}, or give each an "
        "allowlisted reason; drop "
        f"{sorted(set(ALLOWLIST) - missing)} from ALLOWLIST")
