"""Every name a library module imports is used by that module (package re-exports aside)."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "catschett"

MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import statement -> its line (``__future__`` imports aside)."""
    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _referenced(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _referenced(tree)
    unused = sorted(f"{name} (line {line})" for name, line in _imported(tree).items()
                    if name not in used)
    assert not unused, f"{path.name} imports but never uses: {', '.join(unused)}"


def test_scan_sees_an_unused_import():
    tree = ast.parse("from __future__ import annotations\nimport os.path\n"
                     "from catschett.objects.trees import serialize_binary_tree\nos.sep\n")
    assert set(_imported(tree)) - _referenced(tree) == {"serialize_binary_tree"}
