"""Every name a library module imports is used by that module, and every public name
it defines is read by that module or named elsewhere in the project."""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "catschett"

MODULES = sorted(SRC.rglob("*.py"))


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


# Where a public name may be used besides its own module: the library, its tests,
# the benchmark, and pyproject.toml (which names the ``catschett.cli:main``
# entry point).
PROJECT_FILES = sorted(
    [p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py")]
    + [ROOT / "pyproject.toml"])


def _public_definitions(tree: ast.Module) -> dict[str, int]:
    """Public module-level function, class and constant -> its line; public methods too."""
    names: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names[node.name] = node.lineno
        elif isinstance(node, ast.ClassDef):
            names[node.name] = node.lineno
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names[item.name] = item.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    names[target.id] = node.lineno
    return {name: line for name, line in names.items() if not name.startswith("_")}


def _loaded(tree: ast.Module) -> set[str]:
    """Names the module reads, bare or as an attribute."""
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def _dead(tree: ast.Module, other_texts) -> list[str]:
    named = _loaded(tree).union(*(re.findall(r"\w+", text) for text in other_texts))
    return sorted(f"{name} (line {line})" for name, line in _public_definitions(tree).items()
                  if name not in named)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_dead_public_definition(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    dead = _dead(tree, (p.read_text(encoding="utf-8") for p in PROJECT_FILES if p != path))
    assert not dead, f"{path.name} defines but nothing uses: {', '.join(dead)}"


def test_dead_definition_scan_sees_an_unused_definition():
    tree = ast.parse("LIMIT = 3\n_SECRET: int = 4\nPair = tuple[int, int]\n"
                     "def used(): pass\ndef unused(): pass\ndef _private(): pass\n"
                     "def inner(): pass\ndef outer(): return inner()\n"
                     "class Box:\n    def get(self): pass\n    def put(self): pass\n"
                     "    def _peek(self): pass\n    def __len__(self): return 0\n")
    other = "from m import used, outer, Box\nBox().get(LIMIT)\nx: Pair\n"
    assert _dead(tree, [other]) == ["put (line 11)", "unused (line 5)"]
