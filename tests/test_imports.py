"""Every name a library or test module imports is used by that module, every public
name a library module defines is read by the library or the benchmark, and every
private module-level name is read by its own module."""

import ast
import functools
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "catschett"

MODULES = sorted(SRC.rglob("*.py"))
TEST_MODULES = sorted((ROOT / "tests").glob("*.py"))


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


def _module_id(path: pathlib.Path) -> str:
    # library modules relative to the package, test modules as tests/<name>
    return str(path.relative_to(SRC if SRC in path.parents else ROOT))


@pytest.mark.parametrize("path", MODULES + TEST_MODULES, ids=_module_id)
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


# A public name is alive when code in the library or the benchmark loads it, when
# the benchmark tracer names it as a "module:qualname" target, or when
# pyproject.toml names it as an entry point.  Tests, comments, docstrings and a
# function's calls to itself do not count.  load_config is exempt: its
# copy-on-read semantics are the contract, even with no caller in the library.
EXEMPT = {("config.py", "load_config")}

USER_SOURCES = {p: p.read_text(encoding="utf-8")
                for d in ("src", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))}

_TARGET = re.compile(r"[\w.]+:([\w.]+)")  # "module:qualname", capturing the qualname


def _counts_as_use(path: str) -> bool:
    parts = pathlib.PurePosixPath(path).parts
    return parts[0] in ("src", "perfbench") and "tests" not in parts


def _entry_points() -> set[str]:
    scripts = (ROOT / "pyproject.toml").read_text(encoding="utf-8").partition(
        "[project.scripts]")[2].partition("\n[")[0]
    return {part for qualname in _TARGET.findall(scripts) for part in qualname.split(".")}


def _module_definitions(body: list[ast.stmt]) -> dict[str, ast.AST]:
    """Function, class and constant defined by a statement of ``body`` -> that statement."""
    names: dict[str, ast.AST] = {}
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    names[target.id] = node
    return names


def _public_definitions(tree: ast.Module) -> dict[str, ast.AST]:
    """Public module-level function, class and constant -> its node; public methods too."""
    names = _module_definitions(tree.body)
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            names.update(_module_definitions(
                [item for item in node.body
                 if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]))
    return {name: node for name, node in names.items() if not name.startswith("_")}


def _loads(tree: ast.AST) -> list[tuple[str, ast.AST | None]]:
    """(name, the function it is read in or None) for every name read, bare or as an
    attribute; each part of a "module:qualname" string counts as read outside any
    function ("module:*" names no function)."""
    found: list[tuple[str, ast.AST | None]] = []

    def visit(node: ast.AST, function: ast.AST | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.append((node.id, function))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.append((node.attr, function))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            target = _TARGET.fullmatch(node.value)
            if target:
                found.extend((part, None) for part in target.group(1).split("."))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


@functools.cache
def _names_read(text: str) -> frozenset[str]:
    # every module is scanned against the same files: parse each source once
    return frozenset(name for name, _ in _loads(ast.parse(text)))


def _dead(tree: ast.Module, others, entry_points=frozenset(), exempt=frozenset()) -> list[str]:
    """Public definitions of ``tree`` that nothing alive reads.

    ``others`` holds (path relative to the repository, source) for every other
    file; only library and benchmark code counts.  A read inside the definition
    itself (a recursive call) does not count.
    """
    definitions = _public_definitions(tree)
    named = set(entry_points) | set(exempt)
    for path, text in others:
        if _counts_as_use(path):
            named.update(_names_read(text))
    named.update(name for name, function in _loads(tree)
                 if function is None or definitions.get(name) is not function)
    return sorted(f"{name} (line {node.lineno})" for name, node in definitions.items()
                  if name not in named)


def _unread_private(tree: ast.Module) -> list[str]:
    """Private module-level definitions that no other statement of their module reads.

    A read inside the definition itself (a recursive call) does not count, nor do
    reads from other modules: tests may patch a private name, but not keep it alive.
    """
    private = {name: node for name, node in _module_definitions(tree.body).items()
               if name.startswith("_") and not name.startswith("__")}
    read = {name for node in tree.body for name, _ in _loads(node)
            if private.get(name) is not node}
    return sorted(f"{name} (line {node.lineno})" for name, node in private.items()
                  if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_dead_public_definition(path):
    tree = ast.parse(USER_SOURCES[path])
    others = [(p.relative_to(ROOT).as_posix(), text)
              for p, text in USER_SOURCES.items() if p != path]
    exempt = {name for module, name in EXEMPT if module == str(path.relative_to(SRC))}
    dead = _dead(tree, others, _entry_points(), exempt) + _unread_private(tree)
    assert not dead, f"{path.name} defines but nothing uses: {', '.join(dead)}"


def test_dead_definition_scan_sees_an_unused_definition():
    tree = ast.parse("LIMIT = 3\n_SECRET: int = 4\nPair = tuple[int, int]\n"
                     "def used(): pass\ndef unused(): pass\ndef _private(): pass\n"
                     "def inner(): pass\ndef outer(): return inner()\n"
                     "class Box:\n    def get(self): pass\n    def put(self): pass\n"
                     "    def _peek(self): pass\n    def __len__(self): return 0\n"
                     "def tested(): pass\ndef commented(): pass\n"
                     "def fact(n): return n * fact(n - 1) if n else 1\n"
                     "def traced(): pass\ndef main(): pass\n")
    library = ("from m import used, outer, Box\nused(outer, Box().get(LIMIT))\nx: Pair\n"
               "# commented() is named only in a comment\n"
               "def f():\n    \"\"\"So is commented, in a docstring.\"\"\"\n")
    test = "from m import tested\ntested()\ncommented()\n"
    bench = 'TARGETS = (("layer", "m:traced"),)\n'
    others = [("src/lib.py", library), ("tests/test_m.py", test),
              ("perfbench/tracer.py", bench), ("perfbench/tests/test_t.py", test)]
    assert _entry_points() == {"main"}  # pyproject.toml's catschett.cli:main
    assert _dead(tree, others, entry_points={"main"}) == [
        "commented (line 15)", "fact (line 16)", "put (line 11)", "tested (line 14)",
        "unused (line 5)"]


def test_private_scan_sees_an_unread_private_definition():
    tree = ast.parse("_LIMIT = 3\n_unused: int = 4\ndef _helper(): return _LIMIT\n"
                     "def _stale(): pass\ndef _loop(n): return _loop(n - 1) if n else 0\n"
                     "class _Box:\n    def get(self): return _Box()\n"
                     "__all__ = ['run']\n"
                     "def run(): return _helper()\n")
    assert _unread_private(tree) == [
        "_Box (line 6)", "_loop (line 5)", "_stale (line 4)", "_unused (line 2)"]
