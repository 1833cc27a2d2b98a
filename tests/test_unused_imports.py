"""No module of snlslab imports a name it does not read.

The one exception is a re-export that perfbench/tracing.py wraps: the
tracer replaces the attribute its caller looks up (say
``snlslab.dynamics.compute_functionals``), so the module binds a name it
never calls itself. Such an import line is marked ``# noqa: F401`` and
must name a (module, attribute) pair of the tracer's TARGETS; any other
marked line fails too, so a stale marker cannot hide an unused import.
"""
from __future__ import annotations

import ast
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "snlslab").glob("*.py"))
TARGETS = {(module, attribute) for module, attribute, _ in
           runpy.run_path(str(ROOT / "perfbench" / "tracing.py"))["TARGETS"]}
NOQA = "# noqa: F401"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _bound_names(node: ast.Import | ast.ImportFrom) -> list[tuple[int, str]]:
    """(line, name) of each name an import statement binds."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [(alias.lineno, alias.asname or alias.name.split(".")[0])
            for alias in node.names if alias.name != "*"]


def _scoped_imports(node: ast.AST, scope: ast.AST):
    """(scope, import) for each import under node: its innermost function,
    or the module."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield scope, child
        yield from _scoped_imports(child, child if isinstance(child, FUNCTIONS) else scope)


def _read_names(scope: ast.AST) -> set[str]:
    """Every name scope reads, quoted annotations such as "Trajectory" included."""
    read = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Name):
            read.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, FUNCTIONS):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                read |= {n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                         if isinstance(n, ast.Name)}
    return read


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name that its scope never reads; a
    module-level name listed in ``__all__`` counts as read."""
    tree = ast.parse(source)
    exported = {elt.value for node in tree.body if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                for elt in node.value.elts}
    read: dict[ast.AST, set[str]] = {tree: _read_names(tree) | exported}
    unused = []
    for scope, node in _scoped_imports(tree, tree):
        names = read.setdefault(scope, _read_names(scope))
        unused += [(line, name) for line, name in _bound_names(node) if name not in names]
    return sorted(unused)


def test_every_source_is_scanned():
    names = {path.stem for path in SOURCES}
    assert {"reports", "dynamics", "functionals", "ensemble"} <= names


def test_the_scan_finds_an_unused_import():
    source = "import os\nimport sys\nfrom .grids import Field as F, gradient\n\n\ndef f():\n" \
             "    import json\n    return sys.argv, gradient\n"
    assert unused_imports(source) == [(1, "os"), (3, "F"), (7, "json")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    source = path.read_text()
    lines = source.splitlines()
    module = f"snlslab.{path.stem}"
    unmarked = [(line, name) for line, name in unused_imports(source)
                if NOQA not in lines[line - 1]]
    assert not unmarked, f"{path.name}: unused imports {unmarked}"
    tree = ast.parse(source)
    marked = [(line, name) for node in ast.walk(tree)
              if isinstance(node, (ast.Import, ast.ImportFrom))
              for line, name in _bound_names(node) if NOQA in lines[line - 1]]
    stray = [(line, name) for line, name in marked if (module, name) not in TARGETS]
    assert not stray, f"{path.name}: {NOQA} on imports perfbench does not trace: {stray}"
    noqa_lines = {i for i, text in enumerate(lines, start=1) if NOQA in text}
    assert noqa_lines == {line for line, _ in marked}, f"{path.name}: {NOQA} off an import"
