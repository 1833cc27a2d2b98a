"""The free-flow multiplier e^{i t |k|^2} is formed in one place.

GridSpec.free_phase owns it. This scan fails if a module of snlslab
calls np.exp on an expression that reads ``k_squared()``, or reads a
name that its function (or the module) binds to such an expression,
directly or through other such names, anywhere but in free_phase.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "snlslab").glob("*.py"))
OWNER = ("GridSpec", "free_phase")
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _own_nodes(node: ast.AST):
    """The nodes under node, but not under the functions and classes it defines."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, SCOPES):
            yield child
            yield from _own_nodes(child)


def _inner_scopes(node: ast.AST):
    """The functions and classes node defines, not those they define."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, SCOPES):
            yield child
        else:
            yield from _inner_scopes(child)


def _reads_k_squared(node: ast.AST, tainted: set[str]) -> bool:
    return any((isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)
                and sub.func.attr == "k_squared")
               or (isinstance(sub, ast.Name) and sub.id in tainted)
               for sub in ast.walk(node))


def _tainted_names(nodes: list[ast.AST], tainted: set[str]) -> set[str]:
    """tainted and the names the nodes bind, by plain or augmented
    assignment, to an expression that reads k_squared() or a tainted name."""
    assigns = [node for node in nodes if isinstance(node, (ast.Assign, ast.AugAssign))]
    while True:
        grown = set(tainted)
        for node in assigns:
            if _reads_k_squared(node.value, grown):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                grown |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        if grown == tainted:
            return tainted
        tainted = grown


def free_phase_sites(source: str) -> list[tuple[int, str]]:
    """(line, enclosing scope) of each np.exp call on k_squared() outside
    GridSpec.free_phase; a scope sees the names its enclosing ones bind."""
    sites = []

    def visit(scope: ast.AST, name: tuple[str, ...], tainted: set[str]) -> None:
        own = list(_own_nodes(scope))
        tainted = _tainted_names(own, tainted)
        if name != OWNER:
            sites.extend((node.lineno, ".".join(name) or "<module>") for node in own
                         if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                         and node.func.attr == "exp"
                         and any(_reads_k_squared(arg, tainted) for arg in node.args))
        for inner in _inner_scopes(scope):
            visit(inner, name + (inner.name,), tainted)

    visit(ast.parse(source), (), set())
    return sorted(sites)


def test_the_scan_finds_every_form():
    source = (
        "import numpy as np\n"
        "class GridSpec:\n"
        "    def free_phase(self, t):\n"
        "        return np.exp(1j * t * self.k_squared())\n"
        "def direct(grid, t):\n"
        "    return np.exp(-1j * t * grid.k_squared())\n"
        "def through_names(grid, t):\n"
        "    k2 = grid.k_squared()\n"
        "    w = 2.0 * k2\n"
        "    return np.exp(1j * t * w)\n"
        "def elsewhere(grid, t):\n"
        "    return np.exp(0.25j * t * grid.radius_squared()), grid.free_phase(t)\n"
        "def outer(grid):\n"
        "    k2 = grid.k_squared()\n"
        "    def inner(t):\n"
        "        return np.exp(1j * t * k2)\n"
        "    return inner\n"
    )
    assert free_phase_sites(source) == [(6, "direct"), (10, "through_names"),
                                        (16, "outer.inner")]


def test_every_source_is_scanned():
    assert {"grids", "operators", "noise", "dynamics"} <= {path.stem for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_free_phase_is_formed_only_by_its_owner(path):
    sites = free_phase_sites(path.read_text())
    assert not sites, f"{path.name}: e^(i t |k|^2) formed outside GridSpec.free_phase at {sites}"
