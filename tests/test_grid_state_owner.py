"""GridSpec and Field are frozen; grids.py writes past the freeze in
four places only.

``object.__setattr__`` is allowed in GridSpec.__post_init__ and
Field.__post_init__ (normalising the fields), in ``_kept`` (the one
keeping rule for the grid's fixed geometry) and in GridSpec.propagator
(its one-slot cache keyed by dt). This scan fails if it appears anywhere
else in grids.py, such as a second cache beside ``_kept``.
"""
from __future__ import annotations

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "snlslab" / "grids.py"
ALLOWED = {
    ("GridSpec", "__post_init__"),
    ("Field", "__post_init__"),
    ("_kept", "kept"),
    ("GridSpec", "propagator"),
}
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def setattr_sites(source: str) -> list[tuple[int, tuple[str, ...]]]:
    """(line, enclosing scopes) of each object.__setattr__ call outside ALLOWED."""
    sites = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "__setattr__"
                    and isinstance(child.func.value, ast.Name) and child.func.value.id == "object"
                    and scope not in ALLOWED):
                sites.append((child.lineno, scope))
            visit(child, scope + (child.name,) if isinstance(child, SCOPES) else scope)

    visit(ast.parse(source), ())
    return sorted(sites)


def test_the_scan_finds_a_second_cache():
    source = (
        "class GridSpec:\n"
        "    def __post_init__(self):\n"
        "        object.__setattr__(self, 'points', 8)\n"
        "    def _cached(self, name, build):\n"
        "        object.__setattr__(self, name, build())\n"
        "    def propagator(self, dt):\n"
        "        def keep():\n"
        "            object.__setattr__(self, '_propagator', dt)\n"
        "        object.__setattr__(self, '_propagator', dt)\n"
        "def _kept(method):\n"
        "    def kept(self):\n"
        "        object.__setattr__(self, '_x', 1)\n"
        "    return kept\n"
        "object.__setattr__(GridSpec, 'x', 1)\n"
    )
    assert setattr_sites(source) == [(5, ("GridSpec", "_cached")),
                                     (8, ("GridSpec", "propagator", "keep")),
                                     (14, ())]


def test_grids_writes_past_the_freeze_only_in_its_four_places():
    sites = setattr_sites(SOURCE.read_text())
    assert not sites, f"grids.py: object.__setattr__ outside {sorted(ALLOWED)} at {sites}"
