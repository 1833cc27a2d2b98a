"""Importing the package or its CLI loads no process pool, hashing,
JSON or FFT module: only the runs that use them import them. The package
itself loads no submodule, and every module imports on its own, so no
import order fixed elsewhere can hide a cycle."""
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

DEFERRED = ("concurrent.futures", "multiprocessing", "hashlib", "json", "numpy.fft")
SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(f"snlslab.{m.name}" for m in pkgutil.iter_modules([str(SRC / "snlslab")]))


def _fresh(code: str) -> str:
    """Run code in a fresh interpreter with src on the path; return its stdout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return run.stdout


@pytest.mark.parametrize("module", ["snlslab", "snlslab.cli"])
def test_import_defers_pool_hashing_and_json(module):
    code = f"import sys, {module}; print(*[m for m in {DEFERRED!r} if m in sys.modules])"
    assert _fresh(code).split() == []


def test_package_import_loads_no_submodule():
    code = "import sys, snlslab; print(*[m for m in sys.modules if m.startswith('snlslab.')])"
    assert _fresh(code).split() == []


def test_every_module_is_found():
    assert "snlslab.grids" in MODULES and "snlslab.cli" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_on_its_own(module):
    assert _fresh(f"import {module}; print({module}.__name__)").split() == [module]
