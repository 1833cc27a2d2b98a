"""Importing the package or its CLI loads no process pool, hashing or
JSON module: only the runs that use them import them."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

DEFERRED = ("concurrent.futures", "multiprocessing", "hashlib", "json")
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("module", ["snlslab", "snlslab.cli"])
def test_import_defers_pool_hashing_and_json(module):
    code = f"import sys, {module}; print(*[m for m in {DEFERRED!r} if m in sys.modules])"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert run.stdout.split() == []
