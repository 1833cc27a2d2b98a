"""perfbench/tracing.py wraps snlslab functions at the module attributes
their callers look up, with a bare getattr. A refactor that drops one of
those attributes breaks ``perfbench/run.py --trace 1``; this test makes it
fail the suite instead."""
from __future__ import annotations

import importlib
import runpy
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.mark.parametrize("module, attribute, span", runpy.run_path(str(TRACING))["TARGETS"])
def test_trace_target_resolves(module, attribute, span):
    obj = importlib.import_module(module)
    for part in attribute.split("."):
        obj = getattr(obj, part)
    assert callable(obj), (module, attribute)
