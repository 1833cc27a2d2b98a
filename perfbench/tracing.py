"""Span recording around snlslab's layers, installed from outside.

Each wrapper replaces a public function at the module attribute its
caller looks up (``snlslab.ensemble.pool_map`` is looked up by
``run_ensemble``; ``snlslab.dynamics.compute_functionals`` by the
integrator), so nothing under ``src/`` changes. ``Field.__post_init__``
is wrapped on the class, which catches every Field construction.

A span is (name, start, end, parent span); the workload id is the
tracer's. Spans live in flat arrays while a pass runs and are written
out once, at the end of the benchmark run.
"""
from __future__ import annotations

import functools
import importlib
import json
from array import array
from contextlib import contextmanager
from time import perf_counter

#: (module, attribute, span name); the layer is the name's prefix
TARGETS = (
    ("snlslab.config", "load_config", "config.load_config"),
    ("snlslab.config", "make_initial", "config.make_initial"),
    ("snlslab.ensemble", "make_initial", "config.make_initial"),
    ("snlslab.ensemble", "with_path_seed", "config.with_path_seed"),
    ("snlslab.ensemble", "run_ensemble", "ensemble.run_ensemble"),
    ("snlslab.ensemble", "pool_map", "ensemble.pool_map"),
    ("snlslab.ensemble", "sample_ensemble_paths", "ensemble.sample_ensemble_paths"),
    ("snlslab.ensemble", "evolve", "dynamics.evolve"),
    ("snlslab.dynamics", "evolve", "dynamics.evolve"),
    ("snlslab.dynamics", "compute_functionals", "functionals.compute_functionals"),
    ("snlslab.functionals", "ito_mass_budget", "functionals.ito_mass_budget"),
    ("snlslab.dynamics", "boundary_mass_fraction", "grids.boundary_mass_fraction"),
    ("snlslab.dynamics", "spectral_tail_fraction", "grids.spectral_tail_fraction"),
    ("snlslab.dynamics", "gradient", "grids.gradient"),
    ("snlslab.functionals", "gradient", "grids.gradient"),
    ("snlslab.grids", "Field.__post_init__", "grids.Field"),
    ("snlslab.analysis", "propagate", "operators.propagate"),
    ("snlslab.dynamics", "sample_path", "noise.sample_path"),
    ("snlslab.ensemble", "sample_path", "noise.sample_path"),
    ("snlslab.dynamics", "make_phi", "noise.make_phi"),
    ("snlslab.noise", "make_phi", "noise.make_phi"),
    ("snlslab.noise", "tail_decay_fit", "noise.tail_decay_fit"),
    ("snlslab.noise", "tail_sup_norms", "noise.tail_sup_norms"),
    ("snlslab.analysis", "growth_fit", "analysis.growth_fit"),
    ("snlslab.analysis", "scattering_cauchy", "analysis.scattering_cauchy"),
    ("snlslab.reports", "emit_report", "reports.emit_report"),
)

LAYERS = ("config", "ensemble", "dynamics", "functionals", "grids", "operators",
          "noise", "analysis", "reports")


class Tracer:
    """In-memory spans of one traced pass."""

    def __init__(self, workload_id: str) -> None:
        self.workload_id = workload_id
        self.names: list[str] = []
        self.name_idx = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]

    def _wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        idx = self.names.index(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.start)
            self.name_idx.append(idx)
            self.parent.append(self._open[-1])
            self.end.append(0.0)
            self._open.append(sid)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[sid] = perf_counter()
                self._open.pop()

        return traced

    @contextmanager
    def installed(self):
        """Replace every target by its traced wrapper; restore on exit."""
        saved = []
        try:
            for module_name, attr, name in TARGETS:
                owner = importlib.import_module(module_name)
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def __len__(self) -> int:
        return len(self.start)

    def durations(self, name: str) -> float:
        """Total duration of the spans with this name."""
        idx = self.names.index(name) if name in self.names else -1
        return sum((self.end[i] - self.start[i]
                    for i in range(len(self)) if self.name_idx[i] == idx), 0.0)

    def self_times(self) -> dict[str, float]:
        """Span name -> summed self time: duration minus the direct children."""
        child = [0.0] * len(self)
        for i in range(len(self)):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, float] = {}
        for i in range(len(self)):
            name = self.names[self.name_idx[i]]
            out[name] = out.get(name, 0.0) + (self.end[i] - self.start[i]) - child[i]
        return out

    def layer_summary(self) -> dict[str, tuple[float, int]]:
        """Layer -> (self time in s, call count)."""
        counts = [0] * len(self.names)
        for i in self.name_idx:
            counts[i] += 1
        selfs = self.self_times()
        out = {layer: (0.0, 0) for layer in LAYERS}
        for idx, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            s, c = out[layer]
            out[layer] = (s + selfs.get(name, 0.0), c + counts[idx])
        return out

    def write(self, fh, t0: float) -> None:
        """One JSON line per span, times in seconds since t0."""
        for i in range(len(self)):
            fh.write(json.dumps({
                "workload": self.workload_id,
                "id": i,
                "parent": self.parent[i],
                "name": self.names[self.name_idx[i]],
                "start": round(self.start[i] - t0, 9),
                "end": round(self.end[i] - t0, 9),
            }) + "\n")
