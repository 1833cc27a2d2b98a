"""Seeded ensemble execution with a worker-count-independent reduction.

Each path gets its own noise seed derived from the base seed and the
path index alone, so results never depend on scheduling, and an
ensemble can be extended by running further indices. Workers compute
batches of paths in parallel (processes, since the work is
numpy-bound), each batch stepped as one (paths, *grid) array. The
process pool is imported and sized only when workers > 1, so a
single-worker run never loads multiprocessing. The fold concatenates
each batch's (paths, steps+1) series blocks in path order and reduces
them single-threaded, which makes outputs bitwise identical for any
worker count and batch composition, including the inline workers=1
route. Every batch records what its kind's plan in config.KINDS says:
no energy budget, which no ensemble reads, and for a growth fit only
analysis.GROWTH_SERIES, the series it reads, so its fold runs over those
alone.

A failing path aborts the whole ensemble with its path index in the
error message rather than yielding a partial, silently biased result.
"""
from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import partial
from itertools import chain
from typing import Callable, Sequence

import numpy as np

from .config import KINDS, ExperimentConfig, make_initial, with_path_seed
from .dynamics import PathError, evolve_batch
from .dynamics import evolve  # noqa: F401  perfbench/tracing.py wraps ensemble.evolve
from .functionals import ito_mass_budget
from .grids import batches
from .noise import NoisePath, path_seed, sample_path

__all__ = [
    "EnsembleError",
    "EnsembleResult",
    "run_ensemble",
    "pool_map",
    "sample_ensemble_paths",
]


class EnsembleError(RuntimeError):
    """A path failed; the message names its index."""


def pool_map(fn: Callable, items: Sequence, workers: int) -> list:
    """Map fn over items with a bounded process pool, order-preserving.

    workers=1 runs inline (no pool, no pickling). Only workers > 1
    imports the pool, and sizes it to min(workers, len(items)): the
    pool starts all its processes on the first submit, so spare ones
    would only sit idle. Both routes collect results in one loop, in
    submission order, so downstream folds are deterministic. Any
    exception aborts with the failing item's index; an EnsembleError
    from fn already names its path and passes through.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    pool = None
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=max(1, min(workers, len(items))))
    with pool or nullcontext():
        calls = ([pool.submit(fn, item).result for item in items] if pool
                 else [partial(fn, item) for item in items])
        out = []
        for i, call in enumerate(calls):
            try:
                out.append(call())
            except EnsembleError:
                raise
            except Exception as exc:
                raise EnsembleError(f"path {i} failed: {exc}") from exc
        return out


@dataclass(frozen=True)
class EnsembleResult:
    """Deterministic aggregate of an ensemble of paths.

    ``aggregates[name]`` holds, per recorded time, the ensemble mean,
    variance (population), min, max, and the ensemble mean of the
    running supremum — the Monte Carlo estimator of E[sup_{s<=t} F(s)].
    ``mass_change`` collects M(T) - M(0) per path; ``mass_residuals``
    the per-path budget residuals (NaN-free only for noisy runs);
    ``path_warnings`` each path's run warnings as "path i: warning" lines,
    in path order.
    """

    config: ExperimentConfig
    seeds: tuple[int, ...]
    times: np.ndarray
    functional_names: tuple[str, ...]
    per_path: dict[str, np.ndarray]  # name -> (paths, times)
    aggregates: dict[str, dict[str, np.ndarray]]
    mass_change: np.ndarray
    mass_residuals: np.ndarray
    path_warnings: tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.seeds)

    def trajectory_views(self) -> list["SeriesView"]:
        """Per-path read views (times + series), e.g. for growth fits."""
        return [
            SeriesView(
                times=self.times,
                series={k: self.per_path[k][i] for k in self.functional_names},
            )
            for i in range(self.size)
        ]


@dataclass(frozen=True)
class SeriesView:
    """Minimal trajectory-shaped view over one ensemble path."""

    times: np.ndarray
    series: dict[str, np.ndarray]


def _run_batch(args: tuple[ExperimentConfig, int, int]
               ) -> tuple[dict[str, np.ndarray], list[float], tuple[tuple[str, ...], ...]]:
    """Run paths [start, stop) as one batch; return its (rows, steps+1)
    series blocks, its per-path mass residuals and its per-path warnings,
    recorded as the kind's plan says."""
    config, start, stop = args
    try:
        sims = [with_path_seed(config, i) for i in range(start, stop)]
        u0 = make_initial(config.initial, config.grid)
        run = evolve_batch(sims[0], u0, [sample_path(s.noise, s.t_end, s.dt) for s in sims],
                           plan=KINDS[config.kind].plan)
        residuals = [ito_mass_budget(run.trajectory(p)).residual for p in range(run.size)]
    except PathError as exc:
        raise EnsembleError(f"path {start + exc.path} failed: {exc}") from exc
    except Exception as exc:  # not tied to one row: the batch's first path fails first
        raise EnsembleError(f"path {start} failed: {exc}") from exc
    return run.series, residuals, run.warnings


def run_ensemble(config: ExperimentConfig) -> EnsembleResult:
    """Run the configured ensemble and fold deterministic aggregates.

    Requires a noise-driven kind ('ensemble' or 'growth-fit'). Paths are
    stepped in batches, one (paths, *grid) array each, scheduled over
    ``config.workers`` processes; the fold is sequential in path order.
    """
    if config.sim is None or config.noise is None:
        raise ValueError(f"kind {config.kind!r} does not define an ensemble of runs")
    jobs = [(config, start, stop) for start, stop in
            batches(config.ensemble_size, 16 * config.grid.num_cells, config.workers)]
    series, residuals, warnings = zip(*pool_map(_run_batch, jobs, config.workers))

    names = tuple(series[0])
    per_path = {name: np.concatenate([batch[name] for batch in series]) for name in names}
    aggregates: dict[str, dict[str, np.ndarray]] = {}
    for name in names:
        block = per_path[name]
        running = np.maximum.accumulate(block, axis=1)
        aggregates[name] = {
            "mean": block.mean(axis=0),
            "var": block.var(axis=0),
            "min": block.min(axis=0),
            "max": block.max(axis=0),
            "running_sup_mean": running.mean(axis=0),
        }
    mass = per_path["mass"]
    mass_change = mass[:, -1] - mass[:, 0]
    return EnsembleResult(
        config=config,
        seeds=tuple(path_seed(config.base_seed, i) for i in range(config.ensemble_size)),
        times=config.sim.times(),
        functional_names=names,
        per_path=per_path,
        aggregates=aggregates,
        mass_change=mass_change,
        mass_residuals=np.concatenate(residuals),
        path_warnings=tuple(f"path {i}: {w}"
                            for i, ws in enumerate(chain.from_iterable(warnings)) for w in ws),
    )


def _sample_one_path(args) -> NoisePath:
    spec, index, t_inf, dt = args
    return sample_path(replace(spec, seed=path_seed(spec.seed, index)), t_inf, dt)


def sample_ensemble_paths(
    spec, count: int, t_inf: float, dt: float, workers: int = 1
) -> list[NoisePath]:
    """Sample `count` independent noise paths with derived seeds.

    Used by tail studies, which need driving paths but no PDE run.
    """
    jobs = [(spec, i, t_inf, dt) for i in range(count)]
    return pool_map(_sample_one_path, jobs, workers)
