"""Seeded ensemble execution with a worker-count-independent reduction.

Each path gets its own noise seed derived from the base seed and the
path index alone, so results never depend on scheduling, and an
ensemble can be extended by running further indices. Workers compute
batches of paths in parallel (processes, since the work is
numpy-bound), each batch stepped as one (paths, *grid) array; the
reduction is a single-threaded fold over results in path-index order,
which makes outputs bitwise identical for any worker count and batch
composition, including the inline workers=1 route.

A failing path aborts the whole ensemble with its path index in the
error message rather than yielding a partial, silently biased result.
"""
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .config import ExperimentConfig, make_initial, with_path_seed
from .dynamics import PathError, evolve_batch
from .dynamics import evolve  # noqa: F401  perfbench/tracing.py wraps ensemble.evolve
from .functionals import ito_mass_budget
from .noise import NoisePath, path_seed, sample_path

#: field bytes one batch of paths may hold. On a 2-core Xeon at N=256,
#: 32-path batches (128 KiB) took ~27 us per path-step and 64 to 256
#: paths 32-40 us, so larger ensembles are split.
BATCH_FIELD_BYTES = 1 << 17

__all__ = [
    "EnsembleError",
    "PathResult",
    "EnsembleResult",
    "run_ensemble",
    "pool_map",
    "sample_ensemble_paths",
]


class EnsembleError(RuntimeError):
    """A path failed; the message names its index."""


def pool_map(fn: Callable, items: Sequence, workers: int) -> list:
    """Map fn over items with a bounded process pool, order-preserving.

    workers=1 runs inline (no pool, no pickling). Any exception aborts
    with the failing item's index; an EnsembleError from fn already
    names its path and passes through. Results are collected in
    submission order, so downstream folds are deterministic.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers == 1:
        out = []
        for i, item in enumerate(items):
            try:
                out.append(fn(item))
            except EnsembleError:
                raise
            except Exception as exc:
                raise EnsembleError(f"path {i} failed: {exc}") from exc
        return out
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, item) for item in items]
        out = []
        for i, fut in enumerate(futures):
            try:
                out.append(fut.result())
            except EnsembleError:
                raise
            except Exception as exc:
                raise EnsembleError(f"path {i} failed: {exc}") from exc
        return out


@dataclass(frozen=True)
class PathResult:
    """Per-path payload kept by ensembles: series and budget arrays only.

    Batched runs keep no snapshot fields; ensemble statistics need the
    functional series, not fields.
    """

    index: int
    seed: int
    times: np.ndarray
    series: dict[str, np.ndarray]
    budget: dict[str, np.ndarray]
    warnings: tuple[str, ...]


@dataclass(frozen=True)
class EnsembleResult:
    """Deterministic aggregate of an ensemble of paths.

    ``aggregates[name]`` holds, per recorded time, the ensemble mean,
    variance (population), min, max, and the ensemble mean of the
    running supremum — the Monte Carlo estimator of E[sup_{s<=t} F(s)].
    ``mass_change`` collects M(T) - M(0) per path; ``mass_residuals``
    the per-path budget residuals (NaN-free only for noisy runs).
    """

    config: ExperimentConfig
    seeds: tuple[int, ...]
    times: np.ndarray
    functional_names: tuple[str, ...]
    per_path: dict[str, np.ndarray]  # name -> (paths, times)
    aggregates: dict[str, dict[str, np.ndarray]]
    mass_change: np.ndarray
    mass_residuals: np.ndarray
    path_warnings: tuple[tuple[int, str], ...]

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


def _batches(size: int, field_bytes: int, workers: int) -> list[tuple[int, int]]:
    """Split path indices 0..size-1 into [start, stop) batches.

    A batch holds at most BATCH_FIELD_BYTES of field rows; with several
    workers there are at least as many batches as workers.
    """
    per = max(1, BATCH_FIELD_BYTES // field_bytes)
    if workers > 1:
        per = min(per, -(-size // workers))
    return [(start, min(start + per, size)) for start in range(0, size, per)]


def _run_batch(args: tuple[ExperimentConfig, int, int]) -> list[PathResult]:
    config, start, stop = args
    try:
        sims = [with_path_seed(config, i) for i in range(start, stop)]
        u0 = make_initial(config.initial, config.grid)
        if sims[0].steps:
            run = evolve_batch(sims[0], u0, [sample_path(sim.noise, sim.t_end, sim.dt)
                                             for sim in sims])
        else:  # a zero-length run has no increments to draw
            run = evolve_batch(sims[0], [u0] * len(sims))
    except PathError as exc:
        raise EnsembleError(f"path {start + exc.path} failed: {exc}") from exc
    except Exception as exc:  # not tied to one row: the batch's first path fails first
        raise EnsembleError(f"path {start} failed: {exc}") from exc

    out = []
    for p, sim in enumerate(sims):
        traj = run.trajectory(p)
        series = {k: np.asarray(v, dtype=float) for k, v in traj.series.items()}
        series["_mass_residual"] = np.array([ito_mass_budget(traj).residual])
        out.append(PathResult(
            index=start + p,
            seed=sim.noise.seed,
            times=np.asarray(traj.times, dtype=float),
            series=series,
            budget={key: traj.budget[key] for key in ("mass_martingale", "mass_drift")},
            warnings=traj.warnings,
        ))
    return out


def run_ensemble(config: ExperimentConfig) -> EnsembleResult:
    """Run the configured ensemble and fold deterministic aggregates.

    Requires a noise-driven kind ('ensemble' or 'growth-fit'). Paths are
    stepped in batches, one (paths, *grid) array each, scheduled over
    ``config.workers`` processes; the fold is sequential in path order.
    """
    if config.sim is None or config.noise is None:
        raise ValueError(f"kind {config.kind!r} does not define an ensemble of runs")
    jobs = [(config, start, stop) for start, stop in
            _batches(config.ensemble_size, 16 * config.grid.num_cells, config.workers)]
    results = [r for batch in pool_map(_run_batch, jobs, config.workers) for r in batch]

    times = results[0].times
    for r in results[1:]:
        if len(r.times) != len(times) or not np.array_equal(r.times, times):
            raise EnsembleError(
                f"path {r.index} produced a different time grid; "
                "ensemble aggregation needs a shared partition"
            )
    names = tuple(k for k in results[0].series if not k.startswith("_"))
    per_path = {
        name: np.stack([r.series[name] for r in results]) for name in names
    }
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
    mass_residuals = np.array([float(r.series["_mass_residual"][0]) for r in results])
    warnings = tuple(
        (r.index, w) for r in results for w in r.warnings
    )
    return EnsembleResult(
        config=config,
        seeds=tuple(r.seed for r in results),
        times=times,
        functional_names=names,
        per_path=per_path,
        aggregates=aggregates,
        mass_change=mass_change,
        mass_residuals=mass_residuals,
        path_warnings=warnings,
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
