"""The four benchmark workloads, each shaped like one acceptance gate.

A workload turns a seed into a config file, runs it through the same
public calls the CLI subcommands make (load_config -> run_ensemble / evolve /
sample_ensemble_paths -> growth_fit / scattering_cauchy / tail_decay_fit
-> emit_report), times those calls from outside and checks the outputs.

Every library call goes through a module attribute (``ensemble.run_ensemble``,
never a name bound at import), so the span wrappers of ``tracing.py`` see
it when they are installed.

This module imports neither numpy nor snlslab at import time: the set-up
probe imports it first and only then starts the clock on ``import snlslab``.
"""
from __future__ import annotations

import csv
import hashlib
import math
import time
from dataclasses import dataclass
from pathlib import Path

#: seed of the reference pass whose CSV digests are stored in digests.json
REFERENCE_SEED = 0

#: functionals that compute_functionals leaves NaN in the physical frame
_FRAME_ONLY = ("e1_tilde", "e2_tilde")

_MASS = """\
experiment.kind = ensemble
grid.points = 256
grid.box_length = 24.0
sim.sigma = 1.0
sim.dt = 5e-4
sim.t_end = 0.5
sim.equation = snls
sim.record = light
sim.snapshot_stride = 10
initial.amplitude = 4.0
initial.width = 1.0
noise.phi_amplitude = 0.7511255444649425
noise.g_kind = constant
noise.g_constant = 1.0
noise.seed = {seed}
ensemble.size = {ops}
ensemble.workers = 1
"""

_GROWTH = """\
experiment.kind = growth-fit
grid.points = 128
grid.box_length = 96.0
sim.sigma = 0.75
sim.dt = 2e-3
sim.t_end = 4.0
sim.equation = snls
sim.record = full
sim.snapshot_stride = 500
initial.amplitude = 1.2
initial.width = 1.5
noise.phi_amplitude = 0.2
noise.g_kind = power_law
noise.g_alpha = 3.0
noise.seed = {seed}
ensemble.size = {ops}
ensemble.workers = 1
growth.tau_grid = 0.5, 1.0, 2.0, 4.0
"""

_SCATTER = """\
experiment.kind = scatter-test
grid.points = 2048
grid.box_length = 1024.0
sim.sigma = 1.5
sim.dt = 2.5e-3
sim.t_end = 20.0
sim.equation = snls
sim.record = light
sim.snapshot_stride = 2000
initial.amplitude = 1.0
initial.width = 1.5
noise.phi_amplitude = 0.1
noise.g_kind = power_law
noise.g_alpha = 3.0
noise.seed = {seed}
scatter.checkpoints = 5.0, 10.0, 15.0, 20.0
scatter.norm = Sigma
"""

_TAIL = """\
experiment.kind = tail-decay
grid.points = 64
grid.box_length = 20.0
noise.phi_amplitude = 1.0
noise.phi_width = 1.0
noise.g_kind = power_law
noise.g_alpha = 3.0
noise.seed = {seed}
tail.t_inf = 32.0
tail.dt = 2e-2
tail.paths = {ops}
tail.p_space = 2.0
ensemble.workers = 1
"""


class CheckFailed(Exception):
    """An output of the program failed one of the benchmark's checks."""


@dataclass(frozen=True)
class Workload:
    name: str
    template: str
    ops: int  # paths or trajectories in one pass

    def config_text(self, seed: int) -> str:
        # NoiseSpec seeds are unsigned 64-bit
        return self.template.format(seed=seed % (1 << 64), ops=self.ops)


# Why each shape was chosen is in README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("mass_ensemble", _MASS, ops=16),
        Workload("growth_ensemble", _GROWTH, ops=4),
        Workload("scatter_long", _SCATTER, ops=1),
        Workload("tail_decay", _TAIL, ops=64),
    )
}


# ---------------------------------------------------------------------------
# Set-up: everything before the first step, timed in a fresh interpreter
# ---------------------------------------------------------------------------


def setup(name: str, cfg_path: Path) -> None:
    """Load the config and build initial data, phi and the noise paths
    that exist before the workload's first step."""
    import snlslab  # noqa: F401  (the package import is part of set-up)
    import snlslab.config as config
    import snlslab.ensemble as ensemble
    import snlslab.noise as noise

    cfg = config.load_config(cfg_path)
    if name == "tail_decay":
        tail = cfg.tail
        noise.make_phi(cfg.noise, cfg.grid)
        ensemble.sample_ensemble_paths(cfg.noise, tail.paths, tail.t_inf, tail.dt,
                                       workers=cfg.workers)
        return
    config.make_initial(cfg.initial, cfg.grid)
    # an ensemble's first step waits only for path 0's seed, phi and path
    sim = config.with_path_seed(cfg, 0) if cfg.kind != "scatter-test" else cfg.sim
    noise.make_phi(sim.noise, cfg.grid)
    noise.sample_path(sim.noise, sim.t_end, sim.dt)


# ---------------------------------------------------------------------------
# One pass of a workload: config load to the last artifact written
# ---------------------------------------------------------------------------


@dataclass
class Pass:
    wall_s: float          # load_config .. last artifact written
    compute_s: float       # the compute call alone
    path_steps: int        # paths x steps done by the compute call
    ops: int               # paths or trajectories attempted
    failed: int            # of those, how many failed a check
    failures: list[str]
    digests: dict[str, str]  # CSV name -> SHA-256
    bytes_written: int
    rel_residual: float    # largest |relative residual| of the checked law


def run_pass(workload: Workload, cfg_path: Path, out_dir: Path) -> Pass:
    """Run one pass; a raising call or a failed check fails every op."""
    runner = _RUNNERS[workload.name]
    try:
        return runner(cfg_path, out_dir)
    except CheckFailed as exc:
        message = f"check failed: {exc}"
    except Exception as exc:  # the benchmark reports, it does not stop
        message = f"raised {type(exc).__name__}: {exc}"
    ops = workload.ops
    return Pass(math.nan, math.nan, 0, ops, ops, [message], {}, 0, math.nan)


def _run_ensemble_kind(cfg_path: Path, out_dir: Path) -> Pass:
    import numpy as np
    import snlslab.analysis as analysis
    import snlslab.config as config
    import snlslab.ensemble as ensemble
    import snlslab.reports as reports

    t0 = time.perf_counter()
    cfg = config.load_config(cfg_path)
    c0 = time.perf_counter()
    result = ensemble.run_ensemble(cfg)
    c1 = time.perf_counter()
    emitted = result
    if cfg.kind == "growth-fit":
        emitted = analysis.growth_fit(result.trajectory_views(), cfg.growth.tau_grid,
                                      min_paths=2)
    written = reports.emit_report(emitted, out_dir, cfg)
    t1 = time.perf_counter()

    failures = []
    bad = np.zeros(result.size, dtype=bool)
    for key, block in result.per_path.items():
        bad |= ~_finite_rows(key, block)
    residuals = np.asarray(result.mass_residuals, dtype=float)
    if residuals.shape != (result.size,):
        raise CheckFailed(f"{len(residuals)} mass residuals for {result.size} paths")
    bad |= ~np.isfinite(residuals)
    for i in np.flatnonzero(bad):
        failures.append(f"path {i}: non-finite series or missing mass residual")
    for key, stats in result.aggregates.items():
        for stat, arr in stats.items():
            if not _finite_rows(key, arr[None, :]).all():
                raise CheckFailed(f"aggregate {key}.{stat} is not finite")
    if emitted is not result and not all(
        math.isfinite(x) for x in (emitted.slope, emitted.intercept, *emitted.mean_running_sup)
    ):
        raise CheckFailed("growth fit is not finite")
    _check_csvs(written)
    mass0 = result.per_path["mass"][:, 0]
    steps = len(result.times) - 1
    return Pass(
        wall_s=t1 - t0,
        compute_s=c1 - c0,
        path_steps=result.size * steps,
        ops=result.size,
        failed=int(bad.sum()),
        failures=failures,
        digests=_csv_digests(written),
        bytes_written=_bytes(written),
        rel_residual=float(np.max(np.abs(residuals) / mass0)),
    )


def _run_scatter(cfg_path: Path, out_dir: Path) -> Pass:
    import numpy as np
    import snlslab.analysis as analysis
    import snlslab.config as config
    import snlslab.dynamics as dynamics
    import snlslab.functionals as functionals
    import snlslab.reports as reports

    t0 = time.perf_counter()
    cfg = config.load_config(cfg_path)
    u0 = config.make_initial(cfg.initial, cfg.grid)
    c0 = time.perf_counter()
    traj = dynamics.evolve(cfg.sim, u0)
    c1 = time.perf_counter()
    report = analysis.scattering_cauchy(traj, cfg.scatter.norm_kind, cfg.scatter.checkpoints)
    written = reports.emit_report(report, out_dir, cfg)
    t1 = time.perf_counter()

    for key, arr in traj.series.items():
        if not _finite_rows(key, arr[None, :]).all():
            raise CheckFailed(f"series {key} is not finite")
    if not (np.isfinite(report.differences).all() and np.isfinite(report.consecutive).all()):
        raise CheckFailed("Cauchy differences are not finite")
    budget = functionals.ito_mass_budget(traj)
    if not math.isfinite(budget.residual):
        raise CheckFailed("mass budget residual is not finite")
    _check_csvs(written)
    return Pass(
        wall_s=t1 - t0,
        compute_s=c1 - c0,
        path_steps=traj.steps,
        ops=1,
        failed=0,
        failures=[],
        digests=_csv_digests(written),
        bytes_written=_bytes(written),
        rel_residual=abs(budget.residual) / float(traj.series["mass"][0]),
    )


def _run_tail(cfg_path: Path, out_dir: Path) -> Pass:
    import numpy as np
    import snlslab.config as config
    import snlslab.ensemble as ensemble
    import snlslab.noise as noise
    import snlslab.reports as reports

    t0 = time.perf_counter()
    cfg = config.load_config(cfg_path)
    tail = cfg.tail
    paths = ensemble.sample_ensemble_paths(cfg.noise, tail.paths, tail.t_inf, tail.dt,
                                           workers=cfg.workers)
    phi = noise.make_phi(cfg.noise, cfg.grid)
    c0 = time.perf_counter()
    fit = noise.tail_decay_fit(paths, phi, p_space=tail.p_space)
    c1 = time.perf_counter()
    written = reports.emit_report(fit, out_dir, cfg)
    t1 = time.perf_counter()

    bad = ~np.isfinite(fit.slopes)
    if len(bad) != tail.paths:
        raise CheckFailed(f"{len(bad)} slopes for {tail.paths} paths")
    summary = (fit.median, *fit.iqr, fit.truncation_bound, *fit.t_grid)
    if not all(math.isfinite(x) for x in summary):
        raise CheckFailed("tail fit summary is not finite")
    _check_csvs(written)
    predicted = 0.5 - cfg.noise.g_alpha
    return Pass(
        wall_s=t1 - t0,
        compute_s=c1 - c0,
        path_steps=tail.paths * paths[0].steps,
        ops=tail.paths,
        failed=int(bad.sum()),
        failures=[f"path {i}: non-finite slope" for i in np.flatnonzero(bad)],
        digests=_csv_digests(written),
        bytes_written=_bytes(written),
        rel_residual=abs(fit.median - predicted) / abs(predicted),
    )


_RUNNERS = {
    "mass_ensemble": _run_ensemble_kind,
    "growth_ensemble": _run_ensemble_kind,
    "scatter_long": _run_scatter,
    "tail_decay": _run_tail,
}


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _finite_rows(key: str, block):
    """Rows of a (paths, times) block that hold only finite values; the
    frame-only functionals must instead be NaN throughout."""
    import numpy as np

    if key in _FRAME_ONLY:
        return np.isnan(block).all(axis=1)
    return np.isfinite(block).all(axis=1)


def _check_csvs(written: dict[str, Path]) -> None:
    """Every numeric cell of every emitted CSV is finite, except the
    columns of frame-only functionals."""
    for name, path in written.items():
        if not name.endswith(".csv"):
            continue
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        header = rows[0]
        skip = {j for j, col in enumerate(header) if col.startswith(_FRAME_ONLY)}
        for row in rows[1:]:
            for j, cell in enumerate(row):
                if j not in skip and not math.isfinite(float(cell)):
                    raise CheckFailed(f"{name}: non-finite {header[j]} = {cell}")


def _csv_digests(written: dict[str, Path]) -> dict[str, str]:
    # manifest.json carries code_version, so it is left out on purpose
    return {
        name: hashlib.sha256(Path(path).read_bytes()).hexdigest()
        for name, path in sorted(written.items())
        if name.endswith(".csv")
    }


def _bytes(written: dict[str, Path]) -> int:
    return sum(Path(p).stat().st_size for p in written.values())
