"""Per-call microtimings of layer functions at a workload's grid.

Each figure is the median over several batches of calls, with the batch
size doubled until one batch takes at least MIN_BATCH_S, after one
untimed warm-up call. Figures that are differences of two timings come
from interleaved batches.
"""
from __future__ import annotations

import statistics
from dataclasses import replace
from time import perf_counter

MIN_BATCH_S = 0.02
BATCHES = 7
#: steps per evolve call when timing a step in each record mode
EVOLVE_STEPS = 64
#: longest path whose tail scan is timed, in steps
SCAN_STEPS = 400


def _batch_size(fn) -> int:
    fn()
    n = 1
    while True:
        t0 = perf_counter()
        for _ in range(n):
            fn()
        if perf_counter() - t0 >= MIN_BATCH_S:
            return n
        n *= 2


def batch_times(*fns) -> list[list[float]]:
    """Seconds per call of each fn, one sample per batch.

    The fns take turns batch by batch, so a drift of the machine's speed
    hits them alike and differences between them survive it.
    """
    sizes = [_batch_size(fn) for fn in fns]
    samples: list[list[float]] = [[] for _ in fns]
    for _ in range(BATCHES):
        for fn, n, out in zip(fns, sizes, samples):
            t0 = perf_counter()
            for _ in range(n):
                fn()
            out.append((perf_counter() - t0) / n)
    return samples


def per_call(fn) -> float:
    """Median seconds per call of fn()."""
    return statistics.median(batch_times(fn)[0])


def layer_timings(cfg) -> dict[str, float]:
    """Microtimings at the grid of a loaded config.

    A tail-decay config has no sim section; its step timings use sigma=1
    and the tail's dt on the tail's grid, with the default initial data.
    """
    import snlslab.config as config
    import snlslab.dynamics as dynamics
    import snlslab.functionals as functionals
    import snlslab.grids as grids
    import snlslab.noise as noise
    import snlslab.operators as operators

    grid = cfg.grid
    spec = cfg.noise
    if cfg.sim is not None:
        sim, initial = cfg.sim, cfg.initial
    else:
        sim = dynamics.SimConfig(grid=grid, sigma=1.0, dt=cfg.tail.dt, t_end=cfg.tail.dt,
                                 equation="snls", noise=spec)
        initial = config.InitialSpec()
    u0 = config.make_initial(initial, grid)
    vals = u0.values
    horizon = sim.t_end if cfg.sim is not None else cfg.tail.t_inf

    def evolve_steps(equation: str, record: str):
        run = replace(sim, equation=equation, record=record,
                      noise=spec if equation == "snls" else None,
                      t_end=EVOLVE_STEPS * sim.dt)
        return lambda: dynamics.evolve(run, u0)

    light, full, light_det = batch_times(evolve_steps("snls", "light"),
                                         evolve_steps("snls", "full"),
                                         evolve_steps("deterministic", "light"))
    median = statistics.median
    pairs = list(zip(light, full, light_det))

    scan_path = noise.sample_path(spec, min(horizon, SCAN_STEPS * sim.dt), sim.dt)
    phi = noise.make_phi(spec, grid)

    def monitors():
        grids.boundary_mass_fraction(u0)
        grids.spectral_tail_fraction(u0)

    us = 1e6
    return {
        "dynamics.step_us": us * per_call(lambda: dynamics.step_deterministic(u0, sim.dt, sim.sigma)),
        "dynamics.light_step_us": us * median(light) / EVOLVE_STEPS,
        "dynamics.full_step_us": us * median(full) / EVOLVE_STEPS,
        "dynamics.noise_step_us": us * median(lt - det for lt, _, det in pairs) / EVOLVE_STEPS,
        "functionals.record_us": us * per_call(
            lambda: functionals.compute_functionals(u0, 0.5, sim.sigma, "physical")),
        "functionals.record_share": median((ft - lt) / ft for lt, ft, _ in pairs),
        "grids.field_us": us * per_call(lambda: grids.Field(grid, vals)),
        "grids.monitor_us": us * per_call(monitors),
        "operators.propagate_us": us * per_call(lambda: operators.propagate(u0, 1.0)),
        "noise.sample_path_ms": 1e3 * per_call(lambda: noise.sample_path(spec, horizon, sim.dt)),
        "noise.tail_scan_us": us * per_call(lambda: noise.tail_sup_norms(scan_path, phi))
        / scan_path.steps,
    }
