"""Strang-splitting integrators for the defocusing equation family.

Four equation kinds share one engine:

* deterministic    i u_t − Δu + |u|^{2σ}u = 0
* snls             the same flow driven by additive noise φ(x)g(t)dB
* random_shifted   i v_t − Δv + |v+ζ|^{2σ}(v+ζ) = 0 for a prescribed
                   shift series ζ(t_k) (the equation satisfied by u − z)
* transformed      i ũ_t − Δũ + (1−t)^{σn−2}|ũ+ζ|^{2σ}(ũ+ζ) = 0 on [0,1)

One step is: half nonlinear phase — full linear propagator — half
nonlinear phase. The nonlinear substep is an exact phase rotation
(|u| is invariant under it), applied as (cos θ + i sin θ)·u from real
cos and sin; tests/test_dynamics.py::test_phase_rotation_matches_complex_exp
pins it byte for byte to e^{iθ}u. For shifted equations the shift is frozen
at the substep's endpoint value, and for the transformed equation the
time-dependent coefficient is sampled at the substep midpoints
(t + dt/4, t + 3dt/4). Noise enters after the split step as
i·S(dt)[φ]·g(t_k)·ΔB_k, the left-point Ito increment pushed through the
step's propagator, which reproduces the discrete Duhamel form exactly.

While stepping, the engine keeps each left-endpoint field and its |u|²
in buffers that hold a chunk of steps (as many as fit in
BATCH_FIELD_BYTES, at least one); each step writes its new field
straight into the next free slot. Once per chunk it records the
functional series and the discrete sums every Ito budget needs (all
evaluated at left endpoints) for every step and path of the chunk in one
batched call, so a finished trajectory certifies itself against its
noise input. The recorded values never feed back into the step, so
waiting for the chunk changes no number, and the non-finite checks keep
the order of a step-by-step record: a field that fails its check
flushes the pending chunk first, and a chunk's functionals are checked
earliest step first. Snapshot monitors are taken inline.

The engine advances a batch of paths as one (paths, *grid) array;
a single run is a batch of one. Every grid sum is taken row by row over
C-contiguous rows, so a path's numbers do not depend on its batch.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field, fields as dataclass_fields, replace
from typing import Sequence

import numpy as np

from .functionals import (
    FRAME_UNSET,
    FunctionalRecord,
    compute_functionals,  # noqa: F401  perfbench/tracing.py wraps dynamics.compute_functionals
    functional_columns,
)
from .grids import (
    Field,
    GridSpec,
    boundary_mass_fraction,
    boundary_mass_fractions,
    gradient,
    row_sums,
    spectral_tail_fraction,  # noqa: F401  perfbench/tracing.py wraps dynamics.spectral_tail_fraction
    spectral_tail_fractions,
)
from .noise import NoisePath, NoiseSpec, make_phi, partition_steps, sample_path

__all__ = [
    "EQUATION_KINDS",
    "SimConfig",
    "Trajectory",
    "BatchRun",
    "PathError",
    "step_deterministic",
    "evolve",
    "evolve_batch",
]

EQUATION_KINDS = ("deterministic", "snls", "random_shifted", "transformed")
_RECORD_MODES = ("full", "light")

#: field bytes one (paths, *grid) array may hold: ensembles split their
#: paths into batches of at most this size, and a run records its
#: functionals in chunks of max(1, BATCH_FIELD_BYTES // batch bytes)
#: steps. On a 2-core Xeon at N=256, 32-path batches (128 KiB) took
#: ~27 us per path-step and 64 to 256 paths 32-40 us.
BATCH_FIELD_BYTES = 1 << 17

#: run warnings trigger above these fractions; see the grids module
BOUNDARY_TOL = 1e-10
SPECTRAL_TAIL_TOL = 1e-10


@dataclass(frozen=True)
class SimConfig:
    """Immutable description of one run.

    t_end must be an integer multiple of dt. The transformed equation
    lives on [0, 1); when σn < 2 its coefficient (1−t)^{σn−2} blows up
    at t=1, so horizons within 10 steps of it are refused outright.
    """

    grid: GridSpec
    sigma: float
    dt: float
    t_end: float
    equation: str = "deterministic"
    noise: NoiseSpec | None = None
    snapshot_stride: int = 10
    record: str = "full"

    def __post_init__(self) -> None:
        if not isinstance(self.grid, GridSpec):
            raise TypeError(f"grid must be a GridSpec, got {type(self.grid).__name__}")
        object.__setattr__(self, "sigma", float(self.sigma))
        object.__setattr__(self, "dt", float(self.dt))
        object.__setattr__(self, "t_end", float(self.t_end))
        object.__setattr__(self, "snapshot_stride", int(self.snapshot_stride))
        if not (np.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        if not (np.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not (np.isfinite(self.t_end) and self.t_end >= 0.0):
            raise ValueError(f"t_end must be non-negative and finite, got {self.t_end}")
        if self.equation not in EQUATION_KINDS:
            raise ValueError(f"equation must be one of {EQUATION_KINDS}, got {self.equation!r}")
        if self.noise is not None and not isinstance(self.noise, NoiseSpec):
            raise TypeError(f"noise must be a NoiseSpec or None, got {type(self.noise).__name__}")
        if self.snapshot_stride < 1:
            raise ValueError(f"snapshot_stride must be >= 1, got {self.snapshot_stride}")
        if self.record not in _RECORD_MODES:
            raise ValueError(f"record must be one of {_RECORD_MODES}, got {self.record!r}")
        if self.equation == "snls" and self.noise is None:
            raise ValueError("equation 'snls' requires a noise spec")
        if self.equation == "transformed":
            if not self.t_end < 1.0:
                raise ValueError(
                    f"transformed equation lives on [0, 1); t_end={self.t_end} is out of range"
                )
            if self.sigma * self.grid.dim < 2.0 and self.t_end >= 1.0 - 10.0 * self.dt:
                raise ValueError(
                    f"transformed horizon t_end={self.t_end} is within 10 steps of the "
                    f"t=1 coefficient blow-up (sigma*dim={self.sigma * self.grid.dim:g} < 2); "
                    f"largest safe horizon is {1.0 - 10.0 * self.dt:g}"
                )
        self.steps  # validates divisibility

    @property
    def steps(self) -> int:
        return partition_steps(self.t_end, self.dt, "t_end") if self.t_end > 0 else 0

    def times(self) -> np.ndarray:
        return np.arange(self.steps + 1) * self.dt


@dataclass(frozen=True)
class Trajectory:
    """One finished run: series, budget sums, snapshots, and monitors.

    Every series array has length steps+1 (one row per partition point).
    budget holds cumulative discrete sums aligned with times; monitors
    sample resolution health at snapshot points.
    """

    config: SimConfig
    times: np.ndarray
    series: dict[str, np.ndarray]
    budget: dict[str, np.ndarray]
    monitors: dict[str, np.ndarray]
    snapshots: tuple[tuple[float, Field], ...]
    final: Field
    path: NoisePath | None = None
    warnings: tuple[str, ...] = dataclass_field(default=())

    @property
    def steps(self) -> int:
        return len(self.times) - 1

    def snapshot_at(self, t: float, atol: float = 1e-9) -> Field:
        for t_k, snap in self.snapshots:
            if abs(t_k - t) <= atol:
                return snap
        stored = ", ".join(f"{t_k:g}" for t_k, _ in self.snapshots)
        raise KeyError(f"no snapshot at t={t:g}; stored snapshot times: {stored}")


class PathError(RuntimeError):
    """A batched run failed on one path; ``path`` is its row in the batch."""

    def __init__(self, message: str, path: int) -> None:
        super().__init__(message)
        self.path = path


@dataclass(frozen=True)
class BatchRun:
    """Finished runs of a batch of paths that share one config.

    Row p of every per-path array belongs to path p: series and budget
    arrays have shape (paths, steps+1), the monitor fractions
    (paths, snapshots) against the shared ``monitors["times"]``, and
    ``final`` (paths, *grid). Snapshot fields are not kept.
    """

    config: SimConfig
    times: np.ndarray
    series: dict[str, np.ndarray]
    budget: dict[str, np.ndarray]
    monitors: dict[str, np.ndarray]
    final: np.ndarray
    paths: tuple[NoisePath, ...] | None
    warnings: tuple[tuple[str, ...], ...]

    @property
    def size(self) -> int:
        return len(self.final)

    def trajectory(self, p: int,
                   snapshots: Sequence[tuple[float, Field]] = ()) -> Trajectory:
        """Path p as a Trajectory; it holds only the snapshots passed in.

        Its config carries path p's own noise spec, so re-running it
        replays that path.
        """
        path = None if self.paths is None else self.paths[p]
        return Trajectory(
            config=self.config if path is None else replace(self.config, noise=path.spec),
            times=self.times,
            series={key: col[p] for key, col in self.series.items()},
            budget={key: col[p] for key, col in self.budget.items()},
            monitors={key: col if key == "times" else col[p]
                      for key, col in self.monitors.items()},
            snapshots=tuple(snapshots),
            final=Field(self.config.grid, self.final[p]),
            path=path,
            warnings=self.warnings[p],
        )


def _phase_rotation(vals: np.ndarray, sigma: float, tau: float,
                    shift: np.ndarray | None, rho: np.ndarray | None = None,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Exact nonlinear substep w ← e^{iθ} w with θ = τ|w|^{2σ} and
    w = vals + shift (shift frozen), returning the unshifted field.

    e^{iθ} is built as cos θ + i sin θ from the real θ ≥ +0, which skips
    the complex exp and gives the same bytes as np.exp(1j * θ) * w on
    numpy 2.4.6; tests/test_dynamics.py::test_phase_rotation_matches_complex_exp
    pins that. rho, if given, is |w|² already formed by the caller; it is
    only read. out, if given, receives the result and must not overlap w.
    """
    w = vals if shift is None else vals + shift
    if rho is None:
        rho = w.real**2 + w.imag**2
    if sigma == 1.0:
        theta = tau * rho
    else:
        theta = rho**sigma
        theta *= tau
    if out is None:
        out = np.empty_like(w)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    out *= w
    if shift is not None:
        out -= shift
    return out


def _strang_step(vals: np.ndarray, sigma: float, grid: GridSpec, lin: np.ndarray,
                 tau_left: float, tau_right: float,
                 s_left: np.ndarray | None = None,
                 s_right: np.ndarray | None = None,
                 rho: np.ndarray | None = None,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Half phase — full linear propagator — half phase, on every row of
    a (paths, *grid) array; lin is the propagator's Fourier multiplier,
    rho, if given, |vals|² for the unshifted left half phase, and out, if
    given, receives the new field (vals is read in full before it is
    written, so out may be vals)."""
    vals = _phase_rotation(vals, sigma, tau_left, s_left, rho)
    spec = grid.fft(vals)
    spec *= lin
    return _phase_rotation(grid.ifft(spec), sigma, tau_right, s_right, out=out)


def step_deterministic(field: Field, dt: float, sigma: float) -> Field:
    """One Strang step of the plain equation."""
    grid = field.grid
    lin = np.exp(1j * dt * grid.k_squared())
    vals = _strang_step(field.values[None], sigma, grid, lin, 0.5 * dt, 0.5 * dt)
    return Field(grid, vals[0])


def _validate_shift(shift: Sequence[Field], grid: GridSpec, steps: int) -> list[np.ndarray]:
    if len(shift) != steps + 1:
        raise ValueError(f"shift series must have steps+1 = {steps + 1} entries, got {len(shift)}")
    vals = []
    for k, f in enumerate(shift):
        if not isinstance(f, Field) or f.grid != grid:
            raise ValueError(f"shift entry {k} is not a Field on the run's grid")
        vals.append(f.values)
    return vals


def _check_partition(config: SimConfig, path: NoisePath) -> None:
    if abs(path.t_inf - config.t_end) > 1e-9 * max(1.0, config.t_end) or \
            abs(path.dt - config.dt) > 1e-12 * config.dt:
        raise ValueError(
            f"noise path partition (t_inf={path.t_inf}, dt={path.dt}) does not match "
            f"the run (t_end={config.t_end}, dt={config.dt})"
        )


def _resolve_path(config: SimConfig, path: NoisePath | None) -> NoisePath:
    if path is None:
        return sample_path(config.noise, config.t_end, config.dt)
    if config.noise is not None and path.spec != config.noise:
        raise ValueError("config.noise and the supplied path disagree; pass one or the other")
    _check_partition(config, path)
    return path


def evolve(config: SimConfig, u0: Field, *, path: NoisePath | None = None,
           shift: Sequence[Field] | None = None) -> Trajectory:
    """Run the equation selected by config and return its trajectory.

    `path` injects a prepared Brownian path (snls only; by default the
    path is sampled from config.noise). `shift` supplies the frozen
    shift series for the shifted/transformed equations; None means an
    all-zero shift, under which random_shifted reduces exactly to the
    deterministic run.
    """
    if config.equation == "snls" and shift is None:
        # a zero-length run has no increments to draw
        path = _resolve_path(config, path) if config.steps else None
    return _evolve_one(config, u0, path, shift)


def _evolve_one(config: SimConfig, u0: Field, path: NoisePath | None,
                shift: Sequence[Field] | None) -> Trajectory:
    """A batch of one that also keeps its snapshot fields."""
    run, snapshots = _integrate(
        config,
        *_batch_inputs(config, u0, None if path is None else [path],
                       None if shift is None else [shift]),
        keep_snapshots=True,
    )
    return run.trajectory(0, snapshots)


def evolve_batch(config: SimConfig, u0: Field | Sequence[Field],
                 paths: Sequence[NoisePath] | None = None, *,
                 shifts: Sequence[Sequence[Field]] | None = None) -> BatchRun:
    """Run a batch of paths of one config as one (paths, *grid) array.

    u0 is one Field shared by every path or one Field per path. `paths`
    (snls only) holds one noise path per row; their specs must equal
    config.noise up to the seed. `shifts` (shifted and transformed
    equations) holds one shift series per row. Row p of the result is
    bit-identical to the batch of one made of row p's inputs.
    """
    return _integrate(config, *_batch_inputs(config, u0, paths, shifts))[0]


def _batch_inputs(config: SimConfig, u0: Field | Sequence[Field],
                  paths: Sequence[NoisePath] | None,
                  shifts: Sequence[Sequence[Field]] | None,
                  ) -> tuple[np.ndarray, tuple[NoisePath, ...] | None, list[np.ndarray] | None]:
    """Check a batch against config; return the initial rows, the paths
    and the shift series as one (paths, *grid) array per partition point."""
    equation = config.equation
    if equation == "deterministic" and (paths is not None or shifts is not None):
        raise ValueError("deterministic runs take neither a noise path nor a shift")
    if equation == "snls":
        if shifts is not None:
            raise ValueError("snls runs do not take a shift series")
        if paths is None and config.steps:
            raise ValueError("snls batches need one noise path per row")
    elif paths is not None:
        raise ValueError(f"equation {equation!r} does not take a noise path")

    initial = [u0] if isinstance(u0, Field) else list(u0)
    sizes = {len(seq) for seq in (paths, shifts) if seq is not None}
    if len(initial) > 1:
        sizes.add(len(initial))
    if len(sizes) > 1:
        raise ValueError(f"u0, paths and shifts disagree on the batch size: {sorted(sizes)}")
    size = sizes.pop() if sizes else 1
    if size < 1 or not initial:
        raise ValueError("a batch needs at least one path")

    grid = config.grid
    for field in initial:
        if field.grid != grid:
            raise ValueError("initial field lives on a different grid than the config")
        frac0 = boundary_mass_fraction(field)
        if frac0 > BOUNDARY_TOL:
            raise ValueError(
                f"initial data touches the box boundary: mass fraction {frac0:.3e} outside the "
                f"inner half-box exceeds {BOUNDARY_TOL:g}; enlarge the box or narrow the data"
            )
    rows = np.stack([f.values for f in initial])
    if len(initial) == 1:
        rows = np.repeat(rows, size, axis=0)

    if paths is not None:
        paths = tuple(paths)
        ref = config.noise
        for p, path in enumerate(paths):
            if replace(path.spec, seed=ref.seed) != ref:
                raise ValueError(f"path {p}: its noise spec differs from config.noise "
                                 f"in more than the seed")
            _check_partition(config, path)
    shift = None
    if shifts is not None:
        per_path = [_validate_shift(series, grid, config.steps) for series in shifts]
        shift = [np.stack(step) for step in zip(*per_path)]
    return rows, paths, shift


def _integrate(config: SimConfig, u0: np.ndarray, paths: tuple[NoisePath, ...] | None,
               shift: list[np.ndarray] | None, keep_snapshots: bool = False,
               ) -> tuple[BatchRun, list[tuple[float, Field]]]:
    """The path-batched kernel: advance the (paths, *grid) array u0 and
    record series, budget sums and monitors for every row.

    Every reduction runs over one C-contiguous row at a time, so row p
    is bit-identical to a batch of one. Snapshot fields of row 0 are
    kept only when asked for.
    """
    grid = config.grid
    size = len(u0)
    steps = config.steps
    dt = config.dt
    sigma = config.sigma
    dvol = grid.cell_volume
    n = grid.dim
    transformed = config.equation == "transformed"
    frame = "transformed" if transformed else "physical"
    full = config.record == "full"

    # linear propagator and (for the transformed equation) the nonlinear
    # coefficient sampled at the two substep midpoints of every step
    lin = np.exp(1j * dt * grid.k_squared())
    c1 = c2 = None
    if transformed and sigma * n != 2.0:
        power = sigma * n - 2.0
        t_left = np.arange(steps) * dt
        c1 = (1.0 - (t_left + 0.25 * dt)) ** power
        c2 = (1.0 - (t_left + 0.75 * dt)) ** power

    # noise precomputation: the stepped profile, the per-path kicks and
    # the budget weights; profile and envelope are shared by every path
    noise_on = paths is not None
    track_energy = full and config.equation in ("deterministic", "snls")
    if noise_on:
        phi = make_phi(paths[0].spec, grid)
        phi_hat = phi.spectrum()
        prop_phi = grid.ifft(lin * phi_hat)
        g_left = paths[0].g_at_left()
        incr = np.stack([path.increments for path in paths])
        kicks = (1j * (g_left * incr)).T.reshape((steps, size) + (1,) * n)
        cw_phi = phi.values.conj()
        phi_sq = phi.values.real**2 + phi.values.imag**2
        norm_phi_sq = float(phi_sq.sum()) * dvol
        # per-step grid sums, one entry per (step, path) in that order,
        # combined into budget terms after the loop
        dots = np.empty(steps * size, dtype=complex)
        if track_energy:
            grads_phi = [g.values for g in gradient(phi)]
            xgrad_phi = sum(x_j * gp for x_j, gp in zip(grid.coords(), grads_phi))
            lap_phi = grid.ifft(-grid.k_squared() * phi_hat)
            cw_x2phi = grid.radius_squared() * cw_phi
            cw_xgrad = np.conj(xgrad_phi)
            cw_lap = np.conj(lap_phi)
            a0 = float((grid.radius_squared() * phi_sq).sum()) * dvol
            a1 = float((phi.values * cw_xgrad).imag.sum()) * dvol
            a2 = sum(float((gp.real**2 + gp.imag**2).sum()) for gp in grads_phi) * dvol
            energy_dots = np.empty((4, steps * size), dtype=complex)
            energy_sums = np.empty((2, steps * size))

    # one entry per (partition point, path) in that order; reshaped at the end
    names = [f.name for f in dataclass_fields(FunctionalRecord) if f.name != "t"] if full else ["mass"]
    series = {name: np.empty((steps + 1) * size) for name in names}

    snapshots: list[tuple[float, Field]] = []
    mon_times: list[float] = []
    mon_boundary: list[np.ndarray] = []
    mon_tail: list[np.ndarray] = []

    checked = [name for name in names if name not in FRAME_UNSET[frame]]

    # Left-endpoint fields and their |u|² fill buffers of a chunk of steps:
    # each step writes its new field straight into the next free slot of
    # `held`. flush then records the chunk as one (steps·paths, *grid) batch
    # of contiguous rows. |u|² is shared by the light mass record, the energy
    # Ito sums and the unshifted left half phase; a shifted run with full
    # recording reads it nowhere.
    chunk = max(1, BATCH_FIELD_BYTES // u0.nbytes)
    rho_read = shift is None or not full
    held = np.empty((chunk,) + u0.shape, dtype=complex)
    held_rho = np.empty(held.shape) if rho_read else None
    first = 0  # the step in held[0]
    count = 0  # steps held

    def hold(vals: np.ndarray) -> np.ndarray | None:
        """Count vals, the field in held[count], in; return its |u|²."""
        nonlocal count
        count += 1
        if not rho_read:
            return None
        return np.add(vals.real**2, vals.imag**2, out=held_rho[count - 1])

    def flush() -> None:
        """Record the held steps and empty the buffers."""
        nonlocal first, count
        if not count:
            return
        stop = first + count
        vals = held.reshape((-1,) + grid.shape)[:count * size]
        rho = held_rho.reshape((-1,) + grid.shape)[:count * size] if rho_read else None
        part = slice(first * size, stop * size)
        if full:
            t = np.repeat(np.arange(first, stop) * dt, size)
            cols = functional_columns(grid, vals, t, sigma, frame, rho=rho)
            for name in names:
                series[name][part] = cols[name]
            finite = np.logical_and.reduce([np.isfinite(cols[name]) for name in checked])
            for k, row in enumerate(finite.reshape(-1, size), start=first):
                _require_finite(row, "functionals", k, steps, dt)
        else:
            series["mass"][part] = row_sums(rho)
        # the last partition point starts no step, so it has no Ito sums
        rows = (min(stop, steps) - first) * size
        if noise_on and rows > 0:
            vals, rho = vals[:rows], rho[:rows]
            part = slice(first * size, first * size + rows)
            prod = vals * cw_phi
            dots[part] = row_sums(prod)
            if track_energy:
                rho_sig = rho if sigma == 1.0 else rho**sigma
                energy_dots[0, part] = row_sums(vals * cw_x2phi)
                energy_dots[1, part] = row_sums(vals * cw_xgrad)
                energy_dots[2, part] = row_sums(vals * cw_lap)
                energy_dots[3, part] = row_sums(rho_sig * prod)
                energy_sums[0, part] = row_sums(rho_sig * phi_sq)
                im_pt = prod.imag
                if sigma == 1.0:
                    energy_sums[1, part] = row_sums(im_pt**2)
                elif (rho > 0.0).all():  # an all-True mask sums the same contiguous rows
                    energy_sums[1, part] = row_sums(rho ** (sigma - 1.0) * im_pt**2)
                else:  # the rho > 0 mask differs by row: one masked sum per row
                    energy_sums[1, part] = [
                        float((r[m] ** (sigma - 1.0) * i[m] ** 2).sum())
                        for r, i, m in zip(rho, im_pt, rho > 0.0)
                    ]
        first, count = stop, 0

    def record_snapshot(t_now: float, vals: np.ndarray) -> None:
        mon_times.append(t_now)
        mon_boundary.append(boundary_mass_fractions(grid, vals))
        mon_tail.append(spectral_tail_fractions(grid, vals))
        if keep_snapshots:
            snapshots.append((t_now, Field(grid, vals[0])))

    vals = held[0]
    vals[...] = u0
    tau = 0.5 * dt
    for k in range(steps):
        rho = hold(vals)
        if k % config.snapshot_stride == 0:
            record_snapshot(k * dt, vals)
        if count == chunk:
            flush()
        vals = _strang_step(
            vals, sigma, grid, lin,
            tau * c1[k] if c1 is not None else tau,
            tau * c2[k] if c2 is not None else tau,
            shift[k] if shift is not None else None,
            shift[k + 1] if shift is not None else None,
            rho if shift is None else None,
            held[count],
        )
        if noise_on:
            vals += kicks[k] * prop_phi  # vals is the rotation's output slot
        finite = np.isfinite(row_sums(vals))
        if not finite.all():
            flush()  # the functionals of step k were due before this check
            _require_finite(finite, "field", k + 1, steps, dt)

    hold(vals)
    flush()
    record_snapshot(steps * dt, vals)  # the loop never records the final index

    times = config.times()
    if not full:
        series["mass"] *= dvol
    series = {name: _frozen(col.reshape(steps + 1, size).T) for name, col in series.items()}

    budget: dict[str, np.ndarray] = {}
    zeros = _frozen(np.zeros((size, steps + 1)))
    if config.equation in ("deterministic", "snls"):
        if noise_on:
            s1 = dots.reshape(steps, size) * dvol
            budget["mass_martingale"] = _cumsum0(2.0 * s1.imag.T * g_left * incr)
            drift = _cumsum0(np.full(steps, norm_phi_sq) * g_left**2 * dt)
            budget["mass_drift"] = _frozen(np.broadcast_to(drift, (size, steps + 1)))
        else:
            budget["mass_martingale"] = budget["mass_drift"] = zeros
        if track_energy:
            flow_coeff = 4.0 * (2.0 - n * sigma) / (sigma + 1.0)
            integrand = flow_coeff * (1.0 + times) * series["potential"]
            budget["energy_flow_drift"] = _cumtrapz0(integrand, dt)
            if noise_on:
                s2, s3, p_lap, q_nl = energy_dots.reshape(4, steps, size) * dvol
                b1, b2 = energy_sums.reshape(2, steps, size) * dvol
                w = (1.0 + np.arange(steps) * dt)[:, None]
                g = g_left[:, None]
                t2_terms = g * (
                    2.0 * s2.imag + 4.0 * n * w * s1.real + 8.0 * w * s3.real
                    + 8.0 * w * w * (q_nl.imag - p_lap.imag)
                )
                t1_terms = g * g * (
                    a0 - 4.0 * w * a1 + 4.0 * w * w * (a2 + b1) + 8.0 * sigma * w * w * b2
                )
                budget["energy_ito_drift"] = _cumsum0(t1_terms.T * dt)
                budget["energy_martingale"] = _cumsum0(t2_terms.T * incr)
            else:
                budget["energy_ito_drift"] = budget["energy_martingale"] = zeros

    mon_times_arr = _frozen(np.asarray(mon_times))
    boundary = _frozen(np.array(mon_boundary).T)
    tail = _frozen(np.array(mon_tail).T)
    run = BatchRun(
        config=config,
        times=_frozen(times),
        series=series,
        budget=budget,
        monitors={"times": mon_times_arr, "boundary_fraction": boundary, "spectral_tail": tail},
        final=_frozen(vals.copy()),  # not a view that keeps the buffer alive
        paths=paths,
        warnings=tuple(_collect_warnings(mon_times_arr, boundary[p], tail[p])
                       for p in range(size)),
    )
    return run, snapshots


def _require_finite(finite: np.ndarray, what: str, k: int, steps: int, dt: float) -> None:
    """Raise PathError for the first row that is not finite after step k."""
    if not finite.all():
        p = int(np.argmin(finite))
        where = f" in path {p} of the batch" if len(finite) > 1 else ""
        raise PathError(
            f"non-finite {what} after step {k} of {steps} (t={k * dt:.6g})"
            f"{where}; the run was aborted",
            p,
        )


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


def _cumsum0(increments: np.ndarray) -> np.ndarray:
    """Running sums along the last axis, with a leading 0."""
    out = np.zeros(increments.shape[:-1] + (increments.shape[-1] + 1,))
    np.cumsum(increments, axis=-1, out=out[..., 1:])
    return _frozen(out)


def _cumtrapz0(values: np.ndarray, dt: float) -> np.ndarray:
    """Cumulative trapezoid rule along the last axis, starting at 0."""
    out = np.zeros(values.shape)
    np.cumsum(0.5 * (values[..., 1:] + values[..., :-1]) * dt, axis=-1, out=out[..., 1:])
    return _frozen(out)


def _collect_warnings(times: np.ndarray, boundary: np.ndarray,
                      tail: np.ndarray) -> tuple[str, ...]:
    warnings: list[str] = []
    for vals, tol, label in (
        (boundary, BOUNDARY_TOL, "boundary mass fraction"),
        (tail, SPECTRAL_TAIL_TOL, "high-frequency spectral tail"),
    ):
        above = vals > tol
        if above.any():
            first = int(np.argmax(above))
            warnings.append(
                f"{label} reached {vals.max():.3e} (first above {tol:g} at t={times[first]:.4g})"
            )
    return tuple(warnings)
