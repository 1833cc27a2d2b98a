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
pins it byte for byte to e^{iθ}u. Where |θ| < _TINY_PHASE = 2^-27 it
writes cos θ = 1 and sin θ = θ without calling libm: these are the
correctly rounded values there (θ²/2 and θ³/6 fall below half an ulp), and
libm returns them, which test_libm_is_exact_below_tiny_phase checks on the
platform at hand. As the field disperses, τ|w|^{2σ} dies away outside the
wave packet, so most grid points of a scattering run take this shortcut.

For shifted equations the shift is frozen at the substep's endpoint
value, and for the transformed equation the time-dependent coefficient
is sampled at the substep midpoints (t + dt/4, t + 3dt/4). Noise enters
after the split step as i·S(dt)[φ]·g(t_k)·ΔB_k, the left-point Ito
increment pushed through the step's propagator, which reproduces the
discrete Duhamel form exactly.

The engine is a step loop over a (paths, *grid) array; a single run is
a batch of one. The loop builds its per-step inputs once (both
half-step weights, the shift pair, the noise increments), writes every
step's intermediates into one set of buffers the run owns, and hands each
partition point to a chunk recorder, which keeps the left-endpoint
fields and their |u|² (and |u|^{2σ} when the energy Ito sums read it;
the left half phase reads it too) for a chunk of steps (as many as fit in
grids.BATCH_FIELD_BYTES, at least one); the loop writes each new field
straight into the recorder's next free slot. Once per chunk the
recorder evaluates the functional series and the discrete sums every
Ito budget needs (all at left endpoints) in one batched call, and after
the loop it assembles the budgets, so a finished trajectory certifies
itself against its noise input. Recorded values never feed back into
the step, so waiting for the chunk changes no number. Every grid sum is
taken row by row over C-contiguous rows, so a path's numbers do not
depend on its batch. The check that every new field is finite is read
off the |u|² the recorder holds anyway: one total over the batch, and
the exact per-row check only when that total is not finite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field, fields as dataclass_fields, replace
from itertools import repeat
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
    batch_rows,
    boundary_mass_fraction,
    boundary_mass_fractions,
    gradient,
    row_sums,
    spectral_tail_fraction,  # noqa: F401  perfbench/tracing.py wraps dynamics.spectral_tail_fraction
    spectral_tail_fractions,
)
from .noise import NoisePath, NoiseSpec, check_paths, make_phi, partition_index, sample_path

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

#: below this |θ| the rotation writes cos θ = 1, sin θ = θ without libm
_TINY_PHASE = 2.0**-27

#: run warnings trigger above these fractions; see the grids module
BOUNDARY_TOL = 1e-10
SPECTRAL_TAIL_TOL = 1e-10


@dataclass(frozen=True)
class SimConfig:
    """Immutable description of one run.

    t_end must be on the partition of dt (noise.partition_index), 0 too.
    The transformed equation lives on [0, 1); when σn < 2 its coefficient
    (1−t)^{σn−2} blows up at t=1, so horizons within 10 steps of it are
    refused outright.
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
        return partition_index(self.t_end, self.dt, "t_end")

    def times(self) -> np.ndarray:
        return np.arange(self.steps + 1) * self.dt

    @property
    def series_names(self) -> list[str]:
        """The series a run records: every functional, or only the mass."""
        if self.record == "light":
            return ["mass"]
        return [f.name for f in dataclass_fields(FunctionalRecord) if f.name != "t"]

    def point_bytes(self, snapshots: bool) -> int:
        """Bytes a run allocates per partition point and path, at most.

        In float64 words: each series twice (the recorder's table and the
        run's row-major copy), the times and budgets with their temporaries
        (4), the transformed equation's two weight tables and theirs (4);
        with noise the increments and their stacked copy (2), the complex
        kick table and its real factor (3), the complex Ito dot table and
        its scaled copy (4), the mass budget's temporaries and envelope
        tables (6); with the energy Ito sums (full snls) the four complex
        dot and two sum tables, each with its scaled copy (20), and the
        energy budget's temporaries (8). Per-step tables count per path,
        as a batch of one pays them. Every snapshot_stride points the
        monitors take one entry (512 bytes), and with snapshots (evolve)
        row 0's field is kept as well (512 + 16 per cell).
        """
        words = 2 * len(self.series_names) + 4
        if self.equation == "transformed":
            words += 4
        if self.equation == "snls":
            words += 15
            if self.record == "full":
                words += 28
        snapshot = 512 + (512 + 16 * self.grid.num_cells if snapshots else 0)
        return 8 * words + -(-snapshot // self.snapshot_stride)


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

    def snapshot_at(self, t: float) -> Field:
        """The snapshot of t's partition point k, stored at the float k * dt:
        ValueError for a t off the partition, KeyError for a k not stored."""
        t_k = partition_index(t, self.config.dt) * self.config.dt
        for stored, snap in self.snapshots:
            if stored == t_k:
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


class _StepBuffers:
    """The working arrays of Strang steps on a (paths, *grid) batch: θ,
    the mid-step |w|², the shifted sum w = vals + shift, the spectrum, the
    inverse transform (which also holds the left half phase's output), the
    noise kick and the mask of angles that need libm. A run allocates one
    set and every step writes into it.

    Complex products keep the operand order of the allocating step they
    replace (out *= w, spec *= lin, dw * prop_phi): numpy's complex
    multiply is not bitwise commutative where it uses FMA (numpy 2.4.6 on
    x86-64 is not), so operand order is part of the output bytes. In place
    and out of place, one order gives the same bytes.
    """

    __slots__ = ("theta", "rho", "shifted", "spec", "wave", "kick", "live")

    def __init__(self, shape: tuple[int, ...]) -> None:
        self.theta, self.rho = np.empty(shape), np.empty(shape)
        self.live = np.empty(shape, dtype=bool)
        self.shifted, self.spec, self.wave, self.kick = (
            np.empty(shape, dtype=complex) for _ in range(4))


def _phase_rotation(vals: np.ndarray, sigma: float, tau: float,
                    shift: np.ndarray | None, rho: np.ndarray | None = None,
                    buf: _StepBuffers | None = None, out: np.ndarray | None = None,
                    rho_sig: np.ndarray | None = None) -> np.ndarray:
    """Exact nonlinear substep w ← e^{iθ} w with θ = τ|w|^{2σ} and
    w = vals + shift (shift frozen), returning the unshifted field in out.

    e^{iθ} is built as cos θ + i sin θ from the real θ, which skips
    the complex exp and gives the same bytes as np.exp(1j * θ) * w on
    numpy 2.4.6; tests/test_dynamics.py::test_phase_rotation_matches_complex_exp
    pins that. libm is called only where |θ| ≥ _TINY_PHASE (2^-27); below
    it cos θ = 1 and sin θ = θ exactly, so those entries are written
    directly. θ has τ's sign (|w|^{2σ} ≥ 0), so the mask is θ ≥ 2^-27 for
    τ ≥ 0 and θ ≤ −2^-27 otherwise. A NaN θ is outside the mask and still
    gives NaN; an infinite one is inside it, so cos and sin warn as
    before. rho and rho_sig, if given, are |w|² and |w|^{2σ} already
    formed by the caller (rho is not read when rho_sig is given); they are
    only read. θ, |w|², w and the mask go to buf's arrays; out must
    overlap neither w nor them. Without buf, a rotation on its own gets fresh buffers and
    a fresh out.
    """
    if buf is None:
        buf, out = _StepBuffers(vals.shape), np.empty(vals.shape, dtype=complex)
    w = vals if shift is None else np.add(vals, shift, out=buf.shifted)
    theta = buf.theta
    if rho_sig is None:
        if rho is None:
            rho = np.square(w.real, out=buf.rho)
            rho += np.square(w.imag, out=theta)
        rho_sig = rho if sigma == 1.0 else np.power(rho, sigma, out=theta)
    np.multiply(rho_sig, tau, out=theta)
    live = buf.live
    if tau >= 0.0:
        np.greater_equal(theta, _TINY_PHASE, out=live)
    else:
        np.less_equal(theta, -_TINY_PHASE, out=live)
    out.real.fill(1.0)
    out.imag[...] = theta
    np.cos(theta, out=out.real, where=live)
    np.sin(theta, out=out.imag, where=live)
    out *= w
    if shift is not None:
        out -= shift
    return out


def _strang_step(vals: np.ndarray, sigma: float, grid: GridSpec, lin: np.ndarray,
                 tau_left: float, tau_right: float,
                 s_left: np.ndarray | None, s_right: np.ndarray | None,
                 rho: np.ndarray | None, buf: _StepBuffers,
                 out: np.ndarray, rho_sig: np.ndarray | None = None) -> np.ndarray:
    """Half phase — full linear propagator — half phase, on every row of
    a (paths, *grid) array, through buf's arrays into out; lin is the
    propagator's Fourier multiplier and rho and rho_sig, if given, |vals|²
    and |vals|^{2σ} for the unshifted left half phase. vals is read in
    full before out is written, so out may be vals."""
    left = _phase_rotation(vals, sigma, tau_left, s_left, rho, buf, buf.wave, rho_sig)
    spec = grid.fft(left, out=buf.spec)
    spec *= lin
    wave = grid.ifft(spec, out=buf.wave)
    return _phase_rotation(wave, sigma, tau_right, s_right, None, buf, out)


def step_deterministic(field: Field, dt: float, sigma: float) -> Field:
    """One Strang step of the plain equation."""
    grid = field.grid
    vals = field.values[None]
    out = _strang_step(vals, sigma, grid, grid.propagator(dt), 0.5 * dt, 0.5 * dt,
                       None, None, None, _StepBuffers(vals.shape),
                       np.empty(vals.shape, dtype=complex))
    return Field(grid, out[0])


def _validate_shift(shift: Sequence[Field], grid: GridSpec, steps: int) -> list[np.ndarray]:
    if len(shift) != steps + 1:
        raise ValueError(f"shift series must have steps+1 = {steps + 1} entries, got {len(shift)}")
    vals = []
    for k, f in enumerate(shift):
        if not isinstance(f, Field) or f.grid != grid:
            raise ValueError(f"shift entry {k} is not a Field on the run's grid")
        vals.append(f.values)
    return vals


def _check_inside_half_box(u0: Field) -> None:
    """Refuse initial data with more than BOUNDARY_TOL of its mass outside
    the inner half-box [-L/4, L/4]^dim: the run would wrap it around."""
    frac0 = boundary_mass_fraction(u0)
    if frac0 > BOUNDARY_TOL:
        raise ValueError(
            f"initial data touches the box boundary: mass fraction {frac0:.3e} outside the "
            f"inner half-box [-L/4, L/4]^dim exceeds {BOUNDARY_TOL:g}; enlarge the box or "
            "narrow the data"
        )


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
        if path is None:
            path = sample_path(config.noise, config.t_end, config.dt)
        elif path.spec != config.noise:
            raise ValueError("config.noise and the supplied path disagree; pass one or the other")
    # a batch of one that also keeps its snapshot fields
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
        if paths is None:
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
        _check_inside_half_box(field)
    rows = np.stack([f.values for f in initial])
    if len(initial) == 1:
        rows = np.repeat(rows, size, axis=0)

    if paths is not None:
        paths = tuple(paths)
        check_paths(paths, config.noise, config.steps, config.dt)
    shift = None
    if shifts is not None:
        per_path = [_validate_shift(series, grid, config.steps) for series in shifts]
        shift = [np.stack(step) for step in zip(*per_path)]
    return rows, paths, shift


def _integrate(config: SimConfig, u0: np.ndarray, paths: tuple[NoisePath, ...] | None,
               shift: list[np.ndarray] | None, keep_snapshots: bool = False,
               ) -> tuple[BatchRun, list[tuple[float, Field]]]:
    """The path-batched kernel: step the (paths, *grid) array u0 while a
    _Recorder records every row; row p is bit-identical to a batch of one.
    Snapshot fields of row 0 are kept only when asked for."""
    grid, sigma, dt, steps = config.grid, config.sigma, config.dt, config.steps
    lin = grid.propagator(dt)
    rec = _Recorder(config, u0, paths, keep_snapshots)
    # per-step inputs: both half-step weights (the transformed coefficient at
    # t + dt/4, t + 3dt/4), the shift at both substep ends, the noise kick
    taus = repeat((0.5 * dt, 0.5 * dt))
    if config.equation == "transformed":
        t_left, power = np.arange(steps) * dt, sigma * grid.dim - 2.0
        taus = zip(0.5 * dt * (1.0 - (t_left + 0.25 * dt)) ** power,
                   0.5 * dt * (1.0 - (t_left + 0.75 * dt)) ** power)
    ends = repeat((None, None)) if shift is None else zip(shift, shift[1:])
    dws = repeat(None)
    if paths is not None:
        prop_phi = grid.ifft(lin * rec.phi_hat)
        dws = (1j * (rec.g_left * rec.incr)).T.reshape((steps, len(u0)) + (1,) * grid.dim)
    buf = _StepBuffers(u0.shape)
    vals = rec.slot()
    vals[...] = u0
    for k, (tau_l, tau_r), (s_l, s_r), dw in zip(range(steps), taus, ends, dws):
        rho, rho_sig = rec.hold(vals, k)
        vals = _strang_step(vals, sigma, grid, lin, tau_l, tau_r, s_l, s_r,
                            rho if shift is None else None, buf, rec.slot(), rho_sig)
        if dw is not None:
            vals += np.multiply(dw, prop_phi, out=buf.kick)  # vals is the rotation's output slot
    rec.hold(vals, steps)
    return rec.finish(vals)


class _Recorder:
    """Records one _integrate run a chunk of steps at a time, takes its
    snapshot monitors and assembles its budgets and BatchRun.

    ``held`` is (chunk, paths, *grid), chunk = batch_rows(batch bytes)
    with the cap read at run time; held[j] is the field at
    partition point first + j, ``held_rho`` its |u|² and ``held_rho_sig``
    (or None) its |u|^{2σ}. The series and
    Ito tables are flat, one entry per (point, path) in that order.
    hold reads the check that a field is finite off the |u|² it holds.
    Failures keep the order of a step-by-step record: check flushes the
    held steps before it raises for a field, and flush checks a chunk's
    functionals earliest step first.
    """

    def __init__(self, config: SimConfig, u0: np.ndarray, paths: tuple[NoisePath, ...] | None,
                 keep_snapshots: bool) -> None:
        grid = self.grid = config.grid
        self.config, self.paths, self.keep_snapshots = config, paths, keep_snapshots
        size, steps = self.size, self.steps = len(u0), config.steps  # a property: read once
        dvol = grid.cell_volume
        self.full = full = config.record == "full"
        self.frame = "transformed" if config.equation == "transformed" else "physical"
        self.track_energy = full and config.equation in ("deterministic", "snls")
        # the noise input the budgets certify; every path shares phi and g
        if paths is not None:
            phi = make_phi(paths[0].spec, grid)
            self.phi_hat = phi.spectrum()
            self.g_left = paths[0].g_at_left()
            self.incr = np.stack([path.increments for path in paths])
            self.cw_phi = phi.values.conj()
            self.phi_sq = phi.values.real**2 + phi.values.imag**2
            self.norm_phi_sq = float(self.phi_sq.sum()) * dvol
            self.dots = np.empty(steps * size, dtype=complex)
            if self.track_energy:
                grads_phi = [g.values for g in gradient(phi)]
                xgrad_phi = sum(x_j * gp for x_j, gp in zip(grid.coords(), grads_phi))
                lap_phi = grid.ifft(-grid.k_squared() * self.phi_hat)
                self.cw_energy = (grid.radius_squared() * self.cw_phi, np.conj(xgrad_phi),
                                  np.conj(lap_phi))
                self.a = (float((grid.radius_squared() * self.phi_sq).sum()) * dvol,
                          float((phi.values * self.cw_energy[1]).imag.sum()) * dvol,
                          sum(float((gp.real**2 + gp.imag**2).sum()) for gp in grads_phi) * dvol)
                self.energy_dots = np.empty((4, steps * size), dtype=complex)
                self.energy_sums = np.empty((2, steps * size))
        names = config.series_names
        self.series = {name: np.empty((steps + 1) * size) for name in names}
        self.checked = [name for name in names if name not in FRAME_UNSET[self.frame]]
        self.snapshots: list[tuple[float, Field]] = []
        self.monitors: list[tuple[float, np.ndarray, np.ndarray]] = []
        # |u|² feeds the functionals or mass, the energy Ito sums, the unshifted left half
        # phase; |u|^{2σ} (σ ≠ 1) is held only when the energy Ito sums read it
        self.chunk = batch_rows(u0.nbytes)
        self.held = np.empty((self.chunk,) + u0.shape, dtype=complex)
        self.held_rho = np.empty(self.held.shape)
        self.held_rho_sig = (np.empty(self.held.shape) if self.track_energy and paths is not None
                             and config.sigma != 1.0 else None)
        self.rho_scratch = np.empty(u0.shape)
        self.first = self.count = 0  # the step in held[0], steps held

    def slot(self) -> np.ndarray:
        """The buffer the next held field is written to."""
        return self.held[self.count]

    def hold(self, vals: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray | None]:
        """Count vals, the field in slot(), in as partition point k: check
        it, take its monitors at snapshot points (and the last point),
        flush a full chunk, and return its |u|² and its held |u|^{2σ} (or
        None). A finite total of the non-negative |u|² means every entry
        of vals is finite, so only a non-finite total calls check; a
        finite field whose |u|² overflows passes it."""
        j = self.count
        rho = np.square(vals.real, out=self.held_rho[j])
        rho += np.square(vals.imag, out=self.rho_scratch)
        if not math.isfinite(np.add.reduce(rho, axis=None)):
            self.check(vals, k)  # vals is not counted in yet: a flush ends at point k - 1
        self.count = j + 1
        sig = self.held_rho_sig
        rho_sig = None if sig is None else np.power(rho, self.config.sigma, out=sig[j])
        if k % self.config.snapshot_stride == 0 or k == self.steps:
            t_now = k * self.config.dt
            self.monitors.append((t_now, boundary_mass_fractions(self.grid, vals, rho),
                                  spectral_tail_fractions(self.grid, vals)))
            if self.keep_snapshots:
                self.snapshots.append((t_now, Field(self.grid, vals[0])))
        if self.count == self.chunk:
            self.flush()
        return rho, rho_sig

    def check(self, vals: np.ndarray, k: int) -> None:
        """Raise PathError for a non-finite row of vals, the field after
        step k, once the held steps before it are recorded."""
        finite = np.isfinite(row_sums(vals))
        if not finite.all():
            self.flush()
            _require_finite(finite, "field", k, self.steps, self.config.dt)

    def flush(self) -> None:
        """Record the held steps as one batch of contiguous rows; empty the buffers."""
        if not self.count:
            return
        grid, size, first, sigma = self.grid, self.size, self.first, self.config.sigma
        steps, dt = self.steps, self.config.dt
        stop = first + self.count
        vals = self.held.reshape((-1,) + grid.shape)[:self.count * size]
        rho = self.held_rho.reshape((-1,) + grid.shape)[:self.count * size]
        part = slice(first * size, stop * size)
        if self.full:
            t = np.repeat(np.arange(first, stop) * dt, size)
            cols = functional_columns(grid, vals, t, sigma, self.frame, rho=rho)
            for name, col in self.series.items():
                col[part] = cols[name]
            finite = np.logical_and.reduce([np.isfinite(cols[name]) for name in self.checked])
            if not finite.all():  # name the earliest failing step
                for k, row in enumerate(finite.reshape(-1, size), start=first):
                    _require_finite(row, "functionals", k, steps, dt)
        else:
            self.series["mass"][part] = row_sums(rho)
        # the last partition point starts no step, so it has no Ito sums
        rows = (min(stop, steps) - first) * size
        if self.paths is not None and rows > 0:
            vals, rho = vals[:rows], rho[:rows]
            part = slice(first * size, first * size + rows)
            prod = vals * self.cw_phi
            self.dots[part] = row_sums(prod)
            if self.track_energy:
                dots, sums = self.energy_dots, self.energy_sums
                rho_sig = (rho if sigma == 1.0
                           else self.held_rho_sig.reshape((-1,) + grid.shape)[:rows])
                for j, cw in enumerate(self.cw_energy):
                    dots[j, part] = row_sums(vals * cw)
                dots[3, part] = row_sums(rho_sig * prod)
                sums[0, part] = row_sums(rho_sig * self.phi_sq)
                im_pt = prod.imag
                if sigma == 1.0:
                    sums[1, part] = row_sums(im_pt**2)
                elif (rho > 0.0).all():  # an all-True mask sums the same contiguous rows
                    sums[1, part] = row_sums(rho ** (sigma - 1.0) * im_pt**2)
                else:  # the rho > 0 mask differs by row: one masked sum per row
                    sums[1, part] = [
                        float((r[m] ** (sigma - 1.0) * i[m] ** 2).sum())
                        for r, i, m in zip(rho, im_pt, rho > 0.0)
                    ]
        self.first, self.count = stop, 0

    def finish(self, vals: np.ndarray) -> tuple[BatchRun, list[tuple[float, Field]]]:
        """Record what is still held and assemble the budgets; return the
        BatchRun whose final field is vals, and the kept snapshots."""
        self.flush()
        config, size = self.config, self.size
        steps, dt, sigma, n, dvol = (self.steps, config.dt, config.sigma, self.grid.dim,
                                     self.grid.cell_volume)
        times = config.times()
        if not self.full:
            self.series["mass"] *= dvol
        series = {name: _frozen(col.reshape(steps + 1, size).T)
                  for name, col in self.series.items()}
        del self.series  # the flat tables are not kept through the budget

        budget: dict[str, np.ndarray] = {}
        zeros = _frozen(np.zeros((size, steps + 1)))
        if config.equation in ("deterministic", "snls"):
            if self.paths is not None:
                s1 = self.dots.reshape(steps, size) * dvol
                budget["mass_martingale"] = _cumsum0(2.0 * s1.imag.T * self.g_left * self.incr)
                drift = _cumsum0(np.full(steps, self.norm_phi_sq) * self.g_left**2 * dt)
                budget["mass_drift"] = _frozen(np.broadcast_to(drift, (size, steps + 1)))
            else:
                budget["mass_martingale"] = budget["mass_drift"] = zeros
            if self.track_energy:
                flow_coeff = 4.0 * (2.0 - n * sigma) / (sigma + 1.0)
                integrand = flow_coeff * (1.0 + times) * series["potential"]
                budget["energy_flow_drift"] = _cumtrapz0(integrand, dt)
                if self.paths is not None:
                    s2, s3, p_lap, q_nl = self.energy_dots.reshape(4, steps, size) * dvol
                    b1, b2 = self.energy_sums.reshape(2, steps, size) * dvol
                    a0, a1, a2 = self.a
                    w = (1.0 + np.arange(steps) * dt)[:, None]
                    g = self.g_left[:, None]
                    t2_terms = g * (
                        2.0 * s2.imag + 4.0 * n * w * s1.real + 8.0 * w * s3.real
                        + 8.0 * w * w * (q_nl.imag - p_lap.imag)
                    )
                    t1_terms = g * g * (
                        a0 - 4.0 * w * a1 + 4.0 * w * w * (a2 + b1) + 8.0 * sigma * w * w * b2
                    )
                    budget["energy_ito_drift"] = _cumsum0(t1_terms.T * dt)
                    budget["energy_martingale"] = _cumsum0(t2_terms.T * self.incr)
                else:
                    budget["energy_ito_drift"] = budget["energy_martingale"] = zeros

        mon_times, boundary, tail = (_frozen(np.array(col).T) for col in zip(*self.monitors))
        run = BatchRun(
            config=config,
            times=_frozen(times),
            series=series,
            budget=budget,
            monitors={"times": mon_times, "boundary_fraction": boundary, "spectral_tail": tail},
            final=_frozen(vals.copy()),  # not a view that keeps the buffer alive
            paths=self.paths,
            warnings=tuple(_collect_warnings(mon_times, boundary[p], tail[p])
                           for p in range(size)),
        )
        return run, self.snapshots


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
