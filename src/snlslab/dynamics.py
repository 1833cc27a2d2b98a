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
half-step weights, the shift pair, the noise increments) and its step
plan once (_StepBuffers: the buffers every step writes into, their
.real/.imag views, σ as a 0-d operand and the transform pair resolved
for the run), so what a step pays beyond its grid points is its ufunc
calls: ~19 µs per step of a one-path snls light run at N = 8 (numpy
2.4.6, 2-core Xeon). It hands each partition point to a chunk recorder,
which keeps the left-endpoint fields and their |u|² (and |u|^{2σ} when
the energy Ito sums read it; the left half phase reads it too) for a
chunk of steps (as many as fit in grids.BATCH_FIELD_BYTES, at least
one), with each slot's views made once; the loop writes each new field
straight into the recorder's next free slot. Once per chunk the
recorder evaluates the series its RecordPlan names (the mass of every
plan sums the held |u|²) and the discrete sums every kept Ito budget
needs (all at left endpoints) in one batched call, and after the loop
it assembles the budgets, so a finished trajectory certifies itself
against its noise input. Recorded values never feed back into the
step, so waiting for the chunk changes no number. Every grid sum is
taken row by row over C-contiguous rows, so a path's numbers do not
depend on its batch. The check that every new field is finite is read
off the |u|² the recorder holds anyway: one total over the batch, and
the exact per-row check only when that total is not finite. At the
points of SimConfig.snapshot_steps() it writes every path's monitors, and
its field if the plan keeps it (evolve's does), into preallocated arrays.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field, replace
from itertools import repeat
from typing import Sequence

import numpy as np

from .functionals import (
    FRAME_UNSET,
    FUNCTIONAL_NAMES,
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
    "RecordPlan",
    "Trajectory",
    "BatchRun",
    "PathError",
    "step_deterministic",
    "evolve",
    "evolve_batch",
]

EQUATION_KINDS = ("deterministic", "snls", "random_shifted", "transformed")
#: the equations whose runs keep Ito budgets (the energy one as RecordPlan.keeps_energy says)
_BUDGET_EQUATIONS = ("deterministic", "snls")
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

    def snapshot_steps(self) -> np.ndarray:
        """The snapshot points: the steps k with k % snapshot_stride == 0 or k == steps."""
        return np.append(np.arange(0, self.steps, self.snapshot_stride), self.steps)

    def point_bytes(self, plan: RecordPlan) -> int:
        """Bytes a run under plan allocates per partition point and path, at most.

        In float64 words: each of its series twice (the recorder's table
        and the run's row-major copy), the times and budgets with their
        temporaries (4), the transformed equation's two weight tables and
        theirs (4); with noise the increments and their stacked copy (2),
        the complex kick table and its real factor (3), the complex Ito dot
        table (2), the mass budget's temporaries and envelope tables (6);
        with the energy Ito sums (snls, if the plan keeps them) the four
        complex dot and two sum tables (10) and the energy budget's
        temporaries (8). Per-step tables count per path, as a batch of one
        pays them. At each snapshot point the monitors take two floats per
        path, and the point's step and time two more (32 bytes), and a kept
        snapshot field 16 per cell.
        """
        words = 2 * len(plan.series_names(self)) + 4
        if self.equation == "transformed":
            words += 4
        if self.equation == "snls":
            words += 13
            if plan.keeps_energy(self):
                words += 18
        snapshot = 32 + (16 * self.grid.num_cells if plan.snapshots else 0)
        return 8 * words + -(-snapshot // self.snapshot_stride)


@dataclass(frozen=True)
class RecordPlan:
    """What a run records besides its monitors and (_BUDGET_EQUATIONS) its
    mass budget; each config.KINDS kind that runs a SimConfig carries one.
    series: those of the record to keep (None: all), each with the bytes the
    whole record gives it; energy_budget: keep a full record's energy Ito
    budget; snapshots: keep snapshot fields."""

    series: tuple[str, ...] | None = None
    energy_budget: bool = True
    snapshots: bool = False

    def keeps_energy(self, config: SimConfig) -> bool:
        """Whether a run of config keeps the energy budget under this plan."""
        return (self.energy_budget and config.record == "full"
                and config.equation in _BUDGET_EQUATIONS)

    def series_names(self, config: SimConfig) -> list[str]:
        """The series a run of config records, in the record's order; ValueError
        naming any the record does not give, or any left out that a kept budget reads."""
        recorded = ["mass"] if config.record == "light" else list(FUNCTIONAL_NAMES)
        if self.series is None:
            return recorded
        wanted = set(self.series)
        unknown = sorted(wanted.difference(recorded))
        if unknown:
            raise ValueError(f"series {unknown} are not recorded by this run (record="
                             f"{config.record!r} records {recorded})")
        if "mass" not in wanted:
            raise ValueError("series must include 'mass': the mass budget reads it")
        if self.keeps_energy(config):
            missing = [name for name in ("potential", "pc_energy") if name not in wanted]
            if missing:
                raise ValueError(f"series leaves out {missing}, which the energy budget reads; "
                                 "plan energy_budget=False or record them")
        return [name for name in recorded if name in wanted]


@dataclass(frozen=True)
class Trajectory:
    """One finished run: series, budget sums, snapshots, and monitors.

    Every series array has length steps+1 (one row per partition point).
    budget holds cumulative discrete sums aligned with times; monitors
    sample resolution health at snapshot points. snapshots, when kept,
    is the (points, *grid) array of the fields at monitors["times"].
    """

    config: SimConfig
    times: np.ndarray
    series: dict[str, np.ndarray]
    budget: dict[str, np.ndarray]
    monitors: dict[str, np.ndarray]
    snapshots: np.ndarray | None
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
        if self.snapshots is None:
            raise KeyError(f"no snapshot at t={t:g}: the run kept no snapshot fields (a "
                           "RecordPlan with snapshots=True keeps them, as evolve's does)")
        stored = self.monitors["times"].tolist()
        if t_k in stored:
            return Field(self.config.grid, self.snapshots[stored.index(t_k)])
        listed = ", ".join(f"{t_s:g}" for t_s in stored)
        raise KeyError(f"no snapshot at t={t:g}; stored snapshot times: {listed}")


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
    (paths, points) against the shared ``monitors["times"]`` (the
    config's snapshot_steps()), ``final`` (paths, *grid) and
    ``snapshots``, None unless the fields were kept, (paths, points, *grid).
    """

    config: SimConfig
    times: np.ndarray
    series: dict[str, np.ndarray]
    budget: dict[str, np.ndarray]
    monitors: dict[str, np.ndarray]
    final: np.ndarray
    snapshots: np.ndarray | None
    paths: tuple[NoisePath, ...] | None
    warnings: tuple[tuple[str, ...], ...]

    @property
    def size(self) -> int:
        return len(self.final)

    def trajectory(self, p: int) -> Trajectory:
        """Path p as a Trajectory, with its row of the snapshots if kept.

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
            snapshots=None if self.snapshots is None else self.snapshots[p],
            final=Field(self.config.grid, self.final[p]),
            path=path,
            warnings=self.warnings[p],
        )


class _StepBuffers:
    """The run's step plan, made once per run and read by every step.

    It holds the working arrays of Strang steps on a (paths, *grid)
    batch: θ, the mid-step |w|², the mask of angles that need libm, the
    shifted sum w = vals + shift, each half phase's factor
    cos θ + i sin θ, the spectrum and the noise kick; the .real/.imag
    views the steps write through; σ as a 0-d exponent (None for σ = 1);
    and, given a grid, the propagator multiplier lin and the transform
    pair GridSpec.transform_pair resolves. A step then makes no view,
    resolves no kernel and converts no float exponent. The left half
    phase writes into the spectrum, which is transformed there and back
    in place: pocketfft then skips its input copy, which saves 2 µs of a
    2048-point pair and 3 µs of a 16 × 256 one (numpy 2.4.6, 2-core
    Xeon), with the same bytes.

    Complex products keep the operand order of the allocating step they
    replace (phase * w, spec *= lin, dw * prop_phi): numpy's complex
    multiply is not bitwise commutative where it uses FMA (numpy 2.4.6 on
    x86-64 is not), so operand order is part of the output bytes. In place
    and out of place, one order gives the same bytes.
    """

    __slots__ = ("theta", "rho", "live", "shifted", "phase", "spec", "kick", "shifted_parts",
                 "phase_parts", "spec_parts", "sigma", "lin", "fft", "ifft")

    def __init__(self, shape: tuple[int, ...], sigma: float, grid: GridSpec | None = None,
                 lin: np.ndarray | None = None) -> None:
        self.theta, self.rho = np.empty(shape), np.empty(shape)
        self.live = np.empty(shape, dtype=bool)
        self.shifted, self.phase, self.spec, self.kick = (
            np.empty(shape, dtype=complex) for _ in range(4))
        self.shifted_parts, self.phase_parts, self.spec_parts = (
            (arr.real, arr.imag) for arr in (self.shifted, self.phase, self.spec))
        # a 0-d operand: ufuncs take it ~0.17 µs faster than a float, same bytes
        self.sigma = None if sigma == 1.0 else np.array(sigma)
        self.lin = lin
        self.fft, self.ifft = (None, None) if grid is None else grid.transform_pair()


#: the mask's bounds ±_TINY_PHASE as 0-d operands
_LIVE_ABOVE, _LIVE_BELOW = np.array(_TINY_PHASE), np.array(-_TINY_PHASE)


def _phase_rotation(buf: _StepBuffers, vals: np.ndarray, tau: float, shift: np.ndarray | None,
                    out: np.ndarray, rho: np.ndarray | None = None,
                    rho_sig: np.ndarray | None = None,
                    parts: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
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
    only read. Otherwise |w|² is formed from w's (.real, .imag): the
    plan's views of its shifted sum, or, unshifted, parts (views of vals
    made here if None). θ, |w|², w, the mask and the factor go to the plan
    buf's arrays; out must overlap neither w nor them.
    """
    if shift is None:
        w = vals
    else:
        w, parts = np.add(vals, shift, out=buf.shifted), buf.shifted_parts
    theta = buf.theta
    if rho_sig is None:
        if rho is None:
            re, im = (w.real, w.imag) if parts is None else parts
            rho = np.square(re, out=buf.rho)
            rho += np.square(im, out=theta)
        rho_sig = rho if buf.sigma is None else np.power(rho, buf.sigma, out=theta)
    np.multiply(rho_sig, tau, out=theta)
    live = buf.live
    if tau >= 0.0:
        np.greater_equal(theta, _LIVE_ABOVE, out=live)
    else:
        np.less_equal(theta, _LIVE_BELOW, out=live)
    cos, sin = buf.phase_parts
    cos.fill(1.0)
    np.copyto(sin, theta)
    np.cos(theta, out=cos, where=live)
    np.sin(theta, out=sin, where=live)
    np.multiply(buf.phase, w, out=out)
    if shift is not None:
        out -= shift
    return out


def _strang_step(buf: _StepBuffers, vals: np.ndarray, tau_left: float, tau_right: float,
                 s_left: np.ndarray | None, s_right: np.ndarray | None, out: np.ndarray,
                 rho: np.ndarray | None = None,
                 rho_sig: np.ndarray | None = None) -> np.ndarray:
    """Half phase — full linear propagator — half phase, on every row of
    a (paths, *grid) array, through the plan buf (made with the grid and
    the propagator's Fourier multiplier) into out; rho and rho_sig, if
    given, are |vals|² and |vals|^{2σ} for the unshifted left half phase.
    vals is read in full before out is written, so out may be vals."""
    spec = buf.spec
    _phase_rotation(buf, vals, tau_left, s_left, spec, rho, rho_sig)
    buf.fft(spec, spec)
    spec *= buf.lin
    buf.ifft(spec, spec)
    return _phase_rotation(buf, spec, tau_right, s_right, out, None, None, buf.spec_parts)


def step_deterministic(field: Field, dt: float, sigma: float) -> Field:
    """One Strang step of the plain equation."""
    grid = field.grid
    vals = field.values[None]
    buf = _StepBuffers(vals.shape, sigma, grid, grid.propagator(dt))
    out = _strang_step(buf, vals, 0.5 * dt, 0.5 * dt, None, None,
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
    deterministic run. It is a batch of one under RecordPlan(snapshots=True),
    which also keeps the field at every snapshot point.
    """
    if config.equation == "snls" and shift is None:
        if path is None:
            path = sample_path(config.noise, config.t_end, config.dt)
        elif path.spec != config.noise:
            raise ValueError("config.noise and the supplied path disagree; pass one or the other")
    inputs = _batch_inputs(config, u0, None if path is None else [path],
                           None if shift is None else [shift])
    return _integrate(config, *inputs, RecordPlan(snapshots=True)).trajectory(0)


def evolve_batch(config: SimConfig, u0: Field | Sequence[Field],
                 paths: Sequence[NoisePath] | None = None, *,
                 shifts: Sequence[Sequence[Field]] | None = None,
                 plan: RecordPlan = RecordPlan()) -> BatchRun:
    """Run a batch of paths of one config as one (paths, *grid) array.

    u0 is one Field shared by every path or one Field per path. `paths`
    (snls only) holds one noise path per row; their specs must equal
    config.noise up to the seed. `shifts` (shifted and transformed
    equations) holds one shift series per row. Row p of the result is
    bit-identical to the batch of one made of row p's inputs. `plan`
    says what the run records (by default the record's series and the
    energy budget, no snapshot fields); every output it keeps has the
    bytes of the run that keeps everything, and an energy budget it skips
    leaves no energy_* entry in the budget.
    """
    return _integrate(config, *_batch_inputs(config, u0, paths, shifts), plan)


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
               shift: list[np.ndarray] | None, plan: RecordPlan) -> BatchRun:
    """The path-batched kernel: step the (paths, *grid) array u0 while a
    _Recorder records what plan says of every row; row p is bit-identical
    to a batch of one."""
    grid, sigma, dt, steps = config.grid, config.sigma, config.dt, config.steps
    rec = _Recorder(config, u0, paths, plan)
    buf = _StepBuffers(u0.shape, sigma, grid, grid.propagator(dt))
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
        prop_phi = grid.ifft(buf.lin * rec.phi_hat)
        dws = (1j * (rec.g_left * rec.incr)).T.reshape((steps, len(u0)) + (1,) * grid.dim)
    unshifted = shift is None  # only then is the held |u|² the left half phase's |w|²
    vals = rec.slots[0][0]
    vals[...] = u0
    for k, (tau_l, tau_r), (s_l, s_r), dw in zip(range(steps), taus, ends, dws):
        rho, rho_sig, out = rec.hold(vals, k)
        vals = _strang_step(buf, vals, tau_l, tau_r, s_l, s_r, out,
                            rho if unshifted else None, rho_sig)
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
    (or None) its |u|^{2σ}. ``slots[j]`` holds the views hold reads of
    slot j, made once per run: held[j], its .real and .imag, held_rho[j]
    and held_rho_sig[j] (or None). The series (the plan's) and Ito tables
    are flat, one entry per (point, path) in that order: mass the row sums
    of the held |u|² (finish scales them), ``others`` from functional_columns.
    ``boundary``, ``tail`` (paths, points) and the kept ``snapshots`` (or
    None, (paths, points, *grid)) hold snapshot point i in column i;
    ``next_snapshot`` is the step of the next one as an int (−1 after the
    last), so a step compares two ints.
    hold reads the check that a field is finite off the |u|² it holds.
    Failures keep the order of a step-by-step record: check flushes the
    held steps before it raises for a field, and flush checks a chunk's
    functionals earliest step first.
    """

    def __init__(self, config: SimConfig, u0: np.ndarray, paths: tuple[NoisePath, ...] | None,
                 plan: RecordPlan) -> None:
        grid = self.grid = config.grid
        self.config, self.paths = config, paths
        size, steps = self.size, self.steps = len(u0), config.steps  # a property: read once
        dvol = grid.cell_volume
        self.frame = "transformed" if config.equation == "transformed" else "physical"
        self.track_energy = plan.keeps_energy(config)
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
        self.series = {name: np.empty((steps + 1) * size) for name in plan.series_names(config)}
        self.others = tuple(name for name in self.series if name != "mass")
        self.checked = [name for name in self.series if name not in FRAME_UNSET[self.frame]]
        self.snapshot_steps = config.snapshot_steps()
        self.boundary, self.tail = np.empty((2, size, len(self.snapshot_steps)))
        self.snapshots = (np.empty(self.boundary.shape + grid.shape, dtype=complex)
                          if plan.snapshots else None)
        # |u|² feeds mass and the functionals, the energy Ito sums, the unshifted left half
        # phase; |u|^{2σ} (σ ≠ 1) is held only when the energy Ito sums read it
        self.chunk = batch_rows(u0.nbytes)
        self.held = np.empty((self.chunk,) + u0.shape, dtype=complex)
        self.held_rho = np.empty(self.held.shape)
        self.held_rho_sig = (np.empty(self.held.shape) if self.track_energy and paths is not None
                             and config.sigma != 1.0 else None)
        self.sigma = np.array(config.sigma)  # a 0-d exponent, as the step plan's
        self.rho_scratch = np.empty(u0.shape)
        # each slot's views, made once: field, its .real and .imag, |u|², |u|^{2σ} or None
        sig = self.held_rho_sig
        self.slots = [(held, held.real, held.imag, self.held_rho[j], None if sig is None else sig[j])
                      for j, held in enumerate(self.held)]
        self.first = self.count = self.taken = 0  # step in held[0], steps held, snapshots taken
        self.next_snapshot = 0  # SimConfig.snapshot_steps() starts at 0

    def hold(self, vals: np.ndarray, k: int
             ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
        """Count vals, the field in the next free slot, in as partition
        point k: check it, take its monitors (and keep it) at a snapshot
        point, flush a full chunk, and return its |u|², its held
        |u|^{2σ} (or None) and the slot the next field is written to. A
        finite total of the non-negative |u|² means every entry of vals is
        finite, so only a non-finite total calls check; a finite field
        whose |u|² overflows passes it."""
        j = self.count
        _, re, im, rho, sig = self.slots[j]
        np.square(re, out=rho)
        rho += np.square(im, out=self.rho_scratch)
        if not math.isfinite(np.add.reduce(rho, axis=None)):
            self.check(vals, k)  # vals is not counted in yet: a flush ends at point k - 1
        rho_sig = None if sig is None else np.power(rho, self.sigma, out=sig)
        if k == self.next_snapshot:
            i = self.taken
            self.boundary[:, i] = boundary_mass_fractions(self.grid, vals, rho)
            self.tail[:, i] = spectral_tail_fractions(self.grid, vals)
            if self.snapshots is not None:
                self.snapshots[:, i] = vals
            self.taken = i = i + 1
            self.next_snapshot = (int(self.snapshot_steps[i]) if i < len(self.snapshot_steps)
                                  else -1)
        self.count = j + 1
        if self.count == self.chunk:
            self.flush()
        return rho, rho_sig, self.slots[self.count][0]

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
        self.series["mass"][part] = row_sums(rho)
        if self.others:
            t = np.repeat(np.arange(first, stop) * dt, size)
            cols = functional_columns(grid, vals, t, sigma, self.frame, rho=rho,
                                      names=self.others)
            for name, col in cols.items():
                self.series[name][part] = col
            finite = np.logical_and.reduce([np.isfinite(self.series[name][part])
                                            for name in self.checked])
            if not finite.all():  # name the earliest failing step
                for k, row in enumerate(finite.reshape(-1, size), start=first):
                    _require_finite(row, "functionals", k, steps, dt)
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

    def finish(self, vals: np.ndarray) -> BatchRun:
        """Record what is still held and assemble the budgets; return the
        BatchRun whose final field is vals. The Ito tables are scaled in place."""
        self.flush()
        config, size = self.config, self.size
        steps, dt, sigma, n, dvol = (self.steps, config.dt, config.sigma, self.grid.dim,
                                     self.grid.cell_volume)
        times = config.times()
        self.series["mass"] *= dvol
        series = {name: _frozen(col.reshape(steps + 1, size).T)
                  for name, col in self.series.items()}
        del self.series  # the flat tables are not kept through the budget

        budget: dict[str, np.ndarray] = {}
        zeros = _frozen(np.zeros((size, steps + 1)))
        if config.equation in _BUDGET_EQUATIONS:
            if self.paths is not None:
                s1 = self.dots.reshape(steps, size)
                s1 *= dvol
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
                    self.energy_dots *= dvol
                    self.energy_sums *= dvol
                    s2, s3, p_lap, q_nl = self.energy_dots.reshape(4, steps, size)
                    b1, b2 = self.energy_sums.reshape(2, steps, size)
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

        mon_times = _frozen(self.snapshot_steps * dt)
        boundary, tail = _frozen(self.boundary), _frozen(self.tail)
        return BatchRun(
            config=config,
            times=_frozen(times),
            series=series,
            budget=budget,
            monitors={"times": mon_times, "boundary_fraction": boundary, "spectral_tail": tail},
            final=_frozen(vals.copy()),  # not a view that keeps the buffer alive
            snapshots=None if self.snapshots is None else _frozen(self.snapshots),
            paths=self.paths,
            warnings=tuple(_collect_warnings(mon_times, b, t) for b, t in zip(boundary, tail)),
        )


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
