"""Strang-splitting integrators for the defocusing equation family.

Four equation kinds share one engine:

* deterministic    i u_t − Δu + |u|^{2σ}u = 0
* snls             the same flow driven by additive noise φ(x)g(t)dB
* random_shifted   i v_t − Δv + |v+ζ|^{2σ}(v+ζ) = 0 for a prescribed
                   shift series ζ(t_k) (the equation satisfied by u − z)
* transformed      i ũ_t − Δũ + (1−t)^{σn−2}|ũ+ζ|^{2σ}(ũ+ζ) = 0 on [0,1)

One step is: half nonlinear phase — full linear propagator — half
nonlinear phase. The nonlinear substep is an exact phase rotation
(|u| is invariant under it); for shifted equations the shift is frozen
at the substep's endpoint value, and for the transformed equation the
time-dependent coefficient is sampled at the substep midpoints
(t + dt/4, t + 3dt/4). Noise enters after the split step as
i·S(dt)[φ]·g(t_k)·ΔB_k, the left-point Ito increment pushed through the
step's propagator, which reproduces the discrete Duhamel form exactly.

While stepping, the engine records the functional series and the
discrete sums every Ito budget needs (all evaluated at left endpoints),
so a finished trajectory certifies itself against its noise input.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Sequence

import numpy as np

from .functionals import compute_functionals
from .grids import (
    Field,
    GridSpec,
    boundary_mass_fraction,
    gradient,
    spectral_tail_fraction,
)
from .noise import NoisePath, NoiseSpec, make_phi, partition_steps, sample_path

__all__ = [
    "EQUATION_KINDS",
    "SimConfig",
    "Trajectory",
    "step_deterministic",
    "evolve",
    "evolve_random",
    "evolve_transformed",
]

EQUATION_KINDS = ("deterministic", "snls", "random_shifted", "transformed")
_RECORD_MODES = ("full", "light")

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


def _phase_rotation(vals: np.ndarray, sigma: float, tau: float,
                    shift: np.ndarray | None) -> np.ndarray:
    """Exact nonlinear substep w ← e^{iτ|w|^{2σ}} w with w = vals + shift
    (shift frozen), returning the unshifted field."""
    w = vals if shift is None else vals + shift
    rho = w.real**2 + w.imag**2
    amp = rho if sigma == 1.0 else rho**sigma
    out = np.exp(1j * tau * amp) * w
    if shift is not None:
        out -= shift
    return out


def step_deterministic(field: Field, dt: float, sigma: float) -> Field:
    """One Strang step of the plain equation."""
    vals = _phase_rotation(field.values, sigma, 0.5 * dt, None)
    hat = np.fft.fftn(vals)
    hat *= np.exp(1j * dt * field.grid.k_squared())
    vals = _phase_rotation(np.fft.ifftn(hat), sigma, 0.5 * dt, None)
    return Field(field.grid, vals)


def _validate_shift(shift: Sequence[Field] | None, grid: GridSpec, steps: int) -> list[np.ndarray] | None:
    if shift is None:
        return None
    if len(shift) != steps + 1:
        raise ValueError(f"shift series must have steps+1 = {steps + 1} entries, got {len(shift)}")
    vals = []
    for k, f in enumerate(shift):
        if not isinstance(f, Field) or f.grid != grid:
            raise ValueError(f"shift entry {k} is not a Field on the run's grid")
        vals.append(f.values)
    return vals


def _resolve_path(config: SimConfig, path: NoisePath | None) -> NoisePath:
    if path is None:
        return sample_path(config.noise, config.t_end, config.dt)
    if config.noise is not None and path.spec != config.noise:
        raise ValueError("config.noise and the supplied path disagree; pass one or the other")
    if abs(path.t_inf - config.t_end) > 1e-9 * max(1.0, config.t_end) or \
            abs(path.dt - config.dt) > 1e-12 * config.dt:
        raise ValueError(
            f"noise path partition (t_inf={path.t_inf}, dt={path.dt}) does not match "
            f"the run (t_end={config.t_end}, dt={config.dt})"
        )
    return path


def evolve(config: SimConfig, u0: Field, *, path: NoisePath | None = None,
           shift: Sequence[Field] | None = None) -> Trajectory:
    """Run the equation selected by config and return its trajectory.

    `path` injects a prepared Brownian path (snls only; by default the
    path is sampled from config.noise). `shift` supplies the frozen
    shift series for the shifted/transformed equations.
    """
    if config.equation == "deterministic":
        if path is not None or shift is not None:
            raise ValueError("deterministic runs take neither a noise path nor a shift")
        return _integrate(config, u0, path=None, shift=None)
    if config.equation == "snls":
        if shift is not None:
            raise ValueError("snls runs do not take a shift series")
        if config.steps == 0:  # zero-length run: no increments to draw
            return _integrate(config, u0, path=None, shift=None)
        return _integrate(config, u0, path=_resolve_path(config, path), shift=None)
    if path is not None:
        raise ValueError(f"equation {config.equation!r} does not take a noise path")
    if config.equation == "random_shifted":
        return evolve_random(config, u0, shift)
    return evolve_transformed(config, u0, shift)


def evolve_random(config: SimConfig, u0: Field,
                  shift: Sequence[Field] | None = None) -> Trajectory:
    """Integrate the shifted equation for a prescribed shift series.

    shift[k] is the frozen shift at t_k; None means an all-zero shift,
    in which case the run reduces exactly to the deterministic one.
    """
    if config.equation != "random_shifted":
        raise ValueError(f"config.equation must be 'random_shifted', got {config.equation!r}")
    return _integrate(config, u0, path=None, shift=_validate_shift(shift, config.grid, config.steps))


def evolve_transformed(config: SimConfig, u0: Field,
                       shift: Sequence[Field] | None = None) -> Trajectory:
    """Integrate the lens-transformed equation on [0, t_end], t_end < 1."""
    if config.equation != "transformed":
        raise ValueError(f"config.equation must be 'transformed', got {config.equation!r}")
    return _integrate(config, u0, path=None, shift=_validate_shift(shift, config.grid, config.steps))


def _integrate(config: SimConfig, u0: Field, path: NoisePath | None,
               shift: list[np.ndarray] | None) -> Trajectory:
    grid = config.grid
    if u0.grid != grid:
        raise ValueError("initial field lives on a different grid than the config")
    frac0 = boundary_mass_fraction(u0)
    if frac0 > BOUNDARY_TOL:
        raise ValueError(
            f"initial data touches the box boundary: mass fraction {frac0:.3e} outside the "
            f"inner half-box exceeds {BOUNDARY_TOL:g}; enlarge the box or narrow the data"
        )

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

    # noise precomputation: the stepped profile and the budget weights
    noise_on = path is not None
    track_energy = full and config.equation in ("deterministic", "snls")
    if noise_on:
        phi = make_phi(path.spec, grid)
        phi_hat = phi.spectrum()
        prop_phi = np.fft.ifftn(np.exp(1j * dt * grid.k_squared()) * phi_hat)
        g_left = path.g_at_left()
        incr = path.increments
        cw_phi = phi.values.conj()
        phi_sq = phi.values.real**2 + phi.values.imag**2
        norm_phi_sq = float(phi_sq.sum()) * dvol
        if track_energy:
            grads_phi = [g.values for g in gradient(phi)]
            xgrad_phi = sum(x_j * gp for x_j, gp in zip(grid.coords(), grads_phi))
            lap_phi = np.fft.ifftn(-grid.k_squared() * phi_hat)
            cw_x2phi = grid.radius_squared() * cw_phi
            cw_xgrad = np.conj(xgrad_phi)
            cw_lap = np.conj(lap_phi)
            a0 = float((grid.radius_squared() * phi_sq).sum()) * dvol
            a1 = float((phi.values * cw_xgrad).imag.sum()) * dvol
            a2 = sum(float((gp.real**2 + gp.imag**2).sum()) for gp in grads_phi) * dvol

    series_lists: dict[str, list[float]] = {}
    mass_im = np.zeros(steps) if noise_on else None
    t1_terms = np.zeros(steps) if (noise_on and track_energy) else None
    t2_terms = np.zeros(steps) if (noise_on and track_energy) else None

    snapshots: list[tuple[float, Field]] = []
    mon_times: list[float] = []
    mon_boundary: list[float] = []
    mon_tail: list[float] = []

    def record_series(t_now: float, vals: np.ndarray) -> None:
        if full:
            rec = compute_functionals(Field(grid, vals), t_now, sigma, frame)
            for key, value in rec.as_dict().items():
                if key != "t":
                    series_lists.setdefault(key, []).append(value)
        else:
            rho = vals.real**2 + vals.imag**2
            series_lists.setdefault("mass", []).append(float(rho.sum()) * dvol)

    def record_snapshot(t_now: float, vals: np.ndarray) -> None:
        snap = Field(grid, vals)
        snapshots.append((t_now, snap))
        mon_times.append(t_now)
        mon_boundary.append(boundary_mass_fraction(snap))
        mon_tail.append(spectral_tail_fraction(snap))

    vals = u0.values.copy()
    for k in range(steps):
        t_k = k * dt
        record_series(t_k, vals)
        if k % config.snapshot_stride == 0:
            record_snapshot(t_k, vals)
        if noise_on:
            prod = vals * cw_phi
            s1 = complex(prod.sum()) * dvol
            mass_im[k] = 2.0 * s1.imag
            if track_energy:
                w = 1.0 + t_k
                rho = vals.real**2 + vals.imag**2
                rho_sig = rho if sigma == 1.0 else rho**sigma
                s2 = complex((vals * cw_x2phi).sum()) * dvol
                s3 = complex((vals * cw_xgrad).sum()) * dvol
                p_lap = complex((vals * cw_lap).sum()) * dvol
                q_nl = complex((rho_sig * prod).sum()) * dvol
                b1 = float((rho_sig * phi_sq).sum()) * dvol
                im_pt = prod.imag
                if sigma == 1.0:
                    b2 = float((im_pt**2).sum()) * dvol
                else:
                    mask = rho > 0.0
                    b2 = float((rho[mask] ** (sigma - 1.0) * im_pt[mask] ** 2).sum()) * dvol
                g_k = g_left[k]
                t2_terms[k] = g_k * (
                    2.0 * s2.imag + 4.0 * n * w * s1.real + 8.0 * w * s3.real
                    + 8.0 * w * w * (q_nl.imag - p_lap.imag)
                )
                t1_terms[k] = g_k * g_k * (
                    a0 - 4.0 * w * a1 + 4.0 * w * w * (a2 + b1) + 8.0 * sigma * w * w * b2
                )
        # Strang step
        tau = 0.5 * dt
        s_left = shift[k] if shift is not None else None
        s_right = shift[k + 1] if shift is not None else None
        vals = _phase_rotation(vals, sigma, tau * c1[k] if c1 is not None else tau, s_left)
        vals = np.fft.ifftn(np.fft.fftn(vals) * lin)
        vals = _phase_rotation(vals, sigma, tau * c2[k] if c2 is not None else tau, s_right)
        if noise_on:
            vals = vals + (1j * (g_left[k] * incr[k])) * prop_phi
        probe = float(vals.real.sum()) + float(vals.imag.sum())
        if not np.isfinite(probe):
            raise RuntimeError(
                f"non-finite field after step {k + 1} of {steps} (t={(k + 1) * dt:.6g}); "
                f"the run was aborted"
            )

    t_end = steps * dt
    record_series(t_end, vals)
    record_snapshot(t_end, vals)  # the loop never records the final index
    final = snapshots[-1][1]

    times = config.times()
    series = {key: _frozen(np.asarray(col)) for key, col in series_lists.items()}

    budget: dict[str, np.ndarray] = {}
    if config.equation in ("deterministic", "snls"):
        if noise_on:
            d_b = incr
            budget["mass_martingale"] = _cumsum0(mass_im * g_left * d_b)
            budget["mass_drift"] = _cumsum0(np.full(steps, norm_phi_sq) * g_left**2 * dt)
        else:
            budget["mass_martingale"] = _frozen(np.zeros(steps + 1))
            budget["mass_drift"] = _frozen(np.zeros(steps + 1))
        if track_energy:
            flow_coeff = 4.0 * (2.0 - n * sigma) / (sigma + 1.0)
            integrand = flow_coeff * (1.0 + times) * series["potential"]
            budget["energy_flow_drift"] = _cumtrapz0(integrand, dt)
            if noise_on:
                budget["energy_ito_drift"] = _cumsum0(t1_terms * dt)
                budget["energy_martingale"] = _cumsum0(t2_terms * d_b)
            else:
                budget["energy_ito_drift"] = _frozen(np.zeros(steps + 1))
                budget["energy_martingale"] = _frozen(np.zeros(steps + 1))

    monitors = {
        "times": _frozen(np.asarray(mon_times)),
        "boundary_fraction": _frozen(np.asarray(mon_boundary)),
        "spectral_tail": _frozen(np.asarray(mon_tail)),
    }
    warnings = _collect_warnings(monitors)

    return Trajectory(
        config=config,
        times=_frozen(times),
        series=series,
        budget=budget,
        monitors=monitors,
        snapshots=tuple(snapshots),
        final=final,
        path=path,
        warnings=warnings,
    )


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


def _cumsum0(increments: np.ndarray) -> np.ndarray:
    out = np.empty(len(increments) + 1)
    out[0] = 0.0
    np.cumsum(increments, out=out[1:])
    return _frozen(out)


def _cumtrapz0(values: np.ndarray, dt: float) -> np.ndarray:
    out = np.empty(len(values))
    out[0] = 0.0
    np.cumsum(0.5 * (values[1:] + values[:-1]) * dt, out=out[1:])
    return _frozen(out)


def _collect_warnings(monitors: dict[str, np.ndarray]) -> tuple[str, ...]:
    warnings: list[str] = []
    times = monitors["times"]
    for key, tol, label in (
        ("boundary_fraction", BOUNDARY_TOL, "boundary mass fraction"),
        ("spectral_tail", SPECTRAL_TAIL_TOL, "high-frequency spectral tail"),
    ):
        vals = monitors[key]
        above = vals > tol
        if above.any():
            first = int(np.argmax(above))
            warnings.append(
                f"{label} reached {vals.max():.3e} (first above {tol:g} at t={times[first]:.4g})"
            )
    return tuple(warnings)
