"""Additive noise: profiles, envelopes, Brownian paths, and the
stochastic convolution with its far-tail.

The driving increment over [t_k, t_k+dt) is phi(x) * g(t_k) * dB_k with
dB_k ~ N(0, dt). All Fourier work exploits that the free propagator is
unimodular, so L2/H1 norms of convolutions never need an inverse FFT.

Every time a run reads (a horizon, a checkpoint, a growth horizon, a
snapshot time) becomes a step through ``partition_index``, the one rule
for whether t is on the partition of step dt; callers compare steps.

Seeding: one 64-bit seed per path feeds a counter-based Philox
generator. Ensemble path seeds derive from a base seed through
SplitMix64 (seed_i = splitmix64(base + i * golden)), so ensembles can be
extended without touching existing paths and results cannot depend on
scheduling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from .grids import Field, GridSpec, batches, row_sums
from .norms import lp_norm, sobolev_row_norms

__all__ = [
    "NoiseSpec",
    "NoisePath",
    "splitmix64",
    "path_seed",
    "make_phi",
    "g_value",
    "g_sq_tail_bound",
    "partition_index",
    "partition_steps",
    "check_paths",
    "sample_path",
    "coarsen_path",
    "stochastic_convolution",
    "tail_convolution",
    "convolution_series",
    "tail_sup_norms",
    "check_fit_window",
    "tail_decay_fit",
    "TailFitResult",
]

_PHI_KINDS = ("gaussian", "gaussian_times_poly", "zero")
_G_KINDS = ("power_law", "indicator", "constant", "zero")
_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """SplitMix64 finalizer; the documented seed-mixing primitive."""
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def path_seed(base_seed: int, index: int) -> int:
    """Per-path seed: splitmix64(base + index * golden), stateless in index."""
    if index < 0:
        raise ValueError(f"path index must be non-negative, got {index}")
    return splitmix64((int(base_seed) + index * _GOLDEN) & _MASK64)


@dataclass(frozen=True)
class NoiseSpec:
    """Spatial profile, temporal envelope and seed of one noise path.

    phi kinds: gaussian  amplitude * exp(-|x-c|^2 / (2 width^2));
    gaussian_times_poly multiplies that by (x_1-c)/width (odd profile,
    exercises the x.grad(phi) couplings); zero.

    g kinds: power_law  <t>^{-alpha} = (1+t^2)^{-alpha/2}; indicator of
    [t0, t1); constant; zero.
    """

    phi_kind: str = "gaussian"
    phi_width: float = 1.0
    phi_center: float = 0.0
    phi_amplitude: float = 1.0
    g_kind: str = "constant"
    g_alpha: float = 3.0
    g_t0: float = 0.0
    g_t1: float = 1.0
    g_constant: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.phi_kind not in _PHI_KINDS:
            raise ValueError(f"phi_kind must be one of {_PHI_KINDS}, got {self.phi_kind!r}")
        if self.g_kind not in _G_KINDS:
            raise ValueError(f"g_kind must be one of {_G_KINDS}, got {self.g_kind!r}")
        if not (self.phi_width > 0 and math.isfinite(self.phi_width)):
            raise ValueError(f"phi_width must be positive, got {self.phi_width}")
        for name in ("phi_center", "phi_amplitude", "g_alpha", "g_t0", "g_t1", "g_constant"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.g_kind == "power_law" and self.g_alpha < 0:
            raise ValueError(f"g_alpha must be non-negative, got {self.g_alpha}")
        if self.g_kind == "indicator" and not (0 <= self.g_t0 < self.g_t1):
            raise ValueError(
                f"indicator support needs 0 <= g_t0 < g_t1, got [{self.g_t0}, {self.g_t1})"
            )
        if not (0 <= int(self.seed) < (1 << 64)):
            raise ValueError(f"seed must be a 64-bit non-negative integer, got {self.seed}")
        object.__setattr__(self, "seed", int(self.seed))


def make_phi(spec: NoiseSpec, grid: GridSpec) -> Field:
    """Sample the spatial profile on a grid."""
    if spec.phi_kind == "zero":
        return Field.zeros(grid)
    r2 = np.zeros(grid.shape)
    for x in grid.coords():
        r2 = r2 + (x - spec.phi_center) ** 2
    vals = spec.phi_amplitude * np.exp(-r2 / (2.0 * spec.phi_width**2))
    if spec.phi_kind == "gaussian_times_poly":
        vals = vals * (grid.coords()[0] - spec.phi_center) / spec.phi_width
    return Field(grid, np.broadcast_to(vals, grid.shape))


def g_value(spec: NoiseSpec, t: float) -> float:
    """Envelope g(t) for t >= 0."""
    t = float(t)
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"envelope time must satisfy t >= 0, got {t}")
    return float(_g_values(spec, np.asarray(t)))


def _g_values(spec: NoiseSpec, times: np.ndarray) -> np.ndarray:
    if spec.g_kind == "power_law":
        return (1.0 + times * times) ** (-0.5 * spec.g_alpha)
    if spec.g_kind == "indicator":
        return ((times >= spec.g_t0) & (times < spec.g_t1)).astype(float)
    if spec.g_kind == "constant":
        return np.full_like(times, float(spec.g_constant))
    return np.zeros_like(times)


def g_sq_tail_bound(spec: NoiseSpec, t_inf: float) -> float:
    """Upper bound for the truncated energy integral int_{T}^{inf} g(t)^2 dt.

    power_law uses the elementary bound int_T^inf t^{-2a} dt =
    T^{1-2a}/(2a-1) (infinite for a <= 1/2); indicator and zero are
    exact; a nonzero constant envelope has an infinite tail.
    """
    if t_inf <= 0:
        raise ValueError(f"t_inf must be positive, got {t_inf}")
    if spec.g_kind == "power_law":
        if spec.g_alpha <= 0.5:
            return math.inf
        return t_inf ** (1.0 - 2.0 * spec.g_alpha) / (2.0 * spec.g_alpha - 1.0)
    if spec.g_kind == "indicator":
        return max(0.0, spec.g_t1 - max(t_inf, spec.g_t0))
    if spec.g_kind == "constant":
        return math.inf if spec.g_constant != 0.0 else 0.0
    return 0.0


def partition_index(t: float, dt: float, name: str = "t") -> int:
    """The step m of time t on the partition of step dt: the one rule,
    |m dt - t| <= 1e-9 max(dt, t) for finite t >= 0, dt > 0 and t/dt.
    Anything else raises ValueError, with ``name`` labelling t."""
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"{name} must be non-negative and finite, got {t}")
    if not math.isfinite(t / dt):
        raise ValueError(f"{name}={t} over dt={dt} is not a finite number of steps")
    m = int(round(t / dt))
    if abs(m * dt - t) > 1e-9 * max(dt, t):
        raise ValueError(f"{name}={t} is not an integer multiple of dt={dt}")
    return m


def partition_steps(horizon: float, dt: float, name: str = "t_inf") -> int:
    """Number of steps of size dt that partition [0, horizon]: its
    ``partition_index``, with a zero horizon refused; ``name`` labels it."""
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"{name} must be positive and finite, got {horizon}")
    return partition_index(horizon, dt, name)


@dataclass(frozen=True)
class NoisePath:
    """Brownian increments on the uniform partition of [0, t_inf].

    increments[k] is dB over [k dt, (k+1) dt); there are
    partition_index(t_inf, dt) of them. coarsen_factor records the integer
    ratio between dt and the step the path was originally seeded at, so
    coarsen_path can regroup from the fine path (sample fine, then group-sum).
    """

    spec: NoiseSpec
    t_inf: float
    dt: float
    increments: np.ndarray
    coarsen_factor: int = 1

    def __post_init__(self) -> None:
        steps = partition_index(self.t_inf, self.dt, "t_inf")
        inc = np.asarray(self.increments, dtype=np.float64)
        if inc.ndim != 1 or len(inc) != steps:
            raise ValueError(f"expected {steps} increments, got shape {inc.shape}")
        if not np.all(np.isfinite(inc)):
            raise ValueError("increments contain non-finite entries")
        inc = inc.copy()
        inc.flags.writeable = False
        object.__setattr__(self, "increments", inc)

    @property
    def steps(self) -> int:
        return len(self.increments)

    def g_at_left(self) -> np.ndarray:
        """Envelope at the left partition points (the Ito evaluation points)."""
        return _g_values(self.spec, self.dt * np.arange(self.steps))

    def index_of(self, t: float) -> int:
        """Partition index of an on-partition time no later than t_inf."""
        m = partition_index(t, self.dt, "time")
        if m > self.steps:
            raise ValueError(f"time {t} is past the end of the path, t_inf={self.t_inf}")
        return m


def check_paths(paths: Sequence[NoisePath], spec: NoiseSpec, steps: int, dt: float) -> None:
    """Refuse a path set that cannot drive one run of ``steps`` steps of
    size dt under spec: each path's spec must equal spec up to the seed,
    and its partition the run's (dt within a relative 1e-12)."""
    for p, path in enumerate(paths):
        if replace(path.spec, seed=spec.seed) != spec:
            raise ValueError(f"path {p}: its noise spec must equal the run's up to the seed")
        if path.steps != steps or abs(path.dt - dt) > 1e-12 * dt:
            raise ValueError(f"path {p}: its partition is not the run's {steps} steps of dt={dt}")


def sample_path(spec: NoiseSpec, t_inf: float, dt: float) -> NoisePath:
    """Draw the path determined by spec.seed (bitwise reproducible)."""
    steps = partition_index(t_inf, dt, "t_inf")
    rng = np.random.Generator(np.random.Philox(key=spec.seed))
    increments = rng.normal(0.0, math.sqrt(dt), steps)
    return NoisePath(spec, float(t_inf), float(dt), increments)


def coarsen_path(path: NoisePath, factor: int) -> NoisePath:
    """Group-sum refinement inverse: the same Brownian path on a grid
    coarser by an integer factor.

    Sums are always regrouped from the originally seeded fine path, so
    coarsening twice is bit-identical to coarsening once by the product
    of the factors; a coarsened path its seed did not draw is refused.
    """
    factor = int(factor)
    if factor < 1 or path.steps % factor != 0:
        raise ValueError(f"coarsening factor {factor} does not divide {path.steps} steps")
    if factor == 1:
        return path
    if path.coarsen_factor != 1:
        fine = sample_path(path.spec, path.t_inf, path.dt / path.coarsen_factor)
        if coarsen_path(fine, path.coarsen_factor).increments.tobytes() != path.increments.tobytes():
            raise ValueError(f"this path's seed does not draw the fine path it was coarsened from; "
                             f"coarsen the fine path by {path.coarsen_factor * factor} instead")
        return coarsen_path(fine, path.coarsen_factor * factor)
    summed = path.increments.reshape(-1, factor).sum(axis=1)
    return NoisePath(path.spec, path.t_inf, path.dt * factor, summed,
                     coarsen_factor=path.coarsen_factor * factor)


# -- stochastic convolution ----------------------------------------------
#
# z(t)      =  i sum_{t_k <  t} S(t - t_k) phi g(t_k) dB_k
# z_tail(t) = -i sum_{t_k >= t} S(t - t_k) phi g(t_k) dB_k
#
# Both factor through S(t) applied to prefix/suffix sums of
# S(-t_k) phi g(t_k) dB_k, accumulated directly in Fourier space.


def _noise_scan(paths: Sequence[NoisePath], grid: GridSpec, ks: range) -> Iterator[np.ndarray]:
    """Running sums of exp(-i t_k |k|^2) g(t_k) dB_k over the steps ks,
    taken in the order given, for all paths at once.

    Yields the (paths, *grid) accumulator before the first step and after
    each step: one buffer, updated in place, so read it before advancing.
    Each step writes its term into one ``term`` buffer allocated with the
    accumulator. The weights g(t_k) dB_k are built for one block of
    consecutive steps (a grids.batches block of (paths,) float rows) at a
    time, with paths[0]'s g (every path's, as the paths differ only in
    seed) evaluated once per block, never as a (steps, paths) table. A
    step skips only when every path weights it by zero; a zero-weight row
    then adds exact zeros, which leave its sum unchanged.
    """
    dt = paths[0].dt
    acc = np.zeros((len(paths),) + grid.shape, dtype=np.complex128)
    term = np.empty_like(acc)
    yield acc
    for lo, hi in batches(len(ks), 8 * len(paths)):
        block = ks[lo:hi]
        kk = np.arange(block.start, block.stop, block.step)
        g = _g_values(paths[0].spec, dt * kk)
        weights = np.empty((len(kk), len(paths)))
        for j, path in enumerate(paths):
            np.multiply(g, path.increments[kk], out=weights[:, j])
        live = weights.any(axis=1).tolist()
        weights = weights.reshape(weights.shape + (1,) * grid.dim)
        for k, w, on in zip(block, weights, live):
            if on:
                acc += np.multiply(grid.free_phase(-(k * dt)), w, out=term)
            yield acc


def _propagated_sum(path: NoisePath, phi: Field, ks: range, t: float, sign: complex) -> Field:
    """sign * S(t) of phi times the scan of ks: z(t) or z_tail(t)."""
    grid = phi.grid
    for acc in _noise_scan([path], grid, ks):
        pass  # keep the last sum
    vals = sign * grid.ifft(grid.free_phase(t) * (acc[0] * phi.spectrum()))
    return Field(grid, vals)


def stochastic_convolution(path: NoisePath, phi: Field, t: float) -> Field:
    """z(t) at an on-partition time t (left-point Ito sum)."""
    return _propagated_sum(path, phi, range(path.index_of(t)), t, 1j)


def tail_convolution(path: NoisePath, phi: Field, t: float) -> Field:
    """Far-tail z_tail(t): the increments not yet seen at time t."""
    return _propagated_sum(path, phi, range(path.index_of(t), path.steps), t, -1j)


def convolution_series(path: NoisePath, phi: Field) -> list[Field]:
    """z at every partition point of [0, t_inf].

    One running Fourier accumulator; cost is one inverse FFT per output.
    """
    grid = phi.grid
    hat = phi.spectrum()
    scan = _noise_scan([path], grid, range(path.steps))
    next(scan)  # z(0) is the empty sum
    out = [Field.zeros(grid)]
    for m, acc in enumerate(scan, start=1):
        t = m * path.dt
        out.append(Field(grid, 1j * grid.ifft(grid.free_phase(t) * (acc[0] * hat))))
    return out


def _tail_sups(paths: Sequence[NoisePath], phi: Field, p_space: float,
               idx: Sequence[int] | None = None) -> np.ndarray:
    """tail_sup_norms of every path at the partition indices idx (default
    all), one row each; the paths share a partition.

    The scan runs backwards from t_inf and stops at the lowest index in
    idx: the running sup at index m reads only the steps at or after m.
    It updates one running sup per path each step and keeps a copy of it
    at the indices in idx only. For p = 2 it runs the sup over the
    Parseval sums, built in buffers allocated once per scan, and takes
    the roots of the kept ones: the root is monotone, so it commutes with
    the max. Other p take the W^{1,p} norms of all rows in one batch.
    """
    grid = phi.grid
    hat = phi.spectrum()
    dt, steps = paths[0].dt, paths[0].steps
    weight = 1.0 + grid.k_squared()
    want = range(steps + 1) if idx is None else [int(m) for m in idx]
    low = min(want)
    kept = dict.fromkeys(want)  # partition index -> the running sup there
    sup = np.full(len(paths), -np.inf)
    scan = _noise_scan(paths, grid, range(steps - 1, low - 1, -1))
    z_hat = np.empty((len(paths),) + grid.shape, dtype=np.complex128)
    power, im2 = np.empty(z_hat.shape), np.empty(z_hat.shape)
    for acc, m in zip(scan, range(steps, low - 1, -1)):
        np.multiply(acc, hat, out=z_hat)
        if p_space == 2.0:
            np.square(z_hat.real, out=power)
            power += np.square(z_hat.imag, out=im2)
            power *= weight
            value = row_sums(power)
        else:
            vals = -1j * grid.ifft(grid.free_phase(m * dt) * z_hat)
            value = sobolev_row_norms(grid, vals, p_space)
        np.maximum(sup, value, out=sup)
        if m in kept:
            kept[m] = sup.copy()
    sups = np.array([kept[m] for m in want])
    if p_space == 2.0:
        np.sqrt(np.multiply(sups, grid.cell_volume / grid.num_cells, out=sups), out=sups)
    return sups.T


def tail_sup_norms(path: NoisePath, phi: Field, p_space: float = 2.0) -> np.ndarray:
    """sup_{s >= t, s on the partition} of the W^{1,p} norm of the tail,
    for every partition point t.

    For p = 2 the norm is read off the Fourier accumulator (the free
    propagator is unimodular); other p evaluate the tail field per point.
    """
    return _tail_sups([path], phi, p_space)[0]


def check_fit_window(t_inf: float, window: tuple[float, float] | None = None) -> tuple[float, float]:
    """The tail fit window: [t_inf/8, t_inf/2] by default; a given
    window must sit inside it, where truncating the upper limit of the
    tail is still negligible for decaying envelopes."""
    lo, hi = window if window is not None else (t_inf / 8.0, t_inf / 2.0)
    if not (t_inf / 8.0 - 1e-12 <= lo < hi <= t_inf / 2.0 + 1e-12):
        raise ValueError(f"fit window [{lo}, {hi}] must sit inside [{t_inf / 8}, {t_inf / 2}]")
    return lo, hi


@dataclass(frozen=True)
class TailFitResult:
    """Per-path log-log decay slopes of the tail sup-norm, with summary."""

    t_grid: np.ndarray
    slopes: np.ndarray
    median: float
    iqr: tuple[float, float]
    truncation_bound: float


def tail_decay_fit(
    paths: Sequence[NoisePath],
    phi: Field,
    fit_window: tuple[float, float] | None = None,
    p_space: float = 2.0,
) -> TailFitResult:
    """Least-squares decay exponent of sup_{s>=t} ||tail(s)||_{W^{1,p}}.

    The fit runs over a geometric grid (ratio sqrt(2)) spanning the fit
    window (see ``check_fit_window``), against log<t>. Returns per-path
    slopes plus the ensemble median and interquartile range, and the
    closed-form bound on the truncated envelope energy.
    """
    if not paths:
        raise ValueError("need at least one path")
    spec = paths[0].spec
    if spec.g_kind == "zero":
        raise ValueError("zero envelope has no decay exponent to fit")
    t_inf, dt = paths[0].t_inf, paths[0].dt
    check_paths(paths, spec, paths[0].steps, dt)
    lo, hi = check_fit_window(t_inf, fit_window)
    # geometric grid with ratio sqrt(2) anchored at the window ends
    n_pts = max(2, int(round(math.log(hi / lo) / math.log(math.sqrt(2.0)))) + 1)
    t_grid = lo * (hi / lo) ** (np.arange(n_pts) / (n_pts - 1))
    log_t = np.log(np.sqrt(1.0 + t_grid**2))
    idx = np.rint(t_grid / dt).astype(int)
    slopes = np.empty(len(paths))
    # one scan per chunk of at most grids.BATCH_FIELD_BYTES of accumulator rows
    for start, stop in batches(len(paths), 16 * phi.grid.num_cells):
        vals = _tail_sups(paths[start:stop], phi, p_space, idx)
        if np.any(vals <= 0.0):
            raise ValueError("tail sup-norm vanished inside the fit window")
        for i, row in enumerate(vals, start):
            slopes[i] = np.polyfit(log_t, np.log(row), 1)[0]
    q25, q75 = np.percentile(slopes, [25.0, 75.0])
    bound = lp_norm(phi, 2.0) ** 2 * g_sq_tail_bound(spec, t_inf)
    return TailFitResult(
        t_grid=t_grid,
        slopes=slopes,
        median=float(np.median(slopes)),
        iqr=(float(q25), float(q75)),
        truncation_bound=float(bound),
    )
