"""Time integrator: exactness, order, conservation, reproducibility."""
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from snlslab import dynamics, grids
from snlslab.analysis import GROWTH_SERIES
from snlslab.config import KINDS
from snlslab.dynamics import (
    _TINY_PHASE,
    RecordPlan,
    SimConfig,
    _phase_rotation,
    _StepBuffers,
    _strang_step,
    evolve,
    evolve_batch,
    step_deterministic,
)
from snlslab.grids import Field, GridSpec
from snlslab.noise import NoiseSpec, coarsen_path, convolution_series, make_phi, sample_path
from snlslab.norms import lp_norm
from snlslab.operators import modulate, pseudo_conformal_forward


def gaussian(grid, amp=1.0):
    return Field.from_function(grid, lambda *xs: amp * np.exp(-sum(x**2 for x in xs) / 2))


# -- configuration validation ------------------------------------------------


def test_sim_config_validation():
    grid = GridSpec(1, 64, 20.0)
    with pytest.raises(ValueError):
        SimConfig(grid, sigma=-1.0, dt=1e-2, t_end=1.0)
    with pytest.raises(ValueError):
        SimConfig(grid, sigma=1.0, dt=0.0, t_end=1.0)
    with pytest.raises(ValueError):
        SimConfig(grid, sigma=1.0, dt=1e-2, t_end=1.005)  # not a multiple
    with pytest.raises(ValueError):
        SimConfig(grid, sigma=1.0, dt=1e-2, t_end=1.0, equation="parabolic")
    with pytest.raises(ValueError):
        SimConfig(grid, sigma=1.0, dt=1e-2, t_end=1.0, equation="snls")  # no noise


def test_transformed_horizon_guard():
    grid = GridSpec(1, 64, 20.0)
    # sigma*dim = 1 < 2: the t=1 blow-up is live, refuse horizons near it
    with pytest.raises(ValueError, match="blow-up"):
        SimConfig(grid, sigma=1.0, dt=1e-2, t_end=0.99, equation="transformed")
    with pytest.raises(ValueError, match="out of range"):
        SimConfig(grid, sigma=2.0, dt=1e-2, t_end=1.0, equation="transformed")
    cfg = SimConfig(grid, sigma=1.0, dt=1e-2, t_end=0.5, equation="transformed")
    assert cfg.steps == 50


# -- exact solutions ----------------------------------------------------------


@pytest.mark.parametrize("sigma,mode,amp", [(1.0, 4, 0.8), (2.0, 2, 1.1)])
def test_plane_wave_is_exact_for_splitting(sigma, mode, amp):
    """A e^{ikx} picks up exactly the phase e^{i(k^2 + |A|^{2 sigma}) t}."""
    grid = GridSpec(1, 64, 16.0)
    k0 = 2.0 * math.pi * mode / 16.0
    u = Field.from_function(grid, lambda x: amp * np.exp(1j * k0 * x))
    dt, steps = 1e-2, 100
    v = u
    for _ in range(steps):
        v = step_deterministic(v, dt, sigma)
    phase = (k0**2 + amp ** (2 * sigma)) * dt * steps
    exact = Field(grid, u.values * np.exp(1j * phase))
    assert lp_norm(v - exact, 2.0) / lp_norm(u, 2.0) < 1e-12


def test_zero_field_stays_zero():
    grid = GridSpec(1, 64, 20.0)
    cfg = SimConfig(grid, sigma=1.0, dt=1e-2, t_end=0.5)
    traj = evolve(cfg, Field.zeros(grid))
    assert lp_norm(traj.final, 2.0) == 0.0


# -- the phase rotation's numerics --------------------------------------------

ROTATION_CHANGED = (
    "on this platform cos θ + i sin θ is not byte-identical to np.exp(1j * θ), so the "
    "cos/sin phase rotation is a declared numerics change here: the pinned digests will "
    "differ too, and they are re-recorded only as such a declared change, never quietly"
)


#: |θ| at the libm bound 2^-27 and one ulp on each side of it
_TINY_STRADDLE = [np.nextafter(_TINY_PHASE, 0.0), _TINY_PHASE, np.nextafter(_TINY_PHASE, 1.0)]


def _rotation_as_exp(vals, sigma, tau, shift):
    """The nonlinear substep in its complex-exp form, e^{iτ|w|^{2σ}} w − shift."""
    w = vals if shift is None else vals + shift
    rho = w.real**2 + w.imag**2
    amp = rho if sigma == 1.0 else rho**sigma
    out = np.exp(1j * tau * amp) * w
    if shift is not None:
        out -= shift
    return out


def _rotate(vals, sigma, tau, shift, rho_sig=None):
    """_phase_rotation on its own, through a fresh plan into a fresh out."""
    return _phase_rotation(_StepBuffers(vals.shape, sigma), vals, tau, shift,
                           np.empty(vals.shape, dtype=complex), rho_sig=rho_sig)


def _assert_rotation_bytes(vals, sigma, tau, shift):
    mine = _rotate(vals, sigma, tau, shift)
    bad = mine.view(np.uint64) != _rotation_as_exp(vals, sigma, tau, shift).view(np.uint64)
    assert not bad.any(), (f"{ROTATION_CHANGED} (sigma={sigma}, tau={tau!r}, "
                           f"first differing entries {np.argwhere(bad)[:3].tolist()})")


@pytest.mark.parametrize("shifted", [False, True])
@pytest.mark.parametrize("sigma", [1.0, 0.75])
def test_phase_rotation_matches_complex_exp(sigma, shifted):
    rng = np.random.default_rng(2024)
    n = 256
    shift = rng.normal(size=n) + 1j * rng.normal(size=n) if shifted else None
    # a (paths, N) batch whose θ = τ|w|^{2σ} lands on the sweep up to the
    # rounding of |w|^{2σ}: +0, subnormals, the libm bound 2^-27 and its
    # neighbours, kπ/2, 1e6 and a log-uniform sample
    theta = np.concatenate([
        [0.0, 5e-324, 1e-310, 1e6] + _TINY_STRADDLE,
        np.arange(401) * (np.pi / 2),
        np.exp(rng.uniform(math.log(1e-8), math.log(3e6), 64 * n)),
    ])
    theta = np.concatenate([theta, np.zeros(-theta.size % n)])
    for tau in (0.005, 1.0):
        w = (theta / tau) ** (0.5 / sigma) * np.exp(2j * np.pi * rng.random(theta.size))
        w = w.reshape(-1, n)
        _assert_rotation_bytes(w if shift is None else w - shift, sigma, tau, shift)
    # τ itself on the sweep, ±2^-27 and its neighbours and kπ/2 for
    # 0 < |k| <= 400, with |w|² = 1 exactly (so θ = τ exactly when there is
    # no shift)
    unit = np.resize(np.array([1.0, 1j, -1.0, -1j]), (2, n))
    straddle = [sign * t for t in _TINY_STRADDLE for sign in (1.0, -1.0)]
    for tau in [5e-324, 1e-310, 1e6] + straddle + [k * np.pi / 2 for k in range(-400, 401) if k]:
        _assert_rotation_bytes(unit if shift is None else unit - shift, sigma, tau, shift)


def _rotation_with_libm(vals, sigma, tau, shift, rho_sig=None):
    """The nonlinear substep with cos and sin of every θ, as the rotation
    computed it before angles below _TINY_PHASE skipped libm."""
    w = vals if shift is None else vals + shift
    if rho_sig is None:
        rho = w.real**2 + w.imag**2
        rho_sig = rho if sigma == 1.0 else rho**sigma
    theta = rho_sig * tau
    out = np.empty(w.shape, dtype=complex)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    out *= w
    if shift is not None:
        out -= shift
    return out


def _tiny_angle_rows(rng, n):
    """|θ| rows around the libm bound: one all live, one with none live, one
    with isolated live points, one with long live runs, the bound's
    neighbourhood with ±0 and subnormals, and log-uniform [2^-40, 2^-20]."""
    live = np.exp(rng.uniform(math.log(2.0**-26), math.log(4.0), n))
    dead = np.exp(rng.uniform(math.log(1e-300), math.log(2.0**-27), n))
    isolated = dead.copy()
    isolated[::17] = live[::17]
    runs = dead.copy()
    for start in range(0, n, 96):
        runs[start:start + 48] = live[start:start + 48]
    edges = np.resize(np.array(
        _TINY_STRADDLE + [0.0, -0.0, 5e-324, 1e-310, np.nextafter(2.0**-1022, 0.0), 2.0**-1022]), n)
    sample = np.exp(rng.uniform(math.log(2.0**-40), math.log(2.0**-20), 8 * n)).reshape(8, n)
    return np.vstack([live, dead, isolated, runs, edges, sample])


def _assert_same_bytes(got, want, what):
    bad = got.view(np.uint64) != want.view(np.uint64)
    assert not bad.any(), f"{what}: first differing entries {np.argwhere(bad)[:3].tolist()}"


@pytest.mark.parametrize("shifted", [False, True])
@pytest.mark.parametrize("sigma", [1.0, 0.75, 1.5])
def test_phase_rotation_skips_libm_without_changing_bytes(sigma, shifted):
    rng = np.random.default_rng(27)
    n = 192
    mags = _tiny_angle_rows(rng, n)
    shift = 0.3 * (rng.normal(size=n) + 1j * rng.normal(size=n)) if shifted else None
    phase = np.exp(2j * np.pi * rng.random(mags.shape))
    for tau in (0.5, 1.0, -1.0, -0.5):
        # θ = τ·rho_sig exactly: |w|^{2σ} handed in as the caller's rho_sig
        vals = rng.normal(size=mags.shape) + 1j * rng.normal(size=mags.shape)
        rho_sig = mags / abs(tau)
        got = _rotate(vals, sigma, tau, shift, rho_sig)
        want = _rotation_with_libm(vals, sigma, tau, shift, rho_sig)
        _assert_same_bytes(got, want, f"given |w|^(2σ), tau={tau}")
        # θ formed from w = vals + shift, landing on the rows up to rounding
        w = (mags / abs(tau)) ** (0.5 / sigma) * phase
        vals = w if shift is None else w - shift
        got = _rotate(vals, sigma, tau, shift)
        want = _rotation_with_libm(vals, sigma, tau, shift)
        _assert_same_bytes(got, want, f"sigma={sigma}, tau={tau}")


@pytest.mark.parametrize("tau", [0.5, -0.5])
@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_phase_rotation_keeps_non_finite_angles_non_finite(bad, tau):
    rng = np.random.default_rng(3)
    n = 64
    vals = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
    rho_sig = _tiny_angle_rows(rng, n)[[0, 1]]
    rho_sig[1, [0, 9, 40]] = bad  # a row with no live angle but these
    with warnings.catch_warnings(record=True) as before:
        warnings.simplefilter("always")
        want = _rotation_with_libm(vals, 1.0, tau, None, rho_sig)
    with warnings.catch_warnings(record=True) as after:
        warnings.simplefilter("always")
        got = _rotate(vals, 1.0, tau, None, rho_sig)
    finite = np.isfinite(want)
    assert np.array_equal(np.isfinite(got), finite)
    assert not finite[1, [0, 9, 40]].any()
    _assert_same_bytes(got[finite], want[finite], f"finite entries, bad={bad}")
    assert {(w.category, str(w.message)) for w in after} <= \
        {(w.category, str(w.message)) for w in before}


@pytest.mark.parametrize("sigma", [0.25, 0.5, 0.75, 1.5, 2.0, 3.0])
def test_pow_sigma_matches_copy_then_inplace_power(sigma):
    """The kernel's np.power(rho, sigma, out=...) gives the bytes of the
    copyto + **= it replaced, numpy's fast powers (0.5, 2) included."""
    rng = np.random.default_rng(21)
    edges = [0.0, 5e-324, 1e-310, np.nextafter(2.0**-1022, 0.0), 2.0**-1022, 1e-300, 1.0,
             1e300, np.finfo(float).max, math.inf, math.nan]
    rho = np.vstack([np.resize(edges, 256), 10.0 ** rng.uniform(-300, 300, (3, 256))])
    want = np.empty_like(rho)
    with np.errstate(over="ignore"):
        np.copyto(want, rho)
        want **= sigma
        got = np.power(rho, sigma, out=np.empty_like(rho))
    _assert_same_bytes(got, want, f"sigma={sigma}")


def test_libm_is_exact_below_tiny_phase():
    """Skipping libm below _TINY_PHASE keeps the bytes only while this
    platform's cos and sin return 1 and θ exactly there."""
    rng = np.random.default_rng(7)
    mags = np.concatenate([
        [0.0, 5e-324, 1e-310, np.nextafter(2.0**-1022, 0.0), 2.0**-1022,
         np.nextafter(_TINY_PHASE, 0.0)],
        np.exp(rng.uniform(math.log(5e-324), math.log(_TINY_PHASE), 1 << 16)),
        np.linspace(0.5 * _TINY_PHASE, _TINY_PHASE, 1 << 14, endpoint=False),
    ])
    theta = np.concatenate([mags, -mags])
    assert np.abs(theta).max() < _TINY_PHASE
    # as the rotation called them before the skip: into a complex array's parts
    out = np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    for name, got, want in (("cos θ = 1", out.real, np.ones_like(theta)),
                            ("sin θ = θ", out.imag, theta)):
        bad = got.view(np.uint64) != want.view(np.uint64)
        assert not bad.any(), (
            f"{name} fails on this platform for |θ| < _TINY_PHASE = 2^-27 "
            f"(first at θ = {theta[np.argmax(bad)]!r}); lower dynamics._TINY_PHASE "
            f"below the first such angle, or the run outputs differ from the pinned digests")


# -- the buffered step against the allocating step it replaced --------------


def _allocating_step(vals, sigma, grid, lin, tau_left, tau_right, s_left, s_right):
    """One Strang step written with fresh arrays: numpy's fftn/ifftn and
    e^{iθ}w, in the operand order of the step's own products."""
    axes = tuple(range(-grid.dim, 0))
    spec = np.fft.fftn(_rotation_as_exp(vals, sigma, tau_left, s_left), axes=axes)
    spec *= lin
    return _rotation_as_exp(np.fft.ifftn(spec, axes=axes), sigma, tau_right, s_right)


@pytest.mark.parametrize("shifted", [False, True])
@pytest.mark.parametrize("sigma", [1.0, 0.75])
@pytest.mark.parametrize("dim,points", [(1, 64), (2, 32), (3, 16)])
def test_buffered_step_matches_allocating_step(dim, points, sigma, shifted):
    grid = GridSpec(dim, points, 12.0)
    dt = 0.01
    lin = np.exp(1j * dt * grid.k_squared())
    rng = np.random.default_rng(dim)
    shape = (2,) + grid.shape

    def draw(scale):
        return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    # the plain half steps and the transformed frame's midpoint weights at t = 0.3
    power = sigma * dim - 2.0
    tau_pairs = [(0.5 * dt, 0.5 * dt),
                 (0.5 * dt * (1.0 - (0.3 + 0.25 * dt)) ** power,
                  0.5 * dt * (1.0 - (0.3 + 0.75 * dt)) ** power)]
    buf = _StepBuffers(shape, sigma, grid, lin)  # shared by every step below, as a run shares it
    vals = draw(2.0)
    for tau_left, tau_right in tau_pairs:
        # the left half phase forms |w|² itself, reads a recorder's |w|², or
        # reads the |w|^{2σ} a full snls record holds for its Ito sums
        for given in (None, "rho", "rho_sig"):
            s_left, s_right = (draw(0.5), draw(0.5)) if shifted else (None, None)
            rho = rho_sig = None
            if given and not shifted:
                rho = vals.real**2 + vals.imag**2
                rho_sig = rho**sigma if given == "rho_sig" else None
            want = _allocating_step(vals, sigma, grid, lin, tau_left, tau_right, s_left, s_right)
            out = np.empty(shape, dtype=complex)
            got = _strang_step(buf, vals, tau_left, tau_right, s_left, s_right, out,
                               rho, rho_sig)
            assert got is out
            assert got.view(np.uint64).tobytes() == want.view(np.uint64).tobytes()
            # in place: out is vals, as when a recorder chunk holds one step
            same = vals.copy()
            _strang_step(buf, same, tau_left, tau_right, s_left, s_right, same, rho, rho_sig)
            assert same.tobytes() == want.tobytes()
            vals = want


#: a whole run's kinds: the equation and, for snls, the record
RUN_KINDS = ("deterministic", "snls_light", "snls_full", "random_shifted", "transformed")


def _oracle_config(kind, dim, sigma):
    grid = GridSpec(dim, {1: 32, 2: 16, 3: 8}[dim], 16.0)
    equation = "snls" if kind.startswith("snls") else kind
    noise = (NoiseSpec(phi_amplitude=0.5, g_kind="power_law", g_alpha=1.0, seed=5)
             if equation == "snls" else None)
    return SimConfig(grid, sigma, 0.01, 0.1, equation, noise=noise, snapshot_stride=3,
                     record="light" if kind == "snls_light" else "full")


def _oracle_inputs(config, size):
    """size initial rows, and the noise paths (snls) or shift series
    (shifted and transformed equations) of each row."""
    grid, steps = config.grid, config.steps
    u0 = [Field.from_function(grid, lambda *xs, r=r: (1.5 + 0.1 * r) * (1.0 + 0.2j * xs[0])
                              * np.exp(-sum(x * x for x in xs))) for r in range(size)]
    paths = shifts = None
    if config.equation == "snls":
        paths = [sample_path(replace(config.noise, seed=config.noise.seed + r), config.t_end,
                             config.dt) for r in range(size)]
    elif config.equation != "deterministic":
        shifts = [[Field.from_function(grid, lambda *xs, k=k, r=r: (0.3 + 0.1 * r) * (k + 1)
                                       / (steps + 1) * np.exp(-sum(x * x for x in xs) + 0.7j * k))
                   for k in range(steps + 1)] for r in range(size)]
    return u0, paths, shifts


def _allocating_run(config, u0, paths, shifts):
    """Every partition point's field, stepped point by point by
    _allocating_step with the noise kick i·S(dt)[φ]·g(t_k)·ΔB_k added
    after each step: the loop of _integrate written with fresh arrays."""
    grid, sigma, dt, steps = config.grid, config.sigma, config.dt, config.steps
    lin = np.exp(1j * dt * grid.k_squared())
    taus = [(0.5 * dt, 0.5 * dt)] * steps
    if config.equation == "transformed":
        t, power = np.arange(steps) * dt, sigma * grid.dim - 2.0
        taus = list(zip(0.5 * dt * (1.0 - (t + 0.25 * dt)) ** power,
                        0.5 * dt * (1.0 - (t + 0.75 * dt)) ** power))
    if paths is not None:
        phi = make_phi(paths[0].spec, grid).values
        prop_phi = np.fft.ifftn(lin * np.fft.fftn(phi))
        kicks = 1j * (paths[0].g_at_left() * np.stack([p.increments for p in paths]))
    vals = np.stack([f.values for f in u0])
    fields = [vals]
    for k, (tau_left, tau_right) in enumerate(taus):
        s_left = s_right = None
        if shifts is not None:
            s_left, s_right = (np.stack([series[j].values for series in shifts])
                               for j in (k, k + 1))
        vals = _allocating_step(vals, sigma, grid, lin, tau_left, tau_right, s_left, s_right)
        if paths is not None:
            vals = vals + kicks[:, k].reshape((-1,) + (1,) * grid.dim) * prop_phi
        fields.append(vals)
    return fields


@pytest.mark.parametrize("chunk", [1, 3, None])
@pytest.mark.parametrize("size", [1, 3])
@pytest.mark.parametrize("sigma", [0.75, 1.0, 1.5])
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("kind", RUN_KINDS)
def test_whole_run_matches_allocating_steps(kind, dim, sigma, size, chunk, monkeypatch):
    """A whole run of the step loop, with its step plan, recorder slots and
    noise kick, keeps every snapshot point's field and the final field of
    every row byte for byte equal to _allocating_step applied point by
    point, at one, three and the default steps per chunk."""
    config = _oracle_config(kind, dim, sigma)
    u0, paths, shifts = _oracle_inputs(config, size)
    if chunk is not None:
        monkeypatch.setattr(grids, "BATCH_FIELD_BYTES", chunk * size * config.grid.num_cells * 16)
    run = dynamics._integrate(config, *dynamics._batch_inputs(config, u0, paths, shifts),
                              RecordPlan(snapshots=True))
    want = _allocating_run(config, u0, paths, shifts)
    assert run.final.tobytes() == want[-1].tobytes()
    for i, k in enumerate(config.snapshot_steps()):
        assert run.snapshots[:, i].tobytes() == want[k].tobytes(), f"snapshot at step {k}"


@pytest.mark.parametrize("dim", [1, 2])
def test_whole_run_without_the_private_kernels_keeps_the_bytes(dim, monkeypatch):
    """A run resolves its transform pair once, when it starts: with
    np.fft._pocketfft_umath patched away the pair falls back to np.fft's
    public fft and ifft, which every step then calls, and the run keeps
    every byte of its series, budgets, snapshots and final field."""
    config = _oracle_config("snls_full", dim, 0.75)
    u0, paths, _ = _oracle_inputs(config, 1)
    want = evolve(config, u0[0], path=paths[0])
    calls = {"fft": 0, "ifft": 0}
    for name in calls:
        public = getattr(np.fft, name)

        def counted(*args, _public=public, _name=name, **kwargs):
            calls[_name] += 1
            return _public(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    monkeypatch.delattr(np.fft, "_pocketfft_umath")
    got = evolve(config, u0[0], path=paths[0])
    assert min(calls.values()) >= config.steps * dim  # one call per axis and step at least
    for group in ("series", "budget", "monitors"):
        mine, theirs = getattr(got, group), getattr(want, group)
        assert list(mine) == list(theirs)
        for key in theirs:
            assert mine[key].tobytes() == theirs[key].tobytes(), (group, key)
    assert got.snapshots.tobytes() == want.snapshots.tobytes()
    assert got.final.values.tobytes() == want.final.values.tobytes()


# -- conservation and convergence ---------------------------------------------


def test_deterministic_mass_conservation_to_machine_precision():
    grid = GridSpec(1, 128, 24.0)
    cfg = SimConfig(grid, sigma=1.0, dt=1e-2, t_end=2.0)
    traj = evolve(cfg, gaussian(grid))
    m = traj.series["mass"]
    assert abs(m[-1] - m[0]) / m[0] < 1e-12
    assert np.max(np.abs(m - m[0])) / m[0] < 1e-12


def test_strang_splitting_is_second_order():
    grid = GridSpec(1, 128, 24.0)
    u0 = gaussian(grid)
    ref = evolve(SimConfig(grid, sigma=1.0, dt=1e-4, t_end=0.5), u0).final
    errs = []
    for dt in (4e-3, 2e-3, 1e-3):
        v = evolve(SimConfig(grid, sigma=1.0, dt=dt, t_end=0.5), u0).final
        errs.append(lp_norm(v - ref, 2.0))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    for order in orders:
        assert 1.8 < order < 2.2


# -- trajectories -------------------------------------------------------------


def test_snapshot_times_follow_stride():
    grid = GridSpec(1, 64, 20.0)
    cfg = SimConfig(grid, sigma=1.0, dt=1e-2, t_end=0.25, snapshot_stride=5)
    traj = evolve(cfg, gaussian(grid))
    np.testing.assert_allclose(traj.monitors["times"], [0.0, 0.05, 0.10, 0.15, 0.20, 0.25])
    assert traj.snapshots.shape == (6,) + grid.shape
    assert traj.snapshot_at(0.10).grid == grid
    assert traj.snapshot_at(0.10).values.tobytes() == traj.snapshots[2].tobytes()
    with pytest.raises(KeyError):
        traj.snapshot_at(0.07)


def test_snapshot_at_on_a_run_without_fields_names_the_plan_that_keeps_them():
    grid = GridSpec(1, 64, 20.0)
    cfg = SimConfig(grid, sigma=1.0, dt=1e-2, t_end=0.1, snapshot_stride=5)
    traj = evolve_batch(cfg, gaussian(grid)).trajectory(0)
    assert traj.snapshots is None
    with pytest.raises(KeyError, match=r"kept no snapshot fields \(a RecordPlan with "
                                       r"snapshots=True keeps them, as evolve's does\)"):
        traj.snapshot_at(0.0)


def test_light_record_drops_functional_series():
    grid = GridSpec(1, 64, 20.0)
    cfg = SimConfig(grid, sigma=1.0, dt=1e-2, t_end=0.2, record="light")
    traj = evolve(cfg, gaussian(grid))
    assert "mass" in traj.series
    assert "pc_energy" not in traj.series


def test_noisy_run_is_bitwise_reproducible():
    grid = GridSpec(1, 64, 20.0)
    noise = NoiseSpec(seed=33, phi_amplitude=0.5)
    cfg = SimConfig(grid, sigma=1.0, dt=1e-2, t_end=0.3, equation="snls", noise=noise)
    u0 = gaussian(grid)
    a = evolve(cfg, u0)
    b = evolve(cfg, u0)
    assert np.array_equal(a.final.values, b.final.values)
    assert np.array_equal(a.series["mass"], b.series["mass"])


def test_injected_path_matches_sampled_path():
    grid = GridSpec(1, 64, 20.0)
    noise = NoiseSpec(seed=14, phi_amplitude=0.4)
    cfg = SimConfig(grid, sigma=1.0, dt=1e-2, t_end=0.3, equation="snls", noise=noise)
    u0 = gaussian(grid)
    implicit = evolve(cfg, u0)
    explicit = evolve(cfg, u0, path=sample_path(noise, 0.3, 1e-2))
    assert np.array_equal(implicit.final.values, explicit.final.values)


def test_noise_changes_the_solution():
    grid = GridSpec(1, 64, 20.0)
    u0 = gaussian(grid)
    quiet = evolve(SimConfig(grid, sigma=1.0, dt=1e-2, t_end=0.3), u0)
    noisy = evolve(
        SimConfig(grid, sigma=1.0, dt=1e-2, t_end=0.3, equation="snls",
                  noise=NoiseSpec(seed=1)),
        u0,
    )
    assert lp_norm(noisy.final - quiet.final, 2.0) > 1e-3


def test_zero_shift_reduces_to_deterministic():
    grid = GridSpec(1, 64, 20.0)
    u0 = gaussian(grid)
    det = evolve(SimConfig(grid, sigma=1.0, dt=1e-2, t_end=0.3), u0)
    cfg = SimConfig(grid, sigma=1.0, dt=1e-2, t_end=0.3, equation="random_shifted")
    shifted = evolve(cfg, u0, shift=None)
    assert lp_norm(shifted.final - det.final, 2.0) < 1e-13
    zeros = [Field.zeros(grid) for _ in range(cfg.steps + 1)]
    shifted2 = evolve(cfg, u0, shift=zeros)
    assert lp_norm(shifted2.final - det.final, 2.0) < 1e-13


def test_shift_length_validation():
    grid = GridSpec(1, 64, 20.0)
    cfg = SimConfig(grid, sigma=1.0, dt=1e-2, t_end=0.3, equation="random_shifted")
    with pytest.raises(ValueError):
        evolve(cfg, gaussian(grid), shift=[Field.zeros(grid)] * 3)


#: gap/dt of u against v + z at dt = 1/1024, by (seed, sigma)
SHIFTED_GAP_CONSTANT = {(5, 1.0): 0.2276, (6, 1.0): 0.1627, (5, 0.75): 0.2254, (6, 0.75): 0.1650}


@pytest.mark.parametrize("sigma", [1.0, 0.75])
@pytest.mark.parametrize("seed", [5, 6])
def test_shifted_run_plus_convolution_converges_to_snls(seed, sigma):
    """u = v + z: the shifted equation driven by z, plus z(T), tracks the
    snls run on the same Brownian path, with a gap first order in dt
    (the kick and the right half phase act in opposite orders).

    The ratio alone passes a shift frozen at one substep end for both
    half phases, so the gap's leading constant is pinned to 1% too: that
    mutant moves it by at least 3% (t_k) or doubles it (t_{k+1}). Swapping
    the two ends moves it by 0.2% at most; the pinned random_shifted
    digests in test_batch_kernel.py catch that one."""
    grid = GridSpec(1, 256, 32.0)
    u0 = gaussian(grid)
    spec = NoiseSpec(phi_amplitude=0.5, g_kind="power_law", g_alpha=1.0, seed=seed)
    phi = make_phi(spec, grid)
    fine = sample_path(spec, 1.0, 1.0 / 1024)
    gaps = []
    for factor in (8, 4, 2, 1):
        path = coarsen_path(fine, factor)
        u = evolve(SimConfig(grid, sigma, path.dt, 1.0, "snls", spec, record="light"),
                   u0, path=path).final
        z = convolution_series(path, phi)
        v = evolve(SimConfig(grid, sigma, path.dt, 1.0, "random_shifted", record="light"),
                   u0, shift=z).final
        gaps.append(lp_norm(u - (v + z[-1]), 2.0))
    ratios = [a / b for a, b in zip(gaps, gaps[1:])]
    assert all(1.9 <= r <= 2.1 for r in ratios), (gaps, ratios)
    assert gaps[-1] * 1024 == pytest.approx(SHIFTED_GAP_CONSTANT[seed, sigma], rel=0.01)


@pytest.mark.parametrize("sigma", [2.0, 1.0])  # sigma*n = 2 and a live coefficient
def test_transformed_run_is_the_lens_image_of_the_physical_run(sigma):
    """The lens commuting diagram: the physical run to s = 3 on the box
    (1+s)·32, pushed forward by pseudo_conformal_forward, lands on the
    transformed run's grid at t = s/(1+s), and the gap between the two
    shrinks at Strang's second order. Sampling the coefficient at t_k
    for both halves drops the order to one; a flipped exponent leaves a
    gap that does not shrink. A box of 24 instead of 32 stalls the gap
    at ~2e-5."""
    physical, frame = GridSpec(1, 1024, 128.0), GridSpec(1, 1024, 32.0)
    gaps = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        u = evolve(SimConfig(physical, sigma, dt, 3.0, record="light"), gaussian(physical)).final
        image, t = pseudo_conformal_forward(u, 3.0)
        assert image.grid == frame and t == 0.75
        v = evolve(SimConfig(frame, sigma, dt / 16, t, "transformed", record="light"),
                   modulate(gaussian(frame), 1.0)).final
        gaps.append(lp_norm(image - v, 2.0) / lp_norm(image, 2.0))
    ratios = [a / b for a, b in zip(gaps, gaps[1:])]
    assert all(3.7 <= r <= 4.3 for r in ratios), (gaps, ratios)


def test_equation_argument_mismatches_are_rejected():
    grid = GridSpec(1, 64, 20.0)
    det = SimConfig(grid, sigma=1.0, dt=1e-2, t_end=0.1)
    with pytest.raises(ValueError):
        evolve(det, gaussian(grid), path=sample_path(NoiseSpec(seed=0), 0.1, 1e-2))


def test_transformed_run_conserves_mass():
    grid = GridSpec(1, 128, 24.0)
    cfg = SimConfig(grid, sigma=1.0, dt=1e-3, t_end=0.5, equation="transformed")
    traj = evolve(cfg, gaussian(grid))
    m = traj.series["mass"]
    assert abs(m[-1] - m[0]) / m[0] < 1e-12


@pytest.mark.parametrize("dim, sigma", [(1, 2.0), (2, 1.0)])
def test_transformed_run_at_sigma_n_2_is_the_deterministic_run(dim, sigma):
    """At σn = 2 the coefficient (1−t)^0 is exactly 1, so the transformed
    run's half-step weights are the plain 0.5·dt and its final field is
    the deterministic run's, byte for byte."""
    grid = GridSpec(dim, 64, 24.0)
    u0 = gaussian(grid, amp=1.5)
    det = evolve(SimConfig(grid, sigma, 1e-2, 0.5, record="light"), u0)
    lens = evolve(SimConfig(grid, sigma, 1e-2, 0.5, "transformed", record="light"), u0)
    assert lens.final.values.tobytes() == det.final.values.tobytes()


def _run_peak_bytes(config, u0, paths, plan):
    """tracemalloc peak of one evolve_batch run under plan, its noise
    paths sampled inside it."""
    tracemalloc.start()
    try:
        noise = None if config.noise is None else [
            sample_path(NoiseSpec(seed=s, phi_amplitude=0.2), config.t_end, config.dt)
            for s in range(paths)]
        evolve_batch(config, [u0] * paths, noise, plan=plan)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _peak_configs(record, equation):
    grid = GridSpec(1, 32, 24.0)
    noise = NoiseSpec(seed=0, phi_amplitude=0.2) if equation == "snls" else None
    return [SimConfig(grid, 0.75, 1e-2, t_end, equation, noise=noise, record=record,
                      snapshot_stride=7) for t_end in (2.5, 5.0)]


def _peaks_in_this_process(record, equation, paths, plan):
    """The peaks of the runs to the horizons 2.5 and 5, with one step per
    chunk, so the recorder's fixed buffers stay out of the difference.
    An untraced run of each horizon first fills the grid's cached tables
    and numpy's caches of small blocks, which the first runs of a process
    grow (the first traced short run read 111,624 B against 64,904 B once
    settled)."""
    grids.BATCH_FIELD_BYTES = 1  # this process runs nothing else
    configs = _peak_configs(record, equation)
    u0 = gaussian(configs[0].grid, amp=1.2)
    for config in configs:
        _run_peak_bytes(config, u0, paths, plan)
    return [_run_peak_bytes(config, u0, paths, plan) for config in configs]


def _peak_growth_per_point_and_path(record, equation, paths, plan):
    """The tracemalloc peak's growth per added partition point and path
    between the horizons 2.5 and 5, and point_bytes' count for the run.
    The peaks are taken in a fresh interpreter, so what ran before in
    this process cannot move them."""
    here = Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(here.parent / "src"), str(here),
                                         os.environ.get("PYTHONPATH")]))
    code = (f"import test_dynamics as t; print(*t._peaks_in_this_process("
            f"{record!r}, {equation!r}, {paths}, t.{plan!r}))")
    run = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    peaks = [int(word) for word in run.stdout.split()]
    short, long = _peak_configs(record, equation)
    growth = (peaks[1] - peaks[0]) / ((long.steps - short.steps) * paths)
    return growth, long.point_bytes(plan), peaks


@pytest.mark.parametrize("paths, plan", [
    pytest.param(1, RecordPlan(snapshots=True), id="evolve"),
    pytest.param(4, KINDS["simulate"].plan, id="simulate"),
    pytest.param(4, KINDS["ensemble"].plan, id="ensemble"),
    pytest.param(1, KINDS["scatter-test"].plan, id="scatter-test"),
])
@pytest.mark.parametrize("equation", ["deterministic", "snls"])
@pytest.mark.parametrize("record", ["light", "full"])
def test_run_memory_per_point_and_path_stays_within_the_count(record, equation, paths, plan):
    """The peak of a run grows by at most SimConfig.point_bytes(plan) per
    added partition point and path, the count load_config refuses runs
    by: evolve's plan on one path, the simulate and ensemble plans on a
    batch of four, and the scatter-test plan (the mass alone and the
    fields) on one path."""
    growth, count, peaks = _peak_growth_per_point_and_path(record, equation, paths, plan)
    assert 0 < growth <= count, (growth, peaks)


@pytest.mark.parametrize("equation", ["deterministic", "snls"])
def test_growth_series_run_memory_stays_within_its_plans_count(equation):
    """A batch run under the growth-fit plan (no energy budget, only
    GROWTH_SERIES recorded) grows by at most point_bytes of that plan per
    point and path, which counts its two series, not all ten."""
    plan = KINDS["growth-fit"].plan
    assert plan.series == GROWTH_SERIES
    growth, count, peaks = _peak_growth_per_point_and_path("full", equation, 4, plan)
    assert count < _peak_configs("full", equation)[1].point_bytes(KINDS["ensemble"].plan)
    assert 0 < growth <= count, (growth, peaks)


def test_initial_data_touching_boundary_is_refused():
    grid = GridSpec(1, 64, 6.0)
    wide = Field.from_function(grid, lambda x: np.exp(-(x**2) / 8))
    cfg = SimConfig(grid, sigma=1.0, dt=1e-2, t_end=0.1)
    with pytest.raises(ValueError, match="boundary"):
        evolve(cfg, wide)


def test_nonfinite_samples_rejected_at_construction():
    grid = GridSpec(1, 64, 20.0)
    vals = gaussian(grid).values.copy()
    vals[32] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        Field(grid, vals)


def test_boundary_breach_produces_warning():
    # a travelling packet: group velocity 2 k0 carries it into the wall
    grid = GridSpec(1, 128, 16.0)
    u0 = Field.from_function(grid, lambda x: np.exp(-(x**2)) * np.exp(3j * x))
    cfg = SimConfig(grid, sigma=1.0, dt=1e-2, t_end=2.0)
    traj = evolve(cfg, u0)
    assert any("boundary mass fraction" in w for w in traj.warnings)
