"""GridSpec.free_phase gives the bytes of the expressions it replaced.

Each reference below forms the free-flow multiplier the way its call site
formed it before GridSpec.free_phase owned it: the noise scan as
exp(-1j * t_k * |k|^2), every other site as exp(1j * t * |k|^2). The
phase arrays themselves need not agree: -1j * y has real part +0.0 where
1j * (-y) has -0.0, so the k = 0 entry's imaginary zero may flip sign.
What is compared is what the lab reads: accumulators, norms and fields.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from snlslab import noise
from snlslab.grids import Field, GridSpec, batches, row_sums
from snlslab.noise import (
    NoiseSpec,
    convolution_series,
    make_phi,
    sample_path,
    stochastic_convolution,
    tail_convolution,
    tail_sup_norms,
)
from snlslab.norms import sobolev_row_norms
from snlslab.operators import propagate

GRIDS = [GridSpec(1, 2048, 16.0), GridSpec(2, 64, 16.0), GridSpec(3, 8, 8.0)]
SPEC = NoiseSpec(g_kind="power_law", g_alpha=2.0, phi_width=1.5, seed=7)
T_INF, DT = 0.4, 0.05


def _parent_scan(paths, grid, ks):
    """The noise scan with its phase formed in place, as copies of the
    accumulator before the first step and after each step."""
    k2 = grid.k_squared()
    dt = paths[0].dt
    acc = np.zeros((len(paths),) + grid.shape, dtype=np.complex128)
    term = np.empty_like(acc)
    out = [acc.copy()]
    for lo, hi in batches(len(ks), 8 * len(paths)):
        block = ks[lo:hi]
        kk = np.arange(block.start, block.stop, block.step)
        g = noise._g_values(paths[0].spec, dt * kk)
        weights = np.empty((len(kk), len(paths)))
        for j, path in enumerate(paths):
            np.multiply(g, path.increments[kk], out=weights[:, j])
        live = weights.any(axis=1).tolist()
        weights = weights.reshape(weights.shape + (1,) * grid.dim)
        for k, w, on in zip(block, weights, live):
            if on:
                acc += np.multiply(np.exp(-1j * (k * dt) * k2), w, out=term)
            out.append(acc.copy())
    return out


def _parent_sum(path, phi, ks, t, sign):
    grid = phi.grid
    acc = _parent_scan([path], grid, ks)[-1]
    return sign * grid.ifft(np.exp(1j * t * grid.k_squared()) * (acc[0] * phi.spectrum()))


def _parent_tail_sups(path, phi, p_space):
    grid = phi.grid
    k2 = grid.k_squared()
    hat = phi.spectrum()
    accs = _parent_scan([path], grid, range(path.steps - 1, -1, -1))
    sup, sups = -np.inf, []
    for acc, m in zip(accs, range(path.steps, -1, -1)):
        z_hat = acc * hat
        if p_space == 2.0:
            value = row_sums((z_hat.real**2 + z_hat.imag**2) * (1.0 + k2))
        else:
            vals = -1j * grid.ifft(np.exp(1j * (m * path.dt) * k2) * z_hat)
            value = sobolev_row_norms(grid, vals, p_space)
        sup = np.maximum(sup, value)
        sups.append(sup)
    sups = np.array(sups[::-1])[:, 0]
    if p_space == 2.0:
        sups = np.sqrt(sups * (grid.cell_volume / grid.num_cells))
    return sups


def _same(a, b):
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture(params=GRIDS, ids=lambda grid: f"dim{grid.dim}")
def setup(request):
    grid = request.param
    paths = [sample_path(replace(SPEC, seed=seed), T_INF, DT) for seed in (7, 8)]
    return grid, paths, make_phi(SPEC, grid)


def test_scan_accumulators_match_forwards_and_backwards(setup):
    grid, paths, _ = setup
    steps = paths[0].steps
    for ks in (range(steps), range(steps - 1, -1, -1), range(3, steps)):
        got = [acc.copy() for acc in noise._noise_scan(paths, grid, ks)]
        want = _parent_scan(paths, grid, ks)
        assert len(got) == len(want) == len(ks) + 1
        for a, b in zip(got, want):
            _same(a, b)


@pytest.mark.parametrize("p_space", [2.0, 3.0])
def test_tail_sup_norms_match(setup, p_space):
    _, paths, phi = setup
    _same(tail_sup_norms(paths[0], phi, p_space), _parent_tail_sups(paths[0], phi, p_space))


def test_convolutions_match(setup):
    _, paths, phi = setup
    path = paths[1]
    for m in (0, 3, path.steps):
        t = m * DT
        _same(stochastic_convolution(path, phi, t).values,
              _parent_sum(path, phi, range(m), t, 1j))
        _same(tail_convolution(path, phi, t).values,
              _parent_sum(path, phi, range(m, path.steps), t, -1j))
    series = convolution_series(path, phi)
    assert len(series) == path.steps + 1
    _same(series[0].values, np.zeros(phi.grid.shape, dtype=complex))  # the empty sum
    for m, z in enumerate(series[1:], start=1):
        _same(z.values, _parent_sum(path, phi, range(m), m * DT, 1j))


@pytest.mark.parametrize("t", [0.3, -0.3])
def test_propagate_matches(setup, t):
    grid, _, phi = setup
    u = Field(grid, phi.values * (1.0 + 0.5j))
    want = grid.ifft(u.spectrum() * np.exp(1j * t * grid.k_squared()))
    _same(propagate(u, t).values, want)
