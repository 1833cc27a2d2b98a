"""Driving noise: profiles, envelopes, paths, convolutions, tail decay."""
import hashlib
import math

import numpy as np
import pytest

from snlslab import grids, noise
from snlslab.grids import Field, GridSpec
from snlslab.noise import (
    NoisePath,
    NoiseSpec,
    coarsen_path,
    convolution_series,
    g_sq_tail_bound,
    g_value,
    make_phi,
    path_seed,
    sample_path,
    splitmix64,
    stochastic_convolution,
    tail_convolution,
    tail_decay_fit,
    tail_sup_norms,
)
from snlslab.norms import lp_norm, sobolev_norm
from snlslab.operators import propagate
from snlslab.selftest import run_selftest


def spec_power(alpha=3.0, seed=0, amp=1.0):
    return NoiseSpec(g_kind="power_law", g_alpha=alpha, seed=seed, phi_amplitude=amp)


# -- seeds ------------------------------------------------------------------


def test_path_seeds_are_deterministic_and_distinct():
    base = 12345
    seeds = [path_seed(base, i) for i in range(64)]
    assert seeds == [path_seed(base, i) for i in range(64)]
    assert len(set(seeds)) == 64
    assert path_seed(base, 0) != path_seed(base + 1, 0)
    # the mixer itself is a bijection on 64-bit words
    assert splitmix64(0) != splitmix64(1)


# -- spatial profile --------------------------------------------------------


def test_phi_gaussian_amplitude_normalization():
    # amplitude pi^{-1/4} gives ||phi||_2 = 1 (width 1, one dimension)
    grid = GridSpec(1, 256, 30.0)
    phi = make_phi(NoiseSpec(phi_amplitude=math.pi ** -0.25), grid)
    assert lp_norm(phi, 2.0) == pytest.approx(1.0, rel=1e-12)


def test_phi_center_offsets_the_bump():
    grid = GridSpec(1, 128, 20.0)
    phi = make_phi(NoiseSpec(phi_center=2.0), grid)
    x = grid.coords()[0]
    assert abs(x[np.argmax(np.abs(phi.values))] - 2.0) < grid.dx


def test_phi_polynomial_window_vanishes_at_origin():
    grid = GridSpec(1, 128, 20.0)
    phi = make_phi(NoiseSpec(phi_kind="gaussian_times_poly"), grid)
    x = grid.coords()[0]
    origin = np.argmin(np.abs(x))
    assert abs(phi.values[origin]) < 1e-12
    assert lp_norm(phi, 2.0) > 0


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(phi_kind="bessel")
    with pytest.raises(ValueError):
        NoiseSpec(g_kind="chirp")
    with pytest.raises(ValueError):
        NoiseSpec(phi_width=0.0)


# -- time envelope ----------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs,t,expected",
    [
        (dict(g_kind="power_law", g_alpha=3.0), 0.0, 1.0),
        (dict(g_kind="power_law", g_alpha=3.0), 1.0, 2.0 ** -1.5),
        (dict(g_kind="power_law", g_alpha=1.0), 3.0, 10.0 ** -0.5),
        (dict(g_kind="indicator", g_t0=0.0, g_t1=1.0), 0.5, 1.0),
        (dict(g_kind="indicator", g_t0=0.0, g_t1=1.0), 1.5, 0.0),
        (dict(g_kind="constant", g_constant=0.7), 9.0, 0.7),
        (dict(g_kind="zero"), 2.0, 0.0),
    ],
)
def test_envelope_values(kwargs, t, expected):
    assert g_value(NoiseSpec(**kwargs), t) == pytest.approx(expected, abs=1e-15)


def test_tail_energy_bound_closed_forms():
    # integral of (1+s^2)^{-alpha} over [t, inf): finite iff alpha > 1/2
    assert math.isinf(g_sq_tail_bound(spec_power(alpha=0.4), 1.0))
    assert math.isinf(g_sq_tail_bound(NoiseSpec(g_kind="constant"), 1.0))
    assert g_sq_tail_bound(NoiseSpec(g_kind="zero"), 1.0) == 0.0
    assert g_sq_tail_bound(NoiseSpec(g_kind="indicator", g_t1=2.0), 3.0) == 0.0
    fine = g_sq_tail_bound(spec_power(alpha=3.0), 4.0)
    # integrand below s^{-6}: bound must dominate the exact integral but
    # stay within a small factor of it at moderate t
    exact = 4.0 ** -5.0 / 5.0
    assert exact <= fine <= 4.0 * exact


# -- Brownian paths ---------------------------------------------------------


def test_sample_path_reproducible_bitwise():
    a = sample_path(spec_power(seed=9), 2.0, 0.01)
    b = sample_path(spec_power(seed=9), 2.0, 0.01)
    assert np.array_equal(a.increments, b.increments)
    c = sample_path(spec_power(seed=10), 2.0, 0.01)
    assert not np.array_equal(a.increments, c.increments)


def test_sample_path_increment_statistics():
    path = sample_path(spec_power(seed=1), 50.0, 0.01)
    var = path.increments.var()
    assert var == pytest.approx(0.01, rel=0.05)
    assert abs(path.increments.mean()) < 3.0 * math.sqrt(0.01 / path.steps)


def test_sample_path_rejects_uneven_partition():
    with pytest.raises(ValueError):
        sample_path(spec_power(), 1.0, 0.3)


def test_coarsen_path_group_sums():
    fine = sample_path(spec_power(seed=4), 1.0, 0.001)
    coarse = coarsen_path(fine, 10)
    assert coarse.steps == fine.steps // 10
    np.testing.assert_array_equal(
        coarse.increments, fine.increments.reshape(-1, 10).sum(axis=1)
    )
    # composing coarsenings is the same as one combined coarsening
    two_step = coarsen_path(coarsen_path(fine, 2), 5)
    np.testing.assert_array_equal(two_step.increments, coarse.increments)
    with pytest.raises(ValueError):
        coarsen_path(fine, 3)  # 1000 steps not divisible by 3


def test_coarsen_path_refuses_a_path_its_seed_did_not_draw():
    """A coarsened path is re-coarsened from the fine path its seed draws;
    increments that fine path does not reproduce are refused, not redrawn."""
    hand = NoisePath(NoiseSpec(seed=3), 0.08, 0.01, np.arange(8.0))
    once = coarsen_path(hand, 2)
    assert once.increments.tolist() == [1.0, 5.0, 9.0, 13.0]
    with pytest.raises(ValueError, match="coarsen the fine path by 4"):
        coarsen_path(once, 2)
    np.testing.assert_array_equal(coarsen_path(hand, 4).increments, [6.0, 22.0])


# -- stochastic convolution -------------------------------------------------


def test_convolution_matches_direct_sum():
    """Accumulator route against the textbook sum of propagated kicks."""
    grid = GridSpec(1, 32, 16.0)
    spec = spec_power(alpha=2.0, seed=21)
    phi = make_phi(spec, grid)
    path = sample_path(spec, 1.0, 0.05)
    t = 0.6
    m = path.index_of(t)
    direct = Field.zeros(grid)
    for k in range(m):
        t_k = k * path.dt
        kick = propagate(phi, t - t_k) * (1j * g_value(spec, t_k) * path.increments[k])
        direct = direct + kick
    z = stochastic_convolution(path, phi, t)
    assert lp_norm(z - direct, 2.0) < 1e-12


def test_prefix_plus_suffix_equals_full_convolution():
    # z(t) - z_tail(t) must equal the full-horizon sum propagated back to t
    grid = GridSpec(1, 64, 16.0)
    spec = spec_power(seed=5)
    phi = make_phi(spec, grid)
    path = sample_path(spec, 4.0, 0.02)
    t = 1.5
    z = stochastic_convolution(path, phi, t)
    tail = tail_convolution(path, phi, t)
    full_at_end = stochastic_convolution(path, phi, 4.0)
    recombined = propagate(full_at_end, t - 4.0)
    assert lp_norm((z - tail) - recombined, 2.0) < 1e-12


def test_convolution_series_agrees_with_pointwise():
    grid = GridSpec(1, 32, 16.0)
    spec = spec_power(seed=2)
    phi = make_phi(spec, grid)
    path = sample_path(spec, 0.5, 0.05)
    series = convolution_series(path, phi)
    assert len(series) == path.steps + 1
    for m in (0, 3, 10):
        z = stochastic_convolution(path, phi, m * path.dt)
        assert lp_norm(series[m] - z, 2.0) < 1e-12


def test_ito_isometry():
    # E ||z(t)||_2^2 = ||phi||_2^2 int_0^t g^2  (g = 1 here)
    grid = GridSpec(1, 64, 20.0)
    spec = NoiseSpec(g_kind="constant", phi_amplitude=math.pi ** -0.25)
    phi = make_phi(spec, grid)
    t = 1.0
    vals = []
    for i in range(96):
        path = sample_path(NoiseSpec(g_kind="constant", phi_amplitude=math.pi ** -0.25, seed=5000 + i), t, 0.01)
        vals.append(lp_norm(stochastic_convolution(path, phi, t), 2.0) ** 2)
    mean = float(np.mean(vals))
    se = float(np.std(vals) / math.sqrt(len(vals)))
    assert abs(mean - t) < 4.0 * se + 0.02


# -- tail sup-norms and decay fit -------------------------------------------


def test_tail_sup_norms_nonincreasing_and_terminal_zero():
    grid = GridSpec(1, 64, 16.0)
    spec = spec_power(seed=8)
    phi = make_phi(spec, grid)
    path = sample_path(spec, 2.0, 0.02)
    sup = tail_sup_norms(path, phi)
    assert len(sup) == path.steps + 1
    assert np.all(np.diff(sup) <= 1e-12)
    assert sup[-1] == pytest.approx(0.0, abs=1e-14)
    # at t = 0 the sup dominates the first tail value
    tail0 = sobolev_norm(tail_convolution(path, phi, 0.0), 2.0)
    assert sup[0] >= tail0 - 1e-12


def test_tail_decay_fit_recovers_negative_slope():
    grid = GridSpec(1, 64, 16.0)
    spec = spec_power(alpha=3.0)
    phi = make_phi(spec, grid)
    paths = [
        sample_path(spec_power(alpha=3.0, seed=path_seed(3, i)), 16.0, 0.02)
        for i in range(8)
    ]
    fit = tail_decay_fit(paths, phi)
    # envelope (1+t^2)^{-3/2}: the sup-norm decays like t^{-(alpha-1/2)}
    assert fit.median < -1.5
    assert fit.iqr[0] <= fit.median <= fit.iqr[1]
    assert 0.0 < fit.truncation_bound < math.inf
    assert fit.t_grid[0] == pytest.approx(2.0)
    assert fit.t_grid[-1] == pytest.approx(8.0)


def test_tail_decay_fit_window_validation():
    spec = spec_power()
    grid = GridSpec(1, 32, 8.0)
    phi = make_phi(spec, grid)
    paths = [sample_path(spec, 8.0, 0.1)]
    with pytest.raises(ValueError, match="window"):
        tail_decay_fit(paths, phi, fit_window=(0.5, 4.0))
    with pytest.raises(ValueError, match="zero envelope"):
        tail_decay_fit([sample_path(NoiseSpec(g_kind="zero"), 8.0, 0.1)], phi)
    # an indicator envelope that ends before the window [1, 4] leaves no tail there
    early = NoiseSpec(g_kind="indicator", g_t0=0.0, g_t1=0.5)
    with pytest.raises(ValueError, match="tail sup-norm vanished inside the fit window"):
        tail_decay_fit([sample_path(early, 8.0, 0.1)], make_phi(early, grid))


# -- pinned outputs of the Fourier noise scan -------------------------------
#
# SHA-256 digests of the raw float64/complex128 bytes, recorded with the
# per-path accumulation loops the path-batched scan replaced. Any change in
# accumulation order, zero-weight skipping or FFT route shows up here.

GRIDS = {"1d": (1, 64, 16.0), "2d": (2, 16, 12.0)}
ENVELOPES = {
    "power_law": dict(g_kind="power_law", g_alpha=3.0),
    # zero weights outside [0.5, 1.5): whole runs of skipped steps
    "indicator": dict(g_kind="indicator", g_t0=0.5, g_t1=1.5),
}

TAIL_SUP_PINNED = {
    ("1d", "power_law", 2.0):
        "f3e78c1e4d2c15610089e4643f2f8ad0513fa58b3ed130ebf63faec485bd4ccc",
    ("1d", "power_law", 4.0):
        "df9331a560fc6626d583d76584d1191df5067a78b85aa72cf4ec680fe5247135",
    ("1d", "indicator", 2.0):
        "87d51a3f029b9272642c10b2b0738ac2914ee112686a65d67f3c9d47c013f028",
    ("1d", "indicator", 4.0):
        "247b3944de6606e6fe30b0ba945b80835b880dfa35a348c251af85252e455dd9",
    ("2d", "power_law", 2.0):
        "36a3f5fb629021c8232bbf212fadd381e2f60c89dbc45669fb8682985b7cff98",
    ("2d", "power_law", 4.0):
        "d00815ad592bb19d2cd9c150ed523524b2262de59bc8262f5b5f10c138e98e63",
    ("2d", "indicator", 2.0):
        "a77a0ae826eaba644db5c1072a10e6276cbb15cc0c7d990c17329a287487a2eb",
    ("2d", "indicator", 4.0):
        "8b7b079042906d21f65770c0d50be6215c173da47487fafba4ece33253d686e5",
}

CONVOLUTION_PINNED = {
    ("1d", "power_law"):
        "7e9a2c26846c8fbe97131de830f4628f276be296c934cb12519982c05053dc6c",
    ("2d", "indicator"):
        "aba526a40843a89de930548ebfd37bd87fd99e900811c99b9ff10715eca463cb",
}

SLOPES_PINNED = {
    2.0:
        "815de1051b5a5f1b420ded7fb89ab5b1cf770a1a26f839d8ea1852abc445c96b",
    4.0:
        "a250754243d4420a53879236693b645765cd5a38d7ea0aa3b8001a2392348312",
}

ITO_ISOMETRY_PINNED = "a7b53dfbe74893ed9f3220b35fa0fc66ca92bbfc6f578642414a2ac2c26b577d"


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _scan_case(grid_key, envelope, seed=11, t_inf=2.0, dt=0.02):
    grid = GridSpec(*GRIDS[grid_key])
    spec = NoiseSpec(seed=seed, **ENVELOPES[envelope])
    return make_phi(spec, grid), sample_path(spec, t_inf, dt)


@pytest.mark.parametrize("grid_key, envelope, p_space", sorted(TAIL_SUP_PINNED))
def test_tail_sup_norms_pinned(grid_key, envelope, p_space):
    phi, path = _scan_case(grid_key, envelope)
    sup = tail_sup_norms(path, phi, p_space)
    assert _digest(sup) == TAIL_SUP_PINNED[grid_key, envelope, p_space]


@pytest.mark.parametrize("grid_key, envelope", sorted(CONVOLUTION_PINNED))
def test_convolution_values_pinned(grid_key, envelope):
    phi, path = _scan_case(grid_key, envelope, t_inf=1.0, dt=0.05)
    fields = convolution_series(path, phi)
    for t in (0.0, 0.6, 1.0):  # empty prefix, interior, whole path
        fields.append(stochastic_convolution(path, phi, t))
        fields.append(tail_convolution(path, phi, t))
    assert _digest(*(f.values for f in fields)) == CONVOLUTION_PINNED[grid_key, envelope]


def _fit_case(p_space):
    if p_space == 2.0:
        grid, n_paths, t_inf, dt = GridSpec(1, 64, 16.0), 8, 16.0, 0.02
    else:
        grid, n_paths, t_inf, dt = GridSpec(2, 16, 12.0), 3, 8.0, 0.05
    phi = make_phi(spec_power(alpha=3.0), grid)
    paths = [sample_path(spec_power(alpha=3.0, seed=path_seed(3, i)), t_inf, dt)
             for i in range(n_paths)]
    return paths, phi


@pytest.mark.parametrize("p_space", sorted(SLOPES_PINNED))
def test_tail_decay_fit_slopes_pinned(p_space):
    paths, phi = _fit_case(p_space)
    fit = tail_decay_fit(paths, phi, p_space=p_space)
    assert _digest(fit.slopes) == SLOPES_PINNED[p_space]


def test_selftest_ito_isometry_pinned():
    check = {c.name: c for c in run_selftest().checks}["ito_isometry"]
    assert _digest(np.float64(check.measured)) == ITO_ISOMETRY_PINNED


# -- the path-batched scan against its batches of one -------------------------


@pytest.mark.parametrize("grid_key", sorted(GRIDS))
@pytest.mark.parametrize("p_space", [2.0, 4.0])
def test_tail_scan_rows_equal_batches_of_one(grid_key, p_space):
    grid = GridSpec(*GRIDS[grid_key])
    phi = make_phi(spec_power(), grid)
    paths = [sample_path(spec_power(seed=path_seed(17, i)), 1.0, 0.02) for i in range(5)]
    rows = noise._tail_sups(paths, phi, p_space)
    assert rows.shape == (5, paths[0].steps + 1)
    for row, path in zip(rows, paths):
        assert row.tobytes() == tail_sup_norms(path, phi, p_space).tobytes()


@pytest.mark.parametrize("grid_key", sorted(GRIDS))
def test_scan_skips_zero_weights_row_by_row(grid_key):
    """Rows whose increments vanish on some steps, while other rows' do
    not, must match their batches of one at every step of the scan."""
    grid = GridSpec(*GRIDS[grid_key])
    phi = make_phi(spec_power(), grid)
    paths = []
    for i, (lo, hi) in enumerate([(0, 0), (5, 20), (30, 50)]):
        path = sample_path(spec_power(seed=path_seed(23, i)), 1.0, 0.02)
        inc = path.increments.copy()
        inc[lo:hi] = 0.0
        inc[40:45] = 0.0  # a stretch every row skips
        paths.append(NoisePath(path.spec, path.t_inf, path.dt, inc))
    for ks in (range(50), range(49, -1, -1), range(12, 50)):
        batch = [acc.copy() for acc in noise._noise_scan(paths, grid, ks)]
        for p, path in enumerate(paths):
            single = [acc.tobytes() for acc in noise._noise_scan([path], grid, ks)]
            assert [acc[p].tobytes() for acc in batch] == single
    rows = noise._tail_sups(paths, phi, 2.0)
    for row, path in zip(rows, paths):
        assert row.tobytes() == tail_sup_norms(path, phi).tobytes()


@pytest.mark.parametrize("p_space", [2.0, 4.0])
def test_tail_scan_blocks_and_indices_keep_bytes(monkeypatch, p_space):
    """Paths in one scan match their batches of one, and building the
    scan's weights in blocks of a few steps, or keeping the running sup
    at a few indices only, changes no byte."""
    grid = GridSpec(*GRIDS["1d"])
    phi = make_phi(spec_power(), grid)
    paths = [sample_path(spec_power(alpha=3.0, seed=path_seed(29, i)), 1.0, 0.02)
             for i in range(5)]
    whole = noise._tail_sups(paths, phi, p_space)
    for row, path in zip(whole, paths):
        assert row.tobytes() == tail_sup_norms(path, phi, p_space).tobytes()
    idx = [3, 17, 17, 40, 50, 0]
    for block_bytes in (8, 8 * 5 * 7, 8 * 5 * 50):  # 1, 7 and 50 steps per block
        monkeypatch.setattr(grids, "BATCH_FIELD_BYTES", block_bytes)
        assert noise._tail_sups(paths, phi, p_space).tobytes() == whole.tobytes()
        assert noise._tail_sups(paths, phi, p_space, idx).tobytes() == whole[:, idx].tobytes()


@pytest.mark.parametrize("p_space", [2.0, 4.0])
def test_tail_scan_stops_at_the_lowest_kept_index(monkeypatch, p_space):
    """Kept indices above 0 end the backward scan at the lowest of them,
    and the sups kept there match the full scan's byte for byte."""
    grid = GridSpec(*GRIDS["1d"])
    phi = make_phi(spec_power(), grid)
    paths = [sample_path(spec_power(alpha=3.0, seed=path_seed(31, i)), 1.0, 0.02)
             for i in range(4)]
    whole = noise._tail_sups(paths, phi, p_space)
    scanned = []
    real = noise._noise_scan

    def recording(paths, grid, ks):
        scanned.append(ks)
        return real(paths, grid, ks)

    monkeypatch.setattr(noise, "_noise_scan", recording)
    idx = [17, 40, 3, 17, 50]
    assert noise._tail_sups(paths, phi, p_space, idx).tobytes() == whole[:, idx].tobytes()
    assert scanned == [range(49, 2, -1)]  # steps 49 down to 3


@pytest.mark.parametrize("alpha, amp", [(2.0, 1.0), (3.0, 0.5)])
def test_tail_fit_refuses_paths_that_differ_in_more_than_the_seed(alpha, amp):
    """The zero-envelope check and the truncation bound read paths[0]'s
    spec only, so a path with another envelope or profile is refused."""
    paths, phi = _fit_case(2.0)
    odd = sample_path(spec_power(alpha, path_seed(3, 99), amp), paths[0].t_inf, paths[0].dt)
    with pytest.raises(ValueError, match="up to the seed"):
        tail_decay_fit(paths[:2] + [odd], phi)


def test_tail_fit_independent_of_batch_cap(monkeypatch):
    paths, phi = _fit_case(2.0)
    chunks = []
    real = noise._tail_sups

    def recording(batch, phi, p_space, idx):
        chunks.append(len(batch))
        return real(batch, phi, p_space, idx)

    monkeypatch.setattr(noise, "_tail_sups", recording)
    fits = []
    for cap in (grids.BATCH_FIELD_BYTES, 3 * 16 * 64, 1):
        monkeypatch.setattr(grids, "BATCH_FIELD_BYTES", cap)
        fits.append(tail_decay_fit(paths, phi))
    assert chunks == [8, 3, 3, 2] + [1] * 8
    whole = fits[0]
    assert _digest(whole.slopes) == SLOPES_PINNED[2.0]
    for fit in fits[1:]:
        for name in ("t_grid", "slopes", "median", "iqr", "truncation_bound"):
            assert np.asarray(getattr(fit, name)).tobytes() == np.asarray(getattr(whole, name)).tobytes()
