"""Grid geometry, field containers, resolution monitors."""
import math
import tracemalloc

import numpy as np
import pytest

from snlslab.grids import (
    Field,
    GridSpec,
    boundary_mass_fraction,
    boundary_mass_fractions,
    gradient,
    row_sums,
    spectral_tail_fraction,
)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_grid_geometry(dim):
    grid = GridSpec(dim, 64, 16.0)
    assert grid.shape == (64,) * dim
    assert grid.dx == pytest.approx(0.25)
    assert grid.cell_volume == pytest.approx(0.25**dim)
    assert grid.num_cells == 64**dim
    x = grid.axis_coords()
    # cell-centered-left convention: [-L/2, L/2) in steps of dx
    assert x[0] == pytest.approx(-8.0)
    assert x[-1] == pytest.approx(8.0 - 0.25)
    np.testing.assert_allclose(np.diff(x), 0.25)


def test_grid_frequencies_are_fft_order():
    grid = GridSpec(1, 8, 2.0 * math.pi)
    k = grid.axis_freqs()
    np.testing.assert_allclose(k, [0, 1, 2, 3, -4, -3, -2, -1])
    np.testing.assert_allclose(grid.k_squared(), k**2)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_grid_fft_is_bit_identical_to_numpy_fftn(dim):
    grid = GridSpec(dim, 8, 4.0)
    rng = np.random.default_rng(dim)
    # one field and a (paths, *grid) batch: the transform runs over the last dim axes
    for shape in (grid.shape, (3,) + grid.shape):
        values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        axes = tuple(range(-dim, 0))
        assert np.array_equal(grid.fft(values), np.fft.fftn(values, axes=axes))
        assert np.array_equal(grid.ifft(values), np.fft.ifftn(values, axes=axes))
        # into a caller's buffer, and in place
        for transform, reference in ((grid.fft, np.fft.fftn), (grid.ifft, np.fft.ifftn)):
            out = np.empty_like(values)
            assert transform(values, out=out) is out
            assert np.array_equal(out, reference(values, axes=axes))
            same = values.copy()
            assert np.array_equal(transform(same, out=same), reference(values, axes=axes))
    field = Field(grid, values[0])
    assert np.array_equal(field.spectrum(), np.fft.fftn(values[0]))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_grid_fft_without_the_private_kernels_keeps_the_bytes(dim, monkeypatch):
    """Without np.fft._pocketfft_umath, numpy's public fft and ifft run
    each axis with the same kernel and factor: the same bytes, in place
    and into a buffer."""
    grid = GridSpec(dim, 8, 4.0)
    rng = np.random.default_rng(10 + dim)
    shape = (3,) + grid.shape
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    want = {transform: transform(values) for transform in (grid.fft, grid.ifft)}
    monkeypatch.delattr(np.fft, "_pocketfft_umath")
    for transform, reference in want.items():
        out = np.empty_like(values)
        assert transform(values, out=out) is out
        assert out.tobytes() == reference.tobytes()
        same = values.copy()
        assert transform(same, out=same).tobytes() == reference.tobytes()
        assert transform(values).tobytes() == reference.tobytes()


@pytest.mark.parametrize("private", [True, False])
@pytest.mark.parametrize("shape", [(4, 64, 64), (4, 16, 16, 16)])
def test_in_place_transform_allocates_no_temporary(shape, private, monkeypatch):
    """An in-place 2-d or 3-d transform runs each axis in place without a
    full temporary (numpy copies no operand identical to its output), with
    or without the private kernels, and keeps np.fft.fftn's and ifftn's
    bytes."""
    grid = GridSpec(len(shape) - 1, shape[-1], 8.0)
    rng = np.random.default_rng(len(shape))
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    axes = tuple(range(-grid.dim, 0))
    if not private:
        monkeypatch.delattr(np.fft, "_pocketfft_umath")
    for transform, reference in zip(grid.transform_pair(), (np.fft.fftn, np.fft.ifftn)):
        same = values.copy()
        transform(same.copy(), same)  # the first call loads numpy.fft and its plan caches
        same[...] = values
        tracemalloc.start()
        try:
            assert transform(same, same) is same
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < values.nbytes // 8, peak
        assert same.tobytes() == reference(values, axes=axes).tobytes()


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_row_sums_match_sum_over_each_row(dim):
    """row_sums is .sum(axis=1) of the flattened rows, byte for byte, and
    each row sums as its own field does."""
    rng = np.random.default_rng(30 + dim)
    shape = (3,) + (16,) * dim
    real = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)
    for values in (real, real + 1j * rng.standard_normal(shape)):
        got = row_sums(values)
        assert got.tobytes() == values.reshape(3, -1).sum(axis=1).tobytes()
        assert got.tobytes() == np.array([row.sum() for row in values]).tobytes()


@pytest.mark.parametrize(
    "dim,points,length",
    [
        (0, 64, 10.0),   # dim out of range
        (4, 64, 10.0),
        (1, 48, 10.0),   # not a power of two
        (1, 4, 10.0),    # too coarse
        (1, 64, 0.0),    # degenerate box
        (1, 64, -3.0),
    ],
)
def test_grid_validation(dim, points, length):
    with pytest.raises(ValueError):
        GridSpec(dim, points, length)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_propagator_is_the_exp_and_keeps_only_the_last_dt(dim):
    grid = GridSpec(dim, 16, 12.0)
    first = grid.propagator(2.5e-3)
    want = np.exp(1j * 2.5e-3 * grid.k_squared())
    assert first.view(np.uint64).tobytes() == want.view(np.uint64).tobytes()
    assert not first.flags.writeable
    assert grid.propagator(2.5e-3) is first  # kept for a repeat of its dt
    second = grid.propagator(1e-2)
    assert second.tobytes() == np.exp(1j * 1e-2 * grid.k_squared()).tobytes()
    # the second dt replaced the first: asking for it again builds it afresh
    again = grid.propagator(2.5e-3)
    assert again is not first and again.tobytes() == first.tobytes()
    assert grid.propagator(2.5e-3) is again


def test_radius_squared_matches_coords():
    grid = GridSpec(2, 16, 8.0)
    xs = grid.coords()
    np.testing.assert_allclose(grid.radius_squared(), xs[0] ** 2 + xs[1] ** 2)


def test_field_from_function_and_arithmetic():
    grid = GridSpec(1, 32, 10.0)
    f = Field.from_function(grid, lambda x: np.exp(-(x**2)))
    g = Field.from_function(grid, lambda x: 0.5 * np.exp(-(x**2)))
    h = f - g * 2.0
    assert np.abs(h.values).max() < 1e-15
    z = Field.zeros(grid)
    assert np.all(z.values == 0)
    assert z.values.dtype == np.complex128


def test_field_rejects_wrong_shape():
    grid = GridSpec(1, 32, 10.0)
    with pytest.raises(ValueError):
        Field(grid, np.zeros(16, dtype=np.complex128))


def test_field_cross_grid_arithmetic_rejected():
    a = Field.zeros(GridSpec(1, 32, 10.0))
    b = Field.zeros(GridSpec(1, 32, 12.0))
    with pytest.raises(ValueError):
        _ = a + b


@pytest.mark.parametrize("dim", [1, 2])
def test_gradient_of_plane_wave_is_spectral(dim):
    grid = GridSpec(dim, 32, 2.0 * math.pi)
    k0 = 3.0
    f = Field.from_function(
        grid, lambda *xs: np.exp(1j * k0 * xs[0]) * np.ones_like(xs[0])
    )
    gx = gradient(f)[0]
    expected = 1j * k0 * f.values
    np.testing.assert_allclose(gx.values, expected, atol=1e-12)


def test_gradient_returns_one_field_per_axis():
    grid = GridSpec(3, 8, 4.0)
    parts = gradient(Field.zeros(grid))
    assert len(parts) == 3


def test_boundary_mass_fraction_flags_escaped_field():
    grid = GridSpec(1, 256, 40.0)
    centered = Field.from_function(grid, lambda x: np.exp(-(x**2)))
    shifted = Field.from_function(grid, lambda x: np.exp(-((x - 15.0) ** 2)))
    assert boundary_mass_fraction(centered) < 1e-30
    assert boundary_mass_fraction(shifted) > 0.99
    assert boundary_mass_fraction(Field.zeros(grid)) == 0.0
    # a recorder passes the |u|² it already holds; the fractions keep their bytes
    rows = np.stack([centered.values, shifted.values, 1j * shifted.values])
    rho = np.square(rows.real)
    rho += np.square(rows.imag)
    given = boundary_mass_fractions(grid, rows, rho)
    assert given.tobytes() == boundary_mass_fractions(grid, rows).tobytes()


def test_spectral_tail_fraction_flags_rough_field():
    grid = GridSpec(1, 128, 20.0)
    smooth = Field.from_function(grid, lambda x: np.exp(-(x**2)))
    rough_vals = np.random.default_rng(7).normal(size=128) + 0j
    rough = Field(grid, rough_vals)
    assert spectral_tail_fraction(smooth) < 1e-12
    assert spectral_tail_fraction(rough) > 0.1

