"""Lebesgue, Sobolev and weighted norms against closed forms."""
import math

import numpy as np
import pytest

from snlslab.grids import Field, GridSpec, gradient
from snlslab.norms import (
    lp_norm,
    lp_row_norms,
    sigma_norm,
    sigma_row_norms,
    sobolev_norm,
    sobolev_row_norms,
)


def gaussian(grid, w=1.0):
    return Field.from_function(grid, lambda *xs: np.exp(-sum(x**2 for x in xs) / (2 * w**2)))


@pytest.mark.parametrize(
    "p,expected",
    [
        (2.0, (math.pi) ** 0.25),          # (int e^{-x^2})^{1/2} = pi^{1/4}
        (4.0, (math.pi / 2) ** 0.125),     # (int e^{-2x^2})^{1/4}
        (math.inf, 1.0),
    ],
)
def test_lp_norm_gaussian_closed_forms(p, expected):
    grid = GridSpec(1, 256, 30.0)
    assert lp_norm(gaussian(grid), p) == pytest.approx(expected, rel=1e-12)


def test_lp_norm_constant_field_scales_with_volume():
    grid = GridSpec(2, 32, 5.0)
    c = Field.from_function(grid, lambda x, y: 3.0 * np.ones_like(x))
    assert lp_norm(c, 3.0) == pytest.approx(3.0 * 25.0 ** (1.0 / 3.0), rel=1e-13)


@pytest.mark.parametrize("p", [0.5, 0.0, -2.0])
def test_invalid_exponent_rejected(p):
    grid = GridSpec(1, 32, 10.0)
    with pytest.raises(ValueError):
        lp_norm(Field.zeros(grid), p)


def test_h1_norm_of_plane_wave():
    # || e^{i k0 x} ||_{H^1}^2 = (1 + k0^2) * L on the torus
    grid = GridSpec(1, 64, 2.0 * math.pi)
    k0 = 5.0
    u = Field.from_function(grid, lambda x: np.exp(1j * k0 * x))
    expected = math.sqrt((1.0 + k0**2) * 2.0 * math.pi)
    assert sobolev_norm(u, 2.0) == pytest.approx(expected, rel=1e-12)


def test_h1_norm_of_gaussian():
    # ||u||_2^2 = sqrt(pi), ||u'||_2^2 = sqrt(pi)/2 for u = e^{-x^2/2}
    grid = GridSpec(1, 256, 30.0)
    expected = math.sqrt(math.sqrt(math.pi) * 1.5)
    assert sobolev_norm(gaussian(grid), 2.0) == pytest.approx(expected, rel=1e-12)


def test_sigma_norm_gaussian():
    # ||x u||_2^2 = sqrt(pi)/2 for u = e^{-x^2/2}
    grid = GridSpec(1, 256, 30.0)
    h1 = math.sqrt(math.sqrt(math.pi) * 1.5)
    weighted = math.sqrt(math.sqrt(math.pi) / 2.0)
    assert sigma_norm(gaussian(grid)) == pytest.approx(h1 + weighted, rel=1e-12)


# -- row norms against the per-field formulas they replace --------------------


def _field_lp(field, p):
    """The per-field L^p formula the row norms replace."""
    amp = np.abs(field.values)
    if math.isinf(p):
        return float(amp.max())
    if p == 2.0:
        return float(math.sqrt((amp * amp).sum() * field.grid.cell_volume))
    return float(((amp**p).sum() * field.grid.cell_volume) ** (1.0 / p))


def _field_h1(field):
    """The per-field Parseval H^1 formula the row norms replace."""
    hat = field.spectrum()
    power = (hat.real**2 + hat.imag**2) * (1.0 + field.grid.k_squared())
    return float(math.sqrt(power.sum() * (field.grid.cell_volume / field.grid.num_cells)))


def _field_sigma(field):
    weighted = Field(field.grid, np.sqrt(field.grid.radius_squared()) * field.values)
    return _field_h1(field) + _field_lp(weighted, 2.0)


def _rows(dim, points):
    grid = GridSpec(dim, points, 10.0)
    rng = np.random.default_rng(dim)
    envelope = np.exp(-grid.radius_squared() / 4.0)
    noise = rng.standard_normal((5,) + grid.shape) + 1j * rng.standard_normal((5,) + grid.shape)
    return grid, envelope * noise


def _hex(values):
    return [float(v).hex() for v in values]


CASES = [(1, 64), (2, 16), (3, 8)]


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0, math.inf])
@pytest.mark.parametrize("dim,points", CASES)
def test_lp_row_norms_match_per_field_formula(dim, points, p):
    grid, rows = _rows(dim, points)
    want = [_field_lp(Field(grid, r), p) for r in rows]
    assert _hex(lp_row_norms(grid, rows, p)) == _hex(want)
    assert _hex(lp_norm(Field(grid, r), p) for r in rows) == _hex(want)


@pytest.mark.parametrize("dim,points", CASES)
def test_h1_and_sigma_row_norms_match_per_field_formulas(dim, points):
    grid, rows = _rows(dim, points)
    fields = [Field(grid, r) for r in rows]
    h1 = [_field_h1(f) for f in fields]
    sigma = [_field_sigma(f) for f in fields]
    assert _hex(sobolev_row_norms(grid, rows, 2.0)) == _hex(h1)
    assert _hex(sobolev_norm(f, 2.0) for f in fields) == _hex(h1)
    assert _hex(sigma_row_norms(grid, rows)) == _hex(sigma)
    assert _hex(sigma_norm(f) for f in fields) == _hex(sigma)


@pytest.mark.parametrize("p", [1.0, 3.0, math.inf])
@pytest.mark.parametrize("dim,points", CASES)
def test_w1p_row_norms_add_the_lp_norms_of_row_and_gradient(dim, points, p):
    grid, rows = _rows(dim, points)
    for row, got in zip(rows, sobolev_row_norms(grid, rows, p)):
        field = Field(grid, row)
        want = 0.0
        for part in (field,) + gradient(field):
            want += _field_lp(part, p)
        assert got.hex() == want.hex()
        assert sobolev_norm(field, p).hex() == want.hex()
