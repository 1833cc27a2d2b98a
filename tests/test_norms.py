"""Lebesgue, Sobolev and weighted norms against closed forms."""
import math

import numpy as np
import pytest

from snlslab.grids import Field, GridSpec
from snlslab.norms import lp_norm, sigma_norm, sobolev_norm


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
    assert sobolev_norm(u, 2.0, 1) == pytest.approx(expected, rel=1e-12)


def test_h1_norm_of_gaussian():
    # ||u||_2^2 = sqrt(pi), ||u'||_2^2 = sqrt(pi)/2 for u = e^{-x^2/2}
    grid = GridSpec(1, 256, 30.0)
    expected = math.sqrt(math.sqrt(math.pi) * 1.5)
    assert sobolev_norm(gaussian(grid), 2.0, 1) == pytest.approx(expected, rel=1e-12)


def test_w1p_norm_reduces_to_lp_at_order_zero():
    grid = GridSpec(1, 128, 20.0)
    u = gaussian(grid)
    assert sobolev_norm(u, 4.0, 0) == lp_norm(u, 4.0)


def test_sobolev_rejects_higher_order():
    grid = GridSpec(1, 32, 10.0)
    with pytest.raises(ValueError):
        sobolev_norm(Field.zeros(grid), 2.0, 2)


def test_sigma_norm_gaussian():
    # ||x u||_2^2 = sqrt(pi)/2 for u = e^{-x^2/2}
    grid = GridSpec(1, 256, 30.0)
    h1 = math.sqrt(math.sqrt(math.pi) * 1.5)
    weighted = math.sqrt(math.sqrt(math.pi) / 2.0)
    assert sigma_norm(gaussian(grid)) == pytest.approx(h1 + weighted, rel=1e-12)
