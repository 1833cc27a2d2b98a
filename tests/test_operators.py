"""Free propagator, weighted-derivative, and box-symmetry identities."""
import math

import numpy as np
import pytest

from snlslab.grids import Field, GridSpec
from snlslab.norms import lp_norm
from snlslab.operators import (
    apply_J,
    dilate,
    modulate,
    modulation_guard_ok,
    propagate,
    pseudo_conformal_forward,
    pseudo_conformal_inverse,
)


def gaussian(grid, w0=1.0):
    return Field.from_function(grid, lambda *xs: np.exp(-sum(x**2 for x in xs) / (2 * w0**2)))


def free_gaussian(grid, t, w0=1.0):
    """Closed-form free evolution of exp(-|x|^2 / (2 w0^2))."""
    a = w0**2 - 2j * t
    pref = (w0 / np.sqrt(a)) ** grid.dim
    return Field.from_function(grid, lambda *xs: pref * np.exp(-sum(x**2 for x in xs) / (2 * a)))


@pytest.mark.parametrize(
    "dim,points,t,tol",
    [
        (1, 256, 0.7, 1e-12),
        (1, 1024, 1.0, 1e-12),
        (2, 64, 0.3, 1e-10),
    ],
)
def test_propagator_matches_free_gaussian(dim, points, t, tol):
    grid = GridSpec(dim, points, 40.0 if dim == 1 else 30.0)
    u = propagate(gaussian(grid), t)
    ref = free_gaussian(grid, t)
    err = lp_norm(u - ref, 2) / lp_norm(ref, 2)
    assert err < tol


def test_propagator_is_unitary_and_group():
    grid = GridSpec(1, 128, 20.0)
    rng = np.random.default_rng(101)
    u = Field(grid, rng.normal(size=128) + 1j * rng.normal(size=128))
    m0 = lp_norm(u, 2)
    assert abs(lp_norm(propagate(u, 0.37), 2) - m0) < 1e-12 * m0
    # group law and inverse
    two_step = propagate(propagate(u, 0.21), 0.34)
    one_step = propagate(u, 0.55)
    assert lp_norm(two_step - one_step, 2) < 1e-12 * m0
    back = propagate(propagate(u, 0.8), -0.8)
    assert lp_norm(back - u, 2) < 1e-12 * m0


def test_propagate_rejects_nonfinite_time():
    grid = GridSpec(1, 32, 10.0)
    with pytest.raises(ValueError):
        propagate(Field.zeros(grid), math.inf)


@pytest.mark.parametrize("t", [0.0, 0.4, -0.25])
def test_weighted_derivative_conjugation_identity(t):
    # (x - 2it grad) u  ==  S(t) [ x * S(-t) u ]
    grid = GridSpec(1, 256, 30.0)
    u = gaussian(grid, w0=1.3)
    lhs = apply_J(u, t)[0]
    pulled = propagate(u, -t)
    weighted = Field(grid, grid.coords()[0] * pulled.values)
    rhs = propagate(weighted, t)
    assert lp_norm(lhs - rhs, 2) < 1e-9


def test_weighted_derivative_via_modulation():
    # J(t) = M_{-1/t} (-2it grad) M_{1/t} with M_theta = exp(i theta |x|^2/4)
    grid = GridSpec(1, 512, 30.0)
    t = 2.0  # 1/t small enough for the modulation guard
    u = gaussian(grid)
    inner = modulate(u, 1.0 / t)
    hat = inner.spectrum()
    k = grid.freqs()[0]
    deriv = Field(grid, np.fft.ifftn(1j * k * hat))
    rhs = modulate(deriv * (-2j * t), -1.0 / t)
    lhs = apply_J(u, t)[0]
    assert lp_norm(lhs - rhs, 2) < 1e-9


@pytest.mark.parametrize("beta", [2.0, 0.5, 3.0])
def test_dilation_is_isometric_relabelling(beta):
    grid = GridSpec(1, 128, 24.0)
    u = gaussian(grid)
    v = dilate(u, beta)
    assert v.grid.box_length == pytest.approx(24.0 / beta)
    assert abs(lp_norm(v, 2) - lp_norm(u, 2)) < 1e-12
    # samples: v(y) = beta^{1/2} u(beta y) on the shrunk grid
    y = v.grid.coords()[0]
    np.testing.assert_allclose(v.values, math.sqrt(beta) * np.exp(-((beta * y) ** 2) / 2), atol=1e-14)


def test_dilation_commutes_with_rescaled_flow():
    # D_beta S(beta^2 t) = S(t) D_beta
    grid = GridSpec(1, 256, 30.0)
    u = gaussian(grid, w0=1.1)
    beta, t = 2.0, 0.13
    left = dilate(propagate(u, beta**2 * t), beta)
    right = propagate(dilate(u, beta), t)
    assert lp_norm(left - right, 2) < 1e-12


def test_modulation_guard():
    grid = GridSpec(1, 64, 20.0)  # dx = 0.3125, (L/2) dx = 3.125
    assert modulation_guard_ok(grid, 1.0)
    assert not modulation_guard_ok(grid, 1.1)
    with pytest.raises(ValueError, match="aliases"):
        modulate(Field.zeros(grid), 1.1)
    # refining the grid restores the same modulation
    fine = GridSpec(1, 256, 20.0)
    assert modulation_guard_ok(fine, 1.1)


@pytest.mark.parametrize("s", [0.0, 0.5, 2.0])
def test_lens_transform_roundtrip(s):
    grid = GridSpec(1, 256, 24.0)
    u = gaussian(grid)
    v, t = pseudo_conformal_forward(u, s)
    assert t == pytest.approx(s / (1.0 + s))
    assert v.grid.box_length == pytest.approx(24.0 / (1.0 + s))
    back, s_back = pseudo_conformal_inverse(v, t)
    assert s_back == pytest.approx(s)
    assert back.grid == grid
    assert lp_norm(back - u, 2) < 1e-12
    # the transform is L2-isometric
    assert abs(lp_norm(v, 2) - lp_norm(u, 2)) < 1e-12


def test_lens_transform_domain_checks():
    grid = GridSpec(1, 64, 12.0)
    u = Field.zeros(grid)
    with pytest.raises(ValueError):
        pseudo_conformal_forward(u, -0.1)
    with pytest.raises(ValueError):
        pseudo_conformal_inverse(u, 1.0)

