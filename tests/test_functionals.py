"""Conserved functionals, the quadratic-weight energy, and Ito budgets."""
import math

import numpy as np
import pytest

from snlslab.dynamics import SimConfig, evolve
from snlslab.functionals import (
    compute_functionals,
    ito_energy_budget,
    ito_mass_budget,
)
from snlslab.grids import Field, GridSpec
from snlslab.noise import NoiseSpec
from snlslab.operators import pseudo_conformal_forward

SQRT_PI = math.sqrt(math.pi)


def gaussian(grid, amp=1.0):
    return Field.from_function(grid, lambda *xs: amp * np.exp(-sum(x**2 for x in xs) / 2))


# -- closed forms for the standard Gaussian ----------------------------------


@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
def test_potential_gaussian(sigma):
    grid = GridSpec(1, 256, 30.0)
    # int e^{-(sigma+1) x^2} = sqrt(pi/(sigma+1))
    assert compute_functionals(gaussian(grid), t=0.0, sigma=sigma).potential == pytest.approx(
        math.sqrt(math.pi / (sigma + 1.0)), rel=1e-12
    )


def test_functional_record_gaussian_closed_forms():
    grid = GridSpec(1, 256, 30.0)
    rec = compute_functionals(gaussian(grid), t=0.0, sigma=1.0)
    l4 = math.sqrt(math.pi / 2.0)
    assert rec.mass == pytest.approx(SQRT_PI, rel=1e-12)
    assert rec.gradient_sq == pytest.approx(SQRT_PI / 2.0, rel=1e-12)
    assert rec.potential == pytest.approx(l4, rel=1e-12)
    assert rec.hamiltonian == pytest.approx(SQRT_PI / 4.0 + l4 / 4.0, rel=1e-12)
    assert rec.virial == pytest.approx(SQRT_PI / 2.0, rel=1e-12)
    # real data has no radial momentum
    assert rec.virial_flux == pytest.approx(0.0, abs=1e-14)
    # (x - 2i d/dx)u: cross terms vanish, ||xu||^2 + 4||u'||^2 = 2.5 sqrt(pi)
    assert rec.pc_energy == pytest.approx(2.5 * SQRT_PI + 2.0 * l4, rel=1e-12)
    assert math.isnan(rec.e1_tilde)


def test_quadratic_energy_two_routes_agree():
    """Direct operator route equals the V - 4wG + 8w^2 H decomposition."""
    grid = GridSpec(1, 256, 30.0)
    # a complex field with nonzero flux: modulated, displaced Gaussian
    u = Field.from_function(
        grid, lambda x: np.exp(-((x - 1.0) ** 2) / 2) * np.exp(0.7j * x)
    )
    for t in (0.0, 0.5, 2.0):
        rec = compute_functionals(u, t=t, sigma=1.0)
        assert rec.pc_energy == pytest.approx(rec.pc_energy_decomp, rel=1e-10)
        assert rec.virial_flux != pytest.approx(0.0, abs=1e-6)


@pytest.mark.parametrize("sigma,t", [(1.0, 0.0), (1.0, 0.5), (2.0, 0.25)])
def test_transformed_frame_energies(sigma, t):
    grid = GridSpec(1, 256, 30.0)
    rec = compute_functionals(gaussian(grid), t=t, sigma=sigma, frame="transformed")
    power = sigma * grid.dim - 2.0
    pot = math.sqrt(math.pi / (sigma + 1.0))
    e1 = 4.0 * SQRT_PI / 2.0 + 4.0 / (sigma + 1.0) * (1.0 - t) ** power * pot
    assert rec.e1_tilde == pytest.approx(e1, rel=1e-12)
    assert rec.e2_tilde == pytest.approx((1.0 - t) ** (-power) * e1, rel=1e-12)
    assert math.isnan(rec.pc_energy)


def test_transformed_frame_time_domain():
    grid = GridSpec(1, 64, 20.0)
    with pytest.raises(ValueError):
        compute_functionals(gaussian(grid), t=1.0, sigma=1.0, frame="transformed")
    with pytest.raises(ValueError):
        compute_functionals(gaussian(grid), t=0.0, sigma=1.0, frame="spectral")


def test_lens_transform_maps_energy_between_frames():
    """E1~ of the transformed field at t equals E of the field at s=t/(1-t)."""
    grid = GridSpec(1, 512, 48.0)
    u = gaussian(grid)
    for s in (0.0, 0.5, 1.0):
        t = s / (1.0 + s)
        v, t_got = pseudo_conformal_forward(u, s)
        assert t_got == pytest.approx(t)
        phys = compute_functionals(u, t=s, sigma=1.0, frame="physical")
        frame = compute_functionals(v, t=t, sigma=1.0, frame="transformed")
        assert frame.e1_tilde == pytest.approx(phys.pc_energy, rel=1e-10)


# -- Ito budgets --------------------------------------------------------------


def test_noise_free_budgets_close_to_machine_precision():
    grid = GridSpec(1, 128, 24.0)
    cfg = SimConfig(grid, sigma=1.0, dt=1e-3, t_end=1.0)
    traj = evolve(cfg, gaussian(grid))
    mb = ito_mass_budget(traj)
    assert mb.flow_drift == 0.0 and mb.martingale == 0.0
    # every ledger term vanishes, so the residual IS the conservation
    # defect; measure it against the conserved quantity itself
    assert abs(mb.residual) / traj.series["mass"][0] < 1e-12


def test_noise_free_energy_follows_the_flow_law():
    """dE/ds = 4(2-n sigma)/(sigma+1) (1+s) ||u||^{2s+2} integrates to E(T)-E(0)."""
    grid = GridSpec(1, 256, 48.0)
    cfg = SimConfig(grid, sigma=1.0, dt=1e-3, t_end=1.0)
    traj = evolve(cfg, gaussian(grid))
    eb = ito_energy_budget(traj)
    assert eb.ito_drift == 0.0 and eb.martingale == 0.0
    assert abs(eb.change - eb.flow_drift) / abs(eb.change) < 1e-4


def test_critical_power_freezes_the_quadratic_energy():
    # n sigma = 2: the flow coefficient vanishes and E is a constant
    grid = GridSpec(1, 512, 64.0)
    cfg = SimConfig(grid, sigma=2.0, dt=1e-3, t_end=1.0)
    traj = evolve(cfg, gaussian(grid))
    e = traj.series["pc_energy"]
    assert np.max(np.abs(e - e[0])) / abs(e[0]) < 1e-4
    assert np.max(np.abs(traj.budget["energy_flow_drift"])) == 0.0


def test_noisy_mass_budget_residual_is_quadrature_small():
    grid = GridSpec(1, 128, 24.0)
    noise = NoiseSpec(seed=3, phi_amplitude=math.pi ** -0.25)
    cfg = SimConfig(grid, sigma=1.0, dt=1e-3, t_end=1.0, equation="snls", noise=noise)
    traj = evolve(cfg, gaussian(grid))
    mb = ito_mass_budget(traj)
    assert mb.martingale != 0.0
    # drift = ||phi||^2 T = 1 with this normalization
    assert mb.ito_drift == pytest.approx(1.0, rel=1e-10)
    # the residual carries the Brownian-quadratic-variation fluctuation,
    # O(sqrt(dt)) in distribution; stay an order above 3 sigma of it
    assert abs(mb.residual) < 0.5


def test_budget_requires_matching_recording():
    grid = GridSpec(1, 64, 20.0)
    cfg = SimConfig(grid, sigma=1.0, dt=1e-2, t_end=0.2, equation="transformed")
    traj = evolve(cfg, gaussian(grid))
    with pytest.raises(ValueError, match="budget"):
        ito_mass_budget(traj)


def test_light_record_has_mass_budget_but_no_energy_budget():
    grid = GridSpec(1, 64, 20.0)
    noise = NoiseSpec(seed=5)
    cfg = SimConfig(grid, sigma=1.0, dt=1e-2, t_end=0.2, equation="snls",
                    noise=noise, record="light")
    traj = evolve(cfg, gaussian(grid))
    assert ito_mass_budget(traj).functional == "mass"
    with pytest.raises(ValueError):
        ito_energy_budget(traj)


def test_compute_functionals_validation():
    grid = GridSpec(1, 64, 20.0)
    with pytest.raises(ValueError):
        compute_functionals(gaussian(grid), t=0.0, sigma=0.0)
