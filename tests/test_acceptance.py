"""End-to-end acceptance gate.

Twelve pinned scenarios, one per headline guarantee of the laboratory:
closed-form propagator accuracy, flow algebra, weighted-operator and
lens identities, deterministic conservation and splitting order, the
noise-free weighted-energy law, the Ito mass and energy budgets under
Brownian refinement, stochastic-convolution tail decay, one-sided
growth-exponent bounds, pullback Cauchy contraction with a negative
control, the regime classification table, and worker-count determinism.

Every test prints a single ``[NN] PASS/FAIL name: detail`` line before
asserting the same bound, so ``pytest tests/test_acceptance.py -s``
doubles as a human-readable scorecard. Beside gate 10, an unscored test
pins its Cauchy ratios to the closed-form contraction law 2^{1−σn}. All
seeds, grids, and tolerances are frozen here; nothing is tuned at run time. The ensemble scenarios
(06, 09) dominate the runtime at a few minutes total on one core.
"""

from __future__ import annotations

import dataclasses
import math
import time

import numpy as np
import pytest

from snlslab.analysis import (
    classify_regime,
    growth_fit,
    is_admissible,
    scattering_cauchy,
    strauss_exponent,
)
from snlslab.config import InitialSpec, load_config, make_initial
from snlslab.dynamics import SimConfig, evolve, evolve_batch, step_deterministic
from snlslab.ensemble import run_ensemble, sample_ensemble_paths
from snlslab.functionals import (
    compute_functionals,
    ito_energy_budget,
    ito_mass_budget,
)
from snlslab.grids import BATCH_FIELD_BYTES, Field, GridSpec
from snlslab.noise import NoiseSpec, coarsen_path, make_phi, sample_path, tail_decay_fit
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
from snlslab.reports import emit_report


def _gate(num: int, name: str, ok: bool, detail: str) -> None:
    """Print the scorecard line, then enforce it."""
    print(f"[{num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _rel_l2(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def _gaussian(grid: GridSpec, w0: float = 1.0) -> Field:
    r2 = grid.radius_squared()
    return Field(grid, np.exp(-r2 / (2.0 * w0**2)).astype(complex))


# -- 01: free propagator against the closed form -------------------------------


def test_01_gaussian_propagator_closed_form():
    grid = GridSpec(1, 1024, 60.0)
    x = grid.coords()[0]
    u0 = Field(grid, np.exp(-(x**2) / 2.0).astype(complex))
    tic = time.perf_counter()
    evolved = propagate(u0, 1.0)
    elapsed = time.perf_counter() - tic
    a = 1.0 - 2.0j  # complex width w^2 - 2it at w=1, t=1
    oracle = np.exp(-(x**2) / (2.0 * a)) / np.sqrt(a)
    rel = _rel_l2(evolved.values, oracle)
    ok = rel < 1e-8 and elapsed < 1.0
    _gate(1, "gaussian propagator", ok,
          f"rel L2 error {rel:.2e} (<1e-8), {elapsed * 1e3:.1f} ms (<1 s) "
          f"at N=1024, L=60, t=1")


# -- 02: unitarity and group law ------------------------------------------------


def test_02_unitarity_and_group_law():
    grid = GridSpec(1, 512, 30.0)
    rng = np.random.default_rng(20260819)
    vals = rng.standard_normal(512) + 1j * rng.standard_normal(512)
    u = Field(grid, vals)
    n0 = lp_norm(u, 2.0)
    unit = abs(lp_norm(propagate(u, 0.37), 2.0) - n0) / n0
    grouped = propagate(propagate(u, 0.21), 0.34)
    direct = propagate(u, 0.55)
    group = lp_norm(grouped - direct, 2.0) / n0
    ok = unit < 1e-12 and group < 1e-12
    _gate(2, "unitarity / group law", ok,
          f"unitarity {unit:.2e}, group law {group:.2e} (both <1e-12) "
          f"on a random field")


# -- 03: weighted-operator and lens identities ----------------------------------


def test_03_weighted_operator_and_lens_identities():
    grid = GridSpec(1, 512, 48.0)
    u = _gaussian(grid, w0=1.3)
    x = grid.coords()[0]
    res = {}

    # J(t)u = S(t)[x S(-t)u]
    t = 0.4
    lhs = apply_J(u, t)[0]
    pulled = propagate(u, -t)
    rhs = propagate(Field(grid, x * pulled.values), t)
    res["conjugation"] = lp_norm(lhs - rhs, 2.0) / lp_norm(lhs, 2.0)

    # J(t) through quadratic modulations: M_{-1/t} (-2it d/dx) M_{1/t}
    t = 2.0
    assert modulation_guard_ok(grid, 1.0 / t)
    inner = modulate(u, 1.0 / t)
    k = grid.freqs()[0]
    deriv = Field(grid, np.fft.ifftn(1j * k * inner.spectrum()))
    via_mod = modulate(deriv * (-2j * t), -1.0 / t)
    ju = apply_J(u, t)[0]
    res["modulation"] = lp_norm(ju - via_mod, 2.0) / lp_norm(ju, 2.0)

    # D_beta S(beta^2 t) = S(t) D_beta
    beta, t = 2.0, 0.13
    left = dilate(propagate(u, beta**2 * t), beta)
    right = propagate(dilate(u, beta), t)
    res["dilation"] = lp_norm(left - right, 2.0) / lp_norm(left, 2.0)

    # lens roundtrip is the identity and preserves mass
    s = 0.5
    v, t_lens = pseudo_conformal_forward(u, s)
    back, s_back = pseudo_conformal_inverse(v, t_lens)
    res["lens roundtrip"] = max(
        lp_norm(back - u, 2.0) / lp_norm(u, 2.0),
        abs(s_back - s),
        abs(lp_norm(v, 2.0) - lp_norm(u, 2.0)) / lp_norm(u, 2.0),
    )

    # lens energy identity: transformed-frame energy at t equals the
    # weighted energy at s = t/(1-t)
    errs = []
    for s in (0.5, 1.0):
        v, t_lens = pseudo_conformal_forward(u, s)
        phys = compute_functionals(u, t=s, sigma=1.0, frame="physical")
        trans = compute_functionals(v, t=t_lens, sigma=1.0, frame="transformed")
        errs.append(abs(trans.e1_tilde - phys.pc_energy) / abs(phys.pc_energy))
    res["lens energy"] = max(errs)

    worst = max(res, key=res.get)
    ok = all(v < 1e-6 for v in res.values())
    _gate(3, "operator identities", ok,
          f"5 identities, largest residual {res[worst]:.2e} ({worst}) (<1e-6)")


# -- 04: deterministic integrator -----------------------------------------------


def test_04_deterministic_conservation_and_order():
    grid = GridSpec(1, 256, 24.0)
    sim = SimConfig(grid=grid, sigma=1.0, dt=1e-3, t_end=5.0,
                    equation="deterministic", record="full")

    # invariants over [0, 5]
    u0 = make_initial(InitialSpec(amplitude=0.5, width=1.0), grid)
    traj = evolve(sim, u0)
    m = traj.series["mass"]
    h = traj.series["hamiltonian"]
    dm = float(np.max(np.abs(m - m[0])) / m[0])
    dh = float(np.max(np.abs(h - h[0])) / abs(h[0]))

    # single-mode data: the splitting solves it exactly
    amp, mode = 0.7, 3
    x = grid.coords()[0]
    k = 2.0 * math.pi * mode / grid.box_length
    cur = Field(grid, (amp * np.exp(1j * k * x)).astype(complex))
    dt, steps = 1e-3, 1000
    for _ in range(steps):
        cur = step_deterministic(cur, dt, 1.0)
    exact = amp * np.exp(1j * (k * x + (k**2 + amp**2) * dt * steps))
    pw = float(np.max(np.abs(cur.values - exact)) / amp)

    # splitting order against a fine reference
    u1 = make_initial(InitialSpec(amplitude=1.0, width=1.0), grid)
    ref = evolve(dataclasses.replace(sim, dt=1e-4, t_end=1.0), u1).final.values
    errs = {}
    for step_dt in (4e-3, 2e-3, 1e-3):
        final = evolve(dataclasses.replace(sim, dt=step_dt, t_end=1.0), u1).final.values
        errs[step_dt] = float(np.linalg.norm(final - ref))
    orders = (math.log2(errs[4e-3] / errs[2e-3]), math.log2(errs[2e-3] / errs[1e-3]))

    ok = (dm < 1e-8 and dh < 1e-7 and pw < 1e-6
          and all(abs(o - 2.0) <= 0.2 for o in orders))
    _gate(4, "deterministic integrator", ok,
          f"mass drift {dm:.1e} (<1e-8), energy drift {dh:.1e} (<1e-7), "
          f"single-mode error {pw:.1e} (<1e-6), "
          f"orders {orders[0]:.2f}/{orders[1]:.2f} (2.0 +/- 0.2)")


# -- 05: noise-free weighted-energy law ------------------------------------------


def test_05_weighted_energy_law_noise_free():
    grid = GridSpec(1, 512, 64.0)
    u0 = make_initial(InitialSpec(amplitude=1.0, width=1.0), grid)

    # at n=1, 2 sigma = 4 the law has zero drift: E is conserved
    crit = SimConfig(grid=grid, sigma=2.0, dt=1e-3, t_end=2.0,
                     equation="deterministic", record="full")
    e_crit = evolve(crit, u0).series["pc_energy"]
    drift = float(np.max(np.abs(e_crit - e_crit[0])) / e_crit[0])

    # at sigma = 1 the drift is (4(2 - n sigma)/(sigma+1)) (1+s) |u|_{2s+2}^{2s+2}
    sub = dataclasses.replace(crit, sigma=1.0)
    traj = evolve(sub, u0)
    e = traj.series["pc_energy"]
    pot = traj.series["potential"]
    w = 1.0 + traj.times
    quad = float(np.trapezoid(2.0 * w * pot, traj.times))
    change = float(e[-1] - e[0])
    mismatch = abs(change - quad) / abs(change)

    ok = drift < 1e-4 and mismatch < 1e-2
    _gate(5, "weighted-energy law", ok,
          f"critical-power drift {drift:.1e} (<1e-4), "
          f"drift-law quadrature mismatch {mismatch:.1e} (<1e-2) on [0,2]")


# -- 06: Ito mass identity under refinement --------------------------------------


def test_06_ito_mass_identity_and_refinement():
    tic = time.perf_counter()
    grid = GridSpec(1, 256, 24.0)
    base = NoiseSpec(phi_kind="gaussian", phi_width=1.0,
                     phi_amplitude=math.pi**-0.25,  # unit L2 mass for phi
                     g_kind="constant", g_constant=1.0, seed=0)
    u0 = make_initial(InitialSpec(amplitude=4.0, width=1.0), grid)
    sim_fine = SimConfig(grid=grid, sigma=1.0, dt=5e-4, t_end=1.0,
                         equation="snls", noise=base, record="light")
    sim_coarse = dataclasses.replace(sim_fine, dt=1e-3)

    n_paths = 1000
    per_batch = BATCH_FIELD_BYTES // (16 * grid.num_cells)
    dm = np.empty(n_paths)
    res_fine = np.empty(n_paths)
    res_coarse = np.empty(n_paths)
    for lo in range(0, n_paths, per_batch):
        rows = range(lo, min(lo + per_batch, n_paths))
        fine = [sample_path(dataclasses.replace(base, seed=9000 + i), 1.0, 5e-4) for i in rows]
        coarse = [coarsen_path(path, 2) for path in fine]
        tf = evolve_batch(sim_fine, u0, fine)
        tc = evolve_batch(sim_coarse, u0, coarse)
        mass = tf.series["mass"]
        dm[lo:rows.stop] = mass[:, -1] - mass[:, 0]
        for p, i in enumerate(rows):
            res_fine[i] = ito_mass_budget(tf.trajectory(p)).residual
            res_coarse[i] = ito_mass_budget(tc.trajectory(p)).residual

    mean = float(dm.mean())
    se = float(dm.std(ddof=1) / math.sqrt(n_paths))
    z = abs(mean - 1.0) / se
    ratio = float(np.sqrt(np.mean(res_coarse**2) / np.mean(res_fine**2)))
    elapsed = time.perf_counter() - tic

    ok = z <= 3.0 and 1.5 <= ratio <= 3.0 and elapsed < 300.0
    _gate(6, "Ito mass identity", ok,
          f"mean mass change {mean:.4f} vs 1 (|z|={z:.2f}, <=3 SE), "
          f"residual RMS ratio {ratio:.2f} under dt halving (in [1.5,3]), "
          f"{n_paths} paths in {elapsed:.0f} s (<300 s)")


# -- 07: Ito energy budget under refinement --------------------------------------


def test_07_ito_energy_budget_refinement():
    grid = GridSpec(1, 512, 64.0)
    spec = NoiseSpec(phi_kind="gaussian", phi_width=1.0, phi_amplitude=0.05,
                     g_kind="power_law", g_alpha=1.0, seed=57)
    u0 = make_initial(InitialSpec(amplitude=3.5, width=1.0), grid)
    fine = sample_path(spec, 1.0, 1e-3)
    ladder = {1e-3: fine, 2e-3: coarsen_path(fine, 2), 4e-3: coarsen_path(fine, 4)}
    residual = {}
    for dt, path in ladder.items():
        sim = SimConfig(grid=grid, sigma=1.0, dt=dt, t_end=1.0,
                        equation="snls", noise=spec)
        residual[dt] = abs(ito_energy_budget(evolve(sim, u0, path=path)).residual)
    f1 = residual[4e-3] / residual[2e-3]
    f2 = residual[2e-3] / residual[1e-3]
    gm = math.sqrt(f1 * f2)
    ok = 1.5 <= gm <= 3.0
    _gate(7, "Ito energy budget", ok,
          f"residuals {residual[4e-3]:.2e}/{residual[2e-3]:.2e}/{residual[1e-3]:.2e} "
          f"across dt=4e-3/2e-3/1e-3, halving factors {f1:.2f},{f2:.2f}, "
          f"geometric mean {gm:.2f} (in [1.5,3])")


# -- 08: stochastic-convolution tail decay ---------------------------------------


def test_08_tail_decay_slope():
    grid = GridSpec(1, 64, 20.0)
    spec = NoiseSpec(phi_kind="gaussian", phi_width=1.0, phi_amplitude=1.0,
                     g_kind="power_law", g_alpha=3.0, seed=401)
    phi = make_phi(spec, grid)
    paths = sample_ensemble_paths(spec, 128, 32.0, 2e-2)
    fit = tail_decay_fit(paths, phi, p_space=2.0)
    ok = -2.8 <= fit.median <= -2.2
    _gate(8, "convolution tail decay", ok,
          f"median slope {fit.median:.3f} in [-2.8,-2.2] vs -2.5 predicted, "
          f"IQR [{fit.iqr[0]:.2f},{fit.iqr[1]:.2f}], 128 paths, alpha=3, p=2")


# -- 09: one-sided growth-exponent bounds -----------------------------------------


GROWTH_TEXT = """\
experiment.kind = growth-fit
grid.points = 128
grid.box_length = 96.0
sim.sigma = {sigma}
sim.dt = 2e-3
sim.t_end = 4.0
sim.equation = snls
sim.snapshot_stride = 500
initial.amplitude = 1.2
initial.width = 1.5
noise.phi_amplitude = 0.2
noise.g_kind = power_law
noise.g_alpha = 3.0
noise.seed = {seed}
ensemble.size = 200
growth.tau_grid = 0.5, 1.0, 2.0, 4.0
"""


def test_09_growth_exponent_bounds():
    slopes = {}
    for sigma, seed, bound in ((0.75, 101, 1.5), (2.0, 102, 0.2)):
        config = load_config(text=GROWTH_TEXT.format(sigma=sigma, seed=seed))
        result = run_ensemble(config)
        fit = growth_fit(result.trajectory_views(), config.growth.tau_grid)
        slopes[2 * sigma] = (fit.slope, bound)
    ok = all(s <= b for s, b in slopes.values())
    detail = ", ".join(
        f"2sigma={ts:g}: exponent {s:.3f} <= {b:g}" for ts, (s, b) in slopes.items()
    )
    _gate(9, "growth exponents", ok, detail + " (200 paths each)")


# -- 10: pullback Cauchy contraction ----------------------------------------------


SCATTER_TEXT = """\
experiment.kind = scatter-test
grid.points = 2048
grid.box_length = 1024.0
sim.sigma = {sigma}
sim.dt = 2.5e-3
sim.t_end = 40.0
sim.equation = snls
sim.record = light
sim.snapshot_stride = 2000
initial.amplitude = 1.0
initial.width = 1.5
noise.phi_amplitude = 0.1
noise.g_kind = power_law
noise.g_alpha = 3.0
noise.seed = 301
scatter.checkpoints = 5.0, 10.0, 20.0, 40.0
"""


def _cauchy_ratios(sigma: float, equation: str = "snls",
                   norms: tuple[str, ...] = ("Sigma",)) -> dict[str, list[float]]:
    """Consecutive Cauchy ratios of one gate-10 run in each norm, all taken
    from the same trajectory."""
    config = load_config(text=SCATTER_TEXT.format(sigma=sigma))
    sim = config.sim
    if equation != "snls":
        sim = dataclasses.replace(sim, equation=equation, noise=None)
    traj = evolve(sim, make_initial(config.initial, config.grid))

    def ratios(kind: str) -> list[float]:
        cons = scattering_cauchy(traj, kind, config.scatter.checkpoints).consecutive
        return [float(cons[i + 1] / cons[i]) for i in range(len(cons) - 1)]

    return {kind: ratios(kind) for kind in norms}


def test_10_pullback_cauchy_contraction():
    pos = _cauchy_ratios(1.5)["Sigma"]     # short-range power: differences contract
    neg = _cauchy_ratios(0.25)["Sigma"]    # long-range power: no contraction below floor
    ok = all(r < 0.8 for r in pos) and all(r >= 0.8 for r in neg)
    _gate(10, "pullback Cauchy test", ok,
          f"2sigma=3 ratios {pos[0]:.3f},{pos[1]:.3f} (<0.8); "
          f"control 2sigma=0.5 ratios {neg[0]:.3f},{neg[1]:.3f} (>=0.8 floor) "
          f"at checkpoints 5/10/20/40")


@pytest.mark.parametrize("equation", ["deterministic", "snls"])
@pytest.mark.parametrize("sigma", [1.25, 1.5, 1.75])
def test_pullback_cauchy_ratio_follows_contraction_law(sigma, equation):
    """Gate 10's run contracts at the closed-form rate: in the lens frame the
    nonlinearity carries (1−s)^{σn−2}, so the pullback sits ∝ t^{1−σn} from its
    limit and each doubling of the checkpoint shrinks the Cauchy difference
    by 2^{1−σn} (short range, 1 < σn < 2)."""
    law = 2.0 ** (1.0 - sigma)  # n = 1
    ratios = _cauchy_ratios(sigma, equation, ("L2", "H1", "Sigma"))
    off = {kind: [r / law - 1.0 for r in rs] for kind, rs in ratios.items()}
    assert all(abs(d) <= 0.03 for ds in off.values() for d in ds), (
        f"2sigma={2 * sigma:g} {equation}: ratios off 2^(1-sigma n)={law:.4f} by {off}")


# -- 11: regime classification table ----------------------------------------------


def test_11_regime_classifier_table():
    checks = []

    # closed-form critical exponents
    for dim, expected in ((3, 1.0), (2, math.sqrt(2.0)),
                          (1, (1.0 + math.sqrt(17.0)) / 2.0)):
        got = strauss_exponent(dim)
        checks.append(abs(got - expected) <= 1e-15 * expected)

    # one representative point per theorem window
    windows = {
        (1, 1.5, 3.0): "long_range",
        (1, 2.5, 3.0): "short_range_L2",
        (1, 3.0, 3.0): "sigma_scattering",
        (1, 4.5, 1.5): "h1_scattering",
    }
    for (dim, two_sigma, alpha), expected in windows.items():
        checks.append(classify_regime(dim, two_sigma, alpha).regime_class == expected)

    # the forbidden endpoint pair in dimension 2
    checks.append(is_admissible(math.inf, 2.0, 2) is False)

    # mass-critical small-data flag in dimensions 1 and 2, absent in 3
    for dim in (1, 2):
        rep = classify_regime(dim, 4.0 / dim, 3.0)
        checks.append(rep.mass_criticality == "critical" and rep.small_data_flag)
    checks.append(not classify_regime(3, 4.0 / 3.0, 3.0).small_data_flag)

    ok = all(checks)
    _gate(11, "regime classifier", ok,
          f"{sum(checks)}/{len(checks)} table entries exact "
          f"(3 closed forms, 4 windows, forbidden pair, criticality flags)")


# -- 12: worker-count determinism --------------------------------------------------


ENSEMBLE_TEXT = """\
experiment.kind = ensemble
grid.points = 64
grid.box_length = 20.0
sim.sigma = 1.0
sim.dt = 2e-3
sim.t_end = 0.04
sim.equation = snls
initial.amplitude = 0.7
noise.phi_amplitude = 0.3
noise.seed = 3
ensemble.size = 8
"""


def test_12_worker_count_determinism(tmp_path):
    results = {}
    artifacts = {}
    for workers in (1, 2):
        config = load_config(text=ENSEMBLE_TEXT,
                             overrides={"ensemble.workers": workers})
        result = run_ensemble(config)
        results[workers] = result
        out = tmp_path / f"w{workers}"
        written = emit_report(result, out, config)
        artifacts[workers] = {
            name: path.read_bytes() for name, path in written.items()
        }

    a, b = results[1], results[2]
    same = [a.seeds == b.seeds, np.array_equal(a.times, b.times)]
    for name in a.per_path:
        same.append(np.array_equal(a.per_path[name], b.per_path[name], equal_nan=True))
    for name in a.aggregates:
        for stat in a.aggregates[name]:
            same.append(np.array_equal(a.aggregates[name][stat],
                                       b.aggregates[name][stat], equal_nan=True))
    same.append(np.array_equal(a.mass_change, b.mass_change))
    same.append(np.array_equal(a.mass_residuals, b.mass_residuals))
    same.append(set(artifacts[1]) == set(artifacts[2]))
    same.append(all(artifacts[1][n] == artifacts[2][n] for n in artifacts[1]))

    ok = all(same)
    _gate(12, "worker-count determinism", ok,
          f"8-path ensemble with 1 vs 2 workers: {sum(same)}/{len(same)} "
          f"comparisons bit-identical (series, aggregates, {len(artifacts[1])} artifacts)")
