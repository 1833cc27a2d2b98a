"""Regime classification, admissible pairs, scattering and growth fits."""
import math

import numpy as np
import pytest

from snlslab.analysis import (
    classify_regime,
    growth_fit,
    is_admissible,
    scattering_cauchy,
    strauss_exponent,
)
from snlslab.dynamics import SimConfig, evolve
from snlslab.grids import Field, GridSpec
from snlslab.norms import lp_norm, sigma_norm, sobolev_norm
from snlslab.operators import propagate


def gaussian(grid, amp=1.0):
    return Field.from_function(grid, lambda *xs: amp * np.exp(-sum(x**2 for x in xs) / 2))


# -- critical exponents -------------------------------------------------------


@pytest.mark.parametrize(
    "dim,expected",
    [
        (1, (1.0 + math.sqrt(17.0)) / 2.0),
        (2, math.sqrt(2.0)),
        (3, 1.0),
    ],
)
def test_strauss_exponent_closed_forms(dim, expected):
    assert strauss_exponent(dim) == pytest.approx(expected, rel=1e-15)


def test_strauss_exponent_general_formula():
    for n in range(1, 8):
        s = strauss_exponent(n)
        # positive root of n s^2 + (n-2) s - 4 = 0
        assert n * s * s + (n - 2) * s - 4.0 == pytest.approx(0.0, abs=1e-12)


# -- regime classification ----------------------------------------------------


@pytest.mark.parametrize(
    "dim,two_sigma,alpha,expected",
    [
        (3, 2.5, 3.0, "sigma_scattering"),      # strauss(3)=1 < 2.5 < 4
        (3, 4.0, 3.0, "energy_critical_excluded"),
        (3, 5.0, 3.0, "energy_critical_excluded"),
        (1, 1.5, 3.0, "long_range"),             # 2 sigma <= 2/n = 2
        (1, 2.0, 3.0, "long_range"),             # boundary included
        (1, 2.5, 3.0, "short_range_L2"),         # 2 < 2.5 < 4, below strauss(1)
        (1, 3.0, 3.0, "sigma_scattering"),       # above strauss(1) ~ 2.56
        (1, 4.5, 3.0, "sigma_scattering"),
        (1, 4.5, 1.5, "h1_scattering"),          # alpha too weak for weighted
        (2, 2.0, 2.0, "h1_scattering"),          # mass-critical, t^{-1} decay
        (1, 2.5, 1.5, "short_range_L2"),         # window fallback: no decay fits
    ],
)
def test_regime_classes(dim, two_sigma, alpha, expected):
    rep = classify_regime(dim, two_sigma, alpha)
    assert rep.regime_class == expected


def test_low_alpha_falls_back_to_window_label():
    # alpha below every decay threshold: label by window, decay flagged off
    rep = classify_regime(1, 3.0, 0.5)
    assert rep.regime_class == "sigma_scattering"
    assert not rep.checks[0].decay_ok
    assert not rep.checks[0].applies


def test_mass_critical_small_data_flag():
    for dim in (1, 2):
        rep = classify_regime(dim, 4.0 / dim, 3.0)
        assert rep.mass_criticality == "critical"
        assert rep.small_data_flag
        assert rep.regime_class == "sigma_scattering"
    # in dimension 3 the mass-critical point carries no special flag
    rep3 = classify_regime(3, 4.0 / 3.0, 3.0)
    assert rep3.mass_criticality == "critical"
    assert not rep3.small_data_flag


def test_regime_decay_thresholds_are_strict():
    # alpha = 5/2 exactly does NOT satisfy the o(t^{-5/2}) hypothesis
    rep = classify_regime(1, 3.0, 2.5)
    assert not rep.checks[0].decay_ok
    assert classify_regime(1, 3.0, 2.5 + 1e-9).checks[0].decay_ok
    # alpha = 1 exactly does NOT satisfy o(t^{-1})
    rep_h1 = classify_regime(1, 4.5, 1.0)
    assert rep_h1.checks[2].name == "h1_scattering"
    assert not rep_h1.checks[2].decay_ok


def test_regime_report_serializes():
    doc = classify_regime(3, 2.5, 3.0).as_dict()
    assert doc["regime_class"] == "sigma_scattering"
    assert isinstance(doc["checks"], list) and len(doc["checks"]) == 3


def test_classify_regime_validation():
    with pytest.raises(ValueError):
        classify_regime(0, 2.0, 3.0)
    with pytest.raises(ValueError):
        classify_regime(2, -1.0, 3.0)


# -- admissible pairs ----------------------------------------------------------


@pytest.mark.parametrize(
    "p,q,n,ok",
    [
        (2.0, math.inf, 1, True),          # trivial pair
        (4.0, 8.0, 1, True),               # 2/q = 1/2 - 1/4 requires q=8
        (6.0, 6.0, 1, True),               # diagonal, n=1: 2+4/n = 6
        (4.0, 4.0, 2, True),               # diagonal, n=2
        (6.0, 2.0, 3, True),               # endpoint, n=3
        (math.inf, 2.0, 2, False),         # the forbidden endpoint
        (math.inf, 4.0, 1, True),          # sup-in-x pair on the n=1 line
        (math.inf, 2.0, 1, False),         # off the n=1 scaling line
        (4.0, 7.9, 1, False),              # off the scaling line
        (1.5, 8.0, 2, False),              # p < 2
    ],
)
def test_admissible_pairs(p, q, n, ok):
    assert is_admissible(p, q, n) is ok


# -- scattering Cauchy diagnostic ----------------------------------------------


def test_linear_flow_is_exactly_cauchy():
    """Free evolution: pulled-back states are constant, differences ~ 0."""
    grid = GridSpec(1, 256, 40.0)
    cfg = SimConfig(grid, sigma=1.0, dt=1e-2, t_end=4.0, snapshot_stride=25)
    # amplitude so small the nonlinearity is negligible at these horizons
    traj = evolve(cfg, gaussian(grid, amp=1e-6))
    rep = scattering_cauchy(traj, "L2", (1.0, 2.0, 4.0))
    assert rep.monotone_decay or max(rep.consecutive) < 1e-10
    assert max(rep.consecutive) / lp_norm(traj.final, 2.0) < 1e-4


def test_scattering_cauchy_contracts_for_short_range_power():
    grid = GridSpec(1, 256, 40.0)
    cfg = SimConfig(grid, sigma=1.5, dt=1e-2, t_end=8.0, snapshot_stride=50)
    traj = evolve(cfg, gaussian(grid))
    rep = scattering_cauchy(traj, "L2", (1.0, 2.0, 4.0, 8.0))
    # consecutive pullback differences shrink as the horizon grows
    assert rep.consecutive[-1] < rep.consecutive[0]
    assert rep.limit_candidate is not None


def _field_pair_cauchy(traj, norm_kind, times):
    """The per-field pair loop scattering_cauchy's row norms replace."""
    norm_of = {"L2": lambda f: lp_norm(f, 2.0), "H1": lambda f: sobolev_norm(f, 2.0),
               "Sigma": sigma_norm}[norm_kind]
    compensated = [propagate(traj.snapshot_at(t), -t) for t in times]
    m = len(times)
    differences = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            diff = Field(compensated[i].grid, compensated[i].values - compensated[j].values)
            differences[i, j] = differences[j, i] = norm_of(diff)
    consecutive = np.array([differences[k, k + 1] for k in range(m - 1)])
    slack = 1e-12 * max(norm_of(w) for w in compensated)
    return differences, consecutive, bool(np.all(consecutive[1:] <= consecutive[:-1] + slack))


@pytest.fixture(scope="module")
def short_range_runs():
    runs = []
    for grid, t_end in ((GridSpec(1, 256, 40.0), 4.0), (GridSpec(2, 32, 20.0), 1.0)):
        cfg = SimConfig(grid, sigma=1.5, dt=1e-2, t_end=t_end, snapshot_stride=25)
        runs.append((evolve(cfg, gaussian(grid)), tuple(np.linspace(0.25, 1.0, 4) * t_end)))
    return runs


@pytest.mark.parametrize("norm_kind", ["L2", "H1", "Sigma"])
def test_scattering_cauchy_matches_field_pair_loop(short_range_runs, norm_kind):
    for traj, times in short_range_runs:
        rep = scattering_cauchy(traj, norm_kind, times)
        differences, consecutive, monotone = _field_pair_cauchy(traj, norm_kind, times)
        assert rep.differences.dtype == differences.dtype
        assert rep.differences.tobytes() == differences.tobytes()
        assert rep.consecutive.tobytes() == consecutive.tobytes()
        assert rep.monotone_decay is monotone


def test_scattering_cauchy_validation():
    grid = GridSpec(1, 64, 20.0)
    cfg = SimConfig(grid, sigma=1.0, dt=1e-2, t_end=1.0)
    traj = evolve(cfg, gaussian(grid))
    with pytest.raises(ValueError):
        scattering_cauchy(traj, "L2", (0.5, 1.0))  # needs >= 3 checkpoints
    with pytest.raises(ValueError):
        scattering_cauchy(traj, "L2", (0.5, 0.5, 1.0))
    with pytest.raises(ValueError):
        scattering_cauchy(traj, "Linfty", (0.2, 0.5, 1.0))


# -- growth-exponent fit ---------------------------------------------------------


class _FakeTraj:
    def __init__(self, times, series):
        self.times = times
        self.series = series


def test_growth_fit_recovers_synthetic_exponents():
    times = np.linspace(0.0, 15.0, 1501)
    taus = np.array([1.0, 2.0, 4.0, 8.0])
    for beta in (0.0, 2.0):
        series = (1.0 + times) ** beta
        trajs = [_FakeTraj(times, {"pc_energy": series}) for _ in range(4)]
        fit = growth_fit(trajs, taus, min_paths=2)
        assert fit.slope == pytest.approx(beta, abs=1e-12)


def test_growth_fit_validation():
    times = np.linspace(0.0, 10.0, 101)
    traj = _FakeTraj(times, {"pc_energy": np.ones(101)})
    with pytest.raises(ValueError, match="at least"):
        growth_fit([traj], [1.0, 2.0, 4.0], min_paths=2)
    with pytest.raises(ValueError, match="geometric"):
        growth_fit([traj, traj], [1.0, 2.0, 3.0], min_paths=2)
    with pytest.raises(ValueError, match="horizon"):
        growth_fit([traj, traj], [4.0, 8.0, 16.0], min_paths=2)
