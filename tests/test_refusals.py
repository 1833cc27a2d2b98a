"""Library refusals: each bad call raises its exception with its message.

One row per refusal of grids, operators, dynamics, noise, functionals
and analysis that a caller can meet but a run through the CLI cannot
reach, because load_config builds its inputs correctly: (call,
exception, message fragment).
"""
from __future__ import annotations

from dataclasses import replace

import math

import numpy as np
import pytest

from snlslab.analysis import check_geometric, is_admissible, strauss_exponent
from snlslab.dynamics import SimConfig, evolve, evolve_batch
from snlslab.functionals import ito_energy_budget
from snlslab.grids import Field, GridSpec
from snlslab.noise import (
    NoisePath,
    NoiseSpec,
    check_paths,
    g_sq_tail_bound,
    g_value,
    make_phi,
    path_seed,
    sample_path,
    tail_decay_fit,
)
from snlslab.operators import dilate, modulate

GRID, OTHER = GridSpec(1, 16, 16.0), GridSpec(1, 32, 16.0)
SPEC = NoiseSpec(seed=3)
PATH = sample_path(SPEC, 0.2, 0.1)
U0 = Field.zeros(GRID)


def _config(equation: str, noise: NoiseSpec | None = None) -> SimConfig:
    return SimConfig(GRID, 1.0, 0.1, 0.2, equation=equation, noise=noise)


def _energy_budget_without_pc_energy():
    """ito_energy_budget of a full snls trajectory whose pc_energy series is dropped."""
    traj = evolve(_config("snls", SPEC), U0)
    return ito_energy_budget(replace(traj, series={
        name: col for name, col in traj.series.items() if name != "pc_energy"}))


REFUSALS = [
    pytest.param(lambda: SimConfig("grid", 1.0, 0.1, 0.2), TypeError,
                 "grid must be a GridSpec, got str", id="sim-config-grid"),
    pytest.param(lambda: SimConfig(GRID, 1.0, 0.1, 0.2, noise="gaussian"), TypeError,
                 "noise must be a NoiseSpec or None, got str", id="sim-config-noise"),
    pytest.param(lambda: evolve(_config("random_shifted"), U0, shift=[Field.zeros(OTHER)] * 3),
                 ValueError, "shift entry 0 is not a Field on the run's grid", id="shift-off-grid"),
    pytest.param(lambda: evolve(_config("snls", SPEC), U0, path=sample_path(replace(SPEC, seed=4), 0.2, 0.1)),
                 ValueError, "config.noise and the supplied path disagree", id="evolve-path-spec"),
    pytest.param(lambda: evolve_batch(_config("random_shifted"), U0, paths=[PATH]), ValueError,
                 "equation 'random_shifted' does not take a noise path", id="path-without-snls"),
    pytest.param(lambda: evolve_batch(_config("deterministic"), Field.zeros(OTHER)), ValueError,
                 "initial field lives on a different grid", id="initial-off-grid"),
    pytest.param(lambda: NoisePath(SPEC, 0.2, 0.1, np.zeros(3)), ValueError,
                 "expected 2 increments, got shape (3,)", id="path-increment-count"),
    pytest.param(lambda: NoisePath(SPEC, 0.2, 0.1, [0.0, np.nan]), ValueError,
                 "increments contain non-finite entries", id="path-non-finite"),
    pytest.param(lambda: PATH.index_of(0.3), ValueError,
                 "time 0.3 is past the end of the path", id="index-past-t-inf"),
    pytest.param(lambda: check_paths([PATH], SPEC, 4, 0.05), ValueError,
                 "path 0: its partition is not the run's 4 steps of dt=0.05", id="check-paths-partition"),
    pytest.param(lambda: tail_decay_fit([], make_phi(SPEC, GRID)), ValueError,
                 "need at least one path", id="tail-fit-no-paths"),
    pytest.param(lambda: NoiseSpec(g_kind="indicator", g_t0=1.0, g_t1=0.5), ValueError,
                 "indicator support needs 0 <= g_t0 < g_t1", id="indicator-inverted"),
    pytest.param(lambda: path_seed(0, -1), ValueError,
                 "path index must be non-negative, got -1", id="negative-path-index"),
    pytest.param(lambda: g_value(SPEC, -1.0), ValueError,
                 "envelope time must satisfy t >= 0, got -1.0", id="g-value-negative-time"),
    pytest.param(lambda: g_sq_tail_bound(SPEC, 0.0), ValueError,
                 "t_inf must be positive, got 0.0", id="g-tail-bound-zero"),
    pytest.param(lambda: GridSpec(1, 8.0, 1.0), ValueError,
                 "points must be an integer, got 8.0", id="grid-float-points"),
    pytest.param(lambda: dilate(U0, 0.0), ValueError,
                 "dilation factor must be positive and finite, got 0.0", id="dilate-zero"),
    pytest.param(lambda: modulate(U0, math.nan), ValueError,
                 "modulation parameter must be finite, got nan", id="modulate-nan"),
    pytest.param(_energy_budget_without_pc_energy, ValueError,
                 "trajectory carries no pc_energy series", id="energy-budget-no-pc-energy"),
    pytest.param(lambda: strauss_exponent(0), ValueError,
                 "dimension must be a positive integer, got 0", id="strauss-dimension-zero"),
    pytest.param(lambda: is_admissible(2, 2, 0), ValueError,
                 "dimension must be a positive integer, got 0", id="admissible-dimension-zero"),
    pytest.param(lambda: check_geometric([1.0, 2.0, math.inf]), ValueError,
                 "tau_grid entries must be positive and finite", id="geometric-infinite-entry"),
]


@pytest.mark.parametrize("call, exception, fragment", REFUSALS)
def test_a_bad_call_is_refused_with_its_message(call, exception, fragment):
    with pytest.raises(exception) as info:
        call()
    assert fragment in str(info.value)
