"""Library refusals: each bad call raises its exception with its message.

One row per refusal of dynamics and noise that a caller can meet but a
run through the CLI cannot reach, because load_config builds its inputs
correctly: (call, exception, message fragment).
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from snlslab.dynamics import SimConfig, evolve, evolve_batch
from snlslab.grids import Field, GridSpec
from snlslab.noise import (
    NoisePath,
    NoiseSpec,
    check_paths,
    make_phi,
    path_seed,
    sample_path,
    tail_decay_fit,
)

GRID, OTHER = GridSpec(1, 16, 16.0), GridSpec(1, 32, 16.0)
SPEC = NoiseSpec(seed=3)
PATH = sample_path(SPEC, 0.2, 0.1)
U0 = Field.zeros(GRID)


def _config(equation: str, noise: NoiseSpec | None = None) -> SimConfig:
    return SimConfig(GRID, 1.0, 0.1, 0.2, equation=equation, noise=noise)


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
]


@pytest.mark.parametrize("call, exception, fragment", REFUSALS)
def test_a_bad_call_is_refused_with_its_message(call, exception, fragment):
    with pytest.raises(exception) as info:
        call()
    assert fragment in str(info.value)
