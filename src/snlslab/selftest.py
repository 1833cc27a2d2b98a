"""Built-in oracle suite: closed-form checks runnable on any grid size.

Each check compares a computed quantity against an independent oracle
(closed-form Gaussian evolution, exact plane-wave solution, operator
commutation identities, the second-moment identity of the driven linear
response) and reports name, tolerance, measured value, and verdict.

Tolerances come from a documented convergence study (see
``TOLERANCE_TABLE``): the default N=64 grid meets tight bounds; reduced
grids (N=8, 16, 32) run the same checks against relaxed tiers and carry
an explicit resolution warning, because a width-1 Gaussian is simply
not resolved at N=8 on a box of length 20.

``fault`` supports negative-control testing: ``"propagator_sign"``
flips the time argument fed to the free propagator inside the Gaussian
check, which must make that check fail on any grid — proving the suite
can actually catch a broken propagator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .grids import Field, GridSpec
from .noise import NoiseSpec, make_phi, sample_path, stochastic_convolution
from .norms import lp_norm
from .operators import apply_J, dilate, propagate
from .dynamics import step_deterministic

__all__ = ["SelftestCheck", "SelftestReport", "run_selftest", "TOLERANCE_TABLE"]

_FAULTS = (None, "propagator_sign")

# Calibrated by a convergence study on the box L=20 with width-1 data
# (measured at N = 8, 16, 32, 64, 256; each tier is the measured error
# rounded up with at least a 3x margin). Keys are the smallest N of a
# tier. The grid-resolution-limited checks are the Gaussian oracle and
# the weighted-operator identity; the rest are roundoff- or Monte-
# Carlo-limited and keep one tolerance everywhere.
TOLERANCE_TABLE: dict[str, dict[int, float]] = {
    "gaussian_propagator": {8: 1.0, 16: 1e-1, 32: 1e-5, 64: 1e-9},
    "unitarity": {8: 1e-12},
    "group_law": {8: 1e-12},
    "plane_wave": {8: 1e-10},
    "j_identity": {8: 1.0, 16: 5e-1, 32: 1e-4, 64: 1e-9},
    "dilation_commutation": {8: 1e-12},
    "ito_isometry": {8: 0.2},
    "mass_conservation": {8: 1e-11},
}


@dataclass(frozen=True)
class SelftestCheck:
    name: str
    tolerance: float
    measured: float
    passed: bool


@dataclass(frozen=True)
class SelftestReport:
    points: int
    checks: tuple[SelftestCheck, ...]
    warnings: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _tol(name: str, points: int) -> float:
    table = TOLERANCE_TABLE[name]
    tier = max(k for k in table if k <= points)
    return table[tier]


def _rel_l2(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sqrt(np.sum(np.abs(a - b) ** 2) / np.sum(np.abs(b) ** 2)))


def run_selftest(points: int = 64, fault: str | None = None) -> SelftestReport:
    """Run every oracle check on an N=points 1d grid; see module docs."""
    if fault not in _FAULTS:
        raise ValueError(f"fault must be one of {_FAULTS}, got {fault!r}")
    grid = GridSpec(1, points, 20.0)
    x = grid.axis_coords()
    checks: list[SelftestCheck] = []
    warnings: list[str] = []
    if points < 64:
        warnings.append(
            f"N={points} is below the resolved regime for width-1 data on L=20; "
            "relaxed tolerance tier in effect"
        )

    def record(name: str, measured: float) -> None:
        tol = _tol(name, points)
        checks.append(
            SelftestCheck(
                name=name,
                tolerance=tol,
                measured=float(measured),
                passed=bool(measured <= tol),
            )
        )

    # 1. Free Gaussian against the closed form: width parameter
    #    a(t) = w^2 - 2it, u(t) = w/sqrt(a) * exp(-x^2/(2a)).
    # t = 0.5 keeps the spread Gaussian (width sqrt(1+4t^2)) far from the
    # box edge, so the closed form on the line stays valid to ~1e-11.
    w0 = 1.0
    u0 = Field(grid, np.exp(-(x**2) / (2.0 * w0**2)).astype(complex))
    t = 0.5
    t_used = -t if fault == "propagator_sign" else t
    evolved = propagate(u0, t_used)
    a = w0**2 - 2.0j * t
    oracle = (w0 / np.sqrt(a)) * np.exp(-(x**2) / (2.0 * a))
    record(
        "gaussian_propagator",
        _rel_l2(evolved.values, oracle),
    )

    # 2. Unitarity of the free flow on a random band-limited field.
    rng = np.random.default_rng(20240117)
    vals = rng.standard_normal(points) + 1j * rng.standard_normal(points)
    u_rand = Field(grid, vals)
    n0 = lp_norm(u_rand, 2.0)
    record(
        "unitarity",
        abs(lp_norm(propagate(u_rand, 0.37), 2.0) - n0) / n0,
    )

    # 3. Group law S(a)S(b) = S(a+b).
    lhs = propagate(propagate(u_rand, 0.21), 0.34)
    rhs = propagate(u_rand, 0.55)
    record("group_law", _rel_l2(lhs.values, rhs.values))

    # 4. Plane wave: the splitting solves it exactly (both substeps are
    #    exact on a single Fourier mode with constant modulus).
    m = max(1, points // 4)
    k0 = 2.0 * math.pi * m / grid.box_length
    amp = 0.8
    pw = Field(grid, amp * np.exp(1j * k0 * x))
    dt, steps = 1e-2, 50
    cur = pw
    for _ in range(steps):
        cur = step_deterministic(cur, dt, 1.0)
    phase = (k0**2 + amp**2) * (dt * steps)
    oracle_pw = amp * np.exp(1j * (k0 * x + phase))
    record("plane_wave", _rel_l2(cur.values, oracle_pw))

    # 5. Weighted-operator identity: J(t)u = S(t)[x * S(-t)u].
    jt = 0.4
    direct = apply_J(u0, jt)[0]
    back = propagate(u0, -jt)
    weighted = Field(grid, x * back.values)
    via_flow = propagate(weighted, jt)
    record("j_identity", _rel_l2(direct.values, via_flow.values))

    # 6. Dilation commutation: D_beta S(beta^2 t) = S(t) D_beta.
    beta = 2.0
    td = 0.13
    lhs_d = dilate(propagate(u0, beta**2 * td), beta)
    rhs_d = propagate(dilate(u0, beta), td)
    record("dilation_commutation", _rel_l2(lhs_d.values, rhs_d.values))

    # 7. Second-moment identity of the driven linear response:
    #    E ||z(T)||^2 = ||phi||^2 * integral of g^2 (g constant here).
    spec0 = NoiseSpec(
        phi_kind="gaussian",
        phi_width=1.0,
        phi_amplitude=1.0,
        g_kind="constant",
        g_constant=1.0,
        seed=0,
    )
    phi = make_phi(spec0, grid)
    phi_sq = lp_norm(phi, 2.0) ** 2
    t_inf, dt_z, n_paths = 1.0, 1e-2, 128
    acc = 0.0
    for i in range(n_paths):
        spec_i = replace(spec0, seed=7000 + i)
        z = stochastic_convolution(sample_path(spec_i, t_inf, dt_z), phi, t_inf)
        acc += lp_norm(z, 2.0) ** 2
    record(
        "ito_isometry",
        abs(acc / n_paths - phi_sq * t_inf) / (phi_sq * t_inf),
    )

    # 8. Mass conservation over a short nonlinear run.
    cur = u0
    m0 = lp_norm(u0, 2.0) ** 2
    for _ in range(100):
        cur = step_deterministic(cur, 1e-3, 1.0)
    record(
        "mass_conservation",
        abs(lp_norm(cur, 2.0) ** 2 - m0) / m0,
    )

    return SelftestReport(points=points, checks=tuple(checks), warnings=tuple(warnings))
