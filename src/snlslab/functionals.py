"""Monitored functionals of simulated fields and discrete Ito budgets.

Conventions (fixed once, used consistently across the package):

* mass        M = ∫|u|²
* Hamiltonian H = ½‖∇u‖² + (1/(2σ+2))‖u‖^{2σ+2}_{L^{2σ+2}}  (defocusing)
* virial      V = ∫|x|²|u|²
* virial flux G = Im ∫ u x·∇ū  — along the noise-free flow dV/dt = 4G
* quadratic-weight (pseudo-conformal) energy at time t, with w = 1+t:
      E = ‖(x − 2iw∇)u‖² + (4/(σ+1)) w² ‖u‖^{2σ+2}
  which decomposes exactly as E = V − 4wG + 8w²H.

In the lens-transformed frame on t ∈ [0,1) the monitored energies are
      Ẽ₁ = 4‖∇ũ‖² + (4/(σ+1)) (1−t)^{σn−2} ‖ũ‖^{2σ+2}
      Ẽ₂ = (1−t)^{2−σn} Ẽ₁,
and Ẽ₁(ũ(t)) equals E(u(s)) at s = t/(1−t) when ũ is the transform of u.

The Ito budgets certify a trajectory pathwise: the recorded change of a
functional must equal its deterministic drift plus Ito correction plus
discrete martingale sums, up to a residual that shrinks ~linearly in dt.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

import numpy as np

from .grids import (
    Field,
    GridSpec,
    gradient,  # noqa: F401  perfbench/tracing.py wraps functionals.gradient
    gradients,
    row_sums,
)

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids a cycle
    from .dynamics import Trajectory

__all__ = [
    "FunctionalRecord",
    "ItoBudget",
    "compute_functionals",
    "functional_columns",
    "ito_mass_budget",
    "ito_energy_budget",
]

_FRAMES = ("physical", "transformed")

#: the FunctionalRecord columns each frame leaves NaN
FRAME_UNSET = {
    "physical": ("e1_tilde", "e2_tilde"),
    "transformed": ("pc_energy", "pc_energy_decomp"),
}


@dataclass(frozen=True)
class FunctionalRecord:
    """All monitored scalars of one field at one time.

    Physical-frame records carry NaN in the transformed-frame slots and
    vice versa; every other field is always filled.
    """

    t: float
    mass: float
    hamiltonian: float
    gradient_sq: float
    potential: float
    virial: float
    virial_flux: float
    pc_energy: float
    pc_energy_decomp: float
    e1_tilde: float
    e2_tilde: float

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


def functional_columns(
    grid: GridSpec,
    vals: np.ndarray,
    t: float | np.ndarray,
    sigma: float,
    frame: str = "physical",
    rho: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """Every monitored functional of each row of a (rows, *grid) array
    at time `t` (one time for every row, or one per row): one (rows,)
    array per FunctionalRecord column but t.

    The quadratic-weight energy is computed twice — directly from the
    (x − 2iw∇) operator and through the V, G, H decomposition — so the
    two routes cross-check each other in every recorded row. Every grid
    sum runs over one C-contiguous row, so a row's values do not depend
    on its batch. rho, if given, is |vals|² already formed by the
    caller; it is only read.
    """
    if frame not in _FRAMES:
        raise ValueError(f"frame must be one of {_FRAMES}, got {frame!r}")
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    t = np.broadcast_to(np.asarray(t, dtype=float), (len(vals),))
    if frame == "transformed":
        outside = ~((0.0 <= t) & (t < 1.0))
        if outside.any():
            raise ValueError(f"transformed-frame time must lie in [0, 1), got {t[outside][0]}")
    dvol = grid.cell_volume
    if rho is None:
        rho = vals.real**2 + vals.imag**2

    mass = row_sums(rho) * dvol
    virial = row_sums(grid.radius_squared() * rho) * dvol
    potential = row_sums(rho ** (sigma + 1.0)) * dvol

    grads = gradients(grid, vals)
    grad_sq = 0.0
    flux = 0.0
    for x_j, gv in zip(grid.coords(), grads):
        grad_sq += row_sums(gv.real**2 + gv.imag**2) * dvol
        # Im ∫ u x_j conj(∂_j u). Complex-multiply operand order is part of
        # the bytes (not bitwise commutative under FMA), and `vals * gv.conj()`
        # lets numpy's temporary elision swap it from 256 KiB up; np.multiply
        # keeps u first at every batch size.
        flux += row_sums(x_j * np.multiply(vals, gv.conj()).imag) * dvol
    hamiltonian = 0.5 * grad_sq + potential / (2.0 * sigma + 2.0)

    cols = {
        "mass": mass,
        "hamiltonian": hamiltonian,
        "gradient_sq": grad_sq,
        "potential": potential,
        "virial": virial,
        "virial_flux": flux,
    }
    if frame == "physical":
        w = 1.0 + t
        two_iw = (2.0j * w).reshape((-1,) + (1,) * grid.dim)
        j_sq = 0.0
        for x_j, gv in zip(grid.coords(), grads):
            jv = x_j * vals - two_iw * gv
            j_sq += row_sums(jv.real**2 + jv.imag**2) * dvol
        cols["pc_energy"] = j_sq + 4.0 / (sigma + 1.0) * w * w * potential
        cols["pc_energy_decomp"] = virial - 4.0 * w * flux + 8.0 * w * w * hamiltonian
    else:
        power = sigma * grid.dim - 2.0
        # libm pow on Python floats: numpy's vectorised power may round differently
        rest = [1.0 - t_r for t_r in t.tolist()]
        e1 = 4.0 * grad_sq + 4.0 / (sigma + 1.0) * np.array([r**power for r in rest]) * potential
        cols["e1_tilde"] = e1
        cols["e2_tilde"] = np.array([r ** (-power) for r in rest]) * e1
    for name in FRAME_UNSET[frame]:
        cols[name] = np.full(len(vals), math.nan)
    return cols


def compute_functionals(
    field: Field,
    t: float,
    sigma: float,
    frame: str = "physical",
) -> FunctionalRecord:
    """Evaluate every monitored functional of `field` at time `t`: the
    batch of one of functional_columns."""
    cols = functional_columns(field.grid, field.values[None], t, sigma, frame)
    return FunctionalRecord(t=float(t), **{name: float(col[0]) for name, col in cols.items()})


@dataclass(frozen=True)
class ItoBudget:
    """Discrete budget of one functional over a trajectory.

    change = F(T) − F(0); residual = change − flow_drift − ito_drift −
    martingale. relative_residual scales by the largest term in play so
    halving studies are comparable across runs.
    """

    functional: str
    change: float
    flow_drift: float
    ito_drift: float
    martingale: float
    residual: float
    relative_residual: float

    @staticmethod
    def build(functional: str, change: float, flow: float, ito: float, mart: float) -> "ItoBudget":
        residual = change - flow - ito - mart
        scale = max(abs(change), abs(flow), abs(ito), abs(mart), 1e-30)
        return ItoBudget(
            functional=functional,
            change=change,
            flow_drift=flow,
            ito_drift=ito,
            martingale=mart,
            residual=residual,
            relative_residual=residual / scale,
        )


def _require_budget_keys(trajectory: "Trajectory", keys: tuple[str, ...], what: str) -> None:
    missing = [k for k in keys if k not in trajectory.budget]
    if missing:
        raise ValueError(
            f"trajectory does not carry the {what} budget sums {missing}; "
            f"it was run with equation={trajectory.config.equation!r}, "
            f"record={trajectory.config.record!r}"
        )


def ito_mass_budget(trajectory: "Trajectory") -> ItoBudget:
    """M(T) − M(0) against 2 Im Σ⟨u(t_k),φ⟩ g_k ΔB_k + ‖φ‖² Σ g_k² Δt.

    Noise-free trajectories have zero drift and martingale, so the
    residual is the raw conservation defect.
    """
    _require_budget_keys(trajectory, ("mass_martingale", "mass_drift"), "mass")
    m = trajectory.series["mass"]
    return ItoBudget.build(
        "mass",
        change=float(m[-1] - m[0]),
        flow=0.0,
        ito=float(trajectory.budget["mass_drift"][-1]),
        mart=float(trajectory.budget["mass_martingale"][-1]),
    )


def ito_energy_budget(trajectory: "Trajectory") -> ItoBudget:
    """Full budget of the quadratic-weight energy.

    E(T) − E(0) must equal the flow drift
    (4(2−nσ)/(σ+1)) ∫ (1+s) ‖u‖^{2σ+2} ds plus the Ito correction ∫T₁ ds
    plus the martingale Σ T₂(t_k) ΔB_k.
    """
    _require_budget_keys(
        trajectory,
        ("energy_flow_drift", "energy_ito_drift", "energy_martingale"),
        "energy",
    )
    if "pc_energy" not in trajectory.series:
        raise ValueError("trajectory carries no pc_energy series (light recording?)")
    e = trajectory.series["pc_energy"]
    return ItoBudget.build(
        "pc_energy",
        change=float(e[-1] - e[0]),
        flow=float(trajectory.budget["energy_flow_drift"][-1]),
        ito=float(trajectory.budget["energy_ito_drift"][-1]),
        mart=float(trajectory.budget["energy_martingale"][-1]),
    )
