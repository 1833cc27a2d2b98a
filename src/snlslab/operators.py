"""Free propagator, weighted derivatives, and box-changing symmetries.

Conventions, fixed once here and relied on everywhere else:

* propagate(u, t) applies the Fourier multiplier exp(+i t |k|^2), the
  flow of  i u_t - Lap u = 0, as GridSpec.free_phase(t) forms it.
* modulate(u, theta) multiplies by exp(i theta |x|^2 / 4).
* dilate(u, beta) is a pure relabelling: same samples times beta^{dim/2}
  on a grid with box length L/beta.
* The lens transform of a field at physical time s is
  modulate(dilate(u, 1+s), 1+s) viewed at frame time t = s/(1+s); its
  inverse composes the reciprocal dilation with the opposite phase.

J(t) = x - 2it*grad satisfies J(t)u = S(t)(x * S(-t)u) and
J(t) = M_{-1/t} (-2it*grad) M_{1/t} under these conventions.
"""
from __future__ import annotations

import math

import numpy as np

from .grids import Field, GridSpec, gradients

__all__ = [
    "propagate",
    "apply_J",
    "dilate",
    "modulate",
    "pseudo_conformal_forward",
    "pseudo_conformal_inverse",
]


def propagate(field: Field, t: float) -> Field:
    """Free flow over time t (exact on the grid, unitary)."""
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"propagation time must be finite, got {t}")
    hat = field.spectrum() * field.grid.free_phase(t)
    return Field(field.grid, field.grid.ifft(hat))


def apply_J(field: Field, t: float) -> tuple[Field, ...]:
    """Components of (x - 2it*grad)u, one field per axis."""
    t = float(t)
    grid = field.grid
    derivs = gradients(grid, field.values[None])
    return tuple(Field(grid, x * field.values - 2j * t * d[0])
                 for x, d in zip(grid.coords(), derivs))


def dilate(field: Field, beta: float) -> Field:
    """L2-isometric dilation u(x) -> beta^{dim/2} u(beta x).

    Implemented as a relabelling: identical sample layout scaled by
    beta^{dim/2} on the grid with box length L/beta.
    """
    beta = float(beta)
    if not (math.isfinite(beta) and beta > 0):
        raise ValueError(f"dilation factor must be positive and finite, got {beta}")
    grid = field.grid
    new_grid = GridSpec(grid.dim, grid.points, grid.box_length / beta)
    return Field(new_grid, field.values * beta ** (grid.dim / 2.0))


def modulation_guard_ok(grid: GridSpec, theta: float) -> bool:
    """True when the quadratic phase is resolved: |theta| * (L/2) * dx < pi."""
    return abs(theta) * (grid.box_length / 2.0) * grid.dx < math.pi


def modulate(field: Field, theta: float) -> Field:
    """Quadratic phase modulation exp(i theta |x|^2 / 4).

    Refuses parameters whose phase gradient exceeds the Nyquist rate at
    the box edge, where the sampled phase would alias.
    """
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError(f"modulation parameter must be finite, got {theta}")
    if not modulation_guard_ok(field.grid, theta):
        raise ValueError(
            f"modulation aliases: |theta|*(L/2)*dx = "
            f"{abs(theta) * field.grid.box_length / 2.0 * field.grid.dx:.6g} >= pi"
        )
    phase = np.exp(0.25j * theta * field.grid.radius_squared())
    return Field(field.grid, phase * field.values)


def pseudo_conformal_forward(field: Field, s: float) -> tuple[Field, float]:
    """Lens transform of a physical-frame field at time s >= 0.

    Returns the transformed field (living on the box shrunk by 1+s) and
    its frame time t = s/(1+s). At s=0 this is a pure modulation.
    """
    s = float(s)
    if not (math.isfinite(s) and s >= 0):
        raise ValueError(f"source time must satisfy s >= 0, got {s}")
    beta = 1.0 + s
    out = modulate(dilate(field, beta), beta)
    return out, s / (1.0 + s)


def pseudo_conformal_inverse(field: Field, t: float) -> tuple[Field, float]:
    """Inverse lens transform of a frame field at time t in [0, 1).

    Returns the physical-frame field (on the box grown by 1/(1-t)) and
    its physical time s = t/(1-t). Exact algebraic inverse of the
    forward map: the dilation factors and phases cancel identically.
    """
    t = float(t)
    if not (math.isfinite(t) and 0.0 <= t < 1.0):
        raise ValueError(f"frame time must lie in [0, 1), got {t}")
    s = t / (1.0 - t)
    beta = 1.0 + s
    out = modulate(dilate(field, 1.0 / beta), -1.0 / beta)
    return out, s

