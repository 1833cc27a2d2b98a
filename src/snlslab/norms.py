"""Lebesgue, Sobolev and weighted spatial norms.

Spatial integrals use uniform quadrature with weight dx^dim, which is
spectrally accurate for smooth periodic data. The W^{1,2} norm goes
through Parseval with the <k> weight; other first-order norms sum the
Lp norms of the field and its spectral gradient components.
"""
from __future__ import annotations

import math

import numpy as np

from .grids import Field, GridSpec, gradients, row_sums

__all__ = ["lp_norm", "sobolev_norm", "sobolev_row_norms", "sigma_norm"]


def _check_exponent(p: float, name: str = "p") -> float:
    p = float(p)
    if math.isnan(p) or p < 1.0:
        raise ValueError(f"{name} must satisfy {name} >= 1 (or inf), got {p}")
    return p


def lp_norm(field: Field, p: float) -> float:
    """L^p norm; p = inf gives the max modulus."""
    p = _check_exponent(p)
    amp = np.abs(field.values)
    if math.isinf(p):
        return float(amp.max())
    if p == 2.0:
        return float(math.sqrt((amp * amp).sum() * field.grid.cell_volume))
    return float(((amp**p).sum() * field.grid.cell_volume) ** (1.0 / p))


def sobolev_norm(field: Field, p: float = 2.0, order: int = 1) -> float:
    """W^{order,p} norm for order in {0, 1}.

    order=1, p=2 is computed on the Fourier side as the l2 sum of
    (1+|k|^2)^{1/2} times the spectrum; other p are sobolev_row_norms
    of a batch of one.
    """
    p = _check_exponent(p)
    if order not in (0, 1):
        raise ValueError(f"order must be 0 or 1, got {order}")
    if order == 0:
        return lp_norm(field, p)
    if p == 2.0:
        hat = field.spectrum()
        weight = 1.0 + field.grid.k_squared()
        power = (hat.real**2 + hat.imag**2) * weight
        # Parseval: ||u||_{L2}^2 = (dx^dim / N^dim) * sum |u_hat|^2
        scale = field.grid.cell_volume / field.grid.num_cells
        return float(math.sqrt(power.sum() * scale))
    return sobolev_row_norms(field.grid, field.values[None], p)[0]


def sobolev_row_norms(grid: GridSpec, values: np.ndarray, p: float) -> list[float]:
    """W^{1,p} norm (p != 2) of every row of a (paths, *grid) array: the
    L^p norm of the row plus those of its gradient components, in that
    order. Each root is taken per row on a Python float, as lp_norm
    takes it, so a row's norm matches the norm of that row alone."""
    totals = [0.0] * len(values)
    for x in (values,) + gradients(grid, values):
        amp = np.abs(x)
        if math.isinf(p):
            terms = amp.reshape(len(amp), -1).max(axis=1).tolist()
        else:
            terms = [float(s * grid.cell_volume) ** (1.0 / p) for s in row_sums(amp**p)]
        totals = [total + term for total, term in zip(totals, terms)]
    return totals


def sigma_norm(field: Field) -> float:
    """H^1 norm plus the L2 norm of |x| times the field.

    Finite for any grid field; meaningful as a decay norm only when the
    boundary-mass guard holds (a plane wave gives a finite but purely
    truncation-dependent value).
    """
    weighted = Field(field.grid, np.sqrt(field.grid.radius_squared()) * field.values)
    return sobolev_norm(field, 2.0, 1) + lp_norm(weighted, 2.0)
