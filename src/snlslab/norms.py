"""Lebesgue, Sobolev and weighted spatial norms.

Spatial integrals use uniform quadrature with weight dx^dim, which is
spectrally accurate for smooth periodic data. The W^{1,2} norm goes
through Parseval with the <k> weight; other first-order norms sum the
Lp norms of the field and its spectral gradient components.

Each norm is written once, as a row norm of a (paths, *grid) array
(lp_row_norms, sobolev_row_norms, sigma_row_norms: one Python float per
row, each root taken on a Python float, so a row's norm is bit-identical
to that row's alone); lp_norm, sobolev_norm and sigma_norm are their
batches of one.
"""
from __future__ import annotations

import math

import numpy as np

from .grids import Field, GridSpec, gradients, row_sums

__all__ = ["lp_norm", "lp_row_norms", "sobolev_norm", "sobolev_row_norms", "sigma_norm",
           "sigma_row_norms"]


def _check_exponent(p: float, name: str = "p") -> float:
    p = float(p)
    if math.isnan(p) or p < 1.0:
        raise ValueError(f"{name} must satisfy {name} >= 1 (or inf), got {p}")
    return p


def lp_row_norms(grid: GridSpec, rows: np.ndarray, p: float) -> list[float]:
    """L^p norm of every row of a (paths, *grid) array; p = inf: max modulus."""
    p = _check_exponent(p)
    amp = np.abs(rows)
    if math.isinf(p):
        return amp.reshape(len(amp), -1).max(axis=1).tolist()
    if p == 2.0:
        return [math.sqrt(s * grid.cell_volume) for s in row_sums(amp * amp)]
    return [float(s * grid.cell_volume) ** (1.0 / p) for s in row_sums(amp**p)]


def sobolev_row_norms(grid: GridSpec, rows: np.ndarray, p: float) -> list[float]:
    """W^{1,p} norm of every row of a (paths, *grid) array: for p = 2 the
    l2 sum of (1+|k|^2)^{1/2} times the spectrum, for other p the L^p
    norm of the row plus those of its gradient components, in that order."""
    p = _check_exponent(p)
    if p == 2.0:
        hat = grid.fft(rows)
        power = (hat.real**2 + hat.imag**2) * (1.0 + grid.k_squared())
        # Parseval: ||u||_{L2}^2 = (dx^dim / N^dim) * sum |u_hat|^2
        scale = grid.cell_volume / grid.num_cells
        return [math.sqrt(s * scale) for s in row_sums(power)]
    totals = [0.0] * len(rows)
    for x in (rows,) + gradients(grid, rows):
        totals = [total + term for total, term in zip(totals, lp_row_norms(grid, x, p))]
    return totals


def sigma_row_norms(grid: GridSpec, rows: np.ndarray) -> list[float]:
    """H^1 norm plus the L2 norm of |x| times the field, for every row of
    a (paths, *grid) array. Finite for any grid field; meaningful as a
    decay norm only when the boundary-mass guard holds (a plane wave
    gives a finite but purely truncation-dependent value)."""
    weighted = lp_row_norms(grid, np.sqrt(grid.radius_squared()) * rows, 2.0)
    return [h1 + w for h1, w in zip(sobolev_row_norms(grid, rows, 2.0), weighted)]


def lp_norm(field: Field, p: float) -> float:
    """L^p norm; p = inf gives the max modulus."""
    return lp_row_norms(field.grid, field.values[None], p)[0]


def sobolev_norm(field: Field, p: float = 2.0) -> float:
    """W^{1,p} norm; sobolev_row_norms of a batch of one."""
    return sobolev_row_norms(field.grid, field.values[None], p)[0]


def sigma_norm(field: Field) -> float:
    """sigma_row_norms of a batch of one."""
    return sigma_row_norms(field.grid, field.values[None])[0]
