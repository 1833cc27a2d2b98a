"""Regime classification, scattering diagnostics, growth fits.

The classifier and the admissibility test are pure arithmetic on
(dimension, exponents). Everything else consumes simulated trajectories:
scattering diagnostics undo the free flow at checkpoints and measure
Cauchy differences, and growth fits regress ensemble means of running
suprema on a geometric horizon grid.

Conventions used throughout:

* ``two_sigma`` is the power in the nonlinearity |u|^{2 sigma} u, i.e.
  twice the ``sigma`` carried by simulation configs.
* A mixed-norm pair is written (space exponent p, time exponent q),
  so (2, inf) is the sup-in-time L^2 norm. Admissibility means
  2/q = n(1/2 - 1/p) with the single forbidden triple (p, q, n) =
  (inf, 2, 2).
* Decay envelopes are the power-law family <t>^{-alpha} = (1+t^2)^{-alpha/2}
  (noise.NoiseSpec); the little-o hypotheses of the scattering statements
  translate to the strict thresholds alpha > 5/2 (L^2 and weighted-space
  scattering) and alpha > 1 (H^1 scattering).
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .grids import Field
from .noise import partition_index
from .norms import lp_row_norms, sigma_row_norms, sobolev_row_norms
from .operators import propagate

__all__ = [
    "ALPHA_H1",
    "ALPHA_WEIGHTED",
    "THEOREM_NAMES",
    "GROWTH_FIT_PATHS",
    "GROWTH_SERIES",
    "TheoremCheck",
    "RegimeReport",
    "strauss_exponent",
    "classify_regime",
    "is_admissible",
    "ScatteringReport",
    "check_scatter_args",
    "scattering_cauchy",
    "GrowthFitResult",
    "check_geometric",
    "growth_fit",
]

ALPHA_WEIGHTED = 2.5
ALPHA_H1 = 1.0
#: the scattering statements classify_regime checks: L^2, weighted-space, H^1
THEOREM_NAMES = ("short_range_L2", "sigma_scattering", "h1_scattering")
#: the paths a growth fit wants for a stable ensemble mean (growth_fit's default floor)
GROWTH_FIT_PATHS = 200
#: the series a growth-fit ensemble records: growth_fit reads pc_energy, the
#: ensemble's mass budget mass
GROWTH_SERIES = ("mass", "pc_energy")

_ROW_NORMS = {
    "L2": lambda grid, rows: lp_row_norms(grid, rows, 2.0),
    "H1": lambda grid, rows: sobolev_row_norms(grid, rows, 2.0),
    "Sigma": sigma_row_norms,
}
_NORM_KINDS = tuple(_ROW_NORMS)


def strauss_exponent(n: int) -> float:
    """Positive threshold exponent (2-n+sqrt(n^2+12n+4))/(2n).

    Evaluates to exactly 1.0 for n=3 (the discriminant is 49) and to
    sqrt(2) for n=2.
    """
    if int(n) != n or n < 1:
        raise ValueError(f"dimension must be a positive integer, got {n}")
    n = int(n)
    return (2.0 - n + math.sqrt(n * n + 12.0 * n + 4.0)) / (2.0 * n)


@dataclass(frozen=True)
class TheoremCheck:
    """Applicability record for one scattering statement.

    ``window_ok`` is the nonlinearity-window test alone, ``decay_ok``
    the noise-decay test alone; ``applies`` is their conjunction. When
    ``small_data_required`` is set the window test passed only through
    the mass-critical boundary case, which carries a smallness
    condition on the data that cannot be checked from exponents.
    """

    name: str
    window_ok: bool
    decay_ok: bool
    required_alpha: float
    applies: bool
    small_data_required: bool = False


@dataclass(frozen=True)
class RegimeReport:
    """Full classification of one (n, 2*sigma, alpha) triple."""

    dim: int
    two_sigma: float
    alpha: float
    strauss: float
    mass_criticality: str  # sub | critical | super
    energy_subcritical_sup: float  # 4/(n-2) for n >= 3, inf otherwise
    regime_class: str
    required_alpha: float | None
    small_data_flag: bool
    checks: tuple[TheoremCheck, ...]

    def as_dict(self) -> dict:
        doc = asdict(self)
        doc["checks"] = list(doc["checks"])
        return doc


_CRIT_TOL = 1e-12


def classify_regime(dim: int, two_sigma: float, alpha: float) -> RegimeReport:
    """Classify the scattering regime of a defocusing power nonlinearity.

    The class label resolves in this order:

    1. ``energy_critical_excluded`` when n >= 3 and 2*sigma >= 4/(n-2);
    2. ``long_range`` when 2*sigma <= 2/n (no scattering even in L^2,
       regardless of alpha);
    3. otherwise the strongest statement whose window AND decay
       hypothesis both hold: weighted-space scattering, then L^2
       scattering, then H^1 scattering;
    4. if no statement fully applies (alpha too small), the label
       falls back to window membership alone in the same order, and
       the per-statement checks show which hypothesis failed.

    The weighted-space window at the mass-critical boundary
    2*sigma = 4/n (n = 1, 2) is admitted with ``small_data_flag`` set:
    the statement there carries a data-smallness condition that cannot
    be decided from exponents.
    """
    if int(dim) != dim or dim < 1:
        raise ValueError(f"dimension must be a positive integer, got {dim}")
    dim = int(dim)
    two_sigma = float(two_sigma)
    alpha = float(alpha)
    if not two_sigma > 0.0:
        raise ValueError(f"two_sigma must be positive, got {two_sigma}")

    strauss = strauss_exponent(dim)
    mass_line = 4.0 / dim
    sup = 4.0 / (dim - 2) if dim >= 3 else math.inf

    if abs(two_sigma - mass_line) <= _CRIT_TOL:
        criticality = "critical"
    elif two_sigma < mass_line:
        criticality = "sub"
    else:
        criticality = "super"

    mass_critical = criticality == "critical"
    decay_weighted = alpha > ALPHA_WEIGHTED
    decay_h1 = alpha > ALPHA_H1
    l2_name, sigma_name, h1_name = THEOREM_NAMES

    # L^2 scattering: 2/n < 2*sigma < 4/n, decay stronger than t^{-5/2}.
    l2_window = (2.0 / dim < two_sigma < mass_line) and not mass_critical
    l2_check = TheoremCheck(
        name=l2_name,
        window_ok=l2_window,
        decay_ok=decay_weighted,
        required_alpha=ALPHA_WEIGHTED,
        applies=l2_window and decay_weighted,
    )

    # Weighted-space scattering: strauss < 2*sigma < sup, the
    # mass-critical point removed for n <= 2 unless the data is small.
    if dim >= 3:
        sigma_window = strauss < two_sigma < sup
        sigma_small = False
    else:
        sigma_window = strauss < two_sigma and not mass_critical
        sigma_small = strauss < two_sigma and mass_critical
    sigma_check = TheoremCheck(
        name=sigma_name,
        window_ok=sigma_window or sigma_small,
        decay_ok=decay_weighted,
        required_alpha=ALPHA_WEIGHTED,
        applies=(sigma_window or sigma_small) and decay_weighted,
        small_data_required=sigma_small,
    )

    # H^1 scattering: mass-critical through energy-subcritical,
    # decay stronger than t^{-1}.
    h1_window = (
        two_sigma > mass_line - _CRIT_TOL and two_sigma < sup
    )
    h1_check = TheoremCheck(
        name=h1_name,
        window_ok=h1_window,
        decay_ok=decay_h1,
        required_alpha=ALPHA_H1,
        applies=h1_window and decay_h1,
    )

    checks = (sigma_check, l2_check, h1_check)

    if dim >= 3 and two_sigma >= sup - _CRIT_TOL:
        regime_class = "energy_critical_excluded"
        required: float | None = None
    elif two_sigma <= 2.0 / dim + _CRIT_TOL:
        regime_class = "long_range"
        required = None
    else:
        # the first statement that fully applies, else the first whose window holds
        chosen = None
        for check in checks:
            if check.applies:
                chosen = check
                break
            if chosen is None and check.window_ok:
                chosen = check
        if chosen is None:  # pragma: no cover - windows tile (2/n, sup)
            raise AssertionError("classification windows failed to tile")
        regime_class = chosen.name
        required = chosen.required_alpha

    return RegimeReport(
        dim=dim,
        two_sigma=two_sigma,
        alpha=alpha,
        strauss=strauss,
        mass_criticality=criticality,
        energy_subcritical_sup=sup,
        regime_class=regime_class,
        required_alpha=required,
        small_data_flag=sigma_check.small_data_required,
        checks=checks,
    )


def is_admissible(p: float, q: float, n: int) -> bool:
    """Whether (space p, time q) is an admissible mixed-norm pair.

    True iff 2/q = n(1/2 - 1/p), with the single forbidden endpoint
    (p, q, n) = (inf, 2, 2). Exponents below 2 are never admissible.
    """
    p = float(p)
    q = float(q)
    if int(n) != n or n < 1:
        raise ValueError(f"dimension must be a positive integer, got {n}")
    if p < 2.0 or q < 2.0:
        return False
    if math.isinf(p) and q == 2.0 and n == 2:
        return False
    lhs = 0.0 if math.isinf(q) else 2.0 / q
    rhs = n * (0.5 - (0.0 if math.isinf(p) else 1.0 / p))
    return abs(lhs - rhs) <= 1e-12


# ---------------------------------------------------------------------------
# Scattering diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScatteringReport:
    """Cauchy diagnostics for the free-flow-compensated field.

    ``differences[i, j]`` is the chosen norm of w(t_i) - w(t_j) where
    w(t) undoes the free propagator at time t. ``consecutive`` is its
    first superdiagonal; ``monotone_decay`` states whether consecutive
    differences are non-increasing. ``limit_candidate`` is w at the
    last checkpoint.
    """

    checkpoint_times: tuple[float, ...]
    norm_kind: str
    differences: np.ndarray
    consecutive: np.ndarray
    monotone_decay: bool
    limit_candidate: Field


def check_scatter_args(norm_kind: str, checkpoints: Sequence[float]) -> list[float]:
    """Validate a scatter test's norm and checkpoints (at least 3,
    non-negative, strictly increasing); returns the checkpoints."""
    if norm_kind not in _NORM_KINDS:
        raise ValueError(f"norm_kind must be one of {_NORM_KINDS}, got {norm_kind!r}")
    times = [float(t) for t in checkpoints]
    if len(times) < 3:
        raise ValueError(f"need at least 3 checkpoints, got {len(times)}")
    if not times[0] >= 0.0 or any(not b > a for a, b in zip(times, times[1:])):
        raise ValueError(f"checkpoints must be non-negative and strictly increasing, got {times}")
    return times


def scattering_cauchy(
    trajectory,
    norm_kind: str,
    checkpoint_times: Sequence[float],
) -> ScatteringReport:
    """Measure whether the free-flow-compensated field is Cauchy.

    At each checkpoint t the stored snapshot is propagated backward,
    w(t) = S(-t) u(t); for a purely linear evolution w is constant to
    rounding, so all differences vanish. Scattering shows up as
    consecutive differences decaying toward zero; its absence (the
    long-range regime) as a floor the differences do not go below.
    """
    times = check_scatter_args(norm_kind, checkpoint_times)
    compensated = [propagate(trajectory.snapshot_at(t), -t) for t in times]
    grid, row_norms = compensated[0].grid, _ROW_NORMS[norm_kind]
    pulled = np.stack([w.values for w in compensated])

    m = len(times)
    first, second = np.triu_indices(m, 1)  # every pair difference is one row
    differences = np.zeros((m, m))
    differences[first, second] = differences[second, first] = row_norms(
        grid, pulled[first] - pulled[second])
    consecutive = differences.diagonal(1).copy()
    # Tolerate rounding-level wiggle when differences sit at machine zero.
    slack = 1e-12 * max(row_norms(grid, pulled))
    monotone = bool(
        np.all(consecutive[1:] <= consecutive[:-1] + slack)
    )
    return ScatteringReport(
        checkpoint_times=tuple(times),
        norm_kind=norm_kind,
        differences=differences,
        consecutive=consecutive,
        monotone_decay=monotone,
        limit_candidate=compensated[-1],
    )


# ---------------------------------------------------------------------------
# Growth-rate fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GrowthFitResult:
    """Power-law fit of an ensemble mean of running suprema."""

    tau_grid: tuple[float, ...]
    mean_running_sup: np.ndarray
    slope: float
    intercept: float


def check_geometric(tau_grid: Sequence[float]) -> list[float]:
    """Validate a growth fit's horizon grid: at least 3 positive,
    strictly increasing points with a constant ratio."""
    taus = [float(t) for t in tau_grid]
    if len(taus) < 3:
        raise ValueError(f"tau_grid needs at least 3 points, got {len(taus)}")
    if not all(t > 0.0 and math.isfinite(t) for t in taus):
        raise ValueError(f"tau_grid entries must be positive and finite, got {taus}")
    ratios = [b / a for a, b in zip(taus, taus[1:])]
    if any(r <= 1.0 for r in ratios):
        raise ValueError(f"tau_grid must be strictly increasing, got {taus}")
    base = ratios[0]
    if any(abs(r / base - 1.0) > 1e-6 for r in ratios):
        raise ValueError(f"tau_grid must be geometric (constant ratio), got {taus}")
    return taus


def growth_fit(
    trajectories: Sequence,
    tau_grid: Sequence[float],
    min_paths: int = GROWTH_FIT_PATHS,
) -> GrowthFitResult:
    """Fit the growth exponent of the quadratic-weight energy.

    For each path the running supremum of the pseudo-conformal energy
    up to horizon tau is read at tau's step on the recorded grid (of step
    times[1] - times[0], by noise.partition_index); the ensemble mean
    of that supremum is regressed as log(mean) against log(1 + tau)
    over a geometric horizon grid. The returned slope estimates the
    exponent beta in mean-sup ~ (1+tau)^beta. Upper-bound statements
    are one-sided, so callers should only reject slopes that exceed the
    predicted exponent plus a tolerance.
    """
    taus = check_geometric(tau_grid)
    if len(trajectories) < min_paths:
        raise ValueError(
            f"growth fit needs at least {min_paths} paths, got {len(trajectories)}"
        )
    means = np.zeros(len(taus))
    for traj in trajectories:
        series = np.asarray(traj.series["pc_energy"], dtype=float)
        if np.any(~np.isfinite(series)):
            raise ValueError(
                "pc_energy series contains non-finite entries; growth fits "
                "need physical-frame trajectories recorded in full mode"
            )
        times = np.asarray(traj.times, dtype=float)
        idx = ([partition_index(tau, times[1] - times[0], "tau_grid") for tau in taus]
               if len(times) > 1 else [len(times)])
        if idx[-1] >= len(times):
            raise ValueError(
                f"trajectory horizon {times[-1]} is shorter than the last "
                f"grid point {taus[-1]}"
            )
        means += np.maximum.accumulate(series)[idx]
    means /= len(trajectories)
    slope, intercept = np.polyfit(np.log1p(taus), np.log(means), 1)
    return GrowthFitResult(
        tau_grid=tuple(taus),
        mean_running_sup=means,
        slope=float(slope),
        intercept=float(intercept),
    )
