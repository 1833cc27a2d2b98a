"""Pseudo-spectral laboratory for a defocusing nonlinear Schrodinger
equation driven by additive spatially-smooth noise: integrators,
conservation-law and Ito-budget diagnostics, lens-transform machinery,
and scattering/growth verification experiments."""

__version__ = "0.1.0"

from .grids import (
    Field,
    GridSpec,
    boundary_mass_fraction,
    gradient,
    spectral_tail_fraction,
)
from .operators import (
    apply_J,
    dilate,
    modulate,
    propagate,
    pseudo_conformal_forward,
    pseudo_conformal_inverse,
)
from .norms import lp_norm, sigma_norm, sobolev_norm
from .noise import (
    NoisePath,
    NoiseSpec,
    TailFitResult,
    coarsen_path,
    convolution_series,
    g_sq_tail_bound,
    g_value,
    make_phi,
    path_seed,
    sample_path,
    stochastic_convolution,
    tail_convolution,
    tail_decay_fit,
    tail_sup_norms,
)
from .dynamics import (
    EQUATION_KINDS,
    BatchRun,
    SimConfig,
    Trajectory,
    evolve,
    evolve_batch,
    step_deterministic,
)
from .functionals import (
    FunctionalRecord,
    ItoBudget,
    compute_functionals,
    ito_energy_budget,
    ito_mass_budget,
    potential_integral,
)
from .analysis import (
    GrowthFitResult,
    RegimeReport,
    ScatteringReport,
    classify_regime,
    growth_fit,
    is_admissible,
    scattering_cauchy,
    strauss_exponent,
)
from .config import (
    ConfigError,
    ExperimentConfig,
    InitialSpec,
    load_config,
    make_initial,
    parse_config_text,
    with_path_seed,
)
from .ensemble import EnsembleError, EnsembleResult, run_ensemble, sample_ensemble_paths
from .reports import ReportIOError, emit_report, format_float, load_series_csv
from .selftest import SelftestReport, run_selftest

__all__ = [
    "__version__",
    # grids
    "Field",
    "GridSpec",
    "boundary_mass_fraction",
    "gradient",
    "spectral_tail_fraction",
    # operators
    "apply_J",
    "dilate",
    "modulate",
    "propagate",
    "pseudo_conformal_forward",
    "pseudo_conformal_inverse",
    # norms
    "lp_norm",
    "sigma_norm",
    "sobolev_norm",
    # noise
    "NoisePath",
    "NoiseSpec",
    "TailFitResult",
    "coarsen_path",
    "convolution_series",
    "g_sq_tail_bound",
    "g_value",
    "make_phi",
    "path_seed",
    "sample_path",
    "stochastic_convolution",
    "tail_convolution",
    "tail_decay_fit",
    "tail_sup_norms",
    # dynamics
    "EQUATION_KINDS",
    "BatchRun",
    "SimConfig",
    "Trajectory",
    "evolve",
    "evolve_batch",
    "step_deterministic",
    # functionals
    "FunctionalRecord",
    "ItoBudget",
    "compute_functionals",
    "ito_energy_budget",
    "ito_mass_budget",
    "potential_integral",
    # analysis
    "GrowthFitResult",
    "RegimeReport",
    "ScatteringReport",
    "classify_regime",
    "growth_fit",
    "is_admissible",
    "scattering_cauchy",
    "strauss_exponent",
    # config / harness
    "ConfigError",
    "ExperimentConfig",
    "InitialSpec",
    "load_config",
    "make_initial",
    "parse_config_text",
    "with_path_seed",
    "EnsembleError",
    "EnsembleResult",
    "run_ensemble",
    "sample_ensemble_paths",
    "ReportIOError",
    "emit_report",
    "format_float",
    "load_series_csv",
    "SelftestReport",
    "run_selftest",
]
