"""Pseudo-spectral laboratory for a defocusing nonlinear Schrodinger
equation driven by additive spatially-smooth noise: integrators,
conservation-law and Ito-budget diagnostics, lens-transform machinery,
and scattering/growth verification experiments."""

__version__ = "0.1.0"
