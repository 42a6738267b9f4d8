"""Discrete bilaplacian interface model: solvers, samplers and scaling checks.

Submodules:
    lattice   domain discretization, classification, difference stencils
    green     precision matrix, covariance solves, bound reports
    boxsolve  centred boxes: sine-coefficient PCG, its permutation wedge, the
              direct per-sector solve
    torus     the torus capacitance solve by parity sector of every domain
              that is not a centred box, in any d
    sampler   exact Gaussian sampling, simplex interpolation, maxima
    spectral  eigenpairs, dual Sobolev norms, random series, pairings
    thomee    finite-difference biharmonic Dirichlet solver and its error bound
    infvol    infinite-volume covariance: Fourier quadrature and walk oracle
    cli       experiment recipes and artifact export
"""

__version__ = "0.1.0"

from .lattice import Ball, Box, GridDomain, classify, stencil_weights, verify_b2star
from .green import assemble_precision, green_full, solve_green_column

__all__ = [
    "Ball",
    "Box",
    "GridDomain",
    "classify",
    "stencil_weights",
    "verify_b2star",
    "assemble_precision",
    "green_full",
    "solve_green_column",
    "__version__",
]
