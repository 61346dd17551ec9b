"""Finite-volume effective diffusivity of random walks among random conductances."""

__version__ = "0.1.0"

from .environment import (BondField, DisorderLaw, TorusGeometry,
                          resample_bonds, sample_environment)
from .operators import apply_generator, div_star, grad, local_drift, mean_rho
from .solver import SolveReport, dense_solve, solve_poisson, solve_resolvent
from .diffusivity import (EffectiveMatrix, corrector, effective_matrix,
                          effective_quadratic, identity_residuals)
from .spectral import (SpectralMeasure, diffusivity_via_spectrum,
                       semigroup_moment, semigroup_moment_mc, spectral_measure)
from .walker import msd_estimate
from .experiments import (CampaignConfig, concentration_study,
                          convergence_study, hamming_sensitivity,
                          resolvent_convergence, run_campaign, surface_tension)
