"""Exact spectral diagnostics of -L on small tori.

The spectral measure of the local drift distributes its mean-square mass
over the eigenmodes of -L; the effective quadratic form can then be read
off as the Voigt term 2 sum_i mean(xi_i) v_i^2 minus 2 * integral of
dweight / r.  spectral_measure does the one dense symmetric
eigendecomposition; diffusivity_via_spectrum and semigroup_moment read
their values off the SpectralMeasure it returns.  This is a verification
oracle, not a production path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .environment import BondField
from .operators import local_drift, mean_rho
from .solver import _check_resolved, dense_operator
from .walker import _mean_se, walk_batch


@dataclass
class SpectralMeasure:
    """Atoms (eigenvalue, weight) of the drift's spectral measure, ascending;
    every rate is positive, so atom 0, the constants, is the whole kernel.

    voigt is the Voigt term 2 sum_i mean(xi_i) v_i^2 of the same (fld, v),
    an upper bound of (v, D_N v).
    """

    eigenvalues: np.ndarray
    weights: np.ndarray
    voigt: float

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    @property
    def max_eigenvalue(self) -> float:
        return float(self.eigenvalues[-1])

    @property
    def kernel_mass(self) -> float:
        return float(self.weights[0])


def spectral_measure(fld: BondField, v) -> SpectralMeasure:
    """Full eigendecomposition of -L projected onto the drift.

    Weights are normalized so that the total mass is mean_rho(drift^2);
    the drift is orthogonal to constants, so the kernel atom carries no
    mass beyond rounding.
    """
    v = np.asarray(v, dtype=float)
    phi = local_drift(fld, v).reshape(-1)
    mat = dense_operator(fld)
    eigvals, vecs = np.linalg.eigh(mat)
    coeffs = vecs.T @ phi
    weights = coeffs ** 2 / phi.size
    voigt = float(2.0 * sum(mean_rho(fld.rates[i]) * v[i] ** 2
                            for i in range(fld.dimension)))
    return SpectralMeasure(np.maximum(eigvals, 0.0), weights, voigt)


def diffusivity_via_spectrum(measure: SpectralMeasure) -> float:
    """(v, D_N v) from the spectral route.

    voigt  -  2 sum over the nonkernel atoms 1: of weight / r, to about
    eps * lambda_max / lambda_1 relative; SizeGuardError if it exceeds 1.
    """
    _check_resolved(measure.eigenvalues)
    drift_term = float((measure.weights[1:] / measure.eigenvalues[1:]).sum())
    return measure.voigt - 2.0 * drift_term


def semigroup_moment(measure: SpectralMeasure, n: float) -> float:
    """sum of weight * exp(-n * eigenvalue); total mass at n = 0."""
    if not 0 <= n < np.inf:
        raise ValueError(f"moment order must be finite and nonnegative, got {n}")
    return float((measure.weights * np.exp(-n * measure.eigenvalues)).sum())


def semigroup_moment_mc(fld: BondField, v, n: float, walkers: int,
                        seed: int = 0) -> tuple[float, float]:
    """Monte Carlo estimate of the semigroup moment with standard error.

    Unbiased: average of drift(x0) * drift(X_n) over uniform start sites
    and walk realizations on the torus.  At n = 0 the walkers do not move,
    so the average is the drift's mean square over the start sites.  Fewer
    than 2 walkers raise ValueError before any walker runs.
    """
    if walkers < 2:
        raise ValueError(f"need at least 2 walkers for a standard error, got {walkers}")
    phi = local_drift(fld, v).reshape(-1)
    _, start_sites, end_sites = walk_batch(fld, n, walkers, seed, start="uniform")
    return _mean_se(phi[start_sites] * phi[end_sites])
