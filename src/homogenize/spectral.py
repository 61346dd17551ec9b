"""Exact spectral diagnostics of -L on small tori.

The spectral measure of the local drift distributes its mean-square mass
over the eigenmodes of -L; the effective quadratic form can then be read
off as 2 mean(xi) |v|^2-type term minus 2 * integral of dweight / r.
Everything here goes through a dense symmetric eigendecomposition and is a
verification oracle, not a production path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .environment import BondField
from .operators import local_drift, mean_rho
from .solver import dense_operator
from .walker import walk_batch

KERNEL_CUTOFF = 1e-12    # relative eigenvalue below which a mode counts as kernel
WEIGHT_CUTOFF = 1e-14    # relative weight below which an atom is dropped in 1/r sums


@dataclass
class SpectralMeasure:
    """Atoms (eigenvalue, weight) of the drift's spectral measure."""

    eigenvalues: np.ndarray
    weights: np.ndarray

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    @property
    def max_eigenvalue(self) -> float:
        return float(self.eigenvalues.max()) if self.eigenvalues.size else 0.0

    @property
    def kernel_mass(self) -> float:
        cut = KERNEL_CUTOFF * max(self.max_eigenvalue, 1.0)
        return float(self.weights[self.eigenvalues <= cut].sum())

    def to_json(self) -> dict:
        return {"atoms": [[float(r), float(w)]
                          for r, w in zip(self.eigenvalues, self.weights)]}


def spectral_measure(fld: BondField, v) -> SpectralMeasure:
    """Full eigendecomposition of -L projected onto the drift.

    Weights are normalized so that the total mass is mean_rho(drift^2);
    the drift is orthogonal to constants, so the kernel atom carries no
    mass beyond rounding.
    """
    phi = local_drift(fld, v).reshape(-1)
    mat = dense_operator(fld)
    eigvals, vecs = np.linalg.eigh(mat)
    coeffs = vecs.T @ phi
    weights = coeffs ** 2 / phi.size
    return SpectralMeasure(np.maximum(eigvals, 0.0), weights)


def diffusivity_via_spectrum(fld: BondField, v,
                             measure: SpectralMeasure | None = None) -> float:
    """(v, D_N v) from the spectral route.

    2 sum_i mean(xi_i) v_i^2  -  2 sum over nonkernel atoms of weight / r.
    Must match the corrector route to solver accuracy.  measure, if given,
    must be spectral_measure(fld, v); it saves the eigendecomposition.
    """
    v = np.asarray(v, dtype=float)
    meas = spectral_measure(fld, v) if measure is None else measure
    cut = KERNEL_CUTOFF * max(meas.max_eigenvalue, 1.0)
    keep = (meas.eigenvalues > cut) & \
        (meas.weights > WEIGHT_CUTOFF * max(meas.total_mass, 1e-300))
    drift_term = float((meas.weights[keep] / meas.eigenvalues[keep]).sum())
    static = 2.0 * sum(mean_rho(fld.rates[i]) * v[i] ** 2 for i in range(fld.dimension))
    return static - 2.0 * drift_term


def semigroup_moment(fld: BondField, v, n: float,
                     measure: SpectralMeasure | None = None) -> float:
    """sum of weight * exp(-n * eigenvalue); total mass at n = 0.

    measure, if given, must be spectral_measure(fld, v).
    """
    if n < 0:
        raise ValueError(f"moment order must be nonnegative, got {n}")
    meas = spectral_measure(fld, v) if measure is None else measure
    return float((meas.weights * np.exp(-n * meas.eigenvalues)).sum())


def semigroup_moment_mc(fld: BondField, v, n: float, walkers: int,
                        seed: int = 0) -> tuple[float, float]:
    """Monte Carlo estimate of the semigroup moment with standard error.

    Unbiased: average of drift(x0) * drift(X_n) over uniform start sites
    and walk realizations on the torus.
    """
    if walkers <= 0:
        raise ValueError(f"need a positive walker count, got {walkers}")
    if n < 0:
        raise ValueError(f"moment order must be nonnegative, got {n}")
    phi = local_drift(fld, v).reshape(-1)
    if n == 0:
        from .environment import rng_for
        sites = rng_for(seed).integers(0, fld.geometry.volume, size=walkers)
        y = phi[sites] ** 2
    else:
        _, start_sites, end_sites = walk_batch(fld, n, walkers, seed, start="uniform")
        y = phi[start_sites] * phi[end_sites]
    se = float(y.std(ddof=1) / np.sqrt(walkers)) if walkers > 1 else np.inf
    return float(y.mean()), se
