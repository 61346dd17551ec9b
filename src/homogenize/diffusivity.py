"""Correctors, the effective diffusion matrix and its identity diagnostics.

(v, D_N v) is the energy 2 sum_i mean(xi_i w_i^2) of the corrected gradient
w = v + grad chi, chi the corrector (effective_quadratic); identity_residuals
checks the finite-volume identities on psi = grad chi of a solved corrector.

Normalization: the homogeneous medium with rate a has effective matrix
2a * Identity (the factor-2 convention of the mean-square-displacement
definition).  In d = 1 the matrix is 2 / (torus mean of 1/xi) exactly.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from .environment import BondField, TorusGeometry
from .operators import grad, div_star, local_drift, mean_rho
from .solver import (DEFAULT_TOL, SolveReport, solve_poisson,
                     solve_poisson_stream)

LP_EXPONENTS = (2.0, 2.5, 3.0, 4.0)


@dataclass
class IdentityDiagnostics:
    """Residuals of the finite-volume identities for one (environment, v).

    orthogonality_residual: gap in the weighted-gradient orthogonality
        relation sum_i mean(xi_i (psi^i)^2) = -sum_i v_i mean(xi_i psi^i).
    curl_residual: max |grad_i psi^k - grad_k psi^i| over mixed pairs.
    flux_divergence_residual: max over sites of |div*(xi (v + psi))|.
    l2_bound_margin: c^2 |v|^2 - max_i mean((psi^i)^2), nonnegative in
        exact arithmetic.
    lp_norms: normalized corrector-gradient norms
        (mean |grad chi|^p)^(1/p) for p in LP_EXPONENTS.
    quadratic_linear_gap: |quadratic form - linear form| of the two
        effective-quadratic identities.

    The field order is the column order of the campaign CSV.
    """

    orthogonality_residual: float
    curl_residual: float
    flux_divergence_residual: float
    l2_bound_margin: float
    lp_norms: dict
    quadratic_linear_gap: float

    def to_json(self) -> dict:
        return {**asdict(self),
                "lp_norms": {str(p): v for p, v in self.lp_norms.items()}}

    @classmethod
    def worst(cls, diags) -> "IdentityDiagnostics":
        """The worst of each diagnostic over diags (a record's basis correctors).

        The least l2_bound_margin, the largest of every other residual, and
        the largest of each Lp norm, exponent by exponent.
        """
        worst = {f.name: max(getattr(d, f.name) for d in diags)
                 for f in fields(cls) if f.name != "lp_norms"}
        worst["l2_bound_margin"] = min(d.l2_bound_margin for d in diags)
        worst["lp_norms"] = {p: max(d.lp_norms[p] for d in diags)
                             for p in LP_EXPONENTS}
        return cls(**worst)


@dataclass
class EffectiveMatrix:
    """The d x d effective diffusion matrix of one environment.

    entries comes from the Gram (quadratic) form over the basis correctors
    and is symmetric by construction; linear_form_entries is the
    cross-check via the linear identity, symmetrized, with the raw
    asymmetry norm reported.
    """

    geometry: TorusGeometry
    entries: np.ndarray
    linear_form_entries: np.ndarray
    asymmetry: float
    diagnostics: list[IdentityDiagnostics]
    iterations: int

    def quadratic_form(self, v) -> float:
        v = np.asarray(v, dtype=float)
        return float(v @ self.entries @ v)

    def to_json(self) -> dict:
        return {
            "dimension": self.geometry.dimension,
            "half_period": self.geometry.half_period,
            "entries": self.entries.tolist(),
            "linear_form_entries": self.linear_form_entries.tolist(),
            "asymmetry": self.asymmetry,
            "diagnostics": [d.to_json() for d in self.diagnostics],
            "iterations": self.iterations,
        }


def corrector(fld: BondField, v, tol: float = DEFAULT_TOL) -> SolveReport:
    """Zero-mean solution of -L chi = drift(v)."""
    return solve_poisson(fld, local_drift(fld, v), tol=tol)


def _corrected(v: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """The corrected gradient w = v + psi, v broadcast over the sites."""
    return v.reshape((v.size,) + (1,) * v.size) + psi


def _energy(xi: np.ndarray, w: np.ndarray) -> float:
    """Corrector energy 2 sum_i mean(xi_i w_i^2) of a corrected gradient w."""
    return 2.0 * sum(mean_rho(xi[i] * w[i] ** 2) for i in range(len(w)))


def identity_residuals(fld: BondField, v, psi: np.ndarray) -> IdentityDiagnostics:
    """Evaluate every finite-volume identity on psi = grad chi of a solved corrector."""
    v = np.asarray(v, dtype=float)
    xi = fld.rates
    d = fld.dimension
    w = _corrected(v, psi)
    flux = xi * w

    quad = _energy(xi, w)
    lin = 2.0 * sum(v[i] * mean_rho(flux[i]) for i in range(d))

    ortho = abs(sum(mean_rho(xi[i] * psi[i] ** 2) for i in range(d))
                + sum(v[i] * mean_rho(xi[i] * psi[i]) for i in range(d)))

    curl = 0.0
    for i in range(d):
        for k in range(i + 1, d):
            mixed = np.roll(psi[k], -1, axis=i) - psi[k] \
                - (np.roll(psi[i], -1, axis=k) - psi[i])
            curl = max(curl, float(np.abs(mixed).max()))

    flux_div = float(np.abs(div_star(flux)).max())

    vnorm2 = float(v @ v)
    l2_margin = fld.ellipticity ** 2 * vnorm2 \
        - max(mean_rho(psi[i] ** 2) for i in range(d))

    speed = np.sqrt(np.sum(psi * psi, axis=0))
    lp = {p: float(np.mean(speed ** p) ** (1.0 / p)) for p in LP_EXPONENTS}

    return IdentityDiagnostics(
        orthogonality_residual=ortho,
        curl_residual=curl,
        flux_divergence_residual=flux_div,
        l2_bound_margin=l2_margin,
        lp_norms=lp,
        quadratic_linear_gap=abs(quad - lin),
    )


def effective_quadratic(fld: BondField, v, tol: float = DEFAULT_TOL) -> float:
    """(v, D_N v) via the corrector route: the energy of v + grad chi.

    Diagnostics are not computed here; identity_residuals gives them.
    """
    return next(effective_quadratics([fld], v, tol=tol))


def effective_quadratics(fields, v, tol: float = DEFAULT_TOL):
    """effective_quadratic of each field of an iterable, in order.

    The correctors are solved in stacks (solve_poisson_stream), and fields
    are pulled only as the stacks need them.
    """
    v = np.asarray(v, dtype=float)
    members = ((fld, local_drift(fld, v)) for fld in fields)
    for fld, rep in solve_poisson_stream(members, tol=tol):
        yield _energy(fld.rates, _corrected(v, grad(rep.solution)))


def effective_matrix(fld: BondField, tol: float = DEFAULT_TOL) -> EffectiveMatrix:
    """Assemble D_N from the d basis correctors, stacked up to STACK_SITES sites.

    With the corrected gradients w^j = e_j + grad chi_j and the fluxes
    xi w^j, entries[i, j] = 2 sum_k mean((xi w^i)_k w^j_k) (exactly
    symmetric); the linear identity gives the cross-check matrix
    2 mean((xi w^j)_i), symmetrized.
    """
    return next(effective_matrices([fld], tol=tol))


def effective_matrices(fields, tol: float = DEFAULT_TOL):
    """effective_matrix of each field of an iterable, in order.

    The basis correctors of consecutive fields are solved together in stacks
    (solve_poisson_stream), and fields are pulled only as the stacks need
    them, so a long stream holds one stack's fields at a time.  Each
    solution is dropped once its gradient is taken.
    """
    members = ((fld, local_drift(fld, e)) for fld in fields
               for e in np.eye(fld.dimension))
    corrected, diagnostics, iterations = [], [], 0
    for fld, rep in solve_poisson_stream(members, tol=tol):
        d = fld.dimension
        e_j = np.eye(d)[len(corrected)]
        iterations += rep.iterations
        psi = grad(rep.solution)
        diagnostics.append(identity_residuals(fld, e_j, psi))
        psi += e_j.reshape((d,) + (1,) * d)  # in place: now e_j + grad chi_j
        corrected.append(psi)
        if len(corrected) == d:
            yield _matrix(fld, corrected, diagnostics, iterations)
            corrected, diagnostics, iterations = [], [], 0


def _matrix(fld: BondField, corrected: list, diagnostics: list,
            iterations: int) -> EffectiveMatrix:
    """effective_matrix from the corrected gradients e_j + grad chi_j of fld."""
    d = fld.dimension
    fluxes = [fld.rates * w for w in corrected]
    quad = np.zeros((d, d))
    linear = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            quad[i, j] = 2.0 * sum(mean_rho(fluxes[i][k] * corrected[j][k])
                                   for k in range(d))
            linear[i, j] = 2.0 * mean_rho(fluxes[j][i])
    asymmetry = float(np.linalg.norm(linear - linear.T))
    return EffectiveMatrix(fld.geometry, 0.5 * (quad + quad.T),
                           0.5 * (linear + linear.T), asymmetry,
                           diagnostics, iterations)


def one_d_exact(fld: BondField) -> float:
    """Closed form in d = 1: twice the torus harmonic mean of the rates."""
    if fld.dimension != 1:
        raise ValueError(f"closed form only exists in d = 1, got d = {fld.dimension}")
    return 2.0 / float(np.mean(1.0 / fld.rates))
