"""Correctors, the effective diffusion matrix and its identity diagnostics.

(v, D_N v) is the energy 2 sum_i mean(xi_i w_i^2) of the corrected gradient
w = v + grad chi, chi the corrector (effective_quadratic); identity_residuals
checks the finite-volume identities on psi = grad chi of solved correctors.
Energies, diagnostics and the D_N assembly run once per solved stack of
correctors, in the layout of operators; each sum adds in a lone field's
order, so every number is bit for bit that of the field solved alone.

Normalization: the homogeneous medium with rate a has effective matrix
2a * Identity (the factor-2 convention of the mean-square-displacement
definition).  In d = 1 the matrix is 2 / (torus mean of 1/xi) exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .environment import BondField, GeometryMismatchError
from .operators import grad, local_drift, mean_rho, shift, stack_members
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

    entries: np.ndarray
    linear_form_entries: np.ndarray
    asymmetry: float
    diagnostics: list[IdentityDiagnostics]
    iterations: int

    def quadratic_form(self, v) -> float:
        v = np.asarray(v, dtype=float)
        return float(v @ self.entries @ v)


def corrector(fld: BondField, v, tol: float = DEFAULT_TOL) -> SolveReport:
    """Zero-mean solution of -L chi = drift(v)."""
    return solve_poisson(fld, local_drift(fld, v), tol=tol)


def _energy(xi: np.ndarray, w: np.ndarray):
    """Energy 2 sum_i mean(xi_i w_i^2) of a corrected gradient w, or of each
    member of a stack of them, with rates xi of the same shape."""
    d = len(w)
    return 2.0 * sum(mean_rho(xi[i] * w[i] ** 2, d) for i in range(d))


def identity_residuals(fields, v, psi: np.ndarray) -> list[IdentityDiagnostics]:
    """One IdentityDiagnostics per solved corrector of a stack, member m in
    direction v[m] on fields[m]: v of shape (M, d), psi of shape (d, M, *grid)
    with psi[:, m] = grad chi_m.  A member's numbers do not depend on its mates."""
    v = np.asarray(v, dtype=float)
    grid = fields[0].geometry.grid_shape
    M, d = len(fields), len(grid)
    if v.shape != (M, d) or psi.shape != (d, M) + grid:
        raise GeometryMismatchError(
            f"expected v of shape (M, d) = {(M, d)} and psi of shape (d, M, "
            f"*grid) = {(d, M) + grid}, got {v.shape} and {psi.shape}")
    xi = stack_members([f.rates for f in fields], d)
    # one component of w = v + psi at a time; sums add from 0, as sum() does
    quad = lin = 0
    div = np.zeros((M,) + grid)   # div* of the flux xi w
    for i in range(d):
        w = psi[i] + v[:, i].reshape((M,) + (1,) * d)
        quad += mean_rho(xi[i] * w ** 2, d)
        w *= xi[i]                       # in place: now the flux xi_i w_i
        lin += v[:, i] * mean_rho(w, d)
        div += shift(w, 1, i - d) - w
    quad, lin = 2.0 * quad, 2.0 * lin
    flux_div = np.abs(div).reshape(M, -1).max(axis=1)
    del w, div   # the rest reads psi alone

    ortho = np.abs(sum(mean_rho(xi[i] * psi[i] ** 2, d) for i in range(d))
                   + sum(v[:, i] * mean_rho(xi[i] * psi[i], d) for i in range(d)))

    curl = np.zeros(M)
    for i in range(d):
        for k in range(i + 1, d):
            m = shift(psi[k], -1, i - d)   # grad_i psi^k - grad_k psi^i
            m -= psi[k]                    # in two temporaries
            q = shift(psi[i], -1, k - d)
            q -= psi[i]
            m -= q
            curl = np.maximum(curl, np.abs(m, out=m).reshape(M, -1).max(axis=1))
            del m, q

    l2 = np.max([mean_rho(psi[i] ** 2, d) for i in range(d)], axis=0)

    speed = psi[0] * psi[0]   # |psi|^2, summed in place
    for i in range(1, d):
        speed += psi[i] * psi[i]
    np.sqrt(speed, out=speed)
    lp = {p: mean_rho(speed ** p, d) for p in LP_EXPONENTS}

    return [IdentityDiagnostics(
        orthogonality_residual=float(ortho[m]),
        curl_residual=float(curl[m]),
        flux_divergence_residual=float(flux_div[m]),
        l2_bound_margin=fld.ellipticity ** 2 * float(v[m] @ v[m]) - float(l2[m]),
        # a scalar power: ** (1 / p) on the array moves the last digit
        lp_norms={p: float(lp[p][m] ** (1.0 / p)) for p in LP_EXPONENTS},
        quadratic_linear_gap=float(abs(quad[m] - lin[m])),
    ) for m, fld in enumerate(fields)]


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
    d = len(v)
    members = ((fld, local_drift(fld, v)) for fld in fields)
    for stack in solve_poisson_stream(members, tol=tol):
        w = grad(stack_members([rep.solution for _, rep in stack], d), d)
        w += v.reshape((d,) + (1,) * (d + 1))   # in place: now v + grad chi
        yield from _energy(stack_members([fld.rates for fld, _ in stack], d),
                           w).tolist()


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
    them, so a long stream holds one stack's fields at a time.  Each stack's
    diagnostics take one call, and its complete fields are assembled at
    once; a field split between stacks waits for its last corrector and
    holds only the potentials chi_j of the solved ones, one grid each.
    """
    members = ((fld, local_drift(fld, e)) for fld in fields
               for e in np.eye(fld.dimension))
    part = []   # (field, chi_j, diagnostics, iterations) of incomplete fields
    for stack in solve_poisson_stream(members, tol=tol):
        flds = [fld for fld, _ in stack]
        iterations = [rep.iterations for _, rep in stack]
        d = flds[0].dimension
        chis = stack_members([rep.solution for _, rep in stack], d)
        del stack   # stack_members copied a stack of several: free its solve
        e = np.eye(d)[(len(part) + np.arange(len(flds))) % d]
        diagnostics = identity_residuals(flds, e, grad(chis, d))
        part += zip(flds, chis, diagnostics, iterations)
        whole = len(part) // d * d
        if whole:
            yield from _matrices(*zip(*part[:whole]))
            part = part[whole:]


def _matrices(flds, chis, diagnostics, iterations):
    """effective_matrix of each field from its d correctors' entries, in
    order; chis holds their potentials chi_j.  The corrected gradients
    w^j = e_j + grad chi_j are formed one component k at a time."""
    d = flds[0].dimension
    flds = flds[::d]
    chis = [stack_members(chis[j::d], d) for j in range(d)]   # chi_j of every field
    xi = stack_members([f.rates for f in flds], d)
    quad = np.zeros((len(flds), d, d))
    linear = np.zeros((len(flds), d, d))
    for k in range(d):
        w = [shift(chi, -1, k - d) - chi for chi in chis]   # w^j_k
        w[k] += 1.0
        for i in range(d):
            flux = xi[k] * w[i]
            for j in range(d):
                quad[:, i, j] += mean_rho(flux * w[j], d)
            linear[:, k, i] = 2.0 * mean_rho(flux, d)
        del w   # before the next component's d grids
    quad *= 2.0
    for f, lin in enumerate(linear):
        yield EffectiveMatrix(0.5 * (quad[f] + quad[f].T),
                              0.5 * (lin + lin.T),
                              float(np.linalg.norm(lin - lin.T)),
                              list(diagnostics[f * d:(f + 1) * d]),
                              sum(iterations[f * d:(f + 1) * d]))
