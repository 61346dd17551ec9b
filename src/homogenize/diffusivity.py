"""Correctors, the effective diffusion matrix and its identity diagnostics.

D_N is the Gram matrix 2 sum_k mean((xi w^i)_k w^j_k) of the corrected
gradients w^j = e_j + grad chi_j, chi_j the corrector; (v, D_N v) is its
1 x 1 entry over [v] (effective_quadratic), on a basis vector bit for bit
D_N's diagonal.  identity_residuals checks the finite-volume identities on
psi = grad chi of solved correctors and bounds each solve's error in
(v, D_N v), one row of the structured dtype DIAGNOSTICS per corrector.
Diagnostics and the Gram assembly run once per solved stack of correctors,
in the layout of operators; each sum adds in a lone field's order, so every
number is bit for bit that of the field solved alone.

Normalization: the homogeneous medium with rate a has effective matrix
2a * Identity (the factor-2 convention of the mean-square-displacement
definition).  In d = 1 the matrix is 2 / (torus mean of 1/xi) exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .environment import BondField, GeometryMismatchError
from .operators import (drift_vector, grad, local_drift, mean_rho, shift,
                        stack_members)
from .solver import (DEFAULT_TOL, SolveReport, _inverse_symbols,
                     solve_poisson, solve_poisson_stream)

LP_EXPONENTS = (2.0, 2.5, 3.0, 4.0)


# The identity diagnostics of one corrector, in the campaign CSV's column order:
# the gap in sum_i mean(xi_i (psi^i)^2) = -sum_i v_i mean(xi_i psi^i); max
# |grad_i psi^k - grad_k psi^i| over mixed pairs; max |div*(xi (v + psi))|; a
# bound on the solve's error in (v, D_N v); the quadratic-linear gap of (v,
# D_N v), twice the first; and the normalized gradient norms (mean |grad
# chi|^p)^(1/p), one slot per p in LP_EXPONENTS.
DIAGNOSTICS = np.dtype([
    ("orthogonality_residual", float), ("curl_residual", float),
    ("flux_divergence_residual", float), ("certificate", float),
    ("quadratic_linear_gap", float), ("lp_norms", float, len(LP_EXPONENTS))])


def worst(diags: np.ndarray) -> np.ndarray:
    """The largest of each diagnostic over the last axis of a (..., d) array
    of DIAGNOSTICS (a record's basis correctors)."""
    out = np.empty(diags.shape[:-1], DIAGNOSTICS)
    for name in DIAGNOSTICS.names:
        out[name] = np.max(diags[name], axis=diags.ndim - 1)
    return out


@dataclass
class EffectiveMatrix:
    """The d x d effective diffusion matrix of one environment.

    entries is the Gram (quadratic) form over the basis correctors, symmetric
    by construction, with entry [j, j] effective_quadratic(fld, e_j) bit for
    bit; linear_form_entries is the cross-check via the linear identity,
    symmetrized, with the raw asymmetry norm reported; diagnostics holds the
    d basis correctors' DIAGNOSTICS.
    """

    entries: np.ndarray
    linear_form_entries: np.ndarray
    asymmetry: float
    diagnostics: np.ndarray
    iterations: int

    def quadratic_form(self, v) -> float:
        v = drift_vector(len(self.entries), v)
        return float(v @ self.entries @ v)


def corrector(fld: BondField, v, tol: float = DEFAULT_TOL) -> SolveReport:
    """Zero-mean solution of -L chi = drift(v)."""
    return solve_poisson(fld, local_drift(fld, v), tol=tol)


def identity_residuals(fields, v, psi: np.ndarray) -> np.ndarray:
    """The DIAGNOSTICS of each solved corrector of a stack, member m in
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
    diags = np.empty(M, DIAGNOSTICS)
    # one component of w = v + psi at a time; sums add from 0, as sum() does
    quad = lin = 0
    div = np.zeros((M,) + grid)   # r = div* of the flux xi w
    for i in range(d):
        w = psi[i] + v[:, i].reshape((M,) + (1,) * d)
        quad += mean_rho(xi[i] * w ** 2, d)
        w *= xi[i]                       # in place: now the flux xi_i w_i
        lin += v[:, i] * mean_rho(w, d)
        div += shift(w, 1, i - d) - w
    # quad - lin is sum_i mean(xi_i psi^i (v_i + psi^i)), the orthogonality
    diags["orthogonality_residual"] = np.abs(quad - lin)
    diags["quadratic_linear_gap"] = 2.0 * diags["orthogonality_residual"]
    diags["flux_divergence_residual"] = np.abs(div).reshape(M, -1).max(axis=1)
    # (2c / vol) <r, (-Delta)^+ r> by Parseval on rfftn(r), pass by pass in one
    # buffer; an interior last-axis column stands for its dropped mirror too
    power = np.fft.rfft(div, axis=-1)
    del w, div   # the rest reads psi alone
    for a in range(-2, -d - 1, -1):
        np.fft.fft(power, axis=a, out=power)
    power = np.square(power.view(float), out=power.view(float))   # re^2, im^2
    inv = np.repeat(_inverse_symbols(fields[:1], 0.0, 1.0), 2, axis=-1)
    inv[..., 2:grid[-1]] *= 2.0
    diags["certificate"] = np.vecdot(power.reshape(M, -1), inv.reshape(-1)) * [
        2.0 * f.ellipticity / f.geometry.volume ** 2 for f in fields]
    del power

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
    diags["curl_residual"] = curl

    speed = psi[0] * psi[0]   # |psi|^2, summed in place
    for i in range(1, d):
        speed += psi[i] * psi[i]
    np.sqrt(speed, out=speed)
    # a scalar power: ** (1 / p) on the array moves the last digit
    diags["lp_norms"] = np.transpose([[x ** (1.0 / p) for x in mean_rho(
        speed ** p, d)] for p in LP_EXPONENTS])
    return diags


def effective_quadratic(fld: BondField, v, tol: float = DEFAULT_TOL) -> float:
    """(v, D_N v) via the corrector route: the 1 x 1 Gram matrix over [v],
    on e_j bit for bit effective_matrix(fld).entries[j, j]."""
    return float(next(effective_matrices([fld], tol, [v]))["entries"][0, 0, 0])


def effective_matrix(fld: BondField, tol: float = DEFAULT_TOL) -> EffectiveMatrix:
    """Assemble D_N from the d basis correctors, stacked up to STACK_SITES sites.

    With the corrected gradients w^j = e_j + grad chi_j and the fluxes
    xi w^j, entries[i, j] = 2 sum_k mean((xi w^i)_k w^j_k) (exactly
    symmetric); the linear identity gives the cross-check matrix
    2 mean((xi w^j)_i), symmetrized.
    """
    columns = next(effective_matrices([fld], tol=tol))
    return EffectiveMatrix(**{name: col[0] for name, col in columns.items()})


def effective_matrices(fields, tol: float = DEFAULT_TOL, directions=None):
    """The Gram matrices over directions (K rows u_j, the basis np.eye(d) by
    default) of each field of an iterable, in order, as columns: per solved
    stack, a dict of entries and linear_form_entries (F, K, K), asymmetry
    (F,), diagnostics (F, K) and iterations (F,) of its F complete fields.
    entries[i, j] is (u_i, D_N u_j) = 2 sum_k mean((xi w^i)_k w^j_k) over
    w^j = u_j + grad chi_j: D_N on the basis, (v, D_N v) over [v].

    The correctors of consecutive fields are solved together in stacks
    (solve_poisson_stream), and fields are pulled only as the stacks need
    them, so a long stream holds one stack's fields at a time.  A field split
    between stacks waits for its last corrector and holds only the
    potentials chi_j of the solved ones, one grid each.
    """
    directions = None if directions is None else np.asarray(directions, dtype=float)
    members = ((fld, local_drift(fld, u)) for fld in fields for u in
               (np.eye(fld.dimension) if directions is None else directions))
    part = []   # (field, chi_j) of incomplete fields
    diags, iterations = np.empty(0, DIAGNOSTICS), np.empty(0, int)
    for stack in solve_poisson_stream(members, tol=tol):
        flds = [fld for fld, _ in stack]
        iterations = np.append(iterations, [rep.iterations for _, rep in stack])
        d = flds[0].dimension
        chis = stack_members([rep.solution for _, rep in stack], d)
        del stack   # stack_members copied a stack of several: free its solve
        u = np.eye(d) if directions is None else directions
        K = len(u)
        diags = np.append(diags, identity_residuals(
            flds, u[(len(part) + np.arange(len(flds))) % K], grad(chis, d)))
        part += zip(flds, chis)
        whole = len(part) // K * K
        if whole:
            yield {**_matrices(u, *zip(*part[:whole])),
                   "diagnostics": diags[:whole].reshape(-1, K),
                   "iterations": iterations[:whole].reshape(-1, K).sum(axis=1)}
            part, diags, iterations = (
                part[whole:], diags[whole:], iterations[whole:])


def _matrices(u, flds, chis) -> dict:
    """entries, linear_form_entries and asymmetry of the fields flds[::K] from
    their correctors' potentials chi_j, one per row u_j of u; the corrected
    gradients w^j = u_j + grad chi_j are formed one component k at a time."""
    K, d = u.shape
    flds = flds[::K]
    chis = [stack_members(chis[j::K], d) for j in range(K)]   # chi_j of every field
    xi = stack_members([f.rates for f in flds], d)
    quad = np.zeros((len(flds), K, K))
    linear = np.zeros((len(flds), d, K))
    for k in range(d):
        w = [shift(chi, -1, k - d) - chi for chi in chis]   # w^j_k
        for j in range(K):
            w[j] += u[j, k]
        for i in range(K):
            flux = xi[k] * w[i]
            for j in range(K):
                quad[:, i, j] += mean_rho(flux * w[j], d)
            linear[:, k, i] = 2.0 * mean_rho(flux, d)
        del w   # before the next component's K grids
    quad *= 2.0
    # (u_j, 2 mean(xi w^i)), the linear form of (u_j, D u_i); einsum, as u @
    # would start BLAS and its buffers (+0.25 MB peak RSS) for a K x d product
    linear = np.einsum("jk,fki->fji", u, linear)
    return {"entries": 0.5 * (quad + quad.swapaxes(1, 2)),
            "linear_form_entries": 0.5 * (linear + linear.swapaxes(1, 2)),
            "asymmetry": np.array([np.linalg.norm(lin - lin.T) for lin in linear])}
