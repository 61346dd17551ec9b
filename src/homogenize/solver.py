"""Matrix-free solvers for -L u = g and (lam - L) u = g, plus a dense oracle.

The singular Poisson problem is solved by conjugate gradients restricted to
the zero-mean subspace: the iterate and residual are re-projected (mean
subtracted) every iteration to cure kernel drift from rounding.  The dense
oracle assembles -L explicitly and applies an eigendecomposition-based
pseudo-inverse; it is meant for small tori only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .environment import BondField
from .operators import apply_generator, mean_rho

DEFAULT_TOL = 1e-10
DENSE_GUARD = 4096


class ConvergenceError(RuntimeError):
    """Iteration cap exceeded; carries the last relative residual."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class SizeGuardError(ValueError):
    """Dense path requested on a torus above the volume guard."""


@dataclass
class SolveReport:
    solution: np.ndarray
    iterations: int
    residual_norm: float
    tolerance_used: float

    def to_json(self) -> dict:
        return {
            "iterations": self.iterations,
            "residual_norm": self.residual_norm,
            "tolerance_used": self.tolerance_used,
        }


def _maxiter(fld: BondField) -> int:
    """Iteration cap of one CG solve on fld."""
    return 50 * fld.geometry.side * fld.dimension


def _cg(op, b, tol, maxiter, project=False):
    """CG from zero with optional mean re-projection each iteration."""
    if not tol > 0:
        raise ValueError(f"solver tolerance must be positive, got {tol}")
    normb = np.linalg.norm(b)
    if normb == 0.0:
        return np.zeros_like(b), 0, 0.0
    x = np.zeros_like(b)
    r = b - op(x)
    if project:
        r -= r.mean()
    p = r.copy()
    rr = np.vdot(r, r).real
    for k in range(1, maxiter + 1):
        ap = op(p)
        alpha = rr / np.vdot(p, ap).real
        x += alpha * p
        r -= alpha * ap
        if project:
            x -= x.mean()
            r -= r.mean()
        rr_new = np.vdot(r, r).real
        res = np.sqrt(rr_new)
        if res <= tol * normb:
            return x, k, res
        p = r + (rr_new / rr) * p
        rr = rr_new
    raise ConvergenceError(
        f"CG did not reach tol {tol} in {maxiter} iterations "
        f"(last relative residual {res / normb:.3e})", res / normb, maxiter)


def solve_poisson(fld: BondField, g: np.ndarray, tol: float = DEFAULT_TOL
                  ) -> SolveReport:
    """Solve -L u = g for zero-mean u; g must be orthogonal to constants."""
    norm_g = np.linalg.norm(g)
    if abs(g.sum() / g.size) > 1e-12 * max(norm_g, 1.0):
        raise ValueError(
            f"right side has nonzero mean {mean_rho(g):.3e}; the singular "
            "problem is only solvable on the zero-mean subspace")
    u, k, res = _cg(lambda f: -apply_generator(fld, f), g, tol, _maxiter(fld),
                    project=True)
    return SolveReport(u, k, float(res), tol)


def solve_resolvent(fld: BondField, g: np.ndarray, lam: float,
                    tol: float = DEFAULT_TOL) -> SolveReport:
    """Solve (lam - L) u = g; requires lam > 0 (operator nonsingular)."""
    if lam <= 0:
        raise ValueError(f"resolvent parameter must be positive, got {lam}")
    u, k, res = _cg(lambda f: lam * f - apply_generator(fld, f), g, tol,
                    _maxiter(fld))
    return SolveReport(u, k, float(res), tol)


def dense_operator(fld: BondField) -> np.ndarray:
    """Assemble -L as a dense symmetric matrix (volume-guarded)."""
    geom = fld.geometry
    if geom.volume > DENSE_GUARD:
        raise SizeGuardError(f"volume {geom.volume} exceeds dense guard {DENSE_GUARD}")
    st = fld.stencil
    mat = np.diag(st.total)
    # on a side-2 torus x + e_i and x - e_i coincide: both moves add up
    rows = np.repeat(np.arange(geom.volume), 2 * geom.dimension)
    np.add.at(mat, (rows, st.neighbors.reshape(-1)), -st.table().reshape(-1))
    return mat


def dense_solve(fld: BondField, g: np.ndarray) -> np.ndarray:
    """Oracle: pseudo-inverse of -L on the zero-mean subspace."""
    geom = fld.geometry
    mat = dense_operator(fld)
    w, vecs = np.linalg.eigh(mat)
    cutoff = 1e-10 * w[-1] if w[-1] > 0 else np.inf
    keep = w > cutoff
    coeffs = vecs.T @ g.reshape(-1)
    u = vecs[:, keep] @ (coeffs[keep] / w[keep])
    u -= u.mean()
    return u.reshape(geom.grid_shape)
