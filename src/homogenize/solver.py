"""Matrix-free solvers for -L u = g and (lam - L) u = g, plus a dense oracle.

Both problems are solved by conjugate gradients preconditioned with the
torus Laplacian: with rates in [1/c, c] and a their geometric mean, -L is
spectrally equivalent to a (-Delta) with condition number at most c^2 on
every torus, and -Delta is diagonal in the DFT basis, so one FFT round trip
applies the preconditioner and the iteration count does not grow with N.
The iteration cap follows from c and tol alone.  The singular Poisson
problem is solved on the zero-mean subspace: the preconditioner drops the
zero mode, and the iterate and residual are re-projected (mean subtracted)
every iteration to cure kernel drift from rounding.  The stopping rule is
on the unpreconditioned residual, ||r|| <= tol ||g||.  The dense oracle
assembles -L explicitly and applies an eigendecomposition-based
pseudo-inverse; it is meant for small tori only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .environment import BondField, move_table
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
    """A dense solve or a walk above its size guard."""


@dataclass
class SolveReport:
    solution: np.ndarray
    iterations: int
    residual_norm: float


def _maxiter(fld: BondField, tol: float) -> int:
    """Iteration cap of one preconditioned CG solve on fld.

    The preconditioned operator has condition number kappa <= c^2 on every
    torus, so CG needs about 0.5 sqrt(kappa) ln(2 sqrt(kappa) / tol)
    iterations; the cap is twice that (at least one) and does not depend
    on N.
    """
    c = fld.ellipticity
    return max(1, math.ceil(c * math.log(2.0 * c / tol)))


def _preconditioner(fld: BondField, lam: float):
    """r -> (lam + a (-Delta))^+ r by one FFT round trip over the grid axes.

    a is the geometric-mean rate and -Delta the torus Laplacian, whose
    symbol is sum_i (2 - 2 cos k_i).  At lam = 0 the zero mode maps to 0,
    so the result is mean-zero.
    """
    shape = fld.geometry.grid_shape
    side = fld.geometry.side
    axes = tuple(range(fld.dimension))
    w = 4.0 * np.sin(np.pi * np.arange(side) / side) ** 2   # 2 - 2 cos k
    # rfftn keeps the nonnegative frequencies of the last axis only
    laplacian = sum(np.ix_(*([w] * (fld.dimension - 1) + [w[:side // 2 + 1]])))
    sigma = lam + float(np.exp(np.log(fld.rates).mean())) * laplacian
    inv = np.divide(1.0, sigma, out=np.zeros_like(sigma), where=sigma > 0)
    return lambda r: np.fft.irfftn(np.fft.rfftn(r, axes=axes) * inv, s=shape,
                                   axes=axes)


def _cg(fld: BondField, b: np.ndarray, lam: float, tol: float):
    """Preconditioned CG from zero for (lam - L) u = b.

    lam = 0 is the singular Poisson problem, kept on the mean-zero subspace.
    """
    if not tol > 0:
        raise ValueError(f"solver tolerance must be positive, got {tol}")
    maxiter = _maxiter(fld, tol)
    normb = np.linalg.norm(b)
    if normb == 0.0:
        return np.zeros_like(b), 0, 0.0

    def op(f):
        out = -apply_generator(fld, f)
        if lam:
            out += lam * f
        return out

    precond = _preconditioner(fld, lam)
    x = np.zeros_like(b)
    r = b.copy()
    if not lam:
        r -= r.mean()
    z = precond(r)
    p = z.copy()
    rz = np.vdot(r, z).real
    for k in range(1, maxiter + 1):
        ap = op(p)
        alpha = rz / np.vdot(p, ap).real
        x += alpha * p
        r -= alpha * ap
        if not lam:
            x -= x.mean()
            r -= r.mean()
        res = np.linalg.norm(r)
        if res <= tol * normb:
            return x, k, res
        z = precond(r)
        rz_new = np.vdot(r, z).real
        p = z + (rz_new / rz) * p
        rz = rz_new
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
    u, k, res = _cg(fld, g, 0.0, tol)
    return SolveReport(u, k, float(res))


def solve_resolvent(fld: BondField, g: np.ndarray, lam: float,
                    tol: float = DEFAULT_TOL) -> SolveReport:
    """Solve (lam - L) u = g; requires lam > 0 (operator nonsingular)."""
    if lam <= 0:
        raise ValueError(f"resolvent parameter must be positive, got {lam}")
    u, k, res = _cg(fld, g, lam, tol)
    return SolveReport(u, k, float(res))


def dense_operator(fld: BondField) -> np.ndarray:
    """Assemble -L as a dense symmetric matrix (volume-guarded)."""
    geom = fld.geometry
    if geom.volume > DENSE_GUARD:
        raise SizeGuardError(f"volume {geom.volume} exceeds dense guard {DENSE_GUARD}")
    rates, targets = move_table(fld)
    rows = np.repeat(np.arange(geom.volume), 2 * geom.dimension)
    mat = np.zeros((geom.volume, geom.volume))
    np.add.at(mat, (rows, rows), rates.reshape(-1))
    # on a side-2 torus x + e_i and x - e_i coincide: both moves add up
    np.add.at(mat, (rows, targets.reshape(-1)), -rates.reshape(-1))
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
