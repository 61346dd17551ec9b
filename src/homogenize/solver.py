"""Matrix-free solvers for -L u = g and (lam - L) u = g, plus a dense oracle.

Both problems are solved by conjugate gradients preconditioned with the
torus Laplacian: with rates in [1/c, c] and a their geometric mean, -L is
spectrally equivalent to a (-Delta) with condition number at most c^2 on
every torus, and -Delta is diagonal in the DFT basis, so one FFT round trip
applies the preconditioner and the iteration count does not grow with N.
The iteration cap follows from c and tol alone.  Both problems are solved
on the zero-mean subspace: the preconditioner drops the zero mode, and the
iterate and residual are re-projected (mean subtracted) every iteration to
cure kernel drift from rounding.  A constant c on the right has the exact
solution c / lam, and a mean within 1e-12 ||g|| of zero is dropped.  The
stopping rule is on the unpreconditioned residual, ||r|| <= tol ||g||.
Each right side runs in units of 2^e <= max |g| < 2^(e+1), an exact
division, so 2^k g is solved as exactly 2^k times g's solution at any k.

There is one CG path, and it solves a stack of members, each a (field,
right side) pair on one torus: the FFT runs over the trailing grid axes,
and the step sizes, stop test, cap and re-projection are per member, so a
member's solution and iteration count do not depend on its stack-mates.
solve_poisson and solve_resolvent are stacks of one; solve_poisson_stream
cuts a stream of Poisson members into stacks of at most STACK_SITES sites.
The dense oracle assembles -L explicitly and inverts it off atom 0 of its
spectrum, the constants; it is meant for small tori only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .environment import (BondField, GeometryMismatchError, SizeGuardError,
                          move_table)
from .operators import generator, mean_rho, stack_members

DEFAULT_TOL = 1e-10
DENSE_GUARD = 4096
# Most sites solved as one stack.  Stacking amortizes numpy's per-call
# overhead on small tori; the cap bounds the memory a stack adds to a few MB
# whatever the member count.  A torus of this many sites or more is solved
# one field at a time.
STACK_SITES = 2 ** 13


class ConvergenceError(RuntimeError):
    """Iteration cap reached, or no finite CG step left; carries the worst
    failed member's last relative residual and its iterations."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


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


def _inverse_symbols(fields, lam: float) -> np.ndarray:
    """(lam + a (-Delta))^+ of each field as an rfftn symbol, shape (B, *half grid).

    a is the field's geometric-mean rate and -Delta the torus Laplacian, whose
    symbol is sum_i (2 - 2 cos k_i).  At every lam the zero mode maps to 0, so
    a preconditioned field is mean-zero.
    """
    geom = fields[0].geometry
    side, d = geom.side, geom.dimension
    w = 4.0 * np.sin(np.pi * np.arange(side) / side) ** 2   # 2 - 2 cos k
    # rfftn keeps the nonnegative frequencies of the last axis only
    laplacian = sum(np.ix_(*([w] * (d - 1) + [w[:side // 2 + 1]])))
    a = np.array([float(np.exp(np.log(f.rates).mean())) for f in fields])
    sigma = lam + a.reshape((-1,) + (1,) * d) * laplacian
    return np.divide(1.0, sigma, out=np.zeros_like(sigma), where=laplacian > 0)


def _precondition(r: np.ndarray, inv: np.ndarray, axes: tuple) -> np.ndarray:
    """Apply an rfftn symbol inv to r over the grid axes by one FFT round trip:
    irfftn(rfftn(r) * inv) pass by pass, bit for bit, in one complex buffer."""
    f = np.fft.rfft(r, axis=axes[-1])
    for a in axes[-2::-1]:
        np.fft.fft(f, axis=a, out=f)
    f *= inv
    for a in axes[:-1]:
        np.fft.ifft(f, axis=a, out=f)
    return np.fft.irfft(f, n=r.shape[axes[-1]], axis=axes[-1])


def _cg(fields, b: np.ndarray, lam: float, tol: float):
    """Preconditioned CG from zero for (lam - L_b) u_b = b[b], one member per field.

    b stacks the right sides, shape (B, *grid).  Every member runs the
    one-field recurrence with its own alpha, beta, stop test, cap and mean
    re-projection; dots and means reduce each member's row alone, so its
    iterates are those of a solve on its own.  At the top of the loop a
    member is written out (a view of the live iterate, no copy; a constant
    one at k = 0) and dropped from the live set.  CG solves for each right
    side's mean-zero part, in the member's unit, and a mean adds mean / lam;
    lam = 0 is the singular Poisson problem, where every right side must be
    orthogonal to constants.  Returns one SolveReport per member.
    """
    if not tol > 0:
        raise ValueError(f"solver tolerance must be positive, got {tol}")
    if not np.all(np.isfinite(b)):
        raise ValueError("right side must be finite")
    shape = b.shape[1:]
    if {f.geometry.grid_shape for f in fields} != {shape}:
        raise GeometryMismatchError(
            f"right sides of shape {shape} do not match every field's torus")
    d = len(shape)
    axes = tuple(range(-d, 0))
    col = (-1,) + (1,) * d   # a per-member scalar, broadcast over its grid

    def dot(u, v):
        return np.vecdot(u.reshape(len(u), -1), v.reshape(len(v), -1))

    def center(u):
        u -= mean_rho(u, d).reshape(col)

    # 2^e <= max |b| < 2^(e+1) (0.5 for 0): each nonzero row has norm >= 1
    unit = np.ldexp(0.5, np.frexp(np.abs(b).reshape(len(b), -1).max(axis=1))[1])
    r = b / unit.reshape(col)
    normb = np.sqrt(dot(r, r))
    mean = mean_rho(r, d)
    off = np.abs(mean) > 1e-12 * normb
    if off.any() and not lam:
        raise ValueError(
            f"right side has nonzero mean {mean[off][0] * unit[off][0]:.3e}; "
            "the singular problem is only solvable on the zero-mean subspace")
    # (lam - L) c = lam c solves the constant part; a rounding mean is dropped
    with np.errstate(over="ignore"):   # an overflow is refused at the write-out
        const = np.divide(mean * unit, lam, out=np.zeros_like(mean), where=off)
    center(r)
    reports, live = [None] * len(b), np.arange(len(b))
    caps = np.array([_maxiter(f, tol) for f in fields])
    xi = stack_members([f.rates for f in fields], d)
    inv = _inverse_symbols(fields, lam)
    x, p, rz = np.zeros_like(r), np.zeros_like(r), np.ones(len(r))
    res = np.sqrt(dot(r, r))
    # a right side with no mean-zero part is solved by its constant; it
    # centers to a constant, 0 or the rounding of its mean
    done = np.ptp(r.reshape(len(r), -1), axis=1) == 0
    # updates are in place: of the iterates only x, r and p live across the FFT
    for k in itertools.count():
        if done.any():
            for j, i in zip(np.flatnonzero(done), live[done]):
                with np.errstate(over="ignore", invalid="ignore"):
                    x[j] *= unit[i]
                    x[j] += const[i]
                if not np.isfinite(x[j]).all():
                    raise ValueError("solution or mean / lam not finite")
                reports[i] = SolveReport(x[j], k, float(res[j] * unit[i]))
            if done.all():
                return reports
            live, x, r, p, rz, res, normb, caps, inv = (
                a[~done] for a in (live, x, r, p, rz, res, normb, caps, inv))
            xi = xi[:, ~done]
        z = _precondition(r, inv, axes)
        rz_new = dot(r, z)
        p *= (rz_new / rz).reshape(col)   # p = 0 and rz = 1 at k = 0: p is z
        p += z
        del z
        rz = rz_new
        ap = generator(xi, p)
        np.negative(ap, out=ap)
        if lam:
            ap += lam * p
        # a member fails at its cap, or once r.z or p.Ap underflows (far
        # below any useful tol) and no finite step is left
        pap = dot(p, ap)
        alpha = np.divide(rz, pap, out=np.full_like(rz, np.nan),
                          where=(rz > 0) & (pap > 0))
        failed = (caps <= k) | ~np.isfinite(alpha)
        if failed.any():
            worst = float((res[failed] / normb[failed]).max())
            raise ConvergenceError(
                f"CG stopped short of tol {tol} after {k} iterations "
                f"(last relative residual {worst:.3e})", worst, k)
        alpha = alpha.reshape(col)
        x += alpha * p
        r -= alpha * ap
        del ap
        center(x)
        center(r)
        res = np.sqrt(dot(r, r))
        done = res <= tol * normb


def solve_poisson(fld: BondField, g: np.ndarray, tol: float = DEFAULT_TOL
                  ) -> SolveReport:
    """Solve -L u = g for zero-mean u; g must be orthogonal to constants."""
    return _cg([fld], g[None], 0.0, tol)[0]


def solve_resolvent(fld: BondField, g: np.ndarray, lam: float,
                    tol: float = DEFAULT_TOL) -> SolveReport:
    """Solve (lam - L) u = g; requires lam > 0 (operator nonsingular).  The
    mean-zero part of g is solved by CG, and its mean m adds exactly m / lam."""
    if lam <= 0:
        raise ValueError(f"resolvent parameter must be positive, got {lam}")
    return _cg([fld], g[None], lam, tol)[0]


def solve_poisson_stream(members, tol: float = DEFAULT_TOL):
    """Solve each (fld, g) of an iterable, one stack at a time, in order.

    Consecutive members on one torus are solved as one stack of at most
    STACK_SITES sites (at least one member), and each stack is yielded as
    the list of its (fld, solve_poisson(fld, g)) pairs.  Members are pulled
    one stack at a time, so memory is bounded by the cap, not by the member
    count, and each report is bit for bit the one a solve on its own gives.
    No right side of a yielded stack is held while the consumer uses it.
    """
    for shape, group in itertools.groupby(members, lambda m: m[1].shape):
        width = max(1, STACK_SITES // math.prod(shape))
        while stack := list(itertools.islice(group, width)):
            fields = [fld for fld, _ in stack]
            # a stack of one is solve_poisson itself, so every solve on a
            # torus of STACK_SITES sites or more stays a solve_poisson call
            reports = ([solve_poisson(*stack[0], tol)] if len(stack) == 1 else
                       _cg(fields, np.stack([g for _, g in stack]), 0.0, tol))
            stack.clear()
            yield list(zip(fields, reports))


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


def _check_resolved(w: np.ndarray):
    """Refuse an ascending spectrum of -L whose atom 1 eigh cannot resolve."""
    if not w[1] > np.finfo(float).eps * w[-1]:
        raise SizeGuardError(f"eigenvalue 1 of -L ({w[1]:.3e}) is within eps * "
                             f"lambda_max ({w[-1]:.3e}) of 0: contrast too high")


def dense_solve(fld: BondField, g: np.ndarray) -> np.ndarray:
    """Oracle: -L inverted on the zero-mean subspace, off atom 0 (constants)."""
    mat = dense_operator(fld)
    w, vecs = np.linalg.eigh(mat)
    _check_resolved(w)
    coeffs = vecs.T @ g.reshape(-1)
    u = vecs[:, 1:] @ (coeffs[1:] / w[1:])
    u -= u.mean()
    return u.reshape(fld.geometry.grid_shape)
