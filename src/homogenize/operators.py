"""Discrete calculus on the torus and the environment generator, matrix-free.

One layout serves a field and a stack of M fields on one torus: direction
axis first, then the member axis, the grid axes (2N,)*d last.  Each
operator indexes the grid axes from the end, so a member of a stack reads
bit for bit as the field alone.  Periodic wraps are one-site shifts by
shift, which skips np.roll's per-call overhead.  The generator is applied
in flux form straight from the field's rates: the flux across the bond
(x, x + e_i) is xi_i(x) grad_i f(x), and L f = -div* of it, so no shifted
copy of the rates is kept.

Conventions (L is nonpositive definite, -L is the solver's operator):
    (grad_i f)(x)   = f(x + e_i) - f(x)
    (div* g)(x)     = sum_i g_i(x - e_i) - g_i(x)        (adjoint of grad)
    (L f)(x)        = sum_i xi_i(x)(f(x+e_i) - f(x)) + xi_i(x-e_i)(f(x-e_i) - f(x))
so that L f = -div*(xi . grad f) and <f, -L f> = sum_i xi_i (grad_i f)^2 >= 0.
"""

from __future__ import annotations

import numpy as np

from .environment import BondField, GeometryMismatchError


def shift(f: np.ndarray, step: int, axis: int) -> np.ndarray:
    """np.roll(f, step, axis) for step = +1 or -1: one concatenate of two slices."""
    lead = (slice(None),) * (axis % f.ndim)
    return np.concatenate((f[lead + (slice(-step, None),)],
                           f[lead + (slice(None, -step),)]), axis=axis)


def grad(f: np.ndarray, d: int | None = None) -> np.ndarray:
    """Forward difference in each direction with periodic wrap, over the
    last d axes of f (all of them by default)."""
    d = f.ndim if d is None else d
    return np.stack([shift(f, -1, i - d) - f for i in range(d)])


def div_star(g: np.ndarray) -> np.ndarray:
    """Adjoint of grad under the unnormalized site inner product."""
    d = g.shape[0]
    out = np.zeros(g.shape[1:])
    for i in range(d):
        out += shift(g[i], 1, i - d) - g[i]
    return out


def stack_members(arrays, d: int) -> np.ndarray:
    """arrays stacked on a member axis before their last d (grid) axes, so
    the rates of fields stack as (d, M, *grid); a lone one as a view."""
    return (np.expand_dims(arrays[0], -d - 1) if len(arrays) == 1
            else np.stack(arrays, axis=-d - 1))


def _check(fld: BondField, f: np.ndarray):
    if f.shape != fld.geometry.grid_shape:
        raise GeometryMismatchError(
            f"field shape {f.shape} does not match torus {fld.geometry.grid_shape}")


def apply_generator(fld: BondField, f: np.ndarray) -> np.ndarray:
    """L f for the given environment; exact zeros on constant f."""
    _check(fld, f)
    return generator(fld.rates, f)


def generator(xi: np.ndarray, f: np.ndarray) -> np.ndarray:
    """L f in flux form from rates xi: one field, or a stack whose members
    each have their own rates."""
    d = xi.shape[0]
    out = np.zeros_like(f)
    for i in range(d):
        flux = shift(f, -1, i - d)
        flux -= f
        flux *= xi[i]
        out += flux
        out -= shift(flux, 1, i - d)
    return out


def drift_vector(d: int, v) -> np.ndarray:
    """The one direction check: v as a finite float (d,) array, else ValueError."""
    v = np.asarray(v, dtype=float)
    if v.shape != (d,):
        raise ValueError(f"drift vector has shape {v.shape}, expected ({d},)")
    if not np.isfinite(v).all():
        raise ValueError(f"drift vector must be finite, got {v.tolist()}")
    return v


def local_drift(fld: BondField, v) -> np.ndarray:
    """Drift of the walk seen from the particle, stationarized over the torus.

    Value at x is sum_i v_i (xi_i(x) - xi_i(x - e_i)); telescoping makes the
    site sum exactly zero.
    """
    v = drift_vector(fld.dimension, v)
    xi = fld.rates
    out = np.zeros(fld.geometry.grid_shape)
    for i in range(fld.dimension):
        out += v[i] * (xi[i] - shift(xi[i], 1, i))
    return out


def mean_rho(f: np.ndarray, d: int | None = None) -> float | np.ndarray:
    """Mean over sites, i.e. expectation under the uniform torus measure,
    over the last d axes of f (all of them by default): a float for one
    field, an array of the members' means for a stack."""
    if d is None or d == f.ndim:
        return float(f.mean())
    flat = f.reshape(f.shape[:-d] + (-1,))
    return np.add.reduce(flat, axis=-1) / flat.shape[-1]   # .mean(axis=-1)
