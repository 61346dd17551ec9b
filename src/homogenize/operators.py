"""Discrete calculus on the torus and the environment generator, matrix-free.

Scalar fields are arrays of shape (2N,)*d; vector fields carry a leading
direction axis, shape (d, 2N, ..., 2N).  All wraps are periodic via np.roll;
the rates xi_i(x) and xi_i(x - e_i) come from the field's cached stencil.

Conventions (L is nonpositive definite, -L is the solver's operator):
    (grad_i f)(x)   = f(x + e_i) - f(x)
    (div* g)(x)     = sum_i g_i(x - e_i) - g_i(x)        (adjoint of grad)
    (L f)(x)        = sum_i xi_i(x)(f(x+e_i) - f(x)) + xi_i(x-e_i)(f(x-e_i) - f(x))
so that L f = -div*(xi . grad f) and <f, -L f> = sum_i xi_i (grad_i f)^2 >= 0.
"""

from __future__ import annotations

import numpy as np

from .environment import BondField, GeometryMismatchError


def grad(f: np.ndarray) -> np.ndarray:
    """Forward difference in each direction with periodic wrap."""
    return np.stack([np.roll(f, -1, axis=i) - f for i in range(f.ndim)])


def div_star(g: np.ndarray) -> np.ndarray:
    """Adjoint of grad under the unnormalized site inner product."""
    d = g.shape[0]
    out = np.zeros(g.shape[1:])
    for i in range(d):
        out += np.roll(g[i], 1, axis=i) - g[i]
    return out


def _check(fld: BondField, f: np.ndarray):
    if f.shape != fld.geometry.grid_shape:
        raise GeometryMismatchError(
            f"field shape {f.shape} does not match torus {fld.geometry.grid_shape}")


def apply_generator(fld: BondField, f: np.ndarray) -> np.ndarray:
    """L f for the given environment; exact zeros on constant f."""
    _check(fld, f)
    st = fld.stencil
    out = np.zeros_like(f)
    for i in range(f.ndim):
        out += st.forward[i] * (np.roll(f, -1, axis=i) - f)
        out += st.backward[i] * (np.roll(f, 1, axis=i) - f)
    return out


def local_drift(fld: BondField, v) -> np.ndarray:
    """Drift of the walk seen from the particle, stationarized over the torus.

    Value at x is sum_i v_i (xi_i(x) - xi_i(x - e_i)); telescoping makes the
    site sum exactly zero.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (fld.dimension,):
        raise ValueError(f"drift vector has shape {v.shape}, expected ({fld.dimension},)")
    st = fld.stencil
    out = np.zeros(fld.geometry.grid_shape)
    for i in range(fld.dimension):
        out += v[i] * (st.forward[i] - st.backward[i])
    return out


def mean_rho(f: np.ndarray) -> float:
    """Mean over sites, i.e. expectation under the uniform torus measure."""
    return float(f.mean())
