"""Reference oracles that the tests check the package against.

Closed forms and scalar, one-site-at-a-time lookups: the package computes
the same things in vectorized form, and no program path runs these, so they
live with the tests.  Sites are indexed in C order (mixed radix, last axis
fastest), as in the package's flat layouts.
"""

import numpy as np

from homogenize.environment import BondField, GeometryMismatchError, TorusGeometry


def one_d_exact(fld: BondField) -> float:
    """Closed form in d = 1: twice the torus harmonic mean of the rates."""
    if fld.dimension != 1:
        raise ValueError(f"closed form only exists in d = 1, got d = {fld.dimension}")
    return 2.0 / float(np.mean(1.0 / fld.rates))


def hamming_distance(f1: BondField, f2: BondField) -> int:
    """Number of bonds at which the two environments differ exactly."""
    if f1.geometry != f2.geometry:
        raise GeometryMismatchError(f"{f1.geometry} vs {f2.geometry}")
    return int(np.count_nonzero(f1.rates != f2.rates))


def wrap(geom: TorusGeometry, x) -> tuple[int, ...]:
    return tuple(int(c) % geom.side for c in x)


def site_index(geom: TorusGeometry, x) -> int:
    """Linear site index: mixed-radix (C-order) encoding of coordinates."""
    k = 0
    for c in x:
        k = k * geom.side + (int(c) % geom.side)
    return k


def site_coords(geom: TorusGeometry, k: int) -> tuple[int, ...]:
    out = []
    for _ in range(geom.dimension):
        out.append(k % geom.side)
        k //= geom.side
    return tuple(reversed(out))


def rate_at(fld: BondField, x, direction: int) -> float:
    return float(fld.rates[(direction,) + wrap(fld.geometry, x)])
