"""Continuous-time random walk among the bond conductances.

Exact event-driven (Gillespie) simulation: at site x the walk jumps to
x + e_i at rate xi_i(x) and to x - e_i at rate xi_i(x - e_i); holding times
are exponential with the total incident rate.  Positions are tracked
unwrapped on Z^d while the moves are read off the torus's move table.

Batches of walkers start at the origin or at uniform torus sites.  Each
numpy sweep advances the live set: the walkers whose clocks have not passed
the horizon, kept compacted in ascending walker order as four arrays of
walker ids, site rows, clocks and packed displacements.  A site row is
site * 2d, so row + move indexes the per-site tables directly.  A packed
displacement holds each axis in 62 // d bits of one int64; it is unpacked
into the walker's displacement, and reset, before an axis can overflow its
bits (every 2^(62 // d - 1) - 1 sweeps) and when the walker is written out.
A sweep draws one exponential per live walker and then one uniform per
walker still before the horizon, both in walker order.  A walker whose clock
passes the horizon is written out once, end site and displacement, and
dropped from the live set.  The result is a pure function of (environment,
horizon, walkers, seed, start).  walk_batch is the one walk entry point.
"""

from __future__ import annotations

import numpy as np

from .environment import BondField, SizeGuardError, move_table, rng_for
from .operators import drift_vector

MAX_WALKERS = 2 ** 24
MAX_JUMPS = 2 ** 32   # bound on walkers * t * (largest holding rate)


def walk_batch(fld: BondField, t: float, walkers: int, seed: int,
               start: str = "origin"
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Advance a batch of independent walkers to time t.

    start is "origin" or "uniform" (independent uniform torus sites, drawn
    first from the seeded stream).  Returns (displacements, start_sites,
    end_sites) with displacements unwrapped in Z^d and sites as linear
    indices.  Raises SizeGuardError, before any walker state exists, above
    MAX_WALKERS walkers or MAX_JUMPS expected jumps.
    """
    if not 0 <= t < np.inf:
        raise ValueError(f"horizon must be finite and nonnegative, got {t}")
    if walkers < 1:
        raise ValueError(f"need at least one walker, got {walkers}")
    if walkers > MAX_WALKERS:
        raise SizeGuardError(f"{walkers} walkers exceed the guard {MAX_WALKERS}")
    geom = fld.geometry
    d = geom.dimension
    rates, targets = move_table(fld)
    cum = np.cumsum(rates, axis=1)
    holding = cum[:, -1]
    jumps = walkers * t * holding.max()
    if jumps > MAX_JUMPS:
        raise SizeGuardError(f"up to {jumps:.3g} expected jumps exceed the "
                             f"guard {MAX_JUMPS}")
    moves = rates.shape[1]
    # Tables of volume * moves entries, read at row + j where a walker's row
    # is site * moves: table holds a site's inverse-CDF thresholds of moves
    # 0 .. moves - 2 (the last move's would be 1, above every u) and then
    # its holding rate, so column j is the view table[j:]; next_rows and
    # steps hold each move's target row and packed step.
    table = cum / holding[:, None]
    table[:, -1] = holding
    table = table.ravel()
    thresholds = [table[j:] for j in range(moves - 1)]
    holding = table[moves - 1:]
    next_rows = targets.ravel() * moves
    # A packed code keeps axis i of a displacement in bits [bits i, bits i +
    # bits), offset by half, so zero packs 0 and move +-e_i adds +-radix_i.
    # A sweep moves an axis by at most 1, so unpacking every half - 1 sweeps
    # keeps each field in [0, 2 half).  bits >= 2 needs d <= 31: MAX_SITES
    # caps a sampled torus at d <= 22, and a field with d >= 31 has at least
    # 2^31 sites, too many to allocate.
    bits = 62 // d
    half = 2 ** (bits - 1)
    shifts = bits * np.arange(d, dtype=np.int64)
    radix = 1 << shifts
    zero = half * int(radix.sum())
    steps = np.tile(np.kron(radix, [1, -1]), geom.volume)

    def unpack(code):
        return ((code[:, None] >> shifts) & (2 * half - 1)) - half

    rng = rng_for(seed)
    if start == "origin":
        start_sites = np.zeros(walkers, dtype=np.int64)
    elif start == "uniform":
        start_sites = rng.integers(0, geom.volume, size=walkers)
    else:
        raise ValueError(f"unknown start mode {start!r}")
    disp = np.zeros((walkers, d), dtype=np.int64)
    end_sites = np.empty_like(start_sites)
    # the live set: walker ids, site rows, clocks and packed displacements
    ids = np.arange(walkers)
    rows = start_sites * moves
    clock = np.zeros(walkers)
    code = np.full(walkers, zero)
    sweeps = 0
    while ids.size:
        clock += rng.standard_exponential(ids.size) / holding.take(rows)
        alive = clock <= t
        if not alive.all():
            done = ~alive
            out = ids[done]
            end_sites[out] = rows[done] // moves
            disp[out] += unpack(code[done])
            ids, rows, clock, code = ids[alive], rows[alive], clock[alive], code[alive]
            if not ids.size:
                break
        u = rng.random(ids.size)
        k = rows + (u > thresholds[0].take(rows))
        for column in thresholds[1:]:
            k += u > column.take(rows)
        code += steps.take(k)
        rows = next_rows.take(k)
        sweeps += 1
        if sweeps % (half - 1) == 0:
            disp[ids] += unpack(code)
            code.fill(zero)
    return disp, start_sites, end_sites


def _mean_se(y: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error, over two samples or more."""
    return float(y.mean()), float(y.std(ddof=1) / np.sqrt(y.size))


def msd_estimate(fld: BondField, v, t: float, walkers: int, seed: int = 0,
                 start: str = "origin") -> tuple[float, float]:
    """Estimate (v, D_N v) as mean((X_t . v)^2) / t with its standard error.

    start is "origin" or "uniform", as in walk_batch.  A t that is not
    positive, a v that drift_vector refuses, or fewer than 2 walkers, raises
    ValueError before any walker runs.

    The estimator carries an O(1/t) finite-horizon bias on top of the
    reported Monte Carlo error; pick t large enough that the bias is below
    the standard error.
    """
    if not t > 0:
        raise ValueError(f"horizon must be positive, got {t}")
    v = drift_vector(fld.dimension, v)
    if walkers < 2:
        raise ValueError(f"need at least 2 walkers for a standard error, got {walkers}")
    disp, _, _ = walk_batch(fld, t, walkers, seed, start=start)
    return _mean_se((disp @ v) ** 2 / t)
