"""Continuous-time random walk among the bond conductances.

Exact event-driven (Gillespie) simulation: at site x the walk jumps to
x + e_i at rate xi_i(x) and to x - e_i at rate xi_i(x - e_i); holding times
are exponential with the total incident rate.  Positions are tracked
unwrapped on Z^d while the moves are read off the torus's move table.

Batches of walkers start at the origin or at uniform torus sites.  Each
numpy sweep advances the live set: the walkers whose clocks have not passed
the horizon, kept compacted in ascending walker order.  A sweep draws one
exponential per live walker and then one uniform per walker still before the
horizon, both in walker order.  A walker whose clock passes the horizon is
written out once, end site and displacement, and dropped from the live set.
The result is a pure function of (environment, horizon, walkers, seed,
start).  walk_batch is the one walk entry point.
"""

from __future__ import annotations

import numpy as np

from .environment import BondField, SizeGuardError, move_table, rng_for

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
    rates, targets = move_table(fld)
    cum = np.cumsum(rates, axis=1)
    holding = cum[:, -1]
    jumps = walkers * t * holding.max()
    if jumps > MAX_JUMPS:
        raise SizeGuardError(f"up to {jumps:.3g} expected jumps exceed the "
                             f"guard {MAX_JUMPS}")
    moves = rates.shape[1]
    # inverse-CDF thresholds, one contiguous row per move but the last, whose
    # threshold is exactly 1 > u
    thresholds = np.ascontiguousarray((cum[:, :-1] / holding[:, None]).T)
    # axis_step[i][k] is the step along axis i of move k: +e_1, -e_1, +e_2, ...
    axis_step = np.kron(np.eye(geom.dimension, dtype=np.int64), [1, -1])
    targets = targets.ravel()
    rng = rng_for(seed)
    if start == "origin":
        pos = np.zeros(walkers, dtype=np.int64)
    elif start == "uniform":
        pos = rng.integers(0, geom.volume, size=walkers)
    else:
        raise ValueError(f"unknown start mode {start!r}")
    start_sites = pos   # the loop rebinds pos and never writes into it
    disp = np.zeros((walkers, geom.dimension), dtype=np.int64)
    end_sites = np.empty_like(start_sites)
    # the live set: walker ids, sites, clocks and (d, n) displacements
    ids = np.arange(walkers)
    clock = np.zeros(walkers)
    live_disp = np.zeros((geom.dimension, walkers), dtype=np.int64)
    while ids.size:
        clock += rng.standard_exponential(ids.size) / holding.take(pos)
        alive = clock <= t
        if not alive.all():
            done = ~alive
            end_sites[ids[done]] = pos[done]
            disp[ids[done]] = live_disp[:, done].T
            ids, pos, clock = ids[alive], pos[alive], clock[alive]
            live_disp = live_disp[:, alive]
            if not ids.size:
                break
        u = rng.random(ids.size)
        choice = np.zeros(ids.size, dtype=np.int64)
        for column in thresholds:
            choice += u > column.take(pos)
        for i in range(geom.dimension):
            live_disp[i] += axis_step[i].take(choice)
        pos = targets.take(pos * moves + choice)
    return disp, start_sites, end_sites


def _mean_se(y: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error; the error is inf for one sample."""
    se = float(y.std(ddof=1) / np.sqrt(y.size)) if y.size > 1 else np.inf
    return float(y.mean()), se


def msd_estimate(fld: BondField, v, t: float, walkers: int, seed: int = 0,
                 start: str = "origin") -> tuple[float, float]:
    """Estimate (v, D_N v) as mean((X_t . v)^2) / t with its standard error.

    start is "origin" or "uniform", as in walk_batch.

    The estimator carries an O(1/t) finite-horizon bias on top of the
    reported Monte Carlo error; pick t large enough that the bias is below
    the standard error.
    """
    if not t > 0:
        raise ValueError(f"horizon must be positive, got {t}")
    v = np.asarray(v, dtype=float)
    disp, _, _ = walk_batch(fld, t, walkers, seed, start=start)
    return _mean_se((disp @ v) ** 2 / t)
