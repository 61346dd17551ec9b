"""Campaign drivers: convergence, concentration, sensitivity and identities.

A campaign draws independent environments (one deterministic seed per
replica, split off the master seed; each replica's environment is sampled
on the largest torus and periodized to every torus size, so successive
sizes are positively coupled), computes the effective matrix for each into
one record array (a row per record, no Python object per record), and
aggregates its columns.  A record depends only on its (N, replica) pair,
not on the replicas solved in the same stack, and records come in
(N, replica) order, so aggregation is deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass

import numpy as np

from .environment import (BondField, DisorderLaw, SizeGuardError,
                          TorusGeometry, periodize, resample_bonds, rng_for,
                          sample_environment)
from .operators import grad, local_drift, div_star
from .diffusivity import (DIAGNOSTICS, _energy, corrector, effective_matrices,
                          effective_quadratic, effective_quadratics, worst)
from .solver import (DEFAULT_TOL, ConvergenceError, _inverse_symbols,
                     _precondition, solve_resolvent)


class TooManyBondsError(ValueError):
    """More perturbed bonds requested than the torus has."""


@dataclass(frozen=True)
class CampaignConfig:
    law: DisorderLaw
    dimension: int
    N_list: tuple
    replicas: int
    tol: float = DEFAULT_TOL
    master_seed: int = 0

    def __post_init__(self):
        if not self.N_list or list(self.N_list) != sorted(set(self.N_list)):
            raise ValueError("N_list must be nonempty and strictly increasing")
        if self.replicas < 2:
            raise ValueError("need at least 2 replicas for variance estimates")

    def to_json(self) -> dict:
        return {**asdict(self), "law": self.law.to_json(),
                "N_list": list(self.N_list)}


# Most records of one campaign (replicas x torus sizes) or one Hamming study
# (perturb counts x trials).  A campaign peaks at 0.8, 1.0 and 1.5 KB a record
# above the interpreter at d = 1, 2 and 3, CSV text included (tracemalloc),
# and a Hamming pair at about 0.4 KB, so a run at this bound holds under 1 GB.
MAX_RECORDS = 2 ** 19

# Defaults of concentration_study and surface_tension, which the CLI shares.
DEFAULT_EPSILONS = (0.05, 0.1, 0.2)
DEFAULT_MAX_STEPS = 100_000


def _guard_records(kind: str, count: int) -> None:
    """Raise SizeGuardError above MAX_RECORDS records, before any is built."""
    if count > MAX_RECORDS:
        raise SizeGuardError(f"{count} {kind} records exceed the record guard "
                             f"{MAX_RECORDS}")


def replica_seed(master_seed: int, replica: int) -> int:
    """Deterministic, order-independent per-replica seed."""
    return int(rng_for(master_seed, replica).integers(2 ** 63))


def run_campaign(config: CampaignConfig) -> np.recarray:
    """One record per (N, replica) pair, in (N, replica) order: the columns
    N, seed, entries (d, d), asymmetry, diagnostics (the worst over the
    record's basis correctors) and iterations.

    Each replica samples one environment on the largest torus and restricts
    it to the smaller sizes, so the per-replica family D_N is the periodized
    sequence of a single environment and successive sizes are coupled.  The
    sample is a pure function of the replica's seed, so it is drawn again
    at every size; the matrices are computed in stacks of replicas
    (effective_matrices), and only one stack's fields are held at a time.
    Above MAX_RECORDS records it raises SizeGuardError before any seed.
    """
    _guard_records("campaign", config.replicas * len(config.N_list))
    d = config.dimension
    geom = TorusGeometry(d, max(config.N_list))
    seeds = [replica_seed(config.master_seed, r) for r in range(config.replicas)]
    records = np.recarray(len(config.N_list) * len(seeds), [
        ("N", int), ("seed", int), ("entries", float, (d, d)),
        ("asymmetry", float), ("diagnostics", DIAGNOSTICS), ("iterations", int)])
    records.N = np.repeat(config.N_list, len(seeds))
    records.seed = np.tile(seeds, len(config.N_list))
    envs = (periodize(sample_environment(config.law, geom, seed), n)
            for n, seed in itertools.product(config.N_list, seeds))
    start = 0
    for columns in effective_matrices(envs, tol=config.tol):
        columns["diagnostics"] = worst(columns["diagnostics"])
        rows = records[start:start + len(columns["iterations"])]
        start += len(rows)
        for name in records.dtype.names[2:]:
            rows[name] = columns[name]
    return records


def convergence_study(config: CampaignConfig, records: np.recarray) -> dict:
    """Monte Carlo means of D_N per torus size over run_campaign's records.

    The successive-difference column |mean_N - mean_2N| (max over entries)
    is the convergence proxy; CI halfwidths are 1.96 * sem.
    """
    table = []
    for n in config.N_list:
        block = records.entries[records.N == n]
        mean = block.mean(axis=0)
        sem = block.std(axis=0, ddof=1) / np.sqrt(block.shape[0])
        table.append({"N": n, "mean": mean, "ci_halfwidth": 1.96 * sem})
    for row, nxt in zip(table, table[1:]):
        row["diff_to_next"] = float(np.abs(row["mean"] - nxt["mean"]).max())
    return {"table": table}


def concentration_study(config: CampaignConfig, records: np.recarray, v,
                        epsilons=DEFAULT_EPSILONS) -> dict:
    """Spread of (v, D_N v) across run_campaign's replicas per torus size.

    Reports the empirical standard deviation, the tail frequency beyond
    each epsilon, and the fitted exponent of std ~ N^-exponent.
    """
    v = np.asarray(v, dtype=float)
    table = []
    for n in config.N_list:
        vals = np.array([v @ e @ v for e in records.entries[records.N == n]])
        centered = np.abs(vals - vals.mean())
        table.append({
            "N": n,
            "std": float(vals.std(ddof=1)),
            "mean": float(vals.mean()),
            "tail_frequency": {eps: float((centered > eps).mean())
                               for eps in epsilons},
        })
    stds = np.array([row["std"] for row in table])
    exponent = None
    if len(table) >= 2 and np.all(stds > 0):
        slope = np.polyfit(np.log([row["N"] for row in table]), np.log(stds), 1)[0]
        exponent = float(-slope)
    return {"table": table, "decay_exponent": exponent}


def hamming_sensitivity(fld: BondField, v, perturb_counts, trials: int,
                        law: DisorderLaw, tol: float = DEFAULT_TOL,
                        seed: int = 0) -> dict:
    """Response of (v, D_N v) to resampling a few bonds.

    For each count, resamples that many uniformly chosen bonds from law and
    records (hamming fraction, |delta (v, D_N v)|) pairs; a log-log fit over
    the nonzero pairs gives the reported exponent.  Only the decay to zero
    is a contract; the true Hoelder exponent is not asserted.  No count, or
    fewer than one trial, raises ValueError, and above MAX_RECORDS pairs it
    raises SizeGuardError, before any trial.
    """
    if len(perturb_counts) < 1:
        raise ValueError("need at least one perturb count, got none")
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    nbonds = fld.geometry.bond_count
    if max(perturb_counts) > nbonds:
        raise TooManyBondsError(f"cannot perturb {max(perturb_counts)} of the "
                                f"{nbonds} bonds")
    _guard_records("hamming", len(perturb_counts) * trials)
    counts = np.repeat(perturb_counts, trials)

    def perturbed():
        for count, trial in itertools.product(perturb_counts, range(trials)):
            rng = rng_for(seed, count, trial)
            bonds = rng.choice(nbonds, size=count, replace=False)
            yield resample_bonds(fld, bonds, law, seed=int(rng.integers(2 ** 63)))

    # the baseline and every perturbed field are solved in stacks
    base, *values = effective_quadratics(itertools.chain([fld], perturbed()), v,
                                         tol=tol)
    fracs = counts / nbonds
    deltas = np.abs(np.array(values) - base)
    ok = (fracs > 0) & (deltas > 0)
    exponent = None
    if ok.sum() >= 2 and len(set(np.round(np.log(fracs[ok]), 12))) >= 2:
        exponent = float(np.polyfit(np.log(fracs[ok]), np.log(deltas[ok]), 1)[0])
    medians = {int(c): float(np.median(deltas[counts == c])) for c in perturb_counts}
    return {"pairs": list(zip(fracs.tolist(), deltas.tolist())),
            "medians": medians, "exponent": exponent, "baseline": base}


def surface_tension(fld: BondField, v, tol: float = DEFAULT_TOL,
                    max_steps: int = DEFAULT_MAX_STEPS) -> tuple[float, float, float]:
    """Tilting free energy per site, and its quarter-form cross-check.

    The energy  mean over sites of sum_i xi_i (v_i + grad_i f)^2  is
    minimized by Laplacian-preconditioned Barzilai-Borwein descent along
    z = P g, P the symbol CG uses (mean removed every step).  It stays
    independent of CG: the energy, its gradient and the stop rule
    ||g|| <= tol ||g_0|| come from grad and div_star alone, so a wrong P
    can only slow or stall the descent, never move the minimizer.  Returns
    (sigma, quarter_form, |sigma - quarter_form|), each for v in CG's unit
    and scaled back by its square.  If max_steps steps fall short, the
    ConvergenceError carries the final gradient norm relative to the first.
    """
    v = np.asarray(v, dtype=float)
    unit = np.ldexp(0.5, np.frexp(np.abs(v).max())[1])
    v = v / unit
    xi = fld.rates
    d = fld.dimension
    vol = fld.geometry.volume
    vgrid = v.reshape((d,) + (1,) * d)
    axes = tuple(range(-d, 0))
    inv = _inverse_symbols([fld], 0.0)[0]

    def gradient(f):
        g = (2.0 / vol) * div_star(xi * (vgrid + grad(f)))
        return g - g.mean()

    if max_steps < 1:
        raise ValueError(f"max_steps must be at least 1, got {max_steps}")
    f = np.zeros(fld.geometry.grid_shape)
    g = gradient(f)
    gnorm = g0norm = np.linalg.norm(g)
    gtol = tol * g0norm
    f_prev = g_prev = z = None
    for _ in range(max_steps):
        if gnorm <= gtol:
            break
        z, z_prev = _precondition(g, inv, axes), z
        # BB2 along z, with P y = z - z_prev (no second FFT round trip); an
        # exact line search on the first step and wherever <y, P y> <= 0
        y = None if z_prev is None else g - g_prev
        yz = 0.0 if y is None else float(np.vdot(y, z - z_prev))
        if yz > 0:
            alpha = float(np.vdot(f - f_prev, y)) / yz
        else:
            alpha = float(np.vdot(g, z)) / (float(np.sum(xi * grad(z) ** 2)) * 2.0 / vol)
        f_prev, g_prev = f, g
        f = f - alpha * z
        f -= f.mean()
        g = gradient(f)
        gnorm = np.linalg.norm(g)
    if gnorm > gtol:
        raise ConvergenceError(f"descent exhausted {max_steps} steps",
                               residual=float(gnorm / g0norm),
                               iterations=max_steps)
    w = vgrid + grad(f)
    sigma = 0.5 * (float(np.sum(xi * w * w)) / vol) * unit * unit
    quarter = 0.25 * effective_quadratic(fld, v, tol=tol) * unit * unit
    return sigma, quarter, abs(sigma - quarter)


def resolvent_convergence(fld: BondField, v, lam_list,
                          tol: float = DEFAULT_TOL) -> list[dict]:
    """Weighted gradient gap between resolvent and corrector solutions.

    For each lam the discrepancy sum_i mean(xi_i (grad_i chi_lam - psi^i)^2)
    is reported; it decreases to zero as lam drops below the spectral gap.
    """
    v = np.asarray(v, dtype=float)
    phi = local_drift(fld, v)
    psi = grad(corrector(fld, v, tol=tol).solution)
    rows = []
    for lam in lam_list:
        chi_lam = solve_resolvent(fld, phi, lam, tol=tol).solution
        delta = grad(chi_lam) - psi
        energy = _energy(fld.rates, delta)
        rows.append({"lam": float(lam), "discrepancy": float(0.5 * energy)})
    return rows

