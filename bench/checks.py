"""Output checks of the benchmark: one function per subcommand.

Each check reads the artifacts one CLI invocation wrote and returns a list of
problems (empty when the output is right).  Tolerances are derived from the
solver tolerance and the torus, or from the standard errors the program
reports; none is fitted to the current numbers.

Bounds used below, for a torus of side 2N in dimension d with rates in
[1/c, c] and the CG stopping rule ||r|| <= tol ||g||:
  gap    >= (1/c) 4 sin^2(pi / 2N)      spectral gap of -L on mean-zero fields
  ||g||  <= sqrt(volume) (c - 1/c)      norm of local_drift(e_i)
  ||chi|| <= ||g|| / gap                corrector norm
  kappa  <= 4 d c / gap                 condition number of -L
Every bound is multiplied by SLACK to leave room for rounding.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from workloads import LAW, TOL, Invocation

C = max(LAW["params"][1], 1.0 / LAW["params"][0])
SLACK = 10.0
Z_MAX = 5.0          # "a few standard errors" for Monte Carlo estimates
EPS = float(np.finfo(float).eps)


def bounds(d: int, n: int) -> dict:
    """Solver-tolerance error bounds on the torus of half-period n."""
    side = 2 * n
    volume = side ** d
    gap = 4.0 * math.sin(math.pi / side) ** 2 / C
    drift = math.sqrt(volume) * (C - 1.0 / C)
    kappa = 4.0 * d * C / gap
    return {
        # max |div*(xi (v + psi))| is the CG residual's largest entry
        "flux": SLACK * TOL * drift,
        # |<chi, r>| / volume: orthogonality residual, quadratic-linear gap
        "energy": SLACK * TOL * drift ** 2 / (volume * gap),
        # curl of a gradient vanishes up to rounding of chi's values
        "curl": SLACK * 16.0 * EPS * drift / gap,
        # an entry of D (scale 2c) at relative accuracy kappa * tol
        "entry": SLACK * kappa * TOL * 2.0 * C,
    }


def _one(outdir: Path, pattern: str) -> Path:
    found = sorted(outdir.glob(pattern))
    if len(found) != 1:
        raise FileNotFoundError(f"expected one {pattern} in {outdir.name}, "
                                f"found {len(found)}")
    return found[0]


def _environment(config: dict, half_period: int | None = None, seed=None):
    from homogenize import DisorderLaw, TorusGeometry, sample_environment
    geom = config["geometry"]
    n = half_period if half_period is not None else geom["half_period"]
    return sample_environment(DisorderLaw.from_json(LAW),
                              TorusGeometry(geom["dimension"], n),
                              config["seed"] if seed is None else seed)


def _quadratic_form(fld) -> float:
    """(e1, D_N e1) by the corrector route."""
    from homogenize import effective_matrix
    return effective_matrix(fld, tol=TOL).quadratic_form(np.eye(fld.dimension)[0])


def _dense_matrix(fld) -> np.ndarray:
    """D_N from correctors solved by the dense eigendecomposition oracle."""
    from homogenize import dense_solve, grad, local_drift
    d = fld.dimension
    eye = np.eye(d)
    fluxes = [eye[:, j].reshape((d,) + (1,) * d)
              + grad(dense_solve(fld, local_drift(fld, eye[j])))
              for j in range(d)]
    return np.array([[2.0 * np.mean(np.sum(fld.rates * fluxes[i] * fluxes[j],
                                           axis=0))
                      for j in range(d)] for i in range(d)])


def _matrix_problems(label: str, mat: np.ndarray, entry: float) -> list[str]:
    out = []
    if np.abs(mat - mat.T).max() > 64 * EPS * np.abs(mat).max():
        out.append(f"{label}: not symmetric")
    eig = np.linalg.eigvalsh(0.5 * (mat + mat.T))
    if eig.min() < 2.0 / C - entry or eig.max() > 2.0 * C + entry:
        out.append(f"{label}: eigenvalues {eig} leave [2/c, 2c]")
    return out


def check_converge(inv: Invocation, outdir: Path) -> list[str]:
    camp = inv.config["campaign"]
    d = inv.config["geometry"]["dimension"]
    n_list, replicas = camp["N_list"], camp["replicas"]
    with _one(outdir, "converge_*.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    summary = json.loads(_one(outdir, "converge_*.json").read_text())
    problems = []
    if [(int(r["N"])) for r in rows] != [n for n in n_list for _ in range(replicas)]:
        problems.append("converge: records are not one per (N, replica) in order")
    by_n = {}
    for k, row in enumerate(rows):
        n = int(row["N"])
        b = bounds(d, n)
        mat = np.array([[float(row[f"D_{i}{j}"]) for j in range(d)]
                        for i in range(d)])
        by_n.setdefault(n, []).append(mat)
        label = f"converge record {k} (N={n})"
        problems += _matrix_problems(label, mat, b["entry"])
        limits = {"flux_divergence_residual": b["flux"],
                  "orthogonality_residual": b["energy"],
                  "quadratic_linear_gap": 2.0 * b["energy"],
                  "curl_residual": b["curl"]}
        for key, limit in limits.items():
            if not abs(float(row[key])) <= limit:
                problems.append(f"{label}: {key} {row[key]} above {limit:.3e}")
        if n == n_list[0]:
            fld = _environment(inv.config, n_list[-1], int(row["seed"]))
            if n != n_list[-1]:
                from homogenize.environment import periodize
                fld = periodize(fld, n)
            gap = np.abs(_dense_matrix(fld) - mat).max()
            if not gap <= b["entry"]:
                problems.append(f"{label}: differs from the dense oracle by {gap:.3e}")
    for row in summary["table"]:
        mean = np.mean(by_n.get(row["N"], [np.nan]), axis=0)
        if not np.abs(np.asarray(row["mean"]) - mean).max() <= 64 * EPS * 2 * C:
            problems.append(f"converge summary: mean at N={row['N']} "
                            "disagrees with the records")
    return problems


def check_hamming(inv: Invocation, outdir: Path) -> list[str]:
    doc = json.loads(_one(outdir, "hamming_*.json").read_text())
    ham = inv.config["hamming"]
    geom = inv.config["geometry"]
    problems = []
    if len(doc["pairs"]) != len(ham["perturb_counts"]) * ham["trials"]:
        problems.append("hamming: wrong number of (fraction, delta) pairs")
    if not all(math.isfinite(delta) and delta >= 0 for _, delta in doc["pairs"]):
        problems.append("hamming: a delta is negative or not finite")
    base = _quadratic_form(_environment(inv.config))
    if not abs(doc["baseline"] - base) <= bounds(geom["dimension"],
                                                 geom["half_period"])["entry"]:
        problems.append(f"hamming: baseline {doc['baseline']} != D_11 {base}")
    return problems


def check_diffusivity(inv: Invocation, outdir: Path) -> list[str]:
    doc = json.loads(_one(outdir, "diffusivity_*.json").read_text())
    mat = np.asarray(doc["effective_matrix"]["entries"], dtype=float)
    geom = inv.config["geometry"]
    entry = bounds(geom["dimension"], geom["half_period"])["entry"]
    problems = _matrix_problems("diffusivity", mat, entry)
    # Voigt-Reuss window 2 diag(1/mean(1/xi_i)) <= D <= 2 diag(mean xi_i)
    xi = _environment(inv.config).rates.reshape(geom["dimension"], -1)
    lower = np.diag(2.0 / np.mean(1.0 / xi, axis=1))
    upper = np.diag(2.0 * np.mean(xi, axis=1))
    if np.linalg.eigvalsh(mat - lower).min() < -entry:
        problems.append("diffusivity: below the Reuss bound")
    if np.linalg.eigvalsh(upper - mat).min() < -entry:
        problems.append("diffusivity: above the Voigt bound")
    return problems


def check_resolvent(inv: Invocation, outdir: Path) -> list[str]:
    table = json.loads(_one(outdir, "resolvent_*.json").read_text())["table"]
    geom = inv.config["geometry"]
    entry = bounds(geom["dimension"], geom["half_period"])["entry"]
    lams = [row["lam"] for row in table]
    disc = [row["discrepancy"] for row in table]
    problems = []
    if len(table) < 2 or lams != sorted(lams, reverse=True):
        problems.append(f"resolvent: lambdas {lams} are not falling")
    if not all(math.isfinite(x) and x >= 0 for x in disc):
        problems.append("resolvent: a discrepancy is negative or not finite")
    if any(b > a + entry for a, b in zip(disc, disc[1:])):
        problems.append(f"resolvent: discrepancy {disc} rises as lambda falls")
    return problems


def check_surface_tension(inv: Invocation, outdir: Path) -> list[str]:
    doc = json.loads(_one(outdir, "surface_tension_*.json").read_text())
    geom = inv.config["geometry"]
    entry = bounds(geom["dimension"], geom["half_period"])["entry"]
    if not doc["residual"] <= entry:
        return [f"surface-tension: residual {doc['residual']} above {entry:.3e}"]
    return []


def check_walk(inv: Invocation, outdir: Path) -> list[str]:
    doc = json.loads(_one(outdir, "walk_*.json").read_text())
    walk = inv.config["walk"]
    problems = []
    if doc["walkers"] != walk["walkers"] or doc["t"] != walk["t"]:
        problems.append("walk: artifact does not echo t and walkers")
    quad = _quadratic_form(_environment(inv.config))
    z = abs(doc["msd_estimate"] - quad) / doc["standard_error"]
    if not z <= Z_MAX:
        problems.append(f"walk: MSD {doc['msd_estimate']} is {z:.1f} standard "
                        f"errors from the corrector's {quad}")
    return problems


def check_spectral(inv: Invocation, outdir: Path) -> list[str]:
    doc = json.loads(_one(outdir, "spectral_*.json").read_text())
    geom = inv.config["geometry"]
    entry = bounds(geom["dimension"], geom["half_period"])["entry"]
    problems = []
    quad = _quadratic_form(_environment(inv.config))
    if not abs(doc["diffusivity_via_spectrum"] - quad) <= entry:
        problems.append(f"spectral: spectral route {doc['diffusivity_via_spectrum']}"
                        f" != corrector route {quad}")
    exact = doc["semigroup_moment"]["value"]
    mc = doc["semigroup_moment_mc"]
    z = abs(mc["estimate"] - exact) / mc["standard_error"]
    if not z <= Z_MAX:
        problems.append(f"spectral: Monte Carlo moment is {z:.1f} standard "
                        "errors from the exact moment")
    return problems


CHECKS = {
    "converge": check_converge,
    "hamming": check_hamming,
    "diffusivity": check_diffusivity,
    "resolvent": check_resolvent,
    "surface-tension": check_surface_tension,
    "walk": check_walk,
    "spectral": check_spectral,
}


def check(inv: Invocation, outdir: Path) -> list[str]:
    """Problems with the artifacts `inv` wrote into `outdir`."""
    try:
        return CHECKS[inv.subcommand](inv, outdir)
    except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
        return [f"{inv.name}: unreadable artifact ({type(exc).__name__}: {exc})"]
