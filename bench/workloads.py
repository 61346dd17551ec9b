"""The benchmark's workloads: fixed sessions of `homogenize` CLI invocations.

A workload is a list of (subcommand, config) pairs generated from a workload
seed; the seed only changes which environments are drawn, never the sizes.
Every config uses the law uniform[0.2, 5] (so c = 5) and solver.tol = 1e-10,
and sets only keys that are meant to stay in the config schema: no
`threads`, `solver.max_iterations` or `solver.jacobi`.

This module imports nothing but the standard library, so the parent process
can write configs before any child imports numpy or homogenize.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

LAW = {"kind": "uniform", "params": [0.2, 5.0]}
TOL = 1e-10

# Why each workload is in the benchmark (the same lines as BENCHMARK.json).
WHY = {
    "campaign": "~450 small solves where per-call numpy overhead dominates; "
                "replica batching and per-record overhead show here, walker "
                "and spectral layers idle",
    "solve_large": "a few solves on big tori where iterations x stencil cost "
                   "is nearly everything; preconditioning and stencil "
                   "precompute show here, batching has nothing to batch",
    "walk_spectral": "the exact walker (long horizon from the origin, short "
                     "from stationarity) plus dense eigh; CG sits idle",
}

# (subcommand, dimension, half_period, extra config sections) per workload.
SESSIONS = {
    "campaign": [
        ("converge", 2, 4, {"campaign": {"N_list": [4, 8, 16], "replicas": 64}}),
        ("hamming", 2, 8, {"hamming": {"perturb_counts": [1, 4, 16],
                                       "trials": 20}}),
    ],
    "solve_large": [
        ("diffusivity", 3, 24, {}),
        ("diffusivity", 2, 128, {}),
        ("resolvent", 2, 64, {}),
        ("surface-tension", 2, 64, {}),
    ],
    "walk_spectral": [
        ("walk", 2, 8, {"walk": {"t": 100.0, "walkers": 40_000,
                                 "start": "origin"}}),
        ("spectral", 2, 16, {"spectral": {"n": 20.0, "walkers": 40_000}}),
    ],
}

# The same sessions at toy sizes, for the self-test.
TOY_SESSIONS = {
    "campaign": [
        ("converge", 2, 2, {"campaign": {"N_list": [2, 4], "replicas": 4}}),
        ("hamming", 2, 4, {"hamming": {"perturb_counts": [1, 4, 16],
                                       "trials": 2}}),
    ],
    "solve_large": [
        ("diffusivity", 3, 3, {}),
        ("diffusivity", 2, 8, {}),
        ("resolvent", 2, 4, {}),
        ("surface-tension", 2, 4, {}),
    ],
    "walk_spectral": [
        ("walk", 2, 2, {"walk": {"t": 20.0, "walkers": 2_000,
                                 "start": "origin"}}),
        ("spectral", 2, 4, {"spectral": {"n": 2.0, "walkers": 2_000}}),
    ],
}


@dataclass(frozen=True)
class Invocation:
    """One CLI call: `homogenize <subcommand> --config <config>`."""

    index: int
    subcommand: str
    config: dict

    @property
    def name(self) -> str:
        return f"{self.index}_{self.subcommand}"


def derive_seed(seed: int, workload: str, index: int) -> int:
    """Config seed of invocation `index`, a pure function of the workload seed."""
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def session(workload: str, seed: int, toy: bool = False) -> list[Invocation]:
    """The invocations of one pass of `workload`, generated from `seed`."""
    table = TOY_SESSIONS if toy else SESSIONS
    if workload not in table:
        raise KeyError(f"unknown workload {workload!r}; choose from {sorted(table)}")
    out = []
    for i, (sub, d, n, extra) in enumerate(table[workload]):
        config = {"geometry": {"dimension": d, "half_period": n},
                  "law": dict(LAW), "seed": derive_seed(seed, workload, i),
                  "solver": {"tol": TOL}, **extra}
        out.append(Invocation(i, sub, config))
    return out


def write_configs(invocations: list[Invocation], directory: Path) -> list[Path]:
    """Write each invocation's config as `<directory>/<name>.json`."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for inv in invocations:
        path = directory / f"{inv.name}.json"
        path.write_text(json.dumps(inv.config, indent=2, sort_keys=True) + "\n")
        paths.append(path)
    return paths
