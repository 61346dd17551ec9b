"""Span tracing of a workload pass, from outside the package.

`Tracer.installed()` replaces the public functions listed in WRAPPED by
wrappers wherever a homogenize module has bound them (its own namespace and
every module that imported them), and restores the originals on exit.  A
wrapper records one span per call: (function, start, end, parent span, pass
id, info), where info holds the numbers a layer metric needs (CG
iterations, torus size, ...).  Spans stay in memory and are written out at
the end of a run.

A layer's self time is the duration of its spans minus the part covered by
their child spans.  The layers' self times plus the unattributed remainder
(pass time outside any cli.main span) add up to the traced pass's wall time.

PER_LAYER lists every per-layer metric with the end-to-end metric and
workload it is expected to move.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from contextlib import contextmanager

import numpy as np

# module -> {public function: the self-time metric its spans feed}
WRAPPED = {
    "homogenize.cli": {"main": "cli.self_s"},
    "homogenize.experiments": dict.fromkeys(
        ["run_campaign", "hamming_sensitivity", "surface_tension",
         "resolvent_convergence"], "experiments.self_s"),
    "homogenize.environment": dict.fromkeys(
        ["sample_environment", "periodize", "resample_bonds"],
        "environment.sample_s"),
    "homogenize.diffusivity": {
        **dict.fromkeys(["effective_matrix", "effective_quadratic", "corrector"],
                        "diffusivity.self_s"),
        "identity_residuals": "diffusivity.diagnostics_s"},
    "homogenize.solver": {
        **dict.fromkeys(["solve_poisson", "solve_resolvent"], "solver.self_s"),
        **dict.fromkeys(["dense_operator", "dense_solve"], "solver.dense_s")},
    "homogenize.operators": {
        "apply_generator": "operators.apply_s",
        **dict.fromkeys(["grad", "div_star", "local_drift"], "operators.other_s")},
    # msd_estimate's own time (a mean over the walkers) is counted as walking
    "homogenize.walker": dict.fromkeys(["walk_batch", "msd_estimate"],
                                       "walker.walk_s"),
    "homogenize.spectral": dict.fromkeys(
        ["spectral_measure", "diffusivity_via_spectrum", "semigroup_moment",
         "semigroup_moment_mc"], "spectral.self_s"),
}
BUCKET = {fn: metric for table in WRAPPED.values() for fn, metric in table.items()}
SELF_TIMES = sorted(set(BUCKET.values()))

# Poisson solves whose largest iteration count is reported, as (d, N).
SOLVE_TORI = {"d2_N16": (2, 16), "d2_N128": (2, 128), "d3_N24": (3, 24)}
TORUS_KEY = {torus: key for key, torus in SOLVE_TORI.items()}

# (name, unit, better, the end-to-end metric and workload it should move)
PER_LAYER = [
    ("cli.self_s", "s", "lower",
     "wall_s on every workload; predicted flat"),
    ("experiments.records_per_s", "1/s", "higher", "wall_s on campaign"),
    ("experiments.self_s", "s", "lower",
     "wall_s on campaign (per-record overhead) and solve_large (descent loop)"),
    ("experiments.sample_calls", "count", "lower", "wall_s on campaign"),
    ("environment.sample_s", "s", "lower", "wall_s on campaign"),
    ("diffusivity.matrices", "count", "lower", "none (a count)"),
    ("diffusivity.self_s", "s", "lower", "wall_s on campaign"),
    ("diffusivity.diagnostics_s", "s", "lower",
     "wall_s on campaign and solve_large"),
    ("solver.iterations", "count", "lower", "wall_s on campaign and solve_large"),
    ("solver.iters_per_solve.d2_N16", "count", "lower", "wall_s on campaign"),
    ("solver.iters_per_solve.d2_N128", "count", "lower", "wall_s on solve_large"),
    ("solver.iters_per_solve.d3_N24", "count", "lower", "wall_s on solve_large"),
    ("solver.self_s", "s", "lower", "wall_s on campaign and solve_large"),
    ("solver.s_per_iteration", "s", "lower", "wall_s on solve_large"),
    ("solver.relative_residual_max", "ratio", "lower",
     "none (an accuracy guard, must stay <= tol)"),
    ("solver.dense_calls", "count", "lower", "wall_s on walk_spectral"),
    ("solver.dense_s", "s", "lower", "wall_s on walk_spectral"),
    ("operators.apply_calls", "count", "lower", "none (a count)"),
    ("operators.apply_s", "s", "lower", "wall_s on campaign and solve_large"),
    ("operators.apply_ns_per_site", "ns", "lower",
     "wall_s on campaign (call overhead) and solve_large (bandwidth)"),
    ("operators.apply_gb_per_s", "GB/s", "higher",
     "wall_s on solve_large (computed minimal traffic)"),
    ("operators.other_s", "s", "lower", "wall_s on solve_large (the descent)"),
    ("walker.walk_s", "s", "lower", "wall_s on walk_spectral"),
    ("walker.jumps_per_s", "1/s", "higher",
     "wall_s on walk_spectral (computed expected jumps)"),
    ("spectral.measures", "count", "lower", "wall_s on walk_spectral"),
    ("spectral.self_s", "s", "lower", "wall_s on walk_spectral"),
    ("trace.overhead_frac", "ratio", "lower", "none (overhead check)"),
    ("trace.unattributed_s", "s", "lower", "none (accounting remainder)"),
]


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _solve_info(args, kwargs, report):
    fld, g = args[0], _arg(args, kwargs, 1, "g")
    norm_g = float(np.linalg.norm(g))
    rel = report.residual_norm / norm_g if norm_g > 0 else 0.0
    return (fld.dimension, fld.geometry.half_period, report.iterations, rel)


def _walk_info(args, kwargs, _result):
    fld = args[0]
    t, walkers = _arg(args, kwargs, 1, "t"), _arg(args, kwargs, 2, "walkers")
    # mean per-site total jump rate is 2 * sum_i mean(xi_i)
    return walkers * t * 2.0 * fld.dimension * float(fld.rates.mean())


# function -> info(args, kwargs, result) recorded on its span
INFO = {
    "solve_poisson": _solve_info,
    "solve_resolvent": _solve_info,
    "apply_generator": lambda args, kwargs, result: (result.ndim, result.size),
    "run_campaign": lambda args, kwargs, result: len(result),
    "walk_batch": _walk_info,
}


class Tracer:
    """Span recorder; `installed(pass_id, timed)` traces one pass.

    With timed=False the wrappers read no clock, so a pass yields the call
    counts and solver reports without timing overhead.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.spans = []

    @contextmanager
    def installed(self, pass_id: int, timed: bool = True):
        originals = {}
        for modname, table in WRAPPED.items():
            module = importlib.import_module(modname)
            for fn in table:
                originals[id(getattr(module, fn))] = fn
        stack = []
        wrappers = {}
        patched = []
        for modname, module in list(sys.modules.items()):
            if not (modname == "homogenize" or modname.startswith("homogenize.")):
                continue
            for attr, value in list(vars(module).items()):
                fn = originals.get(id(value))
                if fn is None:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(fn, value, stack, pass_id, timed)
                setattr(module, attr, wrappers[id(value)])
                patched.append((module, attr, value))
        try:
            yield
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    def _wrap(self, name, fn, stack, pass_id, timed):
        spans = self.spans
        clock = time.perf_counter if timed else (lambda: 0.0)
        info = INFO.get(name)

        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append((name, 0.0, 0.0, parent, pass_id, None))
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, pass_id, None)
            if info is not None:
                spans[index] = (name, start, end, parent, pass_id,
                                info(args, kwargs, result))
            return result

        return wrapper

    def write(self, path, walls: dict):
        """Spans of the passes in `walls` (pass id -> wall time) as JSON lines.

        The first line names the fields; each further line is one span.
        """
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start", "end", "parent",
                                            "workload", "pass", "info"],
                                 "workload": self.workload,
                                 "pass_walls": walls}) + "\n")
            for index, (name, start, end, parent, pass_id, info) in enumerate(self.spans):
                if pass_id in walls:
                    fh.write(json.dumps([index, name, start, end, parent,
                                         self.workload, pass_id, info]) + "\n")

    def counts(self, pass_id: int) -> dict:
        """The exact counts of one pass."""
        spans = self.spans
        calls = {}
        iterations = 0
        per_torus = dict.fromkeys(SOLVE_TORI, 0)
        sample_calls = 0
        for name, _, _, parent, pid, info in spans:
            if pid != pass_id:
                continue
            calls[name] = calls.get(name, 0) + 1
            if name in ("solve_poisson", "solve_resolvent"):
                iterations += info[2]
                key = TORUS_KEY.get(info[:2])
                if name == "solve_poisson" and key is not None:
                    per_torus[key] = max(per_torus[key], info[2])
            elif name == "sample_environment":
                while parent >= 0 and spans[parent][0] != "run_campaign":
                    parent = spans[parent][3]
                sample_calls += parent >= 0
        return {
            "solver.iterations": iterations,
            "operators.apply_calls": calls.get("apply_generator", 0),
            "experiments.sample_calls": sample_calls,
            "spectral.measures": calls.get("spectral_measure", 0),
            "solver.dense_calls": calls.get("dense_operator", 0),
            "diffusivity.matrices": (calls.get("effective_matrix", 0)
                                     + calls.get("effective_quadratic", 0)),
            **{f"solver.iters_per_solve.{key}": val
               for key, val in per_torus.items()},
        }

    def layer_metrics(self, pass_id: int, wall: float) -> tuple[dict, float]:
        """Per-layer metrics of one timed pass, and its cli.main time.

        The self times in the metrics sum to the returned cli.main time,
        which is the pass's wall time minus trace.unattributed_s.
        """
        spans = self.spans
        mine = [i for i, s in enumerate(spans) if s[4] == pass_id]
        covered = dict.fromkeys(mine, 0.0)
        for i in mine:
            parent = spans[i][3]
            if parent >= 0:
                covered[parent] += spans[i][2] - spans[i][1]
        self_s = dict.fromkeys(SELF_TIMES, 0.0)
        total = {}
        roots = 0.0
        residual_max = 0.0
        volume_calls = 0
        traffic = 0.0
        records = 0
        jumps = 0.0
        for i in mine:
            name, start, end, parent, _, info = spans[i]
            self_s[BUCKET[name]] += (end - start) - covered[i]
            total[name] = total.get(name, 0.0) + (end - start)
            if parent < 0:
                roots += end - start
            if name in ("solve_poisson", "solve_resolvent"):
                residual_max = max(residual_max, info[3])
            elif name == "apply_generator":
                d, volume = info
                volume_calls += volume
                # computed minimal traffic: read f and 2d rates, write L f
                traffic += (2 * d + 2) * 8 * volume
            elif name == "run_campaign":
                records += info
            elif name == "walk_batch":
                jumps += info
        counts = self.counts(pass_id)
        apply_s = self_s["operators.apply_s"]
        solve_s = total.get("solve_poisson", 0.0) + total.get("solve_resolvent", 0.0)
        metrics = dict(self_s)
        metrics.update(counts)
        metrics.update({
            "experiments.records_per_s": _ratio(records, total.get("run_campaign", 0.0)),
            "solver.s_per_iteration": _ratio(solve_s, counts["solver.iterations"]),
            "solver.relative_residual_max": residual_max,
            "operators.apply_ns_per_site": 1e9 * _ratio(apply_s, volume_calls),
            "operators.apply_gb_per_s": 1e-9 * _ratio(traffic, apply_s),
            "walker.jumps_per_s": _ratio(jumps, self_s["walker.walk_s"]),
            "trace.unattributed_s": wall - roots,
        })
        return metrics, roots


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0
