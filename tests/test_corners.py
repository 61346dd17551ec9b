"""Corner sweep: every subcommand through cli.main at the extremes of its inputs.

Each corner must exit 0 with no warning and write finite artifacts; on the
contrast axis and the parameter axes a corner may instead exit 4 (a guard's
refusal) and write nothing.  The axes so far, each over d in {1, 2, 3} and
N in {1, 2}: at the default tol, the scale s of vector = (s, 0, ...), from the
zero vector and far below 1 to just under the 2^64 scale guard, and the
contrast of the law, from a constant one to c = 2^63, also just under that
guard; then the parameters, each through the subcommand that reads it:
spectral.n, walk.t and resolvent.lambdas from the least positive double to
their largest, and a loose solver.tol through every subcommand.  The last
axis walks cli.CONFIG_SCHEMA: every number and integer key, array items
included, is set to 10^400 through every subcommand on d = 1, N = 1, and
each corner exits 0, or exits 2 or 4 and writes nothing.  The minimum axis
walks it too: every such key with a minimum is set to it, and every one with
an exclusive minimum to the next double, through every subcommand on
d in {1, 2, 3}, N = 1; each corner exits 0, or exits 2, 3 or 4 and writes
nothing.  The tight-tol axis
runs every subcommand that solves: at tol 1e-300 on two_point(1e-12, 1, 0.5)
each exits 3 and writes nothing, and at tol 1e-16 on uniform[0.2, 5] each
exits 0 or 3; a library solve at such a tol meets it in the true residual,
recomputed here from its solution, or raises ConvergenceError.
"""

import contextlib
import csv
import io
import itertools
import json
import math
import time
import warnings

import numpy as np

from homogenize.cli import (CONFIG_SCHEMA, EXIT_CONFIG, EXIT_GUARD,
                            EXIT_SOLVER, SUBCOMMANDS, main)
from homogenize.environment import DisorderLaw, TorusGeometry, sample_environment
from homogenize.operators import generator, local_drift, mean_rho
from homogenize.solver import ConvergenceError, solve_poisson, solve_resolvent

SCALES = (0.0, 1e-300, 1e-200, 1e-160, 1e-100, 1.0, 2.0 ** 60)
LAWS = ({"kind": "uniform", "params": [0.2, 5.0]},
        {"kind": "two_point", "params": [1e-6, 1.0, 0.5]},
        {"kind": "two_point", "params": [1e-12, 1.0, 0.5]},
        {"kind": "constant", "params": [2.0]},
        {"kind": "two_point", "params": [2.0 ** -63, 1.0, 0.5]})
TORI = list(itertools.product((1, 2, 3), (1, 2)))
# (subcommand, dotted key, values); a spectral n of 1e300 or more asks its
# Monte Carlo walkers for more than 2^32 jumps, and exits 4
PARAMETERS = [("spectral", "spectral.n", (0.0, 5e-324, 1e300, 1.7e308)),
              ("walk", "walk.t", (5e-324, 1e-300, 1e3)),
              ("resolvent", "resolvent.lambdas",
               ([5e-324], [1e-300], [1e300], [1.7e308]))]
PARAMETERS += [(sub, "solver.tol", (1e-15, 0.5, 10.0)) for sub in SUBCOMMANDS]


def corner_config(d, N, s=1.0, law=None):
    """A runnable config on the torus (d, N) with vector (s, 0, ...) and law
    (uniform[0.5, 2] by default), every section small enough for a whole
    sweep to take about a second."""
    return {"geometry": {"dimension": d, "half_period": N},
            "law": law or {"kind": "uniform", "params": [0.5, 2.0]}, "seed": 0,
            "vector": [s] + [0.0] * (d - 1),
            "campaign": {"N_list": [N], "replicas": 2},
            "walk": {"t": 1.0, "walkers": 2},
            "spectral": {"n": 1.0, "walkers": 2},
            "hamming": {"perturb_counts": [1], "trials": 2}}


def non_finite(path):
    """The non-finite numbers of a JSON or CSV artifact (the law column aside)."""
    text = path.read_text()
    if path.suffix == ".json":
        bad = []
        json.loads(text, parse_constant=bad.append)
        return bad
    rows = list(csv.reader(io.StringIO(text)))[1:]
    return [cell for row in rows for i, cell in enumerate(row)
            if i != 4 and not math.isfinite(float(cell))]


def run_corner(tmp_path, corner, config, refusable=False, refusals=(EXIT_GUARD,),
               success=True):
    """The failures of one corner: a warning or exception, an exit other than
    0 (or one of refusals with nothing written, if refusable; only a refusal
    without success), or a missing or non-finite artifact."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "_".join(map(str, corner))
    try:
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            warnings.simplefilter("error")
            code = main([corner[0], "--config", str(path), "--output-dir", str(out)])
    except Exception as exc:   # a warning, or a program bug (exit 1)
        return [(*corner, repr(exc))]
    written = sorted(out.iterdir()) if out.exists() else []
    if refusable and code in refusals:
        return [(*corner, "refused but wrote", written)] if written else []
    if code != 0 or not success:
        return [(*corner, code, err.getvalue())]
    if not written:
        return [(*corner, "no artifact")]
    return [(*corner, path.name, bad) for path in written
            if (bad := non_finite(path))]


def test_vector_scale_corners_exit_0_with_finite_artifacts(tmp_path):
    failures = []
    start = time.perf_counter()
    for sub, (d, N), s in itertools.product(SUBCOMMANDS, TORI, SCALES):
        failures += run_corner(tmp_path, (sub, d, N, f"{s:g}"), corner_config(d, N, s))
    elapsed = time.perf_counter() - start
    assert not failures, failures
    count = len(SUBCOMMANDS) * len(TORI) * len(SCALES)
    assert elapsed < 3.0, f"{count} corners took {elapsed:.2f} s"


def test_contrast_corners_exit_0_or_are_refused(tmp_path):
    # a spectrum whose atom 1 eigh cannot resolve exits 4 (spectral at d=1
    # N=2, c = 2^63); every other corner exits 0
    failures = []
    start = time.perf_counter()
    for sub, (d, N), (i, law) in itertools.product(SUBCOMMANDS, TORI,
                                                   enumerate(LAWS)):
        failures += run_corner(tmp_path, (sub, d, N, f"law{i}"),
                               corner_config(d, N, law=law), refusable=True)
    elapsed = time.perf_counter() - start
    assert not failures, failures
    count = len(SUBCOMMANDS) * len(TORI) * len(LAWS)
    assert elapsed < 3.0, f"{count} corners took {elapsed:.2f} s"


def test_parameter_corners_exit_0_or_are_refused(tmp_path):
    failures = []
    count = 0
    start = time.perf_counter()
    for (sub, key, values), (d, N) in itertools.product(PARAMETERS, TORI):
        section, name = key.split(".")
        for value in values:
            config = corner_config(d, N)
            config.setdefault(section, {})[name] = value
            failures += run_corner(tmp_path, (sub, d, N, key, f"{value}"),
                                   config, refusable=True)
            count += 1
    elapsed = time.perf_counter() - start
    assert not failures, failures
    assert elapsed < 3.0, f"{count} corners took {elapsed:.2f} s"


def numeric_keys(schema, path=()):
    """(path, is an array, the number's schema) of every number and integer
    key of schema."""
    if schema.get("type") in ("number", "integer"):
        return [(path, False, schema)]
    if schema.get("items", {}).get("type") in ("number", "integer"):
        return [(path, True, schema["items"])]
    return [key for name, sub in schema.get("properties", {}).items()
            for key in numeric_keys(sub, path + (name,))]


def edited_corners(config, value):
    """(dotted key, config) with one number or integer set to value(its
    schema), where that is not None: a scalar key, or each item of an array
    key in turn ([value] if the base config has none)."""
    for path, is_array, leaf in numeric_keys(CONFIG_SCHEMA):
        if (new := value(leaf)) is None:
            continue
        key = ".".join(path)
        parent = config
        for name in path[:-1]:
            parent = parent.get(name, {})
        items = parent.get(path[-1]) or [None]
        for i in range(len(items) if is_array else 1):
            edited = json.loads(json.dumps(config))
            node = edited
            for name in path[:-1]:
                node = node.setdefault(name, {})
            node[path[-1]] = (items[:i] + [new] + items[i + 1:]) if is_array else new
            yield f"{key}[{i}]" if is_array else key, edited


def least_value(leaf):
    """A number schema's least value: its minimum, or the next double above
    its exclusive minimum; None if it has neither."""
    if "minimum" in leaf:
        return leaf["minimum"]
    if "exclusiveMinimum" in leaf:
        return math.nextafter(leaf["exclusiveMinimum"], math.inf)
    return None


def test_huge_integer_corners_exit_0_or_are_refused(tmp_path):
    # an integer beyond the double range in any number or integer key, array
    # items included, through every subcommand: run, or a config or guard
    # refusal with nothing written
    corners = list(edited_corners(corner_config(1, 1), lambda leaf: 10 ** 400))
    assert {key.split("[")[0] for key, _ in corners} == {
        ".".join(path) for path, _, _ in numeric_keys(CONFIG_SCHEMA)}
    failures = []
    start = time.perf_counter()
    for sub, (key, config) in itertools.product(SUBCOMMANDS, corners):
        failures += run_corner(tmp_path, (sub, key), config, refusable=True,
                               refusals=(EXIT_CONFIG, EXIT_GUARD))
    elapsed = time.perf_counter() - start
    assert not failures, failures
    count = len(SUBCOMMANDS) * len(corners)
    assert elapsed < 3.0, f"{count} corners took {elapsed:.2f} s"


def test_schema_minimum_corners_exit_typed(tmp_path):
    # every number or integer key with a minimum at it, and with an
    # exclusive minimum at the next double, through every subcommand on
    # the side-2 tori; a corner runs, or exits 2, 3 or 4 and writes nothing
    failures = []
    count = 0
    start = time.perf_counter()
    for d in (1, 2, 3):
        corners = list(edited_corners(corner_config(d, 1), least_value))
        assert {key.split("[")[0] for key, _ in corners} == {
            ".".join(path) for path, _, leaf in numeric_keys(CONFIG_SCHEMA)
            if least_value(leaf) is not None}
        for sub, (key, config) in itertools.product(SUBCOMMANDS, corners):
            failures += run_corner(tmp_path, (sub, d, key), config, refusable=True,
                                   refusals=(EXIT_CONFIG, EXIT_SOLVER, EXIT_GUARD))
            count += 1
    elapsed = time.perf_counter() - start
    assert not failures, failures
    assert elapsed < 3.0, f"{count} corners took {elapsed:.2f} s"


SOLVING = [sub for sub in SUBCOMMANDS if sub not in ("walk", "spectral")]


def test_tight_tolerance_corners_exit_3_or_converge(tmp_path):
    # tol 1e-300 at c = 1e12 once overflowed the iteration cap (exit 1); tol
    # 1e-16 claimed convergence on the updated residual, and surface-tension
    # ran its 100,000 descent steps (about 8 s) into exit 3
    stalled = {"kind": "two_point", "params": [1e-12, 1.0, 0.5]}
    failures = []
    start = time.perf_counter()
    for sub in SOLVING:
        config = corner_config(2, 1, law=stalled)
        config["solver"] = {"tol": 1e-300}
        failures += run_corner(tmp_path, (sub, 2, 1, "1e-300"), config,
                               refusable=True, refusals=(EXIT_SOLVER,),
                               success=False)
    count = len(SOLVING)
    for sub, (d, N) in itertools.product(SOLVING, TORI + [(2, 8)]):
        config = corner_config(d, N, law={"kind": "uniform", "params": [0.2, 5.0]})
        config["solver"] = {"tol": 1e-16}
        failures += run_corner(tmp_path, (sub, d, N, "1e-16"), config,
                               refusable=True, refusals=(EXIT_SOLVER,))
        count += 1
    elapsed = time.perf_counter() - start
    assert not failures, failures
    assert elapsed < 3.0, f"{count} corners took {elapsed:.2f} s"


def test_tight_tolerance_solves_meet_tol_in_the_true_residual_or_raise():
    # the residual is recomputed from the solution as CG defines it: in the
    # right side's power-of-two unit, on the zero-mean subspace
    law = DisorderLaw.uniform(0.2, 5.0)
    outcomes = {"met": 0, "raised": 0}
    failures = []
    start = time.perf_counter()
    for (d, N), lam, tol, seed in itertools.product(
            TORI + [(1, 8), (2, 8), (3, 4)], (0.0, 1e-3, 1.0),
            (1e-14, 1e-15, 1e-16), (0, 1)):
        fld = sample_environment(law, TorusGeometry(d, N), seed)
        g = local_drift(fld, np.eye(d)[0])
        try:
            rep = (solve_resolvent(fld, g, lam, tol) if lam else
                   solve_poisson(fld, g, tol))
        except ConvergenceError:
            outcomes["raised"] += 1
            continue
        outcomes["met"] += 1
        unit = np.ldexp(0.5, np.frexp(np.abs(g).max())[1])
        x = rep.solution / unit
        r = g / unit + generator(fld.rates, x) - lam * x
        r -= mean_rho(r, d)
        relative = np.sqrt(np.vdot(r, r)) / np.linalg.norm(g / unit)
        if not relative <= tol:
            failures.append((d, N, lam, tol, seed, relative))
    elapsed = time.perf_counter() - start
    assert not failures, failures
    # both outcomes occur: tol 1e-16 sits at the rounding floor
    assert outcomes["met"] and outcomes["raised"], outcomes
    assert elapsed < 3.0, f"{sum(outcomes.values())} solves took {elapsed:.2f} s"
