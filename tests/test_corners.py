"""Corner sweep: every subcommand through cli.main at the extremes of its inputs.

Each corner must exit 0 with no warning and write finite artifacts.  The
axes so far: d in {1, 2, 3}, N in {1, 2}, and the scale s of
vector = (s, 0, ...) from far below 1 to just under the 2^64 scale guard.
"""

import contextlib
import csv
import io
import itertools
import json
import math
import time
import warnings

from homogenize.cli import SUBCOMMANDS, main

SCALES = (1e-300, 1e-200, 1e-160, 1e-100, 1.0, 2.0 ** 60)
TORI = list(itertools.product((1, 2, 3), (1, 2)))


def corner_config(d, N, s):
    """A runnable config on the torus (d, N) with vector (s, 0, ...), every
    section small enough for the whole sweep to take about a second."""
    return {"geometry": {"dimension": d, "half_period": N},
            "law": {"kind": "uniform", "params": [0.5, 2.0]}, "seed": 0,
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


def test_vector_scale_corners_exit_0_with_finite_artifacts(tmp_path):
    failures = []
    start = time.perf_counter()
    for sub, (d, N), s in itertools.product(SUBCOMMANDS, TORI, SCALES):
        corner = (sub, d, N, s)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(corner_config(d, N, s)))
        out = tmp_path / f"{sub}_{d}_{N}_{s:g}"
        try:
            with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                warnings.simplefilter("error")
                code = main([sub, "--config", str(config), "--output-dir", str(out)])
        except Exception as exc:   # a warning, or a program bug (exit 1)
            failures.append((*corner, repr(exc)))
            continue
        if code != 0:
            failures.append((*corner, code, err.getvalue()))
            continue
        written = sorted(out.iterdir())
        if not written:
            failures.append((*corner, "no artifact"))
        failures += [(*corner, path.name, bad) for path in written
                     if (bad := non_finite(path))]
    elapsed = time.perf_counter() - start
    assert not failures, failures
    count = len(SUBCOMMANDS) * len(TORI) * len(SCALES)
    assert elapsed < 3.0, f"{count} corners took {elapsed:.2f} s"
