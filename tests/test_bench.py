"""The benchmark's self-test runs against the package as it stands."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "selftest.py")],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_traced_campaign_times_the_stacked_diagnostics(tmp_path, monkeypatch):
    # the tracer wraps identity_residuals by name: the toy campaign's traced
    # passes must see it called and timed
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    session = importlib.import_module("session")
    workloads = importlib.import_module("workloads")
    # run_session reports its trace file relative to the source root
    monkeypatch.setattr(session, "ROOT", tmp_path)
    invocations = workloads.session("campaign", 3, toy=True)
    result = session.run_session("campaign", invocations, 3, 0, True,
                                 tmp_path / "work")
    assert result["correct"], result["problems"]
    assert result["per_layer"]["diffusivity.diagnostics_s"] > 0
    assert result["per_layer"]["experiments.records_per_s"] > 0
    header, *spans = (tmp_path / result["trace_file"]).read_text().splitlines()
    fields = json.loads(header)["fields"]
    name, at, info = fields.index("name"), fields.index("pass"), fields.index("info")
    spans = [json.loads(span) for span in spans]
    passes = [span[at] for span in spans if span[name] == "identity_residuals"]
    # one call per solved stack, in each of the two traced passes: the toy
    # converge solves each of its two torus sizes as one stack, and the toy
    # hamming its baseline and perturbed fields as one
    assert sorted(passes) == [2, 2, 2, 3, 3, 3]
    # the tracer counts a campaign's records as len(run_campaign(...)): the
    # toy converge has N_list [2, 4] x 4 replicas, 8 records in each pass
    campaigns = [(span[at], span[info]) for span in spans
                 if span[name] == "run_campaign"]
    assert sorted(campaigns) == [(2, 8), (3, 8)]


def test_every_traced_name_resolves_to_a_function(monkeypatch):
    # the tracer wraps these names in the bench's child process, where a
    # missing one fails with a traceback that does not name it
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    tracing = importlib.import_module("tracing")
    missing = [(module, name) for module, table in tracing.WRAPPED.items()
               for name in table
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert not missing, missing
