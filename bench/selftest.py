"""Self-test of the benchmark at toy sizes; takes a few seconds.

    PYTHONPATH=src python3 bench/selftest.py

Runs every workload's session at toy sizes through the benchmark's own code:
an untraced, a counting and two traced passes, then untraced passes again
against the stored reference bytes and counts.  Then it checks that a
corrupted artifact and an invocation exiting 3 on a ConvergenceError are
counted as failed, and that BENCHMARK.json lists the workloads and metrics
defined in bench/.  Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import shutil
import sys

import session
import tracing
from run import END_TO_END
from workloads import SESSIONS, WHY, Invocation, session as make_session

ROOT = session.ROOT
WORK = ROOT / ".bench_out" / "selftest"
SEED = 3


def expect(ok: bool, message: str, failures: list):
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        failures.append(message)


def main() -> int:
    failures = []
    shutil.rmtree(WORK, ignore_errors=True)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect({w["name"]: w["why"] for w in spec["workloads"]} == WHY,
           "BENCHMARK.json workloads match bench/workloads.py", failures)
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END,
           "BENCHMARK.json end-to-end metrics match bench/run.py", failures)
    expect([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
           == [row[:3] for row in tracing.PER_LAYER],
           "BENCHMARK.json per-layer metrics match bench/tracing.py", failures)

    layer_names = {row[0] for row in tracing.PER_LAYER}
    for workload in SESSIONS:
        invs = make_session(workload, SEED, toy=True)
        work = WORK / workload
        traced = session.run_session(workload, invs, SEED, 0, True, work)
        expect(traced["correct"] and traced["failed"] == 0,
               f"{workload}: traced session passes its checks {traced['problems']}",
               failures)
        expect(set(traced["per_layer"]) == layer_names,
               f"{workload}: traced session reports every per-layer metric",
               failures)
        plain = session.run_session(workload, invs, SEED, 0, False, work)
        expect(plain["correct"] and plain["failed"] == 0,
               f"{workload}: untraced rerun matches the stored reference "
               f"{plain['problems']}", failures)
        header, *spans = (ROOT / traced["trace_file"]).read_text().splitlines()
        at = json.loads(header)["fields"].index("workload")
        expect(spans and all(json.loads(line)[at] == workload for line in spans),
               f"{workload}: every span carries its workload", failures)

    # a corrupted artifact counts as failed: bytes edited in a later pass
    # fail that pass; an out-of-bounds matrix in the first pass fails all
    invs = make_session("solve_large", SEED, toy=True)
    passes_dir = WORK / "solve_large" / "passes"
    records = [{"pass": k, "dir": f"pass{k}", "codes": [0] * len(invs),
                "outputs": [""] * len(invs)} for k in range(2)]
    history = next((WORK / "solve_large" / "history").glob("*.json"))
    reference = json.loads(history.read_text())["digests"]
    artifact = next((passes_dir / "pass1" / invs[3].name).glob("*.json"))
    artifact.write_text(artifact.read_text() + " ")
    _, failed, problems = session.tally(invs, records, passes_dir, reference)
    expect(failed == 1, f"changed bytes in one pass count once ({problems})",
           failures)

    artifact = next((passes_dir / "pass0" / invs[0].name).glob("*.json"))
    doc = json.loads(artifact.read_text())
    doc["effective_matrix"]["entries"] = [
        [10 * x for x in row] for row in doc["effective_matrix"]["entries"]]
    artifact.write_text(json.dumps(doc))
    _, failed, problems = session.tally(invs, records, passes_dir, reference)
    expect(failed == 3 and any("Voigt" in p for p in problems),
           f"a matrix outside Voigt-Reuss fails its check ({problems})", failures)

    # an invocation that exits 3 on a ConvergenceError counts as failed
    stalled = Invocation(0, "surface-tension", {
        **invs[3].config, "surface": {"max_steps": 1}})
    result = session.run_session("stalled", [stalled], SEED, 0, False,
                                 WORK / "stalled")
    expect(result["failed"] == result["attempted"] == 2
           and all("exit 3" in p for p in result["problems"]),
           f"exit 3 counts as failed ({result['problems']})", failures)

    print("self-test " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
