"""Child process of the benchmark: one workload session, or one set-up.

    python3 bench/session.py setup CONFIG...
        In this fresh interpreter, import homogenize and homogenize.cli and
        validate each CONFIG; print the seconds that took as JSON.
    python3 bench/session.py run --workload W --seed S --seconds X --trace T
        Run the workload's CLI session in passes for about X seconds and
        write the outcome to .bench_out/W/session.json.

Every invocation goes in-process through homogenize.cli.main.  Without
--trace 1 every pass runs untraced.  With --trace 1 the first pass runs
untraced (the baseline of trace.overhead_frac), the second with call
counting only (no clock reads), and the rest traced.

Failures: an invocation fails in a pass when it exits nonzero, when its
artifacts differ from the reference bytes (those of an earlier run of the
same seed and source, else of the first pass), or when the first pass's
artifacts fail their output check.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

# numpy, homogenize and the bench modules that need them are imported inside
# the functions, so that `setup` times their import from a cold interpreter.
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_TRACED_PASSES = 2


def setup(paths: list[str]) -> dict:
    start = time.perf_counter()
    import homogenize
    import homogenize.cli
    for path in paths:
        homogenize.cli.load_config(path)
    return {"setup_s": time.perf_counter() - start,
            "homogenize": homogenize.__file__}


def _invoke(cli, inv, config: Path, outdir: Path) -> tuple[int, str, float]:
    """(exit code, captured output, seconds) of one in-process CLI call."""
    import io
    import traceback
    from contextlib import redirect_stderr, redirect_stdout

    sink = io.StringIO()
    argv = [inv.subcommand, "--config", str(config), "--output-dir", str(outdir)]
    start = time.perf_counter()
    try:
        with redirect_stdout(sink), redirect_stderr(sink):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a program bug fails the invocation, not the benchmark
        code = -1
        sink.write(traceback.format_exc())
    return code, sink.getvalue(), time.perf_counter() - start


def _digest(directory: Path) -> str:
    import hashlib
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def source_hash() -> str:
    """Digest of the package source, so stored references follow the code."""
    import hashlib
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def tally(invocations, passes: list[dict], passes_dir: Path,
          reference: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every invocation of every pass."""
    import checks

    problems = []
    bad_output = set()
    first = passes[0]
    for inv, code in zip(invocations, first["codes"]):
        if code == 0:
            found = checks.check(inv, passes_dir / first["dir"] / inv.name)
            problems += found
            if found:
                bad_output.add(inv.name)
    failed = 0
    for record in passes:
        for inv, code, output in zip(invocations, record["codes"], record["outputs"]):
            digest = _digest(passes_dir / record["dir"] / inv.name)
            if code != 0:
                tail = output.strip().splitlines()[-1:] or [""]
                problems.append(f"pass {record['pass']} {inv.name}: exit {code}: {tail[0]}")
            elif digest != reference.get(inv.name, digest):
                problems.append(f"pass {record['pass']} {inv.name}: artifacts differ "
                                "from the reference bytes")
            elif inv.name not in bad_output:
                continue
            failed += 1
    return len(passes) * len(invocations), failed, problems


def run_session(label: str, invocations, seed: int, seconds: float,
                trace: bool, work: Path) -> dict:
    """Run `invocations` in passes for about `seconds`; see the module doc."""
    import gc
    import resource
    import shutil
    import statistics
    from contextlib import nullcontext

    import homogenize
    from homogenize import cli

    import tracing
    from workloads import write_configs

    configs = write_configs(invocations, work / "configs")
    passes_dir = work / "passes"
    shutil.rmtree(passes_dir, ignore_errors=True)
    tracer = tracing.Tracer(label)
    kinds = ["plain", "count"] + ["traced"] * MIN_TRACED_PASSES if trace \
        else ["plain"] * 2
    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        k = len(passes)
        kind = kinds[k] if k < len(kinds) else kinds[-1]
        outdir = passes_dir / f"pass{k}"
        context = nullcontext() if kind == "plain" else \
            tracer.installed(k, timed=kind == "traced")
        gc.collect()
        with context:
            start = time.perf_counter()
            results = [_invoke(cli, inv, config, outdir / inv.name)
                       for inv, config in zip(invocations, configs)]
            wall = time.perf_counter() - start
        codes, outputs, seconds_each = zip(*results)
        passes.append({"pass": k, "kind": kind, "wall_s": wall, "dir": outdir.name,
                       "codes": codes, "outputs": outputs, "seconds": seconds_each})
        if len(passes) >= len(kinds) and time.perf_counter() + wall > deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    history_path = work / "history" / f"seed{seed}-{source_hash()}.json"
    history = json.loads(history_path.read_text()) if history_path.is_file() else {}
    digests = {inv.name: _digest(passes_dir / "pass0" / inv.name)
               for inv in invocations}
    reference = history.get("digests", digests)
    attempted, failed, problems = tally(invocations, passes, passes_dir, reference)
    correct = failed == 0

    walls = {kind: [p["wall_s"] for p in passes if p["kind"] == kind]
             for kind in ("plain", "traced")}
    result = {
        "workload": label, "seed": seed, "trace": int(trace),
        "homogenize": homogenize.__file__,
        "passes": [{"pass": p["pass"], "kind": p["kind"], "wall_s": p["wall_s"],
                    "invocation_s": p["seconds"]} for p in passes],
        # one pass's wall time, as the sum of each invocation's median time
        "wall_s": sum(statistics.median(times) for times in zip(
            *(p["seconds"] for p in passes if p["kind"] == "plain"))),
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted, "failed": failed,
    }
    if trace:
        counted = [p["pass"] for p in passes if p["kind"] != "plain"]
        counts = [tracer.counts(k) for k in counted]
        if any(c != counts[0] for c in counts):
            correct = False
            problems.append(f"exact counts differ between passes: {counts}")
        if history.get("counts", counts[0]) != counts[0]:
            correct = False
            problems.append("exact counts differ from an earlier run: "
                            f"{history['counts']} vs {counts[0]}")
        per_pass = []
        for p in passes:
            if p["kind"] != "traced":
                continue
            metrics, roots = tracer.layer_metrics(p["pass"], p["wall_s"])
            self_sum = sum(metrics[name] for name in tracing.SELF_TIMES)
            if abs(self_sum - roots) > 1e-6 * p["wall_s"] or \
                    metrics["trace.unattributed_s"] < 0:
                correct = False
                problems.append(f"pass {p['pass']}: layer self times "
                                f"{self_sum} do not add up to cli.main's {roots}")
            per_pass.append(metrics)
        layers = {name: statistics.median(m[name] for m in per_pass)
                  for name in per_pass[0]}
        layers.update(counts[0])
        layers["trace.overhead_frac"] = \
            statistics.median(walls["traced"]) / walls["plain"][0] - 1.0
        result["counts"] = counts[0]
        result["per_layer"] = layers
        trace_path = work / "trace.jsonl"
        tracer.write(trace_path, {p["pass"]: p["wall_s"] for p in passes
                                  if p["kind"] == "traced"})
        result["trace_file"] = str(trace_path.relative_to(ROOT))
        history["counts"] = counts[0]
    history["digests"] = reference
    history_path.parent.mkdir(parents=True, exist_ok=True)
    history_path.write_text(json.dumps(history, indent=1, sort_keys=True) + "\n")
    result["correct"] = correct
    result["problems"] = problems
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p_setup = sub.add_parser("setup")
    p_setup.add_argument("configs", nargs="+")
    p_run = sub.add_parser("run")
    p_run.add_argument("--workload", required=True)
    p_run.add_argument("--seed", type=int, required=True)
    p_run.add_argument("--seconds", type=float, required=True)
    p_run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.mode == "setup":
        print(json.dumps(setup(args.configs)))
        return 0
    from workloads import session
    work = ROOT / ".bench_out" / args.workload
    result = run_session(args.workload, session(args.workload, args.seed),
                         args.seed, args.seconds, bool(args.trace), work)
    (work / "session.json").write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
