"""Benchmark of the homogenize command line, one workload per run.

    python3 bench/run.py --workload {campaign,solve_large,walk_spectral} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source tree; the package is imported from its `src/`.
A workload is a fixed session of CLI invocations (bench/workloads.py) whose
configs are generated from --seed.  It runs in a fresh child process with
BLAS threads pinned to 1.

--trace 0 reports the end-to-end metrics:
  wall_s       wall time of one untraced pass over the session, as the sum
               of each invocation's median over the passes of the run
  setup_s      median, over fresh interpreters, of importing homogenize and
               homogenize.cli and validating the workload's configs
  peak_rss_mb  peak resident memory of the workload's child process
--trace 1 reports the per-layer metrics of bench/tracing.py from traced
passes, plus trace.overhead_frac against an untraced pass.

Every artifact is checked (bench/checks.py); an invocation that exits
nonzero, fails its check or writes different bytes than the reference counts
in `failed`.  The next-to-last line of output is a JSON record of the
machine, the passes and any problems; the last line is the result.  Outputs,
traces and reference digests go to .bench_out/ in the source tree.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from workloads import WHY, session, write_configs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}
SETUP_RUNS = 11
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
TIME_LIMIT = 170.0   # seconds a whole run may take


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "HOMOGENIZE_THREADS")}
    env.update(PINNED)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(args: list[str], timeout: float) -> str:
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "session.py"), *args],
                              cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {args[0]} exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"child {args[0]} exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    return proc.stdout


def check_source(path: str):
    if not Path(path).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"homogenize was imported from {path}, not from {ROOT / 'src'}")


def machine(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas, "pinned_env": PINNED, "seed": seed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not (ROOT / "src" / "homogenize" / "cli.py").is_file():
        print(f"error: no homogenize package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_out" / args.workload
    configs = write_configs(session(args.workload, args.seed), work / "configs")
    try:
        metrics = {}
        if not args.trace:
            # the first interpreter also fills the bytecode cache; drop it
            setups = []
            for _ in range(SETUP_RUNS + 1):
                out = json.loads(run_child(["setup", *map(str, configs)], 60.0))
                check_source(out["homogenize"])
                setups.append(out["setup_s"])
            metrics["setup_s"] = statistics.median(setups[1:])
        remaining = TIME_LIMIT - (time.monotonic() - started)
        run_child(["run", "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)],
                  remaining)
        result = json.loads((work / "session.json").read_text())
        check_source(result["homogenize"])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = result["per_layer"]
        units = {name: unit for name, unit, _, _ in tracing.PER_LAYER}
    else:
        metrics.update(wall_s=result["wall_s"], peak_rss_mb=result["peak_rss_mb"])
        units = END_TO_END
    record = {
        "machine": machine(args.seed), "workload": args.workload,
        "why": WHY[args.workload], "passes": result["passes"],
        "failed_frac": result["failed"] / result["attempted"],
        "counts": result.get("counts"), "trace_file": result.get("trace_file"),
        "problems": result["problems"][:20],
    }
    (work / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**record, "metrics": metrics}, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
