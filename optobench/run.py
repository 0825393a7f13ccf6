#!/usr/bin/env python3
"""optoweak benchmark: run one workload and print its metrics as JSON.

Usage (from the repository root):

    python3 optobench/run.py --workload verify-default --seed 0 --seconds 20 --trace 0

Every repetition runs in a fresh single-process Python worker with the
package from ``src/``, so no cache survives from one repetition to the
next, as for a user calling the CLI.  Repetitions run one at a time until
``--seconds`` have passed (at least one).  Each repetition's outputs are
checked; a repetition that crashes or fails a check counts as a failed
operation.

With ``--trace 0`` the last line holds the end-to-end metrics: median
``wall_s`` and ``peak_rss_mb`` over the repetitions, and median ``setup_s``
(interpreter start to ``import optoweak.cli`` done) over several set-up
probes and the repetitions.  With ``--trace 1`` untraced and traced
repetitions alternate, and the last line holds the per-layer metrics of
the traced ones (medians), the import time, and the tracing overhead.
The environment record is printed on the line before and kept, with every
repetition, under ``.optobench/records/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SOURCE = ROOT / "src"
WORKDIR = ROOT / ".optobench"
# the metric names and units this benchmark prints
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

SETUP_PROBES = 4
RUN_DEADLINE_S = 170.0
BLAS_THREADS = "1"


class Runner:
    """Starts workers one at a time, each in its own directory under ``run_dir``."""

    def __init__(self, run_dir: Path, started: float):
        self.run_dir = run_dir
        self.started = started
        self.count = 0

    def spawn(self, spec: dict) -> tuple[dict | None, str]:
        """Run one worker to completion and check its outputs.

        Returns (result, "") on success and (None, reason) on failure.
        """
        self.count += 1
        rep_dir = self.run_dir / f"w{self.count:03d}"
        rep_dir.mkdir(parents=True)
        spec = {**spec, "source": str(SOURCE), "out": str(rep_dir / "output")}
        (rep_dir / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [str(SOURCE), os.environ.get("PYTHONPATH")])),
            "OPENBLAS_NUM_THREADS": BLAS_THREADS,
            "OMP_NUM_THREADS": BLAS_THREADS,
            "MKL_NUM_THREADS": BLAS_THREADS,
        }
        timeout = max(1.0, RUN_DEADLINE_S - (time.monotonic() - self.started))
        log = rep_dir / "worker.log"
        with log.open("wb") as sink:
            spawned = time.monotonic()
            try:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "worker.py"), str(rep_dir / "spec.json"), repr(spawned)],
                    cwd=rep_dir, env=env, stdout=sink, stderr=subprocess.STDOUT, timeout=timeout,
                )
            except subprocess.TimeoutExpired:
                return None, f"worker timed out after {timeout:.0f} s"
        result_path = rep_dir / "result.json"
        if proc.returncode != 0 or not result_path.is_file():
            tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
            return None, f"worker exited with {proc.returncode}: {tail}"
        result = json.loads(result_path.read_text(encoding="utf-8"))
        if spec.get("workload"):
            failures = checks.CHECKS[spec["workload"]](spec["inputs"], rep_dir / "output")
            if failures:
                return None, "; ".join(failures)
        shutil.rmtree(rep_dir / "output", ignore_errors=True)
        return result, ""

    def elapsed(self) -> float:
        return time.monotonic() - self.started


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SOURCE / "optoweak" / "__init__.py").is_file():
        print(f"no optoweak package under {SOURCE}", file=sys.stderr)
        return 2
    started = time.monotonic()
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    run_dir = WORKDIR / "runs" / run_id
    runner = Runner(run_dir, started)
    inputs = workloads.make_inputs(args.workload, args.seed)

    try:
        # The first worker compiles bytecode and warms the file cache; users pay
        # that once per installation, so it is not measured.
        warm, error = runner.spawn({"environment": True})
        if warm is None:
            print(f"set-up failed: {error}", file=sys.stderr)
            return 1
        setups = []
        for _ in range(SETUP_PROBES):
            probe, error = runner.spawn({})
            if probe is None:
                print(f"set-up failed: {error}", file=sys.stderr)
                return 1
            setups.append(probe)

        reps: list[dict] = []
        errors: list[str] = []
        attempted = failed = 0
        modes = (False, True) if args.trace else (False,)
        measure_start = runner.elapsed()
        while True:
            for traced in modes:
                attempted += 1
                result, error = runner.spawn({"workload": args.workload, "inputs": inputs, "trace": traced})
                if result is None:
                    failed += 1
                    errors.append(f"repetition {attempted}: {error}")
                    print(errors[-1], file=sys.stderr)
                else:
                    reps.append({**result, "traced": traced})
            measured = runner.elapsed() - measure_start
            if measured >= args.seconds:
                break
            # a round that would overrun the deadline is not started
            if runner.elapsed() + measured / (attempted // len(modes)) > RUN_DEADLINE_S:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    if not plain or (args.trace and not traced):
        print("no repetition succeeded; nothing was measured", file=sys.stderr)
        return 1

    if args.trace:
        names = traced[0]["layers"].keys()
        values = {name: statistics.median([r["layers"][name] for r in traced]) for name in names}
        values["import.optoweak_s"] = statistics.median([r["import_s"] for r in setups + reps])
        values["trace.wall_s"] = statistics.median([r["wall_s"] for r in traced])
        values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median([r["wall_s"] for r in plain])
    else:
        values = {
            "wall_s": statistics.median([r["wall_s"] for r in plain]),
            "setup_s": statistics.median([r["setup_s"] for r in setups + plain]),
            "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in plain]),
        }
    listed = BENCHMARK["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "inputs": inputs, "environment": warm["environment"], "attempted": attempted, "failed": failed,
        "errors": errors, "setup_probes": setups, "repetitions": reps, "metrics": metrics,
    }
    records = WORKDIR / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{run_id}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({"environment": warm["environment"], "repetitions": len(reps)}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
