"""One benchmark repetition in a fresh interpreter.

Usage: ``worker.py SPEC_JSON SPAWN_TIME``.  SPAWN_TIME is the parent's
``time.monotonic()`` just before it started this process; on Linux that
clock is system-wide, so ``setup_s`` spans interpreter start and the
``import optoweak.cli``.  The spec names a workload (or none, for a
set-up probe), its inputs, the output directory and whether to trace.
The result is written as JSON next to the spec.
"""

import json
import sys
import time
from pathlib import Path


def _environment() -> dict:
    import os
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {key: os.environ.get(key) for key in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _bytes_written(out: Path) -> dict[str, int]:
    sizes = {"sweeps.bytes_written": 0, "svgplot.bytes_written": 0}
    for path in out.rglob("*"):
        if path.suffix in (".csv", ".json"):
            sizes["sweeps.bytes_written"] += path.stat().st_size
        elif path.suffix == ".svg":
            sizes["svgplot.bytes_written"] += path.stat().st_size
    return sizes


def main() -> int:
    spec_path = Path(sys.argv[1])
    spawned = float(sys.argv[2])
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    import_start = time.monotonic()
    import optoweak.cli
    imported = time.monotonic()

    source = Path(spec["source"]).resolve()
    if not Path(optoweak.cli.__file__).resolve().is_relative_to(source):
        raise SystemExit(f"imported {optoweak.cli.__file__}, not the package under {source}")
    result = {"setup_s": imported - spawned, "import_s": imported - import_start}
    if spec.get("environment"):
        result["environment"] = _environment()

    if spec.get("workload"):
        import resource

        import workloads

        out = Path(spec["out"])
        out.mkdir(parents=True)
        tracer = None
        if spec["trace"]:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        result["wall_s"] = workloads.run(spec["workload"], spec["inputs"], out)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            result["layers"] = {**tracing.layer_metrics(tracer.spans), **_bytes_written(out)}

    spec_path.with_name("result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
