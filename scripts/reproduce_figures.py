#!/usr/bin/env python3
"""Regenerate every reference figure and the analytic-vs-oracle report.

Writes CSV + SVG pairs for the displacement sweeps (with and without
damping), the momentum sweep, both phase-shifter variants and the Wigner
heatmap of the equal minus-superposition, then runs the full verification
grid.  Everything lands in ``results/`` (override with the first argument).
"""

import sys
import time
from pathlib import Path

from optoweak.sweeps import FIGURE_NAMES, figure, verify


def main() -> int:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("results")
    out_dir.mkdir(parents=True, exist_ok=True)

    for name in FIGURE_NAMES:
        start = time.perf_counter()
        paths = figure(name, out_dir)
        took = time.perf_counter() - start
        print(f"{name}: {', '.join(p.name for p in paths)}  ({took:.2f}s)")

    start = time.perf_counter()
    report = verify(out=out_dir / "verify_report.json")
    took = time.perf_counter() - start
    print(f"verify: {report.summary()}  ({took:.1f}s)")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
