"""Correctness checks on the files one repetition wrote.

Each function returns the list of failed checks (empty when the outputs
are correct).  The checks parse the outputs with the standard library
only, independently of optoweak's own readers.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

SWEEP_HEADER = ["tau", "q_over_sigma", "p_dimensionless", "success_prob"]
WIGNER_HEADER = ["x", "y", "wigner"]
FIGURE_ROWS = 4000
FIG3_ROWS = 201 * 201
ORACLE_AGREEMENT = 1e-5
WIGNER_TRACE_TOLERANCE = 1e-3


def _read_csv(path: Path, header: list[str], rows: int, failures: list[str]):
    """Rows of ``path`` as floats (None for empty fields), or None if unreadable."""
    if not path.is_file():
        failures.append(f"{path.name}: missing")
        return None
    with path.open(newline="", encoding="utf-8") as handle:
        lines = list(csv.reader(handle))
    if not lines or lines[0] != header:
        failures.append(f"{path.name}: header {lines[0] if lines else None} != {header}")
        return None
    if len(lines) - 1 != rows:
        failures.append(f"{path.name}: {len(lines) - 1} rows, expected {rows}")
        return None
    try:
        table = [[float(cell) if cell else None for cell in line] for line in lines[1:]]
    except ValueError as exc:
        failures.append(f"{path.name}: unparsable field ({exc})")
        return None
    if any(len(line) != len(header) for line in table):
        failures.append(f"{path.name}: ragged rows")
        return None
    return table


def _fig3_window_mass(lx: float, ly: float) -> float:
    """Mass of the state (|0> - |1>)/sqrt(2) inside [-lx, lx] x [-ly, ly].

    With x = 2 Re(alpha) both quadratures of the vacuum are standard
    normal, so W = phi(x) phi(y) (x^2 + y^2) / 2 plus a cross term
    that is odd in x and y.  Per axis, B(L) is the normal mass inside
    [-L, L] and E2(L) the second moment there.  On [-4, 4]^2 the mass is
    0.99880, not 1: the window cuts off the tails of |1>.
    """
    def inside(half: float) -> float:
        return math.erf(half / math.sqrt(2))

    def second_moment(half: float) -> float:
        return inside(half) - 2 * half * math.exp(-half**2 / 2) / math.sqrt(2 * math.pi)

    return (second_moment(lx) * inside(ly) + inside(lx) * second_moment(ly)) / 2


def _svg(path: Path, failures: list[str]) -> None:
    if not path.is_file():
        failures.append(f"{path.name}: missing")
    elif not path.read_text(encoding="utf-8").rstrip().endswith("</svg>"):
        failures.append(f"{path.name}: not a complete SVG document")


def verify_default(inputs: dict, out: Path) -> list[str]:
    path = out / "verify_report.json"
    if not path.is_file():
        return ["verify_report.json: missing"]
    report = json.loads(path.read_text(encoding="utf-8"))
    errors = [p for p in report["points"] if "error" in p]
    compared = len(report["points"]) - len(errors)
    failures = []
    if report["pass"] is not True:
        failures.append(f"report does not pass (max_abs_diff {report['max_abs_diff']})")
    if compared < 1:
        failures.append("report compared no points")
    if errors:
        failures.append(f"{len(errors)} error points, first: {errors[0]['error']}")
    return failures


def oracle_fock32(inputs: dict, out: Path) -> list[str]:
    failures: list[str] = []
    analytic = _read_csv(out / "sweep.csv", SWEEP_HEADER, inputs["steps"], failures)
    oracle = _read_csv(out / "sweep.oracle.csv", SWEEP_HEADER, inputs["steps"], failures)
    _svg(out / "sweep.svg", failures)
    if analytic is None or oracle is None:
        return failures
    live = 0
    for a, o in zip(analytic, oracle):
        if a[0] != o[0]:
            failures.append(f"tau grids differ: {a[0]} vs {o[0]}")
            break
        if a[1] is None:
            continue
        live += 1
        if o[1] is None or abs(a[1] - o[1]) > ORACLE_AGREEMENT:
            failures.append(f"tau={a[0]}: analytic q {a[1]} vs oracle q {o[1]}")
            break
    if live == 0:
        failures.append("no live rows to compare")
    return failures


def figures(inputs: dict, out: Path) -> list[str]:
    failures: list[str] = []
    for name in inputs["figures"]:
        if name == "fig3":
            continue
        if name == "fig4":
            _read_csv(out / "fig4.csv", SWEEP_HEADER, FIGURE_ROWS, failures)
        else:
            for gamma in ("0", "0.005"):
                _read_csv(out / f"{name}_gamma{gamma}.csv", SWEEP_HEADER, FIGURE_ROWS, failures)
        _svg(out / f"{name}.svg", failures)
    if "fig3" in inputs["figures"]:
        _svg(out / "fig3.svg", failures)
        grid = _read_csv(out / "fig3.csv", WIGNER_HEADER, FIG3_ROWS, failures)
        if grid is not None and any(None in row for row in grid):
            failures.append("fig3.csv: empty fields")
        elif grid is not None:
            xs = sorted({row[0] for row in grid})
            ys = sorted({row[1] for row in grid})
            if xs[0] != -xs[-1] or ys[0] != -ys[-1]:
                failures.append("fig3 window is not centred on the origin")
            else:
                dx = (xs[-1] - xs[0]) / (len(xs) - 1)
                dy = (ys[-1] - ys[0]) / (len(ys) - 1)
                trace = sum(row[2] for row in grid) * dx * dy / 4
                expected = _fig3_window_mass(xs[-1], ys[-1])
                if abs(trace - expected) > WIGNER_TRACE_TOLERANCE:
                    failures.append(f"fig3 grid integral {trace}, expected {expected} "
                                    f"within {WIGNER_TRACE_TOLERANCE}")
    return failures


CHECKS = {"verify-default": verify_default, "oracle-fock32": oracle_fock32, "figures": figures}
