"""Parameter sweeps, figure presets, CSV/SVG emission and the
analytic-vs-oracle verification harness.

Each engine yields (q, p, success_prob) over the whole tau grid from one
evaluation: the closed forms in one vectorized call, the oracle from
snapshots of a single master-equation pass.  Both engines share
``SUCCESS_FLOOR``: points where the dark port cannot fire (success
probability at or below it) carry empty observable fields rather than
errors.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from . import fockspace, lindblad, model

SUCCESS_FLOOR = 1e-12
VERIFY_TOLERANCE = 1e-5

# parameters of the reproduced reference curves
FIG_COUPLING = 0.005
FIG_DAMPING = 0.005
FIG_SHIFTER = 0.001
FIG_TAU_MAX = 8 * np.pi
FIG_STEPS = 4000
FIG3_RANGE = (-4.0, 4.0, 201)
FIG3_STATE = "minus-superposition"

FIGURE_NAMES = ("fig2", "fig3", "fig4", "fig5a", "fig5b")
# every preset but fig3: name -> (theta, observable, damping values), one curve per damping
LINE_FIGURES = {
    "fig2": (0.0, "q", (0.0, FIG_DAMPING)),
    "fig4": (0.0, "p", (0.0,)),
    "fig5a": (FIG_SHIFTER, "q", (0.0, FIG_DAMPING)),
    "fig5b": (-FIG_SHIFTER, "q", (0.0, FIG_DAMPING)),
}
OBSERVABLES = ("q", "p", "both")
ENGINES = ("analytic", "oracle", "both")

CSV_HEADER = "tau,q_over_sigma,p_dimensionless,success_prob"
# rows joined per write: a 40 401-row fig3 table goes out in ten blocks, a 4000-row sweep in one
_CSV_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class SweepConfig:
    params: model.ModelParams
    tau_start: float = 0.0
    tau_end: float = FIG_TAU_MAX
    steps: int = FIG_STEPS
    observable: str = "q"
    engine: str = "analytic"

    def __post_init__(self):
        if not (math.isfinite(self.tau_start) and math.isfinite(self.tau_end)):
            raise ValueError("tau bounds must be finite")
        if not (self.tau_start < self.tau_end):
            raise ValueError("tau_start must be below tau_end")
        if self.tau_start < 0:
            raise ValueError("tau_start must be non-negative")
        if not (isinstance(self.steps, numbers.Integral) and self.steps >= 2):
            raise ValueError("a sweep needs an integral number of at least 2 points")
        if self.observable not in OBSERVABLES:
            raise ValueError(f"unknown observable {self.observable!r}")
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}")

    def taus(self) -> np.ndarray:
        return np.linspace(self.tau_start, self.tau_end, self.steps)


@dataclass
class SweepResult:
    """Columns of one engine's sweep; NaN marks a defined-but-degenerate
    point, None an observable that was not requested."""

    tau: np.ndarray
    success_prob: np.ndarray
    q: np.ndarray | None
    p: np.ndarray | None


def run_sweep(config: SweepConfig,
              integrator: lindblad.IntegratorConfig | None = None) -> list[SweepResult]:
    """Evaluate each engine that ``config.engine`` names over the tau grid:
    one result per engine, the analytic one first when the engine is "both"."""
    taus = config.taus()
    engines = ("analytic", "oracle") if config.engine == "both" else (config.engine,)
    results = []
    for engine in engines:
        if engine == "analytic":
            q, p, prob = model.conditioned_moments(config.params, taus)
        else:
            q, p, prob = lindblad.oracle_sweep(config.params, taus, integrator)
        live = prob > SUCCESS_FLOOR
        results.append(SweepResult(
            tau=taus,
            success_prob=prob,
            q=np.where(live, q, np.nan) if config.observable in ("q", "both") else None,
            p=np.where(live, p, np.nan) if config.observable in ("p", "both") else None,
        ))
    return results


def _format_column(column) -> list[str]:
    """CSV fields of one numeric column: 17 significant digits, "-0" beside
    "0", and an empty field for a non-finite value.  Every value is
    formatted, then the fields that one ``np.isfinite`` mask marks are
    blanked."""
    values = np.asarray(column, dtype=np.float64)
    fields = [f"{v:.17g}" for v in values.tolist()]
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        fields[i] = ""
    return fields


def _format_repeating(column) -> list[str]:
    """:func:`_format_column` for a column that repeats values (a grid):
    each distinct value is formatted once, keyed on its bit pattern so that
    -0.0 stays apart from 0.0."""
    keys, at = np.unique(np.asarray(column, dtype=np.float64).view(np.int64),
                         return_inverse=True)
    return np.array(_format_column(keys.view(np.float64)), dtype=object)[at].tolist()


def _write_csv(path, header: str, columns) -> Path:
    """Write ``columns`` of CSV fields as rows under ``header``; output is
    byte-stable for identical inputs.

    Raises ValueError, before the file is opened, when the columns differ in
    length.  Rows are joined and written ``_CSV_BLOCK_ROWS`` at a time, so
    the whole document is never held as one string.
    """
    lengths = [len(column) for column in columns]
    if len(set(lengths)) > 1:
        raise ValueError(f"CSV columns differ in length: {lengths}")
    rows = map(",".join, zip(*columns))
    path = Path(path)
    with path.open("w", encoding="utf-8") as out:
        out.write(header)
        # join takes the block straight from islice, so only its string is
        # alive while the file encodes it
        for _ in range(0, max(lengths, default=0), _CSV_BLOCK_ROWS):
            out.write("\n")
            out.write("\n".join(islice(rows, _CSV_BLOCK_ROWS)))
        out.write("\n")
    return path


def emit_csv(result: SweepResult, path) -> Path:
    """Write ``tau,q_over_sigma,p_dimensionless,success_prob`` rows of
    :func:`_format_column` fields; an observable not requested gives empty
    fields."""
    path = Path(path)
    n = len(result.tau)
    columns = [[""] * n if column is None else _format_column(column)
               for column in (result.tau, result.q, result.p, result.success_prob)]
    try:
        return _write_csv(path, CSV_HEADER, columns)
    except OSError as exc:
        raise OSError(f"cannot write sweep CSV to {path}: {exc}") from exc


_AXIS_TAU = "&#969;<tspan baseline-shift=\"sub\" font-size=\"10\">m</tspan>t"
_AXIS = {"q": "&#10216;q&#10217;/&#963;", "p": "&#10216;p&#10217;&#183;2&#963;/&#8463;"}


def emit_plot(data: SweepResult, path) -> Path:
    """Render the observable columns of a SweepResult as a line plot over tau
    (:func:`svg_heatmap` renders a WignerGrid)."""
    series = []
    for observable, column in (("q", data.q), ("p", data.p)):
        if column is not None:
            series.append((data.tau, column, _AXIS[observable], bool(series)))
    # lazy: verify never draws, and importing svgplot without cached bytecode takes ~4 ms
    from . import svgplot

    ylabel = series[0][2] if len(series) == 1 else "conditioned moments"
    return svgplot.line_plot(series, path, xlabel=_AXIS_TAU, ylabel=ylabel)


def svg_heatmap(grid: fockspace.WignerGrid, path, title: str = "") -> Path:
    from . import svgplot

    return svgplot.heatmap(
        grid.values, grid.xs(), grid.ys(), path,
        xlabel="x", ylabel="y", title=title,
    )


def figure(name: str, out_dir) -> list[Path]:
    """Produce the CSV and SVG files of one preset into ``out_dir``."""
    if name not in FIGURE_NAMES:
        raise ValueError(f"unknown figure preset {name!r}; choose from {FIGURE_NAMES}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    if name == "fig3":
        # the named kets live on |0> and |1>; wigner's displacement elements need no cutoff
        grid = fockspace.wigner(fockspace.named_state(FIG3_STATE, 2), FIG3_RANGE, FIG3_RANGE)
        # x runs fastest: each axis value is formatted once and its field
        # repeated; W, symmetric about the origin, repeats values too
        xs, ys = _format_column(grid.xs()), _format_column(grid.ys())
        columns = [xs * grid.ny, [y for y in ys for _ in range(grid.nx)],
                   _format_repeating(grid.values.ravel())]
        return [_write_csv(out / "fig3.csv", "x,y,wigner", columns),
                svg_heatmap(grid, out / "fig3.svg", title="Wigner function, (|0&#10217;-|1&#10217;)/&#8730;2")]

    from . import svgplot
    theta, observable, dampings = LINE_FIGURES[name]
    written, series = [], []
    for gamma in dampings:
        params = model.ModelParams(k=FIG_COUPLING, gamma=gamma, theta=theta)
        result, = run_sweep(SweepConfig(params=params, observable=observable))
        stem = name if len(dampings) == 1 else f"{name}_gamma{gamma:g}"
        written.append(emit_csv(result, out / f"{stem}.csv"))
        series.append((result.tau, getattr(result, observable), f"&#947;={gamma:g}", bool(series)))
    written.append(svgplot.line_plot(series, out / f"{name}.svg", xlabel=_AXIS_TAU,
                                     ylabel=_AXIS[observable]))
    return written


@dataclass
class VerifyReport:
    points: list[dict]
    max_abs_diff: float
    tolerance: float
    passed: bool

    def to_json(self) -> str:
        """The report as json's compact encoding, keys sorted; NaN and
        infinities are spelled NaN, Infinity and -Infinity."""
        return json.dumps({"points": self.points, "max_abs_diff": self.max_abs_diff,
                           "tolerance": self.tolerance, "pass": self.passed}, sort_keys=True)

    def summary(self) -> str:
        """One line: verdict, largest difference, compared and error point counts."""
        errors = sum("error" in point for point in self.points)
        return (
            f"{'PASS' if self.passed else 'FAIL'}: max |analytic - oracle| = "
            f"{self.max_abs_diff:.3e} (tolerance {self.tolerance:g}) over "
            f"{len(self.points) - errors} compared points, {errors} error points"
        )


def default_verify_grid() -> list[tuple[model.ModelParams, str]]:
    """(params, observable) combinations checked by default: q and p at every
    (damping, shifter) pair of ``LINE_FIGURES``, ordered by damping."""
    pairs = dict.fromkeys((gamma, theta) for theta, _, dampings in LINE_FIGURES.values()
                          for gamma in dampings)
    return [(model.ModelParams(k=FIG_COUPLING, gamma=gamma, theta=theta), observable)
            for gamma, theta in sorted(pairs, key=lambda pair: pair[0]) for observable in "qp"]


def verify(
    grid: list[tuple[model.ModelParams, str]] | None = None,
    tolerance: float = VERIFY_TOLERANCE,
    config: lindblad.IntegratorConfig | None = None,
    out=None,
    taus=None,
    stats: dict | None = None,
) -> VerifyReport:
    """Compare closed forms against the master-equation oracle point by point.

    The oracle evolves the whole grid in one pass
    (:func:`lindblad.oracle_sweeps`).  Points come in grid order: the
    parameter sets in the order the grid first names them.  Engine
    errors are recorded on each parameter set they hit instead of aborting
    the report; an error of the oracle pass is recorded on every one.  The
    report passes only if it compared at least one point, recorded no
    error and every difference is below ``tolerance``, which must be finite
    and non-negative.  A grid entry whose observable is not "q" or "p"
    raises ValueError before any evolution.  When ``out`` is given the
    JSON report is written there.
    """
    if not 0.0 <= tolerance < math.inf:  # also rejects NaN
        raise ValueError(f"tolerance={tolerance} must be finite and non-negative")
    config = config or lindblad.IntegratorConfig()
    taus = np.linspace(0.0, 4 * np.pi, 50) if taus is None else np.asarray(taus, float)
    grid = default_verify_grid() if grid is None else grid

    # the observables of each parameter set, in grid order
    members: dict[model.ModelParams, list[str]] = {}
    for params, observable in grid:
        if observable not in ("q", "p"):
            raise ValueError(f"grid entry ({params!r}, {observable!r}): observable must be 'q' or 'p'")
        members.setdefault(params, []).append(observable)

    try:
        oracle = lindblad.oracle_sweeps(list(members), taus, config, stats=stats)
    except Exception as exc:  # recorded on every parameter set below, not fatal
        oracle = [exc] * len(members)
    points: list[dict] = []
    for (params, observables), sampled in zip(members.items(), oracle):
        base = {"k": params.k, "gamma": params.gamma, "theta": params.theta}
        try:
            if isinstance(sampled, Exception):
                raise sampled
            analytic = model.conditioned_moments(params, taus)
        except Exception as exc:  # recorded, not fatal
            points.append({**base, "observable": "/".join(observables), "error": str(exc)})
            continue
        live = analytic[2] > SUCCESS_FLOOR
        for obs, a_vals, o_vals in zip("qp", analytic, sampled):
            if obs not in observables:
                continue
            a_vals, o_vals = a_vals[live], o_vals[live]
            columns = (taus[live], a_vals, o_vals, np.abs(a_vals - o_vals))
            points.extend(
                {**base, "observable": obs, "tau": tau, "analytic": a, "oracle": o,
                 "abs_diff": d}
                for tau, a, o, d in zip(*(column.tolist() for column in columns))
            )

    diffs = [point["abs_diff"] for point in points if "error" not in point]
    max_abs_diff = float(np.max(diffs)) if diffs else 0.0  # np.max keeps a NaN
    errors = any("error" in point for point in points)
    report = VerifyReport(
        points=points,
        max_abs_diff=max_abs_diff,
        tolerance=float(tolerance),
        passed=bool(diffs and not errors and max_abs_diff < tolerance),
    )
    if out is not None:
        Path(out).write_text(report.to_json() + "\n", encoding="utf-8")
    return report
