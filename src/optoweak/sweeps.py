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
from dataclasses import dataclass, field
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
FIG3_FOCK_DIM = 16

FIGURE_NAMES = ("fig2", "fig3", "fig4", "fig5a", "fig5b")
OBSERVABLES = ("q", "p", "both")
ENGINES = ("analytic", "oracle", "both")

CSV_HEADER = "tau,q_over_sigma,p_dimensionless,success_prob"


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
        if self.steps < 2:
            raise ValueError("a sweep needs at least 2 points")
        if self.observable not in OBSERVABLES:
            raise ValueError(f"unknown observable {self.observable!r}")
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}")

    def taus(self) -> np.ndarray:
        return np.linspace(self.tau_start, self.tau_end, self.steps)


@dataclass
class SweepResult:
    """Columns of one sweep; NaN marks a defined-but-degenerate point,
    None an observable that was not requested."""

    tau: np.ndarray
    success_prob: np.ndarray
    q: np.ndarray | None
    p: np.ndarray | None
    engine: str
    oracle_companion: "SweepResult | None" = field(default=None, repr=False)


def _sweep(config: SweepConfig, engine: str,
           integrator: lindblad.IntegratorConfig | None = None) -> SweepResult:
    taus = config.taus()
    if engine == "analytic":
        q, p, prob = model.conditioned_moments(config.params, taus)
    else:
        q, p, prob = lindblad.oracle_sweep(config.params, taus, integrator)
    live = prob > SUCCESS_FLOOR
    return SweepResult(
        tau=taus,
        success_prob=prob,
        q=np.where(live, q, np.nan) if config.observable in ("q", "both") else None,
        p=np.where(live, p, np.nan) if config.observable in ("p", "both") else None,
        engine=engine,
    )


def run_sweep(config: SweepConfig,
              integrator: lindblad.IntegratorConfig | None = None) -> SweepResult:
    """Evaluate the requested engine(s) over the tau grid.

    With engine="both" the analytic result is returned and the oracle's
    columns are attached as ``oracle_companion``.
    """
    if config.engine != "both":
        return _sweep(config, config.engine, integrator)
    result = _sweep(config, "analytic")
    result.oracle_companion = _sweep(config, "oracle", integrator)
    return result


def _write_csv(path, header: str, columns) -> Path:
    """Write equal-length ``columns`` as rows under ``header``.

    Numbers carry 17 significant digits; a None column or a non-finite
    value gives empty fields; output is byte-stable for identical inputs.
    """
    n = len(columns[0])
    fields = [
        [""] * n if column is None
        else [f"{v:.17g}" if math.isfinite(v) else "" for v in np.asarray(column).tolist()]
        for column in columns
    ]
    path = Path(path)
    path.write_text("\n".join([header, *map(",".join, zip(*fields))]) + "\n", encoding="utf-8")
    return path


def emit_csv(result: SweepResult, path) -> Path:
    """Write ``tau,q_over_sigma,p_dimensionless,success_prob`` rows in the
    ``_write_csv`` format."""
    path = Path(path)
    try:
        return _write_csv(path, CSV_HEADER, [result.tau, result.q, result.p, result.success_prob])
    except OSError as exc:
        raise OSError(f"cannot write sweep CSV to {path}: {exc}") from exc


def read_csv(path) -> dict[str, np.ndarray]:
    """Read an emitted sweep CSV back into column arrays (empty fields -> NaN)."""
    lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    names = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    cols = {}
    for j, name in enumerate(names):
        cols[name] = np.array([float(r[j]) if r[j] else np.nan for r in rows])
    return cols


_AXIS_TAU = "&#969;<tspan baseline-shift=\"sub\" font-size=\"10\">m</tspan>t"
_AXIS_Q = "&#10216;q&#10217;/&#963;"
_AXIS_P = "&#10216;p&#10217;&#183;2&#963;/&#8463;"


def emit_plot(data, path, title: str = "") -> Path:
    """Render a SweepResult as a line plot or a WignerGrid as a heatmap."""
    if isinstance(data, fockspace.WignerGrid):
        return svg_heatmap(data, path, title=title)
    series = []
    if data.q is not None:
        series.append((data.tau, data.q, _AXIS_Q, False))
    if data.p is not None:
        series.append((data.tau, data.p, _AXIS_P, data.q is not None))
    if not series:
        raise ValueError("sweep holds no observable columns to plot")
    from . import svgplot

    ylabel = series[0][2] if len(series) == 1 else "conditioned moments"
    return svgplot.line_plot(series, path, xlabel=_AXIS_TAU, ylabel=ylabel, title=title)


def svg_heatmap(grid: fockspace.WignerGrid, path, title: str = "") -> Path:
    from . import svgplot

    return svgplot.heatmap(
        grid.values.tolist(), list(grid.xs()), list(grid.ys()), path,
        xlabel="x", ylabel="y", title=title,
    )


def _figure_sweep(theta: float, gamma: float, observable: str) -> SweepResult:
    params = model.ModelParams(k=FIG_COUPLING, gamma=gamma, theta=theta)
    return _sweep(SweepConfig(params=params, observable=observable), "analytic")


def figure(name: str, out_dir) -> list[Path]:
    """Produce the CSV and SVG files of one preset into ``out_dir``."""
    from . import svgplot

    if name not in FIGURE_NAMES:
        raise ValueError(f"unknown figure preset {name!r}; choose from {FIGURE_NAMES}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    if name == "fig3":
        state = fockspace.named_state(FIG3_STATE, FIG3_FOCK_DIM)
        grid = fockspace.wigner(state, FIG3_RANGE, FIG3_RANGE)
        columns = [np.tile(grid.xs(), grid.ny), np.repeat(grid.ys(), grid.nx), grid.values.ravel()]
        written.append(_write_csv(out / "fig3.csv", "x,y,wigner", columns))
        written.append(svg_heatmap(grid, out / "fig3.svg", title="Wigner function, (|0&#10217;-|1&#10217;)/&#8730;2"))
        return written

    if name == "fig4":
        result = _figure_sweep(theta=0.0, gamma=0.0, observable="p")
        written.append(emit_csv(result, out / "fig4.csv"))
        written.append(
            svgplot.line_plot(
                [(result.tau, result.p, "&#947;=0", False)],
                out / "fig4.svg", xlabel=_AXIS_TAU, ylabel=_AXIS_P,
            )
        )
        return written

    theta = {"fig2": 0.0, "fig5a": FIG_SHIFTER, "fig5b": -FIG_SHIFTER}[name]
    undamped = _figure_sweep(theta=theta, gamma=0.0, observable="q")
    damped = _figure_sweep(theta=theta, gamma=FIG_DAMPING, observable="q")
    written.append(emit_csv(undamped, out / f"{name}_gamma0.csv"))
    written.append(emit_csv(damped, out / f"{name}_gamma{FIG_DAMPING}.csv"))
    written.append(
        svgplot.line_plot(
            [
                (undamped.tau, undamped.q, "&#947;=0", False),
                (damped.tau, damped.q, f"&#947;={FIG_DAMPING}", True),
            ],
            out / f"{name}.svg", xlabel=_AXIS_TAU, ylabel=_AXIS_Q,
        )
    )
    return written


@dataclass
class VerifyReport:
    points: list[dict]
    max_abs_diff: float
    tolerance: float
    passed: bool

    def to_json(self) -> str:
        payload = {
            "points": self.points,
            "max_abs_diff": self.max_abs_diff,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def summary(self) -> str:
        """One line: verdict, largest difference, compared and error point counts."""
        errors = sum("error" in point for point in self.points)
        return (
            f"{'PASS' if self.passed else 'FAIL'}: max |analytic - oracle| = "
            f"{self.max_abs_diff:.3e} (tolerance {self.tolerance:g}) over "
            f"{len(self.points) - errors} compared points, {errors} error points"
        )


def default_verify_grid() -> list[tuple[model.ModelParams, str]]:
    """(params, observable) combinations checked by default: q and p for
    every damping/shifter combination."""
    combos = []
    for gamma in (0.0, FIG_DAMPING):
        for theta in (0.0, FIG_SHIFTER, -FIG_SHIFTER):
            params = model.ModelParams(k=FIG_COUPLING, gamma=gamma, theta=theta)
            combos += [(params, "q"), (params, "p")]
    return combos


def verify(
    grid: list[tuple[model.ModelParams, str]] | None = None,
    tolerance: float = VERIFY_TOLERANCE,
    config: lindblad.IntegratorConfig | None = None,
    out=None,
    taus=None,
    stats: dict | None = None,
) -> VerifyReport:
    """Compare closed forms against the master-equation oracle point by point.

    The oracle evolves once per (k, gamma); every theta of that group is
    postselected from the same snapshots.  Engine errors are recorded on
    each parameter set they hit instead of aborting the report.  The
    report passes only if it compared at least one point, recorded no
    error and every difference is below ``tolerance``.  When ``out`` is
    given the JSON report is written there.
    """
    config = config or lindblad.IntegratorConfig()
    taus = np.linspace(0.0, 4 * np.pi, 50) if taus is None else np.asarray(taus, float)
    grid = default_verify_grid() if grid is None else grid

    by_params: dict[model.ModelParams, list[str]] = {}
    for params, observable in grid:
        by_params.setdefault(params, []).append(observable)
    # theta enters the oracle only at postselection: one evolution per (k, gamma)
    groups: dict[tuple[float, float], list[model.ModelParams]] = {}
    for params in by_params:
        groups.setdefault((params.k, params.gamma), []).append(params)
    shared: dict[model.ModelParams, tuple | Exception] = {}
    for members in groups.values():
        try:
            shared.update(zip(members, lindblad.oracle_sweeps(members, taus, config, stats=stats)))
        except Exception as exc:  # recorded on every member below, not fatal
            shared.update(dict.fromkeys(members, exc))

    points: list[dict] = []
    diffs = []
    errors = 0
    for params, observables in by_params.items():
        base = {"k": params.k, "gamma": params.gamma, "theta": params.theta}
        try:
            oracle = shared[params]
            if isinstance(oracle, Exception):
                raise oracle
            analytic = model.conditioned_moments(params, taus)
        except Exception as exc:  # recorded, not fatal
            points.append({**base, "observable": "/".join(observables), "error": str(exc)})
            errors += 1
            continue
        live = analytic[2] > SUCCESS_FLOOR
        for obs, a_vals, o_vals in zip("qp", analytic, oracle):
            if obs not in observables:
                continue
            for tau, a, o in zip(taus[live], a_vals[live], o_vals[live]):
                diff = abs(a - o)
                diffs.append(diff)
                points.append(
                    {
                        **base,
                        "observable": obs,
                        "tau": float(tau),
                        "analytic": float(a),
                        "oracle": float(o),
                        "abs_diff": float(diff),
                    }
                )

    max_abs_diff = float(np.max(diffs)) if diffs else 0.0  # np.max keeps a NaN
    report = VerifyReport(
        points=points,
        max_abs_diff=max_abs_diff,
        tolerance=float(tolerance),
        passed=bool(diffs and errors == 0 and max_abs_diff < tolerance),
    )
    if out is not None:
        Path(out).write_text(report.to_json() + "\n", encoding="utf-8")
    return report
