"""Parameter sweeps, figure presets, CSV/SVG emission and the
analytic-vs-oracle verification harness.

Analytic sweeps evaluate the closed forms vectorized over the whole tau
grid; oracle sweeps take snapshots from a single master-equation pass.
Points where the dark port cannot fire (success probability below
``SUCCESS_FLOOR``) carry empty observable fields rather than errors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import fockspace, lindblad, model

SUCCESS_FLOOR = 1e-12

# parameters of the reproduced reference curves
FIG_COUPLING = 0.005
FIG_DAMPING = 0.005
FIG_SHIFTER = 0.001
FIG_TAU_MAX = 8 * np.pi
FIG_STEPS = 4000
FIG3_RANGE = (-4.0, 4.0, 201)

FIGURE_NAMES = ("fig2", "fig3", "fig4", "fig5a", "fig5b")

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
        if not (self.tau_start < self.tau_end):
            raise ValueError("tau_start must be below tau_end")
        if self.tau_start < 0:
            raise ValueError("tau_start must be non-negative")
        if self.steps < 2:
            raise ValueError("a sweep needs at least 2 points")
        if self.observable not in ("q", "p", "both"):
            raise ValueError(f"unknown observable {self.observable!r}")
        if self.engine not in ("analytic", "oracle", "both"):
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


def _analytic_sweep(config: SweepConfig) -> SweepResult:
    params = config.params
    taus = config.taus()
    success = np.asarray(model.conditioned_state(params, taus).success_prob)
    live = success > SUCCESS_FLOOR
    q = p = None
    if config.observable in ("q", "both"):
        q = np.full_like(taus, np.nan)
        if live.any():
            q[live] = model.mean_q(params, taus[live])
    if config.observable in ("p", "both"):
        p = np.full_like(taus, np.nan)
        if live.any():
            p[live] = model.mean_p(params, taus[live])
    return SweepResult(tau=taus, success_prob=success, q=q, p=p, engine="analytic")


def _oracle_sweep(config: SweepConfig, integrator: lindblad.IntegratorConfig | None,
                  stats: dict | None = None) -> SweepResult:
    taus = config.taus()
    q, p, prob = lindblad.oracle_sweep(config.params, taus, integrator, stats=stats)
    return SweepResult(
        tau=taus,
        success_prob=prob,
        q=q if config.observable in ("q", "both") else None,
        p=p if config.observable in ("p", "both") else None,
        engine="oracle",
    )


def run_sweep(config: SweepConfig,
              integrator: lindblad.IntegratorConfig | None = None) -> SweepResult:
    """Evaluate the requested engine(s) over the tau grid.

    With engine="both" the analytic result is returned and the oracle's
    columns are attached as ``oracle_companion``.
    """
    if config.engine == "analytic":
        return _analytic_sweep(config)
    if config.engine == "oracle":
        return _oracle_sweep(config, integrator)
    result = _analytic_sweep(config)
    result.oracle_companion = _oracle_sweep(config, integrator)
    return result


def _cell(value) -> str:
    if value is None or not np.isfinite(value):
        return ""
    return f"{value:.17g}"


def emit_csv(result: SweepResult, path) -> Path:
    """Write ``tau,q_over_sigma,p_dimensionless,success_prob`` rows.

    Numbers carry 17 significant digits; undefined fields are empty; output
    is byte-stable for identical inputs.
    """
    lines = [CSV_HEADER]
    n = len(result.tau)
    q = result.q if result.q is not None else [None] * n
    p = result.p if result.p is not None else [None] * n
    for i in range(n):
        lines.append(
            f"{result.tau[i]:.17g},{_cell(q[i])},{_cell(p[i])},{_cell(result.success_prob[i])}"
        )
    path = Path(path)
    try:
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot write sweep CSV to {path}: {exc}") from exc
    return path


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
    return _analytic_sweep(SweepConfig(params=params, observable=observable))


def _emit_wigner_csv(grid: fockspace.WignerGrid, path) -> Path:
    lines = ["x,y,wigner"]
    xs, ys = grid.xs(), grid.ys()
    for iy in range(grid.ny):
        for ix in range(grid.nx):
            lines.append(f"{xs[ix]:.17g},{ys[iy]:.17g},{grid.values[iy, ix]:.17g}")
    path = Path(path)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def figure(name: str, out_dir) -> list[Path]:
    """Produce the CSV and SVG files of one preset into ``out_dir``."""
    from . import svgplot

    if name not in FIGURE_NAMES:
        raise ValueError(f"unknown figure preset {name!r}; choose from {FIGURE_NAMES}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    if name == "fig3":
        state = np.zeros(16, dtype=complex)
        state[0], state[1] = 1 / np.sqrt(2), -1 / np.sqrt(2)
        grid = fockspace.wigner(state, FIG3_RANGE, FIG3_RANGE)
        written.append(_emit_wigner_csv(grid, out / "fig3.csv"))
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
    tolerance: float = 1e-5,
    config: lindblad.IntegratorConfig | None = None,
    out=None,
    taus=None,
    stats: dict | None = None,
) -> VerifyReport:
    """Compare closed forms against the master-equation oracle point by point.

    Engine errors are recorded on the offending points instead of aborting
    the report.  The report passes only if it compared at least one point,
    recorded no error and every difference is below ``tolerance``.  When ``out`` is
    given the JSON report is written there.
    """
    config = config or lindblad.IntegratorConfig()
    taus = np.linspace(0.0, 4 * np.pi, 50) if taus is None else np.asarray(taus, float)
    grid = default_verify_grid() if grid is None else grid

    by_params: dict[model.ModelParams, list[str]] = {}
    for params, observable in grid:
        by_params.setdefault(params, []).append(observable)

    points: list[dict] = []
    diffs = []
    errors = 0
    for params, observables in by_params.items():
        base = {"k": params.k, "gamma": params.gamma, "theta": params.theta}
        try:
            oq, op, oprob = lindblad.oracle_sweep(params, taus, config, stats=stats)
            success = np.asarray(model.conditioned_state(params, taus).success_prob)
        except Exception as exc:  # recorded, not fatal
            points.append({**base, "observable": "/".join(observables), "error": str(exc)})
            errors += 1
            continue
        live = success > SUCCESS_FLOOR
        if not live.any():
            continue
        for obs, mean, o_vals in (("q", model.mean_q, oq), ("p", model.mean_p, op)):
            if obs not in observables:
                continue
            for tau, a, o in zip(taus[live], mean(params, taus[live]), o_vals[live]):
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
