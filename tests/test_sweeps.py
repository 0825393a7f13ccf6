"""Sweep evaluation, CSV/SVG emission, figure presets and the verification
report."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optoweak import fockspace, lindblad, model, sweeps
from optoweak.fockspace import WignerGrid
from optoweak.lindblad import IntegratorConfig, StepUnstable
from optoweak.model import ModelParams
from optoweak.sweeps import (
    CSV_HEADER,
    FIG3_RANGE,
    FIG3_STATE,
    FIGURE_NAMES,
    LINE_FIGURES,
    SUCCESS_FLOOR,
    SweepConfig,
    SweepResult,
    VerifyReport,
    default_verify_grid,
    emit_csv,
    _format_column,
    _format_repeating,
    _write_csv,
    emit_plot,
    figure,
    run_sweep,
    svg_heatmap,
    verify,
)

TWO_PI = 2 * np.pi
K = 0.005


def tiny_config(**kw):
    defaults = dict(
        params=ModelParams(k=K, theta=0.001),
        tau_start=0.0,
        tau_end=1.0,
        steps=3,
        observable="q",
        engine="analytic",
    )
    defaults.update(kw)
    return SweepConfig(**defaults)


def count_conditioned_state_calls(monkeypatch) -> list:
    calls = []
    conditioned_state = model.conditioned_state

    def counted(*args, **kwargs):
        calls.append(args)
        return conditioned_state(*args, **kwargs)

    monkeypatch.setattr(model, "conditioned_state", counted)
    return calls


class TestSweepConfig:
    @pytest.mark.parametrize(
        "kw",
        [
            {"tau_end": 0.0},
            {"tau_start": -1.0, "tau_end": 1.0},
            {"tau_end": float("inf")},
            {"tau_end": float("nan")},
            {"steps": 1},
            {"steps": 2.5},
            {"observable": "x"},
            {"engine": "exact"},
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            tiny_config(**kw)

    def test_grid(self):
        assert np.allclose(tiny_config().taus(), [0.0, 0.5, 1.0])


class TestRunSweep:
    def test_analytic_columns(self):
        r, = run_sweep(tiny_config())
        assert r.p is None
        assert np.all(np.diff(r.tau) > 0)
        assert np.all(np.isfinite(r.q))
        assert np.all((r.success_prob >= 0) & (r.success_prob <= 1))

    @pytest.mark.parametrize("engine", ["analytic", "oracle"])
    def test_degenerate_points_are_empty_not_errors(self, engine):
        # theta = 0: the dark port is silent at tau = 0 and fires with
        # probability ~1e-14 at the two later points
        cfg = tiny_config(params=ModelParams(k=K), tau_end=1e-4, engine=engine,
                          observable="both")
        r, = run_sweep(cfg, IntegratorConfig(dt=5e-3, fock_dim=12))
        assert r.success_prob[0] == 0.0
        assert (r.success_prob[1:] > 0).all()
        dead = r.success_prob <= SUCCESS_FLOOR
        assert dead.all()
        assert np.array_equal(np.isnan(r.q), dead)
        assert np.array_equal(np.isnan(r.p), dead)

    @pytest.mark.parametrize("gamma", [0.0, 0.005])
    def test_oracle_engine_agrees_with_analytic(self, gamma):
        params = ModelParams(k=K, gamma=gamma, theta=0.001)
        cfg = tiny_config(params=params, engine="oracle", observable="both")
        oracle, = run_sweep(cfg, IntegratorConfig(dt=2e-3, fock_dim=12))
        analytic, = run_sweep(tiny_config(params=params, observable="both"))
        assert np.nanmax(np.abs(oracle.q - analytic.q)) < 1e-6
        assert np.nanmax(np.abs(oracle.p - analytic.p)) < 1e-6

    def test_one_analytic_evaluation_per_sweep(self, monkeypatch):
        calls = count_conditioned_state_calls(monkeypatch)
        r, = run_sweep(tiny_config(observable="both"))
        assert len(calls) == 1
        assert np.isfinite(r.q).all() and np.isfinite(r.p).all()

    def test_both_engines_give_analytic_then_oracle(self):
        integrator = IntegratorConfig(dt=5e-3, fock_dim=12)
        both = run_sweep(tiny_config(engine="both", observable="both"), integrator)
        singles = [run_sweep(tiny_config(engine=engine, observable="both"), integrator)
                   for engine in ("analytic", "oracle")]
        assert len(both) == 2 and all(len(single) == 1 for single in singles)
        for result, (single,) in zip(both, singles):
            for column in ("tau", "success_prob", "q", "p"):
                # bit for bit: NaN at the same places, every other value equal
                assert getattr(result, column).tobytes() == getattr(single, column).tobytes()

    def test_each_figure_curve_is_one_run_sweep(self, tmp_path, monkeypatch):
        calls = []

        def counting(config, integrator=None):
            calls.append(config)
            return run_sweep(config, integrator)

        monkeypatch.setattr(sweeps, "run_sweep", counting)
        sweeps.figure("fig2", tmp_path)
        assert [config.params.gamma for config in calls] == [0.0, sweeps.FIG_DAMPING]
        assert all(config.engine == "analytic" for config in calls)


class TestCsv:
    def test_row_count_and_header(self, tmp_path):
        path = emit_csv(*run_sweep(tiny_config()), tmp_path / "s.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4

    def test_degenerate_row_serialization(self, tmp_path):
        r, = run_sweep(tiny_config(params=ModelParams(k=K)))
        lines = emit_csv(r, tmp_path / "s.csv").read_text().splitlines()
        assert lines[1] == "0,,,0"

    def test_seventeen_significant_digits(self, tmp_path):
        r, = run_sweep(tiny_config())
        lines = emit_csv(r, tmp_path / "s.csv").read_text().splitlines()
        tau_cell, q_cell, _, _ = lines[2].split(",")
        assert tau_cell == "0.5"
        assert q_cell == f"{r.q[1]:.17g}"

    def test_byte_identical_reruns(self, tmp_path):
        a = emit_csv(*run_sweep(tiny_config()), tmp_path / "a.csv").read_bytes()
        b = emit_csv(*run_sweep(tiny_config()), tmp_path / "b.csv").read_bytes()
        assert a == b

    def test_roundtrip(self, tmp_path):
        r, = run_sweep(tiny_config())
        cols = np.genfromtxt(emit_csv(r, tmp_path / "s.csv"), delimiter=",", names=True)
        assert np.allclose(cols["tau"], r.tau)
        assert np.allclose(cols["q_over_sigma"], r.q, rtol=1e-15)

    def test_unwritable_path_is_reported(self, tmp_path):
        with pytest.raises(OSError, match="cannot write sweep CSV"):
            emit_csv(*run_sweep(tiny_config()), tmp_path / "missing" / "s.csv")

    def test_signed_zero_and_non_finite_fields(self, tmp_path):
        column = np.array([0.0, -0.0, np.nan, np.inf, -np.inf])
        path = _write_csv(tmp_path / "z.csv", "v", [_format_column(column)])
        assert path.read_text().splitlines()[1:] == ["0", "-0", "", "", ""]

    def test_deduplicated_fields_equal_direct_ones(self):
        column = np.array([0.0, -0.0, np.nan, 0.1, np.inf, -np.inf, -0.0, 0.1, np.nan, 0.0, 1 / 3])
        assert _format_repeating(column) == _format_column(column) == [
            "0", "-0", "", "0.10000000000000001", "", "", "-0", "0.10000000000000001", "", "0",
            "0.33333333333333331"]

    @pytest.mark.parametrize("offset", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (2, 1)])
    def test_blocks_write_the_one_string_bytes(self, tmp_path, offset):
        blocks, extra = offset
        n = blocks * sweeps._CSV_BLOCK_ROWS + extra
        columns = [[str(i) for i in range(n)],
                   ["" if i % 3 == 0 else f"{i / 7:.17g}" for i in range(n)],
                   [""] * n]
        want = "\n".join(["a,b,c", *map(",".join, zip(*columns))]) + "\n"
        path = _write_csv(tmp_path / "t.csv", "a,b,c", columns)
        assert path.read_bytes() == want.encode("utf-8")

    def test_columns_of_unequal_length_are_rejected_before_the_file_is_opened(self, tmp_path):
        result = SweepResult(tau=np.linspace(0.0, 1.0, 5), success_prob=np.full(3, 0.5),
                             q=np.zeros(4), p=None)
        with pytest.raises(ValueError, match=r"differ in length: \[5, 4, 5, 3\]"):
            emit_csv(result, tmp_path / "s.csv")
        with pytest.raises(ValueError, match=r"differ in length: \[2, 1\]"):
            _write_csv(tmp_path / "t.csv", "a,b", [["1", "2"], ["3"]])
        assert list(tmp_path.iterdir()) == []


def _per_point_line_plot(series, path, xlabel="", ylabel="", title=""):
    """The per-sample line_plot that the array version replaced, kept
    verbatim as the byte reference."""
    import math

    from optoweak import svgplot
    from optoweak.svgplot import _HEIGHT, _ML, _MR, _MT, _MB, _PALETTE, _WIDTH, _fmt

    def _finite(values):
        return [v for v in values if isinstance(v, (int, float)) and math.isfinite(v)]

    series = list(series)
    all_x = [v for s in series for v in _finite(s[0])]
    pairs = [
        (x, y)
        for s in series
        for x, y in zip(s[0], s[1])
        if math.isfinite(x) and math.isfinite(y)
    ]
    if not pairs:
        raise ValueError("nothing to plot: all samples are undefined")
    x0, x1 = min(all_x), max(all_x)
    ys_fin = [y for _, y in pairs]
    y0, y1 = min(ys_fin), max(ys_fin)
    if x1 == x0:
        x0, x1 = x0 - 1, x1 + 1
    if y1 == y0:
        y0, y1 = y0 - 1, y1 + 1
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad
    plot_w = _WIDTH - _ML - _MR
    plot_h = _HEIGHT - _MT - _MB

    def to_px(x, y):
        return (
            _ML + (x - x0) / (x1 - x0) * plot_w,
            _MT + (1 - (y - y0) / (y1 - y0)) * plot_h,
        )

    parts: list[str] = []
    svgplot._frame(parts, x0, x1, y0, y1, xlabel, ylabel, title, plot_w, plot_h)

    for i, (xs, ys, label, dashed) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        dash = ' stroke-dasharray="7,4"' if dashed else ""
        run: list[str] = []
        runs: list[list[str]] = []
        for x, y in zip(xs, ys):
            if math.isfinite(x) and math.isfinite(y):
                px, py = to_px(x, y)
                run.append(f"{_fmt(px)},{_fmt(py)}")
            elif run:
                runs.append(run)
                run = []
        if run:
            runs.append(run)
        for run in runs:
            if len(run) == 1:
                px, py = run[0].split(",")
                parts.append(f'<circle cx="{px}" cy="{py}" r="2" fill="{color}"/>')
            else:
                parts.append(
                    f'<polyline points="{" ".join(run)}" fill="none" '
                    f'stroke="{color}" stroke-width="1.5"{dash}/>'
                )
        ly = _MT + 16 + 18 * i
        lx = _ML + plot_w - 150
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 26}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"{dash}/>'
        )
        parts.append(f'<text x="{lx + 32}" y="{ly}" font-size="12">{label}</text>')

    return svgplot._write_svg(parts, path)


def _per_cell_heatmap(values, xs, ys, path, xlabel="", ylabel="", title=""):
    """The heatmap that built every cell's rect before writing, kept
    verbatim as the byte reference."""
    from optoweak import svgplot
    from optoweak.svgplot import _HEIGHT, _ML, _MR, _MT, _MB, _WIDTH, _fmt

    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise ValueError("heatmap values must all be finite")
    ny, nx = len(ys), len(xs)
    if values.shape != (ny, nx):
        raise ValueError(f"heatmap values have shape {values.shape}, not {(ny, nx)}")
    x0, x1, y0, y1 = xs[0], xs[-1], ys[0], ys[-1]
    vmax = float(np.max(np.abs(values)))
    plot_w = _WIDTH - _ML - _MR - 60  # reserve room for the colorbar
    plot_h = _HEIGHT - _MT - _MB
    px = [_fmt(_ML + ix / nx * plot_w) for ix in range(nx)]
    size = f'width="{_fmt(plot_w / nx + 0.5)}" height="{_fmt(plot_h / ny + 0.5)}"'
    colors = svgplot._diverging_colors(values.ravel(), vmax)
    parts: list[str] = []
    for iy in range(ny):
        py = _fmt(_MT + (1 - (iy + 1) / ny) * plot_h)
        parts += [
            f'<rect x="{x}" y="{py}" {size} fill="{color}"/>'
            for x, color in zip(px, colors[iy * nx:(iy + 1) * nx])
        ]
    svgplot._frame(parts, x0, x1, y0, y1, xlabel, ylabel, title, plot_w, plot_h)

    bar_x = _ML + plot_w + 18
    bar_n = 32
    bar = [(2 * (1 - (i + 0.5) / bar_n) - 1) * vmax for i in range(bar_n)]
    for i, color in enumerate(svgplot._diverging_colors(bar, vmax)):
        py = _MT + i / bar_n * plot_h
        parts.append(
            f'<rect x="{bar_x}" y="{_fmt(py)}" width="16" height="{_fmt(plot_h / bar_n + 0.5)}" '
            f'fill="{color}"/>'
        )
    for frac, v in ((0.0, vmax), (0.5, 0.0), (1.0, -vmax)):
        py = _MT + frac * plot_h
        parts.append(
            f'<text x="{bar_x + 20}" y="{_fmt(py + 4)}" font-size="11">{_fmt(v)}</text>'
        )
    return svgplot._write_svg(parts, path)


def _line_series(case):
    xs = np.linspace(0.0, 3.0, 40)
    if case == "nan-gaps":  # one-sample runs at 1, 21 and 39
        a, b = np.sin(3 * xs), np.cos(2 * xs)
        a[[0, 2, 10, 11, 20, 22]] = np.nan
        b[[5, 38]] = np.nan
        return [(xs, a, "a", False), (xs, b, "b", True)]
    if case == "flat":
        return [(xs, np.full_like(xs, 0.25), "flat", False)]
    if case == "single-x":
        return [(np.full(7, 2.0), np.linspace(-1.0, 1.0, 7), "x1 == x0", False)]
    if case == "non-finite":
        x, y = xs.copy(), np.sin(xs)
        x[[3, 17, 30]] = [np.nan, np.inf, -np.inf]
        y[[8, 9, 25, 36, 39]] = [np.inf, np.nan, -np.inf, np.inf, np.nan]
        # x = 3 has no finite y, yet it still sets the x-range
        return [(x, y, "a", False), (xs[:30], np.cos(xs[:30]), "b", True)]
    if case == "all-nan-beside-finite":
        return [(xs, np.full_like(xs, np.nan), "nan", False), (xs, xs ** 2, "b", True)]
    from optoweak.sweeps import FIG_COUPLING, FIG_DAMPING

    undamped, = run_sweep(SweepConfig(params=ModelParams(k=FIG_COUPLING)))
    damped, = run_sweep(SweepConfig(params=ModelParams(k=FIG_COUPLING, gamma=FIG_DAMPING)))
    return [(undamped.tau, undamped.q, "g0", False), (damped.tau, damped.q, "g", True)]


class TestPlots:
    @pytest.mark.parametrize("case", [
        "nan-gaps", "flat", "single-x", "non-finite", "all-nan-beside-finite", "fig2",
    ])
    def test_line_plot_matches_per_point_reference(self, tmp_path, case):
        from optoweak import svgplot

        series = _line_series(case)
        labels = dict(xlabel="x", ylabel="y", title="t")
        got = svgplot.line_plot(series, tmp_path / "array.svg", **labels).read_bytes()
        want = _per_point_line_plot(series, tmp_path / "ref.svg", **labels).read_bytes()
        assert got == want

    @pytest.mark.parametrize("case", ["5x3", "zero"])
    def test_heatmap_matches_per_cell_reference(self, tmp_path, case):
        from optoweak import svgplot

        xs, ys = np.linspace(-2.0, 2.0, 5), np.linspace(-1.0, 0.5, 3)
        if case == "zero":  # vmax = 0: every cell white
            values = np.zeros((3, 5))
        else:
            values = np.sin(np.add.outer(3 * ys, xs)) + 0.5 * np.outer(ys, xs)
        labels = dict(xlabel="x", ylabel="y", title="t")
        got = svgplot.heatmap(values, xs, ys, tmp_path / "rows.svg", **labels).read_bytes()
        want = _per_cell_heatmap(values, xs, ys, tmp_path / "ref.svg", **labels).read_bytes()
        assert got == want

    def test_line_plot_rejects_mismatched_lengths(self, tmp_path):
        from optoweak import svgplot

        xs = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError, match="as many ys as xs"):
            svgplot.line_plot([(xs, np.cos(xs[:4]), "a", False)], tmp_path / "p.svg")

    @pytest.mark.parametrize("case", ["none", "all-nan"])
    def test_line_plot_rejects_nothing_to_plot(self, tmp_path, case):
        from optoweak import svgplot

        xs = np.linspace(0.0, 1.0, 5)
        series = [] if case == "none" else [(xs, np.full(5, np.nan), "a", False)]
        with pytest.raises(ValueError, match="nothing to plot"):
            svgplot.line_plot(series, tmp_path / "p.svg")

    def test_sweep_plot_rejects_no_observable_columns(self, tmp_path):
        result = SweepResult(tau=np.linspace(0.0, 1.0, 5), success_prob=np.full(5, 0.5),
                             q=None, p=None)
        with pytest.raises(ValueError, match="nothing to plot"):
            emit_plot(result, tmp_path / "s.svg")
        assert list(tmp_path.iterdir()) == []

    def test_heatmap_rejects_mismatched_shape(self, tmp_path):
        from optoweak import svgplot

        values = np.arange(6.0).reshape(3, 2) - 2.5  # (3, 2), but 2 ys by 3 xs
        with pytest.raises(ValueError, match="shape"):
            svgplot.heatmap(values, [0.0, 1.0, 2.0], [0.0, 1.0], tmp_path / "h.svg")

    def test_two_polylines_for_two_series(self, tmp_path):
        from optoweak import svgplot

        xs = np.linspace(0, 1, 50)
        path = svgplot.line_plot(
            [(xs, np.sin(xs), "a", False), (xs, np.cos(xs), "b", True)],
            tmp_path / "p.svg",
        )
        text = path.read_text()
        assert text.count("<polyline") == 2
        assert "stroke-dasharray" in text

    def test_undefined_samples_split_the_line(self, tmp_path):
        from optoweak import svgplot

        xs = np.linspace(0, 1, 50)
        ys = np.sin(xs)
        ys[20] = np.nan
        path = svgplot.line_plot([(xs, ys, "a", False)], tmp_path / "p.svg")
        assert path.read_text().count("<polyline") == 2

    def test_sweep_plot(self, tmp_path):
        path = emit_plot(*run_sweep(tiny_config(steps=64)), tmp_path / "s.svg")
        assert path.read_text().count("<polyline") == 1

    def test_heatmap_has_diverging_scale(self, tmp_path):
        values = np.outer(np.linspace(-1, 1, 21), np.ones(21))
        grid = WignerGrid(-1, 1, -1, 1, 21, 21, values)
        path = svg_heatmap(grid, tmp_path / "w.svg")
        text = path.read_text()
        assert "#b2182b" in text       # saturated positive end
        assert "#2166ac" in text       # saturated negative end
        assert "#ffffff" in text       # white center
        assert text.count("<rect") > 400

    def test_heatmap_cell_rects(self, tmp_path):
        from optoweak import svgplot

        values = [[1.0, 0.0, -1.0], [0.5, -0.5, 0.25]]
        path = svgplot.heatmap(values, [0.0, 1.0, 2.0], [0.0, 1.0], tmp_path / "h.svg")
        lines = path.read_text().splitlines()
        # a 498 x 376 px plot area split into 3 x 2 cells of 166 x 188 px;
        # row iy = 0 (lowest y) is drawn at the bottom
        size = 'width="166.5" height="188.5"'
        assert lines[3:9] == [
            f'<rect x="78" y="216" {size} fill="#b2182b"/>',
            f'<rect x="244" y="216" {size} fill="#ffffff"/>',
            f'<rect x="410" y="216" {size} fill="#2166ac"/>',
            f'<rect x="78" y="28" {size} fill="#d88c95"/>',
            f'<rect x="244" y="28" {size} fill="#90b2d6"/>',
            f'<rect x="410" y="28" {size} fill="#ecc5ca"/>',
        ]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [0, 3])
    def test_heatmap_rejects_non_finite_values(self, tmp_path, bad, where):
        from optoweak import svgplot

        values = np.array([[2.0, 0.5], [-1.0, 0.0]])
        values.flat[where] = bad
        with pytest.raises(ValueError, match="finite"):
            svgplot.heatmap(values, [0.0, 1.0], [0.0, 1.0], tmp_path / "h.svg")

    def test_vectorised_colours_match_scalar_formula(self):
        from optoweak import svgplot

        def scalar_color(v, vmax):
            if vmax <= 0:
                vmax = 1.0
            t = max(-1.0, min(1.0, v / vmax))
            target = (178, 24, 43) if t >= 0 else (33, 102, 172)
            r, g, b = (round(255 + (ch - 255) * abs(t)) for ch in target)
            return f"#{r:02x}{g:02x}{b:02x}"

        state = fockspace.named_state(FIG3_STATE, 2)
        fig3 = fockspace.wigner(state, FIG3_RANGE, FIG3_RANGE).values.ravel().tolist()
        vmax = max(abs(v) for v in fig3)
        bar = [(2 * (1 - (i + 0.5) / 32) - 1) * vmax for i in range(32)]
        ramp = np.linspace(-2.0, 2.0, 4001).tolist() + [0.0, -0.0]  # halves and saturation
        for values, scale in ((fig3, vmax), (bar, vmax), (ramp, 1.0), ([0.0, -0.0], 0.0)):
            expected = [scalar_color(v, scale) for v in values]
            assert svgplot._diverging_colors(values, scale) == expected

    def test_identical_calls_write_identical_bytes(self, tmp_path):
        from optoweak import svgplot

        xs = np.linspace(0, 1, 50)
        ys = np.sin(xs)
        ys[20] = np.nan
        values = np.outer(np.linspace(-1, 1, 7), np.linspace(0, 1, 5)).tolist()
        outputs = []
        for name in ("a", "b"):
            outputs.append(svgplot.line_plot(
                [(xs, ys, "a", False), (xs, np.cos(xs), "b", True)],
                tmp_path / f"line_{name}.svg", xlabel="x", ylabel="y", title="t",
            ).read_bytes())
            outputs.append(svgplot.heatmap(
                values, list(np.linspace(0, 1, 5)), list(np.linspace(-1, 1, 7)),
                tmp_path / f"heat_{name}.svg", xlabel="x", ylabel="y", title="t",
            ).read_bytes())
        assert outputs[0] == outputs[2]
        assert outputs[1] == outputs[3]


class TestFigures:
    def test_unknown_name_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            figure("fig9", tmp_path)

    def test_line_presets_are_every_name_but_fig3(self):
        assert list(LINE_FIGURES) == [name for name in FIGURE_NAMES if name != "fig3"]

    @pytest.mark.parametrize("name", FIGURE_NAMES)
    def test_written_files_in_order(self, tmp_path, name):
        files = {
            "fig2": ["fig2_gamma0.csv", "fig2_gamma0.005.csv", "fig2.svg"],
            "fig3": ["fig3.csv", "fig3.svg"],
            "fig4": ["fig4.csv", "fig4.svg"],
            "fig5a": ["fig5a_gamma0.csv", "fig5a_gamma0.005.csv", "fig5a.svg"],
            "fig5b": ["fig5b_gamma0.csv", "fig5b_gamma0.005.csv", "fig5b.svg"],
        }[name]
        assert figure(name, tmp_path) == [tmp_path / file for file in files]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)

    def test_fig2_outputs(self, tmp_path):
        paths = figure("fig2", tmp_path)
        names = sorted(p.name for p in paths)
        assert names == ["fig2.svg", "fig2_gamma0.005.csv", "fig2_gamma0.csv"]
        cols = np.genfromtxt(tmp_path / "fig2_gamma0.csv", delimiter=",", names=True)
        assert np.nanmax(cols["q_over_sigma"]) == pytest.approx(1.0, rel=0.02)
        assert np.nanmin(cols["q_over_sigma"]) == pytest.approx(-1.0, rel=0.02)
        svg = (tmp_path / "fig2.svg").read_text()
        assert svg.count("<polyline") == 2

    def test_fig4_outputs(self, tmp_path):
        figure("fig4", tmp_path)
        cols = np.genfromtxt(tmp_path / "fig4.csv", delimiter=",", names=True)
        assert np.all(np.isnan(cols["q_over_sigma"]))
        live = np.isfinite(cols["p_dimensionless"])
        assert np.nanmax(np.abs(cols["p_dimensionless"][live])) < 0.2

    def test_fig5a_outputs(self, tmp_path):
        figure("fig5a", tmp_path)
        cols = np.genfromtxt(tmp_path / "fig5a_gamma0.csv", delimiter=",", names=True)
        early = cols["tau"] < 1.0
        assert np.nanmax(cols["q_over_sigma"][early]) > 0.97

    def test_fig3_outputs(self, tmp_path):
        figure("fig3", tmp_path)
        lines = (tmp_path / "fig3.csv").read_text().splitlines()
        assert lines[0] == "x,y,wigner"
        assert len(lines) == 1 + 201 * 201
        data = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
        axis = np.linspace(-4.0, 4.0, 201)
        assert np.array_equal(data[:, 0], np.tile(axis, 201))    # x varies fastest,
        assert np.array_equal(data[:, 1], np.repeat(axis, 201))  # then y
        origin = data[(data[:, 0] == 0.0) & (data[:, 1] == 0.0), 2]
        assert origin.size == 1 and abs(origin[0]) < 1e-8
        assert data[:, 2].min() < 0
        cell = 8.0 / 200
        assert np.sum(data[:, 2]) * cell * cell / 4 == pytest.approx(1.0, abs=1e-2)


class TestVerify:
    def test_default_grid_composition(self):
        grid = default_verify_grid()
        assert len(grid) == 12
        assert sum(1 for _, obs in grid if obs == "p") == 6
        figure_sets = {(gamma, theta) for theta, _, dampings in LINE_FIGURES.values()
                       for gamma in dampings}
        assert sorted((params.gamma, params.theta, obs) for params, obs in grid) == sorted(
            (gamma, theta, obs) for gamma, theta in figure_sets for obs in "qp")
        assert all(params.k == sweeps.FIG_COUPLING for params, _ in grid)

    def test_small_grid_passes(self, tmp_path):
        report = verify(
            grid=[(ModelParams(k=K), "q"), (ModelParams(k=K), "p")],
            tolerance=1e-5,
            config=IntegratorConfig(dt=5e-3, fock_dim=12),
            out=tmp_path / "r.json",
            taus=np.linspace(0.0, 2.0, 5),
        )
        assert report.passed
        assert report.max_abs_diff < 1e-6
        payload = json.loads((tmp_path / "r.json").read_text())
        assert set(payload) == {"points", "max_abs_diff", "tolerance", "pass"}
        assert payload["pass"] is True
        point = payload["points"][0]
        assert {"k", "gamma", "theta", "tau", "observable", "analytic", "oracle",
                "abs_diff"} <= set(point)
        # tau=0 is degenerate for theta=0 and must be absent, not an error
        assert len(payload["points"]) == 8

    def test_one_analytic_evaluation_per_parameter_set(self, monkeypatch):
        calls = count_conditioned_state_calls(monkeypatch)
        undamped, damped = ModelParams(k=K, theta=0.001), ModelParams(k=K, gamma=0.005)
        report = verify(
            grid=[(undamped, "q"), (undamped, "p"), (damped, "p"), (damped, "q")],
            config=IntegratorConfig(dt=5e-3, fock_dim=12),
            taus=np.linspace(0.5, 1.0, 2),
        )
        assert report.passed
        assert len(report.points) == 8
        assert [args[0] for args in calls] == [undamped, damped]

    def test_one_oracle_evolution_per_k_gamma(self, monkeypatch):
        oracle_sweeps = lindblad.oracle_sweeps
        groups = []

        def recorded(group, *args, **kwargs):
            groups.append([(params.gamma, params.theta) for params in group])
            return oracle_sweeps(group, *args, **kwargs)

        monkeypatch.setattr(lindblad, "oracle_sweeps", recorded)
        report = verify(config=IntegratorConfig(fock_dim=12), taus=np.linspace(0.5, 1.0, 2))
        assert report.passed
        assert len(report.points) == 24
        assert groups == [[(gamma, 0.0), (gamma, 0.001), (gamma, -0.001)]
                          for gamma in (0.0, 0.005)]

    def test_zero_tolerance_fails(self):
        report = verify(
            grid=[(ModelParams(k=K), "q")],
            tolerance=0.0,
            config=IntegratorConfig(dt=5e-3, fock_dim=12),
            taus=np.linspace(0.5, 1.5, 3),
        )
        assert not report.passed
        assert report.max_abs_diff > 0.0

    def test_report_is_deterministic(self, tmp_path):
        kwargs = dict(
            grid=[(ModelParams(k=K, theta=0.001), "q")],
            tolerance=1e-5,
            config=IntegratorConfig(dt=5e-3, fock_dim=12),
            taus=np.linspace(0.0, 1.0, 4),
        )
        a = verify(out=tmp_path / "a.json", **kwargs)
        b = verify(out=tmp_path / "b.json", **kwargs)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_engine_errors_recorded_per_point(self, monkeypatch):
        def unstable(*args, **kwargs):
            raise StepUnstable("trace drifted")

        monkeypatch.setattr(lindblad, "oracle_sweeps", unstable)
        report = verify(
            grid=[(ModelParams(k=K, gamma=0.005), "p"),
                  (ModelParams(k=K, gamma=0.005), "q")],
            tolerance=1e-5,
            config=IntegratorConfig(dt=5e-3, fock_dim=12),
            taus=np.linspace(0.5, 1.0, 2),
        )
        assert report.points == [{"k": K, "gamma": 0.005, "theta": 0.0,
                                  "observable": "p/q", "error": "trace drifted"}]
        assert report.max_abs_diff == 0.0
        assert not report.passed

    @pytest.mark.filterwarnings("error")
    def test_non_finite_time_is_an_error_point(self):
        report = verify(grid=[(ModelParams(k=K), "q")], config=IntegratorConfig(fock_dim=8),
                        taus=[0.0, np.inf])
        assert report.points == [{"k": K, "gamma": 0.0, "theta": 0.0, "observable": "q",
                                  "error": "snapshot times must be finite"}]
        assert not report.passed

    def test_nan_oracle_value_fails(self, monkeypatch):
        oracle_sweeps = lindblad.oracle_sweeps

        def nan_positions(*args, **kwargs):
            return [(np.full_like(q, np.nan), p, prob)
                    for q, p, prob in oracle_sweeps(*args, **kwargs)]

        monkeypatch.setattr(lindblad, "oracle_sweeps", nan_positions)
        report = verify(
            grid=[(ModelParams(k=K, theta=0.001), "q")],
            config=IntegratorConfig(dt=5e-3, fock_dim=12),
            taus=np.linspace(0.5, 1.0, 3),
        )
        assert len(report.points) == 3
        assert np.isnan(report.max_abs_diff)
        assert not report.passed

    def test_unknown_observable_is_rejected_before_any_evolution(self, monkeypatch):
        evolutions = []
        monkeypatch.setattr(lindblad, "oracle_sweeps", lambda *args, **kwargs: evolutions.append(args))
        damped = ModelParams(k=K, gamma=0.005, theta=0.001)
        entry = re.escape(f"grid entry ({damped!r}, 'both'): observable must be 'q' or 'p'")
        with pytest.raises(ValueError, match=entry):
            verify(grid=[(ModelParams(k=K, theta=0.001), "q"), (damped, "both")],
                   config=IntegratorConfig(fock_dim=8), taus=np.linspace(0.5, 1, 3))
        assert evolutions == []

    @pytest.mark.parametrize("grid, taus", [
        ([], None),
        # theta = 0 and tau = 0: the dark port cannot fire at any point
        ([(ModelParams(k=K), "q"), (ModelParams(k=K, gamma=0.005), "p")], [0.0]),
    ], ids=["empty-grid", "all-degenerate"])
    def test_nothing_compared_fails(self, grid, taus):
        report = verify(grid=grid, config=IntegratorConfig(dt=5e-3, fock_dim=12), taus=taus)
        assert report.points == []
        assert not report.passed


FLOAT_FIELDS = ("abs_diff", "analytic", "gamma", "k", "oracle", "tau", "theta")


def compared_point(**changes):
    point = {"k": K, "gamma": 0.005, "theta": -0.001, "observable": "q", "tau": 1.25,
             "analytic": 0.123, "oracle": 0.1230000001, "abs_diff": 1.0000000827e-10}
    return {**point, **changes}


def assert_writes_the_json_bytes(report):
    """to_json against the json.dumps reference, byte for byte, and read back."""
    payload = {"points": report.points, "max_abs_diff": report.max_abs_diff,
               "tolerance": report.tolerance, "pass": report.passed}
    text = report.to_json()
    assert text == json.dumps(payload, sort_keys=True)
    assert json.dumps(json.loads(text), sort_keys=True) == text


# few distinct values, so that points share k, gamma, theta and tau
report_floats = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, K, np.nan, np.inf, -np.inf]),
                          st.floats(allow_nan=True, allow_infinity=True))
report_scalars = st.one_of(report_floats, report_floats.map(np.float64), st.integers(-2, 2),
                           st.booleans(), st.none())
compared_points = st.fixed_dictionaries(
    {**{name: st.one_of(report_floats, report_floats, report_scalars) for name in FLOAT_FIELDS},
     "observable": st.sampled_from(["q", "p"])})
error_points = st.fixed_dictionaries({"k": report_scalars, "gamma": report_scalars,
                                      "theta": report_scalars, "observable": st.text(max_size=3),
                                      "error": st.text()})
other_points = st.dictionaries(st.text(max_size=4), report_scalars, max_size=4)


class TestReportJson:
    def test_default_grid_report(self):
        report = verify(config=IntegratorConfig(fock_dim=12), taus=np.linspace(0.0, 4 * np.pi, 7))
        assert len(report.points) == 80
        assert_writes_the_json_bytes(report)

    @pytest.mark.parametrize("special", [np.nan, np.inf, -np.inf, -0.0],
                             ids=["nan", "inf", "-inf", "-0.0"])
    @pytest.mark.parametrize("name", FLOAT_FIELDS)
    def test_special_float_in_a_point(self, name, special):
        # zeros of both signs before and after the special value, which repeats
        values = (0.0, special, -0.0, special, 0.0, 1.0, -special)
        report = VerifyReport(points=[compared_point(**{name: v}) for v in values],
                              max_abs_diff=0.0, tolerance=1e-5, passed=True)
        assert_writes_the_json_bytes(report)

    @pytest.mark.parametrize("special", [np.nan, np.inf, -np.inf, -0.0, 0.0],
                             ids=["nan", "inf", "-inf", "-0.0", "0.0"])
    @pytest.mark.parametrize("name", ["max_abs_diff", "tolerance"])
    def test_special_float_in_the_report(self, name, special):
        fields = {"max_abs_diff": 1e-9, "tolerance": 1e-5, name: special}
        assert_writes_the_json_bytes(VerifyReport(points=[compared_point()], passed=False, **fields))

    @pytest.mark.parametrize("values", [
        (1.0, 1, True, np.float64(1.0), 1.0, 1, True),
        (True, 1, 1.0, True, np.float64(1.0), 1),
        (0, False, 0.0, -0.0, np.float64(-0.0), 0, -0.0),
    ], ids=["float-first", "bool-first", "zeros"])
    @pytest.mark.parametrize("name", ["k", "gamma", "theta", "tau"])
    def test_equal_values_of_other_types(self, name, values):
        # 1.0 == 1 == True and 0.0 == -0.0 == 0 == False, each with its own spelling
        report = VerifyReport(points=[compared_point(**{name: v}) for v in values],
                              max_abs_diff=np.float64(2e-10), tolerance=1, passed=True)
        assert_writes_the_json_bytes(report)

    def test_error_and_other_points(self):
        message = 'oracle said "no"\nsecond line, ünïcode ∆ ✓ \\ \t'
        points = [
            {"k": K, "gamma": 0.005, "theta": 0.0, "observable": "p/q", "error": message},
            compared_point(),
            {**compared_point(), "extra": None},
            compared_point(tau=[1.0, -0.0, {"b": np.nan, "a": 2}], observable=None),
            {},
            [],
        ]
        assert_writes_the_json_bytes(VerifyReport(points=points, max_abs_diff=0.0,
                                                  tolerance=1e-5, passed=False))

    def test_empty_points(self):
        assert_writes_the_json_bytes(VerifyReport(points=[], max_abs_diff=0.0, tolerance=1e-5,
                                                  passed=False))

    @given(points=st.lists(st.one_of(compared_points, compared_points, error_points, other_points),
                          max_size=8),
           max_abs_diff=report_scalars, tolerance=report_scalars, passed=st.booleans())
    @settings(max_examples=50)
    def test_mixed_reports(self, points, max_abs_diff, tolerance, passed):
        assert_writes_the_json_bytes(VerifyReport(points=points, max_abs_diff=max_abs_diff,
                                                  tolerance=tolerance, passed=passed))
