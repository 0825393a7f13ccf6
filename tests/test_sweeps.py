"""Sweep evaluation, CSV/SVG emission, figure presets and the verification
report."""

import json

import numpy as np
import pytest

from optoweak import lindblad, model
from optoweak.fockspace import WignerGrid
from optoweak.lindblad import IntegratorConfig, StepUnstable
from optoweak.model import ModelParams
from optoweak.sweeps import (
    CSV_HEADER,
    SUCCESS_FLOOR,
    SweepConfig,
    default_verify_grid,
    emit_csv,
    emit_plot,
    figure,
    read_csv,
    run_sweep,
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
        r = run_sweep(tiny_config())
        assert r.engine == "analytic"
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
        r = run_sweep(cfg, IntegratorConfig(dt=5e-3, fock_dim=12))
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
        oracle = run_sweep(cfg, IntegratorConfig(dt=2e-3, fock_dim=12))
        analytic = run_sweep(tiny_config(params=params, observable="both"))
        assert np.nanmax(np.abs(oracle.q - analytic.q)) < 1e-6
        assert np.nanmax(np.abs(oracle.p - analytic.p)) < 1e-6

    def test_one_analytic_evaluation_per_sweep(self, monkeypatch):
        calls = count_conditioned_state_calls(monkeypatch)
        r = run_sweep(tiny_config(observable="both"))
        assert len(calls) == 1
        assert np.isfinite(r.q).all() and np.isfinite(r.p).all()

    def test_both_engines_attach_companion(self):
        r = run_sweep(tiny_config(engine="both"), IntegratorConfig(dt=5e-3, fock_dim=12))
        assert r.engine == "analytic"
        assert r.oracle_companion is not None
        assert r.oracle_companion.engine == "oracle"


class TestCsv:
    def test_row_count_and_header(self, tmp_path):
        path = emit_csv(run_sweep(tiny_config()), tmp_path / "s.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4

    def test_degenerate_row_serialization(self, tmp_path):
        r = run_sweep(tiny_config(params=ModelParams(k=K)))
        lines = emit_csv(r, tmp_path / "s.csv").read_text().splitlines()
        assert lines[1] == "0,,,0"

    def test_seventeen_significant_digits(self, tmp_path):
        r = run_sweep(tiny_config())
        lines = emit_csv(r, tmp_path / "s.csv").read_text().splitlines()
        tau_cell, q_cell, _, _ = lines[2].split(",")
        assert tau_cell == "0.5"
        assert q_cell == f"{r.q[1]:.17g}"

    def test_byte_identical_reruns(self, tmp_path):
        a = emit_csv(run_sweep(tiny_config()), tmp_path / "a.csv").read_bytes()
        b = emit_csv(run_sweep(tiny_config()), tmp_path / "b.csv").read_bytes()
        assert a == b

    def test_roundtrip(self, tmp_path):
        r = run_sweep(tiny_config())
        cols = read_csv(emit_csv(r, tmp_path / "s.csv"))
        assert np.allclose(cols["tau"], r.tau)
        assert np.allclose(cols["q_over_sigma"], r.q, rtol=1e-15)

    def test_unwritable_path_is_reported(self, tmp_path):
        with pytest.raises(OSError, match="cannot write sweep CSV"):
            emit_csv(run_sweep(tiny_config()), tmp_path / "missing" / "s.csv")


class TestPlots:
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
        path = emit_plot(run_sweep(tiny_config(steps=64)), tmp_path / "s.svg")
        assert path.read_text().count("<polyline") == 1

    def test_heatmap_has_diverging_scale(self, tmp_path):
        values = np.outer(np.linspace(-1, 1, 21), np.ones(21))
        grid = WignerGrid(-1, 1, -1, 1, 21, 21, values)
        path = emit_plot(grid, tmp_path / "w.svg")
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

    def test_fig2_outputs(self, tmp_path):
        paths = figure("fig2", tmp_path)
        names = sorted(p.name for p in paths)
        assert names == ["fig2.svg", "fig2_gamma0.005.csv", "fig2_gamma0.csv"]
        cols = read_csv(tmp_path / "fig2_gamma0.csv")
        assert np.nanmax(cols["q_over_sigma"]) == pytest.approx(1.0, rel=0.02)
        assert np.nanmin(cols["q_over_sigma"]) == pytest.approx(-1.0, rel=0.02)
        svg = (tmp_path / "fig2.svg").read_text()
        assert svg.count("<polyline") == 2

    def test_fig4_outputs(self, tmp_path):
        figure("fig4", tmp_path)
        cols = read_csv(tmp_path / "fig4.csv")
        assert np.all(np.isnan(cols["q_over_sigma"]))
        live = np.isfinite(cols["p_dimensionless"])
        assert np.nanmax(np.abs(cols["p_dimensionless"][live])) < 0.2

    def test_fig5a_outputs(self, tmp_path):
        figure("fig5a", tmp_path)
        cols = read_csv(tmp_path / "fig5a_gamma0.csv")
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

    @pytest.mark.parametrize("grid, taus", [
        ([], None),
        # theta = 0 and tau = 0: the dark port cannot fire at any point
        ([(ModelParams(k=K), "q"), (ModelParams(k=K, gamma=0.005), "p")], [0.0]),
    ], ids=["empty-grid", "all-degenerate"])
    def test_nothing_compared_fails(self, grid, taus):
        report = verify(grid=grid, config=IntegratorConfig(dt=5e-3, fock_dim=12), taus=taus)
        assert report.points == []
        assert not report.passed
