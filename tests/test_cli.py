"""Command-line interface: flags, config files, outputs and exit codes."""

import json
import subprocess
import sys

import numpy as np
import pytest

from optoweak import fockspace, lindblad, model, sweeps
from optoweak.cli import main
from optoweak.lindblad import StepUnstable
from optoweak.sweeps import CSV_HEADER, read_csv


def run_cli(args):
    return main([str(a) for a in args])


class TestSweepCommand:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = run_cli(["sweep", "--k", 0.005, "--theta", 0.001, "--tau-start", 0,
                        "--tau-end", 1, "--steps", 3, "--out", out])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER and len(lines) == 4
        assert str(out) in capsys.readouterr().out

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["sweep", "--theta", 0.001, "--tau-end", 2, "--steps", 5]
        run_cli(base + ["--out", a])
        run_cli(base + ["--out", b])
        assert a.read_bytes() == b.read_bytes()

    def test_engine_both_writes_companion_file(self, tmp_path):
        out = tmp_path / "s.csv"
        code = run_cli(["sweep", "--theta", 0.001, "--tau-end", 0.5, "--steps", 3,
                        "--engine", "both", "--dt", 0.005, "--out", out])
        assert code == 0
        companion = tmp_path / "s.oracle.csv"
        assert companion.exists()
        q_analytic = read_csv(out)["q_over_sigma"]
        q_oracle = read_csv(companion)["q_over_sigma"]
        assert np.nanmax(np.abs(q_analytic - q_oracle)) < 1e-6

    def test_damped_momentum_against_oracle(self, tmp_path):
        out = tmp_path / "s.csv"
        code = run_cli(["sweep", "--gamma", 0.005, "--theta", 0.001, "--tau-end", 0.5,
                        "--steps", 3, "--observable", "both", "--engine", "both",
                        "--dt", 0.005, "--out", out])
        assert code == 0
        p_analytic = read_csv(out)["p_dimensionless"]
        p_oracle = read_csv(tmp_path / "s.oracle.csv")["p_dimensionless"]
        assert np.isfinite(p_analytic).all()
        assert np.max(np.abs(p_analytic - p_oracle)) < 1e-5

    def test_optional_plot(self, tmp_path):
        out = tmp_path / "s.csv"
        svg = tmp_path / "s.svg"
        run_cli(["sweep", "--theta", 0.001, "--tau-end", 2, "--steps", 32,
                 "--out", out, "--plot", svg])
        assert "<polyline" in svg.read_text()


class TestConfigFile:
    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"theta": 0.001, "tau_end": 1.0, "steps": 3, "out": str(tmp_path / "c.csv")}
        ))
        code = run_cli(["sweep", "--config", cfg, "--steps", 4])
        assert code == 0
        lines = (tmp_path / "c.csv").read_text().splitlines()
        assert len(lines) == 5          # flag value 4 wins over file value 3

    def test_values_parsed_like_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "c.csv"
        cfg.write_text(json.dumps(
            {"theta": "0.001", "tau_end": 1, "steps": "3", "plot": None, "out": str(out)}
        ))
        assert run_cli(["sweep", "--config", cfg]) == 0
        flagged = tmp_path / "f.csv"
        run_cli(["sweep", "--theta", "0.001", "--tau-end", "1", "--steps", "3",
                 "--out", flagged])
        assert out.read_bytes() == flagged.read_bytes()
        # the null "plot" entry left --plot unset, so no SVG was written
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.csv", "cfg.json", "f.csv"]

    def test_unknown_keys_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"stepz": 3}))
        with pytest.raises(SystemExit):
            run_cli(["sweep", "--config", cfg])

    def test_missing_file_reported(self, tmp_path):
        with pytest.raises(SystemExit):
            run_cli(["sweep", "--config", tmp_path / "nope.json"])


class TestFigureCommand:
    def test_fig4(self, tmp_path):
        code = run_cli(["figure", "fig4", "--out-dir", tmp_path])
        assert code == 0
        assert (tmp_path / "fig4.csv").exists()
        assert (tmp_path / "fig4.svg").exists()


class TestWignerCommand:
    def test_writes_heatmap(self, tmp_path):
        out = tmp_path / "w.svg"
        code = run_cli(["wigner", "--state", "minus-superposition",
                        "--x-range=-2:2:21", "--y-range=-2:2:21", "--out", out])
        assert code == 0
        assert out.read_text().count("<rect") > 400

    def test_bad_range_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            run_cli(["wigner", "--x-range", "oops", "--out", tmp_path / "w.svg"])


class TestVerifyCommand:
    def test_pass_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run_cli(["verify", "--dt", 0.01, "--tolerance", 1e-5, "--out", out])
        assert code == 0
        printed = capsys.readouterr().out
        assert "PASS" in printed
        assert "over 596 compared points, 0 error points" in printed
        payload = json.loads(out.read_text())
        assert payload["pass"] is True
        assert payload["max_abs_diff"] < 1e-5

    def test_fail_exit_one(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run_cli(["verify", "--dt", 0.01, "--tolerance", 0, "--out", out])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out
        assert json.loads(out.read_text())["pass"] is False

    def test_error_points_counted_apart(self, tmp_path, capsys, monkeypatch):
        def unstable(*args, **kwargs):
            raise StepUnstable("trace drifted")

        monkeypatch.setattr(lindblad, "oracle_sweeps", unstable)
        code = run_cli(["verify", "--out", tmp_path / "report.json"])
        assert code == 1
        printed = capsys.readouterr().out
        assert "FAIL" in printed
        assert "over 0 compared points, 6 error points" in printed


class TestCliDefaults:
    """With no flags, each subcommand uses the defaults of the library's own owners."""

    def test_sweep(self, tmp_path):
        out, expected = tmp_path / "cli.csv", tmp_path / "lib.csv"
        assert run_cli(["sweep", "--out", out]) == 0
        config = sweeps.SweepConfig(model.ModelParams(k=sweeps.FIG_COUPLING))
        sweeps.emit_csv(sweeps.run_sweep(config), expected)
        assert out.read_bytes() == expected.read_bytes()

    def test_wigner(self, tmp_path):
        out, expected = tmp_path / "cli.svg", tmp_path / "lib.svg"
        assert run_cli(["wigner", "--out", out]) == 0
        state = fockspace.named_state(sweeps.FIG3_STATE, sweeps.FIG3_FOCK_DIM)
        grid = fockspace.wigner(state, sweeps.FIG3_RANGE, sweeps.FIG3_RANGE)
        sweeps.svg_heatmap(grid, expected, title=f"Wigner function, {sweeps.FIG3_STATE}")
        assert out.read_bytes() == expected.read_bytes()

    def test_verify(self, tmp_path, monkeypatch):
        calls = []

        def fake_verify(**kwargs):
            calls.append(kwargs)
            return sweeps.VerifyReport(points=[], max_abs_diff=0.0,
                                       tolerance=kwargs["tolerance"], passed=False)

        monkeypatch.setattr(sweeps, "verify", fake_verify)
        out = tmp_path / "report.json"
        run_cli(["verify", "--out", out])
        assert calls == [{"tolerance": sweeps.VERIFY_TOLERANCE,
                          "config": lindblad.IntegratorConfig(), "out": str(out)}]


class TestCliErrors:
    @pytest.mark.parametrize(
        "args, config, message",
        [
            (["sweep", "--k", 0.5], None, "k=0.5 outside the weak-coupling range"),
            (["sweep", "--tau-end", "inf", "--steps", 3, "--out", "x.csv"], None,
             "tau bounds must be finite"),
            (["verify", "--dt", 0.5], None, "dt=0.5 outside (0, 0.01]"),
            (["wigner", "--x-range=-4:4:1"], None, "at least 2 points"),
            (["wigner"], {"state": "cat"}, "invalid choice: 'cat'"),
            (["sweep"], {"steps": 3.5}, "argument --steps: invalid int value: '3.5'"),
            (["sweep"], {"steps": "three"}, "argument --steps: invalid int value: 'three'"),
            (["sweep"], {"k": True}, "argument --k: invalid float value: 'True'"),
            (["sweep"], {"observable": "x"}, "argument --observable: invalid choice: 'x'"),
            (["sweep"], 3, "must hold a JSON object"),
            (["sweep", "--out", "nodir/s.csv"], None, "cannot write sweep CSV to nodir/s.csv"),
            (["wigner", "--out", "nodir/w.svg"], None, "No such file or directory: 'nodir/w.svg'"),
            (["figure", "fig4", "--out-dir", "file/x"], None, "Not a directory: 'file/x'"),
        ],
        ids=["sweep-k", "sweep-tau-end-inf", "verify-dt", "wigner-range", "wigner-config-state",
             "config-steps-float", "config-steps-word", "config-k-bool",
             "config-observable", "config-not-object",
             "sweep-unwritable", "wigner-unwritable", "figure-unwritable"],
    )
    def test_bad_input_is_a_usage_error(self, tmp_path, monkeypatch, capsys, args, config,
                                        message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "file").write_text("")  # a plain file, so file/x cannot be made
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            args = args + ["--config", "cfg.json"]
        with pytest.raises(SystemExit) as exit_info:
            run_cli(args)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err


def test_module_invocation(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "optoweak", "figure", "fig4", "--out-dir", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0
    assert (tmp_path / "fig4.csv").exists()
