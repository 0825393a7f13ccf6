"""Command-line interface: flags, config files, outputs and exit codes."""

import json
import subprocess
import sys

import numpy as np
import pytest

from optoweak import lindblad
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

        monkeypatch.setattr(lindblad, "oracle_sweep", unstable)
        code = run_cli(["verify", "--out", tmp_path / "report.json"])
        assert code == 1
        printed = capsys.readouterr().out
        assert "FAIL" in printed
        assert "over 0 compared points, 6 error points" in printed


def test_module_invocation(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "optoweak", "figure", "fig4", "--out-dir", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0
    assert (tmp_path / "fig4.csv").exists()
