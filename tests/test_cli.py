"""Command-line interface: flags, config files, outputs and exit codes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from optoweak import fockspace, lindblad, model, sweeps
from optoweak.cli import main
from optoweak.lindblad import StepUnstable
from optoweak.sweeps import CSV_HEADER


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
        q_analytic = np.genfromtxt(out, delimiter=",", names=True)["q_over_sigma"]
        q_oracle = np.genfromtxt(companion, delimiter=",", names=True)["q_over_sigma"]
        assert np.nanmax(np.abs(q_analytic - q_oracle)) < 1e-6

    def test_engine_oracle_writes_only_out(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = run_cli(["sweep", "--theta", 0.001, "--tau-end", 0.5, "--steps", 3,
                        "--engine", "oracle", "--observable", "both", "--out", out])
        assert code == 0
        assert list(tmp_path.iterdir()) == [out]
        assert capsys.readouterr().out == f"wrote {out}\n"
        config = sweeps.SweepConfig(model.ModelParams(k=sweeps.FIG_COUPLING, theta=0.001),
                                    tau_end=0.5, steps=3, observable="both", engine="oracle")
        expected = sweeps.emit_csv(*sweeps.run_sweep(config), tmp_path / "lib.csv")
        assert out.read_bytes() == expected.read_bytes()

    def test_damped_momentum_against_oracle(self, tmp_path):
        out = tmp_path / "s.csv"
        code = run_cli(["sweep", "--gamma", 0.005, "--theta", 0.001, "--tau-end", 0.5,
                        "--steps", 3, "--observable", "both", "--engine", "both",
                        "--dt", 0.005, "--out", out])
        assert code == 0
        p_analytic = np.genfromtxt(out, delimiter=",", names=True)["p_dimensionless"]
        p_oracle = np.genfromtxt(tmp_path / "s.oracle.csv", delimiter=",",
                                 names=True)["p_dimensionless"]
        assert np.isfinite(p_analytic).all()
        assert np.max(np.abs(p_analytic - p_oracle)) < 1e-5

    def test_decay_past_the_float_range(self, tmp_path, capsys):
        # gamma tau overflows a float; the decaying exponentials read 0, so the
        # late rows hold the stationary q = Re(ik/mu) = k/26 (mu = i + 5)
        out = tmp_path / "s.csv"
        code = run_cli(["sweep", "--gamma", 10, "--tau-end", "1e308", "--steps", 3, "--out", out])
        assert code == 0
        assert out.read_text().splitlines()[2:] == [
            "5.0000000000000001e+307,0.00019230769230769231,,0.5",
            "1e+308,0.00019230769230769231,,0.5",
        ]
        # gamma tau << 1 with tau near the float maximum: the bracket stays finite
        code = run_cli(["sweep", "--gamma", "5e-324", "--tau-end", "1.7e308", "--steps", 3,
                        "--out", out])
        assert code == 0
        assert "RuntimeWarning" not in capsys.readouterr().err

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
        sweeps.emit_csv(*sweeps.run_sweep(config), expected)
        assert out.read_bytes() == expected.read_bytes()

    def test_wigner(self, tmp_path):
        out, expected = tmp_path / "cli.svg", tmp_path / "lib.svg"
        assert run_cli(["wigner", "--out", out]) == 0
        state = fockspace.named_state(sweeps.FIG3_STATE, 2)
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
            (["sweep", "--gamma", "inf", "--out", "x.csv"], None,
             "gamma=inf must be finite and non-negative"),
            (["verify", "--dt", 0.5], None, "dt=0.5 outside (0, 0.01]"),
            (["verify", "--tolerance", "inf"], None, "tolerance=inf must be finite and non-negative"),
            (["verify", "--tolerance", "nan"], None, "tolerance=nan must be finite and non-negative"),
            (["verify", "--tolerance=-1"], None, "tolerance=-1.0 must be finite and non-negative"),
            (["sweep", "--engine", "oracle", "--tau-end", "1e9", "--steps", 2, "--fock-dim", 8,
              "--out", "x.csv"], None, "Taylor substeps, above the cap of 10000"),
            (["sweep", "--engine", "oracle", "--tau-end", "1e308", "--steps", 2, "--fock-dim", 8,
              "--out", "x.csv"], None, "needs inf Taylor substeps, above the cap of 10000"),
            (["sweep", "--gamma", "1e155", "--tau-end", 5, "--steps", 3, "--out", "x.csv"], None,
             "gamma=1e+155 must be finite and non-negative, with a finite square"),
            (["wigner", "--x-range=-4:4:1"], None, "at least 2 points"),
            (["wigner", "--x-range=-inf:4:5"], None, "grid ranges must be finite"),
            (["wigner", "--y-range=-4:inf:5"], None, "grid ranges must be finite"),
            (["wigner", "--x-range=-1e200:1e200:3", "--y-range=-1:1:3"], None,
             "the grid's outermost |x + iy|^2 overflows a float"),
            (["wigner", "--fock-dim", 1], None, "unrecognized arguments: --fock-dim 1"),
            (["wigner"], {"state": "cat"}, "invalid choice: 'cat'"),
            (["sweep"], {"steps": 3.5}, "argument --steps: invalid int value: '3.5'"),
            (["sweep"], {"steps": "three"}, "argument --steps: invalid int value: 'three'"),
            (["sweep"], {"k": True}, "config entry 'k' must be a JSON string or number, not true"),
            (["sweep"], {"plot": False, "steps": 3, "tau_end": 1.0},
             "config entry 'plot' must be a JSON string or number, not false"),
            (["sweep"], {"out": ["a", "b"]},
             """config entry 'out' must be a JSON string or number, not ["a", "b"]"""),
            (["sweep"], {"observable": "x"}, "argument --observable: invalid choice: 'x'"),
            (["sweep"], 3, "must hold a JSON object"),
            (["figure", "fig4"], {"name": "fig2"}, "unknown config keys for figure: ['name']"),
            (["sweep", "--out", "nodir/s.csv"], None, "cannot write sweep CSV to nodir/s.csv"),
            (["sweep", "--out", "."], None, "cannot write sweep CSV to .: "),
            (["sweep", "--engine", "both", "--fock-dim", 8, "--out", "."], None,
             "cannot write sweep CSV to .: "),
            (["wigner", "--out", "nodir/w.svg"], None, "No such file or directory: 'nodir/w.svg'"),
            (["figure", "fig4", "--out-dir", "file/x"], None, "Not a directory: 'file/x'"),
        ],
        ids=["sweep-k", "sweep-tau-end-inf", "sweep-gamma-inf", "verify-dt",
             "verify-tolerance-inf", "verify-tolerance-nan", "verify-tolerance-negative",
             "sweep-oracle-long-span", "sweep-oracle-span-overflow", "sweep-gamma-square-overflow",
             "wigner-range", "wigner-x-range-inf", "wigner-y-range-inf", "wigner-corner-overflow",
             "wigner-fock-dim", "wigner-config-state",
             "config-steps-float", "config-steps-word", "config-k-bool",
             "config-plot-false", "config-out-list",
             "config-observable", "config-not-object", "config-figure-name",
             "sweep-unwritable", "sweep-out-directory", "sweep-both-out-directory",
             "wigner-unwritable", "figure-unwritable"],
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
        assert "RuntimeWarning" not in err

    @pytest.mark.parametrize("args", [
        ["sweep", "--engine", "both", "--out", "."],
        ["sweep", "--engine", "both", "--out", "s.csv", "--plot", "nodir/s.svg"],
        ["sweep", "--out", "s.csv", "--plot", "."],
        ["verify", "--out", "nodir/r.json"],
        ["wigner", "--out", "."],
        ["figure", "fig2", "--out-dir", "file"],
    ], ids=["sweep-both-out-directory", "sweep-plot-missing-parent", "sweep-plot-directory",
            "verify-missing-parent", "wigner-directory", "figure-dir-is-a-file"])
    def test_outputs_are_claimed_before_any_engine_runs(self, tmp_path, monkeypatch, capsys, args):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "file").write_text("")

        def never(*args, **kwargs):
            raise AssertionError("an engine ran before every output was claimed")

        for module, name in ((sweeps, "run_sweep"), (sweeps, "verify"), (sweeps, "figure"),
                             (fockspace, "wigner")):
            monkeypatch.setattr(module, name, never)
        with pytest.raises(SystemExit) as exit_info:
            run_cli(args)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "cannot write" in err and "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["file"]

    def test_unwritable_plot_leaves_no_table_behind(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            run_cli(["sweep", "--engine", "both", "--tau-end", 1, "--steps", 3, "--fock-dim", 8,
                     "--out", "s.csv", "--plot", "nodir/s.svg"])
        assert exit_info.value.code == 2
        assert "cannot write sweep plot to nodir/s.svg: " in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_claimed_outputs_keep_their_bytes(self, tmp_path, monkeypatch):
        # an existing output is opened for appending only, then written whole
        monkeypatch.chdir(tmp_path)
        argv = ["sweep", "--engine", "both", "--tau-end", 1, "--steps", 3, "--fock-dim", 8,
                "--out", "s.csv", "--plot", "s.svg"]
        run_cli(argv)
        first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert sorted(first) == ["s.csv", "s.oracle.csv", "s.svg"]
        run_cli(argv)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == first


def test_module_invocation(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "optoweak", "figure", "fig4", "--out-dir", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0
    assert (tmp_path / "fig4.csv").exists()


@pytest.fixture(scope="module")
def output_digests(tmp_path_factory):
    """One run of scripts/output_digests.py: its printed lines and output directory."""
    root = Path(__file__).resolve().parents[1]
    out_dir = tmp_path_factory.mktemp("digests")
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(root / "scripts" / "output_digests.py"), str(out_dir)],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines(), out_dir


def test_output_digests_script_runs_every_command(output_digests):
    # the byte-identity comparisons between checkouts rest on this script
    lines, out_dir = output_digests
    assert re.fullmatch(r"# Python \S+, numpy .+, BLAS .+", lines[0])
    lines = lines[1:]
    assert len(set(lines)) == len(lines) == 64
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines)
    printed = sorted(out_dir.rglob("stdout.txt"))
    assert len(printed) == 24
    for stdout in printed:
        assert stdout.read_text(encoding="utf-8").endswith("exit 0\n"), stdout


def test_output_digests_match_the_recorded_ones(output_digests):
    lines, _ = output_digests
    recorded = (Path(__file__).parent / "output_digests.txt").read_text(encoding="utf-8")
    recorded = recorded.splitlines()
    if lines[0] != recorded[0]:
        # the oracle's bytes follow the BLAS kernels and numpy's own SIMD paths
        pytest.skip(f"digests recorded under {recorded[0][2:]!r}, "
                    f"not compared under this run's {lines[0][2:]!r}")
    assert lines == recorded, "output bytes moved: rewrite tests/output_digests.txt with them"


def test_cli_import_leaves_out_scipy():
    # the package needs numpy alone; only the tests use scipy, as a reference
    script = (
        "import sys, optoweak.cli\n"
        "print('scipy' in sys.modules)\n"
        "from optoweak.lindblad import IntegratorConfig, oracle_sweep\n"
        "from optoweak.model import ModelParams\n"
        "oracle_sweep(ModelParams(k=0.005, gamma=0.005), [0.0, 1.0], IntegratorConfig(fock_dim=8))\n"
        "print('scipy' in sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "False"]
