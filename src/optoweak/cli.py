"""Command-line front end: sweeps, figure presets, Wigner rendering and the
analytic-vs-oracle verification report.

Every option can also come from a JSON config file (``--config``); values
given as flags override the file.  Invalid input ends in a one-line usage
error with exit status 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import fockspace, lindblad, model, sweeps

_FIG3_RANGE = "{:g}:{:g}:{}".format(*sweeps.FIG3_RANGE)
_DEFAULTS = {
    "sweep": {
        "k": sweeps.FIG_COUPLING, "gamma": model.ModelParams.gamma,
        "theta": model.ModelParams.theta, "tau_start": sweeps.SweepConfig.tau_start,
        "tau_end": sweeps.SweepConfig.tau_end, "steps": sweeps.SweepConfig.steps,
        "observable": sweeps.SweepConfig.observable, "engine": sweeps.SweepConfig.engine,
        "dt": lindblad.IntegratorConfig.dt, "fock_dim": lindblad.IntegratorConfig.fock_dim,
        "out": "sweep.csv", "plot": None,
    },
    "figure": {"out_dir": "."},
    "wigner": {
        "state": sweeps.FIG3_STATE, "x_range": _FIG3_RANGE, "y_range": _FIG3_RANGE,
        "out": "wigner.svg", "fock_dim": sweeps.FIG3_FOCK_DIM,
    },
    "verify": {
        "tolerance": sweeps.VERIFY_TOLERANCE, "dt": lindblad.IntegratorConfig.dt,
        "fock_dim": lindblad.IntegratorConfig.fock_dim, "out": "verify_report.json",
    },
}


def _parse_range(text: str) -> tuple[float, float, int]:
    try:
        lo, hi, n = text.split(":")
        return float(lo), float(hi), int(n)
    except ValueError as exc:
        raise ValueError(f"bad range {text!r}; expected A:B:N") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="optoweak",
        description="Dark-port weak-measurement amplification in single-photon optomechanics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sweep", help="tabulate conditioned observables over a tau grid")
    sp.add_argument("--k", type=float)
    sp.add_argument("--gamma", type=float)
    sp.add_argument("--theta", type=float)
    sp.add_argument("--tau-start", dest="tau_start", type=float)
    sp.add_argument("--tau-end", dest="tau_end", type=float)
    sp.add_argument("--steps", type=int)
    sp.add_argument("--observable", choices=["q", "p", "both"])
    sp.add_argument("--engine", choices=["analytic", "oracle", "both"])
    sp.add_argument("--dt", type=float, help="oracle integrator step")
    sp.add_argument("--fock-dim", dest="fock_dim", type=int)
    sp.add_argument("--out", help="CSV output path")
    sp.add_argument("--plot", help="optional SVG output path")

    fp = sub.add_parser("figure", help="reproduce a reference figure as CSV + SVG")
    fp.add_argument("name", choices=list(sweeps.FIGURE_NAMES))
    fp.add_argument("--out-dir", dest="out_dir")

    wp = sub.add_parser("wigner", help="render a phase-space quasi-probability heatmap")
    wp.add_argument("--state", choices=list(fockspace.NAMED_STATES))
    wp.add_argument("--x-range", dest="x_range", help="A:B:N")
    wp.add_argument("--y-range", dest="y_range", help="A:B:N")
    wp.add_argument("--fock-dim", dest="fock_dim", type=int)
    wp.add_argument("--out", help="SVG output path")

    vp = sub.add_parser("verify", help="compare closed forms against the Lindblad oracle")
    vp.add_argument("--tolerance", type=float)
    vp.add_argument("--dt", type=float)
    vp.add_argument("--fock-dim", dest="fock_dim", type=int)
    vp.add_argument("--out", help="JSON report path")

    for p in (sp, fp, wp, vp):
        p.add_argument("--config", help="JSON file with option defaults")
    return parser


def _effective_options(args: argparse.Namespace) -> dict:
    options = dict(_DEFAULTS[args.command])
    if args.config:
        try:
            loaded = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ValueError(f"cannot read config {args.config}: {exc}") from exc
        unknown = set(loaded) - set(options)
        if unknown:
            raise ValueError(f"unknown config keys for {args.command}: {sorted(unknown)}")
        options.update(loaded)
    for key, value in vars(args).items():
        if key in ("command", "config") or value is None:
            continue
        options[key] = value
    return options


def _cmd_sweep(opts: dict) -> int:
    params = model.ModelParams(k=opts["k"], gamma=opts["gamma"], theta=opts["theta"])
    config = sweeps.SweepConfig(
        params=params,
        tau_start=opts["tau_start"],
        tau_end=opts["tau_end"],
        steps=opts["steps"],
        observable=opts["observable"],
        engine=opts["engine"],
    )
    integrator = lindblad.IntegratorConfig(dt=opts["dt"], fock_dim=opts["fock_dim"])
    result = sweeps.run_sweep(config, integrator)
    out = Path(opts["out"])
    sweeps.emit_csv(result, out)
    written = [out]
    if result.oracle_companion is not None:
        oracle_out = out.with_name(out.stem + ".oracle" + (out.suffix or ".csv"))
        sweeps.emit_csv(result.oracle_companion, oracle_out)
        written.append(oracle_out)
    if opts["plot"]:
        written.append(sweeps.emit_plot(result, opts["plot"]))
    for p in written:
        print(f"wrote {p}")
    return 0


def _cmd_figure(opts: dict, name: str) -> int:
    for p in sweeps.figure(name, opts["out_dir"]):
        print(f"wrote {p}")
    return 0


def _cmd_wigner(opts: dict) -> int:
    state = fockspace.named_state(opts["state"], opts["fock_dim"])
    grid = fockspace.wigner(state, _parse_range(opts["x_range"]), _parse_range(opts["y_range"]))
    path = sweeps.svg_heatmap(grid, opts["out"], title=f"Wigner function, {opts['state']}")
    print(f"wrote {path}")
    return 0


def _cmd_verify(opts: dict) -> int:
    config = lindblad.IntegratorConfig(dt=opts["dt"], fock_dim=opts["fock_dim"])
    report = sweeps.verify(tolerance=opts["tolerance"], config=config, out=opts["out"])
    verdict = "PASS" if report.passed else "FAIL"
    errors = sum(1 for point in report.points if "error" in point)
    print(
        f"{verdict}: max |analytic - oracle| = {report.max_abs_diff:.3e} "
        f"(tolerance {report.tolerance:g}) over {len(report.points) - errors} "
        f"compared points, {errors} error points"
    )
    print(f"wrote {opts['out']}")
    return 0 if report.passed else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        opts = _effective_options(args)
        if args.command == "sweep":
            return _cmd_sweep(opts)
        if args.command == "figure":
            return _cmd_figure(opts, args.name)
        if args.command == "wigner":
            return _cmd_wigner(opts)
        return _cmd_verify(opts)
    except ValueError as exc:  # every ValueError raised here reports bad input
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
