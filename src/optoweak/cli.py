"""Command-line front end: sweeps, figure presets, Wigner rendering and the
analytic-vs-oracle verification report.

Every option can also come from a JSON config file (``--config``): its
entries are parsed as flags placed before the command line's own, so they
get the same conversions, choices and error messages, and flags override
the file.  Invalid input ends in a one-line usage error with exit status 2.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from pathlib import Path

from . import fockspace, lindblad, model, sweeps


def _parse_range(text: str) -> tuple[float, float, int]:
    try:
        lo, hi, n = text.split(":")
        return float(lo), float(hi), int(n)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad range {text!r}; expected A:B:N") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="optoweak",
        description="Dark-port weak-measurement amplification in single-photon optomechanics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sweep", help="tabulate conditioned observables over a tau grid")
    sp.add_argument("--k", type=float, default=sweeps.FIG_COUPLING)
    sp.add_argument("--gamma", type=float, default=model.ModelParams.gamma)
    sp.add_argument("--theta", type=float, default=model.ModelParams.theta)
    sp.add_argument("--tau-start", type=float, default=sweeps.SweepConfig.tau_start)
    sp.add_argument("--tau-end", type=float, default=sweeps.SweepConfig.tau_end)
    sp.add_argument("--steps", type=int, default=sweeps.SweepConfig.steps)
    sp.add_argument("--observable", choices=sweeps.OBSERVABLES,
                    default=sweeps.SweepConfig.observable)
    sp.add_argument("--engine", choices=sweeps.ENGINES, default=sweeps.SweepConfig.engine)
    sp.add_argument("--out", default="sweep.csv", help="CSV output path")
    sp.add_argument("--plot", help="optional SVG output path")

    fp = sub.add_parser("figure", help="reproduce a reference figure as CSV + SVG")
    fp.add_argument("name", choices=sweeps.FIGURE_NAMES)
    fp.add_argument("--out-dir", default=".")

    wp = sub.add_parser("wigner", help="render a phase-space quasi-probability heatmap")
    wp.add_argument("--state", choices=fockspace.NAMED_STATES, default=sweeps.FIG3_STATE)
    wp.add_argument("--x-range", type=_parse_range, default=sweeps.FIG3_RANGE, help="A:B:N")
    wp.add_argument("--y-range", type=_parse_range, default=sweeps.FIG3_RANGE, help="A:B:N")
    wp.add_argument("--out", default="wigner.svg", help="SVG output path")

    vp = sub.add_parser("verify", help="compare closed forms against the Lindblad oracle")
    vp.add_argument("--tolerance", type=float, default=sweeps.VERIFY_TOLERANCE)
    vp.add_argument("--out", default="verify_report.json", help="JSON report path")

    for p in (sp, vp):  # the commands that run the oracle
        p.add_argument("--dt", type=float, default=lindblad.IntegratorConfig.dt,
                       help="validated to (0, 0.01] but has no effect: "
                            "the exact oracle takes no step")
        p.add_argument("--fock-dim", type=int, default=lindblad.IntegratorConfig.fock_dim)
    for p in (sp, fp, wp, vp):
        p.add_argument("--config", help="JSON file with option defaults")
    return parser


def _config_flags(args: argparse.Namespace) -> list[str]:
    """The entries of the ``--config`` file as ``--key=value`` flags; each
    key must name an option of the command, a null entry leaves its option
    at the default, and each other entry must be a JSON string or number."""
    try:
        entries = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read config {args.config}: {exc}") from exc
    if not isinstance(entries, dict):
        raise ValueError(f"config {args.config} must hold a JSON object")
    # command and figure's positional name are no options; config names this file
    unknown = set(entries) - (set(vars(args)) - {"command", "config", "name"})
    if unknown:
        raise ValueError(f"unknown config keys for {args.command}: {sorted(unknown)}")
    for key, value in entries.items():
        if isinstance(value, (bool, list, dict)):
            raise ValueError(f"config entry {key!r} must be a JSON string or number, "
                             f"not {json.dumps(value)}")
    return [f"--{key.replace('_', '-')}={value}" for key, value in entries.items()
            if value is not None]


def _claim(label: str, path, directory: bool = False) -> None:
    """Make sure, before anything is computed, that the command can write
    ``path``: a file is opened for appending (and removed again if that
    made it), a directory is made with its parents.  A directory where a
    file goes, a missing parent or an unwritable target raises OSError
    naming ``label``; nothing the command will write changes."""
    path = Path(path)
    try:
        if directory:
            path.mkdir(parents=True, exist_ok=True)
            if not os.access(path, os.W_OK | os.X_OK):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
        else:
            made = not os.path.lexists(path)
            with path.open("a", encoding="utf-8"):
                pass
            if made:
                path.unlink()
    except OSError as exc:
        raise OSError(f"cannot write {label} to {path}: {exc}") from exc


def _cmd_sweep(args: argparse.Namespace) -> int:
    params = model.ModelParams(k=args.k, gamma=args.gamma, theta=args.theta)
    config = sweeps.SweepConfig(params=params, tau_start=args.tau_start, tau_end=args.tau_end,
                                steps=args.steps, observable=args.observable, engine=args.engine)
    integrator = lindblad.IntegratorConfig(dt=args.dt, fock_dim=args.fock_dim)
    out = Path(args.out)
    _claim("sweep CSV", out)
    tables = [out]
    if config.engine == "both":  # the oracle's table beside --out
        tables.append(out.with_name(out.stem + ".oracle" + (out.suffix or ".csv")))
        _claim("sweep CSV", tables[1])
    if args.plot:
        _claim("sweep plot", args.plot)
    results = sweeps.run_sweep(config, integrator)
    # the plot first: one with nothing to draw fails before any table is written
    plot = [sweeps.emit_plot(results[0], args.plot)] if args.plot else []
    written = [sweeps.emit_csv(result, path) for result, path in zip(results, tables, strict=True)]
    for p in written + plot:
        print(f"wrote {p}")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    _claim("figure directory", args.out_dir, directory=True)
    for p in sweeps.figure(args.name, args.out_dir):
        print(f"wrote {p}")
    return 0


def _cmd_wigner(args: argparse.Namespace) -> int:
    _claim("Wigner SVG", args.out)
    state = fockspace.named_state(args.state, 2)  # wigner needs no Fock cutoff
    grid = fockspace.wigner(state, args.x_range, args.y_range)
    path = sweeps.svg_heatmap(grid, args.out, title=f"Wigner function, {args.state}")
    print(f"wrote {path}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    config = lindblad.IntegratorConfig(dt=args.dt, fock_dim=args.fock_dim)
    _claim("verify report", args.out)
    report = sweeps.verify(tolerance=args.tolerance, config=config, out=args.out)
    print(report.summary())
    print(f"wrote {args.out}")
    return 0 if report.passed else 1


_COMMANDS = {"sweep": _cmd_sweep, "figure": _cmd_figure, "wigner": _cmd_wigner,
             "verify": _cmd_verify}


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            # the top-level parser takes no option but --help, so argv[0] is the command
            args = parser.parse_args([argv[0], *_config_flags(args), *argv[1:]])
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:  # bad input or an unwritable output
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
