#!/usr/bin/env python3
"""Print the sha256 digest of every file a fixed set of CLI calls writes.

Runs each command of ``COMMANDS`` through ``optoweak.cli.main`` in its own
subdirectory of OUT_DIR (the working directory, so relative default output
names land there), keeps the printed lines and exit status as
``stdout.txt`` beside its outputs, then prints one ``# ...`` line naming
the environment and one ``sha256  path`` line per file, sorted by path,
paths relative to OUT_DIR (best a fresh directory: every file under it is
listed).

Two checkouts write the same bytes when this prints the same lines with
``PYTHONPATH`` pointing at each one's ``src``:

    PYTHONPATH=src python scripts/output_digests.py OUT_DIR

``tests/output_digests.txt`` is this output as recorded; the tests compare
against it in the environment its first line names.  A change that moves
bytes rewrites it:

    PYTHONPATH=src python scripts/output_digests.py "$(mktemp -d)" > tests/output_digests.txt
"""

import contextlib
import hashlib
import io
import os
import platform
import sys
from pathlib import Path

import numpy as np
from optoweak import cli
from optoweak.fockspace import NAMED_STATES
from optoweak.sweeps import FIGURE_NAMES

SWEEP_BOTH = ["sweep", "--engine", "both", "--observable", "both", "--gamma", "0.005",
              "--theta", "0.001", "--plot", "sweep.svg"]

COMMANDS = {
    **{f"figure-{name}": ["figure", name] for name in FIGURE_NAMES},
    "verify": ["verify"],
    "verify-fock32": ["verify", "--fock-dim", "32"],
    # the benchmark's oracle-fock32 command line at seed 0
    "oracle-fock32": ["sweep", "--k=0.005", "--gamma=0.005", "--theta=0.001", "--tau-start=0",
                      "--tau-end=12.566370614359172", "--steps=200", "--engine=both",
                      "--observable=q", "--dt=0.001", "--fock-dim=32", "--out=sweep.csv",
                      "--plot=sweep.svg"],
    "sweep-both": [*SWEEP_BOTH, "--tau-end", "12.566", "--steps", "60"],
    "sweep-both-short": [*SWEEP_BOTH, "--tau-end", "1e-4", "--steps", "30"],
    # the oracle alone: its table at --out, nothing beside it
    "sweep-oracle": ["sweep", "--engine", "oracle", "--observable", "both", "--gamma", "0.005",
                     "--theta", "0.001", "--tau-end", "12.566", "--steps", "60"],
    # about 21 snapshots to one Taylor substep of the oracle
    "sweep-dense-oracle": ["sweep", "--engine", "both", "--observable", "both", "--gamma", "0.05",
                           "--theta", "0.001", "--tau-end", "12.566", "--steps", "400"],
    **{f"wigner-{state}": ["wigner", "--state", state] for state in NAMED_STATES},
    # windows reaching past the fig3 corner, where the displaced states' tails lie
    **{f"wigner-wide-{state}": ["wigner", "--state", state, "--x-range=-12:12:49",
                                "--y-range=-12:12:49"]
       for state in ("one-phonon", "minus-superposition")},
    # gamma tau past the float range, where the decaying exponential reads 0
    "sweep-decayed": ["sweep", "--gamma", "10", "--tau-end", "1e308", "--steps", "3"],
    # a large Kerr phase, |phi| up to 0.5
    "sweep-kerr": ["sweep", "--k", "0.25", "--gamma", "0.05", "--theta", "0.3", "--tau-end", "40",
                   "--steps", "400", "--observable", "both"],
    # two gaps past one Taylor substep's reach, each of several substeps
    "sweep-long-gap": ["sweep", "--engine", "both", "--observable", "both", "--k", "0.01",
                       "--gamma", "0.01", "--theta", "0.001", "--tau-start", "6.2", "--tau-end", "19",
                       "--steps", "2"],
    # a table of several CSV write blocks, with empty q and p fields where P = 0 at tau = 0
    "sweep-long": ["sweep", "--observable", "both", "--steps", "9000"],
    "sweep-defaults": ["sweep"],
    "wigner-defaults": ["wigner"],
}


def run(out_dir: Path) -> None:
    home = Path.cwd()
    for label, argv in COMMANDS.items():
        where = out_dir / label
        where.mkdir(parents=True, exist_ok=True)
        printed = io.StringIO()
        os.chdir(where)
        try:
            with contextlib.redirect_stdout(printed):
                status = cli.main(argv)
        finally:
            os.chdir(home)
        (where / "stdout.txt").write_text(f"{printed.getvalue()}exit {status}\n", encoding="utf-8")


def environment() -> str:
    """Python, numpy with the SIMD extensions it found, and the BLAS numpy
    names: the oracle's rows are BLAS products and its exponentials numpy's."""
    versions = f"# Python {platform.python_version()}, numpy {np.__version__}"
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 prints its configuration only
        return f"{versions}, BLAS unknown"
    blas = config["Build Dependencies"]["blas"]
    simd = " ".join(config["SIMD Extensions"]["found"])
    return f"{versions} ({simd}), BLAS {blas['name']} {blas['version']}"


def digests(out_dir: Path) -> list[str]:
    files = sorted(path for path in out_dir.rglob("*") if path.is_file())
    return [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out_dir)}"
            for path in files]


def main() -> None:
    if len(sys.argv) != 2:
        sys.exit("usage: output_digests.py OUT_DIR")
    out_dir = Path(sys.argv[1]).resolve()
    run(out_dir)
    print("\n".join([environment(), *digests(out_dir)]))


if __name__ == "__main__":
    main()
