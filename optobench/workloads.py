"""Benchmark workloads: seeded inputs, and the calls one repetition makes.

Seed 0 reproduces the paper's pinned values (k = 0.005, |theta| = 0.001).
Any other seed draws k in [0.004, 0.006] and a nonzero |theta| in
[0.0005, 0.0015], keeping each workload's shape: the number of (k, gamma)
groups, the theta values per group, the tau points and the Fock cutoff.
The figure presets are pinned and ignore the seed.
"""

from __future__ import annotations

import math
import random
import time
from pathlib import Path

NAMES = ("verify-default", "oracle-fock32", "figures")
FIGURES = ("fig2", "fig3", "fig4", "fig5a", "fig5b")

PINNED_K = 0.005
PINNED_THETA = 0.001
DAMPING = 0.005
TAU_END = 4 * math.pi
TOLERANCE = 1e-5


def make_inputs(name: str, seed: int) -> dict:
    """The generated inputs of one workload; equal seeds give equal inputs."""
    if name == "figures":
        return {"figures": list(FIGURES)}
    rng = random.Random(seed)
    if seed == 0:
        k, theta = PINNED_K, PINNED_THETA
    else:
        k, theta = rng.uniform(0.004, 0.006), rng.uniform(0.0005, 0.0015)
    if name == "verify-default":
        return {"k": k, "theta": theta, "dt": 1e-3, "fock_dim": 16, "tolerance": TOLERANCE}
    if name == "oracle-fock32":
        if seed != 0 and rng.random() < 0.5:
            theta = -theta
        return {"k": k, "gamma": DAMPING, "theta": theta, "tau_end": TAU_END,
                "steps": 200, "dt": 1e-3, "fock_dim": 32}
    raise ValueError(f"unknown workload {name!r}")


def _verify_grid(inputs: dict):
    """The ``optoweak verify`` grid with the seeded k and |theta|."""
    from dataclasses import replace

    from optoweak import sweeps

    scale = inputs["theta"] / sweeps.FIG_SHIFTER
    return [
        (replace(params, k=inputs["k"], theta=params.theta * scale), observable)
        for params, observable in sweeps.default_verify_grid()
    ]


def run(name: str, inputs: dict, out: Path) -> float:
    """Run one repetition into ``out``; return its wall time in seconds.

    The clock starts at the first call into optoweak after the inputs are
    built and stops when the last output file has been written.
    """
    from optoweak import cli, lindblad, sweeps

    if name == "verify-default":
        grid = _verify_grid(inputs)
        config = lindblad.IntegratorConfig(dt=inputs["dt"], fock_dim=inputs["fock_dim"])
        start = time.perf_counter()
        sweeps.verify(grid=grid, tolerance=inputs["tolerance"], config=config,
                      out=out / "verify_report.json")
        return time.perf_counter() - start
    if name == "oracle-fock32":
        argv = [
            "sweep", f"--k={inputs['k']!r}", f"--gamma={inputs['gamma']!r}",
            f"--theta={inputs['theta']!r}", "--tau-start=0", f"--tau-end={inputs['tau_end']!r}",
            f"--steps={inputs['steps']}", "--engine=both", "--observable=q",
            f"--dt={inputs['dt']!r}", f"--fock-dim={inputs['fock_dim']}",
            f"--out={out / 'sweep.csv'}", f"--plot={out / 'sweep.svg'}",
        ]
        start = time.perf_counter()
        status = cli.main(argv)
        took = time.perf_counter() - start
        if status != 0:
            raise RuntimeError(f"optoweak sweep exited with {status}")
        return took
    if name == "figures":
        start = time.perf_counter()
        for figure in inputs["figures"]:
            status = cli.main(["figure", figure, f"--out-dir={out}"])
            if status != 0:
                raise RuntimeError(f"optoweak figure {figure} exited with {status}")
        return time.perf_counter() - start
    raise ValueError(f"unknown workload {name!r}")
