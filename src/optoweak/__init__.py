"""Post-selected weak measurement in single-photon Mach-Zehnder optomechanics.

Closed-form conditioned-mirror observables (:mod:`optoweak.model`),
truncated-Fock-space machinery and Wigner sampling (:mod:`optoweak.fockspace`),
an independent Lindblad RK4 oracle (:mod:`optoweak.lindblad`), and sweep /
figure / verification tooling (:mod:`optoweak.sweeps`, :mod:`optoweak.cli`).
"""

from .model import (
    ConditionedMirrorState,
    DegeneratePostselection,
    ModelParams,
    amplification_factor,
    approx_mean_q,
    approx_state_coeffs,
    coherent_amplitude,
    coherence_phase,
    conditioned_moments,
    conditioned_state,
    decoherence_factor,
    free_mirror_displacement,
    kerr_phase,
    mean_p,
    mean_q,
)
from .fockspace import TruncationInadequate, WignerGrid, wigner
from .lindblad import IntegratorConfig, StepUnstable, oracle_mean_p, oracle_mean_q
from .sweeps import SweepConfig, SweepResult, VerifyReport, figure, run_sweep, verify

__version__ = "0.1.0"

__all__ = [
    "ConditionedMirrorState",
    "DegeneratePostselection",
    "IntegratorConfig",
    "ModelParams",
    "StepUnstable",
    "SweepConfig",
    "SweepResult",
    "TruncationInadequate",
    "VerifyReport",
    "WignerGrid",
    "amplification_factor",
    "approx_mean_q",
    "approx_state_coeffs",
    "coherence_phase",
    "coherent_amplitude",
    "conditioned_moments",
    "conditioned_state",
    "decoherence_factor",
    "figure",
    "free_mirror_displacement",
    "kerr_phase",
    "mean_p",
    "mean_q",
    "oracle_mean_p",
    "oracle_mean_q",
    "run_sweep",
    "verify",
    "wigner",
]
