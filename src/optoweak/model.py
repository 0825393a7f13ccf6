"""Closed-form conditioned-mirror observables for a single-photon Mach-Zehnder
interferometer with an optomechanical cavity in arm A.

Everything is dimensionless: coupling k = g/omega_m, mechanical damping
gamma = gamma_m/omega_m, phase-shifter angle theta (positive for arm A),
time tau = omega_m * t.  Mirror position is reported in units of the
zero-point spread sigma, momentum in units of hbar/(2 sigma).

All functions are pure and accept scalar or ndarray ``tau`` (results
broadcast).  The conditional expectations refer to the mirror state after
post-selecting the photon at the dark port of the balanced interferometer.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

TRACE_FLOOR = 1e-300


class DegeneratePostselection(Exception):
    """Conditional expectation requested where the dark port cannot fire."""


@dataclass(frozen=True)
class ModelParams:
    """Dimensionless physical configuration of one experiment.

    k      -- optomechanical coupling g/omega_m, 0 < k <= 0.25
    gamma  -- mechanical damping gamma_m/omega_m, >= 0 with a finite square
    theta  -- phase-shifter angle in radians, in (-pi, pi]
    """

    k: float
    gamma: float = 0.0
    theta: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.k <= 0.25):
            raise ValueError(f"k={self.k} outside the weak-coupling range (0, 0.25]")
        # the square in Python floats: inf past the float range, not an overflow warning
        if not (0.0 <= self.gamma and float(self.gamma) * float(self.gamma) < np.inf):
            raise ValueError(f"gamma={self.gamma} must be finite and non-negative, with a finite square")
        if not (-np.pi < self.theta <= np.pi):
            raise ValueError(f"theta={self.theta} outside (-pi, pi]")


@dataclass
class ConditionedMirrorState:
    """Ingredients of the dark-port conditioned mirror density operator.

    varphi       -- coherent amplitude of the mirror branch kicked by the photon
    kerr_phase   -- phase of the displaced-vs-ground coherence factor; equals
                    the photon-number-squared (Kerr) phase k^2(tau - sin tau)
                    when gamma = 0
    total_phase  -- theta + kerr_phase
    decoherence  -- damping-induced suppression exponent of that coherence
    visibility   -- fringe visibility e^{-s}, s = |varphi|^2/2 + decoherence
    success_prob -- trace of the conditioned state = dark-port click probability,
                    (1/2) [1 - visibility cos(total_phase)]
    """

    varphi: complex
    kerr_phase: float
    total_phase: float
    decoherence: float
    visibility: float
    success_prob: float


def kerr_phase(params: ModelParams, tau) -> float:
    """Undamped Kerr phase k^2 (tau - sin tau); non-decreasing in tau."""
    return params.k**2 * (tau - np.sin(tau))


def conditioned_state(params: ModelParams, tau) -> ConditionedMirrorState:
    """Bundle of the conditioned-state ingredients at time tau, the one
    evaluation of the closed form.

    With mu = i + gamma/2 and em = 1 - e^{-mu tau}, the one decaying
    exponential, the photon in arm A kicks the mirror to the coherent
    amplitude

        varphi = ik/mu * em,   k (1 - e^{-i tau}) at gamma = 0.

    The dark-port observables need the off-diagonal factor f with
    rho_AB = (1/2) f |varphi><0|.  Its exact log for a linearly driven,
    damped oscillator started in vacuum is

        E = |varphi|^2 / 2 - (k^2/mu) tau + (k^2/mu^2) em,

    so the coherence phase is Im E (kerr_phase, k^2 (tau - sin tau), at
    gamma = 0) and the decoherence exponent is D = -Re E (exactly 0 at
    gamma = 0), evaluated term by term as

        D = k^2 gamma / (2 (1 + gamma^2/4)) * [ tau + (1 - e^{-gamma tau})/gamma
            + conj(t) + t ],   t = (e^{-mu tau} - 1)/mu,

    whose oscillatory terms are added as an exact conjugate pair, so the
    sum is real by construction.  Each term is halved before the sum and
    the product doubled after, scalings exact for normal floats that keep the
    bracket finite where gamma tau << 1 and tau nears the float maximum.
    At tau << 1 the bracket cancels to O(tau^3) and rounding can leave it
    near -1e-19; it is clamped at 0, so the success probability built from
    it stays non-negative.

    success_prob = (1/2) [1 - e^{-|varphi|^2/2 - D} cos(theta + phase)],
    evaluated in a cancellation-free arrangement.
    """
    tau = np.asarray(tau, dtype=float)
    k, gamma = params.k, params.gamma
    mu = 1j + gamma / 2
    with np.errstate(over="ignore"):  # -mu tau past the float range: -inf, and e^{-inf} = 0
        em = 1.0 - np.exp(-mu * tau)
    varphi = 1j * k / mu * em
    half_norm = np.abs(varphi) ** 2 / 2
    if gamma == 0.0:
        phase = kerr_phase(params, tau)
        dec = tau * 0.0
    else:
        k2 = k**2
        phase = np.imag(half_norm - (k2 / mu) * tau + (k2 / mu**2) * em)
        prefactor = k2 * gamma / (2 * (1 + gamma**2 / 4))
        with np.errstate(over="ignore"):  # gamma tau past the float range: e^{-inf} = 0
            t_relax = -np.expm1(-gamma * tau) / gamma
        t = -em / mu
        half = tau / 2 + t_relax / 2 + np.conj(t) / 2 + t / 2
        dec = np.maximum(2 * (prefactor * np.real(half)), 0.0)
    total = params.theta + phase
    s = half_norm + dec
    visibility = np.exp(-s)
    success = 0.5 * (-np.expm1(-s)) + visibility * np.sin(total / 2) ** 2
    return ConditionedMirrorState(
        varphi=varphi,
        kerr_phase=phase,
        total_phase=total,
        decoherence=dec,
        visibility=visibility,
        success_prob=success,
    )


def coherent_amplitude(params: ModelParams, tau) -> complex:
    """Coherent amplitude varphi of the mirror kicked by one photon in arm A
    (see :func:`conditioned_state`)."""
    return conditioned_state(params, tau).varphi


def coherence_phase(params: ModelParams, tau) -> float:
    """Phase Im E between the displaced and unkicked mirror branches; kerr_phase
    at gamma = 0 (see :func:`conditioned_state`)."""
    return conditioned_state(params, tau).kerr_phase


def decoherence_factor(params: ModelParams, tau) -> float:
    """Damping-induced decoherence exponent D(gamma, tau) >= 0; exactly 0 at
    gamma = 0 (see :func:`conditioned_state`)."""
    return conditioned_state(params, tau).decoherence


def conditioned_moments(params: ModelParams, tau):
    """Conditioned moments (<q>, <p>) and the dark-port probability, from one
    evaluation of the conditioned state.

    Ratio of Tr(rho_os (c + c^dag)) and Tr(rho_os (c - c^dag)/i) to
    Tr(rho_os), rearranged so the nearly-dark denominator is built from
    expm1/sin^2 without cancellation:

        <q> + i<p> = varphi [1 - i e^{-s} sin(phi_tot) / (2 p_success)],
        s = |varphi|^2 / 2 + D,

    with both parts evaluated as real expressions (the complex product
    rounds differently in the last digit).  Where p_success is below
    TRACE_FLOOR the moments are NaN, without a warning, as in the oracle's
    sweeps and where mean_q/mean_p raise; callers decide which larger
    probabilities still count as degenerate.  Returns (q, p, success_prob).
    """
    st = conditioned_state(params, tau)
    prob = st.success_prob
    kick = st.visibility * np.sin(st.total_phase)
    denom = np.where(prob >= TRACE_FLOOR, 2 * prob, np.nan)
    q = np.real(st.varphi) + kick * np.imag(st.varphi) / denom
    p = np.imag(st.varphi) - kick * np.real(st.varphi) / denom
    return q, p, prob


def _live_moment(params: ModelParams, tau, index: int):
    moments = conditioned_moments(params, tau)
    if np.min(moments[2]) < TRACE_FLOOR:
        raise DegeneratePostselection(
            "dark-port probability vanishes; conditional expectation undefined"
        )
    return moments[index]


def mean_q(params: ModelParams, tau) -> float:
    """Conditional mirror displacement <q>/sigma after a dark-port click:
    Re(varphi) + e^{-s} sin(phi_tot) Im(varphi) / (2 p_success)."""
    return _live_moment(params, tau, 0)


def mean_p(params: ModelParams, tau) -> float:
    """Conditional mirror momentum <p> * 2 sigma / hbar after a dark-port click:
    Im(varphi) - e^{-s} sin(phi_tot) Re(varphi) / (2 p_success), damped or not.

    Scale: away from tau = 2 n pi the Kerr phase is small against |varphi|
    and <p> ~ Im varphi - phi/k = k (2 sin tau - tau).  On [0, 4 pi] its
    magnitude peaks at tau = 11 pi / 3 with k (11 pi / 3 + sqrt 3) (the
    exact maximum is 0.34 % lower at k = 0.005).  At the displacement
    extrema tau = 2 pi (1 +- k) the momentum is suppressed to about -pi k.
    """
    return _live_moment(params, tau, 1)


def approx_state_coeffs(params: ModelParams, tau, n: int):
    """Small-time expansion of the conditioned state about T = 2 pi n.

    Returns the unnormalized amplitudes (c0, c1) on the mirror levels
    |0> and |1>:  c0 = i (theta + k^2 T),  c1 = i k (tau - T).
    Valid for |tau - T| << 1, k << 1, k^2 T << 1; computed unconditionally.
    """
    if not (isinstance(n, numbers.Integral) and n >= 0):
        raise ValueError("n must be a non-negative integer")
    T = 2 * np.pi * n
    c0 = 1j * (params.theta + params.k**2 * T)
    c1 = 1j * params.k * (np.asarray(tau, dtype=float) - T)
    return c0, c1


def approx_mean_q(params: ModelParams, tau, n: int) -> float:
    """Displacement of the two-level expansion: 2 Re(c0* c1) / (|c0|^2 + |c1|^2).

    Bounded in [-1, 1]; reaches +1 when k(tau - T) = theta + k^2 T and -1 at
    the sign-flipped condition.
    """
    c0, c1 = approx_state_coeffs(params, tau, n)
    norm2 = np.abs(c0) ** 2 + np.abs(c1) ** 2
    if np.min(norm2) == 0.0:
        raise ValueError("expansion coefficients vanish; displacement undefined")
    return 2 * np.real(np.conj(c0) * c1) / norm2


def free_mirror_displacement(params: ModelParams, tau) -> float:
    """Unconditioned displacement 2k(1 - cos tau) of the kicked mirror, in sigma.

    Maximum over tau is 4k, below the ground-state spread for weak coupling.
    """
    return 2 * params.k * (1 - np.cos(tau))


def amplification_factor(params: ModelParams) -> float:
    """Ratio of the conditioned displacement extreme (sigma) to the free maximum 4k sigma."""
    return 1.0 / (4.0 * params.k)
