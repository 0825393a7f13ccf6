"""Pure-state reference route for the undamped interferometer: coherent
and displaced mirror kets, the exact factored propagator at gamma = 0,
port projection, quadrature expectations and fidelity.

A joint photon-path (x) mirror pure state is a ``(2, N)`` complex array,
row 0 the photon-in-arm-A component and row 1 the photon-in-arm-B
component; a mirror ket is ``(N,)`` and a mirror density matrix ``(N, N)``.

Unlike ``dense_reference`` and ``literal_forms`` this module imports the
package: :func:`evolve_pure` takes its displacement and phase from
``model.coherent_amplitude`` and ``model.kerr_phase`` by design, as the
factored propagator is written in them, and the mode operators come from
``optoweak.fockspace``.  The Lindblad oracle shares none of this code.
"""

import numpy as np

from optoweak.fockspace import annihilation_matrix, momentum_quadrature, position_quadrature
from optoweak.model import ModelParams, coherent_amplitude, kerr_phase

_TOP_LEVEL_POPULATION_LIMIT = 1e-12
_NORM_DRIFT_LIMIT = 1e-8


class TruncationInadequate(Exception):
    """The Fock cutoff is too small for the requested state or operation."""


def parity_matrix(dim: int) -> np.ndarray:
    """Photon-number parity, diagonal (-1)^n."""
    return np.diag((-1.0 + 0j) ** np.arange(dim))


def coherent_vector(alpha: complex, dim: int) -> np.ndarray:
    """Amplitudes e^{-|alpha|^2/2} alpha^n / sqrt(n!) of a coherent state."""
    amps = np.empty(dim, dtype=complex)
    amps[0] = 1.0
    for n in range(1, dim):
        amps[n] = amps[n - 1] * alpha / np.sqrt(n)
    amps *= np.exp(-abs(alpha) ** 2 / 2)
    deficit = 1.0 - np.vdot(amps, amps).real
    if deficit > 1e-8:
        raise TruncationInadequate(
            f"coherent state |alpha|={abs(alpha):.3g} loses {deficit:.2e} of its norm at dim={dim}"
        )
    return amps


def displacement_matrix(alpha: complex, dim: int) -> np.ndarray:
    """exp(alpha c^dag - alpha* c), exact within the truncation: R V e^{-i|alpha| w}
    V^dag R^dag with i(c^dag - c) = V diag(w) V^dag and R = e^{i arg(alpha) c^dag c}
    rotating the real-amplitude form."""
    c = annihilation_matrix(dim)
    w, V = np.linalg.eigh(1j * (c.conj().T - c))
    rotated = np.exp(1j * np.angle(alpha) * np.arange(dim))[:, None] * V
    return (rotated * np.exp(-1j * abs(alpha) * w)) @ rotated.conj().T


def initial_joint_state(dim: int, theta: float = 0.0) -> np.ndarray:
    """Photon split equally over both arms (arm A phase e^{i theta}), mirror in vacuum."""
    joint = np.zeros((2, dim), dtype=complex)
    joint[0, 0] = np.exp(1j * theta) / np.sqrt(2)
    joint[1, 0] = 1 / np.sqrt(2)
    return joint


def evolve_pure(params: ModelParams, tau: float, joint: np.ndarray) -> np.ndarray:
    """Evolve a joint pure state by the exact factored undamped propagator.

    Per photon-path branch with arm-A photon number n_A in {0, 1}: free
    mirror rotation e^{-i c^dag c tau}, then the displacement
    exp[n_A (varphi c^dag - varphi* c)], then the phase e^{i n_A^2 phi(tau)}.
    The global optical phase is dropped.
    """
    if params.gamma != 0.0:
        raise ValueError("evolve_pure handles the undamped propagator only")
    joint = np.asarray(joint, dtype=complex)
    if joint.ndim != 2 or joint.shape[0] != 2:
        raise ValueError("joint state must have shape (2, N)")
    dim = joint.shape[1]
    rotation = np.exp(-1j * np.arange(dim) * tau)
    out = np.empty_like(joint)
    out[1] = rotation * joint[1]
    varphi = complex(coherent_amplitude(params, tau))
    disp = displacement_matrix(varphi, dim)
    out[0] = np.exp(1j * kerr_phase(params, tau)) * (disp @ (rotation * joint[0]))
    drift = abs(np.vdot(out, out).real - np.vdot(joint, joint).real)
    top_population = np.sum(np.abs(out[:, -2:]) ** 2)
    if drift > _NORM_DRIFT_LIMIT or top_population > _TOP_LEVEL_POPULATION_LIMIT:
        raise TruncationInadequate(
            f"evolution leaks into the cutoff: norm drift {drift:.2e}, "
            f"top-two-level population {top_population:.2e}"
        )
    return out


def postselect_pure(joint: np.ndarray, dark_port: bool = True, theta: float = 0.0):
    """Project the photon onto an interferometer output port.

    The phase-shifter angle theta multiplies the arm-A amplitude before the
    projection onto (|A> -+ |B>)/sqrt(2) (minus sign: dark port).  Returns the
    unnormalized mirror ket and its squared norm (the port probability).
    """
    joint = np.asarray(joint, dtype=complex)
    sign = -1.0 if dark_port else 1.0
    mirror = (np.exp(1j * theta) * joint[0] + sign * joint[1]) / np.sqrt(2)
    prob = np.vdot(mirror, mirror).real
    return mirror, prob


def _expectation(state: np.ndarray, observable: np.ndarray) -> float:
    state = np.asarray(state, dtype=complex)
    rho = np.outer(state, state.conj()) if state.ndim == 1 else state
    norm = np.trace(rho).real
    if norm <= 0.0:
        raise ValueError("expectation of a zero-norm state is undefined")
    return np.trace(rho @ observable).real / norm


def expectation_q(state: np.ndarray) -> float:
    """<c + c^dag> of a normalized ket or density matrix, in units of sigma."""
    return _expectation(state, position_quadrature(np.asarray(state).shape[-1]))


def expectation_p(state: np.ndarray) -> float:
    """<-i(c - c^dag)> of a normalized ket or density matrix, in units of hbar/(2 sigma)."""
    return _expectation(state, momentum_quadrature(np.asarray(state).shape[-1]))


def fidelity(pure: np.ndarray, other: np.ndarray) -> float:
    """Fidelity of a pure reference state with a ket or a density matrix."""
    pure = np.asarray(pure, dtype=complex).ravel()
    pure = pure / np.sqrt(np.vdot(pure, pure).real)
    other = np.asarray(other, dtype=complex)
    if other.ndim == 1 or other.shape[0] != other.shape[-1]:
        flat = other.ravel()
        return abs(np.vdot(pure, flat)) ** 2 / np.vdot(flat, flat).real
    return np.vdot(pure, other @ pure).real / np.trace(other).real
