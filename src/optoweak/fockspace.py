"""Truncated-Fock-space linear algebra for the interferometer's mirror mode.

States are plain complex ndarrays: a mirror ket is shape ``(N,)``, a mirror
density matrix ``(N, N)``, and a joint photon-path (x) mirror pure state
``(2, N)`` with row 0 the photon-in-arm-A component and row 1 the
photon-in-arm-B component.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .model import ModelParams, kerr_phase, coherent_amplitude

_TOP_LEVEL_POPULATION_LIMIT = 1e-12
_NORM_DRIFT_LIMIT = 1e-8

NAMED_STATES = ("vacuum", "one-phonon", "minus-superposition", "plus-superposition")


class TruncationInadequate(Exception):
    """The Fock cutoff is too small for the requested state or operation."""


def annihilation_matrix(dim: int) -> np.ndarray:
    """Mode operator c with sqrt(n) on the superdiagonal."""
    if dim < 2:
        raise ValueError("Fock dimension must be at least 2")
    c = np.zeros((dim, dim), dtype=complex)
    idx = np.arange(1, dim)
    c[idx - 1, idx] = np.sqrt(idx)
    return c


def position_quadrature(dim: int) -> np.ndarray:
    """q = c + c^dag in units of sigma."""
    c = annihilation_matrix(dim)
    return c + c.conj().T


def momentum_quadrature(dim: int) -> np.ndarray:
    """p = -i (c - c^dag) in units of hbar/(2 sigma)."""
    c = annihilation_matrix(dim)
    return -1j * (c - c.conj().T)


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


def named_state(name: str, dim: int) -> np.ndarray:
    """Mirror ket |0>, |1> or (|0> -+ |1>)/sqrt(2), by its name in NAMED_STATES."""
    if name not in NAMED_STATES:
        raise ValueError(f"unknown state {name!r}; choose from {NAMED_STATES}")
    state = np.zeros(dim, dtype=complex)
    if name == "vacuum":
        state[0] = 1.0
    elif name == "one-phonon":
        state[1] = 1.0
    else:
        sign = -1.0 if name == "minus-superposition" else 1.0
        state[0], state[1] = 1 / np.sqrt(2), sign / np.sqrt(2)
    return state


def displacement_matrix(alpha: complex, dim: int) -> np.ndarray:
    """exp(alpha c^dag - alpha* c), exact within the truncation."""
    c = annihilation_matrix(dim)
    return expm(alpha * c.conj().T - np.conj(alpha) * c)


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


def _normalization(state: np.ndarray) -> float:
    if state.ndim == 1:
        return np.vdot(state, state).real
    return np.trace(state).real


def _expectation(state: np.ndarray, observable: np.ndarray) -> float:
    state = np.asarray(state, dtype=complex)
    norm = _normalization(state)
    if norm <= 0.0:
        raise ValueError("expectation of a zero-norm state is undefined")
    if state.ndim == 1:
        return np.vdot(state, observable @ state).real / norm
    return np.trace(state @ observable).real / norm


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


@dataclass
class WignerGrid:
    """Phase-space samples W(x, y) with x = 2 Re(alpha), y = 2 Im(alpha).

    ``values[iy, ix]`` holds W at (xs[ix], ys[iy]); the Riemann sum
    values * dx * dy / 4 approximates the state's trace.
    """

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    nx: int
    ny: int
    values: np.ndarray

    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    def ys(self) -> np.ndarray:
        return np.linspace(self.y_min, self.y_max, self.ny)

    def integral(self) -> float:
        dx = (self.x_max - self.x_min) / (self.nx - 1)
        dy = (self.y_max - self.y_min) / (self.ny - 1)
        return float(np.sum(self.values) * dx * dy / 4)


def _support_dim(rho: np.ndarray) -> int:
    row_mass = np.sqrt(np.sum(np.abs(rho) ** 2, axis=1))
    occupied = np.nonzero(row_mass > 1e-14 * max(row_mass.max(), 1e-300))[0]
    return int(occupied[-1]) + 1 if occupied.size else 1

def wigner(
    state: np.ndarray,
    x_range: tuple[float, float, int] = (-4.0, 4.0, 201),
    y_range: tuple[float, float, int] = (-4.0, 4.0, 201),
    internal_dim: int | None = None,
) -> WignerGrid:
    """Sample W(x, y) = (2/pi) Tr[rho D(alpha) Pi D^dag(alpha)], alpha = (x+iy)/2.

    D is the displacement operator and Pi the photon-number parity; with this
    convention the vacuum gives 2/pi at the origin and the grid integral
    (dx dy / 4) recovers the trace.  Since Pi D^dag(alpha) = D(alpha) Pi, the
    sampled value is (2/pi) Tr[rho D(2 alpha) Pi].

    The displacement is evaluated exactly (eigenbasis of the anti-Hermitian
    generator, equal to its matrix exponential) inside an enlarged Fock space
    sized for the grid corners; raises TruncationInadequate when the displaced
    support is not contained even there.
    """
    state = np.asarray(state, dtype=complex)
    rho = np.outer(state, state.conj()) if state.ndim == 1 else state
    x_min, x_max, nx = x_range
    y_min, y_max, ny = y_range
    if not (x_min < x_max and y_min < y_max and nx >= 2 and ny >= 2):
        raise ValueError("grid ranges must be increasing with at least 2 points")

    support = _support_dim(rho)
    r_corner = max(
        abs(complex(x, y)) for x in (x_min, x_max) for y in (y_min, y_max)
    )
    if internal_dim is None:
        reach = r_corner + np.sqrt(support)
        internal_dim = max(rho.shape[0], int(np.ceil(reach**2 + 10 * reach + 10)))
    big = int(internal_dim)
    if big < rho.shape[0]:
        raise ValueError("internal_dim cannot be below the state dimension")

    # exp(r (c^dag - c)) = V e^{-i r w} V^dag with (w, V) the eigensystem of
    # i(c^dag - c); only the support x support block is ever needed.
    c = annihilation_matrix(big)
    w, V = np.linalg.eigh(1j * (c.conj().T - c))

    # adequacy at the worst grid corner: displaced support columns must not
    # reach the top two levels of the enlarged space
    corner_cols = V @ (np.exp(-1j * r_corner * w)[:, None] * V.conj().T[:, :support])
    leak = np.max(np.sum(np.abs(corner_cols[-2:, :]) ** 2, axis=0))
    if leak > 1e-6:
        raise TruncationInadequate(
            f"displaced support reaches the cutoff (top-level population {leak:.2e}); "
            "increase internal_dim"
        )

    xs = np.linspace(x_min, x_max, nx)
    ys = np.linspace(y_min, y_max, ny)
    beta = xs[None, :] + 1j * ys[:, None]          # 2 alpha
    r = np.abs(beta).ravel()
    ang = np.angle(beta).ravel()

    Vs = V[:support, :]
    phases = np.exp(-1j * np.outer(r, w))          # (points, big)
    # E[t, j, l] = sum_s V[j,s] e^{-i r_t w_s} V*[l,s]
    E = np.einsum("js,ts,ls->tjl", Vs, phases, Vs.conj(), optimize=True)
    j = np.arange(support)
    rot = np.exp(1j * np.outer(ang, j))            # e^{i theta j}
    parity = (-1.0) ** j
    # W_t = (2/pi) sum_{l,j} rho[l,j] e^{i ang (j-l)} E[t,j,l] (-1)^l
    values = np.einsum(
        "lj,tj,tjl,tl,l->t", rho[:support, :support], rot, E, rot.conj(), parity,
        optimize=True,
    )
    values = (2 / np.pi) * values.real
    return WignerGrid(x_min, x_max, y_min, y_max, nx, ny, values.reshape(ny, nx))
