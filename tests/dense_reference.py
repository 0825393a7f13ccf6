"""Brute-force reference for the Lindblad oracle: the dense joint
Hamiltonian and collapse operator, the full (2N)^2 x (2N)^2 Liouvillian,
and its exponential by scipy.linalg.expm.

This is deliberately independent of the package (no optoweak import): the
operators are built from their definitions, the whole 2N x 2N joint
density matrix is vectorised rather than its path blocks, the phase
shifter sits at the source, and the dark port is projected with its own
bra.  One exponential at Fock 16 (a 1024 x 1024 matrix) takes about 2 s
on one BLAS thread, so it is taken once per time step and applied
repeatedly.
"""

import numpy as np
from scipy.linalg import expm


def annihilation(dim):
    """Mode operator c: sqrt(n) on the superdiagonal."""
    return np.diag(np.sqrt(np.arange(1, dim)), 1).astype(complex)


def hamiltonian(k, dim):
    """H = I_path (x) c^dag c - k |A><A| (x) (c + c^dag) on span{|A>, |B>} (x) Fock(dim)."""
    c = annihilation(dim)
    arm_a = np.diag([1.0, 0.0])
    return np.kron(np.eye(2), c.conj().T @ c) - k * np.kron(arm_a, c + c.conj().T)


def collapse(dim):
    """C = I_path (x) c: damping acts on the mirror only."""
    return np.kron(np.eye(2), annihilation(dim))


def rhs(k, gamma, rho):
    """d rho / d tau = -i [H, rho] + gamma (C rho C^dag - {C^dag C, rho} / 2), as printed."""
    dim = rho.shape[0] // 2
    h, c = hamiltonian(k, dim), collapse(dim)
    cdc = c.conj().T @ c
    return (-1j * (h @ rho - rho @ h)
            + gamma * (c @ rho @ c.conj().T - 0.5 * (cdc @ rho + rho @ cdc)))


def liouvillian(k, gamma, dim):
    """The matrix of :func:`rhs` on row-major vec(rho), using
    vec(X rho Y) = (X (x) Y^T) vec(rho)."""
    h, c = hamiltonian(k, dim), collapse(dim)
    cdc = c.conj().T @ c
    eye = np.eye(2 * dim)
    return (-1j * (np.kron(h, eye) - np.kron(eye, h.T))
            + gamma * (np.kron(c, c.conj()) - 0.5 * (np.kron(cdc, eye) + np.kron(eye, cdc.T))))


def propagator(k, gamma, dim, step):
    """exp(step L), carrying vec(rho) forward by ``step``."""
    return expm(step * liouvillian(k, gamma, dim))


def initial_density(dim, theta):
    """Photon split over both arms, the arm-A amplitude shifted by e^{i theta};
    mirror in vacuum."""
    psi = np.zeros(2 * dim, dtype=complex)
    psi[0] = np.exp(1j * theta) / np.sqrt(2)
    psi[dim] = 1 / np.sqrt(2)
    return np.outer(psi, psi.conj())


def evolve(step_propagator, rho, count):
    """rho at times 0, step, ..., (count - 1) step."""
    v = rho.ravel()
    states = []
    for _ in range(count):
        states.append(v.reshape(rho.shape))
        v = step_propagator @ v
    return states


def dark_port_moments(states):
    """Conditioned q, p and probability of the dark port (|A> - |B>)/sqrt(2)
    for each joint state; NaN moments where the probability is at most 1e-12."""
    dim = states[0].shape[0] // 2
    bra = np.kron(np.array([[1.0, -1.0]]) / np.sqrt(2), np.eye(dim))
    c = annihilation(dim)
    q_op, p_op = c + c.conj().T, -1j * (c - c.conj().T)
    q, p, prob = (np.full(len(states), np.nan) for _ in range(3))
    for i, rho in enumerate(states):
        mirror = bra @ rho @ bra.conj().T
        prob[i] = np.trace(mirror).real
        if prob[i] > 1e-12:
            q[i] = np.trace(mirror @ q_op).real / prob[i]
            p[i] = np.trace(mirror @ p_op).real / prob[i]
    return q, p, prob
