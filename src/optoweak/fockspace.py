"""Truncated-Fock-space operators and Wigner sampling for the
interferometer's mirror mode.

States are plain complex ndarrays: a mirror ket is shape ``(N,)`` and a
mirror density matrix ``(N, N)``.  This module imports nothing from
:mod:`optoweak.model`, so the oracle reaches no closed form through it.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

NAMED_STATES = ("vacuum", "one-phonon", "minus-superposition", "plus-superposition")


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


def named_state(name: str, dim: int) -> np.ndarray:
    """Mirror ket |0>, |1> or (|0> -+ |1>)/sqrt(2), by its name in NAMED_STATES."""
    if name not in NAMED_STATES:
        raise ValueError(f"unknown state {name!r}; choose from {NAMED_STATES}")
    if dim < 2:
        raise ValueError("Fock dimension must be at least 2")
    state = np.zeros(dim, dtype=complex)
    if name == "vacuum":
        state[0] = 1.0
    elif name == "one-phonon":
        state[1] = 1.0
    else:
        sign = -1.0 if name == "minus-superposition" else 1.0
        state[0], state[1] = 1 / np.sqrt(2), sign / np.sqrt(2)
    return state


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
    x_range: tuple[float, float, int],
    y_range: tuple[float, float, int],
) -> WignerGrid:
    """Sample W(x, y) = (2/pi) Tr[rho D(alpha) Pi D^dag(alpha)], alpha = (x+iy)/2.

    D is the displacement operator and Pi the photon-number parity; with this
    convention the vacuum gives 2/pi at the origin and the grid integral
    (dx dy / 4) recovers the trace.  Since Pi D^dag(alpha) = D(alpha) Pi, the
    sampled value is (2/pi) Re sum_{l,j} rho[l,j] (-1)^l <j|D(beta)|l>, beta = 2 alpha.

    The untruncated elements are closed forms (Cahill & Glauber 1969): with
    r = |beta|^2, <n+d|D(beta)|n> = sqrt(n!/(n+d)!) beta^d e^{-r/2} L_n^(d)(r)
    and <n|D(beta)|n+d> = (-1)^d conj(<n+d|D(beta)|n>).  Each off-diagonal d
    runs the Laguerre three-term recurrence in n on the elements themselves,
    starting from the coherent amplitude e^{-r/2} beta^d / sqrt(d!), so every
    intermediate stays within [-1, 1] and no Fock cutoff enters.
    """
    state = np.asarray(state, dtype=complex)
    rho = np.outer(state, state.conj()) if state.ndim == 1 else state
    x_min, x_max, nx = x_range
    y_min, y_max, ny = y_range
    if not (-np.inf < x_min < x_max < np.inf and -np.inf < y_min < y_max < np.inf
            and isinstance(nx, numbers.Integral) and isinstance(ny, numbers.Integral)
            and nx >= 2 and ny >= 2):
        raise ValueError("grid ranges must be finite and increasing with an integral count "
                         "of at least 2 points")
    x_far, y_far = float(max(-x_min, x_max)), float(max(-y_min, y_max))
    if x_far * x_far + y_far * y_far == np.inf:  # Python floats: no overflow warning
        raise ValueError("the grid's outermost |x + iy|^2 overflows a float")

    xs = np.linspace(x_min, x_max, nx)
    ys = np.linspace(y_min, y_max, ny)
    beta = xs[None, :] + 1j * ys[:, None]          # 2 alpha
    r = xs[None, :] ** 2 + ys[:, None] ** 2
    support = _support_dim(rho)
    # the real parts of the (l, j) and (j, l) terms, both as multiples of <j|D|l>, j >= l
    coeffs = np.triu(rho) + np.triu(rho.conj().T, 1)
    head, total = np.exp(-r / 2) + 0j, 0j          # head: <d|D(beta)|0>, here d = 0
    for d in range(support):
        below, element = 0.0, head                 # <n+d|D(beta)|n> at n - 1 and n
        for n in range(support - d):
            total = total + (-1) ** n * coeffs[n, n + d] * element
            below, element = element, (
                ((2 * n + 1 + d - r) * element - np.sqrt(n * (n + d)) * below)
                / np.sqrt((n + 1) * (n + d + 1))
            )
        head = head * beta / np.sqrt(d + 1)
    return WignerGrid(x_min, x_max, y_min, y_max, nx, ny, (2 / np.pi) * total.real)
