"""High-precision reference evaluations of the closed-form conditioned
observables, transcribed term by term with mpmath.

These are deliberately independent of the package implementation (no shared
code, no cancellation-free rearrangements) and serve as test oracles at
40-digit working precision.
"""

import mpmath as mp

mp.mp.dps = 40


def _phi_undamped(k, tau):
    return k * (1 - mp.exp(-1j * tau))


def _kerr(k, tau):
    return k**2 * (tau - mp.sin(tau))


def literal_mean_q(k, theta, tau) -> float:
    """Undamped conditioned displacement, evaluated as the printed ratio."""
    k, theta, tau = mp.mpf(k), mp.mpf(theta), mp.mpf(tau)
    phi = _phi_undamped(k, tau)
    tot = theta + _kerr(k, tau)
    damp = mp.exp(-abs(phi) ** 2 / 2)
    num = phi + mp.conj(phi) - damp * (
        mp.exp(1j * tot) * phi + mp.exp(-1j * tot) * mp.conj(phi)
    )
    den = 2 - damp * (mp.exp(1j * tot) + mp.exp(-1j * tot))
    return float(mp.re(num / den))


def literal_mean_p(k, theta, tau) -> float:
    """Undamped conditioned momentum, evaluated as the printed ratio."""
    k, theta, tau = mp.mpf(k), mp.mpf(theta), mp.mpf(tau)
    phi = _phi_undamped(k, tau)
    tot = theta + _kerr(k, tau)
    damp = mp.exp(-abs(phi) ** 2 / 2)
    num = -1j * (
        phi - mp.conj(phi)
        - damp * (mp.exp(1j * tot) * phi - mp.exp(-1j * tot) * mp.conj(phi))
    )
    den = 2 - damp * (mp.exp(1j * tot) + mp.exp(-1j * tot))
    return float(mp.re(num / den))


def literal_success(k, theta, tau) -> float:
    """Undamped dark-port probability (1/2)(1 - e^{-|phi|^2/2} cos(theta + kerr))."""
    k, theta, tau = mp.mpf(k), mp.mpf(theta), mp.mpf(tau)
    phi = _phi_undamped(k, tau)
    tot = theta + _kerr(k, tau)
    return float((1 - mp.exp(-abs(phi) ** 2 / 2) * mp.cos(tot)) / 2)


def literal_decoherence(k, gamma, tau) -> float:
    """Damping exponent: prefactor times the four bracket terms, one by one."""
    k, gamma, tau = mp.mpf(k), mp.mpf(gamma), mp.mpf(tau)
    prefactor = k**2 * gamma / (2 * (1 + gamma**2 / 4))
    term_linear = tau
    term_relax = (1 - mp.exp(-gamma * tau)) / gamma
    term_osc = -(mp.exp((1j - gamma / 2) * tau) - 1) / (1j - gamma / 2)
    term_conj = (mp.exp(-(1j + gamma / 2) * tau) - 1) / (1j + gamma / 2)
    total = prefactor * (term_linear + term_relax + term_osc + term_conj)
    assert abs(mp.im(total)) < mp.mpf("1e-30")
    return float(mp.re(total))


def literal_coherence_exponent(k, gamma, tau) -> complex:
    """Exact log of the ground-vs-displaced coherence factor of the damped state."""
    k, gamma, tau = mp.mpf(k), mp.mpf(gamma), mp.mpf(tau)
    mu = 1j + gamma / 2
    em = 1 - mp.exp(-mu * tau)
    alpha = 1j * k / mu * em
    value = abs(alpha) ** 2 / 2 - (k**2 / mu) * tau + (k**2 / mu**2) * em
    return complex(value)


def _laguerre(n, a, r):
    """L_n^(a)(r) as its finite sum sum_k (-1)^k C(n+a, n-k) r^k / k!."""
    return mp.fsum((-1) ** k * mp.binomial(n + a, n - k) * r**k / mp.factorial(k)
                   for k in range(n + 1))


def literal_wigner(rho, x, y) -> float:
    """(2/pi) Re sum_{l,j} rho[l,j] (-1)^l <j|D(x + iy)|l> of a square
    density matrix, with the untruncated Laguerre displacement elements."""
    beta = mp.mpc(mp.mpf(float(x)), mp.mpf(float(y)))
    r = abs(beta) ** 2
    total = mp.mpc(0)
    for l in range(len(rho)):
        for j in range(len(rho)):
            if rho[l][j] == 0:
                continue
            lo, hi = min(j, l), max(j, l)
            shift = beta if j >= l else -mp.conj(beta)
            element = (mp.sqrt(mp.factorial(lo) / mp.factorial(hi)) * shift ** (hi - lo)
                       * mp.exp(-r / 2) * _laguerre(lo, hi - lo, r))
            total += mp.mpc(complex(rho[l][j])) * (-1) ** l * element
    return float(2 / mp.pi * mp.re(total))
