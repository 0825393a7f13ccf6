"""Brute-force master-equation oracle for the joint photon-path (x) mirror state.

Integrates

    d rho / d tau = -i [H, rho] + (gamma/2)(2 C rho C^dag - C^dag C rho - rho C^dag C)

with H = I_path (x) c^dag c - k |A><A| (x) (c + c^dag) and C = I_path (x) c,
by fixed-step fourth-order Runge-Kutta on the dense 2N x 2N density matrix.
Every analytic formula in :mod:`optoweak.model` is validated against this
integrator; nothing here shares code with the closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import DegeneratePostselection, ModelParams, TRACE_FLOOR
from .fockspace import annihilation_matrix, position_quadrature, momentum_quadrature

_CHECK_INTERVAL = 100
_TRACE_DRIFT_LIMIT = 1e-6
_HERMITICITY_LIMIT = 1e-9


class StepUnstable(Exception):
    """The integration left the physical manifold beyond tolerance."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step RK4 settings: dt in (0, 0.01], Fock cutoff >= 8."""

    dt: float = 1e-3
    fock_dim: int = 16

    def __post_init__(self):
        if not (0.0 < self.dt <= 0.01):
            raise ValueError(f"dt={self.dt} outside (0, 0.01]")
        if self.fock_dim < 8:
            raise ValueError(f"fock_dim={self.fock_dim} below the minimum of 8")


def build_hamiltonian(params: ModelParams, dim: int) -> np.ndarray:
    """H / (hbar omega_m) on span{|A>, |B>} (x) Fock(dim); Hermitian by construction."""
    number = np.diag(np.arange(dim)).astype(complex)
    arm_a = np.diag([1.0, 0.0])
    return np.kron(np.eye(2), number) - params.k * np.kron(arm_a, position_quadrature(dim))


def collapse_operator(dim: int) -> np.ndarray:
    """Damping acts on the mirror only: C = I_path (x) c."""
    return np.kron(np.eye(2), annihilation_matrix(dim))


@lru_cache(maxsize=32)
def _cached_ops(k: float, dim: int):
    H = build_hamiltonian(ModelParams(k=k), dim)
    C = collapse_operator(dim)
    nvec = np.kron(np.ones(2), np.arange(dim, dtype=float))
    return H, C, C.conj().T, nvec


def lindblad_rhs(params: ModelParams, rho: np.ndarray) -> np.ndarray:
    """d rho / d tau for the joint density matrix."""
    dim = rho.shape[0] // 2
    H, C, Cdag, nvec = _cached_ops(params.k, dim)
    d = -1j * (H @ rho - rho @ H)
    if params.gamma:
        d = d + params.gamma * (C @ rho @ Cdag)
        d = d - 0.5 * params.gamma * (nvec[:, None] * rho + rho * nvec[None, :])
    return d


def initial_joint_density(dim: int, theta: float = 0.0) -> np.ndarray:
    """Photon split over both arms (arm-A phase e^{i theta}), mirror in vacuum."""
    psi = np.zeros(2 * dim, dtype=complex)
    psi[0] = np.exp(1j * theta) / np.sqrt(2)
    psi[dim] = 1 / np.sqrt(2)
    return np.outer(psi, psi.conj())


def _check_physicality(rho: np.ndarray, stats: dict | None):
    trace_drift = abs(np.trace(rho).real - 1.0)
    if trace_drift > _TRACE_DRIFT_LIMIT:
        raise StepUnstable(f"trace drifted by {trace_drift:.3e}")
    if stats is not None:
        stats["trace_drift"] = max(stats.get("trace_drift", 0.0), trace_drift)
        herm = np.max(np.abs(rho - rho.conj().T))
        stats["hermiticity_dev"] = max(stats.get("hermiticity_dev", 0.0), herm)
        min_eig = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2)[0])
        stats["min_eigenvalue"] = min(stats.get("min_eigenvalue", np.inf), min_eig)


def _evolve(params, rho, tau_span, config, stats, step_counter):
    """Advance rho by tau_span with full dt steps plus one shortened landing step."""
    n_full = int(np.floor(tau_span / config.dt + 1e-12))
    remainder = tau_span - n_full * config.dt
    sizes = [config.dt] * n_full
    if remainder > 1e-12:
        sizes.append(remainder)
    for h in sizes:
        k1 = lindblad_rhs(params, rho)
        k2 = lindblad_rhs(params, rho + (0.5 * h) * k1)
        k3 = lindblad_rhs(params, rho + (0.5 * h) * k2)
        k4 = lindblad_rhs(params, rho + h * k3)
        rho = rho + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        step_counter[0] += 1
        if step_counter[0] % _CHECK_INTERVAL == 0:
            _check_physicality(rho, stats)
    return rho


def _finalize(rho, stats):
    deviation = np.max(np.abs(rho - rho.conj().T))
    if deviation > _HERMITICITY_LIMIT:
        raise StepUnstable(f"Hermiticity deviation {deviation:.3e} before symmetrization")
    rho = (rho + rho.conj().T) / 2
    _check_physicality(rho, stats)
    return rho


def integrate(
    params: ModelParams,
    tau_end: float,
    config: IntegratorConfig | None = None,
    initial: np.ndarray | None = None,
    stats: dict | None = None,
) -> np.ndarray:
    """RK4-evolve the joint density matrix from tau=0 to tau_end.

    The single-snapshot case of :func:`integrate_snapshots`.  ``initial``
    defaults to the split photon (with the configured theta at the source)
    and the mirror in vacuum.  Physicality is checked every 100 steps and
    once at the end; the result is symmetrized after asserting the
    Hermiticity drift is below 1e-9.  Pass a dict as ``stats`` to collect the
    worst trace drift, Hermiticity deviation and minimum eigenvalue seen.
    """
    return integrate_snapshots(params, [tau_end], config, initial, stats)[0]


def integrate_snapshots(
    params: ModelParams,
    taus,
    config: IntegratorConfig | None = None,
    initial: np.ndarray | None = None,
    stats: dict | None = None,
) -> list[np.ndarray]:
    """States at each requested time, from a single forward pass.

    ``taus`` must be non-decreasing and non-negative.  Each snapshot is
    symmetrized after its Hermiticity drift is asserted below 1e-9.
    """
    config = config or IntegratorConfig()
    taus = np.asarray(taus, dtype=float)
    if taus.size and (np.any(np.diff(taus) < 0) or taus[0] < 0):
        raise ValueError("snapshot times must be non-decreasing and non-negative")
    rho = initial_joint_density(config.fock_dim, params.theta) if initial is None else np.asarray(initial, dtype=complex)
    counter = [0]
    out = []
    current = 0.0
    for t in taus:
        rho = _evolve(params, rho, t - current, config, stats, counter)
        current = t
        out.append(_finalize(rho, stats))
        rho = out[-1]
    return out


def postselect_density(rho: np.ndarray, dark_port: bool = True, theta: float = 0.0):
    """Project the photon onto an output port of the joint density matrix.

    theta multiplies the arm-A amplitude before projecting onto
    (|A> -+ |B>)/sqrt(2); returns the unnormalized mirror density matrix
    <port| rho |port> and its trace (the port probability).
    """
    dim = rho.shape[0] // 2
    aa = rho[:dim, :dim]
    ab = rho[:dim, dim:]
    ba = rho[dim:, :dim]
    bb = rho[dim:, dim:]
    sign = -1.0 if dark_port else 1.0
    phase = np.exp(1j * theta)
    mirror = (aa + sign * phase * ab + sign * np.conj(phase) * ba + bb) / 2
    return mirror, np.trace(mirror).real


def _oracle_point(params: ModelParams, tau: float, config: IntegratorConfig | None):
    q, p, prob = oracle_sweep(params, [tau], config)
    if prob[0] < TRACE_FLOOR:
        raise DegeneratePostselection("dark-port probability vanishes at this time")
    return q[0], p[0]


def oracle_mean_q(params: ModelParams, tau: float, config: IntegratorConfig | None = None) -> float:
    """Conditional <q>/sigma from the integrated master equation: a one-point
    :func:`oracle_sweep` that raises where the dark port cannot fire."""
    return _oracle_point(params, tau, config)[0]


def oracle_mean_p(params: ModelParams, tau: float, config: IntegratorConfig | None = None) -> float:
    """Conditional <p> 2 sigma/hbar from the integrated master equation: a
    one-point :func:`oracle_sweep` that raises where the dark port cannot fire."""
    return _oracle_point(params, tau, config)[1]


def oracle_sweep(
    params: ModelParams,
    taus,
    config: IntegratorConfig | None = None,
    stats: dict | None = None,
):
    """Conditional q, p and dark-port probability at each time, in one pass.

    Times where the dark-port probability is at the floor give NaN
    observables instead of raising.  Returns (q, p, prob) arrays.
    """
    config = config or IntegratorConfig()
    xop = position_quadrature(config.fock_dim)
    pop = momentum_quadrature(config.fock_dim)
    q_out, p_out, prob_out = [], [], []
    source = ModelParams(k=params.k, gamma=params.gamma, theta=0.0)
    for rho in integrate_snapshots(source, taus, config, stats=stats):
        mirror, prob = postselect_density(rho, theta=params.theta)
        prob_out.append(prob)
        if prob < TRACE_FLOOR:
            q_out.append(np.nan)
            p_out.append(np.nan)
        else:
            q_out.append(np.trace(mirror @ xop).real / prob)
            p_out.append(np.trace(mirror @ pop).real / prob)
    return np.array(q_out), np.array(p_out), np.array(prob_out)
