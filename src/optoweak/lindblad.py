"""Master-equation oracle for the joint photon-path (x) mirror state.

Evolves

    d rho / d tau = -i [H, rho] + (gamma/2)(2 C rho C^dag - C^dag C rho - rho C^dag C)

with H = I_path (x) c^dag c - k |A><A| (x) (c + c^dag) and C = I_path (x) c.
H and C commute with |A><A|, so the four N x N path blocks of rho evolve
apart under one sparse, time-independent generator.  :func:`oracle_sweep`
applies its exact exponential to the stacked blocks by truncated Taylor
series (Al-Mohy & Higham 2011); :func:`integrate` and
:func:`integrate_snapshots` step the same generator by fixed-step RK4 as
the brute-force check.  Every analytic formula in :mod:`optoweak.model` is
validated against this oracle; nothing here shares code with the closed
forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import DegeneratePostselection, ModelParams, TRACE_FLOOR
from .fockspace import annihilation_matrix, position_quadrature, momentum_quadrature

_CHECK_INTERVAL = 100
_TRACE_DRIFT_LIMIT = 1e-6
_HERMITICITY_LIMIT = 1e-9

# theta_m for tolerance 2^-53 (Al-Mohy & Higham 2011, Table 3.1): s Taylor
# polynomials of degree m give exp(t A) v to that tolerance while
# t ||A||_1 <= s theta_m.
_TAYLOR_TOL = 2.0 ** -53
_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3,
    6: 9.07e-3, 7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1,
    11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1,
    16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44,
    21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54,
    35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}


class StepUnstable(Exception):
    """The integration left the physical manifold beyond tolerance."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Oracle settings: the Fock cutoff (>= 8) of every route, and the RK4
    step dt in (0, 0.01] of :func:`integrate` and :func:`integrate_snapshots`.
    The exact :func:`oracle_sweep` takes no step, so dt does not affect it."""

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
def _block_generator(k: float, gamma: float, dim: int):
    """Sparse generator of the stacked blocks AA, AB, BA, BB of the joint rho.

    H and C commute with |A><A|, so each N x N block rho_ij evolves on its
    own under -i (H_i rho_ij - rho_ij H_j) + gamma (c rho_ij c^dag -
    (n rho_ij + rho_ij n)/2), with H_A = n - k x and H_B = n.  Row-major
    vectorisation (vec(X Y Z) = (X (x) Z^T) vec Y) turns each block into an
    N^2 x N^2 matrix; the four sit block-diagonally in one CSR matrix that
    acts on :func:`_stack` vectors.
    """
    from scipy import sparse

    number = sparse.diags(np.arange(dim, dtype=complex))
    c = sparse.csr_matrix(annihilation_matrix(dim))
    eye = sparse.identity(dim, dtype=complex)
    arms = (number - k * sparse.csr_matrix(position_quadrature(dim)), number)
    damping = gamma * (sparse.kron(c, c.conj())
                       - 0.5 * (sparse.kron(number, eye) + sparse.kron(eye, number)))
    blocks = [-1j * (sparse.kron(h_left, eye) - sparse.kron(eye, h_right.T)) + damping
              for h_left in arms for h_right in arms]
    return sparse.block_diag(blocks, format="csr")


def _stack(rho: np.ndarray) -> np.ndarray:
    """The blocks AA, AB, BA, BB of a 2N x 2N matrix, each raveled row-major."""
    dim = rho.shape[0] // 2
    return rho.reshape(2, dim, 2, dim).transpose(0, 2, 1, 3).ravel()


def _assemble(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_stack`."""
    dim = math.isqrt(v.size // 4)
    return v.reshape(2, 2, dim, dim).transpose(0, 2, 1, 3).reshape(2 * dim, 2 * dim)


def lindblad_rhs(params: ModelParams, rho: np.ndarray) -> np.ndarray:
    """d rho / d tau for the joint density matrix, through :func:`_block_generator`."""
    generator = _block_generator(params.k, params.gamma, rho.shape[0] // 2)
    return _assemble(generator @ _stack(np.asarray(rho, dtype=complex)))


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


def _count_applications(stats: dict | None, count: int):
    if stats is not None:
        stats["generator_applications"] = stats.get("generator_applications", 0) + count


def _taylor(generator, stats: dict | None):
    """advance(v, span) for :func:`_snapshots`: exp(span L) v by truncated
    Taylor series, algorithm 3.2 of Al-Mohy & Higham (2011).

    The trace shift mu = tr L / n, the shifted CSR L - mu I and its exact
    1-norm depend on the generator alone and are taken once; each span only
    picks the degree m and the number of substeps s that minimise m s.
    """
    from scipy import sparse

    n = generator.shape[0]
    mu = generator.trace() / n
    shifted = (generator - mu * sparse.identity(n, dtype=complex, format="csr")).tocsr()
    norm = abs(shifted).sum(axis=0).max()
    degrees = np.fromiter(_THETA.keys(), dtype=int)
    thetas = np.fromiter(_THETA.values(), dtype=float)

    def advance(v, span):
        m, s = 0, 1
        if span * norm > 0:
            substeps = np.ceil(span * norm / thetas)
            best = np.argmin(degrees * substeps)  # the first, i.e. lowest, degree on a tie
            m, s = int(degrees[best]), int(substeps[best])
        eta = np.exp(span * mu / s)
        applications = 0
        for _ in range(s):
            term = v
            c1 = np.max(np.abs(term))
            for j in range(m):
                term = (span / (s * (j + 1))) * (shifted @ term)
                applications += 1
                c2 = np.max(np.abs(term))
                v = v + term
                if c1 + c2 <= _TAYLOR_TOL * np.max(np.abs(v)):  # two terms below tolerance
                    break
                c1 = c2
            v = eta * v
        _count_applications(stats, applications)
        return v

    return advance


def _rk4(generator, dt: float, stats: dict | None):
    """advance(v, span) for :func:`_snapshots`: fixed RK4 steps of ``dt`` on
    the stacked blocks plus one shortened landing step, with physicality
    checked every 100 steps."""
    steps = 0

    def advance(v, span):
        nonlocal steps
        n_full = int(np.floor(span / dt + 1e-12))
        remainder = span - n_full * dt
        sizes = [dt] * n_full
        if remainder > 1e-12:
            sizes.append(remainder)
        for h in sizes:
            k1 = generator @ v
            k2 = generator @ (v + (0.5 * h) * k1)
            k3 = generator @ (v + (0.5 * h) * k2)
            k4 = generator @ (v + h * k3)
            v = v + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
            steps += 1
            if steps % _CHECK_INTERVAL == 0:
                _check_physicality(_assemble(v), stats)
        _count_applications(stats, 4 * len(sizes))
        return v

    return advance


def _finalize(rho, stats):
    deviation = np.max(np.abs(rho - rho.conj().T))
    if deviation > _HERMITICITY_LIMIT:
        raise StepUnstable(f"Hermiticity deviation {deviation:.3e} before symmetrization")
    _check_physicality(rho, stats)  # before symmetrizing, so stats see the drift
    return (rho + rho.conj().T) / 2


def _snapshots(taus, rho: np.ndarray, stats: dict | None, advance):
    """Yield the state at each time of ``taus``, one at a time, from ``rho``
    at 0; ``advance(v, span)`` carries a :func:`_stack` vector forward by
    ``span``, and each span starts from the last finalized snapshot."""
    taus = np.asarray(taus, dtype=float)
    if not np.all(np.isfinite(taus)):
        raise ValueError("snapshot times must be finite")
    if taus.size and (np.any(np.diff(taus) < 0) or taus[0] < 0):
        raise ValueError("snapshot times must be non-decreasing and non-negative")
    current = 0.0
    for t in taus:
        rho = _finalize(_assemble(advance(_stack(rho), t - current)), stats)
        current = t
        yield rho


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
    """RK4 states at each requested time, from a single forward pass.

    The brute-force check of the exact :func:`oracle_sweep`, stepping on the
    same block generator.  ``taus`` must be non-decreasing and non-negative.
    Each snapshot is symmetrized after its Hermiticity drift is asserted
    below 1e-9.
    """
    config = config or IntegratorConfig()
    rho = initial_joint_density(config.fock_dim, params.theta) if initial is None else np.asarray(initial, dtype=complex)
    generator = _block_generator(params.k, params.gamma, rho.shape[0] // 2)
    return list(_snapshots(taus, rho, stats, _rk4(generator, config.dt, stats)))


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


def oracle_sweeps(
    group: list[ModelParams],
    taus,
    config: IntegratorConfig | None = None,
    stats: dict | None = None,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Conditional q, p and dark-port probability for parameter sets that
    share k and gamma, from one exact evolution.

    theta enters only at postselection, so the group evolves once from the
    unshifted source: the truncated-Taylor propagator of :func:`_taylor`
    carries the stacked blocks from one snapshot time to the next, and
    every member postselects each snapshot as it streams past.  Returns one (q, p, prob)
    triple of arrays per member; times where the dark-port probability is
    at the floor give NaN observables instead of raising.
    """
    config = config or IntegratorConfig()
    if len({(params.k, params.gamma) for params in group}) > 1:
        raise ValueError("parameter sets evolved together must share k and gamma")
    if not group:
        return []
    taus = np.asarray(taus, dtype=float)
    q, p, prob = (np.full((len(group), taus.size), np.nan) for _ in range(3))
    dim = config.fock_dim
    xop, pop = position_quadrature(dim), momentum_quadrature(dim)
    generator = _block_generator(group[0].k, group[0].gamma, dim)
    snapshots = _snapshots(taus, initial_joint_density(dim), stats, _taylor(generator, stats))
    for i, rho in enumerate(snapshots):
        for j, params in enumerate(group):
            mirror, prob[j, i] = postselect_density(rho, theta=params.theta)
            if prob[j, i] >= TRACE_FLOOR:
                q[j, i] = np.trace(mirror @ xop).real / prob[j, i]
                p[j, i] = np.trace(mirror @ pop).real / prob[j, i]
    return list(zip(q, p, prob))


def oracle_sweep(
    params: ModelParams,
    taus,
    config: IntegratorConfig | None = None,
    stats: dict | None = None,
):
    """Conditional q, p and dark-port probability at each time, from one
    exact evolution: the one-member case of :func:`oracle_sweeps`.

    Times where the dark-port probability is at the floor give NaN
    observables instead of raising.  Returns (q, p, prob) arrays.
    """
    return oracle_sweeps([params], taus, config, stats)[0]
