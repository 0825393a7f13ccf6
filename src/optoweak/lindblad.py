"""Master-equation oracle for the joint photon-path (x) mirror state.

Evolves

    d rho / d tau = -i [H, rho] + (gamma/2)(2 C rho C^dag - C^dag C rho - rho C^dag C)

with H = I_path (x) c^dag c - k |A><A| (x) (c + c^dag) and C = I_path (x) c.
The arm-B mirror starts in vacuum, and H and C map the N + 1 levels S =
{|A, 0>, ..., |A, N - 1>, |B, 0>} into S, so the joint rho vanishes
outside its first N + 1 rows and columns.  The oracle evolves R, the
(N + 1) x (N + 1) joint rho on S, as the state vector R.ravel() under
the Lindblad generator of an (N + 1)-level system, six non-zero
diagonals (offsets 0, -+1, -+(N + 1) and N + 2) held in numpy arrays, and
one propagator applies its exact exponential by truncated Taylor series
(Al-Mohy & Higham 2011), with dense output: the snapshot times within one
substep's reach form a chunk, whose states one product forms from that
substep's stored series terms, each time with its own weights.
:func:`oracle_sweeps` evolves any list of parameter sets in one pass: each
distinct (k, gamma) is one block of the joined state vector [R_1.ravel(),
R_2.ravel(), ...] under the block-diagonal generator, with one trace shift
per block, one norm and one stopping test for all.  Each chunk is
postselected with one product, every phase-shifter theta and observable
from its own kernel on its own block; :func:`integrate_snapshots` returns
the joint states.  Every analytic
formula in :mod:`optoweak.model` is validated against this oracle;
nothing here shares code with the closed forms: from
:mod:`optoweak.model` it takes only ``ModelParams`` and ``TRACE_FLOOR``,
and from :mod:`optoweak.fockspace`, which imports nothing from ``model``,
only the two quadratures
(``tests/test_imports.py::test_oracle_reaches_no_closed_form``).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, TRACE_FLOOR
from .fockspace import momentum_quadrature, position_quadrature

_TRACE_DRIFT_LIMIT = 1e-6
_HERMITICITY_LIMIT = 1e-9

# s Taylor polynomials of degree 55 give exp(t A) v to tolerance 2^-53 while
# t ||A||_1 <= s theta_55 (Al-Mohy & Higham 2011, Table 3.1).
_TAYLOR_TOL = 2.0 ** -53
_THETA_55 = 9.9
# The stopping test needs ||sum||_inf only where the two last terms are below
# tolerance against B = ||v||_inf + sum_j ||term_j||_inf, restarted from each
# ||sum||_inf taken.  Rounding in the at most 56 summands of the sum and of
# B, and in their magnitudes, moves ||sum||_inf / B by at most about
# (2 * 55 + 4) 2^-53 = 1.3e-14 above 1, so B (1 + 2^-44) bounds ||sum||_inf.
_BOUND_SLACK = 1 + 2.0 ** -44
# Substeps one span may take.  s grows linearly with the span (one 40-unit
# span at Fock 32 takes 134 substeps, about 0.23 s on one core), so the cap
# stands for roughly 20 s of evolution at Fock 32 and rejects spans that
# would run for hours instead of starting them.
_MAX_SUBSTEPS = 10_000


class StepUnstable(Exception):
    """The integration left the physical manifold beyond tolerance."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Oracle settings: the Fock cutoff (>= 8).  dt is validated to
    (0, 0.01] but has no effect: the exact propagator takes no step."""

    dt: float = 1e-3
    fock_dim: int = 16

    def __post_init__(self):
        if not (0.0 < self.dt <= 0.01):
            raise ValueError(f"dt={self.dt} outside (0, 0.01]")
        if not (isinstance(self.fock_dim, numbers.Integral) and self.fock_dim >= 8):
            raise ValueError(f"fock_dim={self.fock_dim!r} must be an integer of at least 8")


def _block_generator(pairs, dim: int) -> dict[int, np.ndarray]:
    """Generator of the oracle's joined state vector [R_1.ravel(),
    R_2.ravel(), ...] (see the module docstring), block i evolving under
    the (k, gamma) of ``pairs[i]``, as its six non-zero diagonals.

    On S, H = n' - k x' and C = c' with n' = (0, ..., N - 1, 0), x' = x (+)
    0 and c' = c (+) 0, so dR = -i (H R - R H) + gamma (c' R c'^dag - (n' R
    + R n')/2).  Entry (l, r) meets itself (offset 0), (l -+ 1, r) through
    x on the left (offsets -+(N + 1)), (l, r -+ 1) through x on the right
    (offsets -+1) and (l + 1, r + 1) through the jump (offset N + 2).  x''s
    sub- and superdiagonal are padded with a zero at each end, which stops
    every term at the edge of R: each c_d is zero wherever p + d is not a
    neighbour of p in R, so no term crosses from one block to the next and
    the generator is block-diagonal.
    Returns {d: c_d} with (L v)[p] = sum_d c_d[p] v[p + d].
    """
    k, gamma = (np.array(column, dtype=float)[:, None, None] for column in zip(*pairs))
    x = np.pad(position_quadrature(dim), (0, 1))                  # x', real symmetric
    up = np.append(np.diagonal(x, 1), 0)                          # x'[l, l + 1] = c'[l, l + 1]
    down = np.insert(np.diagonal(x, -1), 0, 0)                    # x'[l, l - 1]
    n = np.append(np.arange(dim), 0)
    side = dim + 1
    diagonals = {
        -side: 1j * k * down[:, None],                            # x on the left
        -1: -1j * k * down,                                       # x on the right
        0: -1j * (n[:, None] - n) - gamma * (n[:, None] + n) / 2,
        1: -1j * k * up,
        side: 1j * k * up[:, None],
        side + 1: gamma * (up[:, None] * up),                     # c'[l, l+1] c'[r, r+1]
    }
    shape = (len(pairs), side, side)
    return {d: np.broadcast_to(c, shape).astype(complex).ravel() for d, c in diagonals.items()}


def _product(diagonals: dict[int, np.ndarray]):
    """v -> L v for L given as {d: c_d} (see :func:`_block_generator`).

    The 0-diagonal writes one buffer, which the next call overwrites; each
    other diagonal adds into it between its first and last non-zero
    coefficient.
    """
    n = diagonals[0].size
    product, scratch = np.empty(n, dtype=complex), np.empty(n, dtype=complex)
    terms = []
    for d, coefficients in sorted(diagonals.items()):
        nonzero = np.flatnonzero(coefficients)
        if d and nonzero.size:
            a, b = nonzero[0], nonzero[-1] + 1
            terms.append((coefficients[a:b], a + d, b + d, scratch[a:b], product[a:b]))

    def apply(v):
        np.multiply(diagonals[0], v, out=product)
        for coefficients, start, stop, part, rows in terms:
            np.multiply(coefficients, v[start:stop], out=part)
            rows += part
        return product

    return apply


def _initial_state(dim: int) -> np.ndarray:
    """R.ravel() of |psi><psi|, the photon split over both arms and the
    mirror in vacuum: psi = (e_0 + e_N) / sqrt(2) on S.  The phase shifter
    is not here: it enters at postselection."""
    psi = np.zeros(dim + 1, dtype=complex)
    psi[[0, -1]] = 1 / np.sqrt(2)
    return np.outer(psi, psi.conj()).ravel()


def _shift(generator: dict[int, np.ndarray], blocks: int):
    """The trace shifts mu (one for each of the ``blocks`` equal blocks), the
    diagonals of L - mu I, and its exact 1-norm: the largest column sum of
    the shifted |c_d|, each column summed in row order, which is the largest
    of the blocks' own norms.  A block's mu is the mean of its 0-diagonal
    over R's leading N x N block (arm A), the real -gamma (N - 1) / 2,
    summed exactly so that no rounding of the sum moves it.  mu is constant
    on each block, so it commutes with the block-diagonal L and the shift
    is exact."""
    n = generator[0].size
    side = math.isqrt(n // blocks)
    leading = generator[0].reshape(blocks, side, side)[:, :-1, :-1].real
    mu = np.array([math.fsum(block.ravel()) for block in leading]) / (side - 1) ** 2
    shifted = {**generator, 0: (generator[0].reshape(blocks, -1) - mu[:, None]).ravel()}
    column_sums = np.zeros(n)
    for d in sorted(shifted, reverse=True):
        a, b = max(0, -d), min(n, n - d)
        column_sums[a + d:b + d] += np.abs(shifted[d][a:b])
    return mu, shifted, column_sums.max()


def _joint(states: np.ndarray) -> np.ndarray:
    """The 2N x 2N joint rho of each R.ravel() (row) of ``states``: R,
    padded with zeros."""
    side = math.isqrt(states.shape[1])
    return np.pad(states.reshape(-1, side, side), ((0, 0), (0, side - 2), (0, side - 2)))


def _finalize(chunk: np.ndarray, stats: dict | None) -> None:
    """Check the Hermiticity and the trace of each R of ``chunk`` (rows,
    (N + 1)^2) in turn, raising StepUnstable for the first state past a
    limit (Hermiticity first), then symmetrize R in place and record the
    extremes in ``stats`` (the deviations seen before symmetrizing, the
    least eigenvalue of R: the joint rho's spectrum is R's and N - 1
    zeros)."""
    side = math.isqrt(chunk.shape[1])
    states = chunk.reshape(-1, side, side)                        # a view: symmetrized in place
    adjoint = np.conj(states.swapaxes(-1, -2), order="C")         # contiguous, read in order below
    deviations = np.abs(states - adjoint).max(axis=(1, 2))
    drifts = np.abs(np.trace(states, axis1=1, axis2=2).real - 1.0)
    for deviation, trace_drift in zip(deviations.tolist(), drifts.tolist()):
        if deviation > _HERMITICITY_LIMIT:
            raise StepUnstable(f"Hermiticity deviation {deviation:.3e} before symmetrization")
        if trace_drift > _TRACE_DRIFT_LIMIT:
            raise StepUnstable(f"trace drifted by {trace_drift:.3e}")
    states += adjoint
    states *= 0.5
    if stats is not None:
        stats["trace_drift"] = max(stats.get("trace_drift", 0.0), drifts.max())
        stats["hermiticity_dev"] = max(stats.get("hermiticity_dev", 0.0), deviations.max())
        min_eig = min(float(np.linalg.eigvalsh(states)[:, 0].min()), 0.0)
        stats["min_eigenvalue"] = min(stats.get("min_eigenvalue", np.inf), min_eig)


def _scale_blocks(states: np.ndarray, factors: np.ndarray) -> None:
    """Multiply, in place, block i of the joined state vector ``states``
    (or of each of its rows) by ``factors[..., i]``: one scalar per block."""
    blocks = states.reshape(*factors.shape, -1)
    blocks *= factors[..., None]


def _snapshots(pairs, taus, state: np.ndarray, stats: dict | None):
    """Yield the states at the times of ``taus`` chunk by chunk, each
    chunk a fresh (rows, B (N + 1)^2) array of joined state vectors
    [R_1.ravel(), ..., R_B.ravel()], from ``state`` at 0 under the
    block-diagonal generator L whose block i is that of the (k, gamma) of
    ``pairs[i]`` (:func:`_block_generator`), by truncated Taylor series
    (algorithm 3.2 of Al-Mohy & Higham 2011, run on the block of vectors at
    once) with dense output.

    The trace shifts mu, one per block, the shifted diagonals and their
    1-norm (:func:`_shift`) are taken once, and so are one buffer for the
    terms of a substep and one for the magnitudes behind each ||x||_inf.
    Each chunk holds the times that one substep serves from the
    last snapshot, at c: every following t with (t - c) ||L - mu I||_1 <=
    theta_55 (at least one, so a longer gap is a chunk of its own).  Its
    last offset, the span, takes s = ceil(span ||L - mu I||_1 / theta_55)
    substeps of degree at most 55; ValueError is raised before the chunk's
    first product when s exceeds ``_MAX_SUBSTEPS``.  Each
    substep stores its terms (term 0 is its start) and adds them into a
    running sum, the state at its end.  After s - 1 plain substeps of h =
    span / s, one real product weights term j of the last substep by r^j,
    r = 1 - (span - t) / h, for every offset t at once, and each block of
    each row is scaled by its e^{mu r h}; the last row (r = 1) is then the
    running sum itself, so the state that seeds the next chunk does not
    depend on the other offsets.  The stopping test on the running sum
    (all blocks together, by ||.||_inf of the joined vector) alone ends
    each series; as r^j <= 1, it bounds every other row too.  It takes
    ||sum||_inf only once the two last terms are below tolerance against
    the triangle bound of the sum (``_BOUND_SLACK``), restarted from each
    ||sum||_inf taken: every decision is ||sum||_inf's.  Every R of the
    chunk then passes :func:`_finalize` in place.  With one block, every
    product, sum and scale is the one-group evolution's, in its order.
    """
    taus = np.asarray(taus, dtype=float)
    if not np.all(np.isfinite(taus)):
        raise ValueError("snapshot times must be finite")
    if taus.size and (np.any(np.diff(taus) < 0) or taus[0] < 0):
        raise ValueError("snapshot times must be non-decreasing and non-negative")
    blocks = len(pairs)
    dim = math.isqrt(state.size // blocks) - 1
    mu, shifted, norm = _shift(_block_generator(pairs, dim), blocks)
    apply = _product(shifted)
    terms = np.empty((56, state.size), dtype=complex)  # rows touched only when used
    magnitudes = np.empty(state.size)  # |x| of each infinity norm the stopping test takes
    largest = np.maximum.reduce  # ndarray.max without its Python-level wrapper
    current, start = 0.0, 0
    while start < taus.size:
        offsets = taus[start:] - current
        with np.errstate(over="ignore"):  # past the float range: inf, beyond reach and the cap
            reach = offsets * norm
        size = max(1, int(np.searchsorted(reach, _THETA_55, side="right")))
        offsets, span = offsets[:size], offsets[size - 1]
        substeps = np.ceil(reach[size - 1] / _THETA_55)
        if substeps > _MAX_SUBSTEPS:
            raise ValueError(f"a span of {span:g} needs {substeps:.3g} Taylor "
                             f"substeps, above the cap of {_MAX_SUBSTEPS}")
        m, s = (55, int(substeps)) if substeps else (0, 1)
        applications = 0
        for _ in range(s):
            term, total, used = state, state.copy(), 1
            terms[0] = state
            c1 = bound = largest(np.abs(state, out=magnitudes))
            for j in range(m):
                term = np.multiply(span / (s * (j + 1)), apply(term), out=terms[j + 1])
                applications += 1
                used = j + 2
                c2 = largest(np.abs(term, out=magnitudes))
                total += term
                bound += c2
                # two terms below tolerance against B >= ||total||_inf, then against ||total||_inf
                if (c1 + c2 <= _TAYLOR_TOL * (bound * _BOUND_SLACK)
                        and c1 + c2 <= _TAYLOR_TOL * (bound := largest(np.abs(total, out=magnitudes)))):
                    break
                c1 = c2
            state = total
            _scale_blocks(state, np.exp(span * mu / s))
        h = span / s
        r = 1 - (span - offsets) / h if h else np.ones(size)
        # Real weights scale real and imaginary parts alike.  The product forms
        # the r = 1 row too, so that a chunk of two is still a matrix-matrix
        # product, which sums each row in term order (a vector-matrix one
        # groups the terms and moves the rows by more rounding).
        chunk = (r[:, None] ** np.arange(used) @ terms[:used].view(float)).view(complex)
        _scale_blocks(chunk, np.exp((r * span)[:, None] * mu / s))
        chunk[-1] = state
        if stats is not None:
            stats["generator_applications"] = stats.get("generator_applications", 0) + applications
            stats["taylor_substeps"] = stats.get("taylor_substeps", 0) + int(substeps)
        _finalize(chunk.reshape(size * blocks, -1), stats)
        yield chunk
        state, current, start = chunk[-1], taus[start + size - 1], start + size


def integrate_snapshots(
    params: ModelParams,
    taus,
    config: IntegratorConfig | None = None,
    stats: dict | None = None,
) -> list[np.ndarray]:
    """The joint density matrix at each time of ``taus`` (finite,
    non-decreasing, non-negative), from one exact forward pass: the
    snapshots :func:`oracle_sweep` postselects.

    The evolution starts from the split photon and the mirror in vacuum.
    The snapshots do not depend on ``params.theta``: the phase shifter
    enters through ``postselect_density(rho, theta=...)``, as it enters
    :func:`oracle_sweeps` through its kernels.  Every snapshot is symmetrized
    once its Hermiticity drift is asserted below 1e-9.  A ``stats`` dict
    collects the worst trace drift, Hermiticity deviation and minimum
    eigenvalue seen, and the numbers of generator applications
    (``generator_applications``) and Taylor substeps (``taylor_substeps``).
    """
    config = config or IntegratorConfig()
    state = _initial_state(config.fock_dim)
    return [rho for chunk in _snapshots([(params.k, params.gamma)], taus, state, stats)
            for rho in _joint(chunk)]


def postselect_density(rho: np.ndarray, dark_port: bool = True, theta: float = 0.0):
    """Project the photon onto an output port of the joint density matrix.

    theta multiplies the arm-A amplitude before projecting onto
    (|A> -+ |B>)/sqrt(2); returns the unnormalized mirror density matrix
    <port| rho |port> and its trace (the port probability).
    """
    dim = rho.shape[0] // 2
    (aa, ab), (ba, bb) = rho.reshape(2, dim, 2, dim).transpose(0, 2, 1, 3)
    sign = -1.0 if dark_port else 1.0
    phase = np.exp(1j * theta)
    mirror = (aa + sign * phase * ab + sign * np.conj(phase) * ba + bb) / 2
    return mirror, np.trace(mirror).real


def _dark_port_kernels(thetas, blocks, dim: int) -> np.ndarray:
    """The (B (N + 1)^2, 3 len(thetas)) matrix whose column 3 i + j turns a
    joined state vector [R_1.ravel(), ..., R_B.ravel()] into tr(M_theta
    O_j) of block b = blocks[i] (B = max(blocks) + 1), for
    theta = thetas[i] and O_j = I, x, p, M_theta being the unnormalized
    dark-port mirror state of :func:`postselect_density`.

    M_theta = Q R Q^dag / 2 with Q = [I_N | -e^{-i theta} e_0], so
    tr(M_theta O) = tr(R K) with K = Q^dag O Q / 2, and the column is
    K^T.ravel() on block b's rows, zero on the others.  K's corner O[0, 0]
    / 2 is written as it is, not as |e^{-i theta}|^2 times it, so BB enters
    with the exact weight 1.
    """
    operators = np.stack([np.eye(dim), position_quadrature(dim), momentum_quadrature(dim)])
    phases = -np.exp(-1j * np.asarray(thetas, dtype=float))[:, None, None]
    kernels = np.empty((len(phases), 3, dim + 1, dim + 1), dtype=complex)
    kernels[..., :dim, :dim] = operators
    kernels[..., :dim, dim] = phases * operators[..., 0]
    kernels[..., dim, :dim] = phases.conj() * operators[..., 0, :]
    kernels[..., dim, dim] = operators[..., 0, 0]
    joined = np.zeros((len(phases), 3, max(blocks) + 1, dim + 1, dim + 1), dtype=complex)
    joined[np.arange(len(phases)), :, blocks] = kernels.swapaxes(-1, -2) / 2
    return joined.reshape(3 * len(phases), -1).T


def oracle_sweeps(
    group: list[ModelParams],
    taus,
    config: IntegratorConfig | None = None,
    stats: dict | None = None,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Conditional q, p and dark-port probability for any list of parameter
    sets, from one exact evolution.

    theta enters only at postselection, so each distinct (k, gamma) is one
    block of the joined state vector, every block starting from the
    unshifted source: the truncated-Taylor propagator of :func:`_snapshots`
    carries all blocks through the snapshot times together, chunk by
    chunk, and one product of each chunk with the kernels of
    :func:`_dark_port_kernels`, each member's columns placed on its own
    block and zero elsewhere, gives every member's unnormalized
    probability and moments.  Returns one
    (q, p, prob) triple of arrays per member; times where the dark-port
    probability is at the floor give NaN observables instead of raising.
    """
    config = config or IntegratorConfig()
    if not group:
        return []
    taus = np.asarray(taus, dtype=float)
    dim = config.fock_dim
    pairs = list(dict.fromkeys((params.k, params.gamma) for params in group))
    kernels = _dark_port_kernels([params.theta for params in group],
                                 [pairs.index((params.k, params.gamma)) for params in group], dim)
    traces = np.empty((taus.size, kernels.shape[1]))
    start = 0
    for chunk in _snapshots(pairs, taus, np.tile(_initial_state(dim), len(pairs)), stats):
        traces[start:start + len(chunk)] = (chunk @ kernels).real
        start += len(chunk)
    traces = traces.T.reshape(len(group), 3, taus.size)
    prob = traces[:, :1]
    moments = np.full_like(traces[:, 1:], np.nan)
    np.divide(traces[:, 1:], prob, out=moments, where=prob >= TRACE_FLOOR)
    return list(zip(moments[:, 0], moments[:, 1], prob[:, 0]))


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
