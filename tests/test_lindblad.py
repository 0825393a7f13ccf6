"""Master-equation oracle: the generator on the N + 1 occupied levels against the dense form,
physicality along the flow, agreement with the exact undamped path and the
damped closed forms, and the one propagator against two references it
shares no code with (a dense Liouvillian exponential and expm_multiply)."""

import numpy as np
import pytest

import dense_reference as dr
import literal_forms as lf
from optoweak.lindblad import (
    IntegratorConfig,
    StepUnstable,
    integrate_snapshots,
    oracle_sweep,
    oracle_sweeps,
    postselect_density,
    _TAYLOR_TOL,
    _THETA_55,
    _block_generator,
    _dark_port_kernels,
    _finalize,
    _initial_state,
    _joint,
    _product,
    _shift,
    _snapshots,
)
from optoweak.model import (
    ModelParams,
    coherence_phase,
    coherent_amplitude,
    conditioned_state,
    decoherence_factor,
    mean_p,
    mean_q,
)
from pure_reference import coherent_vector, evolve_pure, fidelity, initial_joint_state

TWO_PI = 2 * np.pi
K = 0.005
VERIFY_TAUS = np.linspace(0.0, 4 * np.pi, 50)   # the default ``verify`` grid


@pytest.fixture(scope="module")
def dense_step_propagators():
    """The dense reference's exp(step L) for one step of the default
    ``verify`` grid at Fock 16, per gamma."""
    return {gamma: dr.propagator(K, gamma, 16, VERIFY_TAUS[1])
            for gamma in (0.0, 0.005)}


def oracle_state(rho):
    """The oracle's state vector R.ravel() of a joint 2N x 2N matrix, R
    being its first N + 1 rows and columns."""
    dim = rho.shape[0] // 2
    return rho[:dim + 1, :dim + 1].ravel()


def random_invariant_state(seed, dim=8):
    """A random Hermitian 2N x 2N matrix in the oracle's invariant set: zero
    outside its first N + 1 rows and columns."""
    rng = np.random.default_rng(seed)
    m = np.zeros((2 * dim, 2 * dim), complex)
    m[:dim + 1, :dim + 1] = rng.normal(size=(dim + 1, dim + 1)) + 1j * rng.normal(size=(dim + 1, dim + 1))
    return m + m.conj().T


def block_rhs(k, gamma, rho):
    """d rho / d tau of a Hermitian rho in the invariant set through the
    package's generator, reassembled with BA = AB^dag."""
    return _joint(_product(_block_generator([(k, gamma)], rho.shape[0] // 2))(oracle_state(rho))[None])[0]


def expm_multiply_reference(generator):
    """(t, v) -> exp(t L) v by scipy's expm_multiply, L as a CSR matrix."""
    from scipy import sparse
    from scipy.sparse.linalg import expm_multiply

    n = generator[0].size
    matrix = sparse.diags([c[max(0, -d):n - max(0, d)] for d, c in generator.items()],
                          list(generator), format="csr")
    return lambda t, v: expm_multiply(t * matrix, v)


def in_loop_advance(generator, v, offsets):
    """exp(t L) v for every t of ``offsets`` within one substep's reach by
    per-term accumulation, the reference for the stored-term product of
    ``_snapshots``: each term enters every offset's partial sum, weighted by
    r^j, right after its product, and the stopping test takes ||sum||_inf
    after every product."""
    (mu,), shifted, norm = _shift(generator, 1)
    apply = _product(shifted)
    span = offsets[-1]
    assert span * norm <= _THETA_55
    r = 1 - (span - offsets) / span if span else np.ones(offsets.size)
    sums = np.repeat(v[None], r.size, axis=0)
    parts = sums.view(float)
    term = v
    c1 = np.max(np.abs(term))
    for j in range(55 if span else 0):
        term = (span / (j + 1)) * apply(term)
        c2 = np.max(np.abs(term))
        parts += (r ** (j + 1))[:, None] * term.view(float)
        if c1 + c2 <= _TAYLOR_TOL * np.max(np.abs(sums[-1])):
            break
        c1 = c2
    return sums * np.exp(r * span * mu)[:, None]


def trace_difference(sampled, reference):
    """The largest |Delta P|, |Delta (P q)| and |Delta (P p)| between two
    oracle triples (q, p, P): the dark-port traces before the division by P,
    which turns a rounding of a small P into a large change of q.  Both
    triples must mask the same points."""
    (q, pmom, prob), (q1, p1, prob1) = sampled, reference
    worst = np.max(np.abs(prob - prob1))
    for moment, single in ((q, q1), (pmom, p1)):
        assert np.array_equal(np.isnan(moment), np.isnan(single))
        worst = max(worst, np.nanmax(np.abs(prob * moment - prob1 * single), initial=0.0))
    return worst


def analytic_joint_density(params, tau, dim):
    """Damped joint state assembled from the closed forms: coherent block,
    vacuum block, and the cross block scaled by e^{i phase - D}."""
    varphi = complex(coherent_amplitude(params, tau))
    ket_phi = coherent_vector(varphi, dim)
    ket_vac = np.zeros(dim, complex)
    ket_vac[0] = 1.0
    coherence = np.exp(
        1j * (params.theta + coherence_phase(params, tau))
        - decoherence_factor(params, tau)
    )
    rho = np.zeros((2 * dim, 2 * dim), complex)
    rho[:dim, :dim] = np.outer(ket_phi, ket_phi.conj())
    rho[:dim, dim:] = coherence * np.outer(ket_phi, ket_vac.conj())
    rho[dim:, :dim] = rho[:dim, dim:].conj().T
    rho[dim:, dim:] = np.outer(ket_vac, ket_vac.conj())
    return rho / 2


class TestGenerator:
    def test_hamiltonian_is_hermitian(self):
        h = dr.hamiltonian(0.2, 12)
        assert np.array_equal(h, h.conj().T)

    def test_uncoupled_hamiltonian_is_diagonal(self):
        h = dr.hamiltonian(1e-30, 8)
        off = h - np.diag(np.diag(h))
        assert np.max(np.abs(off)) < 1e-28
        assert np.allclose(np.diag(h).real, np.kron([1, 1], np.arange(8)))

    def test_coupling_matrix_element(self):
        h = dr.hamiltonian(K, 8)
        assert h[1, 0] == pytest.approx(-K)   # arm-A block, one-phonon row

    def test_rhs_is_traceless(self):
        rho = random_invariant_state(7)
        d = block_rhs(K, 0.3, rho)
        assert abs(np.trace(d)) < 1e-12 * np.max(np.abs(rho))

    def test_rhs_preserves_hermiticity(self):
        rho = random_invariant_state(8)
        d = block_rhs(K, 0.1, rho)
        assert np.max(np.abs(d - d.conj().T)) < 1e-12 * np.max(np.abs(d))

    def test_rhs_without_damping_is_a_commutator(self):
        rho = dr.initial_density(8, 0.0)
        h = dr.hamiltonian(K, 8)
        assert np.allclose(block_rhs(K, 0.0, rho), -1j * (h @ rho - rho @ h), atol=1e-15)

    def test_rhs_with_damping_matches_the_dense_form(self):
        # all 2N x 2N entries: the dense form also leaves the invariant set's outside at 0
        rho = random_invariant_state(9)
        dense = dr.rhs(0.2, 0.3, rho)
        assert np.max(np.abs(block_rhs(0.2, 0.3, rho) - dense)) < 1e-12 * np.max(np.abs(dense))

    def test_dense_liouvillian_matches_the_dense_form(self):
        rng = np.random.default_rng(10)
        m = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        rho = m + m.conj().T
        dense = dr.rhs(0.2, 0.3, rho)
        vectorised = (dr.liouvillian(0.2, 0.3, 8) @ rho.ravel()).reshape(16, 16)
        assert np.max(np.abs(vectorised - dense)) < 1e-12 * np.max(np.abs(dense))

    @pytest.mark.parametrize("dim", [8, 16])
    @pytest.mark.parametrize("k, gamma", [(K, 0.0), (0.2, 0.3)])
    def test_trace_shift_and_norm_match_the_dense_liouvillian(self, dim, k, gamma):
        generator = _block_generator([(k, gamma)], dim)
        (mu,), _, norm = _shift(generator, 1)
        liouvillian = dr.liouvillian(k, gamma, dim)
        # positions in the joint rho's row-major vec of the state vector's entries
        vec_index = np.arange(4 * dim * dim).reshape(2 * dim, 2 * dim)
        kept = oracle_state(vec_index)
        outside = np.setdiff1d(vec_index, kept)
        # the invariant set: the kept entries feed no other entry, and b feeds none at all
        assert not liouvillian[np.ix_(outside, kept)].any()
        assert not liouvillian[:, kept[-1]].any()
        dense = liouvillian[np.ix_(kept, kept)]
        n = dense.shape[0]
        assert n == (dim + 1) ** 2
        # the trace shift is the real mean over R's leading N x N block (AA),
        # -gamma (N - 1) / 2 (the dense diagonal's imaginary parts carry the
        # rounding of c^dag c).  The mean over the whole diagonal is real too,
        # but it moved the product count of 100 snapshots over 4 pi at k = 0.25,
        # gamma = 0.05, Fock 32 from 878 to 879 and doubled the largest
        # |oracle - closed form| of the dark-port probability on the Fock-32 grid
        dense_mu = np.diagonal(dense).reshape(dim + 1, dim + 1)[:dim, :dim].real.mean()
        dense_norm = np.abs(dense - dense_mu * np.eye(n)).sum(axis=0).max()
        assert abs(mu - dense_mu) <= 1e-15 * abs(dense_mu)
        assert abs(norm - dense_norm) <= 1e-15 * dense_norm
        # entry for entry: the six diagonals, scattered, are the dense matrix
        scattered = np.zeros_like(dense)
        for d, coefficients in generator.items():
            rows = np.arange(max(0, -d), min(n, n - d))
            scattered[rows, rows + d] = coefficients[rows]
            assert np.count_nonzero(coefficients) == np.count_nonzero(coefficients[rows])
        assert np.max(np.abs(scattered - dense)) <= 1e-15 * np.max(np.abs(dense))
        # and no other diagonal of the dense matrix holds anything
        rows, columns = np.nonzero(dense)
        assert set((columns - rows).tolist()) <= set(generator)

    def test_collapse_operator_acts_per_arm(self):
        c = dr.collapse(3)
        assert c.shape == (6, 6)
        assert c[0, 1] == 1.0 and c[3, 4] == 1.0 and np.abs(c[:3, 3:]).max() == 0


class TestIntegrate:
    def test_undamped_matches_pure_evolution(self):
        p = ModelParams(k=K)
        rho = integrate_snapshots(p, [TWO_PI], IntegratorConfig(dt=1e-3, fock_dim=16))[0]
        psi = evolve_pure(p, TWO_PI, initial_joint_state(16)).ravel()
        assert fidelity(psi, rho) > 1 - 1e-8

    def test_undamped_matches_analytic_joint_density(self):
        p = ModelParams(k=K)
        rho = integrate_snapshots(p, [TWO_PI], IntegratorConfig(dt=1e-3, fock_dim=16))[0]
        assert np.max(np.abs(rho - analytic_joint_density(p, TWO_PI, 16))) < 1e-9

    def test_damping_scales_the_cross_block_by_exp_minus_d(self):
        cfg = IntegratorConfig(dt=1e-3, fock_dim=16)
        rho_clean = integrate_snapshots(ModelParams(k=K), [TWO_PI], cfg)[0]
        rho_damped = integrate_snapshots(ModelParams(k=K, gamma=0.005), [TWO_PI], cfg)[0]
        norm_clean = np.linalg.norm(rho_clean[:16, 16:])
        norm_damped = np.linalg.norm(rho_damped[:16, 16:])
        expected = np.exp(-decoherence_factor(ModelParams(k=K, gamma=0.005), TWO_PI))
        assert norm_damped / norm_clean == pytest.approx(expected, abs=1e-6)

    def test_damped_matches_analytic_joint_density(self):
        p = ModelParams(k=K, gamma=0.005, theta=0.001)
        rho = integrate_snapshots(p, [4.0], IntegratorConfig(dt=1e-3, fock_dim=16))[0]
        assert np.max(np.abs(rho - analytic_joint_density(p, 4.0, 16))) < 1e-9

    def test_vacuum_is_a_damping_fixed_point(self):
        p = ModelParams(k=1e-30, gamma=0.3)
        rho = integrate_snapshots(p, [3.0], IntegratorConfig(dt=5e-3, fock_dim=8))[0]
        mirror, prob = postselect_density(rho, dark_port=False)
        assert prob == pytest.approx(1.0, abs=1e-10)
        assert mirror[0, 0].real == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(mirror[1:, 1:])) < 1e-12

    def test_snapshots_match_single_runs(self):
        p = ModelParams(k=K, gamma=0.005)
        cfg = IntegratorConfig(dt=2e-3, fock_dim=12)
        snaps = integrate_snapshots(p, [0.5, 1.25], cfg)
        direct = integrate_snapshots(p, [1.25], cfg)[0]
        assert np.max(np.abs(snaps[1] - direct)) < 1e-10

    def test_config_sets_the_fock_cutoff(self):
        assert integrate_snapshots(ModelParams(k=K), [0.3], IntegratorConfig(fock_dim=8))[0].shape == (16, 16)

    @pytest.mark.parametrize("dim", [8, 16, 32])
    @pytest.mark.parametrize("theta", [0.0, 0.3, -0.001, np.pi])
    def test_initial_state_is_the_split_photon(self, dim, theta):
        # exactly the Hermitian part of |psi><psi|, whose a a* rounds to an
        # imaginary part of about 1e-17 at theta != 0
        rho = dr.initial_density(dim, theta)
        hermitian = (rho + rho.conj().T) / 2
        assert np.max(np.abs(rho - hermitian)) <= 1e-17
        assert np.array_equal(_initial_state(dim, theta), oracle_state(hermitian))
        p = ModelParams(k=K, gamma=0.005, theta=theta)
        assert np.array_equal(integrate_snapshots(p, [0.0], IntegratorConfig(fock_dim=dim))[0], hermitian)

    @pytest.mark.parametrize("entry, message", [
        ((2, 1), "Hermiticity deviation 2.000e-06"),     # AA[0, 1] of the third snapshot
        ((2, -1), "trace drifted by 2.000e-06"),         # b = BB[0, 0] of the third snapshot
    ], ids=["non-hermitian-aa", "trace-drift"])
    def test_chunk_check_raises_the_first_failing_snapshot(self, entry, message):
        chunk = np.stack([oracle_state(rho) for rho in integrate_snapshots(ModelParams(k=K), VERIFY_TAUS[:6])])
        chunk[3, 17] += 1e-3                # AA[1, 0]: worse, in both checks, but later
        chunk[3, -1] += 1e-3
        chunk[4, 16:-1:17] += 1.0           # v = AB[:, 0]: worse still, and later
        chunk[entry] += 2e-6
        with pytest.raises(StepUnstable, match=message):
            _finalize(chunk, {})

    def test_chunk_check_covers_the_arm_b_row(self):
        # R[N, :N] = BA[0, :] evolves on its own; its check is against conj(v)
        chunk = np.stack([oracle_state(rho) for rho in integrate_snapshots(ModelParams(k=K), VERIFY_TAUS[:6])])
        chunk[2, 16 * 17:-1] += 1e-8
        with pytest.raises(StepUnstable, match="Hermiticity deviation 1.000e-08"):
            _finalize(chunk, {})

    def test_chunk_check_symmetrizes_the_whole_state(self):
        chunk = np.stack([oracle_state(rho) for rho in integrate_snapshots(ModelParams(k=K), VERIFY_TAUS[:6])])
        chunk[:, [1, 16, 16 * 17]] += 1e-12     # AA[0, 1], v[0] and BA[0, 0]
        before = chunk.copy()
        _finalize(chunk, None)
        r = before.reshape(-1, 17, 17)
        assert np.array_equal(chunk, ((r + r.conj().swapaxes(-1, -2)) / 2).reshape(-1, 17 * 17))
        assert not np.diagonal(chunk.reshape(-1, 17, 17), axis1=1, axis2=2).imag.any()

    def test_stats_eigenvalue_is_that_of_the_joint_state(self):
        stats = {}
        p = ModelParams(k=0.25, gamma=0.05, theta=0.3)
        snapshots = integrate_snapshots(p, np.linspace(0, 4 * np.pi, 50), stats=stats)
        least = min(np.linalg.eigvalsh(rho)[0] for rho in snapshots)
        assert abs(stats["min_eigenvalue"] - least) <= 1e-15
        # tripled coherences leave AA and BB positive but not the joint state
        widened = np.stack(snapshots[:6])
        widened[:, :16, 16:] *= 3
        widened[:, 16:, :16] *= 3
        stats = {}
        _finalize(np.stack([oracle_state(rho) for rho in widened]), stats)
        least = np.linalg.eigvalsh(widened)[:, 0].min()
        assert least < -0.1 and abs(stats["min_eigenvalue"] - least) <= 1e-15

    def test_stats_collection(self):
        stats = {}
        integrate_snapshots(ModelParams(k=K, gamma=0.005), [1.0],
                            IntegratorConfig(dt=1e-3, fock_dim=12), stats=stats)
        assert stats["trace_drift"] < 1e-10
        assert stats["hermiticity_dev"] < 1e-12
        assert stats["min_eigenvalue"] > -1e-10

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IntegratorConfig(dt=0.02)
        with pytest.raises(ValueError):
            IntegratorConfig(dt=0.0)
        with pytest.raises(ValueError):
            IntegratorConfig(fock_dim=4)
        with pytest.raises(ValueError):
            IntegratorConfig(fock_dim=16.5)
        with pytest.raises(TypeError):
            IntegratorConfig(method="euler")


class TestPostselectDensity:
    def test_ports_are_complete(self):
        p = ModelParams(k=K, gamma=0.005)
        rho = integrate_snapshots(p, [0.8], IntegratorConfig(dt=2e-3, fock_dim=12))[0]
        _, dark = postselect_density(rho, dark_port=True)
        _, bright = postselect_density(rho, dark_port=False)
        assert dark + bright == pytest.approx(1.0, abs=1e-9)

    def test_silent_at_start(self):
        rho = dr.initial_density(12, 0.0)
        _, prob = postselect_density(rho)
        assert prob == pytest.approx(0.0, abs=1e-30)

    def test_probability_matches_conditioned_state(self):
        p = ModelParams(k=K, gamma=0.005, theta=0.001)
        taus = [0.7, 2.9, TWO_PI]
        snaps = integrate_snapshots(ModelParams(k=K, gamma=0.005), taus,
                                    IntegratorConfig(dt=1e-3, fock_dim=16))
        for tau, rho in zip(taus, snaps):
            _, prob = postselect_density(rho, theta=p.theta)
            assert prob == pytest.approx(
                float(conditioned_state(p, tau).success_prob), abs=1e-6, rel=1e-6
            )

    def test_extremum_probability(self):
        p = ModelParams(k=K)
        rho = integrate_snapshots(p, [TWO_PI * (1 + K)], IntegratorConfig(dt=1e-3, fock_dim=16))[0]
        _, prob = postselect_density(rho)
        assert prob == pytest.approx(1.2336508198497246e-8, rel=1e-5)

    def test_shifter_at_source_equals_shifter_at_postselection(self):
        cfg = IntegratorConfig(dt=1e-3, fock_dim=16)
        at_source = integrate_snapshots(ModelParams(k=K, gamma=0.005, theta=0.001), [2.0], cfg)[0]
        mirror_a, prob_a = postselect_density(at_source, theta=0.0)
        plain = integrate_snapshots(ModelParams(k=K, gamma=0.005), [2.0], cfg)[0]
        mirror_b, prob_b = postselect_density(plain, theta=0.001)
        assert prob_a == pytest.approx(prob_b, abs=1e-12)
        assert np.max(np.abs(mirror_a - mirror_b)) < 1e-12

    def test_dark_port_kernels_match_postselect_density(self):
        from optoweak.fockspace import momentum_quadrature, position_quadrature

        operators = [np.eye(16), position_quadrature(16), momentum_quadrature(16)]
        thetas = [0.0, 0.001, -0.001, 0.3, np.pi]
        kernels = _dark_port_kernels(thetas, [0] * len(thetas), 16)
        assert kernels.shape == (17 * 17, len(thetas) * len(operators))
        for gamma in (0.0, 0.005):
            snapshots = integrate_snapshots(ModelParams(k=K, gamma=gamma), VERIFY_TAUS)
            stacked = (np.stack([oracle_state(rho) for rho in snapshots]) @ kernels).real
            for rho, traces in zip(snapshots, stacked):
                one = (oracle_state(rho)[None] @ kernels).real[0]
                assert np.max(np.abs(traces - one)) <= 1e-15
                for theta, row in zip(thetas, traces.reshape(len(thetas), len(operators))):
                    mirror, _ = postselect_density(rho, theta=theta)
                    reference = [np.trace(mirror @ o).real for o in operators]
                    assert np.max(np.abs(row - reference)) <= 1e-15


class TestOracleObservables:
    def test_short_time_equivalence(self):
        p = ModelParams(k=K)
        assert oracle_sweep(p, [0.1])[0][0] == pytest.approx(float(mean_q(p, 0.1)), abs=1e-6)

    def test_momentum_equivalence_undamped(self):
        p = ModelParams(k=K, theta=0.001)
        assert oracle_sweep(p, [2.3])[1][0] == pytest.approx(float(mean_p(p, 2.3)), abs=1e-6)
        damped = ModelParams(k=K, gamma=0.005, theta=0.001)
        assert oracle_sweep(damped, [2.3])[1][0] == pytest.approx(float(mean_p(damped, 2.3)), abs=1e-6)

    def test_displacement_extremum_equivalence(self):
        p = ModelParams(k=K)
        tau = TWO_PI * (1 + K)
        assert oracle_sweep(p, [tau])[0][0] == pytest.approx(float(mean_q(p, tau)), abs=1e-4)

    def test_stronger_coupling_and_damping_long_times(self):
        p = ModelParams(k=0.01, gamma=0.01, theta=0.001)
        taus = np.array([6.2, 19.0])
        q, pmom, prob = oracle_sweep(p, taus, IntegratorConfig(dt=1e-3, fock_dim=16))
        assert np.all(prob > 1e-12)
        assert np.max(np.abs(q - mean_q(p, taus))) < 1e-5
        assert np.max(np.abs(pmom - mean_p(p, taus))) < 1e-5

    def test_sweep_marks_degenerate_points(self):
        q, pmom, prob = oracle_sweep(ModelParams(k=K), [0.0, 1.0],
                                     IntegratorConfig(dt=5e-3, fock_dim=12))
        assert np.isnan(q[0]) and np.isnan(pmom[0]) and prob[0] < 1e-12
        assert np.isfinite(q[1])

    def test_dense_reference_agrees_with_the_exact_route(self, dense_step_propagators):
        for gamma in (0.0, 0.005):
            for theta in (0.0, 0.001, -0.001):
                exact = oracle_sweep(ModelParams(k=K, gamma=gamma, theta=theta), VERIFY_TAUS)
                states = dr.evolve(dense_step_propagators[gamma],
                                   dr.initial_density(16, theta), VERIFY_TAUS.size)
                dense = dr.dark_port_moments(states)
                live = exact[2] > 1e-12
                assert np.array_equal(live, dense[2] > 1e-12)
                assert np.max(np.abs(dense[2] - exact[2])) < 1e-7
                for dense_vals, exact_vals in zip(dense[:2], exact[:2]):
                    assert np.max(np.abs(dense_vals[live] - exact_vals[live])) < 1e-7

    @pytest.mark.parametrize("taus", [
        [0.3, 0.35, 1.9, 6.0, 12.5],
        [2.0, 2.5, 3.0],
        [0.0, 1.1, 1.1, 4.0],
    ], ids=["non-uniform", "late-start", "repeated"])
    def test_exact_route_matches_point_by_point_calls(self, taus):
        p = ModelParams(k=K, gamma=0.005, theta=0.001)
        chained = oracle_sweep(p, taus)
        for i, tau in enumerate(taus):
            q, pmom, prob = oracle_sweep(p, [tau])
            assert chained[0][i] == pytest.approx(q[0], abs=1e-8)
            assert chained[1][i] == pytest.approx(pmom[0], abs=1e-8)
            assert chained[2][i] == pytest.approx(prob[0], rel=1e-8)

    def test_shared_evolution_equals_one_sweep_per_member(self):
        group = [ModelParams(k=K, gamma=0.005, theta=theta) for theta in (0.0, 0.001, -0.001)]
        taus = [0.5, 2.0, 7.0]
        for shared, params in zip(oracle_sweeps(group, taus), group):
            for a, b in zip(shared, oracle_sweep(params, taus)):
                assert np.array_equal(a, b)
        # members of other (k, gamma) evolve in the same pass, each on its own
        # block, whatever the order of the groups in the list
        interleaved = [ModelParams(k=K), ModelParams(k=K, gamma=0.005), ModelParams(k=K, theta=0.001)]
        for shared, params in zip(oracle_sweeps(interleaved, taus), interleaved, strict=True):
            assert trace_difference(shared, oracle_sweep(params, taus)) <= 1e-15, params
        assert oracle_sweeps([], taus) == []

    @pytest.mark.parametrize("dim", [16, 32])
    def test_one_pass_over_a_mixed_grid_equals_one_sweep_per_member(self, dim):
        # the default verify sets (two (k, gamma) groups) and a third group whose
        # norm sets every substep of the joined pass: each member's P, P q and
        # P p stay within 1e-15 of its own evolution's (1.2e-16 seen)
        group = [ModelParams(k=K, gamma=gamma, theta=theta)
                 for gamma in (0.0, 0.005) for theta in (0.0, 0.001, -0.001)]
        group.append(ModelParams(k=0.25, gamma=0.05, theta=0.3))
        config = IntegratorConfig(fock_dim=dim)
        for params, shared in zip(group, oracle_sweeps(group, VERIFY_TAUS, config), strict=True):
            assert trace_difference(shared, oracle_sweep(params, VERIFY_TAUS, config)) <= 1e-15, params


class TestTaylorPropagator:
    @pytest.mark.parametrize("dim", [16, 32])
    @pytest.mark.parametrize("k, gamma", [(0.005, 0.0), (0.25, 0.05)])
    def test_matches_expm_multiply(self, dim, k, gamma):
        reference = expm_multiply_reference(_block_generator([(k, gamma)], dim))
        v = _initial_state(dim, 0.3)
        # 4 pi and 40 take more than one substep (s > 1)
        for span in (0.0, 1e-9, 4 * np.pi / 199, 4 * np.pi / 49, 4 * np.pi, 40.0):
            (state,), = _snapshots([(k, gamma)], [span], v, None)   # one chunk of one row
            assert np.max(np.abs(state - reference(span, v))) <= 1e-13, span

    @pytest.mark.parametrize("dim", [16, 32])
    @pytest.mark.parametrize("k, gamma", [(0.005, 0.0), (0.25, 0.05)])
    def test_dense_output_matches_one_offset_calls(self, dim, k, gamma):
        generator = _block_generator([(k, gamma)], dim)
        reference = expm_multiply_reference(generator)
        v = _initial_state(dim, 0.3)
        _, _, norm = _shift(generator, 1)
        reach = _THETA_55 / norm          # the longest span of one degree-55 substep
        while reach * norm > _THETA_55:
            reach = np.nextafter(reach, 0)
        offsets = np.array([0.0, 0.3 * reach, 0.3 * reach, 0.71 * reach, reach])
        dense, = _snapshots([(k, gamma)], offsets, v, None)   # every offset within one substep's reach
        assert dense.shape == (offsets.size, v.size)
        assert np.array_equal(dense[0], v) and np.array_equal(dense[1], dense[2])
        for t, state in zip(offsets, dense):
            (single,), = _snapshots([(k, gamma)], [t], v, None)
            assert np.max(np.abs(state - single)) <= 1e-15, t
            assert np.max(np.abs(state - reference(t, v))) <= 1e-13, t

    @pytest.mark.parametrize("dim", [16, 32])
    @pytest.mark.parametrize("k, gamma", [(0.005, 0.005), (0.25, 0.05)])
    def test_dense_rows_match_in_loop_accumulation(self, dim, k, gamma):
        generator = _block_generator([(k, gamma)], dim)
        v = _initial_state(dim, 0.3)
        _, _, norm = _shift(generator, 1)
        reach = _THETA_55 / norm
        while reach * norm > _THETA_55:
            reach = np.nextafter(reach, 0)
        offsets = np.linspace(0, reach, 21)
        (rows,), reference = _snapshots([(k, gamma)], offsets, v, None), in_loop_advance(generator, v, offsets)
        _finalize(reference, None)                        # the symmetrization every chunk passes
        assert np.array_equal(rows[-1], reference[-1])   # the running sum seeds the next chunk
        assert np.max(np.abs(rows - reference)) <= 1e-15

    def test_generator_applications_on_the_verify_grid(self):
        # 397 products in 25 substeps for the 50 snapshots; 637 with one
        # Taylor expansion per gap, and expm_multiply made 637 too
        for evolve in (oracle_sweep, integrate_snapshots):
            stats = {}
            evolve(ModelParams(k=K, gamma=0.005), VERIFY_TAUS, stats=stats)
            assert stats["generator_applications"] == 397, evolve.__name__
            assert stats["taylor_substeps"] == 25, evolve.__name__

    def test_generator_applications_on_the_fock32_grid(self):
        # the benchmark's oracle-fock32 sweep: 200 snapshots over 4 pi at
        # Fock 32, five to a substep; 1791 products with one expansion per gap
        stats = {}
        oracle_sweep(ModelParams(k=K, gamma=0.005, theta=0.001), np.linspace(0, 4 * np.pi, 200),
                     IntegratorConfig(fock_dim=32), stats)
        assert stats["generator_applications"] == 687
        assert stats["taylor_substeps"] == 40

    def test_generator_applications_on_a_large_kerr_phase(self):
        # sweep-kerr's parameters, where the terms are large: the stopping
        # test made 1675 products there when it took ||sum||_inf after each
        stats = {}
        oracle_sweep(ModelParams(k=0.25, gamma=0.05, theta=0.3), np.linspace(0, 40, 400),
                     IntegratorConfig(fock_dim=16), stats)
        assert stats["generator_applications"] == 1675

    def test_long_gaps_take_ceil_of_span_norm_over_theta_55_substeps(self):
        # two gaps past one substep's reach, 6.2 and 12.8 ||L||_1 / theta_55
        # = 9.4 and 19.5: 10 + 20 substeps; a repeated time adds none
        p = ModelParams(k=0.01, gamma=0.01, theta=0.001)
        config = IntegratorConfig(fock_dim=16)
        _, _, norm = _shift(_block_generator([(p.k, p.gamma)], config.fock_dim), 1)
        for taus in ([6.2, 19.0], [6.2, 6.2, 19.0]):
            stats = {}
            q, pmom, prob = oracle_sweep(p, taus, config, stats)
            gaps = np.diff(taus, prepend=0)
            assert stats["taylor_substeps"] == sum(np.ceil(gaps * norm / _THETA_55)) == 30, taus
        assert stats["generator_applications"] == 629     # of [6.2, 6.2, 19.0], run last
        for column in (q, pmom, prob):
            assert np.array_equal(column[0], column[1])

    def test_returned_snapshots_do_not_alias(self):
        p = ModelParams(k=K, gamma=0.005)
        snapshots, fresh = (integrate_snapshots(p, VERIFY_TAUS) for _ in range(2))
        mutated = []
        for i in (0, 1, 2, 25, 49):   # chunk ends and interiors
            snapshots[i][...] = np.nan
            mutated.append(i)
            for j, (state, reference) in enumerate(zip(snapshots, fresh)):
                assert j in mutated or np.array_equal(state, reference), (i, j)

    def test_repeated_sweeps_are_bit_equal(self):
        p = ModelParams(k=K, gamma=0.005, theta=0.001)
        first, second = (oracle_sweep(p, VERIFY_TAUS) for _ in range(2))
        for a, b in zip(first, second):
            assert np.array_equal(a, b, equal_nan=True)

    @pytest.mark.parametrize("span", [1e9, 1e308])
    def test_span_beyond_the_substep_cap_is_rejected_before_any_product(self, span):
        stats = {}
        with pytest.raises(ValueError, match="Taylor substeps, above the cap"):
            oracle_sweep(ModelParams(k=K), [0.0, span], IntegratorConfig(fock_dim=8), stats)
        assert stats["generator_applications"] == 0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("evolve", [
    lambda: oracle_sweep(ModelParams(k=K), [0.5, np.nan]),
    lambda: oracle_sweep(ModelParams(k=K), [0.5, np.inf]),
    lambda: oracle_sweeps([ModelParams(k=K)], [-np.inf, 0.5]),
    lambda: integrate_snapshots(ModelParams(k=K), [np.nan]),
    lambda: integrate_snapshots(ModelParams(k=K), [np.inf], IntegratorConfig(fock_dim=8)),
], ids=["exact-nan", "exact-inf", "exact-minus-inf", "snapshots-nan", "integrate-inf"])
def test_non_finite_snapshot_time_is_rejected(evolve):
    with pytest.raises(ValueError, match="snapshot times must be finite"):
        evolve()


@pytest.mark.parametrize("evolve", [
    lambda: oracle_sweep(ModelParams(k=K), [1.0, 0.5]),
    lambda: oracle_sweeps([ModelParams(k=K)], [-0.5, 1.0]),
    lambda: integrate_snapshots(ModelParams(k=K), [-1.0]),
], ids=["exact-decreasing", "exact-negative-start", "snapshots-negative"])
def test_unordered_snapshot_time_is_rejected(evolve):
    with pytest.raises(ValueError, match="snapshot times must be non-decreasing and non-negative"):
        evolve()
