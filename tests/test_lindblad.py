"""Master-equation integrator: generator structure, physicality along the
flow, agreement with the exact undamped path and the damped closed forms,
and fourth-order step convergence."""

import numpy as np
import pytest

import literal_forms as lf
from optoweak.fockspace import (
    coherent_vector,
    evolve_pure,
    fidelity,
    initial_joint_state,
    momentum_quadrature,
    position_quadrature,
    postselect_pure,
)
from optoweak.lindblad import (
    IntegratorConfig,
    StepUnstable,
    build_hamiltonian,
    collapse_operator,
    initial_joint_density,
    integrate,
    integrate_snapshots,
    lindblad_rhs,
    oracle_mean_p,
    oracle_mean_q,
    oracle_sweep,
    oracle_sweeps,
    postselect_density,
    _block_generator,
    _stack,
    _taylor,
)
from optoweak.model import (
    DegeneratePostselection,
    ModelParams,
    coherence_phase,
    coherent_amplitude,
    conditioned_state,
    decoherence_factor,
    mean_p,
    mean_q,
)

TWO_PI = 2 * np.pi
K = 0.005
VERIFY_TAUS = np.linspace(0.0, 4 * np.pi, 50)   # the default ``verify`` grid


@pytest.fixture(scope="module")
def rk4_verify_snapshots():
    """RK4 snapshots at the default step on the default ``verify`` grid, per gamma."""
    return {gamma: integrate_snapshots(ModelParams(k=K, gamma=gamma), VERIFY_TAUS)
            for gamma in (0.0, 0.005)}


def rk4_moments(snapshots, theta):
    """Conditioned q, p and dark-port probability of RK4 snapshots, postselected
    at ``theta`` (NaN moments where the port cannot fire)."""
    dim = snapshots[0].shape[0] // 2
    xop, pop = position_quadrature(dim), momentum_quadrature(dim)
    q, p, prob = (np.full(len(snapshots), np.nan) for _ in range(3))
    for i, rho in enumerate(snapshots):
        mirror, prob[i] = postselect_density(rho, theta=theta)
        if prob[i] > 1e-12:
            q[i] = np.trace(mirror @ xop).real / prob[i]
            p[i] = np.trace(mirror @ pop).real / prob[i]
    return q, p, prob


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
        h = build_hamiltonian(ModelParams(k=0.2), 12)
        assert np.array_equal(h, h.conj().T)

    def test_uncoupled_hamiltonian_is_diagonal(self):
        h = build_hamiltonian(ModelParams(k=1e-30), 8)
        off = h - np.diag(np.diag(h))
        assert np.max(np.abs(off)) < 1e-28
        assert np.allclose(np.diag(h).real, np.kron([1, 1], np.arange(8)))

    def test_coupling_matrix_element(self):
        h = build_hamiltonian(ModelParams(k=K), 8)
        assert h[1, 0] == pytest.approx(-K)   # arm-A block, one-phonon row

    def test_rhs_is_traceless(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        rho = m + m.conj().T
        d = lindblad_rhs(ModelParams(k=K, gamma=0.3), rho)
        assert abs(np.trace(d)) < 1e-12 * np.max(np.abs(rho))

    def test_rhs_preserves_hermiticity(self):
        rng = np.random.default_rng(8)
        m = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        rho = m + m.conj().T
        d = lindblad_rhs(ModelParams(k=K, gamma=0.1), rho)
        assert np.max(np.abs(d - d.conj().T)) < 1e-12 * np.max(np.abs(d))

    def test_rhs_without_damping_is_a_commutator(self):
        p = ModelParams(k=K)
        rho = initial_joint_density(8)
        h = build_hamiltonian(p, 8)
        assert np.allclose(lindblad_rhs(p, rho), -1j * (h @ rho - rho @ h), atol=1e-15)

    def test_rhs_with_damping_matches_the_dense_form(self):
        rng = np.random.default_rng(9)
        m = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        rho = m + m.conj().T
        p = ModelParams(k=0.2, gamma=0.3)
        h, c = build_hamiltonian(p, 8), collapse_operator(8)
        cdc = c.conj().T @ c
        dense = (-1j * (h @ rho - rho @ h)
                 + p.gamma * (c @ rho @ c.conj().T - 0.5 * (cdc @ rho + rho @ cdc)))
        assert np.max(np.abs(lindblad_rhs(p, rho) - dense)) < 1e-12 * np.max(np.abs(dense))

    def test_collapse_operator_acts_per_arm(self):
        c = collapse_operator(3)
        assert c.shape == (6, 6)
        assert c[0, 1] == 1.0 and c[3, 4] == 1.0 and np.abs(c[:3, 3:]).max() == 0


class TestIntegrate:
    def test_undamped_matches_pure_evolution(self):
        p = ModelParams(k=K)
        rho = integrate(p, TWO_PI, IntegratorConfig(dt=1e-3, fock_dim=16))
        psi = evolve_pure(p, TWO_PI, initial_joint_state(16)).ravel()
        assert fidelity(psi, rho) > 1 - 1e-8

    def test_undamped_matches_analytic_joint_density(self):
        p = ModelParams(k=K)
        rho = integrate(p, TWO_PI, IntegratorConfig(dt=1e-3, fock_dim=16))
        assert np.max(np.abs(rho - analytic_joint_density(p, TWO_PI, 16))) < 1e-9

    def test_damping_scales_the_cross_block_by_exp_minus_d(self):
        cfg = IntegratorConfig(dt=1e-3, fock_dim=16)
        rho_clean = integrate(ModelParams(k=K), TWO_PI, cfg)
        rho_damped = integrate(ModelParams(k=K, gamma=0.005), TWO_PI, cfg)
        norm_clean = np.linalg.norm(rho_clean[:16, 16:])
        norm_damped = np.linalg.norm(rho_damped[:16, 16:])
        expected = np.exp(-decoherence_factor(ModelParams(k=K, gamma=0.005), TWO_PI))
        assert norm_damped / norm_clean == pytest.approx(expected, abs=1e-6)

    def test_damped_matches_analytic_joint_density(self):
        p = ModelParams(k=K, gamma=0.005, theta=0.001)
        rho = integrate(p, 4.0, IntegratorConfig(dt=1e-3, fock_dim=16))
        assert np.max(np.abs(rho - analytic_joint_density(p, 4.0, 16))) < 1e-9

    def test_vacuum_is_a_damping_fixed_point(self):
        p = ModelParams(k=1e-30, gamma=0.3)
        rho = integrate(p, 3.0, IntegratorConfig(dt=5e-3, fock_dim=8))
        mirror, prob = postselect_density(rho, dark_port=False)
        assert prob == pytest.approx(1.0, abs=1e-10)
        assert mirror[0, 0].real == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(mirror[1:, 1:])) < 1e-12

    def test_snapshots_match_single_runs(self):
        p = ModelParams(k=K, gamma=0.005)
        cfg = IntegratorConfig(dt=2e-3, fock_dim=12)
        snaps = integrate_snapshots(p, [0.5, 1.25], cfg)
        direct = integrate(p, 1.25, cfg)
        assert np.max(np.abs(snaps[1] - direct)) < 1e-10

    def test_unnormalized_initial_state_trips_the_guard(self):
        p = ModelParams(k=K)
        with pytest.raises(StepUnstable):
            integrate(p, 0.3, IntegratorConfig(dt=1e-3, fock_dim=8),
                      initial=0.9 * initial_joint_density(8))

    def test_stats_collection(self):
        stats = {}
        integrate(ModelParams(k=K, gamma=0.005), 1.0,
                  IntegratorConfig(dt=1e-3, fock_dim=12), stats=stats)
        assert stats["trace_drift"] < 1e-10
        assert stats["hermiticity_dev"] < 1e-12
        assert stats["min_eigenvalue"] > -1e-10

    def test_four_generator_applications_per_rk4_step(self):
        # spans 0, 0.105 and 0.095 at dt = 0.01: 0, 10 + 1 and 9 + 1 steps
        stats = {}
        integrate_snapshots(ModelParams(k=K, gamma=0.005), [0.0, 0.105, 0.2],
                            IntegratorConfig(dt=0.01, fock_dim=8), stats=stats)
        assert stats["generator_applications"] == 4 * 21

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IntegratorConfig(dt=0.02)
        with pytest.raises(ValueError):
            IntegratorConfig(dt=0.0)
        with pytest.raises(ValueError):
            IntegratorConfig(fock_dim=4)
        with pytest.raises(TypeError):
            IntegratorConfig(method="euler")

    def test_fourth_order_convergence(self):
        # Frobenius error against a fine-step reference falls 16x per halving
        p = ModelParams(k=0.2, gamma=0.02)
        dims = IntegratorConfig(dt=1.25e-3, fock_dim=24)
        reference = integrate(p, np.pi, dims)
        errors = {}
        for dt in (1e-2, 5e-3, 2.5e-3):
            rho = integrate(p, np.pi, IntegratorConfig(dt=dt, fock_dim=24))
            errors[dt] = np.linalg.norm(rho - reference)
        assert 4 < errors[1e-2] / errors[5e-3] < 64
        assert 4 < errors[5e-3] / errors[2.5e-3] < 64


class TestPostselectDensity:
    def test_ports_are_complete(self):
        p = ModelParams(k=K, gamma=0.005)
        rho = integrate(p, 0.8, IntegratorConfig(dt=2e-3, fock_dim=12))
        _, dark = postselect_density(rho, dark_port=True)
        _, bright = postselect_density(rho, dark_port=False)
        assert dark + bright == pytest.approx(1.0, abs=1e-9)

    def test_silent_at_start(self):
        rho = initial_joint_density(12)
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
        rho = integrate(p, TWO_PI * (1 + K), IntegratorConfig(dt=1e-3, fock_dim=16))
        _, prob = postselect_density(rho)
        assert prob == pytest.approx(1.2336508198497246e-8, rel=1e-5)

    def test_shifter_at_source_equals_shifter_at_postselection(self):
        cfg = IntegratorConfig(dt=1e-3, fock_dim=16)
        at_source = integrate(ModelParams(k=K, gamma=0.005, theta=0.001), 2.0, cfg)
        mirror_a, prob_a = postselect_density(at_source, theta=0.0)
        plain = integrate(ModelParams(k=K, gamma=0.005), 2.0, cfg)
        mirror_b, prob_b = postselect_density(plain, theta=0.001)
        assert prob_a == pytest.approx(prob_b, abs=1e-12)
        assert np.max(np.abs(mirror_a - mirror_b)) < 1e-12


class TestOracleObservables:
    def test_short_time_equivalence(self):
        p = ModelParams(k=K)
        assert oracle_mean_q(p, 0.1) == pytest.approx(float(mean_q(p, 0.1)), abs=1e-6)

    def test_momentum_equivalence_undamped(self):
        p = ModelParams(k=K, theta=0.001)
        assert oracle_mean_p(p, 2.3) == pytest.approx(float(mean_p(p, 2.3)), abs=1e-6)
        damped = ModelParams(k=K, gamma=0.005, theta=0.001)
        assert oracle_mean_p(damped, 2.3) == pytest.approx(float(mean_p(damped, 2.3)), abs=1e-6)

    def test_displacement_extremum_equivalence(self):
        p = ModelParams(k=K)
        tau = TWO_PI * (1 + K)
        assert oracle_mean_q(p, tau) == pytest.approx(float(mean_q(p, tau)), abs=1e-4)

    def test_degenerate_point_raises(self):
        with pytest.raises(DegeneratePostselection):
            oracle_mean_q(ModelParams(k=K), 0.0)

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

    def test_halving_the_step_barely_moves_the_answer(self, rk4_verify_snapshots):
        # fixed-step RK4 truncation error is far below the comparison tolerances
        for gamma, theta in ((0.0, 0.0), (0.005, 0.001)):
            q_coarse, _, prob = rk4_moments(rk4_verify_snapshots[gamma], theta)
            fine = integrate_snapshots(ModelParams(k=K, gamma=gamma), VERIFY_TAUS,
                                       IntegratorConfig(dt=5e-4))
            q_fine, _, _ = rk4_moments(fine, theta)
            live = prob > 1e-12
            assert np.nanmax(np.abs(q_coarse[live] - q_fine[live])) < 1e-7

    def test_rk4_agrees_with_the_exact_route(self, rk4_verify_snapshots):
        for gamma in (0.0, 0.005):
            for theta in (0.0, 0.001, -0.001):
                exact = oracle_sweep(ModelParams(k=K, gamma=gamma, theta=theta), VERIFY_TAUS)
                rk4 = rk4_moments(rk4_verify_snapshots[gamma], theta)
                live = exact[2] > 1e-12
                assert np.array_equal(live, rk4[2] > 1e-12)
                assert np.max(np.abs(rk4[2] - exact[2])) < 1e-7
                for rk4_vals, exact_vals in zip(rk4[:2], exact[:2]):
                    assert np.max(np.abs(rk4_vals[live] - exact_vals[live])) < 1e-7

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
        with pytest.raises(ValueError, match="share k and gamma"):
            oracle_sweeps([ModelParams(k=K), ModelParams(k=K, gamma=0.005)], taus)


class TestTaylorPropagator:
    @pytest.mark.parametrize("dim", [16, 32])
    @pytest.mark.parametrize("k, gamma", [(0.005, 0.0), (0.25, 0.05)])
    def test_matches_expm_multiply(self, dim, k, gamma):
        from scipy.sparse.linalg import expm_multiply

        generator = _block_generator(k, gamma, dim)
        v = _stack(initial_joint_density(dim, theta=0.3))
        advance = _taylor(generator, None)
        # 4 pi and 40 take more than one substep (s > 1)
        for span in (0.0, 1e-9, 4 * np.pi / 199, 4 * np.pi / 49, 4 * np.pi, 40.0):
            reference = expm_multiply(span * generator, v)
            assert np.max(np.abs(advance(v, span) - reference)) <= 1e-13, span

    def test_generator_applications_on_the_verify_grid(self):
        # expm_multiply made 637 products for the same 50 snapshots
        stats = {}
        oracle_sweep(ModelParams(k=K, gamma=0.005), VERIFY_TAUS, stats=stats)
        assert stats["generator_applications"] == 637


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("evolve", [
    lambda: oracle_sweep(ModelParams(k=K), [0.5, np.nan]),
    lambda: oracle_sweep(ModelParams(k=K), [0.5, np.inf]),
    lambda: oracle_sweeps([ModelParams(k=K)], [-np.inf, 0.5]),
    lambda: integrate_snapshots(ModelParams(k=K), [np.nan]),
    lambda: integrate(ModelParams(k=K), np.inf, IntegratorConfig(fock_dim=8)),
], ids=["exact-nan", "exact-inf", "exact-minus-inf", "rk4-nan", "rk4-inf"])
def test_non_finite_snapshot_time_is_rejected(evolve):
    with pytest.raises(ValueError, match="snapshot times must be finite"):
        evolve()
