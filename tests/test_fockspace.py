"""Fock-space kernels: operators, the factored propagator, post-selection,
expectations and Wigner sampling, each against an independent route."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.special import genlaguerre

import literal_forms as lf
from optoweak.fockspace import (
    TruncationInadequate,
    annihilation_matrix,
    coherent_vector,
    displacement_matrix,
    evolve_pure,
    expectation_p,
    expectation_q,
    fidelity,
    initial_joint_state,
    momentum_quadrature,
    named_state,
    parity_matrix,
    position_quadrature,
    postselect_pure,
    wigner,
)
from optoweak.model import ModelParams, coherent_amplitude, kerr_phase, mean_q

TWO_PI = 2 * np.pi
K = 0.005

small_complex = st.complex_numbers(max_magnitude=0.5, allow_nan=False, allow_infinity=False)


def displacement_element(j: int, l: int, beta: complex) -> complex:
    """<j|D(beta)|l> of the untruncated mode, via the associated-Laguerre form."""
    if j < l:
        return np.conj(displacement_element(l, j, -beta))
    d = j - l
    radial = abs(beta) ** 2
    return (
        np.sqrt(math.factorial(l) / math.factorial(j))
        * beta**d
        * np.exp(-radial / 2)
        * genlaguerre(l, d)(radial)
    )


class TestOperators:
    def test_annihilation_2x2(self):
        assert np.array_equal(annihilation_matrix(2), np.array([[0, 1], [0, 0]], complex))

    def test_superdiagonal_entry(self):
        assert annihilation_matrix(3)[1, 2] == np.sqrt(2)

    def test_small_dimension_rejected(self):
        with pytest.raises(ValueError):
            annihilation_matrix(1)

    def test_commutator_is_identity_up_to_cutoff_corner(self):
        n = 16
        c = annihilation_matrix(n)
        comm = c @ c.conj().T - c.conj().T @ c
        expected = np.eye(n, dtype=complex)
        expected[-1, -1] = 1 - n
        assert np.allclose(comm, expected, atol=1e-12)

    def test_parity_is_alternating_diagonal(self):
        p = parity_matrix(5)
        assert np.allclose(p, np.diag([1, -1, 1, -1, 1]))

    def test_quadratures_are_hermitian(self):
        for op in (position_quadrature(9), momentum_quadrature(9)):
            assert np.allclose(op, op.conj().T)


class TestCoherentVector:
    def test_vacuum(self):
        v = coherent_vector(0.0, 8)
        assert v[0] == 1.0 and np.all(v[1:] == 0)

    def test_ground_overlap(self):
        v = coherent_vector(0.01, 8)
        assert v[0] == pytest.approx(np.exp(-5e-5), rel=1e-12)

    def test_norm_converges_for_small_amplitude(self):
        v = coherent_vector(0.01, 8)
        assert np.vdot(v, v).real == pytest.approx(1.0, abs=1e-12)

    def test_truncation_guard(self):
        with pytest.raises(TruncationInadequate):
            coherent_vector(3.0, 8)

    @given(alpha=small_complex, beta=small_complex)
    @settings(max_examples=60)
    def test_overlap_magnitude(self, alpha, beta):
        a = coherent_vector(alpha, 24)
        b = coherent_vector(beta, 24)
        assert abs(np.vdot(b, a)) == pytest.approx(
            np.exp(-abs(alpha - beta) ** 2 / 2), abs=1e-10
        )


class TestDisplacement:
    @given(alpha=small_complex)
    @settings(max_examples=25)
    def test_unitary(self, alpha):
        d = displacement_matrix(alpha, 24)
        assert np.allclose(d @ d.conj().T, np.eye(24), atol=1e-10)

    def test_displaces_vacuum_to_coherent_state(self):
        alpha = 0.3 - 0.2j
        d = displacement_matrix(alpha, 32)
        vac = np.zeros(32, complex)
        vac[0] = 1
        assert np.allclose(d @ vac, coherent_vector(alpha, 32), atol=1e-12)

    def test_matches_laguerre_matrix_elements(self):
        beta = 0.8 + 0.45j
        d = displacement_matrix(beta, 64)
        for j in range(4):
            for l in range(4):
                assert d[j, l] == pytest.approx(
                    displacement_element(j, l, beta), abs=1e-12
                )


class TestEvolvePure:
    def test_zero_time_is_identity(self):
        joint = initial_joint_state(16)
        out = evolve_pure(ModelParams(k=K), 0.0, joint)
        assert np.allclose(out, joint, atol=1e-15)

    def test_damped_params_rejected(self):
        with pytest.raises(ValueError):
            evolve_pure(ModelParams(k=K, gamma=0.01), 1.0, initial_joint_state(16))

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            evolve_pure(ModelParams(k=K), 1.0, np.zeros(16, complex))

    def test_photon_in_other_arm_leaves_mirror_alone(self):
        joint = np.zeros((2, 16), complex)
        joint[1, 0] = 1.0
        out = evolve_pure(ModelParams(k=K), 2.7, joint)
        assert np.allclose(out, joint, atol=1e-15)

    def test_postselected_state_is_displaced_minus_ground(self):
        for theta in (0.0, 0.001):
            p = ModelParams(k=K, theta=theta)
            tau = 5.1
            out = evolve_pure(p, tau, initial_joint_state(16))
            mirror, prob = postselect_pure(out, theta=theta)
            expected = coherent_vector(complex(coherent_amplitude(p, tau)), 16)
            expected = np.exp(1j * (theta + kerr_phase(p, tau))) * expected
            expected[0] -= 1.0
            expected /= 2.0
            assert np.allclose(mirror, expected, atol=1e-13)
            assert prob == pytest.approx(np.vdot(expected, expected).real, rel=1e-12)

    def test_matches_direct_matrix_exponential(self):
        # the factored propagator against expm of the full generator
        dim = 16
        p = ModelParams(k=K)
        number = np.diag(np.arange(dim)).astype(complex)
        h = np.kron(np.eye(2), number) - p.k * np.kron(
            np.diag([1.0, 0.0]), position_quadrature(dim)
        )
        joint = initial_joint_state(dim)
        rng = np.random.default_rng(20240817)
        for tau in rng.uniform(0.0, 8 * np.pi, size=20):
            direct = expm(-1j * h * tau) @ joint.ravel()
            factored = evolve_pure(p, tau, joint).ravel()
            assert fidelity(direct, factored) > 1 - 1e-9

    def test_composition_matches_direct_evolution(self):
        # time-independent generator: the combined displacement phase and the
        # two partial Kerr phases cancel exactly against the single-shot form
        p = ModelParams(k=0.2)
        joint = initial_joint_state(16)
        composed = evolve_pure(p, 1.7, evolve_pure(p, 1.7, joint))
        direct = evolve_pure(p, 3.4, joint)
        assert fidelity(direct.ravel(), composed.ravel()) > 1 - 1e-12

    @given(tau=st.floats(min_value=0.0, max_value=30.0), k=st.floats(1e-3, 0.02))
    @settings(max_examples=40)
    def test_norm_preserved(self, tau, k):
        out = evolve_pure(ModelParams(k=k), tau, initial_joint_state(16))
        assert abs(np.vdot(out, out).real - 1.0) < 1e-10

    def test_truncation_guard_trips_on_tight_cutoff(self):
        with pytest.raises(TruncationInadequate):
            evolve_pure(ModelParams(k=0.25), np.pi, initial_joint_state(8))


class TestPostselect:
    def test_balanced_dark_port_is_silent(self):
        mirror, prob = postselect_pure(initial_joint_state(16))
        assert prob == 0.0
        assert np.all(mirror == 0)

    def test_shifter_probability(self):
        _, prob = postselect_pure(initial_joint_state(16), theta=0.001)
        assert prob == pytest.approx(np.sin(0.0005) ** 2, rel=1e-12)

    def test_probability_at_displacement_extremum(self):
        p = ModelParams(k=K)
        out = evolve_pure(p, TWO_PI * (1 + K), initial_joint_state(16))
        _, prob = postselect_pure(out)
        assert prob == pytest.approx(1.2336508198497246e-8, rel=1e-9)

    @given(
        amps=st.lists(
            st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
            min_size=8,
            max_size=8,
        ),
        theta=st.floats(-3.1, 3.1),
    )
    @settings(max_examples=60)
    def test_ports_are_complete(self, amps, theta):
        joint = np.array(amps, complex).reshape(2, 4)
        norm = np.sqrt(np.vdot(joint, joint).real)
        if norm < 1e-6:
            return
        joint = joint / norm
        _, p_dark = postselect_pure(joint, dark_port=True, theta=theta)
        _, p_bright = postselect_pure(joint, dark_port=False, theta=theta)
        assert p_dark + p_bright == pytest.approx(1.0, abs=1e-12)

    def test_pure_path_reproduces_closed_form(self):
        # dark-port expectation along the undamped path vs the analytic ratio
        grid = np.linspace(0.05, 4 * np.pi, 200)
        for theta in (0.0, 0.001, -0.001):
            p = ModelParams(k=K, theta=theta)
            worst = 0.0
            for tau in grid:
                mirror, prob = postselect_pure(
                    evolve_pure(p, tau, initial_joint_state(16)), theta=theta
                )
                if prob < 1e-12:
                    continue
                worst = max(worst, abs(expectation_q(mirror) - mean_q(p, tau)))
            assert worst < 1e-9


class TestExpectations:
    def test_vacuum(self):
        v = np.zeros(8, complex)
        v[0] = 1
        assert expectation_q(v) == 0.0
        assert expectation_p(v) == 0.0

    def test_balanced_real_superposition(self):
        v = np.zeros(8, complex)
        v[0] = v[1] = 1 / np.sqrt(2)
        assert expectation_q(v) == pytest.approx(1.0, rel=1e-12)
        assert expectation_p(v) == pytest.approx(0.0, abs=1e-12)

    def test_quarter_phase_superposition(self):
        v = np.zeros(8, complex)
        v[0], v[1] = 1 / np.sqrt(2), 1j / np.sqrt(2)
        assert expectation_p(v) == pytest.approx(1.0, rel=1e-12)
        assert expectation_q(v) == pytest.approx(0.0, abs=1e-12)

    def test_minus_superposition(self):
        v = np.zeros(8, complex)
        v[0], v[1] = 1 / np.sqrt(2), -1 / np.sqrt(2)
        assert expectation_p(v) == pytest.approx(0.0, abs=1e-12)

    def test_coherent_displacement(self):
        assert expectation_q(coherent_vector(0.01, 8)) == pytest.approx(0.02, abs=1e-10)

    def test_density_input(self):
        v = np.zeros(8, complex)
        v[0] = v[1] = 1 / np.sqrt(2)
        rho = np.outer(v, v.conj())
        assert expectation_q(rho) == pytest.approx(1.0, rel=1e-12)
        assert expectation_q(0.25 * rho) == pytest.approx(1.0, rel=1e-12)

    def test_zero_state_rejected(self):
        with pytest.raises(ValueError):
            expectation_q(np.zeros(8, complex))


def minus_state(dim=16):
    v = np.zeros(dim, complex)
    v[0], v[1] = 1 / np.sqrt(2), -1 / np.sqrt(2)
    return v


class TestNamedState:
    AMPLITUDES = {
        "vacuum": [1, 0],
        "one-phonon": [0, 1],
        "minus-superposition": [1 / np.sqrt(2), -1 / np.sqrt(2)],
        "plus-superposition": [1 / np.sqrt(2), 1 / np.sqrt(2)],
    }

    @pytest.mark.parametrize("name", list(AMPLITUDES))
    def test_amplitudes(self, name):
        expected = np.array(self.AMPLITUDES[name] + [0] * 4, complex)
        assert np.array_equal(named_state(name, 6), expected)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown state"):
            named_state("cat", 6)


class TestWigner:
    def test_origin_values(self):
        grid_spec = (-4.0, 4.0, 41)
        vac = np.zeros(16, complex)
        vac[0] = 1
        one = np.zeros(16, complex)
        one[1] = 1
        for state, expected in ((vac, 2 / np.pi), (one, -2 / np.pi), (minus_state(), 0.0)):
            g = wigner(state, grid_spec, grid_spec)
            assert g.values[20, 20] == pytest.approx(expected, abs=1e-10)

    def test_superposition_has_negative_region(self):
        g = wigner(minus_state(), (-4, 4, 81), (-4, 4, 81))
        assert g.values.min() < 0

    def test_integral_recovers_trace(self):
        g = wigner(minus_state(), (-4, 4, 101), (-4, 4, 101))
        assert g.integral() == pytest.approx(1.0, abs=1e-2)
        rho = np.outer(minus_state(), minus_state().conj())
        half = wigner(0.5 * rho, (-4, 4, 101), (-4, 4, 101))
        assert half.integral() == pytest.approx(0.5, abs=1e-2)

    def test_matches_untruncated_matrix_elements(self):
        # displaced-parity trace with exact Laguerre elements of D(x + iy)
        rho = np.outer(minus_state(4), minus_state(4).conj())
        g = wigner(minus_state(16), (-2, 2, 5), (-2, 2, 5))
        xs, ys = g.xs(), g.ys()
        for iy in (0, 2, 3):
            for ix in (1, 2, 4):
                beta = xs[ix] + 1j * ys[iy]
                expected = 0.0
                for l in range(4):
                    for j in range(4):
                        expected += (
                            rho[l, j] * displacement_element(j, l, beta) * (-1) ** l
                        )
                expected = (2 / np.pi) * expected.real
                assert g.values[iy, ix] == pytest.approx(expected, abs=1e-10)

    def test_truncation_guard(self):
        with pytest.raises(TruncationInadequate):
            wigner(minus_state(16), (-4, 4, 11), (-4, 4, 11), internal_dim=16)

    def test_bad_grid_rejected(self):
        with pytest.raises(ValueError):
            wigner(minus_state(), (4, -4, 11), (-4, 4, 11))
