"""Closed-form observables against hand values, high-precision transcriptions
and their stated invariants."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import literal_forms as lf
from optoweak.model import (
    TRACE_FLOOR,
    DegeneratePostselection,
    ModelParams,
    amplification_factor,
    approx_mean_q,
    approx_state_coeffs,
    coherence_phase,
    coherent_amplitude,
    conditioned_moments,
    conditioned_state,
    decoherence_factor,
    free_mirror_displacement,
    kerr_phase,
    mean_p,
    mean_q,
)

TWO_PI = 2 * np.pi
K = 0.005

ks = st.floats(min_value=1e-4, max_value=0.25)
gammas = st.floats(min_value=0.0, max_value=0.2)
thetas = st.floats(min_value=-3.1415, max_value=3.1415)
taus = st.floats(min_value=0.0, max_value=60.0)


class TestModelParams:
    def test_valid(self):
        p = ModelParams(k=0.005, gamma=0.005, theta=-0.001)
        assert (p.k, p.gamma, p.theta) == (0.005, 0.005, -0.001)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k": 0.0},
            {"k": -0.1},
            {"k": 0.26},
            {"k": 0.005, "gamma": -1e-9},
            {"k": 0.005, "theta": 3.2},
            {"k": 0.005, "theta": -np.pi},
            {"k": 0.005, "gamma": np.inf},
            {"k": 0.005, "gamma": 1e155},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)


class TestKerrPhase:
    def test_zero_time(self):
        assert kerr_phase(ModelParams(k=K), 0.0) == 0.0

    def test_full_period(self):
        assert kerr_phase(ModelParams(k=K), TWO_PI) == pytest.approx(
            TWO_PI * 2.5e-5, rel=1e-12, abs=0
        )

    def test_half_period(self):
        assert kerr_phase(ModelParams(k=0.1), np.pi) == pytest.approx(
            0.01 * np.pi, rel=1e-12, abs=0
        )

    @given(k=ks, t1=taus, t2=taus)
    def test_non_decreasing(self, k, t1, t2):
        lo, hi = sorted([t1, t2])
        p = ModelParams(k=k)
        assert kerr_phase(p, hi) >= kerr_phase(p, lo) - 1e-12


class TestCoherentAmplitude:
    def test_zero_time(self):
        assert coherent_amplitude(ModelParams(k=K, gamma=0.37), 0.0) == 0j

    def test_half_period_undamped(self):
        assert coherent_amplitude(ModelParams(k=K), np.pi) == pytest.approx(
            0.01 + 0j, abs=1e-15
        )

    def test_quarter_period_undamped(self):
        assert coherent_amplitude(ModelParams(k=K), np.pi / 2) == pytest.approx(
            0.005 + 0.005j, abs=1e-15
        )

    @given(k=ks, gamma=gammas, tau=taus)
    def test_amplitude_bound(self, k, gamma, tau):
        value = coherent_amplitude(ModelParams(k=k, gamma=gamma), tau)
        assert abs(value) <= 2 * k / np.sqrt(1 + gamma**2 / 4) + 1e-12


class TestDecoherenceFactor:
    def test_undamped_is_exactly_zero(self):
        p = ModelParams(k=K)
        assert decoherence_factor(p, 17.3) == 0.0
        assert np.all(decoherence_factor(p, np.linspace(0, 30, 7)) == 0.0)

    def test_zero_time(self):
        assert decoherence_factor(ModelParams(k=K, gamma=0.005), 0.0) == pytest.approx(
            0.0, abs=1e-30
        )

    def test_frozen_reference_point(self):
        # scripted term-by-term complex evaluation, cross-checked against the
        # damped-coherence derivation and the master-equation integrator
        value = decoherence_factor(ModelParams(k=0.005, gamma=0.005), TWO_PI)
        assert value == pytest.approx(7.7928401200750325e-7, rel=1e-12, abs=0)

    @pytest.mark.parametrize(
        "k,gamma,tau", [(0.005, 0.005, 1.0), (0.005, 0.02, 12.3), (0.1, 0.15, 40.0)]
    )
    def test_matches_high_precision_transcription(self, k, gamma, tau):
        value = decoherence_factor(ModelParams(k=k, gamma=gamma), tau)
        assert value == pytest.approx(lf.literal_decoherence(k, gamma, tau), rel=1e-11, abs=0)

    def test_matches_exact_damped_coherence_log(self):
        for gamma in (0.005, 0.05, 0.2):
            p = ModelParams(k=0.01, gamma=gamma)
            for tau in (0.7, TWO_PI, 25.0):
                exact = -lf.literal_coherence_exponent(p.k, gamma, tau).real
                assert decoherence_factor(p, tau) == pytest.approx(exact, rel=1e-11, abs=0)

    @given(k=ks, gamma=gammas, tau=taus)
    def test_non_negative(self, k, gamma, tau):
        assert decoherence_factor(ModelParams(k=k, gamma=gamma), tau) >= -1e-12


class TestCoherencePhase:
    def test_reduces_to_kerr_phase_undamped(self):
        p = ModelParams(k=K)
        grid = np.linspace(0.0, 8 * np.pi, 101)
        assert np.allclose(coherence_phase(p, grid), kerr_phase(p, grid), atol=1e-15)

    def test_damped_value(self):
        # the grid of TestDecoherenceFactor::test_matches_exact_damped_coherence_log
        points = [(K, 0.005, 12.0)] + [
            (0.01, gamma, tau) for gamma in (0.005, 0.05, 0.2) for tau in (0.7, TWO_PI, 25.0)]
        for k, gamma, tau in points:
            expected = lf.literal_coherence_exponent(k, gamma, tau).imag
            value = coherence_phase(ModelParams(k=k, gamma=gamma), tau)
            # abs=0: approx's default abs=1e-12 would exceed rel * |phase| at every point
            assert value == pytest.approx(expected, rel=1e-12, abs=0), (k, gamma, tau)


class TestConditionedState:
    def test_dark_port_never_fires_at_start(self):
        st0 = conditioned_state(ModelParams(k=K), 0.0)
        assert st0.success_prob == 0.0
        assert st0.varphi == 0j
        assert st0.decoherence == 0.0

    def test_shifter_opens_dark_port_at_start(self):
        st0 = conditioned_state(ModelParams(k=K, theta=0.001), 0.0)
        assert st0.success_prob == pytest.approx(np.sin(0.0005) ** 2, rel=1e-12, abs=0)

    def test_success_at_displacement_extremum(self):
        # trace of the conditioned state at the first extremum time
        st1 = conditioned_state(ModelParams(k=K), TWO_PI * (1 + K))
        assert st1.success_prob == pytest.approx(1.2336508198497246e-8, rel=1e-9, abs=0)
        assert st1.success_prob == pytest.approx(
            lf.literal_success(K, 0.0, TWO_PI * (1 + K)), rel=1e-12, abs=0
        )

    def test_bundles_are_consistent(self):
        # each view is one field of one conditioned_state call, bit for bit,
        # a numpy scalar for a scalar tau and an array for an array tau
        for gamma in (0.0, 0.005):
            p = ModelParams(k=K, gamma=gamma, theta=0.001)
            for tau, kind in ((5.0, np.generic), (np.linspace(0.0, 4 * np.pi, 9), np.ndarray)):
                st1 = conditioned_state(p, tau)
                assert st1.total_phase == pytest.approx(p.theta + st1.kerr_phase, rel=1e-15, abs=0)
                for view, field in ((coherent_amplitude, st1.varphi),
                                    (coherence_phase, st1.kerr_phase),
                                    (decoherence_factor, st1.decoherence)):
                    value = view(p, tau)
                    assert np.array_equal(value, field), (view.__name__, gamma, tau)
                    assert isinstance(value, kind), (view.__name__, gamma, type(value))

    @pytest.mark.parametrize("gamma", [0.0, 0.005])
    def test_visibility_is_e_to_the_minus_s(self, gamma):
        st1 = conditioned_state(ModelParams(k=K, gamma=gamma, theta=0.001),
                                np.linspace(0.0, 4 * np.pi, 101))
        expected = np.exp(-(np.abs(st1.varphi) ** 2 / 2 + st1.decoherence))
        assert np.array_equal(st1.visibility, expected)
        assert st1.visibility[0] == 1.0 and np.all((st1.visibility > 0) & (st1.visibility <= 1))

    @given(k=ks, gamma=gammas, theta=thetas, tau=taus)
    @example(k=0.25, gamma=0.125, theta=0.0, tau=1e-14)  # bracket rounds below 0
    def test_success_prob_is_a_probability(self, k, gamma, theta, tau):
        s = conditioned_state(ModelParams(k=k, gamma=gamma, theta=theta), tau).success_prob
        assert 0.0 <= s <= 1.0


class TestConditionedMoments:
    def test_views_share_one_evaluation(self):
        p = ModelParams(k=K, gamma=0.005, theta=0.001)
        grid = np.linspace(0.0, 4 * np.pi, 101)
        q, mom, prob = conditioned_moments(p, grid)
        assert np.array_equal(q, mean_q(p, grid))
        assert np.array_equal(mom, mean_p(p, grid))
        assert np.array_equal(prob, conditioned_state(p, grid).success_prob)

    def test_nan_where_the_dark_port_cannot_fire(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q, p, prob = conditioned_moments(ModelParams(k=K), np.array([0.0, 1.0]))
        assert prob[0] == 0.0
        assert np.isnan(q[0]) and np.isnan(p[0])
        assert np.isfinite(q[1]) and np.isfinite(p[1])

    def test_nan_below_the_trace_floor(self):
        # P = k^2 tau^2 / 4 = 6.25e-306 at tau = 1e-150: below the floor at
        # which mean_q raises, so the triple holds NaN moments there too
        p = ModelParams(k=K)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q, mom, prob = conditioned_moments(p, np.array([1e-150]))
        assert 0.0 < prob[0] < TRACE_FLOOR
        assert np.isnan(q[0]) and np.isnan(mom[0])
        with pytest.raises(DegeneratePostselection):
            mean_q(p, 1e-150)

    def test_decay_past_the_float_range(self):
        # gamma tau = 1e400: every decaying exponential is 0, so q + ip = ik/mu
        # with mu = i + gamma/2, and the coherence is fully lost
        p = ModelParams(k=K, gamma=1e100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q, mom, prob = conditioned_moments(p, np.array([1e300]))
        mu_squared = 1 + p.gamma**2 / 4
        assert q[0] == pytest.approx(K / mu_squared, rel=1e-12, abs=0)
        assert mom[0] == pytest.approx(K * p.gamma / 2 / mu_squared, rel=1e-12, abs=0)
        assert prob[0] == 0.5
        # gamma tau = 8.5 with tau near the float maximum: tau + (1 - e^{-gamma tau})/gamma
        # alone passes it; D from a 50-digit evaluation of the bracket
        tiny = ModelParams(k=K, gamma=5e-308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = decoherence_factor(tiny, np.array([1.7e308]))
        assert d[0] == pytest.approx(1.1874745664538736e-4, rel=1e-9, abs=0)

class TestMeanQ:
    @pytest.mark.parametrize("tau", [0.31, 2.0, np.pi, 6.2, 11.7])
    @pytest.mark.parametrize("theta", [0.0, 0.001, -0.001])
    def test_matches_high_precision_transcription(self, tau, theta):
        value = mean_q(ModelParams(k=K, theta=theta), tau)
        assert value == pytest.approx(lf.literal_mean_q(K, theta, tau), rel=1e-11, abs=0)

    def test_shifter_extremum_near_start(self):
        assert mean_q(ModelParams(k=K, theta=0.001), 0.2) == pytest.approx(
            0.99510215, rel=1e-6, abs=0
        )

    def test_first_period_extrema(self):
        p = ModelParams(k=K)
        assert mean_q(p, TWO_PI * (1 + K)) == pytest.approx(1.0, rel=0.02, abs=0)
        assert mean_q(p, TWO_PI * (1 - K)) == pytest.approx(-1.0, rel=0.02, abs=0)

    def test_damping_shrinks_the_extremes(self):
        grid = np.linspace(1e-3, 4 * np.pi, 20001)
        clean = mean_q(ModelParams(k=K), grid)
        damped = mean_q(ModelParams(k=K, gamma=0.005), grid)
        assert damped.max() < clean.max()
        assert abs(damped.min()) < abs(clean.min())

    def test_degenerate_postselection_raises(self):
        with pytest.raises(DegeneratePostselection):
            mean_q(ModelParams(k=K), 0.0)

    def test_bounded_by_ground_state_spread(self):
        grid = np.linspace(1e-4, 8 * np.pi, 100001)
        for k in (0.005, 0.01):
            for theta in (0.0, 0.005, 0.01):
                values = mean_q(ModelParams(k=k, theta=theta), grid)
                assert np.max(np.abs(values)) <= 1 + 1e-9

    def test_extremum_locations_with_shifter(self):
        # predicted: maximum at (1+k)T + theta/k, minimum at (1-k)T - theta/k
        grid = np.linspace(5.0, 7.5, 250001)
        for theta in (0.001, -0.001):
            values = mean_q(ModelParams(k=K, theta=theta), grid)
            t_max = grid[np.argmax(values)]
            t_min = grid[np.argmin(values)]
            assert abs(t_max - ((1 + K) * TWO_PI + theta / K)) < 0.01
            assert abs(t_min - ((1 - K) * TWO_PI - theta / K)) < 0.01

    def test_large_shifter_kills_amplification_near_period(self):
        # amplification zone pinned to +-0.25 around one vibration period
        window = np.linspace(TWO_PI - 0.25, TWO_PI + 0.25, 20001)
        for theta in (K, 2 * K):
            assert np.max(np.abs(mean_q(ModelParams(k=K, theta=theta), window))) < 0.5
        assert np.max(np.abs(mean_q(ModelParams(k=K, theta=0.001), window))) > 0.99


class TestMeanP:
    @pytest.mark.parametrize("tau", [0.5, 2.0, 6.0, 11.475])
    def test_matches_high_precision_transcription(self, tau):
        value = mean_p(ModelParams(k=K), tau)
        assert value == pytest.approx(lf.literal_mean_p(K, 0.0, tau), rel=1e-11, abs=1e-14)

    def test_suppressed_at_displacement_extrema(self):
        p = ModelParams(k=K)
        assert abs(mean_p(p, TWO_PI * (1 + K))) < 0.05
        assert abs(mean_p(p, TWO_PI * (1 - K))) < 0.05

    def test_degenerate_postselection_raises(self):
        with pytest.raises(DegeneratePostselection):
            mean_p(ModelParams(k=K), 0.0)

    def test_momentum_dips_at_vibration_periods(self):
        p = ModelParams(k=K)
        grid = np.linspace(1e-4, 8 * np.pi, 200001)
        magnitude = np.abs(mean_p(p, grid))
        for n in (1, 2, 3):
            dip = magnitude[np.abs(grid - n * TWO_PI) < 0.1].max()
            period = (grid > (n - 0.5) * TWO_PI) & (grid < (n + 0.5) * TWO_PI)
            assert dip < 0.7 * magnitude[period].max()


class TestSmallTimeExpansion:
    def test_coefficients_at_period(self):
        c0, c1 = approx_state_coeffs(ModelParams(k=K), TWO_PI, 1)
        assert c0 == pytest.approx(1j * K**2 * TWO_PI, rel=1e-12, abs=0)
        assert c1 == pytest.approx(0j, abs=1e-18)

    def test_equal_superposition_condition(self):
        tau = TWO_PI * (1 + K)
        c0, c1 = approx_state_coeffs(ModelParams(k=K), tau, 1)
        assert c0 == pytest.approx(1.5707963267948966e-4j, rel=1e-12, abs=0)
        assert c1 == pytest.approx(c0, rel=1e-12, abs=0)

    def test_shifter_coefficients_near_start(self):
        c0, c1 = approx_state_coeffs(ModelParams(k=K, theta=0.001), 0.2, 0)
        assert c0 == pytest.approx(1e-3j, rel=1e-12, abs=0)
        assert c1 == pytest.approx(1e-3j, rel=1e-12, abs=0)

    def test_negative_order_rejected(self):
        # and a non-integral one: 0.5 would expand about T = pi, where no period ends
        for n in (-1, 0.5):
            with pytest.raises(ValueError, match="n must be a non-negative integer"):
                approx_state_coeffs(ModelParams(k=K), 0.1, n)

    def test_displacement_at_period_is_zero(self):
        assert approx_mean_q(ModelParams(k=K), TWO_PI, 1) == 0.0

    def test_displacement_extremes_are_unit(self):
        p = ModelParams(k=K)
        assert approx_mean_q(p, TWO_PI * (1 + K), 1) == pytest.approx(1.0, rel=1e-12, abs=0)
        assert approx_mean_q(p, TWO_PI * (1 - K), 1) == pytest.approx(-1.0, rel=1e-12, abs=0)

    def test_vanishing_coefficients_rejected(self):
        with pytest.raises(ValueError):
            approx_mean_q(ModelParams(k=K), 0.0, 0)

    @given(k=ks, theta=thetas, tau=taus, n=st.integers(min_value=0, max_value=4))
    def test_bounded(self, k, theta, tau, n):
        c0, c1 = approx_state_coeffs(ModelParams(k=k, theta=theta), tau, n)
        if abs(c0) ** 2 + abs(c1) ** 2 == 0.0:
            return
        assert abs(approx_mean_q(ModelParams(k=k, theta=theta), tau, n)) <= 1 + 1e-12

    def test_agrees_with_exact_form_at_extrema(self):
        p = ModelParams(k=K)
        for tau in (TWO_PI * (1 + K), TWO_PI * (1 - K)):
            exact = mean_q(p, tau)
            approx = approx_mean_q(p, tau, 1)
            assert abs(approx - exact) / abs(exact) < 0.05

    def test_agrees_with_exact_form_at_shifter_extrema(self):
        for theta in (0.001, -0.001):
            p = ModelParams(k=K, theta=theta)
            for tau in ((1 + K) * TWO_PI + theta / K, (1 - K) * TWO_PI - theta / K):
                exact = mean_q(p, tau)
                approx = approx_mean_q(p, tau, 1)
                assert abs(approx - exact) / abs(exact) < 0.05


class TestFreeMirror:
    def test_zero_time(self):
        assert free_mirror_displacement(ModelParams(k=K), 0.0) == 0.0

    def test_half_period_reaches_maximum(self):
        assert free_mirror_displacement(ModelParams(k=K), np.pi) == 4 * K

    def test_grid_maximum_is_exactly_4k(self):
        grid = np.append(np.linspace(0, 4 * np.pi, 100001), np.pi)
        assert np.max(free_mirror_displacement(ModelParams(k=K), grid)) == 4 * K


class TestAmplificationFactor:
    @pytest.mark.parametrize("k,expected", [(0.005, 50.0), (0.25, 1.0), (0.01, 25.0)])
    def test_values(self, k, expected):
        assert amplification_factor(ModelParams(k=k)) == expected
