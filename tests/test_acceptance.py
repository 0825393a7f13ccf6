"""End-to-end acceptance checks.

Each criterion runs at its stated tolerance and prints one PASS/FAIL line
(run with ``pytest -s tests/test_acceptance.py`` to see them inline).
Expensive artifacts (figure presets, the full verification grid) are built
once per session and shared.
"""

import time

import numpy as np
import pytest
from scipy.linalg import expm

from optoweak.fockspace import position_quadrature, wigner
from optoweak.lindblad import IntegratorConfig
from optoweak.model import (
    ModelParams,
    amplification_factor,
    approx_mean_q,
    free_mirror_displacement,
    kerr_phase,
    mean_p,
    mean_q,
)
from optoweak.sweeps import figure, verify
from pure_reference import (
    coherent_vector,
    evolve_pure,
    expectation_p,
    expectation_q,
    fidelity,
    initial_joint_state,
    postselect_pure,
)

TWO_PI = 2 * np.pi
K = 0.005


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def figures(tmp_path_factory):
    out = tmp_path_factory.mktemp("figures")
    timings = {}
    for name in ("fig2", "fig5a", "fig5b"):
        start = time.perf_counter()
        figure(name, out)
        timings[name] = time.perf_counter() - start
    return out, timings


@pytest.fixture(scope="module")
def verification():
    stats = {}
    start = time.perf_counter()
    result = verify(tolerance=1e-5, config=IntegratorConfig(dt=1e-3, fock_dim=16),
                    stats=stats)
    elapsed = time.perf_counter() - start
    return result, stats, elapsed


def extremum(cols, lo, hi, sign):
    window = (cols["tau"] >= lo) & (cols["tau"] <= hi)
    taus = cols["tau"][window]
    values = cols["q_over_sigma"][window]
    idx = np.nanargmax(values) if sign > 0 else np.nanargmin(values)
    return taus[idx], values[idx]


def test_criterion_1_displacement_figure(figures):
    out, timings = figures
    clean = np.genfromtxt(out / "fig2_gamma0.csv", delimiter=",", names=True)
    damped = np.genfromtxt(out / "fig2_gamma0.005.csv", delimiter=",", names=True)
    t_max, v_max = extremum(clean, 0.0, 4 * np.pi, +1)
    t_min, v_min = extremum(clean, 0.0, 4 * np.pi, -1)
    in_range = (clean["tau"] >= 0) & (clean["tau"] <= 4 * np.pi)
    d_max = np.nanmax(damped["q_over_sigma"][in_range])
    d_min = np.nanmin(damped["q_over_sigma"][in_range])
    ok = (
        abs(v_max - 1.0) <= 0.02
        and abs(v_min + 1.0) <= 0.02
        and abs(t_max - TWO_PI * (1 + K)) <= 0.01
        and abs(t_min - TWO_PI * (1 - K)) <= 0.01
        and d_max < v_max
        and abs(d_min) < abs(v_min)
        and timings["fig2"] < 5.0
    )
    report(
        1,
        ok,
        f"max {v_max:+.5f} at {t_max:.4f}, min {v_min:+.5f} at {t_min:.4f}; "
        f"damped extremes {d_max:+.4f}/{d_min:+.4f}; {timings['fig2']:.2f}s",
    )


def test_criterion_2_amplification_scale():
    q_factor = amplification_factor(ModelParams(k=K))
    grid = np.append(np.linspace(0.0, 4 * np.pi, 200001), np.pi)
    free_max = np.max(free_mirror_displacement(ModelParams(k=K), grid))
    ok = q_factor == 50.0 and free_max == 4 * K
    report(2, ok, f"1/(4k) = {q_factor}, free-displacement max = {free_max} (4k = {4 * K})")


def test_criterion_3_shifter_figure(figures):
    out, timings = figures
    details = []
    ok = True
    for name, theta in (("fig5a", 0.001), ("fig5b", -0.001)):
        cols = np.genfromtxt(out / f"{name}_gamma0.csv", delimiter=",", names=True)
        sign = 1 if theta > 0 else -1
        t_early, v_early = extremum(cols, 0.0, 1.0, sign)
        t_hi, v_hi = extremum(cols, 5.5, 7.0, +1)
        t_lo, v_lo = extremum(cols, 5.5, 7.0, -1)
        pred_hi = (1 + K) * TWO_PI + theta / K
        pred_lo = (1 - K) * TWO_PI - theta / K
        ok = ok and abs(v_early - sign) <= 0.02 and abs(t_early - 0.2) < 0.05
        ok = ok and abs(t_hi - pred_hi) <= 0.01 and abs(t_lo - pred_lo) <= 0.01
        ok = ok and timings[name] < 5.0
        details.append(
            f"{name}: early {v_early:+.4f}@{t_early:.3f}, "
            f"late peaks @{t_hi:.4f}/{t_lo:.4f} (pred {pred_hi:.4f}/{pred_lo:.4f})"
        )
    report(3, ok, "; ".join(details))


def test_criterion_4_momentum_suppression():
    # Away from tau = 2 n pi the Kerr phase is small against |varphi|, and
    # <p> ~ k (2 sin tau - tau); on [0, 4 pi] its magnitude peaks at
    # tau = 11 pi / 3 with k (11 pi / 3 + sqrt 3).  At the displacement
    # extrema <p> ~ -pi k, so the predicted contrast is about 4.2.
    p = ModelParams(k=K)
    extrema = (TWO_PI * (1 + K), TWO_PI * (1 - K))
    at_plus, at_minus = (abs(mean_p(p, tau)) for tau in extrema)
    grid = np.linspace(1e-4, 4 * np.pi, 400001)
    magnitudes = np.abs(mean_p(p, grid))
    argmax = int(np.argmax(magnitudes))
    global_max = magnitudes[argmax]
    derived_max = K * (11 * np.pi / 3 + np.sqrt(3))
    contrast = global_max / max(at_plus, at_minus)

    fock_dev = 0.0
    for tau in (grid[argmax], *extrema):
        mirror, _ = postselect_pure(evolve_pure(p, tau, initial_joint_state(16)))
        fock_dev = max(fock_dev, abs(expectation_p(mirror) - mean_p(p, tau)))

    report(
        "4 (suppression at extremum times)",
        at_plus < 0.05 and at_minus < 0.05,
        f"|p| = {at_plus:.4f} / {at_minus:.4f} at the displacement extrema (< 0.05)",
    )
    report(
        "4 (momentum scale)",
        abs(global_max / derived_max - 1) < 0.01 and fock_dev < 1e-9,
        f"max |p| over [0, 4pi] = {global_max:.6f} at tau = {grid[argmax]:.4f}, "
        f"derived k(11pi/3 + sqrt3) = {derived_max:.6f} (within 1%); "
        f"exact-Fock dev {fock_dev:.1e} (< 1e-9)",
    )
    report(
        "4 (contrast)",
        contrast >= 3.0,
        f"max |p| / |p| at the extrema = {contrast:.2f} (>= 3; derived "
        f"(11pi/3 + sqrt3)/pi = {derived_max / (np.pi * K):.2f})",
    )


def test_criterion_5_oracle_equivalence(verification):
    result, _, elapsed = verification
    ok = result.passed and result.max_abs_diff < 1e-5 and elapsed < 60.0
    report(
        5,
        ok,
        f"max |analytic - oracle| = {result.max_abs_diff:.3e} over "
        f"{len(result.points)} points (tol 1e-5); {elapsed:.1f}s",
    )


def test_criterion_6_propagator_consistency():
    dim = 16
    p = ModelParams(k=K)
    h = np.kron(np.eye(2), np.diag(np.arange(dim)).astype(complex)) - K * np.kron(
        np.diag([1.0, 0.0]), position_quadrature(dim)
    )
    joint = initial_joint_state(dim)
    rng = np.random.default_rng(11)
    worst_fid = 1.0
    for tau in rng.uniform(0.0, 8 * np.pi, size=20):
        direct = expm(-1j * h * tau) @ joint.ravel()
        factored = evolve_pure(p, tau, joint).ravel()
        worst_fid = min(worst_fid, fidelity(direct, factored))

    taus = np.linspace(0.05, 4 * np.pi, 120)
    worst_state = 0.0
    worst_q = 0.0
    for tau in taus:
        mirror, prob = postselect_pure(evolve_pure(p, tau, initial_joint_state(dim)))
        expected = np.exp(1j * kerr_phase(p, tau)) * coherent_vector(
            complex(K * (1 - np.exp(-1j * tau))), dim
        )
        expected[0] -= 1.0
        expected /= 2.0
        worst_state = max(worst_state, float(np.max(np.abs(mirror - expected))))
        if prob > 1e-12:
            worst_q = max(worst_q, abs(expectation_q(mirror) - mean_q(p, tau)))
    ok = worst_fid > 1 - 1e-9 and worst_state < 1e-9 and worst_q < 1e-9
    report(
        6,
        ok,
        f"propagator fidelity >= {worst_fid:.12f}; conditioned-state dev "
        f"{worst_state:.2e}; displacement dev {worst_q:.2e}",
    )


def test_criterion_7_small_time_expansion():
    p = ModelParams(k=K)
    rel_errs = []
    fidelities = []
    for sign in (+1, -1):
        tau = TWO_PI * (1 + sign * K)
        exact = mean_q(p, tau)
        rel_errs.append(abs(approx_mean_q(p, tau, 1) - exact) / abs(exact))
        mirror, _ = postselect_pure(evolve_pure(p, tau, initial_joint_state(16)))
        target = np.zeros(16, complex)
        target[0], target[1] = 1 / np.sqrt(2), sign / np.sqrt(2)
        fidelities.append(fidelity(target, mirror))
    ok = max(rel_errs) < 0.05 and min(fidelities) > 0.999
    report(
        7,
        ok,
        f"expansion vs exact rel err {max(rel_errs):.4%} (< 5%); "
        f"equal-superposition fidelity {min(fidelities):.6f} (> 0.999)",
    )


def test_criterion_8_wigner_convention():
    window = (-4.0, 4.0, 201)
    vac = np.zeros(16, complex)
    vac[0] = 1
    one = np.zeros(16, complex)
    one[1] = 1
    minus = np.zeros(16, complex)
    minus[0], minus[1] = 1 / np.sqrt(2), -1 / np.sqrt(2)
    center = 100
    w_vac = wigner(vac, window, window).values[center, center]
    w_one = wigner(one, window, window).values[center, center]
    g_minus = wigner(minus, window, window)
    w_minus = g_minus.values[center, center]
    integral = g_minus.integral()
    ok = (
        abs(w_vac - 2 / np.pi) < 1e-8
        and abs(w_one + 2 / np.pi) < 1e-8
        and abs(w_minus) < 1e-8
        and g_minus.values.min() < 0
        and abs(integral - 1.0) < 1e-2
    )
    report(
        8,
        ok,
        f"origin: {w_vac:.6f}/{w_one:.6f}/{w_minus:.1e} vs ±2/pi, 0; "
        f"min {g_minus.values.min():.4f} < 0; integral {integral:.4f}",
    )


def test_criterion_9_physicality_along_the_flow(verification):
    _, stats, _ = verification
    ok = (
        stats["trace_drift"] < 1e-8
        and stats["hermiticity_dev"] < 1e-9
        and stats["min_eigenvalue"] > -1e-8
    )
    report(
        9,
        ok,
        f"trace drift {stats['trace_drift']:.2e} (< 1e-8), hermiticity "
        f"{stats['hermiticity_dev']:.2e} (< 1e-9), min eigenvalue "
        f"{stats['min_eigenvalue']:.2e} (> -1e-8)",
    )
