"""Acceptance suite: one test per shipped guarantee, each printing a
single PASS line with the measured numbers.

Heavy artifacts (the two continued branches) are computed once per module
and shared; their wall time is charged to the branch criteria."""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from flamefront.bifurcation import (
    cubic_discriminant,
    linear_bifurcation_alpha,
    nonlinear_bifurcation_alpha,
    sylvester_matrix,
    transversality_resultant,
)
from flamefront.evolution import (
    EvolutionState,
    evolve,
    stability_probe,
)
from flamefront.geometry import min_nonadjacent_gap, reconstruct_curve
from flamefront.model import (
    ModelKind,
    WaveParams,
    dispersion_linear,
    kinematics,
    unstable_modes,
)
from flamefront.solver import (
    continue_branch,
    flat_solution,
    quasi_newton_solve,
    residual_at_resolution,
)
from flamefront.spectral import (
    ThetaProfile,
    deriv,
    grid,
    sine_coeffs,
)
from flamefront.bifurcation import asymptotic_guess


def q_poly(alpha, k0):
    return (alpha - 1.0) - k0 * k0 * alpha * alpha * (alpha + 3.0)


@pytest.fixture(scope="module")
def linear_branch():
    t0 = time.perf_counter()
    rec = continue_branch(1, ModelKind.LINEAR, 0.05, 10.0)
    return rec, time.perf_counter() - t0


@pytest.fixture(scope="module")
def nonlinear_branch():
    t0 = time.perf_counter()
    rec = continue_branch(1, ModelKind.NONLINEAR, 0.02, 10.0)
    return rec, time.perf_counter() - t0


def test_criterion_1_linear_bifurcation_points():
    linear_bifurcation_alpha(1)  # warm up before timing
    t0 = time.perf_counter()
    values = [linear_bifurcation_alpha(k0) for k0 in (1, 2, 3)]
    elapsed = time.perf_counter() - t0
    assert values == [5.0, 17.0, 37.0]
    assert all(v == int(v) for v in values)
    assert elapsed < 1e-3
    print(f"\nPASS criterion 1: alpha0 = {values} for k0 = 1, 2, 3 ({elapsed * 1e6:.0f} us)")


def test_criterion_2_nonlinear_bifurcation_points():
    expected = {1: -3.383, 2: -3.1064, 3: -3.0484}
    nonlinear_bifurcation_alpha(1)  # warm up before timing
    roots = {}
    for k0, target in expected.items():
        t0 = time.perf_counter()
        alpha0 = nonlinear_bifurcation_alpha(k0)
        elapsed = time.perf_counter() - t0
        assert abs(alpha0 - target) < 1e-3
        assert abs(q_poly(alpha0, k0)) < 1e-12
        assert elapsed < 1e-3
        roots[k0] = alpha0
    print(
        "\nPASS criterion 2: alpha0 = "
        + ", ".join(f"{a:.6f} (k0={k})" for k, a in roots.items())
        + ", |q(alpha0)| < 1e-12"
    )


def test_criterion_3_certificates_k0_sweep():
    cubic_discriminant(1), transversality_resultant(1)  # warm up before timing
    np.linalg.det(sylvester_matrix(1))
    t0 = time.perf_counter()
    for k0 in range(1, 101):
        disc = cubic_discriminant(k0)
        res = transversality_resultant(k0)
        det = np.linalg.det(sylvester_matrix(k0))
        assert disc < 0.0
        assert res > 0.0
        assert abs(det - res) <= 1e-9 * abs(res)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10e-3
    print(
        f"\nPASS criterion 3: disc < 0, resultant > 0, closed form matches "
        f"determinant to 1e-9 for k0 = 1..100 ({elapsed * 1e3:.1f} ms)"
    )


def test_criterion_4_small_amplitude_agreement():
    t0 = time.perf_counter()
    hs = (0.02, 0.05, 0.1)
    waves = {}
    for h in hs:
        guess = asymptotic_guess(1, h, ModelKind.LINEAR)
        waves[h] = quasi_newton_solve(guess, h, ModelKind.LINEAR, k0=1)
    elapsed = time.perf_counter() - t0
    for h, sol in waves.items():
        assert sol.residual_norm < 1e-10
    # proportional fit of beta - 1 against h^2
    h2 = np.array([h * h for h in hs])
    db = np.array([waves[h].beta - 1.0 for h in hs])
    slope = float(np.dot(db, h2) / np.dot(h2, h2))
    assert abs(slope - 0.25) < 0.02
    b2 = sine_coeffs(waves[0.05].theta)[1]
    target = -(0.05**2) / 96.0
    assert abs(b2 - target) <= 0.1 * abs(target)
    assert elapsed < 5.0
    print(
        f"\nPASS criterion 4: residuals < 1e-10, (beta-1)/h^2 slope = {slope:.4f}, "
        f"sin 2s coefficient = {b2:.3e} vs {target:.3e} ({elapsed:.2f} s)"
    )


def test_criterion_5_dispersion_evolution_cross_check():
    alpha = 17.0
    t0 = time.perf_counter()
    fitted = {}
    for k, t_end in ((1, 0.1), (2, 0.1), (3, 0.05)):
        nx = 64
        state = EvolutionState.from_theta(
            ThetaProfile.from_values(1e-6 * np.sin(k * grid(nx)))
        )
        dt = 1e-5
        n = int(round(t_end / dt))
        times = np.empty(n)
        amps = np.empty(n)

        def record(s, i=[0]):
            times[i[0]] = s.time
            amps[i[0]] = sine_coeffs(s.theta)[k - 1]
            i[0] += 1

        evolve(state, alpha, dt, n, observer=record)
        slope = np.polyfit(times, np.log(np.abs(amps)), 1)[0]
        fitted[k] = slope
    elapsed = time.perf_counter() - t0
    for k in (1, 2, 3):
        lam = dispersion_linear(alpha, k)
        # 1% relative, with an absolute floor where the exact rate is zero
        tol = max(0.01 * abs(lam), 0.01)
        assert abs(fitted[k] - lam) <= tol
    assert elapsed < 30.0
    rates = ", ".join(f"{fitted[k]:.4f} (exact {dispersion_linear(alpha, k):g})" for k in (1, 2, 3))
    print(f"\nPASS criterion 5: fitted rates {rates} at alpha = 17 ({elapsed:.2f} s)")


def test_criterion_6_flat_state_stability_census():
    assert unstable_modes(5.0) == []
    assert unstable_modes(17.0) == [1]
    assert unstable_modes(37.0) == [1, 2]
    t0 = time.perf_counter()
    est17 = stability_probe(flat_solution(17.0))
    est37 = stability_probe(flat_solution(37.0))
    elapsed = time.perf_counter() - t0
    assert est17.observed and abs(est17.rate - 12.0) <= 0.5
    assert est37.observed and abs(est37.rate - 80.0) <= 4.0
    assert elapsed < 60.0
    print(
        f"\nPASS criterion 6: census {{}}/{{1}}/{{1,2}}, probe rates "
        f"{est17.rate:.3f} (12 +- 0.5) and {est37.rate:.3f} (80 +- 4) ({elapsed:.2f} s)"
    )


def test_criterion_7_linear_branch_self_intersection(linear_branch):
    rec, elapsed = linear_branch
    assert rec.termination == "self-intersection"
    terminal = rec.solutions[-1]
    assert np.max(np.abs(terminal.theta.values)) > np.pi / 2.0
    assert elapsed < 600.0
    print(
        f"\nPASS criterion 7: linear k0=1 branch ended by {rec.termination} at "
        f"h = {terminal.amplitude:.3f} with max|theta| = "
        f"{np.max(np.abs(terminal.theta.values)):.3f} > pi/2 ({elapsed:.2f} s)"
    )


def test_criterion_8_nonlinear_branch_confinement(nonlinear_branch):
    rec, elapsed = nonlinear_branch
    alphas = [s.alpha for s in rec.solutions]
    assert all(a < -3.0 for a in alphas)
    assert all(a < b for a, b in zip(alphas, alphas[1:]))
    assert abs(alphas[0] - (-3.383)) < 0.01
    assert rec.termination in ("iteration-failure", "alpha-threshold")
    assert elapsed < 600.0
    print(
        f"\nPASS criterion 8: nonlinear k0=1 branch alpha rose "
        f"{alphas[0]:.4f} -> {alphas[-1]:.4f}, all < -3, "
        f"terminated by {rec.termination} ({elapsed:.2f} s)"
    )


# (h, alpha, beta, L) of every wave of the two k0 = 1 branches and the
# reason each branch ended, recorded with 17 digits
REFERENCE_BRANCHES = Path(__file__).parent / "data" / "branches_k0_1.json"


def test_branches_match_reference_tables(linear_branch, nonlinear_branch):
    reference = json.loads(REFERENCE_BRANCHES.read_text())
    worst = 0.0
    for rec, _ in (linear_branch, nonlinear_branch):
        expected = reference[rec.kind.value]
        table = np.array(expected["h_alpha_beta_L"])
        assert rec.termination == expected["termination"]
        # the same h list, as the wave file names spell it
        assert [f"{s.amplitude:.6f}" for s in rec.solutions] == [f"{h:.6f}" for h in table[:, 0]]
        got = np.array([[s.amplitude, s.alpha, s.beta, s.length] for s in rec.solutions])
        np.testing.assert_allclose(got[:, 1:], table[:, 1:], rtol=1e-10, atol=0)
        worst = max(worst, float(np.max(np.abs(got[:, 1:] / table[:, 1:] - 1.0))))
    print(
        f"\nPASS reference branches: {len(linear_branch[0].solutions)} linear and "
        f"{len(nonlinear_branch[0].solutions)} nonlinear waves, same h and termination, "
        f"alpha, beta, L within {worst:.1e} relative"
    )


def test_criterion_9_property_suite(linear_branch, nonlinear_branch):
    t0 = time.perf_counter()

    # spectral round trip and Parseval at 1e-12
    rng = np.random.default_rng(7)
    vals = rng.standard_normal(256)
    p = ThetaProfile.from_values(vals)
    back = ThetaProfile.from_coeffs(p.coeffs)
    assert np.max(np.abs(back.values - vals)) < 1e-12
    weights = np.full(129, 2.0)
    weights[[0, -1]] = 1.0
    assert abs(np.sum(weights * np.abs(p.coeffs) ** 2) - np.sum(vals**2) / 256) < 1e-12

    # traveling identity and resolution audit on every converged wave
    for rec, _ in (linear_branch, nonlinear_branch):
        for sol in rec.solutions:
            params = WaveParams(sol.alpha, sol.beta, sol.length)
            kin = kinematics(sol.theta, params)
            theta_s = deriv(sol.theta, 1).values
            v_s = deriv(ThetaProfile.from_values(kin.v), 1).values
            bound = 1e-8 * np.max(np.abs(theta_s))
            assert np.max(np.abs(v_s - theta_s * kin.u)) <= bound
            assert residual_at_resolution(sol, 2 * sol.theta.nx) < 1e-8

    # geometry: vectorized gap scan equals the plain double loop
    curve = reconstruct_curve(linear_branch[0].solutions[-1].theta)
    n = curve.nx
    pts = np.stack([curve.x[:n], curve.y[:n]], axis=1)
    shift = np.array([2.0 * np.pi, 0.0])
    best = np.inf
    for i in range(n):
        for j in range(n):
            if i < j and min(j - i, n - (j - i)) >= 2:
                best = min(best, float(np.hypot(*(pts[i] - pts[j]))))
            if n + j - i >= 2:
                best = min(best, float(np.hypot(*(pts[i] - pts[j] - shift))))
    assert min_nonadjacent_gap(curve) == pytest.approx(best, rel=1e-14)

    # SBDF2 order: halving dt cuts the error by about 4 on a smooth
    # reference run (alpha = 5 keeps mode 1 neutral)
    state = EvolutionState.from_theta(
        ThetaProfile.from_values(1e-2 * np.sin(grid(64)))
    )

    def norm_after(n_steps, t_end=0.1):
        out = evolve(state, 5.0, t_end / n_steps, n_steps)
        return np.max(np.abs(out.theta.values))

    fine = norm_after(3200)
    ratio = abs(norm_after(100) - fine) / abs(norm_after(200) - fine)
    assert 0.8 * 4.0 <= ratio <= 1.2 * 4.0

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(
        f"\nPASS criterion 9: round trip/Parseval 1e-12, traveling identity and "
        f"doubled-nx residual on {len(linear_branch[0].solutions) + len(nonlinear_branch[0].solutions)} "
        f"waves, gap scan equality, SBDF2 ratio {ratio:.2f} ({elapsed:.2f} s)"
    )


def test_qualitative_trend_subharmonic_rates():
    # small-amplitude waves on the k0 = 2, 3 branches inherit the flat
    # state's fastest instability at their alpha
    results = {}
    for k0, flat_rate in ((2, 12.0), (3, 80.0)):
        guess = asymptotic_guess(k0, 0.05, ModelKind.LINEAR)
        sol = quasi_newton_solve(guess, 0.05, ModelKind.LINEAR, k0=k0)
        est = stability_probe(sol)
        assert est.observed
        assert abs(est.rate - flat_rate) <= 0.1 * flat_rate
        results[k0] = est.rate
    print(
        f"\nPASS trend check: k0=2 wave rate {results[2]:.3f} (flat 12), "
        f"k0=3 wave rate {results[3]:.3f} (flat 80), both within 10%"
    )
