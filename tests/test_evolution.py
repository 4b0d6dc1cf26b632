import numpy as np
import pytest

from flamefront.errors import BlowUpError, UnsupportedModelError
from flamefront.evolution import (
    EvolutionState,
    StabilityProbeConfig,
    evolve,
    imex_step,
    stability_probe,
    theta_rhs,
)
from flamefront.model import ModelKind, WaveParams, dispersion_linear
from flamefront.solver import flat_solution, quasi_newton_solve
from flamefront.spectral import ThetaProfile, grid, sine_coeffs


def single_mode_state(eps, k, nx=64):
    p = ThetaProfile.from_values(eps * np.sin(k * grid(nx)))
    return EvolutionState.from_theta(p)


def mode_amplitude(state, k):
    return sine_coeffs(state.theta)[k - 1]


def test_flat_state_is_fixed_point():
    state = EvolutionState.from_theta(ThetaProfile.from_values(np.zeros(64)))
    rhs, length_rate = theta_rhs(state, 17.0)
    np.testing.assert_allclose(rhs, 0.0, rtol=0, atol=1e-14)
    assert abs(length_rate) < 1e-14
    out = evolve(state, 17.0, 1e-3, 10)
    np.testing.assert_allclose(out.theta.values, 0.0, rtol=0, atol=1e-13)
    assert out.length == pytest.approx(2.0 * np.pi, rel=1e-13)
    assert out.time == pytest.approx(0.01, rel=1e-12)


def test_single_mode_decay_rate():
    # mode 3 at alpha = 17 decays like exp(-180 t) in the linearized regime
    state = single_mode_state(1e-6, 3)
    t = 0.01
    n = 400
    out = evolve(state, 17.0, t / n, n)
    expected = 1e-6 * np.exp(dispersion_linear(17.0, 3) * t)
    assert mode_amplitude(out, 3) == pytest.approx(expected, rel=2e-2)


def test_single_mode_growth_rate():
    # mode 1 at alpha = 17 grows like exp(12 t)
    state = single_mode_state(1e-6, 1)
    t = 0.05
    n = 2000
    out = evolve(state, 17.0, t / n, n)
    expected = 1e-6 * np.exp(12.0 * t)
    assert mode_amplitude(out, 1) == pytest.approx(expected, rel=2e-2)


def test_neutral_mode_stays_put():
    # mode 2 at alpha = 17 sits exactly on the neutral circle
    state = single_mode_state(1e-6, 2)
    out = evolve(state, 17.0, 1e-4, 500)
    assert mode_amplitude(out, 2) == pytest.approx(1e-6, rel=1e-3)


def test_second_order_accuracy():
    # Richardson: halving dt shrinks the error by about four once the
    # two-step scheme is active.  alpha = 5 keeps mode 1 neutral, so the
    # reference stays smooth over the whole interval.
    state = single_mode_state(1e-2, 1, nx=64)
    t = 0.1

    def final_norm(n_steps):
        out = evolve(state, 5.0, t / n_steps, n_steps)
        return np.max(np.abs(out.theta.values))

    fine = final_norm(3200)
    err_coarse = abs(final_norm(100) - fine)
    err_half = abs(final_norm(200) - fine)
    assert 3.2 < err_coarse / err_half < 4.8


def test_traveling_wave_is_steady(linear_wave_small):
    # the residual of a converged wave is the co-moving time derivative
    sol = linear_wave_small
    state = EvolutionState(theta=sol.theta, length=sol.length)
    rhs, length_rate = theta_rhs(state, sol.alpha)
    assert np.max(np.abs(rhs)) < 1e-6
    assert abs(length_rate) < 1e-8
    out = evolve(state, sol.alpha, 1e-4, 1000)
    assert np.max(np.abs(out.theta.values - sol.theta.values)) < 1e-5
    assert out.length == pytest.approx(sol.length, abs=1e-10)


def test_blow_up_detection():
    # far above every bifurcation point the front steepens without bound
    state = single_mode_state(0.1, 1)
    with pytest.raises(BlowUpError) as info:
        evolve(state, 1e4, 1e-3, 100)
    assert info.value.time is not None
    assert info.value.time <= 0.1


def test_dt_validation():
    state = single_mode_state(0.1, 1)
    with pytest.raises(ValueError):
        imex_step(state, 17.0, 0.0)
    with pytest.raises(ValueError):
        imex_step(state, 17.0, -1e-4)


def test_restart_after_dt_change():
    # changing dt discards the two-step history instead of mixing steps
    state = single_mode_state(1e-4, 1)
    state = evolve(state, 17.0, 1e-4, 3)
    out = imex_step(state, 17.0, 5e-5)
    assert out.time == pytest.approx(3e-4 + 5e-5, rel=1e-12)
    assert np.isfinite(out.theta.values).all()


def test_probe_matches_dispersion_alpha17(flat17_probe):
    est = flat17_probe
    assert est.observed
    assert est.rate == pytest.approx(12.0, abs=0.5)
    assert est.note == ""
    assert est.window[0] < est.window[1]
    assert len(est.times) == len(est.norms)


def test_probe_stable_case_flagged():
    # alpha = 5 sits at the neutral point: d(t) never gains two decades
    est = stability_probe(
        flat_solution(5.0, nx=64),
        StabilityProbeConfig(dt=1e-3, t_max=0.5),
    )
    assert not est.observed
    assert "no instability observed" in est.note


@pytest.mark.parametrize(
    "settings",
    [{"dt": 0.0}, {"dt": -1.0}, {"t_max": 0.0}, {"delta": 0.0}, {"dt": float("nan")}, {"t_max": 1e-5}],
)
def test_probe_config_validation(settings):
    with pytest.raises(ValueError):
        StabilityProbeConfig(**settings)


def test_probe_rejects_nonlinear_wave():
    with pytest.raises(UnsupportedModelError):
        stability_probe(flat_solution(-3.3, nx=64, kind=ModelKind.NONLINEAR))


def test_probe_no_aliasing(flat17_probe):
    # the probe stays in the linear regime: spectral tail keeps no energy
    est = flat17_probe
    assert est.norms[-1] < 1e-2


def test_probe_growth_window_anchoring(flat17_probe):
    # fitting below 10*delta would see the linear-in-t transient; the
    # window must start only after a full decade of growth
    est = flat17_probe
    t0, t1 = est.window
    d_start = est.norms[np.searchsorted(est.times, t0)]
    assert d_start >= 10.0 * 1e-8 * 0.99
    assert t1 <= 1.0
