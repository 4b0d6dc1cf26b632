import dataclasses
import re
import warnings

import numpy as np
import pytest

from flamefront.bifurcation import asymptotic_guess
from flamefront.errors import BlowUpError, UnsupportedModelError
from flamefront.evolution import (
    _ODD_MAX_NX,
    _ODD_ULPS,
    _THETA_BLOWUP,
    EvolutionState,
    StabilityProbeConfig,
    _maps,
    _odd_maps,
    _OddMaps,
    _check_blowup,
    _probe_start,
    _step_maps,
    evolve,
    imex_step,
    stability_probe,
    theta_rhs,
)
from flamefront.model import ModelKind, WaveParams, dispersion_linear
from flamefront.solver import flat_solution, quasi_newton_solve
from flamefront.spectral import ThetaProfile, from_sine_coeffs, grid, resample, sine_coeffs


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


def test_blow_up_of_the_starting_state():
    # refused at the start time, before a step can overflow on it
    state = single_mode_state(1e110, 1)
    wave = dataclasses.replace(flat_solution(5.0, nx=64), theta=state.theta, amplitude=1e110)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BlowUpError, match=r"exceeded 1000 at t = 0$") as info:
            evolve(state, 5.0, 1e-3, 0)
        assert info.value.time == 0.0
        with pytest.raises(BlowUpError, match=r"exceeded 1000 at t = 0$"):
            stability_probe(wave, StabilityProbeConfig(dt=1e-3, t_max=0.01))


def test_overflow_in_a_step_is_a_blow_up():
    # a finite but huge alpha overflows the first step: refused as a
    # blow-up, with no numpy warning (the suite turns warnings into errors)
    # and numpy's error state left as it was
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BlowUpError, match=r"^theta is not finite at t = 0.001$") as info:
            stability_probe(flat_solution(1e308, nx=64), StabilityProbeConfig(dt=1e-3, t_max=0.01))
    assert info.value.time == pytest.approx(1e-3)
    assert np.geterr() == before


@pytest.mark.parametrize(
    "values, match",
    [
        (np.full(64, _THETA_BLOWUP), None),
        # far above the sum-of-squares bound, but no entry exceeds the
        # threshold: the exact max decides
        (np.full(33, 999.0), None),
        (np.append(np.zeros(63), np.nextafter(_THETA_BLOWUP, np.inf)), r"^max\|theta\| = 1\.000e\+03 exceeded 1000 at t = 0\.5$"),
        (np.full(129, -_THETA_BLOWUP), None),
        # the sum of squares overflows: no RuntimeWarning, a blow-up
        (np.full(64, 1e200), r"^max\|theta\| = 1\.000e\+200 exceeded 1000 at t = 0\.5$"),
        (np.append(np.zeros(32), np.inf), r"^theta is not finite at t = 0\.5$"),
        (np.append(np.zeros(32), np.nan), r"^theta is not finite at t = 0\.5$"),
    ],
    ids=["at-threshold", "33-at-999", "next-above", "negative-threshold", "overflowing-sum", "inf", "nan"],
)
def test_blow_up_check_around_its_sum_of_squares_test(values, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if match is None:
            assert _check_blowup(values, 0.5) is None
        else:
            with pytest.raises(BlowUpError, match=match) as info:
                _check_blowup(values, 0.5)
            assert info.value.time == 0.5


@pytest.mark.parametrize("length", [1e-90, 1e100, 0.0, -1.0, float("nan"), float("inf")])
def test_a_length_without_a_finite_stiffness_is_refused(length):
    # 4*(2*pi/L)^4 underflows its denominator or overflows: refused before
    # any step, as a ValueError naming L, with no Python or numpy error
    state = EvolutionState(single_mode_state(1e-3, 1).theta, length)
    match = rf"^L must be positive and finite .*, got {re.escape(repr(length))}$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            evolve(state, 17.0, 1e-5, 3)
        with pytest.raises(ValueError, match=match):
            imex_step(state, 17.0, 1e-5)
        with pytest.raises(ValueError, match=match):
            theta_rhs(state, 17.0)


def test_a_length_that_leaves_the_range_mid_run_is_a_blow_up():
    # a unit step of 0.1 sin 5 sigma at alpha 1 shrinks L through zero
    state = EvolutionState(single_mode_state(0.1, 5).theta, 2.0 * np.pi)
    seen = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BlowUpError, match=r"^L = -\d\.\d{3}e\+01 left the range .* at t = 1$") as info:
            evolve(state, 1.0, 1.0, 3, observer=seen.append)
    assert info.value.time == 1.0
    assert seen == []


def test_dt_validation():
    state = single_mode_state(0.1, 1)
    with pytest.raises(ValueError):
        imex_step(state, 17.0, 0.0)
    with pytest.raises(ValueError):
        imex_step(state, 17.0, -1e-4)


@pytest.mark.parametrize(
    "alpha, dt, name",
    [
        (17.0, float("nan"), "dt"),
        (17.0, float("inf"), "dt"),
        (float("nan"), 1e-4, "alpha"),
        (float("-inf"), 1e-4, "alpha"),
    ],
)
def test_step_rejects_non_finite_arguments(alpha, dt, name):
    # rejected before any arithmetic: no RuntimeWarning, no BlowUpError
    state = single_mode_state(0.1, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{name} must be"):
            imex_step(state, alpha, dt)


def test_evolve_rejects_negative_step_count():
    state = single_mode_state(0.1, 1)
    with pytest.raises(ValueError, match="n_steps"):
        evolve(state, 17.0, 1e-4, -1)
    assert evolve(state, 17.0, 1e-4, 0) is state


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
    [
        {"dt": 0.0},
        {"dt": -1.0},
        {"t_max": 0.0},
        {"delta": 0.0},
        {"dt": float("nan")},
        {"t_max": 1e-5},
        {"t_max": float("inf")},
        {"delta": float("inf")},
        # t_max/dt overflows to inf: no step count, not an OverflowError
        {"dt": 1e-300, "t_max": 1e300},
    ],
)
def test_probe_config_validation(settings):
    with pytest.raises(ValueError):
        StabilityProbeConfig(**settings)


def test_a_huge_t_max_stops_at_the_usual_window():
    # the probe keeps one entry per step taken, so a t_max of 1e13 steps
    # stops where t_max = 1 stops, with the same record
    short, huge = (stability_probe(flat_solution(17.0, nx=64), StabilityProbeConfig(t_max=t)) for t in (1.0, 1e9))
    assert short.observed and huge.observed
    assert huge.window == short.window and huge.rate == short.rate
    np.testing.assert_array_equal(huge.times, short.times)
    np.testing.assert_array_equal(huge.norms, short.norms)


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


# The four probes of the benchmark's stability workload.  The step count
# and window sit on a threshold crossing of d(t), so they pin the probe's
# path: a change to the step's arithmetic must keep them exactly.


def _pinned_path(est, steps, window, rate):
    assert est.observed
    assert len(est.times) == steps
    assert est.window == window
    assert est.rate == pytest.approx(rate, rel=1e-9)


def test_flat_alpha17_probe_keeps_its_path(flat17_probe):
    _pinned_path(flat17_probe, 5759, (0.1998999999999943, 0.5758999999999529), 12.1899025396754)


def _linear_wave(k0):
    guess = asymptotic_guess(k0, 0.05, ModelKind.LINEAR)
    return quasi_newton_solve(guess, 0.05, ModelKind.LINEAR, k0=k0)


@pytest.mark.parametrize(
    "wave, steps, window, rate",
    [
        (lambda: flat_solution(37.0), 863, (0.028699999999999882, 0.08630000000000144), 79.64749291950605),
        (lambda: _linear_wave(2), 5751, (0.19959999999999434, 0.575099999999953), 12.205194258792469),
        (lambda: _linear_wave(3), 863, (0.028699999999999882, 0.08630000000000144), 79.63413642299884),
    ],
    ids=["flat-alpha-37", "k0-2-wave", "k0-3-wave"],
)
def test_benchmark_probe_keeps_its_path(wave, steps, window, rate):
    _pinned_path(stability_probe(wave()), steps, window, rate)


# The stepper's arithmetic before it moved to the rfft half spectrum: full
# complex FFTs, one transform per derivative, kept here in plain numpy as
# the oracle for the half-spectrum theta_rhs and imex_step.  It takes the
# full spectrum in FFT order, built from a state's half spectrum by
# full_spectrum.


def full_spectrum(half):
    """Hermitian completion: the negative modes of a real profile."""
    return np.concatenate((half, np.conj(half[-2:0:-1])))


def _oracle_deriv(coeffs, order):
    nx = coeffs.size
    c = coeffs * (1j * np.fft.fftfreq(nx, d=1.0 / nx)) ** order
    if order % 2 == 1:
        c[nx // 2] = 0.0
    return c


def _oracle_values(coeffs):
    return np.real(np.fft.ifft(coeffs)) * coeffs.size


def _oracle_coeffs(values):
    return np.fft.fft(values) / values.size


def oracle_rhs(coeffs, length, alpha):
    nx = coeffs.size
    n = np.fft.fftfreq(nx, d=1.0 / nx)
    s_sigma = length / (2.0 * np.pi)
    theta_s = _oracle_values(_oracle_deriv(coeffs, 1))
    kappa = theta_s / s_sigma
    kappa_ss = _oracle_values(_oracle_deriv(coeffs, 3)) / s_sigma**3
    u = -(1.0 + (alpha - 1.0) * kappa + 4.0 * kappa_ss)
    flux = theta_s * u
    length_rate = -2.0 * np.pi * float(np.mean(flux))
    w = _oracle_coeffs(flux + length_rate / (2.0 * np.pi))
    anti = np.zeros_like(w)
    anti[n != 0] = w[n != 0] / (1j * n[n != 0])
    anti[nx // 2] = 0.0
    v = _oracle_values(anti)
    u_s = _oracle_values(_oracle_deriv(_oracle_coeffs(u), 1))
    return (u_s + (v - v[0]) * theta_s) / s_sigma, length_rate


def oracle_step(coeffs, length, prev, alpha, dt):
    """One IMEX Euler (prev None or another dt) or SBDF2 step; returns the
    new full spectrum, the new length and the history for the next step."""
    n4 = np.fft.fftfreq(coeffs.size, d=1.0 / coeffs.size) ** 4
    dtheta, length_rate = oracle_rhs(coeffs, length, alpha)
    q4 = (2.0 * np.pi / length) ** 4
    nonstiff = _oracle_coeffs(dtheta) + 4.0 * q4 * n4 * coeffs
    if prev is None or prev[4] != dt:
        new = (coeffs + dt * nonstiff) / (1.0 + 4.0 * dt * q4 * n4)
        new_length = length + dt * length_rate
    else:
        p_coeffs, p_nonstiff, p_length, p_rate, _ = prev
        new = (4.0 * coeffs - p_coeffs + 2.0 * dt * (2.0 * nonstiff - p_nonstiff)) / (
            3.0 + 8.0 * dt * q4 * n4
        )
        new_length = (4.0 * length - p_length + 2.0 * dt * (2.0 * length_rate - p_rate)) / 3.0
    return new, new_length, (coeffs, nonstiff, length, length_rate, dt)


def oracle_history(state):
    """The general-path history a state carries, as oracle_step takes it."""
    prev = state.prev
    return full_spectrum(prev.theta_hat), full_spectrum(prev.nonstiff_hat), prev.length, prev.length_rate, prev.dt


def random_state(rng, nx, scale=0.05):
    """Random profile over the whole band, Nyquist mode included, with a
    spectrum that falls off smoothly towards it."""
    n = np.arange(nx // 2 + 1)
    half = scale * np.exp(-4.0 * n / nx) * (rng.normal(size=n.size) + 1j * rng.normal(size=n.size))
    half[0] = 0.0
    half[-1] = half[-1].real
    values = np.fft.irfft(half, n=nx, norm="forward")
    return EvolutionState.from_theta(ThetaProfile.from_values(values))


@pytest.fixture(scope="module")
def linear_wave_h03():
    guess = asymptotic_guess(1, 0.3, ModelKind.LINEAR)
    return quasi_newton_solve(guess, 0.3, ModelKind.LINEAR, k0=1)


def test_multipliers_cached_read_only_and_zeroed_at_nyquist():
    for nx in (64, 256):
        table = _maps(nx)
        assert _maps(nx) is table
        half = nx // 2 + 1
        n = np.arange(half)
        assert table.rows.shape == (3, half)
        np.testing.assert_array_equal(table.rows[:, :-1], (1j * n[:-1]) ** np.array([[0], [1], [3]]))
        # the values row keeps the Nyquist mode, the derivative rows drop it
        np.testing.assert_array_equal(table.rows[:, -1], [1.0, 0.0, 0.0])
        # gains and n4 act on the complex half spectrum: one value per mode
        assert table.gains.shape == (2, half) and table.n4.shape == (half,)
        assert table.gains.dtype == float and table.n4.dtype == float
        np.testing.assert_array_equal(table.gains[0, :-1], n[:-1].astype(float) ** 2)
        assert table.gains[0, -1] == 0.0
        np.testing.assert_array_equal(table.gains[1, :-1], 0.0)
        assert table.gains[1, -1] == (nx // 2) ** 4
        assert table.inv_in[0] == 0.0 and table.inv_in[-1] == 0.0
        np.testing.assert_array_equal(table.inv_in[1:-1], 1.0 / (1j * n[1:-1]))
        np.testing.assert_array_equal(table.n4, n.astype(float) ** 4)
        for array in (table.rows, table.gains, table.inv_in, table.n4):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1.0
    assert _maps(64) is not _maps(256)


@pytest.mark.parametrize("nx", [64, 256])
def test_gains_give_the_explicit_gain_exactly(rng, nx):
    # one of the two products in (a, q) @ gains is always zero, so the
    # contraction equals a*n^2 with q*n^4 set at Nyquist, bit for bit
    gains = _maps(nx).gains
    n2 = np.arange(nx // 2 + 1, dtype=float) ** 2
    n2[-1] = 0.0
    for a, q in [*rng.normal(size=(5, 2)) * [[30.0, 4.0]], (-0.25, 4.0 / 1.3**4)]:
        old = a * n2
        old[-1] = q * float((nx // 2) ** 4)
        np.testing.assert_array_equal(np.dot((a, q), gains), old)


@pytest.mark.parametrize("nx", [64, 256])
def test_rhs_matches_complex_fft_oracle_on_random_states(rng, nx):
    for _ in range(3):
        state = random_state(rng, nx)
        assert abs(state.theta.coeffs[nx // 2]) > 0.0
        for alpha in (17.0, -2.5):
            rhs, length_rate = theta_rhs(state, alpha)
            ref, ref_rate = oracle_rhs(full_spectrum(state.theta.coeffs), state.length, alpha)
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(rhs - ref)) <= 1e-8 * scale
            assert length_rate == pytest.approx(ref_rate, rel=1e-12, abs=1e-14)


def test_rhs_matches_complex_fft_oracle_on_wave(linear_wave_h03):
    # a solved wave is exactly odd, so this is the odd path
    sol = linear_wave_h03
    assert _step_maps(sol.theta) is _odd_maps(sol.theta.nx)
    state = EvolutionState(theta=sol.theta, length=sol.length)
    rhs, length_rate = theta_rhs(state, sol.alpha)
    ref, ref_rate = oracle_rhs(full_spectrum(sol.theta.coeffs), sol.length, sol.alpha)
    assert np.max(np.abs(rhs - ref)) <= 1e-10
    assert abs(length_rate - ref_rate) <= 1e-10
    half = sol.theta.nx // 2
    np.testing.assert_array_equal(rhs[half + 1 :], -rhs[half - 1 : 0 : -1])


def _chained_oracle_check(state):
    # Euler start, SBDF2, then a dt change that restarts with Euler
    coeffs, length, prev = full_spectrum(state.theta.coeffs), state.length, None
    alpha = 17.0
    for i in range(300):
        dt = 1e-4 if i < 150 else 5e-5
        state = imex_step(state, alpha, dt)
        coeffs, length, prev = oracle_step(coeffs, length, prev, alpha, dt)
        ref = _oracle_values(coeffs)
        assert np.max(np.abs(state.theta.values - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert state.length == pytest.approx(length, rel=1e-13)
    # the stored spectrum is the rfft half spectrum of the stored values
    half = np.fft.rfft(state.theta.values, norm="forward")
    np.testing.assert_allclose(state.theta.coeffs, half, rtol=0, atol=1e-15)
    assert state.time == pytest.approx(150 * 1e-4 + 150 * 5e-5, rel=1e-12)


@pytest.mark.parametrize("nx", [64, 256, 320, 384, 512])
def test_chained_steps_match_complex_fft_oracle(linear_wave_h03, nx):
    # an exactly odd start: up to _ODD_MAX_NX = 320 it steps in odd
    # coordinates, above it on the general path (FFTs only at 384 and 512)
    coeffs = resample(linear_wave_h03.theta, nx).coeffs.copy()
    coeffs[1:3] -= 0.5e-3j
    state = EvolutionState.from_theta(ThetaProfile.from_coeffs(coeffs))
    assert isinstance(_step_maps(state.theta), _OddMaps) == (nx <= _ODD_MAX_NX)
    _chained_oracle_check(state)


@pytest.mark.parametrize("nx", [64, 256, 512])
def test_chained_steps_of_a_general_state_match_complex_fft_oracle(linear_wave_h03, nx):
    # cosine content far above rounding: the general path, FFTs only
    sigma = grid(nx)
    theta0 = resample(linear_wave_h03.theta, nx).values + 1e-3 * (np.sin(sigma) + np.sin(2.0 * sigma))
    state = EvolutionState.from_theta(ThetaProfile.from_values(theta0 + 1e-3 * np.cos(3.0 * sigma)))
    assert _step_maps(state.theta) is _maps(nx)
    _chained_oracle_check(state)


def assert_close(x, ref, rtol):
    assert np.max(np.abs(x - ref)) <= rtol * np.max(np.abs(ref))


def _odd_expansions(nx, rng):
    """Random odd coordinates with their full half spectrum, and random even
    and odd half-grid values with their full-grid expansions."""
    half = nx // 2
    c = rng.normal(size=half - 1)
    spectrum = np.zeros(half + 1, dtype=complex)
    spectrum.imag[1:half] = c
    even = rng.normal(size=half + 1)
    odd = rng.normal(size=half + 1)
    odd[[0, half]] = 0.0
    return (
        (c, spectrum),
        (even, np.concatenate((even, even[half - 1 : 0 : -1]))),
        (odd, np.concatenate((odd, -odd[half - 1 : 0 : -1]))),
    )


@pytest.mark.parametrize("nx", [64, 128, 256])
def test_odd_maps_match_their_fft_expressions(rng, nx):
    # each odd table is the general FFT expression applied to the expanded
    # odd vector, restricted to the half grid or to Im c_n, n = 1..nx/2-1
    odd = _odd_maps(nx)
    assert _odd_maps(nx) is odd
    half = nx // 2
    shapes = {"velocity": (half + 2, half + 1), "spectrum": (half - 1, half + 1), "rows": (3 * (half + 1), half - 1)}
    for name, shape in shapes.items():
        matrix = getattr(odd, name)
        assert matrix.shape == shape and matrix.dtype == float
        assert not matrix.flags.writeable
    fft = _maps(nx)
    np.testing.assert_array_equal(odd.gains, fft.gains[:, 1:half])
    np.testing.assert_array_equal(odd.n4, fft.n4[1:half])
    for table in (odd.gains, odd.n4):
        assert not table.flags.writeable
    for _ in range(3):
        (c, spectrum), (g, g_full), (v, v_full) = _odd_expansions(nx, rng)
        rows = odd.to_rows(c)
        assert rows.shape == (3, half + 1)
        assert_close(rows, fft.to_rows(spectrum)[:, : half + 1], 1e-13)
        # theta is odd: exactly 0 at sigma = 0 and pi
        np.testing.assert_array_equal(rows[0, [0, half]], 0.0)
        neg_v, mean = fft.to_velocity(g_full)
        assert_close(np.append(*odd.to_velocity(g)), np.append(neg_v[: half + 1], mean), 1e-13)
        assert_close(odd.to_spectrum(v), fft.to_spectrum(v_full).imag[1:half], 1e-13)


@pytest.mark.parametrize("nx", [8, 64, 256, _ODD_MAX_NX])
def test_exactly_odd_states_step_on_the_odd_maps_up_to_the_crossover(nx):
    b = np.zeros(nx // 2 - 1)
    b[0] = 1e-3
    p = from_sine_coeffs(b, nx)
    assert _step_maps(p) is _odd_maps(nx)
    # cosine content up to _ODD_ULPS ulps of max|theta| is rounding, so the
    # state still steps on the odd maps; just above that bound it does not
    bound = _ODD_ULPS * np.finfo(float).eps * np.abs(p.values).max()
    for real, maps in ((1e-300, _odd_maps(nx)), (bound, _odd_maps(nx)), (np.nextafter(bound, 1.0), _maps(nx))):
        coeffs = p.coeffs.copy()
        coeffs.real[1] = real
        assert _step_maps(ThetaProfile(nx, p.values, coeffs)) is maps
    above = _ODD_MAX_NX + 2
    assert _step_maps(from_sine_coeffs(np.zeros(above // 2 - 1), above)) is _maps(above)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_criterion_5_states_step_on_the_odd_maps(k):
    # built as the benchmark's stability workload builds them, from grid
    # values: their real parts are rounding, not 0.0
    p = ThetaProfile.from_values(1e-6 * np.sin(k * grid(64)))
    assert p.coeffs.real.any()
    assert _step_maps(p) is _odd_maps(64)
    seen = []
    out = evolve(EvolutionState.from_theta(p), 17.0, 1e-5, 3, observer=seen.append)
    for state in seen:
        assert state.prev.maps is _odd_maps(64)
        assert_exactly_odd(state)
    assert out is seen[-1]


def decaying_cosine_state():
    """1e-3 sin sigma + 1e-12 cos 8 sigma at nx 64: at alpha 17 the cosine
    decays like exp(-15360 t), below the odd-to-rounding bound after some
    15 steps of 1e-4."""
    sigma = grid(64)
    theta0 = 1e-3 * np.sin(sigma) + 1e-12 * np.cos(8.0 * sigma)
    return EvolutionState.from_theta(ThetaProfile.from_values(theta0))


def test_a_chained_run_whose_cosine_content_decays_stays_on_the_general_maps():
    # a run whose history is on the general maps stays on them, so chained
    # imex_step calls step as one evolve run does; a fresh start from a
    # state past the crossing steps on the odd maps
    state = decaying_cosine_state()
    assert _step_maps(state.theta) is _maps(64)
    steps = chained(state, 17.0, 1e-4, 30)
    assert all(step.prev.maps is _maps(64) for step in steps)
    odd = [_step_maps(step.theta) is _odd_maps(64) for step in steps]
    crossing = odd.index(True)
    assert crossing >= 2 and all(odd[crossing:])
    seen = []
    evolve(state, 17.0, 1e-4, 30, observer=seen.append)
    for a, b in zip(seen, steps):
        assert_same_state(a, b)
    restart = imex_step(dataclasses.replace(steps[-1], prev=None), 17.0, 1e-4)
    assert restart.prev.maps is _odd_maps(64)
    assert_exactly_odd(restart)


# imex_step, evolve and stability_probe share one stepping loop; these
# tests pin that the entry points agree with each other bit for bit.


def assert_same_state(a, b):
    np.testing.assert_array_equal(a.theta.values, b.theta.values)
    np.testing.assert_array_equal(a.theta.coeffs, b.theta.coeffs)
    assert a.length == b.length
    assert a.time == b.time


def smooth_random_state(rng, nx):
    """Random sine and cosine content in modes 1..4 only, so explicit
    steps at dt = 1e-5 stay stable on every grid."""
    sigma = grid(nx)
    k = np.arange(1, 5)[:, None]
    a, b = 0.01 * rng.normal(size=(2, 4, 1))
    values = np.sum(a * np.sin(k * sigma) + b * np.cos(k * sigma), axis=0)
    return EvolutionState.from_theta(ThetaProfile.from_values(values))


def chained(state, alpha, dt, n):
    states = []
    for _ in range(n):
        state = imex_step(state, alpha, dt)
        states.append(state)
    return states


@pytest.mark.parametrize(
    "make, dt, n",
    [
        (lambda rng: smooth_random_state(rng, 64), 1e-5, 40),
        (lambda rng: smooth_random_state(rng, 256), 1e-5, 40),
        # its cosine content decays below the odd-to-rounding bound mid-run
        (lambda rng: decaying_cosine_state(), 1e-4, 30),
    ],
    ids=["64", "256", "decaying-cosine"],
)
def test_evolve_matches_chained_steps_bitwise(rng, make, dt, n):
    state = make(rng)
    out = evolve(state, 17.0, dt, n)
    steps = chained(state, 17.0, dt, n)
    assert_same_state(out, steps[-1])
    # the history each result carries gives the same further SBDF2 step
    assert_same_state(imex_step(out, 17.0, dt), imex_step(steps[-1], 17.0, dt))


def test_observer_sees_the_chained_states(rng):
    state = smooth_random_state(rng, 64)
    seen = []
    out = evolve(state, 17.0, 1e-5, 25, observer=seen.append)
    steps = chained(state, 17.0, 1e-5, 25)
    assert len(seen) == 25
    for a, b in zip(seen, steps):
        assert_same_state(a, b)
        assert a.prev is not None
    assert out is seen[-1]


@pytest.mark.parametrize("nx", [64, 256])
def test_observed_states_keep_their_arrays(rng, nx):
    # the stepper hands out rows of its history stacks without a copy, so
    # no later step may write into an array a state already holds
    def arrays(state):
        prev = state.prev
        return [state.theta.values, state.theta.coeffs, prev.theta_hat, prev.nonstiff_hat]

    seen = []
    evolve(smooth_random_state(rng, nx), 17.0, 1e-5, 30,
           observer=lambda s: seen.append((s, [x.copy() for x in arrays(s)], s.length, s.time)))
    for state, copies, length, time in seen:
        for x, copy in zip(arrays(state), copies):
            np.testing.assert_array_equal(x, copy)
        assert (state.length, state.time) == (length, time)


def assert_exactly_odd(state):
    half = state.theta.nx // 2
    values = state.theta.values
    assert not state.theta.coeffs.real.any()
    np.testing.assert_array_equal(state.theta.coeffs.imag[[0, half]], 0.0)
    np.testing.assert_array_equal(values[[0, half]], 0.0)
    np.testing.assert_array_equal(values[half + 1 :], -values[half - 1 : 0 : -1])


@pytest.mark.parametrize("nx", [8, 64, 256, _ODD_MAX_NX])
def test_odd_expansion_is_exactly_odd_signed_zeros_included(nx):
    half = nx // 2
    maps = _odd_maps(nx)
    for table in (maps.fold, maps.sign):
        assert not table.flags.writeable
    b = np.zeros(half - 1)
    b[0] = 1e-3
    seen = []
    evolve(EvolutionState.from_theta(from_sine_coeffs(b, nx)), 17.0, 1e-5, 3, observer=seen.append)
    assert all(state.prev.maps is maps for state in seen)
    # half-grid values with signed zeros inside, expanded directly
    signed = np.linspace(-1.0, 1.0, half + 1)
    signed[[0, 1, 2, half]] = (0.0, -0.0, 0.0, 0.0)
    profiles = [state.theta for state in seen] + [maps.profile(np.zeros(half - 1), signed)]
    j = np.arange(1, half)
    for p in profiles:
        values = p.values
        assert values.shape == (nx,)
        np.testing.assert_array_equal(values[nx - j], -values[j])
        np.testing.assert_array_equal(np.signbit(values[nx - j]), ~np.signbit(values[j]))
        assert not p.coeffs.real.any()
    assert np.signbit(profiles[-1].values[j]).any()


def odd_random_state(rng, nx):
    """Random sine content in modes 1..4 only, built spectrally, so the
    state is exactly odd."""
    b = np.zeros(nx // 2 - 1)
    b[:4] = 0.01 * rng.normal(size=4)
    return EvolutionState.from_theta(from_sine_coeffs(b, nx))


@pytest.mark.parametrize("nx", [64, 256])
def test_odd_run_keeps_every_state_exactly_odd(rng, nx):
    state = odd_random_state(rng, nx)
    assert _step_maps(state.theta) is _odd_maps(nx)
    seen = []
    out = evolve(state, 17.0, 1e-5, 30, observer=lambda s: seen.append((s, s.theta.values.copy())))
    assert out is seen[-1][0]
    steps = chained(state, 17.0, 1e-5, 30)
    for (observed, values), step in zip(seen, steps):
        assert_exactly_odd(observed)
        assert_exactly_odd(step)
        assert_same_state(observed, step)
        # no later step wrote into what the state holds
        np.testing.assert_array_equal(observed.theta.values, values)
    assert_exactly_odd(imex_step(state, 17.0, 1e-5))
    rhs, _ = theta_rhs(out, 17.0)
    np.testing.assert_array_equal(rhs[nx // 2 + 1 :], -rhs[nx // 2 - 1 : 0 : -1])


def test_history_in_the_other_coordinates_is_not_reused(rng):
    # a general profile carrying an odd step's history steps as from a
    # fresh start; an odd one carrying a general step's stays on the
    # general maps, the history's own coordinates, and takes the SBDF2 step
    odd = evolve(odd_random_state(rng, 64), 17.0, 1e-5, 3)
    general = evolve(smooth_random_state(rng, 64), 17.0, 1e-5, 3)
    cached = dataclasses.replace(odd, theta=general.theta)
    fresh = dataclasses.replace(cached, prev=None)
    assert imex_step(cached, 17.0, 1e-5).prev.maps is _maps(64)
    assert_same_state(imex_step(cached, 17.0, 1e-5), imex_step(fresh, 17.0, 1e-5))
    assert_same_state(evolve(cached, 17.0, 1e-5, 5), evolve(fresh, 17.0, 1e-5, 5))

    cached = dataclasses.replace(general, theta=odd.theta)
    out = imex_step(cached, 17.0, 1e-5)
    assert out.prev.maps is _maps(64)
    assert evolve(cached, 17.0, 1e-5, 5).prev.maps is _maps(64)
    coeffs, length, _ = oracle_step(full_spectrum(odd.theta.coeffs), general.length, oracle_history(general), 17.0, 1e-5)
    assert_close(out.theta.values, _oracle_values(coeffs), 1e-12)
    assert out.length == pytest.approx(length, rel=1e-13)


def test_a_replaced_theta_steps_from_its_own_values(rng):
    # dataclasses.replace keeps the history (prev) of the state that made
    # the old theta; the SBDF2 step takes that history, and its explicit
    # part from the new theta
    made = evolve(smooth_random_state(rng, 64), 17.0, 1e-5, 3)
    other = smooth_random_state(rng, 64).theta
    out = imex_step(dataclasses.replace(made, theta=other), 17.0, 1e-5)
    coeffs, length, _ = oracle_step(full_spectrum(other.coeffs), made.length, oracle_history(made), 17.0, 1e-5)
    assert_close(out.theta.values, _oracle_values(coeffs), 1e-12)
    assert out.length == pytest.approx(length, rel=1e-13)


def test_cosine_content_does_not_change_the_probe(rng, linear_wave_small):
    # the probe studies the wave's odd part: cosine content of rounding
    # size, as a wave read back from its grid values carries, is dropped;
    # content above the bound would probe another front, so it is refused
    cfg = StabilityProbeConfig(dt=1e-4, t_max=0.05)
    coeffs = linear_wave_small.theta.coeffs.copy()
    coeffs.real = ThetaProfile.from_values(linear_wave_small.theta.values).coeffs.real
    assert coeffs.real.any()
    rounding = dataclasses.replace(linear_wave_small, theta=ThetaProfile.from_coeffs(coeffs))
    assert _step_maps(rounding.theta) is _odd_maps(256)
    est = stability_probe(linear_wave_small, cfg)
    other = stability_probe(rounding, cfg)
    np.testing.assert_array_equal(other.times, est.times)
    np.testing.assert_array_equal(other.norms, est.norms)
    assert (other.rate, other.intercept, other.window) == (est.rate, est.intercept, est.window)
    coeffs.real += 1e-3 * rng.normal(size=coeffs.size)
    even = dataclasses.replace(linear_wave_small, theta=ThetaProfile.from_coeffs(coeffs))
    with pytest.raises(ValueError, match=r"^the probe takes odd waves only: the wave's cosine content"):
        stability_probe(even, cfg)


def test_probe_matches_a_loop_over_imex_step():
    wave = flat_solution(17.0, nx=64)
    cfg = StabilityProbeConfig(dt=1e-3, t_max=1.0)
    est = stability_probe(wave, cfg)

    # the start is exactly odd, and its values are those of the odd step,
    # on the half grid
    state, theta0 = _probe_start(wave, cfg.delta)
    assert_exactly_odd(state)
    assert not wave.theta.coeffs.any()
    half = wave.theta.nx // 2
    np.testing.assert_array_equal(theta0, state.theta.values[: half + 1])
    times, norms = [], []
    start = end = None
    for i in range(1000):
        state = imex_step(state, wave.alpha, cfg.dt)
        times.append(state.time)
        norms.append(np.max(np.abs(state.theta.values[: half + 1] - theta0)))
        if start is None:
            if norms[i] >= 10.0 * cfg.delta:
                start = i
        elif norms[i] >= 100.0 * norms[start]:
            end = i
            break
    slope = np.polyfit(times[start:], np.log(norms[start:]), 1)[0]

    assert est.observed
    np.testing.assert_array_equal(est.times, times)
    np.testing.assert_array_equal(est.norms, norms)
    assert est.window == (times[start], times[end])
    assert est.rate == slope


def test_blow_up_mid_run_stops_the_observer():
    state = single_mode_state(0.1, 1)
    seen = []
    with pytest.raises(BlowUpError) as info:
        evolve(state, 1e4, 1e-3, 100, observer=seen.append)
    assert 0 < len(seen) < 100
    steps = chained(state, 1e4, 1e-3, len(seen))
    for a, b in zip(seen, steps):
        assert_same_state(a, b)
    with pytest.raises(BlowUpError) as chained_info:
        imex_step(steps[-1], 1e4, 1e-3)
    assert info.value.time == chained_info.value.time == steps[-1].time + 1e-3
    assert str(info.value) == str(chained_info.value)


def test_near_neutral_probe_of_linear_wave(linear_wave_small):
    # d(t) ~ 1e-8 against theta ~ 0.05, so the slope's low digits are
    # rounding: 0.20487315876089993 is the 5-FFT stepper's slope, and any
    # reordering of the step's arithmetic may move it by up to 1e-6.  The
    # contracted step (one history stack, rows c, c_prev, N, N_prev) is
    # 1.1e-7 from it; the row order c, N, c_prev, N_prev gave 5.0e-7 and
    # np.divide in place of the product with the reciprocal 2.2e-6
    est = stability_probe(linear_wave_small)
    assert not est.observed
    assert len(est.times) == 10000
    assert est.window == (0.0001, 0.9999999999999062)
    assert est.rate == pytest.approx(0.20487315876089993, rel=1e-6)
