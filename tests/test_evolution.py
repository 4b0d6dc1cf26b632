import collections
import dataclasses
import re
import warnings

import numpy as np
import pytest

from flamefront import evolution
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
from flamefront.model import ModelKind, dispersion_linear
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


@pytest.mark.parametrize("mode", [1, 30])
def test_probe_refuses_a_blown_up_wave_before_any_arithmetic(mode):
    # the wave is checked before the start's rows are built: mode 30's
    # third-derivative row overflows from this amplitude
    b = np.zeros(31)
    b[mode - 1] = 1e306
    wave = dataclasses.replace(flat_solution(5.0, nx=64), theta=from_sine_coeffs(b, 64), amplitude=1e306)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BlowUpError, match=r"^max\|theta\| = 1\.000e\+306 exceeded 1000 at t = 0$") as info:
            stability_probe(wave)
    assert info.value.time == 0.0


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
    # 0, -1, nan and inf are no positive finite real, and for 1e-90 and
    # 1e100 4*(2*pi/L)^4 underflows its denominator or overflows: refused
    # before any step, as a ValueError naming L, with no Python or numpy
    # error
    state = EvolutionState(single_mode_state(1e-3, 1).theta, length)
    stiffness = " with 4*(2*pi/L)^4 finite and nonzero" if 0.0 < length < np.inf else ""
    match = "^" + re.escape(f"L must be positive and finite{stiffness}, got {length!r}") + "$"
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
        (float("inf"), 1e-4, "alpha"),
    ],
)
def test_step_rejects_non_finite_arguments(alpha, dt, name):
    # rejected before any arithmetic: no RuntimeWarning, no BlowUpError,
    # and from theta_rhs no NaN right-hand side
    state = single_mode_state(0.1, 1)
    calls = [lambda: imex_step(state, alpha, dt), lambda: evolve(state, alpha, dt, 3)]
    if name == "alpha":
        calls.append(lambda: theta_rhs(state, alpha))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ValueError, match=f"^{name} must be"):
                call()


def test_evolve_rejects_negative_step_count():
    state = single_mode_state(0.1, 1)
    with pytest.raises(ValueError, match="n_steps"):
        evolve(state, 17.0, 1e-4, -1)
    # a fractional count would fail inside range, and True is no count
    for n_steps in (2.5, True, np.float64(3.0)):
        with pytest.raises(ValueError, match="^n_steps must be an integer"):
            evolve(state, 17.0, 1e-4, n_steps)
    assert evolve(state, 17.0, 1e-4, 0) is state
    assert evolve(state, 17.0, 1e-4, np.int64(0)) is state


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
    assert est.note == "growth window not completed by t_max: slope is the steepest trailing fit"


@pytest.mark.parametrize(
    "settings",
    [
        {"dt": 0.0},
        {"dt": -1.0},
        {"t_max": 0.0},
        {"t_max": -1.0},
        {"dt": float("nan")},
        {"t_max": 1e-5},
        {"t_max": float("inf")},
        {"dt": float("inf")},
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
        stability_probe(dataclasses.replace(flat_solution(-3.3, nx=64), kind=ModelKind.NONLINEAR))


def test_probe_refuses_a_kind_that_is_not_a_model_kind():
    # the string "linear" is no ModelKind: the probe says so, as residual
    # and continue_branch do, before its linear-closure-only check
    wave = dataclasses.replace(flat_solution(17.0, nx=64), kind="linear")
    with pytest.raises(ValueError, match="^unknown model kind 'linear'$") as info:
        stability_probe(wave)
    assert not isinstance(info.value, UnsupportedModelError)


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
# the oracle for the half-spectrum theta_rhs and evolve.  It takes the
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
    """One IMEX Euler (prev None, a run's first step) or SBDF2 step; returns
    the new full spectrum, the new length and the history for the next
    step."""
    n4 = np.fft.fftfreq(coeffs.size, d=1.0 / coeffs.size) ** 4
    dtheta, length_rate = oracle_rhs(coeffs, length, alpha)
    q4 = (2.0 * np.pi / length) ** 4
    nonstiff = _oracle_coeffs(dtheta) + 4.0 * q4 * n4 * coeffs
    if prev is None:
        new = (coeffs + dt * nonstiff) / (1.0 + 4.0 * dt * q4 * n4)
        new_length = length + dt * length_rate
    else:
        p_coeffs, p_nonstiff, p_length, p_rate = prev
        new = (4.0 * coeffs - p_coeffs + 2.0 * dt * (2.0 * nonstiff - p_nonstiff)) / (
            3.0 + 8.0 * dt * q4 * n4
        )
        new_length = (4.0 * length - p_length + 2.0 * dt * (2.0 * length_rate - p_rate)) / 3.0
    return new, new_length, (coeffs, nonstiff, length, length_rate)


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
    # every observed state of two evolve runs, each an Euler start and then
    # SBDF2, the second from the first's end at another dt
    coeffs, length = full_spectrum(state.theta.coeffs), state.length
    alpha = 17.0
    for dt in (1e-4, 5e-5):
        seen = []
        state = evolve(state, alpha, dt, 150, observer=seen.append)
        prev = None
        for observed in seen:
            coeffs, length, prev = oracle_step(coeffs, length, prev, alpha, dt)
            ref = _oracle_values(coeffs)
            assert np.max(np.abs(observed.theta.values - ref)) <= 1e-12 * np.max(np.abs(ref))
            assert observed.length == pytest.approx(length, rel=1e-13)
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
    # the products as the stepping loop binds them, writing into work arrays
    to_rows, to_velocity, to_spectrum, size = odd.products()
    assert size == half + 1
    flat, w = np.empty(3 * size), np.empty(size + 1)
    for _ in range(3):
        (c, spectrum), (g, g_full), (v, v_full) = _odd_expansions(nx, rng)
        to_rows(c, flat)
        rows = flat.reshape(3, -1)
        np.testing.assert_array_equal(odd.to_rows(c), rows)
        assert_close(rows, fft.to_rows(spectrum)[:, : half + 1], 1e-13)
        # theta is odd: exactly 0 at sigma = 0 and pi
        np.testing.assert_array_equal(rows[0, [0, half]], 0.0)
        neg_v, mean = fft.to_velocity(g_full)
        to_velocity(g, w)
        assert_close(w, np.append(neg_v[: half + 1], mean), 1e-13)
        assert_close(to_spectrum(v), fft.to_spectrum(v_full).imag[1:half], 1e-13)


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
    # the odd maps build every state with real parts exactly 0
    for state in seen:
        assert_exactly_odd(state)
    assert out is seen[-1]


def decaying_cosine_state():
    """1e-3 sin sigma + 1e-12 cos 8 sigma at nx 64: at alpha 17 the cosine
    decays like exp(-15360 t), below the odd-to-rounding bound after some
    15 steps of 1e-4."""
    sigma = grid(64)
    theta0 = 1e-3 * np.sin(sigma) + 1e-12 * np.cos(8.0 * sigma)
    return EvolutionState.from_theta(ThetaProfile.from_values(theta0))


# imex_step, evolve and stability_probe share one stepping loop; these
# tests pin that the entry points agree with each other bit for bit.  A
# state carries no history, so the reference for step k of an evolve run
# is a run of k steps from the same start (runs).


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


def runs(state, alpha, dt, n):
    """evolve(state, alpha, dt, k) for k = 1..n."""
    return [evolve(state, alpha, dt, k) for k in range(1, n + 1)]


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
def test_observed_states_match_runs_of_each_length_bitwise(rng, make, dt, n):
    # the run keeps the maps its start picked, even once its cosine
    # content is rounding, so every prefix of it steps the same way
    state = make(rng)
    seen = []
    out = evolve(state, 17.0, dt, n, observer=seen.append)
    for a, b in zip(seen, runs(state, 17.0, dt, n), strict=True):
        assert_same_state(a, b)
    assert out is seen[-1]


def test_observer_sees_each_step_as_a_run_of_that_length(rng):
    state = smooth_random_state(rng, 64)
    seen = []
    out = evolve(state, 17.0, 1e-5, 25, observer=seen.append)
    steps = runs(state, 17.0, 1e-5, 25)
    assert len(seen) == 25
    for a, b in zip(seen, steps):
        assert_same_state(a, b)
    assert out is seen[-1]


@pytest.mark.parametrize(
    "make, maps",
    [
        (lambda rng: odd_random_state(rng, 64), lambda: _odd_maps(64)),
        (lambda rng: smooth_random_state(rng, 64), lambda: _maps(64)),
        (lambda rng: odd_random_state(rng, 512), lambda: _maps(512)),
    ],
    ids=["odd-64", "general-64", "odd-512-general-maps"],
)
def test_a_state_is_theta_length_and_time(rng, make, maps):
    # a state carries no step history: a run from a returned state steps
    # as one from a new state with the same theta, L and t, and one
    # imex_step is a one-step evolve run
    assert [f.name for f in dataclasses.fields(EvolutionState)] == ["theta", "length", "time"]
    start = make(rng)
    assert _step_maps(start.theta) is maps()
    out = evolve(start, 17.0, 1e-5, 5)
    fresh = EvolutionState(out.theta, out.length, out.time)
    assert_same_state(evolve(out, 17.0, 1e-5, 5), evolve(fresh, 17.0, 1e-5, 5))
    assert_same_state(imex_step(out, 17.0, 1e-5), evolve(out, 17.0, 1e-5, 1))


@pytest.mark.parametrize(
    "make, maps",
    [
        (lambda rng: smooth_random_state(rng, 64), lambda: _maps(64)),
        (lambda rng: smooth_random_state(rng, 256), lambda: _maps(256)),
        (lambda rng: odd_random_state(rng, 64), lambda: _odd_maps(64)),
        (lambda rng: odd_random_state(rng, 256), lambda: _odd_maps(256)),
    ],
    ids=["64", "256", "odd-64", "odd-256"],
)
def test_observed_states_keep_their_arrays(rng, make, maps):
    # the stepper writes its two history stacks and its work arrays again
    # on every step, on both paths, so no later step may write into an
    # array a state already holds
    def arrays(state):
        return [state.theta.values, state.theta.coeffs]

    start = make(rng)
    assert _step_maps(start.theta) is maps()
    seen = []
    evolve(start, 17.0, 1e-5, 30,
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
    start = EvolutionState.from_theta(from_sine_coeffs(b, nx))
    assert _step_maps(start.theta) is maps
    seen = []
    evolve(start, 17.0, 1e-5, 3, observer=seen.append)
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
    steps = runs(state, 17.0, 1e-5, 30)
    for (observed, values), step in zip(seen, steps):
        assert_exactly_odd(observed)
        assert_exactly_odd(step)
        assert_same_state(observed, step)
        # no later step wrote into what the state holds
        np.testing.assert_array_equal(observed.theta.values, values)
    # observed states are built without their dataclasses' __init__, and
    # stay frozen
    for frozen in (out, out.theta):
        with pytest.raises(dataclasses.FrozenInstanceError):
            frozen.nx = 0
    assert_exactly_odd(imex_step(state, 17.0, 1e-5))
    rhs, _ = theta_rhs(out, 17.0)
    np.testing.assert_array_equal(rhs[nx // 2 + 1 :], -rhs[nx // 2 - 1 : 0 : -1])


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


def looped_probe(wave, cfg):
    """stability_probe written as a loop over the observed states of one
    evolve run, with d(t) taken step by step and the loop's last step the
    window's end: the estimate's fields as a dict, or the BlowUpError the
    run raised before the window completed."""
    state, theta0 = _probe_start(wave)
    half = wave.theta.nx // 2
    n_steps = int(round(cfg.t_max / cfg.dt))
    seen = []
    blow_up = None
    try:
        evolve(state, wave.alpha, cfg.dt, n_steps, observer=seen.append)
    except BlowUpError as error:
        blow_up = error
    times, norms = [], []
    start = None
    for i, state in enumerate(seen):
        times.append(state.time)
        norms.append(np.max(np.abs(state.theta.values[: half + 1] - theta0)))
        if start is None:
            # 10 times the probe's fixed delta, 1e-8
            if norms[i] >= 10.0 * 1e-8:
                start = i
        elif norms[i] >= 100.0 * norms[start]:
            rate = np.polyfit(times[start:], np.log(norms[start:]), 1)[0]
            return {"times": times, "norms": norms, "window": (times[start], times[i]), "rate": rate,
                    "observed": True, "note": ""}
    if blow_up is not None:
        return blow_up
    # no window: the steepest fit over the trailing subwindows
    assert min(norms) > 0.0
    los = [int(fraction * n_steps) for fraction in (0.0, 0.25, 0.5, 0.75)]
    fits = [(np.polyfit(times[lo:], np.log(norms[lo:]), 1)[0], (times[lo], times[-1])) for lo in los]
    rate, window = max(fits, key=lambda fit: fit[0])
    return {"times": times, "norms": norms, "window": window, "rate": rate, "observed": False,
            "note": evolution._NO_GROWTH_NOTE}


# The stepping loop fills the probe's block of _PROBE_BLOCK = 32 steps and
# hands it back only when it is full, so the run may go up to 31 steps past
# the window's end.  On the flat front at alpha 17, at nx 64 and at nx 256
# alike, the window ends at step 720 for dt 8e-4, the 16th row of a block,
# and at step 576, a block's last row, for dt 1e-3.  With t_max 0.576 at
# dt 8e-4 the run has 720 steps, so the window ends in the last, partly
# filled block, and only the final flush finds it.  The nx-256 cases step
# on the dense odd maps of the benchmark's probes.
@pytest.mark.parametrize(
    "dt, t_max, blow_up_at, steps, nx",
    [
        (8e-4, 1.0, None, 720, 64),
        (1e-3, 1.0, None, 576, 64),
        (8e-4, 0.576, None, 720, 64),
        (1e-3, 0.1, None, 100, 64),
        (8e-4, 1.0, 722, 720, 64),
        (8e-4, 1.0, 100, None, 64),
        (8e-4, 1.0, None, 720, 256),
        (1e-3, 1.0, None, 576, 256),
    ],
    ids=[
        "mid-block",
        "block-last-row",
        "window-in-last-partial-block",
        "no-window-partial-block",
        "blow-up-after-window",
        "blow-up-before-window",
        "mid-block-nx256",
        "block-last-row-nx256",
    ],
)
def test_probe_matches_a_loop_over_observed_states(monkeypatch, dt, t_max, blow_up_at, steps, nx):
    assert evolution._PROBE_BLOCK == 32
    wave = flat_solution(17.0, nx=nx)
    cfg = StabilityProbeConfig(dt=dt, t_max=t_max)

    # the start is exactly odd, and its values are those of the odd step,
    # on the half grid
    state, theta0 = _probe_start(wave)
    assert_exactly_odd(state)
    assert not wave.theta.coeffs.any()
    half = wave.theta.nx // 2
    np.testing.assert_array_equal(theta0, state.theta.values[: half + 1])
    if blow_up_at is not None:
        # a blow-up bound that step blow_up_at is the first to cross
        seen = []
        evolve(state, wave.alpha, dt, blow_up_at, observer=seen.append)
        peaks = [np.abs(s.theta.values).max() for s in [state, *seen]]
        bound = 0.5 * (peaks[-2] + peaks[-1])
        assert max(peaks[:-1]) < bound < peaks[-1]
        crossing = seen[-1].time
        monkeypatch.setattr(evolution, "_THETA_BLOWUP", bound)
        monkeypatch.setattr(evolution, "_BLOWUP_SUM_SQUARES", (bound / 2.0) ** 2)

    expected = looped_probe(wave, cfg)
    if steps is None:
        assert isinstance(expected, BlowUpError)
        with pytest.raises(BlowUpError) as info:
            stability_probe(wave, cfg)
        assert info.value.time == expected.time == crossing
        assert str(info.value) == str(expected)
        return
    est = stability_probe(wave, cfg)
    assert len(est.times) == steps
    assert np.array_equal(est.times, expected["times"])
    assert np.array_equal(est.norms, expected["norms"])
    assert est.window == expected["window"]
    assert est.rate == expected["rate"]
    assert est.observed == expected["observed"]
    assert est.note == expected["note"]


def test_blow_up_mid_run_stops_the_observer():
    state = single_mode_state(0.1, 1)
    seen = []
    with pytest.raises(BlowUpError) as info:
        evolve(state, 1e4, 1e-3, 100, observer=seen.append)
    assert 0 < len(seen) < 100
    steps = runs(state, 1e4, 1e-3, len(seen))
    for a, b in zip(seen, steps):
        assert_same_state(a, b)
    with pytest.raises(BlowUpError) as bare_info:
        evolve(state, 1e4, 1e-3, len(seen) + 1)
    assert info.value.time == bare_info.value.time == steps[-1].time + 1e-3
    assert str(info.value) == str(bare_info.value)


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


class CountingNumpy:
    """numpy, with a count of the calls made through it to dot, vdot and array."""

    def __init__(self):
        self.calls = collections.Counter()

    def __getattr__(self, name):
        attr = getattr(np, name)
        if name not in ("dot", "vdot", "array"):
            return attr

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return attr(*args, **kwargs)

        return counted


@pytest.mark.parametrize("probe", [False, True], ids=["evolve-nx64-observed", "probe-nx256"])
def test_the_stepping_loop_calls_no_counted_numpy_function(monkeypatch, rng, linear_wave_small, probe):
    # np.dot, np.vdot and np.array pay numpy's dispatch on every call; the
    # loop uses ndarray methods and work arrays made once per run instead
    if probe:

        def run(n):
            est = stability_probe(linear_wave_small, StabilityProbeConfig(dt=1e-4, t_max=n * 1e-4))
            assert len(est.times) == n

    else:
        state = odd_random_state(rng, 64)

        def run(n):
            seen = []
            evolve(state, 17.0, 1e-5, n, observer=seen.append)
            assert len(seen) == n

    run(1)  # the maps' tables are built and cached outside the count
    counts = {}
    for n in (10, 100):
        numpy_proxy = CountingNumpy()
        monkeypatch.setattr(evolution, "np", numpy_proxy)
        run(n)
        monkeypatch.undo()
        counts[n] = numpy_proxy.calls
    assert counts[10] == counts[100]
    # the proxy sees the run's set-up, and no counted function on every step
    assert counts[10].total() > 0
    assert max(counts[10].values()) < 10


def transcribed_odd_run(c, length, time, alpha, dt, n):
    """n steps of the odd IMEX step from the odd coordinates c, written out
    with plain numpy calls on the _odd_maps tables in the documented
    operation order (module docstring): an Euler step, then SBDF2, on a
    fresh (c, c_prev, N, N_prev) stack each step, times the reciprocal of
    d0 + d1*q*n^4.  Yields c, its half-grid values, L and t after each
    step."""
    maps = _odd_maps(2 * (c.size + 1))
    stack = np.zeros((4, c.size))
    stack[0] = c
    prev_length = prev_rate = None
    for _ in range(n):
        rows = np.dot(maps.rows, c).reshape(3, -1)
        theta_s = rows[1]
        s_sigma = length / (2.0 * np.pi)
        q = 4.0 / s_sigma**4
        aq = np.array([(alpha - 1.0) / s_sigma**2, q])
        w = np.dot(maps.velocity, theta_s * (1.0 / s_sigma + np.dot(aq, rows[1:])))
        length_rate = length * float(w[-1])
        stack[2] = np.dot(aq, maps.gains) * c - np.dot(maps.spectrum, w[:-1] * theta_s)
        if prev_length is None:
            weights, d0, d1 = np.array([1.0, 0.0, dt, 0.0]), 1.0, dt
            new_length = length + dt * length_rate
        else:
            weights, d0, d1 = np.array([4.0, -1.0, 4.0 * dt, -2.0 * dt]), 3.0, 2.0 * dt
            new_length = (4.0 * length - prev_length + 2.0 * dt * (2.0 * length_rate - prev_rate)) / 3.0
        c_prev, nonstiff = stack[0], stack[2]
        c = np.dot(weights, stack) * (1.0 / (maps.n4 * (d1 * q) + d0))
        stack = np.array([c, c_prev, nonstiff, nonstiff])
        length, prev_length, prev_rate = new_length, length, length_rate
        time += dt
        yield c, np.dot(maps.rows, c).reshape(3, -1)[0], length, time


def assert_transcribed_state(state, c, values, length, time):
    coeffs = np.zeros(c.size + 2, dtype=complex)
    coeffs.imag[1:-1] = c
    assert np.array_equal(state.theta.coeffs, coeffs)
    assert np.array_equal(state.theta.values, np.concatenate((values, -values[-2:0:-1])))
    assert (state.length, state.time) == (length, time)


def test_odd_steps_are_bit_identical_to_their_transcription(rng, linear_wave_small):
    # the stepping loop binds the maps' products and work arrays once per
    # run and builds observed states without dataclass __init__; none of
    # that may move a bit.  Compared in one process, not against stored
    # hashes: BLAS kernels, and so the last bits, differ across CPUs
    state = odd_random_state(rng, 64)
    ref = list(transcribed_odd_run(state.theta.coeffs.imag[1:-1].copy(), state.length, state.time, 17.0, 1e-5, 200))
    seen = []
    evolve(state, 17.0, 1e-5, 200, observer=seen.append)
    assert len(seen) == 200
    for observed, step in zip(seen, ref):
        assert_transcribed_state(observed, *step)
    assert_transcribed_state(evolve(state, 17.0, 1e-5, 200), *ref[-1])

    # the loop rebuilds its tables of L only when L changes its bits, and
    # the transcription on every step: on the criterion-5 start
    # 1e-6 sin 2 sigma, SBDF2 steps keep L's bits
    state = single_mode_state(1e-6, 2)
    ref = list(transcribed_odd_run(state.theta.coeffs.imag[1:-1].copy(), state.length, state.time, 17.0, 1e-5, 2000))
    lengths = [step[2] for step in ref]
    assert any(a == b for a, b in zip(lengths, lengths[1:]))
    seen = []
    evolve(state, 17.0, 1e-5, 2000, observer=seen.append)
    for observed, step in zip(seen, ref, strict=True):
        assert_transcribed_state(observed, *step)

    cfg = StabilityProbeConfig(dt=1e-4, t_max=0.02)
    est = stability_probe(linear_wave_small, cfg)
    start, reference = _probe_start(linear_wave_small)
    assert start.theta.nx == 256
    c = start.theta.coeffs.imag[1:-1].copy()
    ref = list(transcribed_odd_run(c, start.length, 0.0, float(linear_wave_small.alpha), cfg.dt, 200))
    assert len(est.times) == 200
    assert np.array_equal(est.times, [step[3] for step in ref])
    assert np.array_equal(est.norms, [np.max(np.abs(step[1] - reference)) for step in ref])
