import functools
import warnings

import numpy as np
import pytest

from flamefront import geometry, solver, spectral
from flamefront.bifurcation import asymptotic_guess, nonlinear_bifurcation_alpha
from flamefront.errors import (
    BranchStartError,
    ConvergenceError,
    DegenerateFrontError,
    InvalidGridError,
    SingularSystemError,
)
from flamefront.model import (
    ModelKind,
    WaveParams,
    length_from_theta,
    residual,
    residual_linearization,
)
from flamefront.solver import (
    BranchRecord,
    FailedSolve,
    SolveConfig,
    _newton_jacobian,
    _rebuild,
    _square_equations,
    continue_branch,
    flat_solution,
    quasi_newton_solve,
    residual_at_resolution,
)
from flamefront.spectral import (
    ThetaProfile,
    cosine_coeffs,
    grid,
    sine_coeffs,
)


def flat_guess(nx=64, beta=1.0, alpha=5.0):
    p = ThetaProfile.from_values(np.zeros(nx))
    return p, WaveParams(alpha=alpha, beta=beta, length=2.0 * np.pi)


def test_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(max_iters=0)
    # a fractional budget would fail inside the solve, and True is no count
    for max_iters in (2.5, True):
        with pytest.raises(ValueError, match="^max_iters must be an integer"):
            SolveConfig(max_iters=max_iters)
    with pytest.raises(InvalidGridError):
        SolveConfig(nx=31)


def newton_equations(p, params, target_h):
    """The square Newton system at (p, beta, alpha), pinned at argmax theta."""
    x = np.concatenate([sine_coeffs(p), [params.beta, params.alpha]])
    p_x, params_x = _rebuild(x, p.nx)
    amp_index = int(np.argmax(p_x.values))
    return _square_equations(p_x, params_x, target_h, ModelKind.LINEAR, amp_index)[0]


def test_assemble_system_flat_is_zero():
    p, params = flat_guess()
    eqs = newton_equations(p, params, 0.0)
    # cosine modes 0..nx/2-1 plus the amplitude pin
    assert eqs.shape == (64 // 2 + 1,)
    np.testing.assert_allclose(eqs, 0.0, rtol=0, atol=1e-14)


def test_assemble_system_amplitude_row():
    p, params = flat_guess()
    eqs = newton_equations(p, params, 0.1)
    np.testing.assert_allclose(eqs[:-1], 0.0, rtol=0, atol=1e-14)
    assert eqs[-1] == pytest.approx(-0.1, rel=1e-14)


def test_assemble_system_defect_scaling():
    # the truncated expansion feeds an O(eps^3) defect into the system
    norms = []
    for eps in (0.1, 0.05):
        p, params = asymptotic_guess(1, eps, ModelKind.LINEAR)
        eqs = newton_equations(p, params, eps)
        norms.append(np.max(np.abs(eqs)))
    assert 6.0 < norms[0] / norms[1] < 10.0


def fd_jacobian(x, nx, target_h, kind, amp_index, rel_step=1e-7):
    """Forward-difference Jacobian of _square_equations in the unknowns x,
    pinned at a fixed amp_index: the test oracle for the analytic build."""

    def equations(x):
        return _square_equations(*_rebuild(x, nx), target_h, kind, amp_index)[0]

    f0 = equations(x)
    jac = np.empty((f0.size, x.size))
    for i in range(x.size):
        step = rel_step * (1.0 + abs(x[i]))
        xi = x.copy()
        xi[i] += step
        jac[:, i] = (equations(xi) - f0) / step
    return jac


# cached: the finite-difference and grid-transform tests share the cases
@functools.cache
def jacobian_case(name, nx):
    """(profile, params, target_h, kind) at which the Jacobians are compared."""
    if name.startswith("guess"):
        kind = ModelKind.LINEAR if name == "guess-linear" else ModelKind.NONLINEAR
        p, params = asymptotic_guess(1, 0.3, kind, nx=nx)
        return ThetaProfile.from_coeffs(1j * p.coeffs.imag), params, 0.3, kind
    if name == "linear-h1":
        # a large linear wave, well past the weakly nonlinear regime
        rec = continue_branch(1, ModelKind.LINEAR, 0.05, 1.0, cfg=SolveConfig(nx=nx))
    else:
        # the nonlinear branch close to its wall: alpha about -3.012
        rec = continue_branch(1, ModelKind.NONLINEAR, 0.02, 0.42, cfg=SolveConfig(nx=nx))
    sol = rec.solutions[-1]
    params = WaveParams(alpha=sol.alpha, beta=sol.beta, length=sol.length)
    return sol.theta, params, sol.amplitude + 1e-3, sol.kind


# the nonlinear branch at nx=64 fails near h = 0.34, before the wall
@pytest.mark.parametrize(
    "name,nx",
    [
        ("guess-linear", 64),
        ("guess-linear", 256),
        ("guess-nonlinear", 64),
        ("guess-nonlinear", 256),
        ("linear-h1", 64),
        ("linear-h1", 256),
        ("nonlinear-wall", 256),
    ],
)
def test_newton_jacobian_matches_finite_differences(name, nx):
    p, params, target_h, kind = jacobian_case(name, nx)
    if name == "nonlinear-wall":
        assert -3.02 < params.alpha < -3.0
    x = np.concatenate([sine_coeffs(p), [params.beta, params.alpha]])
    p_x, params_x = _rebuild(x, nx)
    amp_index = int(np.argmax(p_x.values))
    lin = _square_equations(p_x, params_x, target_h, kind, amp_index)[-1]
    jac = _newton_jacobian(p_x, params_x, lin, amp_index)
    oracle = fd_jacobian(x, nx, target_h, kind, amp_index)
    assert jac.shape == oracle.shape == (nx // 2 + 1, nx // 2 + 1)
    scale = np.max(np.abs(oracle))
    np.testing.assert_allclose(jac, oracle, rtol=0, atol=1e-6 * scale)
    # the pin row is exactly d theta(sigma_pin)/d b_k = sin(k sigma_pin),
    # and the pin does not depend on (beta, alpha)
    k = np.arange(1, nx // 2)
    np.testing.assert_allclose(
        jac[-1, :-2], np.sin(k * grid(nx)[amp_index]), rtol=0, atol=1e-13
    )
    assert jac[-1, -2] == 0.0 and jac[-1, -1] == 0.0


def grid_transform_jacobian(p, params, kind, amp_index):
    """The Newton Jacobian built on the grid: the reference for the
    spectral build.

    Column k is the grid linearisation acting on theta = sin(k sigma),
    (w1*k - w3*k^3)*cos(k sigma) + beta*sin(theta)*sin(k sigma) + r_q*dq_k,
    projected onto cosine modes 0..nx/2-1 by a real FFT along the grid;
    the parameter columns -cos(theta) and r_alpha likewise.
    """
    nx = p.nx
    k = np.arange(1, nx // 2)
    phase = (2.0 * np.pi / nx) * (np.outer(np.arange(nx), k) % nx)
    sin_k, cos_k = np.sin(phase), np.cos(phase)
    _, w1, w3, r_q, r_alpha = residual_linearization(p, params, kind)
    sin_theta = np.sin(p.values)
    dq = -(sin_theta @ sin_k) / nx
    grid_jac = (
        cos_k * (np.outer(w1, k) - w3 * k**3)
        + (params.beta * sin_theta)[:, None] * sin_k
        + np.outer(r_q, dq)
    )
    params_jac = np.stack([-np.cos(p.values), r_alpha], axis=1)
    jac = np.empty((nx // 2 + 1, nx // 2 + 1))
    jac[:-1, :-2] = np.fft.rfft(grid_jac, axis=0)[: nx // 2].real / nx
    jac[:-1, -2:] = np.fft.rfft(params_jac, axis=0)[: nx // 2].real / nx
    jac[1:-1] *= 2.0
    jac[-1, :-2] = sin_k[amp_index]
    jac[-1, -2:] = 0.0
    return jac


@pytest.mark.parametrize("nx", [64, 256, 512])
@pytest.mark.parametrize(
    "name", ["guess-linear", "guess-nonlinear", "linear-h1", "nonlinear-wall"]
)
def test_newton_jacobian_matches_grid_transform(name, nx):
    """The Toeplitz-plus-Hankel build from coefficient spectra equals the
    grid build column by column, up to rounding."""
    p, params, _, kind = jacobian_case(name, nx)
    amp_index = int(np.argmax(p.values))
    lin = residual_linearization(p, params, kind)[1:]
    jac = _newton_jacobian(p, params, lin, amp_index)
    reference = grid_transform_jacobian(p, params, kind, amp_index)
    assert jac.shape == reference.shape == (nx // 2 + 1, nx // 2 + 1)
    column_scale = np.max(np.abs(reference), axis=0)
    assert np.all(column_scale > 0.0)
    assert np.all(np.max(np.abs(jac - reference), axis=0) <= 1e-14 * column_scale)


def transcribed_newton_jacobian(p, params, lin, amp_index):
    """A plain transcription of the Toeplitz-plus-Hankel assembly in
    _newton_jacobian's operation order: sliding windows of the stacked
    extended vectors, and the six block updates made in place on the
    strided sine-mode block of the matrix.  _newton_jacobian must equal it
    bit for bit."""
    nx = p.nx
    half = nx // 2
    k = np.arange(1, half)
    w1, w3, r_q, r_alpha = lin
    funcs = np.stack([w1, r_q, np.sin(p.values), -np.cos(p.values), r_alpha])
    spec = np.fft.rfft(funcs, axis=1) / nx
    sin_coeffs = -spec[2].imag
    n = np.arange(1 - half, nx - 1)
    fold = np.minimum(np.abs(n), nx - n)
    extended = np.stack(
        [
            spec[0].real[fold],
            (params.beta * np.sign(n) * np.sign(half - n)) * sin_coeffs[fold],
        ]
    )
    windows = np.lib.stride_tricks.sliding_window_view(extended, half - 1, axis=1)
    w_toeplitz, z_toeplitz = windows[:, :half, ::-1]
    w_hankel, z_hankel = windows[:, half:]
    dq = -sin_coeffs[1:half]
    jac = np.empty((half + 1, half + 1))
    block = jac[:-1, :-2]
    np.multiply(2.0 * spec[1, :half, None].real, dq / k, out=block)
    block += w_toeplitz
    block += w_hankel
    block *= k
    block += z_hankel
    block -= z_toeplitz
    jac[k, k - 1] -= k**3 * w3
    jac[:-1, -2:] = 2.0 * spec[3:, :half].real.T
    jac[0] *= 0.5
    jac[-1, :-2] = np.sin((2.0 * np.pi / nx) * (k * amp_index % nx))
    jac[-1, -2:] = 0.0
    return jac


@pytest.mark.parametrize("nx", [8, 64, 256, 512])
@pytest.mark.parametrize(
    "name", ["guess-linear", "guess-nonlinear", "linear-h1", "nonlinear-wall"]
)
def test_newton_system_is_bit_identical_to_its_transcription(name, nx):
    """The Jacobian equals transcribed_newton_jacobian, the equations the
    cosine modes of the residual's profile plus the pin, and the monitored
    Nyquist coefficient that mode's magnitude, all exactly, for pins at
    several indices."""
    if nx < 64 and not name.startswith("guess"):
        # no branch starts at nx 8: the nx-64 wave, resampled
        p, params, target_h, kind = jacobian_case(name, 64)
        p = ThetaProfile.from_coeffs(1j * spectral.resample(p, nx).coeffs.imag)
    else:
        p, params, target_h, kind = jacobian_case(name, nx)
    x = np.concatenate([sine_coeffs(p), [params.beta, params.alpha]])
    p_x, params_x = _rebuild(x, nx)
    pins = {int(np.argmax(p_x.values)), 0, 1, nx // 3, nx // 2, nx - 1}
    for pin in sorted(pins):
        eqs, _, nyquist, lin = _square_equations(p_x, params_x, target_h, kind, pin)
        jac = _newton_jacobian(p_x, params_x, lin, pin)
        assert np.array_equal(jac, transcribed_newton_jacobian(p_x, params_x, lin, pin))
        r = residual_linearization(p_x, params_x, kind)[0]
        modes = cosine_coeffs(ThetaProfile.from_values(r))
        assert np.array_equal(eqs, np.append(modes[: nx // 2], p_x.values[pin] - target_h))
        assert nyquist == abs(modes[nx // 2])


@pytest.mark.parametrize("kind", [ModelKind.LINEAR, ModelKind.NONLINEAR])
def test_one_closure_evaluation_per_newton_iterate(monkeypatch, kind):
    orders = []
    deriv = spectral.deriv

    def counting_deriv(p, order):
        orders.append(order)
        return deriv(p, order)

    monkeypatch.setattr(spectral, "deriv", counting_deriv)
    sol = quasi_newton_solve(asymptotic_guess(1, 0.1, kind, nx=64), 0.1, kind, SolveConfig(nx=64), k0=1)
    assert sol.iterations >= 2
    # theta_s and theta_sss once at the guess and once at each iterate;
    # the Jacobian reuses the iterate's closure evaluation
    assert orders == [1, 3] * (sol.iterations + 1)


def test_overflowing_residual_is_a_typed_convergence_error():
    # kappa^3 of this finite guess overflows the float range
    p = ThetaProfile.from_values(1e110 * np.sin(grid(64)))
    guess = (p, WaveParams(alpha=-3.4, beta=1.0, length=length_from_theta(p)))
    with warnings.catch_warnings():
        # no RuntimeWarning may reach the caller either
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError) as info:
            quasi_newton_solve(guess, 0.1, ModelKind.NONLINEAR, SolveConfig(nx=64), k0=1)
    assert info.value.reason == "non-finite"
    assert info.value.residual_history == [np.inf]


def test_rebuild_rejects_non_finite_coefficients():
    x = np.zeros(64 // 2 - 1 + 2)
    x[0] = 0.1
    x[3] = np.nan
    x[-2:] = [1.0, 5.0]
    with pytest.raises(DegenerateFrontError):
        _rebuild(x, 64)


def test_solve_flat_target_zero_is_immediate():
    sol = quasi_newton_solve(flat_guess(), 0.0, ModelKind.LINEAR, SolveConfig(nx=64), k0=1)
    assert sol.iterations == 0
    assert sol.residual_norm <= 1e-14
    assert sol.amplitude == 0.0
    np.testing.assert_allclose(sol.theta.values, 0.0, rtol=0, atol=1e-15)


def test_solve_small_linear_wave(linear_wave_small):
    sol = linear_wave_small
    assert sol.kind is ModelKind.LINEAR
    assert sol.k0 == 1
    # regression baseline: the second-order guess converges in a handful
    # of corrections
    assert sol.iterations <= 5
    assert sol.residual_norm <= 1e-10
    assert sol.amplitude == pytest.approx(0.05, abs=1e-10)
    assert sol.alpha == pytest.approx(5.0, abs=0.01)
    # weakly nonlinear prediction beta = 1 + h^2/4
    assert sol.beta == pytest.approx(1.0 + 0.25 * 0.05**2, abs=1e-5)
    assert sol.length > 2.0 * np.pi


def test_solution_residual_norm_is_true_grid_norm(linear_wave_small):
    sol = linear_wave_small
    params = WaveParams(alpha=sol.alpha, beta=sol.beta, length=sol.length)
    r = residual(sol.theta, params, sol.kind)
    assert np.max(np.abs(r)) == pytest.approx(sol.residual_norm, rel=1e-6, abs=1e-14)


def test_solution_parity(linear_wave_small):
    # solutions live in the odd subspace: no cosine content at all
    c = cosine_coeffs(linear_wave_small.theta)
    s = sine_coeffs(linear_wave_small.theta)
    assert np.max(np.abs(c)) <= 1e-12 * np.max(np.abs(s))


def test_solve_pins_amplitude_at_grid_max(linear_wave_small):
    assert np.max(linear_wave_small.theta.values) == pytest.approx(0.05, abs=1e-10)


def test_branch_consistency_log_fit(fast_config):
    # beta - 1 = h^2/4 + O(h^4): the log-log fit over small amplitudes
    # recovers exponent 2 and prefactor 1/4
    hs = np.array([0.01, 0.02, 0.05, 0.1])
    betas = []
    for h in hs:
        sol = quasi_newton_solve(
            asymptotic_guess(1, h, ModelKind.LINEAR, nx=fast_config.nx),
            h,
            ModelKind.LINEAR,
            k0=1,
            cfg=fast_config,
        )
        betas.append(sol.beta)
    slope, intercept = np.polyfit(np.log(hs), np.log(np.array(betas) - 1.0), 1)
    assert slope == pytest.approx(2.0, abs=0.05)
    assert np.exp(intercept) == pytest.approx(0.25, abs=0.02)


def test_resolve_from_solution_is_cheap(linear_wave_small):
    sol = linear_wave_small
    params = WaveParams(alpha=sol.alpha, beta=sol.beta, length=sol.length)
    again = quasi_newton_solve((sol.theta, params), 0.05, ModelKind.LINEAR, k0=1)
    assert again.iterations <= 2
    assert abs(again.alpha - sol.alpha) < 1e-9
    assert abs(again.beta - sol.beta) < 1e-11


def test_solve_small_nonlinear_wave(nonlinear_wave_small):
    sol = nonlinear_wave_small
    alpha0 = nonlinear_bifurcation_alpha(1)
    assert sol.residual_norm <= 1e-10
    assert sol.amplitude == pytest.approx(0.05, abs=1e-10)
    assert sol.alpha == pytest.approx(alpha0, abs=0.02)
    assert sol.alpha < -3.0


def test_solve_rejects_a_guess_on_another_grid():
    with pytest.raises(ValueError, match=r"^the guess is on an nx = 64 grid, but cfg\.nx is 256$"):
        quasi_newton_solve(flat_guess(), 0.1, ModelKind.LINEAR, k0=1)
    with pytest.raises(ValueError, match=r"^the guess is on an nx = 256 grid, but cfg\.nx is 64$"):
        quasi_newton_solve(asymptotic_guess(1, 0.1, ModelKind.LINEAR), 0.1, ModelKind.LINEAR, SolveConfig(nx=64), k0=1)


@pytest.mark.parametrize("target_h", [-0.1, float("nan"), float("inf")])
def test_solve_rejects_negative_target(target_h):
    # refused before any arithmetic on the front, not as a degenerate one
    with pytest.raises(ValueError, match=r"^target_h must be nonnegative and finite, got"):
        quasi_newton_solve(flat_guess(), target_h, ModelKind.LINEAR, SolveConfig(nx=64), k0=1)


def test_solve_rejects_a_k0_that_is_no_mode_number():
    cfg = SolveConfig(nx=64)
    # recorded as int(k0) before: 2, 0, -1 and 1 on the returned wave
    for k0 in (2.5, 0, -1, True):
        with pytest.raises(ValueError, match=rf"^k0 must be an integer >= 1, got {k0!r}$"):
            quasi_newton_solve(flat_guess(), 0.0, ModelKind.LINEAR, cfg, k0=k0)
    sol = quasi_newton_solve(flat_guess(), 0.0, ModelKind.LINEAR, cfg, k0=np.int64(2))
    assert type(sol.k0) is int and sol.k0 == 2


def test_convergence_error_carries_history():
    cfg = SolveConfig(max_iters=2)
    guess = asymptotic_guess(1, 0.3, ModelKind.LINEAR)
    with pytest.raises(ConvergenceError) as info:
        quasi_newton_solve(guess, 0.9, ModelKind.LINEAR, cfg=cfg, k0=1)
    err = info.value
    assert err.last_iterate is not None
    assert len(err.residual_history) >= 2
    assert err.reason == "max-iters"
    assert err.residual_floor == min(err.residual_history)


def test_solve_below_rounding_floor_stalls(monkeypatch):
    # a tolerance below the rounding floor of the residual cannot be met;
    # the solve stops a few iterations after the residual stops halving
    monkeypatch.setattr(solver, "_TOL_RESIDUAL", 1e-17)
    guess = asymptotic_guess(1, 0.05, ModelKind.LINEAR)
    with pytest.raises(ConvergenceError) as info:
        quasi_newton_solve(guess, 0.05, ModelKind.LINEAR, k0=1)
    err = info.value
    assert err.reason == "stalled"
    assert len(err.residual_history) - 1 < 10
    assert err.residual_floor == min(err.residual_history)
    assert err.residual_floor < 1e-15
    assert "stalled" in str(err) and "target_h 0.05" in str(err)


def test_converged_wave_as_guess_is_not_stalled():
    # the guess's own grid residual is of rounding size; the stall rule
    # leaves it out, so a solve that converges quadratically from it to a
    # new target is not stopped after its third step
    cfg = SolveConfig(nx=64)
    wave = quasi_newton_solve(asymptotic_guess(1, 0.05, ModelKind.LINEAR, nx=64), 0.05, ModelKind.LINEAR, cfg, k0=1)
    assert wave.residual_norm < 1e-15
    sol = quasi_newton_solve((wave.theta, wave), 0.4, ModelKind.LINEAR, cfg, k0=1)
    assert sol.iterations == 4
    assert sol.residual_norm <= solver._TOL_RESIDUAL
    assert sol.amplitude == pytest.approx(0.4, abs=1e-10)


def test_residual_floor_leaves_out_the_guess():
    # a converged wave's residual is of rounding size: the floor of a
    # solve that starts from it and fails is the smallest residual the
    # solve itself reached, above the tolerance it failed
    cfg = SolveConfig(nx=256)
    rec = continue_branch(1, ModelKind.NONLINEAR, 0.02, 10.0, cfg=cfg)
    wave = rec.solutions[-1]
    assert wave.amplitude == pytest.approx(0.43875, abs=1e-12)
    with pytest.raises(ConvergenceError) as info:
        quasi_newton_solve((wave.theta, wave), 0.44, ModelKind.NONLINEAR, cfg, k0=1)
    err = info.value
    assert err.reason == "unresolved"
    assert err.residual_history[0] < solver._TOL_RESIDUAL < err.residual_floor
    assert err.residual_floor == min(err.residual_history[1:])
    assert f"residual floor {err.residual_floor:.3e}" in str(err)
    assert solver._failed_solve(0.44, err).residual_floor == err.residual_floor


def test_residual_floor_of_a_guess_alone_is_its_residual():
    err = ConvergenceError("no convergence", residual_history=[2.5])
    assert err.residual_floor == 2.5
    assert ConvergenceError("no convergence").residual_floor is None


def test_singular_system_from_flat_guess():
    # at theta = 0 the equations do not depend on alpha, so the Jacobian
    # has an identically zero column
    with pytest.raises(SingularSystemError):
        quasi_newton_solve(flat_guess(), 0.3, ModelKind.LINEAR, SolveConfig(nx=64), k0=1)


def test_flat_solution_fields():
    sol = flat_solution(17.0, nx=64)
    assert sol.alpha == 17.0
    assert sol.beta == 1.0
    assert sol.amplitude == 0.0
    assert sol.residual_norm == 0.0
    assert sol.length == pytest.approx(2.0 * np.pi, rel=1e-15)
    # checked by the grid, as SolveConfig checks its nx, not left to np.zeros
    for nx in (64.0, 63, 4):
        with pytest.raises(InvalidGridError):
            flat_solution(17.0, nx=nx)


def test_residual_audit_at_higher_resolution(linear_wave_small):
    sol = linear_wave_small
    audit = residual_at_resolution(sol, 512)
    assert abs(audit - sol.residual_norm) < 1e-8


def test_branch_stops_at_h_max():
    rec = continue_branch(1, ModelKind.LINEAR, 0.05, 0.2)
    assert isinstance(rec, BranchRecord)
    assert rec.termination == "max-amplitude-reached"
    assert len(rec.solutions) == 4
    np.testing.assert_allclose([s.amplitude for s in rec.solutions], [0.05, 0.1, 0.15, 0.2], rtol=0, atol=1e-9)
    betas = [s.beta for s in rec.solutions]
    assert all(a < b for a, b in zip(betas, betas[1:]))


def test_branch_validation():
    with pytest.raises(ValueError):
        continue_branch(1, ModelKind.LINEAR, 0.0, 1.0)
    with pytest.raises(ValueError):
        continue_branch(1, ModelKind.LINEAR, 0.05, 0.01)


@pytest.mark.parametrize(
    "h_step, h_max",
    [(float("nan"), 1.0), (float("inf"), 1.0), (0.05, float("nan")), (0.05, float("inf"))],
)
def test_branch_rejects_non_finite_amplitudes(h_step, h_max):
    with pytest.raises(ValueError, match="finite"):
        continue_branch(1, ModelKind.LINEAR, h_step, h_max)


def test_branch_start_failure():
    cfg = SolveConfig(max_iters=1)
    with pytest.raises(BranchStartError):
        continue_branch(1, ModelKind.LINEAR, 0.05, 0.2, cfg=cfg)


def test_branch_nonlinear_segment():
    rec = continue_branch(1, ModelKind.NONLINEAR, 0.02, 0.06)
    assert rec.termination == "max-amplitude-reached"
    alphas = [s.alpha for s in rec.solutions]
    assert all(a < -3.0 for a in alphas)
    # alpha climbs toward the well-posedness boundary as amplitude grows
    assert all(a < b for a, b in zip(alphas, alphas[1:]))


def test_linear_branch_newton_iterations():
    rec = continue_branch(1, ModelKind.LINEAR, 0.05, 10.0)
    assert len(rec.solutions) == 40
    assert rec.termination == "self-intersection"
    assert sum(s.iterations for s in rec.solutions) == 81
    assert rec.failures == ()


@pytest.mark.parametrize(
    "k0, waves, iterations", [(1, 10, 31), (2, 9, 23), (3, 10, 26)], ids=["k0-1", "k0-2", "k0-3"]
)
def test_coarse_linear_branch_newton_iterations(k0, waves, iterations):
    # at h_step 0.2 the four-wave guess peaks one index away from 5, 3 and
    # 2 of these waves; each iterate is pinned at its own crest, so such a
    # wave is reached in one solve, not by a second one from its crest
    rec = continue_branch(k0, ModelKind.LINEAR, 0.2, 10.0)
    assert len(rec.solutions) == waves
    assert rec.termination == "self-intersection"
    assert sum(s.iterations for s in rec.solutions) == iterations
    assert rec.failures == ()


@pytest.mark.parametrize(
    "k0, kind, h_step, waves",
    [
        (1, ModelKind.LINEAR, 0.05, 40),
        (1, ModelKind.NONLINEAR, 0.02, 25),
        (2, ModelKind.LINEAR, 0.05, 40),
        (1, ModelKind.LINEAR, 0.2, 10),
        (2, ModelKind.LINEAR, 0.2, 9),
        (3, ModelKind.LINEAR, 0.2, 10),
    ],
    ids=["linear-k0-1", "nonlinear-k0-1", "linear-k0-2", "linear-k0-1-coarse", "linear-k0-2-coarse", "linear-k0-3-coarse"],
)
def test_every_wave_lands_on_its_target(monkeypatch, k0, kind, h_step, waves):
    # theta is pinned to the target at each iterate's own argmax, so a
    # converged wave peaks at its pin even where its guess peaks at another
    # index: the linear k0 = 2 branch's guess for h = 1.85, and about one
    # guess in three at h_step 0.2
    targets = {}
    solve = solver.quasi_newton_solve

    def recorded(guess, target_h, *args, **kwargs):
        sol = solve(guess, target_h, *args, **kwargs)
        targets[id(sol)] = target_h
        return sol

    monkeypatch.setattr(solver, "quasi_newton_solve", recorded)
    cfg = SolveConfig()
    rec = continue_branch(k0, kind, h_step, 10.0, cfg=cfg)
    assert len(rec.solutions) == waves
    for sol in rec.solutions:
        assert abs(sol.amplitude - targets[id(sol)]) <= solver._TOL_RESIDUAL


def test_a_wave_whose_guess_peaks_one_index_away_lands_at_its_own_crest():
    # the linear k0 = 2 branch's guess for h = 1.85, extrapolated through
    # its waves at 1.65-1.80, peaks one index after the wave, whose two
    # crest values differ by 1.2e-4: pinned at the guess's peak throughout,
    # the wave would land at 1.8501186
    cfg = SolveConfig()
    rec = continue_branch(2, ModelKind.LINEAR, 0.05, 1.8, cfg=cfg)
    waves = [(s.amplitude, solver._pack(s)) for s in rec.solutions[-4:]]
    guess = _rebuild(solver._predict(waves, 1.85), cfg.nx)
    pin = int(np.argmax(guess[0].values))
    sol = quasi_newton_solve(guess, 1.85, ModelKind.LINEAR, cfg, k0=2)
    peak = int(np.argmax(sol.theta.values))
    assert peak == pin - 1
    assert abs(sol.amplitude - 1.85) <= solver._TOL_RESIDUAL
    assert sol.theta.values[pin] < sol.amplitude - 1e-4
    assert sol.residual_norm <= solver._TOL_RESIDUAL
    # one solve: the iterates move the pin to the wave's crest on the way
    assert sol.iterations == 3


def test_nonlinear_branch_logs_unresolved_attempts(monkeypatch):
    # near alpha = -3 the grid residual levels off just above the tolerance,
    # held there by the unsolved Nyquist mode; the first attempt at
    # h = 0.44 ends as unresolved once the solved modes are within
    # tolerance, the four retries there reuse its verdict without a solve,
    # and the branch ends after 4 step halvings
    targets = []
    failed_iterations = []

    def logging_solve(guess, target_h, *args, **kwargs):
        targets.append(target_h)
        try:
            return quasi_newton_solve(guess, target_h, *args, **kwargs)
        except ConvergenceError as exc:
            failed_iterations.append(len(exc.residual_history) - 1)
            raise

    monkeypatch.setattr(solver, "quasi_newton_solve", logging_solve)
    rec = continue_branch(1, ModelKind.NONLINEAR, 0.02, 10.0, cfg=SolveConfig(nx=256))
    assert len(rec.solutions) == 25
    assert rec.termination == "iteration-failure"
    assert sum(s.iterations for s in rec.solutions) == 58
    assert len(targets) == 26
    assert sum(abs(h - 0.44) < 1e-12 for h in targets) == 1
    assert len(rec.failures) == 5
    for failure in rec.failures:
        assert failure.reason == "unresolved"
        assert failure.residual_floor == rec.failures[0].residual_floor
        assert failure.target_h == pytest.approx(0.44, abs=1e-12)
    assert 1.25e-10 < rec.failures[0].residual_floor < 1.251e-10
    # the one solve stops at its first iterate whose solved equations meet
    # the tolerance; the stall rule alone would take 7
    assert failed_iterations == [4]


@pytest.mark.parametrize("reason, solves_at_target", [("unresolved", 1), ("stalled", 2)])
def test_only_an_unresolved_verdict_is_final_for_its_target(monkeypatch, reason, solves_at_target):
    # the first attempt at h = 0.3 fails; after the halved step to 0.25
    # the branch comes back to 0.3.  A stalled solve may converge from the
    # better guess and is solved again; an unresolved one would reach the
    # same square-system solution, so its verdict and floor are reused
    # until the step halvings run out
    targets = []
    injected = []

    def failing_once_at_0_3(guess, target_h, *args, **kwargs):
        targets.append(target_h)
        if abs(target_h - 0.3) < 1e-12 and not injected:
            injected.append(target_h)
            raise ConvergenceError("injected", residual_history=[1.0, 2e-10], reason=reason)
        return quasi_newton_solve(guess, target_h, *args, **kwargs)

    monkeypatch.setattr(solver, "quasi_newton_solve", failing_once_at_0_3)
    rec = continue_branch(1, ModelKind.LINEAR, 0.1, 0.5, cfg=SolveConfig(nx=64))
    assert sum(abs(h - 0.3) < 1e-12 for h in targets) == solves_at_target
    assert rec.failures[0] == FailedSolve(injected[0], reason, 2e-10)
    if reason == "stalled":
        assert rec.termination == "max-amplitude-reached"
        assert [s.amplitude for s in rec.solutions] == pytest.approx([0.1, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5], abs=1e-10)
        assert len(rec.failures) == 1
    else:
        assert rec.termination == "iteration-failure"
        assert len(rec.failures) == 5
        for failure in rec.failures:
            assert failure.reason == "unresolved" and failure.residual_floor == 2e-10
            assert failure.target_h == pytest.approx(0.3, abs=1e-12)


def test_wall_solve_ends_as_unresolved_without_further_iterations(monkeypatch):
    # the branch's fifth attempt: its own predictor through its last four
    # waves, h = 0.43 to 0.43875, toward h = 0.44.  The branch reuses its
    # first attempt's verdict there; solved from this best guess, the
    # attempt reaches the same verdict
    cfg = SolveConfig(nx=256)
    predictions = []
    predict = solver._predict

    def recorded(waves, h_next):
        predictions.append((list(waves), h_next))
        return predict(waves, h_next)

    monkeypatch.setattr(solver, "_predict", recorded)
    rec = continue_branch(1, ModelKind.NONLINEAR, 0.02, 10.0, cfg=cfg)
    waves, h_next = predictions[-1]
    assert [h for h, _ in waves] == pytest.approx([0.43, 0.435, 0.4375, 0.43875], abs=1e-12)
    for (_, x), wave in zip(waves, rec.solutions[-4:]):
        np.testing.assert_array_equal(x, solver._pack(wave))
    assert h_next == pytest.approx(0.44, abs=1e-12)
    guess = _rebuild(predict(waves, h_next), 256)
    with pytest.raises(ConvergenceError) as info:
        quasi_newton_solve(guess, h_next, ModelKind.NONLINEAR, cfg, k0=1)
    err = info.value
    assert err.reason == "unresolved"
    assert "unresolved" in str(err) and "target_h 0.44" in str(err)
    # two Newton steps, where the stall rule alone would take 5
    assert len(err.residual_history) - 1 == 2
    assert solver._TOL_RESIDUAL < err.residual_floor == err.residual_history[-1] < 1e-9
    # at the last iterate every solved equation meets the tolerance, and
    # the Nyquist coefficient, a lower bound of the grid residual, does not
    p, params = _rebuild(err.last_iterate, 256)
    amp_index = int(np.argmax(p.values))
    eqs, grid_norm, nyquist, _ = _square_equations(p, params, h_next, ModelKind.NONLINEAR, amp_index)
    assert np.max(np.abs(eqs)) <= solver._TOL_RESIDUAL < nyquist <= grid_norm
    assert grid_norm == err.residual_history[-1]


def test_nonlinear_branch_stops_at_the_well_posedness_threshold(monkeypatch):
    # the nx-64 branch's third wave has alpha -3.3705: with the threshold
    # just below it, that wave ends the branch and is not kept
    monkeypatch.setattr(solver, "_ALPHA_WELL_POSED", -3.371)
    rec = continue_branch(1, ModelKind.NONLINEAR, 0.02, 0.1, cfg=SolveConfig(nx=64))
    assert rec.termination == "alpha-threshold"
    assert len(rec.solutions) == 2
    assert all(s.alpha < -3.371 for s in rec.solutions)
    assert rec.failures == ()


@pytest.mark.parametrize("gap_fraction, waves", [(2.5, 1), (1.99998, 2)], ids=["first-wave", "converged-wave"])
def test_branch_ends_at_a_self_intersecting_wave(monkeypatch, gap_fraction, waves):
    # the nearest non-adjacent points of the nx-64 waves at h = 0.05 and
    # 0.1 lie 1.999992 and 1.999968 grid spacings apart: a gap fraction of
    # 2.5 flags the first wave, and one between the two the second, whose
    # predicted guess is the first wave; a flagged wave is kept
    monkeypatch.setattr(geometry, "_GAP_FRACTION", gap_fraction)
    rec = continue_branch(1, ModelKind.LINEAR, 0.05, 0.2, cfg=SolveConfig(nx=64))
    assert rec.termination == "self-intersection"
    np.testing.assert_allclose([s.amplitude for s in rec.solutions], [0.05, 0.1][:waves], rtol=0, atol=1e-10)


@pytest.mark.parametrize(
    "error, reason",
    [(SingularSystemError, "singular-system"), (DegenerateFrontError, "degenerate-front")],
)
def test_branch_logs_failed_solves_without_history(monkeypatch, error, reason):
    # every solve after the first wave raises: each attempt halves the
    # step, and the fifth failure ends the branch
    solve = solver.quasi_newton_solve
    calls = []

    def failing_after_first(guess, target_h, kind, cfg=None, *, k0):
        calls.append(target_h)
        if len(calls) == 1:
            return solve(guess, target_h, kind, cfg, k0=k0)
        raise error("stand-in failure")

    monkeypatch.setattr(solver, "quasi_newton_solve", failing_after_first)
    rec = continue_branch(1, ModelKind.LINEAR, 0.05, 1.0, cfg=SolveConfig(nx=64))
    assert rec.termination == "iteration-failure"
    assert len(rec.solutions) == 1
    targets = [0.05 + 0.05 * 0.5**i for i in range(5)]
    assert calls[1:] == targets
    assert rec.failures == tuple(FailedSolve(h, reason, None) for h in targets)
