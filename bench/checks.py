"""Output checks that do not use the flamefront package.

Every check here is computed with plain numpy: derivatives come from this
file's own real-FFT routine, the residual is re-derived from the closure
formulas, and the expected numbers are closed forms (the bifurcation
points, the flat-state dispersion relation) or properties the method must
have.  Nothing is compared against a stored copy of earlier output.

Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import numpy as np

RESIDUAL_TOL = 1e-8
LENGTH_RTOL = 1e-10
PERIOD_TOL = 1e-9


def spectral_derivative(values, order):
    """d^order/dsigma^order of periodic grid samples by real FFT.

    Odd orders zero the Nyquist mode, whose derivative is a pure sine that
    vanishes on the grid.
    """
    nx = values.shape[-1]
    n = np.arange(nx // 2 + 1)
    coeffs = np.fft.rfft(values, axis=-1) * (1j * n) ** order
    if order % 2 == 1:
        coeffs[..., -1] = 0.0
    return np.fft.irfft(coeffs, n=nx, axis=-1)


def sine_weights(nx, k):
    """w such that w @ values is the coefficient b_k of sin(k sigma) in grid
    samples at sigma_j = 2 pi j / nx (the discrete sine transform at k)."""
    return 2.0 / nx * np.sin(k * 2.0 * np.pi * np.arange(nx) / nx)


def front_length(theta):
    """L = 4 pi^2 / integral(cos theta), the integral by the mean-value rule."""
    return 4.0 * np.pi**2 / (2.0 * np.pi * np.mean(np.cos(theta)))


def grid_residual(theta, alpha, beta, length, model):
    """Traveling-wave residual of the linear or nonlinear closure on the grid."""
    q = 2.0 * np.pi / length
    theta_s = spectral_derivative(theta, 1)
    theta_sss = spectral_derivative(theta, 3)
    if model == "linear":
        return (
            1.0
            + (alpha - 1.0) * q * theta_s
            + 4.0 * q**3 * theta_sss
            - beta * np.cos(theta)
        )
    if model == "nonlinear":
        kappa = q * theta_s
        return (
            1.0
            + (alpha - 1.0) * kappa
            + alpha**2 * (alpha + 3.0) * q**3 * theta_sss
            + (1.0 + alpha / 2.0) * kappa**2
            + (2.0 * alpha + 5.0 * alpha**2 - alpha**3 / 3.0) * kappa**3
            - beta * np.cos(theta)
        )
    raise ValueError(f"unknown model {model!r}")


def dispersion(alpha, k):
    """Flat-state growth rate lambda(k) = -4 k^4 + (alpha - 1) k^2."""
    return -4.0 * k**4 + (alpha - 1.0) * k**2


def fastest_flat_rate(alpha):
    """Largest lambda(k) over the integer modes k >= 1."""
    return max(dispersion(alpha, k) for k in range(1, 64))


def nonlinear_alpha0():
    """Real root of (alpha - 1) - alpha^2 (alpha + 3), the k0 = 1 nonlinear
    bifurcation point."""
    roots = np.roots([-1.0, -3.0, 1.0, -1.0])
    real = roots[np.abs(roots.imag) < 1e-9].real
    if real.size != 1:
        raise ValueError(f"expected one real root, got {roots}")
    return float(real[0])


def check_wave(theta, alpha, beta, length, model, label):
    """Residual at most 1e-8 and L equal to the length functional."""
    theta = np.asarray(theta, dtype=float)
    problems = []
    res = float(np.max(np.abs(grid_residual(theta, alpha, beta, length, model))))
    if not res <= RESIDUAL_TOL:
        problems.append(f"{label}: grid residual {res:.3e} > {RESIDUAL_TOL:g}")
    expected = front_length(theta)
    if not abs(length - expected) <= LENGTH_RTOL * expected:
        problems.append(f"{label}: L {length!r} != 4pi^2/int(cos theta) {expected!r}")
    return problems


def check_wave_file(data, label):
    """check_wave on a wave file's payload, plus x(2pi) - x(0) = 2pi."""
    problems = check_wave(
        data["theta"], data["alpha"], data["beta"], data["L"], data["model"], label
    )
    x = np.asarray(data["x"], dtype=float)
    if x.size != len(data["theta"]) + 1:
        problems.append(f"{label}: curve has {x.size} points for {len(data['theta'])} angles")
    elif not abs(x[-1] - x[0] - 2.0 * np.pi) <= PERIOD_TOL:
        problems.append(f"{label}: x(2pi) - x(0) = {x[-1] - x[0]!r}, not 2pi")
    return problems


def check_linear_branch(waves, termination, k0=1):
    """waves: payloads ordered by amplitude."""
    problems = []
    first, last = waves[0], waves[-1]
    alpha0 = 4.0 * k0 * k0 + 1.0
    if not abs(first["alpha"] - alpha0) <= 0.01:
        problems.append(f"first alpha {first['alpha']!r} not within 0.01 of {alpha0}")
    slope = (first["beta"] - 1.0) / first["h"] ** 2
    if not abs(slope - 0.25) <= 0.1 * 0.25:
        problems.append(f"(beta-1)/h^2 = {slope!r} not within 10% of 1/4")
    peak = float(np.max(np.abs(last["theta"])))
    if not peak > np.pi / 2.0:
        problems.append(f"last wave max|theta| = {peak!r} is not above pi/2")
    if termination != "self-intersection":
        problems.append(f"ended by {termination!r}, not self-intersection")
    return problems


def check_nonlinear_branch(waves, termination):
    problems = []
    alphas = [w["alpha"] for w in waves]
    if not all(a < -3.0 for a in alphas):
        problems.append(f"an alpha is not below -3: max {max(alphas)!r}")
    if not all(a < b for a, b in zip(alphas, alphas[1:])):
        problems.append("alpha does not increase strictly along the branch")
    root = nonlinear_alpha0()
    if not abs(alphas[0] - root) <= 0.01:
        problems.append(f"first alpha {alphas[0]!r} not within 0.01 of {root!r}")
    if termination not in ("iteration-failure", "alpha-threshold"):
        problems.append(f"ended by {termination!r}")
    return problems


def check_probe(observed, rate, expected, tol, label):
    problems = []
    if not observed:
        problems.append(f"{label}: growth not observed")
    if not abs(rate - expected) <= tol:
        problems.append(f"{label}: rate {rate!r} not within {tol:g} of {expected:g}")
    return problems


def check_dispersion_fit(times, amps, alpha, k):
    """Criterion 5: the growth rate of the sine amplitudes b_k(t), fitted to
    log|b_k|, is within 1% of lambda(k), with an absolute floor of 0.01
    where lambda is zero."""
    slope = float(np.polyfit(times, np.log(np.abs(amps)), 1)[0])
    lam = dispersion(alpha, k)
    tol = max(0.01 * abs(lam), 0.01)
    if abs(slope - lam) <= tol:
        return []
    return [f"mode {k}: fitted rate {slope!r} not within {tol:g} of {lam:g}"]


def nudged_wave_is_caught(theta, alpha, beta, length, model):
    """Self-test: one theta value moved by 1e-6 must fail check_wave."""
    bad = np.array(theta, dtype=float)
    bad[bad.size // 3] += 1e-6
    return bool(check_wave(bad, alpha, beta, length, model, "nudged"))
