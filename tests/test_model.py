from types import SimpleNamespace

import numpy as np
import pytest

from flamefront import spectral
from flamefront.bifurcation import asymptotic_guess
from flamefront.errors import ContractViolationError, DegenerateFrontError
from flamefront.model import (
    ModelKind,
    WaveParams,
    dispersion_linear,
    kinematics,
    length_from_theta,
    residual,
    residual_linearization,
    unstable_modes,
)
from flamefront.spectral import ThetaProfile, from_sine_coeffs, grid

# independent oracle: trapezoid quadrature of cos(0.1 sin s) at 200001 points,
# cross-checked against 2*pi/J0(0.1)
LENGTH_SMALL_SINE = 6.298922774783188


def flat(nx=64, value=0.0):
    return ThetaProfile.from_values(np.full(nx, value))


def single_mode(eps, nx=256):
    return ThetaProfile.from_values(eps * np.sin(grid(nx)))


def test_length_flat_is_period():
    assert abs(length_from_theta(flat()) - 2.0 * np.pi) < 1e-14


def test_length_small_sine_matches_quadrature():
    p = single_mode(0.1)
    assert abs(length_from_theta(p) - LENGTH_SMALL_SINE) < 1e-12


def test_length_exceeds_period_for_curved_fronts():
    assert length_from_theta(single_mode(0.5)) > 2.0 * np.pi


def test_length_degenerate_folded_front():
    # mean turning angle near pi makes the projected width vanish or flip
    with pytest.raises(DegenerateFrontError):
        length_from_theta(flat(value=np.pi))
    with pytest.raises(DegenerateFrontError):
        length_from_theta(flat(value=0.5 * np.pi))


def test_length_of_non_finite_profile_is_degenerate():
    # a diverged Newton step leaves NaN in the profile; the comparison with
    # the degeneracy threshold must not let it through as a nan length
    b = np.zeros(127)
    b[0] = 0.1
    b[5] = np.nan
    with pytest.raises(DegenerateFrontError):
        length_from_theta(from_sine_coeffs(b, 256))


def test_wave_params_validation():
    with pytest.raises(ContractViolationError):
        WaveParams(alpha=5.0, beta=1.0, length=0.0)
    with pytest.raises(ContractViolationError):
        WaveParams(alpha=5.0, beta=1.0, length=-1.0)


def test_kinematics_flat():
    p = flat()
    kin = kinematics(p, WaveParams(alpha=5.0, beta=2.0, length=2.0 * np.pi))
    assert abs(kin.s_sigma - 1.0) < 1e-14
    np.testing.assert_allclose(kin.kappa, 0.0, rtol=0, atol=1e-14)
    np.testing.assert_allclose(kin.u, -2.0, rtol=0, atol=1e-14)
    np.testing.assert_allclose(kin.v, 0.0, rtol=0, atol=1e-14)


def test_kinematics_rejects_inconsistent_length():
    p = single_mode(0.3)
    with pytest.raises(ContractViolationError):
        kinematics(p, WaveParams(alpha=5.0, beta=1.0, length=7.5))


def test_kinematics_curvature_scaling():
    # kappa = (2 pi / L) theta_sigma
    p = single_mode(0.1)
    length = length_from_theta(p)
    kin = kinematics(p, WaveParams(alpha=5.0, beta=1.0, length=length))
    expected = (2.0 * np.pi / length) * 0.1 * np.cos(grid(p.nx))
    np.testing.assert_allclose(kin.kappa, expected, rtol=0, atol=1e-13)


def test_flat_residual_both_closures():
    p = flat()
    for kind in (ModelKind.LINEAR, ModelKind.NONLINEAR):
        r = residual(p, WaveParams(alpha=5.0, beta=1.0, length=2.0 * np.pi), kind)
        np.testing.assert_allclose(r, 0.0, rtol=0, atol=1e-14)
        r = residual(p, WaveParams(alpha=5.0, beta=2.0, length=2.0 * np.pi), kind)
        np.testing.assert_allclose(r, -1.0, rtol=0, atol=1e-14)


def test_residual_translation_covariance(rng):
    # shifting theta by a grid offset shifts the residual by the same offset
    nx = 128
    vals = 0.2 * np.sin(grid(nx)) + 0.05 * np.sin(3 * grid(nx))
    p = ThetaProfile.from_values(vals)
    shifted = ThetaProfile.from_values(np.roll(vals, 9))
    for kind in (ModelKind.LINEAR, ModelKind.NONLINEAR):
        params = WaveParams(alpha=4.0, beta=1.1, length=length_from_theta(p))
        r = residual(p, params, kind)
        r_shifted = residual(shifted, params, kind)
        # round-off under the third derivative grows like k^3; the residuals
        # themselves are O(1)
        np.testing.assert_allclose(r_shifted, np.roll(r, 9), rtol=0, atol=1e-8)


def test_linear_residual_onset_annihilation():
    # at alpha = 4*k0^2 + 1 the linearization kills a pure sine mode, so the
    # residual is the O(eps^2) remainder of 1 - cos(theta)
    for k0 in (1, 2):
        norms = []
        for eps in (1e-4, 5e-5):
            p = ThetaProfile.from_values(eps * np.sin(k0 * grid(256)))
            params = WaveParams(
                alpha=4.0 * k0 * k0 + 1.0, beta=1.0, length=2.0 * np.pi
            )
            norms.append(np.max(np.abs(residual(p, params, ModelKind.LINEAR))))
        assert norms[0] < (1e-4) ** 2
        assert 3.5 < norms[0] / norms[1] < 4.5


def test_linear_residual_small_amplitude_defect():
    # second-order expansion leaves an O(eps^3) defect: halving eps divides
    # the max-abs residual by about 8
    from flamefront.bifurcation import asymptotic_guess

    norms = []
    for eps in (0.1, 0.05, 0.025):
        p, params = asymptotic_guess(1, eps, ModelKind.LINEAR)
        norms.append(np.max(np.abs(residual(p, params, ModelKind.LINEAR))))
    assert 7.0 < norms[0] / norms[1] < 9.0
    assert 7.0 < norms[1] / norms[2] < 9.0


def test_nonlinear_residual_leading_order_defect():
    # leading-order guess leaves an O(eps^2) defect; the cubic curvature
    # coefficient is ~63 at alpha0 so the eps^3 piece dominates until
    # eps ~ 0.01, pushing the halving ratio toward 8 in this range
    from flamefront.bifurcation import asymptotic_guess

    norms = []
    for eps in (0.1, 0.05, 0.025):
        p, params = asymptotic_guess(1, eps, ModelKind.NONLINEAR)
        norms.append(np.max(np.abs(residual(p, params, ModelKind.NONLINEAR))))
    assert 3.5 < norms[0] / norms[1] < 8.5
    assert 3.5 < norms[1] / norms[2] < 8.5


def residual_moved(monkeypatch, p, params, kind, d_theta=0.0, d_s=0.0, d_sss=0.0):
    """model.residual with theta, theta_s and theta_sss moved independently:
    the spectral derivatives it reads are replaced by fixed grid arrays."""
    derivs = {
        1: spectral.deriv(p, 1).values + d_s,
        3: spectral.deriv(p, 3).values + d_sss,
    }
    with monkeypatch.context() as m:
        m.setattr(spectral, "deriv", lambda _, order: SimpleNamespace(values=derivs[order]))
        return residual(SimpleNamespace(values=p.values + d_theta), params, kind)


@pytest.mark.parametrize("kind", [ModelKind.LINEAR, ModelKind.NONLINEAR])
def test_residual_linearization_matches_forward_differences(monkeypatch, kind):
    p, params = asymptotic_guess(1, 0.3, kind, nx=64)
    q = 2.0 * np.pi / params.length
    r, w1, w3, r_q, r_alpha = residual_linearization(p, params, kind)
    # the residual it carries is residual()'s, bit for bit
    assert r.tobytes() == residual(p, params, kind).tobytes()
    stiff = 4.0 if kind is ModelKind.LINEAR else params.alpha**2 * (params.alpha + 3.0)
    # the theta_sss coefficient is one number, not a grid array
    assert isinstance(w3, float)
    assert w3 == pytest.approx(stiff * q**3, rel=1e-15)

    base = residual_moved(monkeypatch, p, params, kind)
    direction = np.random.default_rng(3).uniform(-1.0, 1.0, p.nx)
    eps = 1e-8

    def check(moved, step, expected):
        np.testing.assert_allclose(
            (moved - base) / step, expected, rtol=0, atol=1e-6 * np.max(np.abs(expected))
        )

    for name, expected in [
        ("d_s", w1 * direction),
        ("d_sss", w3 * direction),
        ("d_theta", params.beta * np.sin(p.values) * direction),
    ]:
        moved = residual_moved(monkeypatch, p, params, kind, **{name: eps * direction})
        check(moved, eps, expected)
    # q = 2*pi/L moves with L; alpha on its own
    length = params.length / (1.0 + eps)
    moved = residual(p, WaveParams(params.alpha, params.beta, length), kind)
    check(moved, 2.0 * np.pi / length - q, r_q)
    moved = residual(p, WaveParams(params.alpha + eps, params.beta, params.length), kind)
    check(moved, eps, r_alpha)


def test_dispersion_linear_values():
    # lambda(k) = -4 k^4 + (alpha - 1) k^2
    assert dispersion_linear(17.0, 1) == pytest.approx(12.0, abs=1e-12)
    assert dispersion_linear(17.0, 2) == pytest.approx(0.0, abs=1e-12)
    assert dispersion_linear(17.0, 3) == pytest.approx(-180.0, abs=1e-12)
    assert dispersion_linear(37.0, 2) == pytest.approx(80.0, abs=1e-12)
    assert dispersion_linear(5.0, 2) == pytest.approx(-48.0, abs=1e-12)


def test_unstable_modes_census():
    # strictly positive growth only: modes that sit exactly at a bifurcation
    # point are neutral and excluded
    assert unstable_modes(5.0) == []
    assert unstable_modes(5.1) == [1]
    assert unstable_modes(17.0) == [1]
    assert unstable_modes(37.0) == [1, 2]
    assert unstable_modes(1.0) == []
    # inf raised OverflowError and nan "cannot convert float NaN to integer"
    for alpha in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="^alpha must be finite"):
            unstable_modes(alpha)
