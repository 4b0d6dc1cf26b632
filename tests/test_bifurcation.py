import warnings

import numpy as np
import pytest

from flamefront.bifurcation import (
    asymptotic_expansion,
    asymptotic_guess,
    cubic_discriminant,
    linear_bifurcation_alpha,
    nonlinear_bifurcation_alpha,
    root_certificate,
    sylvester_matrix,
    transversality_resultant,
)
from flamefront.errors import InvalidGridError
from flamefront.model import ModelKind
from flamefront.solver import SolveConfig, continue_branch
from flamefront.spectral import sine_coeffs

# roots of (alpha - 1) - k0^2 alpha^2 (alpha + 3) in (-4, -3), frozen from a
# 50-digit bisection oracle
NONLINEAR_ALPHA0 = {
    1: -3.3829757679062373,
    2: -3.1063870475822069,
    3: -3.0484056435287594,
}


def q_poly(alpha, k0):
    return (alpha - 1.0) - k0 * k0 * alpha * alpha * (alpha + 3.0)


def test_linear_bifurcation_values():
    assert linear_bifurcation_alpha(1) == 5.0
    assert linear_bifurcation_alpha(2) == 17.0
    assert linear_bifurcation_alpha(3) == 37.0
    for k0 in range(1, 51):
        assert linear_bifurcation_alpha(k0) == 4.0 * k0 * k0 + 1.0


def test_k0_validation():
    # True is no mode number, though bool subclasses int
    for bad in (0, -1, True):
        with pytest.raises(ValueError, match="^k0 must be an integer >= 1"):
            linear_bifurcation_alpha(bad)
        with pytest.raises(ValueError, match="^k0 must be an integer >= 1"):
            nonlinear_bifurcation_alpha(bad)
    with pytest.raises(ValueError, match="^k0 must be an integer >= 1"):
        continue_branch(True, ModelKind.LINEAR, 0.1, 0.2, cfg=SolveConfig(nx=64))
    assert linear_bifurcation_alpha(np.int64(2)) == 17.0
    assert nonlinear_bifurcation_alpha(np.int64(2)) == nonlinear_bifurcation_alpha(2)


def test_nonlinear_roots_match_oracle():
    for k0, expected in NONLINEAR_ALPHA0.items():
        alpha0 = nonlinear_bifurcation_alpha(k0)
        assert abs(alpha0 - expected) < 1e-9
        assert abs(q_poly(alpha0, k0)) < 1e-13


def test_nonlinear_roots_bracket_and_residual_k0_sweep():
    # |q'(alpha0)| grows like 9 k0^2, so past k0 ~ 25 the representability
    # floor |q'| * ulp(alpha0) exceeds 1e-12 and no double can do better;
    # the sharp bound certifies the returned value is within one ulp of
    # the true root
    for k0 in range(1, 51):
        alpha0 = nonlinear_bifurcation_alpha(k0)
        assert -4.0 < alpha0 < -3.0
        q = abs(q_poly(alpha0, k0))
        q_prime = abs(1.0 - k0 * k0 * (3.0 * alpha0 * alpha0 + 6.0 * alpha0))
        assert q <= q_prime * np.spacing(abs(alpha0))
        if k0 <= 25:
            assert q < 1e-12
        # sign change across the bracket
        assert q_poly(-4.0, k0) * q_poly(-3.0 + 1e-9, k0) < 0.0


def test_nonlinear_roots_approach_minus_three():
    # alpha0(k0) increases toward -3 as the mode number grows
    roots = [nonlinear_bifurcation_alpha(k0) for k0 in range(1, 20)]
    assert all(a < b for a, b in zip(roots, roots[1:]))
    assert roots[-1] > -3.02


def test_discriminant_frozen_values():
    # closed form -4 k0^2 (27 k0^4 + 18 k0^2 - 1)
    assert cubic_discriminant(1) == pytest.approx(-176.0, rel=1e-14)
    assert cubic_discriminant(2) == pytest.approx(-8048.0, rel=1e-14)


def test_discriminant_matches_root_product():
    # disc = a^4 (r1-r2)^2 (r1-r3)^2 (r2-r3)^2 for the cubic written as
    # -k0^2 a^3 - 3 k0^2 a^2 + a - 1
    for k0 in (1, 2, 3, 7):
        a = -float(k0 * k0)
        roots = np.roots([a, 3.0 * a, 1.0, -1.0])
        prod = (
            (roots[0] - roots[1]) ** 2
            * (roots[0] - roots[2]) ** 2
            * (roots[1] - roots[2]) ** 2
        )
        oracle = np.real(a**4 * prod)
        assert cubic_discriminant(k0) == pytest.approx(oracle, rel=1e-8)


def test_discriminant_negative_sweep():
    # one real root and a complex pair for every mode
    for k0 in range(1, 101):
        assert cubic_discriminant(k0) < 0.0


def test_resultant_frozen_values():
    assert transversality_resultant(1) == pytest.approx(176.0, rel=1e-12)
    assert transversality_resultant(2) == pytest.approx(32192.0, rel=1e-12)


def test_resultant_positive_sweep():
    for k0 in range(1, 101):
        assert transversality_resultant(k0) > 0.0


def test_resultant_matches_sylvester_determinant():
    # closed form against the 5x5 determinant route, kept separate on purpose
    for k0 in (1, 2, 3, 10, 50):
        m = sylvester_matrix(k0)
        assert m.shape == (5, 5)
        det = np.linalg.det(m)
        closed = transversality_resultant(k0)
        assert abs(det - closed) <= 1e-9 * abs(closed)


def test_transversality_at_root():
    # resultant > 0 certifies q' does not vanish where q does
    for k0 in range(1, 51):
        alpha0 = nonlinear_bifurcation_alpha(k0)
        q_prime = 1.0 - k0 * k0 * (3.0 * alpha0 * alpha0 + 6.0 * alpha0)
        assert abs(q_prime) > 1.0


def test_mode_simplicity():
    # the root for mode k0 does not kill the criticality condition of any
    # other mode
    for k0 in (1, 2, 3, 4, 5):
        alpha0 = nonlinear_bifurcation_alpha(k0)
        for k1 in range(1, 65):
            if k1 == k0:
                continue
            assert abs(q_poly(alpha0, k1)) > 1e-3


def test_root_certificate_holds():
    for k0 in (1, 2, 3, 10, 100):
        cert = root_certificate(k0)
        assert cert.holds()
        assert cert.q_left * cert.q_right < 0.0
        assert cert.bracket[0] <= cert.alpha0 <= cert.bracket[1]
        assert cert.discriminant < 0.0
        assert cert.resultant > 0.0
        assert abs(cert.q_at_root) < 1e-13 * k0 * k0


def test_expansion_linear_k0_1():
    ex = asymptotic_expansion(1, ModelKind.LINEAR)
    assert ex.alpha0 == 5.0
    assert ex.theta2_coeff == pytest.approx(-1.0 / 96.0, rel=1e-15)
    assert ex.beta2 == pytest.approx(0.25, rel=1e-15)


def test_expansion_other_branches_leading_order():
    for k0, kind in ((2, ModelKind.LINEAR), (1, ModelKind.NONLINEAR)):
        ex = asymptotic_expansion(k0, kind)
        assert ex.theta2_coeff == 0.0
        assert ex.beta2 == 0.0


def test_guess_profile_structure():
    p, params = asymptotic_guess(1, 0.05, ModelKind.LINEAR)
    b = sine_coeffs(p)
    assert b[0] == pytest.approx(0.05, rel=1e-12)
    assert b[1] == pytest.approx(-(0.05**2) / 96.0, rel=1e-10)
    assert np.max(np.abs(b[2:])) < 1e-15
    assert params.beta == pytest.approx(1.0 + 0.25 * 0.05**2, rel=1e-12)
    assert params.alpha == 5.0


def test_guess_mode_number_scales():
    p, params = asymptotic_guess(2, 0.1, ModelKind.LINEAR)
    b = sine_coeffs(p)
    assert b[1] == pytest.approx(0.1, rel=1e-12)
    assert params.alpha == 17.0


def test_guess_eps_bounds():
    for eps in (0.0, -0.1, 0.31):
        with pytest.raises(ValueError):
            asymptotic_guess(1, eps, ModelKind.LINEAR)


def test_guess_grid_size_forwarded():
    p, _ = asymptotic_guess(1, 0.1, ModelKind.NONLINEAR, nx=128)
    assert p.nx == 128
    with pytest.raises(InvalidGridError):
        asymptotic_guess(1, 0.1, ModelKind.LINEAR, nx=6)


def test_guess_rejects_unresolved_k0():
    p, _ = asymptotic_guess(31, 0.1, ModelKind.LINEAR, nx=64)
    assert np.argmax(np.abs(np.fft.rfft(p.values))) == 31
    for k0 in (32, 40):
        with pytest.raises(ValueError, match=f"k0={k0} is not resolved on an nx=64 grid"):
            asymptotic_guess(k0, 0.1, ModelKind.LINEAR, nx=64)


def test_root_is_minus_three_in_floating_point_for_large_k0():
    # the root, -3 - 4/(9*k0^2) to leading order, is within half an ulp of
    # -3 from about k0 = 4.5e7 on; the bracket's top, -3 + 1e-9, holds it
    assert nonlinear_bifurcation_alpha(2 * 10**7) == -3.0000000000000013
    assert nonlinear_bifurcation_alpha(10**8) == -3.0
    assert root_certificate(10**8).alpha0 == -3.0
    assert root_certificate(10**8).holds()


def test_certificate_refuses_k0_beyond_the_float_range():
    with warnings.catch_warnings():
        # the refusal comes before any overflow warning from numpy
        warnings.simplefilter("error")
        cert = root_certificate(10**38)
        assert cert.holds()
        assert np.isfinite([cert.discriminant, cert.resultant]).all()
        # the root itself: nan at 10**154 and an OverflowError at 10**155,
        # where k0**2 overflows, had the bound not been checked first
        assert nonlinear_bifurcation_alpha(10**38) == cert.alpha0
        assert asymptotic_expansion(10**38, ModelKind.NONLINEAR).alpha0 == cert.alpha0
        for k0 in (10**39, 10**154, 10**155, 10**160):
            for certify in (root_certificate, cubic_discriminant, transversality_resultant, nonlinear_bifurcation_alpha):
                with pytest.raises(ValueError, match=f"k0={k0} is too large to certify"):
                    certify(k0)
            with pytest.raises(ValueError, match=f"k0={k0} is too large to certify"):
                asymptotic_expansion(k0, ModelKind.NONLINEAR)
