import re

import numpy as np
import pytest

from flamefront.errors import InvalidGridError
from flamefront.spectral import (
    ThetaProfile,
    antiderivative,
    cosine_coeffs,
    deriv,
    from_sine_coeffs,
    grid,
    resample,
    sine_coeffs,
)


def random_profile(rng, nx=64, zero_nyquist=False):
    vals = rng.standard_normal(nx)
    if zero_nyquist:
        c = np.fft.rfft(vals)
        c[-1] = 0.0
        vals = np.fft.irfft(c, n=nx)
    return ThetaProfile.from_values(vals)


def test_grid_values():
    sigma = grid(8)
    assert sigma.shape == (8,)
    assert sigma[0] == 0.0
    np.testing.assert_allclose(sigma, np.arange(8) * (2.0 * np.pi / 8.0), rtol=0, atol=1e-15)


def test_grid_rejects_odd_and_small():
    with pytest.raises(InvalidGridError):
        grid(7)
    with pytest.raises(InvalidGridError):
        grid(6)
    with pytest.raises(InvalidGridError):
        grid(4)
    # a half spectrum of 4 entries is a grid of 6 points
    with pytest.raises(InvalidGridError):
        ThetaProfile.from_coeffs(np.zeros(4, dtype=complex))


def test_round_trip_values_coeffs(rng):
    p = random_profile(rng)
    q = ThetaProfile.from_coeffs(p.coeffs)
    np.testing.assert_allclose(q.values, p.values, rtol=0, atol=1e-12)


def test_parseval(rng):
    # grid mean square equals spectral power with the 1/nx convention; the
    # half spectrum counts modes 1..nx/2-1 twice, for their negative twins
    p = random_profile(rng, nx=128)
    grid_power = np.sum(p.values**2) / p.nx
    weights = np.full(p.nx // 2 + 1, 2.0)
    weights[[0, -1]] = 1.0
    spec_power = np.sum(weights * np.abs(p.coeffs) ** 2)
    np.testing.assert_allclose(spec_power, grid_power, rtol=1e-12)


def test_deriv_exact_on_single_mode():
    sigma = grid(64)
    p = ThetaProfile.from_values(np.sin(3.0 * sigma))
    expected = 3.0 * np.cos(3.0 * sigma)
    np.testing.assert_allclose(deriv(p, 1).values, expected, rtol=0, atol=1e-12)
    np.testing.assert_allclose(deriv(p, 2).values, -9.0 * np.sin(3.0 * sigma), rtol=0, atol=1e-11)
    np.testing.assert_allclose(deriv(p, 3).values, -27.0 * np.cos(3.0 * sigma), rtol=0, atol=1e-10)
    np.testing.assert_allclose(deriv(p, 4).values, 81.0 * np.sin(3.0 * sigma), rtol=0, atol=1e-9)


def test_deriv_composition(rng):
    # d/dsigma applied twice equals the order-2 derivative on Nyquist-free input
    p = random_profile(rng, zero_nyquist=True)
    twice = deriv(deriv(p, 1), 1)
    once = deriv(p, 2)
    np.testing.assert_allclose(twice.values, once.values, rtol=0, atol=1e-9)


def test_deriv_kills_constants():
    p = ThetaProfile.from_values(np.full(16, 2.7))
    assert np.max(np.abs(deriv(p, 1).values)) < 1e-14


def test_deriv_rejects_bad_order(rng):
    p = random_profile(rng, nx=16)
    with pytest.raises(ValueError):
        deriv(p, 0)
    with pytest.raises(ValueError, match="^order must be at most 4, got 5$"):
        deriv(p, 5)
    # a bool is an int, and True == 1: it would pass as the first derivative
    for order in (True, np.True_, 1.0):
        with pytest.raises(ValueError, match="^order must be an integer >= 1"):
            deriv(p, order)


def test_odd_derivative_zeroes_nyquist():
    # the Nyquist mode has no well-defined odd derivative on the grid
    nx = 16
    sigma = grid(nx)
    p = ThetaProfile.from_values(np.cos((nx // 2) * sigma))
    assert np.max(np.abs(deriv(p, 1).values)) < 1e-13
    assert np.max(np.abs(deriv(p, 3).values)) < 1e-11
    # even orders keep it
    assert np.max(np.abs(deriv(p, 2).values)) > 1.0


def test_antiderivative_inverts_deriv():
    sigma = grid(64)
    p = ThetaProfile.from_values(np.cos(4 * sigma))
    a = antiderivative(p)
    np.testing.assert_allclose(a.values, 0.25 * np.sin(4 * sigma), rtol=0, atol=1e-13)
    # mean of the result is zero by convention
    assert abs(a.coeffs[0].real) < 1e-15


def test_sine_coeff_extraction_round_trip(rng):
    nx = 32
    b = rng.standard_normal(nx // 2 - 1)
    p = from_sine_coeffs(b, nx)
    np.testing.assert_allclose(sine_coeffs(p), b, rtol=0, atol=1e-14)
    # reconstructed values match a direct sine sum
    sigma = grid(nx)
    direct = sum(bk * np.sin((k + 1) * sigma) for k, bk in enumerate(b))
    np.testing.assert_allclose(p.values, direct, rtol=0, atol=1e-13)


def test_from_sine_coeffs_exact_parity(rng):
    # coefficient array must be exactly odd: no even-parity dust for high
    # derivatives to amplify
    nx = 256
    b = rng.standard_normal(nx // 2 - 1)
    p = from_sine_coeffs(b, nx)
    assert np.max(np.abs(np.real(p.coeffs))) == 0.0
    assert p.coeffs[0] == 0.0
    assert p.coeffs[nx // 2] == 0.0


@pytest.mark.parametrize("size", [6, 8])
def test_from_sine_coeffs_refuses_a_vector_of_the_wrong_length(size):
    # an nx = 16 grid holds the sine modes k = 1..7
    with pytest.raises(ValueError, match=f"^expected 7 sine coefficients, got {size}$"):
        from_sine_coeffs(np.zeros(size), 16)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_from_values_refuses_non_finite_values(value):
    values = np.zeros(16)
    values[3] = value
    with pytest.raises(InvalidGridError, match="^profile values must be finite$"):
        ThetaProfile.from_values(values)


@pytest.mark.parametrize("shape", [(8, 8), (1, 16), ()])
def test_from_values_refuses_values_that_are_not_1d(shape):
    # an (8, 8) table has 64 values, an even count, but is no profile
    with pytest.raises(
        InvalidGridError, match=rf"^profile values must be a 1-d array, got shape {re.escape(str(shape))}$"
    ):
        ThetaProfile.from_values(np.zeros(shape))


@pytest.mark.parametrize("shape", [(5, 5), (1, 9), ()])
def test_from_coeffs_refuses_coefficients_that_are_not_1d(shape):
    with pytest.raises(
        InvalidGridError, match=rf"^profile coefficients must be a 1-d array, got shape {re.escape(str(shape))}$"
    ):
        ThetaProfile.from_coeffs(np.zeros(shape, dtype=complex))


def test_cosine_coeff_extraction():
    nx = 16
    sigma = grid(nx)
    vals = 1.5 + 2.0 * np.cos(3 * sigma) + 0.5 * np.cos((nx // 2) * sigma)
    c = cosine_coeffs(ThetaProfile.from_values(vals))
    expected = np.zeros(nx // 2 + 1)
    expected[0] = 1.5
    expected[3] = 2.0
    expected[nx // 2] = 0.5
    np.testing.assert_allclose(c, expected, rtol=0, atol=1e-14)


def test_resample_upsample_exact():
    nx = 32
    sigma = grid(nx)
    p = ThetaProfile.from_values(np.sin(sigma) + 0.2 * np.cos(7 * sigma))
    q = resample(p, 128)
    fine = grid(128)
    np.testing.assert_allclose(q.values, np.sin(fine) + 0.2 * np.cos(7 * fine), rtol=0, atol=1e-13)


def test_resample_down_then_up_on_bandlimited():
    # band-limited below the coarse Nyquist survives the round trip
    nx = 128
    sigma = grid(nx)
    p = ThetaProfile.from_values(np.sin(2 * sigma) - 0.3 * np.cos(5 * sigma))
    q = resample(resample(p, 32), nx)
    np.testing.assert_allclose(q.values, p.values, rtol=0, atol=1e-13)


def test_resample_up_and_back_keeps_nyquist(rng):
    # upsampling splits the Nyquist mode between +-nx/2 of the finer grid,
    # downsampling folds the pair back
    nx = 32
    p = ThetaProfile.from_values(rng.standard_normal(nx) + np.cos((nx // 2) * grid(nx)))
    fine = resample(p, 64)
    np.testing.assert_allclose(fine.values[::2], p.values, rtol=0, atol=1e-14)
    np.testing.assert_allclose(resample(fine, 32).values, p.values, rtol=0, atol=1e-14)


def test_resample_rejects_invalid_target(rng):
    p = random_profile(rng, nx=16)
    with pytest.raises(InvalidGridError):
        resample(p, 15)
