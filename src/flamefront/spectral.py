"""Fourier pseudo-spectral toolbox on the uniform periodic grid.

All profiles live on sigma_j = 2*pi*j/nx, j = 0..nx-1, and carry discrete
Fourier coefficients a_n normalized so that

    theta(sigma) = sum_n a_n exp(i n sigma),   n = -nx/2 .. nx/2 - 1.

Coefficients are stored in numpy FFT order; the Nyquist mode n = -nx/2 is
zeroed whenever an operation (odd-order derivative, antiderivative, odd
projection) cannot represent it faithfully on the grid.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidGridError

__all__ = [
    "grid",
    "wavenumbers",
    "ThetaProfile",
    "deriv",
    "project_odd",
    "antiderivative",
    "sine_coeffs",
    "cosine_coeffs",
    "from_sine_coeffs",
    "resample",
]

_MIN_NX = 8


def _check_nx(nx):
    if not isinstance(nx, (int, np.integer)) or nx % 2 != 0 or nx < _MIN_NX:
        raise InvalidGridError(f"nx must be an even integer >= {_MIN_NX}, got {nx!r}")


def grid(nx):
    """Uniform periodic grid sigma_j = 2*pi*j/nx for an even nx >= 8."""
    _check_nx(nx)
    return 2.0 * np.pi * np.arange(nx) / nx


def wavenumbers(nx):
    """Integer wavenumbers in FFT order: 0, 1, .., nx/2-1, -nx/2, .., -1.

    The array is cached per nx and read-only.
    """
    return _wavenumbers(nx)


@functools.cache
def _wavenumbers(nx):
    n = np.fft.fftfreq(nx, d=1.0 / nx).astype(np.int64)
    n.setflags(write=False)
    return n


@dataclass(frozen=True, eq=False)
class ThetaProfile:
    """Tangent angle sampled on the grid together with its spectrum.

    values and coeffs are kept consistent by the constructors; mutating
    either array afterwards voids the pairing.
    """

    nx: int
    values: np.ndarray
    coeffs: np.ndarray

    @classmethod
    def from_values(cls, values):
        values = np.asarray(values, dtype=float)
        nx = values.size
        _check_nx(nx)
        if not np.all(np.isfinite(values)):
            raise InvalidGridError("profile values must be finite")
        coeffs = np.fft.fft(values) / nx
        return cls(nx=nx, values=values, coeffs=coeffs)

    @classmethod
    def from_coeffs(cls, coeffs):
        coeffs = np.asarray(coeffs, dtype=complex)
        nx = coeffs.size
        _check_nx(nx)
        values = np.real(np.fft.ifft(coeffs)) * nx
        return cls(nx=nx, values=values, coeffs=coeffs)

    def mean(self):
        return float(np.real(self.coeffs[0]))


def deriv(p, order):
    """Spectral derivative d^order/dsigma^order of a profile.

    The multiplier is (i n)^order; for odd orders the Nyquist mode is
    zeroed because its derivative is a pure sine invisible on the grid.
    """
    if order not in (1, 2, 3, 4):
        raise ValueError(f"derivative order must be 1..4, got {order!r}")
    n = wavenumbers(p.nx)
    c = p.coeffs * (1j * n) ** order
    if order % 2 == 1:
        c[p.nx // 2] = 0.0
    return ThetaProfile.from_coeffs(c)


def project_odd(p):
    """Odd-parity part (theta(sigma) - theta(-sigma))/2, i.e. the sine series.

    The mean and all cosine content vanish; the Nyquist mode is even on the
    grid and is annihilated as well.
    """
    reflected = np.roll(p.values[::-1], 1)
    return ThetaProfile.from_values(0.5 * (p.values - reflected))


def antiderivative(p):
    """Zero-mean antiderivative of the zero-mean part of a profile.

    Mode n != 0 maps to a_n/(i n); the mean of the input is discarded (a
    linear-in-sigma part is not periodic and is the caller's business) and
    the Nyquist mode is zeroed.
    """
    n = wavenumbers(p.nx)
    c = np.zeros_like(p.coeffs)
    nonzero = n != 0
    c[nonzero] = p.coeffs[nonzero] / (1j * n[nonzero])
    c[p.nx // 2] = 0.0
    return ThetaProfile.from_coeffs(c)


def sine_coeffs(p):
    """Coefficients b_k of sin(k sigma), k = 1..nx/2-1.

    Only the odd-parity content of p is reported; any cosine content is
    ignored.
    """
    return -2.0 * np.imag(p.coeffs[1 : p.nx // 2])


def cosine_coeffs(p):
    """Coefficients c_k of cos(k sigma), k = 0..nx/2 (mean and Nyquist included)."""
    half = p.nx // 2
    c = np.empty(half + 1)
    c[0] = np.real(p.coeffs[0])
    c[1:half] = 2.0 * np.real(p.coeffs[1:half])
    c[half] = np.real(p.coeffs[half])
    return c


def from_sine_coeffs(b, nx):
    """Profile sum_k b_k sin(k sigma) from b_k, k = 1..nx/2-1.

    The spectrum is assembled exactly (pure imaginary, odd) rather than
    recomputed from grid values: a value-level round trip would leave
    O(eps) even-parity dust in the coefficients, which high-order
    derivatives amplify by k^3 and which would then put an artificial
    floor under the residual of a converged wave.
    """
    b = np.asarray(b, dtype=float)
    if b.size != nx // 2 - 1:
        raise ValueError(f"expected {nx // 2 - 1} sine coefficients, got {b.size}")
    coeffs = np.zeros(nx, dtype=complex)
    coeffs[1 : nx // 2] = -0.5j * b
    coeffs[nx // 2 + 1 :] = 0.5j * b[::-1]
    values = np.fft.irfft(-0.5j * nx * np.append(np.append(0.0, b), 0.0), n=nx)
    return ThetaProfile(nx=nx, values=values, coeffs=coeffs)


def resample(p, nx_new):
    """Band-limited resampling onto a finer or coarser grid.

    Upsampling zero-pads the spectrum (the Nyquist coefficient is split
    between +-nx/2 to keep the result real); downsampling truncates.
    """
    _check_nx(nx_new)
    nx = p.nx
    if nx_new == nx:
        return p
    c_new = np.zeros(nx_new, dtype=complex)
    half = min(nx, nx_new) // 2
    c_new[:half] = p.coeffs[:half]
    c_new[-half + 1 :] = p.coeffs[-half + 1 :]
    if nx_new > nx:
        nyq = p.coeffs[nx // 2]
        c_new[nx // 2] = 0.5 * nyq
        c_new[-nx // 2] = 0.5 * np.conj(nyq)
    else:
        # modes +-nx_new/2 of the fine grid alias onto the coarse Nyquist
        c_new[half] = np.real(p.coeffs[half] + p.coeffs[-half])
    return ThetaProfile.from_coeffs(c_new)
