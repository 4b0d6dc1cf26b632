"""Fourier pseudo-spectral toolbox on the uniform periodic grid.

All profiles are real and live on sigma_j = 2*pi*j/nx, j = 0..nx-1.  A
profile carries its rfft half spectrum c_n, n = 0..nx/2, normalized so
that

    theta(sigma_j) = c_0 + 2*Re sum_{0<n<nx/2} c_n exp(i n sigma_j)
                     + c_{nx/2} cos(nx/2 sigma_j),

i.e. numpy's rfft/irfft with norm="forward".  The imaginary parts of c_0
and c_{nx/2} are invisible on the grid.  The Nyquist mode n = nx/2 is
zeroed whenever an operation (odd-order derivative, antiderivative) cannot
represent it faithfully on the grid.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidGridError, _integer

__all__ = [
    "grid",
    "ThetaProfile",
    "deriv",
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


def _check_1d(name, array):
    if array.ndim != 1:
        raise InvalidGridError(f"{name} must be a 1-d array, got shape {array.shape}")


def grid(nx):
    """Uniform periodic grid sigma_j = 2*pi*j/nx for an even nx >= 8."""
    _check_nx(nx)
    return 2.0 * np.pi * np.arange(nx) / nx


@functools.cache
def _powers(nx):
    """Read-only table of (i n)^k, k = 0..4 (rows), n = 0..nx/2 (columns).

    The odd rows are zeroed at Nyquist: the odd derivative of the Nyquist
    mode is a pure sine, invisible on the grid.  Shared with the stepper's
    multipliers in evolution.
    """
    table = (1j * np.arange(nx // 2 + 1)) ** np.arange(5)[:, None]
    table[1::2, -1] = 0.0
    table.setflags(write=False)
    return table


@dataclass(frozen=True, eq=False)
class ThetaProfile:
    """Tangent angle sampled on the grid together with its half spectrum.

    coeffs holds c_n for n = 0..nx/2 (module docstring).  values and
    coeffs are kept consistent by the constructors; mutating either array
    afterwards voids the pairing.  Both constructors raise
    InvalidGridError for an input that is not 1-d, naming its shape.
    """

    nx: int
    values: np.ndarray
    coeffs: np.ndarray

    @classmethod
    def from_values(cls, values):
        values = np.asarray(values, dtype=float)
        _check_1d("profile values", values)
        nx = values.size
        _check_nx(nx)
        if not np.all(np.isfinite(values)):
            raise InvalidGridError("profile values must be finite")
        return cls(nx=nx, values=values, coeffs=np.fft.rfft(values, norm="forward"))

    @classmethod
    def from_coeffs(cls, coeffs):
        """Profile from a half spectrum c_n, n = 0..nx/2, on nx = 2*(size-1) points.

        irfft ignores the imaginary parts of modes 0 and nx/2; they are
        kept in coeffs as given.
        """
        coeffs = np.asarray(coeffs, dtype=complex, order="C")
        _check_1d("profile coefficients", coeffs)
        nx = 2 * (coeffs.size - 1)
        _check_nx(nx)
        return cls(nx=nx, values=np.fft.irfft(coeffs, n=nx, norm="forward"), coeffs=coeffs)


def deriv(p, order):
    """Spectral derivative d^order/dsigma^order of a profile.

    The multiplier is (i n)^order; for odd orders the Nyquist mode is
    zeroed because its derivative is a pure sine invisible on the grid.
    Raises ValueError for an order that is not an integer 1..4 (True and
    1.0 equal 1, but neither is an order).
    """
    if _integer("order", order, 1) > 4:
        raise ValueError(f"order must be at most 4, got {order!r}")
    return ThetaProfile.from_coeffs(p.coeffs * _powers(p.nx)[order])


def antiderivative(p):
    """Zero-mean antiderivative of the zero-mean part of a profile.

    Mode n != 0 maps to c_n/(i n); the mean of the input is discarded (a
    linear-in-sigma part is not periodic and is the caller's business) and
    the Nyquist mode is zeroed.
    """
    c = np.zeros_like(p.coeffs)
    c[1:-1] = p.coeffs[1:-1] / _powers(p.nx)[1, 1:-1]
    return ThetaProfile.from_coeffs(c)


def sine_coeffs(p):
    """Coefficients b_k of sin(k sigma), k = 1..nx/2-1.

    Only the odd-parity content of p is reported; any cosine content is
    ignored.
    """
    return -2.0 * p.coeffs[1:-1].imag


def cosine_coeffs(p):
    """Coefficients c_k of cos(k sigma), k = 0..nx/2 (mean and Nyquist included)."""
    c = p.coeffs.real.copy()
    c[1:-1] *= 2.0
    return c


def from_sine_coeffs(b, nx):
    """Profile sum_k b_k sin(k sigma) from b_k, k = 1..nx/2-1.

    The spectrum is assembled exactly (pure imaginary) rather than
    recomputed from grid values: a value-level round trip would leave
    O(eps) even-parity dust in the coefficients, which high-order
    derivatives amplify by k^3 and which would then put an artificial
    floor under the residual of a converged wave.
    """
    b = np.asarray(b, dtype=float)
    if b.size != nx // 2 - 1:
        raise ValueError(f"expected {nx // 2 - 1} sine coefficients, got {b.size}")
    coeffs = np.zeros(nx // 2 + 1, dtype=complex)
    coeffs[1:-1] = -0.5j * b
    return ThetaProfile.from_coeffs(coeffs)


def resample(p, nx_new):
    """Band-limited resampling onto a finer or coarser grid.

    Upsampling zero-pads the half spectrum and halves the old Nyquist
    mode, whose other half goes to mode -nx/2 of the finer grid.
    Downsampling truncates; modes +-nx_new/2 of the finer grid alias onto
    the coarse Nyquist, which doubles its real part.
    """
    _check_nx(nx_new)
    nx = p.nx
    if nx_new == nx:
        return p
    half = min(nx, nx_new) // 2
    c = np.zeros(nx_new // 2 + 1, dtype=complex)
    c[: half + 1] = p.coeffs[: half + 1]
    if nx_new > nx:
        c[half] *= 0.5
    else:
        c[half] = 2.0 * c[half].real
    return ThetaProfile.from_coeffs(c)
