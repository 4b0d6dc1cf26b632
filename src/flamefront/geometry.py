"""Curve reconstruction from the tangent angle and self-intersection tests.

The front is recovered by integrating (x_sigma, y_sigma) =
(L/2pi)*(cos theta, sin theta) spectrally: the oscillatory part via
division by (i n), the mean part as a linear-in-sigma ramp.  One
horizontal period is returned as nx+1 points with x(2pi) - x(0) = 2pi.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spectral
from .model import length_from_theta

__all__ = [
    "InterfaceCurve",
    "reconstruct_curve",
    "min_nonadjacent_gap",
    "is_near_self_intersecting",
]

# A gap below this fraction of the arclength spacing counts as touching.
_GAP_FRACTION = 0.9


@dataclass(frozen=True, eq=False)
class InterfaceCurve:
    """Closed-period polyline (x_j, y_j), j = 0..nx, with x_nx = x_0 + 2*pi."""

    x: np.ndarray
    y: np.ndarray
    length: float

    @property
    def nx(self):
        return self.x.size - 1


def _integrate(profile_values, anchor_zero_mean):
    """Antiderivative of grid samples: linear ramp for the mean, spectral rest.

    Returns nx+1 points covering sigma in [0, 2*pi].  With
    anchor_zero_mean the result has zero mean over the first nx points;
    otherwise it starts at zero.
    """
    p = spectral.ThetaProfile.from_values(profile_values)
    nx = p.nx
    mean = p.mean()
    osc = spectral.antiderivative(p).values
    sigma = np.append(spectral.grid(nx), 2.0 * np.pi)
    out = mean * sigma + np.append(osc, osc[0])
    if anchor_zero_mean:
        out -= np.mean(out[:nx])
    else:
        out -= out[0]
    return out


def reconstruct_curve(p):
    """Rebuild one period of the front from its tangent angle.

    Anchored at x(0) = 0 and mean-zero y.  For an odd-parity profile the
    mean of sin(theta) vanishes, so y is periodic; x always advances by
    exactly one period because the length functional normalizes the mean
    of cos(theta) to 2*pi/L.
    """
    length = length_from_theta(p)
    scale = length / (2.0 * np.pi)
    x = _integrate(scale * np.cos(p.values), anchor_zero_mean=False)
    y = _integrate(scale * np.sin(p.values), anchor_zero_mean=True)
    return InterfaceCurve(x=x, y=y, length=length)


def min_nonadjacent_gap(curve):
    """Smallest distance between non-adjacent points of the periodic polyline.

    Brute-force O(n^2) scan over all point pairs with cyclic index
    distance >= 2, plus every pair against the +2*pi horizontal translate
    (which covers the -2*pi translate by symmetry).  This scan is the
    reference implementation; any accelerated variant must reproduce it
    exactly.
    """
    nx = curve.nx
    x, y = curve.x[:nx], curve.y[:nx]
    dx = x[:, None] - x[None, :]
    dy = y[:, None] - y[None, :]
    dist = np.sqrt(dx**2 + dy**2)

    idx = np.arange(nx)
    sep = np.abs(idx[:, None] - idx[None, :])
    cyclic = np.minimum(sep, nx - sep)
    within = dist[cyclic >= 2]

    # against the +2*pi translate the chain index distance is nx + j - i,
    # which is < 2 only for the closing segment pair (i, j) = (nx-1, 0)
    dist_shift = np.sqrt((x[:, None] - x[None, :] - 2.0 * np.pi) ** 2 + dy**2)
    chain = nx + idx[None, :] - idx[:, None]
    across = dist_shift[chain >= 2]

    return float(min(within.min(), across.min()))


def is_near_self_intersecting(curve):
    """True when the minimal non-adjacent gap falls below 90% of the
    arclength spacing length/nx."""
    return min_nonadjacent_gap(curve) < _GAP_FRACTION * curve.length / curve.nx
