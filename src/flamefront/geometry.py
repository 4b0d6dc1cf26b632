"""Curve reconstruction from the tangent angle and self-intersection tests.

The front is recovered by integrating (x_sigma, y_sigma) =
(L/2pi)*(cos theta, sin theta) spectrally: the oscillatory part via
division by (i n), the mean part as a linear-in-sigma ramp.  One
horizontal period is returned as nx+1 points with x(2pi) - x(0) = 2pi.
"""

from __future__ import annotations

import functools
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
# Point pairs per block of the gap scan: 64 KiB of float64 per temporary.
_SCAN_BLOCK = 8192


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


@functools.cache
def _nonadjacent_masks(nx):
    """Pair masks of the gap scan, which depend only on nx.

    within: cyclic index distance >= 2.  across: chain index distance
    nx + j - i >= 2 against the +2*pi translate, which fails only for the
    closing segment pair (i, j) = (nx-1, 0).
    """
    idx = np.arange(nx)
    sep = np.abs(idx[:, None] - idx[None, :])
    within = np.minimum(sep, nx - sep) >= 2
    across = nx + idx[None, :] - idx[:, None] >= 2
    within.setflags(write=False)
    across.setflags(write=False)
    return within, across


def min_nonadjacent_gap(curve):
    """Smallest distance between non-adjacent points of the periodic polyline.

    Brute-force O(n^2) scan over all point pairs with cyclic index
    distance >= 2, plus every pair against the +2*pi horizontal translate
    (which covers the -2*pi translate by symmetry).  The minimum is taken
    over squared distances and square-rooted once, which gives the same
    float as the minimum of the distances because the rounded square root
    is monotone.  Any accelerated variant must reproduce this scan exactly.

    The pairs are scanned in blocks of rows of at most _SCAN_BLOCK pairs,
    so that no temporary is large enough for the allocator to map fresh
    pages on every call; the minimum does not depend on the blocking.
    """
    nx = curve.nx
    x, y = curve.x[:nx], curve.y[:nx]
    within, across = _nonadjacent_masks(nx)
    rows = max(1, _SCAN_BLOCK // nx)
    near, shifted = [], []
    for i in range(0, nx, rows):
        block = slice(i, i + rows)
        dx = x[block, None] - x
        dy2 = y[block, None] - y
        dy2 *= dy2
        near.append(np.min(dx**2 + dy2, where=within[block], initial=np.inf))
        dx -= 2.0 * np.pi
        dx *= dx
        dx += dy2
        shifted.append(np.min(dx, where=across[block], initial=np.inf))
    return float(np.sqrt(min(np.min(near), np.min(shifted))))


def is_near_self_intersecting(curve):
    """True when the minimal non-adjacent gap falls below 90% of the
    arclength spacing length/nx."""
    return min_nonadjacent_gap(curve) < _GAP_FRACTION * curve.length / curve.nx
