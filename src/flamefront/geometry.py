"""Curve reconstruction from the tangent angle and self-intersection tests.

The front is recovered by integrating (x_sigma, y_sigma) =
(L/2pi)*(cos theta, sin theta) spectrally: the oscillatory part via
division by (i n), the mean part as a linear-in-sigma ramp.  One
horizontal period is returned as nx+1 points with x(2pi) - x(0) = 2pi.

The self-intersection test is the smallest distance between non-adjacent
points, the next period's copy included.  The smallest (i, i+2) chord r
bounds it from above, so a sweep over x sorted once visits only the
pairs with |dx| <= r and returns the same float as a scan of all pairs.
On a resolved front that is a few pairs per point; a curve that stacks
its points in x still costs all O(nx^2) pairs.
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


def _pairs(lo, hi):
    """Expand the windows [lo[k], hi[k]) into (row k, column) index pairs."""
    counts = hi - lo
    rows = np.repeat(np.arange(lo.size), counts)
    cols = np.arange(rows.size) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
    return rows, cols


def min_nonadjacent_gap(curve):
    """Smallest distance between non-adjacent points of the periodic polyline.

    The pairs are those with cyclic index distance >= 2, plus every pair
    (i, j) against the +2*pi horizontal translate of j with chain distance
    nx + j - i >= 2 (which covers the -2*pi translate by symmetry).

    An (i, i+2) pair is non-adjacent, so the smallest (i, i+2) chord r
    bounds the gap from above, and only pairs with |x_i - x_j| <= r can
    reach it.  x is sorted once, and two binary searches per point find
    its window |dx| <= r among the points and among their +2*pi
    translates (the sweep of Shamos & Hoey, FOCS 1975).  r is widened by
    1e-12 relative plus a few ulps of max|x| + 2*pi, so rounding at the
    window ends cannot drop a pair.  Each candidate's squared distance is
    (x_i - x_j)**2 + dy*dy, or ((x_i - x_j) - 2*pi)**2 + dy*dy against
    the translate, as in a scan of all pairs, and the minimum is
    square-rooted once.  The rounded square root is monotone, so the
    float returned is the minimum of the distances over all pairs, bit
    for bit.

    A resolved front has a few points per window, so the scan costs about
    O(nx log nx).  A curve that stacks its points in x within r of each
    other (a vertical zig-zag) puts them all in one window, and the scan
    visits all O(nx^2) pairs.
    """
    nx = curve.nx
    x, y = curve.x[:nx], curve.y[:nx]
    chord = np.inf
    if nx >= 4:
        chord = np.sqrt(np.min((x[2:] - x[:-2]) ** 2 + (y[2:] - y[:-2]) ** 2))
    r = chord * (1.0 + 1e-12) + 4.0 * np.spacing(np.max(np.abs(x)) + 2.0 * np.pi)
    order = np.argsort(x)
    xs = x[order]
    # within the period: each unordered pair once, as sorted positions p < q
    ahead = np.searchsorted(xs, xs + r, side="right")
    p, q = _pairs(np.arange(1, nx + 1), ahead)
    i, j = order[p], order[q]
    sep = np.abs(i - j)
    keep = (sep >= 2) & (sep <= nx - 2)
    i, j = i[keep], j[keep]
    dy = y[i] - y[j]
    near = np.min((x[i] - x[j]) ** 2 + dy * dy, initial=np.inf)
    # point i against the translate of point j: x_i - x_j - 2*pi near 0
    xt = xs + 2.0 * np.pi
    p, q = _pairs(np.searchsorted(xt, xs - r), np.searchsorted(xt, xs + r, side="right"))
    i, j = order[p], order[q]
    keep = nx + j - i >= 2
    i, j = i[keep], j[keep]
    dy = y[i] - y[j]
    shifted = np.min(((x[i] - x[j]) - 2.0 * np.pi) ** 2 + dy * dy, initial=np.inf)
    return float(np.sqrt(min(near, shifted)))


def is_near_self_intersecting(curve):
    """True when the minimal non-adjacent gap falls below 90% of the
    arclength spacing length/nx."""
    return min_nonadjacent_gap(curve) < _GAP_FRACTION * curve.length / curve.nx
