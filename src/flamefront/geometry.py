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
its points in x still costs all O(nx^2) pairs, expanded a bounded number
at a time.  A front that is a graph over x with points spread evenly
enough, every wave of the nonlinear branch and the flatter waves of the
linear one, needs no sweep: only its (i, i+2) pairs can lie within r.
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


def reconstruct_curve(p):
    """Rebuild one period of the front from its tangent angle.

    Anchored at x(0) = 0 and mean-zero y.  For an odd-parity profile the
    mean of sin(theta) vanishes, so y is periodic; x always advances by
    exactly one period because the length functional normalizes the mean
    of cos(theta) to 2*pi/L.  x_sigma and y_sigma are integrated together,
    one rfft and one irfft of the stacked pair: each mean becomes a
    linear-in-sigma ramp, the rest its spectral antiderivative.
    """
    length = length_from_theta(p)
    scale = length / (2.0 * np.pi)
    nx = p.nx
    hat = np.fft.rfft(scale * np.stack((np.cos(p.values), np.sin(p.values))), norm="forward")
    anti = np.zeros_like(hat)
    anti[:, 1:-1] = hat[:, 1:-1] / spectral._powers(nx)[1, 1:-1]
    osc = np.fft.irfft(anti, n=nx, norm="forward")
    sigma = np.append(spectral.grid(nx), 2.0 * np.pi)
    x, y = hat[:, :1].real * sigma + np.concatenate((osc, osc[:, :1]), axis=1)
    x -= x[0]
    y -= np.mean(y[:nx])
    return InterfaceCurve(x=x, y=y, length=length)


# Candidate pairs a gap scan expands at once.  It holds the scan's
# temporaries to a few MiB beyond its O(nx) arrays on any curve, and is
# large enough that a resolved front (a few thousand pairs at nx 512)
# takes one chunk.
_PAIR_BUDGET = 1 << 15


def _pairs(lo, hi):
    """Expand the windows [lo[k], hi[k]) into (row k, column) index pairs.

    Yields consecutive runs of rows of at most _PAIR_BUDGET pairs each,
    or a single row when that row alone has more.
    """
    counts = hi - lo
    ends = np.cumsum(counts)
    starts = ends - counts
    k = 0
    while k < lo.size:
        stop = max(int(np.searchsorted(ends, starts[k] + _PAIR_BUDGET, side="right")), k + 1)
        rows = np.repeat(np.arange(k, stop), counts[k:stop])
        cols = np.arange(rows.size) + np.repeat(lo[k:stop] - (starts[k:stop] - starts[k]), counts[k:stop])
        yield rows, cols
        k = stop


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

    The sweep is skipped when x does not decrease around the period
    (x_0 .. x_{nx-1}, x_0 + 2*pi, x_1 + 2*pi, ..) and every three-point
    advance x_{i+3} - x_i along it exceeds r*(1 + 1e-9).  Then any pair
    at chain distance 3 or more is at least one such advance apart in x,
    so its distance, as the sweep rounds it, exceeds r and so the
    smallest chord: r's own widening covers the rounding of
    x_i - x_j - 2*pi against the advance.  The gap is then the smallest
    chord at chain distance 2: the (i, i+2) chords that give r, and the
    two across the seam, (nx-2, 0) and (nx-1, 1) against the translate,
    taken with the sweep's formula, so the float is the same.  That
    costs O(nx).

    Otherwise a resolved front has a few points per window, so the scan
    costs about O(nx log nx).  A curve that stacks its points in x within
    r of each other (a vertical zig-zag) puts them all in one window, and
    the scan visits all O(nx^2) pairs.  They are expanded in chunks of about
    _PAIR_BUDGET pairs, so memory stays O(nx + _PAIR_BUDGET).
    """
    nx = curve.nx
    x, y = curve.x[:nx], curve.y[:nx]
    chord = np.inf
    if nx >= 4:
        chords = (x[2:] - x[:-2]) ** 2 + (y[2:] - y[:-2]) ** 2
        chord = np.sqrt(np.min(chords))
    r = chord * (1.0 + 1e-12) + 4.0 * np.spacing(np.max(np.abs(x)) + 2.0 * np.pi)
    # x around the period, on into the next one: x_0 .. x_{nx-1}, x_0 + 2*pi, ..
    xe = np.concatenate((x, x[:3] + 2.0 * np.pi))
    if nx >= 4 and np.all(xe[1:] >= xe[:-1]) and np.all(xe[3:] - xe[:-3] > r * (1.0 + 1e-9)):
        # only the (i, i+2) pairs can lie within r: the gap is the
        # smallest of their chords, the two across the seam included
        seam = np.array([nx - 2, nx - 1])
        dy = y[seam] - y[:2]
        best = min(np.min(chords), np.min(((x[seam] - x[:2]) - 2.0 * np.pi) ** 2 + dy * dy))
        return float(np.sqrt(best))
    order = np.argsort(x)
    xs = x[order]
    xt = xs + 2.0 * np.pi
    # within the period: each unordered pair once, as sorted positions p < q
    within = (np.arange(1, nx + 1), np.searchsorted(xs, xs + r, side="right"), 0.0)
    # point i against the translate of point j: x_i - x_j - 2*pi near 0
    across = (np.searchsorted(xt, xs - r), np.searchsorted(xt, xs + r, side="right"), 2.0 * np.pi)
    best = np.inf
    for lo, hi, shift in (within, across):
        for p, q in _pairs(lo, hi):
            i, j = order[p], order[q]
            if shift:
                keep = nx + j - i >= 2
            else:
                sep = np.abs(i - j)
                keep = (sep >= 2) & (sep <= nx - 2)
            i, j = i[keep], j[keep]
            dy = y[i] - y[j]
            best = np.minimum(best, np.min(((x[i] - x[j]) - shift) ** 2 + dy * dy, initial=np.inf))
    return float(np.sqrt(best))


def is_near_self_intersecting(curve):
    """True when the minimal non-adjacent gap falls below 90% of the
    arclength spacing length/nx."""
    return min_nonadjacent_gap(curve) < _GAP_FRACTION * curve.length / curve.nx
