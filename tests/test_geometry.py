import numpy as np
import pytest

from flamefront.geometry import (
    InterfaceCurve,
    is_near_self_intersecting,
    min_nonadjacent_gap,
    reconstruct_curve,
)
from flamefront.model import length_from_theta
from flamefront.spectral import ThetaProfile, grid, resample


def wave_profile(eps=0.3, nx=128):
    return ThetaProfile.from_values(eps * np.sin(grid(nx)))


def brute_force_gap(curve):
    """Pure-python reference: unordered pairs at cyclic chain distance >= 2,
    plus every ordered pair against the +2*pi horizontal translate (chain
    distance nx + j - i, below 2 only for the closing segment)."""
    n = curve.nx
    pts = np.stack([curve.x[:n], curve.y[:n]], axis=1)
    shift = np.array([2.0 * np.pi, 0.0])
    best = np.inf
    for i in range(n):
        for j in range(n):
            if i < j and min(j - i, n - (j - i)) >= 2:
                best = min(best, float(np.hypot(*(pts[i] - pts[j]))))
            if n + j - i >= 2:
                best = min(best, float(np.hypot(*(pts[i] - pts[j] - shift))))
    return best


def reference_gap(curve):
    """The vectorized scan as first written: distances of all pairs, masks
    built per call, minimum over the masked distances.  The sweep must
    return the same float."""
    nx = curve.nx
    x, y = curve.x[:nx], curve.y[:nx]
    dx = x[:, None] - x[None, :]
    dy = y[:, None] - y[None, :]
    dist = np.sqrt(dx**2 + dy**2)
    idx = np.arange(nx)
    sep = np.abs(idx[:, None] - idx[None, :])
    cyclic = np.minimum(sep, nx - sep)
    within = dist[cyclic >= 2]
    dist_shift = np.sqrt((x[:, None] - x[None, :] - 2.0 * np.pi) ** 2 + dy**2)
    chain = nx + idx[None, :] - idx[:, None]
    across = dist_shift[chain >= 2]
    return float(min(within.min(), across.min()))


def closed_curve(x, y):
    x = np.append(x, x[0] + 2.0 * np.pi)
    y = np.append(y, y[0])
    return InterfaceCurve(x=x, y=y, length=float(np.sum(np.hypot(np.diff(x), np.diff(y)))))


def hairpin_curve(nx, d=0.05):
    """Two horizontal arms a distance d apart plus a climb that closes the period."""
    n_fwd, n_back = nx // 2, nx // 4
    n_out = nx - n_fwd - n_back
    x = np.concatenate(
        [
            np.linspace(0.0, 5.5, n_fwd),
            np.linspace(5.0, 3.5, n_back),
            np.linspace(4.0, 2.0 * np.pi - 0.1, n_out),
        ]
    )
    y = np.concatenate([np.zeros(n_fwd), np.full(n_back, d), np.linspace(3 * d, d, n_out)])
    return closed_curve(x, y)


def test_flat_front_is_straight_line():
    p = ThetaProfile.from_values(np.zeros(32))
    curve = reconstruct_curve(p)
    assert curve.nx == 32
    np.testing.assert_allclose(curve.y, 0.0, rtol=0, atol=1e-14)
    np.testing.assert_allclose(curve.x, np.linspace(0, 2 * np.pi, 33), rtol=0, atol=1e-13)


def test_periodic_closure():
    curve = reconstruct_curve(wave_profile())
    assert curve.x[0] == 0.0
    assert abs(curve.x[-1] - curve.x[0] - 2.0 * np.pi) < 1e-12
    # odd profile: mean of sin(theta) vanishes so y closes up
    assert abs(curve.y[-1] - curve.y[0]) < 1e-12


def test_y_is_mean_zero():
    curve = reconstruct_curve(wave_profile())
    assert abs(np.mean(curve.y[:-1])) < 1e-13


def test_chords_are_uniform():
    # sigma is an arclength parameter, so chords deviate from L/nx only
    # through the curvature bias kappa^2 (L/nx)^2 / 24
    p = wave_profile(eps=0.4, nx=256)
    curve = reconstruct_curve(p)
    chords = np.hypot(np.diff(curve.x), np.diff(curve.y))
    target = curve.length / 256
    assert np.max(np.abs(chords - target)) / target < 5e-6
    # chord sum underestimates arclength, but not by much at this resolution
    assert 0.999 < np.sum(chords) / curve.length < 1.0
    # a gentler, finer profile meets the resolved-front uniformity bound
    fine = reconstruct_curve(wave_profile(eps=0.2, nx=512))
    fine_chords = np.hypot(np.diff(fine.x), np.diff(fine.y))
    fine_target = fine.length / 512
    assert np.max(np.abs(fine_chords - fine_target)) / fine_target < 1e-6


def test_reconstruction_matches_cumulative_quadrature():
    # independent oracle: trapezoid integration of the upsampled slope field
    p = wave_profile(eps=0.5, nx=64)
    factor = 32
    fine = resample(p, 64 * factor)
    length = length_from_theta(p)
    scale = length / (2.0 * np.pi)
    dsig = 2.0 * np.pi / (64 * factor)

    def cumtrap(f):
        out = np.zeros(len(f) + 1)
        out[1:] = np.cumsum((f + np.roll(f, -1)) / 2.0) * dsig
        return out

    x_fine = cumtrap(scale * np.cos(fine.values))
    y_fine = cumtrap(scale * np.sin(fine.values))
    y_fine -= np.mean(y_fine[:-1:factor])
    curve = reconstruct_curve(p)
    # tolerance is the trapezoid rule's own O(h^2) error at this step size,
    # about 4e-7; the spectral reconstruction is far more accurate
    np.testing.assert_allclose(curve.x, x_fine[::factor], rtol=0, atol=2e-6)
    np.testing.assert_allclose(curve.y, y_fine[::factor], rtol=0, atol=2e-6)


def test_gap_flat_front():
    p = ThetaProfile.from_values(np.zeros(64))
    curve = reconstruct_curve(p)
    # all points are collinear and evenly spaced: nearest non-adjacent
    # distance is two grid spacings
    assert min_nonadjacent_gap(curve) == pytest.approx(2.0 * (2.0 * np.pi / 64), rel=1e-12)


def test_gap_matches_brute_force():
    for eps in (0.3, 1.2):
        curve = reconstruct_curve(wave_profile(eps=eps, nx=64))
        assert min_nonadjacent_gap(curve) == pytest.approx(brute_force_gap(curve), rel=1e-14)


def test_gap_hairpin():
    # hand-built polyline with two horizontal arms a distance d apart;
    # the x range overlaps between indices 8..11 going right and 12..15
    # coming back, so the true gap is the vertical separation d
    d = 0.05
    step = 0.5
    x_fwd = np.arange(12) * step  # 0 .. 5.5 along y = 0
    x_back = x_fwd[-1] - np.arange(1, 5) * step  # 5.0 .. 3.5 along y = d
    x_out = np.array([4.0, 5.0, 2.0 * np.pi])  # climb away and close the period
    x = np.concatenate([x_fwd, x_back, x_out])
    y = np.concatenate([np.zeros(12), np.full(4, d), [3 * d, 6 * d, 0.0]])
    x = np.append(x, x[0] + 2.0 * np.pi)
    y = np.append(y, y[0])
    curve = InterfaceCurve(x=x, y=y, length=float(np.sum(np.hypot(np.diff(x), np.diff(y)))))
    gap = min_nonadjacent_gap(curve)
    assert gap == pytest.approx(d, rel=1e-12)
    assert gap == pytest.approx(brute_force_gap(curve), rel=1e-14)


@pytest.mark.parametrize("nx", [8, 64, 256, 512])
def test_gap_equals_reference_scan(rng, nx):
    curves = [hairpin_curve(nx), hairpin_curve(nx, d=1e-9)]
    curves.append(reconstruct_curve(wave_profile(eps=2.0, nx=nx)))
    for _ in range(5):
        x = np.sort(rng.uniform(0.0, 2.0 * np.pi, nx))
        curves.append(closed_curve(x, rng.uniform(0.001, 2.0) * rng.standard_normal(nx)))
        curves.append(closed_curve(rng.uniform(0.0, 2.0 * np.pi, nx), rng.standard_normal(nx)))
    # vertical zig-zag: every point lies within one (i, i+2) chord in x,
    # so every pair is a candidate
    k = np.arange(nx)
    curves.append(closed_curve(1.0 + 1e-3 * (-1.0) ** k, 0.01 * k))
    # the closest pair, (nx-1, 1), straddles the 2*pi seam
    h = 2.0 * np.pi / nx
    x = k * h
    x[0], x[-1] = 0.4 * h, 2.0 * np.pi - 0.4 * h
    curves.append(closed_curve(x, 1e-3 * h * rng.standard_normal(nx)))
    # coincident points: gap 0
    x, y = np.sort(rng.uniform(0.0, 2.0 * np.pi, nx)), rng.standard_normal(nx)
    x[5], y[5] = x[2], y[2]
    curves.append(closed_curve(x, y))
    for curve in curves:
        gap = reference_gap(curve)
        assert min_nonadjacent_gap(curve) == gap
        assert is_near_self_intersecting(curve) == (gap < 0.9 * curve.length / curve.nx)
    assert reference_gap(curves[-1]) == 0.0


def test_gap_sees_neighboring_period():
    # a tongue reaching toward x = 2*pi gets close to the next period's
    # copy of the tongue near x = 0
    n = 16
    x = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    y = np.zeros(n)
    x[0] = 0.02  # pull the first point right
    x[-1] = 2.0 * np.pi - 0.02  # pull the last point left
    xc = np.append(x, x[0] + 2.0 * np.pi)
    yc = np.append(y, y[0])
    curve = InterfaceCurve(x=xc, y=yc, length=2.0 * np.pi)
    # chain distance between last and first point is 1 (adjacent), but
    # last vs second point through the translate is distance 2
    expected = (x[1] + 2.0 * np.pi) - x[-1]
    assert min_nonadjacent_gap(curve) == pytest.approx(
        min(expected, brute_force_gap(curve)), rel=1e-14
    )


def two_arm_curve(gap):
    """Eight-point polyline: bottom arm y = 0 at x = 0..3, top arm y = gap
    coming back over the same x values.  Closest non-adjacent pairs sit
    vertically above each other at distance gap (for gap < 1)."""
    x = np.array([0.0, 1.0, 2.0, 3.0, 3.0, 2.0, 1.0, 0.0, 2.0 * np.pi])
    y = np.array([0.0, 0.0, 0.0, 0.0, gap, gap, gap, gap, 0.0])
    return InterfaceCurve(x=x, y=y, length=8.0)


def test_near_self_intersection_threshold():
    # length 8 over 8 points gives a flag threshold of 0.9 * 8 / 8 = 0.9
    near = two_arm_curve(0.85)
    far = two_arm_curve(0.95)
    assert min_nonadjacent_gap(near) == pytest.approx(0.85, rel=1e-13)
    assert min_nonadjacent_gap(far) == pytest.approx(0.95, rel=1e-13)
    assert is_near_self_intersecting(near)
    assert not is_near_self_intersecting(far)


def test_smooth_wave_not_flagged():
    curve = reconstruct_curve(wave_profile(eps=0.5, nx=128))
    assert not is_near_self_intersecting(curve)
