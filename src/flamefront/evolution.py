"""Time evolution of the tangent angle and numerical stability probes.

Only the linear closure is evolved.  The front moves with normal velocity

    U = -(1 + (alpha-1)*kappa + 4*kappa_ss),

and the tangent angle on the normalized-arclength grid obeys

    theta_t = (U_sigma + V*theta_sigma) / s_sigma,      s_sigma = L/(2*pi),
    L_t = -integral(theta_sigma * U),
    V_sigma = theta_sigma * U + L_t/(2*pi),   V(0) = 0,

where V is the tangential velocity that keeps the parameterization
uniform.  Time stepping is IMEX: the fourth-derivative part
-4*(2*pi/L)^4 * theta_ssss is implicit (diagonal in Fourier space, L
frozen over the step), everything else explicit; the first step is IMEX
Euler and subsequent steps are SBDF2.

A step works on the rfft half spectrum c of theta, n = 0..nx/2, the
spectrum a ThetaProfile holds, with multiplier tables cached per nx,
through three linear maps: (1) the flux theta_s*U on the grid to
-(V - V(0)), plus its mean, which gives L_t; (2) the grid product
(V - V(0))*theta_s to its half spectrum; (3) the new c to theta, theta_s
and theta_sss, which give the blow-up check and the next step.  Above nx = 128 they are 4 numpy FFT calls: an rfft and an
irfft of the antiderivative for (1), an rfft for (2) and one batched
irfft of c times 1, (i n) and (i n)^3 for (3).  Up to nx = 128 each map
is a dense real matrix, tabulated once per nx from its FFT expression and
applied with one matmul: on such grids a numpy FFT call costs several
times its arithmetic, so per-call overhead, not flops, sets the step's
cost, and three matmuls beat four FFTs.  The stiff part of
U_sigma/s_sigma cancels against the implicit term in closed form, so the
explicit half spectrum is (a*n^2*c + rfft((V - V(0))*theta_s))/s_sigma
with a = (alpha-1)/s_sigma, plus the stiff term at Nyquist, where
U_sigma has no content.  imex_step, evolve and stability_probe all run
the same loop, which builds an EvolutionState only for an observer and
for the state it returns; theta_rhs uses the same maps.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import spectral
from .errors import BlowUpError, UnsupportedModelError
from .model import ModelKind, length_from_theta

__all__ = [
    "EvolutionState",
    "StabilityProbeConfig",
    "GrowthEstimate",
    "theta_rhs",
    "imex_step",
    "evolve",
    "stability_probe",
]

_THETA_BLOWUP = 1e3

# The probe fits log d(t) over this many decades of growth.
_GROWTH_WINDOW_DECADES = 2.0

# Growth slower than exp(1e-3 t) is indistinguishable from neutral over
# the default probe horizon.
_NO_GROWTH_NOTE = "no instability observed at threshold 1e-3"


class _StepCache(NamedTuple):
    """What the step that made a state leaves for the next one.

    The previous half spectrum, explicit part, length and L_t are the
    history an SBDF2 step needs; dt is recorded so a changed step size
    falls back to the self-starting Euler step.  theta_s and theta_sss
    belong to the state itself: the step's last transform gave them, so
    the next step need not transform again.
    """

    theta_hat: np.ndarray
    nonstiff_hat: np.ndarray
    length: float
    length_rate: float
    dt: float
    theta_s: np.ndarray
    theta_sss: np.ndarray


@dataclass(frozen=True, eq=False)
class EvolutionState:
    """Tangent angle, front length, and clock time of an evolving front."""

    theta: spectral.ThetaProfile
    length: float
    time: float = 0.0
    prev: _StepCache | None = field(default=None, repr=False, compare=False)

    @classmethod
    def from_theta(cls, p, time=0.0):
        return cls(theta=p, length=length_from_theta(p), time=time)


@dataclass(frozen=True)
class StabilityProbeConfig:
    """Perturbation size and integration window of a stability probe."""

    delta: float = 1e-8
    dt: float = 1e-4
    t_max: float = 1.0

    def __post_init__(self):
        for name in ("delta", "dt", "t_max"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if round(self.t_max / self.dt) < 1:
            raise ValueError(f"t_max {self.t_max!r} is shorter than one step of dt {self.dt!r}")


@dataclass(frozen=True, eq=False)
class GrowthEstimate:
    """Fitted exponential growth rate of the perturbation norm d(t)."""

    rate: float
    intercept: float
    window: tuple
    observed: bool
    times: np.ndarray
    norms: np.ndarray
    note: str = ""


@dataclass(frozen=True, eq=False)
class _Multipliers:
    """Read-only half-spectrum multipliers of one grid, n = 0..nx/2.

    rows holds 1, (i n), (i n)^3, so one irfft of rows * c gives theta,
    theta_s and theta_sss; the two derivative rows are zeroed at Nyquist.
    rows and n4 (n^4) come from the (i n)^k table behind spectral.deriv.
    n2 holds n^2, zeroed at Nyquist because it only feeds u_sigma, the
    derivative of a u that has no Nyquist content.  inv_in holds 1/(i n)
    with modes 0 and nx/2 zeroed.
    """

    rows: np.ndarray
    n2: np.ndarray
    inv_in: np.ndarray
    n4: np.ndarray


@functools.cache
def _multipliers(nx):
    powers = spectral._powers(nx)
    rows = powers[[0, 1, 3]]
    n = np.arange(nx // 2 + 1)
    n2 = n.astype(float) ** 2
    n2[-1] = 0.0
    inv_in = np.zeros(n.size, dtype=complex)
    inv_in[1:-1] = 1.0 / (1j * n[1:-1])
    for table in (rows, n2, inv_in):
        table.setflags(write=False)
    return _Multipliers(rows=rows, n2=n2, inv_in=inv_in, n4=powers[4].real)


# Largest grid on which the step's three maps are dense matrices.  Up to
# it a numpy FFT call costs several times its arithmetic, so one matmul
# wins; per-step timings put the crossover between nx 128 and 192.
_DENSE_MAX_NX = 128


@dataclass(frozen=True, eq=False)
class _Maps:
    """The three linear maps of one step on one grid.

    (1) to_velocity: g = -flux/s_sigma on the grid to -(V - V(0))/s_sigma
        on the grid and the mean of g, which gives L_t;
    (2) to_spectrum: grid values to their rfft half spectrum;
    (3) to_rows: half spectrum c to theta, theta_s and theta_sss.

    Each map is defined by its FFT expression below.  For nx up to
    _DENSE_MAX_NX, _maps tabulates it once as a read-only real matrix and
    applies it with one matmul: velocity is (nx+1, nx), spectrum (nx+2, nx)
    onto the float view of the half spectrum, rows (3*nx, nx+2) from it.
    Above that the matrices are None and the FFTs run.
    """

    mult: _Multipliers
    velocity: np.ndarray | None = None
    spectrum: np.ndarray | None = None
    rows: np.ndarray | None = None

    def to_velocity(self, g):
        if self.velocity is not None:
            w = self.velocity @ g
            return w[:-1], w[-1]
        neg_flux_hat = np.fft.rfft(g, norm="forward")
        # V_sigma = flux + L_t/(2*pi) has zero mean, so V is periodic; the
        # constant L_t/(2*pi) only touches mode 0, which inv_in drops
        neg_v = np.fft.irfft(neg_flux_hat * self.mult.inv_in, n=g.size, norm="forward")
        return neg_v - neg_v[0], neg_flux_hat[0].real

    def to_spectrum(self, values):
        if self.spectrum is not None:
            return (self.spectrum @ values).view(complex)
        return np.fft.rfft(values, norm="forward")

    def to_rows(self, c):
        if self.rows is not None:
            return (self.rows @ c.view(float)).reshape(3, -1)
        return np.fft.irfft(self.mult.rows * c, n=2 * (c.size - 1), norm="forward")


@functools.cache
def _maps(nx):
    fft = _Maps(_multipliers(nx))
    if nx > _DENSE_MAX_NX:
        return fft
    # column j of each matrix is the FFT map applied to the j-th unit vector
    eye = np.eye(nx)
    velocity = np.array([np.append(*fft.to_velocity(e)) for e in eye]).T
    spectrum = np.array([fft.to_spectrum(e).view(float) for e in eye]).T
    rows = np.array([fft.to_rows(e.view(complex)).ravel() for e in np.eye(nx + 2)]).T
    matrices = [np.ascontiguousarray(m) for m in (velocity, spectrum, rows)]
    for m in matrices:
        m.setflags(write=False)
    return _Maps(fft.mult, *matrices)


def _explicit(c, theta_s, theta_sss, length, alpha, maps):
    """Explicit half spectrum of theta_t, L_t, and q = 4*(2*pi/L)^4.

    theta_t = (u_sigma + (V - V(0))*theta_s)/s_sigma with
    u/s_sigma = -(1/s_sigma + a*theta_s + q*theta_sss), so u_sigma/s_sigma
    carries -q*n^4*c, the term the step treats implicitly.  It is left out
    here rather than added and subtracted, except at Nyquist, where
    u_sigma has no content and the implicit term is balanced explicitly.
    """
    mult = maps.mult
    s_sigma = length / (2.0 * np.pi)
    a = (alpha - 1.0) / s_sigma**2
    q = 4.0 / s_sigma**4
    # the maps carry -flux/s_sigma and -V/s_sigma: dividing u by s_sigma
    # up front divides theta_t, and negating it is free
    neg_v, neg_flux_mean = maps.to_velocity(theta_s * (1.0 / s_sigma + a * theta_s + q * theta_sss))
    length_rate = length * float(neg_flux_mean)
    nonstiff = a * mult.n2 * c - maps.to_spectrum(neg_v * theta_s)
    nonstiff[-1] += q * mult.n4[-1] * c[-1]
    return nonstiff, length_rate, q


def theta_rhs(state, alpha):
    """Right-hand sides (theta_t values, L_t) of the evolution system."""
    maps = _maps(state.theta.nx)
    c = state.theta.coeffs
    _, theta_s, theta_sss = maps.to_rows(c)
    nonstiff, length_rate, q = _explicit(c, theta_s, theta_sss, state.length, alpha, maps)
    return maps.to_rows(nonstiff - q * maps.mult.n4 * c)[0], length_rate


def _state(nx, values, c, length, time, *cache):
    return EvolutionState(
        theta=spectral.ThetaProfile(nx=nx, values=values, coeffs=c),
        length=length,
        time=time,
        prev=_StepCache(*cache),
    )


def _check_blowup(values, time):
    """BlowUpError when max|theta| of the grid values exceeds _THETA_BLOWUP."""
    peak = float(np.abs(values).max(initial=0.0))
    if not peak <= _THETA_BLOWUP:
        raise BlowUpError(
            f"max|theta| = {peak:.3e} exceeded {_THETA_BLOWUP:g} at t = {time:.6g}",
            time=time,
        )


def _march(state, alpha, dt, n_steps, observer=None, until=None):
    """The stepping loop behind imex_step, evolve and stability_probe.

    Takes n_steps steps, or fewer if until(values, time) returns True
    after one, calls observer(state) after each, and returns the state
    after the last step taken.  The half spectrum, L, t and the SBDF2
    history live in locals; states are built only for the observer and
    for the return value.  A starting state already past the blow-up
    threshold is refused at its own time, before any step.
    """
    if not (np.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if not np.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha!r}")
    _check_blowup(state.theta.values, state.time)
    nx = state.theta.nx
    maps = _maps(nx)
    n4 = maps.mult.n4
    c = state.theta.coeffs
    length = state.length
    time = state.time
    prev = state.prev
    if prev is None:
        _, theta_s, theta_sss = maps.to_rows(c)
    else:
        theta_s, theta_sss = prev.theta_s, prev.theta_sss
    # SBDF2 needs the previous step at the same dt; otherwise IMEX Euler
    history = None
    if prev is not None and prev.dt == dt:
        history = (prev.theta_hat, prev.nonstiff_hat, prev.length, prev.length_rate)
    out = state
    for _ in range(n_steps):
        nonstiff, length_rate, q = _explicit(c, theta_s, theta_sss, length, alpha, maps)
        if history is None:
            new_c = (c + dt * nonstiff) / (1.0 + dt * q * n4)
            new_length = length + dt * length_rate
        else:
            prev_c, prev_nonstiff, prev_length, prev_rate = history
            new_c = (4.0 * c - prev_c + 2.0 * dt * (2.0 * nonstiff - prev_nonstiff)) / (
                3.0 + 2.0 * dt * q * n4
            )
            new_length = (4.0 * length - prev_length + 2.0 * dt * (2.0 * length_rate - prev_rate)) / 3.0
        time += dt
        values, theta_s, theta_sss = maps.to_rows(new_c)
        _check_blowup(values, time)
        history = (c, nonstiff, length, length_rate)
        c, length = new_c, new_length
        out = None
        if observer is not None:
            out = _state(nx, values, c, length, time, *history, dt, theta_s, theta_sss)
            observer(out)
        if until is not None and until(values, time):
            break
    if out is None:
        out = _state(nx, values, c, length, time, *history, dt, theta_s, theta_sss)
    return out


def imex_step(state, alpha, dt):
    """Advance one step of size dt.

    The stiff term -4*(2*pi/L)^4*theta_ssss is treated implicitly with L
    frozen at the current value; the remainder and the length equation are
    explicit.  Without usable history (first step, or dt changed) the
    scheme is first-order IMEX Euler, afterwards SBDF2.  Raises ValueError
    for a dt that is not positive and finite or an alpha that is not
    finite, and BlowUpError once max|theta| exceeds 1e3.
    """
    return _march(state, alpha, dt, 1)


def evolve(state, alpha, dt, n_steps, observer=None):
    """Run n_steps IMEX steps, invoking observer(state) after each one."""
    if n_steps < 0:
        raise ValueError(f"n_steps must be non-negative, got {n_steps!r}")
    return _march(state, alpha, dt, n_steps, observer)


def _fit_loglinear(times, norms):
    slope, intercept = np.polyfit(times, np.log(norms), 1)
    return float(slope), float(intercept)


def stability_probe(wave, cfg=None):
    """Estimate the leading growth rate around a traveling wave.

    Perturbs theta by delta*(sin sigma + sin 2*sigma), evolves with the
    linear closure at the wave's alpha, and records
    d(t) = max|theta(t) - theta(0)|.  The rate is the least-squares slope
    of log d over the window that starts one decade above delta and ends
    where d has grown by two more decades; integration stops as soon as
    that window completes, well before the perturbed front leaves the
    exponential regime.  If the window never completes
    by t_max, the largest slope over trailing subwindows is reported and
    the estimate is flagged as not observed.
    """
    if cfg is None:
        cfg = StabilityProbeConfig()
    if wave.kind is not ModelKind.LINEAR:
        raise UnsupportedModelError(
            f"time evolution is implemented for the linear closure only, got {wave.kind!r}"
        )
    nx = wave.theta.nx
    sigma = spectral.grid(nx)
    theta0 = wave.theta.values + cfg.delta * (np.sin(sigma) + np.sin(2.0 * sigma))
    state = EvolutionState.from_theta(spectral.ThetaProfile.from_values(theta0))
    reference = state.theta.values.copy()

    factor = 10.0**_GROWTH_WINDOW_DECADES
    n_steps = int(round(cfg.t_max / cfg.dt))
    times = np.empty(n_steps)
    norms = np.empty(n_steps)
    start = None
    end = None
    taken = 0

    def record(values, time):
        nonlocal start, end, taken
        i = taken
        times[i] = time
        norms[i] = np.abs(values - reference).max()
        taken = i + 1
        if start is None:
            if norms[i] >= 10.0 * cfg.delta:
                start = i
        elif i > start and norms[i] >= factor * norms[start]:
            end = i
            return True
        return False

    _march(state, wave.alpha, cfg.dt, n_steps, until=record)
    times = times[:taken]
    norms = norms[:taken]

    positive = norms > 0.0
    if start is not None and end is not None:
        sel = slice(start, end + 1)
        rate, intercept = _fit_loglinear(times[sel], norms[sel])
        return GrowthEstimate(
            rate=rate,
            intercept=intercept,
            window=(float(times[start]), float(times[end])),
            observed=True,
            times=times,
            norms=norms,
        )

    # no two-decade growth: report the steepest trailing fit and flag it
    best = None
    for fraction in (0.0, 0.25, 0.5, 0.75):
        lo = int(fraction * n_steps)
        mask = positive.copy()
        mask[:lo] = False
        if np.count_nonzero(mask) < 2:
            continue
        rate, intercept = _fit_loglinear(times[mask], norms[mask])
        window = (float(times[mask][0]), float(times[-1]))
        if best is None or rate > best[0]:
            best = (rate, intercept, window)
    if best is None:
        best = (0.0, 0.0, (0.0, float(cfg.t_max)))
    return GrowthEstimate(
        rate=best[0],
        intercept=best[1],
        window=best[2],
        observed=False,
        times=times,
        norms=norms,
        note=_NO_GROWTH_NOTE,
    )
