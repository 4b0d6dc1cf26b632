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

A step works on the rfft half spectrum of theta, n = 0..nx/2, with
multiplier tables cached per nx, and makes 5 numpy FFT calls: one batched
irfft for theta_s, theta_sss, theta_ss and theta_ssss, an rfft of the
flux theta_s*U (its mode 0 gives L_t) and an irfft of its antiderivative
for V, then an rfft of theta_t and an irfft of the new half spectrum.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

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

# Growth slower than exp(1e-3 t) is indistinguishable from neutral over
# the default probe horizon.
_NO_GROWTH_NOTE = "no instability observed at threshold 1e-3"


@dataclass(frozen=True, eq=False)
class _StepCache:
    """Previous-step data an SBDF2 step needs, as rfft half spectra; dt is
    recorded so a changed step size falls back to the self-starting Euler
    step."""

    theta_hat: np.ndarray
    nonstiff_hat: np.ndarray
    length: float
    length_rate: float
    dt: float


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
    growth_window_decades: float = 2.0

    def __post_init__(self):
        for name in ("delta", "dt", "t_max"):
            value = getattr(self, name)
            if not value > 0.0:
                raise ValueError(f"{name} must be positive, got {value!r}")
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

    derivs holds the rows (i n)^1, (i n)^3, (i n)^2, (i n)^4, in the order
    theta_rhs unpacks them; inv_in holds 1/(i n) with modes 0 and nx/2
    zeroed; n4 holds n^4.  Every derivative row is zeroed at Nyquist: the
    odd orders as in spectral.deriv, the even ones because they only feed
    u_sigma, the derivative of a u that has no Nyquist content.
    """

    derivs: np.ndarray
    inv_in: np.ndarray
    n4: np.ndarray


@functools.cache
def _multipliers(nx):
    n = np.arange(nx // 2 + 1)
    derivs = (1j * n) ** np.array([1, 3, 2, 4])[:, None]
    derivs[:, -1] = 0.0
    inv_in = np.zeros(n.size, dtype=complex)
    inv_in[1:-1] = 1.0 / (1j * n[1:-1])
    n4 = n.astype(float) ** 4
    for table in (derivs, inv_in, n4):
        table.setflags(write=False)
    return _Multipliers(derivs=derivs, inv_in=inv_in, n4=n4)


def theta_rhs(state, alpha):
    """Right-hand sides (theta_t values, L_t) of the evolution system."""
    p = state.theta
    nx = p.nx
    table = _multipliers(nx)
    s_sigma = state.length / (2.0 * np.pi)
    # u = -(1 + a*theta_s + b*theta_sss) is linear in the derivatives, so
    # u_sigma comes from theta_ss and theta_ssss without a transform of u
    a = (alpha - 1.0) / s_sigma
    b = 4.0 / s_sigma**3
    theta_s, theta_sss, theta_ss, theta_ssss = np.fft.irfft(
        table.derivs * p.coeffs[: nx // 2 + 1], n=nx, norm="forward"
    )
    u = -(1.0 + a * theta_s + b * theta_sss)
    u_s = -(a * theta_ss + b * theta_ssss)
    flux_hat = np.fft.rfft(theta_s * u, norm="forward")
    length_rate = -2.0 * np.pi * float(flux_hat[0].real)
    # V_sigma = flux + L_t/(2*pi) has zero mean, so V is periodic; the
    # constant L_t/(2*pi) only touches mode 0, which inv_in drops
    v = np.fft.irfft(flux_hat * table.inv_in, n=nx, norm="forward")
    return (u_s + (v - v[0]) * theta_s) / s_sigma, length_rate


def imex_step(state, alpha, dt):
    """Advance one step of size dt.

    The stiff term -4*(2*pi/L)^4*theta_ssss is treated implicitly with L
    frozen at the current value; the remainder and the length equation are
    explicit.  Without usable history (first step, or dt changed) the
    scheme is first-order IMEX Euler, afterwards SBDF2.  Raises ValueError
    for a dt that is not positive and finite or an alpha that is not
    finite, and BlowUpError once max|theta| exceeds 1e3.
    """
    if not (np.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if not np.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha!r}")
    nx = state.theta.nx
    theta_hat = state.theta.coeffs[: nx // 2 + 1]
    dtheta, length_rate = theta_rhs(state, alpha)
    # explicit part: the full rhs plus the stiff term it receives implicitly
    stiff = 4.0 * (2.0 * np.pi / state.length) ** 4 * _multipliers(nx).n4
    nonstiff = np.fft.rfft(dtheta, norm="forward") + stiff * theta_hat
    prev = state.prev
    if prev is None or prev.dt != dt:
        new_hat = (theta_hat + dt * nonstiff) / (1.0 + dt * stiff)
        new_length = state.length + dt * length_rate
    else:
        new_hat = (
            4.0 * theta_hat
            - prev.theta_hat
            + 2.0 * dt * (2.0 * nonstiff - prev.nonstiff_hat)
        ) / (3.0 + 2.0 * dt * stiff)
        new_length = (
            4.0 * state.length
            - prev.length
            + 2.0 * dt * (2.0 * length_rate - prev.length_rate)
        ) / 3.0
    values = np.fft.irfft(new_hat, n=nx, norm="forward")
    peak = float(np.max(np.abs(values)))
    if not np.isfinite(peak) or peak > _THETA_BLOWUP:
        raise BlowUpError(
            f"max|theta| = {peak:.3e} exceeded {_THETA_BLOWUP:g} at t = {state.time + dt:.6g}",
            time=state.time + dt,
        )
    # negative modes by Hermitian symmetry: the values are real
    coeffs = np.concatenate((new_hat, np.conj(new_hat[-2:0:-1])))
    cache = _StepCache(
        theta_hat=theta_hat,
        nonstiff_hat=nonstiff,
        length=state.length,
        length_rate=length_rate,
        dt=dt,
    )
    return EvolutionState(
        theta=spectral.ThetaProfile(nx=nx, values=values, coeffs=coeffs),
        length=new_length,
        time=state.time + dt,
        prev=cache,
    )


def evolve(state, alpha, dt, n_steps, observer=None):
    """Run n_steps IMEX steps, invoking observer(state) after each one."""
    if n_steps < 0:
        raise ValueError(f"n_steps must be non-negative, got {n_steps!r}")
    for _ in range(n_steps):
        state = imex_step(state, alpha, dt)
        if observer is not None:
            observer(state)
    return state


def _fit_loglinear(times, norms):
    slope, intercept = np.polyfit(times, np.log(norms), 1)
    return float(slope), float(intercept)


def stability_probe(wave, cfg=None):
    """Estimate the leading growth rate around a traveling wave.

    Perturbs theta by delta*(sin sigma + sin 2*sigma), evolves with the
    linear closure at the wave's alpha, and records
    d(t) = max|theta(t) - theta(0)|.  The rate is the least-squares slope
    of log d over the window that starts one decade above delta and ends
    where d has grown by growth_window_decades more decades; integration
    stops as soon as that window completes, well before the perturbed
    front leaves the exponential regime.  If the window never completes
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

    factor = 10.0**cfg.growth_window_decades
    n_steps = int(round(cfg.t_max / cfg.dt))
    times = np.empty(n_steps)
    norms = np.empty(n_steps)
    start = None
    end = None
    taken = 0
    for i in range(n_steps):
        state = imex_step(state, wave.alpha, cfg.dt)
        times[i] = state.time
        norms[i] = np.max(np.abs(state.theta.values - reference))
        taken = i + 1
        if start is None:
            if norms[i] >= 10.0 * cfg.delta:
                start = i
        elif i > start and norms[i] >= factor * norms[start]:
            end = i
            break
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
