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
"""

from __future__ import annotations

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
    """Previous-step data an SBDF2 step needs; dt is recorded so a changed
    step size falls back to the self-starting Euler step."""

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


def theta_rhs(state, alpha):
    """Right-hand sides (theta_t values, L_t) of the evolution system."""
    p = state.theta
    s_sigma = state.length / (2.0 * np.pi)
    theta_s = spectral.deriv(p, 1)
    kappa = theta_s.values / s_sigma
    kappa_ss = spectral.deriv(p, 3).values / s_sigma**3
    u = -(1.0 + (alpha - 1.0) * kappa + 4.0 * kappa_ss)
    flux = theta_s.values * u
    length_rate = -2.0 * np.pi * float(np.mean(flux))
    # V_sigma = flux + L_t/(2*pi) has zero mean, so V is periodic
    w = spectral.ThetaProfile.from_values(flux + length_rate / (2.0 * np.pi))
    v_anti = spectral.antiderivative(w).values
    v = v_anti - v_anti[0]
    u_s = spectral.deriv(spectral.ThetaProfile.from_values(u), 1).values
    return (u_s + v * theta_s.values) / s_sigma, length_rate


def _nonstiff_hat(state, alpha):
    """Fourier transform of the explicit part: full rhs plus the stiff
    fourth-derivative term it will receive implicitly."""
    dtheta, length_rate = theta_rhs(state, alpha)
    q4 = (2.0 * np.pi / state.length) ** 4
    n = spectral.wavenumbers(state.theta.nx)
    theta_hat = state.theta.coeffs
    nonstiff = np.fft.fft(dtheta) / state.theta.nx + 4.0 * q4 * n**4 * theta_hat
    return theta_hat, nonstiff, length_rate


def imex_step(state, alpha, dt):
    """Advance one step of size dt.

    The stiff term -4*(2*pi/L)^4*theta_ssss is treated implicitly with L
    frozen at the current value; the remainder and the length equation are
    explicit.  Without usable history (first step, or dt changed) the
    scheme is first-order IMEX Euler, afterwards SBDF2.  Raises
    BlowUpError once max|theta| exceeds 1e3.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    nx = state.theta.nx
    n = spectral.wavenumbers(nx)
    theta_hat, nonstiff, length_rate = _nonstiff_hat(state, alpha)
    q4 = (2.0 * np.pi / state.length) ** 4
    prev = state.prev
    if prev is None or prev.dt != dt:
        new_hat = (theta_hat + dt * nonstiff) / (1.0 + 4.0 * dt * q4 * n**4)
        new_length = state.length + dt * length_rate
    else:
        new_hat = (
            4.0 * theta_hat
            - prev.theta_hat
            + 2.0 * dt * (2.0 * nonstiff - prev.nonstiff_hat)
        ) / (3.0 + 8.0 * dt * q4 * n**4)
        new_length = (
            4.0 * state.length
            - prev.length
            + 2.0 * dt * (2.0 * length_rate - prev.length_rate)
        ) / 3.0
    p_new = spectral.ThetaProfile.from_coeffs(new_hat)
    peak = float(np.max(np.abs(p_new.values)))
    if not np.isfinite(peak) or peak > _THETA_BLOWUP:
        raise BlowUpError(
            f"max|theta| = {peak:.3e} exceeded {_THETA_BLOWUP:g} at t = {state.time + dt:.6g}",
            time=state.time + dt,
        )
    cache = _StepCache(
        theta_hat=theta_hat,
        nonstiff_hat=nonstiff,
        length=state.length,
        length_rate=length_rate,
        dt=dt,
    )
    return EvolutionState(
        theta=p_new, length=new_length, time=state.time + dt, prev=cache
    )


def evolve(state, alpha, dt, n_steps, observer=None):
    """Run n_steps IMEX steps, invoking observer(state) after each one."""
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
