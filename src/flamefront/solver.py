"""Newton traveling-wave solves and amplitude continuation.

The traveling-wave residual of an odd-parity profile is even on the grid,
so the discrete system pairs the cosine modes of the residual (mean
included) with the sine coefficients of theta plus the two scalars (beta,
alpha).  The sine mode at the Nyquist frequency vanishes identically on
the collocation grid and is therefore not an unknown; the corresponding
cosine equation is dropped from the square solve and monitored through
the max-norm of the grid residual instead.  Amplitude is pinned by
theta at the frozen argmax index of the current guess.

Each Newton iteration assembles the exact Jacobian of that system: the
pointwise linearisation of the residual acting on the sine modes, a
rank-one term from the dependence of L on theta, and the two parameter
columns.  It is built from the Fourier coefficients of the linearisation's
coefficient functions, taken by one batched real FFT: multiplying a sine
mode by a grid function gives a Toeplitz-plus-Hankel matrix of that
function's coefficients, so no grid matrix is formed.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import Literal, NamedTuple

import numpy as np
import scipy.linalg

from . import geometry, spectral
from .bifurcation import asymptotic_guess
from .errors import (
    BranchStartError,
    ConvergenceError,
    DegenerateFrontError,
    SingularSystemError,
)
from .model import (
    ModelKind,
    WaveParams,
    length_from_theta,
    residual,
    residual_linearization,
)

__all__ = [
    "SolveConfig",
    "WaveSolution",
    "FailedSolve",
    "BranchRecord",
    "quasi_newton_solve",
    "continue_branch",
    "flat_solution",
    "residual_at_resolution",
]

_PIVOT_FLOOR = 1e-14
_MAX_STEP_HALVINGS = 4
_ALPHA_WELL_POSED = -3.0
# A solve has stalled when none of its last _STALL_WINDOW residuals is
# below _STALL_FACTOR times the best residual before them.
_STALL_WINDOW = 3
_STALL_FACTOR = 0.5

Termination = Literal[
    "self-intersection",
    "alpha-threshold",
    "iteration-failure",
    "max-amplitude-reached",
]


@dataclass(frozen=True)
class SolveConfig:
    """Discretization and iteration budget of one Newton solve."""

    nx: int = 256
    tol_residual: float = 1e-10
    max_iters: int = 50

    def __post_init__(self):
        spectral.grid(self.nx)
        if self.tol_residual <= 0.0:
            raise ValueError(f"tol_residual must be positive, got {self.tol_residual!r}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters!r}")


@dataclass(frozen=True, eq=False)
class WaveSolution:
    """A converged traveling wave with its branch bookkeeping."""

    theta: spectral.ThetaProfile
    alpha: float
    beta: float
    length: float
    amplitude: float
    residual_norm: float
    k0: int
    kind: ModelKind
    iterations: int = 0

    @functools.cached_property
    def curve(self):
        """The front rebuilt from theta, once per wave: the branch's
        self-intersection test and the wave file share it."""
        return geometry.reconstruct_curve(self.theta)


class FailedSolve(NamedTuple):
    """One continuation attempt that did not converge.

    reason is the ConvergenceError reason ("stalled", "max-iters" or
    "non-finite"), "singular-system" or "degenerate-front"; residual_floor
    is the smallest grid residual of the attempt, None when no Newton
    history exists.
    """

    target_h: float
    reason: str
    residual_floor: float | None


@dataclass(frozen=True, eq=False)
class BranchRecord:
    """Ordered continuation output, the reason the march stopped, and the
    failed attempts along the way."""

    kind: ModelKind
    k0: int
    solutions: tuple
    termination: Termination
    failures: tuple = ()

    @property
    def amplitudes(self):
        return np.array([s.amplitude for s in self.solutions])


def _rebuild(x, nx):
    """Profile and parameters from the unknown vector [b_1.., beta, alpha]."""
    p = spectral.from_sine_coeffs(x[:-2], nx)
    beta, alpha = float(x[-2]), float(x[-1])
    return p, WaveParams(alpha=alpha, beta=beta, length=length_from_theta(p))


def _pack(sol):
    return np.concatenate(
        [spectral.sine_coeffs(sol.theta), [sol.beta, sol.alpha]]
    )


def _square_equations(x, nx, target_h, kind, amp_index):
    """The square Newton system: cosine modes 0..nx/2-1 plus amplitude pin.

    Also reports the grid max-norm of the residual, which the convergence
    test uses so that the monitored-but-unsolved Nyquist mode cannot hide
    an unresolved wave, and the linearisation's coefficient functions
    (w1, w3, r_q, r_alpha) for _newton_jacobian.  A residual that is not
    finite (a closure term overflowed) has norm inf and no equations.
    """
    p, params = _rebuild(x, nx)
    with np.errstate(over="ignore", invalid="ignore"):
        r, *lin = residual_linearization(p, params, kind)
    grid_norm = float(np.max(np.abs(r)))
    if not np.isfinite(grid_norm):
        return None, np.inf, p, params, lin
    modes = spectral.cosine_coeffs(spectral.ThetaProfile.from_values(r))
    eqs = np.append(modes[: nx // 2], p.values[amp_index] - target_h)
    return eqs, grid_norm, p, params, lin


def _newton_jacobian(p, params, lin, amp_index):
    """Exact Jacobian of _square_equations in the unknowns [b_1.., beta, alpha].

    With theta = sum_k b_k sin(k sigma), column k of the linearised grid
    residual is

        (w1*k - w3*k^3)*cos(k sigma) + beta*sin(theta)*sin(k sigma) + r_q*dq_k,

    where dq_k = -mean(sin(theta)*sin(k sigma)) is the derivative of
    q = 2*pi/L = mean(cos theta); the parameter columns are -cos(theta)
    and dr/dalpha.  lin is (w1, w3, r_q, r_alpha) from
    residual_linearization at (p, params).  Every column is projected onto
    cosine modes 0..nx/2-1 through the spectra of the coefficient
    functions w1, r_q, sin(theta),
    -cos(theta) and r_alpha, taken by one batched real FFT, and never
    through a grid matrix.  With W_n the cosine coefficients of w1 and
    Z_n the sine coefficients of sin(theta), the product-to-sum identities
    on the grid give, in cosine mode m,

        w1*k*cos(k sigma)            ->  (k/2)*(W[m-k] + W[m+k]),
        beta*sin(theta)*sin(k sigma) ->  (beta/2)*(Z[k+m] + Z[k-m]),

    a Toeplitz plus a Hankel matrix each.  Both are read, without a copy,
    as strided windows of one extended vector of 3*nx/2-2 entries,
    n = -(nx/2-1) .. nx-2, folded into 0..nx/2 by evenness (W) or
    oddness (Z) and period nx.  w3 is a constant, so its term is the
    diagonal -k^3*w3; the r_q term is the outer product of r_q's cosine
    coefficients with dq.  The last row is the amplitude pin
    d theta(sigma_pin)/d b_k = sin(k sigma_pin), its phase k*pin reduced
    modulo nx in integers.
    """
    nx = p.nx
    half = nx // 2
    k = np.arange(1, half)
    w1, w3, r_q, r_alpha = lin
    funcs = np.stack([w1, r_q, np.sin(p.values), -np.cos(p.values), r_alpha])
    spec = np.fft.rfft(funcs, axis=1) / nx
    sin_coeffs = -spec[2].imag
    n = np.arange(1 - half, nx - 1)
    fold = np.minimum(np.abs(n), nx - n)
    extended = np.stack(
        [
            spec[0].real[fold],
            (params.beta * np.sign(n) * np.sign(half - n)) * sin_coeffs[fold],
        ]
    )
    windows = np.lib.stride_tricks.sliding_window_view(extended, half - 1, axis=1)
    # W[m-k], beta*Z[m-k] and W[m+k], beta*Z[m+k] for m = 0..nx/2-1
    w_toeplitz, z_toeplitz = windows[:, :half, ::-1]
    w_hankel, z_hankel = windows[:, half:]
    dq = -sin_coeffs[1:half]
    # Rows m >= 1 carry the doubled cosine modes; row 0 is halved below.
    # The block is built in place: one more temporary of its size makes
    # the allocator map and trim fresh pages on every call at nx 512.
    jac = np.empty((half + 1, half + 1))
    block = jac[:-1, :-2]
    np.multiply(2.0 * spec[1, :half, None].real, dq / k, out=block)
    block += w_toeplitz
    block += w_hankel
    block *= k
    block += z_hankel
    block -= z_toeplitz
    jac[k, k - 1] -= k**3 * w3
    jac[:-1, -2:] = 2.0 * spec[3:, :half].real.T
    jac[0] *= 0.5
    jac[-1, :-2] = np.sin((2.0 * np.pi / nx) * (k * amp_index % nx))
    jac[-1, -2:] = 0.0
    return jac


def _lu_solve(jac, rhs):
    with warnings.catch_warnings():
        # the pivot check below turns exact singularity into a typed error
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(jac, check_finite=False)
    if np.min(np.abs(np.diag(lu))) < _PIVOT_FLOOR:
        raise SingularSystemError(
            f"Newton matrix pivot below {_PIVOT_FLOOR:g}; system is singular"
        )
    return scipy.linalg.lu_solve((lu, piv), rhs, check_finite=False)


def quasi_newton_solve(guess, target_h, kind, cfg=None, k0=None):
    """Solve for the traveling wave with max(theta) pinned to target_h.

    guess is a (ThetaProfile, WaveParams) pair; its profile is projected
    onto odd parity, and the amplitude is pinned at the grid index where
    the guess attains its maximum (frozen for the whole solve).  Every
    iteration assembles the exact Jacobian at the current iterate and
    solves the dense LU-factored update system.

    Raises ConvergenceError with reason "stalled" once none of the last 3
    residuals is below half the best one before them, "max-iters" after
    cfg.max_iters without meeting cfg.tol_residual, or "non-finite" once an
    iterate's residual overflows; SingularSystemError on a negligible
    pivot.
    """
    if cfg is None:
        cfg = SolveConfig()
    if target_h < 0.0:
        raise ValueError(f"target_h must be nonnegative, got {target_h!r}")
    p0, params0 = guess
    nx = p0.nx
    p0 = spectral.project_odd(p0)
    x = np.concatenate(
        [spectral.sine_coeffs(p0), [params0.beta, params0.alpha]]
    )
    amp_index = int(np.argmax(p0.values))
    eqs, grid_norm, p, params, lin = _square_equations(x, nx, target_h, kind, amp_index)
    history = [grid_norm]
    tol = cfg.tol_residual
    iterations = 0
    reason = "max-iters"
    for it in range(1, cfg.max_iters + 1):
        if eqs is None or (grid_norm <= tol and abs(eqs[-1]) <= tol):
            break
        if len(history) > _STALL_WINDOW and min(history[-_STALL_WINDOW:]) > (
            _STALL_FACTOR * min(history[:-_STALL_WINDOW])
        ):
            reason = "stalled"
            break
        x = x + _lu_solve(_newton_jacobian(p, params, lin, amp_index), -eqs)
        eqs, grid_norm, p, params, lin = _square_equations(x, nx, target_h, kind, amp_index)
        iterations = it
        history.append(grid_norm)
    if eqs is None:
        reason = "non-finite"
    if grid_norm > tol or abs(eqs[-1]) > tol:
        raise ConvergenceError(
            f"no convergence ({reason}) after {iterations} iterations: "
            f"residual floor {min(history):.3e}, target_h {target_h}",
            last_iterate=x,
            residual_history=history,
            reason=reason,
        )

    if k0 is None:
        b = np.abs(x[:-2])
        k0 = int(np.argmax(b)) + 1 if b.size and np.max(b) > 0.0 else 1
    return WaveSolution(
        theta=p,
        alpha=params.alpha,
        beta=params.beta,
        length=params.length,
        amplitude=float(np.max(p.values)),
        residual_norm=grid_norm,
        k0=int(k0),
        kind=kind,
        iterations=iterations,
    )


def flat_solution(alpha, nx=256, kind=ModelKind.LINEAR):
    """The flat front as an exactly converged WaveSolution (beta = 1, L = 2*pi)."""
    p = spectral.ThetaProfile.from_values(np.zeros(nx))
    return WaveSolution(
        theta=p,
        alpha=float(alpha),
        beta=1.0,
        length=2.0 * np.pi,
        amplitude=0.0,
        residual_norm=0.0,
        k0=1,
        kind=kind,
        iterations=0,
    )


def residual_at_resolution(sol, nx):
    """Max-norm of the wave's residual re-evaluated on an nx-point grid.

    Resamples the profile spectrally; a converged, resolved wave should
    barely move under doubling of nx.
    """
    fine = spectral.resample(sol.theta, nx)
    params = WaveParams(alpha=sol.alpha, beta=sol.beta, length=length_from_theta(fine))
    return float(np.max(np.abs(residual(fine, params, sol.kind))))


def _failed_solve(target_h, exc):
    if isinstance(exc, ConvergenceError):
        return FailedSolve(target_h, exc.reason, exc.residual_floor)
    if isinstance(exc, SingularSystemError):
        return FailedSolve(target_h, "singular-system", None)
    return FailedSolve(target_h, "degenerate-front", None)


def continue_branch(k0, kind, h_step, h_max, cfg=None):
    """March the branch of mode k0 in the wave amplitude h = max(theta).

    Starts from the asymptotic guess at eps = h_step, then increments the
    amplitude target by the current step, predicting each new iterate by
    secant extrapolation of the previous two solutions.  A failed solve
    halves the step (at most 4 halvings over the whole run) and is logged
    in BranchRecord.failures.  Stops on
    near-self-intersection of the predicted or converged curve (the
    latter is kept as the wave's curve property), on
    crossing the well-posedness threshold alpha = -3 (nonlinear closure),
    on step exhaustion, or once target_h would exceed h_max.
    """
    if cfg is None:
        cfg = SolveConfig()
    if not (np.isfinite(h_step) and h_step > 0.0):
        raise ValueError(f"h_step must be positive and finite, got {h_step!r}")
    if not np.isfinite(h_max):
        raise ValueError(f"h_max must be finite, got {h_max!r}")
    if h_max < h_step:
        raise ValueError(f"h_max {h_max!r} is below the first target {h_step!r}")

    guess = asymptotic_guess(k0, h_step, kind, nx=cfg.nx)
    try:
        sol = quasi_newton_solve(guess, h_step, kind, cfg, k0=k0)
    except (ConvergenceError, SingularSystemError, DegenerateFrontError) as exc:
        raise BranchStartError(
            f"first solve at target_h {h_step} failed for k0={k0}, {kind.value}"
        ) from exc

    solutions = [sol]
    if geometry.is_near_self_intersecting(sol.curve):
        return BranchRecord(kind, int(k0), tuple(solutions), "self-intersection")

    failures = []
    step = float(h_step)
    halvings = 0
    x_prev, h_prev = _pack(sol), float(h_step)
    x_prev2, h_prev2 = None, None
    termination = None
    while termination is None:
        h_next = h_prev + step
        if h_next > h_max * (1.0 + 1e-12):
            termination = "max-amplitude-reached"
            break
        if x_prev2 is None:
            x_guess = x_prev.copy()
        else:
            x_guess = x_prev + (x_prev - x_prev2) * ((h_next - h_prev) / (h_prev - h_prev2))
        try:
            p_guess, params_guess = _rebuild(x_guess, cfg.nx)
            if geometry.is_near_self_intersecting(geometry.reconstruct_curve(p_guess)):
                termination = "self-intersection"
                break
            sol_new = quasi_newton_solve(
                (p_guess, params_guess), h_next, kind, cfg, k0=k0
            )
        except (ConvergenceError, SingularSystemError, DegenerateFrontError) as exc:
            failures.append(_failed_solve(h_next, exc))
            halvings += 1
            if halvings > _MAX_STEP_HALVINGS:
                termination = "iteration-failure"
                break
            step *= 0.5
            continue
        if kind is ModelKind.NONLINEAR and sol_new.alpha >= _ALPHA_WELL_POSED:
            termination = "alpha-threshold"
            break
        solutions.append(sol_new)
        if geometry.is_near_self_intersecting(sol_new.curve):
            termination = "self-intersection"
            break
        x_prev2, h_prev2 = x_prev, h_prev
        x_prev, h_prev = _pack(sol_new), h_next

    return BranchRecord(kind, int(k0), tuple(solutions), termination, tuple(failures))
