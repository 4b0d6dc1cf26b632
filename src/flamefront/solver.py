"""Newton traveling-wave solves and amplitude continuation.

The traveling-wave residual of an odd-parity profile is even on the grid,
so the discrete system pairs the cosine modes of the residual (mean
included) with the sine coefficients of theta plus the two scalars (beta,
alpha).  The sine mode at the Nyquist frequency vanishes identically on
the collocation grid and is therefore not an unknown; the corresponding
cosine equation is dropped from the square solve and monitored through
the max-norm of the grid residual instead.  The residual's Nyquist
coefficient c_{nx/2} = (1/nx)*sum_j r_j*(-1)^j obeys |c_{nx/2}| <= max|r|,
so once the solved equations meet the tolerance while that coefficient
does not, the grid test cannot pass: a wave that the grid does not
resolve, such as the nonlinear branch near its corner, ends the solve as
"unresolved".  Amplitude is pinned by theta at each iterate's own argmax
index, so a converged wave peaks at its pin and its grid maximum is the
target.

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
from collections import deque
from dataclasses import dataclass
from typing import Literal, NamedTuple

import numpy as np
import scipy.linalg

from . import geometry, spectral
from .bifurcation import _EPS_MAX, asymptotic_guess
from .errors import (
    BranchStartError,
    ConvergenceError,
    DegenerateFrontError,
    SingularSystemError,
    _finite_real,
    _integer,
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
# The grid residual and the amplitude pin of a converged wave both meet it.
_TOL_RESIDUAL = 1e-10
_MAX_STEP_HALVINGS = 4
_ALPHA_WELL_POSED = -3.0
# The latest converged waves that the branch predictor extrapolates
# through.  Their converged solves on the default k0 = 1 branches (linear,
# nonlinear) take 97 and 80 Newton iterations with 2 (the secant), 82 and
# 63 with 3, 81 and 58 with 4, and 74 and 56 with 5.  Each further wave
# about doubles the sum of |weights| at one equal step (15 with 4, 31
# with 5), and so the amplification of the waves' own solve errors.
_PREDICTOR_WAVES = 4
# A solve has stalled when none of its last _STALL_WINDOW residuals is
# below _STALL_FACTOR times the best residual before them and after the
# guess's own: a converged wave reused as a guess has a grid residual of
# rounding size, which its new target's iterates need not reach again.
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
    """Discretization and iteration budget of one Newton solve; the
    residual tolerance is the fixed 1e-10.

    nx must be an even integer >= 8 (InvalidGridError) and max_iters an
    integer >= 1 (ValueError; a bool, though an int, is no budget).
    """

    nx: int = 256
    max_iters: int = 50

    def __post_init__(self):
        spectral.grid(self.nx)
        _integer("max_iters", self.max_iters, 1)


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

    reason is the ConvergenceError reason ("unresolved", "stalled",
    "max-iters" or "non-finite"), "singular-system" or "degenerate-front";
    residual_floor is the ConvergenceError's, the smallest grid residual
    the attempt reached after its guess, None when no Newton history
    exists.  An "unresolved" floor lies above the tolerance, held there
    by the residual's Nyquist coefficient, since |c_{nx/2}| <= max|r|.
    An attempt at a target within the fixed tolerance 1e-10 of an earlier
    "unresolved" one is not solved: it records that verdict and that
    attempt's floor.
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


def _rebuild(x, nx):
    """Profile and parameters from the unknown vector [b_1.., beta, alpha]."""
    p = spectral.from_sine_coeffs(x[:-2], nx)
    beta, alpha = float(x[-2]), float(x[-1])
    return p, WaveParams(alpha=alpha, beta=beta, length=length_from_theta(p))


def _pack(sol):
    return np.concatenate(
        [spectral.sine_coeffs(sol.theta), [sol.beta, sol.alpha]]
    )


def _square_equations(p, params, target_h, kind, amp_index):
    """The square Newton system at (p, params): cosine modes 0..nx/2-1
    plus the amplitude pin theta[amp_index] = target_h.

    Also reports the grid max-norm of the residual, which the convergence
    test uses so that the monitored-but-unsolved Nyquist mode cannot hide
    an unresolved wave, the magnitude of that mode's coefficient
    |Re c_{nx/2}| from the same real FFT, and the linearisation's
    coefficient functions (w1, w3, r_q, r_alpha) for _newton_jacobian.  A
    residual that is not finite (a closure term overflowed) has norms inf
    and no equations.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        r, *lin = residual_linearization(p, params, kind)
    grid_norm = float(np.max(np.abs(r)))
    if not np.isfinite(grid_norm):
        return None, np.inf, np.inf, lin
    # the cosine coefficients of r straight from its half spectrum: r is
    # finite (grid_norm is), and modes 1..nx/2-1 count twice
    half = p.nx // 2
    spec = np.fft.rfft(r, norm="forward")
    eqs = np.empty(half + 1)
    eqs[:half] = spec[:half].real
    eqs[1:half] *= 2.0
    eqs[half] = p.values[amp_index] - target_h
    return eqs, grid_norm, float(abs(spec[half].real)), lin


@functools.cache
def _jacobian_tables(nx):
    """Read-only tables of _newton_jacobian that depend on nx alone: k =
    1..nx/2-1, the fold of n = 1-nx/2..nx-2 into 0..nx/2 by evenness and
    period nx, the sign pattern sign(n)*sign(nx/2-n) that makes the fold
    odd, and k^3."""
    half = nx // 2
    k = np.arange(1, half)
    n = np.arange(1 - half, nx - 1)
    fold = np.minimum(np.abs(n), nx - n)
    sign = np.sign(n) * np.sign(half - n)
    k3 = k**3
    for table in (k, fold, sign, k3):
        table.setflags(write=False)
    return k, fold, sign, k3


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
    as strided windows of one work array holding two extended vectors of
    3*nx/2-2 entries, n = -(nx/2-1) .. nx-2, folded into 0..nx/2 by
    evenness (W) or oddness (Z) and period nx (_jacobian_tables).  w3 is a
    constant, so its term is the diagonal -k^3*w3; the r_q term is the
    outer product of r_q's cosine coefficients with dq.  The last row is
    the amplitude pin d theta(sigma_pin)/d b_k = sin(k sigma_pin), its
    phase k*pin reduced modulo nx in integers.

    The sine-mode block is summed in a contiguous (nx/2, nx/2-1) array and
    copied into the matrix once: each of its six updates costs 8-18 us
    there at nx 256, against 21-27 us on the strided block of the matrix.
    A build, with the matrix kept alive as the solver keeps it through its
    LU, takes 116-119 us at nx 256 and 0.44-0.45 ms at nx 512, against
    0.20-0.21 and 0.48-0.59 ms summed in place (fastest of 7 runs of 100
    calls, in each of several processes; one BLAS thread, 2-core Xeon VM).
    The matrix is allocated before the block, so that the LU's copy of the
    matrix takes the block's freed heap: at nx 512, in a process that has
    run a branch, a one-iteration solve then faults in 225-239 fresh
    pages, as with the block summed in place, against 352 with the block
    allocated first.
    """
    nx = p.nx
    half = nx // 2
    k, fold, sign, k3 = _jacobian_tables(nx)
    w1, w3, r_q, r_alpha = lin
    funcs = np.stack([w1, r_q, np.sin(p.values), -np.cos(p.values), r_alpha])
    spec = np.fft.rfft(funcs, axis=1) / nx
    sin_coeffs = -spec[2].imag
    # indexed copies: np.take(..., out=) buffers its output and costs more
    extended = np.empty((2, fold.size))
    extended[0] = spec[0].real[fold]
    extended[1] = sin_coeffs[fold]
    extended[1] *= params.beta * sign
    step = extended.strides[1]
    windows = np.lib.stride_tricks.as_strided(
        extended, (2, nx, half - 1), (extended.strides[0], step, step), writeable=False
    )
    # W[m-k], beta*Z[m-k] and W[m+k], beta*Z[m+k] for m = 0..nx/2-1
    w_toeplitz, z_toeplitz = windows[:, :half, ::-1]
    w_hankel, z_hankel = windows[:, half:]
    dq = -sin_coeffs[1:half]
    # Rows m >= 1 carry the doubled cosine modes; row 0 is halved below.
    # The block is summed contiguous, then copied into the matrix once;
    # the matrix comes first, so that the LU's copy reuses the block's heap.
    jac = np.empty((half + 1, half + 1))
    block = np.multiply(2.0 * spec[1, :half, None].real, dq / k)
    block += w_toeplitz
    block += w_hankel
    block *= k
    block += z_hankel
    block -= z_toeplitz
    jac[:-1, :-2] = block
    jac[k, k - 1] -= k3 * w3
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


def quasi_newton_solve(guess, target_h, kind, cfg=None, *, k0):
    """Solve for the traveling wave whose grid maximum is target_h.

    guess is a (ThetaProfile, WaveParams) pair on the cfg.nx grid; only
    its sine content is used.  Each iterate is pinned, theta = target_h,
    at its own argmax index, and the Jacobian's pin row at the same index,
    so a converged wave is pinned at its crest: its amplitude, the grid
    max, meets target_h to the fixed tolerance 1e-10.  k0 is the mode
    number of the branch, recorded on the WaveSolution.

    Each pass rebuilds the iterate, the guess first, evaluates its
    equations and then leaves by the first of five exits that applies:
    "non-finite" once the residual overflows; converged, returning the
    WaveSolution, once the grid residual and the pin both meet the
    tolerance; "unresolved" once every square equation meets the
    tolerance but the residual's unsolved Nyquist coefficient does not,
    which no Newton step can mend, as |c_{nx/2}| <= max|r| bounds the
    grid residual from below; "max-iters" after cfg.max_iters Newton
    steps; and "stalled" once none of the last 3 grid residuals is below
    half the best one before them, the guess's own left out.  Otherwise it
    takes a Newton step: the exact Jacobian at the iterate, solved by
    dense LU.

    Raises ValueError, before the first pass, for a target_h that is not
    a nonnegative finite real (a bool or str is none, an int beyond the
    float range is infinite), a k0 that is not an integer >= 1, or a guess
    on another grid than cfg.nx; ConvergenceError with the exit's reason;
    SingularSystemError on a negligible pivot.
    """
    if cfg is None:
        cfg = SolveConfig()
    _finite_real("target_h", target_h, "nonnegative")
    k0 = _integer("k0", k0, 1)
    p0, params0 = guess
    nx = cfg.nx
    if p0.nx != nx:
        raise ValueError(f"the guess is on an nx = {p0.nx} grid, but cfg.nx is {nx}")
    x = np.concatenate(
        [spectral.sine_coeffs(p0), [params0.beta, params0.alpha]]
    )
    tol = _TOL_RESIDUAL
    history = []
    for iterations in range(cfg.max_iters + 1):
        p, params = _rebuild(x, nx)
        amp_index = int(np.argmax(p.values))
        eqs, grid_norm, nyquist, lin = _square_equations(p, params, target_h, kind, amp_index)
        history.append(grid_norm)
        if eqs is None:
            reason = "non-finite"
            break
        if grid_norm <= tol and abs(eqs[-1]) <= tol:
            return WaveSolution(
                theta=p,
                alpha=params.alpha,
                beta=params.beta,
                length=params.length,
                amplitude=float(p.values[amp_index]),
                residual_norm=grid_norm,
                k0=k0,
                kind=kind,
                iterations=iterations,
            )
        if nyquist > tol and np.max(np.abs(eqs)) <= tol:
            reason = "unresolved"
            break
        if iterations == cfg.max_iters:
            reason = "max-iters"
            break
        if len(history) > _STALL_WINDOW + 1 and min(history[-_STALL_WINDOW:]) > (
            _STALL_FACTOR * min(history[1:-_STALL_WINDOW])
        ):
            reason = "stalled"
            break
        x = x + _lu_solve(_newton_jacobian(p, params, lin, amp_index), -eqs)
    raise ConvergenceError(
        f"no convergence ({reason}) after {iterations} iterations: "
        f"residual floor {min(history[1:] or history):.3e}, target_h {target_h}",
        last_iterate=x,
        residual_history=history,
        reason=reason,
    )


def flat_solution(alpha, nx=256):
    """The flat front of the linear closure as an exactly converged
    WaveSolution (beta = 1, L = 2*pi).

    Raises InvalidGridError for an nx that is not an even integer >= 8,
    and ValueError for an alpha that is not a finite real (a bool or str
    is none, an int beyond the float range is infinite).
    """
    spectral.grid(nx)
    p = spectral.ThetaProfile.from_values(np.zeros(nx))
    return WaveSolution(
        theta=p,
        alpha=_finite_real("alpha", alpha),
        beta=1.0,
        length=2.0 * np.pi,
        amplitude=0.0,
        residual_norm=0.0,
        k0=1,
        kind=ModelKind.LINEAR,
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


def _predict(waves, h_next):
    """The guess for target h_next: the Lagrange polynomial in h through
    the packed unknowns [b_k, beta, alpha] of waves, (h, x) pairs at
    distinct h, evaluated at h_next.  The weights take the unequal h
    spacing that step halvings leave; one wave is its own guess."""
    guess = np.zeros_like(waves[0][1])
    for h_j, x_j in waves:
        weight = 1.0
        for h_m, _ in waves:
            if h_m != h_j:
                weight *= (h_next - h_m) / (h_j - h_m)
        guess += weight * x_j
    return guess


def continue_branch(k0, kind, h_step, h_max, cfg=None):
    """March the branch of mode k0 in the wave amplitude h = max(theta).

    Starts from the asymptotic guess at eps = h_step, so h_step must lie
    in (0, 0.3], the guess's range; then increments the amplitude target
    by the current step, predicting each new iterate by Lagrange
    extrapolation in h through the last four converged waves (_predict),
    or all of them while fewer exist.  A failed solve halves the step (at
    most 4 halvings over the whole run, one per logged failure) and is
    logged in BranchRecord.failures.  A target within the fixed tolerance
    1e-10 of one that already failed as "unresolved" is not solved again,
    since a converged retry reaches the same solution of the square system
    and so the same verdict: the attempt is logged as "unresolved" with
    the earlier attempt's residual floor and halves the step all the same.
    Stops on near-self-intersection of the first wave, of a predicted
    curve or of a converged one (the latter is kept as the wave's curve
    property), on crossing the well-posedness threshold alpha = -3
    (nonlinear closure), on step exhaustion, or once target_h would exceed
    h_max.

    Raises ValueError for an h_step that is not a positive finite real
    (a bool or str is none, an int beyond the float range is infinite) or
    exceeds 0.3, an h_max that is not a finite real or is below h_step,
    and a k0 that is not an integer >= 1 or not resolved on the cfg.nx
    grid; BranchStartError when the first solve fails, its message ending
    in the cause's.
    """
    if cfg is None:
        cfg = SolveConfig()
    if _finite_real("h_step", h_step, "positive") > _EPS_MAX:
        raise ValueError(f"h_step must be in (0, {_EPS_MAX}], got {h_step!r}")
    if _finite_real("h_max", h_max) < h_step:
        raise ValueError(f"h_max {h_max!r} is below the first target {h_step!r}")

    guess = asymptotic_guess(k0, h_step, kind, nx=cfg.nx)
    try:
        sol = quasi_newton_solve(guess, h_step, kind, cfg, k0=k0)
    except (ConvergenceError, SingularSystemError, DegenerateFrontError) as exc:
        raise BranchStartError(
            f"first solve at target_h {h_step} failed for k0={k0}, {kind.value}: {exc}"
        ) from exc

    solutions = [sol]
    failures = []
    step = float(h_step)
    termination = "self-intersection" if geometry.is_near_self_intersecting(sol.curve) else None
    waves = deque([(float(h_step), _pack(sol))], maxlen=_PREDICTOR_WAVES)
    while termination is None:
        h_next = waves[-1][0] + step
        if h_next > h_max * (1.0 + 1e-12):
            termination = "max-amplitude-reached"
            break
        x_guess = _predict(waves, h_next)
        failure = None
        try:
            p_guess, params_guess = _rebuild(x_guess, cfg.nx)
            if geometry.is_near_self_intersecting(geometry.reconstruct_curve(p_guess)):
                termination = "self-intersection"
                break
            # an unresolved target stays unresolved: any converged retry
            # reaches the same solution of the square system
            failure = next(
                (
                    f._replace(target_h=h_next)
                    for f in failures
                    if f.reason == "unresolved"
                    and abs(f.target_h - h_next) <= _TOL_RESIDUAL
                ),
                None,
            )
            if failure is None:
                sol_new = quasi_newton_solve(
                    (p_guess, params_guess), h_next, kind, cfg, k0=k0
                )
        except (ConvergenceError, SingularSystemError, DegenerateFrontError) as exc:
            failure = _failed_solve(h_next, exc)
        if failure is not None:
            failures.append(failure)
            if len(failures) > _MAX_STEP_HALVINGS:
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
        waves.append((h_next, _pack(sol_new)))

    return BranchRecord(kind, int(k0), tuple(solutions), termination, tuple(failures))
