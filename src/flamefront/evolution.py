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
and theta_sss, which give the blow-up check and the next step.  As FFTs
they are an rfft and an irfft of the antiderivative for (1), an rfft for
(2) and one batched irfft of c times 1, (i n) and (i n)^3 for (3): four
FFT calls per step of a general state, on every grid.

The stiff part of U_sigma/s_sigma cancels against the implicit term in
closed form, so the explicit half spectrum is
(a*n^2*c + rfft((V - V(0))*theta_s))/s_sigma with a = (alpha-1)/s_sigma,
plus the stiff term at Nyquist, where U_sigma has no content.
imex_step, evolve and stability_probe all run the same loop, which
builds an EvolutionState only for an observer and for the state it
returns; theta_rhs uses the same maps and the same explicit half.

A state odd to rounding steps in odd coordinates.  The reflection
sigma -> -sigma, theta -> -theta(-sigma) is a symmetry of the system, so
an odd state stays odd, and the general step would spend half of each map
on modes that stay zero.  Every solved wave, the flat front and every
probe's start is odd, but grid values of an odd front are odd only to
rounding (ThetaProfile.from_values gives real parts of rounding size),
so the test is not exact: a state is odd to rounding when its largest
real part, its cosine content, is at most _ODD_ULPS ulps of its
max|theta| (_odd_to_rounding).  The odd coordinates drop the real parts.
They are Im c_n, n = 1..nx/2-1 (-b_n/2 for the sine coefficients b_n);
theta lives on the half grid j = 0..nx/2, where theta_s, theta_sss and
the flux are even and V odd.  On small grids a numpy FFT call costs
several times its arithmetic, so each odd map is one dense matrix about
a quarter the size of a general one, tabulated from the general FFT
expressions (_odd_maps), up to the one crossover (_ODD_MAX_NX, with its
timings): at nx 64 and 256 such a step makes no FFT call.  The data
choose the coordinates at the start of a run (_step_maps), except that a
run whose history is on the general maps stays on them: chained imex_step
calls whose cosine content decays below the bound step as one evolve run
does.  Odd history handed a front that is not odd (dataclasses.replace)
is dropped, and the front starts afresh with one Euler step, as after a
change of dt.  States are expanded to the full half spectrum, real parts
exactly 0, and to the full grid, theta_{nx-j} = -theta_j exactly, only
for an observer, for the state returned and for theta_rhs.  A stability
probe starts from the wave's sine content (_probe_start) and refuses a
wave that is not odd to rounding, whose dropped cosine content would
make it probe another front.

On small grids numpy's per-call cost also sets the cost of the step's
own arithmetic, so the step is written as a few contractions.  The two
coefficients a = (alpha-1)/s_sigma^2 and q = 4/s_sigma^4 form one pair
(a, q), contracted with (theta_s, theta_sss) for the flux and with a
gains table for the explicit gain on c.  The SBDF2 history lives in one
(4, nx/2+1) complex stack ((4, nx/2-1) real in odd coordinates) with
rows (c, c_prev, N, N_prev), N the explicit part, so the Euler and the
SBDF2 numerator are the same contraction w @ stack with w = (1, 0, dt,
0) or (4, -1, 4 dt, -2 dt), times the reciprocal of 1 + dt*q*n^4 or
3 + 2 dt*q*n^4; the Euler step's zero weights meet zeroed rows.  The
row order and the product with the reciprocal are fixed by their
rounding, which the near-neutral probe
(test_near_neutral_probe_of_linear_wave) resolves: against the 5-FFT
stepper's slope, this order moves it by 1.1e-7 relative, the order
(c, N, c_prev, N_prev) by 5.0e-7 and np.divide by 2.2e-6, beyond the
test's 1e-6.  Each step fills a fresh stack, so the arrays a state
holds are never written again and an observed step copies nothing but
the odd coordinates' expansion.
"""

from __future__ import annotations

import functools
from array import array
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

# A sum of squares of grid values at most this bounds max|theta| by
# _THETA_BLOWUP/2 (_check_blowup)
_BLOWUP_SUM_SQUARES = (_THETA_BLOWUP / 2.0) ** 2

# Rows of a history stack (c, c_prev, N, N_prev) that start the next one
_SHIFT = np.array([0, 0, 2, 2])

# The probe fits log d(t) over this many decades of growth.
_GROWTH_WINDOW_DECADES = 2.0

# Growth slower than exp(1e-3 t) is indistinguishable from neutral over
# the default probe horizon.
_NO_GROWTH_NOTE = "no instability observed at threshold 1e-3"


class _StepCache(NamedTuple):
    """What the step that made a state leaves for the next one.

    The previous half spectrum and explicit part, in the coordinates of
    maps, length and L_t are the history an SBDF2 step needs;
    dt is recorded so a changed step size falls back to the self-starting
    Euler step, and maps, the coordinates the arrays are in: a run whose
    history is on the general maps stays on them, and odd history handed
    a front that is not odd is dropped.  Nothing of the state
    itself is kept: a state whose theta is replaced (dataclasses.replace)
    keeps this history, and the next step takes its explicit part from the
    new theta.  theta_hat and nonstiff_hat are rows 1 and 3 of the history
    stack of the step that made the state, which no later step writes, so
    they are kept without a copy.
    """

    theta_hat: np.ndarray
    nonstiff_hat: np.ndarray
    length: float
    length_rate: float
    dt: float
    maps: _Maps | _OddMaps


@dataclass(frozen=True, eq=False)
class EvolutionState:
    """Tangent angle, front length, and clock time of an evolving front."""

    theta: spectral.ThetaProfile
    length: float
    time: float = 0.0
    prev: _StepCache | None = field(default=None, repr=False, compare=False)

    @classmethod
    def from_theta(cls, p):
        return cls(theta=p, length=length_from_theta(p))


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
        steps = self.t_max / self.dt
        if not np.isfinite(steps):
            raise ValueError(f"t_max {self.t_max!r} over dt {self.dt!r} is too many steps to count")
        if round(steps) < 1:
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
class _Maps:
    """The three linear maps of one step on one grid, in general coordinates.

    The coordinates are the rfft half spectrum c, n = 0..nx/2, that
    ThetaProfile.coeffs holds.
    (1) to_velocity: g = -flux/s_sigma on the grid to -(V - V(0))/s_sigma
        on the grid and the mean of g, which gives L_t;
    (2) to_spectrum: grid values to their rfft half spectrum;
    (3) to_rows: a half spectrum c to theta, theta_s and theta_sss.

    Each map is an FFT expression that acts along the last axis, with
    read-only multipliers, one value per mode.  rows holds 1, (i n),
    (i n)^3, so one irfft of rows * c gives theta, theta_s and theta_sss;
    the two derivative rows are zeroed at Nyquist.  inv_in holds 1/(i n)
    with modes 0 and nx/2 zeroed.  gains (2, nx/2+1) row 0 is n^2, zeroed
    at Nyquist because it only feeds u_sigma, the derivative of a u that
    has no Nyquist content; row 1 is n^4 at Nyquist and zero elsewhere.  So
    (a, q) @ gains is the explicit gain a*n^2 below Nyquist and q*n^4 at
    it, with no rounding: one of the two products is always zero.  rows
    and n4 (n^4) come from the (i n)^k table behind spectral.deriv.
    """

    rows: np.ndarray
    inv_in: np.ndarray
    gains: np.ndarray
    n4: np.ndarray

    def to_velocity(self, g):
        neg_flux_hat = np.fft.rfft(g, norm="forward")
        # V_sigma = flux + L_t/(2*pi) has zero mean, so V is periodic; the
        # constant L_t/(2*pi) only touches mode 0, which inv_in drops
        neg_v = np.fft.irfft(neg_flux_hat * self.inv_in, n=g.shape[-1], norm="forward")
        return neg_v - neg_v[..., :1], neg_flux_hat[..., 0].real

    def to_spectrum(self, values):
        return np.fft.rfft(values, norm="forward")

    def to_rows(self, c):
        return np.fft.irfft(self.rows * c[..., None, :], n=2 * (c.shape[-1] - 1), norm="forward")

    def coordinates(self, coeffs):
        """A half spectrum as the vector these maps step: the coefficients
        themselves."""
        return coeffs

    def profile(self, c, values):
        """The ThetaProfile of c and its grid values, wrapped as they are."""
        return spectral.ThetaProfile(values.size, values, c)


@functools.cache
def _maps(nx):
    powers = spectral._powers(nx)
    rows = powers[[0, 1, 3]]
    n = np.arange(nx // 2 + 1)
    inv_in = np.zeros(n.size, dtype=complex)
    inv_in[1:-1] = 1.0 / (1j * n[1:-1])
    n4 = powers[4].real.copy()
    gains = np.zeros((2, n.size))
    gains[0, :-1] = n[:-1].astype(float) ** 2
    gains[1, -1] = n4[-1]
    for table in (rows, inv_in, gains, n4):
        table.setflags(write=False)
    return _Maps(rows, inv_in, gains, n4)


@dataclass(frozen=True, eq=False)
class _OddMaps:
    """The three maps of _Maps restricted to odd states, as dense matrices.

    c holds Im c_n, n = 1..nx/2-1, and grid values live on the half grid
    j = 0..nx/2.  Each map is one read-only real matrix applied with one
    np.dot, which gives the bits of @ at 0.1-0.3 us less per call:
    velocity is (nx/2+2, nx/2+1), spectrum (nx/2-1, nx/2+1), rows
    (3*(nx/2+1), nx/2-1).  gains and n4 are those of _Maps, restricted to
    these modes.  fold and sign expand half-grid values to the full grid,
    values.take(fold) * sign: fold holds j = 0..nx/2, then nx/2-1..1, and
    sign +1 for the first nx/2+1 entries and -1 for the rest.
    """

    velocity: np.ndarray
    spectrum: np.ndarray
    rows: np.ndarray
    gains: np.ndarray
    n4: np.ndarray
    fold: np.ndarray
    sign: np.ndarray

    def to_velocity(self, g):
        w = np.dot(self.velocity, g)
        return w[:-1], w[-1]

    def to_spectrum(self, values):
        return np.dot(self.spectrum, values)

    def to_rows(self, c):
        return np.dot(self.rows, c).reshape(3, -1)

    def coordinates(self, coeffs):
        """A half spectrum as the vector these maps step: a copy of Im c_n,
        n = 1..nx/2-1.  The real parts, of rounding size for a state odd to
        rounding, and the imaginary parts of modes 0 and nx/2, invisible on
        the grid, are dropped."""
        return np.array(coeffs.imag[1:-1])

    def profile(self, c, values):
        """The ThetaProfile of c and its half-grid values: real parts exactly
        0, and values extended by theta_{nx-j} = -theta_j, exactly."""
        coeffs = np.zeros(c.size + 2, dtype=complex)
        coeffs.imag[1:-1] = c
        # the product with -1.0 is exact, signed zeros included
        values = values.take(self.fold) * self.sign
        return spectral.ThetaProfile(values.size, values, coeffs)


# Largest grid on which a state odd to rounding steps in odd coordinates;
# above it, it takes the general path.  This is the step's only crossover:
# the odd maps are dense, so their arithmetic grows like nx^2 against the
# general path's FFTs.  One step of an exactly odd state at alpha 17,
# dt 1e-5, in us: the fastest of 21 runs of 1000 steps, one BLAS thread,
# 2-core Xeon VM, median of three such measurements, general path (FFTs
# on the complex half spectrum) / odd path:
#
#     nx     step
#     64     43.7 / 14.3
#     128    44.5 / 19.1
#     256    47.1 / 26.3
#     320    52.1 / 35.4
#     384    76.8 / 54.8
#     416    79.3 / 74.1
#     512    56.5 / 123.4
#
# Single measurements move by up to 2x on this VM.  The odd path won at
# 320 in all three measurements and in a second table of three (60.2 /
# 39.4); at 384 it won two of three, and the second table read 52.6 /
# 50.8, close to even, so the crossover stays at 320.
_ODD_MAX_NX = 320


@functools.cache
def _odd_maps(nx):
    """The step's three maps on an nx grid in odd coordinates, all dense.

    Tabulated from the FFT expressions of the general maps, applied to the
    odd unit vectors expanded to the full grid or spectrum, with the image
    restricted to the half grid or to Im c_n, n = 1..nx/2-1.  Expanded to
    the full grid, a half-grid unit vector e_j is 1 at j and nx - j for an
    even input (g, whose columns j and nx - j are thereby summed) and 1 at
    j, -1 at nx - j for an odd one (V theta_s, differenced; columns 0 and
    nx/2 vanish).  theta is odd, so its rows at j = 0 and nx/2 are set to
    the exact 0.  Each image is built and reduced before the next one, so
    at nx 256 the build's temporaries peak at 2.0 MiB (tracemalloc).  The
    fold and sign tables of the grid expansion come with them.
    """
    half = nx // 2
    fft = _maps(nx)
    j = np.arange(1, half)

    def on_full_grid(sign):
        units = np.eye(half + 1, nx)
        units[j, nx - j] = sign
        return units

    def velocity():
        neg_v, mean = fft.to_velocity(on_full_grid(1.0))
        return np.column_stack((neg_v[:, : half + 1], mean))

    def spectrum():
        units = on_full_grid(-1.0)
        units[[0, half], [0, half]] = 0.0
        return fft.to_spectrum(units).imag[:, 1:half]

    def rows():
        units = np.zeros((half - 1, half + 1), dtype=complex)
        units[j - 1, j] = 1j
        image = fft.to_rows(units)[..., : half + 1]
        image[:, 0, [0, half]] = 0.0
        return image.reshape(half - 1, 3 * (half + 1))

    images = {"velocity": velocity, "spectrum": spectrum, "rows": rows}
    tables = {name: np.ascontiguousarray(image().T) for name, image in images.items()}
    gains, n4 = (np.ascontiguousarray(table[..., 1:half]) for table in (fft.gains, fft.n4))
    fold = np.concatenate((np.arange(half + 1), j[::-1]))
    sign = np.repeat((1.0, -1.0), (half + 1, half - 1))
    for table in (gains, n4, fold, sign, *tables.values()):
        table.setflags(write=False)
    return _OddMaps(**tables, gains=gains, n4=n4, fold=fold, sign=sign)


# Largest cosine content, in ulps of max|theta|, of a state odd to
# rounding.  Grid values of an odd front carry less than one: at most 0.84
# on from_values(1e-6 sin k sigma), k = 1..3, at nx 64; 0.25 on the 65
# waves of both k0 = 1 branches read back from their files; about 0.2 on
# 200 random odd spectra per nx from 8 to 1024.  Non-odd test states carry
# about 1e-3 of theta's scale.
_ODD_ULPS = 4.0


def _odd_to_rounding(theta):
    """Whether a ThetaProfile's largest real part, its cosine content, is at
    most _ODD_ULPS ulps of its max|theta|."""
    scale = np.finfo(float).eps * np.abs(theta.values).max()
    return np.abs(theta.coeffs.real).max() <= _ODD_ULPS * scale


def _step_maps(theta):
    """The maps a ThetaProfile steps with: the odd ones, up to _ODD_MAX_NX,
    for one odd to rounding, else the general ones."""
    if theta.nx <= _ODD_MAX_NX and _odd_to_rounding(theta):
        return _odd_maps(theta.nx)
    return _maps(theta.nx)


def _stiffness(length):
    """q = 4/s_sigma^4 = 4*(2*pi/L)^4 of a front of length L, as a Python
    float, or None when L is not positive and finite or q is not finite and
    nonzero: above L of about 7.3e77 s_sigma^4 overflows, and below about
    7.7e-77 q does.  A finite s_sigma^4 makes q at least 2.2e-308, so q is
    never 0."""
    if not 0.0 < length < np.inf:
        return None
    try:
        q = 4.0 / (length / (2.0 * np.pi)) ** 4
    except (OverflowError, ZeroDivisionError):
        return None
    return q if q < np.inf else None


def _checked_length(state):
    """A state's L as a Python float and its q (_stiffness), or ValueError
    naming an L that has no q."""
    length = float(state.length)
    q = _stiffness(length)
    if q is None:
        raise ValueError(f"L must be positive and finite with 4*(2*pi/L)^4 finite and nonzero, got {state.length!r}")
    return length, q


def _explicit(c, rows, length, q, alpha, maps, out=None):
    """Explicit half spectrum of theta_t and L_t, for q = 4*(2*pi/L)^4.

    theta_t = (u_sigma + (V - V(0))*theta_s)/s_sigma with
    u/s_sigma = -(1/s_sigma + a*theta_s + q*theta_sss), so u_sigma/s_sigma
    carries -q*n^4*c, the term the step treats implicitly.  It is left out
    here rather than added and subtracted, except at Nyquist, where
    u_sigma has no content and the implicit term is balanced explicitly.
    c and the explicit part are in the coordinates of maps; rows holds
    theta, theta_s and theta_sss on the grid.  The step's two
    coefficients enter as one pair (a, q): a*theta_s + q*theta_sss is
    (a, q) @ rows[1:] and the gain on c is (a, q) @ gains.  The explicit
    part is written into out when it is given: _march passes the row of
    its history stack.
    """
    s_sigma = length / (2.0 * np.pi)
    aq = np.array(((alpha - 1.0) / s_sigma**2, q))
    theta_s = rows[1]
    # the maps carry -flux/s_sigma and -V/s_sigma: dividing u by s_sigma
    # up front divides theta_t, and negating it is free
    neg_v, neg_flux_mean = maps.to_velocity(theta_s * (1.0 / s_sigma + np.dot(aq, rows[1:])))
    length_rate = length * float(neg_flux_mean)
    gain = np.dot(aq, maps.gains)
    nonstiff = np.subtract(gain * c, maps.to_spectrum(neg_v * theta_s), out=out)
    return nonstiff, length_rate


def theta_rhs(state, alpha):
    """Right-hand sides (theta_t values, L_t) of the evolution system.

    Raises ValueError for an L that is not positive and finite or whose
    4*(2*pi/L)^4 is not finite and nonzero (_stiffness).
    """
    length, q = _checked_length(state)
    maps = _step_maps(state.theta)
    c = maps.coordinates(state.theta.coeffs)
    nonstiff, length_rate = _explicit(c, maps.to_rows(c), length, q, alpha, maps)
    rhs = nonstiff - q * maps.n4 * c
    return maps.profile(rhs, maps.to_rows(rhs)[0]).values, length_rate


def _state(maps, stack, values, length, time, *cache):
    # positional arguments: an observed step builds three of these objects;
    # in general coordinates they hold rows of a stack that no later step
    # writes, so nothing is copied
    theta = maps.profile(stack[0], values)
    return EvolutionState(theta, length, time, _StepCache(stack[1], stack[3], *cache, maps))


def _check_blowup(values, time):
    """BlowUpError when max|theta| of the grid values exceeds _THETA_BLOWUP
    or is not finite.

    Runs on every step, so it first tests a sufficient condition in one
    numpy call: a sum of squares at most (_THETA_BLOWUP/2)^2 bounds
    max|theta| by _THETA_BLOWUP/2.  The sum of at most a few hundred
    squares rounds by about 1e-13 relative, far inside that factor-4
    margin, so the test never passes values the exact max would refuse.
    A sum that overflows or is NaN fails it, as does any sum above the
    bound, and the exact max|theta| decides.  np.vdot, not np.dot: it sets
    no numpy warning on overflow.
    """
    if np.vdot(values, values) <= _BLOWUP_SUM_SQUARES:
        return
    peak = float(np.abs(values).max(initial=0.0))
    if not peak <= _THETA_BLOWUP:
        if np.isfinite(peak):
            what = f"max|theta| = {peak:.3e} exceeded {_THETA_BLOWUP:g}"
        else:
            what = "theta is not finite"
        raise BlowUpError(f"{what} at t = {time:.6g}", time=time)


def _march(state, alpha, dt, n_steps, observer=None, until=None):
    """The stepping loop behind imex_step, evolve and stability_probe.

    Takes n_steps steps, or fewer if until(values, time) returns True
    after one, calls observer(state) after each, and returns the state
    after the last step taken.  The state's data pick the maps, odd or
    general, once (_step_maps), unless its history is on the general maps,
    which then carry the run; until sees grid values in their
    coordinates, on the half grid for the odd maps.  The half spectrum, L,
    t and the SBDF2 history live in locals; states are built only for the
    observer and for the return value.  A starting state already past the blow-up
    threshold is refused at its own time, before any step, and one whose L
    has no finite nonzero q = 4*(2*pi/L)^4 (_stiffness) with ValueError;
    an L that leaves that range during the run is a BlowUpError.

    The half spectra live in the history stack of the module docstring.
    Each step writes N into its row 2, then takes a fresh stack holding
    the shifted history and writes the new c into it.  The loop, observer
    included, runs with numpy's overflow and invalid-value warnings off: a
    step that overflows leaves a theta that is not finite, which the
    blow-up check refuses.
    """
    if not (np.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if not np.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha!r}")
    length, q = _checked_length(state)
    _check_blowup(state.theta.values, state.time)
    maps = _step_maps(state.theta)
    prev = state.prev
    if prev is not None and prev.maps is not maps:
        if prev.maps is _maps(state.theta.nx):
            # a run on the general maps stays on them, even once its
            # cosine content decays below the bound
            maps = prev.maps
        else:
            # odd history handed a front that is not odd: start afresh
            prev = None
    n4 = maps.n4
    # Python floats throughout: no numpy scalar arithmetic in the loop
    alpha = float(alpha)
    time = state.time
    c = maps.coordinates(state.theta.coeffs)
    stack = np.zeros((4, c.size), dtype=c.dtype)
    stack[0] = c
    rows = maps.to_rows(c)
    # SBDF2 needs the previous step at the same dt; otherwise IMEX Euler
    prev_length = prev_rate = None
    if prev is not None and prev.dt == dt:
        stack[1], stack[3] = prev.theta_hat, prev.nonstiff_hat
        prev_length, prev_rate = prev.length, prev.length_rate
    # numerator weights on the stack, then d0 and d1 of the denominator
    # d0 + d1*q*n^4
    euler = (np.array((1.0, 0.0, dt, 0.0)), 1.0, dt)
    sbdf2 = (np.array((4.0, -1.0, 4.0 * dt, -2.0 * dt)), 3.0, 2.0 * dt)
    out = state
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_steps):
            _, length_rate = _explicit(c, rows, length, q, alpha, maps, out=stack[2])
            if prev_length is None:
                w, d0, d1 = euler
                new_length = length + dt * length_rate
            else:
                w, d0, d1 = sbdf2
                new_length = (4.0 * length - prev_length + 2.0 * dt * (2.0 * length_rate - prev_rate)) / 3.0
            # (c, c, N, N): rows 1 and 3 are the next step's history; the
            # new c overwrites row 0 below and the next N row 2
            new = stack.take(_SHIFT, axis=0)
            # a product with the reciprocal, not a division (module docstring)
            c = np.multiply(np.dot(w, stack), 1.0 / (d0 + d1 * q * n4), out=new[0])
            time += dt
            rows = maps.to_rows(c)
            values = rows[0]
            _check_blowup(values, time)
            q = _stiffness(new_length)
            if q is None:
                raise BlowUpError(
                    f"L = {new_length:.3e} left the range of a finite nonzero 4*(2*pi/L)^4 at t = {time:.6g}",
                    time=time,
                )
            stack, length, prev_length, prev_rate = new, new_length, length, length_rate
            out = None
            if observer is not None:
                out = _state(maps, stack, values, length, time, prev_length, prev_rate, dt)
                observer(out)
            if until is not None and until(values, time):
                break
    if out is None:
        out = _state(maps, stack, rows[0], length, time, prev_length, prev_rate, dt)
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


def _probe_start(wave, delta):
    """The probe's start, the wave's odd part plus delta*(sin sigma + sin 2*sigma).

    The solver's waves are odd, so the probe studies the wave's odd part:
    the imaginary parts of its half spectrum, modes 1..nx/2-1, less
    i*delta/2 at n = 1 and 2.  Only a cosine content of rounding size is
    dropped: a wave that is not odd to rounding (_odd_to_rounding) is
    refused with ValueError.  The start steps in the wave's coordinates,
    odd up to _ODD_MAX_NX.  Returns the state and its grid values in those
    coordinates, taken from the step's own rows map: on the half grid for
    the odd maps.
    """
    theta = wave.theta
    if not _odd_to_rounding(theta):
        even, scale = (float(np.abs(x).max()) for x in (theta.coeffs.real, theta.values))
        raise ValueError(
            f"the probe takes odd waves only: the wave's cosine content max|Re c_n| = {even:.3e} "
            f"exceeds {_ODD_ULPS:g} ulps of max|theta| = {scale:.3e}"
        )
    maps = _step_maps(theta)
    coeffs = np.zeros_like(theta.coeffs)
    coeffs.imag[1:-1] = theta.coeffs.imag[1:-1]
    coeffs.imag[1:3] -= 0.5 * delta
    c = maps.coordinates(coeffs)
    values = maps.to_rows(c)[0]
    # refused before its length, which a blown-up theta may not have
    _check_blowup(values, 0.0)
    return EvolutionState.from_theta(maps.profile(c, values)), values


def stability_probe(wave, cfg=None):
    """Estimate the leading growth rate around a traveling wave.

    Perturbs the wave's odd part by delta*(sin sigma + sin 2*sigma)
    (_probe_start; the solver's waves are odd, and a wave that is not odd
    to rounding raises ValueError), evolves with the linear
    closure at the wave's alpha, and records d(t) = max|theta(t) - theta(0)|
    in the step's coordinates, on the half grid for the odd maps, which
    has the same max.  The rate is the least-squares slope
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
    state, reference = _probe_start(wave, cfg.delta)

    factor = 10.0**_GROWTH_WINDOW_DECADES
    n_steps = int(round(cfg.t_max / cfg.dt))
    # one float64 per step taken: the window usually completes long before
    # n_steps, which may be far too many to hold
    times = array("d")
    norms = array("d")
    start = None
    end = None

    def record(values, time):
        nonlocal start, end
        norm = float(np.maximum.reduce(np.abs(values - reference)))
        times.append(time)
        norms.append(norm)
        if start is None:
            if norm >= 10.0 * cfg.delta:
                start = len(norms) - 1
        elif norm >= factor * norms[start]:
            end = len(norms) - 1
            return True
        return False

    _march(state, wave.alpha, cfg.dt, n_steps, until=record)
    times = np.array(times)
    norms = np.array(norms)

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
