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
(2) and one batched irfft of c times 1, (i n) and (i n)^3 for (3).  On
small grids a numpy FFT call costs several times its arithmetic, so per
call overhead, not flops, sets the step's cost: up to a crossover
(_DENSE_MAX_NX = 128, with the reason for it) all three maps are dense
real matrices, tabulated once per nx from their FFT expressions and each
applied with one np.dot, so a step makes no FFT call at nx 64 and four
at nx 256.

The step's own arithmetic runs on the float view of the half spectrum,
real and imaginary parts interleaved, with the n^2 and n^4 multipliers
repeated per pair: no product promotes a real array to complex and no
complex number is divided by a real one.  The values equal those of the
complex arithmetic, which numpy carries out as the same real products.

The stiff part of U_sigma/s_sigma cancels against the implicit term in
closed form, so the explicit half spectrum is
(a*n^2*c + rfft((V - V(0))*theta_s))/s_sigma with a = (alpha-1)/s_sigma,
plus the stiff term at Nyquist, where U_sigma has no content.
imex_step, evolve and stability_probe all run the same loop, which
builds an EvolutionState only for an observer and for the state it
returns; theta_rhs uses the same maps and the same explicit half.

An exactly odd state, one whose half spectrum has every real part 0.0,
steps in odd coordinates.  Every solved wave, the flat front and every
from_sine_coeffs profile is exactly odd, and the reflection
sigma -> -sigma, theta -> -theta(-sigma) is a symmetry of the system, so
an odd state stays odd and the general step spends half of each map on
modes that stay zero.  The odd coordinates are Im c_n, n = 1..nx/2-1
(-b_n/2 for the sine coefficients b_n); theta lives on the half grid
j = 0..nx/2, where theta_s, theta_sss and the flux are even and V odd.
Each map is then one dense matrix about a quarter the size of the
general one, tabulated from the same FFT expressions (_odd_maps), up to
a measured crossover (_ODD_MAX_NX, with its timings): at nx 256 a step
makes no FFT call and costs about 0.6x the general one.  The data choose
the coordinates once per run (_step_maps), and a step's history is
never reused in the other coordinates.  States are expanded to the full
half spectrum, real parts exactly 0, and to the full grid,
theta_{nx-j} = -theta_j exactly, only for an observer, for the state
returned and for theta_rhs.  Every other state takes the general path
bit for bit; a profile made from grid values (ThetaProfile.from_values)
has real parts of rounding size, not 0.0.  A stability probe starts from
the wave's sine content (_probe_start), so every probe, of a wave read
from a file's grid values too, steps in odd coordinates up to
_ODD_MAX_NX, and the general step serves the other states that imex_step,
evolve and theta_rhs are given.

On small grids numpy's per-call cost also sets the cost of the step's
own arithmetic, so the step is written as a few contractions.  The two
coefficients a = (alpha-1)/s_sigma^2 and q = 4/s_sigma^4 form one pair
(a, q), contracted with (theta_s, theta_sss) for the flux and with a
gains table for the explicit gain on c.  The SBDF2 history lives in one
(4, nx+2) stack ((4, nx/2-1) in odd coordinates) with rows (c, c_prev, N, N_prev), N the explicit part,
so the Euler and the SBDF2 numerator are the same contraction w @ stack
with w = (1, 0, dt, 0) or (4, -1, 4 dt, -2 dt), times the reciprocal of
1 + dt*q*n^4 or 3 + 2 dt*q*n^4; the Euler step's zero weights meet
zeroed rows.  The row order and the product with the reciprocal are
fixed by their rounding, which the near-neutral probe
(test_near_neutral_probe_of_linear_wave) resolves: against the 5-FFT
stepper's slope, this order moves it by 1.1e-7 relative, the order
(c, N, c_prev, N_prev) by 5.0e-7 and np.divide by 2.2e-6, beyond the
test's 1e-6.  Each step fills a fresh stack, so the arrays a state
holds are never written again and an observed step copies nothing but
the odd coordinates' expansion.
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

# Rows of a history stack (c, c_prev, N, N_prev) that start the next one
_SHIFT = np.array([0, 0, 2, 2])

# The probe fits log d(t) over this many decades of growth.
_GROWTH_WINDOW_DECADES = 2.0

# Growth slower than exp(1e-3 t) is indistinguishable from neutral over
# the default probe horizon.
_NO_GROWTH_NOTE = "no instability observed at threshold 1e-3"


class _StepCache(NamedTuple):
    """What the step that made a state leaves for the next one.

    The previous half spectrum and explicit part (float views, as the
    step keeps them), length and L_t are the history an SBDF2 step needs;
    dt is recorded so a changed step size falls back to the self-starting
    Euler step, and maps, the coordinates the arrays are in, so that a
    state in the other coordinates starts afresh.  Nothing of the state
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
    maps: _Maps


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
    inv_in holds 1/(i n) with modes 0 and nx/2 zeroed.  Both act on the
    complex half spectrum.  gains (2, nx+2) and n4 (n^4) act on its float
    view, so each value appears twice, once for the real and once for
    the imaginary part of its mode.  gains row 0 is n^2, zeroed at
    Nyquist because it only feeds u_sigma, the derivative of a u that has
    no Nyquist content; row 1 is n^4 at Nyquist and zero elsewhere.  So
    (a, q) @ gains is the explicit gain a*n^2 below Nyquist and q*n^4 at
    it, with no rounding: one of the two products is always zero.  rows
    and n4 come from the (i n)^k table behind spectral.deriv.  The odd
    maps' multipliers hold gains and n4 of the odd modes only; rows and
    inv_in are None, as no FFT expression runs in odd coordinates.
    """

    rows: np.ndarray | None
    inv_in: np.ndarray | None
    gains: np.ndarray
    n4: np.ndarray


@functools.cache
def _multipliers(nx):
    powers = spectral._powers(nx)
    rows = powers[[0, 1, 3]]
    n = np.arange(nx // 2 + 1)
    inv_in = np.zeros(n.size, dtype=complex)
    inv_in[1:-1] = 1.0 / (1j * n[1:-1])
    n4 = np.repeat(powers[4].real, 2)
    gains = np.zeros((2, n4.size))
    gains[0, :-2] = np.repeat(n[:-1].astype(float) ** 2, 2)
    gains[1, -2:] = n4[-2:]
    for table in (rows, inv_in, gains, n4):
        table.setflags(write=False)
    return _Multipliers(rows, inv_in, gains, n4)


# Largest grid on which the general step's three maps are dense matrices.
# On small grids a numpy FFT call costs several times its arithmetic, so
# one matmul wins until its nx^2 arithmetic overtakes the FFTs.  128 is the
# largest nx at which each of the three dense maps won in every one of five
# runs: per call, FFT expression against dense matrix, velocity 14.3 / 3.6
# us, spectrum 7.2 / 3.4 us and rows 9.1 / 7.1 us (fastest of 21 runs of
# 1000 calls, one BLAS thread, 2-core Xeon VM).  The rows map tied at 144
# and lost from 160 on.
_DENSE_MAX_NX = 128


@dataclass(frozen=True, eq=False)
class _Maps:
    """The three linear maps of one step on one grid, in one set of coordinates.

    (1) to_velocity: g = -flux/s_sigma on the grid to -(V - V(0))/s_sigma
        on the grid and the mean of g, which gives L_t;
    (2) to_spectrum: grid values to the float view of their rfft half
        spectrum;
    (3) to_rows: the float view of a half spectrum c to theta, theta_s and
        theta_sss.

    Each map is defined by its FFT expression below, which acts along the
    last axis.  On grids up to _DENSE_MAX_NX, _maps tabulates all three
    once as read-only real matrices and applies each with one np.dot,
    which gives the bits of @ (checked at nx 64 and 128) at 0.1-0.3 us less
    per call: velocity is (nx+1, nx), spectrum (nx+2, nx), rows
    (3*nx, nx+2).  On larger grids the matrices are None and the FFTs run.

    The odd maps of _odd_maps (odd true) are the same three maps restricted
    to exactly odd states: c holds Im c_n, n = 1..nx/2-1, and grid values
    live on the half grid j = 0..nx/2.  They are always dense: velocity is
    (nx/2+2, nx/2+1), spectrum (nx/2-1, nx/2+1), rows (3*(nx/2+1), nx/2-1),
    and mult holds only gains and n4, restricted to those modes.
    """

    mult: _Multipliers
    velocity: np.ndarray | None = None
    spectrum: np.ndarray | None = None
    rows: np.ndarray | None = None
    odd: bool = False

    def to_velocity(self, g):
        if self.velocity is not None:
            w = np.dot(self.velocity, g)
            return w[:-1], w[-1]
        neg_flux_hat = np.fft.rfft(g, norm="forward")
        # V_sigma = flux + L_t/(2*pi) has zero mean, so V is periodic; the
        # constant L_t/(2*pi) only touches mode 0, which inv_in drops
        neg_v = np.fft.irfft(neg_flux_hat * self.mult.inv_in, n=g.shape[-1], norm="forward")
        return neg_v - neg_v[..., :1], neg_flux_hat[..., 0].real

    def to_spectrum(self, values):
        if self.spectrum is not None:
            return np.dot(self.spectrum, values)
        return np.fft.rfft(values, norm="forward").view(float)

    def to_rows(self, c):
        if self.rows is not None:
            return np.dot(self.rows, c).reshape(3, -1)
        c = c.view(complex)[..., None, :]
        return np.fft.irfft(self.mult.rows * c, n=2 * (c.shape[-1] - 1), norm="forward")

    def coordinates(self, coeffs):
        """A half spectrum as the vector these maps step: a view in general
        coordinates, a copy in odd ones."""
        if self.odd:
            return np.array(coeffs.imag[1:-1])
        return _float_view(coeffs)

    def full_grid(self, values):
        """Grid values in these coordinates on the full grid: odd ones are
        extended by theta_{nx-j} = -theta_j, exactly."""
        if not self.odd:
            return values
        return np.concatenate((values, -values[-2:0:-1]))

    def profile(self, c, values):
        """The ThetaProfile of c and its grid values, both in these coordinates.

        In odd coordinates the half spectrum gets real parts exactly 0;
        otherwise the arrays are wrapped as they are.
        """
        if not self.odd:
            return spectral.ThetaProfile(values.size, values, c.view(complex))
        coeffs = np.zeros(c.size + 2, dtype=complex)
        coeffs.imag[1:-1] = c
        values = self.full_grid(values)
        return spectral.ThetaProfile(values.size, values, coeffs)


@functools.cache
def _maps(nx):
    """The step's three maps on an nx grid: all dense up to _DENSE_MAX_NX.

    A dense map is tabulated by applying its FFT expression to the
    identity in one batched call: row j of the image is the map of the
    j-th unit vector, so the matrix is the image's transpose.
    """
    fft = _Maps(_multipliers(nx))
    if nx > _DENSE_MAX_NX:
        return fft
    images = (
        np.column_stack(fft.to_velocity(np.eye(nx))),
        fft.to_spectrum(np.eye(nx)),
        fft.to_rows(np.eye(nx + 2)).reshape(nx + 2, 3 * nx),
    )
    tables = [np.ascontiguousarray(image.T) for image in images]
    for table in tables:
        table.setflags(write=False)
    return _Maps(fft.mult, *tables)


# Largest grid on which an exactly odd state steps in odd coordinates;
# above it, it takes the general path.  The odd maps are dense, so their
# arithmetic grows like nx^2 against the general path's FFTs.  One step of
# an exactly odd state at alpha 17, dt 1e-5, in us: the fastest of 21 runs
# of 1000 steps, one BLAS thread, 2-core Xeon VM, median of three such
# measurements, general path / odd path:
#
#     nx     step
#     64     21.9 / 16.2
#     128    26.9 / 18.6
#     256    65.6 / 38.5
#     320    70.0 / 52.0
#     384    63.9 / 69.7
#     416    67.5 / 81.0
#     512    69.1 / 121.3
#
# Single measurements move by up to 1.5x on this VM; the odd path won at
# 320 in all of them and lost at 384 in two of three.
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
    at nx 256 the build's temporaries peak at 2.0 MiB (tracemalloc).
    """
    half = nx // 2
    fft = _Maps(_multipliers(nx))
    # the imaginary parts of modes 1..nx/2-1 in the float view
    odd_modes = slice(3, 2 * half, 2)
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
        return fft.to_spectrum(units)[:, odd_modes]

    def rows():
        units = np.zeros((half - 1, nx + 2))
        units[j - 1, 2 * j + 1] = 1.0
        image = fft.to_rows(units)[..., : half + 1]
        image[:, 0, [0, half]] = 0.0
        return image.reshape(half - 1, 3 * (half + 1))

    images = {"velocity": velocity, "spectrum": spectrum, "rows": rows}
    tables = {name: np.ascontiguousarray(image().T) for name, image in images.items()}
    gains, n4 = (np.ascontiguousarray(table[..., odd_modes]) for table in (fft.mult.gains, fft.mult.n4))
    for table in (gains, n4, *tables.values()):
        table.setflags(write=False)
    return _Maps(_Multipliers(None, None, gains, n4), **tables, odd=True)


def _step_maps(coeffs):
    """The maps a half spectrum steps with: odd ones for an exactly odd one.

    A half spectrum is exactly odd when every real part is 0.0; the
    imaginary parts of modes 0 and nx/2 are invisible on the grid and the
    odd coordinates drop them.
    """
    nx = 2 * (coeffs.size - 1)
    if nx <= _ODD_MAX_NX and not coeffs.real.any():
        return _odd_maps(nx)
    return _maps(nx)


def _explicit(c, rows, length, alpha, maps, out=None):
    """Explicit half spectrum of theta_t, L_t, and q = 4*(2*pi/L)^4.

    theta_t = (u_sigma + (V - V(0))*theta_s)/s_sigma with
    u/s_sigma = -(1/s_sigma + a*theta_s + q*theta_sss), so u_sigma/s_sigma
    carries -q*n^4*c, the term the step treats implicitly.  It is left out
    here rather than added and subtracted, except at Nyquist, where
    u_sigma has no content and the implicit term is balanced explicitly.
    c and the explicit part are float views of half spectra, real and
    imaginary parts interleaved, so every product is real by real; rows
    holds theta, theta_s and theta_sss on the grid.  The step's two
    coefficients enter as one pair (a, q): a*theta_s + q*theta_sss is
    (a, q) @ rows[1:] and the gain on c is (a, q) @ gains.  The explicit
    part is written into out when it is given: _march passes the row of
    its history stack.
    """
    s_sigma = length / (2.0 * np.pi)
    q = 4.0 / s_sigma**4
    aq = np.array(((alpha - 1.0) / s_sigma**2, q))
    theta_s = rows[1]
    # the maps carry -flux/s_sigma and -V/s_sigma: dividing u by s_sigma
    # up front divides theta_t, and negating it is free
    neg_v, neg_flux_mean = maps.to_velocity(theta_s * (1.0 / s_sigma + np.dot(aq, rows[1:])))
    length_rate = length * float(neg_flux_mean)
    gain = np.dot(aq, maps.mult.gains)
    nonstiff = np.subtract(gain * c, maps.to_spectrum(neg_v * theta_s), out=out)
    return nonstiff, length_rate, q


def _float_view(coeffs):
    """A half spectrum as float64 pairs (real, imaginary) per mode."""
    return np.ascontiguousarray(coeffs, dtype=complex).view(float)


def theta_rhs(state, alpha):
    """Right-hand sides (theta_t values, L_t) of the evolution system."""
    maps = _step_maps(state.theta.coeffs)
    c = maps.coordinates(state.theta.coeffs)
    nonstiff, length_rate, q = _explicit(c, maps.to_rows(c), state.length, alpha, maps)
    return maps.full_grid(maps.to_rows(nonstiff - q * maps.mult.n4 * c)[0]), length_rate


def _state(maps, stack, values, length, time, *cache):
    # positional arguments: an observed step builds three of these objects;
    # in general coordinates they hold rows of a stack that no later step
    # writes, so nothing is copied
    theta = maps.profile(stack[0], values)
    return EvolutionState(theta, length, time, _StepCache(stack[1], stack[3], *cache, maps))


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
    after the last step taken.  The state's data pick the maps, odd or
    general, once (_step_maps); until sees grid values in their
    coordinates, on the half grid for the odd maps.  The half spectrum, L, t and the SBDF2
    history live in locals; states are built only for the observer and
    for the return value.  A starting state already past the blow-up
    threshold is refused at its own time, before any step.

    The half spectra live in the history stack of the module docstring.
    Each step writes N into its row 2, then takes a fresh stack holding
    the shifted history and writes the new c into it.
    """
    if not (np.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if not np.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha!r}")
    _check_blowup(state.theta.values, state.time)
    maps = _step_maps(state.theta.coeffs)
    n4 = maps.mult.n4
    # Python floats and float views throughout: no numpy scalar arithmetic
    # and no real-to-complex promotion in the loop
    alpha = float(alpha)
    length = float(state.length)
    time = state.time
    prev = state.prev
    if prev is not None and prev.maps is not maps:
        # history in the other coordinates: start afresh
        prev = None
    stack = np.zeros((4, n4.size))
    stack[0] = maps.coordinates(state.theta.coeffs)
    rows = maps.to_rows(stack[0])
    # SBDF2 needs the previous step at the same dt; otherwise IMEX Euler
    prev_length = prev_rate = None
    if prev is not None and prev.dt == dt:
        stack[1], stack[3] = prev.theta_hat, prev.nonstiff_hat
        prev_length, prev_rate = prev.length, prev.length_rate
    # numerator weights on the stack, then d0 and d1 of the denominator
    # d0 + d1*q*n^4
    euler = (np.array((1.0, 0.0, dt, 0.0)), 1.0, dt)
    sbdf2 = (np.array((4.0, -1.0, 4.0 * dt, -2.0 * dt)), 3.0, 2.0 * dt)
    c = stack[0]
    out = state
    for _ in range(n_steps):
        _, length_rate, q = _explicit(c, rows, length, alpha, maps, out=stack[2])
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
    i*delta/2 at n = 1 and 2.  The start is exactly odd, so it steps in
    odd coordinates up to _ODD_MAX_NX, even when the wave was read from a
    file's grid values, whose real parts are of rounding size.  Returns
    the state and its grid values in the step's coordinates (_step_maps),
    taken from the step's own rows map: on the half grid for the odd maps.
    """
    coeffs = np.zeros_like(wave.theta.coeffs)
    coeffs.imag[1:-1] = wave.theta.coeffs.imag[1:-1]
    coeffs.imag[1:3] -= 0.5 * delta
    maps = _step_maps(coeffs)
    c = maps.coordinates(coeffs)
    values = maps.to_rows(c)[0]
    # refused before its length, which a blown-up theta may not have
    _check_blowup(values, 0.0)
    return EvolutionState.from_theta(maps.profile(c, values)), values


def stability_probe(wave, cfg=None):
    """Estimate the leading growth rate around a traveling wave.

    Perturbs the wave's odd part by delta*(sin sigma + sin 2*sigma)
    (_probe_start; the solver's waves are odd), evolves with the linear
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
