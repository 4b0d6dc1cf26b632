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
frozen over the step), everything else explicit; the first step of each
run is IMEX Euler and subsequent steps are SBDF2.

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
expressions (_odd_maps), up to the one crossover (_ODD_MAX_NX): at nx
64 and 256 such a step makes no FFT call.  The data
choose the coordinates at the start of each run (_step_maps), and the
run keeps them: one whose cosine content decays below the bound stays on
the general maps, and a run started from its end steps on the odd ones.
States are expanded to the full half spectrum, real parts
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
(test_near_neutral_probe_of_linear_wave) resolves: its slope lies 1.1e-7
relative from the test's reference with this order, 5.0e-7 with the
order (c, N, c_prev, N_prev) and 2.2e-6 with np.divide, beyond the
test's 1e-6.  The stack and the previous L and L_t are the run's locals:
a state is theta, L and t, so every run, imex_step's one step included,
starts afresh with an Euler step, and SBDF2 steps follow only within one
run.  Each step fills a fresh stack, and a state on the general maps
holds its own c from it, so the arrays a state holds are never written
again.

The loop makes no np.dot, np.vdot or np.array call and no method call on
the maps: _bind binds their three products once per run, with the run's
work arrays, and returns the step's L-dependent fill and explicit half as
closures over them.  An odd map is its matrix's ndarray.dot, the C
product of np.dot, bit for bit, without np.dot's __array_function__
dispatch (at nx 64, 1.16 against 1.60 us per map).  The rows product
writes theta, theta_s and theta_sss into one flat work array, whose
fixed views the step reads, with no reshape or row index.
The values that depend on L alone, the pair (a, q), 1/s_sigma, the
gain (a, q) @ gains and the reciprocal of the SBDF2 denominator, are
work arrays too, filled in place, the reciprocal in the operation order
of 1.0 / (d0 + d1*q*n^4).  The loop fills them, and computes q, only
when a step changes L's bits and when SBDF2 takes over from the Euler
step.  How often L keeps its bits depends on the run: on every step of
the criterion-5 run from 1e-6 sin 2 sigma, on none of the k0 = 2 wave's
probe.  1/s_sigma, d1*q, d0 and 1.0 are 0-d arrays, which give their
ufuncs the same bits as the Python floats they replace at half to two
thirds of the call's cost (on 31 values, an add took 0.39 against 0.85
us and a multiply 0.38 against 0.57 us).  The loop makes the blow-up test's sum of squares
itself, calling _check_blowup only when it fails.  An observed step
builds its state from the loop's locals (_state): on the odd maps the
full half spectrum and the full-grid values, on the general maps a copy
of the grid values out of the work array, and the two frozen
dataclasses without their __init__ (_built).  The probe copies each
step's grid values into a block and takes d(t) a block at a time
(stability_probe).  The cost of a bare, an observed and a probed step
at nx 64 and 256 is measured in CHANGES.md, in the entry "Per-L step
tables and a block-wise probe record".
"""

from __future__ import annotations

import functools
from array import array
from dataclasses import dataclass

import numpy as np

from . import spectral
from .errors import BlowUpError, UnsupportedModelError, _finite_real, _integer
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
# _THETA_BLOWUP/2, so the stepping loop (_march) calls _check_blowup only
# for a larger sum.  The sum of at most a few hundred squares rounds by
# about 1e-13 relative, far inside that factor-4 margin, so this test never
# passes values the exact max would refuse; a sum that overflows or is NaN
# fails it, and the exact max decides.
_BLOWUP_SUM_SQUARES = (_THETA_BLOWUP / 2.0) ** 2

# Rows of a history stack (c, c_prev, N, N_prev) that start the next one
_SHIFT = np.array([0, 0, 2, 2])

# The probe perturbs the wave by _PROBE_DELTA*(sin sigma + sin 2*sigma),
# and its growth window opens at the first d(t) of at least 10 times that.
_PROBE_DELTA = 1e-8

# The probe fits log d(t) over this many decades of growth.
_GROWTH_WINDOW_DECADES = 2.0

# Steps whose grid values the probe holds before it takes their d(t) in
# three numpy calls (stability_probe).  Of blocks of 8 to 64 rows, 32 was
# within 3% of the fastest probed step at nx 64 and 256, and every block
# was faster than d(t) taken on every step; it holds 33 KB at nx 256, and
# the run goes at most 31 steps past the window's end.  The measurement is in CHANGES.md,
# in the entry "Per-L step tables and a block-wise probe record".
_PROBE_BLOCK = 32

# Growth slower than exp(1e-3 t) is indistinguishable from neutral over
# the default probe horizon.
_NO_GROWTH_NOTE = "no instability observed at threshold 1e-3"


@dataclass(frozen=True, eq=False)
class EvolutionState:
    """Tangent angle, front length, and clock time of an evolving front.

    A state carries no step history: every run starts from its state
    alone, with one IMEX Euler step (_march).
    """

    theta: spectral.ThetaProfile
    length: float
    time: float = 0.0

    @classmethod
    def from_theta(cls, p):
        return cls(theta=p, length=length_from_theta(p))


@dataclass(frozen=True)
class StabilityProbeConfig:
    """Integration window of a stability probe: step size and horizon.

    Each of dt and t_max must be a positive finite real (a bool or str is
    none, an int beyond the float range is infinite), and t_max/dt a
    finite number of steps, at least one; else ValueError.  The
    perturbation is fixed (_PROBE_DELTA).
    """

    dt: float = 1e-4
    t_max: float = 1.0

    def __post_init__(self):
        dt, t_max = (_finite_real(name, getattr(self, name), "positive") for name in ("dt", "t_max"))
        steps = t_max / dt
        if steps == np.inf:
            raise ValueError(f"t_max {self.t_max!r} over dt {self.dt!r} is too many steps to count")
        if round(steps) < 1:
            raise ValueError(f"t_max {self.t_max!r} is shorter than one step of dt {self.dt!r}")


@dataclass(frozen=True, eq=False)
class GrowthEstimate:
    """Fitted exponential growth rate of the perturbation norm d(t).

    observed says whether d(t) grew through the probe's two-decade window;
    when it did not, rate is the steepest trailing fit (stability_probe)
    and note says so.
    """

    rate: float
    intercept: float
    window: tuple
    observed: bool
    times: np.ndarray
    norms: np.ndarray

    @property
    def note(self):
        """"" for an observed growth, else _NO_GROWTH_NOTE."""
        return "" if self.observed else _NO_GROWTH_NOTE


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

    def products(self):
        """The three maps as a run binds them (_bind), and the grid size.

        rows(c, out) writes theta, theta_s and theta_sss, in that order,
        into the flat work array out; velocity(g, out) writes
        -(V - V(0))/s_sigma and then the mean of g into out; spectrum(values)
        returns the half spectrum.  Here the two work arrays take copies of
        the FFTs' results.
        """
        return self._rows_into, self._velocity_into, self.to_spectrum, 2 * (self.n4.size - 1)

    def _rows_into(self, c, out):
        out[:] = self.to_rows(c).reshape(-1)

    def _velocity_into(self, g, out):
        out[:-1], out[-1] = self.to_velocity(g)

    def coordinates(self, coeffs):
        """A half spectrum as the vector these maps step: the coefficients
        themselves."""
        return coeffs

    def profile(self, c, values):
        """The ThetaProfile of c and a copy of its grid values: the stepping
        loop's values live in a work array that the next step writes."""
        return spectral.ThetaProfile(values.size, values.copy(), c)


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
    ndarray.dot, which gives the bits of np.dot and @ without np.dot's
    dispatch: velocity is (nx/2+2, nx/2+1), spectrum (nx/2-1, nx/2+1),
    rows (3*(nx/2+1), nx/2-1).  gains and n4 are those of _Maps, restricted to
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

    def to_rows(self, c):
        return self.rows.dot(c).reshape(3, -1)

    def products(self):
        """As _Maps.products: each map is its matrix's bound ndarray.dot,
        which writes into out when it is given one."""
        return self.rows.dot, self.velocity.dot, self.spectrum.dot, self.velocity.shape[1]

    def coordinates(self, coeffs):
        """A half spectrum as the vector these maps step: a copy of Im c_n,
        n = 1..nx/2-1.  The real parts, of rounding size for a state odd to
        rounding, and the imaginary parts of modes 0 and nx/2, invisible on
        the grid, are dropped."""
        return np.array(coeffs.imag[1:-1])

    def profile(self, c, values):
        """The ThetaProfile of c and its half-grid values: real parts exactly
        0, and values extended by theta_{nx-j} = -theta_j, exactly.  Both
        arrays are new."""
        coeffs = np.zeros(c.size + 2, dtype=complex)
        coeffs.imag[1:-1] = c
        values = values.take(self.fold)
        # the product with -1.0 is exact, signed zeros included
        values *= self.sign
        return _built(spectral.ThetaProfile, {"nx": values.size, "values": values, "coeffs": coeffs})


# Largest grid on which a state odd to rounding steps in odd coordinates;
# above it, it takes the general path.  This is the step's only crossover:
# the odd maps are dense, so their arithmetic grows like nx^2 against the
# general path's FFTs.  The odd step measured faster at every grid up to
# 320, and mostly at 384 and 416 too, but a move changes the rounding of
# every run on the grids it adds, so it is left to a change of its own.  The timings are in CHANGES.md, in the entry "Only what a
# caller uses".
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


def _checked(state, alpha):
    """alpha and a state's L as Python floats and L's q (_stiffness), or
    ValueError naming an alpha that is not a finite real, an L that is not
    a positive finite real (_finite_real), or an L that has no q: the
    checks theta_rhs and every run make before any arithmetic."""
    alpha = _finite_real("alpha", alpha)
    length = _finite_real("L", state.length, "positive")
    q = _stiffness(length)
    if q is None:
        raise ValueError(f"L must be positive and finite with 4*(2*pi/L)^4 finite and nonzero, got {state.length!r}")
    return alpha, length, q


def _built(cls, fields):
    """An instance of the frozen dataclass cls holding fields, a dict of all
    its fields, made without cls.__init__, which sets each field through
    object.__setattr__: at nx 64 that makes an EvolutionState cost about
    twice as much.  The instance stays frozen."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _bind(maps, alpha):
    """maps' three products bound for one run at alpha, with that run's
    work arrays.

    Returns (rows, flat, values, set_length, explicit).  rows(c, flat)
    writes theta, theta_s and theta_sss of c on the grid into the flat
    work array flat, and values is the view of its theta; each call
    overwrites them.  set_length and explicit are closures over the run's
    other work arrays: fixed views of theta_s and of (theta_s, theta_sss)
    in flat, the values that depend on L alone, and the velocity
    product's work array w with its view of -(V - V(0))/s_sigma.  So a
    step makes no method call on the maps, no reshape and no row index.

    set_length(length, q) fills the values that depend on L alone, for
    q = 4*(2*pi/L)^4: the pair (a, q), a = (alpha-1)/s_sigma^2; the 0-d
    1/s_sigma; and the explicit gain on c, (a, q) @ gains.

    explicit(c, length, out=None) returns the explicit half spectrum of
    theta_t and L_t, for the c whose rows flat holds and the L that
    set_length was last called with.  theta_t = (u_sigma + (V -
    V(0))*theta_s)/s_sigma with u/s_sigma = -(1/s_sigma + a*theta_s +
    q*theta_sss), so u_sigma/s_sigma carries -q*n^4*c, the term the step
    treats implicitly.  It is left out here rather than added and
    subtracted, except at Nyquist, where u_sigma has no content and the
    implicit term is balanced explicitly.  c and the explicit part are in
    the coordinates of maps.  The step's two coefficients enter as one
    pair (a, q), so a*theta_s + q*theta_sss is (a, q) @ (theta_s,
    theta_sss), and the gain on c is (a, q) @ gains.  The explicit part
    is written into out when it is given: _march passes the row of its
    history stack.
    """
    rows, velocity, spectrum, size = maps.products()
    gains = maps.gains
    flat = np.empty(3 * size)
    w = np.empty(size + 1)
    neg_v = w[:-1]
    derivs = flat[size:].reshape(2, size)
    theta_s = derivs[0]
    # (a, q), 1/s_sigma as a 0-d array, and the gain (a, q) @ gains
    aq, inv_s_sigma, gain = np.empty(2), np.empty(()), np.empty(gains.shape[1])

    def set_length(length, q):
        s_sigma = length / (2.0 * np.pi)
        aq[0] = (alpha - 1.0) / s_sigma**2
        aq[1] = q
        inv_s_sigma[()] = 1.0 / s_sigma
        aq.dot(gains, gain)

    def explicit(c, length, out=None):
        # the maps carry -flux/s_sigma and -V/s_sigma: dividing u by s_sigma
        # up front divides theta_t, and negating it is free
        velocity(theta_s * (inv_s_sigma + aq.dot(derivs)), w)
        length_rate = length * w.item(-1)
        nonstiff = np.subtract(gain * c, spectrum(neg_v * theta_s), out)
        return nonstiff, length_rate

    return rows, flat, flat[:size], set_length, explicit


def theta_rhs(state, alpha):
    """Right-hand sides (theta_t values, L_t) of the evolution system.

    Raises ValueError for an alpha that is not a finite real or an L that
    is not a positive finite real (a bool or str is none, an int beyond
    the float range is infinite), and for an L whose 4*(2*pi/L)^4 is not
    finite and nonzero (_stiffness).
    """
    alpha, length, q = _checked(state, alpha)
    maps = _step_maps(state.theta)
    rows, flat, values, set_length, explicit = _bind(maps, alpha)
    c = maps.coordinates(state.theta.coeffs)
    rows(c, flat)
    set_length(length, q)
    nonstiff, length_rate = explicit(c, length)
    rhs = nonstiff - q * maps.n4 * c
    rows(rhs, flat)
    return maps.profile(rhs, values).values, length_rate


def _state(maps, c, values, length, time):
    return _built(EvolutionState, {"theta": maps.profile(c, values), "length": length, "time": time})


def _check_blowup(values, time):
    """BlowUpError when max|theta| of the grid values exceeds _THETA_BLOWUP
    or is not finite.

    The exact test: a run's starting state and the probe's start are
    checked directly, and the stepping loop calls this only when its
    sum-of-squares pre-test (_BLOWUP_SUM_SQUARES) fails.
    """
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
    general, once (_step_maps), and the run keeps them; until sees grid
    values in their coordinates, on the half grid for the odd maps, in a
    work array that the next step overwrites.  The first step is IMEX
    Euler, the rest SBDF2.  The half spectrum, L, t and the SBDF2 history
    live in locals and end with the run; states are built from them
    (_state) only for the observer and for the return value.  A starting
    state whose L is not a positive finite real or has no finite nonzero
    q = 4*(2*pi/L)^4 (_stiffness) is refused with ValueError, and one
    already past the blow-up threshold, the probe's start included, with
    BlowUpError at its own time, both before any step; an L that leaves
    that range during the run is a BlowUpError.

    The half spectra live in the history stack of the module docstring.
    Each step writes N into its row 2, then takes a fresh stack holding
    the shifted history and writes the new c into it.  The maps' three
    products, their work arrays and the two closures over them,
    set_length and explicit, are bound once for the run (_bind), as are
    the work arrays of the reciprocal of the SBDF2 denominator and of its
    scalar operands; each step then calls the products and closures
    directly.  The values that depend on L alone (set_length) and that
    reciprocal are computed before the first step, and again only before
    a step whose L differs, bit for bit, from the previous step's, or
    which is the first SBDF2 step; q is computed alongside, from the L the
    previous step left.  The loop, observer included, runs with numpy's
    overflow and invalid-value warnings off: a step that overflows leaves
    a theta that is not finite, which the blow-up check refuses.
    """
    _finite_real("dt", dt, "positive")
    # Python floats throughout: no numpy scalar arithmetic in the loop
    alpha, length, q = _checked(state, alpha)
    _check_blowup(state.theta.values, state.time)
    maps = _step_maps(state.theta)
    n4 = maps.n4
    rows, flat, values, set_length, explicit = _bind(maps, alpha)
    time = state.time
    c = maps.coordinates(state.theta.coeffs)
    stack = np.zeros((4, c.size), dtype=c.dtype)
    stack[0] = c
    rows(c, flat)
    # no history before the first step: it is IMEX Euler
    prev_length = prev_rate = None
    # numerator weights on the stack, then d0 and d1 of the denominator
    # d0 + d1*q*n^4: IMEX Euler for the first step, SBDF2 after it
    w, d0, d1 = np.array((1.0, 0.0, dt, 0.0)), 1.0, dt
    sbdf2 = (np.array((4.0, -1.0, 4.0 * dt, -2.0 * dt)), 3.0, 2.0 * dt)
    # the reciprocal of the denominator, and its three scalar operands
    # d1*q, d0 and 1.0 as 0-d work arrays
    inv_denominator = np.empty(n4.shape)
    d1_q, d0_array, one = np.empty(()), np.empty(()), np.ones(())
    new_tables = True
    out = state
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_steps):
            if new_tables:
                set_length(length, q)
                # a product with the reciprocal, not a division (module
                # docstring), of 1.0 / (d0 + d1*q*n4) in that operation order
                d1_q[()] = d1 * q
                d0_array[()] = d0
                np.multiply(n4, d1_q, inv_denominator)
                np.add(inv_denominator, d0_array, inv_denominator)
                np.divide(one, inv_denominator, inv_denominator)
            length_rate = explicit(c, length, stack[2])[1]
            if prev_length is None:
                new_length = length + dt * length_rate
            else:
                new_length = (4.0 * length - prev_length + 2.0 * dt * (2.0 * length_rate - prev_rate)) / 3.0
            # (c, c, N, N): rows 1 and 3 are the next step's history; the
            # new c overwrites row 0 below and the next N row 2
            new = stack.take(_SHIFT, 0)
            c = np.multiply(w.dot(stack), inv_denominator, new[0])
            time += dt
            rows(c, flat)
            if not values.dot(values) <= _BLOWUP_SUM_SQUARES:
                _check_blowup(values, time)
            # the tables depend on L alone, and on the scheme: they are
            # rebuilt when L changes its bits and when SBDF2 takes over
            new_tables = prev_length is None or new_length != length
            if new_length != length:
                q = _stiffness(new_length)
                if q is None:
                    raise BlowUpError(
                        f"L = {new_length:.3e} left the range of a finite nonzero 4*(2*pi/L)^4 at t = {time:.6g}",
                        time=time,
                    )
            w, d0, d1 = sbdf2
            stack, length, prev_length, prev_rate = new, new_length, length, length_rate
            out = None
            if observer is not None:
                out = _state(maps, c, values, length, time)
                observer(out)
            if until is not None and until(values, time):
                break
    if out is None:
        out = _state(maps, c, values, length, time)
    return out


def imex_step(state, alpha, dt):
    """Advance one step of size dt: evolve(state, alpha, dt, 1).

    The stiff term -4*(2*pi/L)^4*theta_ssss is treated implicitly with L
    frozen at the current value; the remainder and the length equation are
    explicit.  A state carries no history, so the step is first-order IMEX
    Euler; SBDF2 steps follow only within one evolve run.  Raises
    ValueError for a dt that is not a positive finite real or an alpha
    that is not a finite real (theta_rhs), and BlowUpError once
    max|theta| exceeds 1e3.
    """
    return _march(state, alpha, dt, 1)


def evolve(state, alpha, dt, n_steps, observer=None):
    """Run n_steps IMEX steps, invoking observer(state) after each one.

    The run starts afresh from state: one IMEX Euler step, then SBDF2, so
    a run of n steps is not n chained runs of one; a caller that wants the
    intermediate states of one SBDF2 run takes them from the observer.
    Each observed state is built for the observer, and no later step
    writes its arrays, so an observer may keep it.  On the odd maps that
    means the full half spectrum and the full-grid values: at nx 64 an
    observed step costs about 11.9 us against 8.8 us for a bare one
    (module docstring).

    Raises ValueError for an n_steps that is negative or not an integer
    (a bool, though an int, is no count), and as imex_step does for dt and
    alpha.
    """
    return _march(state, alpha, dt, _integer("n_steps", n_steps, 0), observer)


def _probe_start(wave):
    """The probe's start, the wave's odd part plus
    _PROBE_DELTA*(sin sigma + sin 2*sigma).

    The solver's waves are odd, so the probe studies the wave's odd part:
    the imaginary parts of its half spectrum, modes 1..nx/2-1, less
    i*_PROBE_DELTA/2 at n = 1 and 2.  A blown-up wave is refused first,
    with BlowUpError at t = 0, before any arithmetic on it can overflow;
    a start that the perturbation lifts past the blow-up threshold is
    refused by the run itself, at t = 0 (_march).  Only a cosine content
    of rounding size is dropped: a wave that is not odd to rounding
    (_odd_to_rounding) is refused with ValueError.  The start steps in the
    wave's coordinates, odd up to _ODD_MAX_NX.  Returns the state and its
    grid values in those coordinates, taken from the step's own rows map:
    on the half grid for the odd maps.
    """
    _check_blowup(wave.theta.values, 0.0)
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
    coeffs.imag[1:3] -= 0.5 * _PROBE_DELTA
    c = maps.coordinates(coeffs)
    values = maps.to_rows(c)[0]
    return EvolutionState.from_theta(maps.profile(c, values)), values


def stability_probe(wave, cfg=None):
    """Estimate the leading growth rate around a traveling wave.

    Perturbs the wave's odd part by delta*(sin sigma + sin 2*sigma), with
    the fixed delta = _PROBE_DELTA = 1e-8 (_probe_start; the solver's
    waves are odd, and a wave that is not odd to rounding raises
    ValueError), evolves with the linear closure at the wave's alpha, and
    records d(t) = max|theta(t) - theta(0)| in the step's coordinates, on
    the half grid for the odd maps, which has the same max.  The growth
    window starts at the first d of at least 10*delta = 1e-7 and ends at
    the first later d of at least 100 times that one.  Each step's grid values are copied into a block of _PROBE_BLOCK rows,
    whose d(t) is taken in three numpy calls once it is full, so
    integration stops at the end of the block in which that window
    completes, up to _PROBE_BLOCK - 1 steps past it and still well before
    the perturbed front leaves the exponential regime.  times and norms
    end at the window's end, and a blow-up in the steps past it leaves the
    estimate standing.

    The rate is the steepest least-squares slope of log d, the first one
    on a tie, over the candidates: the window when it completes, else the
    positive d from 0, 25, 50 and 75% of n_steps on, each set that holds
    at least two.  Each fit's window runs from its first time to the last
    one recorded.  With no candidate the rate and intercept are 0
    over (0, t_max).  observed says whether the window completed, and the
    note follows from it (GrowthEstimate.note).

    A wave whose kind is not a ModelKind raises ValueError, as residual
    and continue_branch do; a nonlinear one raises UnsupportedModelError.
    """
    if cfg is None:
        cfg = StabilityProbeConfig()
    if not isinstance(wave.kind, ModelKind):
        raise ValueError(f"unknown model kind {wave.kind!r}")
    if wave.kind is not ModelKind.LINEAR:
        raise UnsupportedModelError(
            f"time evolution is implemented for the linear closure only, got {wave.kind!r}"
        )
    state, reference = _probe_start(wave)

    factor = 10.0**_GROWTH_WINDOW_DECADES
    n_steps = int(round(cfg.t_max / cfg.dt))
    # one float64 per step taken: the window usually completes long before
    # n_steps, which may be far too many to hold
    times = array("d")
    norms = array("d")
    # the values of the steps whose d(t) is not yet taken, one row each
    block = np.empty((_PROBE_BLOCK, reference.size))
    # indices of the window's first and last norms, as they are found
    window = []

    def flush():
        """Take d(t) of the pending rows, and look for the window in it:
        True once the window completes."""
        pending = block[: len(times) - len(norms)]
        np.subtract(pending, reference, pending)
        np.absolute(pending, pending)
        for norm in np.maximum.reduce(pending, axis=1).tolist():
            norms.append(norm)
            if not window:
                if norm >= 10.0 * _PROBE_DELTA:
                    window.append(len(norms) - 1)
            elif norm >= factor * norms[window[0]]:
                window.append(len(norms) - 1)
                return True
        return False

    def record(values, time):
        row = len(times) - len(norms)
        block[row] = values
        times.append(time)
        return row == _PROBE_BLOCK - 1 and flush()

    try:
        _march(state, wave.alpha, cfg.dt, n_steps, until=record)
    except BlowUpError:
        # the run may have gone past the window's end before it blew up:
        # the estimate stands if the window completes in the pending rows
        if not flush():
            raise
    # the last block may be partly filled: its flush can complete the window
    observed = len(window) == 2 or flush()
    # the steps past the window's end are dropped
    del times[len(norms) :]
    times = np.array(times)
    norms = np.array(norms)

    if observed:
        candidates = [slice(window[0], None)]
    else:
        candidates = []
        for fraction in (0.0, 0.25, 0.5, 0.75):
            mask = norms > 0.0
            mask[: int(fraction * n_steps)] = False
            if np.count_nonzero(mask) >= 2:
                candidates.append(mask)
    # the first steepest fit is kept
    rate, intercept, span = 0.0, 0.0, (0.0, float(cfg.t_max))
    for i, sel in enumerate(candidates):
        slope, fit_intercept = np.polyfit(times[sel], np.log(norms[sel]), 1)
        if i == 0 or slope > rate:
            rate, intercept = float(slope), float(fit_intercept)
            span = (float(times[sel][0]), float(times[-1]))
    return GrowthEstimate(rate, intercept, span, observed, times, norms)
