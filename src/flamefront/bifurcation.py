"""Bifurcation points of the flat front and certified root algebra.

For the linear closure, mode k0 destabilizes at alpha = 4*k0^2 + 1.  For
the nonlinear closure the flat-state linearization of mode k0 vanishes at
the real root of the cubic

    q(alpha) = -k0^2*alpha^3 - 3*k0^2*alpha^2 + alpha - 1
             = (alpha - 1) - k0^2*alpha^2*(alpha + 3),

which lies in (-4, -3) for every k0 >= 1, at -3 - 4/(9*k0^2) to leading
order for large k0.  In floating point that root rounds to -3.0 exactly
from about k0 = 4.5e7 on, where 4/(9*k0^2) falls below half an ulp of 3
(-3.0000000000000013 at k0 = 2e7).  Uniqueness of that real root is
certified by the sign of the cubic discriminant, and transversality by the
resultant of q with p(alpha) = 3*k0^2*alpha^2 + 6*k0^2*alpha - 1, computed
both in closed form and as the 5x5 Sylvester determinant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spectral
from .errors import InternalConsistencyError, RootBracketError, _finite_real, _integer
from .model import ModelKind, WaveParams, length_from_theta

__all__ = [
    "linear_bifurcation_alpha",
    "nonlinear_bifurcation_alpha",
    "cubic_discriminant",
    "transversality_resultant",
    "sylvester_matrix",
    "BracketedRootCertificate",
    "root_certificate",
    "AsymptoticExpansion",
    "asymptotic_expansion",
    "asymptotic_guess",
]

# Bracket on which q changes sign for every k0 >= 1:
# q(-4) = 16*k0^2 - 5 > 0 and q(-3) = -4 < 0.  Its top is -3 + 1e-9, not
# -3: from about k0 = 4.5e7 on the computed root is -3.0 exactly (module
# docstring), and the certificate's open bracket must still hold it.
_BRACKET = (-4.0, -3.0 + 1e-9)

_EPS_MAX = 0.3


def _check_certified_k0(k0):
    """Reject a mode number whose certificate values are not finite floats.

    The resultant grows like 108*k0^8, and the Sylvester determinant
    overflows just above k0 = 1.89e38, so k0 must be at most 1.8e38; the
    root's bisection would overflow only above k0 = 3.3e153, where
    16*k0^2 does.  The bound is compared on integers, before any float
    arithmetic can overflow.
    """
    if _integer("k0", k0, 1) > 18 * 10**37:
        raise ValueError(f"k0={k0} is too large to certify: k0 must be at most 1.8e38")


def _check_k0_on_grid(k0, nx):
    """Reject a mode number that the nx-point grid cannot carry as a sine mode.

    The sine unknowns of an nx-point solve are modes 1..nx/2-1; a larger
    k0 is the Nyquist mode or aliases onto a lower one.
    """
    if _integer("k0", k0, 1) > nx // 2 - 1:
        raise ValueError(
            f"k0={k0} is not resolved on an nx={nx} grid: k0 must be at most nx/2 - 1 = {nx // 2 - 1}"
        )


def _q(alpha, k0):
    # factored form keeps intermediates O(1) so the cancellation at the
    # root costs only a few ulps
    return (alpha - 1.0) - k0**2 * alpha**2 * (alpha + 3.0)


def linear_bifurcation_alpha(k0):
    """Flat-state bifurcation point 4*k0^2 + 1 of the linear closure.

    Raises ValueError for a k0 that is not an integer >= 1 (a bool, though
    an int, is no mode number).
    """
    return 4 * _integer("k0", k0, 1) ** 2 + 1


def nonlinear_bifurcation_alpha(k0):
    """Unique real root of the mode-k0 cubic, located in (-4, -3), for
    k0 <= 1.8e38, the range of its certificate.  The float returned lies
    in the open (-4, -3) up to about k0 = 4.5e7 and is -3.0 exactly above
    it, where the root, -3 - 4/(9*k0^2) to leading order, is within half
    an ulp of -3 (-3.0000000000000013 at k0 = 2e7).

    Exact bisection: the certified bracket is halved while its midpoint
    differs from both ends, which leaves two adjacent doubles that
    bracket the sign change of q as computed.  Of the two, the end with
    the smaller |q| is returned, hi on a tie.  No tolerance or iteration
    count enters, so the result is checkable in exact arithmetic: the
    returned double and its neighbour across the sign change bracket the
    exact root, and the returned one has the smaller exact |q|.
    """
    _check_certified_k0(k0)
    lo, hi = _BRACKET
    q_lo, q_hi = _q(lo, k0), _q(hi, k0)
    if not (q_lo > 0.0 > q_hi):
        raise RootBracketError(
            f"cubic does not change sign on [{lo}, {hi}] for k0={k0}: "
            f"q(lo)={q_lo!r}, q(hi)={q_hi!r}"
        )
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if _q(mid, k0) > 0.0:
            lo = mid
        else:
            hi = mid
    return lo if abs(_q(lo, k0)) < abs(_q(hi, k0)) else hi


def cubic_discriminant(k0):
    """Discriminant of the mode-k0 cubic; negative iff the real root is unique.

    Evaluated by the standard formula 18abcd - 4b^3d + b^2c^2 - 4ac^3
    - 27a^2d^2 with (a, b, c, d) = (-k0^2, -3*k0^2, 1, -1).
    """
    _check_certified_k0(k0)
    a, b, c, d = -float(k0) ** 2, -3.0 * float(k0) ** 2, 1.0, -1.0
    return (
        18.0 * a * b * c * d
        - 4.0 * b**3 * d
        + b**2 * c**2
        - 4.0 * a * c**3
        - 27.0 * a**2 * d**2
    )


def sylvester_matrix(k0):
    """5x5 Sylvester matrix of (q, p) for mode k0, coefficients in descending order."""
    k2 = float(_integer("k0", k0, 1)) ** 2
    return np.array(
        [
            [-k2, -3.0 * k2, 1.0, -1.0, 0.0],
            [0.0, -k2, -3.0 * k2, 1.0, -1.0],
            [3.0 * k2, 6.0 * k2, -1.0, 0.0, 0.0],
            [0.0, 3.0 * k2, 6.0 * k2, -1.0, 0.0],
            [0.0, 0.0, 3.0 * k2, 6.0 * k2, -1.0],
        ]
    )


def transversality_resultant(k0):
    """Resultant of the cubic with the transversality quadratic p.

    Returns the closed form 4*k0^4*(27*k0^4 + 18*k0^2 - 1) after checking
    it against the direct 5x5 Sylvester determinant; disagreement beyond
    1e-9 relative raises InternalConsistencyError.  Positivity certifies
    that the cubic and p share no root, so the located root is simple.
    """
    _check_certified_k0(k0)
    k2 = float(k0) ** 2
    closed = 4.0 * k2**2 * (27.0 * k2**2 + 18.0 * k2 - 1.0)
    direct = float(np.linalg.det(sylvester_matrix(k0)))
    if abs(closed - direct) > 1e-9 * max(abs(closed), abs(direct)):
        raise InternalConsistencyError(
            f"resultant mismatch for k0={k0}: closed form {closed!r} vs "
            f"Sylvester determinant {direct!r}"
        )
    return closed


@dataclass(frozen=True)
class BracketedRootCertificate:
    """Evidence that the nonlinear bifurcation point is real, unique, simple.

    Records the sign change of q over the bracket, the bisected root and
    its residual, the negative discriminant (uniqueness), and the positive
    resultant (simplicity/transversality).
    """

    k0: int
    bracket: tuple
    q_left: float
    q_right: float
    alpha0: float
    q_at_root: float
    discriminant: float
    resultant: float

    def holds(self):
        return (
            self.q_left > 0.0 > self.q_right
            and self.bracket[0] < self.alpha0 < self.bracket[1]
            and self.discriminant < 0.0
            and self.resultant > 0.0
        )


def root_certificate(k0):
    """Assemble the full BracketedRootCertificate for mode k0 <= 1.8e38."""
    _check_certified_k0(k0)
    alpha0 = nonlinear_bifurcation_alpha(k0)
    return BracketedRootCertificate(
        k0=int(k0),
        bracket=_BRACKET,
        q_left=_q(_BRACKET[0], k0),
        q_right=_q(_BRACKET[1], k0),
        alpha0=alpha0,
        q_at_root=_q(alpha0, k0),
        discriminant=cubic_discriminant(k0),
        resultant=transversality_resultant(k0),
    )


@dataclass(frozen=True)
class AsymptoticExpansion:
    """Small-amplitude expansion data around a bifurcation point.

    theta = eps*sin(k0*sigma) + eps^2*theta2_coeff*sin(2*k0*sigma) + ..,
    beta = 1 + eps^2*beta2, alpha = alpha0.  Second-order data is only
    available for the linear closure at k0 = 1; elsewhere the expansion is
    leading-order.
    """

    k0: int
    kind: ModelKind
    alpha0: float
    theta2_coeff: float = 0.0
    beta2: float = 0.0


def asymptotic_expansion(k0, kind):
    """Expansion coefficients for branch (k0, kind)."""
    _integer("k0", k0, 1)
    if kind is ModelKind.LINEAR:
        if k0 == 1:
            # second-order solvability: theta2 = -(1/96) sin 2s, beta2 = 1/4
            return AsymptoticExpansion(
                k0=1,
                kind=kind,
                alpha0=float(linear_bifurcation_alpha(1)),
                theta2_coeff=-1.0 / 96.0,
                beta2=0.25,
            )
        return AsymptoticExpansion(k0=int(k0), kind=kind, alpha0=float(linear_bifurcation_alpha(k0)))
    if kind is ModelKind.NONLINEAR:
        return AsymptoticExpansion(k0=int(k0), kind=kind, alpha0=nonlinear_bifurcation_alpha(k0))
    raise ValueError(f"unknown model kind {kind!r}")


def asymptotic_guess(k0, eps, kind, nx=256):
    """Initial wave guess (profile, params) at amplitude parameter eps.

    eps must be a positive finite real (_finite_real) and at most 0.3;
    beyond that the truncated expansion is a poor Newton seed.  Either
    refusal is a ValueError naming eps.  k0 must be at most nx/2 - 1,
    which is checked before the expansion (a root solve for the nonlinear
    closure) is evaluated.
    """
    eps = _finite_real("eps", eps, "positive")
    if eps > _EPS_MAX:
        raise ValueError(f"eps must be in (0, {_EPS_MAX}], got {eps!r}")
    sigma = spectral.grid(nx)
    _check_k0_on_grid(k0, nx)
    ex = asymptotic_expansion(k0, kind)
    values = eps * np.sin(ex.k0 * sigma)
    if ex.theta2_coeff != 0.0:
        values = values + eps**2 * ex.theta2_coeff * np.sin(2.0 * ex.k0 * sigma)
    p = spectral.ThetaProfile.from_values(values)
    params = WaveParams(
        alpha=ex.alpha0,
        beta=1.0 + eps**2 * ex.beta2,
        length=length_from_theta(p),
    )
    return p, params
