"""Coordinate-free flame front models in the tangent-angle formulation.

A vertically traveling wave with speed parameter beta satisfies, on the
normalized-arclength grid with metric s_sigma = L/(2*pi),

    beta*cos(theta) = 1 + (alpha-1)*kappa + (closure terms),
    kappa = (2*pi/L)*theta_sigma,

where the closure terms are S*q^3*theta_sss + Q*kappa^2 + C*kappa^3 with
q = 2*pi/L.  The linearized curvature model has (S, Q, C) = (4, 0, 0);
the full nonlinear one has S = alpha^2*(alpha+3) and cubic curvature
terms.  That table (_closure) is the only place the closures differ.
This module evaluates residuals of that equation on the grid plus the
front kinematics and the flat-state dispersion relation.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import spectral
from .errors import ContractViolationError, DegenerateFrontError, _finite_real

__all__ = [
    "ModelKind",
    "WaveParams",
    "FrontKinematics",
    "length_from_theta",
    "kinematics",
    "residual",
    "residual_linearization",
    "dispersion_linear",
    "unstable_modes",
]

# Integral of cos(theta) below this is treated as a closed/degenerate front.
_DEGENERACY_THRESHOLD = 1e-8

_LENGTH_CONSISTENCY_RTOL = 1e-8


class ModelKind(enum.Enum):
    LINEAR = "linear"
    NONLINEAR = "nonlinear"


@dataclass(frozen=True)
class WaveParams:
    """Wave speed beta, model parameter alpha, and front length per period.

    length must be a positive finite real (a bool or str is none, an int
    beyond the float range is infinite), else ContractViolationError.
    """

    alpha: float
    beta: float
    length: float

    def __post_init__(self):
        _finite_real("length", self.length, "positive", ContractViolationError)


@dataclass(frozen=True)
class FrontKinematics:
    """Grid samples of the metric, curvature, and normal/tangential velocities."""

    s_sigma: float
    kappa: np.ndarray
    u: np.ndarray
    v: np.ndarray


def length_from_theta(p):
    """Front length per horizontal period, L = 4*pi^2 / integral(cos theta).

    The integral uses the spectral (mean-value) rule, which is exact for
    band-limited integrands.  Raises DegenerateFrontError when the integral
    is too small to define a graph-like front, or not a number (a
    non-finite profile).
    """
    integral = 2.0 * np.pi * float(np.mean(np.cos(p.values)))
    if not integral > _DEGENERACY_THRESHOLD:
        raise DegenerateFrontError(
            f"integral of cos(theta) = {integral:.3e} is not positive; "
            "front is closed or vertical somewhere on average"
        )
    return 4.0 * np.pi**2 / integral


def kinematics(p, params):
    """Metric, curvature, and the traveling-wave velocity fields.

    For a wave translating vertically with speed beta the normal and
    tangential velocities are u = -beta*cos(theta), v = -beta*sin(theta).
    params.length must agree with length_from_theta(p).
    """
    expected = length_from_theta(p)
    if abs(params.length - expected) > _LENGTH_CONSISTENCY_RTOL * expected:
        raise ContractViolationError(
            f"params.length {params.length!r} inconsistent with the length "
            f"functional {expected!r}"
        )
    q = 2.0 * np.pi / params.length
    theta_s = spectral.deriv(p, 1).values
    return FrontKinematics(
        s_sigma=params.length / (2.0 * np.pi),
        kappa=q * theta_s,
        u=-params.beta * np.cos(p.values),
        v=-params.beta * np.sin(p.values),
    )


def _closure(kind, alpha):
    """The closure table: (S, Q, C) and (dS, dQ, dC)/d alpha.

    S, Q and C are the coefficients of q^3*theta_sss, kappa^2 and kappa^3
    in the residual, and the only difference between the two closures.
    """
    if kind is ModelKind.LINEAR:
        return (4.0, 0.0, 0.0), (0.0, 0.0, 0.0)
    if kind is ModelKind.NONLINEAR:
        return (
            (alpha**2 * (alpha + 3.0), 1.0 + alpha / 2.0, 2.0 * alpha + 5.0 * alpha**2 - alpha**3 / 3.0),
            (3.0 * alpha**2 + 6.0 * alpha, 0.5, 2.0 + 10.0 * alpha - alpha**2),
        )
    raise ValueError(f"unknown model kind {kind!r}")


def _residual_parts(p, params, coeffs):
    """The residual with closure coefficients (S, Q, C), and the grid
    arrays its linearisation reuses."""
    stiff, quad, cubic = coeffs
    q = 2.0 * np.pi / params.length
    theta_s = spectral.deriv(p, 1).values
    theta_sss = spectral.deriv(p, 3).values
    kappa = q * theta_s
    kappa2 = kappa * kappa
    kappa3 = kappa2 * kappa
    r = (
        1.0
        # (alpha-1)*kappa, grouped as (alpha-1)*q*theta_s: this keeps the
        # linear branch byte-identical to the linear formula written alone
        + (params.alpha - 1.0) * q * theta_s
        + stiff * q**3 * theta_sss
        + quad * kappa2
        + cubic * kappa3
        - params.beta * np.cos(p.values)
    )
    return r, q, theta_s, theta_sss, kappa, kappa2, kappa3


def residual(p, params, kind):
    """Pointwise traveling-wave residual on the grid,

        r = 1 + (alpha-1)*kappa + S*q^3*theta_sss + Q*kappa^2 + C*kappa^3
              - beta*cos(theta),

    with q = 2*pi/L, kappa = q*theta_s and the closure's coefficients

        linear:     S = 4,                   Q = 0,            C = 0;
        nonlinear:  S = alpha^2*(alpha+3),   Q = 1 + alpha/2,
                    C = 2*alpha + 5*alpha^2 - alpha^3/3.

    Products are evaluated pointwise without dealiasing.
    """
    return _residual_parts(p, params, _closure(kind, params.alpha)[0])[0]


def residual_linearization(p, params, kind):
    """The residual and its pointwise partial derivatives, from one
    evaluation of theta_s and theta_sss.

    Returns (r, w1, w3, r_q, r_alpha), where r is residual(p, params, kind)
    bit for bit and a perturbation (d_theta, dq, d_alpha, d_beta) changes
    it by

        w1*d_theta_s + w3*d_theta_sss + beta*sin(theta)*d_theta
          + r_q*dq + r_alpha*d_alpha - cos(theta)*d_beta,

    with q = 2*pi/L held as an independent variable.  w1, r_q and r_alpha
    are grid arrays; w3 = S*q^3, the coefficient of theta_sss, is the same
    at every grid point and is returned as a float.
    """
    alpha = params.alpha
    (stiff, quad, cubic), (d_stiff, d_quad, d_cubic) = _closure(kind, alpha)
    r, q, theta_s, theta_sss, kappa, kappa2, kappa3 = _residual_parts(
        p, params, (stiff, quad, cubic)
    )
    w1 = q * ((alpha - 1.0) + 2.0 * quad * kappa + 3.0 * cubic * kappa2)
    w3 = float(stiff * q**3)
    r_alpha = kappa + d_stiff * q**3 * theta_sss + d_quad * kappa2 + d_cubic * kappa3
    # every q-dependence enters through q*theta_s and q^3*theta_sss
    r_q = (w1 * theta_s + 3.0 * w3 * theta_sss) / q
    return r, w1, w3, r_q, r_alpha


def dispersion_linear(alpha, k):
    """Flat-state growth rate of mode k for the linear closure.

    lambda(k) = -4*k^4 + (alpha - 1)*k^2.
    """
    return -4.0 * float(k) ** 4 + (alpha - 1.0) * float(k) ** 2


def unstable_modes(alpha):
    """Positive integer modes with lambda(k) > 0, i.e. 0 < k < sqrt(alpha-1)/2.

    Raises ValueError for an alpha that is not a finite real (a bool or
    str is none, an int beyond the float range is infinite).
    """
    alpha = _finite_real("alpha", alpha)
    if alpha <= 1.0:
        return []
    k_max = int(math.floor(math.sqrt(alpha - 1.0) / 2.0)) + 1
    return [k for k in range(1, k_max + 1) if dispersion_linear(alpha, k) > 0.0]
