"""Pseudo-spectral traveling waves of coordinate-free flame front models."""

__version__ = "0.1.0"

from .bifurcation import (
    AsymptoticExpansion,
    BracketedRootCertificate,
    asymptotic_expansion,
    asymptotic_guess,
    cubic_discriminant,
    linear_bifurcation_alpha,
    nonlinear_bifurcation_alpha,
    root_certificate,
    transversality_resultant,
)
from .errors import (
    BlowUpError,
    BranchStartError,
    ContractViolationError,
    ConvergenceError,
    DegenerateFrontError,
    FlameFrontError,
    InternalConsistencyError,
    InvalidGridError,
    RootBracketError,
    SingularSystemError,
    UnsupportedModelError,
)
from .evolution import (
    EvolutionState,
    GrowthEstimate,
    StabilityProbeConfig,
    evolve,
    imex_step,
    stability_probe,
    theta_rhs,
)
from .geometry import (
    InterfaceCurve,
    is_near_self_intersecting,
    min_nonadjacent_gap,
    reconstruct_curve,
)
from .model import (
    FrontKinematics,
    ModelKind,
    WaveParams,
    dispersion_linear,
    kinematics,
    length_from_theta,
    residual,
    unstable_modes,
)
from .solver import (
    BranchRecord,
    FailedSolve,
    SolveConfig,
    WaveSolution,
    continue_branch,
    flat_solution,
    quasi_newton_solve,
    residual_at_resolution,
)
from .spectral import ThetaProfile, deriv, grid
