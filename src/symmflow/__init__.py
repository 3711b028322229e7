"""Structure-preserving Runge-Kutta integration on symmetric spaces.

Three concrete geometries are shipped: the unit n-sphere, hyperbolic n-space
in the hyperboloid model, and SPD matrices. Each is one `SpaceContract`
that supplies its closed forms from a per-step base point (geodesic
exponential, parallel transport back to the base, dExp^{-1} or the spectrum
of the double bracket feeding its series) to the single stepping core,
`cssi_step`, which `integrate` marches. The `harness` module
adds benchmark problems, convergence-order studies and CSV emission behind
the `symmflow` command-line tool.
"""

from .core import (
    SpaceContract,
    StepRecord,
    cssi_step,
    dexpinv_coefficients,
    dexpinv_series_apply,
    integrate,
    lts_axiom_residuals,
    triple_bracket_oracle,
)
from .errors import (
    DimensionMismatch,
    FixedPointDivergence,
    IoFailure,
    MidpointUndefined,
    NonPositiveDefinite,
    NonSpacelikeTangent,
    NotOnManifold,
    NumericalFailure,
    ReferenceUnavailable,
    StepTooLarge,
    SymmetryViolation,
    SymmflowError,
    UnknownTableau,
)
from .curved import CurvedSpace
from .hyperbolic import HYPERBOLOID
from .linalg import mat_exp, minkowski, spd_inv, spd_sqrt, sym_eig
from .spd import SPD, SpdSpace
from .sphere import SPHERE
from .tableau import ButcherTableau, builtin_tableau, check_order_conditions

__version__ = "0.1.0"

__all__ = [
    "ButcherTableau",
    "CurvedSpace",
    "DimensionMismatch",
    "FixedPointDivergence",
    "HYPERBOLOID",
    "IoFailure",
    "MidpointUndefined",
    "NonPositiveDefinite",
    "NonSpacelikeTangent",
    "NotOnManifold",
    "NumericalFailure",
    "ReferenceUnavailable",
    "SPD",
    "SPHERE",
    "SpaceContract",
    "SpdSpace",
    "StepRecord",
    "StepTooLarge",
    "SymmetryViolation",
    "SymmflowError",
    "UnknownTableau",
    "builtin_tableau",
    "check_order_conditions",
    "cssi_step",
    "dexpinv_coefficients",
    "dexpinv_series_apply",
    "integrate",
    "lts_axiom_residuals",
    "mat_exp",
    "minkowski",
    "spd_inv",
    "spd_sqrt",
    "sym_eig",
    "triple_bracket_oracle",
]
