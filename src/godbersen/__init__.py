"""Exact rational-arithmetic verification of Godbersen-type mixed-volume
inequalities on polytopes: support functions, mixed volumes, the anchor-point
halfspace construction, the centroid inclusion -K in nK, and the concave
integral inequality behind it.
"""

from .concave import (
    BrunnMinkowskiResult,
    IntegralCheckResult,
    PLConcave,
    bm_check,
    bridge_inequality,
    godbersen_integral,
    godbersen_integral_check,
    random_concave,
    slice_root_concavity,
)
from .errors import (
    CombinatorialBlowup,
    DegenerateInput,
    DimensionMismatch,
    GodbersenError,
    InvalidM,
    LemmaViolation,
    NotConcave,
    SingularMatrix,
    TheoremViolation,
    ZeroDirection,
)
from .generators import GenSpec, cross_polytope, generate, standard_simplex, unit_cube
from .geometry import (
    Facet,
    Polytope,
    build_hull,
    reflect,
    scale,
    support,
    transform,
    translate,
)
from .halfspaces import (
    FeasibilityResult,
    HalfSpace,
    System,
    ak_feasibility,
    ak_system,
    anchor_unique,
    feasibility,
    helly_audit,
    make_system,
)
from .inclusion import (
    TightnessEntry,
    TightnessProfile,
    center_at_centroid,
    directional_moment,
    tightness_profile,
)
from .mixedvol import (
    GodbersenEntry,
    GodbersenReport,
    MixedVolumeProfile,
    godbersen_report,
    mv_first,
    mv_profile,
)
from .rationals import Rat, format_rational, parse_rational
from .sections import SectionProfile, section_profile
from .sweep import SweepRow, SweepSummary, check_body, sweep

__version__ = "0.1.0"
