"""Boundary metrics, quasi-symmetry checks, and cover experiments on model
CAT(0) spaces (Euclidean R^n, the regular tree T_k, the hyperbolic plane)."""

from .spaces import (
    EuclideanBoundary,
    EuclideanPoint,
    HyperbolicBoundary,
    HyperbolicPoint,
    IdenticalBoundaryPointsError,
    Ray,
    Space,
    SpaceMismatchError,
    TreeBoundary,
    TreePoint,
    branch_time,
    dist,
    euclidean_space,
    hyperbolic_plane,
    ray_point,
    sample_boundary,
    tree_space,
)
from .metrics import (
    ConeNeighborhood,
    DivergentGromovProductError,
    MetricSpec,
    SeparationNotReachedError,
    cone_contains,
    eval_dA,
    eval_dbar,
    eval_dbar_extended,
    gromov_product,
    spec_dA,
    spec_dbar,
)
from .quasisym import (
    ControlFunction,
    Envelope,
    compose_eta,
    eta_change_A,
    eta_change_basepoint,
    linear_control,
    power_control,
    power_law_fit,
    qs_envelope,
    uniformly_perfect_check,
    verify_control,
)
from .covers import (
    Cover,
    CoverSet,
    CoverStats,
    LatticeBallSystem,
    ScaleSchedule,
    annular_pushin_cover,
    boundary_pushout_cover,
    colored_boundary_cover,
    cover_stats,
    ell_dim_estimate,
    lattice_ball_cover,
)
from .visual import VisualFit, nonqs_witness, nonvisual_witness_dA, visual_fit

__version__ = "0.1.0"
