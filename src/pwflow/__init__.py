"""Piecewise optical flow with interface-coupled regularization and
level-set region tracking.

The solver estimates a velocity field per labelled region, smoothing only
within regions while matching normal velocity components across region
interfaces (exactly, or through a quadratic penalty).  The tracker composes
such incremental velocities into large deformations, transporting a level
set and a backward coordinate map, and propagates segmentations across
image sequences.
"""

from .errors import (
    ConfigError,
    GridShapeError,
    InputFormatError,
    NumericalError,
    PwflowError,
    RegionVanishedError,
    TrackAborted,
)
from .flow import (
    MODES,
    CGResult,
    MotionOperator,
    PiecewiseVelocity,
    SolverConfig,
    SolveResult,
    energy,
    ghost_values_hard,
    ghost_values_soft,
    solve_cg,
    solve_infinitesimal,
)
from .grid import (
    RegionPartition,
    bilinear_sample,
    gradient_region_aware,
    identity_map,
    normals_from_levelset,
    project_normal,
    project_tangent,
    reinitialize_signed_distance,
    signed_distance,
)
from .metrics import (
    apd,
    contours_from_levelset,
    contours_from_mask,
    dice,
    endpoint_error,
    hausdorff,
    normal_jump,
    tangential_jump,
)
from .synth import SynthSpec, generate, gt_backward_map, texture
from .tracker import (
    TrackConfig,
    TrackResult,
    evolve_pair,
    topology_guard,
    track_sequence,
    transport_step,
    warp_image,
)

__version__ = "0.1.0"

__all__ = [
    "MODES",
    "CGResult",
    "ConfigError",
    "GridShapeError",
    "InputFormatError",
    "MotionOperator",
    "NumericalError",
    "PiecewiseVelocity",
    "PwflowError",
    "RegionPartition",
    "RegionVanishedError",
    "SolveResult",
    "SolverConfig",
    "SynthSpec",
    "TrackAborted",
    "TrackConfig",
    "TrackResult",
    "apd",
    "bilinear_sample",
    "contours_from_levelset",
    "contours_from_mask",
    "dice",
    "endpoint_error",
    "energy",
    "evolve_pair",
    "generate",
    "ghost_values_hard",
    "ghost_values_soft",
    "gradient_region_aware",
    "gt_backward_map",
    "hausdorff",
    "identity_map",
    "normal_jump",
    "normals_from_levelset",
    "project_normal",
    "project_tangent",
    "reinitialize_signed_distance",
    "signed_distance",
    "solve_cg",
    "solve_infinitesimal",
    "tangential_jump",
    "texture",
    "topology_guard",
    "track_sequence",
    "transport_step",
    "warp_image",
]
