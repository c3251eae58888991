"""Large-deformation tracking: iterate incremental solves, transport the
backward map and level set, warp the appearance, and preserve topology.

One outer iteration solves an incremental velocity between the warped first
frame and the target frame, advects the backward coordinate map and the
level set(s) along it (CFL-limited upwind sub-steps), then re-warps the
first frame through the accumulated map.  The loop stops once the tracked
region stays put for three consecutive iterations.
"""

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import NumericalError, RegionVanishedError, TrackAborted
from .flow import PiecewiseVelocity, SolverConfig, solve_infinitesimal
from .grid import (
    RegionPartition,
    bilinear_sample,
    identity_map,
    reinitialize_signed_distance,
    require_same_shape,
    signed_distance,
)
from .metrics import normal_jump
from .topology import _ring_config, _SIMPLE_LUT, count_components

__all__ = [
    "IterationDiagnostics",
    "TrackConfig",
    "TrackResult",
    "evolve_pair",
    "topology_guard",
    "track_sequence",
    "transport_step",
    "warp_image",
]

# Largest per-substep displacement, in pixels, allowed by the upwind scheme.
CFL_LIMIT = 0.5

TOPOLOGY_CLAMP_EPS = 1e-4


@dataclass(frozen=True)
class TrackConfig:
    """Controls for the incremental deformation loop."""

    solver: SolverConfig = dataclass_field(default_factory=SolverConfig)
    dt: float = 0.5
    max_inner_iters: int = 200
    converge_tol: float = 0.5
    topology_preserve: bool = True
    reinit_every: int = 10

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.max_inner_iters < 1:
            raise ValueError("max_inner_iters must be at least 1")
        if self.converge_tol < 0:
            raise ValueError("converge_tol must be non-negative")
        if self.reinit_every < 1:
            raise ValueError("reinit_every must be at least 1")


@dataclass
class IterationDiagnostics:
    """One row of the per-iteration diagnostics table.

    ``cg_iterations`` and ``cg_converged`` come from the iteration's
    velocity solve; ``components`` counts the 8-connected components of the
    tracked region after the iteration.
    """

    iteration: int
    residual: float
    area: int
    normal_jump_max: float
    components: int
    cg_iterations: int
    cg_converged: bool


@dataclass
class TrackResult:
    """Outcome of tracking one frame transition."""

    final_region: RegionPartition
    psi_final: np.ndarray
    backward_map: np.ndarray
    iterations_used: int
    converged: bool
    residual_trace: list
    diagnostics: list


def _upwind_derivative(u: np.ndarray, axis: int) -> tuple:
    """One-sided backward/forward differences along an axis.

    At the domain boundary the missing side falls back to the available
    one-sided difference so linear fields keep their exact slope.
    """
    fwd = np.empty_like(u)
    bwd = np.empty_like(u)
    if axis == 0:
        fwd[:-1, :] = u[1:, :] - u[:-1, :]
        fwd[-1, :] = u[-1, :] - u[-2, :] if u.shape[0] > 1 else 0.0
        bwd[1:, :] = u[1:, :] - u[:-1, :]
        bwd[0, :] = fwd[0, :]
    else:
        fwd[:, :-1] = u[:, 1:] - u[:, :-1]
        fwd[:, -1] = u[:, -1] - u[:, -2] if u.shape[1] > 1 else 0.0
        bwd[:, 1:] = u[:, 1:] - u[:, :-1]
        bwd[:, 0] = fwd[:, 0]
    return bwd, fwd


def _advect_scalar(u: np.ndarray, vx: np.ndarray, vy: np.ndarray, dt: float):
    bwd_x, fwd_x = _upwind_derivative(u, axis=1)
    bwd_y, fwd_y = _upwind_derivative(u, axis=0)
    dudx = np.where(vx > 0, bwd_x, np.where(vx < 0, fwd_x, 0.0))
    dudy = np.where(vy > 0, bwd_y, np.where(vy < 0, fwd_y, 0.0))
    return u - dt * (vx * dudx + vy * dudy)


def _cfl_substeps(v: np.ndarray, dt: float) -> tuple:
    """Equal sub-steps ``(n_sub, sub_dt)`` keeping ``sub_dt * max|v|`` within
    the CFL limit, ``|v|`` being the Euclidean speed per pixel."""
    vmax = float(np.sqrt((v**2).sum(axis=-1)).max()) if v.size else 0.0
    n_sub = max(1, int(math.ceil(dt * vmax / CFL_LIMIT - 1e-12)))
    return n_sub, dt / n_sub


def transport_step(field, velocity, dt: float):
    """First-order upwind advection of a scalar or vector field.

    The upwind side follows the sign of each velocity component.  When
    ``dt * max|v|`` (Euclidean speed) exceeds the CFL limit the step is split
    into equal sub-steps, keeping the update monotone.
    """
    field = np.asarray(field, dtype=np.float64)
    v = velocity.field if isinstance(velocity, PiecewiseVelocity) else velocity
    v = np.asarray(v, dtype=np.float64)
    require_same_shape(field, v)
    n_sub, sub_dt = _cfl_substeps(v, dt)
    vx = v[..., 0]
    vy = v[..., 1]
    out = field
    for _ in range(n_sub):
        if out.ndim == 2:
            out = _advect_scalar(out, vx, vy, sub_dt)
        else:
            out = np.stack(
                [_advect_scalar(out[..., c], vx, vy, sub_dt) for c in range(out.shape[-1])],
                axis=-1,
            )
    return out


def warp_image(image, backward_map) -> np.ndarray:
    """Pull ``image`` back through a per-pixel (x, y) source-coordinate map."""
    backward_map = np.asarray(backward_map, dtype=np.float64)
    if not np.all(np.isfinite(backward_map)):
        raise ValueError("backward map contains non-finite values")
    return bilinear_sample(image, backward_map)


def topology_guard(psi_old, psi_new, eps: float = TOPOLOGY_CLAMP_EPS) -> np.ndarray:
    """Veto level-set sign changes at non-simple points.

    Pixels whose sign differs between the two fields are visited in raster
    order; each flip is accepted only if the pixel is simple in the current
    (incrementally updated) foreground, otherwise the new value is clamped
    to a small value of the old sign.  Component and hole counts of the
    sub-zero set are therefore preserved exactly.
    """
    psi_old = np.asarray(psi_old, dtype=np.float64)
    psi_new = np.asarray(psi_new, dtype=np.float64)
    require_same_shape(psi_old, psi_new)
    fg = psi_old <= 0.0
    want = psi_new <= 0.0
    out = psi_new.copy()
    ys, xs = np.nonzero(fg != want)
    for y, x in zip(ys, xs):
        if _SIMPLE_LUT[_ring_config(fg, int(y), int(x))]:
            fg[y, x] = not fg[y, x]
        else:
            out[y, x] = -eps if fg[y, x] else eps
    return out


def _compose_labels(psis: dict, shape) -> np.ndarray:
    """Label raster from per-structure level sets (most-negative wins)."""
    labels = np.zeros(shape, dtype=np.int32)
    order = sorted(psis)
    stack = np.stack([psis[lab] for lab in order], axis=0)
    best = np.argmin(stack, axis=0)
    fg = stack.min(axis=0) <= 0.0
    lab_arr = np.asarray(order, dtype=np.int32)
    labels[fg] = lab_arr[best[fg]]
    return labels


def _union_psi(psis: dict) -> np.ndarray:
    return np.minimum.reduce(list(psis.values()))


def _clamp_map(bmap: np.ndarray, shape) -> np.ndarray:
    h, w = shape
    bmap[..., 0] = np.clip(bmap[..., 0], 0.0, w - 1.0)
    bmap[..., 1] = np.clip(bmap[..., 1], 0.0, h - 1.0)
    return bmap


def region_area_fractions(psi: np.ndarray) -> np.ndarray:
    """Per-pixel sub-pixel coverage of the sub-zero region.

    Assumes the level set is close to a unit-gradient distance function, so
    a pixel centred at value ``psi`` is covered by a fraction
    ``clip(0.5 - psi, 0, 1)`` of the region.  Used for the sub-pixel
    symmetric-difference convergence measure.
    """
    return np.clip(0.5 - np.asarray(psi, dtype=np.float64), 0.0, 1.0)


def region_symmetric_difference(psi_a: np.ndarray, psi_b: np.ndarray) -> float:
    """Sub-pixel symmetric-difference area between two level-set regions."""
    return float(
        np.abs(region_area_fractions(psi_a) - region_area_fractions(psi_b)).sum()
    )


def evolve_pair(image0, image1, region: RegionPartition, cfg: TrackConfig) -> TrackResult:
    """Track one frame transition by accumulating incremental deformations.

    Raises :class:`RegionVanishedError` if any tracked structure loses all
    its pixels during the evolution.
    """
    image0 = np.asarray(image0, dtype=np.float64)
    image1 = np.asarray(image1, dtype=np.float64)
    require_same_shape(image0, image1, region.labels)
    struct_labels = region.structure_labels
    if not struct_labels:
        raise ValueError("initial region has no structure labels")
    for lab in struct_labels:
        if region.area(lab) == 0:
            raise RegionVanishedError(lab, 0)

    h, w = image0.shape
    psis = {lab: signed_distance(region.labels == lab) for lab in struct_labels}
    backward_map = identity_map(h, w)
    current = image0
    # labels and union level set of the current psis, carried from each
    # iteration's end into the next partition and the final one
    labels = _compose_labels(psis, (h, w))
    union = _union_psi(psis)
    union_prev = union

    residual_trace = [float(np.abs(current - image1).mean())]
    diagnostics = []
    streak = 0
    converged = False
    iterations = 0

    for it in range(1, cfg.max_inner_iters + 1):
        iterations = it
        partition = RegionPartition(labels, psi=union)
        solve = solve_infinitesimal(current, image1, partition, cfg.solver)
        v = solve.velocity.field

        n_sub, sub_dt = _cfl_substeps(v, cfg.dt)
        for _ in range(n_sub):
            backward_map = transport_step(backward_map, v, sub_dt)
            for lab in struct_labels:
                advected = transport_step(psis[lab], v, sub_dt)
                if cfg.topology_preserve:
                    advected = topology_guard(psis[lab], advected)
                psis[lab] = advected
        backward_map = _clamp_map(backward_map, (h, w))
        # the convergence measure compares level sets before the reinit step
        union_now = _union_psi(psis)

        union = union_now
        if it % cfg.reinit_every == 0:
            for lab in struct_labels:
                # a level set with no pixel inside has nothing to reinitialise
                if not np.any(psis[lab] <= 0.0):
                    raise RegionVanishedError(lab, it)
                psis[lab] = reinitialize_signed_distance(psis[lab])
            union = _union_psi(psis)

        current = warp_image(image0, backward_map)
        labels = _compose_labels(psis, (h, w))
        for lab in struct_labels:
            if not np.any(labels == lab):
                raise RegionVanishedError(lab, it)

        residual = float(np.abs(current - image1).mean())
        residual_trace.append(residual)
        jump_max, _ = normal_jump(solve.velocity, cfg.solver)
        diagnostics.append(
            IterationDiagnostics(
                iteration=it,
                residual=residual,
                area=int((labels > 0).sum()),
                normal_jump_max=jump_max,
                components=count_components(labels > 0),
                cg_iterations=solve.iterations,
                cg_converged=solve.converged,
            )
        )

        sym_diff = region_symmetric_difference(union_prev, union_now)
        union_prev = union_now
        if sym_diff < cfg.converge_tol:
            streak += 1
            if streak >= 3:
                converged = True
                break
        else:
            streak = 0

    return TrackResult(
        final_region=RegionPartition(labels, psi=union),
        psi_final=union,
        backward_map=backward_map,
        iterations_used=iterations,
        converged=converged,
        residual_trace=residual_trace,
        diagnostics=diagnostics,
    )


def track_sequence(frames, region: RegionPartition, cfg: TrackConfig) -> list:
    """Chain :func:`evolve_pair` across a frame sequence.

    Each transition is initialised with the previous transition's final
    region.  A transition that fails numerically or loses a structure raises
    :class:`TrackAborted` carrying the results completed so far; input and
    configuration errors propagate unchanged.
    """
    frames = [np.asarray(f, dtype=np.float64) for f in frames]
    if len(frames) < 2:
        raise ValueError("need at least two frames")
    require_same_shape(*frames)
    results = []
    current = region
    for i in range(len(frames) - 1):
        try:
            res = evolve_pair(frames[i], frames[i + 1], current, cfg)
        except (NumericalError, RegionVanishedError) as exc:
            raise TrackAborted(i, exc, results) from exc
        results.append(res)
        current = res.final_region
    return results
