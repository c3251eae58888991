"""Segmentation and flow accuracy measures plus the interface-jump diagnostic.

Contours are traced from level-set zero crossings by marching squares with
linear interpolation along cell edges, so algorithm output and rasterised
ground truth are measured the same way.
"""

import numpy as np

from .errors import GridShapeError
from .flow import (
    PiecewiseVelocity,
    SolverConfig,
    _ghost_coefficients,
    _region_alphas,
)
# signed_distance is unused here; bench/tracing.py wraps it under this name
from .grid import require_same_shape, signed_distance  # noqa: F401

__all__ = [
    "apd",
    "contours_from_levelset",
    "contours_from_mask",
    "dice",
    "endpoint_error",
    "hausdorff",
    "normal_jump",
    "tangential_jump",
]


def _as_mask(obj, label):
    labels = getattr(obj, "labels", obj)
    labels = np.asarray(labels)
    return labels == label


def dice(a, b, label: int = 1) -> float:
    """Dice overlap 2|A&B| / (|A| + |B|); 1.0 when both masks are empty."""
    ma = _as_mask(a, label)
    mb = _as_mask(b, label)
    if ma.shape != mb.shape:
        raise GridShapeError(f"mask shapes differ: {ma.shape} vs {mb.shape}")
    denom = int(ma.sum()) + int(mb.sum())
    if denom == 0:
        return 1.0
    return 2.0 * int((ma & mb).sum()) / denom


# ---------------------------------------------------------------------------
# Contour extraction (marching squares with edge interpolation)
# ---------------------------------------------------------------------------

# Segment table indexed by the 4-bit inside pattern of cell corners
# (bit 0: top-left, 1: top-right, 2: bottom-right, 3: bottom-left).
# Entries list pairs of cell edges (0: top, 1: right, 2: bottom, 3: left).
_CASES = {
    0: [],
    1: [(3, 0)],
    2: [(0, 1)],
    3: [(3, 1)],
    4: [(1, 2)],
    5: None,  # saddle
    6: [(0, 2)],
    7: [(3, 2)],
    8: [(2, 3)],
    9: [(2, 0)],
    10: None,  # saddle
    11: [(2, 1)],
    12: [(1, 3)],
    13: [(1, 0)],
    14: [(0, 3)],
    15: [],
}


def _edge_point(psi, i, j, edge):
    """Interpolated zero crossing on one edge of cell (i, j)."""
    if edge == 0:
        a, b = psi[i, j], psi[i, j + 1]
        pa, pb = (float(j), float(i)), (float(j + 1), float(i))
    elif edge == 1:
        a, b = psi[i, j + 1], psi[i + 1, j + 1]
        pa, pb = (float(j + 1), float(i)), (float(j + 1), float(i + 1))
    elif edge == 2:
        a, b = psi[i + 1, j], psi[i + 1, j + 1]
        pa, pb = (float(j), float(i + 1)), (float(j + 1), float(i + 1))
    else:
        a, b = psi[i, j], psi[i + 1, j]
        pa, pb = (float(j), float(i)), (float(j), float(i + 1))
    t = 0.5 if a == b else a / (a - b)
    t = min(max(t, 0.0), 1.0)
    return (pa[0] + t * (pb[0] - pa[0]), pa[1] + t * (pb[1] - pa[1]))


def contours_from_levelset(psi, level: float = 0.0) -> list:
    """Closed sub-pixel contours of ``{psi = level}`` as (N, 2) point arrays."""
    psi = np.asarray(psi, dtype=np.float64) - level
    h, w = psi.shape
    inside = psi <= 0.0
    segments = []
    cells = np.nonzero(
        (inside[:-1, :-1] != inside[:-1, 1:])
        | (inside[:-1, :-1] != inside[1:, :-1])
        | (inside[:-1, :-1] != inside[1:, 1:])
    )
    for i, j in zip(*cells):
        code = (
            int(inside[i, j])
            | int(inside[i, j + 1]) << 1
            | int(inside[i + 1, j + 1]) << 2
            | int(inside[i + 1, j]) << 3
        )
        pairs = _CASES[code]
        if pairs is None:
            centre = 0.25 * (
                psi[i, j] + psi[i, j + 1] + psi[i + 1, j] + psi[i + 1, j + 1]
            )
            if code == 5:
                pairs = [(3, 0), (1, 2)] if centre > 0 else [(3, 2), (1, 0)]
            else:
                pairs = [(0, 1), (2, 3)] if centre > 0 else [(0, 3), (2, 1)]
        for ea, eb in pairs:
            p = _edge_point(psi, i, j, ea)
            q = _edge_point(psi, i, j, eb)
            if (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 > 1e-24:
                segments.append((p, q))

    return _stitch_segments(segments)


def _key(pt):
    return (round(pt[0] * 1e7), round(pt[1] * 1e7))


def _stitch_segments(segments) -> list:
    """Chain consistently oriented segments into closed loops."""
    by_start = {}
    for idx, (p, _) in enumerate(segments):
        by_start.setdefault(_key(p), []).append(idx)
    used = [False] * len(segments)
    loops = []
    for first in range(len(segments)):
        if used[first]:
            continue
        start_key = _key(segments[first][0])
        cur_key = start_key
        loop = []
        while True:
            seg_idx = None
            for cand in by_start.get(cur_key, ()):
                if not used[cand]:
                    seg_idx = cand
                    break
            if seg_idx is None:
                break
            used[seg_idx] = True
            p, q = segments[seg_idx]
            loop.append(p)
            cur_key = _key(q)
            if cur_key == start_key:
                break
        if len(loop) >= 3:
            loops.append(np.asarray(loop, dtype=np.float64))
    return loops


def contours_from_mask(mask) -> list:
    """Contours of a binary mask, ``[]`` when it is empty or full.

    Marching squares reads only pixels with an opposite-label 4-neighbour,
    whose signed distance is exactly -0.5 or 0.5: those two values suffice.
    """
    mask = np.asarray(mask, dtype=bool)
    return contours_from_levelset(np.where(mask, -0.5, 0.5))


def _loops(obj) -> list:
    if isinstance(obj, np.ndarray):
        return [np.asarray(obj, dtype=np.float64)]
    return [np.asarray(lp, dtype=np.float64) for lp in obj]


def _all_points(loops) -> np.ndarray:
    return np.concatenate(loops, axis=0)


def _all_segments(loops) -> tuple:
    starts = []
    ends = []
    for lp in loops:
        starts.append(lp)
        ends.append(np.roll(lp, -1, axis=0))
    return np.concatenate(starts), np.concatenate(ends)


def _point_min_dists(points: np.ndarray, others: np.ndarray) -> np.ndarray:
    out = np.full(points.shape[0], np.inf)
    for s in range(0, others.shape[0], 1024):
        chunk = others[s : s + 1024]
        d2 = ((points[:, None, :] - chunk[None, :, :]) ** 2).sum(axis=-1)
        out = np.minimum(out, d2.min(axis=1))
    return np.sqrt(out)


def _point_segment_dists(points: np.ndarray, seg_a: np.ndarray, seg_b: np.ndarray):
    ab = seg_b - seg_a
    ab2 = (ab * ab).sum(axis=1)
    ab2 = np.where(ab2 == 0.0, 1.0, ab2)
    out = np.full(points.shape[0], np.inf)
    for s in range(0, seg_a.shape[0], 512):
        a = seg_a[s : s + 512]
        d = ab[s : s + 512]
        d2 = ab2[s : s + 512]
        ap = points[:, None, :] - a[None, :, :]
        t = np.clip((ap * d[None, :, :]).sum(axis=-1) / d2[None, :], 0.0, 1.0)
        proj = a[None, :, :] + t[..., None] * d[None, :, :]
        dist2 = ((points[:, None, :] - proj) ** 2).sum(axis=-1)
        out = np.minimum(out, dist2.min(axis=1))
    return np.sqrt(out)


def hausdorff(contour_a, contour_b) -> float:
    """Symmetric Hausdorff distance between two contour sample sets."""
    pa = _all_points(_loops(contour_a))
    pb = _all_points(_loops(contour_b))
    if pa.shape[0] == 0 or pb.shape[0] == 0:
        raise ValueError("contours must be non-empty")
    d_ab = _point_min_dists(pa, pb).max()
    d_ba = _point_min_dists(pb, pa).max()
    return float(max(d_ab, d_ba))


def apd(contour_a, contour_b) -> float:
    """Average perpendicular distance between two contours.

    Symmetric: the mean of each sample's distance to the other contour's
    nearest segment, averaged over both directions.
    """
    la = _loops(contour_a)
    lb = _loops(contour_b)
    pa = _all_points(la)
    pb = _all_points(lb)
    if pa.shape[0] == 0 or pb.shape[0] == 0:
        raise ValueError("contours must be non-empty")
    sa = _all_segments(la)
    sb = _all_segments(lb)
    d_ab = _point_segment_dists(pa, *sb).mean()
    d_ba = _point_segment_dists(pb, *sa).mean()
    return float(0.5 * (d_ab + d_ba))


def endpoint_error(flow, gt_flow, mask=None) -> tuple:
    """Mean and max Euclidean flow error, optionally restricted to a mask."""
    flow = np.asarray(flow, dtype=np.float64)
    gt_flow = np.asarray(gt_flow, dtype=np.float64)
    require_same_shape(flow, gt_flow)
    err = np.sqrt(((flow - gt_flow) ** 2).sum(axis=-1))
    if mask is not None:
        sel = np.asarray(getattr(mask, "labels", mask))
        if sel.dtype != bool:
            sel = sel > 0
        require_same_shape(err, sel)
        err = err[sel]
    if err.size == 0:
        return 0.0, 0.0
    return float(err.mean()), float(err.max())


def _pair_quantities(velocity: PiecewiseVelocity, cfg: SolverConfig):
    part = velocity.partition
    if part.num_pairs == 0:
        return None
    _, _, aa, ab = _region_alphas(part, cfg)
    flat = velocity.field.reshape(-1, 2)
    va = flat[part.pair_a]
    vb = flat[part.pair_b]
    return part.normals, aa, ab, va, vb


def normal_jump(velocity: PiecewiseVelocity, cfg: SolverConfig) -> tuple:
    """Interface mismatch of normal velocity components, per the solver mode.

    The two fields are completed across each interface pair, along the
    partition's normals, with the mode's ghost formulas, and the jump is
    measured where that mode imposes its interface condition: for ``hard``
    the difference of the two face extensions (identically zero when the
    condition holds), for ``soft`` the larger same-pixel residual of the
    penalised conditions, and for the uncoupled modes the raw difference
    across the pair.  Returns ``(max, mean)`` over interface pairs.
    """
    q = _pair_quantities(velocity, cfg)
    if q is None:
        return 0.0, 0.0
    normals, aa, ab, va, vb = q
    an = (va * normals).sum(axis=1)
    bn = (vb * normals).sum(axis=1)
    d = bn - an
    if cfg.mode in ("global", "region_only"):
        jump = np.abs(d)
    else:
        c_ext, d_ext = _ghost_coefficients(cfg.mode, aa, ab, cfg.beta)
        ghost_a_at_b = an + c_ext * d
        ghost_b_at_a = bn - d_ext * d
        if cfg.mode == "hard":
            jump = np.abs(ghost_a_at_b - ghost_b_at_a)
        else:
            jump = np.maximum(np.abs(an - ghost_b_at_a), np.abs(ghost_a_at_b - bn))
    return float(jump.max()), float(jump.mean())


def tangential_jump(velocity: PiecewiseVelocity, cfg: SolverConfig) -> tuple:
    """Raw tangential velocity mismatch across interface pairs (max, mean)."""
    q = _pair_quantities(velocity, cfg)
    if q is None:
        return 0.0, 0.0
    normals, _, _, va, vb = q
    d = vb - va
    dn = (d * normals).sum(axis=1, keepdims=True)
    tang = d - dn * normals
    jump = np.sqrt((tang**2).sum(axis=1))
    return float(jump.max()), float(jump.mean())
