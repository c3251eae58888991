"""Structured-grid primitives shared by the solver and the tracker.

Conventions used throughout the package:

* scalar fields are float64 arrays of shape ``(H, W)``, indexed ``[row, col]``;
* vector fields are ``(H, W, 2)`` arrays with channel 0 the x (column)
  component and channel 1 the y (row) component;
* positions are ``(x, y)`` pairs in pixel units; grid spacing is one pixel
  along both axes;
* label rasters are small non-negative integers, 0 meaning exterior.
"""

import numpy as np

from .errors import GridShapeError

__all__ = [
    "RegionPartition",
    "bilinear_sample",
    "gradient_region_aware",
    "identity_map",
    "normals_from_levelset",
    "project_normal",
    "project_tangent",
    "reinitialize_signed_distance",
    "require_same_shape",
    "signed_distance",
    "zero_crossing_points",
]


def require_same_shape(*fields) -> None:
    """Raise :class:`GridShapeError` unless all fields share (H, W)."""
    shapes = {np.asarray(f).shape[:2] for f in fields}
    if len(shapes) > 1:
        raise GridShapeError(f"grid dimensions differ: {sorted(shapes)}")


def gradient_region_aware(image, labels=None) -> np.ndarray:
    """Spatial gradient that never differences across region boundaries.

    Uses a central difference where both axis neighbours carry the pixel's
    own label, the available one-sided difference where only one does, and
    zero where neither does.  ``labels=None`` treats the grid as a single
    region, reducing to central differences with one-sided stencils at the
    domain boundary.

    Returns an ``(H, W, 2)`` array (x derivative in channel 0).
    """
    image = np.asarray(image, dtype=np.float64)
    h, w = image.shape
    if labels is None:
        labels = np.zeros((h, w), dtype=np.int32)
    else:
        labels = np.asarray(labels)
        require_same_shape(image, labels)

    out = np.zeros((h, w, 2), dtype=np.float64)

    # x axis
    same_r = np.zeros((h, w), dtype=bool)
    same_r[:, :-1] = labels[:, :-1] == labels[:, 1:]
    same_l = np.zeros((h, w), dtype=bool)
    same_l[:, 1:] = same_r[:, :-1]
    val_r = np.empty_like(image)
    val_r[:, :-1] = image[:, 1:]
    val_r[:, -1] = image[:, -1]
    val_l = np.empty_like(image)
    val_l[:, 1:] = image[:, :-1]
    val_l[:, 0] = image[:, 0]
    out[..., 0] = np.select(
        [same_r & same_l, same_r, same_l],
        [(val_r - val_l) * 0.5, val_r - image, image - val_l],
        default=0.0,
    )

    # y axis
    same_d = np.zeros((h, w), dtype=bool)
    same_d[:-1, :] = labels[:-1, :] == labels[1:, :]
    same_u = np.zeros((h, w), dtype=bool)
    same_u[1:, :] = same_d[:-1, :]
    val_d = np.empty_like(image)
    val_d[:-1, :] = image[1:, :]
    val_d[-1, :] = image[-1, :]
    val_u = np.empty_like(image)
    val_u[1:, :] = image[:-1, :]
    val_u[0, :] = image[0, :]
    out[..., 1] = np.select(
        [same_d & same_u, same_d, same_u],
        [(val_d - val_u) * 0.5, val_d - image, image - val_u],
        default=0.0,
    )
    return out


def bilinear_sample(image, points) -> np.ndarray:
    """Bilinear interpolation of ``image`` at (x, y) positions.

    Positions are clamped to the valid domain before interpolation, so
    samples outside the grid take boundary values.
    """
    image = np.asarray(image, dtype=np.float64)
    h, w = image.shape
    pts = np.asarray(points, dtype=np.float64)
    x = np.clip(pts[..., 0], 0.0, w - 1.0)
    y = np.clip(pts[..., 1], 0.0, h - 1.0)
    x0 = np.clip(np.floor(x).astype(np.int64), 0, max(w - 2, 0))
    y0 = np.clip(np.floor(y).astype(np.int64), 0, max(h - 2, 0))
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = x - x0
    fy = y - y0
    top = (1.0 - fx) * image[y0, x0] + fx * image[y0, x1]
    bot = (1.0 - fx) * image[y1, x0] + fx * image[y1, x1]
    return (1.0 - fy) * top + fy * bot


def project_normal(v, normal) -> np.ndarray:
    """Component of ``v`` along the unit vector ``normal``: ``(v.n) n``.

    Broadcasts over leading dimensions; rejects normals whose length
    deviates from 1 by more than 1e-6.
    """
    v = np.asarray(v, dtype=np.float64)
    n = np.asarray(normal, dtype=np.float64)
    length = np.sqrt((n * n).sum(axis=-1))
    if np.any(np.abs(length - 1.0) > 1e-6):
        raise ValueError("normal must have unit length")
    dot = (v * n).sum(axis=-1, keepdims=True)
    return dot * n


def project_tangent(v, normal) -> np.ndarray:
    """Component of ``v`` orthogonal to the unit vector ``normal``."""
    return np.asarray(v, dtype=np.float64) - project_normal(v, normal)


def identity_map(height: int, width: int) -> np.ndarray:
    """Per-pixel (x, y) coordinate field of shape (H, W, 2)."""
    xs = np.arange(width, dtype=np.float64)
    ys = np.arange(height, dtype=np.float64)
    out = np.empty((height, width, 2), dtype=np.float64)
    out[..., 0] = xs[None, :]
    out[..., 1] = ys[:, None]
    return out


def signed_distance(mask) -> np.ndarray:
    """Signed Euclidean distance to the region boundary, negative inside.

    The boundary is taken as the midpoints between opposite-label 4-neighbour
    pairs, so adjacent pixels straddling it carry -0.5 / +0.5 and the
    discrete gradient stays near unit magnitude right through the interface.
    Each pixel's value is its distance to the nearest such midpoint, which
    avoids the staircase wiggle pixel-centre distances show along diagonal
    boundaries.
    """
    mask = np.asarray(mask, dtype=bool)
    count = int(mask.sum())
    if count == 0 or count == mask.size:
        raise ValueError("region must be non-empty and not cover the whole grid")
    w = mask.shape[1]
    a, b = _interface_pairs(mask)
    pts = np.stack([(a % w + b % w) / 2.0, (a // w + b // w) / 2.0], axis=1)
    d = _min_distance_to_points(mask.shape, pts)
    return np.where(mask, -d, d)


def zero_crossing_points(psi) -> np.ndarray:
    """Sub-pixel zero crossings of a level-set function as (M, 2) positions.

    Collects linearly interpolated crossings along horizontal and vertical
    grid edges plus any pixel centres where the function vanishes exactly.
    """
    psi = np.asarray(psi, dtype=np.float64)
    h, w = psi.shape
    pts = []

    zr, zc = np.nonzero(psi == 0.0)
    if zr.size:
        pts.append(np.stack([zc.astype(np.float64), zr.astype(np.float64)], axis=1))

    a = psi[:, :-1]
    b = psi[:, 1:]
    rr, cc = np.nonzero(a * b < 0.0)
    if rr.size:
        t = a[rr, cc] / (a[rr, cc] - b[rr, cc])
        pts.append(np.stack([cc + t, rr.astype(np.float64)], axis=1))

    a = psi[:-1, :]
    b = psi[1:, :]
    rr, cc = np.nonzero(a * b < 0.0)
    if rr.size:
        t = a[rr, cc] / (a[rr, cc] - b[rr, cc])
        pts.append(np.stack([cc.astype(np.float64), rr + t], axis=1))

    if not pts:
        return np.zeros((0, 2), dtype=np.float64)
    return np.concatenate(pts, axis=0)


# points per chunk of _min_distance_to_points
_POINT_CHUNK = 2048


def _min_distance_to_points(shape, pts: np.ndarray) -> np.ndarray:
    """Euclidean distance from every pixel centre to the nearest point.

    Squared axis offsets are tabulated once per column (``(w, M)``) and per
    row (``(h, M)``); each row's distances are then one ``(w, M)`` sum and
    minimum.  Points go in chunks, which bounds the tables' memory.
    """
    h, w = shape
    xs = np.arange(w, dtype=np.float64)[:, None]
    ys = np.arange(h, dtype=np.float64)[:, None]
    best = np.full((h, w), np.inf)
    for s in range(0, pts.shape[0], _POINT_CHUNK):
        dx2 = (xs - pts[s : s + _POINT_CHUNK, 0]) ** 2
        dy2 = (ys - pts[s : s + _POINT_CHUNK, 1]) ** 2
        for y in range(h):
            np.minimum(best[y], np.min(dx2 + dy2[y], axis=1), out=best[y])
    return np.sqrt(best)


def reinitialize_signed_distance(psi) -> np.ndarray:
    """Rebuild a signed distance function from the current zero level set.

    Distances are measured to the sub-pixel crossing points, so the interface
    does not get re-quantised to pixel centres; signs are preserved exactly.
    """
    psi = np.asarray(psi, dtype=np.float64)
    pts = zero_crossing_points(psi)
    if pts.shape[0] == 0:
        raise ValueError("level set has no zero crossing")
    d = _min_distance_to_points(psi.shape, pts)
    return np.where(psi <= 0.0, -d, d)


def normals_from_levelset(psi, pairs) -> np.ndarray:
    """Unit interface normals per pair from the level-set gradient.

    ``pairs`` is a (P, 2) array of flat pixel indices (a, b) of 4-adjacent
    pixels straddling the interface.  The gradient is taken by central
    differences and averaged over the two endpoints; where its magnitude
    falls below 1e-8 the normal falls back to the a-to-b axis direction,
    oriented toward the increasing level-set side.
    """
    psi = np.asarray(psi, dtype=np.float64)
    h, w = psi.shape
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if pairs.shape[0] == 0:
        return np.zeros((0, 2), dtype=np.float64)
    # an axis with a single sample has no derivative along it
    gx = np.gradient(psi, axis=1) if w > 1 else np.zeros_like(psi)
    gy = np.gradient(psi, axis=0) if h > 1 else np.zeros_like(psi)
    g = np.stack([gx, gy], axis=-1).reshape(-1, 2)
    a = pairs[:, 0]
    b = pairs[:, 1]
    mid = 0.5 * (g[a] + g[b])
    nrm = np.sqrt((mid * mid).sum(axis=1))
    ok = nrm >= 1e-8
    n = np.zeros_like(mid)
    n[ok] = mid[ok] / nrm[ok, None]
    if not ok.all():
        axis = np.stack(
            [(b % w) - (a % w), (b // w) - (a // w)], axis=1
        ).astype(np.float64)
        flip = psi.ravel()[b] < psi.ravel()[a]
        axis[flip] *= -1.0
        n[~ok] = axis[~ok]
    return n


def _interface_pairs(labels: np.ndarray):
    """All 4-adjacent (a, b) flat-index pairs with differing labels.

    ``a`` is always the left (or top) pixel, so each pair appears once.
    """
    h, w = labels.shape
    idx = np.arange(h * w, dtype=np.int64).reshape(h, w)

    diff = labels[:, :-1] != labels[:, 1:]
    ha = idx[:, :-1][diff]
    hb = idx[:, 1:][diff]

    diff = labels[:-1, :] != labels[1:, :]
    va = idx[:-1, :][diff]
    vb = idx[1:, :][diff]

    return np.concatenate([ha, va]), np.concatenate([hb, vb])


class RegionPartition:
    """Pixel labels plus the derived interface-pair list and unit normals.

    Interface pairs are 4-adjacent pixel pairs with differing labels, each
    listed once with the left/top pixel first: all horizontal pairs in
    row-major order, then all vertical ones.

    A pair's normal is the gradient of its structure side's level set (the
    lower positive label where two structures meet).  ``level_sets`` maps a
    structure label to its level set (negative inside); a structure without
    one uses its mask's :func:`signed_distance`.  Given level sets are read
    at construction, so no caller array is kept; otherwise the normals are
    built on the first read of :attr:`normals`.
    """

    def __init__(self, labels, level_sets=None):
        labels = np.ascontiguousarray(labels)
        if labels.ndim != 2:
            raise ValueError("labels must be a 2D raster")
        if not np.issubdtype(labels.dtype, np.integer):
            raise ValueError("labels must be integers")
        if labels.min(initial=0) < 0:
            raise ValueError("labels must be non-negative")
        self.labels = labels.astype(np.int32, copy=False)
        self.height, self.width = labels.shape
        pa, pb = _interface_pairs(self.labels)
        self.pair_a = pa
        self.pair_b = pb
        flat = self.labels.ravel()
        self.label_a = flat[pa]
        self.label_b = flat[pb]
        self._normals = None
        if level_sets is not None:
            self._normals = self._structure_normals(level_sets)

    @property
    def normals(self) -> np.ndarray:
        """Unit interface normals, one row per pair."""
        if self._normals is None:
            self._normals = self._structure_normals({})
        return self._normals

    @property
    def pairs(self) -> np.ndarray:
        return np.stack([self.pair_a, self.pair_b], axis=1)

    @property
    def num_pairs(self) -> int:
        return int(self.pair_a.shape[0])

    @property
    def structure_labels(self) -> list:
        present = np.unique(self.labels)
        return [int(v) for v in present if v > 0]

    def area(self, label: int) -> int:
        return int((self.labels == label).sum())

    def _structure_normals(self, level_sets: dict) -> np.ndarray:
        require_same_shape(self.labels, *level_sets.values())
        la = self.label_a
        lb = self.label_b
        side = np.where(la == 0, lb, np.where(lb == 0, la, np.minimum(la, lb)))
        normals = np.zeros((self.num_pairs, 2), dtype=np.float64)
        for lab in np.unique(side):
            sel = side == lab
            psi = level_sets.get(int(lab))
            if psi is None:
                psi = signed_distance(self.labels == lab)
            normals[sel] = normals_from_levelset(psi, self.pairs[sel])
        return normals
