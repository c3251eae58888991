"""Digital topology on binary rasters: simple points, components, holes.

Foreground uses 8-connectivity and background 4-connectivity, the standard
complementary pair for 2D digital images.  A pixel is *simple* when flipping
it between foreground and background cannot change the topology of either;
the criterion depends only on the 8-neighbourhood ring, so all 256 ring
configurations are precomputed into a lookup table.
"""

import numpy as np

__all__ = [
    "count_components",
    "count_holes",
    "euler_characteristic",
    "is_simple_point",
    "label_components",
]

# Ring offsets around a pixel, indexed by LUT bit position.
_RING = (
    (-1, -1), (-1, 0), (-1, 1),
    (0, -1), (0, 1),
    (1, -1), (1, 0), (1, 1),
)
_EDGE_BITS = tuple(i for i, (dy, dx) in enumerate(_RING) if abs(dy) + abs(dx) == 1)


def _ring_components(members: list, connect8: bool) -> list:
    """Connected components among ring cells (positions as (dy, dx))."""
    remaining = set(members)
    comps = []
    while remaining:
        seed = remaining.pop()
        comp = {seed}
        stack = [seed]
        while stack:
            cy, cx = stack.pop()
            for oy, ox in list(remaining):
                dy, dx = abs(cy - oy), abs(cx - ox)
                adjacent = max(dy, dx) == 1 if connect8 else dy + dx == 1
                if adjacent:
                    remaining.remove((oy, ox))
                    comp.add((oy, ox))
                    stack.append((oy, ox))
        comps.append(comp)
    return comps


def _build_simple_lut() -> np.ndarray:
    lut = np.zeros(256, dtype=bool)
    for cfg in range(256):
        fg = [_RING[i] for i in range(8) if cfg >> i & 1]
        bg = [_RING[i] for i in range(8) if not cfg >> i & 1]
        # Every ring cell is 8-adjacent to the centre, so the foreground
        # count is just the number of 8-components in the ring.
        t_fg = len(_ring_components(fg, connect8=True))
        # Background components must touch a 4-neighbour of the centre.
        edge_cells = {_RING[i] for i in _EDGE_BITS}
        t_bg = sum(
            1
            for comp in _ring_components(bg, connect8=False)
            if comp & edge_cells
        )
        lut[cfg] = t_fg == 1 and t_bg == 1
    return lut


_SIMPLE_LUT = _build_simple_lut()


def _ring_config(fg: np.ndarray, y: int, x: int) -> int:
    h, w = fg.shape
    cfg = 0
    for i, (dy, dx) in enumerate(_RING):
        yy, xx = y + dy, x + dx
        if 0 <= yy < h and 0 <= xx < w and fg[yy, xx]:
            cfg |= 1 << i
    return cfg


def is_simple_point(fg: np.ndarray, y: int, x: int) -> bool:
    """Whether flipping pixel (y, x) preserves digital topology.

    Pixels outside the raster count as background.  The test is symmetric:
    the same criterion covers adding the pixel to the foreground and
    removing it.
    """
    return bool(_SIMPLE_LUT[_ring_config(np.asarray(fg, dtype=bool), y, x)])


def _row_runs(mask: np.ndarray) -> tuple:
    """Maximal horizontal foreground runs ``(rows, starts, ends)`` in raster
    order; run ``k`` covers columns ``starts[k] <= x < ends[k]`` of its row."""
    h, w = mask.shape
    padded = np.zeros((h, w + 2), dtype=np.int8)
    padded[:, 1:-1] = mask
    step = np.diff(padded, axis=1)
    rows, starts = np.nonzero(step == 1)
    ends = np.nonzero(step == -1)[1]
    return rows, starts, ends


def _run_links(rows, starts, ends, width: int, slack: int) -> tuple:
    """All ``(i, j)`` with run ``j`` one row below run ``i`` and touching it.

    Runs touch when their column ranges overlap, widened by ``slack`` (1 for
    8-connectivity, where diagonal contact counts; 0 for 4-connectivity).
    Runs of a row are disjoint and sorted, so the runs touching ``i`` form
    one contiguous block of the next row, found by two binary searches on
    ``row * (width + 2) + column`` keys (which never mix rows).
    """
    span = width + 2
    start_keys = rows * span + starts
    end_keys = rows * span + ends
    below = (rows + 1) * span
    lo = np.searchsorted(end_keys, below + starts - slack, side="right")
    hi = np.searchsorted(start_keys, below + ends + slack, side="left")
    n = np.maximum(hi - lo, 0)
    src = np.repeat(np.arange(rows.size), n)
    first = np.repeat(lo - (np.cumsum(n) - n), n)
    return src, first + np.arange(src.size)


def label_components(mask, connectivity: int = 8) -> tuple:
    """Label connected components of a boolean mask.

    Returns ``(labels, count)`` where labels are 1-based and 0 marks
    background, numbered in the raster order of each component's first
    pixel.  ``connectivity`` is 4 or 8.

    Two-pass labelling over row runs (Wu, Otoo & Suzuki, "Optimizing
    two-pass connected-component labeling algorithms", PAA 2009): the runs
    of each row, a union-find over the runs of adjacent rows that touch, and
    one label per union-find root painted back onto the runs.
    """
    mask = np.asarray(mask, dtype=bool)
    if connectivity not in (4, 8):
        raise ValueError("connectivity must be 4 or 8")
    rows, starts, ends = _row_runs(mask)
    src, dst = _run_links(rows, starts, ends, mask.shape[1], 1 if connectivity == 8 else 0)

    # union by smaller index: a root is its component's first run in raster
    # order, which holds the component's first pixel
    parent = list(range(rows.size))

    def find(k):
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    for i, j in zip(src.tolist(), dst.tolist()):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    roots = np.array([find(k) for k in range(rows.size)], dtype=np.int64)
    first_runs, run_label = np.unique(roots, return_inverse=True)

    labels = np.zeros(mask.shape, dtype=np.int32)
    labels[mask] = np.repeat(run_label + 1, ends - starts)
    return labels, int(first_runs.size)


def count_components(mask, connectivity: int = 8) -> int:
    """Number of connected components of a boolean mask."""
    return label_components(mask, connectivity)[1]


def count_holes(mask) -> int:
    """Number of background 4-components fully enclosed by the foreground."""
    mask = np.asarray(mask, dtype=bool)
    labels, count = label_components(~mask, connectivity=4)
    if count == 0:
        return 0
    border = np.concatenate(
        [labels[0, :], labels[-1, :], labels[:, 0], labels[:, -1]]
    )
    outside = set(int(v) for v in np.unique(border) if v > 0)
    return count - len(outside)


def euler_characteristic(mask) -> int:
    """Components minus holes, under the (8, 4) connectivity convention."""
    return count_components(mask, 8) - count_holes(mask)
