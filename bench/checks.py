"""Independent oracles for the benchmark's correctness checks.

Everything here is computed from the workloads' closed-form geometry with
plain numpy, never through ``pwflow``: the analytic disc masks and backward
maps of the synthetic sequence, the two-disc pursuit, an 8-connected
labelling, and readers for the PGM masks and the ``eval.tsv`` table the
program writes.  Each ``check_*`` function raises :class:`CheckFailed` when
an output disagrees with its oracle.
"""

import math

import numpy as np

# The default synthetic sequence, restated so the oracle does not read the
# program's defaults.
DISC_SIZE = 128
DISC_CENTRE = (64.0, 64.0)
DISC_RADIUS = 30.0
DISC_CONTRACTION = 0.97
DISC_ROT_IN_DEG = 3.0
DISC_ROT_OUT_DEG = -3.0
DISC_FRAMES = 10

# Two-disc pursuit: disc A starts at x = 13.5 and moves 2 px per frame,
# disc B starts at x = 35.5 and moves 1 px per frame and is drawn in front.
PURSUIT_W, PURSUIT_H = 64, 48
PURSUIT_FRAMES = 9
PURSUIT_RADIUS_SQ = 64.0
PURSUIT_ROW = 24.0
PURSUIT_A = (13.5, 2.0)
PURSUIT_B = (35.5, 1.0)

DICE_FLOOR_DISC = 0.93
DICE_FLOOR_PURSUIT = 0.9
# Each digitised disc contour lies within half a pixel of its circle, so
# the distance between two of them is within one pixel of |r_a - r_b|; the
# symmetric mean (APD) averages the two half-pixel errors out further.
APD_TOL_PX = 0.5
HD_TOL_PX = 1.0
# eval.tsv prints six decimals; displacements pass through float32 files.
TABLE_TOL = 1e-6
EE_TABLE_TOL = 2e-6


class CheckFailed(Exception):
    """An output of the program disagrees with its independent oracle."""


def _pixel_grid(h, w):
    ys, xs = np.mgrid[0:h, 0:w]
    return xs.astype(np.float64), ys.astype(np.float64)


def disc_radius(t: int) -> float:
    return DISC_RADIUS * DISC_CONTRACTION**t


def disc_mask(t: int) -> np.ndarray:
    """Pixels of frame ``t`` whose centre lies in the contracted disc."""
    xs, ys = _pixel_grid(DISC_SIZE, DISC_SIZE)
    dx = xs - DISC_CENTRE[0]
    dy = ys - DISC_CENTRE[1]
    r = disc_radius(t)
    return dx * dx + dy * dy <= r * r


def disc_backward_map(t: int) -> np.ndarray:
    """Source (x, y) in frame ``t`` of every pixel of frame ``t + 1``.

    Frame t+1 is frame t contracted by ``DISC_CONTRACTION`` about the centre
    and rotated by the region's angle, so the inverse scales by 1/s and
    rotates back; the region is the disc of frame t+1.
    """
    xs, ys = _pixel_grid(DISC_SIZE, DISC_SIZE)
    cx, cy = DISC_CENTRE
    dx = xs - cx
    dy = ys - cy
    theta = np.where(disc_mask(t + 1), DISC_ROT_IN_DEG, DISC_ROT_OUT_DEG)
    theta = np.radians(-theta)
    c, s = np.cos(theta), np.sin(theta)
    inv = 1.0 / DISC_CONTRACTION
    out = np.empty((DISC_SIZE, DISC_SIZE, 2))
    out[..., 0] = cx + inv * (c * dx - s * dy)
    out[..., 1] = cy + inv * (s * dx + c * dy)
    return out


def identity_coords(h: int, w: int) -> np.ndarray:
    xs, ys = _pixel_grid(h, w)
    return np.stack([xs, ys], axis=-1)


def pursuit_masks(s: int):
    """Analytic masks (disc A, disc B) of pursuit frame ``s``."""
    xs, ys = _pixel_grid(PURSUIT_H, PURSUIT_W)
    ax = PURSUIT_A[0] + PURSUIT_A[1] * s
    bx = PURSUIT_B[0] + PURSUIT_B[1] * s
    m_a = (xs - ax) ** 2 + (ys - PURSUIT_ROW) ** 2 <= PURSUIT_RADIUS_SQ
    m_b = (xs - bx) ** 2 + (ys - PURSUIT_ROW) ** 2 <= PURSUIT_RADIUS_SQ
    return m_a, m_b


def pursuit_sequence(tex_a: np.ndarray, tex_b: np.ndarray):
    """Frames and union masks of the pursuit, textures moving with the discs."""
    frames, masks = [], []
    for s in range(PURSUIT_FRAMES):
        m_a, m_b = pursuit_masks(s)
        ta = np.roll(tex_a, int(PURSUIT_A[1]) * s, axis=1)
        tb = np.roll(tex_b, int(PURSUIT_B[1]) * s, axis=1)
        img = np.full((PURSUIT_H, PURSUIT_W), 0.5)
        img[m_b] = tb[m_b]
        front_a = m_a & ~m_b
        img[front_a] = ta[front_a]
        frames.append(img)
        masks.append(m_a | m_b)
    return frames, masks


def pursuit_backward_map(s: int) -> np.ndarray:
    """Source in frame ``s`` of every pixel of frame ``s + 1``."""
    m_a, m_b = pursuit_masks(s + 1)
    out = identity_coords(PURSUIT_H, PURSUIT_W)
    out[..., 0] -= np.where(m_b, PURSUIT_B[1], np.where(m_a, PURSUIT_A[1], 0.0))
    return out


def dice(a, b) -> float:
    a = np.asarray(a, dtype=bool)
    b = np.asarray(b, dtype=bool)
    return 2.0 * int(np.count_nonzero(a & b)) / (int(a.sum()) + int(b.sum()))


def mean_endpoint_error(bmap, gt_bmap) -> float:
    d = np.asarray(bmap, dtype=np.float64) - np.asarray(gt_bmap, dtype=np.float64)
    return float(np.sqrt((d * d).sum(axis=-1)).mean())


def count_components_8(mask) -> int:
    """8-connected components, by propagating the smallest pixel index."""
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    big = h * w + 1
    lab = np.where(mask, np.arange(h * w).reshape(h, w), big)
    while True:
        pad = np.pad(lab, 1, constant_values=big)
        nb = lab.copy()
        for dy in (0, 1, 2):
            for dx in (0, 1, 2):
                np.minimum(nb, pad[dy : dy + h, dx : dx + w], out=nb)
        nb[~mask] = big
        if np.array_equal(nb, lab):
            return int(np.unique(lab[mask]).size)
        lab = nb


def check_disc_transition(t: int, final_mask, backward_map):
    """Dice against the analytic disc and EE against the closed-form map.

    Returns ``(dice, ee)``; the tracked map must beat the identity map,
    which is the "no motion" prediction.
    """
    d = dice(final_mask, disc_mask(t + 1))
    gt = disc_backward_map(t)
    ee = mean_endpoint_error(backward_map, gt)
    ee_static = mean_endpoint_error(identity_coords(DISC_SIZE, DISC_SIZE), gt)
    if not d >= DICE_FLOOR_DISC:
        raise CheckFailed(f"disc transition {t}: dice {d:.4f} < {DICE_FLOOR_DISC}")
    if not ee < ee_static:
        raise CheckFailed(
            f"disc transition {t}: EE {ee:.4f} px not below no-motion {ee_static:.4f} px"
        )
    return d, ee


def check_two_components(mask, where: str) -> None:
    n = count_components_8(mask)
    if n != 2:
        raise CheckFailed(f"{where}: {n} 8-connected components, expected 2")


def check_pursuit_transition(s: int, final_mask, backward_map):
    """Two components, dice against the analytic union; returns (dice, ee).

    The endpoint error is taken over the whole frame, as for the disc; the
    flat background is static, so its true displacement is zero.
    """
    check_two_components(final_mask, f"pursuit transition {s} final mask")
    m_a, m_b = pursuit_masks(s + 1)
    d = dice(final_mask, m_a | m_b)
    if not d >= DICE_FLOOR_PURSUIT:
        raise CheckFailed(f"pursuit transition {s}: dice {d:.4f} < {DICE_FLOOR_PURSUIT}")
    return d, mean_endpoint_error(backward_map, pursuit_backward_map(s))


def read_pgm8(path) -> np.ndarray:
    """Minimal binary 8-bit PGM reader (no comments in the header)."""
    with open(path, "rb") as fh:
        data = fh.read()
    fields = data.split(maxsplit=4)
    if len(fields) < 5 or fields[0] != b"P5" or int(fields[3]) > 255:
        raise CheckFailed(f"{path}: not an 8-bit binary PGM")
    w, h = int(fields[1]), int(fields[2])
    # the raster is the last w*h bytes; split() cannot find it, as it may
    # start with whitespace values
    raster = data[len(data) - w * h :]
    return np.frombuffer(raster, dtype=np.uint8).reshape(h, w)


def read_eval_table(path) -> list:
    """Rows of ``eval.tsv`` as dicts of floats, without the summary row."""
    with open(path) as fh:
        lines = fh.read().strip().splitlines()
    header = lines[0].split("\t")
    rows = []
    for line in lines[1:]:
        cells = line.split("\t")
        if cells[0] == "summary":
            continue
        rows.append({k: float(v) for k, v in zip(header, cells)})
    return rows


def check_gt_masks(masks_by_frame: dict) -> None:
    for t, mask in masks_by_frame.items():
        if not np.array_equal(mask == 1, disc_mask(t)):
            raise CheckFailed(f"gt_mask_{t:04d} differs from the analytic disc")


def check_eval_row(row: dict, t: int) -> None:
    """Score of the "copy the previous frame" prediction for frame ``t``.

    The prediction is disc ``t - 1`` with zero displacement, so dice is a
    pixel count of two analytic discs, the endpoint error is the closed-form
    displacement itself, and both contour distances are close to
    ``r_{t-1} - r_t``.
    """
    want = dice(disc_mask(t - 1), disc_mask(t))
    if abs(row["dice"] - want) > TABLE_TOL:
        raise CheckFailed(f"frame {t}: dice {row['dice']} != pixel count {want:.6f}")
    ident = identity_coords(DISC_SIZE, DISC_SIZE)
    disp = np.sqrt(((ident - disc_backward_map(t - 1)) ** 2).sum(axis=-1))
    for key, want in (("ee_mean", disp.mean()), ("ee_max", disp.max())):
        if abs(row[key] - want) > EE_TABLE_TOL:
            raise CheckFailed(f"frame {t}: {key} {row[key]} != closed form {want:.6f}")
    dr = disc_radius(t - 1) - disc_radius(t)
    for key, tol in (("apd", APD_TOL_PX), ("hd", HD_TOL_PX)):
        if not abs(row[key] - dr) <= tol:
            raise CheckFailed(
                f"frame {t}: {key} {row[key]:.4f} px, circles are {dr:.4f} px apart"
            )
    if not math.isnan(row["normal_jump_max"]):
        raise CheckFailed(f"frame {t}: normal jump reported without a tracker run")
