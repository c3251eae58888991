"""Independent brute-force oracles used by the unit and acceptance tests.

Everything here is written as plain per-pixel scalar loops, deliberately
sharing no code with the vectorised implementation it checks.
"""

import numpy as np

import pwflow as pw


def random_two_region_instance(rng, max_side=8, min_side=3):
    """Random image, labels (two regions, both non-empty), and velocity."""
    h = int(rng.integers(min_side, max_side + 1))
    w = int(rng.integers(min_side, max_side + 1))
    while True:
        labels = (rng.random((h, w)) < rng.uniform(0.25, 0.75)).astype(np.int32)
        if 0 < labels.sum() < labels.size:
            break
    image = rng.random((h, w))
    velocity = rng.standard_normal((h, w, 2))
    return image, labels, velocity


def random_blob_instance(rng, side):
    """Blobby two-region instance of a fixed side length."""
    yy, xx = np.mgrid[0:side, 0:side]
    cx = rng.uniform(side * 0.3, side * 0.7)
    cy = rng.uniform(side * 0.3, side * 0.7)
    r = rng.uniform(side * 0.15, side * 0.35)
    labels = (((xx - cx) ** 2 + (yy - cy) ** 2) <= r * r).astype(np.int32)
    if labels.sum() == 0:
        labels[int(cy), int(cx)] = 1
    if labels.sum() == labels.size:
        labels[0, 0] = 0
    image = rng.random((side, side))
    velocity = rng.standard_normal((side, side, 2))
    return image, labels, velocity


def flood_fill_label_components(mask, connectivity):
    """Connected components by flood fill from each unlabelled foreground
    pixel in raster order; ``(labels, count)``, 1-based."""
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    if connectivity == 8:
        offsets = [(dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1) if dy or dx]
    else:
        offsets = [(-1, 0), (0, -1), (0, 1), (1, 0)]
    labels = np.zeros((h, w), dtype=np.int32)
    count = 0
    for y in range(h):
        for x in range(w):
            if not mask[y, x] or labels[y, x]:
                continue
            count += 1
            labels[y, x] = count
            stack = [(y, x)]
            while stack:
                cy, cx = stack.pop()
                for dy, dx in offsets:
                    yy, xx = cy + dy, cx + dx
                    if 0 <= yy < h and 0 <= xx < w and mask[yy, xx] and not labels[yy, xx]:
                        labels[yy, xx] = count
                        stack.append((yy, xx))
    return labels, count


def dense_operator_matrix(image, partition, cfg):
    """Entry-by-entry dense assembly of the motion operator.

    Unknowns are interleaved per pixel: index 2*(y*w + x) + component.
    """
    h, w = image.shape
    labels = partition.labels
    n = h * w * 2
    mat = np.zeros((n, n))
    alphas = cfg.label_alphas(int(labels.max()) + 1)
    normal_of = {}
    for k in range(partition.num_pairs):
        normal_of[(int(partition.pair_a[k]), int(partition.pair_b[k]))] = (
            partition.normals[k]
        )
    grad = pw.gradient_region_aware(
        image, None if cfg.mode == "global" else labels
    )
    for y in range(h):
        for x in range(w):
            i = y * w + x
            alpha_i = (
                cfg.alpha_in if cfg.mode == "global" else float(alphas[labels[y, x]])
            )
            for dy, dx in ((0, 1), (0, -1), (1, 0), (-1, 0)):
                yy, xx = y + dy, x + dx
                if not (0 <= yy < h and 0 <= xx < w):
                    continue
                j = yy * w + xx
                same = labels[y, x] == labels[yy, xx]
                if cfg.mode == "global" or same:
                    for c in range(2):
                        mat[2 * i + c, 2 * i + c] += alpha_i
                        mat[2 * i + c, 2 * j + c] -= alpha_i
                elif cfg.mode in ("hard", "soft"):
                    nvec = normal_of.get((i, j))
                    if nvec is None:
                        nvec = normal_of[(j, i)]
                    alpha_j = float(alphas[labels[yy, xx]])
                    if cfg.mode == "hard":
                        coup = alpha_i * alpha_j / (alpha_i + alpha_j)
                    else:
                        coup = (
                            alpha_i
                            * cfg.beta
                            * (cfg.beta - alpha_j)
                            / (cfg.beta**2 - alpha_i * alpha_j)
                        )
                    for c1 in range(2):
                        for c2 in range(2):
                            term = coup * nvec[c1] * nvec[c2]
                            mat[2 * i + c1, 2 * i + c2] += term
                            mat[2 * i + c1, 2 * j + c2] -= term
                # region_only: cross-label neighbours contribute nothing
            gvec = grad[y, x]
            for c1 in range(2):
                for c2 in range(2):
                    mat[2 * i + c1, 2 * i + c2] += gvec[c1] * gvec[c2]
    return mat


def dense_rhs(image, next_image, partition, mode):
    """Per-pixel recomputation of the data-term right-hand side."""
    h, w = image.shape
    grad = pw.gradient_region_aware(
        image, None if mode == "global" else partition.labels
    )
    out = np.zeros((h, w, 2))
    for y in range(h):
        for x in range(w):
            diff = next_image[y, x] - image[y, x]
            out[y, x, 0] = -diff * grad[y, x, 0]
            out[y, x, 1] = -diff * grad[y, x, 1]
    return out
