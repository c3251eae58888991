"""Grid primitives: gradients, distances, normals, projection, sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pwflow as pw
from pwflow.errors import GridShapeError


def disc_mask(n, cx, cy, r):
    yy, xx = np.mgrid[0:n, 0:n]
    return (xx - cx) ** 2 + (yy - cy) ** 2 <= r * r


# ---------------------------------------------------------------------------
# gradient_region_aware
# ---------------------------------------------------------------------------


def test_gradient_constant_image_is_zero():
    img = np.full((9, 7), 0.4)
    labels = (np.arange(63).reshape(9, 7) % 3 == 0).astype(np.int32)
    g = pw.gradient_region_aware(img, labels)
    assert np.all(g == 0.0)


def test_gradient_linear_ramp_exact_single_region():
    img = np.add.outer(np.zeros(8), np.arange(8.0))
    g = pw.gradient_region_aware(img)
    assert np.allclose(g[..., 0], 1.0)
    assert np.allclose(g[..., 1], 0.0)


def test_gradient_one_sided_at_vertical_interface():
    # linear ramp split at column 4: one-sided differences are still exact
    img = np.add.outer(np.zeros(8), np.arange(8.0))
    labels = np.zeros((8, 8), np.int32)
    labels[:, 4:] = 1
    g = pw.gradient_region_aware(img, labels)
    assert np.allclose(g[..., 0], 1.0)
    assert np.allclose(g[..., 1], 0.0)


def test_gradient_zero_where_no_same_label_neighbour_along_axis():
    img = np.add.outer(np.zeros(3), np.arange(3.0))
    labels = np.zeros((3, 3), np.int32)
    labels[:, 1] = 1  # isolated column: no same-label x neighbours
    g = pw.gradient_region_aware(img, labels)
    assert np.all(g[:, 1, 0] == 0.0)
    assert np.allclose(g[:, 1, 1], 0.0)  # ramp is constant along y anyway


def test_gradient_linear_image_exact_for_any_partition():
    rng = np.random.default_rng(11)
    img = 0.3 * np.add.outer(np.arange(10.0), np.zeros(12)) - 0.7 * np.add.outer(
        np.zeros(10), np.arange(12.0)
    )
    for _ in range(5):
        labels = (rng.random((10, 12)) < 0.4).astype(np.int32)
        g = pw.gradient_region_aware(img, labels)
        ok = np.isclose(g[..., 0], -0.7) & np.isclose(g[..., 1], 0.3)
        # pixels with no same-label neighbour along an axis report 0 there
        zero = (g[..., 0] == 0.0) | (g[..., 1] == 0.0)
        assert np.all(ok | zero)


def test_gradient_shape_mismatch_raises():
    with pytest.raises(GridShapeError):
        pw.gradient_region_aware(np.zeros((4, 4)), np.zeros((5, 4), np.int32))


# ---------------------------------------------------------------------------
# signed_distance
# ---------------------------------------------------------------------------


def test_signed_distance_disc_tracks_analytic_distance():
    mask = disc_mask(64, 32, 32, 10)
    psi = pw.signed_distance(mask)
    yy, xx = np.mgrid[0:64, 0:64]
    r = np.sqrt((xx - 32.0) ** 2 + (yy - 32.0) ** 2)
    assert np.abs(psi - (r - 10.0))[2:-2, 2:-2].max() <= 1.0


def test_signed_distance_single_pixel_region():
    mask = np.zeros((7, 9), bool)
    mask[3, 4] = True
    psi = pw.signed_distance(mask)
    assert psi[3, 4] <= 0.0
    for dy, dx in ((0, 1), (0, -1), (1, 0), (-1, 0)):
        assert 0.0 < psi[3 + dy, 4 + dx] <= 1.5


def test_signed_distance_half_plane_is_linear_slope_one():
    mask = np.zeros((6, 11), bool)
    mask[:, :5] = True
    psi = pw.signed_distance(mask)
    cols = np.arange(11.0)
    expected = cols - 4.5
    assert np.allclose(psi, expected[None, :])


def test_signed_distance_sign_flips_exactly_on_interface_pairs():
    rng = np.random.default_rng(5)
    for _ in range(10):
        mask = rng.random((12, 13)) < 0.35
        if not (0 < mask.sum() < mask.size):
            continue
        psi = pw.signed_distance(mask)
        part = pw.RegionPartition(mask.astype(np.int32))
        flat = psi.ravel()
        assert np.all(flat[part.pair_a] * flat[part.pair_b] <= 0.0)


def test_signed_distance_gradient_near_unit_away_from_interface():
    mask = disc_mask(64, 32, 32, 14)
    psi = pw.signed_distance(mask)
    gy, gx = np.gradient(psi)
    gm = np.sqrt(gx**2 + gy**2)
    yy, xx = np.mgrid[0:64, 0:64]
    r = np.sqrt((xx - 32.0) ** 2 + (yy - 32.0) ** 2)
    # rasterisation makes the bound unreachable right at the staircase band,
    # so measure it away from the interface and the medial axis
    band = (np.abs(psi) > 4.0) & (r > 4.0) & (xx > 2) & (xx < 61) & (yy > 2) & (yy < 61)
    assert np.all(np.abs(gm[band] - 1.0) <= 0.1)


def test_signed_distance_rejects_empty_and_full():
    with pytest.raises(ValueError):
        pw.signed_distance(np.zeros((5, 5), bool))
    with pytest.raises(ValueError):
        pw.signed_distance(np.ones((5, 5), bool))


def test_signed_distance_matches_brute_force_midpoint_distance():
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(25):
        h, w = rng.integers(2, 15, 2)
        mask = rng.random((h, w)) < 0.3
        if not 0 < mask.sum() < mask.size:
            continue
        # midpoints of every opposite-label 4-neighbour pair
        rh, ch = np.nonzero(mask[:, :-1] != mask[:, 1:])
        rv, cv = np.nonzero(mask[:-1, :] != mask[1:, :])
        px = np.concatenate([ch + 0.5, cv.astype(float)])
        py = np.concatenate([rh.astype(float), rv + 0.5])
        yy, xx = np.mgrid[0:h, 0:w]
        dist = np.sqrt(((xx[..., None] - px) ** 2 + (yy[..., None] - py) ** 2).min(-1))
        expected = np.where(mask, -dist, dist)
        assert np.array_equal(pw.signed_distance(mask), expected)
        checked += 1
    assert checked >= 20


# ---------------------------------------------------------------------------
# normals_from_levelset
# ---------------------------------------------------------------------------


def test_normals_planar_levelset_are_axis_aligned():
    psi = np.add.outer(np.zeros(8), np.arange(8.0)) - 3.5
    labels = (psi <= 0).astype(np.int32)
    part = pw.RegionPartition(labels)
    n = pw.normals_from_levelset(psi, part.pairs)
    assert np.allclose(n[:, 0], 1.0)
    assert np.allclose(n[:, 1], 0.0)


def test_normals_circle_close_to_radial():
    n_grid = 64
    yy, xx = np.mgrid[0:n_grid, 0:n_grid]
    r = np.sqrt((xx - 32.0) ** 2 + (yy - 32.0) ** 2)
    psi = r - 10.0  # analytic level set
    labels = (psi <= 0).astype(np.int32)
    part = pw.RegionPartition(labels, level_sets={1: psi})
    mids_x = ((part.pair_a % n_grid) + (part.pair_b % n_grid)) / 2.0 - 32.0
    mids_y = ((part.pair_a // n_grid) + (part.pair_b // n_grid)) / 2.0 - 32.0
    radial = np.stack([mids_x, mids_y], axis=1)
    radial /= np.linalg.norm(radial, axis=1, keepdims=True)
    cosang = np.abs((part.normals * radial).sum(axis=1))
    assert np.all(np.arccos(np.clip(cosang, 0, 1)) <= 0.05)


def test_normals_flat_levelset_falls_back_to_pair_axis():
    psi = np.zeros((4, 4))
    psi[:, :2] = -1e-12  # flat, gradient below threshold
    labels = np.zeros((4, 4), np.int32)
    labels[:, :2] = 1
    part = pw.RegionPartition(labels)
    n = pw.normals_from_levelset(psi, part.pairs)
    assert np.allclose(np.abs(n[:, 0]), 1.0)
    assert np.allclose(n[:, 1], 0.0)


def test_partition_lists_horizontal_pairs_before_vertical_ones():
    labels = np.zeros((3, 4), np.int32)
    labels[1, 1:3] = 1
    part = pw.RegionPartition(labels)
    # left/right neighbours row by row, then top/bottom neighbours row by row
    assert part.pairs.tolist() == [[4, 5], [6, 7], [1, 5], [2, 6], [5, 9], [6, 10]]


def test_partition_normals_without_psi_come_from_structure_signed_distance():
    mask = disc_mask(32, 16, 16, 7)
    part = pw.RegionPartition(mask.astype(np.int32))
    eager = pw.normals_from_levelset(pw.signed_distance(mask), part.pairs)
    assert np.array_equal(part.normals, eager)
    assert part.normals is part.normals  # computed once, on first read


def test_partition_normals_use_given_level_sets_per_structure_side():
    # two touching squares; only structure 2 gets a level set, a tilted plane
    labels = np.zeros((24, 24), np.int32)
    labels[6:18, 4:12] = 1
    labels[6:18, 12:20] = 2
    yy, xx = np.mgrid[0:24, 0:24]
    part = pw.RegionPartition(labels, level_sets={2: (xx + yy) - 30.0})
    lo = np.minimum(part.label_a, part.label_b)
    hi = np.maximum(part.label_a, part.label_b)
    side2 = (lo == 0) & (hi == 2)
    assert np.allclose(part.normals[side2], np.sqrt(0.5))
    # 1|0 and 1|2 pairs take structure 1's signed distance, as with no level sets
    lazy = pw.RegionPartition(labels).normals
    assert np.any((lo == 1) & (hi == 2))
    assert np.array_equal(part.normals[~side2], lazy[~side2])


def test_partition_normals_from_psi_do_not_alias_the_level_set():
    mask = disc_mask(32, 16, 16, 7)
    psi = pw.signed_distance(mask)
    part = pw.RegionPartition(mask.astype(np.int32), level_sets={1: psi})
    before = part.normals.copy()
    psi[:] = 0.0
    assert np.array_equal(part.normals, before)


def test_normals_unit_length():
    mask = disc_mask(32, 16, 16, 7)
    psi = pw.signed_distance(mask)
    part = pw.RegionPartition(mask.astype(np.int32), level_sets={1: psi})
    assert np.allclose(np.linalg.norm(part.normals, axis=1), 1.0, atol=1e-9)


# ---------------------------------------------------------------------------
# project_normal / project_tangent
# ---------------------------------------------------------------------------


def test_project_axis_example():
    out = pw.project_normal(np.array([3.0, 2.0]), np.array([1.0, 0.0]))
    assert np.allclose(out, [3.0, 0.0])


@settings(max_examples=60, deadline=None)
@given(
    vx=st.floats(-5, 5),
    vy=st.floats(-5, 5),
    angle=st.floats(0, 2 * np.pi),
)
def test_projection_decomposition_properties(vx, vy, angle):
    v = np.array([vx, vy])
    n = np.array([np.cos(angle), np.sin(angle)])
    pn = pw.project_normal(v, n)
    pt = pw.project_tangent(v, n)
    assert np.allclose(pn + pt, v, atol=1e-12)
    assert abs(float(pn @ pt)) <= 1e-10
    # idempotence on the span
    assert np.allclose(pw.project_normal(pn, n), pn, atol=1e-12)


def test_project_parallel_and_orthogonal():
    n = np.array([0.6, 0.8])
    assert np.allclose(pw.project_normal(2.5 * n, n), 2.5 * n)
    t = np.array([-0.8, 0.6])
    assert np.allclose(pw.project_normal(t, n), [0.0, 0.0], atol=1e-12)


def test_project_rejects_non_unit_normal():
    with pytest.raises(ValueError):
        pw.project_normal(np.array([1.0, 0.0]), np.array([1.0, 1.0]))


# ---------------------------------------------------------------------------
# bilinear_sample
# ---------------------------------------------------------------------------


def test_bilinear_reproduces_nodes():
    rng = np.random.default_rng(3)
    img = rng.random((6, 8))
    pts = np.stack(np.meshgrid(np.arange(8.0), np.arange(6.0)), axis=-1)
    assert np.array_equal(pw.bilinear_sample(img, pts), img)


def test_bilinear_midpoint_is_average():
    img = np.array([[0.0, 1.0]])
    assert pw.bilinear_sample(img, np.array([0.5, 0.0])) == pytest.approx(0.5)


def test_bilinear_clamps_outside_points():
    img = np.arange(12.0).reshape(3, 4)
    assert pw.bilinear_sample(img, np.array([-5.0, 0.0])) == img[0, 0]
    assert pw.bilinear_sample(img, np.array([99.0, 99.0])) == img[-1, -1]


def test_bilinear_exact_for_bilinear_images():
    yy, xx = np.mgrid[0:7, 0:9]
    img = 0.5 + 0.25 * xx - 0.125 * yy + 0.0625 * xx * yy
    rng = np.random.default_rng(9)
    pts = np.stack(
        [rng.uniform(0, 8, 50), rng.uniform(0, 6, 50)], axis=-1
    )
    want = 0.5 + 0.25 * pts[:, 0] - 0.125 * pts[:, 1] + 0.0625 * pts[:, 0] * pts[:, 1]
    assert np.allclose(pw.bilinear_sample(img, pts), want, atol=1e-12)


# ---------------------------------------------------------------------------
# RegionPartition
# ---------------------------------------------------------------------------


def test_partition_lists_every_cross_pair_once():
    rng = np.random.default_rng(1)
    labels = (rng.random((9, 9)) < 0.5).astype(np.int32)
    part = pw.RegionPartition(labels)
    seen = set()
    for a, b in zip(part.pair_a, part.pair_b):
        key = (min(a, b), max(a, b))
        assert key not in seen
        seen.add(key)
    # brute-force count
    count = 0
    for y in range(9):
        for x in range(9):
            if x + 1 < 9 and labels[y, x] != labels[y, x + 1]:
                count += 1
            if y + 1 < 9 and labels[y, x] != labels[y + 1, x]:
                count += 1
    assert len(seen) == count


def test_partition_rejects_negative_labels():
    with pytest.raises(ValueError):
        pw.RegionPartition(np.array([[0, -1]], dtype=np.int32))


def test_reinitialize_matches_brute_force_crossing_distance():
    rng = np.random.default_rng(12)
    for _ in range(30):
        h, w = rng.integers(1, 16, 2)
        psi = rng.standard_normal((h, w)) + rng.uniform(-1.0, 1.0)
        psi[rng.random((h, w)) < 0.05] = 0.0
        # linearly interpolated crossings along every grid edge, plus exact zeros
        pts = [(float(x), float(y)) for y in range(h) for x in range(w) if psi[y, x] == 0.0]
        for y in range(h):
            for x in range(w - 1):
                a, b = psi[y, x], psi[y, x + 1]
                if a * b < 0.0:
                    pts.append((x + a / (a - b), float(y)))
        for y in range(h - 1):
            for x in range(w):
                a, b = psi[y, x], psi[y + 1, x]
                if a * b < 0.0:
                    pts.append((float(x), y + a / (a - b)))
        if not pts:
            with pytest.raises(ValueError):
                pw.reinitialize_signed_distance(psi)
            continue
        px, py = np.array(pts).T
        yy, xx = np.mgrid[0:h, 0:w]
        dist = np.sqrt(((xx[..., None] - px) ** 2 + (yy[..., None] - py) ** 2).min(-1))
        expected = np.where(psi <= 0.0, -dist, dist)
        assert np.array_equal(pw.reinitialize_signed_distance(psi), expected)


def test_reinitialize_preserves_zero_crossings_and_signs():
    mask = disc_mask(48, 24, 24, 9)
    psi = pw.signed_distance(mask) + 0.2  # perturb away from distance property
    out = pw.reinitialize_signed_distance(psi)
    assert np.array_equal(out <= 0, psi <= 0)
    gy, gx = np.gradient(out)
    gm = np.sqrt(gx**2 + gy**2)
    yy, xx = np.mgrid[0:48, 0:48]
    r = np.sqrt((xx - 24.0) ** 2 + (yy - 24.0) ** 2)
    inner = (np.abs(out) > 4) & (np.abs(out) < 12) & (r > 4)  # skip medial axis
    assert np.all(np.abs(gm[inner] - 1.0) <= 0.15)
