"""Segmentation metrics, contour extraction, and interface diagnostics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pwflow as pw


def disc_labels(n, cx, cy, r):
    yy, xx = np.mgrid[0:n, 0:n]
    return (((xx - cx) ** 2 + (yy - cy) ** 2) <= r * r).astype(np.int32)


def circle_points(cx, cy, r, count=720):
    t = np.linspace(0, 2 * np.pi, count, endpoint=False)
    return np.stack([cx + r * np.cos(t), cy + r * np.sin(t)], axis=1)


# ---------------------------------------------------------------------------
# dice
# ---------------------------------------------------------------------------


def test_dice_identical_masks():
    a = disc_labels(32, 16, 16, 6)
    assert pw.dice(a, a.copy()) == 1.0


def test_dice_disjoint_masks():
    a = np.zeros((10, 10), np.int32)
    b = np.zeros((10, 10), np.int32)
    a[:3, :3] = 1
    b[6:, 6:] = 1
    assert pw.dice(a, b) == 0.0


def test_dice_shifted_square_counting_oracle():
    a = np.zeros((20, 20), np.int32)
    b = np.zeros((20, 20), np.int32)
    a[5:15, 0:10] = 1
    b[5:15, 5:15] = 1
    assert pw.dice(a, b) == pytest.approx(2 * 50 / 200)


def test_dice_both_empty_is_one():
    z = np.zeros((5, 5), np.int32)
    assert pw.dice(z, z) == 1.0


def test_dice_symmetric_and_identity_characterisation():
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = (rng.random((12, 12)) < 0.4).astype(np.int32)
        b = (rng.random((12, 12)) < 0.4).astype(np.int32)
        assert pw.dice(a, b) == pw.dice(b, a)
        if pw.dice(a, b) == 1.0:
            assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# contours
# ---------------------------------------------------------------------------


def test_contours_of_disc_form_closed_loop_near_circle():
    yy, xx = np.mgrid[0:64, 0:64]
    psi = np.sqrt((xx - 32.0) ** 2 + (yy - 32.0) ** 2) - 12.0
    loops = pw.contours_from_levelset(psi)
    assert len(loops) == 1
    pts = loops[0]
    assert pts.shape[0] >= 3
    radii = np.sqrt(((pts - 32.0) ** 2).sum(axis=1))
    assert np.abs(radii - 12.0).max() <= 0.15
    steps = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
    assert steps.max() <= 2.0


def test_contours_from_mask_match_levelset_route():
    mask = disc_labels(48, 24, 24, 9) == 1
    loops = pw.contours_from_mask(mask)
    assert len(loops) == 1
    radii = np.sqrt(((loops[0] - 24.0) ** 2).sum(axis=1))
    assert np.abs(radii - 9.0).max() <= 0.8
    rng = np.random.default_rng(8)
    masks = [mask] + [rng.random((12, 15)) < p for p in (0.2, 0.5, 0.8) * 20]
    for m in masks:
        if 0 < m.sum() < m.size:
            got = pw.contours_from_mask(m)
            want = pw.contours_from_levelset(pw.signed_distance(m))
            assert len(got) == len(want)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_contours_multiple_components():
    mask = np.zeros((32, 32), bool)
    yy, xx = np.mgrid[0:32, 0:32]
    mask |= ((xx - 9) ** 2 + (yy - 16) ** 2) <= 16
    mask |= ((xx - 23) ** 2 + (yy - 16) ** 2) <= 16
    loops = pw.contours_from_mask(mask)
    assert len(loops) == 2


# ---------------------------------------------------------------------------
# hausdorff / apd
# ---------------------------------------------------------------------------


def test_hausdorff_identical_contours_is_zero():
    c = circle_points(0, 0, 10)
    assert pw.hausdorff(c, c.copy()) == 0.0


def test_hausdorff_concentric_circles():
    a = circle_points(0, 0, 10.0, 1440)
    b = circle_points(0, 0, 12.0, 1440)
    assert pw.hausdorff(a, b) == pytest.approx(2.0, abs=0.1)


def test_hausdorff_outlier_dominates():
    a = circle_points(0, 0, 10)
    b = np.vstack([a, [[50.0, 0.0]]])
    assert pw.hausdorff(a, b) == pytest.approx(40.0, abs=0.5)


def test_apd_identical_is_zero():
    c = circle_points(3, 4, 7)
    assert pw.apd(c, c.copy()) == 0.0


def test_apd_concentric_circles():
    a = circle_points(0, 0, 10.0, 720)
    b = circle_points(0, 0, 12.0, 720)
    assert pw.apd(a, b) == pytest.approx(2.0, abs=0.1)


def _square_points(x0, y0, side, per_edge=40):
    t = np.linspace(0, side, per_edge, endpoint=False)
    pts = []
    pts += [(x0 + u, y0) for u in t]
    pts += [(x0 + side, y0 + u) for u in t]
    pts += [(x0 + side - u, y0 + side) for u in t]
    pts += [(x0, y0 + side - u) for u in t]
    return np.asarray(pts)


def _brute_force_apd(a, b):
    def min_seg_dist(p, poly):
        best = np.inf
        for i in range(len(poly)):
            q0 = poly[i]
            q1 = poly[(i + 1) % len(poly)]
            d = q1 - q0
            denom = float(d @ d) or 1.0
            t = min(max(float((p - q0) @ d) / denom, 0.0), 1.0)
            best = min(best, float(np.linalg.norm(p - (q0 + t * d))))
        return best

    d_ab = np.mean([min_seg_dist(p, b) for p in a])
    d_ba = np.mean([min_seg_dist(p, a) for p in b])
    return 0.5 * (d_ab + d_ba)


def test_apd_shifted_square_brute_force_oracle():
    a = _square_points(0, 0, 10)
    # axis shift: the long overlapping edges contribute zero distance, so the
    # symmetric mean sits near 0.5, not near the 1 px shift itself
    b = _square_points(1, 0, 10)
    got = pw.apd(a, b)
    assert got == pytest.approx(_brute_force_apd(a, b), abs=1e-9)
    assert got == pytest.approx(0.5, abs=0.05)
    # diagonal shift: no edge overlap, every sample sits about 1 px away
    c = _square_points(1, 1, 10)
    got_diag = pw.apd(a, c)
    assert got_diag == pytest.approx(_brute_force_apd(a, c), abs=1e-9)
    assert got_diag == pytest.approx(1.0, abs=0.15)


def test_hausdorff_and_apd_symmetric_and_ordered():
    rng = np.random.default_rng(4)
    a = circle_points(0, 0, 8, 200) + rng.normal(0, 0.1, (200, 2))
    b = circle_points(1, 0, 9, 180) + rng.normal(0, 0.1, (180, 2))
    assert pw.hausdorff(a, b) == pw.hausdorff(b, a)
    assert pw.apd(a, b) == pw.apd(b, a)
    assert pw.hausdorff(a, b) >= pw.apd(a, b)


def test_metrics_translation_invariant():
    a = disc_labels(40, 16, 16, 7)
    b = disc_labels(40, 18, 16, 7)
    shift_a = np.roll(a, (3, 2), axis=(0, 1))
    shift_b = np.roll(b, (3, 2), axis=(0, 1))
    assert pw.dice(a, b) == pw.dice(shift_a, shift_b)
    ca, cb = pw.contours_from_mask(a == 1), pw.contours_from_mask(b == 1)
    csa, csb = pw.contours_from_mask(shift_a == 1), pw.contours_from_mask(shift_b == 1)
    assert pw.hausdorff(ca, cb) == pytest.approx(pw.hausdorff(csa, csb), abs=1e-9)
    assert pw.apd(ca, cb) == pytest.approx(pw.apd(csa, csb), abs=1e-9)


# ---------------------------------------------------------------------------
# endpoint error
# ---------------------------------------------------------------------------


def test_endpoint_error_zero_for_equal_fields():
    rng = np.random.default_rng(5)
    v = rng.standard_normal((8, 8, 2))
    assert pw.endpoint_error(v, v.copy()) == (0.0, 0.0)


def test_endpoint_error_uniform_offset():
    v = np.zeros((6, 6, 2))
    gt = v.copy()
    gt[..., 0] += 1.0
    mean, peak = pw.endpoint_error(v, gt)
    assert mean == pytest.approx(1.0)
    assert peak == pytest.approx(1.0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_endpoint_error_matches_direct_recompute(seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((5, 7, 2))
    gt = rng.standard_normal((5, 7, 2))
    mask = rng.random((5, 7)) < 0.6
    if not mask.any():
        mask[0, 0] = True
    mean, peak = pw.endpoint_error(v, gt, mask)
    err = np.sqrt(((v - gt) ** 2).sum(-1))[mask]
    assert mean == pytest.approx(float(err.mean()))
    assert peak == pytest.approx(float(err.max()))


# ---------------------------------------------------------------------------
# normal_jump
# ---------------------------------------------------------------------------


def make_velocity(labels, field):
    part = pw.RegionPartition(labels)
    return pw.PiecewiseVelocity(field, part), part


def test_normal_jump_constant_field_is_zero_in_every_mode():
    labels = disc_labels(24, 12, 12, 5)
    field = np.tile([0.7, -0.3], (24, 24, 1))
    for mode in pw.MODES:
        cfg = pw.SolverConfig(alpha_in=2.0, alpha_out=1.0, beta=9.0, mode=mode)
        vel, _ = make_velocity(labels, field)
        jmax, jmean = pw.normal_jump(vel, cfg)
        assert jmax <= 1e-12
        assert jmean <= 1e-12


def test_normal_jump_hard_is_roundoff_for_any_field():
    rng = np.random.default_rng(6)
    labels = disc_labels(24, 12, 12, 6)
    field = rng.standard_normal((24, 24, 2))
    cfg = pw.SolverConfig(alpha_in=2.0, alpha_out=0.5, mode="hard")
    vel, _ = make_velocity(labels, field)
    jmax, _ = pw.normal_jump(vel, cfg)
    assert jmax <= 1e-12  # ghost extensions share the face value by identity


def test_normal_jump_neumann_measures_raw_mismatch():
    labels = np.zeros((4, 4), np.int32)
    labels[:, 2:] = 1
    field = np.zeros((4, 4, 2))
    field[:, 2:, 0] = 1.0  # unit normal jump across the vertical interface
    cfg = pw.SolverConfig(mode="region_only")
    vel, _ = make_velocity(labels, field)
    jmax, jmean = pw.normal_jump(vel, cfg)
    assert jmax == pytest.approx(1.0)
    assert jmean == pytest.approx(1.0)


def test_normal_jump_soft_residual_shrinks_with_beta():
    labels = np.zeros((4, 4), np.int32)
    labels[:, 2:] = 1
    field = np.zeros((4, 4, 2))
    field[:, 2:, 0] = 1.0
    jumps = []
    for beta in (10.0, 100.0, 1000.0):
        cfg = pw.SolverConfig(alpha_in=1.0, alpha_out=1.0, beta=beta, mode="soft")
        vel, _ = make_velocity(labels, field)
        jumps.append(pw.normal_jump(vel, cfg)[0])
    # same raw field: the penalised residual scales like 1/(beta + 1)
    assert jumps[0] == pytest.approx(1.0 / 11.0)
    assert jumps[1] == pytest.approx(1.0 / 101.0)
    assert jumps[2] == pytest.approx(1.0 / 1001.0)


def test_normal_jump_independent_region_solves_exceed_hard(tmp_path):
    spec = pw.SynthSpec(
        size=(64, 64), disc_center=(32.0, 32.0), disc_radius=15.0,
        contraction_per_frame=0.96, rotation_inside_deg=2.0,
        rotation_outside_deg=-2.0, frames=2, texture_seed=14,
        texture_smoothing=2.0,
    )
    frames, _, regions = pw.generate(spec)
    part = pw.RegionPartition(regions[0].labels)
    hard_cfg = pw.SolverConfig(alpha_in=3.0, alpha_out=3.0, mode="hard")
    neumann_cfg = pw.SolverConfig(alpha_in=3.0, alpha_out=3.0, mode="region_only")
    hard = pw.solve_infinitesimal(frames[0], frames[1], part, hard_cfg)
    neum = pw.solve_infinitesimal(frames[0], frames[1], part, neumann_cfg)
    j_hard, _ = pw.normal_jump(hard.velocity, hard_cfg)
    j_neum, _ = pw.normal_jump(neum.velocity, neumann_cfg)
    assert j_neum > j_hard
    assert j_neum > 100.0 * max(j_hard, 1e-12)
