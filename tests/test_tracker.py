"""Transport, warping, and the incremental tracking loop."""

import dataclasses

import numpy as np
import pytest

import pwflow as pw
from pwflow.errors import GridShapeError, RegionVanishedError, TrackAborted
from pwflow.tracker import region_symmetric_difference


def small_solver(**kw):
    base = dict(alpha_in=3.0, alpha_out=3.0, mode="hard", cg_rel_tol=1e-5)
    base.update(kw)
    return pw.SolverConfig(**base)


# ---------------------------------------------------------------------------
# transport_step
# ---------------------------------------------------------------------------


def test_transport_zero_velocity_is_identity():
    rng = np.random.default_rng(1)
    field = rng.random((10, 11))
    out = pw.transport_step(field, np.zeros((10, 11, 2)), 0.5)
    assert np.array_equal(out, field)


def test_transport_advects_plane_exactly():
    cols = np.add.outer(np.zeros(8), np.arange(8.0))
    psi = cols - 3.0
    v = np.zeros((8, 8, 2))
    v[..., 0] = 1.0
    out = pw.transport_step(pw.transport_step(psi, v, 0.5), v, 0.5)
    # plane moved right by 1: psi becomes cols - 4 at interior pixels
    assert np.allclose(out[:, 1:], (cols - 4.0)[:, 1:])


def test_transport_linear_field_matches_analytic_shift():
    yy, xx = np.mgrid[0:32, 0:32]
    field = 0.5 * xx + 0.25 * yy
    v = np.zeros((32, 32, 2))
    v[..., 0] = 0.8
    v[..., 1] = -0.6
    out = field.copy()
    steps = 16
    for _ in range(steps):
        out = pw.transport_step(out, v, 0.25)
    total_t = steps * 0.25
    want = 0.5 * (xx - 0.8 * total_t) + 0.25 * (yy + 0.6 * total_t)
    assert np.abs(out - want)[4:-4, 4:-4].max() <= 1e-9  # exact for linear fields


def test_transport_substeps_respect_cfl():
    # dt * max|v| = 4 forces internal sub-stepping; result must stay stable
    yy, xx = np.mgrid[0:24, 0:24]
    psi = np.sqrt((xx - 12.0) ** 2 + (yy - 12.0) ** 2) - 5.0
    v = np.zeros((24, 24, 2))
    v[..., 0] = 8.0
    out = pw.transport_step(psi, v, 0.5)
    assert np.all(np.isfinite(out))
    # strictly monotone outside the inflow zone swept by the one-sided
    # boundary extrapolation (dt * |v| = 4 columns here)
    inner = out[:, 5:]
    assert inner.max() <= psi.max() + 1e-12
    assert inner.min() >= psi.min() - 1e-12
    # the extrapolation itself is bounded by the swept distance times the
    # steepest one-sided slope of the field
    slope = max(np.abs(np.diff(psi, axis=0)).max(), np.abs(np.diff(psi, axis=1)).max())
    assert out.max() <= psi.max() + 0.5 * 8.0 * slope + 1e-12
    assert out.min() >= psi.min() - 0.5 * 8.0 * slope - 1e-12


def test_transport_vector_field_advects_componentwise():
    field = pw.identity_map(16, 16)
    v = np.zeros((16, 16, 2))
    v[..., 0] = 1.0
    out = pw.transport_step(field, v, 0.5)
    scalar = pw.transport_step(field[..., 1], v, 0.5)
    assert np.allclose(out[..., 1], scalar)


# ---------------------------------------------------------------------------
# warp_image
# ---------------------------------------------------------------------------


def test_warp_identity_map_returns_image():
    rng = np.random.default_rng(2)
    img = rng.random((9, 13))
    out = pw.warp_image(img, pw.identity_map(9, 13))
    assert np.array_equal(out, img)


def test_warp_integer_shift():
    rng = np.random.default_rng(3)
    img = rng.random((8, 8))
    bmap = pw.identity_map(8, 8)
    bmap[..., 0] -= 1.0  # sample from one pixel left
    out = pw.warp_image(img, bmap)
    assert np.allclose(out[:, 1:], img[:, :-1])
    assert np.allclose(out[:, 0], img[:, 0])  # clamped at the border


def test_warp_composed_half_shifts_close_to_full_shift():
    # band-limited image: bilinear smoothing error scales with curvature
    yy, xx = np.mgrid[0:48, 0:48]
    tex = 0.5 + 0.4 * np.sin(2 * np.pi * xx / 16.0) * np.cos(2 * np.pi * yy / 20.0)
    half = pw.identity_map(48, 48)
    half[..., 0] -= 0.5
    twice = pw.warp_image(pw.warp_image(tex, half), half)
    full = pw.identity_map(48, 48)
    full[..., 0] -= 1.0
    once = pw.warp_image(tex, full)
    assert np.abs(twice - once)[2:-2, 2:-2].max() <= 0.02


def test_warp_rejects_non_finite_map():
    bmap = pw.identity_map(4, 4)
    bmap[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        pw.warp_image(np.zeros((4, 4)), bmap)


# ---------------------------------------------------------------------------
# evolve_pair
# ---------------------------------------------------------------------------


def make_disc_partition(n, cx, cy, r):
    yy, xx = np.mgrid[0:n, 0:n]
    return pw.RegionPartition((((xx - cx) ** 2 + (yy - cy) ** 2) <= r * r).astype(np.int32))


def test_evolve_identical_frames_is_fixed_point():
    tex = pw.texture(4, (32, 32), 2.0)
    region = make_disc_partition(32, 16, 16, 7)
    cfg = pw.TrackConfig(solver=small_solver())
    res = pw.evolve_pair(tex, tex, region, cfg)
    assert res.converged
    assert res.iterations_used <= 3
    assert np.array_equal(res.final_region.labels, region.labels)
    ident = pw.identity_map(32, 32)
    assert np.abs(res.backward_map - ident).max() <= 1e-9
    psi0 = pw.signed_distance(region.labels == 1)
    assert np.abs(res.psi_final - psi0).max() <= 1e-9


def test_evolve_tracks_contracting_disc():
    spec = pw.SynthSpec(
        size=(64, 64), disc_center=(32.0, 32.0), disc_radius=16.0,
        contraction_per_frame=0.93, rotation_inside_deg=0.0,
        rotation_outside_deg=0.0, frames=2, texture_seed=6,
        texture_smoothing=2.0,
    )
    frames, _, regions = pw.generate(spec)
    cfg = pw.TrackConfig(solver=small_solver(), dt=1.0)
    res = pw.evolve_pair(frames[0], frames[1], regions[0], cfg)
    assert pw.dice(res.final_region, regions[1]) >= 0.95
    # appearance reconstruction must improve substantially
    assert res.residual_trace[-1] <= 0.5 * res.residual_trace[0]


@pytest.mark.parametrize("cg_max_iter", [None, 3])
def test_evolve_diagnostics_record_each_solve(monkeypatch, cg_max_iter):
    spec = pw.SynthSpec(
        size=(32, 32), disc_center=(16.0, 16.0), disc_radius=8.0,
        contraction_per_frame=0.93, frames=2, texture_seed=6,
        texture_smoothing=2.0,
    )
    frames, _, regions = pw.generate(spec)
    solves = []

    def recording_solve(*args):
        result = pw.solve_infinitesimal(*args)
        solves.append(result)
        return result

    monkeypatch.setattr(pw.tracker, "solve_infinitesimal", recording_solve)
    cfg = pw.TrackConfig(
        solver=small_solver(cg_max_iter=cg_max_iter), dt=1.0, max_inner_iters=6
    )
    res = pw.evolve_pair(frames[0], frames[1], regions[0], cfg)
    assert len(solves) == len(res.diagnostics) == res.iterations_used
    for row, solve in zip(res.diagnostics, solves):
        assert row.cg_iterations == solve.iterations >= 1
        assert row.cg_converged == solve.converged
        assert row.components == 1
    # a 3-step cap cannot converge to 1e-5
    assert any(not row.cg_converged for row in res.diagnostics) == (cg_max_iter == 3)


def test_evolve_final_region_matches_levelset_threshold():
    spec = pw.SynthSpec(
        size=(48, 48), disc_center=(24.0, 24.0), disc_radius=11.0,
        contraction_per_frame=0.95, rotation_inside_deg=2.0,
        rotation_outside_deg=-2.0, frames=2, texture_seed=8,
        texture_smoothing=2.0,
    )
    frames, _, regions = pw.generate(spec)
    cfg = pw.TrackConfig(solver=small_solver(), dt=1.0)
    res = pw.evolve_pair(frames[0], frames[1], regions[0], cfg)
    assert np.array_equal(res.final_region.labels > 0, res.psi_final <= 0.0)
    assert np.all(res.backward_map[..., 0] >= 0)
    assert np.all(res.backward_map[..., 0] <= 47)
    assert np.all(res.backward_map[..., 1] >= 0)
    assert np.all(res.backward_map[..., 1] <= 47)


def test_evolve_backward_map_jacobian_stays_positive():
    spec = pw.SynthSpec(
        size=(64, 64), disc_center=(32.0, 32.0), disc_radius=14.0,
        contraction_per_frame=0.95, rotation_inside_deg=2.0,
        rotation_outside_deg=-2.0, frames=2, texture_seed=12,
        texture_smoothing=2.0,
    )
    frames, _, regions = pw.generate(spec)
    cfg = pw.TrackConfig(solver=small_solver(), dt=1.0)
    res = pw.evolve_pair(frames[0], frames[1], regions[0], cfg)
    bmap = res.backward_map
    # central-difference Jacobian determinant per interior pixel of each region
    dxdx = (bmap[1:-1, 2:, 0] - bmap[1:-1, :-2, 0]) / 2.0
    dxdy = (bmap[2:, 1:-1, 0] - bmap[:-2, 1:-1, 0]) / 2.0
    dydx = (bmap[1:-1, 2:, 1] - bmap[1:-1, :-2, 1]) / 2.0
    dydy = (bmap[2:, 1:-1, 1] - bmap[:-2, 1:-1, 1]) / 2.0
    det = dxdx * dydy - dxdy * dydx
    labels = res.final_region.labels[1:-1, 1:-1]
    psi = res.psi_final[1:-1, 1:-1]
    # interior of each region: away from the interface where the map is
    # legitimately discontinuous, and away from the clamped border
    interior = (np.abs(psi) > 2.0)
    interior[:2, :] = interior[-2:, :] = interior[:, :2] = interior[:, -2:] = False
    assert np.all(det[interior] > 0.0)
    assert labels.shape == det.shape


def vanishing_scenario():
    # global rightward translation drags a border-adjacent region off the grid
    tex = pw.texture(21, (48, 48), 2.0)
    frames = [np.roll(tex, 3 * t, axis=1) for t in range(6)]
    labels = np.zeros((48, 48), np.int32)
    yy, xx = np.mgrid[0:48, 0:48]
    labels[((xx - 42) ** 2 + (yy - 24) ** 2) <= 9] = 1
    cfg = pw.TrackConfig(
        solver=small_solver(alpha_in=2.0, alpha_out=2.0),
        dt=1.0, max_inner_iters=60, topology_preserve=False,
    )
    return frames, pw.RegionPartition(labels), cfg


def test_evolve_raises_when_structure_vanishes():
    frames, region, cfg = vanishing_scenario()
    current = region
    with pytest.raises(RegionVanishedError) as info:
        for i in range(len(frames) - 1):
            current = pw.evolve_pair(frames[i], frames[i + 1], current, cfg).final_region
    assert info.value.label == 1
    assert info.value.iteration >= 1


def test_vanishing_on_a_reinit_iteration_is_reported_as_vanished():
    # with reinit on every iteration the vanished level set reaches the reinit
    # step before the label check
    frames, region, cfg = vanishing_scenario()
    cfg = dataclasses.replace(cfg, reinit_every=1)
    with pytest.raises(TrackAborted) as info:
        pw.track_sequence(frames, region, cfg)
    assert isinstance(info.value.cause, RegionVanishedError)
    assert info.value.cause.label == 1


def test_track_sequence_passes_input_errors_through():
    frames, _, cfg = vanishing_scenario()
    labels = np.zeros((40, 48), np.int32)
    labels[10:20, 10:20] = 1
    with pytest.raises(GridShapeError):
        pw.track_sequence(frames, pw.RegionPartition(labels), cfg)


def test_track_sequence_identical_frames_keeps_region():
    tex = pw.texture(11, (32, 32), 2.0)
    region = make_disc_partition(32, 16, 16, 8)
    cfg = pw.TrackConfig(solver=small_solver())
    results = pw.track_sequence([tex] * 5, region, cfg)
    assert len(results) == 4
    for res in results:
        assert np.array_equal(res.final_region.labels, region.labels)


def test_track_sequence_aborts_with_partial_results():
    frames, region, cfg = vanishing_scenario()
    with pytest.raises(TrackAborted) as info:
        pw.track_sequence(frames, region, cfg)
    assert info.value.transition_index >= 1
    assert len(info.value.partial_results) == info.value.transition_index
    for res in info.value.partial_results:
        assert res.final_region.area(1) > 0


def test_multi_structure_tracking_keeps_both_labels():
    # two textured squares translating in opposite directions
    rng = np.random.default_rng(19)
    h = w = 48
    base = pw.texture(3, (w, h), 1.5)
    labels = np.zeros((h, w), np.int32)
    labels[18:30, 6:18] = 1
    labels[18:30, 30:42] = 2
    img0 = base.copy()
    img0[labels == 1] += 0.4
    img0[labels == 2] -= 0.4
    img0 = np.clip(img0, 0, 1)
    shift = pw.identity_map(h, w)
    shift[..., 0] -= 1.0
    img1 = pw.warp_image(img0, shift)  # everything moves right by one pixel
    region = pw.RegionPartition(labels)
    cfg = pw.TrackConfig(solver=small_solver(alpha_in=5.0, alpha_out=5.0), dt=1.0)
    res = pw.evolve_pair(img0, img1, region, cfg)
    assert set(res.final_region.structure_labels) == {1, 2}
    got1 = res.final_region.labels == 1
    want1 = np.roll(labels == 1, 1, axis=1)
    assert pw.dice(got1.astype(np.int32), want1.astype(np.int32)) >= 0.9


def test_touching_structures_take_normals_from_the_inner_level_set():
    # a disc inside a ring: the union of the two level sets has a ridge along
    # their shared interface, so the 1|2 normals must come from the disc's own
    # level set to point radially
    n, c = 64, 32.0
    yy, xx = np.mgrid[0:n, 0:n]
    r2 = (xx - c) ** 2 + (yy - c) ** 2
    labels = np.where(r2 <= 12 * 12, 1, np.where(r2 <= 20 * 20, 2, 0))
    tex = pw.texture(4, (n, n), 2.0)
    cfg = pw.TrackConfig(solver=small_solver())
    part = pw.evolve_pair(tex, tex, pw.RegionPartition(labels), cfg).final_region
    sel = np.minimum(part.label_a, part.label_b) == 1
    a, b = part.pair_a[sel], part.pair_b[sel]
    radial = np.stack([(a % n + b % n) / 2.0 - c, (a // n + b // n) / 2.0 - c], axis=1)
    radial /= np.linalg.norm(radial, axis=1, keepdims=True)
    cos = np.abs((part.normals[sel] * radial).sum(axis=1))
    assert sel.any() and np.all(part.label_a[sel] + part.label_b[sel] == 3)
    assert cos.min() >= 0.9


def test_region_symmetric_difference_subpixel():
    psi_a = np.full((8, 8), 3.0)
    psi_a[4, 4] = -0.25
    psi_b = psi_a.copy()
    psi_b[4, 4] = -0.05
    # coverage fractions 0.75 vs 0.55: area difference 0.2
    assert region_symmetric_difference(psi_a, psi_b) == pytest.approx(0.2)


def test_euler_characteristic_constant_with_guard_on():
    spec = pw.SynthSpec(
        size=(48, 48), disc_center=(24.0, 24.0), disc_radius=10.0,
        contraction_per_frame=0.94, rotation_inside_deg=2.0,
        rotation_outside_deg=-2.0, frames=3, texture_seed=23,
        texture_smoothing=2.0,
    )
    frames, _, regions = pw.generate(spec)
    cfg = pw.TrackConfig(solver=small_solver(), dt=1.0, topology_preserve=True)
    from pwflow.topology import euler_characteristic

    start = euler_characteristic(regions[0].labels == 1)
    results = pw.track_sequence(frames, regions[0], cfg)
    for res in results:
        assert euler_characteristic(res.final_region.labels == 1) == start
