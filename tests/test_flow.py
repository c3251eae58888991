"""Motion operators, ghost values, right-hand side, and the CG solve."""

import numpy as np
import pytest

import pwflow as pw
from pwflow.errors import ConfigError, NumericalError
from pwflow.flow import MotionOperator

from oracles import (
    dense_operator_matrix,
    dense_rhs,
    random_two_region_instance,
)

RNG = np.random.default_rng(2024)


def make_cfg(mode, rng, equal_alphas=False):
    if mode == "soft" or equal_alphas:
        a = float(rng.uniform(0.3, 5.0))
        return pw.SolverConfig(
            alpha_in=a, alpha_out=a, beta=float(rng.uniform(7.0, 60.0)), mode=mode
        )
    return pw.SolverConfig(
        alpha_in=float(rng.uniform(0.3, 5.0)),
        alpha_out=float(rng.uniform(0.3, 5.0)),
        mode=mode,
    )


# ---------------------------------------------------------------------------
# SolverConfig
# ---------------------------------------------------------------------------


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        pw.SolverConfig(alpha_in=0.0)
    with pytest.raises(ConfigError):
        pw.SolverConfig(mode="sideways")
    with pytest.raises(ConfigError):
        pw.SolverConfig(mode="soft", beta=0.0)


def test_config_soft_rejects_singular_beta():
    # beta^2 == alpha_in * alpha_out makes the elimination singular
    with pytest.raises(ConfigError):
        pw.SolverConfig(alpha_in=4.0, alpha_out=4.0, beta=4.0, mode="soft")


def test_config_label_alphas_defaults():
    cfg = pw.SolverConfig(alpha_in=2.0, alpha_out=7.0)
    assert np.allclose(cfg.label_alphas(4), [7.0, 2.0, 2.0, 2.0])
    cfg2 = pw.SolverConfig(alpha_per_label=(1.0, 2.0, 3.0))
    assert np.allclose(cfg2.label_alphas(3), [1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# ghost values
# ---------------------------------------------------------------------------


def test_ghost_hard_worked_example():
    cfg = pw.SolverConfig(alpha_in=1.0, alpha_out=1.0)
    vin_y, vout_x = pw.ghost_values_hard(
        np.array([1.0, 0.0]), np.array([3.0, 2.0]), np.array([1.0, 0.0]), cfg
    )
    assert np.allclose(vin_y, [2.0, 0.0])
    assert np.allclose(vout_x, [2.0, 2.0])


def test_ghost_hard_normal_components_match_exactly():
    rng = np.random.default_rng(8)
    for _ in range(200):
        cfg = pw.SolverConfig(
            alpha_in=float(rng.uniform(0.1, 9)), alpha_out=float(rng.uniform(0.1, 9))
        )
        ang = rng.uniform(0, 2 * np.pi)
        n = np.array([np.cos(ang), np.sin(ang)])
        vin = rng.standard_normal(2)
        vout = rng.standard_normal(2)
        gin, gout = pw.ghost_values_hard(vin, vout, n, cfg)
        assert abs(float(gin @ n) - float(gout @ n)) <= 1e-12
        # tangential components copied from the same-side values
        t = np.array([-n[1], n[0]])
        assert abs(float(gin @ t) - float(vin @ t)) <= 1e-12
        assert abs(float(gout @ t) - float(vout @ t)) <= 1e-12


def test_ghost_hard_matched_field_is_fixed_point():
    cfg = pw.SolverConfig(alpha_in=2.0, alpha_out=0.5)
    c = np.array([0.3, -1.2])
    gin, gout = pw.ghost_values_hard(c, c, np.array([0.0, 1.0]), cfg)
    assert np.allclose(gin, c)
    assert np.allclose(gout, c)


def test_ghost_hard_tangential_jump_passes_through():
    cfg = pw.SolverConfig(alpha_in=1.0, alpha_out=3.0)
    n = np.array([1.0, 0.0])
    vin = np.array([0.7, 1.0])
    vout = np.array([0.7, -4.0])  # difference is purely tangential
    gin, gout = pw.ghost_values_hard(vin, vout, n, cfg)
    assert np.allclose(gin, vin)
    assert np.allclose(gout, vout)


def test_ghost_soft_worked_example():
    cfg = pw.SolverConfig(alpha_in=1.0, alpha_out=1.0, beta=3.0, mode="soft")
    gin, gout = pw.ghost_values_soft(
        np.array([0.0, 0.0]), np.array([2.0, 0.0]), np.array([1.0, 0.0]), cfg
    )
    assert np.allclose(gin, [1.5, 0.0])
    assert np.allclose(gout, [0.5, 0.0])


def test_ghost_soft_matched_field_is_fixed_point():
    cfg = pw.SolverConfig(alpha_in=1.0, alpha_out=2.0, beta=9.0, mode="soft")
    c = np.array([1.1, 0.4])
    gin, gout = pw.ghost_values_soft(c, c, np.array([1.0, 0.0]), cfg)
    assert np.allclose(gin, c)
    assert np.allclose(gout, c)


def test_ghost_soft_solves_discrete_interface_conditions():
    # the closed forms must satisfy the penalised one-sided conditions:
    #   a_i (v_i(y) - v_i(x)) + b pi_N(v_i(x)) - b pi_N(v_o(x)) = 0
    #   a_o (v_o(y) - v_o(x)) + b pi_N(v_i(y)) - b pi_N(v_o(y)) = 0
    rng = np.random.default_rng(21)
    for _ in range(100):
        ai, ao = rng.uniform(0.2, 4.0, 2)
        beta = float(rng.uniform(5.0, 40.0))
        cfg = pw.SolverConfig(alpha_in=ai, alpha_out=ao, beta=beta, mode="soft")
        ang = rng.uniform(0, 2 * np.pi)
        n = np.array([np.cos(ang), np.sin(ang)])
        vin_x = rng.standard_normal(2)
        vout_y = rng.standard_normal(2)
        vin_y, vout_x = pw.ghost_values_soft(vin_x, vout_y, n, cfg)

        def pin(v):
            return (v @ n) * n

        r1 = ai * (vin_y - vin_x) + beta * pin(vin_x) - beta * pin(vout_x)
        r2 = ao * (vout_y - vout_x) + beta * pin(vin_y) - beta * pin(vout_y)
        assert np.allclose(r1, 0.0, atol=1e-10)
        assert np.allclose(r2, 0.0, atol=1e-10)


# ---------------------------------------------------------------------------
# MotionOperator against the dense oracle
# ---------------------------------------------------------------------------


def test_operator_zero_velocity_maps_to_zero():
    image, labels, _ = random_two_region_instance(RNG)
    part = pw.RegionPartition(labels)
    out = MotionOperator(image, part, pw.SolverConfig())(np.zeros((*labels.shape, 2)))
    assert np.all(out == 0.0)


def test_operator_constant_field_constant_image_single_label():
    labels = np.ones((6, 6), np.int32)
    part = pw.RegionPartition(labels)
    op = MotionOperator(np.full((6, 6), 0.3), part, pw.SolverConfig())
    out = op(np.tile([1.5, -0.5], (6, 6, 1)))
    assert np.allclose(out, 0.0, atol=1e-14)


@pytest.mark.parametrize("mode", pw.MODES)
def test_operator_matches_dense_oracle(mode):
    rng = np.random.default_rng(hash(mode) % 2**32)
    for _ in range(12):
        image, labels, v = random_two_region_instance(rng)
        part = pw.RegionPartition(labels)
        cfg = make_cfg(mode, rng)
        out = MotionOperator(image, part, cfg)(v)
        mat = dense_operator_matrix(image, part, cfg)
        want = (mat @ v.reshape(-1)).reshape(v.shape)
        assert np.abs(out - want).max() <= 1e-10


def test_operator_multi_label_matches_dense_oracle():
    rng = np.random.default_rng(77)
    for _ in range(8):
        h = int(rng.integers(4, 8))
        w = int(rng.integers(4, 8))
        labels = rng.integers(0, 3, (h, w)).astype(np.int32)
        image = rng.random((h, w))
        v = rng.standard_normal((h, w, 2))
        part = pw.RegionPartition(labels)
        cfg = pw.SolverConfig(
            alpha_in=1.7, alpha_out=0.6, mode="hard",
            alpha_per_label=(0.6, 1.7, 3.1),
        )
        out = MotionOperator(image, part, cfg)(v)
        mat = dense_operator_matrix(image, part, cfg)
        want = (mat @ v.reshape(-1)).reshape(v.shape)
        assert np.abs(out - want).max() <= 1e-10


def _assert_matches_dense(image, labels, cfg, v):
    part = pw.RegionPartition(labels)
    out = MotionOperator(image, part, cfg)(v)
    mat = dense_operator_matrix(image, part, cfg)
    want = (mat @ v.reshape(-1)).reshape(v.shape)
    assert np.abs(out - want).max() <= 1e-10


def test_operator_soft_unequal_alphas_matches_dense_oracle():
    # the two sides' couplings differ: a_i b (b - a_o) vs a_o b (b - a_i)
    rng = np.random.default_rng(91)
    for _ in range(12):
        image, labels, v = random_two_region_instance(rng)
        a_in, a_out = rng.uniform(0.3, 5.0, 2)
        cfg = pw.SolverConfig(
            alpha_in=float(a_in), alpha_out=float(a_out) * 1.7,
            beta=float(rng.uniform(7.0, 60.0)), mode="soft",
        )
        _assert_matches_dense(image, labels, cfg, v)


@pytest.mark.parametrize("mode", pw.MODES)
@pytest.mark.parametrize("transpose", [False, True], ids=["1xW", "Hx1"])
def test_operator_single_row_or_column_matches_dense_oracle(mode, transpose):
    rng = np.random.default_rng(17 + transpose)
    for _ in range(8):
        n = int(rng.integers(2, 12))
        labels = rng.integers(0, 2, (1, n)).astype(np.int32)
        labels[0, rng.integers(1, n)] = 1 - labels[0, 0]  # both labels present
        image = rng.random((1, n))
        v = rng.standard_normal((1, n, 2))
        if transpose:
            labels, image = labels.T.copy(), image.T.copy()
            v = v.transpose(1, 0, 2).copy()
        cfg = pw.SolverConfig(
            alpha_in=float(rng.uniform(0.3, 5.0)), alpha_out=float(rng.uniform(0.3, 5.0)),
            beta=float(rng.uniform(7.0, 60.0)), mode=mode,
        )
        _assert_matches_dense(image, labels, cfg, v)


@pytest.mark.parametrize("mode", ["hard", "soft"])
def test_operator_pixel_in_horizontal_and_vertical_pairs_matches_dense_oracle(mode):
    # pixel (1, 1) is the left/top end of a horizontal and a vertical pair
    # (both with label 2) and the right/bottom end of two pairs with label 0
    labels = np.array(
        [[0, 0, 0, 1],
         [0, 1, 2, 2],
         [0, 2, 2, 1],
         [1, 1, 0, 0]], dtype=np.int32,
    )
    part = pw.RegionPartition(labels)
    pairs = set(map(tuple, part.pairs.tolist()))
    assert {(5, 6), (5, 9), (4, 5), (1, 5)} <= pairs
    rng = np.random.default_rng(5)
    cfg = pw.SolverConfig(
        alpha_in=1.7, alpha_out=0.6, beta=25.0, mode=mode,
        alpha_per_label=(0.6, 1.7, 3.1),
    )
    for _ in range(5):
        _assert_matches_dense(rng.random((4, 4)), labels, cfg, rng.standard_normal((4, 4, 2)))


@pytest.mark.parametrize("mode", pw.MODES)
def test_operator_symmetric(mode):
    rng = np.random.default_rng(13)
    for _ in range(6):
        image, labels, _ = random_two_region_instance(rng, max_side=8)
        part = pw.RegionPartition(labels)
        cfg = make_cfg(mode, rng, equal_alphas=(mode == "soft"))
        mat = dense_operator_matrix(image, part, cfg)
        assert np.abs(mat - mat.T).max() <= 1e-10


@pytest.mark.parametrize("mode", pw.MODES)
def test_operator_positive_semidefinite_quadratic_form(mode):
    rng = np.random.default_rng(29)
    for _ in range(25):
        image, labels, v = random_two_region_instance(rng, max_side=12)
        part = pw.RegionPartition(labels)
        cfg = make_cfg(mode, rng, equal_alphas=(mode == "soft"))
        out = MotionOperator(image, part, cfg)(v)
        quad = float(np.vdot(v, out))
        assert quad >= -1e-9 * float(np.vdot(v, v))


def test_global_mode_ignores_partition():
    rng = np.random.default_rng(4)
    image, labels, v = random_two_region_instance(rng)
    cfg = pw.SolverConfig(alpha_in=2.2, alpha_out=9.9, mode="global")
    out_part = MotionOperator(image, pw.RegionPartition(labels), cfg)(v)
    uniform = pw.RegionPartition(np.zeros_like(labels))
    out_uniform = MotionOperator(image, uniform, cfg)(v)
    assert np.allclose(out_part, out_uniform, atol=1e-13)


def test_modes_coincide_when_one_label_covers_grid():
    rng = np.random.default_rng(6)
    image = rng.random((7, 7))
    v = rng.standard_normal((7, 7, 2))
    labels = np.ones((7, 7), np.int32)
    part = pw.RegionPartition(labels)
    outs = []
    for mode in ("hard", "soft", "global", "region_only"):
        cfg = pw.SolverConfig(alpha_in=2.5, alpha_out=2.5, beta=30.0, mode=mode)
        outs.append(MotionOperator(image, part, cfg)(v))
    for other in outs[1:]:
        assert np.allclose(outs[0], other, atol=1e-12)


# ---------------------------------------------------------------------------
# MotionOperator.rhs
# ---------------------------------------------------------------------------


def test_rhs_zero_when_frames_match():
    image, labels, _ = random_two_region_instance(RNG)
    part = pw.RegionPartition(labels)
    assert np.all(MotionOperator(image, part, pw.SolverConfig()).rhs(image) == 0.0)


def test_rhs_ramp_example():
    image = np.add.outer(np.zeros(8), np.arange(8.0))
    part = pw.RegionPartition(np.zeros((8, 8), np.int32))
    b = MotionOperator(image, part, pw.SolverConfig()).rhs(image + 0.1)
    assert np.allclose(b[..., 0], -0.1)
    assert np.allclose(b[..., 1], 0.0)


@pytest.mark.parametrize("mode", pw.MODES)
def test_rhs_matches_independent_recomputation(mode):
    rng = np.random.default_rng(17)
    for _ in range(10):
        image, labels, _ = random_two_region_instance(rng)
        next_image = rng.random(image.shape)
        part = pw.RegionPartition(labels)
        got = MotionOperator(image, part, pw.SolverConfig(mode=mode)).rhs(next_image)
        want = dense_rhs(image, next_image, part, mode)
        assert np.abs(got - want).max() <= 1e-13


# ---------------------------------------------------------------------------
# solve_cg
# ---------------------------------------------------------------------------


def test_cg_zero_rhs_returns_zero_in_zero_iterations():
    image, labels, _ = random_two_region_instance(RNG)
    part = pw.RegionPartition(labels)
    cfg = pw.SolverConfig()
    op = MotionOperator(image, part, cfg)
    res = pw.solve_cg(op, np.zeros((*image.shape, 2)), cfg)
    assert res.iterations == 0
    assert res.converged
    assert np.all(res.solution == 0.0)


def test_cg_matches_dense_minimum_norm_solve():
    rng = np.random.default_rng(41)
    for _ in range(6):
        image, labels, _ = random_two_region_instance(rng, max_side=7)
        part = pw.RegionPartition(labels)
        cfg = pw.SolverConfig(
            alpha_in=1.5, alpha_out=0.8, cg_rel_tol=1e-12, cg_max_iter=5000
        )
        op = MotionOperator(image, part, cfg)
        next_image = image + 0.05 * rng.standard_normal(image.shape)
        b = op.rhs(next_image)
        res = pw.solve_cg(op, b, cfg)
        mat = dense_operator_matrix(image, part, cfg)
        want = np.linalg.pinv(mat, rcond=1e-12) @ b.reshape(-1)
        err = np.linalg.norm(res.solution.reshape(-1) - want)
        assert err <= 1e-8 * (1.0 + np.linalg.norm(want))


def test_cg_residual_contract_and_history():
    rng = np.random.default_rng(43)
    image, labels, _ = random_two_region_instance(rng, max_side=10)
    part = pw.RegionPartition(labels)
    cfg = pw.SolverConfig(cg_rel_tol=1e-9, cg_max_iter=2000)
    op = MotionOperator(image, part, cfg)
    # a right-hand side in the operator's range, as the solver contract assumes
    b = op(rng.standard_normal((*image.shape, 2)))
    res = pw.solve_cg(op, b, cfg)
    assert res.converged
    assert all(np.isfinite(r) for r in res.residuals)
    b_norm = float(np.linalg.norm(b))
    true_resid = float(np.linalg.norm(op(res.solution) - b))
    assert true_resid <= 10 * cfg.cg_rel_tol * b_norm
    assert res.residuals[-1] <= cfg.cg_rel_tol * b_norm


def test_cg_flags_non_convergence_at_iteration_cap():
    rng = np.random.default_rng(47)
    image, labels, _ = random_two_region_instance(rng, max_side=10)
    part = pw.RegionPartition(labels)
    cfg = pw.SolverConfig(cg_rel_tol=1e-14, cg_max_iter=2)
    op = MotionOperator(image, part, cfg)
    res = pw.solve_cg(op, rng.standard_normal((*image.shape, 2)), cfg)
    assert not res.converged
    assert res.iterations == 2


def test_cg_raises_on_non_finite():
    cfg = pw.SolverConfig(cg_max_iter=10)

    def bad_operator(v, out):
        out.fill(np.nan)
        return out

    with pytest.raises(NumericalError, match="iteration 1"):
        pw.solve_cg(bad_operator, np.ones((3, 3, 2)), cfg)


# ---------------------------------------------------------------------------
# solve_infinitesimal
# ---------------------------------------------------------------------------


def test_solve_matched_frames_gives_zero_velocity():
    image, labels, _ = random_two_region_instance(RNG)
    part = pw.RegionPartition(labels)
    res = pw.solve_infinitesimal(image, image, part, pw.SolverConfig())
    assert np.all(res.velocity.field == 0.0)
    assert res.converged


def test_solve_recovers_half_pixel_translation():
    tex = pw.texture(5, (64, 64), 3.0)
    grid = pw.identity_map(64, 64)
    shifted_coords = grid.copy()
    shifted_coords[..., 0] -= 0.5
    moved = pw.bilinear_sample(tex, shifted_coords)
    part = pw.RegionPartition(np.zeros((64, 64), np.int32))
    cfg = pw.SolverConfig(alpha_in=3.0, alpha_out=3.0, mode="global")
    res = pw.solve_infinitesimal(tex, moved, part, cfg)
    inner = res.velocity.field[8:-8, 8:-8]
    mean_v = np.array([inner[..., 0].mean(), inner[..., 1].mean()])
    assert np.linalg.norm(mean_v - [0.5, 0.0]) <= 0.1


def test_solve_hard_mode_interface_agreement():
    tex = pw.texture(2, (48, 48), 2.0)
    grid = pw.identity_map(48, 48)
    shifted_coords = grid.copy()
    shifted_coords[..., 0] -= 0.4
    moved = pw.bilinear_sample(tex, shifted_coords)
    yy, xx = np.mgrid[0:48, 0:48]
    labels = (((xx - 24) ** 2 + (yy - 24) ** 2) <= 100).astype(np.int32)
    part = pw.RegionPartition(labels)
    cfg = pw.SolverConfig(alpha_in=2.0, alpha_out=2.0, mode="hard")
    res = pw.solve_infinitesimal(tex, moved, part, cfg)
    jmax, _ = pw.normal_jump(res.velocity, cfg)
    assert jmax <= 1e-6 * (1.0 + res.velocity.max_norm)


def test_energy_never_increases_from_zero_guess():
    rng = np.random.default_rng(53)
    for mode in pw.MODES:
        for _ in range(5):
            image, labels, _ = random_two_region_instance(rng, max_side=10)
            part = pw.RegionPartition(labels)
            cfg = make_cfg(mode, rng, equal_alphas=(mode == "soft"))
            next_image = rng.random(image.shape)
            res = pw.solve_infinitesimal(image, next_image, part, cfg)
            zero = pw.PiecewiseVelocity(np.zeros_like(res.velocity.field), part)
            e_solved = pw.energy(res.velocity, image, next_image, cfg)
            e_zero = pw.energy(zero, image, next_image, cfg)
            assert e_solved <= e_zero + 1e-9 * max(1.0, e_zero)


def test_counter_rotation_tangential_jump_dominates_normal_jump():
    spec = pw.SynthSpec(
        size=(64, 64), disc_center=(32.0, 32.0), disc_radius=16.0,
        contraction_per_frame=1.0, rotation_inside_deg=3.0,
        rotation_outside_deg=-3.0, frames=2, texture_seed=3,
        texture_smoothing=2.0,
    )
    frames, _, regions = pw.generate(spec)
    psi = pw.signed_distance(regions[0].labels == 1)
    part = pw.RegionPartition(regions[0].labels, psi=psi)
    cfg = pw.SolverConfig(alpha_in=3.0, alpha_out=3.0, mode="hard")
    res = pw.solve_infinitesimal(frames[0], frames[1], part, cfg)
    _, tan_mean = pw.tangential_jump(res.velocity, cfg)
    # raw normal-component mismatch across the pairs, for scale
    flat = res.velocity.field.reshape(-1, 2)
    d = flat[part.pair_b] - flat[part.pair_a]
    raw_normal_mean = float(np.abs((d * part.normals).sum(axis=1)).mean())
    assert tan_mean >= 10.0 * raw_normal_mean
