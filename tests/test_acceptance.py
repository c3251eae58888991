"""End-to-end acceptance suite: one test per release criterion.

Run ``pytest tests/test_acceptance.py -v -s`` to get one pass/fail line per
criterion.  Every tolerance is fixed here; nothing is calibrated at runtime.
"""

import time

import numpy as np
import pytest

import pwflow as pw
import pwflow.io as rasterio
from pwflow.cli import EXIT_OK, main as cli_main
from pwflow.flow import MotionOperator
from pwflow.topology import count_components

from oracles import dense_operator_matrix, random_two_region_instance


def _report(num, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {num} {name}: PASS{suffix}")


def _random_cfg(mode, rng):
    if mode == "soft":
        a = float(rng.uniform(0.3, 5.0))
        return pw.SolverConfig(
            alpha_in=a, alpha_out=a, beta=float(rng.uniform(7.0, 60.0)), mode=mode
        )
    return pw.SolverConfig(
        alpha_in=float(rng.uniform(0.3, 5.0)),
        alpha_out=float(rng.uniform(0.3, 5.0)),
        mode=mode,
    )


def test_criterion_1_operators_positive_semidefinite():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for mode in pw.MODES:
        for _ in range(200):
            image, labels, v = random_two_region_instance(rng, max_side=16)
            part = pw.RegionPartition(labels)
            cfg = _random_cfg(mode, rng)
            out = MotionOperator(image, part, cfg)(v)
            quad = float(np.vdot(v, out))
            norm2 = float(np.vdot(v, v))
            assert quad >= -1e-9 * norm2
            worst = min(worst, quad / norm2)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(1, "operator positive semidefiniteness",
            f"800 instances, min quad ratio {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_dense_oracle_equivalence():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    count = 0
    for mode in pw.MODES:
        for _ in range(6):
            image, labels, v = random_two_region_instance(rng, max_side=8)
            part = pw.RegionPartition(labels)
            cfg = _random_cfg(mode, rng)
            cfg = pw.SolverConfig(
                alpha_in=cfg.alpha_in, alpha_out=cfg.alpha_out, beta=cfg.beta,
                mode=mode, cg_rel_tol=1e-12, cg_max_iter=6000,
            )
            mat = dense_operator_matrix(image, part, cfg)
            op = MotionOperator(image, part, cfg)
            # operator application vs dense product
            got = op(v)
            want = (mat @ v.reshape(-1)).reshape(v.shape)
            assert np.abs(got - want).max() <= 1e-10
            # CG vs dense minimum-norm solve
            next_image = image + 0.04 * rng.standard_normal(image.shape)
            b = op.rhs(next_image)
            res = pw.solve_cg(op, b, cfg)
            direct = np.linalg.pinv(mat, rcond=1e-12) @ b.reshape(-1)
            err = np.linalg.norm(res.solution.reshape(-1) - direct)
            assert err <= 1e-8 * (1.0 + np.linalg.norm(direct))
            count += 1
    elapsed = time.perf_counter() - start
    assert count >= 20
    assert elapsed < 30.0
    _report(2, "dense-oracle equivalence", f"{count} instances, {elapsed:.1f}s")


def _interface_test_pair():
    spec = pw.SynthSpec(
        size=(64, 64), disc_center=(32.0, 32.0), disc_radius=15.0,
        contraction_per_frame=0.96, rotation_inside_deg=2.0,
        rotation_outside_deg=-2.0, frames=2, texture_seed=14,
        texture_smoothing=2.0,
    )
    frames, _, regions = pw.generate(spec)
    psi = pw.signed_distance(regions[0].labels == 1)
    part = pw.RegionPartition(regions[0].labels, psi=psi)
    return frames, part


def test_criterion_3_hard_constraint_vs_independent_neumann_solves():
    frames, part = _interface_test_pair()
    hard_cfg = pw.SolverConfig(alpha_in=3.0, alpha_out=3.0, mode="hard")
    hard = pw.solve_infinitesimal(frames[0], frames[1], part, hard_cfg)
    assert hard.converged
    j_hard, _ = pw.normal_jump(hard.velocity, hard_cfg)
    bound = 1e-6 * (1.0 + hard.velocity.max_norm)
    assert j_hard <= bound

    neumann_cfg = pw.SolverConfig(alpha_in=3.0, alpha_out=3.0, mode="region_only")
    neumann = pw.solve_infinitesimal(frames[0], frames[1], part, neumann_cfg)
    j_neumann, _ = pw.normal_jump(neumann.velocity, neumann_cfg)
    assert j_neumann >= 100.0 * max(j_hard, 1e-12)
    _report(3, "interface normal matching",
            f"hard {j_hard:.2e} vs independent solves {j_neumann:.2e}")


def test_criterion_4_soft_interface_residual_decreases_with_penalty():
    spec = pw.SynthSpec(
        size=(64, 64), disc_center=(32.0, 32.0), disc_radius=18.0,
        contraction_per_frame=1.0, rotation_inside_deg=1.0,
        rotation_outside_deg=-1.0, frames=2, texture_seed=4,
        texture_smoothing=2.0,
    )
    frames, _, regions = pw.generate(spec)
    psi = pw.signed_distance(regions[0].labels == 1)
    part = pw.RegionPartition(regions[0].labels, psi=psi)
    jumps = []
    max_v = 0.0
    for beta in (10.0, 100.0, 1000.0, 1e4):
        cfg = pw.SolverConfig(alpha_in=1.0, alpha_out=1.0, beta=beta, mode="soft")
        res = pw.solve_infinitesimal(frames[0], frames[1], part, cfg)
        jumps.append(pw.normal_jump(res.velocity, cfg)[0])
        max_v = max(max_v, res.velocity.max_norm)
    assert all(b <= a for a, b in zip(jumps, jumps[1:]))  # nonincreasing
    assert jumps[-1] <= 1e-3 * (1.0 + max_v)
    _report(4, "soft-penalty convergence",
            "jump max " + " > ".join(f"{j:.1e}" for j in jumps))


def test_criterion_5_constrained_tracking_beats_global_regularization():
    spec = pw.SynthSpec()  # default 10-frame counter-rotating contraction
    frames, _, regions = pw.generate(spec)
    ident = pw.identity_map(*spec.size[::-1])

    def run(mode, alpha):
        cfg = pw.TrackConfig(
            solver=pw.SolverConfig(
                alpha_in=alpha, alpha_out=alpha, mode=mode,
                cg_rel_tol=1e-3, cg_max_iter=500,
            ),
            dt=1.0, max_inner_iters=30,
        )
        results = pw.track_sequence(frames, regions[0], cfg)
        dices = [
            pw.dice(r.final_region, regions[t + 1]) for t, r in enumerate(results)
        ]
        ees = [
            pw.endpoint_error(
                ident - r.backward_map, ident - pw.gt_backward_map(spec, t)
            )[0]
            for t, r in enumerate(results)
        ]
        return dices, float(np.mean(ees))

    start = time.perf_counter()
    hard_dices, hard_ee = run("hard", 3.0)
    global_runs = {alpha: run("global", alpha) for alpha in (3.0, 20.0, 50.0)}
    elapsed = time.perf_counter() - start

    assert min(hard_dices) >= 0.93
    for alpha, (_, global_ee) in global_runs.items():
        assert hard_ee < global_ee, f"alpha={alpha}"
    # at matched smoothness the global baseline also segments strictly worse
    assert min(global_runs[3.0][0]) < min(hard_dices)
    assert elapsed < 300.0
    detail = (
        f"dice>={min(hard_dices):.3f}, ee {hard_ee:.3f} vs "
        + "/".join(f"{ee:.3f}" for _, ee in global_runs.values())
        + f", {elapsed:.0f}s"
    )
    _report(5, "tracking head-to-head", detail)


def _pursuit_sequence():
    """A faster textured disc overtakes a slower one over a flat background."""
    w, h = 64, 48
    yy, xx = np.mgrid[0:h, 0:w]
    obj_a = pw.texture(42, (w, h), 1.5)
    obj_b = pw.texture(43, (w, h), 1.5)
    frames = []
    masks = []
    for s in range(9):
        img = np.full((h, w), 0.5)
        m1 = (xx - (13.5 + 2.0 * s)) ** 2 + (yy - 24.0) ** 2 <= 64
        m2 = (xx - (35.5 + 1.0 * s)) ** 2 + (yy - 24.0) ** 2 <= 64
        ta = np.roll(obj_a, 2 * s, axis=1)
        tb = np.roll(obj_b, s, axis=1)
        img[m2] = tb[m2]
        img[m1 & ~m2] = ta[m1 & ~m2]
        frames.append(img)
        masks.append(m1 | m2)
    return frames, masks


def test_criterion_6_topology_guard_preserves_two_components():
    frames, masks = _pursuit_sequence()
    region = pw.RegionPartition(masks[0].astype(np.int32))

    def run(topology):
        cfg = pw.TrackConfig(
            solver=pw.SolverConfig(
                alpha_in=0.3, alpha_out=0.3, mode="hard",
                cg_rel_tol=1e-4, cg_max_iter=600,
            ),
            dt=1.0, max_inner_iters=8, converge_tol=0.0,
            topology_preserve=topology,
        )
        return pw.track_sequence(frames, region, cfg)

    guarded = run(True)
    steps = 0
    for res in guarded:
        for row in res.diagnostics:
            assert row.components == 2
            steps += 1
    assert steps >= 50
    assert count_components(guarded[-1].final_region.labels == 1) == 2

    unguarded = run(False)
    assert count_components(unguarded[-1].final_region.labels == 1) == 1
    _report(6, "topology preservation",
            f"{steps} guarded steps all 2 components; unguarded merges to 1")


def test_criterion_7_fixed_point_and_replay_determinism(tmp_path):
    # zero motion: identical frames give a zero field and untouched masks
    tex = pw.texture(17, (48, 48), 2.0)
    yy, xx = np.mgrid[0:48, 0:48]
    labels = (((xx - 24) ** 2 + (yy - 24) ** 2) <= 100).astype(np.int32)
    part = pw.RegionPartition(labels)
    psi = pw.signed_distance(labels == 1)
    solve = pw.solve_infinitesimal(tex, tex, part, pw.SolverConfig())
    assert np.all(solve.velocity.field == 0.0)

    cfg = pw.TrackConfig(solver=pw.SolverConfig(cg_rel_tol=1e-6))
    res = pw.evolve_pair(tex, tex, part, cfg)
    ident = pw.identity_map(48, 48)
    assert np.abs(res.backward_map - ident).max() <= 1e-9
    assert np.abs(res.psi_final - psi).max() <= 1e-9
    assert np.array_equal(res.final_region.labels, labels)

    # manifest replay reproduces every output byte for byte
    out = tmp_path / "run"
    assert cli_main([
        "synth", "--out", str(out), "--size", "48", "--radius", "9",
        "--frames", "3", "--smoothing", "2.0",
    ]) == EXIT_OK
    flow_out = tmp_path / "flow"
    assert cli_main([
        "flow", str(out / "frame_0000.pgm"), str(out / "frame_0001.pgm"),
        str(out / "gt_mask_0000.pgm"), "--out", str(flow_out),
        "--cg-tol", "1e-4",
    ]) == EXIT_OK
    for src in (out, flow_out):
        replayed = tmp_path / (src.name + "_replay")
        assert cli_main([
            "replay", str(src / "manifest.txt"), "--out", str(replayed)
        ]) == EXIT_OK
        manifest = (src / "manifest.txt").read_text().splitlines()
        outputs = manifest[manifest.index("[outputs]") + 1 :]
        assert outputs
        for name in outputs:
            assert (replayed / name).read_bytes() == (src / name).read_bytes()
    _report(7, "fixed point and determinism",
            "zero flow at identical frames; replay byte-identical")


def test_criterion_8_eval_table_carries_standard_metric_set(tmp_path):
    data = tmp_path / "gt"
    assert cli_main([
        "synth", "--out", str(data), "--size", "48", "--radius", "9",
        "--frames", "3", "--smoothing", "2.0",
    ]) == EXIT_OK
    fake = tmp_path / "result"
    fake.mkdir()
    for t in (1, 2):
        mask = rasterio.read_pgm(data / f"gt_mask_{t:04d}.pgm")
        rasterio.write_pgm(fake / f"mask_{t:04d}.pgm", mask, 255)
    eval_out = tmp_path / "eval"
    assert cli_main([
        "eval", str(fake), str(data), "--out", str(eval_out)
    ]) == EXIT_OK
    lines = (eval_out / "eval.tsv").read_text().splitlines()
    header = lines[0].split("\t")
    # the propagation-accuracy metric set: overlap, perpendicular distance,
    # worst-case contour distance, plus flow error and the interface
    # diagnostic
    assert header == [
        "frame", "dice", "apd", "hd", "ee_mean", "ee_max", "normal_jump_max"
    ]
    assert lines[-1].startswith("summary\t")
    assert "±" in lines[-1]
    assert len(lines) == 1 + 2 + 1  # header, one row per frame, summary
    _report(8, "evaluation table format",
            "dice/apd/hd + flow error + interface diagnostic, with summary row")
