"""CLI surface: subcommands, config precedence, manifests, exit codes."""

import numpy as np
import pytest

import pwflow.io as rasterio
from pwflow.cli import (
    EXIT_INPUT,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    SCHEMAS,
    RunManifest,
    main,
    read_config_file,
    resolve_config,
)


def run_cli(*argv):
    return main([str(a) for a in argv])


def make_synth_dir(tmp_path, name="data", size=48, radius=9, frames=3, extra=()):
    out = tmp_path / name
    code = run_cli(
        "synth", "--out", out, "--size", size, "--radius", radius,
        "--frames", frames, "--smoothing", 2.0, *extra,
    )
    assert code == EXIT_OK
    return out


# ---------------------------------------------------------------------------
# config machinery
# ---------------------------------------------------------------------------


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nalpha_in = 7.5\nmode = soft  # inline comment\n")
    values = read_config_file(cfg)
    assert values == {"alpha_in": "7.5", "mode": "soft"}


def test_config_precedence_defaults_file_flags(tmp_path):
    schema = {"alpha_in": ("float", 3.0), "beta": ("float", 100.0)}
    values, prov = resolve_config(schema, {"alpha_in": "5.0"}, {"beta": 9.0})
    assert values == {"alpha_in": 5.0, "beta": 9.0}
    assert prov == {"alpha_in": "file", "beta": "flag"}


def test_config_rejects_unknown_keys():
    from pwflow.errors import InputFormatError

    with pytest.raises(InputFormatError):
        resolve_config({"alpha_in": ("float", 3.0)}, {"bogus": "1"}, {})


def test_manifest_round_trips_through_text():
    man = RunManifest(
        subcommand="flow",
        values={
            "alpha_in": 3.0, "alpha_out": 1.5, "beta": 100.0, "mode": "hard",
            "cg_tol": 1e-08, "cg_max_iter": None, "flow_max": None,
        },
        provenance={
            "alpha_in": "flag", "alpha_out": "default", "beta": "default",
            "mode": "file", "cg_tol": "default", "cg_max_iter": "default",
            "flow_max": "default",
        },
        inputs=[("abc123", "frames/i0.pgm")],
        outputs=["velocity.fgrid"],
        wall_time_s=1.25,
        note="",
    )
    back = RunManifest.parse(man.render())
    assert back == man


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def test_synth_writes_expected_artifacts(tmp_path):
    out = make_synth_dir(tmp_path, frames=3)
    for t in range(3):
        assert (out / f"frame_{t:04d}.pgm").exists()
        assert (out / f"gt_mask_{t:04d}.pgm").exists()
    for t in (1, 2):
        assert (out / f"gt_flow_{t:04d}.fgrid").exists()
        assert (out / f"gt_bflow_{t:04d}.fgrid").exists()
    assert (out / "synth_spec.txt").exists()
    assert (out / "manifest.txt").exists()
    mask = rasterio.read_pgm(out / "gt_mask_0000.pgm")
    assert set(np.unique(mask)) == {0, 1}


def test_synth_is_deterministic(tmp_path):
    a = make_synth_dir(tmp_path, "a")
    b = make_synth_dir(tmp_path, "b")
    for name in ("frame_0001.pgm", "gt_flow_0001.fgrid", "gt_mask_0002.pgm"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


# ---------------------------------------------------------------------------
# flow
# ---------------------------------------------------------------------------


def test_flow_identical_frames_zero_field_and_report(tmp_path):
    data = make_synth_dir(tmp_path)
    out = tmp_path / "flowout"
    code = run_cli(
        "flow", data / "frame_0000.pgm", data / "frame_0000.pgm",
        data / "gt_mask_0000.pgm", "--out", out,
    )
    assert code == EXIT_OK
    field = rasterio.read_fgrid(out / "velocity.fgrid")
    assert np.all(field == 0.0)
    report = (out / "jump_report.txt").read_text()
    assert "normal_jump_max = 0.0" in report


def test_flow_runs_and_writes_color_raster(tmp_path):
    data = make_synth_dir(tmp_path)
    out = tmp_path / "flowout"
    code = run_cli(
        "flow", data / "frame_0000.pgm", data / "frame_0001.pgm",
        data / "gt_mask_0000.pgm", "--out", out, "--mode", "hard",
        "--cg-tol", 1e-4,
    )
    assert code == EXIT_OK
    assert (out / "flow_color.ppm").read_bytes().startswith(b"P6\n48 48\n255\n")
    field = rasterio.read_fgrid(out / "velocity.fgrid")
    assert field.shape == (48, 48, 2)
    assert np.abs(field).max() > 0.01


def test_flow_hard_mode_beats_global_on_counter_rotation(tmp_path):
    data = make_synth_dir(tmp_path, size=64, radius=15, frames=2)
    errors = {}
    for mode in ("hard", "global"):
        out = tmp_path / mode
        assert run_cli(
            "flow", data / "frame_0000.pgm", data / "frame_0001.pgm",
            data / "gt_mask_0000.pgm", "--out", out, "--mode", mode,
            "--alpha-in", 3.0, "--alpha-out", 3.0, "--cg-tol", 1e-5,
        ) == EXIT_OK
        field = rasterio.read_fgrid(out / "velocity.fgrid").astype(np.float64)
        gt = rasterio.read_fgrid(data / "gt_flow_0001.fgrid").astype(np.float64)
        from pwflow import endpoint_error

        errors[mode], _ = endpoint_error(field, gt)
    assert errors["hard"] < errors["global"]


def test_flow_missing_input_exits_3(tmp_path):
    code = run_cli(
        "flow", tmp_path / "nope.pgm", tmp_path / "nope.pgm",
        tmp_path / "nope.pgm", "--out", tmp_path / "o",
    )
    assert code == EXIT_INPUT


def test_flow_dimension_mismatch_exits_3(tmp_path):
    data = make_synth_dir(tmp_path)
    other = make_synth_dir(tmp_path, "other", size=32, radius=7)
    code = run_cli(
        "flow", data / "frame_0000.pgm", other / "frame_0000.pgm",
        data / "gt_mask_0000.pgm", "--out", tmp_path / "o",
    )
    assert code == EXIT_INPUT


# ---------------------------------------------------------------------------
# track + eval
# ---------------------------------------------------------------------------


def track_args(data, out, frames=3, extra=()):
    frame_paths = [data / f"frame_{t:04d}.pgm" for t in range(frames)]
    return [
        "track", *frame_paths, "--mask", data / "gt_mask_0000.pgm",
        "--out", out, "--cg-tol", 1e-3, "--cg-max-iter", 300,
        "--dt", 1.0, "--max-iters", 25, *extra,
    ]


def test_track_identical_frames_keeps_mask(tmp_path):
    data = make_synth_dir(tmp_path)
    out = tmp_path / "trackout"
    frame0 = data / "frame_0000.pgm"
    code = run_cli(
        "track", frame0, frame0, frame0, "--mask", data / "gt_mask_0000.pgm",
        "--out", out,
    )
    assert code == EXIT_OK
    for t in (1, 2):
        got = rasterio.read_pgm(out / f"mask_{t:04d}.pgm")
        want = rasterio.read_pgm(data / "gt_mask_0000.pgm")
        assert np.array_equal(got, want)
        assert (out / f"psi_{t:04d}.fgrid").exists()
        assert (out / f"bmap_{t:04d}.fgrid").exists()
        assert (out / f"diag_{t:04d}.tsv").exists()
    diag = (out / "diag_0001.tsv").read_text().splitlines()
    assert diag[0] == (
        "iteration\tresidual\tarea\tnormal_jump_max"
        "\tcomponents\tcg_iterations\tcg_converged"
    )
    assert len(diag) >= 2
    for line in diag[1:]:
        cells = line.split("\t")
        assert len(cells) == 7
        assert int(cells[4]) == 1  # one tracked disc
        # identical frames: zero right-hand side, solved in zero CG steps
        assert cells[5:] == ["0", "1"]


def test_track_and_eval_on_synthetic_sequence(tmp_path, capsys):
    data = make_synth_dir(tmp_path, frames=3)
    out = tmp_path / "trackout"
    assert run_cli(*track_args(data, out)) == EXIT_OK

    eval_out = tmp_path / "evalout"
    code = run_cli("eval", out, data, "--out", eval_out)
    assert code == EXIT_OK
    table = (eval_out / "eval.tsv").read_text().splitlines()
    assert table[0] == "frame\tdice\tapd\thd\tee_mean\tee_max\tnormal_jump_max"
    rows = [line.split("\t") for line in table[1:]]
    assert rows[-1][0] == "summary"
    assert "±" in rows[-1][1]
    data_rows = rows[:-1]
    assert len(data_rows) == 2
    for row in data_rows:
        assert float(row[1]) >= 0.9  # dice against ground truth
        assert float(row[2]) <= 1.0  # apd in pixels
        assert np.isfinite(float(row[4]))  # ee_mean from bdisp vs gt_bflow


def test_eval_reads_normal_jump_by_column_name(tmp_path):
    data = make_synth_dir(tmp_path)
    res = tmp_path / "res"
    res.mkdir()
    for t in (1, 2):
        mask = rasterio.read_pgm(data / f"gt_mask_{t:04d}.pgm")
        rasterio.write_pgm(res / f"mask_{t:04d}.pgm", mask, 255)
        # normal_jump_max is not the last column
        (res / f"diag_{t:04d}.tsv").write_text(
            "iteration\tnormal_jump_max\tcomponents\n"
            f"1\t0.5\t1\n2\t0.{t}25\t1\n"
        )
    eval_out = tmp_path / "evalout"
    assert run_cli("eval", res, data, "--out", eval_out) == EXIT_OK
    table = (eval_out / "eval.tsv").read_text().splitlines()
    col = table[0].split("\t").index("normal_jump_max")
    assert [float(row.split("\t")[col]) for row in table[1:3]] == [0.125, 0.225]


def test_eval_identical_masks_perfect_scores(tmp_path):
    data = make_synth_dir(tmp_path)
    fake = tmp_path / "fake"
    fake.mkdir()
    for t in (1, 2):
        mask = rasterio.read_pgm(data / f"gt_mask_{t:04d}.pgm")
        rasterio.write_pgm(fake / f"mask_{t:04d}.pgm", mask, 255)
    eval_out = tmp_path / "evalout"
    assert run_cli("eval", fake, data, "--out", eval_out) == EXIT_OK
    rows = (eval_out / "eval.tsv").read_text().splitlines()[1:-1]
    for row in rows:
        cells = row.split("\t")
        assert float(cells[1]) == 1.0
        assert float(cells[2]) == pytest.approx(0.0, abs=1e-9)
        assert float(cells[3]) == pytest.approx(0.0, abs=1e-9)


def test_eval_shifted_square_masks_score_half_dice(tmp_path):
    gt_dir = tmp_path / "gt"
    res_dir = tmp_path / "res"
    gt_dir.mkdir()
    res_dir.mkdir()
    square = np.zeros((20, 20), np.uint8)
    square[5:15, 0:10] = 1
    shifted = np.roll(square, 5, axis=1)
    rasterio.write_pgm(gt_dir / "gt_mask_0001.pgm", square, 255)
    rasterio.write_pgm(res_dir / "mask_0001.pgm", shifted, 255)
    eval_out = tmp_path / "e"
    assert run_cli("eval", res_dir, gt_dir, "--out", eval_out) == EXIT_OK
    row = (eval_out / "eval.tsv").read_text().splitlines()[1].split("\t")
    assert float(row[1]) == pytest.approx(0.5)


def test_eval_missing_gt_mask_names_frame(tmp_path, capsys):
    data = make_synth_dir(tmp_path)
    fake = tmp_path / "fake"
    fake.mkdir()
    mask = rasterio.read_pgm(data / "gt_mask_0001.pgm")
    rasterio.write_pgm(fake / "mask_0099.pgm", mask, 255)
    code = run_cli("eval", fake, data, "--out", tmp_path / "e")
    assert code == EXIT_INPUT
    assert "frame 99" in capsys.readouterr().err


def test_track_vanishing_region_exits_4_with_partial_outputs(tmp_path):
    # a small region near the right border dragged off the grid
    tex_dir = tmp_path / "seq"
    tex_dir.mkdir()
    import pwflow as pw

    tex = pw.texture(21, (48, 48), 2.0)
    for t in range(6):
        frame = np.roll(tex, 3 * t, axis=1)
        rasterio.write_pgm(tex_dir / f"frame_{t:04d}.pgm",
                           rasterio.quantize(frame, 65535), 65535)
    labels = np.zeros((48, 48), np.uint8)
    yy, xx = np.mgrid[0:48, 0:48]
    labels[((xx - 42) ** 2 + (yy - 24) ** 2) <= 9] = 1
    rasterio.write_pgm(tex_dir / "mask.pgm", labels, 255)
    out = tmp_path / "out"
    code = run_cli(
        "track", *[tex_dir / f"frame_{t:04d}.pgm" for t in range(6)],
        "--mask", tex_dir / "mask.pgm", "--out", out,
        "--cg-tol", 1e-3, "--dt", 1.0, "--max-iters", 40, "--no-topology",
    )
    assert code == EXIT_NUMERIC
    manifest = (out / "manifest.txt").read_text()
    assert "failed at frame" in manifest
    assert (out / "mask_0001.pgm").exists()  # partial outputs kept


def test_track_empty_mask_is_an_input_error(tmp_path, capsys):
    data = make_synth_dir(tmp_path)
    rasterio.write_pgm(tmp_path / "empty.pgm", np.zeros((48, 48), np.uint8), 255)
    code = run_cli(
        "track", data / "frame_0000.pgm", data / "frame_0001.pgm",
        "--mask", tmp_path / "empty.pgm", "--out", tmp_path / "out",
    )
    assert code == EXIT_INPUT
    assert "no structure labels" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------


def test_replay_reproduces_synth_bitwise(tmp_path):
    out = make_synth_dir(tmp_path, "orig")
    replay_out = tmp_path / "replayed"
    code = run_cli("replay", out / "manifest.txt", "--out", replay_out)
    assert code == EXIT_OK
    names = [
        line for line in (out / "manifest.txt").read_text().splitlines()
    ]
    start = names.index("[outputs]")
    outputs = names[start + 1 :]
    assert outputs
    for name in outputs:
        assert (replay_out / name).read_bytes() == (out / name).read_bytes()


def test_replay_reproduces_flow_bitwise(tmp_path):
    data = make_synth_dir(tmp_path)
    out = tmp_path / "flowout"
    assert run_cli(
        "flow", data / "frame_0000.pgm", data / "frame_0001.pgm",
        data / "gt_mask_0000.pgm", "--out", out, "--cg-tol", 1e-4,
    ) == EXIT_OK
    replay_out = tmp_path / "flowreplay"
    assert run_cli("replay", out / "manifest.txt", "--out", replay_out) == EXIT_OK
    for name in ("velocity.fgrid", "flow_color.ppm", "jump_report.txt"):
        assert (replay_out / name).read_bytes() == (out / name).read_bytes()


def test_replay_refuses_a_changed_input(tmp_path, capsys):
    data = make_synth_dir(tmp_path)
    out = tmp_path / "flowout"
    assert run_cli(
        "flow", data / "frame_0000.pgm", data / "frame_0001.pgm",
        data / "gt_mask_0000.pgm", "--out", out, "--cg-tol", 1e-4,
    ) == EXIT_OK
    frame = rasterio.read_pgm(data / "frame_0001.pgm")
    frame[0, 0] = 65535 - frame[0, 0]
    rasterio.write_pgm(data / "frame_0001.pgm", frame, 65535)
    capsys.readouterr()
    replay_out = tmp_path / "flowreplay"
    assert run_cli("replay", out / "manifest.txt", "--out", replay_out) == EXIT_INPUT
    assert "frame_0001.pgm" in capsys.readouterr().err
    assert not (replay_out / "velocity.fgrid").exists()


# ---------------------------------------------------------------------------
# flags
# ---------------------------------------------------------------------------

POSITIONALS = {
    "synth": [],
    "flow": ["a.pgm", "b.pgm", "m.pgm"],
    "track": ["a.pgm", "b.pgm", "--mask", "m.pgm"],
    "eval": ["res", "gt"],
}


def _flag(key):
    tag = [schema[key][0] for schema in SCHEMAS.values() if key in schema][0]
    name = key.replace("_", "-")
    return [f"--no-{name}"] if tag == "bool" else [f"--{name}", "1"]


@pytest.mark.parametrize("subcommand", sorted(SCHEMAS))
def test_subcommand_rejects_flags_of_other_subcommands(tmp_path, subcommand):
    foreign = set().union(*SCHEMAS.values()) - set(SCHEMAS[subcommand])
    assert foreign
    for key in sorted(foreign):
        argv = [subcommand, *POSITIONALS[subcommand], "--out", tmp_path / "o",
                *_flag(key)]
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == EXIT_USAGE, key
    assert not (tmp_path / "o").exists()


def test_region_only_spellings_resolve_to_one_mode(tmp_path):
    data = make_synth_dir(tmp_path, size=24, radius=6, frames=2)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode = region-only\ncg_tol = 1e-3\n")
    inputs = [data / "frame_0000.pgm", data / "frame_0001.pgm",
              data / "gt_mask_0000.pgm"]
    for name, extra, source in (
        ("file", ["--config", cfg], "file"),
        ("flag", ["--mode", "region-only", "--cg-tol", 1e-3], "flag"),
    ):
        out = tmp_path / name
        assert run_cli("flow", *inputs, "--out", out, *extra) == EXIT_OK
        manifest = (out / "manifest.txt").read_text()
        assert f"mode = region_only | {source}" in manifest
        assert "mode = region_only" in (out / "jump_report.txt").read_text()


def test_config_file_plus_flag_precedence_end_to_end(tmp_path):
    data = make_synth_dir(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha_in = 9.0\nmode = global\ncg_tol = 1e-4\n")
    out = tmp_path / "flowout"
    code = run_cli(
        "flow", data / "frame_0000.pgm", data / "frame_0001.pgm",
        data / "gt_mask_0000.pgm", "--out", out, "--config", cfg,
        "--alpha-in", 2.0,
    )
    assert code == EXIT_OK
    manifest = (out / "manifest.txt").read_text()
    assert "alpha_in = 2.0 | flag" in manifest
    assert "mode = global | file" in manifest
    assert "alpha_out = 3.0 | default" in manifest
