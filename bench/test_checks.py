"""Each benchmark check must fail on a corrupted output.

    python3 -m pytest bench/test_checks.py -q

The uncorrupted oracle passes every check; a shifted mask, a zeroed map, a
merged pursuit mask, a shifted ``pwflow eval`` prediction and miscounted
traces each make the matching check raise.
"""

import contextlib
import io
import shutil
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import tracing

SRC = Path(__file__).resolve().parent.parent / "src"


def test_disc_check_accepts_the_oracle():
    for t in (0, 3):
        d, ee = checks.check_disc_transition(
            t, checks.disc_mask(t + 1), checks.disc_backward_map(t)
        )
        assert d == 1.0 and ee == 0.0


def test_disc_check_rejects_a_shifted_mask():
    shifted = np.roll(checks.disc_mask(1), 5, axis=1)
    with pytest.raises(checks.CheckFailed, match="dice"):
        checks.check_disc_transition(0, shifted, checks.disc_backward_map(0))


@pytest.mark.parametrize("kind", ["zeros", "identity"])
def test_disc_check_rejects_a_zeroed_map(kind):
    n = checks.DISC_SIZE
    bmap = np.zeros((n, n, 2)) if kind == "zeros" else checks.identity_coords(n, n)
    with pytest.raises(checks.CheckFailed, match="EE"):
        checks.check_disc_transition(0, checks.disc_mask(1), bmap)


def test_pursuit_check_accepts_the_oracle():
    m_a, m_b = checks.pursuit_masks(1)
    d, ee = checks.check_pursuit_transition(0, m_a | m_b, checks.pursuit_backward_map(0))
    assert d == 1.0 and ee == 0.0


def test_pursuit_check_rejects_a_merged_mask():
    m_a, m_b = checks.pursuit_masks(1)
    merged = m_a | m_b
    merged[24, 10:50] = True  # a one-pixel bridge between the discs
    with pytest.raises(checks.CheckFailed, match="1 8-connected"):
        checks.check_pursuit_transition(0, merged, checks.pursuit_backward_map(0))
    with pytest.raises(checks.CheckFailed):
        checks.check_two_components(merged, "iteration mask")


def test_components_use_8_connectivity():
    mask = np.zeros((6, 6), dtype=bool)
    mask[1, 1] = mask[2, 2] = True  # diagonal neighbours: one component
    assert checks.count_components_8(mask) == 1
    mask[4, 4] = True
    assert checks.count_components_8(mask) == 2


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    """``pwflow synth`` output of the benchmark's disc geometry (2 frames)."""
    sys.path.insert(0, str(SRC))
    import pwflow.cli

    out = tmp_path_factory.mktemp("gt")
    argv = [
        "synth", "--out", str(out), "--size", str(checks.DISC_SIZE),
        "--radius", repr(checks.DISC_RADIUS), "--frames", "2", "--seed", "3",
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        assert pwflow.cli.main(argv) == 0
    return out


def _eval_row(tmp_path, gt, mask, bdisp):
    import pwflow.cli
    import pwflow.io

    pred = tmp_path / "pred"
    pred.mkdir()
    pwflow.io.write_pgm(pred / "mask_0001.pgm", mask.astype(np.uint8), 255)
    pwflow.io.write_fgrid(pred / "bdisp_0001.fgrid", bdisp)
    with contextlib.redirect_stdout(io.StringIO()):
        assert pwflow.cli.main(["eval", str(pred), str(gt), "--out", str(tmp_path / "ev")]) == 0
    (row,) = checks.read_eval_table(tmp_path / "ev" / "eval.tsv")
    return row


def test_eval_check_accepts_the_copy_prediction(tmp_path, synth_dir):
    checks.check_gt_masks({t: checks.read_pgm8(synth_dir / f"gt_mask_{t:04d}.pgm") for t in (0, 1)})
    n = checks.DISC_SIZE
    row = _eval_row(tmp_path, synth_dir, checks.disc_mask(0), np.zeros((n, n, 2)))
    checks.check_eval_row(row, 1)


def test_eval_check_rejects_a_shifted_mask(tmp_path, synth_dir):
    n = checks.DISC_SIZE
    shifted = np.roll(checks.disc_mask(0), 3, axis=0)
    row = _eval_row(tmp_path, synth_dir, shifted, np.zeros((n, n, 2)))
    with pytest.raises(checks.CheckFailed, match="dice"):
        checks.check_eval_row(row, 1)


def test_eval_check_rejects_a_wrong_displacement(tmp_path, synth_dir):
    n = checks.DISC_SIZE
    bdisp = np.full((n, n, 2), 0.25)
    row = _eval_row(tmp_path, synth_dir, checks.disc_mask(0), bdisp)
    with pytest.raises(checks.CheckFailed, match="ee_mean"):
        checks.check_eval_row(row, 1)


def test_eval_check_rejects_contour_distances_off_the_circles():
    n = checks.DISC_SIZE
    ident = checks.identity_coords(n, n)
    disp = np.sqrt(((ident - checks.disc_backward_map(0)) ** 2).sum(axis=-1))
    row = {
        "frame": 1.0,
        "dice": checks.dice(checks.disc_mask(0), checks.disc_mask(1)),
        "apd": 3.0,
        "hd": 3.0,
        "ee_mean": float(disp.mean()),
        "ee_max": float(disp.max()),
        "normal_jump_max": float("nan"),
    }
    with pytest.raises(checks.CheckFailed, match="apd"):
        checks.check_eval_row(row, 1)


def test_gt_mask_check_rejects_a_shifted_mask():
    with pytest.raises(checks.CheckFailed, match="gt_mask_0002"):
        checks.check_gt_masks({2: np.roll(checks.disc_mask(2), 2, axis=1).astype(np.uint8)})


def _tracer_with(counts):
    tracer = tracing.Tracer()
    for (frame, name), n in counts.items():
        tracer.counts[(frame, name)] = n
    return tracer


def test_operator_application_check_rejects_a_miscount():
    good = {(0, "flow.solve_iterations"): 100, (0, "flow.solve_infinitesimal"): 2}
    for applies, ok in ((100, True), (102, True), (99, False), (103, False)):
        tracer = _tracer_with({**good, (0, "flow.op_applies"): applies})
        if ok:
            tracing.check_operator_applications(tracer)
        else:
            with pytest.raises(checks.CheckFailed):
                tracing.check_operator_applications(tracer)


def test_transition_check_rejects_a_miscount():
    tracer = _tracer_with({(4, "flow.solve_infinitesimal"): 7})
    result = SimpleNamespace(iterations_used=7, diagnostics=[None] * 7)
    tracing.check_transition(tracer, 4, result)
    with pytest.raises(checks.CheckFailed):
        tracing.check_transition(tracer, 4, SimpleNamespace(iterations_used=7, diagnostics=[None] * 6))
    with pytest.raises(checks.CheckFailed):
        tracing.check_transition(tracer, 3, result)


def test_run_without_sources_exits_nonzero(tmp_path):
    """In a tree holding only the benchmark, run.py exits without a result."""
    import subprocess

    bench = Path(__file__).resolve().parent
    shutil.copytree(bench, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "eval_masks", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_lists_every_layer_metric():
    import json

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    produced = tracing.layer_metrics(tracing.Tracer(), 1, 0.0)
    assert [m["name"] for m in spec["per_layer"]] == list(produced)
    assert all(m["unit"] == produced[m["name"]]["unit"] for m in spec["per_layer"])
