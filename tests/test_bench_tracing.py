"""The benchmark tracer finds every pwflow name it wraps.

``bench/tracing.py`` patches module-level names where the calling module
looks them up (``pwflow.tracker.solve_infinitesimal``,
``pwflow.cli.signed_distance``, ...).  A refactor that drops or renames one
of them breaks ``bench/run.py --trace 1``; the first test catches it, and
the second checks that a traced ``evolve_pair`` still calls through the
wrapped names of each layer.
"""

import sys
from pathlib import Path

import numpy as np

import pwflow as pw

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import tracing  # noqa: E402


def test_tracer_installs_and_restores_every_patch():
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        patches = list(tracer._patches)
        assert patches
        for owner, attr, original in patches:
            assert getattr(owner, attr) is not original
    finally:
        tracer.restore()
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original


def test_traced_evolve_pair_records_every_layer():
    tex = pw.texture(4, (32, 32), 2.0)
    yy, xx = np.mgrid[0:32, 0:32]
    labels = (((xx - 16) ** 2 + (yy - 16) ** 2) <= 49).astype(np.int32)
    region = pw.RegionPartition(labels)
    cfg = pw.TrackConfig(solver=pw.SolverConfig(cg_rel_tol=1e-5), max_inner_iters=2)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        pw.tracker.evolve_pair(tex, np.roll(tex, 1, axis=1), region, cfg)
    finally:
        tracer.restore()
    names = {span[0] for span in tracer.spans}
    for name in ("grid.partition", "flow.solve", "tracker.transport", "metrics.normal_jump"):
        assert name in names
    tracing.check_operator_applications(tracer)
