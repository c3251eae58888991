"""The benchmark tracer finds every pwflow name it wraps.

``bench/tracing.py`` patches module-level names where the calling module
looks them up (``pwflow.tracker.solve_infinitesimal``,
``pwflow.cli.signed_distance``, ...).  A refactor that drops or renames one
of them breaks ``bench/run.py --trace 1``; this test catches it first.
"""

import sys
from pathlib import Path

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
