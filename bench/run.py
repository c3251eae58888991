"""Closed-loop benchmark of pwflow: one frame at a time, one compute thread.

    python3 bench/run.py --workload track_disc_hard --seed 1 --seconds 56 --trace 0

Workloads (each run is a fresh process; see bench/README.md):

* ``track_disc_hard`` - the first transition of the default 128x128
  synthetic geometry for five textures, tracked in ``hard`` mode with the
  acceptance criterion-5 settings; CG dominates.
* ``track_pursuit`` - the 64x48 two-disc pursuit of acceptance criterion 6
  for three texture pairs, with the topology guard on; small grid, many
  operator applications.  It is run by hand: ``BENCHMARK.json`` lists the
  other two, so that their runs can be longer.
* ``eval_masks`` - ``pwflow eval`` of the "copy the previous frame"
  prediction against ``pwflow synth`` output; signed distances and contours.

Every run repeats whole rounds of the same frames until ``--seconds`` would
be exceeded (at least one round), checks every output against the oracles
in ``checks.py`` and prints, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of ``tracing.py`` with
``--trace 1``.  A fuller record goes to ``.bench_out/``.
"""

import os
import sys
import time

_T0 = time.perf_counter()

# One compute thread: BLAS and OpenMP pools must be sized before numpy loads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from collections import defaultdict  # noqa: E402
from io import StringIO  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("track_disc_hard", "track_pursuit", "eval_masks")


class FrameFailed(Exception):
    """The program reported failure for one frame (non-zero exit code)."""


class Frames:
    """Times each frame of a run and counts attempts and failures.

    ``wall`` and ``cpu`` map a frame's place in the round to its times, one
    per round.
    """

    def __init__(self, tracer):
        from pwflow.errors import PwflowError

        # what the program raises (or reports) when it fails on its input
        self.program_errors = (PwflowError, ValueError, ArithmeticError, FrameFailed)
        self.tracer = tracer
        self.wall = defaultdict(list)
        self.cpu = defaultdict(list)
        self.timed = 0
        self.attempted = 0
        self.failed = 0

    def run(self, place, fn, *args):
        """``fn(*args)`` as the frame at ``place`` in the round; ``None`` if
        the program failed."""
        if self.tracer is not None:
            self.tracer.frame = self.attempted
        self.attempted += 1
        w0 = time.perf_counter()
        c0 = time.process_time()
        try:
            result = fn(*args)
        except self.program_errors as exc:
            self.failed += 1
            print(f"frame {self.attempted - 1} failed: {exc!r}", file=sys.stderr)
            return None
        self.cpu[place].append(time.process_time() - c0)
        self.wall[place].append(time.perf_counter() - w0)
        self.timed += 1
        return result

    def skip(self, n: int) -> None:
        """Frames a failure left unreachable count as attempted and failed."""
        self.attempted += n
        self.failed += n


class Workload:
    """Set-up in the constructor; ``round`` runs the same frames every time."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.dice = []
        self.ee = []

    def verify_inputs(self) -> None:
        """Checks on the inputs the program generated, outside set-up time."""

    def accuracy(self):
        return min(self.dice), statistics.fmean(self.ee)


class Tracking(Workload):
    """``evolve_pair`` chained over each sequence, as track_sequence does.

    Every sequence starts from ``region0``; a frame's place in the round
    counts the transitions of all sequences before it.
    """

    def round(self, frames: Frames) -> None:
        import pwflow.tracker

        place = 0
        for images in self.sequences:
            n = len(images) - 1
            region = self.region0
            for t in range(n):
                res = frames.run(
                    place + t, pwflow.tracker.evolve_pair, images[t], images[t + 1], region, self.cfg
                )
                if res is None:
                    frames.skip(n - t - 1)
                    break
                if self.tracer is not None:
                    tracing.check_transition(self.tracer, frames.attempted - 1, res)
                d, ee = self.check(t, res)
                self.dice.append(d)
                self.ee.append(ee)
                region = res.final_region
            place += n


class TrackDiscHard(Tracking):
    """First transition of the default disc geometry, one per texture, ``hard`` mode.

    The CG work of a transition varies by about 9% from texture to texture,
    so each run tracks several textures: with one, the seed alone spread
    ``frame_s`` by about 0.17 over ten runs.
    """

    textures = 5

    def __init__(self, seed, workdir, tracer):
        import numpy as np
        import pwflow.grid
        import pwflow.synth
        from pwflow.flow import SolverConfig
        from pwflow.tracker import TrackConfig

        super().__init__(tracer)
        self.sequences = []
        for j in range(self.textures):
            spec = pwflow.synth.SynthSpec(
                size=(checks.DISC_SIZE, checks.DISC_SIZE),
                disc_center=checks.DISC_CENTRE,
                disc_radius=checks.DISC_RADIUS,
                contraction_per_frame=checks.DISC_CONTRACTION,
                rotation_inside_deg=checks.DISC_ROT_IN_DEG,
                rotation_outside_deg=checks.DISC_ROT_OUT_DEG,
                frames=2,
                # generate uses texture_seed and texture_seed + 1
                texture_seed=2 * (self.textures * seed + j),
            )
            images, _, _ = pwflow.synth.generate(spec)
            self.sequences.append(images)
        self.region0 = pwflow.grid.RegionPartition(checks.disc_mask(0).astype(np.int32))
        self.cfg = TrackConfig(
            solver=SolverConfig(
                alpha_in=3.0, alpha_out=3.0, mode="hard", cg_rel_tol=1e-3, cg_max_iter=500
            ),
            dt=1.0,
            max_inner_iters=30,
        )

    def check(self, t, res):
        return checks.check_disc_transition(t, res.final_region.labels == 1, res.backward_map)


class TrackPursuit(Tracking):
    """Two-disc pursuit, topology guard on (acceptance criterion 6).

    Each run tracks several texture pairs, as the CG work varies with them.
    """

    textures = 3

    def __init__(self, seed, workdir, tracer):
        import numpy as np
        import pwflow.grid
        import pwflow.synth
        from pwflow.flow import SolverConfig
        from pwflow.tracker import TrackConfig

        super().__init__(tracer)
        size = (checks.PURSUIT_W, checks.PURSUIT_H)
        self.sequences = []
        for j in range(self.textures):
            # the first pair of seed 0 is the pursuit of acceptance criterion 6
            k = self.textures * seed + j
            tex_a = pwflow.synth.texture(42 + 2 * k, size, 1.5)
            tex_b = pwflow.synth.texture(43 + 2 * k, size, 1.5)
            images, masks = checks.pursuit_sequence(tex_a, tex_b)
            self.sequences.append(images)
        self.region0 = pwflow.grid.RegionPartition(masks[0].astype(np.int32))
        self.cfg = TrackConfig(
            solver=SolverConfig(
                alpha_in=0.3, alpha_out=0.3, mode="hard", cg_rel_tol=1e-4, cg_max_iter=600
            ),
            dt=1.0,
            max_inner_iters=8,
            converge_tol=0.0,
            topology_preserve=True,
        )
        if tracer is not None:
            tracer.mask_hook = self.check_iteration_mask

    def check_iteration_mask(self, mask):
        """Traced runs see every iteration's mask on its way to count_components."""
        checks.check_two_components(mask, "pursuit iteration mask")
        self.tracer.count("checks.iteration_masks")

    def check(self, s, res):
        if any(row.components != 2 for row in res.diagnostics):
            raise checks.CheckFailed(f"pursuit transition {s}: diagnostics report a merge")
        if self.tracer is not None:
            seen = self.tracer.counts[(self.tracer.frame, "checks.iteration_masks")]
            if seen != res.iterations_used:
                raise checks.CheckFailed(
                    f"pursuit transition {s}: {seen:.0f} iteration masks checked "
                    f"for {res.iterations_used} iterations"
                )
        return checks.check_pursuit_transition(s, res.final_region.labels == 1, res.backward_map)


class EvalMasks(Workload):
    """``pwflow eval`` of "copy the previous frame", one frame per call."""

    def __init__(self, seed, workdir, tracer):
        import numpy as np
        import pwflow.io

        super().__init__(tracer)
        self.gt = workdir / "gt"
        self.pred = workdir / "pred"
        self.out = workdir / "eval"
        argv = [
            "synth", "--out", str(self.gt),
            "--size", str(checks.DISC_SIZE), "--radius", repr(checks.DISC_RADIUS),
            "--contraction", repr(checks.DISC_CONTRACTION),
            "--rot-in", repr(checks.DISC_ROT_IN_DEG),
            "--rot-out", repr(checks.DISC_ROT_OUT_DEG),
            "--frames", str(checks.DISC_FRAMES), "--smoothing", "2.0",
            "--seed", str(seed),
        ]
        self._cli(argv)
        self.frame_ids = range(1, checks.DISC_FRAMES)
        for t in self.frame_ids:
            d = self.pred / f"{t:04d}"
            d.mkdir(parents=True)
            shutil.copyfile(self.gt / f"gt_mask_{t - 1:04d}.pgm", d / f"mask_{t:04d}.pgm")
            pwflow.io.write_fgrid(
                d / f"bdisp_{t:04d}.fgrid", np.zeros((checks.DISC_SIZE, checks.DISC_SIZE, 2))
            )

    @staticmethod
    def _cli(argv) -> int:
        import pwflow.cli

        with contextlib.redirect_stdout(StringIO()):
            code = pwflow.cli.main(argv)
        if code != 0:
            raise FrameFailed(f"pwflow {argv[0]} exited with {code}")
        return code

    def verify_inputs(self) -> None:
        checks.check_gt_masks(
            {
                t: checks.read_pgm8(self.gt / f"gt_mask_{t:04d}.pgm")
                for t in range(checks.DISC_FRAMES)
            }
        )

    def round(self, frames: Frames) -> None:
        for t in self.frame_ids:
            out = self.out / f"{t:04d}"
            argv = ["eval", str(self.pred / f"{t:04d}"), str(self.gt), "--out", str(out)]
            if frames.run(t, self._cli, argv) is None:
                continue
            rows = checks.read_eval_table(out / "eval.tsv")
            if [int(r["frame"]) for r in rows] != [t]:
                raise checks.CheckFailed(f"frame {t}: eval.tsv rows {rows}")
            checks.check_eval_row(rows[0], t)
            self.dice.append(rows[0]["dice"])
            self.ee.append(rows[0]["ee_mean"])


def fastest_frame(times) -> float:
    """Each frame's fastest time over the rounds, averaged over the round.

    On a shared host the same work runs up to about 1.7x slower in some
    phases, which last from seconds to minutes.  A median of the frames then
    depends on how much of the run fell in a slow phase; a frame's fastest
    repeat is what the program itself costs.
    """
    return statistics.fmean(min(v) for v in times.values())


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, AttributeError):
        blas_name = "unknown"
    threads = None
    with contextlib.suppress(OSError), open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "process_threads": threads,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pwflow" / "__init__.py").is_file():
        print(f"bench: no pwflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import pwflow

    if Path(pwflow.__file__).resolve().parent != (SRC / "pwflow").resolve():
        print(f"bench: imported pwflow from {pwflow.__file__}", file=sys.stderr)
        return 2

    workload_cls = {
        "track_disc_hard": TrackDiscHard,
        "track_pursuit": TrackPursuit,
        "eval_masks": EvalMasks,
    }[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    frames = Frames(tracer)
    correct = True
    metrics = {}
    rounds = 0
    try:
        if tracer is not None:
            tracing.install(tracer)  # before set-up, so set-up is traced too
        workload = workload_cls(args.seed, workdir, tracer)
        setup_s = time.perf_counter() - _T0
        workload.verify_inputs()

        start = time.perf_counter()
        while True:
            r0 = time.perf_counter()
            workload.round(frames)
            rounds += 1
            now = time.perf_counter()
            if (now - start) + (now - r0) > args.seconds:
                break
        if tracer is not None:
            tracing.check_operator_applications(tracer)
    except checks.CheckFailed as exc:
        print(f"bench: check failed: {exc}", file=sys.stderr)
        correct = False
    finally:
        if tracer is not None:
            tracer.restore()
        shutil.rmtree(workdir, ignore_errors=True)

    if correct and not frames.wall:
        print("bench: every frame failed", file=sys.stderr)
        correct = False
    if correct:
        frame_s = fastest_frame(frames.wall)
        if tracer is None:
            dice_min, ee_mean = workload.accuracy()
            values = {
                "setup_s": (setup_s, "s"),
                "frame_s": (frame_s, "s"),
                "frame_cpu_s": (fastest_frame(frames.cpu), "s"),
                # ru_maxrss is in KiB on Linux
                "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
                "dice_min": (dice_min, "ratio"),
                "ee_mean_px": (ee_mean, "px"),
            }
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
        else:
            metrics = tracing.layer_metrics(tracer, frames.timed, frame_s)

    result = {
        "correct": correct,
        "attempted": frames.attempted,
        "failed": frames.failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds,
        "frame_wall_s": frames.wall,
        "frame_cpu_s": frames.cpu,
        "environment": environment(),
        **result,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(tracer.spans) + "\n")
    print("environment " + json.dumps(record["environment"]))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
