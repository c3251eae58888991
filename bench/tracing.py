"""Span tracing around the calls into each pwflow layer.

The benchmark wraps public functions where the calling module looks them up
(``pwflow.tracker.solve_infinitesimal``, ``pwflow.cli.contours_from_mask``,
...) and class methods on the class itself.  Spans (name, start, end,
parent, frame) stay in memory; counts are recorded at the same boundaries.
A span's self time is its duration minus the time its direct child spans
cover.  Nothing in ``src/`` is edited; :meth:`Tracer.restore` undoes every
patch.
"""

import os
from collections import defaultdict
from time import perf_counter

import numpy as np

from checks import CheckFailed

SETUP = None  # frame id of spans recorded before the measured frames


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, frame id]
        self.counts = defaultdict(float)  # (frame id, name) -> count
        self.overhead = defaultdict(float)  # frame id -> bookkeeping seconds
        self.frame = SETUP
        self.mask_hook = None  # called with every mask given to count_components
        self._stack = []
        self._patches = []

    def count(self, name: str, n=1) -> None:
        self.counts[(self.frame, name)] += n

    def wrap(self, name: str, fn, after=None):
        """``fn`` recorded as a span; ``after(tracer, args, result)`` adds counts."""
        tracer = self

        def traced(*args, **kwargs):
            t_in = perf_counter()
            frame = tracer.frame
            rec = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, frame]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            tracer.counts[(frame, name)] += 1
            rec[1] = t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = t1 = perf_counter()
                tracer._stack.pop()
            if after is not None:
                after(tracer, args, result)
            tracer.overhead[frame] += (t0 - t_in) + (perf_counter() - t1)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, after))

    def patch_counter(self, owner, attr: str, name: str) -> None:
        """Count calls without a span (used where a span would cost too much).

        Its bookkeeping counts in ``overhead`` like that of :meth:`wrap`; being
        inside the caller's span, it is also part of the caller's self time.
        """
        original = getattr(owner, attr)
        tracer = self
        self._patches.append((owner, attr, original))

        def counted(*args, **kwargs):
            t_in = perf_counter()
            frame = tracer.frame
            tracer.counts[(frame, name)] += 1
            t0 = perf_counter()
            result = original(*args, **kwargs)
            t1 = perf_counter()
            tracer.overhead[frame] += (t0 - t_in) + (perf_counter() - t1)
            return result

        setattr(owner, attr, counted)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict:
        """(frame id, span name) -> summed self time."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _, frame) in enumerate(self.spans):
            out[(frame, name)] += end - start - child[i]
        return out


def _guard_counts(tracer, args, result):
    want = np.asarray(args[1]) <= 0.0
    flips = np.count_nonzero((np.asarray(args[0]) <= 0.0) != want)
    tracer.count("tracker.guard_flips", int(flips))
    tracer.count("tracker.guard_vetoes", int(np.count_nonzero((result <= 0.0) != want)))


def _cg_counts(tracer, args, result):
    tracer.count("flow.cg_iters", result.iterations)
    cap = args[2].resolved_max_iter(np.asarray(args[1]).size)
    if not result.converged and result.iterations >= cap:
        tracer.count("flow.cg_capped")


def _file_bytes(key):
    def after(tracer, args, result):
        tracer.count(key, os.path.getsize(args[0]))

    return after


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the workloads cross."""
    import pwflow.cli as cli
    import pwflow.flow as flow
    import pwflow.grid as grid
    import pwflow.io as io
    import pwflow.metrics as metrics
    import pwflow.synth as synth
    import pwflow.tracker as tracker

    def after_evolve(t, args, result):
        t.count("tracker.outer_iters", result.iterations_used)

    def after_solve(t, args, result):
        t.count("flow.solve_iterations", result.iterations)

    def after_components(t, args, result):
        if t.mask_hook is not None:
            t.mask_hook(args[0])

    tracer.patch(tracker, "evolve_pair", "tracker.evolve_pair", after_evolve)
    tracer.patch(tracker, "solve_infinitesimal", "flow.solve_infinitesimal", after_solve)
    tracer.patch(flow.MotionOperator, "__init__", "flow.operator_build")
    tracer.patch_counter(flow.MotionOperator, "__call__", "flow.op_applies")
    tracer.patch(flow, "solve_cg", "flow.solve", _cg_counts)
    tracer.patch(tracker, "transport_step", "tracker.transport")
    tracer.patch(tracker, "warp_image", "tracker.warp")
    tracer.patch(tracker, "topology_guard", "tracker.guard", _guard_counts)
    tracer.patch(tracker, "reinitialize_signed_distance", "grid.reinit")
    tracer.patch(tracker, "count_components", "topology.count_components", after_components)
    tracer.patch(tracker, "normal_jump", "metrics.normal_jump")
    for module in (tracker, metrics, grid, cli):
        tracer.patch(module, "signed_distance", "grid.signed_distance")
    tracer.patch(grid.RegionPartition, "__init__", "grid.partition")
    tracer.patch(cli, "contours_from_mask", "metrics.contours")
    tracer.patch(cli, "apd", "metrics.apd")
    tracer.patch(cli, "hausdorff", "metrics.hausdorff")
    for fn in ("read_pgm", "read_fgrid"):
        tracer.patch(io, fn, "io.read", _file_bytes("io.bytes_read"))
    for fn in ("write_pgm", "write_fgrid", "write_ppm"):
        tracer.patch(io, fn, "io.write", _file_bytes("io.bytes_written"))
    for module in (synth, cli):
        tracer.patch(module, "generate", "synth.generate")
    tracer.patch(cli, "main", "cli.main")


# metric name -> span name whose self time it reports, per measured frame
FRAME_SELF_TIMES = {
    "flow.solve_s": "flow.solve",
    "flow.operator_build_s": "flow.operator_build",
    "flow.rhs_s": "flow.solve_infinitesimal",
    "tracker.self_s": "tracker.evolve_pair",
    "tracker.transport_s": "tracker.transport",
    "tracker.warp_s": "tracker.warp",
    "tracker.guard_s": "tracker.guard",
    "grid.signed_distance_s": "grid.signed_distance",
    "grid.reinit_s": "grid.reinit",
    "grid.partition_s": "grid.partition",
    "topology.count_components_s": "topology.count_components",
    "metrics.contours_s": "metrics.contours",
    "metrics.apd_s": "metrics.apd",
    "metrics.hausdorff_s": "metrics.hausdorff",
    "metrics.normal_jump_s": "metrics.normal_jump",
    "io.read_s": "io.read",
    "io.write_s": "io.write",
    "cli.self_s": "cli.main",
}
# metric name -> count name, per measured frame
FRAME_COUNTS = {
    "flow.cg_iters": "flow.cg_iters",
    "flow.op_applies": "flow.op_applies",
    "flow.cg_capped": "flow.cg_capped",
    "tracker.outer_iters": "tracker.outer_iters",
    "tracker.transport_calls": "tracker.transport",
    "tracker.guard_flips": "tracker.guard_flips",
    "tracker.guard_vetoes": "tracker.guard_vetoes",
    "grid.signed_distance_calls": "grid.signed_distance",
    "metrics.contours_calls": "metrics.contours",
    "io.bytes_read": "io.bytes_read",
    "io.bytes_written": "io.bytes_written",
}
# set-up metric name -> span-name prefix, summed over the set-up phase
SETUP_SELF_TIMES = {
    "synth.generate_s": "synth.",
    "setup.grid_s": "grid.",
    "setup.io_s": "io.",
    "setup.cli_s": "cli.",
}


def _unit(name: str) -> str:
    if name.endswith("_s") or name.endswith("_s_per_iter"):
        return "s"
    if ".bytes_" in name:
        return "bytes"
    return "count"


def layer_metrics(tracer: Tracer, n_frames: int, traced_frame_s: float) -> dict:
    """Per-layer metrics: per measured frame, plus the set-up split."""
    selfs = tracer.self_times()
    frame_self = defaultdict(float)
    setup_self = defaultdict(float)
    for (frame, name), sec in selfs.items():
        (setup_self if frame is SETUP else frame_self)[name] += sec
    frame_counts = defaultdict(float)
    for (frame, name), n in tracer.counts.items():
        if frame is not SETUP:
            frame_counts[name] += n

    values = {}
    for metric, span in FRAME_SELF_TIMES.items():
        values[metric] = frame_self[span] / n_frames
    for metric, key in FRAME_COUNTS.items():
        values[metric] = frame_counts[key] / n_frames
    iters = frame_counts["flow.cg_iters"]
    values["flow.cg_s_per_iter"] = frame_self["flow.solve"] / iters if iters else 0.0
    for metric, prefix in SETUP_SELF_TIMES.items():
        values[metric] = sum(s for n, s in setup_self.items() if n.startswith(prefix))
    values["trace.overhead_s"] = (
        sum(s for f, s in tracer.overhead.items() if f is not SETUP) / n_frames
    )
    values["trace.frame_s"] = traced_frame_s
    return {name: {"value": v, "unit": _unit(name)} for name, v in values.items()}


def check_transition(tracer: Tracer, frame, result) -> None:
    """Solve spans of one transition == iterations used == diagnostics rows."""
    solves = int(tracer.counts[(frame, "flow.solve_infinitesimal")])
    if not solves == result.iterations_used == len(result.diagnostics):
        raise CheckFailed(
            f"frame {frame}: {solves} solve spans, {result.iterations_used} "
            f"iterations used, {len(result.diagnostics)} diagnostics rows"
        )


def check_operator_applications(tracer: Tracer) -> None:
    """CG applies the operator once per iteration, plus at most one per solve."""
    total = defaultdict(float)
    for (_, name), n in tracer.counts.items():
        total[name] += n
    applies = total["flow.op_applies"]
    iters = total["flow.solve_iterations"]
    solves = total["flow.solve_infinitesimal"]
    if not iters <= applies <= iters + solves:
        raise CheckFailed(
            f"{applies:.0f} operator applications for {iters:.0f} CG iterations "
            f"in {solves:.0f} solves"
        )
