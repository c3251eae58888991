"""Command-line surface: synth / flow / track / eval plus manifest replay.

Configuration precedence is built-in defaults, then a ``key = value`` config
file, then command-line flags.  Every run writes a manifest recording the
resolved configuration (with per-key provenance), input digests, and output
files; ``pwflow replay MANIFEST --out DIR`` re-executes a run from its
manifest and reproduces the outputs byte for byte, after checking that each
input file still has its recorded SHA-256 digest.

Exit codes: 0 success, 2 usage error, 3 input parse error, changed replay
input or a ``track`` mask without a structure, 4 numerical failure
(non-finite solve or vanished region).
"""

import argparse
import glob as globmod
import hashlib
import math
import sys
import time
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path

import numpy as np

from . import io as rasterio
from .errors import (
    ConfigError,
    GridShapeError,
    InputFormatError,
    NumericalError,
    PwflowError,
    RegionVanishedError,
    TrackAborted,
)
from .flow import MODES, SolverConfig, solve_infinitesimal
# signed_distance is unused here; bench/tracing.py wraps it under this name
from .grid import RegionPartition, identity_map, signed_distance  # noqa: F401
from .metrics import (
    apd,
    contours_from_mask,
    dice,
    endpoint_error,
    hausdorff,
    normal_jump,
)
from .synth import SynthSpec, generate, gt_backward_map
from .tracker import TrackConfig, track_sequence

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_NUMERIC = 4

MANIFEST_NAME = "manifest.txt"
MANIFEST_HEADER = "pwflow-manifest 1"
# diag_*.tsv columns, one row per tracker iteration (cg_converged as 0/1)
DIAG_COLUMNS = (
    "iteration", "residual", "area", "normal_jump_max",
    "components", "cg_iterations", "cg_converged",
)

# (type tag, default) per configurable key, grouped by subcommand.  Each key
# is also the subcommand's flag ``--key-with-hyphens`` (``--no-key`` for a
# bool), and no subcommand takes a flag outside its schema.
_SOLVER_SCHEMA = {
    "alpha_in": ("float", 3.0),
    "alpha_out": ("float", 3.0),
    "beta": ("float", 100.0),
    "mode": ("mode", "hard"),
    "cg_tol": ("float", 1e-8),
    "cg_max_iter": ("opt_int", None),
}
_TRACK_SCHEMA = {
    **_SOLVER_SCHEMA,
    "dt": ("float", 0.5),
    "max_iters": ("int", 200),
    "converge_tol": ("float", 0.5),
    "topology": ("bool", True),
    "reinit_every": ("int", 10),
}
_FLOW_SCHEMA = {**_SOLVER_SCHEMA, "flow_max": ("opt_float", None)}
_SYNTH_SCHEMA = {
    "size": ("int", 128),
    "radius": ("float", 30.0),
    "contraction": ("float", 0.97),
    "rot_in": ("float", 3.0),
    "rot_out": ("float", -3.0),
    "frames": ("int", 10),
    "smoothing": ("float", 2.0),
    "seed": ("int", 0),
}
_EVAL_SCHEMA = {}

SCHEMAS = {
    "synth": _SYNTH_SCHEMA,
    "flow": _FLOW_SCHEMA,
    "track": _TRACK_SCHEMA,
    "eval": _EVAL_SCHEMA,
}


def _format_value(tag: str, value) -> str:
    if value is None:
        return "none"
    if tag == "bool":
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def _mode_name(text: str) -> str:
    """Solver mode from its flag or file spelling (``region-only`` too)."""
    return text.replace("-", "_")


def _parse_value(tag: str, text: str):
    text = text.strip()
    if tag == "mode":
        return _mode_name(text)
    if tag.startswith("opt_") and text == "none":
        return None
    if tag in ("float", "opt_float"):
        return float(text)
    if tag in ("int", "opt_int"):
        return int(text)
    if tag == "bool":
        if text.lower() in ("true", "1", "yes"):
            return True
        if text.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"not a boolean: {text!r}")
    return text


def read_config_file(path) -> dict:
    """Parse a ``key = value`` config file with ``#`` comments."""
    values = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputFormatError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise InputFormatError(f"{path}:{lineno}: expected 'key = value'")
        key, _, val = body.partition("=")
        values[key.strip()] = val.strip()
    return values


def resolve_config(schema: dict, file_values: dict, flag_values: dict):
    """Merge defaults, config-file entries, and flags; track provenance.

    Only the schema's keys are read from ``flag_values``; ``None`` there
    means the flag was not given.
    """
    values = {}
    provenance = {}
    for key, (tag, default) in schema.items():
        values[key] = default
        provenance[key] = "default"
        if key in file_values:
            try:
                values[key] = _parse_value(tag, file_values[key])
            except ValueError as exc:
                raise InputFormatError(f"config key {key}: {exc}") from exc
            provenance[key] = "file"
        if key in flag_values and flag_values[key] is not None:
            values[key] = flag_values[key]
            provenance[key] = "flag"
    unknown = set(file_values) - set(schema)
    if unknown:
        raise InputFormatError(f"unknown config keys: {sorted(unknown)}")
    return values, provenance


@dataclass
class RunManifest:
    """Record of one CLI run, sufficient to replay it."""

    subcommand: str
    values: dict
    provenance: dict
    inputs: list = dataclass_field(default_factory=list)  # (sha256, path)
    outputs: list = dataclass_field(default_factory=list)
    wall_time_s: float = 0.0
    note: str = ""

    def render(self) -> str:
        schema = SCHEMAS[self.subcommand]
        lines = [MANIFEST_HEADER, f"subcommand = {self.subcommand}"]
        lines.append(f"wall_time_s = {self.wall_time_s!r}")
        if self.note:
            lines.append(f"note = {self.note}")
        lines.append("[config]")
        for key in schema:
            tag = schema[key][0]
            lines.append(
                f"{key} = {_format_value(tag, self.values[key])}"
                f" | {self.provenance[key]}"
            )
        lines.append("[inputs]")
        for digest, path in self.inputs:
            lines.append(f"{digest}  {path}")
        lines.append("[outputs]")
        lines.extend(str(p) for p in self.outputs)
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "RunManifest":
        lines = text.splitlines()
        if not lines or lines[0] != MANIFEST_HEADER:
            raise InputFormatError("not a pwflow manifest")
        man = cls(subcommand="", values={}, provenance={})
        section = None
        for line in lines[1:]:
            if not line.strip():
                continue
            if line in ("[config]", "[inputs]", "[outputs]"):
                section = line
                continue
            if section is None:
                key, _, val = line.partition(" = ")
                if key == "subcommand":
                    man.subcommand = val
                elif key == "wall_time_s":
                    man.wall_time_s = float(val)
                elif key == "note":
                    man.note = val
            elif section == "[config]":
                key, _, rest = line.partition(" = ")
                val, _, source = rest.rpartition(" | ")
                if man.subcommand not in SCHEMAS:
                    raise InputFormatError(f"unknown subcommand {man.subcommand!r}")
                try:
                    tag = SCHEMAS[man.subcommand][key][0]
                    man.values[key] = _parse_value(tag, val)
                except (KeyError, ValueError) as exc:
                    raise InputFormatError(
                        f"malformed manifest config entry {line!r}"
                    ) from exc
                man.provenance[key] = source
            elif section == "[inputs]":
                digest, _, path = line.partition("  ")
                man.inputs.append((digest, path))
            else:
                man.outputs.append(line)
        if man.subcommand not in SCHEMAS:
            raise InputFormatError("manifest missing subcommand")
        return man


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _load_frames(paths) -> list:
    """Read PGM frames of one grid size, normalised by the first frame's range."""
    raw = [rasterio.read_pgm(p) for p in paths]
    shapes = {r.shape for r in raw}
    if len(shapes) > 1:
        raise GridShapeError(f"frames have mixed dimensions: {sorted(shapes)}")
    return rasterio.normalize_sequence(raw)


def _load_mask(path, shape):
    labels = rasterio.read_pgm(path).astype(np.int32)
    if labels.shape != shape:
        raise GridShapeError(f"mask {path} has dimensions {labels.shape}, "
                             f"expected {shape}")
    return labels


def _solver_config(values: dict) -> SolverConfig:
    return SolverConfig(
        alpha_in=values["alpha_in"],
        alpha_out=values["alpha_out"],
        beta=values["beta"],
        mode=values["mode"],
        cg_rel_tol=values["cg_tol"],
        cg_max_iter=values["cg_max_iter"],
    )


def _track_config(values: dict) -> TrackConfig:
    return TrackConfig(
        solver=_solver_config(values),
        dt=values["dt"],
        max_inner_iters=values["max_iters"],
        converge_tol=values["converge_tol"],
        topology_preserve=values["topology"],
        reinit_every=values["reinit_every"],
    )


# ---------------------------------------------------------------------------
# subcommand bodies (pure: values + input paths -> output files)
# ---------------------------------------------------------------------------


def run_synth(values: dict, out_dir: Path) -> list:
    n = values["size"]
    spec = SynthSpec(
        size=(n, n),
        disc_center=(n / 2.0, n / 2.0),
        disc_radius=values["radius"],
        contraction_per_frame=values["contraction"],
        rotation_inside_deg=values["rot_in"],
        rotation_outside_deg=values["rot_out"],
        frames=values["frames"],
        texture_seed=values["seed"],
        texture_smoothing=values["smoothing"],
    )
    frames, flows, regions = generate(spec)
    outputs = []

    def emit(name, writer, *args):
        path = out_dir / name
        writer(path, *args)
        outputs.append(name)

    for t, frame in enumerate(frames):
        emit(f"frame_{t:04d}.pgm", rasterio.write_pgm,
             rasterio.quantize(frame, 65535), 65535)
        emit(f"gt_mask_{t:04d}.pgm", rasterio.write_pgm,
             regions[t].labels.astype(np.uint8), 255)
    h, w = frames[0].shape
    ident = identity_map(h, w)
    for t, flow in enumerate(flows):
        emit(f"gt_flow_{t + 1:04d}.fgrid", rasterio.write_fgrid, flow)
        bdisp = ident - gt_backward_map(spec, t)
        emit(f"gt_bflow_{t + 1:04d}.fgrid", rasterio.write_fgrid, bdisp)

    spec_lines = [f"{k} = {v!r}" for k, v in vars(spec).items()]
    path = out_dir / "synth_spec.txt"
    path.write_text("\n".join(spec_lines) + "\n")
    outputs.append("synth_spec.txt")
    return outputs


def run_flow(values: dict, image0, image1, mask, out_dir: Path) -> list:
    frame0, frame1 = _load_frames([image0, image1])
    partition = RegionPartition(_load_mask(mask, frame0.shape))
    cfg = _solver_config(values)
    result = solve_infinitesimal(frame0, frame1, partition, cfg)

    outputs = []
    rasterio.write_fgrid(out_dir / "velocity.fgrid", result.velocity.field)
    outputs.append("velocity.fgrid")
    rgb = rasterio.flow_to_color(result.velocity.field, values["flow_max"])
    rasterio.write_ppm(out_dir / "flow_color.ppm", rgb)
    outputs.append("flow_color.ppm")

    jmax, jmean = normal_jump(result.velocity, cfg)
    report = (
        f"mode = {cfg.mode}\n"
        f"normal_jump_max = {jmax!r}\n"
        f"normal_jump_mean = {jmean!r}\n"
        f"cg_iterations = {result.iterations}\n"
        f"cg_converged = {result.converged}\n"
    )
    (out_dir / "jump_report.txt").write_text(report)
    outputs.append("jump_report.txt")
    return outputs


def _write_track_outputs(out_dir: Path, frame_idx: int, result) -> list:
    names = []
    mask_name = f"mask_{frame_idx:04d}.pgm"
    rasterio.write_pgm(out_dir / mask_name,
                       result.final_region.labels.astype(np.uint8), 255)
    names.append(mask_name)
    psi_name = f"psi_{frame_idx:04d}.fgrid"
    rasterio.write_fgrid(out_dir / psi_name, result.psi_final)
    names.append(psi_name)
    bmap_name = f"bmap_{frame_idx:04d}.fgrid"
    rasterio.write_fgrid(out_dir / bmap_name, result.backward_map)
    names.append(bmap_name)
    h, w = result.psi_final.shape
    bdisp_name = f"bdisp_{frame_idx:04d}.fgrid"
    rasterio.write_fgrid(out_dir / bdisp_name,
                         identity_map(h, w) - result.backward_map)
    names.append(bdisp_name)
    diag_name = f"diag_{frame_idx:04d}.tsv"
    rows = ["\t".join(DIAG_COLUMNS)]
    for d in result.diagnostics:
        rows.append(
            f"{d.iteration}\t{d.residual!r}\t{d.area}\t{d.normal_jump_max!r}"
            f"\t{d.components}\t{d.cg_iterations}\t{int(d.cg_converged)}"
        )
    (out_dir / diag_name).write_text("\n".join(rows) + "\n")
    names.append(diag_name)
    return names


def run_track(values: dict, frame_paths: list, mask, out_dir: Path):
    """Returns (outputs, failure_note); partial outputs survive a failure."""
    if len(frame_paths) < 2:
        raise InputFormatError("need at least two frames")
    frames = _load_frames(frame_paths)
    region = RegionPartition(_load_mask(mask, frames[0].shape))
    if not region.structure_labels:
        raise InputFormatError(f"mask {mask} has no structure labels")
    cfg = _track_config(values)

    outputs = []
    note = ""
    try:
        results = track_sequence(frames, region, cfg)
    except TrackAborted as aborted:
        for i, res in enumerate(aborted.partial_results):
            outputs.extend(_write_track_outputs(out_dir, i + 1, res))
        note = f"failed at frame {aborted.transition_index + 1}: {aborted.cause}"
        return outputs, note
    for i, res in enumerate(results):
        outputs.extend(_write_track_outputs(out_dir, i + 1, res))
    return outputs, note


def _frame_index(path: Path) -> int:
    stem = path.stem
    digits = stem.rsplit("_", 1)[-1]
    try:
        return int(digits)
    except ValueError as exc:
        raise InputFormatError(f"cannot parse frame index from {path.name}") from exc


def _fmt(x) -> str:
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return f"{x:.6f}" if isinstance(x, float) else str(x)


def run_eval(result_dir: Path, gt_dir: Path, out_dir: Path) -> list:
    masks = sorted(Path(result_dir).glob("mask_*.pgm"))
    if not masks:
        raise InputFormatError(f"no result masks found in {result_dir}")
    header = ["frame", "dice", "apd", "hd", "ee_mean", "ee_max", "normal_jump_max"]
    rows = []
    stats = {k: [] for k in header[1:]}
    for mask_path in masks:
        idx = _frame_index(mask_path)
        gt_mask_path = Path(gt_dir) / f"gt_mask_{idx:04d}.pgm"
        if not gt_mask_path.exists():
            raise InputFormatError(f"missing ground-truth mask for frame {idx}")
        got = rasterio.read_pgm(mask_path).astype(np.int32)
        want = rasterio.read_pgm(gt_mask_path).astype(np.int32)
        if got.shape != want.shape:
            raise GridShapeError(f"frame {idx}: mask dimensions differ")
        row = {"frame": idx, "dice": dice(got, want, label=1)}
        try:
            got_contours = contours_from_mask(got == 1)
            want_contours = contours_from_mask(want == 1)
            row["apd"] = apd(got_contours, want_contours)
            row["hd"] = hausdorff(got_contours, want_contours)
        except ValueError:
            row["apd"] = math.nan
            row["hd"] = math.nan

        disp_path = Path(result_dir) / f"bdisp_{idx:04d}.fgrid"
        gt_disp_path = Path(gt_dir) / f"gt_bflow_{idx:04d}.fgrid"
        if disp_path.exists() and gt_disp_path.exists():
            got_flow = rasterio.read_fgrid(disp_path)
            want_flow = rasterio.read_fgrid(gt_disp_path)
            row["ee_mean"], row["ee_max"] = endpoint_error(got_flow, want_flow)
        else:
            row["ee_mean"] = math.nan
            row["ee_max"] = math.nan

        diag_path = Path(result_dir) / f"diag_{idx:04d}.tsv"
        row["normal_jump_max"] = math.nan
        if diag_path.exists():
            lines = diag_path.read_text().strip().splitlines()
            if len(lines) > 1:
                col = lines[0].split("\t").index("normal_jump_max")
                row["normal_jump_max"] = float(lines[-1].split("\t")[col])

        rows.append(row)
        for k in header[1:]:
            if not (isinstance(row[k], float) and math.isnan(row[k])):
                stats[k].append(float(row[k]))

    lines = ["\t".join(header)]
    for row in rows:
        lines.append("\t".join(_fmt(row[k]) for k in header))
    summary = ["summary"]
    for k in header[1:]:
        vals = stats[k]
        if vals:
            mean = float(np.mean(vals))
            std = float(np.std(vals))
            summary.append(f"{mean:.6f}±{std:.6f}")
        else:
            summary.append("nan")
    lines.append("\t".join(summary))
    table = "\n".join(lines) + "\n"
    (Path(out_dir) / "eval.tsv").write_text(table)
    sys.stdout.write(table)
    return ["eval.tsv"]


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


_FLAG_TYPES = {
    "float": float, "opt_float": float, "int": int, "opt_int": int,
    "mode": _mode_name,
}


def _add_schema_flags(p: argparse.ArgumentParser, schema: dict):
    """One flag per key of the subcommand's schema, then ``--out``/``--config``."""
    for key, (tag, _) in schema.items():
        name = key.replace("_", "-")
        if tag == "bool":
            p.add_argument(f"--no-{name}", dest=key, action="store_false",
                           default=None)
        else:
            p.add_argument(f"--{name}", dest=key, type=_FLAG_TYPES[tag],
                           choices=MODES if tag == "mode" else None, default=None)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--config", type=Path, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pwflow",
        description="Piecewise optical flow and level-set region tracking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a textured synthetic sequence")
    _add_schema_flags(p, _SYNTH_SCHEMA)

    p = sub.add_parser("flow", help="solve one incremental velocity field")
    p.add_argument("image0", type=Path)
    p.add_argument("image1", type=Path)
    p.add_argument("mask", type=Path)
    _add_schema_flags(p, _FLOW_SCHEMA)

    p = sub.add_parser("track", help="propagate a segmentation along frames")
    p.add_argument("frames", nargs="+",
                   help="frame files or glob patterns, in order")
    p.add_argument("--mask", type=Path, required=True)
    _add_schema_flags(p, _TRACK_SCHEMA)

    p = sub.add_parser(
        "eval",
        help="score tracked masks against ground truth "
             "(APD is symmetric: both contour directions averaged)",
    )
    p.add_argument("result_dir", type=Path)
    p.add_argument("gt_dir", type=Path)
    _add_schema_flags(p, _EVAL_SCHEMA)

    p = sub.add_parser("replay", help="re-run a recorded manifest")
    p.add_argument("manifest", type=Path)
    p.add_argument("--out", type=Path, required=True)
    return parser


def _expand_frames(patterns) -> list:
    paths = []
    for pat in patterns:
        hits = sorted(globmod.glob(str(pat)))
        if hits:
            paths.extend(hits)
        else:
            paths.append(str(pat))
    for p in paths:
        if not Path(p).exists():
            raise InputFormatError(f"frame file not found: {p}")
    return paths


def _dispatch(subcommand, values, provenance, inputs, out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    note = ""
    if subcommand == "synth":
        outputs = run_synth(values, out_dir)
    elif subcommand == "flow":
        outputs = run_flow(values, *inputs, out_dir)
    elif subcommand == "track":
        outputs, note = run_track(values, inputs[:-1], inputs[-1], out_dir)
    elif subcommand == "eval":
        outputs = run_eval(Path(inputs[0]), Path(inputs[1]), out_dir)
    else:
        raise InputFormatError(f"unknown subcommand {subcommand!r}")
    wall = time.perf_counter() - start

    digests = []
    for path in inputs:
        p = Path(path)
        digests.append((_sha256(p) if p.is_file() else "dir", str(path)))
    manifest = RunManifest(
        subcommand=subcommand,
        values=values,
        provenance=provenance,
        inputs=digests,
        outputs=outputs,
        wall_time_s=wall,
        note=note,
    )
    (out_dir / MANIFEST_NAME).write_text(manifest.render())
    return EXIT_NUMERIC if note else EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "replay":
            manifest = RunManifest.parse(Path(args.manifest).read_text())
            for digest, path in manifest.inputs:
                if digest != "dir" and _sha256(path) != digest:
                    raise InputFormatError(
                        f"input {path} differs from the recorded run "
                        "(SHA-256 mismatch)"
                    )
            inputs = [path for _, path in manifest.inputs]
            provenance = {k: "manifest" for k in manifest.provenance}
            return _dispatch(
                manifest.subcommand, manifest.values, provenance, inputs,
                Path(args.out),
            )

        schema = SCHEMAS[args.command]
        file_values = read_config_file(args.config) if args.config else {}
        values, provenance = resolve_config(schema, file_values, vars(args))
        if args.command == "synth":
            inputs = []
        elif args.command == "flow":
            inputs = [str(args.image0), str(args.image1), str(args.mask)]
        elif args.command == "track":
            inputs = _expand_frames(args.frames) + [str(args.mask)]
        else:
            inputs = [str(args.result_dir), str(args.gt_dir)]
        for path in inputs:
            if args.command != "eval" and not Path(path).is_file():
                raise InputFormatError(f"input file not found: {path}")
        return _dispatch(args.command, values, provenance, inputs, Path(args.out))
    except (InputFormatError, GridShapeError, FileNotFoundError, OSError) as exc:
        print(f"pwflow: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NumericalError, RegionVanishedError, TrackAborted) as exc:
        print(f"pwflow: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, ValueError) as exc:
        print(f"pwflow: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PwflowError as exc:
        print(f"pwflow: error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
