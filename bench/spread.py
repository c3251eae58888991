"""Run-to-run spread of the end-to-end metrics, one seed per run.

    python3 bench/spread.py --workload eval_masks

Runs ``bench/run.py`` once for each of the seeds 1-10, one run at a time and
for ``run_seconds`` of ``BENCHMARK.json`` each, and prints for each
metric its median, quartiles (``statistics.quantiles(values, n=4)``) and
the interquartile range as a share of the median, next to the bound that
``BENCHMARK.json`` fixes for it.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {}
    failed_shares = set()
    for seed in SEEDS:
        cmd = [
            sys.executable, str(ROOT / "bench" / "run.py"), "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect\n{proc.stderr}", file=sys.stderr)
            return 1
        if list(result["metrics"]) != list(bounds):
            print(f"seed {seed}: metrics {list(result['metrics'])}", file=sys.stderr)
            return 1
        failed_shares.add(result["failed"] / result["attempted"])
        line = [f"seed {seed}: attempted {result['attempted']}"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            line.append(f"{name} {metric['value']:.6g}")
        print(", ".join(line), flush=True)

    print(f"failed share per run: {sorted(failed_shares)}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        print(
            f"{name:14s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
            f"spread {(q3 - q1) / med:.4f}  bound {bounds.get(name)}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
