"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 bench/spread.py --workload design-n8 --seeds 1-10 [--trace-seed 1]

Runs the command in BENCHMARK.json once per seed, one run at a time, for
the run length BENCHMARK.json sets.  For every end-to-end metric it reports
the median, the quartiles and the quartile spread (Q3 - Q1 over the median)
next to the metric's bound; a spread above a third of the bound marks the
metric as unsteady.  With --trace-seed it adds one traced run's per-layer
metrics.  The summary goes to .bench_out/spread-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from measure import quartile_spread

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"seed {seed}: {result}\n{out.stderr}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace-seed", type=int)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        metrics = run(spec, args.workload, seed, 0)["metrics"]
        for name in values:
            values[name].append(metrics[name]["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.5g}" for k, v in values.items()),
              flush=True)

    summary = {"workload": args.workload, "seeds": args.seeds,
               "run_seconds": spec["run_seconds"], "end_to_end": {}}
    for metric in spec["end_to_end"]:
        v = values[metric["name"]]
        q1, median, q3 = statistics.quantiles(v, n=4)
        spread = quartile_spread(v)
        summary["end_to_end"][metric["name"]] = {
            "median": median, "q1": q1, "q3": q3, "spread": spread,
            "bound": metric["bound"], "steady": spread < metric["bound"] / 3,
            "unit": metric["unit"], "values": v}
        print(f"{args.workload} {metric['name']}: median {median:.5g} {metric['unit']}, "
              f"spread {spread:.4f} (bound {metric['bound']}, "
              f"{'steady' if spread < metric['bound'] / 3 else 'UNSTEADY'})")
    if args.trace_seed is not None:
        traced = run(spec, args.workload, args.trace_seed, 1)["metrics"]
        summary["per_layer"] = {"seed": args.trace_seed, "metrics": traced}
    out = ROOT / ".bench_out" / f"spread-{args.workload}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
