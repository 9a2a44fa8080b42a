"""misobeam benchmark: three workloads, end-to-end and per-layer metrics.

Usage, from the root of a source checkout (nothing to install; the
benchmark imports misobeam from ./src):

    python3 bench/run.py --workload cdf-n3 --seed 1 --seconds 30 --trace 0

``--workload`` is one of cdf-n3, sweep-delta-n3, design-n8.  ``--seed`` is
the base seed: op i uses seed + i, so the same seed gives the same inputs.
The run repeats ops, each followed by its output checks, for ``--seconds``
of wall time (and at least 11 ops); only the ops themselves are timed.

``--trace 0`` measures end-to-end metrics with nothing recorded inside the
ops: set-up time (fresh interpreter to first op ready, median of a few
fresh interpreters), ops per second, median and tail op latency, and peak
resident memory.  ``--trace 1`` alternates untraced and traced ops and
reports per-layer metrics from the traced ones, plus the tracing overhead;
its spans are written to .bench_out/spans-<workload>.csv.  Per-layer times
and counts are means per traced op (s/op, count/op); ratios are taken over
all traced calls; trace.unattributed_ms is the largest gap, over the traced
ops, between an op's time and the sum of its layers' self times.

Every op's output is checked outside its timed interval (see checks.py).
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it print each metric with
its unit and sample count.  A fuller report, with the environment, goes to
.bench_out/<workload>-seed<seed>-trace<trace>.json.

BLAS threads are pinned to one before numpy is imported: multi-threaded
OpenBLAS is slower at these sizes on a few cores, and unpinned runs vary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 5
MIN_OPS = 11            # op_tail_ms needs more than 10 samples
MIN_TRACED_OPS = 4
WARMUP_SEED_OFFSET = 10**9  # the warm-up op shares no input with timed ops
WORKLOAD_NAMES = ("cdf-n3", "sweep-delta-n3", "design-n8")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help="set up one workload, print 'ready' and exit")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def import_misobeam():
    """Pin BLAS threads, then import the checkout's misobeam (never an
    installed copy) and the workloads built on it."""
    os.environ.update(BLAS_PINS)
    src = ROOT / "src"
    if not (src / "misobeam" / "__init__.py").is_file():
        sys.exit(f"error: no misobeam sources under {src}")
    sys.path.insert(0, str(src))
    import misobeam
    if Path(misobeam.__file__).resolve().parent != (src / "misobeam").resolve():
        sys.exit(f"error: imported misobeam from {misobeam.__file__}, not {src}")
    import workloads
    return workloads


def measure_setup(args) -> list[float]:
    """Seconds from starting a fresh interpreter to its first op being ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as probe:
            line = probe.stdout.readline()
            elapsed = time.perf_counter() - t0
            probe.stdout.read()
        if probe.returncode != 0 or line.strip() != "ready":
            sys.exit(f"error: set-up probe failed with exit code {probe.returncode}")
        times.append(elapsed)
    return times


def environment(np, scipy) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads_pinned": {k: os.environ.get(k) for k in BLAS_PINS},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
    }


def run_ops(args, workloads, workload):
    """Closed loop of one client; returns per-op records and traced data."""
    from spans import Tracer, design_calls, op_counts
    from misobeam import cli, conic, design, model, montecarlo

    tracer = Tracer(dict(cli=cli, conic=conic, design=design, model=model,
                         montecarlo=montecarlo))
    inputs = workload.inputs(args.seed + WARMUP_SEED_OFFSET)
    tracer.run(-1, False, lambda: workload.op(inputs))

    ops, counts, solve_times, all_spans, errors = [], [], [], [], []
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < args.seconds or len(ops) < MIN_OPS or (
            args.trace and len(counts) < MIN_TRACED_OPS):
        traced = bool(args.trace) and i % 2 == 1
        inputs = workload.inputs(args.seed + i)
        t0 = time.perf_counter()
        try:
            seconds, result, spans = tracer.run(i, traced, lambda: workload.op(inputs))
            calls = design_calls(spans, design)
            failed, op_errors = workloads.check_op(workload, inputs, result, calls)
        except Exception:  # an op that raises is a failed op, not a crash
            seconds = time.perf_counter() - t0
            failed, op_errors, spans = True, [traceback.format_exc()], []
        if traced and spans:
            c, solves = op_counts(spans, seconds, design)
            c["cli.bytes_written"] = workload.bytes_written()
            counts.append(c)
            solve_times += solves
            all_spans += spans
        ops.append({"seconds": seconds, "traced": traced, "failed": failed})
        errors += [f"op {i} (seed {args.seed + i}): {e}" for e in op_errors]
        i += 1
    return ops, counts, solve_times, all_spans, errors


def end_to_end(ops, setup_times) -> tuple[dict, dict]:
    from measure import tail
    lat_ms = [op["seconds"] * 1e3 for op in ops]
    percentile, tail_ms = tail(lat_ms)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "ops_per_s": (len(ops) / (sum(lat_ms) / 1e3), "1/s", len(ops)),
        "op_p50_ms": (statistics.median(lat_ms), "ms", len(ops)),
        "op_tail_ms": (tail_ms, "ms", len(ops)),
        "peak_rss_mb": (rss_kb / 1024.0, "MB", 1),
    }
    return metrics, {"op_tail_percentile": percentile}


def per_layer(ops, counts, solve_times) -> tuple[dict, dict]:
    from spans import STATUSES
    n = len(counts)

    def mean(*keys):
        return sum(c[k] for c in counts for k in keys) / n

    def ratio(num, den):
        num, den = sum(c[num] for c in counts), sum(c[den] for c in counts)
        return num / den if den else 0.0

    designs = sum(c["design.design_nominal.calls"] + c["design.design_robust.calls"]
                  for c in counts)
    iterations = sum(c["conic.iterations"] for c in counts)
    traced = [op["seconds"] for op in ops if op["traced"]]
    untraced = [op["seconds"] for op in ops if not op["traced"]]
    layers = {
        "cli.command_s": (mean("cli.main_s"), "s/op"),
        "cli.self_s": (mean("cli.self_s"), "s/op"),
        "cli.bytes_written": (mean("cli.bytes_written"), "B/op"),
        "montecarlo.experiment_s": (mean("montecarlo.sinr_cdf_experiment_s",
                                         "montecarlo.power_vs_delta_sweep_s"), "s/op"),
        "montecarlo.self_s": (mean("montecarlo.self_s"), "s/op"),
        "montecarlo.trials": (mean("montecarlo.trials"), "count/op"),
        "model.sample_error.calls": (mean("model.sample_error.calls"), "count/op"),
        "model.sample_error_s": (mean("model.sample_error_s"), "s/op"),
        "model.generate_channels.calls": (mean("model.generate_channels.calls"), "count/op"),
        "model.generate_channels_s": (mean("model.generate_channels_s"), "s/op"),
        "design.designs.nominal": (mean("design.design_nominal.calls"), "count/op"),
        "design.designs.robust": (mean("design.design_robust.calls"), "count/op"),
        "design.build_s": (mean("design.build_nominal_s", "design.build_robust_s"), "s/op"),
        "design.self_s": (mean("design.self_s") - mean("design.build_nominal_s",
                                                       "design.build_robust_s"), "s/op"),
        "design.optimal_ratio.nominal": (ratio("design.optimal.nominal",
                                               "design.design_nominal.calls"), "ratio"),
        "design.optimal_ratio.robust": (ratio("design.optimal.robust",
                                              "design.design_robust.calls"), "ratio"),
        "design.duplicate_ratio": (sum(c["design.duplicates"] for c in counts) / designs
                                   if designs else 0.0, "ratio"),
        "design.program.rows": (mean("design.program.rows"), "count/op"),
        "design.program.vars": (mean("design.program.vars"), "count/op"),
        "design.program.nnz": (mean("design.program.nnz"), "count/op"),
        "conic.solve.calls": (mean("conic.solve.calls"), "count/op"),
        "conic.solve_s": (mean("conic.solve_s"), "s/op"),
        "conic.solve_p50_ms": (statistics.median(solve_times) * 1e3 if solve_times else 0.0,
                               "ms"),
        "conic.iterations": (mean("conic.iterations"), "count/op"),
        "conic.iterations_per_solve": (ratio("conic.iterations", "conic.solve.calls"),
                                       "iter/solve"),
        "conic.s_per_iteration": (sum(c["conic.solve_s"] for c in counts) / iterations
                                  if iterations else 0.0, "s/iter"),
        "conic.infeasible_solve_s": (mean("conic.infeasible_solve_s"), "s/op"),
        **{f"conic.status.{status}": (mean(f"conic.status.{status}"), "count/op")
           for status in STATUSES},
        "trace.overhead_ratio": (statistics.median(traced) / statistics.median(untraced),
                                 "ratio"),
        "trace.unattributed_ms": (max(c["trace.unattributed_s"] for c in counts) * 1e3, "ms"),
    }
    metrics = {k: (v, unit, n) for k, (v, unit) in layers.items()}
    info = {"traced_ops": n, "untraced_ops": len(untraced),
            "traced_op_p50_ms": statistics.median(traced) * 1e3,
            "untraced_op_p50_ms": statistics.median(untraced) * 1e3,
            "solves_traced": len(solve_times)}
    return metrics, info


def write_spans(path: Path, spans) -> None:
    with path.open("w") as fh:
        fh.write("op,index,parent,name,start,end\n")
        index, op = 0, None
        for s in spans:
            index = index + 1 if s.op == op else 0
            op = s.op
            fh.write(f"{s.op},{index},{s.parent},{s.name},{s.start!r},{s.end!r}\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_misobeam()
    workdir = OUT / (f"probe-{args.workload}" if args.probe_setup else args.workload)
    workload = workloads.WORKLOADS[args.workload](workdir)
    if args.probe_setup:
        workload.inputs(args.seed)
        print("ready", flush=True)
        return 0

    import numpy as np
    import scipy
    setup_times = [] if args.trace else measure_setup(args)
    ops, counts, solve_times, spans, errors = run_ops(args, workloads, workload)
    if args.trace:
        metrics, info = per_layer(ops, counts, solve_times)
        write_spans(OUT / f"spans-{args.workload}.csv", spans)
    else:
        metrics, info = end_to_end(ops, setup_times)
    failed = sum(op["failed"] for op in ops)
    result = {
        "correct": not errors,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    report = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, samples={k: n for k, (_, _, n) in metrics.items()},
                  failed_ratio=failed / len(ops), info=info,
                  op_ms=[op["seconds"] * 1e3 for op in ops],
                  environment=environment(np, scipy), errors=errors[:20])
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")

    for message in errors[:5]:
        print(f"check failed: {message}", file=sys.stderr)
    for k, (v, unit, n) in metrics.items():
        print(f"{args.workload} {k} = {v:.6g} {unit} (n={n})")
    print(f"{args.workload} failed_ratio = {failed / len(ops):.6g} (n={len(ops)})")
    for k, v in info.items():
        print(f"{args.workload} {k} = {v}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
