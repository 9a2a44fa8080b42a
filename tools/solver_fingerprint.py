"""Fingerprint the solver on a fixed grid of designs.

Solves every design of the grid below and prints the status counts, the
total iteration count and one SHA-256 over every design's status,
iteration count and ``x`` bytes, in grid order, then one line per method
(and perturbation mode) and size with its status counts and iteration
total.  Two versions of the solver that print the same digest give the
same designs, bit for bit; two that print the same per-size lines reach
the same statuses in the same iteration counts, even where their
arithmetic rounds differently.  The digests depend on the BLAS library
and its thread count (threaded BLAS sums in another order), so the tool
pins one BLAS thread before numpy loads, as ``bench/run.py`` does.  With
OpenBLAS on x86-64 the grid prints ``68d761ed...61e8`` solo and with
``--batch``, and ``--experiments`` prints ``50d3a170...1136``.  They
moved from ``1f75976e...e08e`` and ``cc99581a...5fc1`` when the Gram
assembly started to take one product over the union of a cone class's
columns: that sums the Gram entries in another order, while every status
and iteration count on the grid stayed as it was.

    PYTHONPATH=src python tools/solver_fingerprint.py                # one solve per design
    PYTHONPATH=src python tools/solver_fingerprint.py --batch        # one batch
    PYTHONPATH=src python tools/solver_fingerprint.py --experiments  # experiment reports

The grid: n_t = n_u in {1, 2, 3, 4, 6, 8}, channel seeds 0-2, targets 0,
10, 20 and 30 dB, sigma in {1e-6, 1, 1e3}; the nominal design, and the
robust design at delta 0.015 in both perturbation modes.  ``--batch``
hands the whole grid, every method, mode and size, to one
``design.design_batch`` call, which solves it in one interior-point loop,
and must print the digest of the solo run.

``--experiments`` instead prints one SHA-256 over the reports of the
fixed-seed experiments in EXPERIMENTS: a cdf, a gamma sweep and a delta
sweep at n_t = n_u = 3 and 8, each with more trials than one chunk holds.
It uses only the experiment functions, so it runs against any version of
misobeam that has them.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import os
import resource
import time

os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                 "MKL_NUM_THREADS"), "1"))

from misobeam import design, model, montecarlo  # noqa: E402

SIZES = (1, 2, 3, 4, 6, 8)
SEEDS = (0, 1, 2)
GAMMA_DB = (0.0, 10.0, 20.0, 30.0)
SIGMAS = (1e-6, 1.0, 1e3)
DELTA = 0.015
KINDS = (("nominal", None), ("robust", "paper"), ("robust", "zero"))


def grid():
    """(method, request) for every design, in digest order."""
    for n in SIZES:
        unc = design.UncertaintySpec(delta=[DELTA] * n)
        for method, mode in KINDS:
            for seed in SEEDS:
                channels = model.generate_channels(n, n, seed)
                for gamma_db in GAMMA_DB:
                    for sigma in SIGMAS:
                        qos = model.QosSpec.from_db([gamma_db] * n, [sigma] * n)
                        request = ((channels, qos) if method == "nominal"
                                   else (channels, qos, unc, mode))
                        yield method, request


# (experiment, n_t = n_u, trials, grid) at 5 dB, sigma 1, delta 0.015, seed 11
EXPERIMENTS = (
    ("cdf", 3, 60, None),
    ("gamma", 3, 12, [0.0, 4.0, 8.0, 12.0, 16.0, 20.0]),
    ("delta", 3, 12, [0.005, 0.01, 0.02, 0.04, 0.08, 0.16]),
    ("cdf", 8, 3, None),
    ("gamma", 8, 2, [0.0, 10.0]),
    ("delta", 8, 2, [0.01, 0.08]),
)


def experiments_digest() -> tuple[int, str]:
    """(number of experiments, SHA-256 over their reports): per method of a
    cdf its trial statuses, powers and sorted SINR bytes; a sweep's table
    rows."""
    digest = hashlib.sha256()
    for kind, n, trials, grid in EXPERIMENTS:
        config = montecarlo.ExperimentConfig(
            n_u=n, n_t=n, gamma_db=5.0, sigma=1.0, delta=0.015, n_channel_trials=trials,
            n_error_samples=50, seed=11)
        if kind == "cdf":
            for method, report in montecarlo.sinr_cdf_experiment(config).methods.items():
                digest.update(f"{method}:{report.trial_status}:".encode())
                digest.update(report.trial_power.tobytes() + report.sinr_db.tobytes())
        else:
            sweep = (montecarlo.power_vs_gamma_sweep if kind == "gamma"
                     else montecarlo.power_vs_delta_sweep)
            digest.update(repr(sweep(config, grid)).encode())
    return len(EXPERIMENTS), digest.hexdigest()


def solve(batch: bool) -> list:
    designs = list(grid())
    if batch:
        return design.design_batch(designs)
    return [design.design_batch([pair])[0] for pair in designs]


def breakdown(results: list) -> list[str]:
    """One line per (method, n_t = n_u), in grid order: its status counts
    and its total iteration count."""
    kinds: dict[tuple[str, int], list] = {}
    for (method, request), result in zip(grid(), results):
        kind = method if method == "nominal" else f"{method}/{request[3]}"
        kinds.setdefault((kind, request[0].n_tx), []).append(result)
    return [f"  {kind} n={n}  {status_counts(group)}  "
            f"iterations {sum(r.solution.iterations for r in group)}"
            for (kind, n), group in kinds.items()]


def status_counts(results: list) -> str:
    statuses = collections.Counter(result.status.value for result in results)
    return "  ".join(f"{status} {count}" for status, count in sorted(statuses.items()))


def peak_rss() -> str:
    """The process's peak resident set size so far (Linux reports KiB)."""
    return f"peak_rss_mb {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--batch", action="store_true",
                        help="solve the whole grid as one batch")
    parser.add_argument("--experiments", action="store_true",
                        help="fingerprint fixed-seed cdf and sweep reports instead")
    args = parser.parse_args()
    start = time.perf_counter()
    if args.experiments:
        count, digest = experiments_digest()
        print(f"experiments {count}")
        print(f"sha256 {digest}")
        print(peak_rss())
        print(f"seconds {time.perf_counter() - start:.2f}")
        return
    results = solve(args.batch)
    seconds = time.perf_counter() - start
    digest = hashlib.sha256()
    for result in results:
        solution = result.solution
        digest.update(f"{result.status.value}:{solution.iterations}:".encode())
        digest.update(solution.x.tobytes())
    print(f"designs {len(results)}  {status_counts(results)}")
    print(f"iterations {sum(r.solution.iterations for r in results)}")
    print(f"sha256 {digest.hexdigest()}")
    for line in breakdown(results):
        print(line)
    print(peak_rss())
    print(f"seconds {seconds:.2f}")


if __name__ == "__main__":
    main()
