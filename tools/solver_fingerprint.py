"""Fingerprint the solver on a fixed grid of designs.

Solves every design of the grid below and prints the status counts, the
total iteration count and one SHA-256 over every design's status,
iteration count and ``x`` bytes, in grid order.  Two versions of the
solver that print the same digest give the same designs, bit for bit.

    PYTHONPATH=src python tools/solver_fingerprint.py           # one solve per design
    PYTHONPATH=src python tools/solver_fingerprint.py --batch   # grouped batches

The grid: n_t = n_u in {1, 2, 3, 4, 6, 8}, channel seeds 0-2, targets 0,
10, 20 and 30 dB, sigma in {1e-6, 1, 1e3}; the nominal design, and the
robust design at delta 0.015 in both perturbation modes.  ``--batch``
solves each size's requests of one method and mode as one
``design.design_batch`` list and must print the digest of the solo run.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import time

from misobeam import design, model

SIZES = (1, 2, 3, 4, 6, 8)
SEEDS = (0, 1, 2)
GAMMA_DB = (0.0, 10.0, 20.0, 30.0)
SIGMAS = (1e-6, 1.0, 1e3)
DELTA = 0.015
KINDS = (("nominal", None), ("robust", "paper"), ("robust", "zero"))


def grid():
    """(size, method, request) for every design, in digest order."""
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
                        yield (n, method, mode), method, request


def solve(batch: bool) -> list:
    if not batch:
        return [design.design_nominal(*request) if method == "nominal"
                else design.design_robust(*request) for _, method, request in grid()]
    groups = collections.defaultdict(list)
    for group, method, request in grid():
        groups[group, method].append(request)
    return [result for (_, method), requests in groups.items()
            for result in design.design_batch(method, requests)]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--batch", action="store_true",
                        help="solve each size, method and mode as one batch")
    args = parser.parse_args()
    start = time.perf_counter()
    results = solve(args.batch)
    seconds = time.perf_counter() - start
    digest = hashlib.sha256()
    for result in results:
        solution = result.solution
        digest.update(f"{result.status.value}:{solution.iterations}:".encode())
        digest.update(solution.x.tobytes())
    statuses = collections.Counter(result.status.value for result in results)
    print(f"designs {len(results)}  " + "  ".join(
        f"{status} {count}" for status, count in sorted(statuses.items())))
    print(f"iterations {sum(r.solution.iterations for r in results)}")
    print(f"sha256 {digest.hexdigest()}")
    print(f"seconds {seconds:.2f}")


if __name__ == "__main__":
    main()
