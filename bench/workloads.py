"""The benchmark's three workloads, each a closed loop of one client.

An op is one call into misobeam's public functions.  Op i draws its inputs
from seed ``base_seed + i``; ``inputs`` runs outside the op's timed
interval, ``op`` is the timed call, ``check`` runs afterwards on the op's
result and on the design calls the tracer captured.

Why these three:

* cdf-n3 - the paper's CDF setting through the ``misobeam cdf`` command.
  The only workload where error sampling and CSV writing work next to small
  solves; every design input is distinct, so a design cache gains nothing.
* sweep-delta-n3 - a power-versus-delta sweep: nearly all time is in
  ``conic.solve`` on 40-variable programs, where per-iteration Python
  overhead dominates; about half of the robust solves are infeasible, and
  the nominal design repeats at every grid point (5 of 12 calls).
* design-n8 - one robust design at n_t = n_u = 8 (a 5017 x 265 program):
  dense KKT algebra dominates, and the other layers sit idle.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

from misobeam import cli, conic, design, model, montecarlo

import checks

N3 = dict(n_u=3, n_t=3, gamma_db=5.0, sigma=1.0, delta=0.015, kappa=1.0,
          methods=("nominal", "robust"))
FAILED_STATUSES = (conic.SolveStatus.NUMERICAL_FAILURE, conic.SolveStatus.MAX_ITERATIONS)


class CdfN3:
    name = "cdf-n3"
    trials, samples = 2, 1000

    def __init__(self, workdir: Path):
        self.config_path = workdir / "cdf-n3.cfg"
        self.outdir = workdir / "cdf-out"
        self.config = montecarlo.ExperimentConfig(
            **N3, n_channel_trials=self.trials, n_error_samples=self.samples,
            error_mode="ball")
        workdir.mkdir(parents=True, exist_ok=True)
        self.config_path.write_text(
            f"n_t = {N3['n_t']}\nn_u = {N3['n_u']}\ngamma_db = {N3['gamma_db']}\n"
            f"sigma = {N3['sigma']}\ndelta = {N3['delta']}\nkappa = {N3['kappa']}\n"
            f"trials = {self.trials}\nerror_samples = {self.samples}\n"
            f"error_mode = ball\nmethods = {','.join(N3['methods'])}\n")

    def inputs(self, seed: int):
        self.outdir.mkdir(parents=True, exist_ok=True)
        for path in self.outdir.iterdir():
            path.unlink()
        return seed

    def op(self, seed):
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["cdf", str(self.config_path), "--seed", str(seed),
                      "--out", str(self.outdir)], standalone_mode=False)

    def check(self, seed, result, calls) -> list[str]:
        return checks.check_cdf(self.outdir, self.config, calls)

    def bytes_written(self) -> int:
        return sum(p.stat().st_size for p in self.outdir.iterdir())


class SweepDeltaN3:
    name = "sweep-delta-n3"
    grid = [0.005, 0.01, 0.02, 0.04, 0.08, 0.16]

    def __init__(self, workdir: Path):
        pass

    def inputs(self, seed: int):
        return montecarlo.ExperimentConfig(**N3, n_channel_trials=1, n_error_samples=1,
                                           seed=seed)

    def op(self, config):
        return montecarlo.power_vs_delta_sweep(config, self.grid)

    def check(self, config, table, calls) -> list[str]:
        return checks.check_sweep(table, config, self.grid, calls)

    def bytes_written(self) -> int:
        return 0


class DesignN8:
    name = "design-n8"
    n = 8
    audit_samples = 200

    def __init__(self, workdir: Path):
        self.qos = model.QosSpec.from_db([N3["gamma_db"]] * self.n, [N3["sigma"]] * self.n)
        self.unc = design.UncertaintySpec(delta=[N3["delta"]] * self.n, kappa=N3["kappa"])

    def inputs(self, seed: int):
        return seed, model.generate_channels(self.n, self.n, seed)

    def op(self, inputs):
        return design.design_robust(inputs[1], self.qos, self.unc)

    def check(self, inputs, result, calls) -> list[str]:
        return checks.check_robust_design(calls[0], inputs[0], self.audit_samples)

    def bytes_written(self) -> int:
        return 0


WORKLOADS = {w.name: w for w in (CdfN3, SweepDeltaN3, DesignN8)}


def check_op(workload, inputs, result, calls) -> tuple[bool, list[str]]:
    """(failed, check failures) of one op: every Optimal design passes the
    design checks, the workload's own checks pass, and no design ended in a
    solver failure."""
    errors = [e for c in calls for e in checks.check_design(c)]
    errors += workload.check(inputs, result, calls)
    solver_failed = any(c.result.status in FAILED_STATUSES for c in calls)
    return solver_failed or bool(errors), errors
