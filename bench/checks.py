"""Output checks that do not trust the solver.

Each check returns a list of failure messages; an empty list passes.  The
checks rebuild programs with the public builders, evaluate SINR with
``model.achieved_sinr`` and read CSV files back from disk, so a wrong
precoder, a wrong power or a wrong table is caught even when the solver
reports ``Optimal``.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np
from misobeam import conic, design, model, montecarlo

CONE_TOL = 1e-6       # cone violation of the returned x in the rebuilt program
SINR_REL = 1e-4       # achieved SINR at the estimates >= gamma (1 - SINR_REL)
POWER_REL = 1e-6      # |power - objective^2| <= POWER_REL objective^2
MARGIN_DB = 0.02      # sampled SINR may sit this far below a robust target
ORDER_REL = 1e-6      # slack for power orderings between separate solves


def check_design(call) -> list[str]:
    """An Optimal design is feasible in its rebuilt program, meets every
    SINR target at the estimates, and its power is the objective squared."""
    res = call.result
    if res.status != conic.SolveStatus.OPTIMAL:
        return []
    a = call.inputs
    if call.method == "nominal":
        program, _ = design.build_nominal(a["channels"], a["qos"])
    else:
        program, _ = design.build_robust(a["channels"], a["qos"], a["unc"],
                                         a["perturbation_sigma"])
    errors = []
    violation = conic.residuals(program, res.solution.x).cone_violation
    if violation > CONE_TOL:
        errors.append(f"{call.method}: cone violation {violation:.3g} > {CONE_TOL}")
    sinr = model.achieved_sinr(a["channels"], res.precoder, a["qos"].sigma)
    short = sinr < a["qos"].gamma * (1.0 - SINR_REL)
    if short.any():
        errors.append(f"{call.method}: SINR {sinr[short]} below target "
                      f"{a['qos'].gamma[short]} at the estimates")
    objective_sq = res.solution.objective_value ** 2
    if not abs(res.power - objective_sq) <= POWER_REL * objective_sq:
        errors.append(f"{call.method}: power {res.power!r} != objective^2 {objective_sq!r}")
    return errors


def _read_csv(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def check_cdf(outdir: Path, config, calls) -> list[str]:
    """cdf.csv holds feasible trials x samples x n_u rows per method, and
    every robust sample meets the target up to MARGIN_DB."""
    errors = []
    rates = {r["method"]: float(r["feasibility_rate"])
             for r in _read_csv(outdir / "feasibility.csv")}
    rows = _read_csv(outdir / "cdf.csv")
    floor_db = min(config.gamma_db) - MARGIN_DB
    for method in config.methods:
        feasible = sum(c.result.status == conic.SolveStatus.OPTIMAL
                       for c in calls if c.method == method)
        if round(rates.get(method, -1.0) * config.n_channel_trials) != feasible:
            errors.append(f"{method}: feasibility rate {rates.get(method)} but "
                          f"{feasible} of {config.n_channel_trials} designs Optimal")
        sinr_db = np.array([float(r["sinr_db"]) for r in rows if r["method"] == method])
        expected = feasible * config.n_error_samples * config.n_u
        if sinr_db.size != expected:
            errors.append(f"{method}: {sinr_db.size} CDF rows, expected {expected}")
        if method == "robust" and sinr_db.size and sinr_db.min() < floor_db:
            errors.append(f"robust: sample at {sinr_db.min():.4f} dB < {floor_db} dB")
    return errors


def check_sweep(table, config, grid, calls) -> list[str]:
    """Per trial of a delta sweep: the nominal power is the same at every
    grid point; robust power never falls as delta grows and is at least
    nominal; once the robust design is PrimalInfeasible it stays so; the
    table reports these designs."""
    if config.n_channel_trials != 1:
        raise ValueError("per-trial checks read one trial per sweep")
    errors = []
    per_point = len(config.methods)
    if len(calls) != per_point * len(grid):
        return [f"{len(calls)} design calls for {len(grid)} grid points"]
    by_method = {m: [calls[g * per_point + i].result for g in range(len(grid))]
                 for i, m in enumerate(config.methods)}
    optimal = conic.SolveStatus.OPTIMAL
    nominal = [r.power for r in by_method["nominal"] if r.status == optimal]
    if nominal and (max(nominal) - min(nominal)) > 1e-9 * max(nominal):
        errors.append(f"nominal power varies over the grid: {nominal}")
    robust = by_method["robust"]
    last = 0.0
    infeasible_from = None
    for g, r in enumerate(robust):
        if r.status == conic.SolveStatus.PRIMAL_INFEASIBLE and infeasible_from is None:
            infeasible_from = grid[g]
        if r.status != optimal:
            continue
        if infeasible_from is not None:
            errors.append(f"robust Optimal at delta={grid[g]} after PrimalInfeasible "
                          f"at delta={infeasible_from}")
        if r.power < last * (1.0 - ORDER_REL):
            errors.append(f"robust power falls to {r.power} at delta={grid[g]}")
        if nominal and r.power < min(nominal) * (1.0 - ORDER_REL):
            errors.append(f"robust power {r.power} below nominal {min(nominal)}")
        last = r.power
    for row in table:
        r = by_method[row["method"]][grid.index(row["delta"])]
        feasible = int(r.status == optimal)
        reported = row["mean_power"]
        if row["feasible_trials"] != feasible or (
                feasible and not np.isclose(reported, r.power, rtol=1e-12, atol=0.0)):
            errors.append(f"table row {row} disagrees with design {r.status.value} "
                          f"power {r.power}")
    return errors


def check_robust_design(call, seed: int, samples: int) -> list[str]:
    """A robust design costs at least the nominal design on the same
    channels, and sampled errors inside the protected ball keep every user
    within MARGIN_DB of the target."""
    res = call.result
    if res.status != conic.SolveStatus.OPTIMAL:
        return []
    a = call.inputs
    nominal = design.design_nominal(a["channels"], a["qos"])
    if nominal.status != conic.SolveStatus.OPTIMAL:
        return [f"nominal design {nominal.status.value} where robust is Optimal"]
    errors = []
    if res.power < nominal.power * (1.0 - ORDER_REL):
        errors.append(f"robust power {res.power} below nominal {nominal.power}")
    radius = a["unc"].kappa * a["unc"].delta
    report = montecarlo.worst_case_check(a["channels"], res.precoder, a["qos"],
                                         radius, samples, seed)
    floor_db = model.linear_to_db(a["qos"].gamma) - MARGIN_DB
    if (report.min_sinr_db < floor_db).any():
        errors.append(f"sampled worst SINR {report.min_sinr_db} dB below {floor_db} dB")
    return errors
