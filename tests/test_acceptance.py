"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (visible with ``pytest -s``).  Tolerances are fixed here and
must not be loosened to make a criterion pass."""

import os
import time

import numpy as np
import pytest
from click.testing import CliRunner

from misobeam import design, model, montecarlo
from misobeam.cli import main as cli_main
from misobeam.conic import (ConeProgram, Nonnegative, SolverSettings,
                            SolveStatus, solve)
from misobeam.design import UncertaintySpec, build_robust, design_nominal, design_robust
from misobeam.model import ChannelSet, QosSpec

from test_conic import least_norm_program, soc_min_norm_program
from test_design import scalar_robust_oracle

WORKERS = min(4, os.cpu_count() or 1)


def report(number, ok, detail):
    print(f"\n[ACCEPTANCE {number:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"acceptance criterion {number} failed: {detail}"


def test_01_solver_analytic_suite():
    start = time.perf_counter()
    worst_err = 0.0
    worst_iters = 0

    sol = solve(soc_min_norm_program())
    worst_err = max(worst_err, abs(sol.objective_value - 5.0))
    worst_iters = max(worst_iters, sol.iterations)

    sol = solve(least_norm_program(np.array([[1.0, 2.0, 2.0]]), np.array([1.0])))
    worst_err = max(worst_err, abs(sol.objective_value - 1.0 / 3.0))
    worst_iters = max(worst_iters, sol.iterations)

    infeasible = solve(ConeProgram(1, [0.0], [[-1.0], [1.0]], [-1.0, 0.0],
                                   [Nonnegative(1), Nonnegative(1)]))
    statuses_ok = infeasible.status == SolveStatus.PRIMAL_INFEASIBLE

    rng = np.random.default_rng(2026)
    for _ in range(20):
        p = int(rng.integers(1, 5))
        n = int(p + rng.integers(1, 6))
        C = rng.normal(size=(p, n))
        d = rng.normal(size=p)
        analytic = np.linalg.norm(C.T @ np.linalg.solve(C @ C.T, d))
        sol = solve(least_norm_program(C, d))
        assert sol.status == SolveStatus.OPTIMAL
        worst_err = max(worst_err, abs(sol.objective_value - analytic))
        worst_iters = max(worst_iters, sol.iterations)

    elapsed = time.perf_counter() - start
    ok = worst_err <= 1e-6 and worst_iters < 50 and elapsed < 5.0 and statuses_ok
    report(1, ok, f"analytic suite: worst |obj err| {worst_err:.2e} (<=1e-6), "
                  f"max iters {worst_iters} (<50), {elapsed:.2f}s (<5s)")


def test_02_nominal_tightness():
    qos = QosSpec.from_db([5.0] * 3, [1.0] * 3)
    rng = np.random.default_rng(20260101)
    worst = 0.0
    for _ in range(100):
        ch = model.generate_channels(3, 3, rng)
        res = design_nominal(ch, qos)
        assert res.status == SolveStatus.OPTIMAL
        sinr_db = model.linear_to_db(model.achieved_sinr(ch, res.precoder, qos.sigma))
        worst = max(worst, float(np.max(np.abs(sinr_db - 5.0))))
    ok = worst <= 1e-3
    report(2, ok, f"nominal tightness: worst |SINR - 5 dB| {worst:.2e} dB (<=1e-3)")


def test_03_scalar_oracle_equivalence():
    ch = ChannelSet(np.array([[1.0 + 0.0j]]))
    worst_rel = 0.0
    agreements = 0
    points = 0
    for gamma_db in (0.0, 3.0, 6.0):
        gamma = float(model.db_to_linear(gamma_db))
        for delta in (0.0, 0.05, 0.1, 0.2):
            points += 1
            oracle = scalar_robust_oracle(gamma, 1.0, delta, kappa=1.0, step=1e-5)
            res = design_robust(ch, QosSpec(gamma=[gamma], sigma=[1.0]),
                                UncertaintySpec(delta=[delta], kappa=1.0))
            if oracle is None:
                agreements += res.status == SolveStatus.PRIMAL_INFEASIBLE
            else:
                agreements += res.status == SolveStatus.OPTIMAL
                worst_rel = max(worst_rel, abs(res.power - oracle) / oracle)
    ok = agreements == points and worst_rel <= 1e-4
    report(3, ok, f"scalar oracle: {agreements}/{points} feasibility agreements, "
                  f"worst rel err {worst_rel:.2e} (<=1e-4)")


def _fig1_samples(n_trials=20, n_samples=10_000, seed=888, delta=0.015):
    """Design at the reference settings (3 users, 3 antennas, 5 dB targets,
    radius 0.015) and evaluate both methods on shared errors, half drawn on
    the sphere boundary and half uniform in the ball (batched draws with the
    same distribution as model.sample_error)."""
    qos = QosSpec.from_db([5.0] * 3, [1.0] * 3)
    unc = UncertaintySpec(delta=[delta] * 3, kappa=1.0)
    rng = np.random.default_rng(seed)
    half = n_samples // 2
    samples = {"nominal": [], "robust": []}
    for _ in range(n_trials):
        ch = model.generate_channels(3, 3, rng)
        results = {
            "nominal": design_nominal(ch, qos),
            "robust": design_robust(ch, qos, unc),
        }
        assert all(r.status == SolveStatus.OPTIMAL for r in results.values())
        z = (rng.standard_normal((n_samples, 3, 3))
             + 1j * rng.standard_normal((n_samples, 3, 3)))
        errors = z * (delta / np.linalg.norm(z, axis=2))[:, :, None]
        radius = rng.uniform(size=(n_samples - half, 3)) ** (1.0 / 6.0)
        errors[half:] *= radius[:, :, None]
        true_rows = ch.rows[None, :, :] + errors
        for name, res in results.items():
            gains = np.abs(np.einsum("sut,tj->suj", true_rows, res.precoder.matrix)) ** 2
            signal = np.einsum("skk->sk", gains)
            sinr = signal / (gains.sum(axis=2) - signal + 1.0)
            samples[name].append(model.linear_to_db(sinr.reshape(-1)))
    return {k: np.concatenate(v) for k, v in samples.items()}


@pytest.fixture(scope="module")
def fig1_samples():
    return _fig1_samples()


def test_04_robustness_guarantee(fig1_samples):
    start = time.perf_counter()
    robust = fig1_samples["robust"]
    frac_ok = float(np.mean(robust >= 4.98))
    elapsed = time.perf_counter() - start
    ok = frac_ok == 1.0 and elapsed < 120.0
    report(4, ok, f"robust guarantee: {frac_ok:.6f} of {robust.size} samples "
                  f">= 4.98 dB (need 100%), min {robust.min():.3f} dB")


def test_05_qualitative_contrast(fig1_samples):
    nominal_below = float(np.mean(fig1_samples["nominal"] < 5.0))
    robust_below = float(np.mean(fig1_samples["robust"] < 5.0))
    ok = nominal_below > 0.01 and robust_below == 0.0
    report(5, ok, f"contrast: nominal {100 * nominal_below:.2f}% below target "
                  f"(>1%), robust {100 * robust_below:.2f}% (must be 0%)")


def test_06_sweep_monotonicity():
    config = montecarlo.ExperimentConfig(
        n_u=3, n_t=3, gamma_db=5.0, sigma=1.0, delta=0.02, kappa=1.0,
        n_channel_trials=50, n_error_samples=1, seed=60_001,
    )
    gamma_table = montecarlo.power_vs_gamma_sweep(
        config, [0.0, 2.0, 4.0, 6.0, 8.0, 10.0], workers=WORKERS)
    delta_table = montecarlo.power_vs_delta_sweep(
        config, [0.005, 0.01, 0.02, 0.03, 0.04, 0.05], workers=WORKERS)

    worst_violation = 0.0
    worst_dominance = 0.0
    for table in (gamma_table, delta_table):
        for method in ("nominal", "robust"):
            curve = [r["mean_power_common"] for r in table if r["method"] == method]
            assert all(np.isfinite(curve)), "no commonly-feasible trials"
            worst_violation = max(worst_violation, float(-np.min(np.diff(curve))))
        rob = [r["mean_power_common"] for r in table if r["method"] == "robust"]
        nom = [r["mean_power_common"] for r in table if r["method"] == "nominal"]
        worst_dominance = max(worst_dominance, float(np.max(np.subtract(nom, rob))))
    ok = worst_violation <= 1e-6 and worst_dominance <= 1e-6
    report(6, ok, f"sweep monotonicity: worst decrease {worst_violation:.2e} "
                  f"(<=1e-6), worst nominal-over-robust {worst_dominance:.2e}")


def test_07_zero_uncertainty_collapse():
    qos = QosSpec.from_db([5.0] * 3, [1.0] * 3)
    rng = np.random.default_rng(70_007)
    worst = 0.0
    for i in range(50):
        ch = model.generate_channels(3, 3, rng)
        if i % 2 == 0:
            unc = UncertaintySpec(delta=[0.0] * 3, kappa=1.0)
        else:
            unc = UncertaintySpec(delta=[0.05] * 3, kappa=0.0)
        nom = design_nominal(ch, qos)
        rob = design_robust(ch, qos, unc)
        assert rob.status == SolveStatus.OPTIMAL
        worst = max(worst, abs(rob.power - nom.power) / nom.power)
    ok = worst <= 1e-6
    report(7, ok, f"zero-uncertainty collapse: worst rel gap {worst:.2e} (<=1e-6)")


def test_08_kappa_ordering():
    qos = QosSpec.from_db([5.0] * 3, [1.0] * 3)
    rng = np.random.default_rng(80_008)
    checked = 0
    violations = 0.0
    for _ in range(50):
        ch = model.generate_channels(3, 3, rng)
        full = design_robust(ch, qos, UncertaintySpec(delta=[0.02] * 3, kappa=1.0))
        quarter = design_robust(ch, qos, UncertaintySpec.balanced([0.02] * 3))
        if full.status == SolveStatus.OPTIMAL:
            assert quarter.status == SolveStatus.OPTIMAL, \
                "kappa=1/4 must stay feasible whenever kappa=1 is"
            checked += 1
            violations = max(violations, quarter.power - full.power)
    ok = checked >= 40 and violations <= 1e-6 * 100
    report(8, ok, f"kappa ordering: power(1/4) <= power(1) on {checked}/50 "
                  f"feasible instances, worst excess {violations:.2e}")


def test_09_feasibility_handling(tmp_path):
    config = montecarlo.ExperimentConfig(
        n_u=3, n_t=3, gamma_db=5.0, sigma=1.0, delta=0.01, kappa=1.0,
        n_channel_trials=8, n_error_samples=1, methods=("robust",), seed=90_009,
    )
    table = montecarlo.power_vs_delta_sweep(
        config, [0.005, 0.02, 0.08, 0.2, 0.5], workers=WORKERS)
    rates = [r["feasibility_rate"] for r in table]
    sweep_ok = rates[0] == 1.0 and rates[-1] == 0.0 and all(np.diff(rates) <= 0)

    cfg_path = tmp_path / "infeasible.cfg"
    cfg_path.write_text(
        "n_t = 3\nn_u = 3\ngamma_db = 5\nsigma = 1\ndelta = 0.5\nkappa = 1\n"
        "seed = 90009\n")
    out = tmp_path / "run"
    result = CliRunner().invoke(cli_main, ["design", str(cfg_path),
                                           "--method", "robust", "--out", str(out)])
    cli_ok = result.exit_code == 2 and "PrimalInfeasible" in result.output
    ok = sweep_ok and cli_ok
    report(9, ok, f"feasibility handling: rates {rates} transition 1->0, "
                  f"CLI exit {result.exit_code} (=2) with PrimalInfeasible")


def test_10_scale_check():
    n = 6
    ch = model.generate_channels(n, n, 100_010)
    qos = QosSpec.from_db([5.0] * n, [1.0] * n)
    unc = UncertaintySpec(delta=[0.015] * n, kappa=1.0)
    start = time.perf_counter()
    program, layout = build_robust(ch, qos, unc)
    solution = solve(program, SolverSettings())
    elapsed = time.perf_counter() - start
    census_ok = (program.num_vars == 4 * n * n + 2 * n + 1
                 and len(program.cones) == 4 * n * n + 3 * n + 1
                 and sorted(layout.var_index().values()) == list(range(program.num_vars)))
    status_ok = solution.status in (SolveStatus.OPTIMAL, SolveStatus.PRIMAL_INFEASIBLE)
    ok = elapsed < 10.0 and census_ok and status_ok
    report(10, ok, f"scale check n_t=n_u=6: {solution.status.value} in "
                   f"{elapsed:.2f}s (<10s), census vars={program.num_vars} "
                   f"cones={len(program.cones)} exact={census_ok}")


def test_11_cli_determinism(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(
        "n_t = 3\nn_u = 3\ngamma_db = 5\nsigma = 1\ndelta = 0.015\nkappa = 1\n"
        "trials = 3\nerror_samples = 50\nerror_mode = ball\n"
        "methods = nominal,robust\nseed = 110011\n")
    runner = CliRunner()
    out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert runner.invoke(cli_main, ["cdf", str(cfg_path), "--out", str(out1)]).exit_code == 0
    assert runner.invoke(cli_main, ["cdf", str(out1 / "manifest.json"),
                                    "--out", str(out2)]).exit_code == 0
    cdf_identical = (out1 / "cdf.csv").read_bytes() == (out2 / "cdf.csv").read_bytes()

    assert runner.invoke(cli_main, ["sweep-delta", str(cfg_path), "--grid", "0.005,0.015",
                                    "--out", str(out3)]).exit_code == 0
    rerun = tmp_path / "d"
    assert runner.invoke(cli_main, ["sweep-delta", str(out3 / "manifest.json"),
                                    "--grid", "0.005,0.015",
                                    "--out", str(rerun)]).exit_code == 0
    sweep_identical = ((out3 / "sweep_delta.csv").read_bytes()
                       == (rerun / "sweep_delta.csv").read_bytes())
    ok = cdf_identical and sweep_identical
    report(11, ok, f"determinism: cdf byte-identical={cdf_identical}, "
                   f"sweep byte-identical={sweep_identical}")
