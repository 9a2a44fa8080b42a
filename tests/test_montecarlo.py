"""Experiment harness: reproducibility, CDF behavior, sweeps, worst case."""

import numpy as np
import pytest

from misobeam import conic, design, model, montecarlo
from misobeam.design import UncertaintySpec
from misobeam.model import Precoder, QosSpec
from misobeam.montecarlo import (
    ExperimentConfig,
    power_vs_delta_sweep,
    power_vs_gamma_sweep,
    sinr_cdf_experiment,
    trial_rng,
    worst_case_check,
)


def small_config(**overrides):
    base = dict(
        n_u=3, n_t=3, gamma_db=5.0, sigma=1.0, delta=0.015, kappa=1.0,
        n_channel_trials=4, n_error_samples=60, error_mode="ball",
        methods=("nominal", "robust"), seed=42,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestExperimentConfig:
    def test_scalars_broadcast_per_user(self):
        cfg = small_config()
        assert cfg.gamma_db == (5.0, 5.0, 5.0)
        assert cfg.sigma == (1.0, 1.0, 1.0)
        assert cfg.delta == (0.015, 0.015, 0.015)

    def test_rejects_bad_method(self):
        with pytest.raises(ValueError):
            small_config(methods=("zeroforcing",))

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            small_config(error_mode="cube")

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            small_config(gamma_db=[5.0, 5.0])

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            small_config(n_channel_trials=0)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            small_config(seed=-1)


def test_trial_rng_is_the_spawned_child():
    for seed in (0, 1, 12345, 2**40):
        for n in (1, 3, 17):
            for trial in range(n):
                child = np.random.SeedSequence(seed).spawn(n)[trial]
                np.testing.assert_array_equal(trial_rng(seed, trial).random(4),
                                              np.random.default_rng(child).random(4))


class TestCdfExperiment:
    def test_deterministic(self):
        cfg = small_config()
        a = sinr_cdf_experiment(cfg)
        b = sinr_cdf_experiment(cfg)
        for m in cfg.methods:
            np.testing.assert_array_equal(a.methods[m].sinr_db, b.methods[m].sinr_db)
            np.testing.assert_array_equal(a.methods[m].trial_power, b.methods[m].trial_power)

    def test_parallel_matches_serial(self):
        cfg = small_config()
        serial = sinr_cdf_experiment(cfg, workers=1)
        parallel = sinr_cdf_experiment(cfg, workers=3)
        for m in cfg.methods:
            np.testing.assert_array_equal(serial.methods[m].sinr_db,
                                          parallel.methods[m].sinr_db)

    def test_cdf_is_sorted_with_expected_count(self):
        cfg = small_config()
        report = sinr_cdf_experiment(cfg)
        for m in cfg.methods:
            r = report.methods[m]
            feasible = sum(1 for s in r.trial_status if s == "Optimal")
            assert r.sinr_db.size == feasible * cfg.n_error_samples * cfg.n_u
            assert np.all(np.diff(r.sinr_db) >= 0)

    def test_zero_uncertainty_is_a_step_at_the_target(self):
        cfg = small_config(delta=0.0, n_error_samples=10)
        report = sinr_cdf_experiment(cfg)
        for m in cfg.methods:
            np.testing.assert_allclose(report.methods[m].sinr_db, 5.0, atol=1e-3)
        np.testing.assert_allclose(report.methods["robust"].sinr_db,
                                   report.methods["nominal"].sinr_db, atol=1e-3)

    def test_robust_protects_and_nominal_does_not(self):
        cfg = small_config(n_channel_trials=6, n_error_samples=150)
        report = sinr_cdf_experiment(cfg)
        assert np.all(report.methods["robust"].sinr_db >= 5.0 - 0.02)
        assert np.mean(report.methods["nominal"].sinr_db < 5.0) > 0.01

    def test_power_audit_against_recomputed_trial(self):
        # every reported power is reproducible from the trial's seed chain
        cfg = small_config()
        report = sinr_cdf_experiment(cfg)
        for trial in range(cfg.n_channel_trials):
            rng = trial_rng(cfg.seed, trial)
            channels = model.generate_channels(cfg.n_u, cfg.n_t, rng)
            nom = design.design_nominal(channels, cfg.qos())
            assert abs(report.methods["nominal"].trial_power[trial]
                       - model.transmit_power(nom.precoder)) <= 1e-9

    def test_mean_robust_power_dominates(self):
        cfg = small_config()
        report = sinr_cdf_experiment(cfg)
        assert (np.nanmean(report.methods["robust"].trial_power)
                >= np.nanmean(report.methods["nominal"].trial_power))

    def test_sinr_samples_reproducible_from_seed_chain(self):
        # rebuild every trial's channel and error draws by hand from the
        # documented seed-spawn scheme; samples must match to the bit
        cfg = small_config(methods=("nominal",), n_channel_trials=3,
                          n_error_samples=25)
        report = sinr_cdf_experiment(cfg)
        recomputed = []
        for trial in range(cfg.n_channel_trials):
            rng = trial_rng(cfg.seed, trial)
            channels = model.generate_channels(cfg.n_u, cfg.n_t, rng)
            res = design.design_nominal(channels, cfg.qos())
            errors = model.sample_error(cfg.n_t, cfg.delta, cfg.error_mode, rng,
                                        shape=(cfg.n_error_samples, cfg.n_u))
            recomputed.append(model.achieved_sinr(
                channels.rows + errors, res.precoder, cfg.sigma).reshape(-1))
        expected = model.linear_to_db(np.sort(np.concatenate(recomputed)))
        np.testing.assert_array_equal(report.methods["nominal"].sinr_db, expected)


class TestSweeps:
    def test_single_point_grid(self):
        cfg = small_config(n_channel_trials=2)
        table = power_vs_gamma_sweep(cfg, [5.0])
        assert len(table) == len(cfg.methods)
        assert {row["method"] for row in table} == set(cfg.methods)

    def test_gamma_monotone_and_dominant(self):
        cfg = small_config(n_channel_trials=6, delta=0.02)
        table = power_vs_gamma_sweep(cfg, [0.0, 3.0, 6.0])
        by_method = {m: [r for r in table if r["method"] == m] for m in cfg.methods}
        for m in cfg.methods:
            powers = [r["mean_power_common"] for r in by_method[m]]
            assert all(np.diff(powers) >= -1e-6)
        for rob, nom in zip(by_method["robust"], by_method["nominal"]):
            assert rob["mean_power_common"] >= nom["mean_power_common"] - 1e-9

    def test_delta_sweep_zero_matches_nominal(self):
        cfg = small_config(n_channel_trials=3)
        table = power_vs_delta_sweep(cfg, [0.0])
        powers = {r["method"]: r["mean_power"] for r in table}
        assert powers["robust"] == pytest.approx(powers["nominal"], rel=1e-6)

    def test_delta_sweep_reports_feasibility_decay(self):
        cfg = small_config(n_channel_trials=4, methods=("robust",))
        table = power_vs_delta_sweep(cfg, [0.01, 0.2])
        rates = [r["feasibility_rate"] for r in table]
        assert rates[0] == 1.0
        assert rates[-1] < 1.0  # far past the feasibility boundary
        assert all(np.isfinite(r["mean_power"]) or r["feasible_trials"] == 0
                   for r in table)

    def test_common_trial_column_is_monotone_in_delta(self):
        cfg = small_config(n_channel_trials=5, methods=("robust",))
        table = power_vs_delta_sweep(cfg, [0.005, 0.01, 0.015])
        powers = [r["mean_power_common"] for r in table]
        assert all(np.diff(powers) >= -1e-6)


class TestDeltaSweepDesigns:
    """A delta sweep asks for the nominal design at every grid point; the
    design functions answer the repeats from memory."""

    GRID = [0.005, 0.01, 0.02, 0.04]

    def test_nominal_solved_once_per_trial(self, solves):
        # the three trials are one chunk: one batch of each trial's nominal
        # request and every trial's robust grid
        cfg = small_config(n_channel_trials=3, seed=77)
        power_vs_delta_sweep(cfg, self.GRID)
        assert [len(batch) for batch in solves] == [cfg.n_channel_trials
                                                    + cfg.n_channel_trials * len(self.GRID)]

    def test_table_matches_direct_solves(self):
        cfg = small_config(n_channel_trials=3, seed=78)
        table = power_vs_delta_sweep(cfg, self.GRID)
        power = {m: np.full((cfg.n_channel_trials, len(self.GRID)), np.nan)
                 for m in cfg.methods}
        for trial in range(cfg.n_channel_trials):
            channels = model.generate_channels(cfg.n_u, cfg.n_t, trial_rng(cfg.seed, trial))
            for g, delta in enumerate(self.GRID):
                unc = UncertaintySpec(delta=[delta] * cfg.n_u, kappa=cfg.kappa)
                for method in cfg.methods:
                    if method == "nominal":
                        program, layout = design.build_nominal(channels, cfg.qos())
                    else:
                        program, layout = design.build_robust(channels, cfg.qos(), unc)
                    sol = conic.solve(program)
                    if sol.status == conic.SolveStatus.OPTIMAL:
                        power[method][trial, g] = model.transmit_power(
                            design.extract_precoder(sol, layout))
        common = np.logical_and.reduce(
            [~np.isnan(p).any(axis=1) for p in power.values()])
        assert common.any() and not common.all()  # both columns are exercised
        expected = []
        for g, delta in enumerate(self.GRID):
            for method in sorted(cfg.methods):
                column = power[method][:, g]
                ok = ~np.isnan(column)
                expected.append({
                    "delta": delta, "method": method,
                    "mean_power": float(np.mean(column[ok])) if ok.any() else float("nan"),
                    "mean_power_common": float(np.mean(column[common])),
                    "trials": cfg.n_channel_trials, "feasible_trials": int(ok.sum()),
                    "feasibility_rate": ok.sum() / cfg.n_channel_trials})
        np.testing.assert_equal(table, expected)


def test_chunk_size_fits_the_byte_budget():
    # dense rows of one cdf trial: 8 (43 x 19 + 193 x 43) bytes at n = 3,
    # 8 (211 x 99 + 1009 x 211) at n = 7, 8 (273 x 129 + 1313 x 273) at n = 8
    def size(n, points=1, **overrides):
        return montecarlo._chunk_size(small_config(n_u=n, n_t=n, **overrides), points)

    assert montecarlo.CHUNK_BYTES == 4_000_000
    assert [size(3), size(7), size(8)] == [54, 2, 1]
    assert size(3, methods=("robust",)) == 4_000_000 // (8 * 193 * 43)
    assert [size(3, points=6), size(8, points=6)] == [9, 1]


class TestChunks:
    """Every report of chunked trials equals, bit for bit, the report of
    the trial-by-trial path (one trial per chunk)."""

    @staticmethod
    def run(monkeypatch, experiment, trials_per_chunk=None):
        with monkeypatch.context() as patch:
            if trials_per_chunk is not None:
                patch.setattr(montecarlo, "_chunk_size", lambda config, points: trials_per_chunk)
            return experiment()

    def assert_cdf_equal(self, chunked, per_trial):
        assert chunked.methods.keys() == per_trial.methods.keys()
        for method, report in chunked.methods.items():
            expected = per_trial.methods[method]
            assert report.trial_status == expected.trial_status
            assert report.trial_power.tobytes() == expected.trial_power.tobytes()
            assert report.sinr_db.tobytes() == expected.sinr_db.tobytes()
            assert report.feasibility_rate == expected.feasibility_rate

    @pytest.mark.parametrize("workers", [1, 2])
    def test_cdf_chunks_end_partway(self, monkeypatch, workers):
        # 7 trials in chunks of 3: the last chunk holds one trial
        cfg = small_config(n_channel_trials=7, n_error_samples=20, delta=0.03, seed=5)
        chunked = self.run(monkeypatch, lambda: sinr_cdf_experiment(cfg, workers), 3)
        per_trial = self.run(monkeypatch, lambda: sinr_cdf_experiment(cfg), 1)
        assert {"Optimal", "PrimalInfeasible"} <= set(chunked.methods["robust"].trial_status)
        self.assert_cdf_equal(chunked, per_trial)

    def test_cdf_at_n8(self, monkeypatch):
        cfg = small_config(n_u=8, n_t=8, n_channel_trials=3, n_error_samples=5,
                           perturbation_sigma="zero", seed=6)
        chunked = self.run(monkeypatch, lambda: sinr_cdf_experiment(cfg), 2)
        per_trial = self.run(monkeypatch, lambda: sinr_cdf_experiment(cfg), 1)
        self.assert_cdf_equal(chunked, per_trial)

    @pytest.mark.parametrize("sweep,grid,workers", [
        (power_vs_gamma_sweep, [0.0, 6.0, 12.0, 18.0], 1),
        (power_vs_delta_sweep, [0.0, 0.01, 0.05, 0.2], 2)])
    def test_sweep_chunks_end_partway(self, monkeypatch, sweep, grid, workers):
        # at the byte budget a chunk holds 13 trials of a 4-point n = 3 grid
        cfg = small_config(n_channel_trials=14, seed=9)
        assert montecarlo._chunk_size(cfg, len(grid)) == 13
        chunked = self.run(monkeypatch, lambda: sweep(cfg, grid, workers))
        per_trial = self.run(monkeypatch, lambda: sweep(cfg, grid), 1)
        # some rows are feasible in no trial, some in all, some in part
        assert {row["feasible_trials"] for row in chunked} > {0, cfg.n_channel_trials}
        assert repr(chunked) == repr(per_trial)


class TestWorstCaseCheck:
    def test_robust_design_meets_target(self):
        rng = np.random.default_rng(12)
        ch = model.generate_channels(3, 3, rng)
        qos = QosSpec.from_db([5.0] * 3, [1.0] * 3)
        res = design.design_robust(ch, qos, UncertaintySpec(delta=[0.015] * 3, kappa=1.0))
        report = worst_case_check(ch, res.precoder, qos, [0.015] * 3, 3000, seed=7)
        assert np.all(report.min_sinr_db >= 5.0 - 0.02)
        for err in report.argmin_errors:
            assert np.linalg.norm(err) <= 0.015 + 1e-12

    def test_zero_precoder_floors_at_db_floor(self):
        ch = model.generate_channels(2, 2, 3)
        qos = QosSpec(gamma=[1.0, 1.0], sigma=[1.0, 1.0])
        report = worst_case_check(ch, Precoder(np.zeros((2, 2))), qos, [0.1, 0.1],
                                  50, seed=0)
        np.testing.assert_array_equal(report.min_sinr_db, model.DB_FLOOR)

    def test_zero_delta_equals_point_evaluation(self):
        rng = np.random.default_rng(4)
        ch = model.generate_channels(2, 2, rng)
        B = Precoder(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        qos = QosSpec(gamma=[1.0, 1.0], sigma=[1.0, 1.0])
        report = worst_case_check(ch, B, qos, [0.0, 0.0], 20, seed=0)
        expected = model.linear_to_db(model.achieved_sinr(ch, B, qos.sigma))
        np.testing.assert_allclose(report.min_sinr_db, expected, rtol=1e-12)

    def test_requires_samples(self):
        ch = model.generate_channels(2, 2, 3)
        qos = QosSpec(gamma=[1.0, 1.0], sigma=[1.0, 1.0])
        with pytest.raises(ValueError):
            worst_case_check(ch, Precoder(np.eye(2, dtype=complex)), qos,
                             [0.1, 0.1], 0, seed=0)

    def test_radius_count_must_match_users(self):
        ch = model.generate_channels(3, 3, 3)
        qos = QosSpec(gamma=[1.0] * 3, sigma=[1.0] * 3)
        precoder = Precoder(np.eye(3, dtype=complex))
        for delta in ([0.1, 0.1], [0.1] * 4):
            with pytest.raises(ValueError):
                worst_case_check(ch, precoder, qos, delta, 10, seed=0)
