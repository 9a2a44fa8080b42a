"""Config parsing, CSV outputs, manifests, and exit codes."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from misobeam import cli
from misobeam.cli import load_config, main, parse_config_text

SCALAR_CONFIG = """\
# one transmit antenna, one user, 0 dB target on a unit channel
n_t = 1
n_u = 1
gamma_db = 0
sigma = 1
delta = 0
kappa = 1
trials = 2
error_samples = 10
seed = 7
channels = 1+0j
"""

EXPERIMENT_CONFIG = """\
n_t = 3
n_u = 3
gamma_db = 5
sigma = 1
delta = 0.015
kappa = 1
trials = 3
error_samples = 40
error_mode = ball
methods = nominal,robust
seed = 11
"""


@pytest.fixture
def runner():
    return CliRunner()


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestConfigParsing:
    def test_values_and_comments(self):
        values = parse_config_text(SCALAR_CONFIG)
        assert values["n_t"] == 1
        assert values["gamma_db"] == [0.0]
        assert values["channels"].shape == (1, 1)

    def test_per_user_lists(self):
        values = parse_config_text("gamma_db = 3,5,7\n")
        assert values["gamma_db"] == [3.0, 5.0, 7.0]

    def test_unknown_key(self):
        with pytest.raises(Exception, match="unknown key"):
            parse_config_text("antennas = 4\n")

    def test_bad_value(self):
        with pytest.raises(Exception, match="cannot parse"):
            parse_config_text("n_t = three\n")

    def test_channel_rows(self, tmp_path):
        path = write(tmp_path, "c.cfg",
                     "n_t = 2\nn_u = 2\nchannels = 1+0j, 0+1j ; 2-1j, 0.5+0j\n")
        config, channels = load_config(path)
        assert channels.rows.shape == (2, 2)
        assert channels.rows[0, 1] == 1j
        assert channels.rows[1, 0] == 2 - 1j

    def test_channel_shape_mismatch(self, tmp_path):
        path = write(tmp_path, "c.cfg", "n_t = 3\nn_u = 1\nchannels = 1+0j\n")
        with pytest.raises(Exception, match="explicit channels"):
            load_config(path)

    def test_malformed_manifest_json_exits_one(self, runner, tmp_path):
        path = write(tmp_path, "manifest.json", '{"n_u": 3, ')
        with pytest.raises(cli.ConfigError, match="not valid JSON"):
            load_config(path)
        result = runner.invoke(main, ["design", path])
        assert result.exit_code == 1
        assert "not valid JSON" in result.output

    def test_manifest_config_must_be_an_object(self, tmp_path):
        path = write(tmp_path, "manifest.json", '{"config": [3, 3]}')
        with pytest.raises(cli.ConfigError, match="must be an object"):
            load_config(path)

    @pytest.mark.parametrize("text", ['{"config": {"n_u": 3, "nt": 3}}',
                                      '{"n_u": 3, "nt": 3}'])
    def test_manifest_unknown_key(self, tmp_path, text):
        path = write(tmp_path, "manifest.json", text)
        with pytest.raises(cli.ConfigError, match="unknown key 'nt'"):
            load_config(path)

    def test_written_manifest_reloads_with_channels(self, tmp_path):
        path = write(tmp_path, "c.cfg",
                     "n_t = 2\nn_u = 2\nseed = 4\nchannels = 1+0j, 0+1j ; 2-1j, 0.5+0j\n")
        config, channels = load_config(path)
        manifest = cli._write_manifest(tmp_path, "design", config, channels, [], cli._now())
        reloaded, reloaded_channels = load_config(str(manifest))
        np.testing.assert_array_equal(reloaded_channels.rows, channels.rows)
        assert cli._config_as_dict(reloaded, reloaded_channels) == \
            cli._config_as_dict(config, channels)


class TestWorkersOption:
    @pytest.mark.parametrize("command", ["cdf", "sweep-gamma", "sweep-delta"])
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_nonpositive_workers_rejected_before_any_trial(
            self, runner, tmp_path, monkeypatch, command, workers):
        def no_trials(*args, **kwargs):
            raise AssertionError("an experiment ran despite a bad --workers")

        for name in ("sinr_cdf_experiment", "power_vs_gamma_sweep", "power_vs_delta_sweep"):
            monkeypatch.setattr(cli.montecarlo, name, no_trials)
        cfg = write(tmp_path, "e.cfg", EXPERIMENT_CONFIG)
        result = runner.invoke(main, [command, cfg, "--workers", workers,
                                      "--out", str(tmp_path / "o")])
        assert result.exit_code == 1, result.output
        assert "--workers" in result.output
        assert not (tmp_path / "o").exists()


class TestBadNumbers:
    """Out-of-range numbers exit 1 with a message, before any work runs."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work ran despite a bad number")

        for name in ("sinr_cdf_experiment", "power_vs_gamma_sweep",
                     "power_vs_delta_sweep", "run_design"):
            monkeypatch.setattr(cli.montecarlo, name, refuse)

    def test_verify_zero_samples(self, runner, tmp_path, no_work):
        cfg = write(tmp_path, "e.cfg", EXPERIMENT_CONFIG)
        result = runner.invoke(main, ["verify", cfg, "--samples", "0"])
        assert result.exit_code == 1, result.output
        assert "--samples" in result.output

    @pytest.mark.parametrize("command", ["design", "cdf", "sweep-gamma", "sweep-delta",
                                         "verify"])
    def test_negative_seed_option(self, runner, tmp_path, no_work, command):
        cfg = write(tmp_path, "e.cfg", EXPERIMENT_CONFIG)
        result = runner.invoke(main, [command, cfg, "--seed", "-1"])
        assert result.exit_code == 1, result.output
        assert "--seed" in result.output

    def test_negative_seed_in_config(self, runner, tmp_path, no_work):
        cfg = write(tmp_path, "e.cfg", EXPERIMENT_CONFIG.replace("seed = 11", "seed = -5"))
        result = runner.invoke(main, ["design", cfg])
        assert result.exit_code == 1, result.output
        assert "seed must be nonnegative" in result.output

    @pytest.mark.parametrize("command,grid", [("sweep-delta", "-0.1,0.01"),
                                              ("sweep-gamma", "nan")])
    def test_bad_grid_point(self, runner, tmp_path, no_work, command, grid):
        cfg = write(tmp_path, "e.cfg", EXPERIMENT_CONFIG)
        result = runner.invoke(main, [command, cfg, "--grid", grid,
                                      "--out", str(tmp_path / "o")])
        assert result.exit_code == 1, result.output
        assert "bad --grid value" in result.output
        assert not (tmp_path / "o").exists()


class TestDesignCommand:
    def test_scalar_power_one(self, runner, tmp_path):
        cfg = write(tmp_path, "s.cfg", SCALAR_CONFIG)
        out = tmp_path / "run"
        result = runner.invoke(main, ["design", cfg, "--method", "nominal",
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        rows = read_csv(out / "summary.csv")
        assert rows[0] == ["method", "status", "power", "sinr_db_1"]
        assert float(rows[1][2]) == pytest.approx(1.0, rel=1e-6)
        precoder = read_csv(out / "precoder.csv")
        assert precoder[0] == ["re_1", "im_1"]

    def test_robust_with_zero_delta_matches_nominal(self, runner, tmp_path):
        cfg = write(tmp_path, "s.cfg", SCALAR_CONFIG)
        out_n, out_r = tmp_path / "n", tmp_path / "r"
        assert runner.invoke(main, ["design", cfg, "--method", "nominal",
                                    "--out", str(out_n)]).exit_code == 0
        assert runner.invoke(main, ["design", cfg, "--method", "robust",
                                    "--out", str(out_r)]).exit_code == 0
        power_n = float(read_csv(out_n / "summary.csv")[1][2])
        power_r = float(read_csv(out_r / "summary.csv")[1][2])
        assert power_r == pytest.approx(power_n, rel=1e-6)

    def test_missing_config_exits_one(self, runner, tmp_path):
        result = runner.invoke(main, ["design", str(tmp_path / "nope.cfg")])
        assert result.exit_code == 1

    def test_infeasible_exits_two_with_status(self, runner, tmp_path):
        cfg = write(tmp_path, "inf.cfg",
                    "n_t = 1\nn_u = 1\ngamma_db = 6\nsigma = 1\ndelta = 0.2\n"
                    "kappa = 1\nseed = 1\nchannels = 1+0j\n")
        out = tmp_path / "run"
        result = runner.invoke(main, ["design", cfg, "--method", "robust",
                                      "--out", str(out)])
        assert result.exit_code == 2
        rows = read_csv(out / "summary.csv")
        assert rows[1][1] == "PrimalInfeasible"
        assert "PrimalInfeasible" in result.output

    def test_outdir_env_var(self, runner, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path / "envout"))
        cfg = write(tmp_path, "s.cfg", SCALAR_CONFIG)
        assert runner.invoke(main, ["design", cfg, "--method", "nominal"]).exit_code == 0
        assert (tmp_path / "envout" / "summary.csv").exists()


class TestExperimentCommands:
    def test_cdf_columns_and_finiteness(self, runner, tmp_path):
        cfg = write(tmp_path, "e.cfg", EXPERIMENT_CONFIG)
        out = tmp_path / "cdf"
        result = runner.invoke(main, ["cdf", cfg, "--out", str(out)])
        assert result.exit_code == 0, result.output
        rows = read_csv(out / "cdf.csv")
        assert rows[0] == ["method", "sinr_db", "cdf"]
        values = np.array([[float(r[1]), float(r[2])] for r in rows[1:]])
        assert np.all(np.isfinite(values))
        assert values[:, 1].max() <= 1.0 and values[:, 1].min() > 0.0

    def test_sweep_gamma_row_count(self, runner, tmp_path):
        cfg = write(tmp_path, "e.cfg", EXPERIMENT_CONFIG.replace("trials = 3", "trials = 2"))
        out = tmp_path / "sg"
        result = runner.invoke(main, ["sweep-gamma", cfg, "--grid", "0,2,4,6,8,10",
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        rows = read_csv(out / "sweep_gamma.csv")
        assert len(rows) == 1 + 6 * 2  # header + 6 grid points x 2 methods

    def test_manifest_rerun_is_byte_identical(self, runner, tmp_path):
        cfg = write(tmp_path, "e.cfg", EXPERIMENT_CONFIG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert runner.invoke(main, ["cdf", cfg, "--out", str(out1)]).exit_code == 0
        manifest = out1 / "manifest.json"
        assert runner.invoke(main, ["cdf", str(manifest), "--out", str(out2)]).exit_code == 0
        assert (out1 / "cdf.csv").read_bytes() == (out2 / "cdf.csv").read_bytes()

    def test_manifest_contents(self, runner, tmp_path):
        cfg = write(tmp_path, "e.cfg", EXPERIMENT_CONFIG)
        out = tmp_path / "m"
        runner.invoke(main, ["sweep-delta", cfg, "--grid", "0.01", "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tool"] == "misobeam"
        assert manifest["command"] == "sweep-delta"
        assert manifest["seed"] == 11
        assert manifest["config"]["gamma_db"] == [5.0, 5.0, 5.0]
        assert Path(manifest["outputs"][0]).name == "sweep_delta.csv"

    def test_verify_reports_margin(self, runner, tmp_path):
        cfg = write(tmp_path, "e.cfg", EXPERIMENT_CONFIG)
        out = tmp_path / "v"
        result = runner.invoke(main, ["verify", cfg, "--samples", "300",
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        rows = read_csv(out / "verify.csv")
        assert rows[0][:4] == ["user", "target_sinr_db", "min_sinr_db", "margin_db"]
        margins = [float(r[3]) for r in rows[1:]]
        assert all(m >= -0.02 for m in margins)

    def test_single_header_row_everywhere(self, runner, tmp_path):
        cfg = write(tmp_path, "e.cfg", EXPERIMENT_CONFIG)
        out = tmp_path / "h"
        runner.invoke(main, ["cdf", cfg, "--out", str(out)])
        for name in ("cdf.csv", "feasibility.csv"):
            rows = read_csv(out / name)
            assert not any(rows[0][0] in r for r in rows[1:])

    def test_infeasible_sweep_cells_are_empty_not_nan(self, runner, tmp_path):
        cfg = write(tmp_path, "e.cfg",
                    EXPERIMENT_CONFIG.replace("trials = 3", "trials = 2")
                                     .replace("methods = nominal,robust",
                                              "methods = robust"))
        out = tmp_path / "inf"
        result = runner.invoke(main, ["sweep-delta", cfg, "--grid", "0.01,0.8",
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        rows = read_csv(out / "sweep_delta.csv")
        header = rows[0]
        by_delta = {float(r[0]): dict(zip(header, r)) for r in rows[1:]}
        assert by_delta[0.8]["feasibility_rate"] == "0"
        assert by_delta[0.8]["mean_power"] == ""
        assert float(by_delta[0.01]["mean_power"]) > 0


def test_csv_bytes_match_csv_writer(tmp_path):
    # the one-join-per-row writer against csv.writer on the same _fmt cells
    header = ("method", "sinr_db", "cdf")
    rows = [["nominal", float("nan"), 0.5], ["robust", float("inf"), -0.0],
            ["robust", float("-inf"), 1 / 3], ["nominal", np.float64(-0.0), 1e-300],
            [3, np.float64(np.nan), np.float64(12.345678901234567)],
            ["robust", 2**60, -1.5e300]]
    path = tmp_path / "out.csv"
    cli._write_csv(path, header, rows)
    with (tmp_path / "ref.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([cli._fmt(v) for v in row])
    assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert path.read_bytes().count(b"\r\n") == len(rows) + 1
