"""Config parsing, CSV outputs, manifests, and exit codes."""

import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from misobeam import __version__, cli
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
        config, channels, recorded = load_config(path)
        assert recorded == {}
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

    @pytest.mark.parametrize("name,text,message", [
        ("c.cfg", "channels = nan,1;1,1\n", "non-finite entry in channel rows"),
        ("c.cfg", "channels = ;\n", "nonempty 2-D"),
        ("manifest.json", '{"channels": []}', "nonempty 2-D"),
    ])
    def test_bad_channels_exit_one(self, runner, tmp_path, name, text, message):
        path = write(tmp_path, name, text)
        with pytest.raises(cli.ConfigError, match=message):
            load_config(path)
        result = runner.invoke(main, ["design", path])
        assert result.exit_code == 1
        assert message in result.output
        assert "Traceback" not in result.output

    def test_written_manifest_reloads_with_channels(self, tmp_path):
        path = write(tmp_path, "c.cfg",
                     "n_t = 2\nn_u = 2\nseed = 4\nchannels = 1+0j, 0+1j ; 2-1j, 0.5+0j\n")
        config, channels, _ = load_config(path)
        manifest = cli._start("design", path, None, str(tmp_path)).finish([])
        reloaded, reloaded_channels, recorded = load_config(str(manifest))
        assert recorded == {"command": "design"}
        np.testing.assert_array_equal(reloaded_channels.rows, channels.rows)
        assert cli._config_as_dict(reloaded, reloaded_channels) == \
            cli._config_as_dict(config, channels)


    @pytest.mark.parametrize("key,value", [("n_u", "2.9"), ("n_t", "true"),
                                           ("seed", "1.5"), ("trials", "2e1")])
    def test_integer_keys_take_integers_only(self, runner, tmp_path, key, value):
        # a JSON number used to be truncated: 2.9 -> 2, true -> 1, 1.5 -> 1
        flat = write(tmp_path, "c.cfg", f"{key} = {value}\n")
        manifest = write(tmp_path, "manifest.json",
                         json.dumps({"config": {key: json.loads(value)}}))
        for path in (flat, manifest):
            with pytest.raises(cli.ConfigError, match=f"config key '{key}'"):
                load_config(path)
            result = runner.invoke(main, ["design", path, "--out", str(tmp_path / "o")])
            assert result.exit_code == 1, result.output
            assert f"config key '{key}'" in result.output
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key", ["kappa", "sigma", "delta", "gamma_db"])
    @pytest.mark.parametrize("value", [True, "0.5", [True], ["0.5"], [0.5, False]])
    def test_float_keys_take_json_numbers_only(self, runner, tmp_path, key, value):
        # float() used to read true as 1.0 and "7" as 7.0
        path = write(tmp_path, "manifest.json", json.dumps({"config": {key: value}}))
        with pytest.raises(cli.ConfigError, match=f"config key '{key}'"):
            load_config(path)
        result = runner.invoke(main, ["design", path, "--out", str(tmp_path / "o")])
        assert result.exit_code == 1, result.output
        assert f"config key '{key}'" in result.output
        assert not (tmp_path / "o").exists()

    def test_json_numbers_load_for_float_keys(self, tmp_path):
        path = write(tmp_path, "manifest.json", json.dumps({"config": {
            "kappa": 1, "sigma": 2, "delta": [0.01, 0.02, 0], "gamma_db": [5, 6.5, 7]}}))
        config, _, _ = load_config(path)
        assert (config.kappa, config.sigma, config.delta, config.gamma_db) == (
            1.0, (2.0, 2.0, 2.0), (0.01, 0.02, 0.0), (5.0, 6.5, 7.0))

    def test_json_integers_load(self, tmp_path):
        path = write(tmp_path, "manifest.json",
                     '{"config": {"n_u": 2, "n_t": 4, "trials": 3, "seed": 0}}')
        config, _, _ = load_config(path)
        assert (config.n_u, config.n_t, config.n_channel_trials, config.seed) == (2, 4, 3, 0)


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


@pytest.fixture
def no_work(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("work ran despite a bad input")

    for name in ("sinr_cdf_experiment", "power_vs_gamma_sweep",
                 "power_vs_delta_sweep", "run_design"):
        monkeypatch.setattr(cli.montecarlo, name, refuse)


COMMANDS = ["design", "cdf", "sweep-gamma", "sweep-delta", "verify"]


class TestBadNumbers:
    """Out-of-range numbers exit 1 with a message, before any work runs."""

    def test_verify_zero_samples(self, runner, tmp_path, no_work):
        cfg = write(tmp_path, "e.cfg", EXPERIMENT_CONFIG)
        result = runner.invoke(main, ["verify", cfg, "--samples", "0"])
        assert result.exit_code == 1, result.output
        assert "--samples" in result.output

    @pytest.mark.parametrize("command", COMMANDS)
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


class TestConfigScope:
    """Config values a command would silently misuse exit 1 with a message,
    before any work runs."""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_repeated_method(self, runner, tmp_path, no_work, command):
        # a repeated method used to write each of its rows twice
        cfg = write(tmp_path, "e.cfg", EXPERIMENT_CONFIG.replace(
            "methods = nominal,robust", "methods = robust,robust"))
        result = runner.invoke(main, [command, cfg, "--out", str(tmp_path / "o")])
        assert result.exit_code == 1, result.output
        assert "methods must not repeat" in result.output
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["cdf", "sweep-gamma", "sweep-delta"])
    def test_channels_outside_design_and_verify(self, runner, tmp_path, no_work, command):
        # these commands draw fresh channels per trial; they used to ignore
        # explicit ones while the manifest still recorded them
        cfg = write(tmp_path, "e.cfg", EXPERIMENT_CONFIG.replace(
            "n_t = 3\nn_u = 3\n", "n_t = 1\nn_u = 1\nchannels = 1+0j\n"))
        result = runner.invoke(main, [command, cfg, "--out", str(tmp_path / "o")])
        assert result.exit_code == 1, result.output
        assert "'channels' applies to design and verify only" in result.output
        assert not (tmp_path / "o").exists()


class TestUnusableFiles:
    """An unreadable config or an unusable --out exits 1 with a message,
    before any work runs."""

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("below_file", [False, True])
    def test_out_is_a_file(self, runner, tmp_path, no_work, command, below_file):
        cfg = write(tmp_path, "e.cfg", EXPERIMENT_CONFIG)
        out = tmp_path / "taken"
        out.write_text("not a directory\n")
        if below_file:
            out = out / "sub"
        result = runner.invoke(main, [command, cfg, "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert "cannot use output directory" in result.output
        assert "Traceback" not in result.output

    def test_config_not_utf8(self, runner, tmp_path, no_work):
        path = tmp_path / "binary.cfg"
        path.write_bytes(b"\xff\xfe")
        with pytest.raises(cli.ConfigError, match="cannot read config"):
            load_config(str(path))
        result = runner.invoke(main, ["design", str(path)])
        assert result.exit_code == 1, result.output
        assert "cannot read config" in result.output
        assert "Traceback" not in result.output


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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_sinr_exits_two_with_numerical_failure(self, runner, tmp_path):
        # scaled back to sigma = 1e-170 the SINR is 0 / 0; such a design
        # once printed status=Optimal with power 0 and exited 0
        cfg = write(tmp_path, "tiny.cfg", "n_t = 3\nn_u = 3\ngamma_db = 5\n"
                    "sigma = 1e-170\ndelta = 0.015\nkappa = 1\nseed = 7\n")
        out = tmp_path / "run"
        result = runner.invoke(main, ["design", cfg, "--method", "nominal",
                                      "--out", str(out)])
        assert result.exit_code == 2
        assert read_csv(out / "summary.csv")[1][1] == "NumericalFailure"

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

    RERUNS = [
        ("design", EXPERIMENT_CONFIG, ["--method", "nominal"]),
        ("design", SCALAR_CONFIG, ["--method", "robust"]),
        ("cdf", EXPERIMENT_CONFIG, []),
        ("sweep-gamma", EXPERIMENT_CONFIG, ["--grid", "0,6"]),
        ("sweep-delta", EXPERIMENT_CONFIG, ["--grid", "0.005,0.3"]),
        ("verify", EXPERIMENT_CONFIG, ["--samples", "50"]),
        ("verify", SCALAR_CONFIG, ["--method", "nominal"]),
    ]

    def test_manifest_rerun_is_byte_identical(self, runner, tmp_path):
        # every command, with the options given again and without them: the
        # manifest replaces the config, explicit channels included, and
        # supplies the options its command recorded
        for i, (command, config, options) in enumerate(self.RERUNS):
            cfg = write(tmp_path, f"{i}.cfg", config.replace("trials = 3", "trials = 2"))
            outs = [tmp_path / f"{i}{tag}" for tag in "abc"]
            first = runner.invoke(main, [command, cfg, "--out", str(outs[0]), *options])
            assert first.exit_code == 0, first.output
            for out, rerun_options in ((outs[1], options), (outs[2], [])):
                again = runner.invoke(main, [command, str(outs[0] / "manifest.json"),
                                             "--out", str(out), *rerun_options])
                assert again.exit_code == 0, again.output
            manifests = [json.loads((out / "manifest.json").read_text()) for out in outs]
            assert manifests[0]["outputs"]
            for name in (Path(p).name for p in manifests[0]["outputs"]):
                for out in outs[1:]:
                    assert (outs[0] / name).read_bytes() == (out / name).read_bytes(), \
                        (command, name, out.name)
            for manifest in manifests:
                for key in ("outputs", "started_at", "finished_at"):
                    del manifest[key]
            for manifest in manifests[1:]:
                assert list(manifests[0].items()) == list(manifest.items())

    def test_command_line_option_beats_manifest(self, tmp_path, no_work):
        cfg = write(tmp_path, "e.cfg", EXPERIMENT_CONFIG)
        manifest = cli._start("verify", cfg, None, str(tmp_path / "a"), method="nominal",
                              samples=50).finish([], method="nominal", samples=50)
        recorded = cli._start("verify", str(manifest), None, str(tmp_path / "b"),
                              method=None, samples=None)
        assert recorded.options == {"method": "nominal", "samples": 50}
        given = cli._start("verify", str(manifest), None, str(tmp_path / "c"),
                           method="robust", samples=7)
        assert given.options == {"method": "robust", "samples": 7}

    def test_options_of_another_command_are_not_read(self, tmp_path, no_work):
        cfg = write(tmp_path, "e.cfg", EXPERIMENT_CONFIG)
        manifest = cli._start("sweep-gamma", cfg, None, str(tmp_path / "a"),
                              grid="0,6").finish([], grid=[0.0, 6.0])
        run = cli._start("sweep-delta", str(manifest), None, str(tmp_path / "b"), grid=None)
        assert run.options["grid"] == [float(v) for v in cli.SWEEPS["sweep-delta"][1].split(",")]

    @pytest.mark.parametrize("command,entry,message", [
        ("design", {"method": "best"}, "bad method 'best'"),
        ("verify", {"samples": 0}, "bad samples 0"),
        ("verify", {"samples": 2.5}, "bad samples 2.5"),
        ("sweep-delta", {"grid": [-0.1]}, "bad --grid value -0.1"),
        ("sweep-gamma", {"grid": "x"}, "bad --grid"),
        ("sweep-gamma", {"grid": []}, "at least one value"),
    ])
    def test_bad_recorded_option_exits_one(self, runner, tmp_path, no_work,
                                           command, entry, message):
        cfg = write(tmp_path, "e.cfg", EXPERIMENT_CONFIG)
        manifest = cli._start(command, cfg, None, str(tmp_path / "a")).finish([], **entry)
        result = runner.invoke(main, [command, str(manifest), "--out", str(tmp_path / "b")])
        assert result.exit_code == 1, result.output
        assert message in result.output
        assert not (tmp_path / "b").exists()

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


def csv_writer_bytes(path, header, rows):
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([cli._fmt(v) for v in row])
    return path.read_bytes()


def block_rows(block):
    """The rows a block of columns stands for: an array's cells are its
    tolist() elements, and a single value fills every row."""
    columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in block]
    sequences = [c for c in columns if isinstance(c, (list, tuple))]
    n_rows = len(sequences[0]) if sequences else 1
    return [[c[i] if isinstance(c, (list, tuple)) else c for c in columns]
            for i in range(n_rows)]


def test_csv_bytes_match_csv_writer(tmp_path):
    # the one-format-per-block writer against csv.writer on the same _fmt
    # cells, given as columns, as arrays, and as one-row blocks
    header = ("method", "sinr_db", "cdf")
    rows = [["nominal", float("nan"), 0.5], ["robust", float("inf"), -0.0],
            ["robust", float("-inf"), 1 / 3], ["nominal", np.float64(-0.0), 1e-300],
            [3, np.float64(np.nan), np.float64(12.345678901234567)],
            ["robust", 2**60, -1.5e300]]
    reference = csv_writer_bytes(tmp_path / "ref.csv", header, rows)
    assert reference.count(b"\r\n") == len(rows) + 1
    columns = [list(c) for c in zip(*rows)]
    for blocks in ([columns], [[columns[0], columns[1], np.array(columns[2])]],
                   [[c[:2] for c in columns], [c[2:] for c in columns]], rows):
        path = tmp_path / "out.csv"
        cli._write_csv(path, header, *blocks)
        assert path.read_bytes() == reference
    # a finite float column takes the %.12g path, a constant the row format
    axis = np.arange(1, 6001) / 6000
    samples = np.random.default_rng(3).normal(size=6000) * 10.0 ** np.arange(-3, 3).repeat(1000)
    path = tmp_path / "cdf.csv"
    cli._write_csv(path, header, ["robust%", samples, axis], ["nominal", samples[:0], axis[:0]])
    assert path.read_bytes() == csv_writer_bytes(
        tmp_path / "ref.csv", header, [["robust%", v, (i + 1) / 6000]
                                       for i, v in enumerate(samples.tolist())])


IDENTIFIER = st.text("abcXYZ019_%.+-", max_size=8)  # no cell needs quoting
CELLS = st.one_of(
    IDENTIFIER,
    st.booleans(),
    st.integers(-2**70, 2**70),
    st.floats(),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
)


@st.composite
def blocks(draw, width):
    n_rows = draw(st.integers(0, 12))
    floats = st.one_of(st.floats(), st.sampled_from([-0.0, math.nan, math.inf, -math.inf]))
    columns = st.one_of(
        CELLS,
        st.lists(CELLS, min_size=n_rows, max_size=n_rows),
        st.lists(floats, min_size=n_rows, max_size=n_rows),
        st.lists(floats, min_size=n_rows, max_size=n_rows).map(np.array),
        st.lists(st.integers(-2**63, 2**63 - 1), min_size=n_rows, max_size=n_rows)
        .map(lambda v: np.array(v, dtype=np.int64)),
        st.lists(IDENTIFIER, min_size=n_rows, max_size=n_rows),
    )
    block = draw(st.lists(columns, min_size=width, max_size=width))
    if n_rows == 0 and not any(isinstance(c, (list, np.ndarray)) for c in block):
        block[0] = []  # an all-constant block is one row, not zero
    return block


@st.composite
def tables(draw):
    width = draw(st.integers(2, 5))
    header = draw(st.lists(IDENTIFIER.filter(bool), min_size=width, max_size=width))
    return header, draw(st.lists(blocks(width), max_size=4))


@settings(max_examples=100, deadline=None)
@given(tables())
def test_any_table_matches_csv_writer(tmp_path_factory, table):
    header, table_blocks = table
    tmp = tmp_path_factory.mktemp("table")
    cli._write_csv(tmp / "out.csv", header, *table_blocks)
    rows = [row for block in table_blocks for row in block_rows(block)]
    assert (tmp / "out.csv").read_bytes() == csv_writer_bytes(tmp / "ref.csv", header, rows)


def test_readme_lists_every_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = readme.split("Config keys:", 1)[1].split(".", 1)[0]
    assert re.findall(r"`(\w+)`", listed) == list(cli.CONFIG_KEYS)


def test_python_m_misobeam_runs_the_cli():
    # a source checkout runs the CLI without installing, as the bench does
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    result = subprocess.run([sys.executable, "-m", "misobeam", "--version"],
                            capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().endswith(f"version {__version__}")
