"""Command-line front end.

Commands read a flat key-value config file (or a previously written
manifest.json), run seeded designs/experiments, and write CSV tables plus a
run manifest describing exactly how to reproduce them.

Exit codes: 0 success, 1 config/usage error, 2 infeasible design or solver
failure.
"""

from __future__ import annotations

import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import click
import numpy as np

from . import __version__, model, montecarlo
from .conic import SolveStatus
from .model import ChannelSet
from .montecarlo import ExperimentConfig

OUTDIR_ENV = "MISOBEAM_OUTDIR"

CONFIG_KEYS = {
    "n_t": int,
    "n_u": int,
    "gamma_db": "floats",
    "sigma": "floats",
    "delta": "floats",
    "kappa": float,
    "trials": int,
    "error_samples": int,
    "error_mode": str,
    "methods": "strings",
    "seed": int,
    "perturbation_sigma": str,
    "channels": "channels",
}


class ConfigError(click.ClickException):
    exit_code = 1


def _parse_value(key: str, raw, kind):
    try:
        if kind == "floats":
            if isinstance(raw, (list, tuple)):
                return [float(v) for v in raw]
            return [float(v) for v in str(raw).split(",") if v.strip()]
        if kind == "strings":
            if isinstance(raw, (list, tuple)):
                return [str(v) for v in raw]
            return [v.strip() for v in str(raw).split(",") if v.strip()]
        if kind == "channels":
            if isinstance(raw, list):  # manifest round-trip: [[re, im], ...] rows
                return np.array([[complex(re, im) for re, im in row] for row in raw])
            rows = [r for r in str(raw).split(";") if r.strip()]
            return np.array([[complex(v.strip().replace("i", "j"))
                              for v in row.split(",") if v.strip()] for row in rows])
        return kind(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key {key!r}: cannot parse value {raw!r} ({exc})")


def parse_config_text(text: str) -> dict:
    """Parse the flat ``key = value`` format; '#' starts a comment."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        values[key] = _parse_value(key, raw, CONFIG_KEYS[key])
    return values


def _parse_manifest(text: str) -> dict:
    """Parse a JSON config: a manifest.json whose "config" object holds the
    keys, or a bare object of config keys."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    raw = data.get("config", data)
    if not isinstance(raw, dict):
        raise ConfigError(f"manifest 'config' must be an object, got {type(raw).__name__}")
    for key in raw:
        if key not in CONFIG_KEYS:
            raise ConfigError(f"manifest config: unknown key {key!r}")
    return {k: _parse_value(k, v, CONFIG_KEYS[k]) for k, v in raw.items()}


def load_config(path: str) -> tuple[ExperimentConfig, ChannelSet | None]:
    """Load a flat config file or a manifest.json written by an earlier run."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}")
    stripped = text.lstrip()
    if stripped.startswith("{"):
        values = _parse_manifest(text)
    else:
        values = parse_config_text(text)

    channels = None
    rows = values.pop("channels", None)
    if rows is not None:
        channels = ChannelSet(rows)
    try:
        config = ExperimentConfig(
            n_u=values.get("n_u", channels.n_users if channels is not None else 3),
            n_t=values.get("n_t", channels.n_tx if channels is not None else 3),
            gamma_db=values.get("gamma_db", [5.0]),
            sigma=values.get("sigma", [1.0]),
            delta=values.get("delta", [0.0]),
            kappa=values.get("kappa", 1.0),
            n_channel_trials=values.get("trials", 100),
            n_error_samples=values.get("error_samples", 100),
            error_mode=values.get("error_mode", "ball"),
            methods=tuple(values.get("methods", list(montecarlo.METHODS))),
            seed=values.get("seed", 0),
            perturbation_sigma=values.get("perturbation_sigma", "paper"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc))
    if channels is not None and (channels.n_users != config.n_u
                                 or channels.n_tx != config.n_t):
        raise ConfigError(
            f"explicit channels are {channels.n_users}x{channels.n_tx} but config "
            f"says n_u={config.n_u}, n_t={config.n_t}")
    return config, channels


def _config_as_dict(config: ExperimentConfig, channels: ChannelSet | None) -> dict:
    out = {
        "n_u": config.n_u,
        "n_t": config.n_t,
        "gamma_db": list(config.gamma_db),
        "sigma": list(config.sigma),
        "delta": list(config.delta),
        "kappa": config.kappa,
        "trials": config.n_channel_trials,
        "error_samples": config.n_error_samples,
        "error_mode": config.error_mode,
        "methods": list(config.methods),
        "seed": config.seed,
        "perturbation_sigma": config.perturbation_sigma,
    }
    if channels is not None:
        out["channels"] = [[[float(v.real), float(v.imag)] for v in row]
                           for row in channels.rows]
    return out


def _resolve_outdir(out: str | None) -> Path:
    outdir = Path(out or os.environ.get(OUTDIR_ENV, "."))
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir


def _fmt(value) -> str:
    if isinstance(value, float):
        # non-finite means "no data" (e.g. no feasible trial at a grid
        # point); an empty cell keeps every numeric field finite
        return format(value, ".12g") if math.isfinite(value) else ""
    return str(value)


def _write_csv(path: Path, header, rows):
    """Write ``header`` and ``rows`` as the bytes ``csv.writer`` writes for
    the cells formatted by ``_fmt``: comma-separated, CRLF line ends.  The
    cells are numbers and plain identifiers, none of which needs quoting,
    so each row is one join and the file is one write."""
    lines = [",".join(map(_fmt, row)) for row in (header, *rows)]
    with path.open("w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


def _write_manifest(outdir: Path, command: str, config, channels, outputs,
                    started_at: str, extra: dict | None = None) -> Path:
    manifest = {
        "tool": "misobeam",
        "version": __version__,
        "command": command,
        "config": _config_as_dict(config, channels),
        "seed": config.seed,
        "outputs": [str(p) for p in outputs],
        "started_at": started_at,
        "finished_at": datetime.now(timezone.utc).isoformat(),
    }
    if extra:
        manifest.update(extra)
    path = outdir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n")
    return path


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _get_channels(config: ExperimentConfig, channels: ChannelSet | None) -> ChannelSet:
    if channels is not None:
        return channels
    return model.generate_channels(config.n_u, config.n_t, config.seed)


class _Commands(click.Group):
    """Command group whose usage errors exit 1, like config errors; exit
    code 2 is reserved for infeasible designs and solver failures."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            exc.exit_code = 1
            raise


@click.group(cls=_Commands)
@click.version_option(version=__version__)
def main():
    """Minimum-power SINR-constrained precoder design and experiments."""


def _seed_override(config: ExperimentConfig, seed: int | None) -> ExperimentConfig:
    if seed is None:
        return config
    from dataclasses import replace
    return replace(config, seed=seed)


@main.command("design")
@click.argument("config_path", type=str)
@click.option("--method", type=click.Choice(montecarlo.METHODS), default="robust",
              show_default=True, help="Which design to run.")
@click.option("--seed", type=click.IntRange(min=0), default=None,
              help="Override the config seed.")
@click.option("--out", type=str, default=None,
              help=f"Output directory (default: ${OUTDIR_ENV} or '.').")
def cmd_design(config_path, method, seed, out):
    """Design a precoder for one channel instance and write it as CSV.

    Uses explicit channels from the config when given, otherwise draws an
    estimate from the seed.  Writes precoder.csv, summary.csv and
    manifest.json; exits 2 if the design is infeasible or the solve fails.
    """
    started = _now()
    config, channels = load_config(config_path)
    config = _seed_override(config, seed)
    estimates = _get_channels(config, channels)
    qos = config.qos()
    result = montecarlo.run_design(method, config, estimates)

    outdir = _resolve_outdir(out)
    summary_path = outdir / "summary.csv"
    outputs = [summary_path]
    sinr_db = [float("nan")] * config.n_u
    if result.status == SolveStatus.OPTIMAL:
        sinr_db = model.linear_to_db(
            model.achieved_sinr(estimates, result.precoder, qos.sigma)).tolist()
        precoder_path = outdir / "precoder.csv"
        header = []
        for k in range(config.n_u):
            header += [f"re_{k + 1}", f"im_{k + 1}"]
        rows = []
        for i in range(config.n_t):
            row = []
            for k in range(config.n_u):
                row += [result.precoder.matrix[i, k].real, result.precoder.matrix[i, k].imag]
            rows.append(row)
        _write_csv(precoder_path, header, rows)
        outputs.insert(0, precoder_path)

    header = ["method", "status", "power"] + [f"sinr_db_{k + 1}" for k in range(config.n_u)]
    _write_csv(summary_path, header, [[method, result.status.value, result.power] + sinr_db])
    _write_manifest(outdir, "design", config, channels, outputs, started,
                    extra={"method": method})

    if result.status != SolveStatus.OPTIMAL:
        click.echo(f"design did not solve: {result.status.value}", err=True)
        sys.exit(2)
    click.echo(f"power={_fmt(result.power)} status={result.status.value}")


@main.command("cdf")
@click.argument("config_path", type=str)
@click.option("--seed", type=click.IntRange(min=0), default=None,
              help="Override the config seed.")
@click.option("--out", type=str, default=None, help="Output directory.")
@click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True,
              help="Parallel trial workers.")
def cmd_cdf(config_path, seed, out, workers):
    """Empirical CDF of achieved SINR under channel errors (cdf.csv)."""
    started = _now()
    config, channels = load_config(config_path)
    config = _seed_override(config, seed)
    report = montecarlo.sinr_cdf_experiment(config, workers=workers)
    outdir = _resolve_outdir(out)
    rows = []
    for method in config.methods:
        samples = report.methods[method].sinr_db
        n = samples.size
        rows += [[method, v, (i + 1) / n] for i, v in enumerate(samples.tolist())]
    path = outdir / "cdf.csv"
    _write_csv(path, ("method", "sinr_db", "cdf"), rows)
    rate_rows = [[m, report.methods[m].feasibility_rate] for m in config.methods]
    rates_path = outdir / "feasibility.csv"
    _write_csv(rates_path, ("method", "feasibility_rate"), rate_rows)
    _write_manifest(outdir, "cdf", config, channels, [path, rates_path], started)
    click.echo(f"wrote {path}")


def _run_sweep(command, config_path, seed, out, workers, grid_text, axis, columns, runner):
    started = _now()
    config, channels = load_config(config_path)
    config = _seed_override(config, seed)
    try:
        grid = [float(v) for v in grid_text.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --grid: {exc}")
    if not grid:
        raise ConfigError("--grid must contain at least one value")
    for value in grid:  # reject a bad point before any trial runs
        try:
            montecarlo.sweep_point(config, axis, value)
        except ValueError as exc:
            raise ConfigError(f"bad --grid value {value}: {exc}")
    table = runner(config, grid, workers=workers)
    outdir = _resolve_outdir(out)
    path = outdir / f"{command.replace('-', '_')}.csv"
    _write_csv(path, columns, [[row[c] for c in columns] for row in table])
    _write_manifest(outdir, command, config, channels, [path], started,
                    extra={"grid": grid})
    click.echo(f"wrote {path}")


@main.command("sweep-gamma")
@click.argument("config_path", type=str)
@click.option("--grid", default="0,2,4,6,8,10", show_default=True,
              help="Comma-separated SINR targets in dB.")
@click.option("--seed", type=click.IntRange(min=0), default=None,
              help="Override the config seed.")
@click.option("--out", type=str, default=None, help="Output directory.")
@click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True)
def cmd_sweep_gamma(config_path, grid, seed, out, workers):
    """Mean transmit power versus SINR target (sweep_gamma.csv)."""
    _run_sweep("sweep-gamma", config_path, seed, out, workers, grid, "gamma_db",
               montecarlo.GAMMA_SWEEP_COLUMNS, montecarlo.power_vs_gamma_sweep)


@main.command("sweep-delta")
@click.argument("config_path", type=str)
@click.option("--grid", default="0.005,0.01,0.015,0.02,0.025,0.03,0.035,0.04,0.045,0.05",
              show_default=True, help="Comma-separated uncertainty radii.")
@click.option("--seed", type=click.IntRange(min=0), default=None,
              help="Override the config seed.")
@click.option("--out", type=str, default=None, help="Output directory.")
@click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True)
def cmd_sweep_delta(config_path, grid, seed, out, workers):
    """Mean transmit power versus uncertainty size (sweep_delta.csv)."""
    _run_sweep("sweep-delta", config_path, seed, out, workers, grid, "delta",
               montecarlo.DELTA_SWEEP_COLUMNS, montecarlo.power_vs_delta_sweep)


@main.command("verify")
@click.argument("config_path", type=str)
@click.option("--method", type=click.Choice(montecarlo.METHODS), default="robust",
              show_default=True, help="Design to audit.")
@click.option("--samples", type=click.IntRange(min=1), default=None,
              help="Worst-case error samples per user (default: error_samples).")
@click.option("--seed", type=click.IntRange(min=0), default=None,
              help="Override the config seed.")
@click.option("--out", type=str, default=None, help="Output directory.")
def cmd_verify(config_path, method, samples, seed, out):
    """Design a precoder and audit its worst-case SINR by sphere sampling."""
    started = _now()
    config, channels = load_config(config_path)
    config = _seed_override(config, seed)
    estimates = _get_channels(config, channels)
    qos = config.qos()
    result = montecarlo.run_design(method, config, estimates)
    outdir = _resolve_outdir(out)
    if result.status != SolveStatus.OPTIMAL:
        _write_csv(outdir / "verify.csv", ("method", "status"), [[method, result.status.value]])
        _write_manifest(outdir, "verify", config, channels, [outdir / "verify.csv"],
                        started, extra={"method": method})
        click.echo(f"design did not solve: {result.status.value}", err=True)
        sys.exit(2)

    n_samples = samples if samples is not None else config.n_error_samples
    report = montecarlo.worst_case_check(
        estimates, result.precoder, qos, config.delta, n_samples, config.seed)
    header = ["user", "target_sinr_db", "min_sinr_db", "margin_db"]
    header += [f"err_re_{i + 1}" for i in range(config.n_t)]
    header += [f"err_im_{i + 1}" for i in range(config.n_t)]
    rows = []
    for k in range(config.n_u):
        err = report.argmin_errors[k]
        rows.append([k + 1, config.gamma_db[k], report.min_sinr_db[k],
                     report.min_sinr_db[k] - config.gamma_db[k]]
                    + [v.real for v in err] + [v.imag for v in err])
    path = outdir / "verify.csv"
    _write_csv(path, header, rows)
    _write_manifest(outdir, "verify", config, channels, [path], started,
                    extra={"method": method, "samples": n_samples})
    click.echo(f"min margin {_fmt(float(np.min(report.min_sinr_db - np.asarray(config.gamma_db))))} dB")


if __name__ == "__main__":
    main()
