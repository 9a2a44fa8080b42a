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
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

import click
import numpy as np

from . import __version__, model, montecarlo
from .conic import SolveStatus
from .model import ChannelSet
from .montecarlo import ExperimentConfig

OUTDIR_ENV = "MISOBEAM_OUTDIR"

# config key -> (ExperimentConfig field, value kind), in manifest order;
# the explicit channel rows are no config field
CONFIG_KEYS = {
    "n_u": ("n_u", int),
    "n_t": ("n_t", int),
    "gamma_db": ("gamma_db", "floats"),
    "sigma": ("sigma", "floats"),
    "delta": ("delta", "floats"),
    "kappa": ("kappa", float),
    "trials": ("n_channel_trials", int),
    "error_samples": ("n_error_samples", int),
    "error_mode": ("error_mode", str),
    "methods": ("methods", "strings"),
    "seed": ("seed", int),
    "perturbation_sigma": ("perturbation_sigma", str),
    "channels": (None, "channels"),
}
# values of the fields ExperimentConfig requires, when a config omits them;
# n_u and n_t default to the explicit channels' shape, else to 3
REQUIRED_DEFAULTS = {"gamma_db": [5.0], "sigma": [1.0], "delta": [0.0]}
# the commands that design for one channel instance, and so read `channels`
CHANNEL_COMMANDS = ("design", "verify")


class ConfigError(click.ClickException):
    exit_code = 1


def _parse_value(key: str, raw):
    kind = CONFIG_KEYS[key][1]
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
        values[key] = _parse_value(key, raw)
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
    return {k: _parse_value(k, v) for k, v in raw.items()}


def load_config(path: str) -> tuple[ExperimentConfig, ChannelSet | None]:
    """Load a flat config file or a manifest.json written by an earlier run."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}")
    if text.lstrip().startswith("{"):
        values = _parse_manifest(text)
    else:
        values = parse_config_text(text)

    rows = values.pop("channels", None)
    try:
        channels = None if rows is None else ChannelSet(rows)
        fields = dict(REQUIRED_DEFAULTS, n_u=3, n_t=3)
        if channels is not None:
            fields.update(n_u=channels.n_users, n_t=channels.n_tx)
        fields.update((CONFIG_KEYS[k][0], v) for k, v in values.items())
        config = ExperimentConfig(**fields)
    except ValueError as exc:
        raise ConfigError(str(exc))
    if channels is not None and (channels.n_users != config.n_u
                                 or channels.n_tx != config.n_t):
        raise ConfigError(
            f"explicit channels are {channels.n_users}x{channels.n_tx} but config "
            f"says n_u={config.n_u}, n_t={config.n_t}")
    return config, channels


def _config_as_dict(config: ExperimentConfig, channels: ChannelSet | None) -> dict:
    out = {}
    for key, (name, kind) in CONFIG_KEYS.items():
        if name is not None:
            value = getattr(config, name)
            out[key] = list(value) if kind in ("floats", "strings") else value
    if channels is not None:
        out["channels"] = [[[float(v.real), float(v.imag)] for v in row]
                           for row in channels.rows]
    return out


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


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


@dataclass(frozen=True)
class _Run:
    """One command's resolved inputs, from ``_start``."""

    command: str
    started_at: str
    config: ExperimentConfig
    channels: ChannelSet | None
    outdir: Path
    grid: list[float] | None

    def finish(self, outputs, **extra) -> Path:
        """Write manifest.json: feeding it back in place of the config
        reruns the command; ``extra`` holds the command's options."""
        manifest = {
            "tool": "misobeam",
            "version": __version__,
            "command": self.command,
            "config": _config_as_dict(self.config, self.channels),
            "seed": self.config.seed,
            "outputs": [str(p) for p in outputs],
            "started_at": self.started_at,
            "finished_at": _now(),
            **extra,
        }
        path = self.outdir / "manifest.json"
        path.write_text(json.dumps(manifest, indent=2) + "\n")
        return path


def _start(command: str, config_path: str, seed: int | None, out: str | None,
           axis: str | None = None, grid_text: str | None = None) -> _Run:
    """The first step of every command: load the config, apply ``--seed``,
    check a sweep's ``--grid`` on ``axis``, and create the output
    directory.  Every check runs before any work, so bad input exits 1 at
    once instead of after the run."""
    started_at = _now()
    config, channels = load_config(config_path)
    if seed is not None:
        config = replace(config, seed=seed)
    if channels is not None and command not in CHANNEL_COMMANDS:
        raise ConfigError(f"config key 'channels' applies to {' and '.join(CHANNEL_COMMANDS)}"
                          f" only; {command} draws its channels from the seed")
    grid = None
    if axis is not None:
        try:
            grid = [float(v) for v in grid_text.split(",") if v.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad --grid: {exc}")
        if not grid:
            raise ConfigError("--grid must contain at least one value")
        for value in grid:
            try:
                montecarlo.sweep_point(config, axis, value)
            except ValueError as exc:
                raise ConfigError(f"bad --grid value {value}: {exc}")
    outdir = Path(out or os.environ.get(OUTDIR_ENV, "."))
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use output directory {str(outdir)!r}: {exc}")
    return _Run(command, started_at, config, channels, outdir, grid)


def _design_or_exit(run: _Run, method: str, path: Path, header):
    """Design ``method`` for the run's explicit channels, else for channels
    drawn from the seed; return (channels, result).  A design that does not
    solve leaves its status in ``path`` (the other cells of ``header``
    empty) and the manifest, and exits 2."""
    config, estimates = run.config, run.channels
    if estimates is None:
        estimates = model.generate_channels(config.n_u, config.n_t, config.seed)
    result = montecarlo.run_design(method, config, estimates)
    if result.status != SolveStatus.OPTIMAL:
        _write_csv(path, header,
                   [[method, result.status.value] + [math.nan] * (len(header) - 2)])
        run.finish([path], method=method)
        click.echo(f"design did not solve: {result.status.value}", err=True)
        sys.exit(2)
    return estimates, result


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
    run = _start("design", config_path, seed, out)
    n_u = run.config.n_u
    summary_path = run.outdir / "summary.csv"
    header = ["method", "status", "power"] + [f"sinr_db_{k + 1}" for k in range(n_u)]
    estimates, result = _design_or_exit(run, method, summary_path, header)
    B = result.precoder.matrix
    sinr_db = model.linear_to_db(model.achieved_sinr(estimates, result.precoder,
                                                     run.config.sigma)).tolist()
    _write_csv(summary_path, header, [[method, result.status.value, result.power] + sinr_db])
    precoder_path = run.outdir / "precoder.csv"
    _write_csv(precoder_path, [f"{part}_{k + 1}" for k in range(n_u) for part in ("re", "im")],
               np.stack([B.real, B.imag], axis=-1).reshape(B.shape[0], -1).tolist())
    run.finish([precoder_path, summary_path], method=method)
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
    run = _start("cdf", config_path, seed, out)
    methods = run.config.methods
    report = montecarlo.sinr_cdf_experiment(run.config, workers=workers)
    rows = []
    for method in methods:
        samples = report.methods[method].sinr_db
        n = samples.size
        rows += [[method, v, (i + 1) / n] for i, v in enumerate(samples.tolist())]
    path = run.outdir / "cdf.csv"
    _write_csv(path, ("method", "sinr_db", "cdf"), rows)
    rates_path = run.outdir / "feasibility.csv"
    _write_csv(rates_path, ("method", "feasibility_rate"),
               [[m, report.methods[m].feasibility_rate] for m in methods])
    run.finish([path, rates_path])
    click.echo(f"wrote {path}")


def _run_sweep(command, config_path, seed, out, workers, grid_text, axis, columns, runner):
    run = _start(command, config_path, seed, out, axis, grid_text)
    table = runner(run.config, run.grid, workers=workers)
    path = run.outdir / f"{command.replace('-', '_')}.csv"
    _write_csv(path, columns, [[row[c] for c in columns] for row in table])
    run.finish([path], grid=run.grid)
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
    run = _start("verify", config_path, seed, out)
    config = run.config
    path = run.outdir / "verify.csv"
    estimates, result = _design_or_exit(run, method, path, ("method", "status"))
    n_samples = samples if samples is not None else config.n_error_samples
    report = montecarlo.worst_case_check(
        estimates, result.precoder, config.qos(), config.delta, n_samples, config.seed)
    header = ["user", "target_sinr_db", "min_sinr_db", "margin_db"]
    header += [f"err_re_{i + 1}" for i in range(config.n_t)]
    header += [f"err_im_{i + 1}" for i in range(config.n_t)]
    rows = []
    for k in range(config.n_u):
        err = report.argmin_errors[k]
        rows.append([k + 1, config.gamma_db[k], report.min_sinr_db[k],
                     report.min_sinr_db[k] - config.gamma_db[k]]
                    + [v.real for v in err] + [v.imag for v in err])
    _write_csv(path, header, rows)
    run.finish([path], method=method, samples=n_samples)
    click.echo(f"min margin {_fmt(float(np.min(report.min_sinr_db - np.asarray(config.gamma_db))))} dB")


if __name__ == "__main__":
    main()
