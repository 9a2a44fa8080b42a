"""Command-line front end.

Commands read a flat key-value config file (or a previously written
manifest.json), run seeded designs/experiments, and write CSV tables plus a
run manifest describing exactly how to reproduce them.

Exit codes: 0 success, 1 config/usage error, 2 infeasible design or solver
failure.
"""

from __future__ import annotations

import ctypes
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
# a user who sets one of these chooses the command's BLAS thread count
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# (package, runtime thread setter) of the OpenBLAS builds that the numpy and
# scipy wheels bundle in <package>.libs
_BLAS_SETTERS = (("numpy", "scipy_openblas_set_num_threads64_"),
                 ("scipy", "scipy_openblas_set_num_threads"))

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
# the command options a manifest records, so that a rerun from it reads them
MANIFEST_OPTIONS = ("method", "samples", "grid")
# sweep command -> (config field it sweeps, default --grid)
SWEEPS = {
    "sweep-gamma": ("gamma_db", "0,2,4,6,8,10"),
    "sweep-delta": ("delta", "0.005,0.01,0.015,0.02,0.025,0.03,0.035,0.04,0.045,0.05"),
}


class ConfigError(click.ClickException):
    exit_code = 1


def _complex(text: str) -> complex:
    """A channel entry such as 1-2i: a trailing i is the imaginary unit,
    so inf and nan keep their spelling."""
    return complex(text[:-1] + "j" if text.endswith("i") else text)


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
            return np.array([[_complex(v.strip()) for v in row.split(",") if v.strip()]
                             for row in rows])
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


def _parse_manifest(text: str) -> tuple[dict, dict]:
    """Parse a JSON config: a manifest.json whose "config" object holds the
    keys, or a bare object of config keys.  Returns the config values and
    the manifest's command and options (empty for a bare object)."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    raw = data.get("config", data)
    if not isinstance(raw, dict):
        raise ConfigError(f"manifest 'config' must be an object, got {type(raw).__name__}")
    for key, value in raw.items():
        if key not in CONFIG_KEYS:
            raise ConfigError(f"manifest config: unknown key {key!r}")
        kind = CONFIG_KEYS[key][1]
        # int() would truncate 2.9 and accept true; float() takes true and "7"
        if kind is int and type(value) is not int:
            raise ConfigError(f"config key {key!r}: expected an integer, got {value!r}")
        if kind is float and not _is_number(value):
            raise ConfigError(f"config key {key!r}: expected a number, got {value!r}")
        if kind == "floats" and not (_is_number(value) or (
                isinstance(value, list) and all(map(_is_number, value)))):
            raise ConfigError(
                f"config key {key!r}: expected a number or a list of numbers, got {value!r}")
    recorded = {}
    if "config" in data:
        recorded = {k: data[k] for k in ("command", *MANIFEST_OPTIONS) if k in data}
    return {k: _parse_value(k, v) for k, v in raw.items()}, recorded


def _is_number(value) -> bool:
    """A JSON number: an int or a float, and not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def load_config(path: str) -> tuple[ExperimentConfig, ChannelSet | None, dict]:
    """Load a flat config file or a manifest.json written by an earlier run.

    Returns the config, the explicit channels (None if the config gives
    none) and, for a manifest, its command and recorded options (else an
    empty dict)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}")
    if text.lstrip().startswith("{"):
        values, recorded = _parse_manifest(text)
    else:
        values, recorded = parse_config_text(text), {}

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
    return config, channels, recorded


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


def _column(cells) -> tuple[str, list]:
    """The ``%`` format and the values of one column of cells (an array's
    cells are its ``tolist()`` elements): ``%.12g`` over the cells
    themselves when each is a finite float, else ``%s`` over ``_fmt``'s
    strings.  Either way a cell reads as ``_fmt`` writes it."""
    if isinstance(cells, np.ndarray):
        finite = cells.dtype.kind == "f" and bool(np.isfinite(cells).all())
        cells = cells.tolist()
    else:
        finite = all(isinstance(v, float) and math.isfinite(v) for v in cells)
    return ("%.12g", cells) if finite else ("%s", [_fmt(v) for v in cells])


def _write_csv(path: Path, header, *blocks):
    """Write a table as the bytes ``csv.writer`` writes for ``header`` and
    the rows of ``blocks``, with every cell formatted by ``_fmt``:
    comma-separated, CRLF line ends.

    A block gives one column per header cell, each a list or array of
    cells or one value that fills the block's rows; a block of single
    values is one row.  Each block is formatted by one ``%`` operation
    over its cells in row order, and the file is one write.  The cells are
    numbers and plain identifiers, none of which needs quoting, and every
    table has at least two columns (``csv.writer`` quotes a lone empty
    cell)."""
    parts = [",".join(map(_fmt, header)) + "\r\n"]
    for block in blocks:
        specs, columns = [], []
        for cells in block:
            if isinstance(cells, (list, tuple, np.ndarray)):
                spec, values = _column(cells)
                columns.append(values)
            else:  # a constant column is part of the row format
                spec = _fmt(cells).replace("%", "%%")
            specs.append(spec)
        n_rows, width = (len(columns[0]), len(columns)) if columns else (1, 0)
        flat = [None] * (n_rows * width)
        for j, values in enumerate(columns):
            flat[j::width] = values
        parts.append((",".join(specs) + "\r\n") * n_rows % tuple(flat))
    with path.open("w", newline="") as fh:
        fh.write("".join(parts))


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
    options: dict

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
           **options) -> _Run:
    """The first step of every command: load the config, apply ``--seed``,
    resolve the command's ``options`` and create the output directory.

    ``options`` holds the command-line values of the command's options
    among MANIFEST_OPTIONS, None where the command line omits one.  An
    omitted option takes the value that a manifest of the same command
    recorded, so that the manifest reruns its command, and else its
    default.  Every check runs before any work, so bad input exits 1 at
    once instead of after the run."""
    started_at = _now()
    config, channels, recorded = load_config(config_path)
    if seed is not None:
        config = replace(config, seed=seed)
    if channels is not None and command not in CHANNEL_COMMANDS:
        raise ConfigError(f"config key 'channels' applies to {' and '.join(CHANNEL_COMMANDS)}"
                          f" only; {command} draws its channels from the seed")
    if recorded.get("command") == command:
        options = {k: recorded.get(k) if v is None else v for k, v in options.items()}
    if "method" in options:
        options["method"] = options["method"] or "robust"
        if options["method"] not in montecarlo.METHODS:
            raise ConfigError(f"bad method {options['method']!r}: must be one of "
                              f"{', '.join(montecarlo.METHODS)}")
    if "samples" in options:
        if options["samples"] is None:
            options["samples"] = config.n_error_samples
        if type(options["samples"]) is not int or options["samples"] < 1:
            raise ConfigError(f"bad samples {options['samples']!r}: must be an integer >= 1")
    if "grid" in options:
        options["grid"] = _grid(config, command, options["grid"])
    outdir = Path(out or os.environ.get(OUTDIR_ENV, "."))
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use output directory {str(outdir)!r}: {exc}")
    return _Run(command, started_at, config, channels, outdir, options)


def _grid(config: ExperimentConfig, command: str, grid) -> list[float]:
    """A sweep's grid points, from ``--grid`` text or a manifest's list (the
    command's default when None), each checked on the sweep's axis."""
    axis, default = SWEEPS[command]
    if grid is None:
        grid = default
    try:
        values = grid.split(",") if isinstance(grid, str) else grid
        points = [float(v) for v in values if not isinstance(v, str) or v.strip()]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad --grid: {exc}")
    if not points:
        raise ConfigError("--grid must contain at least one value")
    for value in points:
        try:
            montecarlo.sweep_point(config, axis, value)
        except ValueError as exc:
            raise ConfigError(f"bad --grid value {value}: {exc}")
    return points


def _design_or_exit(run: _Run, path: Path, header):
    """Design the run's method for its explicit channels, else for channels
    drawn from the seed; return (channels, result).  A design that does not
    solve leaves its status in ``path`` (the other cells of ``header``
    empty) and the manifest, and exits 2."""
    config, estimates, method = run.config, run.channels, run.options["method"]
    if estimates is None:
        estimates = model.generate_channels(config.n_u, config.n_t, config.seed)
    result = montecarlo.run_design(method, config, estimates)
    if result.status != SolveStatus.OPTIMAL:
        _write_csv(path, header,
                   [method, result.status.value] + [math.nan] * (len(header) - 2))
        run.finish([path], method=method)
        click.echo(f"design did not solve: {result.status.value}", err=True)
        sys.exit(2)
    return estimates, result


def _pin_blas() -> None:
    """Run this process on one BLAS thread, unless one of
    _BLAS_THREAD_VARIABLES is set.  Threaded BLAS sums in another order, so
    the thread count changes the last digits of written numbers, and at
    these sizes threads cost more time than they save.  The variables act
    only before numpy loads, so the pin calls the runtime setters of the
    bundled OpenBLAS libraries; where a library or setter is missing,
    nothing changes."""
    if any(name in os.environ for name in _BLAS_THREAD_VARIABLES):
        return
    for package, setter in _BLAS_SETTERS:
        libs = Path(sys.modules[package].__file__).parent.with_name(package + ".libs")
        for path in sorted(libs.glob("libscipy_openblas*")):
            try:
                set_threads = getattr(ctypes.CDLL(str(path)), setter)
            except (OSError, AttributeError):
                continue
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            set_threads(1)


class _Commands(click.Group):
    """Command group whose usage errors exit 1, like config errors; exit
    code 2 is reserved for infeasible designs and solver failures.

    Run from a command line (``misobeam`` or ``python -m misobeam``, which
    pass no argument list), it first pins one BLAS thread (:func:`_pin_blas`);
    an in-process call with its own argument list keeps the caller's
    setting."""

    def main(self, args=None, **extra):
        if args is None:
            _pin_blas()
        return super().main(args, **extra)

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


_METHOD_HELP = " [default: the manifest's, else robust]"


@main.command("design")
@click.argument("config_path", type=str)
@click.option("--method", type=click.Choice(montecarlo.METHODS), default=None,
              help="Which design to run." + _METHOD_HELP)
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
    run = _start("design", config_path, seed, out, method=method)
    n_u = run.config.n_u
    summary_path = run.outdir / "summary.csv"
    header = ["method", "status", "power"] + [f"sinr_db_{k + 1}" for k in range(n_u)]
    estimates, result = _design_or_exit(run, summary_path, header)
    B = result.precoder.matrix
    sinr_db = model.linear_to_db(model.achieved_sinr(estimates, result.precoder,
                                                     run.config.sigma)).tolist()
    _write_csv(summary_path, header,
               [run.options["method"], result.status.value, result.power, *sinr_db])
    precoder_path = run.outdir / "precoder.csv"
    _write_csv(precoder_path, [f"{part}_{k + 1}" for k in range(n_u) for part in ("re", "im")],
               [part[:, k] for k in range(n_u) for part in (B.real, B.imag)])
    run.finish([precoder_path, summary_path], **run.options)
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
    blocks = []
    for method in methods:
        samples = report.methods[method].sinr_db
        # (i + 1) / n for sample i, as one array
        blocks.append([method, samples, np.arange(1, samples.size + 1) / samples.size])
    path = run.outdir / "cdf.csv"
    _write_csv(path, ("method", "sinr_db", "cdf"), *blocks)
    rates_path = run.outdir / "feasibility.csv"
    _write_csv(rates_path, ("method", "feasibility_rate"),
               [list(methods), [report.methods[m].feasibility_rate for m in methods]])
    run.finish([path, rates_path])
    click.echo(f"wrote {path}")


def _run_sweep(command, config_path, grid, seed, out, workers, columns, runner):
    run = _start(command, config_path, seed, out, grid=grid)
    table = runner(run.config, run.options["grid"], workers=workers)
    path = run.outdir / f"{command.replace('-', '_')}.csv"
    _write_csv(path, columns, [[row[c] for row in table] for c in columns])
    run.finish([path], **run.options)
    click.echo(f"wrote {path}")


@main.command("sweep-gamma")
@click.argument("config_path", type=str)
@click.option("--grid", default=None,
              help="Comma-separated SINR targets in dB [default: the manifest's, "
                   f"else {SWEEPS['sweep-gamma'][1]}].")
@click.option("--seed", type=click.IntRange(min=0), default=None,
              help="Override the config seed.")
@click.option("--out", type=str, default=None, help="Output directory.")
@click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True)
def cmd_sweep_gamma(config_path, grid, seed, out, workers):
    """Mean transmit power versus SINR target (sweep_gamma.csv)."""
    _run_sweep("sweep-gamma", config_path, grid, seed, out, workers,
               montecarlo.GAMMA_SWEEP_COLUMNS, montecarlo.power_vs_gamma_sweep)


@main.command("sweep-delta")
@click.argument("config_path", type=str)
@click.option("--grid", default=None,
              help="Comma-separated uncertainty radii [default: the manifest's, "
                   f"else {SWEEPS['sweep-delta'][1]}].")
@click.option("--seed", type=click.IntRange(min=0), default=None,
              help="Override the config seed.")
@click.option("--out", type=str, default=None, help="Output directory.")
@click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True)
def cmd_sweep_delta(config_path, grid, seed, out, workers):
    """Mean transmit power versus uncertainty size (sweep_delta.csv)."""
    _run_sweep("sweep-delta", config_path, grid, seed, out, workers,
               montecarlo.DELTA_SWEEP_COLUMNS, montecarlo.power_vs_delta_sweep)


@main.command("verify")
@click.argument("config_path", type=str)
@click.option("--method", type=click.Choice(montecarlo.METHODS), default=None,
              help="Design to audit." + _METHOD_HELP)
@click.option("--samples", type=click.IntRange(min=1), default=None,
              help="Worst-case error samples per user "
                   "[default: the manifest's, else error_samples].")
@click.option("--seed", type=click.IntRange(min=0), default=None,
              help="Override the config seed.")
@click.option("--out", type=str, default=None, help="Output directory.")
def cmd_verify(config_path, method, samples, seed, out):
    """Design a precoder and audit its worst-case SINR by sphere sampling."""
    run = _start("verify", config_path, seed, out, method=method, samples=samples)
    config = run.config
    path = run.outdir / "verify.csv"
    estimates, result = _design_or_exit(run, path, ("method", "status"))
    report = montecarlo.worst_case_check(estimates, result.precoder, config.qos(),
                                         config.delta, run.options["samples"], config.seed)
    header = ["user", "target_sinr_db", "min_sinr_db", "margin_db"]
    header += [f"err_re_{i + 1}" for i in range(config.n_t)]
    header += [f"err_im_{i + 1}" for i in range(config.n_t)]
    margin = report.min_sinr_db - np.asarray(config.gamma_db)
    errors = np.array(report.argmin_errors)  # users x antennas
    _write_csv(path, header, [list(range(1, config.n_u + 1)), list(config.gamma_db),
                              report.min_sinr_db, margin, *errors.real.T, *errors.imag.T])
    run.finish([path], **run.options)
    click.echo(f"min margin {_fmt(float(margin.min()))} dB")


if __name__ == "__main__":
    main()
