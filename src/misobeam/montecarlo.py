"""Monte-Carlo experiment harness.

Reproduces the experiment family around the two designs: the achieved-SINR
CDF under random channel errors, transmit-power sweeps against the SINR
target and against the uncertainty size, and a sampling-based worst-case
robustness audit.

Reproducibility contract: every experiment consumes a single integer seed.
Trial i draws from a Generator seeded by the i-th spawn of
numpy.random.SeedSequence(seed), so results are bit-identical across runs
and across serial/parallel execution; aggregation is ordered by trial index.
Within a trial the draw order is fixed (channels first, then all error
samples in one batched ``model.sample_error`` call of shape
(samples, n_u, n_t)) and does not depend on which methods are enabled, so
both methods are evaluated against identical errors.

Designs go through :func:`run_design`, the one place that maps a method
name to its design function; SINR goes through ``model.achieved_sinr``.

Trials run in chunks of consecutive trials.  A chunk draws each trial's
channels from the trial's own Generator, hands every method's requests for
every trial (and, in a sweep, every grid point) to one
``design.design_batch`` call as one flat list of (method, request) pairs,
which solves them together (one batched interior point for all methods,
each design bit for bit as alone) and remembers the list, and then builds
each trial's results through per-trial :func:`run_design` calls that the
memory answers; the trial's error samples come afterwards from the same
Generator.  A chunk holds the most trials whose dense constraint rows fit
CHUNK_BYTES, so small programs are solved many trials at a time and an
n_t = n_u = 8 program one trial at a time; ``workers`` maps chunks, not
trials, over processes.  Chunking changes no result: every report is bit
for bit the one trial-by-trial designs give.  In a delta sweep the nominal
request is the same at every point (it does not read delta), so the
nominal program is solved once per trial.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import design, model
from .conic import SolveStatus
from .design import METHODS, PERTURBATION_SIGMA_MODES, UncertaintySpec
from .model import ChannelSet, Precoder, QosSpec

ERROR_MODES = ("boundary", "ball")


def _per_user(value, n_u: int, name: str) -> tuple[float, ...]:
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if arr.shape == (1,):
        arr = np.repeat(arr, n_u)
    if arr.shape != (n_u,):
        raise ValueError(f"{name} must be scalar or length {n_u}")
    return tuple(float(v) for v in arr)


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully-resolved settings for one experiment run."""

    n_u: int
    n_t: int
    gamma_db: tuple[float, ...]
    sigma: tuple[float, ...]
    delta: tuple[float, ...]
    kappa: float = 1.0
    n_channel_trials: int = 100
    n_error_samples: int = 100
    error_mode: str = "ball"
    methods: tuple[str, ...] = METHODS
    seed: int = 0
    perturbation_sigma: str = "paper"

    def __post_init__(self):
        if self.n_u < 1 or self.n_t < 1:
            raise ValueError("n_u and n_t must be at least 1")
        if self.n_channel_trials < 1 or self.n_error_samples < 1:
            raise ValueError("trial and sample counts must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.error_mode not in ERROR_MODES:
            raise ValueError(f"error_mode must be one of {ERROR_MODES}")
        if self.perturbation_sigma not in PERTURBATION_SIGMA_MODES:
            raise ValueError(f"perturbation_sigma must be one of {PERTURBATION_SIGMA_MODES}")
        methods = tuple(self.methods)
        if not methods or any(m not in METHODS for m in methods):
            raise ValueError(f"methods must be a nonempty subset of {METHODS}")
        if len(set(methods)) != len(methods):
            raise ValueError(f"methods must not repeat, got {','.join(methods)}")
        object.__setattr__(self, "methods", methods)
        object.__setattr__(self, "gamma_db", _per_user(self.gamma_db, self.n_u, "gamma_db"))
        object.__setattr__(self, "sigma", _per_user(self.sigma, self.n_u, "sigma"))
        object.__setattr__(self, "delta", _per_user(self.delta, self.n_u, "delta"))
        # delegate range checks to the underlying specs
        self.qos()
        self.uncertainty()

    def qos(self) -> QosSpec:
        return QosSpec.from_db(self.gamma_db, self.sigma)

    def uncertainty(self) -> UncertaintySpec:
        return UncertaintySpec(delta=self.delta, kappa=self.kappa)


@dataclass(frozen=True)
class MethodReport:
    """Per-method aggregate of a CDF experiment."""

    sinr_db: np.ndarray          # sorted achieved-SINR samples, dB
    trial_power: np.ndarray      # transmit power per trial (nan if infeasible)
    trial_status: tuple[str, ...]
    feasibility_rate: float


@dataclass(frozen=True)
class SimulationReport:
    config: ExperimentConfig
    methods: dict[str, MethodReport]


@dataclass(frozen=True)
class WorstCaseReport:
    min_sinr_db: np.ndarray      # per user
    argmin_errors: tuple[np.ndarray, ...]


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """The Generator used by trial ``trial`` of an experiment: the
    ``trial``-th child of ``SeedSequence(seed)``, the one
    ``SeedSequence(seed).spawn(n)[trial]`` returns for any n > trial."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(trial,)))


def _design_request(method: str, config: ExperimentConfig, channels: ChannelSet) -> tuple:
    """The arguments of the ``method`` design for ``channels`` under
    ``config``'s targets, noise, radii and perturbation mode."""
    if method == "nominal":
        return channels, config.qos()
    return channels, config.qos(), config.uncertainty(), config.perturbation_sigma


def run_design(method: str, config: ExperimentConfig,
               channels: ChannelSet) -> design.DesignResult:
    """The ``method`` design of :func:`_design_request`.  The design
    functions are looked up on the design module at call time, so a caller
    that swaps them (for tracing) sees every call."""
    request = _design_request(method, config, channels)
    if method == "nominal":
        return design.design_nominal(*request)
    return design.design_robust(*request)


# bytes of dense constraint rows one chunk of trials may hold.  A chunk of
# two cdf trials ran 1.18x as fast as two solo trials at n_t = n_u = 6
# (1.03 MB a trial), 1.09x at n = 7 (1.87 MB) and 1.04x at n = 8 (3.15 MB),
# so n = 8 keeps one trial a chunk and n = 7 gets two
CHUNK_BYTES = 4_000_000


def _chunk_size(config: ExperimentConfig, n_points: int) -> int:
    """Trials per chunk when each trial designs every method at ``n_points``
    configs: the most whose dense constraint rows fit CHUNK_BYTES, at
    least one."""
    trial_bytes = n_points * sum(
        8 * rows * cols for rows, cols in
        (design.program_shape(method, config.n_t, config.n_u) for method in config.methods))
    return max(1, CHUNK_BYTES // trial_bytes)


def _chunk_designs(config: ExperimentConfig, points, trials: range):
    """(generator, channels, designs) of each trial in ``trials``; designs
    holds one {method: result} per config in ``points``.

    Each trial draws its channels from its own :func:`trial_rng`, which it
    returns so that later draws continue the trial's stream.  Every
    method's requests for every trial and point go, method by method, to
    one ``design.design_batch`` call, whose memory then answers the
    per-trial :func:`run_design` calls, point by point and method by
    method within a point."""
    drawn = []
    for trial in trials:
        rng = trial_rng(config.seed, trial)
        drawn.append((rng, model.generate_channels(config.n_u, config.n_t, rng)))
    design.design_batch([(method, _design_request(method, point, channels))
                         for method in config.methods
                         for _, channels in drawn for point in points])
    return [(rng, channels, [{method: run_design(method, point, channels)
                              for method in config.methods} for point in points])
            for rng, channels in drawn]


def _run_chunks(step, config: ExperimentConfig, n_points: int, workers: int) -> list:
    """``step(trials)`` over consecutive chunks of trials, in trial order;
    ``step`` is a partial over a module-level function, so it pickles."""
    size = _chunk_size(config, n_points)
    chunks = [range(first, min(first + size, config.n_channel_trials))
              for first in range(0, config.n_channel_trials, size)]
    workers = min(workers, len(chunks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(step, chunks))
    else:
        parts = [step(chunk) for chunk in chunks]
    return [row for part in parts for row in part]


def _cdf_chunk(config: ExperimentConfig, trials: range):
    out = []
    for rng, channels, (results,) in _chunk_designs(config, [config], trials):
        true_rows = channels.rows + model.sample_error(
            config.n_t, config.delta, config.error_mode, rng,
            shape=(config.n_error_samples, config.n_u))
        row = {}
        for method, res in results.items():
            if res.status == SolveStatus.OPTIMAL:
                sinr = model.achieved_sinr(true_rows, res.precoder, config.sigma)
                row[method] = (res.status.value, res.power, sinr.reshape(-1))
            else:
                row[method] = (res.status.value, np.nan, np.zeros(0))
        out.append(row)
    return out


def sinr_cdf_experiment(config: ExperimentConfig, workers: int = 1) -> SimulationReport:
    """Empirical CDF of achieved SINR under per-user channel errors.

    Each trial designs from fresh channel estimates and evaluates every
    enabled method on the same error draws; infeasible trials are counted
    in the feasibility rate and contribute no SINR samples.
    """
    raw = _run_chunks(partial(_cdf_chunk, config), config, 1, workers)
    methods = {}
    for method in config.methods:
        statuses = tuple(r[method][0] for r in raw)
        power = np.array([r[method][1] for r in raw])
        samples = [r[method][2] for r in raw]
        sinr_db = model.linear_to_db(np.sort(np.concatenate(samples)))
        feasible = sum(1 for s in statuses if s == SolveStatus.OPTIMAL.value)
        methods[method] = MethodReport(
            sinr_db=sinr_db,
            trial_power=power,
            trial_status=statuses,
            feasibility_rate=feasible / config.n_channel_trials,
        )
    return SimulationReport(config=config, methods=methods)


GAMMA_SWEEP_COLUMNS = ("gamma_db", "method", "mean_power", "mean_power_common",
                       "trials", "feasible_trials", "feasibility_rate")
DELTA_SWEEP_COLUMNS = ("delta", "method", "mean_power", "mean_power_common",
                       "trials", "feasible_trials", "feasibility_rate")


def sweep_point(config: ExperimentConfig, axis: str, value: float) -> ExperimentConfig:
    """The config of one sweep grid point: ``value`` for every user on
    ``axis`` ("gamma_db" or "delta").  Raises ValueError for a value the
    config rejects."""
    return replace(config, **{axis: _per_user(value, config.n_u, axis)})


def _sweep_chunk(config: ExperimentConfig, axis: str, grid, trials: range):
    """Per trial of ``trials``, one {method: (status, power)} per grid
    point: a single channel draw is reused for every grid point (common
    random numbers), so per-trial monotonicity in the swept parameter is
    exact rather than statistical."""
    points = [sweep_point(config, axis, value) for value in grid]
    return [[{m: (r.status.value, r.power) for m, r in results.items()}
             for results in per_point]
            for _, _, per_point in _chunk_designs(config, points, trials)]


def _sweep(config: ExperimentConfig, axis: str, grid, workers: int = 1):
    grid = [float(g) for g in grid]
    raw = _run_chunks(partial(_sweep_chunk, config, axis, grid), config, len(grid), workers)
    # mean_power averages the trials feasible at each point, so the curve
    # mixes different trial subsets near the feasibility boundary; the
    # mean_power_common column restricts to trials feasible for every method
    # at every grid point, where per-trial monotonicity and robust-vs-nominal
    # dominance carry over to the averages exactly.
    ok = {method: np.array([[r[gi][method][0] == SolveStatus.OPTIMAL.value
                             for gi in range(len(grid))] for r in raw])
          for method in config.methods}
    common = np.logical_and.reduce([o.all(axis=1) for o in ok.values()])
    table = []
    for method in config.methods:
        for gi, value in enumerate(grid):
            powers = np.array([r[gi][method][1] for r in raw])
            feasible = int(ok[method][:, gi].sum())
            table.append({
                axis: value,
                "method": method,
                "mean_power": (float(np.mean(powers[ok[method][:, gi]]))
                               if feasible else float("nan")),
                "mean_power_common": (float(np.mean(powers[common]))
                                      if common.any() else float("nan")),
                "trials": config.n_channel_trials,
                "feasible_trials": feasible,
                "feasibility_rate": feasible / config.n_channel_trials,
            })
    table.sort(key=lambda row: (row[axis], row["method"]))
    return table


def power_vs_gamma_sweep(config: ExperimentConfig, gamma_grid_db, workers: int = 1):
    """Average optimal power per method for each SINR target on the grid."""
    return _sweep(config, "gamma_db", gamma_grid_db, workers)


def power_vs_delta_sweep(config: ExperimentConfig, delta_grid, workers: int = 1):
    """Average optimal power per method for each uncertainty radius on the
    grid; the feasibility-rate column exposes where the robust design stops
    being feasible."""
    return _sweep(config, "delta", delta_grid, workers)


def worst_case_check(estimates: ChannelSet, precoder: Precoder, qos: QosSpec,
                     delta, n_samples: int, seed) -> WorstCaseReport:
    """Sampling audit of worst-case SINR inside each user's uncertainty sphere.

    Errors are drawn on the sphere boundary (where worst cases of a norm
    constraint concentrate) plus the zero error; returns the per-user
    minimum achieved SINR and the minimizing errors.  User k's SINR depends
    only on row k of the true channels, so each draw perturbs every row at
    once and the per-user minimum is taken over the draws.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    n_u, n_t = estimates.n_users, estimates.n_tx
    delta = _per_user(delta, n_u, "delta")
    errors = np.zeros((n_samples + 1, n_u, n_t), dtype=complex)  # last: zero error
    errors[:n_samples] = model.sample_error(n_t, delta, "boundary", seed,
                                            shape=(n_samples, n_u))
    sinr = model.achieved_sinr(estimates.rows + errors, precoder, qos.sigma)
    idx, users = np.argmin(sinr, axis=0), np.arange(n_u)
    return WorstCaseReport(
        min_sinr_db=model.linear_to_db(sinr[idx, users]),
        argmin_errors=tuple(errors[idx, users]),
    )
