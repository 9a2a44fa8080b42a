"""Compile precoder designs into standard-form cone programs.

Two designs are provided, both minimizing total transmit power subject to
per-user SINR floors:

* the nominal design, which trusts the channel estimates exactly, and
* the robust design, which protects the SINR constraints against every
  channel error inside a per-user sphere of radius kappa * delta_k by a
  structure-preserving robust counterpart: each user's constraint gains an
  aggregate protection level y_k fed by per-coordinate perturbation bounds
  t_{k,i}, one pair of cones per real channel coordinate, so the robust
  program is still a second-order cone program.

One builder assembles both programs in real variables: the complex
precoder B is represented by its stacked real and imaginary parts, and the
rotation freedom of each column is used to make h_k b_k real at the
optimum.  The robust program is the nominal one with y_k added to each SINR
cone and the perturbation and aggregation cones appended per user.

The robust counterpart is compiled in an exact compact form.  The paper's
perturbation pair ||[row_i(B_bar), sigma_k]|| <= t_{k,i} +- a_k B_bar[i, k]
repeats the precoder row row_i(B_bar) for every user and both signs, and
rows j and j + n_t of B_bar both have the norm of antenna row B[j, :].
So each antenna j gets one variable rho_j with ||B[j, :]|| <= rho_j, and
each perturbation cone becomes the 3-dim ||[rho_{i mod n_t}, sigma_k]|| <=
t_{k,i} +- a_k B_bar[i, k].  That norm grows with rho, so the two forms
admit the same (B, t, y) (Lobo, Vandenberghe, Boyd & Lebret 1998); at
n_t = n_u = 8 the program shrinks from 5017 x 265 to 1313 x 273.

``design_nominal`` and ``design_robust`` solve in the unit noise scale:
they build the program for sigma / s with s = max_k sigma_k and scale the
solution back by s.  Both programs, in both perturbation modes, are
homogeneous of degree 1 in (B, tau, y, t, rho, sigma), so this is exact,
and it keeps the solver's data near 1 whatever unit the caller measures
noise in; at s = 1 nothing is scaled.  Channels and radii keep the
caller's unit.  A design reports Optimal only if its precoder meets every
SINR target at the estimates within the relative tolerance SINR_TOL (a
NaN SINR meets none); otherwise it reports NumericalFailure.

``design_batch`` builds, solves, rescales and checks one list of
(method, request) pairs: the programs of every method go to one
``conic.solve_batch`` call, which solves each one bit for bit as alone,
and a single program goes to ``conic.solve``.  ``design_nominal`` and
``design_robust`` are ``design_batch`` of one pair.

One memory holds the requests and results of the last list that solved
anything, and answers any of them.  The key holds every input the result
depends on, as the caller gave it: the channel rows (shape and bytes), the
bytes of gamma and sigma and, for the robust design, the bytes of delta,
kappa as a float64 (the program reads only kappa * delta) and the
perturbation mode, so a nominal and a robust key never match.  Build and
solve are deterministic functions of these, so a hit returns what a fresh
solve would return, bit for bit; inputs and results are frozen dataclasses
over read-only arrays, so the shared result cannot change under a caller.
An experiment hands every method's requests for a chunk of trials (every
trial, and in a sweep every grid point) to one ``design_batch`` call
first, so its per-trial design calls are all answered from memory: the
whole chunk is one batched solve, and the nominal request that a delta
sweep repeats at every point is solved once per trial.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import conic, model
from .conic import ConeProgram, SecondOrder, Solution, SolveStatus
from .model import ChannelSet, Precoder, QosSpec

METHODS = ("nominal", "robust")
PERTURBATION_SIGMA_MODES = ("paper", "zero")
# a design reports Optimal only if its precoder meets every SINR target at
# the estimates within this relative tolerance; otherwise NumericalFailure
SINR_TOL = 1e-6


@dataclass(frozen=True)
class UncertaintySpec:
    """Per-user uncertainty radii and the protection relaxation factor.

    kappa in [0, 1] scales the protected radius to kappa * delta_k; 1 gives
    the full worst-case guarantee, smaller values trade guaranteed
    robustness for transmit power.
    """

    delta: np.ndarray
    kappa: float = 1.0

    BALANCED_KAPPA = 0.25  # empirically good power/robustness trade-off

    def __post_init__(self):
        d = np.atleast_1d(np.array(self.delta, dtype=float))
        if d.ndim != 1 or np.any(d < 0) or not np.all(np.isfinite(d)):
            raise ValueError("uncertainty radii must be finite and nonnegative")
        if not (0.0 <= self.kappa <= 1.0):
            raise ValueError("kappa must lie in [0, 1]")
        d.setflags(write=False)
        object.__setattr__(self, "delta", d)

    @classmethod
    def balanced(cls, delta) -> "UncertaintySpec":
        return cls(delta=delta, kappa=cls.BALANCED_KAPPA)

    @property
    def n_users(self) -> int:
        return self.delta.shape[0]


class ProgramLayout:
    """Variable index map for the nominal design program.

    Real decision variables are ordered [vec(Re B), vec(Im B), tau]
    (column-major vec).  ``cone_tags`` records, per cone in program order,
    a (tag, user, coordinate) provenance triple; a cone that belongs to no
    user, such as a robust program's ("row-norm", None, j), has user None
    and its antenna j as coordinate.
    """

    def __init__(self, n_tx: int, n_users: int):
        self.n_tx = n_tx
        self.n_users = n_users
        self.num_vars = 2 * n_tx * n_users + 1
        self.cone_tags: list[tuple[str, int | None, int | None]] = []

    def b_re(self, i: int, k: int) -> int:
        return k * self.n_tx + i

    def b_im(self, i: int, k: int) -> int:
        return self.n_tx * self.n_users + k * self.n_tx + i

    @property
    def tau(self) -> int:
        return 2 * self.n_tx * self.n_users

    def var_index(self) -> dict:
        """Name -> column bijection onto 0..num_vars-1."""
        index = {}
        for k in range(self.n_users):
            for i in range(self.n_tx):
                index[("b_re", i, k)] = self.b_re(i, k)
                index[("b_im", i, k)] = self.b_im(i, k)
        index["tau"] = self.tau
        return index


class RobustProgramLayout(ProgramLayout):
    """Variable index map for the robust design program.

    Adds the per-user protection level y_k, the per-user,
    per-real-coordinate perturbation bounds t_{k,i}, i in 0..2 n_tx - 1,
    and the per-antenna row-norm bounds rho_j >= ||B[j, :]||.
    """

    def __init__(self, n_tx: int, n_users: int):
        super().__init__(n_tx, n_users)
        self.num_vars = 4 * n_tx * n_users + n_users + n_tx + 1

    def y(self, k: int) -> int:
        return 2 * self.n_tx * self.n_users + 1 + k

    def t(self, k: int, i: int) -> int:
        return 2 * self.n_tx * self.n_users + 1 + self.n_users + k * 2 * self.n_tx + i

    def rho(self, j: int) -> int:
        return 4 * self.n_tx * self.n_users + 1 + self.n_users + j

    def var_index(self) -> dict:
        index = super().var_index()
        for k in range(self.n_users):
            index[("y", k)] = self.y(k)
            for i in range(2 * self.n_tx):
                index[("t", k, i)] = self.t(k, i)
        for j in range(self.n_tx):
            index[("rho", j)] = self.rho(j)
        return index


@dataclass(frozen=True)
class DesignResult:
    """Outcome of a design pipeline; precoder is None unless Optimal.

    ``solution`` is the solver's outcome in the caller's noise unit.  It
    reads Optimal where the design reads NumericalFailure because the
    precoder misses a target at the estimates."""

    precoder: Precoder | None
    power: float
    status: SolveStatus
    solution: Solution = field(repr=False, default=None)


def _sinr_coefficients(qos: QosSpec) -> np.ndarray:
    # SINR_k >= gamma_k  <=>  ||[h_k B, sigma_k]|| <= a_k Re(h_k b_k)
    return np.sqrt(1.0 + 1.0 / qos.gamma)


def _check_dims(channels: ChannelSet, qos: QosSpec):
    if qos.n_users != channels.n_users:
        raise ValueError(
            f"qos covers {qos.n_users} users but channels have {channels.n_users}"
        )


def _blocks(method: str, nt: int, nu: int) -> tuple[ProgramLayout, list, list]:
    """The layout of the ``method`` program, and its cones that repeat per
    user and per antenna, in row order, as (dimension, tag, coordinate)."""
    if method == "nominal":
        return ProgramLayout(nt, nu), [(2 * nu + 2, "sinr", None)], []
    return (RobustProgramLayout(nt, nu),
            [(2 * nu + 2, "main-robust", None)]
            + [(3, tag, i) for i in range(2 * nt)
               for tag in ("perturbation-plus", "perturbation-minus")]
            + [(1 + 2 * nt, "aggregation", None)],
            [(1 + 2 * nu, "row-norm", None)])


def program_shape(method: str, n_tx: int, n_users: int) -> tuple[int, int]:
    """(rows, variables) of the ``method`` design program for n_users users
    and n_tx antennas: the shape of its dense constraint matrix."""
    layout, user_cones, antenna_cones = _blocks(method, n_tx, n_users)
    rows = (1 + 2 * n_tx * n_users + n_users * sum(dim for dim, _, _ in user_cones)
            + n_tx * sum(dim for dim, _, _ in antenna_cones))
    return rows, layout.num_vars


def _build(channels: ChannelSet, qos: QosSpec, unc: UncertaintySpec | None = None,
           perturbation_sigma: str = "paper") -> tuple[ConeProgram, ProgramLayout]:
    """Assemble the nominal program (``unc`` None) or the robust one.

    Rows: the power epigraph, then per user k the cones of ``user_cones``
    as (dimension, tag, coordinate), then per antenna j the cones of
    ``antenna_cones``.  Entries are placed by index arithmetic over users,
    antennas, channel coordinates and signs.
    """
    nt, nu = channels.n_tx, channels.n_users
    user_dim, agg_dim, norm_dim = 2 * nu + 2, 1 + 2 * nt, 1 + 2 * nu
    method = "nominal" if unc is None else "robust"
    layout, user_cones, antenna_cones = _blocks(method, nt, nu)
    a = _sinr_coefficients(qos)
    h_re, h_im = channels.rows.real, channels.rows.imag
    n_b = 2 * nt * nu
    power_dim = 1 + n_b
    per_user = sum(dim for dim, _, _ in user_cones)
    A = np.zeros(program_shape(method, nt, nu))
    b = np.zeros(A.shape[0])

    # total-power epigraph ||vec(B)|| <= tau
    A[0, layout.tau] = -1.0
    A[1:power_dim, :n_b] = -np.eye(n_b)

    # SINR cone of user k, first row a_k Re(h_k b_k) (- kappa delta_k y_k),
    # then Re(h_k b_j) and Im(h_k b_j) for every j, then sigma_k
    re = np.arange(nt * nu).reshape(nu, nt)     # re[j, i]: column of Re B[i, j]
    im = re + nt * nu
    users = np.arange(nu)
    sinr = power_dim + per_user * users         # first row of user k's cones
    A[sinr[:, None], re] = -a[:, None] * h_re
    A[sinr[:, None], im] = a[:, None] * h_im
    row = sinr[:, None, None] + 1 + users[:, None]  # row[k, j]: Re(h_k b_j)
    A[row, re] = -h_re[:, None]
    A[row, im] = h_im[:, None]
    A[row + nu, im] = -h_re[:, None]
    A[row + nu, re] = -h_im[:, None]
    b[sinr + 1 + 2 * nu] = qos.sigma

    if unc is not None:
        A[sinr, layout.y(users)] = unc.kappa * unc.delta
        # perturbation cone (k, i, s), s = +1, -1, starting at row pert[k, i, s]:
        # ||[rho_{i mod n_t}, sigma_k or 0]|| <= t_{k,i} + s a_k B_bar[i, k], where
        # B_bar = [[Re B, Im B], [-Im B, Re B]] has entry (i, k) sign[i] x[col[i, k]]
        coord = np.arange(2 * nt)
        col = np.concatenate([re.T, im.T])
        sign = np.repeat([1.0, -1.0], nt)
        pert = sinr[:, None, None] + user_dim + 3 * (2 * coord[:, None] + np.arange(2))
        t = layout.t(users[:, None], coord)
        A[pert, t[:, :, None]] = -1.0
        A[pert, col.T[:, :, None]] = (
            -np.array([1.0, -1.0]) * a[:, None, None] * sign[:, None])
        A[pert + 1, layout.rho(coord % nt)[:, None]] = -1.0
        if perturbation_sigma == "paper":
            b[pert + 2] = qos.sigma[:, None, None]
        # aggregation ||t_k|| <= y_k
        agg = sinr + per_user - agg_dim
        A[agg, layout.y(users)] = -1.0
        A[agg[:, None] + 1 + coord, t] = -1.0
        # row norm ||B[j, :]|| <= rho_j: rows j and j + n_t of B_bar both
        # have this norm, so rho_j stands in for them in the perturbation cones
        antennas = np.arange(nt)
        norm = power_dim + nu * per_user + norm_dim * antennas
        A[norm, layout.rho(antennas)] = -1.0
        A[norm[:, None] + 1 + users, re.T] = -1.0
        A[norm[:, None] + 1 + nu + users, im.T] = -1.0

    cones = ([SecondOrder(power_dim)]
             + [SecondOrder(dim) for _ in users for dim, _, _ in user_cones]
             + [SecondOrder(dim) for _ in range(nt) for dim, _, _ in antenna_cones])
    layout.cone_tags.append(("objective-epigraph", None, None))
    layout.cone_tags.extend((tag, k, i) for k in range(nu) for _, tag, i in user_cones)
    layout.cone_tags.extend((tag, None, j) for j in range(nt) for _, tag, _ in antenna_cones)
    objective = np.zeros(layout.num_vars)
    objective[layout.tau] = 1.0
    return ConeProgram(layout.num_vars, objective, A, b, tuple(cones)), layout


def build_nominal(channels: ChannelSet, qos: QosSpec) -> tuple[ConeProgram, ProgramLayout]:
    """Minimum-power design meeting every SINR target at the estimates.

    Variables [Re B, Im B, tau]; minimize tau subject to ||vec(B)|| <= tau
    and, per user, ||[h_bar_k B_bar, sigma_k]|| <= a_k (h_bar_k . b_bar_k).
    """
    _check_dims(channels, qos)
    return _build(channels, qos)


def build_robust(
    channels: ChannelSet,
    qos: QosSpec,
    unc: UncertaintySpec,
    perturbation_sigma: str = "paper",
) -> tuple[ConeProgram, RobustProgramLayout]:
    """Robust counterpart protecting every SINR constraint over the sphere
    of radius kappa * delta_k around each channel estimate.

    Per user k the program carries:
      * main-robust:       ||[h_bar_k B_bar, sigma_k]|| <= a_k h_bar_k.b_bar_k
                           - (kappa delta_k) y_k
      * perturbation-plus/minus, per real coordinate i of the channel:
                           ||[rho_{i mod n_t}, sigma_k]|| -/+ a_k B_bar[i, k] <= t_{k,i}
      * aggregation:       ||t_k|| <= y_k
    and per antenna j:
      * row-norm:          ||B[j, :]|| <= rho_j

    Rows i and i + n_t of B_bar have the norm ||B[i mod n_t, :]||, so the
    3-dim perturbation cones describe the same (B, t, y) as the paper's
    ||[row_i(B_bar), sigma_k]|| -/+ a_k B_bar[i, k] <= t_{k,i}.

    ``perturbation_sigma`` selects what stands in for the noise term inside
    the perturbation cones: mode "paper" keeps sigma_k there (conservative
    default), mode "zero" puts 0, bounding only the genuinely perturbed
    data (the strict linearization).  Both modes share one layout.

    In "paper" mode the perturbation cones add the received-amplitude
    sigma_k to the precoder-unit rho_j, so the design's power depends on
    the absolute noise unit: scaling channels, radii and noise together,
    which leaves every SINR and every uncertainty set unchanged, changes
    the power.  The "zero" mode does not have this dependence.
    """
    _check_dims(channels, qos)
    if unc.n_users != channels.n_users:
        raise ValueError(
            f"uncertainty covers {unc.n_users} users but channels have {channels.n_users}"
        )
    if perturbation_sigma not in PERTURBATION_SIGMA_MODES:
        raise ValueError(f"perturbation_sigma must be one of {PERTURBATION_SIGMA_MODES}")
    return _build(channels, qos, unc, perturbation_sigma)


def extract_precoder(solution: Solution, layout: ProgramLayout) -> Precoder:
    """Reassemble the complex precoder from an Optimal solution's variables."""
    if solution.status != SolveStatus.OPTIMAL:
        raise ValueError(f"cannot extract a precoder from a {solution.status.value} solution")
    nt, nu = layout.n_tx, layout.n_users
    x = solution.x
    re = x[: nt * nu].reshape((nu, nt)).T
    im = x[nt * nu : 2 * nt * nu].reshape((nu, nt)).T
    return Precoder(re + 1j * im)


def design_nominal(channels: ChannelSet, qos: QosSpec) -> DesignResult:
    """Build, solve and extract the nominal design; non-Optimal solver
    statuses propagate in the result instead of raising.  A request that
    the last solving :func:`design_batch` call held returns its result."""
    return design_batch([("nominal", (channels, qos))])[0]


def design_robust(
    channels: ChannelSet,
    qos: QosSpec,
    unc: UncertaintySpec,
    perturbation_sigma: str = "paper",
) -> DesignResult:
    """Build, solve and extract the robust design.  A request that the last
    solving :func:`design_batch` call held returns its result."""
    return design_batch([("robust", (channels, qos, unc, perturbation_sigma))])[0]


def design_batch(requests: list[tuple[str, tuple]]) -> list[DesignResult]:
    """The design of each ``(method, request)`` pair, each the result its
    own design function call gives, bit for bit.

    A request is the tuple of the design function's arguments:
    ``(channels, qos)`` for "nominal", ``(channels, qos, unc,
    perturbation_sigma)`` for "robust".  Requests the last solving call
    held are answered from memory, repeats within the list are solved once,
    and the rest, of every method, are built and solved together: one
    program through :func:`conic.solve`, more through one
    :func:`conic.solve_batch`.  A call that solves anything then replaces
    the memory with its own list.
    """
    global _last
    for method, _ in requests:
        if method not in METHODS:
            raise ValueError(f"unknown design method {method!r}")
    keys = [_request_key(*request) for _, request in requests]
    remembered = _last
    fresh = {}
    for key, request in zip(keys, requests):
        if key not in remembered:
            fresh.setdefault(key, request)
    if fresh:
        solved = dict(zip(fresh, _design(list(fresh.values()))))
        remembered = {key: solved[key] if key in solved else remembered[key] for key in keys}
        _last = remembered
    return [remembered[key] for key in keys]


# {key: result} of the last call that solved anything.  A nominal key has
# four entries and a robust key seven, so the methods never collide.  The
# dict is read and replaced whole and never changed after, so concurrent
# callers can at worst miss, never pair a key with another request's result
_last: dict[tuple, DesignResult] = {}


def _request_key(channels: ChannelSet, qos: QosSpec, unc: UncertaintySpec | None = None,
                 perturbation_sigma: str = "paper") -> tuple:
    key = (channels.rows.shape, channels.rows.tobytes(), qos.gamma.tobytes(),
           qos.sigma.tobytes())
    if unc is None:
        return key
    return key + (unc.delta.tobytes(), np.float64(unc.kappa).tobytes(), perturbation_sigma)


def _design(requests: list[tuple[str, tuple]]) -> list[DesignResult]:
    """Solve each (method, request)'s program at the noise divided by s =
    max_k sigma_k, scale each solution back by s, and check it at the
    estimates.  The programs are built one at a time as the solver takes
    them, and only the scales and variable layouts that the checks read
    are kept, so each dense program can go once the solver holds its
    member."""
    scales, layouts = [], []

    def programs():
        for method, (channels, qos, *robust) in requests:
            scale = float(np.max(qos.sigma))
            unit = QosSpec(gamma=qos.gamma, sigma=qos.sigma / scale)
            program, layout = (build_nominal(channels, unit) if method == "nominal"
                               else build_robust(channels, unit, *robust))
            scales.append(scale)
            layouts.append(layout)
            yield program

    built = programs()
    solutions = ([conic.solve(next(built))] if len(requests) == 1
                 else conic.solve_batch(built))
    return [_checked(channels, qos, scale, solution, layout)
            for (_, (channels, qos, *_)), scale, solution, layout
            in zip(requests, scales, solutions, layouts)]


def _checked(channels: ChannelSet, qos: QosSpec, scale: float, solution: Solution,
             layout: ProgramLayout) -> DesignResult:
    """The design of a unit-noise solution: scaled back by ``scale`` and
    Optimal only if its precoder meets every target at the estimates."""
    if scale != 1.0:  # at s = 1 the design hands back the solver's own Solution
        solution = replace(solution, x=scale * solution.x,
                           objective_value=scale * solution.objective_value)
    if solution.status != SolveStatus.OPTIMAL:
        return DesignResult(precoder=None, power=float("nan"),
                            status=solution.status, solution=solution)
    precoder = extract_precoder(solution, layout)
    sinr = model.achieved_sinr(channels, precoder, qos.sigma)
    if not np.all(sinr >= qos.gamma * (1.0 - SINR_TOL)):  # a NaN SINR meets nothing
        return DesignResult(precoder=None, power=float("nan"),
                            status=SolveStatus.NUMERICAL_FAILURE, solution=solution)
    return DesignResult(precoder=precoder, power=model.transmit_power(precoder),
                        status=solution.status, solution=solution)
