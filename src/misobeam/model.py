"""Domain types and signal-level computations for the MISO downlink.

A base station with n_t transmit antennas serves n_u single-antenna users.
Channels are complex row vectors, the precoder is a complex n_t x n_u matrix
whose column k beamforms user k's symbol stream.  Everything here is a pure
function of its inputs; randomness always flows through an explicit numpy
Generator (or seed) so simulations stay reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DB_FLOOR = -100.0  # reporting floor for zero SINR


def _frozen_complex(a, shape_name: str) -> np.ndarray:
    arr = np.array(a, dtype=complex)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"non-finite entry in {shape_name}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ChannelSet:
    """Per-user channel row vectors, one length-n_t row per user.

    Rows are transmitter-side estimates when used for design, or true
    channels when used for evaluation.
    """

    rows: np.ndarray

    def __post_init__(self):
        arr = _frozen_complex(self.rows, "channel rows")
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("channel rows must be a nonempty 2-D array")
        object.__setattr__(self, "rows", arr)

    @property
    def n_users(self) -> int:
        return self.rows.shape[0]

    @property
    def n_tx(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True)
class Precoder:
    """Complex n_t x n_u beamforming matrix; column k serves user k."""

    matrix: np.ndarray

    def __post_init__(self):
        arr = _frozen_complex(self.matrix, "precoder matrix")
        if arr.ndim != 2:
            raise ValueError("precoder matrix must be 2-D")
        object.__setattr__(self, "matrix", arr)

    @property
    def n_tx(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_users(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class QosSpec:
    """Per-user linear-scale SINR targets and noise standard deviations."""

    gamma: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        g = np.atleast_1d(np.array(self.gamma, dtype=float))
        s = np.atleast_1d(np.array(self.sigma, dtype=float))
        if g.shape != s.shape or g.ndim != 1:
            raise ValueError("gamma and sigma must be 1-D with matching length")
        if np.any(g <= 0) or not np.all(np.isfinite(g)):
            raise ValueError("SINR targets must be positive and finite")
        if np.any(s <= 0) or not np.all(np.isfinite(s)):
            raise ValueError("noise standard deviations must be positive and finite")
        g.setflags(write=False)
        s.setflags(write=False)
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "sigma", s)

    @classmethod
    def from_db(cls, gamma_db, sigma) -> "QosSpec":
        return cls(gamma=db_to_linear(np.atleast_1d(np.array(gamma_db, dtype=float))),
                   sigma=sigma)

    @property
    def n_users(self) -> int:
        return self.gamma.shape[0]


def db_to_linear(value_db):
    return 10.0 ** (np.asarray(value_db, dtype=float) / 10.0)


def linear_to_db(value, floor_db: float = DB_FLOOR):
    """10 log10 with a finite reporting floor for zero values."""
    value = np.asarray(value, dtype=float)
    with np.errstate(divide="ignore"):
        out = 10.0 * np.log10(value)
    return np.maximum(out, floor_db)


def generate_channels(n_u: int, n_t: int, rng) -> ChannelSet:
    """Draw i.i.d. unit-variance proper complex Gaussian channel rows.

    Real and imaginary parts are each Normal(0, 1/2), so E|h_ij|^2 = 1.
    ``rng`` is a numpy Generator or a seed.
    """
    if n_u < 1 or n_t < 1:
        raise ValueError("n_u and n_t must be at least 1")
    rng = np.random.default_rng(rng)
    rows = (rng.standard_normal((n_u, n_t)) + 1j * rng.standard_normal((n_u, n_t)))
    return ChannelSet(rows / np.sqrt(2.0))


def sample_error(n_t: int, delta, mode: str, rng, shape=()) -> np.ndarray:
    """Sample channel errors in complex spheres of radius ``delta``.

    Returns a complex array of shape ``shape + (n_t,)``; ``delta`` (a scalar,
    or per-user radii) broadcasts against ``shape``.
    boundary: ||e|| = delta, direction uniform (normalized Gaussian draw).
    ball: uniform over the solid ball; the boundary direction is scaled by
    U**(1/(2 n_t)) to match the 2 n_t real dimensions of C^{n_t}.
    A zero radius gives exact zeros.
    """
    delta = np.asarray(delta, dtype=float)
    if not np.all(delta >= 0):
        raise ValueError("delta must be nonnegative")
    if mode not in ("boundary", "ball"):
        raise ValueError(f"unknown error mode {mode!r}")
    shape = tuple(shape)
    radius = np.broadcast_to(delta, shape)[..., None]
    rng = np.random.default_rng(rng)
    direction = (rng.standard_normal(shape + (n_t,))
                 + 1j * rng.standard_normal(shape + (n_t,)))
    norm = np.linalg.norm(direction, axis=-1, keepdims=True)
    degenerate = norm[..., 0] == 0.0  # measure-zero guard
    direction[degenerate, 0] = 1.0
    norm[degenerate] = 1.0
    if mode == "ball":
        radius = radius * rng.uniform(size=shape + (1,)) ** (1.0 / (2.0 * n_t))
    return direction * (radius / norm) + 0.0  # + 0.0 turns -0.0 into 0.0


def achieved_sinr(true_channels, precoder: Precoder, sigma) -> np.ndarray:
    """Per-user SINR |h_k b_k|^2 / (sum_{j != k} |h_k b_j|^2 + sigma_k^2).

    ``true_channels`` is a ChannelSet or an array of channel rows of shape
    (..., n_u, n_t); the result has shape (..., n_u).
    """
    if isinstance(true_channels, ChannelSet):
        true_channels = true_channels.rows
    sigma = np.atleast_1d(np.asarray(sigma, dtype=float))
    H, B = np.asarray(true_channels), precoder.matrix
    n_u = H.shape[-2]
    if B.shape[0] != H.shape[-1] or B.shape[1] != n_u or sigma.shape[0] != n_u:
        raise ValueError("channel, precoder and sigma dimensions disagree")
    gains = np.abs(H @ B) ** 2          # gains[..., k, j] = |h_k b_j|^2
    signal = np.diagonal(gains, axis1=-2, axis2=-1)
    interference = gains.sum(axis=-1) - signal
    return signal / (interference + sigma**2)


def transmit_power(precoder: Precoder) -> float:
    """Total transmit power ||vec(B)||^2 = sum |B_ij|^2."""
    return float(np.sum(np.abs(precoder.matrix) ** 2))
