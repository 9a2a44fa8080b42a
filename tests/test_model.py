"""Channel model, SINR/power evaluation, and error sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misobeam import model
from misobeam.model import (
    ChannelSet,
    Precoder,
    QosSpec,
    achieved_sinr,
    generate_channels,
    sample_error,
    transmit_power,
)


def random_instance(rng, n_u, n_t):
    channels = generate_channels(n_u, n_t, rng)
    B = (rng.standard_normal((n_t, n_u)) + 1j * rng.standard_normal((n_t, n_u)))
    return channels, Precoder(B)


class TestGenerateChannels:
    def test_shape(self):
        ch = generate_channels(3, 3, 0)
        assert ch.rows.shape == (3, 3)

    def test_deterministic_for_fixed_seed(self):
        a = generate_channels(4, 2, 123)
        b = generate_channels(4, 2, 123)
        np.testing.assert_array_equal(a.rows, b.rows)

    def test_unit_variance_entries(self):
        # E|h_ij|^2 = 1, estimated over 1e5 draws
        ch = generate_channels(1000, 100, 2024)
        mean_sq = np.mean(np.abs(ch.rows) ** 2)
        assert abs(mean_sq - 1.0) <= 0.02

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            generate_channels(0, 3, 0)


class TestSampleError:
    def test_boundary_norm_exact(self):
        e = sample_error(3, 0.015, "boundary", 5, shape=(100,))
        assert e.shape == (100, 3)
        np.testing.assert_allclose(np.linalg.norm(e, axis=-1), 0.015, rtol=1e-12)

    def test_ball_contained(self):
        e = sample_error(3, 0.015, "ball", np.random.default_rng(6), shape=(200,))
        assert np.all(np.linalg.norm(e, axis=-1) <= 0.015 + 1e-15)

    def test_zero_radius(self):
        np.testing.assert_array_equal(sample_error(4, 0.0, "boundary", 1, shape=(5,)),
                                      np.zeros((5, 4)))

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            sample_error(3, 0.1, "sphere", 1)

    def test_boundary_mean_is_centered(self):
        # uniformity smoke test: coordinate means vanish like 1/sqrt(n)
        rng = np.random.default_rng(99)
        delta = 0.5
        draws = sample_error(3, delta, "boundary", rng, shape=(10_000,))
        assert np.max(np.abs(draws.mean(axis=0))) <= 3.0 / np.sqrt(10_000) * delta

    def test_ball_radius_law(self):
        # P(||e|| <= r) = (r/delta)^(2 n_t): check the median
        rng = np.random.default_rng(31)
        n_t, delta = 3, 1.0
        norms = np.linalg.norm(sample_error(n_t, delta, "ball", rng, shape=(20_000,)),
                               axis=-1)
        expected_median = delta * 0.5 ** (1.0 / (2 * n_t))
        assert np.median(norms) == pytest.approx(expected_median, rel=0.01)

    def test_per_user_radii_broadcast(self):
        delta = np.array([0.1, 0.0, 0.2])
        rng = np.random.default_rng(8)
        boundary = sample_error(2, delta, "boundary", rng, shape=(50, 3))
        assert boundary.shape == (50, 3, 2)
        np.testing.assert_allclose(np.linalg.norm(boundary, axis=-1),
                                   np.broadcast_to(delta, (50, 3)), rtol=1e-12)
        ball = sample_error(2, delta, "ball", rng, shape=(50, 3))
        assert np.all(np.linalg.norm(ball, axis=-1) <= delta + 1e-15)
        np.testing.assert_array_equal(ball[:, 1], 0.0)
        with pytest.raises(ValueError):
            sample_error(2, [0.1, 0.2], "ball", rng, shape=(50, 3))
        with pytest.raises(ValueError):
            sample_error(2, [0.1, -0.2, 0.1], "ball", rng, shape=(50, 3))


class TestAchievedSinr:
    def test_identity_no_interference(self):
        ch = ChannelSet(np.eye(2, dtype=complex))
        out = achieved_sinr(ch, Precoder(np.eye(2, dtype=complex)), [1.0, 1.0])
        np.testing.assert_allclose(out, [1.0, 1.0])

    def test_zero_precoder(self):
        ch = ChannelSet(np.eye(2, dtype=complex))
        out = achieved_sinr(ch, Precoder(np.zeros((2, 2))), [1.0, 1.0])
        np.testing.assert_array_equal(out, [0.0, 0.0])

    def test_hand_evaluated_interference(self):
        # user 2 sees unit interference from user 1's beam
        ch = ChannelSet(np.array([[1.0, 0.0], [1.0, 1.0]], dtype=complex))
        out = achieved_sinr(ch, Precoder(np.eye(2, dtype=complex)), [1.0, 1.0])
        np.testing.assert_allclose(out, [1.0, 0.5])

    def test_dimension_mismatch(self):
        ch = ChannelSet(np.eye(2, dtype=complex))
        with pytest.raises(ValueError):
            achieved_sinr(ch, Precoder(np.zeros((3, 2))), [1.0, 1.0])


class TestTransmitPower:
    def test_identity(self):
        assert transmit_power(Precoder(np.eye(3, dtype=complex))) == pytest.approx(3.0)

    def test_zero(self):
        assert transmit_power(Precoder(np.zeros((2, 2)))) == 0.0

    def test_complex_column(self):
        # |3|^2 + |4i|^2 = 25
        assert transmit_power(Precoder(np.array([[3.0], [4.0j]]))) == pytest.approx(25.0)


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 2**31 - 1), theta=st.floats(0.0, 2 * np.pi),
       column=st.integers(0, 2))
def test_phase_rotation_invariance(seed, theta, column):
    rng = np.random.default_rng(seed)
    ch, pre = random_instance(rng, 3, 3)
    rotated = pre.matrix.copy()
    rotated[:, column] *= np.exp(1j * theta)
    sigma = [1.0, 1.0, 1.0]
    np.testing.assert_allclose(
        achieved_sinr(ch, Precoder(rotated), sigma),
        achieved_sinr(ch, pre, sigma),
        rtol=1e-12, atol=1e-12,
    )
    assert transmit_power(Precoder(rotated)) == pytest.approx(transmit_power(pre),
                                                              rel=1e-12)


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 2**31 - 1), p=st.floats(1.01, 100.0))
def test_power_scaling(seed, p):
    rng = np.random.default_rng(seed)
    ch, pre = random_instance(rng, 2, 3)
    scaled = Precoder(np.sqrt(p) * pre.matrix)
    assert transmit_power(scaled) == pytest.approx(p * transmit_power(pre), rel=1e-12)
    before = achieved_sinr(ch, pre, [1.0, 1.0])
    after = achieved_sinr(ch, scaled, [1.0, 1.0])
    assert np.all(after >= before - 1e-15)


class TestQosSpec:
    def test_db_conversion(self):
        qos = QosSpec.from_db([0.0, 10.0], [1.0, 2.0])
        np.testing.assert_allclose(qos.gamma, [1.0, 10.0])

    def test_rejects_nonpositive_gamma(self):
        with pytest.raises(ValueError):
            QosSpec(gamma=[0.0], sigma=[1.0])

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            QosSpec(gamma=[1.0], sigma=[-1.0])


class TestDbHelpers:
    def test_floor(self):
        assert model.linear_to_db(0.0) == model.DB_FLOOR

    def test_round_trip(self):
        vals = np.array([0.5, 1.0, 3.16])
        np.testing.assert_allclose(model.db_to_linear(model.linear_to_db(vals)), vals,
                                   rtol=1e-12)
