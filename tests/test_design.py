"""Nominal and robust precoder design: builders, pipelines, layouts."""

import numpy as np
import pytest

from misobeam import model
from misobeam.conic import SecondOrder, Solution, SolveStatus
from misobeam.design import (
    ProgramLayout,
    RobustProgramLayout,
    UncertaintySpec,
    build_nominal,
    build_robust,
    design_nominal,
    design_robust,
    extract_precoder,
)
from misobeam.model import ChannelSet, Precoder, QosSpec


def scalar_channel(h=1.0 + 0.0j):
    return ChannelSet(np.array([[h]]))


def scalar_robust_oracle(gamma, sigma, delta, kappa=1.0, step=1e-5):
    """Grid search over real b >= 0 against the hand-written scalar
    constraints: with N(b) = sqrt(b^2 + sigma^2) the per-coordinate bounds
    are t1 = N + a b and t2 = N, the aggregate is y = ||(t1, t2)|| and
    feasibility requires N <= a b - kappa delta y.  Returns the minimum
    power b^2, or None when no b is feasible."""
    a = np.sqrt(1.0 + 1.0 / gamma)
    r = kappa * delta
    if r == 0.0:
        return gamma * sigma**2
    c_inf = np.sqrt((1.0 + a) ** 2 + 1.0)
    slope = a - 1.0 - r * c_inf
    if slope <= 0:
        return None
    b_max = 2.0 * np.sqrt(0.6 / slope) + 10.0
    for lo in np.arange(0.0, b_max, 100_000 * step):
        b = np.arange(lo, min(lo + 100_000 * step, b_max), step)
        N = np.sqrt(b**2 + sigma**2)
        t1 = N + a * b
        y = np.hypot(t1, N)
        feasible = N <= a * b - r * y
        if np.any(feasible):
            return float(b[np.argmax(feasible)] ** 2)
    return None


class TestBuildNominal:
    def test_scalar_closed_form(self):
        # P = gamma sigma^2 / |h|^2
        res = design_nominal(scalar_channel(), QosSpec(gamma=[1.0], sigma=[1.0]))
        assert res.status == SolveStatus.OPTIMAL
        assert res.power == pytest.approx(1.0, rel=1e-6)

    def test_scalar_gamma_three(self):
        res = design_nominal(scalar_channel(), QosSpec(gamma=[3.0], sigma=[1.0]))
        assert res.power == pytest.approx(3.0, rel=1e-6)

    def test_identity_channels_decouple(self):
        res = design_nominal(ChannelSet(np.eye(2, dtype=complex)),
                             QosSpec(gamma=[1.0, 1.0], sigma=[1.0, 1.0]))
        assert res.power == pytest.approx(2.0, rel=1e-6)
        # B = I up to per-column phase
        np.testing.assert_allclose(np.abs(res.precoder.matrix), np.eye(2), atol=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            build_nominal(ChannelSet(np.eye(2, dtype=complex)),
                          QosSpec(gamma=[1.0], sigma=[1.0]))

    def test_tightness_at_estimates(self):
        # power minimality forces every SINR constraint active
        rng = np.random.default_rng(11)
        qos = QosSpec.from_db([5.0] * 3, [1.0] * 3)
        for _ in range(10):
            ch = model.generate_channels(3, 3, rng)
            res = design_nominal(ch, qos)
            assert res.status == SolveStatus.OPTIMAL
            sinr_db = model.linear_to_db(model.achieved_sinr(ch, res.precoder, qos.sigma))
            np.testing.assert_allclose(sinr_db, 5.0, atol=1e-3)


class TestUncertaintySpec:
    def test_rejects_negative_delta(self):
        with pytest.raises(ValueError):
            UncertaintySpec(delta=[-0.1])

    def test_rejects_kappa_out_of_range(self):
        with pytest.raises(ValueError):
            UncertaintySpec(delta=[0.1], kappa=1.5)

    def test_balanced_preset(self):
        unc = UncertaintySpec.balanced([0.02])
        assert unc.kappa == 0.25


class TestBuildRobust:
    def test_zero_uncertainty_collapses_to_nominal(self):
        rng = np.random.default_rng(21)
        qos = QosSpec.from_db([5.0] * 3, [1.0] * 3)
        for _ in range(5):
            ch = model.generate_channels(3, 3, rng)
            nom = design_nominal(ch, qos)
            rob = design_robust(ch, qos, UncertaintySpec(delta=[0.0] * 3))
            assert rob.status == SolveStatus.OPTIMAL
            assert rob.power == pytest.approx(nom.power, rel=1e-6)

    def test_kappa_zero_equals_nominal(self):
        rng = np.random.default_rng(22)
        ch = model.generate_channels(3, 3, rng)
        qos = QosSpec.from_db([5.0] * 3, [1.0] * 3)
        nom = design_nominal(ch, qos)
        rob = design_robust(ch, qos, UncertaintySpec(delta=[0.1] * 3, kappa=0.0))
        assert rob.power == pytest.approx(nom.power, rel=1e-6)

    def test_scalar_grid_oracle(self):
        # gamma = 1 (0 dB), delta = 0.1, kappa = 1
        oracle = scalar_robust_oracle(1.0, 1.0, 0.1)
        res = design_robust(scalar_channel(), QosSpec(gamma=[1.0], sigma=[1.0]),
                            UncertaintySpec(delta=[0.1], kappa=1.0))
        assert res.status == SolveStatus.OPTIMAL
        assert res.power == pytest.approx(oracle, rel=1e-4)

    def test_variable_and_cone_census(self):
        for n_t, n_u in [(2, 2), (3, 3), (4, 2)]:
            ch = model.generate_channels(n_u, n_t, 1)
            qos = QosSpec.from_db([5.0] * n_u, [1.0] * n_u)
            prog, layout = build_robust(ch, qos, UncertaintySpec(delta=[0.01] * n_u))
            assert prog.num_vars == 2 * n_t * n_u + 1 + n_u + 2 * n_t * n_u
            assert len(prog.cones) == 1 + n_u + 4 * n_u * n_t + n_u
            assert all(isinstance(c, SecondOrder) for c in prog.cones)
            index = layout.var_index()
            assert sorted(index.values()) == list(range(prog.num_vars))
            tags = [t for t, _, _ in layout.cone_tags]
            assert tags.count("main-robust") == n_u
            assert tags.count("perturbation-plus") == 2 * n_t * n_u
            assert tags.count("perturbation-minus") == 2 * n_t * n_u
            assert tags.count("aggregation") == n_u

    def test_dominance_in_delta_and_kappa(self):
        rng = np.random.default_rng(100)  # draw verified feasible through delta = 0.02
        ch = model.generate_channels(3, 3, rng)
        qos = QosSpec.from_db([5.0] * 3, [1.0] * 3)
        nominal = design_nominal(ch, qos).power
        powers = []
        for delta in (0.005, 0.01, 0.02):
            res = design_robust(ch, qos, UncertaintySpec(delta=[delta] * 3, kappa=1.0))
            assert res.status == SolveStatus.OPTIMAL
            powers.append(res.power)
        assert nominal <= powers[0] + 1e-9
        assert powers == sorted(powers)
        quarter = design_robust(ch, qos, UncertaintySpec(delta=[0.02] * 3, kappa=0.25))
        assert quarter.power <= powers[-1] + 1e-9

    def test_large_delta_reports_infeasible(self):
        ch = model.generate_channels(3, 3, 4)
        qos = QosSpec.from_db([5.0] * 3, [1.0] * 3)
        res = design_robust(ch, qos, UncertaintySpec(delta=[0.5] * 3, kappa=1.0))
        assert res.status == SolveStatus.PRIMAL_INFEASIBLE
        assert res.precoder is None

    def test_zero_channel_row_infeasible_without_crash(self):
        rows = model.generate_channels(3, 3, 4).rows.copy()
        rows[1] = 0.0
        res = design_nominal(ChannelSet(rows), QosSpec.from_db([5.0] * 3, [1.0] * 3))
        assert res.status == SolveStatus.PRIMAL_INFEASIBLE

    def test_perturbation_sigma_modes(self):
        # the strict linearization drops sigma from the perturbation cones,
        # so it never needs more power, and both stay above nominal
        rng = np.random.default_rng(101)  # draw verified feasible at delta = 0.015
        ch = model.generate_channels(3, 3, rng)
        qos = QosSpec.from_db([5.0] * 3, [1.0] * 3)
        unc = UncertaintySpec(delta=[0.015] * 3, kappa=1.0)
        paper = design_robust(ch, qos, unc, perturbation_sigma="paper")
        strict = design_robust(ch, qos, unc, perturbation_sigma="zero")
        nominal = design_nominal(ch, qos)
        assert strict.power <= paper.power + 1e-9
        assert strict.power >= nominal.power - 1e-9
        with pytest.raises(ValueError):
            build_robust(ch, qos, unc, perturbation_sigma="bogus")

    def test_robust_guarantee_by_sampling(self):
        rng = np.random.default_rng(66)
        ch = model.generate_channels(3, 3, rng)
        qos = QosSpec.from_db([5.0] * 3, [1.0] * 3)
        delta = 0.015
        res = design_robust(ch, qos, UncertaintySpec(delta=[delta] * 3, kappa=1.0))
        for k in range(3):
            for _ in range(500):
                e = model.sample_error(3, delta, "boundary", rng)
                rows = ch.rows.copy()
                rows[k] = rows[k] + e
                sinr = model.achieved_sinr(ChannelSet(rows), res.precoder, qos.sigma)
                assert model.linear_to_db(sinr[k]) >= 5.0 - 0.02


@pytest.mark.parametrize("method", ["nominal", "paper", "zero"])
@pytest.mark.parametrize("n_u,n_t", [(1, 1), (2, 3), (3, 2)])
def test_slack_matches_complex_arithmetic(method, n_u, n_t):
    # every cone's slack b - A x at a random x, against the constraint
    # written out in complex arithmetic
    rng = np.random.default_rng(n_u * 10 + n_t)
    ch = model.generate_channels(n_u, n_t, rng)
    qos = QosSpec.from_db(rng.uniform(0, 10, n_u), rng.uniform(0.5, 2, n_u))
    unc = UncertaintySpec(delta=rng.uniform(0, 0.1, n_u), kappa=0.5)
    if method == "nominal":
        prog, layout = build_nominal(ch, qos)
    else:
        prog, layout = build_robust(ch, qos, unc, perturbation_sigma=method)
    x = rng.standard_normal(prog.num_vars)
    B = extract_precoder(Solution(SolveStatus.OPTIMAL, x, 0.0, 0.0, 0), layout).matrix
    Bbar = np.block([[B.real, B.imag], [-B.imag, B.real]])
    a = np.sqrt(1.0 + 1.0 / qos.gamma)
    hB = ch.rows @ B
    slack = prog.offset - prog.constraint_matrix @ x
    expected = []
    for tag, k, i in layout.cone_tags:
        if tag == "objective-epigraph":
            expected.append(np.concatenate([[x[layout.tau]], B.real.T.ravel(),
                                            B.imag.T.ravel()]))
        elif tag in ("sinr", "main-robust"):
            head = a[k] * hB[k, k].real
            if tag == "main-robust":
                head -= unc.kappa * unc.delta[k] * x[layout.y(k)]
            expected.append(np.concatenate([[head], hB[k].real, hB[k].imag,
                                            [qos.sigma[k]]]))
        elif tag.startswith("perturbation"):
            s = 1.0 if tag == "perturbation-plus" else -1.0
            noise = qos.sigma[k] if method == "paper" else 0.0
            expected.append(np.concatenate([[x[layout.t(k, i)] + s * a[k] * Bbar[i, k]],
                                            Bbar[i], [noise]]))
        else:
            expected.append(np.concatenate([[x[layout.y(k)]],
                                            x[[layout.t(k, i) for i in range(2 * n_t)]]]))
    assert [len(e) for e in expected] == [c.dim for c in prog.cones]
    np.testing.assert_allclose(slack, np.concatenate(expected), rtol=1e-12, atol=1e-12)


class TestExtractPrecoder:
    def test_round_trip_through_layout(self):
        rng = np.random.default_rng(3)
        B = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        layout = ProgramLayout(3, 2)
        x = np.zeros(layout.num_vars)
        for k in range(2):
            for i in range(3):
                x[layout.b_re(i, k)] = B[i, k].real
                x[layout.b_im(i, k)] = B[i, k].imag
        sol = Solution(SolveStatus.OPTIMAL, x, 0.0, 0.0, 1)
        np.testing.assert_allclose(extract_precoder(sol, layout).matrix, B, atol=1e-12)

    def test_power_matches_tau_squared(self):
        ch = model.generate_channels(3, 3, 9)
        qos = QosSpec.from_db([5.0] * 3, [1.0] * 3)
        res = design_nominal(ch, qos)
        tau = res.solution.objective_value
        assert res.power == pytest.approx(tau**2, rel=1e-6)

    def test_rejects_non_optimal(self):
        layout = ProgramLayout(1, 1)
        sol = Solution(SolveStatus.PRIMAL_INFEASIBLE, np.zeros(3), np.nan, np.inf, 1)
        with pytest.raises(ValueError, match="PrimalInfeasible"):
            extract_precoder(sol, layout)

    def test_design_level_phase_invariance(self):
        # rotating one optimal column preserves feasibility of the SINR floors
        rng = np.random.default_rng(8)
        ch = model.generate_channels(3, 3, rng)
        qos = QosSpec.from_db([5.0] * 3, [1.0] * 3)
        res = design_nominal(ch, qos)
        rotated = res.precoder.matrix.copy()
        rotated[:, 1] *= np.exp(1j * 0.7)
        sinr = model.achieved_sinr(ch, Precoder(rotated), qos.sigma)
        assert np.all(model.linear_to_db(sinr) >= 5.0 - 1e-3)


class TestRobustLayout:
    def test_index_map_is_bijection(self):
        layout = RobustProgramLayout(3, 3)
        index = layout.var_index()
        assert len(index) == layout.num_vars
        assert sorted(index.values()) == list(range(layout.num_vars))


# Statuses and iteration counts of a few designs, pinned so that a solver
# change which moves convergence has to say so.  The last row is the known
# defect of ROADMAP item 3: at sigma = 1e-6 the robust design should be
# PrimalInfeasible, as it is at sigma = 1.
CONVERGENCE_PINS = [
    # method, n_t = n_u, channel seed, gamma (dB), sigma, delta, status, iterations
    ("nominal", 1, 1000, 5.0, 1.0, 0.0, SolveStatus.OPTIMAL, 8),
    ("robust", 1, 1000, 5.0, 1.0, 0.015, SolveStatus.OPTIMAL, 16),
    ("nominal", 3, 3000, 5.0, 1.0, 0.0, SolveStatus.OPTIMAL, 8),
    ("robust", 3, 3000, 5.0, 1.0, 0.015, SolveStatus.OPTIMAL, 15),
    ("robust", 3, 3000, 15.0, 1.0, 0.015, SolveStatus.PRIMAL_INFEASIBLE, 8),
    ("robust", 3, 7, 30.0, 1e-6, 0.015, SolveStatus.NUMERICAL_FAILURE, 22),
]


@pytest.mark.parametrize("method,n,seed,gamma_db,sigma,delta,status,iterations",
                         CONVERGENCE_PINS)
def test_convergence_pinned(method, n, seed, gamma_db, sigma, delta, status, iterations):
    channels = model.generate_channels(n, n, seed)
    qos = QosSpec.from_db([gamma_db] * n, [sigma] * n)
    if method == "nominal":
        result = design_nominal(channels, qos)
    else:
        result = design_robust(channels, qos, UncertaintySpec(delta=[delta] * n))
    assert result.status == status
    assert abs(result.solution.iterations - iterations) <= 1
