"""Nominal and robust precoder design: builders, pipelines, layouts."""

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from misobeam import conic, model, montecarlo
from misobeam.conic import SecondOrder, Solution, SolveStatus
from misobeam.design import (
    ProgramLayout,
    RobustProgramLayout,
    UncertaintySpec,
    build_nominal,
    build_robust,
    design_batch,
    design_nominal,
    design_robust,
    extract_precoder,
    program_shape,
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


MEMO_BASE = dict(channels=model.generate_channels(3, 3, 4242),
                 qos=QosSpec.from_db([5.0] * 3, [1.0] * 3),
                 unc=UncertaintySpec(delta=[0.015] * 3),
                 perturbation_sigma="paper")


def memo_request(method, **changes):
    a = dict(MEMO_BASE, **changes)
    if method == "nominal":
        return design_nominal(a["channels"], a["qos"])
    return design_robust(a["channels"], a["qos"], a["unc"], a["perturbation_sigma"])


class TestDesignMemo:
    @pytest.mark.parametrize("method", ["nominal", "robust"])
    def test_repeat_solves_once_and_returns_the_same_result(self, solves, method):
        first = memo_request(method)
        again = memo_request(method)
        assert len(solves) == 1
        assert again is first
        # the remembered result is what a direct solve of the built program gives
        if method == "nominal":
            program, _ = build_nominal(MEMO_BASE["channels"], MEMO_BASE["qos"])
        else:
            program, _ = build_robust(MEMO_BASE["channels"], MEMO_BASE["qos"],
                                      MEMO_BASE["unc"])
        direct = conic.solve(program)
        assert direct.status == first.status == SolveStatus.OPTIMAL
        np.testing.assert_array_equal(first.solution.x, direct.x)
        assert first.solution.iterations == direct.iterations

    CHANGES = {
        "channels": model.generate_channels(3, 3, 4243),
        "qos-sigma": QosSpec.from_db([5.0] * 3, [1.0, 1.0, 1.25]),
        "qos-gamma": QosSpec.from_db([5.0, 5.0, 6.0], [1.0] * 3),
        "unc-delta": UncertaintySpec(delta=[0.015, 0.015, 0.02]),
        "unc-kappa": UncertaintySpec(delta=[0.015] * 3, kappa=0.5),
        "perturbation_sigma": "zero",
    }

    @pytest.mark.parametrize("method,change", [
        ("nominal", "channels"), ("nominal", "qos-sigma"), ("nominal", "qos-gamma"),
        ("robust", "channels"), ("robust", "qos-sigma"), ("robust", "qos-gamma"), ("robust", "unc-delta"),
        ("robust", "unc-kappa"), ("robust", "perturbation_sigma"),
    ])
    def test_any_changed_input_solves_afresh(self, solves, method, change):
        name = change.split("-")[0]
        base = memo_request(method)
        changed = memo_request(method, **{name: self.CHANGES[change]})
        assert len(solves) == 2
        assert changed is not base
        assert memo_request(method) is not base  # one entry: the base is forgotten
        assert len(solves) == 3

    def test_threads_get_the_result_of_their_own_request(self):
        # the entry is replaced whole, so a racing caller can miss but
        # never read another request's result
        qos = {1.0: QosSpec(gamma=[1.0], sigma=[1.0]), 3.0: QosSpec(gamma=[3.0], sigma=[1.0])}
        wrong = []

        def worker(first):
            for i in range(40):
                gamma = (1.0, 3.0)[(first + i) % 2]
                power = design_nominal(scalar_channel(), qos[gamma]).power
                if abs(power - gamma) > 1e-6 * gamma:
                    wrong.append((gamma, power))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

    def test_kappa_keys_by_value_not_by_type(self, solves):
        # kappa enters the program only as kappa * delta, so 1 and 1.0 are
        # one request
        base = memo_request("robust")
        assert memo_request("robust", unc=UncertaintySpec(delta=[0.015] * 3, kappa=1)) \
            is base
        assert len(solves) == 1


class TestBatchMemo:
    """design_batch remembers its whole list, and the design functions
    answer any request of that list from it."""

    DELTAS = [0.005, 0.01, 0.02, 0.04]

    def robust_request(self, delta):
        a = MEMO_BASE
        return (a["channels"], a["qos"], UncertaintySpec(delta=[delta] * 3),
                a["perturbation_sigma"])

    def robust_batch(self, deltas):
        return design_batch([("robust", self.robust_request(d)) for d in deltas])

    def test_every_member_is_answered_from_memory(self, solves):
        batch = self.robust_batch(self.DELTAS)
        assert [len(programs) for programs in solves] == [len(self.DELTAS)]
        for delta, result in zip(self.DELTAS, batch):
            assert design_robust(*self.robust_request(delta)) is result
        again = self.robust_batch(self.DELTAS[::-1])
        assert all(a is b for a, b in zip(again, batch[::-1]))
        assert len(solves) == 1

    def test_members_equal_solo_designs(self, solves):
        batch = self.robust_batch(self.DELTAS)
        for delta, result in zip(self.DELTAS, batch):
            program, _ = build_robust(*self.robust_request(delta))
            alone = conic.solve(program)
            assert result.solution.status == alone.status
            assert result.solution.iterations == alone.iterations
            assert result.solution.x.tobytes() == alone.x.tobytes()

    def test_request_outside_the_batch_solves_afresh(self, solves):
        batch = self.robust_batch(self.DELTAS)
        other = design_robust(*self.robust_request(0.03))
        assert [len(programs) for programs in solves] == [len(self.DELTAS), 1]
        assert all(other is not result for result in batch)
        # the one-request list replaced the batch
        assert design_robust(*self.robust_request(self.DELTAS[0])) is not batch[0]
        assert len(solves) == 3

    def test_repeats_in_a_list_solve_once(self, solves):
        request = (MEMO_BASE["channels"], MEMO_BASE["qos"])
        results = design_batch([("nominal", request)] * 4)
        assert [len(programs) for programs in solves] == [1]
        assert all(result is results[0] for result in results)
        assert design_nominal(*request) is results[0]

    def test_methods_share_one_solve(self, solves):
        # both methods' requests are one solve, and one memory holds them
        nominal = (MEMO_BASE["channels"], MEMO_BASE["qos"])
        results = design_batch([("nominal", nominal)]
                               + [("robust", self.robust_request(d)) for d in self.DELTAS])
        assert [len(programs) for programs in solves] == [1 + len(self.DELTAS)]
        assert design_nominal(*nominal) is results[0]
        for delta, result in zip(self.DELTAS, results[1:]):
            assert design_robust(*self.robust_request(delta)) is result
        assert len(solves) == 1

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown design method"):
            design_batch([("sdp", ())])


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
            assert prog.num_vars == 2 * n_t * n_u + 1 + n_u + 2 * n_t * n_u + n_t
            assert len(prog.cones) == 1 + n_u + 4 * n_u * n_t + n_u + n_t
            assert all(isinstance(c, SecondOrder) for c in prog.cones)
            index = layout.var_index()
            assert sorted(index.values()) == list(range(prog.num_vars))
            tags = [t for t, _, _ in layout.cone_tags]
            assert tags.count("main-robust") == n_u
            assert tags.count("perturbation-plus") == 2 * n_t * n_u
            assert tags.count("perturbation-minus") == 2 * n_t * n_u
            assert tags.count("aggregation") == n_u
            assert tags.count("row-norm") == n_t
            dims = {tag: {c.dim for c, (t, _, _) in zip(prog.cones, layout.cone_tags)
                          if t == tag} for tag in set(tags)}
            assert dims["perturbation-plus"] == dims["perturbation-minus"] == {3}
            assert dims["row-norm"] == {2 * n_u + 1}

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
            expected.append([x[layout.t(k, i)] + s * a[k] * Bbar[i, k],
                             x[layout.rho(i % n_t)], noise])
        elif tag == "row-norm":
            expected.append(np.concatenate([[x[layout.rho(i)]], B[i].real, B[i].imag]))
        else:
            expected.append(np.concatenate([[x[layout.y(k)]],
                                            x[[layout.t(k, i) for i in range(2 * n_t)]]]))
    assert [len(e) for e in expected] == [c.dim for c in prog.cones]
    np.testing.assert_allclose(slack, np.concatenate(expected), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("mode", ["paper", "zero"])
@pytest.mark.parametrize("n_u,n_t", [(1, 1), (2, 3), (3, 3)])
def test_compact_perturbation_bounds_are_exact(mode, n_u, n_t):
    # with rho_j = ||B[j, :]||, the smallest t_{k,i} the 3-dim perturbation
    # cones allow is the pair bound ||[row_i(B_bar), sigma_k]|| + a_k |B_bar[i, k]|
    # of the paper's form; at that point every cone holds and no t or rho
    # can drop
    rng = np.random.default_rng(100 * n_u + n_t)
    B = rng.standard_normal((n_t, n_u)) + 1j * rng.standard_normal((n_t, n_u))
    Bbar = np.block([[B.real, B.imag], [-B.imag, B.real]])
    # channels with h_k B = e_k, so user k's main-robust cone reads
    # sqrt(1 + sigma_k^2) <= a_k - kappa delta_k y_k
    ch = ChannelSet(np.linalg.pinv(B))
    qos = QosSpec.from_db(rng.uniform(0, 5, n_u), rng.uniform(0.1, 0.5, n_u))
    a = np.sqrt(1.0 + 1.0 / qos.gamma)
    noise = qos.sigma if mode == "paper" else np.zeros(n_u)
    rho = np.linalg.norm(B, axis=1)
    t = (np.sqrt(np.tile(rho, 2)[None, :] ** 2 + noise[:, None] ** 2)
         + a[:, None] * np.abs(Bbar[:, :n_u].T))
    pair = np.array([[np.linalg.norm(np.append(Bbar[i], noise[k])) + a[k] * abs(Bbar[i, k])
                      for i in range(2 * n_t)] for k in range(n_u)])
    np.testing.assert_allclose(t, pair, rtol=0, atol=1e-12)
    y = np.linalg.norm(t, axis=1)
    kappa = 0.5
    delta = (a - np.sqrt(1.0 + qos.sigma**2)) / (2.0 * kappa * y)
    prog, layout = build_robust(ch, qos, UncertaintySpec(delta=delta, kappa=kappa),
                                perturbation_sigma=mode)
    users, coords, antennas = np.arange(n_u), np.arange(2 * n_t), np.arange(n_t)
    x = np.zeros(prog.num_vars)
    x[layout.b_re(antennas[:, None], users)] = B.real
    x[layout.b_im(antennas[:, None], users)] = B.imag
    x[layout.tau] = np.linalg.norm(B)
    x[layout.y(users)] = y
    x[layout.t(users[:, None], coords)] = t
    x[layout.rho(antennas)] = rho
    assert conic.residuals(prog, x).cone_violation <= 1e-12
    for col in [layout.t(k, i) for k in range(n_u) for i in range(2 * n_t)] + [
            layout.rho(j) for j in range(n_t)]:
        lowered = x.copy()
        lowered[col] -= 1e-9
        assert conic.residuals(prog, lowered).cone_violation > 5e-10


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


@pytest.mark.parametrize("n_u,n_t", [(1, 1), (2, 3), (3, 3), (4, 2), (8, 8)])
def test_program_shape_is_the_built_shape(n_u, n_t):
    channels = model.generate_channels(n_u, n_t, 0)
    qos = QosSpec.from_db([5.0] * n_u, [1.0] * n_u)
    unc = UncertaintySpec(delta=[0.015] * n_u)
    assert program_shape("nominal", n_t, n_u) == \
        build_nominal(channels, qos)[0].constraint_matrix.shape
    assert program_shape("robust", n_t, n_u) == \
        build_robust(channels, qos, unc)[0].constraint_matrix.shape
    assert program_shape("robust", 8, 8) == (1313, 273)


# Statuses and iteration counts of a few designs, pinned so that a solver
# change which moves convergence has to say so.  The last row is solved in
# the unit noise scale, so it matches its sigma = 1 design.
CONVERGENCE_PINS = [
    # method, n_t = n_u, channel seed, gamma (dB), sigma, delta, status, iterations
    ("nominal", 1, 1000, 5.0, 1.0, 0.0, SolveStatus.OPTIMAL, 8),
    ("robust", 1, 1000, 5.0, 1.0, 0.015, SolveStatus.OPTIMAL, 16),
    ("nominal", 3, 3000, 5.0, 1.0, 0.0, SolveStatus.OPTIMAL, 8),
    ("robust", 3, 3000, 5.0, 1.0, 0.015, SolveStatus.OPTIMAL, 13),
    ("robust", 3, 3000, 15.0, 1.0, 0.015, SolveStatus.PRIMAL_INFEASIBLE, 8),
    ("robust", 3, 7, 30.0, 1e-6, 0.015, SolveStatus.PRIMAL_INFEASIBLE, 8),
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


def regression_corpus():
    """(name, (method, request), status) for designs that once ended in
    NumericalFailure, all at 5 dB and sigma 1: tiny radii on
    generate_channels(n, n, 0), nominal n = 3 designs and delta-sweep
    robust designs on trial_rng(seed, trial) channels."""
    corpus = []
    for n in (3, 8):
        channels = model.generate_channels(n, n, 0)
        qos = QosSpec.from_db([5.0] * n, [1.0] * n)
        for delta in (1e-9, 1e-7, 1e-6, 1e-5, 3e-5):
            for mode in ("paper", "zero"):
                request = (channels, qos, UncertaintySpec(delta=[delta] * n), mode)
                corpus.append((f"n={n} delta={delta} {mode}", ("robust", request),
                               SolveStatus.OPTIMAL))
    qos = QosSpec.from_db([5.0] * 3, [1.0] * 3)
    for seed, trial in ((51830, 0), (52112, 0), (52283, 0), (52327, 1), (52358, 1)):
        channels = model.generate_channels(3, 3, montecarlo.trial_rng(seed, trial))
        corpus.append((f"nominal {seed}/{trial}", ("nominal", (channels, qos)),
                       SolveStatus.OPTIMAL))
    # the sweep of 52198 is Optimal at delta 0.01 and PrimalInfeasible from 0.04
    for seed, delta, status in ((52053, 0.04, SolveStatus.OPTIMAL),
                                (52198, 0.02, SolveStatus.PRIMAL_INFEASIBLE)):
        channels = model.generate_channels(3, 3, montecarlo.trial_rng(seed, 0))
        request = (channels, qos, UncertaintySpec(delta=[delta] * 3), "paper")
        corpus.append((f"sweep {seed} delta={delta}", ("robust", request), status))
    return corpus


def test_regression_corpus_meets_its_statuses():
    """Each of these ended in NumericalFailure while the KKT regularisation
    shifted every diagonal entry by 1e-12 times the largest one, which
    swamped the small entries near the end of the path."""
    corpus = regression_corpus()
    results = design_batch([request for _, request, _ in corpus])
    statuses = {name: result.status for (name, _, _), result in zip(corpus, results)}
    assert statuses == {name: status for name, _, status in corpus}


def test_large_sigma_nominal_is_scaled_unit_design():
    """At sigma = 1e6 the nominal 5 dB design on generate_channels(3, 3, 7)
    is the sigma = 1 design scaled by 1e6, reached in the same iterations.
    Solved in the caller's unit, it once ended in a false PrimalInfeasible
    after 19 iterations, and later took 16 iterations."""
    channels = model.generate_channels(3, 3, 7)
    unit = design_nominal(channels, QosSpec.from_db([5.0] * 3, [1.0] * 3))
    large = design_nominal(channels, QosSpec.from_db([5.0] * 3, [1e6] * 3))
    assert large.status == SolveStatus.OPTIMAL
    assert large.solution.iterations == unit.solution.iterations == 8
    assert large.power / 1e12 == pytest.approx(unit.power, rel=1e-8)
    sinr_db = 10.0 * np.log10(model.achieved_sinr(channels, large.precoder, [1e6] * 3))
    assert np.all(sinr_db >= 5.0 - 1e-6)


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 99), method=st.sampled_from(["nominal", "zero", "paper"]),
       log_scale=st.floats(-9.0, 6.0), log_c=st.floats(-4.0, 4.0),
       log_spread=st.lists(st.floats(0.0, 4.0), min_size=3, max_size=3))
@example(seed=25, method="zero", log_scale=0.0, log_c=2.0, log_spread=[0.0, 0.0, 0.0])
def test_design_does_not_depend_on_units(seed, method, log_scale, log_c, log_spread):
    """Noise times s and channels and radii times c (c = 1 for the "paper"
    mode, which is not homogeneous in the channels) leave the status as it
    is and scale the power by (s / c)^2.  The example ended in
    NumericalFailure after 30 iterations where c = 1 is Optimal, while the
    KKT regularisation shifted every diagonal entry by one amount."""
    channels = model.generate_channels(3, 3, seed)
    spread = 10.0 ** np.array(log_spread)
    s, c = 10.0 ** log_scale, 1.0 if method == "paper" else 10.0 ** log_c

    def run(c, s):
        qos = QosSpec.from_db([5.0] * 3, s * spread)
        if method == "nominal":
            return design_nominal(ChannelSet(c * channels.rows), qos)
        return design_robust(ChannelSet(c * channels.rows), qos,
                             UncertaintySpec(delta=[c * 0.015] * 3), method)

    unit, scaled = run(1.0, 1.0), run(c, s)
    assert scaled.status == unit.status
    assert unit.status in (SolveStatus.OPTIMAL, SolveStatus.PRIMAL_INFEASIBLE)
    if unit.status == SolveStatus.OPTIMAL:
        assert scaled.power * (c / s) ** 2 == pytest.approx(unit.power, rel=1e-6)


def test_paper_mode_power_depends_on_the_noise_unit():
    # (H, delta, sigma) -> (c H, c delta, c sigma) leaves every SINR and
    # every uncertainty set as it was; only the "zero" mode keeps its power
    channels = model.generate_channels(3, 3, 7)

    def power(mode, c):
        return design_robust(ChannelSet(c * channels.rows),
                             QosSpec.from_db([5.0] * 3, [c] * 3),
                             UncertaintySpec(delta=[c * 0.015] * 3), mode).power

    zero = [power("zero", c) for c in (0.1, 10.0)]
    paper = [power("paper", c) for c in (0.1, 10.0)]
    assert zero[1] == pytest.approx(zero[0], rel=1e-6)
    assert paper[1] > 2.0 * paper[0]


@pytest.mark.parametrize("factor,status", [(1.0 - 1e-8, SolveStatus.OPTIMAL),
                                           (1.0 - 1e-5, SolveStatus.NUMERICAL_FAILURE)])
def test_optimal_requires_every_target_met(solves, monkeypatch, factor, status):
    # a solver that reports Optimal for a shrunken precoder: the design
    # checks the SINR at the estimates and reports NumericalFailure when a
    # user misses its target by more than SINR_TOL
    solve = conic.solve

    def shrunk(program):
        solution = solve(program)
        return replace(solution, x=factor * solution.x)

    monkeypatch.setattr(conic, "solve", shrunk)
    result = design_nominal(model.generate_channels(3, 3, 4244),
                            QosSpec.from_db([5.0] * 3, [1.0] * 3))
    assert result.solution.status == SolveStatus.OPTIMAL
    assert result.status == status
    assert (result.precoder is None) == (status != SolveStatus.OPTIMAL)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("sigma", [1e-170, 1e160])
def test_nan_sinr_is_not_a_met_target(sigma):
    # the solver is Optimal at the unit noise, but scaled back to these
    # noise units the SINR underflows to 0 / 0 or overflows to inf - inf;
    # a NaN compares False with its target and must not pass the check
    channels = model.generate_channels(3, 3, 7)
    qos = QosSpec.from_db([5.0] * 3, [sigma] * 3)
    result = design_nominal(channels, qos)
    assert result.solution.status == SolveStatus.OPTIMAL
    precoder = extract_precoder(result.solution, build_nominal(channels, qos)[1])
    assert np.isnan(model.achieved_sinr(channels, precoder, qos.sigma)).any()
    assert result.status == SolveStatus.NUMERICAL_FAILURE
    assert result.precoder is None
