"""Cone program validation, solving, and the independent residual audit."""

import numpy as np
import pytest

from misobeam.conic import (
    ConeProgram,
    ConeProgramError,
    Nonnegative,
    SecondOrder,
    SolverSettings,
    SolveStatus,
    Zero,
    residuals,
    solve,
    validate,
)
from misobeam.conic import _KktPlan, _Scaling, _split_rows


def soc_min_norm_program():
    # minimize tau s.t. (tau, 3, 4) in SecondOrder(3); optimum tau = 5
    return ConeProgram(
        num_vars=1,
        objective=[1.0],
        constraint_matrix=[[-1.0], [0.0], [0.0]],
        offset=[0.0, 3.0, 4.0],
        cones=[SecondOrder(3)],
    )


def least_norm_program(C, d):
    # minimize ||x|| s.t. C x = d, via the epigraph (t; x) in SecondOrder
    p, n = C.shape
    A = np.zeros((p + n + 1, n + 1))
    A[:p, :n] = C
    A[p, n] = -1.0
    A[p + 1 :, :n] = -np.eye(n)
    b = np.concatenate([d, np.zeros(n + 1)])
    c = np.zeros(n + 1)
    c[n] = 1.0
    return ConeProgram(n + 1, c, A, b, [Zero(p), SecondOrder(n + 1)])


class TestValidate:
    def test_consistent_program_passes(self):
        prog = ConeProgram(2, [1.0, 0.0], np.zeros((3, 2)), np.zeros(3),
                           [Zero(1), Nonnegative(2)])
        validate(prog)

    def test_cone_dimension_mismatch(self):
        prog = ConeProgram(2, [1.0, 0.0], np.zeros((3, 2)), np.zeros(3),
                           [Zero(1), Nonnegative(3)])
        with pytest.raises(ConeProgramError, match="sum to 4"):
            validate(prog)

    def test_nonfinite_offset(self):
        prog = ConeProgram(1, [1.0], [[1.0]], [np.inf], [Nonnegative(1)])
        with pytest.raises(ConeProgramError, match="non-finite"):
            validate(prog)

    def test_empty_problem(self):
        prog = ConeProgram(0, [], np.zeros((0, 1)), [], [])
        with pytest.raises(ConeProgramError, match="num_vars"):
            validate(prog)

    def test_soc_needs_dim_one(self):
        prog = ConeProgram(1, [1.0], np.zeros((0, 1)), [], [SecondOrder(0)])
        with pytest.raises(ConeProgramError, match="SecondOrder"):
            validate(prog)

    def test_solve_rejects_invalid(self):
        prog = ConeProgram(2, [1.0, 0.0], np.zeros((3, 2)), np.zeros(3),
                           [Zero(4)])
        with pytest.raises(ConeProgramError):
            solve(prog)

    def test_program_arrays_are_readonly(self):
        prog = soc_min_norm_program()
        with pytest.raises(ValueError):
            prog.objective[0] = 2.0


class TestSolveAnalytic:
    def test_soc_norm_of_constant(self):
        sol = solve(soc_min_norm_program())
        assert sol.status == SolveStatus.OPTIMAL
        assert abs(sol.objective_value - 5.0) <= 1e-6
        assert sol.iterations < 50

    def test_least_norm_hyperplane(self):
        # min ||x|| s.t. (1,2,2).x = 1: optimum 1/3 at x = (1,2,2)/9
        sol = solve(least_norm_program(np.array([[1.0, 2.0, 2.0]]), np.array([1.0])))
        assert sol.status == SolveStatus.OPTIMAL
        assert abs(sol.objective_value - 1.0 / 3.0) <= 1e-6
        np.testing.assert_allclose(sol.x[:3], np.array([1.0, 2.0, 2.0]) / 9.0, atol=1e-6)

    def test_contradictory_halflines_infeasible(self):
        prog = ConeProgram(1, [0.0], [[-1.0], [1.0]], [-1.0, 0.0],
                           [Nonnegative(1), Nonnegative(1)])
        sol = solve(prog)
        assert sol.status == SolveStatus.PRIMAL_INFEASIBLE

    def test_unbounded_reported_as_dual_infeasible(self):
        prog = ConeProgram(1, [-1.0], [[-1.0]], [0.0], [Nonnegative(1)])
        assert solve(prog).status == SolveStatus.DUAL_INFEASIBLE

    def test_max_iterations_status_not_exception(self):
        sol = solve(soc_min_norm_program(), SolverSettings(max_iter=1))
        assert sol.status == SolveStatus.MAX_ITERATIONS

    def test_zero_dim_cones_skipped(self):
        prog = ConeProgram(
            1, [1.0],
            [[-1.0], [0.0], [0.0], [0.0]],
            [0.0, 0.0, 3.0, 4.0],
            [Zero(0), Nonnegative(0), SecondOrder(4)],
        )
        sol = solve(prog)
        assert sol.status == SolveStatus.OPTIMAL
        assert abs(sol.objective_value - 5.0) <= 1e-6


class TestRandomizedLeastNorm:
    def test_closed_form_agreement(self):
        rng = np.random.default_rng(1234)
        for _ in range(20):
            p = int(rng.integers(1, 5))
            n = int(p + rng.integers(1, 6))
            C = rng.normal(size=(p, n))
            d = rng.normal(size=p)
            x_star = C.T @ np.linalg.solve(C @ C.T, d)
            prog = least_norm_program(C, d)
            sol = solve(prog)
            assert sol.status == SolveStatus.OPTIMAL
            assert abs(sol.objective_value - np.linalg.norm(x_star)) <= 1e-6
            assert sol.iterations < 50
            assert residuals(prog, sol.x).cone_violation <= 1e-8


class TestResiduals:
    def test_strict_interior_has_zero_violation(self):
        assert residuals(soc_min_norm_program(), [6.0]).cone_violation == 0.0

    def test_soc_shortfall_matches_projection_formula(self):
        # slack (4, 3, 4): axis shortfall ||(3, 4)|| - 4 = 1
        res = residuals(soc_min_norm_program(), [4.0])
        assert res.cone_violation == pytest.approx(np.hypot(3.0, 4.0) - 4.0)
        assert res.worst_row == 0

    def test_wrong_length_rejected(self):
        with pytest.raises(ConeProgramError, match="length"):
            residuals(soc_min_norm_program(), [1.0, 2.0])

    def test_zero_and_nonneg_blocks(self):
        prog = ConeProgram(1, [0.0], [[1.0], [-1.0]], [2.0, 0.0],
                           [Zero(1), Nonnegative(1)])
        res = residuals(prog, [1.0])  # zero-block slack = 1, nonneg slack = 1
        assert res.cone_violation == pytest.approx(1.0)
        assert res.worst_row == 0


def random_feasible_socp(rng):
    n = int(rng.integers(2, 8))
    dims = [int(rng.integers(2, 5)) for _ in range(int(rng.integers(1, 3)))]
    nneg = int(rng.integers(1, 4))
    m = sum(dims) + nneg
    A = rng.normal(size=(m, n))
    x0 = rng.normal(size=n)
    blocks = []
    for d in dims:
        v = rng.normal(size=d)
        v[0] = np.linalg.norm(v[1:]) + abs(v[0]) + 0.1
        blocks.append(v)
    blocks.append(rng.uniform(0.1, 1.0, size=nneg))
    b = A @ x0 + np.concatenate(blocks)
    # bounded objective: c = -A' w with w interior to the dual cone, so the
    # objective is nondecreasing along every recession direction
    w = []
    for d in dims:
        v = rng.normal(size=d)
        v[0] = np.linalg.norm(v[1:]) + abs(v[0]) + 0.1
        w.append(v)
    w.append(rng.uniform(0.1, 1.0, size=nneg))
    c = -A.T @ np.concatenate(w)
    cones = [SecondOrder(d) for d in dims] + [Nonnegative(nneg)]
    return ConeProgram(n, c, A, b, cones)


class TestSolverInvariants:
    def test_optimal_solutions_pass_independent_audit(self):
        rng = np.random.default_rng(77)
        solved = 0
        for _ in range(25):
            prog = random_feasible_socp(rng)
            sol = solve(prog)
            assert sol.status == SolveStatus.OPTIMAL
            assert residuals(prog, sol.x).cone_violation <= 1e-8
            assert sol.duality_gap <= 1e-8
            solved += 1
        assert solved == 25

    def test_objective_scaling(self):
        # a least-norm instance has a unique argmin, so both the value and
        # the minimizer must be stable under positive objective scaling
        rng = np.random.default_rng(5)
        C = rng.normal(size=(2, 5))
        d = rng.normal(size=2)
        prog = least_norm_program(C, d)
        sol = solve(prog)
        scaled = ConeProgram(prog.num_vars, 7.5 * prog.objective,
                             prog.constraint_matrix, prog.offset, prog.cones)
        sol_scaled = solve(scaled)
        assert sol_scaled.status == SolveStatus.OPTIMAL
        assert sol_scaled.objective_value == pytest.approx(7.5 * sol.objective_value,
                                                           rel=1e-6)
        np.testing.assert_allclose(sol_scaled.x, sol.x, atol=1e-7 * (1 + np.abs(sol.x).max()))


def mixed_structure_program(rng):
    """Every cone kind, out of order: second-order blocks of dimensions 3
    and 4 whose equal-dimension blocks touch different numbers of columns,
    a block with an all-zero row, nonnegative rows and a SecondOrder(1)."""
    n = 7
    # (cone, columns each row of the block may touch, all-zero row or None)
    spec = [
        (SecondOrder(4), [0, 1, 2], None),
        (Nonnegative(2), [3, 4], None),
        (SecondOrder(3), [0, 2, 5, 6], None),
        (SecondOrder(1), [1, 4, 6], None),
        (SecondOrder(4), [1, 2, 3, 4, 5], 2),
        (SecondOrder(3), [5, 6], None),
        (SecondOrder(4), [4, 5, 6], None),
    ]
    blocks = []
    for cone, cols, zero_row in spec:
        block = np.zeros((cone.dim, n))
        block[:, cols] = rng.normal(size=(cone.dim, len(cols)))
        if zero_row is not None:
            block[zero_row] = 0.0
        blocks.append(block)
    A = np.vstack(blocks)
    return ConeProgram(n, rng.normal(size=n), A, rng.normal(size=A.shape[0]),
                       [cone for cone, _, _ in spec])


def interior_point(layout, rng):
    u = np.empty(layout.m)
    u[: layout.m_lp] = rng.uniform(0.1, 2.0, size=layout.m_lp)
    for block in layout.blocks(u):
        block[:, 1:] = rng.normal(size=(block.shape[0], block.shape[1] - 1))
        block[:, 0] = np.linalg.norm(block[:, 1:], axis=1) + rng.uniform(0.01, 1.0)
    return u


def nt_scaling_inverse(s, z):
    """Dense W^-1 of one cone block, built from the textbook NT formulas."""
    if s.size == 1:
        return np.array([[np.sqrt(z[0] / s[0])]])
    J = np.diag(np.r_[1.0, -np.ones(s.size - 1)])
    a, b = np.sqrt(s @ J @ s), np.sqrt(z @ J @ z)
    sbar, zbar = s / a, z / b
    gamma = np.sqrt((1.0 + sbar @ zbar) / 2.0)
    v = J @ (sbar + J @ zbar) / (2.0 * gamma)  # J wbar
    V = np.empty((s.size, s.size))
    V[0, 0], V[0, 1:], V[1:, 0] = v[0], v[1:], v[1:]
    V[1:, 1:] = np.eye(s.size - 1) + np.outer(v[1:], v[1:]) / (1.0 + v[0])
    return V / np.sqrt(a / b)


class TestStructuredKkt:
    def test_gram_matches_dense_reference(self):
        rng = np.random.default_rng(2024)
        E, f, G, h, layout = _split_rows(mixed_structure_program(rng))
        assert E.shape[0] == 0
        for _ in range(5):
            s, z = interior_point(layout, rng), interior_point(layout, rng)
            gram = _KktPlan(E, G, layout).gram(_Scaling(layout, s, z))

            spans = [(r, 1) for r in range(layout.m_lp)]
            spans += [(start + i * dim, dim) for start, count, dim in layout.groups
                      for i in range(count)]
            W_inv = np.zeros((layout.m, layout.m))
            for start, dim in spans:
                blk = slice(start, start + dim)
                W_inv[blk, blk] = nt_scaling_inverse(s[blk], z[blk])
                # the reference is the NT scaling: W z = W^-1 s
                np.testing.assert_allclose(
                    np.linalg.solve(W_inv[blk, blk], z[blk]), W_inv[blk, blk] @ s[blk],
                    rtol=1e-10, atol=1e-12)
            scaled = W_inv @ G
            reference = scaled.T @ scaled
            assert np.abs(gram - reference).max() <= 1e-12 * np.abs(reference).max()

    def test_one_pass_square_scaling_matches_two_applies(self):
        rng = np.random.default_rng(7)
        E, f, G, h, layout = _split_rows(mixed_structure_program(rng))
        scaling = _Scaling(layout, interior_point(layout, rng), interior_point(layout, rng))
        u = rng.normal(size=layout.m)
        for invert in (False, True):
            twice = scaling.apply(scaling.apply(u, invert), invert)
            np.testing.assert_allclose(scaling.apply_sq(u, invert), twice,
                                       rtol=1e-12, atol=1e-12 * np.abs(twice).max())

    def test_equality_rows_closed_form(self):
        # min ||x - x0|| s.t. a'x = beta and x >= -10 (inactive), with the
        # Zero row between the cone rows: x* = x0 - (a'x0 - beta) a / ||a||^2
        rng = np.random.default_rng(99)
        n = 5
        for _ in range(5):
            a, x0, beta = rng.normal(size=n), rng.normal(size=n), float(rng.normal())
            A = np.zeros((2 * n + 2, n + 1))
            A[:n, :n] = -np.eye(n)
            A[n, :n] = a
            A[n + 1, n] = -1.0
            A[n + 2 :, :n] = -np.eye(n)
            b = np.concatenate([10.0 * np.ones(n), [beta, 0.0], -x0])
            c = np.zeros(n + 1)
            c[n] = 1.0
            prog = ConeProgram(n + 1, c, A, b,
                               [Nonnegative(n), Zero(1), SecondOrder(n + 1)])
            sol = solve(prog)
            gap = a @ x0 - beta
            assert sol.status == SolveStatus.OPTIMAL
            assert sol.objective_value == pytest.approx(abs(gap) / np.linalg.norm(a),
                                                        abs=1e-6)
            # feasible x has ||x - x0||^2 = ||x - x*||^2 + t*^2, so an objective
            # gap eps leaves the minimizer off by up to sqrt(2 t* eps)
            np.testing.assert_allclose(sol.x[:n], x0 - gap * a / (a @ a), atol=1e-4)
            assert residuals(prog, sol.x).cone_violation <= 1e-8
