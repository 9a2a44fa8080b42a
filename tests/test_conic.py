"""Cone program validation, solving, and the independent residual audit."""

import concurrent.futures
import dataclasses
import sys
import threading
import weakref
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st

from misobeam import conic, design, model
from misobeam.conic import (
    ConeProgram,
    ConeProgramError,
    Nonnegative,
    SecondOrder,
    SolverSettings,
    SolveStatus,
    residuals,
    solve,
    solve_batch,
    validate,
)
from misobeam.conic import (
    _Group,
    _jordan_product,
    _jordan_solve,
    _KktPlan,
    _KktSolver,
    _margin,
    _max_step,
    _reduce,
    _Scaling,
)


def soc_min_norm_program():
    # minimize tau s.t. (tau, 3, 4) in SecondOrder(3); optimum tau = 5
    return ConeProgram(
        num_vars=1,
        objective=[1.0],
        constraint_matrix=[[-1.0], [0.0], [0.0]],
        offset=[0.0, 3.0, 4.0],
        cones=[SecondOrder(3)],
    )


def no_rows_program(c):
    # minimize c'x with no cone rows: every x is feasible
    return ConeProgram(len(c), c, np.zeros((0, len(c))), [], [])


def equality_rows(C, d):
    """The rows (A, b) of C x = d as two Nonnegative blocks in the form
    b - A x >= 0: C x - d >= 0, then d - C x >= 0."""
    return np.vstack([-C, C]), np.concatenate([-d, d])


def least_norm_program(C, d):
    # minimize ||x|| s.t. C x = d, via the epigraph (t; x) in SecondOrder
    p, n = C.shape
    A = np.zeros((2 * p + n + 1, n + 1))
    A[: 2 * p, :n], b = equality_rows(C, d)
    A[2 * p, n] = -1.0
    A[2 * p + 1 :, :n] = -np.eye(n)
    b = np.concatenate([b, np.zeros(n + 1)])
    c = np.zeros(n + 1)
    c[n] = 1.0
    return ConeProgram(n + 1, c, A, b, [Nonnegative(2 * p), SecondOrder(n + 1)])


class TestValidate:
    def test_consistent_program_passes(self):
        prog = ConeProgram(2, [1.0, 0.0], np.zeros((3, 2)), np.zeros(3),
                           [Nonnegative(1), Nonnegative(2)])
        validate(prog)

    def test_cone_dimension_mismatch(self):
        prog = ConeProgram(2, [1.0, 0.0], np.zeros((3, 2)), np.zeros(3),
                           [Nonnegative(1), Nonnegative(3)])
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
                           [Nonnegative(4)])
        with pytest.raises(ConeProgramError):
            solve(prog)

    def test_unknown_cone_type_rejected(self):
        # an equality block of another solver, or of an earlier version
        # of this one, is not a cone this solver takes
        @dataclasses.dataclass(frozen=True)
        class Zero:
            dim: int

        prog = ConeProgram(2, [1.0, 0.0], np.ones((1, 2)), np.ones(1), [Zero(1)])
        for check in (validate, solve):
            with pytest.raises(ConeProgramError, match="unknown cone type Zero"):
                check(prog)

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

    def test_variable_no_cone_row_touches(self):
        # x2 leaves a zero on the Gram diagonal, so the KKT regularisation
        # must shift that entry by more than a multiple of itself
        A, b, cones = [[-1.0, 0.0]], [-1.0], [Nonnegative(1)]
        sol = solve(ConeProgram(2, [1.0, 0.0], A, b, cones))
        assert sol.status == SolveStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(1.0, abs=1e-6)
        unbounded = solve(ConeProgram(2, [1.0, 1.0], A, b, cones))
        assert unbounded.status == SolveStatus.DUAL_INFEASIBLE

    def test_max_iterations_status_not_exception(self):
        # the count is the iterations run, not that of the best iterate
        for max_iter in (1, 3):
            sol = solve(soc_min_norm_program(), SolverSettings(max_iter=max_iter))
            assert sol.status == SolveStatus.MAX_ITERATIONS
            assert sol.iterations == max_iter

    @pytest.mark.parametrize("field, value", [
        ("feas_tol", 0.0), ("feas_tol", -1.0), ("feas_tol", np.nan), ("feas_tol", np.inf),
        ("feas_tol", "1e-8"), ("gap_tol", 0.0), ("gap_tol", np.nan), ("gap_tol", -np.inf),
        ("max_iter", 0), ("max_iter", -1), ("max_iter", 2.5), ("max_iter", True),
        ("max_iter", "200")])
    def test_settings_reject_bad_values(self, field, value):
        with pytest.raises(ValueError, match=field):
            SolverSettings(**{field: value})

    def test_equality_rows_only(self):
        # no cone rows at all: every x is optimal for c = 0, and c = (1, 0)
        # is unbounded below along (-1, 0); both are decided before the loop
        sol = solve(no_rows_program([0.0, 0.0]))
        assert sol.status == SolveStatus.OPTIMAL
        assert sol.objective_value == 0.0 and sol.iterations == 0
        unbounded = solve(no_rows_program([1.0, 0.0]))
        assert unbounded.status == SolveStatus.DUAL_INFEASIBLE
        assert unbounded.iterations == 0

    def test_zero_dim_cones_skipped(self):
        prog = ConeProgram(
            1, [1.0],
            [[-1.0], [0.0], [0.0], [0.0]],
            [0.0, 0.0, 3.0, 4.0],
            [Nonnegative(0), SecondOrder(4)],
        )
        sol = solve(prog)
        assert sol.status == SolveStatus.OPTIMAL
        assert abs(sol.objective_value - 5.0) <= 1e-6


class TestEqualityRows:
    """Equalities written as two Nonnegative rows each, through the public
    solve: programs whose feasible set has no interior."""

    def test_inconsistent_rows_infeasible(self):
        # x1 + x2 = 1 and x1 + x2 = 2
        prog = least_norm_program(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 2.0]))
        assert solve(prog).status == SolveStatus.PRIMAL_INFEASIBLE

    def test_duplicate_rows(self):
        prog = least_norm_program(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 1.0]))
        sol = solve(prog)
        assert sol.status == SolveStatus.OPTIMAL
        np.testing.assert_allclose(sol.x[:2], [0.5, 0.5], atol=1e-6)
        assert sol.objective_value == pytest.approx(np.sqrt(0.5), abs=1e-6)
        assert residuals(prog, sol.x).cone_violation <= 1e-8

    @pytest.mark.parametrize("floor,status", [(0.5, SolveStatus.OPTIMAL),
                                              (1.5, SolveStatus.PRIMAL_INFEASIBLE)])
    def test_fully_determined_x(self, floor, status):
        # x = (1, 2) by the equality rows; x1 >= floor decides feasibility
        E, f = equality_rows(np.eye(2), np.array([1.0, 2.0]))
        A = np.vstack([E, [[-1.0, 0.0], [0.0, -1.0]]])
        b = np.concatenate([f, [-floor, 0.0]])
        prog = ConeProgram(2, [3.0, -1.0], A, b, [Nonnegative(4), Nonnegative(2)])
        sol = solve(prog)
        assert sol.status == status
        if status == SolveStatus.OPTIMAL:
            np.testing.assert_allclose(sol.x, [1.0, 2.0], atol=1e-6)
            assert sol.objective_value == pytest.approx(1.0, abs=1e-6)
            assert residuals(prog, sol.x).cone_violation <= 1e-8

    def test_zero_dim_block_beside_equality_rows(self):
        # min ||x|| s.t. (1, 2, 2).x = 1, with empty blocks around the rows
        prog = least_norm_program(np.array([[1.0, 2.0, 2.0]]), np.array([1.0]))
        prog = ConeProgram(prog.num_vars, prog.objective, prog.constraint_matrix,
                           prog.offset, [Nonnegative(0), *prog.cones, Nonnegative(0)])
        sol = solve(prog)
        assert sol.status == SolveStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(1.0 / 3.0, abs=1e-6)
        np.testing.assert_allclose(sol.x[:3], np.array([1.0, 2.0, 2.0]) / 9.0, atol=1e-6)


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

    def test_nonneg_blocks(self):
        prog = ConeProgram(1, [0.0], [[-1.0], [1.0]], [2.0, 0.0],
                           [Nonnegative(1), Nonnegative(1)])
        res = residuals(prog, [1.0])  # slacks 3 and -1
        assert res.cone_violation == pytest.approx(1.0)
        assert res.worst_row == 1


def cone_interior(rng, dims, nneg):
    """A point strictly inside SecondOrder(d) for each d in dims, followed
    by Nonnegative(nneg)."""
    blocks = []
    for d in dims:
        v = rng.normal(size=d)
        v[0] = np.linalg.norm(v[1:]) + abs(v[0]) + 0.1
        blocks.append(v)
    blocks.append(rng.uniform(0.1, 1.0, size=nneg))
    return np.concatenate(blocks)


def random_feasible_socp(rng):
    n = int(rng.integers(2, 8))
    dims = [int(rng.integers(2, 5)) for _ in range(int(rng.integers(1, 3)))]
    nneg = int(rng.integers(1, 4))
    m = sum(dims) + nneg
    A = rng.normal(size=(m, n))
    x0 = rng.normal(size=n)
    b = A @ x0 + cone_interior(rng, dims, nneg)
    # bounded objective: c = -A' w with w interior to the dual cone, so the
    # objective is nondecreasing along every recession direction
    c = -A.T @ cone_interior(rng, dims, nneg)
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
    """Every cone kind, out of order: second-order blocks of dimensions 2,
    3, 4 and 19, equal-dimension blocks touching different numbers of
    columns, a block with an all-zero row, nonnegative rows and a
    SecondOrder(1)."""
    n = 7
    # (cone, columns each row of the block may touch, all-zero row or None)
    spec = [
        (SecondOrder(4), [0, 1, 2], None),
        (Nonnegative(2), [3, 4], None),
        (SecondOrder(3), [0, 2, 5, 6], None),
        (SecondOrder(19), [0, 3, 6], None),
        (SecondOrder(1), [1, 4, 6], None),
        (SecondOrder(4), [1, 2, 3, 4, 5], 2),
        (SecondOrder(2), [2, 5], None),
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


def projection_program(a, x0, beta):
    """min ||x - x0|| s.t. a'x = beta and x >= -10 (inactive), with the
    equality's two rows between the other cone rows."""
    n = a.size
    A = np.zeros((2 * n + 3, n + 1))
    A[:n, :n] = -np.eye(n)
    A[n : n + 2, :n], equality = equality_rows(a[None, :], np.array([beta]))
    A[n + 2, n] = -1.0
    A[n + 3 :, :n] = -np.eye(n)
    b = np.concatenate([10.0 * np.ones(n), equality, [0.0], -x0])
    c = np.zeros(n + 1)
    c[n] = 1.0
    return ConeProgram(n + 1, c, A, b, [Nonnegative(n), Nonnegative(2), SecondOrder(n + 1)])


def split(program):
    """The cone rows G of a program as the solver permutes them, dense
    (from the CSR form the KKT plan holds), and the KKT plan of the
    program alone, whose ``layout`` the cone kernels take."""
    pattern, *values = _reduce(program)
    plan = _KktPlan([_Group.of(pattern, [(0, *values)])])
    return plan.G.toarray(), plan


def unit_spans(layout):
    """(first row, dimension) of each cone unit, one unit at a time."""
    spans, start = [], 0
    for dim in layout.dims.tolist():
        spans.append((start, dim))
        start += dim
    assert start == len(layout.head)
    return spans


def interior_point(layout, rng):
    u = np.empty(len(layout.head))
    for start, dim in unit_spans(layout):
        tail = rng.normal(size=dim - 1)
        u[start + 1 : start + dim] = tail
        u[start] = np.linalg.norm(tail) + rng.uniform(0.01, 1.0)
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


def block_diagonal(layout, block_of):
    """The m x m block-diagonal matrix with block_of(rows) on each unit."""
    M = np.zeros((len(layout.head),) * 2)
    for start, dim in unit_spans(layout):
        rows = slice(start, start + dim)
        M[rows, rows] = block_of(rows)
    return M


def arrow(u):
    """Arw(u), the matrix with Arw(u) v = u o v on one cone block."""
    A = u[0] * np.eye(u.size)
    A[0, :], A[:, 0] = u, u
    return A


def block_step(u, du):
    """Largest alpha with u + alpha du in one cone block: the first positive
    root of (u0 + alpha du0)^2 = ||u1 + alpha du1||^2, taken from the
    cancellation-free pair q / a, c / q of a alpha^2 + b alpha + c = 0."""
    if u.size == 1:
        return -u[0] / du[0] if du[0] < 0 else np.inf
    J = np.diag(np.r_[1.0, -np.ones(u.size - 1)])
    a, b, c = du @ J @ du, 2.0 * (u @ J @ du), u @ J @ u
    disc = b * b - 4.0 * a * c
    if disc < 0:
        return np.inf
    q = -(b + np.copysign(np.sqrt(disc), b)) / 2.0
    return min((r for r in (q / a, c / q) if r > 0), default=np.inf)


def exact_block_step(u, du):
    """block_step in exact rational arithmetic with a 60-digit square root."""
    U, D = [Fraction(v) for v in u], [Fraction(v) for v in du]

    def jdot(p, q):
        return p[0] * q[0] - sum(pi * qi for pi, qi in zip(p[1:], q[1:]))

    a, half_b, c = jdot(D, D), jdot(U, D), jdot(U, U)
    disc = half_b * half_b - a * c
    if disc < 0:
        return np.inf
    with localcontext() as ctx:
        ctx.prec = 60

        def dec(r):
            return Decimal(r.numerator) / Decimal(r.denominator)

        root = dec(disc).sqrt()
        roots = [(-dec(half_b) + sign * root) / dec(a) for sign in (-1, 1)]
        return float(min((r for r in roots if r > 0), default=Decimal("Infinity")))


def assert_close(actual, reference, rtol=1e-12):
    assert np.abs(actual - reference).max() <= rtol * np.abs(reference).max()


class TestFlatConeKernels:
    """The segmented kernels against per-block textbook formulas."""

    def setup_method(self):
        self.rng = np.random.default_rng(31)
        self.layout = split(mixed_structure_program(self.rng))[1].layout
        assert sorted(set(self.layout.dims.tolist())) == [1, 2, 3, 4, 19]
        assert len(self.layout.lp) == 3

    def points(self):
        for _ in range(5):
            yield (interior_point(self.layout, self.rng),
                   interior_point(self.layout, self.rng))

    def test_scaling_and_squares(self):
        layout = self.layout
        for s, z in self.points():
            scaling = _Scaling(layout, np.column_stack([s, z]))
            W_inv = block_diagonal(layout, lambda r: nt_scaling_inverse(s[r], z[r]))
            W = np.linalg.inv(W_inv)
            assert_close(scaling.apply(z), W_inv @ s)  # lambda = W z = W^-1 s
            m = len(layout.head)
            for u in (self.rng.normal(size=m), self.rng.normal(size=(m, 2))):
                for invert, M in ((False, W), (True, W_inv)):
                    assert_close(scaling.apply(u, invert), M @ u)
                    assert_close(scaling.apply_sq(u, invert), M @ M @ u)

    def test_jordan_product_and_division(self):
        layout = self.layout
        for u, v in self.points():
            arw = block_diagonal(layout, lambda r: arrow(u[r]))
            assert_close(_jordan_product(layout, u, v), arw @ v)
            assert_close(_jordan_solve(layout, u, v), np.linalg.solve(arw, v))

    def test_stacked_step_length_and_margin(self):
        layout = self.layout
        spans = unit_spans(layout)
        for s, z in self.points():
            ds, dz = self.rng.normal(size=(2, len(layout.head)))
            reference = min(block_step(u[a : a + d], du[a : a + d])
                            for u, du in ((s, ds), (z, dz)) for a, d in spans)
            with np.errstate(all="ignore"):  # as the solver loop calls it
                step = _max_step(layout, np.column_stack([s, z]), np.column_stack([ds, dz]))
            assert np.isfinite(reference)
            assert abs(step - reference) <= 1e-12 * reference
            margin = min(u[a] - np.linalg.norm(u[a + 1 : a + d])
                         for u in (s, z) for a, d in spans)
            assert abs(_margin(layout, np.column_stack([s, z])) - margin) <= 1e-12
            # a direction into the cone never leaves it
            with np.errstate(all="ignore"):
                assert _max_step(layout, np.column_stack([s, z]),
                                 np.column_stack([s, z])) == np.inf


    def test_near_tangent_step_length(self):
        # u sits 6e-7 inside the boundary and du leaves almost along the
        # surface, so the textbook root (-c1 - sqrt(c1^2 - c2 c0)) / c2
        # subtracts nearly equal numbers.  Every entry is chosen so that the
        # coefficients c2, c1, c0 are exact in floating point: the only
        # rounding left is the formula's own
        layout = split(ConeProgram(1, [1.0], [[-1.0], [0.0], [0.0], [0.0]], np.zeros(4),
                                   [SecondOrder(4)]))[1].layout
        u = np.array([5.0 + 2.0**-24, 3.0, 4.0, 0.0])
        du = np.array([0.0, 3.0, 4.0, 1.0])
        exact = exact_block_step(u, du)
        assert abs(_max_step(layout, u, du) - exact) <= 1e-14 * exact
        assert abs(block_step(u, du) - exact) <= 1e-14 * exact
        J = np.diag([1.0, -1.0, -1.0, -1.0])
        c2, c1, c0 = du @ J @ du, u @ J @ du, u @ J @ u
        textbook = (-c1 - np.sqrt(c1 * c1 - c2 * c0)) / c2
        assert abs(textbook - exact) > 1e-10 * exact


class TestStructuredKkt:
    def test_gram_matches_dense_reference(self):
        # every cone kind, and the design programs, whose patterns take one
        # product for some classes and sum the others' terms
        rng = np.random.default_rng(2024)
        programs = [mixed_structure_program(rng)]
        for n in (1, 3, 8):
            programs.append(design_program("nominal", n, 0, 5.0, 0.0))
            programs += [design_program(kind, n, 0, 5.0, delta)
                         for kind in ("paper", "zero") for delta in (0.015, 0.0)]
        for program in programs:
            G, plan = split(program)
            layout = plan.layout
            for _ in range(5):
                s, z = interior_point(layout, rng), interior_point(layout, rng)
                scaling = _Scaling(layout, np.column_stack([s, z]))
                gram = plan.gram(scaling)[0]

                scaled = np.empty_like(G)
                for start, dim in unit_spans(layout):
                    rows = slice(start, start + dim)
                    W_inv = nt_scaling_inverse(s[rows], z[rows])
                    # the reference is the NT scaling: W z = W^-1 s
                    np.testing.assert_allclose(np.linalg.solve(W_inv, z[rows]),
                                               W_inv @ s[rows], rtol=1e-10, atol=1e-12)
                    scaled[rows] = W_inv @ G[rows]
                reference = scaled.T @ scaled
                assert np.abs(gram - reference).max() <= 1e-12 * np.abs(reference).max()

    @pytest.mark.parametrize("kind, n, summed", [
        ("nominal", 8, 0), ("paper", 8, 6928), ("zero", 8, 6928), ("paper", 3, 618),
        ("nominal", 1, 0), ("paper", 1, 0)])
    def test_classes_with_a_small_union_take_one_product(self, kind, n, summed):
        # a layout class whose units' column supports have a union U with
        # |U|^2 <= units * s^2 takes one product over U; the others one per
        # unit, whose terms the bincount sums (``summed`` of them)
        G, plan = split(design_program(kind, n, 0, 5.0, 0.015))
        pattern = plan.groups[0].pattern
        terms = 0
        for _, units, dim, start, at, products, lo, hi in pattern.classes:
            # the support size of each unit of the class, from the dense G
            supports = {np.count_nonzero(G[row : row + dim].any(axis=0))
                        for row in range(start, start + units * dim, dim)}
            assert len(supports) == 1
            s = supports.pop()
            union = np.flatnonzero(np.any(G[start : start + units * dim] != 0, axis=0))
            stacked = len(union) ** 2 <= units * s * s
            assert products == (1 if stacked else units)
            assert at.shape == (units, dim, len(union) if stacked else s)
            assert hi - lo == (len(union) ** 2 if stacked else units * s * s)
            terms += 0 if stacked else hi - lo
        assert terms == summed

    def test_csr_forms_are_scipys(self):
        # a batch's products round as its members' solo products because
        # each member's CSR rows keep one order, scipy's: no explicit
        # zeros (all-zero rows, delta 0) and columns ascending in each row,
        # in the member's values and its pattern's indices and in the plan
        rng = np.random.default_rng(41)
        programs = [mixed_structure_program(rng), random_feasible_socp(rng)]
        for n in (1, 3, 8):
            programs.append(design_program("nominal", n, 0, 5.0, 0.0))
            programs += [design_program(kind, n, 0, 5.0, delta)
                         for kind in ("paper", "zero") for delta in (0.0, 0.015)]
        for program in programs:
            plan = split(program)[1]
            group = plan.groups[0]
            values, pattern = group.data[0], group.pattern
            reference = scipy.sparse.csr_array(program.constraint_matrix[pattern.rows])
            for data, (indices, indptr), matrix, theirs in (
                    (values, pattern.csr, plan.G, reference),
                    (values[pattern.t_order], pattern.csr_t, plan.Gt,
                     reference.T.tocsr())):
                theirs = (theirs.data, theirs.indices, theirs.indptr)
                for a, b in zip((data, indices, indptr), theirs):
                    assert a.dtype == b.dtype and np.array_equal(a, b)
                for a, b in zip((matrix.data, matrix.indices, matrix.indptr), theirs):
                    assert np.array_equal(a, b)

    def test_one_pass_square_scaling_matches_two_applies(self):
        rng = np.random.default_rng(7)
        layout = split(mixed_structure_program(rng))[1].layout
        scaling = _Scaling(layout, np.column_stack([interior_point(layout, rng),
                                                    interior_point(layout, rng)]))
        u = rng.normal(size=len(layout.head))
        for invert in (False, True):
            twice = scaling.apply(scaling.apply(u, invert), invert)
            np.testing.assert_allclose(scaling.apply_sq(u, invert), twice,
                                       rtol=1e-12, atol=1e-12 * np.abs(twice).max())

    def test_equality_rows_closed_form(self):
        # min ||x - x0|| s.t. a'x = beta: x* = x0 - (a'x0 - beta) a / ||a||^2
        rng = np.random.default_rng(99)
        n = 5
        for _ in range(5):
            a, x0, beta = rng.normal(size=n), rng.normal(size=n), float(rng.normal())
            prog = projection_program(a, x0, beta)
            sol = solve(prog)
            gap = a @ x0 - beta
            assert sol.status == SolveStatus.OPTIMAL
            assert sol.objective_value == pytest.approx(abs(gap) / np.linalg.norm(a),
                                                        abs=1e-6)
            # feasible x has ||x - x0||^2 = ||x - x*||^2 + t*^2, so an objective
            # gap eps leaves the minimizer off by up to sqrt(2 t* eps)
            np.testing.assert_allclose(sol.x[:n], x0 - gap * a / (a @ a), atol=1e-4)
            assert residuals(prog, sol.x).cone_violation <= 1e-8


def kkt_programs(rng):
    """Two programs with different cone mixes: dense rows, and sparse rows
    with every cone kind."""
    return [random_feasible_socp(rng), mixed_structure_program(rng)]


class TestKktSolve:
    def systems(self, rng):
        for prog in kkt_programs(rng):
            G, plan = split(prog)
            layout = plan.layout
            scaling = _Scaling(layout, np.column_stack([interior_point(layout, rng),
                                                        interior_point(layout, rng)]))
            kkt = _KktSolver(plan, scaling)
            rhs = (rng.normal(size=(prog.num_vars, 2)), rng.normal(size=(len(G), 2)))
            yield G, scaling, kkt, rhs

    def test_two_columns_equal_two_solves(self):
        rng = np.random.default_rng(11)
        for G, scaling, kkt, rhs in self.systems(rng):
            together = np.concatenate(kkt.solve(*rhs))
            for k in range(2):
                alone = np.concatenate(kkt.solve(*(r[:, k] for r in rhs)))
                assert_close(together[:, k], alone)

    def test_refined_solve_meets_residual_bound(self):
        rng = np.random.default_rng(12)
        for G, scaling, kkt, (rx, rz) in self.systems(rng):
            dx, dz = kkt.solve(rx, rz)
            residual = np.concatenate([rx - G.T @ dz, rz - (G @ dx - scaling.apply_sq(dz))])
            scale = np.abs(np.concatenate([rx, rz])).max(axis=0)
            assert np.all(np.abs(residual).max(axis=0) <= _KktSolver._REFINE_TOL * scale)

    def test_solves_bit_equal_to_cho_solve(self):
        # the direct LAPACK factorisation and back solve do exactly what
        # scipy.linalg.cho_factor and cho_solve do, on the regularized Gram
        rng = np.random.default_rng(13)
        for G, scaling, kkt, (rx, rz) in self.systems(rng):
            H = kkt.plan.gram(scaling)[0]
            d = H.diagonal()
            H[np.diag_indices_from(H)] += _KktSolver._REG * np.where(d > 0, d, 1.0)
            top = rx + kkt.plan.Gt @ scaling.apply_sq(rz, invert=True)
            reference = scipy.linalg.cho_solve(scipy.linalg.cho_factor(H), top)
            dx = kkt._base_solve(rx, rz)[0]
            assert np.array_equal(dx, reference)

    def test_indefinite_gram_ends_in_numerical_failure(self, monkeypatch):
        # a Gram matrix LAPACK cannot factor stops the loop with a status,
        # never with an exception
        monkeypatch.setattr(_KktPlan, "gram",
                            lambda plan, scaling: [-np.eye(n) for n in plan.sizes])
        for prog in (soc_min_norm_program(), least_norm_program(np.eye(2), np.ones(2))):
            sol = solve(prog)
            assert sol.status == SolveStatus.NUMERICAL_FAILURE
            assert sol.iterations == 0


def design_program(kind, n, seed, gamma_db, delta):
    """A design program: the nominal design, or the robust one in the
    "paper" or "zero" mode."""
    channels = model.generate_channels(n, n, seed)
    qos = model.QosSpec.from_db([gamma_db] * n, [1.0] * n)
    if kind == "nominal":
        return design.build_nominal(channels, qos)[0]
    return design.build_robust(channels, qos, design.UncertaintySpec(delta=[delta] * n),
                               kind)[0]


def assert_same_solution(batched, alone):
    # a numpy string equals the enum member it was made from, so the type
    # is checked as well
    assert type(batched.status) is SolveStatus
    assert batched.status == alone.status
    assert batched.iterations == alone.iterations
    assert np.array_equal(batched.objective_value, alone.objective_value, equal_nan=True)
    assert batched.duality_gap == alone.duality_gap
    assert batched.x.tobytes() == alone.x.tobytes()


class TestSolveBatch:
    """Every member of a batch is solved bit for bit as it is alone."""

    @settings(deadline=None, max_examples=25)
    @given(members=st.lists(st.tuples(
               st.sampled_from(["nominal", "paper", "zero"]), st.integers(1, 3),
               st.integers(0, 50), st.sampled_from([0.0, 5.0, 15.0, 30.0]),
               st.sampled_from([0.0, 0.005, 0.03, 0.2])), min_size=2, max_size=6),
           decided_at=st.integers(0, 6), bounded=st.booleans())
    @example(members=[("nominal", 1, 0, 5.0, 0.0), ("paper", 2, 1, 5.0, 0.03),
                      ("zero", 3, 2, 15.0, 0.005), ("paper", 2, 3, 5.0, 0.2)],
             decided_at=2, bounded=True)
    def test_members_match_solo_solves(self, members, decided_at, bounded):
        # one loop runs every member: designs of both methods and modes, of
        # different sizes (and so layouts), and a program without cone
        # rows, which is decided before the loop and keeps its index
        programs = [design_program(kind, *draw) for kind, *draw in members]
        programs.insert(min(decided_at, len(programs)),
                        no_rows_program([0.0, 0.0] if bounded else [1.0, 0.0]))
        for batched, program in zip(solve_batch(programs), programs):
            assert_same_solution(batched, solve(program))

    def test_statuses_mix_in_one_group(self, monkeypatch):
        # one layout, Optimal and PrimalInfeasible members ending at
        # different iterations; each iteration's Gram assembly sees only
        # the members that have not returned
        programs = [design_program("paper", 3, 7, 5.0, delta)
                    for delta in (0.005, 0.01, 0.02, 0.04, 0.08, 0.16)]
        gram, members = _KktPlan.gram, []

        def counted(plan, scaling):
            members.append(plan.members)
            return gram(plan, scaling)

        monkeypatch.setattr(_KktPlan, "gram", counted)
        solutions = solve_batch(programs)
        assert {s.status for s in solutions} == {SolveStatus.OPTIMAL,
                                                 SolveStatus.PRIMAL_INFEASIBLE}
        iterations = [s.iterations for s in solutions]
        assert len(set(iterations)) > 1
        # a member returns in the convergence test of iteration i, so the
        # Gram assemblies of iterations 0 .. i - 1 include it
        assert members == [sum(i < last for last in iterations)
                           for i in range(max(iterations))]
        assert members[-1] < members[0]
        for batched, program in zip(solutions, programs):
            assert_same_solution(batched, solve(program))

    def test_members_with_stacked_classes_leave_at_different_iterations(self):
        # n = 8 robust designs, whose SINR and power classes take one
        # product each, at a feasible and an infeasible radius: the group's
        # stacked blocks are sliced at every compaction, and each member
        # still matches its solo solve
        programs = [design_program(kind, 8, seed, 5.0, delta)
                    for kind, seed in (("paper", 0), ("zero", 1), ("paper", 2))
                    for delta in (0.015, 0.3)]
        solutions = solve_batch(programs)
        assert {s.status for s in solutions} == {SolveStatus.OPTIMAL,
                                                 SolveStatus.PRIMAL_INFEASIBLE}
        assert len({s.iterations for s in solutions}) > 2
        for batched, program in zip(solutions, programs):
            assert_same_solution(batched, solve(program))

    def test_failed_factorisation_ends_one_member(self, monkeypatch):
        # member 1's Gram block turns indefinite in the third iteration: it
        # ends in NumericalFailure there, and the others run on unchanged
        programs = [design_program("zero", 2, seed, 5.0, 0.01) for seed in range(3)]
        alone = [solve(program) for program in programs]
        gram, calls = _KktPlan.gram, []

        def broken(plan, scaling):
            H = gram(plan, scaling)
            calls.append(plan.members)
            if plan.members == 3 and calls.count(3) == 3:
                H[1] = -np.eye(plan.sizes[1])
            return H

        monkeypatch.setattr(_KktPlan, "gram", broken)
        solutions = solve_batch(programs)
        assert solutions[1].status == SolveStatus.NUMERICAL_FAILURE
        assert solutions[1].iterations == 2
        # the Gram matrices are assembled and factored once per iteration:
        # no member factors again after member 1 fails
        assert len(calls) == max(s.iterations for s in solutions)
        for k in (0, 2):
            assert_same_solution(solutions[k], alone[k])

    def test_failed_step_ends_one_member(self, monkeypatch):
        # member 1's combined step in the third iteration is 0: it ends in
        # NumericalFailure there, takes no step, leaves the batch before
        # the next Gram assembly, and the others run on unchanged
        programs = [design_program("zero", 2, seed, 5.0, 0.01) for seed in range(3)]
        alone = [solve(program) for program in programs]
        gram, members = _KktPlan.gram, []
        max_step, steps = conic._max_step, []

        def counted(plan, scaling):
            members.append(plan.members)
            return gram(plan, scaling)

        def stalled(layout, u, du):
            step = max_step(layout, u, du)
            steps.append(len(step))
            if len(steps) == 6:  # the predictor's and the combined step per iteration
                step[1] = 0.0
            return step

        monkeypatch.setattr(_KktPlan, "gram", counted)
        monkeypatch.setattr(conic, "_max_step", stalled)
        solutions = solve_batch(programs)
        assert steps[5] == 3
        assert solutions[1].status == SolveStatus.NUMERICAL_FAILURE
        assert solutions[1].iterations == 2
        assert members[:4] == [3, 3, 3, 2]
        for k in (0, 2):
            assert_same_solution(solutions[k], alone[k])

    @pytest.mark.parametrize("iteration, status", [
        (5, SolveStatus.PRIMAL_INFEASIBLE), (3, SolveStatus.NUMERICAL_FAILURE)])
    def test_stalled_member_reports_its_best_iterate(self, monkeypatch, iteration, status):
        # member 1 (PrimalInfeasible after 7 iterations alone) takes a zero
        # combined step in the given iteration and stops there: with the
        # looser certificate by then, without it before.  Its x, and for
        # NumericalFailure its objective and gap, are those of its best
        # iterate, which the MaxIterations solve that ends with the same
        # convergence test reports; the others run on as they do alone
        programs = [design_program("paper", 3, 7, 5.0, delta) for delta in (0.005, 0.16, 0.02)]
        alone = [solve(program) for program in programs]
        best = solve(programs[1], SolverSettings(max_iter=iteration + 1))
        max_step, steps = conic._max_step, []

        def stalled(layout, u, du):
            step = max_step(layout, u, du)
            steps.append(len(step))
            if len(steps) == 2 * iteration + 2:  # two steps per iteration
                step[1] = 0.0
            return step

        monkeypatch.setattr(conic, "_max_step", stalled)
        solutions = solve_batch(programs)
        assert steps[2 * iteration + 1] == 3
        stopped = solutions[1]
        assert type(stopped.status) is SolveStatus
        assert stopped.status == status
        assert stopped.iterations == iteration
        assert stopped.x.tobytes() == best.x.tobytes()
        if status == SolveStatus.PRIMAL_INFEASIBLE:
            assert np.isnan(stopped.objective_value)
            assert stopped.duality_gap == np.inf
        else:
            assert best.status == SolveStatus.MAX_ITERATIONS
            assert stopped.objective_value == best.objective_value
            assert stopped.duality_gap == best.duality_gap
            assert np.isfinite(stopped.duality_gap)
        for k in (0, 2):
            assert_same_solution(solutions[k], alone[k])

    @pytest.mark.parametrize("max_iter", [200, 8, 3])
    def test_every_status_in_one_batch(self, max_iter):
        # Optimal, DualInfeasible and PrimalInfeasible members, and at the
        # smaller budgets MaxIterations ones, each as its solo solve
        programs = [soc_min_norm_program(),
                    ConeProgram(1, [-1.0], [[-1.0]], [0.0], [Nonnegative(1)]),
                    design_program("paper", 3, 7, 5.0, 0.16),
                    design_program("paper", 3, 7, 5.0, 0.005),
                    design_program("nominal", 2, 0, 5.0, 0.0)]
        options = SolverSettings(max_iter=max_iter)
        solutions = solve_batch(programs, options)
        ended = {SolveStatus.OPTIMAL, SolveStatus.DUAL_INFEASIBLE,
                 SolveStatus.PRIMAL_INFEASIBLE}
        expected = {200: ended, 8: ended | {SolveStatus.MAX_ITERATIONS},
                    3: {SolveStatus.MAX_ITERATIONS}}
        assert {s.status for s in solutions} == expected[max_iter]
        for batched, program in zip(solutions, programs):
            assert_same_solution(batched, solve(program, options))
            if batched.status == SolveStatus.MAX_ITERATIONS:
                assert batched.iterations == max_iter

    def test_empty_batch(self):
        assert solve_batch([]) == []

    def test_generator_programs_are_let_go_one_by_one(self, monkeypatch):
        # while the generator builds a program, the batch holds at most the
        # one it yielded last: every earlier program is already gone, and
        # the loop starts without any
        draws = [("paper", 0), ("nominal", 1), ("paper", 2), ("zero", 3), ("paper", 4)]
        refs = []
        interior_point = conic._interior_point

        def loop(*args):
            assert all(ref() is None for ref in refs)
            return interior_point(*args)

        def programs():
            for kind, seed in draws:
                assert all(ref() is None for ref in refs[:-1])
                program = design_program(kind, 2, seed, 5.0, 0.015)
                refs.append(weakref.ref(program))
                yield program

        monkeypatch.setattr(conic, "_interior_point", loop)
        solutions = solve_batch(programs())
        assert len(solutions) == len(refs) == len(draws)
        for solution, (kind, seed) in zip(solutions, draws):
            assert_same_solution(solution, solve(design_program(kind, 2, seed, 5.0, 0.015)))


def solve_cold(program):
    """The program's solve with an empty pattern cache."""
    conic._pattern.cache_clear()
    return solve(program)


class TestPatternCache:
    """Each nonzero pattern is analysed once per process; a program whose
    pattern is cached only gathers its values, bit for bit as a cold
    solve."""

    @pytest.mark.parametrize("n", [1, 3, 8])
    @pytest.mark.parametrize("kind", ["nominal", "paper", "zero"])
    def test_cold_and_warm_cache_solve_alike(self, kind, n):
        # the second program reuses the entry the first one made
        first, second = (design_program(kind, n, seed, 5.0, 0.015) for seed in (0, 1))
        cold = solve_cold(second)
        solve(first)
        misses = conic._pattern.cache_info().misses
        warm = solve(second)
        assert conic._pattern.cache_info().misses == misses
        assert_same_solution(warm, cold)

    def test_zeros_in_the_data_have_their_own_patterns(self):
        # delta = 0 for one user, kappa = 0 and an exact-zero channel entry
        # each leave nonzeros of the robust pattern at zero
        n = 3
        channels = model.generate_channels(n, n, 4)
        rows = channels.rows.copy()
        rows[1, 2] = 0.0
        qos = model.QosSpec.from_db([5.0] * n, [1.0] * n)
        full = design.UncertaintySpec(delta=[0.015] * n)
        programs = [design.build_robust(ch, qos, unc)[0] for ch, unc in (
            (channels, full),
            (channels, design.UncertaintySpec(delta=[0.015, 0.0, 0.015])),
            (channels, design.UncertaintySpec(delta=[0.015] * n, kappa=0.0)),
            (model.ChannelSet(rows), full))]
        cold = [solve_cold(program) for program in programs]
        conic._pattern.cache_clear()
        patterns = [_reduce(program)[0] for program in programs]
        assert len({id(pattern) for pattern in patterns}) == len(programs)
        assert conic._pattern.cache_info().misses == len(programs)
        for warm, alone in zip(solve_batch(programs), cold):
            assert_same_solution(warm, alone)
        for program, alone in zip(programs, cold):
            assert_same_solution(solve(program), alone)
        assert conic._pattern.cache_info().misses == len(programs)

    def test_another_mask_never_reuses_an_entry(self):
        # same shape and cones; one entry of the matrix set to 0.0, and to
        # -0.0, which A != 0 reads as the same pattern
        program = mixed_structure_program(np.random.default_rng(8))
        row, col = np.argwhere(program.constraint_matrix != 0)[5]
        variants = []
        for zero in (0.0, -0.0):
            A = program.constraint_matrix.copy()
            A[row, col] = zero
            variants.append(ConeProgram(program.num_vars, program.objective, A,
                                        program.offset, program.cones))
        cold = [solve_cold(variant) for variant in variants]
        conic._pattern.cache_clear()
        first, second, third = (_reduce(p)[0] for p in (program, *variants))
        assert second is not first and third is second
        assert conic._pattern.cache_info().misses == 2
        for variant, alone in zip(variants, cold):
            assert_same_solution(solve(variant), alone)

    def test_sweep_batch_analyses_each_pattern_once(self, monkeypatch):
        # a delta sweep's batch: one nominal and six robust programs, two
        # patterns, and a new plan at every compaction
        n = 3
        channels = model.generate_channels(n, n, 3)
        qos = model.QosSpec.from_db([5.0] * n, [1.0] * n)
        programs = [design.build_nominal(channels, qos)[0]] + [
            design.build_robust(channels, qos, design.UncertaintySpec(delta=[d] * n))[0]
            for d in (0.005, 0.01, 0.02, 0.04, 0.08, 0.16)]
        alone = [solve(program) for program in programs]
        analysed, plans = [], []

        class Pattern(conic._Pattern):
            def __init__(self, *args):
                analysed.append(self)
                super().__init__(*args)

        class Plan(_KktPlan):
            def __init__(self, *args):
                plans.append(self)
                super().__init__(*args)

        monkeypatch.setattr(conic, "_Pattern", Pattern)
        monkeypatch.setattr(conic, "_KktPlan", Plan)
        conic._pattern.cache_clear()
        solutions = solve_batch(programs)
        conic._pattern.cache_clear()  # drop the patterns of the test class
        assert len(analysed) == 2
        assert len(plans) >= 4  # the first plan, then a compaction at 7, 9, 10 and 15
        for batched, solo in zip(solutions, alone):
            assert_same_solution(batched, solo)

    def test_threads_designing_different_patterns_get_their_solo_results(self):
        # more threads than cores, each designing its own patterns into one
        # empty cache, with frequent thread switches; designs at sigma 1,
        # whose Solutions are the solver's own
        def requests(method, n, mode=None):
            qos = model.QosSpec.from_db([5.0] * n, [1.0] * n)
            unc = design.UncertaintySpec(delta=[0.015] * n)
            return [(method, (model.generate_channels(n, n, seed), qos)
                     + ((unc, mode) if method == "robust" else ()))
                    for seed in (60, 61, 62)]

        def program(method, request):
            build = design.build_nominal if method == "nominal" else design.build_robust
            return build(*request)[0]

        lists = [requests("robust", 3, "paper"),
                 requests("nominal", 4) + requests("robust", 2, "zero"),
                 requests("robust", 1, "zero"), requests("nominal", 3)]
        alone = [[solve(program(*pair)) for pair in pairs] for pairs in lists]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                conic._pattern.cache_clear()
                design.design_nominal(model.ChannelSet([[0.5 + 0.25j]]),
                                      model.QosSpec(gamma=[0.5], sigma=[0.75]))
                start = threading.Barrier(len(lists))

                def run(pairs):
                    start.wait(timeout=60)
                    return design.design_batch(pairs)

                with concurrent.futures.ThreadPoolExecutor(len(lists)) as pool:
                    futures = [pool.submit(run, pairs) for pairs in lists]
                    results = [future.result(timeout=120) for future in futures]
                for designs, solos in zip(results, alone):
                    for result, solo in zip(designs, solos):
                        assert_same_solution(result.solution, solo)
        finally:
            sys.setswitchinterval(interval)
