"""Cone program validation, solving, and the independent residual audit."""

from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
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
    Zero,
    residuals,
    solve,
    solve_batch,
    validate,
)
from misobeam.conic import (
    _ConeLayout,
    _jordan_product,
    _jordan_solve,
    _KktBlock,
    _KktPlan,
    _KktSolver,
    _margin,
    _max_step,
    _Scaling,
    _split_rows,
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
        sol = solve(soc_min_norm_program(), SolverSettings(max_iter=1))
        assert sol.status == SolveStatus.MAX_ITERATIONS

    def test_equality_rows_only(self):
        # x1 + x2 = 1 and no cone rows: any feasible x is optimal for c = 0,
        # and c = (1, 0) is unbounded below along (-1, 1)
        A, b = [[1.0, 1.0]], [1.0]
        sol = solve(ConeProgram(2, [0.0, 0.0], A, b, [Zero(1)]))
        assert sol.status == SolveStatus.OPTIMAL
        assert sol.x.sum() == pytest.approx(1.0, abs=1e-8)
        unbounded = solve(ConeProgram(2, [1.0, 0.0], A, b, [Zero(1)]))
        assert unbounded.status == SolveStatus.DUAL_INFEASIBLE

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


class TestEqualityRows:
    """Programs with Zero rows, through the public solve."""

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
        # x = (1, 2) by the Zero rows; x1 >= floor decides feasibility
        A = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        b = np.array([1.0, 2.0, -floor, 0.0])
        prog = ConeProgram(2, [3.0, -1.0], A, b, [Zero(2), Nonnegative(2)])
        sol = solve(prog)
        assert sol.status == status
        if status == SolveStatus.OPTIMAL:
            np.testing.assert_allclose(sol.x, [1.0, 2.0], atol=1e-6)
            assert sol.objective_value == pytest.approx(1.0, abs=1e-6)
            assert residuals(prog, sol.x).cone_violation <= 1e-8

    def test_zero_dim_block_beside_equality_rows(self):
        # min ||x|| s.t. (1, 2, 2).x = 1, with empty Zero blocks around the row
        prog = least_norm_program(np.array([[1.0, 2.0, 2.0]]), np.array([1.0]))
        prog = ConeProgram(prog.num_vars, prog.objective, prog.constraint_matrix,
                           prog.offset, [Zero(0), *prog.cones, Zero(0)])
        sol = solve(prog)
        assert sol.status == SolveStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(1.0 / 3.0, abs=1e-6)
        np.testing.assert_allclose(sol.x[:3], np.array([1.0, 2.0, 2.0]) / 9.0, atol=1e-6)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(3, 7), p=st.integers(2, 5),
       rank=st.integers(1, 4))
def test_equality_rows_match_hand_substitution(seed, n, p, rank):
    """A rank-deficient E x = f with f in E's range gives the objective of
    the same program with x = x0 + N w substituted by hand."""
    rank = min(rank, p - 1, n - 1)
    rng = np.random.default_rng(seed)
    E = rng.normal(size=(p, rank)) @ rng.normal(size=(rank, n))
    dims, nneg = [3, int(rng.integers(2, 5))], 2
    G = rng.normal(size=(sum(dims) + nneg, n))
    cones = [SecondOrder(d) for d in dims] + [Nonnegative(nneg)]
    # x_in strictly inside the cones puts f in E's range, and the objective
    # -G'w + E'v with w inside the dual cone is bounded on the affine set
    x_in = rng.normal(size=n)
    h = G @ x_in + cone_interior(rng, dims, nneg)
    f = E @ x_in
    c = -G.T @ cone_interior(rng, dims, nneg) + E.T @ rng.normal(size=p)
    prog = ConeProgram(n, c, np.vstack([E, G]), np.concatenate([f, h]), [Zero(p), *cones])

    x0 = np.linalg.lstsq(E, f, rcond=None)[0]
    N = scipy.linalg.null_space(E)
    by_hand = ConeProgram(N.shape[1], N.T @ c, G @ N, h - G @ x0, cones)

    sol, ref = solve(prog), solve(by_hand)
    assert ref.status == SolveStatus.OPTIMAL
    assert sol.status == SolveStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(ref.objective_value + c @ x0, abs=1e-6)
    assert residuals(prog, sol.x).cone_violation <= 1e-8


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
    Zero row between the cone rows."""
    n = a.size
    A = np.zeros((2 * n + 2, n + 1))
    A[:n, :n] = -np.eye(n)
    A[n, :n] = a
    A[n + 1, n] = -1.0
    A[n + 2 :, :n] = -np.eye(n)
    b = np.concatenate([10.0 * np.ones(n), [beta, 0.0], -x0])
    c = np.zeros(n + 1)
    c[n] = 1.0
    return ConeProgram(n + 1, c, A, b, [Nonnegative(n), Zero(1), SecondOrder(n + 1)])


def unit_spans(layout):
    """(first row, dimension) of each cone unit, one unit at a time."""
    spans, start = [], 0
    for dim in layout.dims.tolist():
        spans.append((start, dim))
        start += dim
    assert start == layout.m
    return spans


def interior_point(layout, rng):
    u = np.empty(layout.m)
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
    M = np.zeros((layout.m, layout.m))
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
        G, h, self.layout = _split_rows(mixed_structure_program(self.rng))
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
            for u in (self.rng.normal(size=layout.m),
                      self.rng.normal(size=(layout.m, 2))):
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
            ds, dz = self.rng.normal(size=(2, layout.m))
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
        layout = _ConeLayout(np.array([4]), np.array([1]))
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
        rng = np.random.default_rng(2024)
        G, h, layout = _split_rows(mixed_structure_program(rng))
        for _ in range(5):
            s, z = interior_point(layout, rng), interior_point(layout, rng)
            scaling = _Scaling(layout, np.column_stack([s, z]))
            gram = _KktPlan([_KktBlock(G, layout)], layout).gram(scaling)[0]

            W_inv = block_diagonal(layout, lambda r: nt_scaling_inverse(s[r], z[r]))
            # the reference is the NT scaling: W z = W^-1 s
            np.testing.assert_allclose(np.linalg.solve(W_inv, z), W_inv @ s,
                                       rtol=1e-10, atol=1e-12)
            scaled = W_inv @ G
            reference = scaled.T @ scaled
            assert np.abs(gram - reference).max() <= 1e-12 * np.abs(reference).max()

    def test_one_pass_square_scaling_matches_two_applies(self):
        rng = np.random.default_rng(7)
        G, h, layout = _split_rows(mixed_structure_program(rng))
        scaling = _Scaling(layout, np.column_stack([interior_point(layout, rng),
                                                    interior_point(layout, rng)]))
        u = rng.normal(size=layout.m)
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
            G, h, layout = _split_rows(prog)
            scaling = _Scaling(layout, np.column_stack([interior_point(layout, rng),
                                                        interior_point(layout, rng)]))
            kkt = _KktSolver(_KktPlan([_KktBlock(G, layout)], layout), scaling)
            rhs = (rng.normal(size=(prog.num_vars, 2)), rng.normal(size=(layout.m, 2)))
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
           zero_row_at=st.integers(0, 6))
    @example(members=[("nominal", 1, 0, 5.0, 0.0), ("paper", 2, 1, 5.0, 0.03),
                      ("zero", 3, 2, 15.0, 0.005), ("paper", 2, 3, 5.0, 0.2)],
             zero_row_at=2)
    def test_members_match_solo_solves(self, members, zero_row_at):
        # one loop runs every member: designs of both methods and modes, of
        # different sizes (and so layouts), and a program with Zero rows
        programs = [design_program(kind, *draw) for kind, *draw in members]
        rng = np.random.default_rng(zero_row_at)
        programs.insert(min(zero_row_at, len(programs)), projection_program(
            rng.normal(size=3), rng.normal(size=3), float(rng.normal())))
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

    def test_empty_batch(self):
        assert solve_batch([]) == []
