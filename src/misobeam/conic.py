"""Standard-form second-order cone programs and an interior-point solver.

Problem form:

    minimize    objective . x
    subject to  offset - constraint_matrix @ x  in  K_1 x K_2 x ... x K_r

where each cone K is one of Zero(d) (the slack block must vanish),
Nonnegative(d) (componentwise nonnegative), or SecondOrder(d) (the first
slack entry dominates the Euclidean norm of the remaining d - 1 entries).

The solver runs a Mehrotra predictor-corrector interior-point method on the
homogeneous self-dual embedding of the primal-dual pair, with Nesterov-Todd
scaling for the nonnegative and second-order blocks.  Infeasible and
unbounded problems are reported through approximate Farkas certificates,
never through exceptions.

Zero rows are removed before the interior point starts: one SVD of their
matrix E writes every x with E x = f as x0 + N w, and the loop runs on the
cone-only program in w.  Each iteration's Newton system is reduced to
G' W^-2 G.  The cone rows are kept in CSR form for matrix-vector products,
and the Gram matrix is assembled cone by cone from dense blocks restricted
to the columns each cone touches, so the work follows the constraint
matrix's nonzeros rather than its full size.  The reduced matrix is
positive definite and is factored densely by Cholesky.  Each iteration
runs two solves with the factorization: the predictor's right-hand side
together with the column that carries the step in tau, then the
corrector.  Iterative refinement runs only while a solve's residual is
large against its right-hand side.

The cone algebra (scaling, Jordan products, step lengths) is one segmented
pass over all cone rows, with per-cone sums taken by ``np.add.reduceat``,
so its cost in numpy calls does not grow with the number of distinct cone
dimensions.  Problems here are desk-scale (at most a few hundred
variables, a few thousand cone rows).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.linalg.lapack import dpotrf, dpotrs


class ConeProgramError(ValueError):
    """Raised when a ConeProgram violates its structural invariants."""


@dataclass(frozen=True)
class Zero:
    """Equality block: the slack entries must all be zero."""

    dim: int


@dataclass(frozen=True)
class Nonnegative:
    """Componentwise-nonnegative block."""

    dim: int


@dataclass(frozen=True)
class SecondOrder:
    """Lorentz block: slack[0] >= ||slack[1:]||_2.  dim >= 1."""

    dim: int


Cone = Zero | Nonnegative | SecondOrder


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ConeProgram:
    """Immutable standard-form cone program.

    ``offset - constraint_matrix @ x`` must lie in the Cartesian product of
    ``cones`` (in order).  Rows of ``constraint_matrix`` and entries of
    ``offset`` are grouped by cone.
    """

    num_vars: int
    objective: np.ndarray
    constraint_matrix: np.ndarray
    offset: np.ndarray
    cones: tuple[Cone, ...]

    def __post_init__(self):
        obj = _readonly(np.array(self.objective, dtype=float).reshape(-1))
        mat = np.array(self.constraint_matrix, dtype=float)
        if mat.ndim != 2:
            mat = mat.reshape(-1, self.num_vars if self.num_vars else 1)
        off = _readonly(np.array(self.offset, dtype=float).reshape(-1))
        object.__setattr__(self, "objective", obj)
        object.__setattr__(self, "constraint_matrix", _readonly(mat))
        object.__setattr__(self, "offset", off)
        object.__setattr__(self, "cones", tuple(self.cones))

    @property
    def num_rows(self) -> int:
        return self.constraint_matrix.shape[0]


class SolveStatus(str, Enum):
    OPTIMAL = "Optimal"
    PRIMAL_INFEASIBLE = "PrimalInfeasible"
    DUAL_INFEASIBLE = "DualInfeasible"
    MAX_ITERATIONS = "MaxIterations"
    NUMERICAL_FAILURE = "NumericalFailure"


@dataclass(frozen=True)
class SolverSettings:
    """Stopping tolerances.  Defaults are tight enough that downstream
    design-level tolerances (1e-4 .. 1e-3) are free of solver noise."""

    feas_tol: float = 1e-8
    gap_tol: float = 1e-8
    max_iter: int = 200


@dataclass(frozen=True)
class Solution:
    """Solver result.  ``x`` is meaningful only when status is Optimal;
    ``duality_gap`` is the relative primal-dual objective gap."""

    status: SolveStatus
    x: np.ndarray
    objective_value: float
    duality_gap: float
    iterations: int

    def __post_init__(self):
        object.__setattr__(self, "x", _readonly(np.array(self.x, dtype=float).reshape(-1)))


@dataclass(frozen=True)
class ConeResiduals:
    """Independent feasibility audit of a candidate point."""

    cone_violation: float
    worst_row: int


def validate(program: ConeProgram) -> None:
    """Check the ConeProgram invariants; raise ConeProgramError naming the
    violated invariant otherwise."""
    n = program.num_vars
    if n <= 0:
        raise ConeProgramError("empty problem: num_vars must be positive")
    if program.objective.shape != (n,):
        raise ConeProgramError(
            f"objective has length {program.objective.shape[0]}, expected num_vars={n}"
        )
    rows = program.constraint_matrix.shape[0]
    if program.constraint_matrix.shape != (rows, n):
        raise ConeProgramError(
            f"constraint_matrix has {program.constraint_matrix.shape[1]} columns, "
            f"expected num_vars={n}"
        )
    if program.offset.shape != (rows,):
        raise ConeProgramError(
            f"offset has length {program.offset.shape[0]}, expected {rows} rows"
        )
    total = 0
    for cone in program.cones:
        if isinstance(cone, SecondOrder):
            if cone.dim < 1:
                raise ConeProgramError("SecondOrder cone must have dim >= 1")
        elif isinstance(cone, (Zero, Nonnegative)):
            if cone.dim < 0:
                raise ConeProgramError("cone dimensions must be nonnegative")
        else:
            raise ConeProgramError(f"unknown cone type {type(cone).__name__}")
        total += cone.dim
    if total != rows:
        raise ConeProgramError(
            f"cone dimensions sum to {total} but constraint_matrix has {rows} rows"
        )
    for name, arr in (
        ("objective", program.objective),
        ("constraint_matrix", program.constraint_matrix),
        ("offset", program.offset),
    ):
        if not np.all(np.isfinite(arr)):
            raise ConeProgramError(f"non-finite entry in {name}")


def residuals(program: ConeProgram, x: np.ndarray) -> ConeResiduals:
    """Distance of the slack ``offset - A x`` from the cone product.

    Zero and Nonnegative blocks use the largest componentwise violation; a
    SecondOrder block uses the shortfall along its axis coordinate,
    max(0, ||slack[1:]|| - slack[0]), which upper-bounds the Euclidean
    distance to the cone.  ``worst_row`` is the row where the worst violation
    occurs (the axis row for a SecondOrder block).
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape != (program.num_vars,):
        raise ConeProgramError(
            f"x has length {x.shape[0]}, expected num_vars={program.num_vars}"
        )
    slack = program.offset - program.constraint_matrix @ x
    worst = 0.0
    worst_row = 0
    start = 0
    for cone in program.cones:
        block = slack[start : start + cone.dim]
        if cone.dim == 0:
            continue
        if isinstance(cone, Zero):
            idx = int(np.argmax(np.abs(block)))
            violation = abs(block[idx])
            row = start + idx
        elif isinstance(cone, Nonnegative):
            idx = int(np.argmin(block))
            violation = max(0.0, -block[idx])
            row = start + idx
        else:
            violation = max(0.0, float(np.linalg.norm(block[1:]) - block[0]))
            row = start
        if violation > worst:
            worst = violation
            worst_row = row
        start += cone.dim
    return ConeResiduals(cone_violation=float(worst), worst_row=worst_row)


# ---------------------------------------------------------------------------
# Interior-point solver internals.
#
# solve() removes the Zero rows first (see there).  The cone rows are
# permuted into [nonnegative | second-order], with second-order blocks
# sorted by dimension:
#
#     minimize c'x  s.t.  G x + s = h,   s in K.
#
# Homogeneous self-dual embedding in (x, z, tau, s, kappa):
#
#     G'z + c tau       = 0
#     G x + s - h tau   = 0
#     c'x + h'z + kappa = 0
#     s in K, z in K, tau >= 0, kappa >= 0,  s'z + tau kappa -> 0.
#
# tau > 0 at the limit recovers an optimal point; kappa > 0 yields a Farkas
# certificate of primal or dual infeasibility.
# ---------------------------------------------------------------------------


class _ConeLayout:
    """Row layout of the cone block: one unit per nonnegative row, then one
    per second-order block.

    Units come sorted by dimension, then by the size of their column support
    in G.  Every cone kernel is one segmented pass over all m rows, whatever
    the mix of dimensions: per-unit sums are ``np.add.reduceat`` from each
    unit's head row, and per-unit scalars go back to the rows through
    ``np.repeat(..., dims)``.  A nonnegative row is a unit of dimension 1
    (its head and nothing else), so no segment is empty; the second-order
    formulas reduce to the elementwise ones there, except the step length,
    which takes such a row as its linear case.  Kernels take vectors or
    column stacks of shape (m, k).

    ``classes`` are the runs of units with equal dimension and equal nonzero
    support size, as ``(first_unit, count, dim, start)`` with ``start`` the
    first row.  They drive the Gram assembly in :class:`_KktPlan`.
    """

    def __init__(self, unit_dims: np.ndarray, unit_support: np.ndarray):
        self.dims = unit_dims
        self.m_lp = int(np.count_nonzero(unit_dims == 1))
        self.m = int(unit_dims.sum())
        self.degree = len(unit_dims)
        self.heads = np.cumsum(unit_dims) - unit_dims
        self.head = np.zeros(self.m)
        self.head[self.heads] = 1.0
        self.jsign = (2.0 * self.head - 1.0)[:, None]  # the diagonal of J
        self.tail = (1.0 - self.head)[:, None]
        self.classes: list[tuple[int, int, int, int]] = []
        first = 0
        for (dim, size), run in itertools.groupby(zip(unit_dims.tolist(),
                                                      unit_support.tolist())):
            count = len(list(run))
            if size:
                self.classes.append((first, count, dim, int(self.heads[first])))
            first += count

    @staticmethod
    def columns(u: np.ndarray) -> np.ndarray:
        return u if u.ndim == 2 else u[:, None]

    def unit_sum(self, U: np.ndarray) -> np.ndarray:
        """Per-unit sums of the rows of U."""
        return np.add.reduceat(U, self.heads, axis=0)

    def spread(self, V: np.ndarray) -> np.ndarray:
        """Per-unit values repeated over each unit's rows."""
        return V.repeat(self.dims, axis=0)

    def identity(self) -> np.ndarray:
        return self.head.copy()


def _lorentz(U: np.ndarray, w0: np.ndarray, w1: np.ndarray, sign: float) -> np.ndarray:
    """V(w) U for sign = 1, or V(Jw) U = V(w)^-1 U for sign = -1, block by
    block, for stacked column blocks U of shape (count, dim, k)."""
    u0, u1 = U[:, 0], U[:, 1:]
    dot = np.einsum("nd,ndk->nk", w1, u1)
    coef = sign * u0 + dot / (1.0 + w0)[:, None]
    res = np.empty_like(U)
    res[:, 0] = w0[:, None] * u0 + sign * dot
    res[:, 1:] = u1 + w1[:, :, None] * coef[:, None]
    return res


class _Scaling:
    """Nesterov-Todd scaling for a point pair (s, z) interior to K, given
    as the columns of ``sz``.

    Per unit W = sqrt(eta) V(w), with w the normalized NT scaling point and
    V(w) = [[w0, w1'], [w1, I + w1 w1'/(1+w0)]]; V(w)^-1 = V(Jw).  On a
    nonnegative row w = 1 and W = sqrt(s/z).  W is symmetric with
    W z = W^-1 s = lambda.
    """

    def __init__(self, layout: _ConeLayout, sz: np.ndarray):
        self.layout = L = layout
        norms = np.sqrt(L.unit_sum(sz * sz * L.jsign))
        bar = sz / L.spread(norms)
        gamma = np.sqrt((1.0 + L.unit_sum(bar[:, 0] * bar[:, 1])) / 2.0)
        self.w = (bar[:, 0] + L.jsign[:, 0] * bar[:, 1]) / L.spread(2.0 * gamma)
        eta = norms[:, 0] / norms[:, 1]
        self.w0 = self.w[L.heads, None]
        self.w1 = self.w[:, None] * L.tail     # w with the head entries zeroed
        self.inv_1pw0 = 1.0 / (1.0 + self.w0)
        root = np.sqrt(eta)[:, None]
        self.unit_scale = {False: root, True: 1.0 / root}
        self.row_scale = {inv: L.spread(v) for inv, v in self.unit_scale.items()}
        # W^2 u = 2 c v (v'u) - c J u with c = eta, v = w; W^-2 u likewise
        # with c = 1/eta, v = J w
        self.squares = {}
        for invert, v, c in ((False, self.w[:, None], eta),
                             (True, self.w[:, None] * L.jsign, 1.0 / eta)):
            c = L.spread(c[:, None])
            self.squares[invert] = (v, 2.0 * c * v, c * L.jsign)

    def apply(self, u: np.ndarray, invert: bool = False) -> np.ndarray:
        """W u (or W^-1 u) for a vector or column stack u."""
        L = self.layout
        U = L.columns(u)
        u0 = U[L.heads]
        dot = L.unit_sum(self.w1 * U)
        if invert:
            coef, head = dot * self.inv_1pw0 - u0, self.w0 * u0 - dot
        else:
            coef, head = dot * self.inv_1pw0 + u0, self.w0 * u0 + dot
        out = (U + self.w1 * L.spread(coef)) * self.row_scale[invert]
        out[L.heads] = head * self.unit_scale[invert]
        return out.reshape(u.shape)

    def apply_sq(self, u: np.ndarray, invert: bool = False) -> np.ndarray:
        """W^2 u (or W^-2 u) for a vector or column stack u, in one pass.

        V(w)^2 = 2 w w' - J for w on the unit hyperboloid, so per unit
        W^2 = eta (2 w w' - J) and W^-2 = eta^-1 (2 v v' - J) with v = J w.
        """
        L = self.layout
        v, two_cv, cJ = self.squares[invert]
        U = L.columns(u)
        return (two_cv * L.spread(L.unit_sum(v * U)) - cJ * U).reshape(u.shape)

    def inverse_blocks(self, first: int, count: int, dim: int, start: int,
                       U: np.ndarray) -> np.ndarray:
        """W^-1 applied to stacked column blocks U of shape (count, dim, k),
        taken from units first .. first + count - 1, whose rows start at
        ``start``."""
        w = self.w[start : start + count * dim].reshape(count, dim)
        scale = self.unit_scale[True][first : first + count, :, None]
        return _lorentz(U, w[:, 0], w[:, 1:], -1.0) * scale


def _jordan_product(layout: _ConeLayout, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u o v: per unit (u'v, u0 v1 + v0 u1)."""
    U, V = layout.columns(u), layout.columns(v)
    out = layout.spread(U[layout.heads]) * V + layout.spread(V[layout.heads]) * U
    out[layout.heads] = layout.unit_sum(U * V)
    return out.reshape(u.shape)


def _jordan_solve(layout: _ConeLayout, lam: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Solve lam o w = d for w (Jordan division)."""
    L, D = layout.columns(lam), layout.columns(d)
    det = layout.unit_sum(L * L * layout.jsign)
    w0 = layout.unit_sum(L * D * layout.jsign) / det
    out = (D - layout.spread(w0) * L) / layout.spread(L[layout.heads])
    out[layout.heads] = w0
    return out.reshape(d.shape)


def _margin(layout: _ConeLayout, u: np.ndarray) -> float:
    """Distance-like interiority measure, the smallest over the columns of
    u: positive iff every column is strictly inside K."""
    U = layout.columns(u)
    radius = np.sqrt(layout.unit_sum((U * layout.tail) ** 2))
    return float((U[layout.heads] - radius).min(initial=np.inf))


def _max_step(layout: _ConeLayout, u: np.ndarray, du: np.ndarray) -> float:
    """Largest alpha with u + alpha du still in K, over the columns of the
    stacks u and du (each column of u strictly interior)."""
    U, dU = layout.columns(u), layout.columns(du)
    # per unit, first positive root of c2 a^2 + 2 c1 a + c0 = 0, if any
    products = np.stack([dU * dU, U * dU, U * U], axis=1) * layout.jsign[:, :, None]
    c2, c1, c0 = layout.unit_sum(products).transpose(1, 0, 2)
    c0 = np.maximum(c0, 0.0)
    # a nonnegative row leaves K where u0 + a du0 = 0: make it the linear case
    m_lp = layout.m_lp
    c2[:m_lp], c1[:m_lp], c0[:m_lp] = 0.0, 0.5 * dU[:m_lp], U[:m_lp]
    linear = np.abs(c2) < 1e-14 * np.maximum(1.0, np.maximum(np.abs(c1), c0))
    with np.errstate(all="ignore"):
        lin_root = np.where(linear & (c1 < 0), -c0 / (2.0 * c1), np.inf)
        disc = c1 * c1 - c2 * c0
        # the roots as the cancellation-free pair q / c2, c0 / q
        q = -(c1 + np.copysign(np.sqrt(disc), c1))
        roots = np.stack([q / c2, c0 / q])
        roots = np.where(~linear & (disc >= 0) & (roots > 0), roots, np.inf)
    return float(min(roots.min(initial=np.inf), lin_root.min(initial=np.inf)))


class _KktPlan:
    """Structure of the reduced KKT system, fixed for one solve.

    G is held in CSR form, with its transpose, for the matrix-vector
    products.  For the Gram matrix G' W^-2 G: W is block diagonal over cone
    units, so W_k^-1 G_k is zero outside the column support of the unit's
    rows G_k, and

        G' W^-2 G = sum_k T_k' T_k,   T_k = W_k^-1 G_k[:, support_k].

    The units of one layout class share dimension and support size, so
    their restricted blocks G_k[:, support_k] stack into one dense
    (count, dim, s) array, stored once here.  Each iteration scales the
    stacks, takes batched Grams T_k' T_k and scatter-adds them into the
    n x n matrix with one bincount over the flat indices precomputed here.
    This is the arithmetic of a dense (W^-1 G)' (W^-1 G) in another
    summation order, without forming W^-1 G.
    """

    def __init__(self, G: np.ndarray, layout: _ConeLayout):
        self.n = n = G.shape[1]
        self.G = scipy.sparse.csr_array(G)
        self.Gt = self.G.T.tocsr()
        self.stacks: list[tuple[tuple[int, int, int, int], np.ndarray]] = []
        index = [np.zeros(0, dtype=np.intp)]
        for cls in layout.classes:
            first, count, dim, start = cls
            rows = G[start : start + count * dim].reshape(count, dim, n)
            cols = np.nonzero(np.any(rows != 0, axis=1))[1].reshape(count, -1)
            self.stacks.append((cls, np.take_along_axis(rows, cols[:, None, :], axis=2)))
            index.append((cols[:, :, None] * n + cols[:, None, :]).ravel())
        self.gram_index = np.concatenate(index)
        self.diagonal = np.diag_indices(n)

    def gram(self, scaling: _Scaling) -> np.ndarray:
        """G' W^-2 G as a dense n x n array."""
        parts = [np.zeros(0)]
        for cls, stack in self.stacks:
            T = scaling.inverse_blocks(*cls, stack)
            parts.append(np.matmul(T.transpose(0, 2, 1), T).ravel())
        flat = np.bincount(self.gram_index, weights=np.concatenate(parts),
                           minlength=self.n * self.n)
        return flat.astype(float, copy=False).reshape(self.n, self.n)


def _column_max(*parts: np.ndarray) -> np.ndarray:
    """Largest absolute entry of each column over the stacked parts."""
    return np.abs(np.concatenate(parts)).max(axis=0, initial=0.0)


class _KktSolver:
    """Cholesky factorization of the scaled reduced KKT matrix G' W^-2 G,
    used to solve the 2x2 block system

        G'dz = rx,  G dx - W^2 dz = rz

    as (G' W^-2 G) dx = rx + G' W^-2 rz, dz = W^-2 (G dx - rz), with static
    regularization, for one right-hand side or a stack of columns at once.
    The regularized matrix is symmetric positive definite.  It is factored
    by LAPACK ``dpotrf`` called directly, with the arguments and the
    failure exceptions of ``scipy.linalg.cho_factor``.
    """

    _REG = 1e-12
    # Iterative refinement takes the regularization back out.  It runs, at
    # most _REFINE_PASSES times, while some column's residual exceeds
    # _REFINE_TOL times that column's right-hand side (max-norms).  When it
    # was chosen, 1e-10 left every status and iteration count unchanged on
    # a grid of 174 designs; 1e-9 moved four of them and 1e-11 one.
    _REFINE_TOL = 1e-10
    _REFINE_PASSES = 2

    def __init__(self, plan: _KktPlan, scaling: _Scaling):
        self.plan, self.scaling = plan, scaling
        H = plan.gram(scaling)
        # regularization proportional to the matrix scale so it survives the
        # addition even when the scaled system is huge
        reg = self._REG * max(1.0, float(np.abs(H.diagonal()).max()))
        H[plan.diagonal] += reg
        self.factor, info = dpotrf(H, lower=False, clean=False)
        if info > 0:
            raise scipy.linalg.LinAlgError(
                f"{info}-th leading minor of the array is not positive definite")
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of dpotrf")

    def _base_solve(self, rx, rz):
        plan = self.plan
        top = rx + plan.Gt @ self.scaling.apply_sq(rz, invert=True)
        dx = dpotrs(self.factor, top, lower=False)[0]
        dz = self.scaling.apply_sq(plan.G @ dx - rz, invert=True)
        return dx, dz

    def solve(self, rx, rz):
        """(dx, dz) for right-hand sides given as vectors, or as column
        stacks of shapes (n, k) and (m, k)."""
        plan = self.plan
        dx, dz = self._base_solve(rx, rz)
        bound = self._REFINE_TOL * _column_max(rx, rz)
        for _ in range(self._REFINE_PASSES):
            res_x = rx - plan.Gt @ dz
            res_z = rz - (plan.G @ dx - self.scaling.apply_sq(dz))
            if (_column_max(res_x, res_z) <= bound).all():
                break
            cx, cz = self._base_solve(res_x, res_z)
            dx, dz = dx + cx, dz + cz
        return dx, dz


def _row_ranges(starts: np.ndarray, dims: np.ndarray) -> np.ndarray:
    """Concatenation of the row ranges start .. start + dim - 1."""
    offsets = np.cumsum(dims) - dims
    return np.repeat(starts - offsets, dims) + np.arange(int(dims.sum()))


def _split_rows(program: ConeProgram):
    """Permute the cone rows into (G, h) and lay them out.

    The cone block holds one unit per nonnegative row (SecondOrder(1)
    included) and one per second-order block, stably sorted by dimension
    and then by the number of columns the unit's rows touch; see
    :class:`_ConeLayout`.  Zero blocks are skipped: :func:`solve` removes
    their rows first, so only zero-dimension ones get here.
    """
    unit_starts: list[int] = []
    unit_dims: list[int] = []
    start = 0
    for cone in program.cones:
        if isinstance(cone, SecondOrder) and cone.dim > 1:
            unit_starts.append(start)
            unit_dims.append(cone.dim)
        elif not isinstance(cone, Zero):
            unit_starts.extend(range(start, start + cone.dim))
            unit_dims.extend([1] * cone.dim)
        start += cone.dim
    A, b = program.constraint_matrix, program.offset
    starts = np.asarray(unit_starts, dtype=np.intp)
    dims = np.asarray(unit_dims, dtype=np.intp)
    support = np.zeros(len(dims), dtype=np.intp)
    if len(dims):
        touched = A[_row_ranges(starts, dims)] != 0
        unit_rows = np.cumsum(dims) - dims
        support = np.logical_or.reduceat(touched, unit_rows, axis=0).sum(axis=1)
    order = np.lexsort((support, dims))
    cone_rows = _row_ranges(starts[order], dims[order])
    return A[cone_rows], b[cone_rows], _ConeLayout(dims[order], support[order])


def solve(program: ConeProgram, settings: SolverSettings | None = None) -> Solution:
    """Solve the cone program; never raises for infeasible/unbounded inputs.

    Optimal solutions satisfy an absolute primal residual bound of feas_tol
    (auditable through :func:`residuals`) and a relative duality gap bound of
    gap_tol.  Non-convergence is reported as MaxIterations or
    NumericalFailure.

    Zero rows E x = f are removed first.  One SVD of E gives a point x0
    and a basis N of E's null space, so the feasible x are x0 + N w: the
    rows are inconsistent if E x0 misses f by more than feas_tol (the test
    :func:`residuals` applies to Zero blocks), x0 is the only candidate if
    N has no columns, and otherwise the interior point runs on the
    cone-only program in w.
    """
    validate(program)
    settings = settings or SolverSettings()
    zero = np.repeat([isinstance(cone, Zero) for cone in program.cones],
                     [cone.dim for cone in program.cones])
    if not zero.any():
        return _interior_point(program, settings)

    A, b, c = program.constraint_matrix, program.offset, program.objective
    E, f = A[zero], b[zero]
    U, S, Vt = np.linalg.svd(E)
    rank = int(np.count_nonzero(S > max(E.shape) * np.finfo(float).eps * S[0]))
    x0 = Vt[:rank].T @ ((U[:, :rank].T @ f) / S[:rank])
    N = Vt[rank:].T
    if np.max(np.abs(E @ x0 - f)) > settings.feas_tol:
        return _infeasible(SolveStatus.PRIMAL_INFEASIBLE, x0, 0)
    if N.shape[1] == 0:
        if residuals(program, x0).cone_violation <= settings.feas_tol:
            return Solution(SolveStatus.OPTIMAL, x0, float(c @ x0), 0.0, 0)
        return _infeasible(SolveStatus.PRIMAL_INFEASIBLE, x0, 0)
    G, h = A[~zero], b[~zero]
    cones = [cone for cone in program.cones if not isinstance(cone, Zero)]
    reduced = ConeProgram(N.shape[1], N.T @ c, G @ N, h - G @ x0, cones)
    sol = _interior_point(reduced, settings, float(c @ x0))
    return replace(sol, x=x0 + N @ sol.x)


def _interior_point(program: ConeProgram, settings: SolverSettings,
                    offset: float = 0.0) -> Solution:
    """The interior-point loop on a program without Zero rows.

    ``offset`` is added to the objective values the gap test compares and
    the Solution reports: c'x0 when the program is the reduction of one
    with Zero rows, so the gap is that of the original objective.
    """
    c = program.objective
    n = program.num_vars
    G, h, layout = _split_rows(program)
    if layout.m == 0:
        if np.linalg.norm(c) == 0.0:
            return Solution(SolveStatus.OPTIMAL, np.zeros(n), offset, 0.0, 0)
        return Solution(SolveStatus.DUAL_INFEASIBLE, np.zeros(n), -np.inf, np.inf, 0)

    norm_c = max(1.0, float(np.max(np.abs(c))))
    norm_h = max(1.0, float(np.max(np.abs(h))))
    plan = _KktPlan(G, layout)
    G, Gt = plan.G, plan.Gt

    e = layout.identity()
    x = np.zeros(n)
    # the pair (s, z) as the one (m, 2) stack the cone kernels take, and
    # its columns also as contiguous vectors, whose dot products round as
    # contiguous ones do
    sz = np.column_stack([e, e])
    s, z = e.copy(), e.copy()
    tau, kappa = 1.0, 1.0
    degree = layout.degree + 1

    best = Solution(SolveStatus.MAX_ITERATIONS, np.zeros(n), np.nan, np.inf, settings.max_iter)
    best_merit = np.inf
    stall = 0

    def certificate(tol: float) -> SolveStatus | None:
        """PrimalInfeasible if z is a Farkas certificate, DualInfeasible if
        x is an improving ray, at relative tolerance ``tol``.  Reads the
        products Gx and Gtz of the current iterate."""
        hz = -(h @ z)
        if hz > 1e-12 and np.isfinite(z).all():
            if float(np.abs(Gtz).max()) <= tol * norm_c * hz:
                return SolveStatus.PRIMAL_INFEASIBLE
        cx = -(c @ x)
        if cx > 1e-12 and np.isfinite(x).all() and np.isfinite(s).all():
            if float(np.abs(Gx + s).max()) <= tol * norm_h * cx:
                return SolveStatus.DUAL_INFEASIBLE
        return None

    with np.errstate(all="ignore"):
        for iteration in range(settings.max_iter):
            # residuals of the homogeneous system; the two products also
            # feed the convergence tests and the certificates
            Gx, Gtz = G @ x, Gt @ z
            r_dual = Gtz + c * tau                # -> 0
            r_cone = Gx + s - h * tau             # -> 0
            r_gap = float(c @ x + h @ z + kappa)  # -> 0
            mu = (s @ z + tau * kappa) / degree

            if not (np.isfinite(r_dual).all() and np.isfinite(r_cone).all()
                    and math.isfinite(r_gap) and math.isfinite(mu)):
                break

            # --- convergence tests on the de-homogenized point ---
            # the primal bound is the cone shortfall of the implied slack
            # h - G xh, absolute so that the residuals() audit holds
            # verbatim; dual feasibility is judged relative to the dual
            # iterate's magnitude
            xh, zh = x / tau, z / tau
            pres = max(-_margin(layout, h - Gx / tau), 0.0)
            dres = float(np.abs(Gtz / tau + c).max())
            dual_scale = norm_c * (1.0 + float(np.abs(zh).max()))
            pobj = float(c @ xh) + offset
            dobj = float(-(h @ zh)) + offset
            relgap = abs(pobj - dobj) / max(1.0, abs(pobj), abs(dobj))
            if pres <= settings.feas_tol and dres <= settings.feas_tol * dual_scale \
                    and relgap <= settings.gap_tol:
                return Solution(SolveStatus.OPTIMAL, xh, pobj, relgap, iteration)

            merit = max(pres, dres / dual_scale, relgap)
            if merit < 0.9 * best_merit:
                best_merit = merit
                best = Solution(SolveStatus.MAX_ITERATIONS, xh, pobj, relgap, iteration)
                stall = 0
            else:
                stall += 1

            status = certificate(settings.feas_tol)
            if status is not None:
                return _infeasible(status, xh, iteration)

            # degenerate instances stop making progress once mu bottoms out;
            # bail out before the scaled KKT system turns to noise
            if mu < 1e-18 or _margin(layout, sz) < 1e-40 or stall >= 15:
                break

            scaling = _Scaling(layout, sz)
            lam = scaling.apply(z)
            try:
                kkt = _KktSolver(plan, scaling)
            except (scipy.linalg.LinAlgError, ValueError):
                break
            lam_sq = _jordan_product(layout, lam, lam)

            # Newton steps for the homogeneous system with complementarity
            # targets lambda o (W dz + W^-1 ds) = ds_target and
            # tau dkappa + kappa dtau = dkappa_target.  With dst the Jordan
            # quotient of ds_target by lambda, the KKT right-hand side is
            # (-r_dual, -r_cone - W dst) and ds = W dst - W^2 dz; the column
            # solved for (-c, h) carries d_tau.
            def cone_rhs(ds_target: np.ndarray):
                w_dst = scaling.apply(_jordan_solve(layout, lam, ds_target))
                return w_dst, -r_cone - w_dst

            def direction(w_dst, dkappa_target: float, x0, z0):
                num = -r_gap - dkappa_target / tau - (c @ x0 + h @ z0)
                dtau = num / den
                dx = x0 + dtau * x1
                dz = z0 + dtau * z1
                ds = w_dst - scaling.apply_sq(dz)
                dkappa = (dkappa_target - kappa * dtau) / tau
                return dx, dz, dtau, ds, dkappa

            # predictor, solved together with the d_tau column
            w_dst_aff, rz_aff = cone_rhs(-lam_sq)
            X, Z = kkt.solve(np.column_stack([-c, -r_dual]), np.column_stack([h, rz_aff]))
            x1, z1 = X[:, 0], Z[:, 0]
            den = (c @ x1 + h @ z1) - kappa / tau
            _, dza, dtaua, dsa, dkappaa = direction(
                w_dst_aff, -tau * kappa, X[:, 1], Z[:, 1])
            alpha_aff = min(
                _max_step(layout, sz, np.column_stack([dsa, dza])),
                -tau / dtaua if dtaua < 0 else np.inf,
                -kappa / dkappaa if dkappaa < 0 else np.inf,
                1.0,
            )
            mu_aff = ((s + alpha_aff * dsa) @ (z + alpha_aff * dza)
                      + (tau + alpha_aff * dtaua) * (kappa + alpha_aff * dkappaa)) / degree
            sigma = min(max((mu_aff / mu) ** 3, 1e-8), 0.999)

            # corrector
            corr = _jordan_product(layout, scaling.apply(dsa, invert=True), scaling.apply(dza))
            dkappa_target = -tau * kappa - dtaua * dkappaa + sigma * mu
            w_dst, rz = cone_rhs(-lam_sq - corr + sigma * mu * e)
            dx, dz, dtau, ds, dkappa = direction(
                w_dst, dkappa_target, *kkt.solve(-r_dual, rz))

            if not (math.isfinite(dtau) and math.isfinite(dkappa)
                    and np.isfinite(dx).all() and np.isfinite(ds).all()):
                break

            dsz = np.column_stack([ds, dz])
            alpha = 0.99 * min(
                _max_step(layout, sz, dsz),
                -tau / dtau if dtau < 0 else np.inf,
                -kappa / dkappa if dkappa < 0 else np.inf,
            )
            alpha = min(alpha, 1.0)
            if not math.isfinite(alpha):
                break

            # keep iterates strictly interior despite floating-point step rounding
            ok = False
            for _ in range(40):
                sz_new = sz + alpha * dsz
                tau_new, kappa_new = tau + alpha * dtau, kappa + alpha * dkappa
                if tau_new > 0 and kappa_new > 0 and _margin(layout, sz_new) > 0:
                    ok = True
                    break
                alpha *= 0.5
            if not ok or alpha <= 1e-13:
                break

            x += alpha * dx
            sz = sz_new
            s, z = sz[:, 0].copy(), sz[:, 1].copy()
            tau, kappa = tau_new, kappa_new

        else:
            return best

        # progress has stalled: accept a modestly looser certificate if one
        # is in hand, otherwise report numerical failure at the best iterate
        status = certificate(max(1e3 * settings.feas_tol, 1e-6))
        if status is not None:
            return _infeasible(status, best.x, iteration)
        return Solution(SolveStatus.NUMERICAL_FAILURE, best.x,
                        best.objective_value, best.duality_gap, iteration)


def _infeasible(status: SolveStatus, x: np.ndarray, iteration: int) -> Solution:
    value = np.nan if status == SolveStatus.PRIMAL_INFEASIBLE else -np.inf
    return Solution(status, x, value, np.inf, iteration)
