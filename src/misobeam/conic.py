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

Each iteration's Newton system is reduced to G' W^-2 G (bordered by the
equality rows, if any).  The cone rows are kept in CSR form for
matrix-vector products, and the Gram matrix is assembled cone by cone from
dense blocks restricted to the columns each cone touches, so the work
follows the constraint matrix's nonzeros rather than its full size.  The
reduced matrix is factored densely: Cholesky without equality rows, LU of
the bordered system with them.  Problems here are desk-scale (at most a
few hundred variables, a few thousand cone rows).
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.linalg
import scipy.sparse


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
# The cone rows are permuted into [nonnegative | soc_1 | soc_2 | ...], with
# second-order blocks sorted by dimension, and the Zero rows are split off as
# equality constraints:
#
#     minimize c'x  s.t.  E x = f,   G x + s = h,   s in K.
#
# Homogeneous self-dual embedding in (x, y, z, tau, s, kappa):
#
#     E'y + G'z + c tau = 0
#     E x - f tau       = 0
#     G x + s - h tau   = 0
#     c'x + f'y + h'z + kappa = 0
#     s in K, z in K, tau >= 0, kappa >= 0,  s'z + tau kappa -> 0.
#
# tau > 0 at the limit recovers an optimal point; kappa > 0 yields a Farkas
# certificate of primal or dual infeasibility.
# ---------------------------------------------------------------------------


class _ConeLayout:
    """Row layout of the cone block [nonnegative | soc_1 | soc_2 | ...].

    The layout is built from cone units in row order: one unit per
    nonnegative row, one per second-order block.  Units come sorted by
    dimension, then by the size of their column support in G.  So every
    second-order group of equal dimension is a contiguous run of rows,
    ``(start, count, dim)``, and per-cone algebra (scaling, Jordan products,
    step lengths) runs batched over ``(count, dim)`` views of it with no
    Python loop per cone and no index gathers.

    ``classes`` are the runs of units with equal dimension and equal nonzero
    support size, as ``(group, first, count, dim, start)``: ``group`` indexes
    ``groups`` (-1 for nonnegative rows), ``first`` is the class's first unit
    within that group and ``start`` its first row.  They drive the Gram
    assembly in :class:`_KktPlan`.
    """

    def __init__(self, unit_dims: np.ndarray, unit_support: np.ndarray):
        self.m_lp = int(np.count_nonzero(unit_dims == 1))
        self.m = int(unit_dims.sum())
        self.degree = len(unit_dims)
        groups: list[list[int]] = []
        self.classes: list[tuple[int, int, int, int, int]] = []
        start = 0
        for (dim, size), run in itertools.groupby(zip(unit_dims.tolist(),
                                                      unit_support.tolist())):
            count = len(list(run))
            if dim == 1:
                group, first = -1, start
            else:
                if not groups or groups[-1][2] != dim:
                    groups.append([start, 0, dim])
                group, first = len(groups) - 1, groups[-1][1]
                groups[-1][1] += count
            if size:
                self.classes.append((group, first, count, dim, start))
            start += count * dim
        self.groups = [tuple(g) for g in groups]

    def blocks(self, u: np.ndarray):
        """The (count, dim) views of u's second-order groups, in order."""
        return [u[a : a + count * dim].reshape(count, dim) for a, count, dim in self.groups]

    def identity(self) -> np.ndarray:
        e = np.zeros(self.m)
        e[: self.m_lp] = 1.0
        for block in self.blocks(e):
            block[:, 0] = 1.0
        return e


def _lorentz(U: np.ndarray, w0: np.ndarray, w1: np.ndarray, sign: float) -> np.ndarray:
    """V(w) U for sign = 1, or V(Jw) U = V(w)^-1 U for sign = -1, block by
    block; U is (count, dim) or a stack of columns (count, dim, k)."""
    col = (slice(None),) + (None,) * (U.ndim - 2)
    u0, u1 = U[:, 0], U[:, 1:]
    dot = np.einsum("nd,nd...->n...", w1, u1)
    coef = sign * u0 + dot / (1.0 + w0)[col]
    res = np.empty_like(U)
    res[:, 0] = w0[col] * u0 + sign * dot
    res[:, 1:] = u1 + w1[(slice(None),) + col] * coef[:, None]
    return res


def _square_terms(eta, w0, w1, invert: bool):
    """(v, 2 c v, c J) per block, so that W^2 u = 2 c v (v'u) - c J u with
    c = eta, v = w, and W^-2 u is the same with c = 1/eta, v = J w."""
    v = np.empty((w1.shape[0], w1.shape[1] + 1))
    v[:, 0] = w0
    v[:, 1:] = -w1 if invert else w1
    c = (1.0 / eta if invert else eta)[:, None]
    J = np.full(v.shape[1], -1.0)
    J[0] = 1.0
    return v, 2.0 * c * v, c * J


class _Scaling:
    """Nesterov-Todd scaling for a point pair (s, z) interior to K.

    For the LP block W = diag(sqrt(s/z)).  For a second-order block,
    W = sqrt(eta) * V(wbar) with wbar the normalized NT scaling point and
    V(w) = [[w0, w1'], [w1, I + w1 w1'/(1+w0)]]; V(w)^-1 = V(Jw).  In all
    blocks W is symmetric with W z = W^-1 s = lambda.
    """

    def __init__(self, layout: _ConeLayout, s: np.ndarray, z: np.ndarray):
        self.layout = layout
        m_lp = layout.m_lp
        self.w_lp_sq = s[:m_lp] / z[:m_lp]
        self.w_lp = np.sqrt(self.w_lp_sq)
        self.soc: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for S, Z in zip(layout.blocks(s), layout.blocks(z)):
            a = np.sqrt(S[:, 0] ** 2 - np.einsum("nd,nd->n", S[:, 1:], S[:, 1:]))
            b = np.sqrt(Z[:, 0] ** 2 - np.einsum("nd,nd->n", Z[:, 1:], Z[:, 1:]))
            sbar, zbar = S / a[:, None], Z / b[:, None]
            gamma = np.sqrt((1.0 + np.einsum("nd,nd->n", sbar, zbar)) / 2.0)
            w0 = (sbar[:, 0] + zbar[:, 0]) / (2.0 * gamma)
            w1 = (sbar[:, 1:] - zbar[:, 1:]) / (2.0 * gamma)[:, None]
            self.soc.append((a / b, w0, w1))
        self.squares = {invert: [_square_terms(eta, w0, w1, invert)
                                 for eta, w0, w1 in self.soc]
                        for invert in (False, True)}

    def apply(self, u: np.ndarray, invert: bool = False) -> np.ndarray:
        """W u (or W^-1 u) for a vector u."""
        out = np.empty_like(u)
        m_lp = self.layout.m_lp
        w = self.w_lp if not invert else 1.0 / self.w_lp
        out[:m_lp] = u[:m_lp] * w
        sign = -1.0 if invert else 1.0
        power = -0.5 if invert else 0.5
        for U, O, (eta, w0, w1) in zip(self.layout.blocks(u), self.layout.blocks(out),
                                       self.soc):
            O[:] = _lorentz(U, w0, w1, sign) * (eta ** power)[:, None]
        return out

    def apply_sq(self, u: np.ndarray, invert: bool = False) -> np.ndarray:
        """W^2 u (or W^-2 u) for a vector u, in one pass.

        V(w)^2 = 2 w w' - J for w on the unit hyperboloid, so per block
        W^2 = eta (2 w w' - J) and W^-2 = eta^-1 (2 v v' - J) with v = J w.
        """
        out = np.empty_like(u)
        m_lp = self.layout.m_lp
        out[:m_lp] = u[:m_lp] / self.w_lp_sq if invert else u[:m_lp] * self.w_lp_sq
        for U, O, (v, two_cv, cJ) in zip(self.layout.blocks(u), self.layout.blocks(out),
                                         self.squares[invert]):
            np.subtract(two_cv * np.einsum("nd,nd->n", v, U)[:, None], cJ * U, out=O)
        return out

    def inverse_blocks(self, group: int, first: int, U: np.ndarray) -> np.ndarray:
        """W^-1 applied to stacked column blocks U of shape (count, dim, k),
        taken from units first .. first + count - 1 of a second-order group
        (group -1: nonnegative rows)."""
        units = slice(first, first + U.shape[0])
        if group < 0:
            return U / self.w_lp[units, None, None]
        eta, w0, w1 = self.soc[group]
        return _lorentz(U, w0[units], w1[units], -1.0) * (eta[units] ** -0.5)[:, None, None]


def _jordan_product(layout: _ConeLayout, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    out = np.empty(layout.m)
    m_lp = layout.m_lp
    out[:m_lp] = u[:m_lp] * v[:m_lp]
    for U, V, O in zip(layout.blocks(u), layout.blocks(v), layout.blocks(out)):
        O[:, 0] = np.einsum("nd,nd->n", U, V)
        O[:, 1:] = U[:, 0, None] * V[:, 1:] + V[:, 0, None] * U[:, 1:]
    return out


def _jordan_solve(layout: _ConeLayout, lam: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Solve lam o w = d for w (Jordan division)."""
    out = np.empty(layout.m)
    m_lp = layout.m_lp
    out[:m_lp] = d[:m_lp] / lam[:m_lp]
    for L, D, O in zip(layout.blocks(lam), layout.blocks(d), layout.blocks(out)):
        det = L[:, 0] ** 2 - np.einsum("nd,nd->n", L[:, 1:], L[:, 1:])
        w0 = (L[:, 0] * D[:, 0] - np.einsum("nd,nd->n", L[:, 1:], D[:, 1:])) / det
        O[:, 0] = w0
        O[:, 1:] = (D[:, 1:] - w0[:, None] * L[:, 1:]) / L[:, 0, None]
    return out


def _margin(layout: _ConeLayout, u: np.ndarray) -> float:
    """Distance-like interiority measure: positive iff u is strictly inside K."""
    m_lp = layout.m_lp
    margin = float(np.min(u[:m_lp])) if m_lp else np.inf
    for U in layout.blocks(u):
        margin = min(margin, float(np.min(
            U[:, 0] - np.sqrt(np.einsum("nd,nd->n", U[:, 1:], U[:, 1:])))))
    return margin


def _max_step(layout: _ConeLayout, u: np.ndarray, du: np.ndarray) -> float:
    """Largest alpha with u + alpha du still in K (u strictly interior)."""
    alpha = np.inf
    m_lp = layout.m_lp
    neg = du[:m_lp] < 0
    if np.any(neg):
        alpha = float(np.min(-u[:m_lp][neg] / du[:m_lp][neg]))
    for U, dU in zip(layout.blocks(u), layout.blocks(du)):
        # per block, first positive root of c2 a^2 + 2 c1 a + c0 = 0, if any
        c2 = dU[:, 0] ** 2 - np.einsum("nd,nd->n", dU[:, 1:], dU[:, 1:])
        c1 = U[:, 0] * dU[:, 0] - np.einsum("nd,nd->n", U[:, 1:], dU[:, 1:])
        c0 = np.maximum(U[:, 0] ** 2 - np.einsum("nd,nd->n", U[:, 1:], U[:, 1:]), 0.0)
        linear = np.abs(c2) < 1e-14 * np.maximum(1.0, np.maximum(np.abs(c1), np.abs(c0)))
        with np.errstate(all="ignore"):
            lin_root = np.where(linear & (c1 < 0), -c0 / (2.0 * c1), np.inf)
            disc = c1 * c1 - c2 * c0
            ok = ~linear & (disc >= 0)
            root = np.sqrt(np.where(ok, disc, 0.0))
            r1 = np.where(ok, (-c1 - root) / c2, np.inf)
            r2 = np.where(ok, (-c1 + root) / c2, np.inf)
            r1 = np.where(r1 > 0, r1, np.inf)
            r2 = np.where(r2 > 0, r2, np.inf)
        block_alpha = np.minimum(np.minimum(r1, r2), lin_root)
        alpha = min(alpha, float(np.min(block_alpha)))
    return alpha


class _KktPlan:
    """Structure of the reduced KKT system, fixed for one solve.

    E stays dense; G is held in CSR form, with its transpose, for the
    matrix-vector products.  For the Gram matrix G' W^-2 G: W is block
    diagonal over cone units, so W_k^-1 G_k is zero outside the column
    support of the unit's rows G_k, and

        G' W^-2 G = sum_k T_k' T_k,   T_k = W_k^-1 G_k[:, support_k].

    The units of one layout class share dimension and support size, so
    their restricted blocks G_k[:, support_k] stack into one dense
    (count, dim, s) array, stored once here.  Each iteration scales the
    stacks, takes batched Grams T_k' T_k and scatter-adds them into the
    n x n matrix with one bincount over the flat indices precomputed here.
    This is the arithmetic of a dense (W^-1 G)' (W^-1 G) in another
    summation order, without forming W^-1 G.
    """

    def __init__(self, E: np.ndarray, G: np.ndarray, layout: _ConeLayout):
        self.E = E
        self.p, self.n = E.shape
        n = self.n
        self.G = scipy.sparse.csr_array(G)
        self.Gt = self.G.T.tocsr()
        self.stacks: list[tuple[int, int, np.ndarray]] = []
        index = [np.zeros(0, dtype=np.intp)]
        for group, first, count, dim, start in layout.classes:
            rows = G[start : start + count * dim].reshape(count, dim, n)
            cols = np.nonzero(np.any(rows != 0, axis=1))[1].reshape(count, -1)
            self.stacks.append(
                (group, first, np.take_along_axis(rows, cols[:, None, :], axis=2)))
            index.append((cols[:, :, None] * n + cols[:, None, :]).ravel())
        self.gram_index = np.concatenate(index)

    def gram(self, scaling: _Scaling) -> np.ndarray:
        """G' W^-2 G as a dense n x n array."""
        parts = [np.zeros(0)]
        for group, first, stack in self.stacks:
            T = scaling.inverse_blocks(group, first, stack)
            parts.append(np.matmul(T.transpose(0, 2, 1), T).ravel())
        flat = np.bincount(self.gram_index, weights=np.concatenate(parts),
                           minlength=self.n * self.n)
        return flat.astype(float, copy=False).reshape(self.n, self.n)


class _KktSolver:
    """Factorization of the scaled reduced KKT system

        [ G' W^-2 G   E' ] [dx]   [rx + G' W^-2 rz]
        [ E           0  ] [dy] = [ry]

    used to solve the 3x3 block system
        E'dy + G'dz = rx,  E dx = ry,  G dx - W^2 dz = rz
    (dz = W^-2 (G dx - rz)) with static regularization and iterative
    refinement.  Without equality rows the regularized G' W^-2 G is
    symmetric positive definite and is factored by Cholesky; with them the
    bordered matrix is indefinite and is factored by LU.
    """

    _REG = 1e-12

    def __init__(self, plan: _KktPlan, scaling: _Scaling):
        self.plan, self.scaling = plan, scaling
        n, p = plan.n, plan.p
        H = plan.gram(scaling)
        # regularization proportional to the matrix scale so it survives the
        # addition even when the scaled system is huge; iterative refinement
        # in solve() takes the perturbation back out
        reg = self._REG * max(1.0, float(np.abs(np.diagonal(H)).max()))
        H[np.diag_indices(n)] += reg
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # singular pivots surface as NaN steps
            if p:
                M = np.zeros((n + p, n + p))
                M[:n, :n] = H
                M[:n, n:] = plan.E.T
                M[n:, :n] = plan.E
                M[n:, n:] = -reg * np.eye(p)
                self.factor = scipy.linalg.lu_factor(M, check_finite=False)
                self.back_solve = scipy.linalg.lu_solve
            else:
                self.factor = scipy.linalg.cho_factor(H, check_finite=False)
                self.back_solve = scipy.linalg.cho_solve

    def _base_solve(self, rx, ry, rz):
        plan, n = self.plan, self.plan.n
        top = rx + plan.Gt @ self.scaling.apply_sq(rz, invert=True)
        sol = self.back_solve(self.factor, np.concatenate([top, ry]), check_finite=False)
        dx, dy = sol[:n], sol[n:]
        dz = self.scaling.apply_sq(plan.G @ dx - rz, invert=True)
        return dx, dy, dz

    def solve(self, rx, ry, rz, refine: int = 2):
        plan = self.plan
        dx, dy, dz = self._base_solve(rx, ry, rz)
        for _ in range(refine):
            res_x = rx - (plan.E.T @ dy + plan.Gt @ dz)
            res_y = ry - plan.E @ dx
            res_z = rz - (plan.G @ dx - self.scaling.apply_sq(dz))
            cx, cy, cz = self._base_solve(res_x, res_y, res_z)
            dx, dy, dz = dx + cx, dy + cy, dz + cz
        return dx, dy, dz


def _row_ranges(starts: np.ndarray, dims: np.ndarray) -> np.ndarray:
    """Concatenation of the row ranges start .. start + dim - 1."""
    offsets = np.cumsum(dims) - dims
    return np.repeat(starts - offsets, dims) + np.arange(int(dims.sum()))


def _split_rows(program: ConeProgram):
    """Permute rows into equality block (E, f) and cone block (G, h).

    The cone block holds one unit per nonnegative row (SecondOrder(1)
    included) and one per second-order block, stably sorted by dimension
    and then by the number of columns the unit's rows touch; see
    :class:`_ConeLayout`.  Zero-dimension cones are skipped.
    """
    zero_rows: list[int] = []
    unit_starts: list[int] = []
    unit_dims: list[int] = []
    start = 0
    for cone in program.cones:
        if isinstance(cone, Zero):
            zero_rows.extend(range(start, start + cone.dim))
        elif isinstance(cone, Nonnegative) or cone.dim == 1:
            unit_starts.extend(range(start, start + cone.dim))
            unit_dims.extend([1] * cone.dim)
        else:
            unit_starts.append(start)
            unit_dims.append(cone.dim)
        start += cone.dim
    A, b = program.constraint_matrix, program.offset
    E, f = A[zero_rows], b[zero_rows]
    starts = np.asarray(unit_starts, dtype=np.intp)
    dims = np.asarray(unit_dims, dtype=np.intp)
    support = np.zeros(len(dims), dtype=np.intp)
    if len(dims):
        touched = A[_row_ranges(starts, dims)] != 0
        unit_rows = np.cumsum(dims) - dims
        support = np.logical_or.reduceat(touched, unit_rows, axis=0).sum(axis=1)
    order = np.lexsort((support, dims))
    cone_rows = _row_ranges(starts[order], dims[order])
    G, h = A[cone_rows], b[cone_rows]
    return E, f, G, h, _ConeLayout(dims[order], support[order])


def solve(program: ConeProgram, settings: SolverSettings | None = None) -> Solution:
    """Solve the cone program; never raises for infeasible/unbounded inputs.

    Optimal solutions satisfy an absolute primal residual bound of feas_tol
    (auditable through :func:`residuals`) and a relative duality gap bound of
    gap_tol.  Non-convergence is reported as MaxIterations or
    NumericalFailure.
    """
    validate(program)
    settings = settings or SolverSettings()
    c = program.objective
    n = program.num_vars
    E, f, G, h, layout = _split_rows(program)
    m, p = layout.m, E.shape[0]

    if m == 0 and p == 0:
        if np.linalg.norm(c) == 0.0:
            return Solution(SolveStatus.OPTIMAL, np.zeros(n), 0.0, 0.0, 0)
        return Solution(SolveStatus.DUAL_INFEASIBLE, np.zeros(n), -np.inf, np.inf, 0)

    norm_c = max(1.0, float(np.max(np.abs(c))))
    norm_fh = max(1.0, float(max(np.max(np.abs(f)) if p else 0.0,
                                 np.max(np.abs(h)) if m else 0.0)))
    plan = _KktPlan(E, G, layout)
    E, G, Gt = plan.E, plan.G, plan.Gt

    e = layout.identity()
    x = np.zeros(n)
    y = np.zeros(p)
    z = e.copy()
    s = e.copy()
    tau, kappa = 1.0, 1.0
    degree = layout.degree + 1

    best = Solution(SolveStatus.MAX_ITERATIONS, np.zeros(n), np.nan, np.inf, settings.max_iter)
    best_merit = np.inf
    stall = 0

    def certificate(tol: float) -> SolveStatus | None:
        """PrimalInfeasible if (y, z) is a Farkas certificate, DualInfeasible
        if x is an improving ray, at relative tolerance ``tol``."""
        by_hz = -(f @ y) - (h @ z)
        if by_hz > 1e-12 and np.all(np.isfinite(y)) and np.all(np.isfinite(z)):
            cert_res = float(np.max(np.abs(E.T @ y + Gt @ z)))
            if cert_res <= tol * norm_c * by_hz:
                return SolveStatus.PRIMAL_INFEASIBLE
        cx = -(c @ x)
        if cx > 1e-12 and np.all(np.isfinite(x)) and np.all(np.isfinite(s)):
            ray_res = float(np.max(np.abs(E @ x))) if p else 0.0
            if m:
                ray_res = max(ray_res, float(np.max(np.abs(G @ x + s))))
            if ray_res <= tol * norm_fh * cx:
                return SolveStatus.DUAL_INFEASIBLE
        return None

    with np.errstate(all="ignore"):
        for iteration in range(settings.max_iter):
            # residuals of the homogeneous system
            r_dual = E.T @ y + Gt @ z + c * tau           # -> 0
            r_eq = E @ x - f * tau                        # -> 0
            r_cone = G @ x + s - h * tau                  # -> 0
            r_gap = float(c @ x + f @ y + h @ z + kappa)  # -> 0
            mu = (s @ z + tau * kappa) / degree

            if not np.all(np.isfinite(np.concatenate([r_dual, r_eq, r_cone, [r_gap, mu]]))):
                break

            # --- convergence tests on the de-homogenized point ---
            xh, yh, zh = x / tau, y / tau, z / tau
            pres = _primal_violation(plan, f, h, layout, xh)
            dres = float(np.max(np.abs(E.T @ yh + Gt @ zh + c))) if (p or m) else 0.0
            # dual feasibility is judged relative to the dual iterate magnitude
            # (the primal bound stays absolute so external audits hold verbatim)
            dual_scale = norm_c * (1.0 + max(
                float(np.max(np.abs(yh))) if p else 0.0,
                float(np.max(np.abs(zh))) if m else 0.0))
            pobj = float(c @ xh)
            dobj = float(-(f @ yh) - (h @ zh))
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
            if mu < 1e-18 or min(_margin(layout, s), _margin(layout, z)) < 1e-40 \
                    or stall >= 15:
                break

            scaling = _Scaling(layout, s, z)
            lam = scaling.apply(z)
            try:
                kkt = _KktSolver(plan, scaling)
            except (scipy.linalg.LinAlgError, ValueError):
                break

            # column of the KKT solve responsible for d_tau
            x1, y1, z1 = kkt.solve(-c, f, h)

            def direction(ds_target: np.ndarray, dkappa_target: float):
                # Newton step for the homogeneous system with complementarity
                # targets lambda o (W dz + W^-1 ds) = ds_target,
                # tau dkappa + kappa dtau = dkappa_target.
                dst = _jordan_solve(layout, lam, ds_target)
                rx, ry = -r_dual, -r_eq
                rz = -r_cone - scaling.apply(dst)
                x0, y0, z0 = kkt.solve(rx, ry, rz)
                num = -r_gap - dkappa_target / tau - (c @ x0 + f @ y0 + h @ z0)
                den = (c @ x1 + f @ y1 + h @ z1) - kappa / tau
                dtau = num / den
                dx = x0 + dtau * x1
                dy = y0 + dtau * y1
                dz = z0 + dtau * z1
                ds = scaling.apply(dst - scaling.apply(dz))
                dkappa = (dkappa_target - kappa * dtau) / tau
                return dx, dy, dz, dtau, ds, dkappa

            lam_sq = _jordan_product(layout, lam, lam)

            # predictor
            aff = direction(-lam_sq, -tau * kappa)
            dxa, dya, dza, dtaua, dsa, dkappaa = aff
            alpha_aff = min(
                _max_step(layout, s, dsa),
                _max_step(layout, z, dza),
                -tau / dtaua if dtaua < 0 else np.inf,
                -kappa / dkappaa if dkappaa < 0 else np.inf,
                1.0,
            )
            mu_aff = ((s + alpha_aff * dsa) @ (z + alpha_aff * dza)
                      + (tau + alpha_aff * dtaua) * (kappa + alpha_aff * dkappaa)) / degree
            sigma = min(max((mu_aff / mu) ** 3, 1e-8), 0.999)

            # corrector
            corr = _jordan_product(layout, scaling.apply(dsa, invert=True), scaling.apply(dza))
            ds_target = -lam_sq - corr + sigma * mu * e
            dkappa_target = -tau * kappa - dtaua * dkappaa + sigma * mu
            dx, dy, dz, dtau, ds, dkappa = direction(ds_target, dkappa_target)

            if not (np.isfinite(dtau) and np.isfinite(dkappa)
                    and np.all(np.isfinite(dx)) and np.all(np.isfinite(ds))):
                break

            alpha = 0.99 * min(
                _max_step(layout, s, ds),
                _max_step(layout, z, dz),
                -tau / dtau if dtau < 0 else np.inf,
                -kappa / dkappa if dkappa < 0 else np.inf,
            )
            alpha = min(alpha, 1.0)
            if not np.isfinite(alpha):
                break

            # keep iterates strictly interior despite floating-point step rounding
            ok = False
            for _ in range(40):
                s_new, z_new = s + alpha * ds, z + alpha * dz
                tau_new, kappa_new = tau + alpha * dtau, kappa + alpha * dkappa
                if (tau_new > 0 and kappa_new > 0
                        and _margin(layout, s_new) > 0 and _margin(layout, z_new) > 0):
                    ok = True
                    break
                alpha *= 0.5
            if not ok or alpha <= 1e-13:
                break

            x += alpha * dx
            y += alpha * dy
            z, s = z_new, s_new
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


def _primal_violation(plan: _KktPlan, f, h, layout: _ConeLayout, xh: np.ndarray) -> float:
    """True feasibility error of the de-homogenized point: equality residual
    plus cone shortfall of the implied slack h - G xh (matches the public
    :func:`residuals` audit)."""
    viol = float(np.max(np.abs(plan.E @ xh - f))) if plan.p else 0.0
    if layout.m:
        slack = h - plan.G @ xh
        if layout.m_lp:
            viol = max(viol, -float(np.min(slack[: layout.m_lp])))
        for blk in layout.blocks(slack):
            viol = max(viol, float(np.max(
                np.sqrt(np.einsum("nd,nd->n", blk[:, 1:], blk[:, 1:])) - blk[:, 0])))
    return max(viol, 0.0)
