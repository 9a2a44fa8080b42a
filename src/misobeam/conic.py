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

``solve_batch`` runs programs that share a cone layout through one loop as
one block-diagonal program, member-major: one segmented kernel, one Gram
assembly and one sparse product serve every member, while each member
keeps its own scalars, step lengths, stopping tests and Cholesky factor.
Every operation acts on a member's entries as that member's solo solve
does, so each member's result is bit for bit the one :func:`solve` gives
it alone; ``solve`` is the batch of one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
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
    """Row layout of the cone block of ``members`` programs that share one
    cone structure: each member's rows hold one unit per nonnegative row,
    then one per second-order block, and the members' rows follow one
    another (member-major).

    Units come sorted by dimension, then by the size of their column support
    in G.  Every cone kernel is one segmented pass over all rows of all
    members, whatever the mix of dimensions: per-unit sums are
    ``np.add.reduceat`` from each unit's head row, and per-unit scalars go
    back to the rows through ``np.repeat(..., dims)``.  A nonnegative row is
    a unit of dimension 1 (its head and nothing else), so no segment is
    empty; the second-order formulas reduce to the elementwise ones there,
    except the step length, which takes such a row as its linear case.
    Kernels take vectors or column stacks of shape (rows, k).

    ``m`` and ``degree`` count one member's rows and units.  ``classes``
    are one member's runs of units with equal dimension and equal nonzero
    support size, as ``(first_unit, count, dim, start)`` with ``start`` the
    first row.  They drive the Gram assembly in :class:`_KktPlan`.
    """

    def __init__(self, unit_dims: np.ndarray, unit_support: np.ndarray,
                 members: int = 1):
        self.unit_dims, self.unit_support = unit_dims, unit_support
        self.members = members
        self.m_lp = int(np.count_nonzero(unit_dims == 1))
        self.m = int(unit_dims.sum())
        self.degree = len(unit_dims)
        self.dims = np.tile(unit_dims, members)
        self.heads = np.cumsum(self.dims) - self.dims
        self.lp = np.flatnonzero(self.dims == 1)    # every member's nonnegative rows
        self.lp_rows = self.heads[self.lp]
        self.head = np.zeros(members * self.m)
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

    def stacked(self, members: int) -> "_ConeLayout":
        """The layout of ``members`` programs with this one's structure."""
        if members == self.members:
            return self
        return _ConeLayout(self.unit_dims, self.unit_support, members)

    @staticmethod
    def columns(u: np.ndarray) -> np.ndarray:
        return u if u.ndim == 2 else u[:, None]

    def unit_sum(self, U: np.ndarray) -> np.ndarray:
        """Per-unit sums of the rows of U."""
        return np.add.reduceat(U, self.heads, axis=0)

    def spread(self, V: np.ndarray) -> np.ndarray:
        """Per-unit values repeated over each unit's rows."""
        return V.repeat(self.dims, axis=0)

    def member_min(self, V: np.ndarray) -> np.ndarray:
        """The smallest entry of each member's units (rows of V), per member."""
        return V.reshape(self.members, -1).min(axis=1, initial=np.inf)

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
        # w and the units' W^-1 scales member by member, for inverse_blocks
        self.member_w = self.w.reshape(L.members, L.m)
        self.member_inv_scale = self.unit_scale[True].reshape(L.members, L.degree)
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
        """W^-1 applied to stacked column blocks U of shape (members x count,
        dim, k), taken from each member's units first .. first + count - 1,
        whose rows start at ``start``."""
        w = self.member_w[:, start : start + count * dim].reshape(-1, dim)
        scale = self.member_inv_scale[:, first : first + count].reshape(-1, 1, 1)
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


def _margin(layout: _ConeLayout, u: np.ndarray) -> np.ndarray:
    """Distance-like interiority measure per member, the smallest over the
    columns of u: positive iff every column is strictly inside K."""
    U = layout.columns(u)
    radius = np.sqrt(layout.unit_sum((U * layout.tail) ** 2))
    return layout.member_min(U[layout.heads] - radius)


def _max_step(layout: _ConeLayout, u: np.ndarray, du: np.ndarray) -> np.ndarray:
    """Largest alpha per member with u + alpha du still in K, over the
    columns of the stacks u and du (each column of u strictly interior).
    Runs under the caller's ``np.errstate``."""
    U, dU = layout.columns(u), layout.columns(du)
    J = layout.jsign
    # per unit, first positive root of c2 a^2 + 2 c1 a + c0 = 0, if any
    c2 = layout.unit_sum(dU * dU * J)
    c1 = layout.unit_sum(U * dU * J)
    c0 = np.maximum(layout.unit_sum(U * U * J), 0.0)
    if layout.m_lp:
        # a nonnegative row leaves K where u0 + a du0 = 0: the linear case
        lp, rows = layout.lp, layout.lp_rows
        c2[lp], c1[lp], c0[lp] = 0.0, 0.5 * dU[rows], U[rows]
    linear = np.abs(c2) < 1e-14 * np.maximum(1.0, np.maximum(np.abs(c1), c0))
    lin_root = np.where(linear & (c1 < 0), -c0 / (2.0 * c1), np.inf)
    disc = c1 * c1 - c2 * c0
    # the roots as the cancellation-free pair q / c2, c0 / q
    q = -(c1 + np.copysign(np.sqrt(disc), c1))
    real = ~linear & (disc >= 0)
    first, second = q / c2, c0 / q
    first = np.where(real & (first > 0), first, lin_root)
    second = np.where(real & (second > 0), second, np.inf)
    return layout.member_min(np.minimum(first, second))


class _KktPlan:
    """Structure of the reduced KKT systems of a batch, fixed for one solve.

    ``G`` stacks the members' constraint matrices row-wise, member-major,
    each over the same n columns; every product below works member by
    member, as if each were alone.  G is held as one block-diagonal CSR
    matrix, with its transpose, for the matrix-vector products: each row's
    nonzeros sit in the same order as in the member's own CSR form, so
    every product rounds as the member's own product.

    For a member's Gram matrix G' W^-2 G: W is block diagonal over cone
    units, so W_k^-1 G_k is zero outside the column support of the unit's
    rows G_k, and

        G' W^-2 G = sum_k T_k' T_k,   T_k = W_k^-1 G_k[:, support_k].

    The units of one layout class share dimension and support size, so
    their restricted blocks G_k[:, support_k] stack, over all members, into
    one dense (members x count, dim, s) array, stored once here.  Each
    iteration scales the stacks, takes batched Grams T_k' T_k and
    scatter-adds them into the (members, n, n) array with one bincount over
    the flat indices precomputed here.  Each bin receives its member's
    terms in the member's own order, so each member's matrix is the one a
    solo solve assembles: the arithmetic of a dense (W^-1 G)' (W^-1 G) in
    another summation order, without forming W^-1 G.
    """

    def __init__(self, G: np.ndarray, layout: _ConeLayout):
        self.n = n = G.shape[1]
        self.members = K = layout.members
        blocks = [scipy.sparse.csr_array(G_k) for G_k in np.split(G, K)]
        self.G = _block_diagonal(blocks)
        self.Gt = _block_diagonal([block.T.tocsr() for block in blocks])
        self.stacks: list[tuple[tuple[int, int, int, int], np.ndarray]] = []
        index = [np.zeros(0, dtype=np.intp)]
        for cls in layout.classes:
            first, count, dim, start = cls
            rows = G.reshape(K, layout.m, n)[:, start : start + count * dim]
            rows = rows.reshape(K * count, dim, n)
            cols = np.nonzero(np.any(rows != 0, axis=1))[1].reshape(K * count, -1)
            self.stacks.append((cls, np.take_along_axis(rows, cols[:, None, :], axis=2)))
            flat = cols[:, :, None] * n + cols[:, None, :]
            flat += (n * n * np.arange(K).repeat(count))[:, None, None]
            index.append(flat.ravel())
        self.gram_index = np.concatenate(index)
        self.diagonal = np.diag_indices(n)

    def gram(self, scaling: _Scaling) -> np.ndarray:
        """Each member's G' W^-2 G, as a dense (members, n, n) array."""
        parts = [np.zeros(0)]
        for cls, stack in self.stacks:
            T = scaling.inverse_blocks(*cls, stack)
            parts.append(np.matmul(T.transpose(0, 2, 1), T).ravel())
        size = self.members * self.n * self.n
        flat = np.bincount(self.gram_index, weights=np.concatenate(parts), minlength=size)
        return flat.astype(float, copy=False).reshape(self.members, self.n, self.n)


def _block_diagonal(blocks: list) -> scipy.sparse.csr_array:
    """The block-diagonal CSR matrix of equally shaped CSR blocks, each row
    keeping its block's nonzeros in their order."""
    if len(blocks) == 1:
        return blocks[0]
    rows, cols = blocks[0].shape
    ends = np.cumsum([0] + [block.nnz for block in blocks[:-1]])
    indptr = np.concatenate([[0]] + [block.indptr[1:] + end
                                     for block, end in zip(blocks, ends)])
    indices = np.concatenate([block.indices + k * cols for k, block in enumerate(blocks)])
    data = np.concatenate([block.data for block in blocks])
    return scipy.sparse.csr_array((data, indices, indptr),
                                  shape=(len(blocks) * rows, len(blocks) * cols))


def _column_max(members: int, *parts: np.ndarray) -> np.ndarray:
    """Largest absolute entry of each column over the stacked parts, per
    member: shape (members,) for vectors, (members, k) for column stacks."""
    stacked = np.concatenate([p.reshape(members, -1, *p.shape[1:]) for p in parts], axis=1)
    return np.abs(stacked).max(axis=1, initial=0.0)


class _KktSolver:
    """Cholesky factorization of each member's scaled reduced KKT matrix
    G' W^-2 G, used to solve the 2x2 block system

        G'dz = rx,  G dx - W^2 dz = rz

    as (G' W^-2 G) dx = rx + G' W^-2 rz, dz = W^-2 (G dx - rz), with static
    regularization, for one right-hand side or a stack of columns at once.
    The regularized matrix is symmetric positive definite.  It is factored
    by LAPACK ``dpotrf`` called directly, as ``scipy.linalg.cho_factor``
    calls it.  Only the ``members`` given are factored; a member whose
    factorization fails is listed in ``failed`` and solved for no further.
    The other members' solves are exact zeros in dx.
    """

    _REG = 1e-12
    # Iterative refinement takes the regularization back out.  It runs, at
    # most _REFINE_PASSES times, while some column's residual exceeds
    # _REFINE_TOL times that column's right-hand side (max-norms), member by
    # member.  When it was chosen, 1e-10 left every status and iteration
    # count unchanged on a grid of 174 designs; 1e-9 moved four of them and
    # 1e-11 one.
    _REFINE_TOL = 1e-10
    _REFINE_PASSES = 2

    def __init__(self, plan: _KktPlan, scaling: _Scaling, members=None):
        self.plan, self.scaling = plan, scaling
        H = plan.gram(scaling)
        # regularization proportional to the matrix scale so it survives the
        # addition even when the scaled system is huge
        peak = np.abs(np.diagonal(H, axis1=1, axis2=2)).max(axis=1)
        self.factors: dict[int, np.ndarray] = {}
        self.failed: list[int] = []
        for k in range(plan.members) if members is None else members:
            H_k = H[k]
            H_k[plan.diagonal] += self._REG * max(1.0, float(peak[k]))
            factor, info = dpotrf(H_k, lower=False, clean=False)
            if info == 0:
                self.factors[k] = factor
            else:
                self.failed.append(k)

    def _base_solve(self, rx, rz, members=None):
        plan = self.plan
        top = rx + plan.Gt @ self.scaling.apply_sq(rz, invert=True)
        if plan.members == 1:
            dx = dpotrs(self.factors[0], top, lower=False)[0]
        else:
            dx = np.zeros_like(top)
            shape = (plan.members, plan.n, *top.shape[1:])
            tops, dxs = top.reshape(shape), dx.reshape(shape)
            for k in self.factors if members is None else members:
                dxs[k] = dpotrs(self.factors[k], tops[k], lower=False)[0]
        dz = self.scaling.apply_sq(plan.G @ dx - rz, invert=True)
        return dx, dz

    def solve(self, rx, rz):
        """(dx, dz) for right-hand sides given as vectors, or as column
        stacks of shapes (members x n, k) and (members x m, k)."""
        plan, K = self.plan, self.plan.members
        n, m = plan.n, len(rz) // K
        dx, dz = self._base_solve(rx, rz)
        bound = self._REFINE_TOL * _column_max(K, rx, rz)
        pending = list(self.factors)
        for _ in range(self._REFINE_PASSES):
            res_x = rx - plan.Gt @ dz
            res_z = rz - (plan.G @ dx - self.scaling.apply_sq(dz))
            ok = (_column_max(K, res_x, res_z) <= bound).reshape(K, -1).all(axis=1)
            pending = [k for k in pending if not ok[k]]
            if not pending:
                break
            cx, cz = self._base_solve(res_x, res_z, pending)
            if len(pending) == K:
                dx, dz = dx + cx, dz + cz
                continue
            for k in pending:  # the other members keep their solves
                dx[k * n : (k + 1) * n] += cx[k * n : (k + 1) * n]
                dz[k * m : (k + 1) * m] += cz[k * m : (k + 1) * m]
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
    NumericalFailure.  This is :func:`solve_batch` of one program.
    """
    return solve_batch([program], settings)[0]


def solve_batch(programs, settings: SolverSettings | None = None) -> list[Solution]:
    """Solve each program as :func:`solve` would solve it alone, bit for bit:
    the same status, iteration count, objective and ``x`` bytes.

    Zero rows E x = f are removed first, program by program.  One SVD of E
    gives a point x0 and a basis N of E's null space, so the feasible x are
    x0 + N w: the rows are inconsistent if E x0 misses f by more than
    feas_tol (the test :func:`residuals` applies to Zero blocks), x0 is the
    only candidate if N has no columns, and otherwise the interior point
    runs on the cone-only program in w.

    Programs whose cone-only forms share the number of variables and the
    cone layout (unit dimensions and column-support sizes) then run as one
    block-diagonal program through one interior-point loop, which pays the
    per-iteration interpreter cost once for all of them.  Every step
    length, stopping test and certificate stays per program, and every
    floating-point operation of a member is the one its solo solve makes.
    """
    settings = settings or SolverSettings()
    solutions: list[Solution | None] = [None] * len(programs)
    groups: dict[tuple, list[_Member]] = {}
    for index, program in enumerate(programs):
        validate(program)
        member = _reduce(index, program, settings)
        if isinstance(member, Solution):
            solutions[index] = member
            continue
        layout = member.layout
        key = (len(member.c), layout.unit_dims.tobytes(), layout.unit_support.tobytes())
        groups.setdefault(key, []).append(member)
    for group in groups.values():
        for member, solution in zip(group, _interior_point(group, settings)):
            solutions[member.index] = member.lift(solution)
    return solutions


@dataclass
class _Member:
    """One program's cone-only form: minimize c'w + offset subject to
    h - G w in K, with the cone rows permuted by :func:`_split_rows`.  The
    program's x is x0 + N w, or w itself when ``N`` is None."""

    index: int
    c: np.ndarray
    G: np.ndarray
    h: np.ndarray
    layout: _ConeLayout
    offset: float = 0.0
    x0: np.ndarray | None = None
    N: np.ndarray | None = None

    def lift(self, solution: Solution) -> Solution:
        if self.N is None:
            return solution
        return replace(solution, x=self.x0 + self.N @ solution.x)


def _reduce(index: int, program: ConeProgram, settings: SolverSettings):
    """The program's cone-only form as a :class:`_Member`, or its Solution
    when the Zero rows alone decide it."""
    zero = np.repeat([isinstance(cone, Zero) for cone in program.cones],
                     [cone.dim for cone in program.cones])
    if not zero.any():
        return _Member(index, program.objective, *_split_rows(program))

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
    return _Member(index, reduced.objective, *_split_rows(reduced),
                   offset=float(c @ x0), x0=x0, N=N)


def _spread(values, size: int):
    """Per-member scalars repeated over each member's ``size`` rows; the
    one scalar itself for a single member."""
    return values[0] if len(values) == 1 else np.repeat(values, size)


def _dots(a: np.ndarray, b: np.ndarray, members: int):
    """Per-member dot products of member-major vectors, as numpy scalars.
    A stack of (1, n) @ (n, 1) products runs the BLAS dot of each member's
    vectors, so each rounds as that member's own ``a @ b``."""
    if members == 1:
        return (a @ b,)
    return np.matmul(a.reshape(members, 1, -1), b.reshape(members, -1, 1)).reshape(members)


def _step_limit(step, tau, dtau, kappa, dkappa):
    """The largest step toward the cone boundary, tau = 0 or kappa = 0."""
    return min(step, -tau / dtau if dtau < 0 else np.inf,
               -kappa / dkappa if dkappa < 0 else np.inf)


def _interior_point(group: list[_Member], settings: SolverSettings) -> list[Solution]:
    """The interior-point loop on a group of cone-only programs that share
    one layout, run as one member-major block program.

    Vectors hold the members' entries one member after another, and every
    array operation acts on each member's entries as that member's solo
    solve would.  The scalars of each member (tau, kappa, mu, step lengths,
    stopping tests, certificates, stall counts) are computed member by
    member, with the expressions and scalar types of a solo solve.  A
    member that has returned is frozen: its entries ride along unused, with
    zero steps, until the last member returns.  A member's ``offset`` is
    added to the objective values the gap test compares and the Solution
    reports: c'x0 when the program is the reduction of one with Zero rows,
    so the gap is that of the original objective.
    """
    K = len(group)
    layout = group[0].layout.stacked(K)
    n, m = len(group[0].c), layout.m
    if m == 0:
        return [Solution(SolveStatus.OPTIMAL, np.zeros(n), member.offset, 0.0, 0)
                if np.linalg.norm(member.c) == 0.0 else
                Solution(SolveStatus.DUAL_INFEASIBLE, np.zeros(n), -np.inf, np.inf, 0)
                for member in group]
    c = np.concatenate([member.c for member in group])
    h = np.concatenate([member.h for member in group])
    norm_c = [max(1.0, float(np.max(np.abs(member.c)))) for member in group]
    norm_h = [max(1.0, float(np.max(np.abs(member.h)))) for member in group]
    G = group[0].G if K == 1 else np.concatenate([member.G for member in group])
    for member in group:
        member.G = None  # the plan keeps what the loop needs of the dense rows
    plan = _KktPlan(G, layout)
    G, Gt = plan.G, plan.Gt

    e = layout.identity()
    x = np.zeros(K * n)
    # the pair (s, z) as the one (K m, 2) stack the cone kernels take, and
    # its columns also as contiguous vectors, whose dot products round as
    # contiguous ones do
    sz = np.column_stack([e, e])
    s, z = e.copy(), e.copy()
    tau, kappa = [1.0] * K, [1.0] * K
    degree = layout.degree + 1

    best = [Solution(SolveStatus.MAX_ITERATIONS, np.zeros(n), np.nan, np.inf,
                     settings.max_iter)] * K
    best_merit = [np.inf] * K
    stall = [0] * K
    out: list[Solution | None] = [None] * K
    live = list(range(K))

    def rows(v: np.ndarray, k: int) -> np.ndarray:
        return v.reshape(K, -1)[k]

    def per_member_all(v: np.ndarray) -> np.ndarray:
        return v.reshape(K, -1).all(axis=1)

    def per_member_max(v: np.ndarray) -> np.ndarray:
        return np.abs(v).reshape(K, -1).max(axis=1)

    def certificate(k: int, tol: float) -> SolveStatus | None:
        """PrimalInfeasible if member k's z is a Farkas certificate,
        DualInfeasible if its x is an improving ray, at relative tolerance
        ``tol``.  Reads the products Gx and Gtz of the current iterate."""
        hz = -hz_dot[k]
        if hz > 1e-12 and np.isfinite(rows(z, k)).all():
            if float(np.abs(rows(Gtz, k)).max()) <= tol * norm_c[k] * hz:
                return SolveStatus.PRIMAL_INFEASIBLE
        cx = -cx_dot[k]
        if cx > 1e-12 and np.isfinite(rows(x, k)).all() and np.isfinite(rows(s, k)).all():
            if float(np.abs(rows(Gx, k) + rows(s, k)).max()) <= tol * norm_h[k] * cx:
                return SolveStatus.DUAL_INFEASIBLE
        return None

    def stop(k: int) -> None:
        """Progress has stalled: accept a modestly looser certificate if one
        is in hand, otherwise report numerical failure at the best iterate."""
        status = certificate(k, max(1e3 * settings.feas_tol, 1e-6))
        if status is not None:
            out[k] = _infeasible(status, best[k].x, iteration)
        else:
            out[k] = Solution(SolveStatus.NUMERICAL_FAILURE, best[k].x,
                              best[k].objective_value, best[k].duality_gap, iteration)
        live.remove(k)

    with np.errstate(all="ignore"):
        for iteration in range(settings.max_iter):
            # residuals of the homogeneous system; the two products also
            # feed the convergence tests and the certificates
            Gx, Gtz = G @ x, Gt @ z
            tau_n, tau_m = _spread(tau, n), _spread(tau, m)
            r_dual = Gtz + c * tau_n                  # -> 0
            r_cone = Gx + s - h * tau_m               # -> 0
            cx_dot, hz_dot, sz_dot = _dots(c, x, K), _dots(h, z, K), _dots(s, z, K)
            r_gap = [float(cx_dot[k] + hz_dot[k] + kappa[k]) for k in range(K)]  # -> 0
            mu = [(sz_dot[k] + tau[k] * kappa[k]) / degree for k in range(K)]
            finite = per_member_all(np.isfinite(r_dual)) & per_member_all(np.isfinite(r_cone))

            # --- convergence tests on the de-homogenized point ---
            # the primal bound is the cone shortfall of the implied slack
            # h - G xh, absolute so that the residuals() audit holds
            # verbatim; dual feasibility is judged relative to the dual
            # iterate's magnitude
            xh, zh = x / tau_n, z / tau_m
            shortfall = -_margin(layout, h - Gx / tau_m)
            dres = per_member_max(Gtz / tau_n + c)
            zh_max = per_member_max(zh)
            pobj_dot, dobj_dot = _dots(c, xh, K), _dots(h, zh, K)
            interior = _margin(layout, sz)
            for k in list(live):
                if not (finite[k] and math.isfinite(r_gap[k]) and math.isfinite(mu[k])):
                    stop(k)
                    continue
                pres = max(shortfall[k], 0.0)
                dual_scale = norm_c[k] * (1.0 + float(zh_max[k]))
                pobj = float(pobj_dot[k]) + group[k].offset
                dobj = float(-dobj_dot[k]) + group[k].offset
                relgap = abs(pobj - dobj) / max(1.0, abs(pobj), abs(dobj))
                if pres <= settings.feas_tol and dres[k] <= settings.feas_tol * dual_scale \
                        and relgap <= settings.gap_tol:
                    out[k] = Solution(SolveStatus.OPTIMAL, rows(xh, k), pobj, relgap, iteration)
                    live.remove(k)
                    continue

                merit = max(pres, dres[k] / dual_scale, relgap)
                if merit < 0.9 * best_merit[k]:
                    best_merit[k] = merit
                    best[k] = Solution(SolveStatus.MAX_ITERATIONS, rows(xh, k), pobj, relgap,
                                       iteration)
                    stall[k] = 0
                else:
                    stall[k] += 1

                status = certificate(k, settings.feas_tol)
                if status is not None:
                    out[k] = _infeasible(status, rows(xh, k), iteration)
                    live.remove(k)
                # degenerate instances stop making progress once mu bottoms
                # out; bail out before the scaled KKT system turns to noise
                elif mu[k] < 1e-18 or interior[k] < 1e-40 or stall[k] >= 15:
                    stop(k)
            if not live:
                break

            scaling = _Scaling(layout, sz)
            lam = scaling.apply(z)
            kkt = _KktSolver(plan, scaling, live)
            for k in kkt.failed:
                stop(k)
            if not live:
                break
            lam_sq = _jordan_product(layout, lam, lam)

            # Newton steps for the homogeneous system with complementarity
            # targets lambda o (W dz + W^-1 ds) = ds_target and
            # tau dkappa + kappa dtau = dkappa_target.  With dst the Jordan
            # quotient of ds_target by lambda, the KKT right-hand side is
            # (-r_dual, -r_cone - W dst) and ds = W dst - W^2 dz; the column
            # solved for (-c, h) carries d_tau.  A frozen member steps by 0.
            def cone_rhs(ds_target: np.ndarray):
                w_dst = scaling.apply(_jordan_solve(layout, lam, ds_target))
                return w_dst, -r_cone - w_dst

            def direction(w_dst, dkappa_target, x0, z0):
                cx0, hz0 = _dots(c, x0, K), _dots(h, z0, K)
                dtau, dkappa = [0.0] * K, [0.0] * K
                for k in live:
                    num = -r_gap[k] - dkappa_target[k] / tau[k] - (cx0[k] + hz0[k])
                    dtau[k] = num / den[k]
                    dkappa[k] = (dkappa_target[k] - kappa[k] * dtau[k]) / tau[k]
                dx = x0 + _spread(dtau, n) * x1
                dz = z0 + _spread(dtau, m) * z1
                ds = w_dst - scaling.apply_sq(dz)
                return dx, dz, dtau, ds, dkappa

            # predictor, solved together with the d_tau column
            w_dst_aff, rz_aff = cone_rhs(-lam_sq)
            X, Z = kkt.solve(np.column_stack([-c, -r_dual]), np.column_stack([h, rz_aff]))
            x1, z1 = X[:, 0], Z[:, 0]
            cx1, hz1 = _dots(c, x1, K), _dots(h, z1, K)
            den = [(cx1[k] + hz1[k]) - kappa[k] / tau[k] for k in range(K)]
            _, dza, dtaua, dsa, dkappaa = direction(
                w_dst_aff, [-tau[k] * kappa[k] for k in range(K)], X[:, 1], Z[:, 1])
            step = _max_step(layout, sz, np.column_stack([dsa, dza]))
            alpha_aff = [0.0] * K
            for k in live:
                alpha_aff[k] = min(_step_limit(step[k], tau[k], dtaua[k], kappa[k],
                                               dkappaa[k]), 1.0)
            a_m = _spread(alpha_aff, m)
            sz_aff = _dots(s + a_m * dsa, z + a_m * dza, K)
            sigma_mu, dkappa_target = [0.0] * K, [0.0] * K
            for k in live:
                a = alpha_aff[k]
                mu_aff = (sz_aff[k] + (tau[k] + a * dtaua[k]) * (kappa[k] + a * dkappaa[k])) \
                    / degree
                sigma = min(max((mu_aff / mu[k]) ** 3, 1e-8), 0.999)
                sigma_mu[k] = sigma * mu[k]
                dkappa_target[k] = -tau[k] * kappa[k] - dtaua[k] * dkappaa[k] + sigma_mu[k]

            # corrector
            corr = _jordan_product(layout, scaling.apply(dsa, invert=True), scaling.apply(dza))
            w_dst, rz = cone_rhs(-lam_sq - corr + _spread(sigma_mu, m) * e)
            dx, dz, dtau, ds, dkappa = direction(
                w_dst, dkappa_target, *kkt.solve(-r_dual, rz))

            finite = per_member_all(np.isfinite(dx)) & per_member_all(np.isfinite(ds))
            dsz = np.column_stack([ds, dz])
            step = _max_step(layout, sz, dsz)
            alpha = [0.0] * K
            for k in list(live):
                if not (math.isfinite(dtau[k]) and math.isfinite(dkappa[k]) and finite[k]):
                    stop(k)
                    continue
                alpha[k] = min(0.99 * _step_limit(step[k], tau[k], dtau[k], kappa[k],
                                                  dkappa[k]), 1.0)
                if not math.isfinite(alpha[k]):
                    stop(k)
                    alpha[k] = 0.0

            # keep iterates strictly interior despite floating-point step
            # rounding: each member halves its own step until it is
            searching = list(live)
            for _ in range(40):
                sz_new = sz + np.reshape(_spread(alpha, m), (-1, 1)) * dsz
                inside = _margin(layout, sz_new)
                for k in list(searching):
                    if (tau[k] + alpha[k] * dtau[k] > 0 and kappa[k] + alpha[k] * dkappa[k] > 0
                            and inside[k] > 0):
                        searching.remove(k)
                    else:
                        alpha[k] *= 0.5
                if not searching:
                    break
            for k in list(live):
                if k in searching or alpha[k] <= 1e-13:
                    stop(k)
                    alpha[k] = 0.0
                else:
                    tau[k], kappa[k] = tau[k] + alpha[k] * dtau[k], kappa[k] + alpha[k] * dkappa[k]

            x += _spread(alpha, n) * dx
            sz = sz_new
            s, z = sz[:, 0].copy(), sz[:, 1].copy()
            if not live:
                break
        else:
            for k in live:
                out[k] = best[k]
    return out


def _infeasible(status: SolveStatus, x: np.ndarray, iteration: int) -> Solution:
    value = np.nan if status == SolveStatus.PRIMAL_INFEASIBLE else -np.inf
    return Solution(status, x, value, np.inf, iteration)
