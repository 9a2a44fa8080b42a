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

``solve_batch`` runs all its programs through one loop as one
block-diagonal program, member-major, whatever their sizes and cone
layouts: one segmented kernel and one sparse product serve every member,
and the Gram blocks of the members that share a layout stack into one
batched product per cone class, while each member keeps its own scalars,
step lengths, stopping tests and Cholesky factor.  Returned members leave
every array right after the convergence tests.  Every operation acts on a
member's entries as that member's solo solve does, so each member's
result is bit for bit the one :func:`solve` gives it alone; ``solve`` is
the batch of one.
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


class _Segments:
    """Member-major vectors of a batch: member k holds ``sizes[k]``
    consecutive entries, and the members of one layout group have one size.

    Per-member reductions are ``reduceat`` from each member's first entry,
    per-member scalars go back to the entries through ``np.repeat``, and
    dot products run as one ``np.matmul`` stack of (1, size) @ (size, 1)
    products per group, which is the BLAS dot of each member's vectors: each
    rounds as that member's own ``a @ b``.
    """

    def __init__(self, group_sizes: list[int], counts: list[int]):
        self.sizes = np.repeat(group_sizes, counts)
        self.bounds = [0, *itertools.accumulate(self.sizes.tolist())]
        self.starts = np.asarray(self.bounds[:-1], dtype=np.intp)
        self.spans = []  # (first entry, end, members) of each group
        for size, count in zip(group_sizes, counts):
            start = self.spans[-1][1] if self.spans else 0
            self.spans.append((start, start + size * count, count))

    def rows(self, v: np.ndarray, k: int) -> np.ndarray:
        """Member k's entries of v."""
        return v[self.bounds[k] : self.bounds[k + 1]]

    def spread(self, values):
        """Per-member scalars repeated over each member's entries; the one
        scalar itself for a single member."""
        return values[0] if len(values) == 1 else np.repeat(values, self.sizes)

    def all(self, v: np.ndarray) -> np.ndarray:
        return np.logical_and.reduceat(v, self.starts)

    def max_abs(self, v: np.ndarray) -> np.ndarray:
        """Largest absolute entry per member, per column for a column stack."""
        return np.maximum.reduceat(np.abs(v), self.starts, axis=0)

    def dots(self, a: np.ndarray, b: np.ndarray):
        """Per-member dot products of member-major vectors."""
        if len(self.sizes) == 1:
            return (a @ b,)
        return np.concatenate([
            np.matmul(a[lo:hi].reshape(count, 1, -1), b[lo:hi].reshape(count, -1, 1))
            .reshape(count) for lo, hi, count in self.spans])


class _BatchLayout:
    """Row layout of the cone blocks of a batch of programs.  ``groups``
    lists (layout, count) pairs: ``count`` consecutive members that share
    the :class:`_ConeLayout` ``layout``.  Each member's rows follow the
    previous member's (member-major), and ``rows`` segments them.

    Every cone kernel is one segmented pass over all rows of all members,
    whatever the mix of dimensions: per-unit sums are ``np.add.reduceat``
    from each unit's head row, and per-unit scalars go back to the rows
    through ``np.repeat(..., dims)``.  A nonnegative row is a unit of
    dimension 1 (its head and nothing else), so no segment is empty; the
    second-order formulas reduce to the elementwise ones there, except the
    step length, which takes such a row as its linear case.  Per-member
    results reduce over each member's units.  Kernels take vectors or
    column stacks of shape (rows, k).
    """

    def __init__(self, groups: list[tuple["_ConeLayout", int]]):
        self.groups = groups
        counts = [count for _, count in groups]
        self.dims = np.concatenate([np.tile(layout.unit_dims, count)
                                    for layout, count in groups])
        self.heads = np.cumsum(self.dims) - self.dims
        self.lp = np.flatnonzero(self.dims == 1)    # every member's nonnegative rows
        self.lp_rows = self.heads[self.lp]
        self.head = np.zeros(int(self.dims.sum()))
        self.head[self.heads] = 1.0
        self.jsign = (2.0 * self.head - 1.0)[:, None]  # the diagonal of J
        self.tail = (1.0 - self.head)[:, None]
        units = np.repeat([layout.degree for layout, _ in groups], counts)
        self.first_units = np.cumsum(units) - units
        self.rows = _Segments([layout.m for layout, _ in groups], counts)

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
        """The smallest entry of each member's units (rows of the (units, k)
        array V), per member."""
        return np.minimum.reduceat(V, self.first_units, axis=0).min(axis=1)

    def identity(self) -> np.ndarray:
        return self.head.copy()


class _ConeLayout(_BatchLayout):
    """The cone layout of one program, which is also the batch layout of
    that program alone.  Its rows hold one unit per nonnegative row, then
    one per second-order block, sorted by dimension, then by the size of
    their column support in G.

    ``m`` and ``degree`` count its rows and units.  ``classes`` are its runs
    of units with equal dimension and equal nonzero support size, as
    ``(first_unit, count, dim, start)`` with ``start`` the first row.  They
    drive the Gram assembly in :class:`_KktPlan`.
    """

    def __init__(self, unit_dims: np.ndarray, unit_support: np.ndarray):
        self.unit_dims, self.unit_support = unit_dims, unit_support
        self.m = int(unit_dims.sum())
        self.degree = len(unit_dims)
        super().__init__([(self, 1)])
        self.classes: list[tuple[int, int, int, int]] = []
        first = 0
        for (dim, size), run in itertools.groupby(zip(unit_dims.tolist(),
                                                      unit_support.tolist())):
            count = len(list(run))
            if size:
                self.classes.append((first, count, dim, int(self.heads[first])))
            first += count


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

    def __init__(self, layout: _BatchLayout, sz: np.ndarray):
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

    def inverse_blocks(self, rows: np.ndarray, units: np.ndarray, dim: int,
                       U: np.ndarray) -> np.ndarray:
        """W^-1 applied to stacked column blocks U of shape (count, dim, k):
        block i belongs to unit ``units[i]``, whose rows are
        ``rows[i * dim : (i + 1) * dim]``."""
        w = self.w[rows].reshape(-1, dim)
        scale = self.unit_scale[True][units].reshape(-1, 1, 1)
        return _lorentz(U, w[:, 0], w[:, 1:], -1.0) * scale


def _jordan_product(layout: _BatchLayout, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u o v: per unit (u'v, u0 v1 + v0 u1)."""
    U, V = layout.columns(u), layout.columns(v)
    out = layout.spread(U[layout.heads]) * V + layout.spread(V[layout.heads]) * U
    out[layout.heads] = layout.unit_sum(U * V)
    return out.reshape(u.shape)


def _jordan_solve(layout: _BatchLayout, lam: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Solve lam o w = d for w (Jordan division)."""
    L, D = layout.columns(lam), layout.columns(d)
    det = layout.unit_sum(L * L * layout.jsign)
    w0 = layout.unit_sum(L * D * layout.jsign) / det
    out = (D - layout.spread(w0) * L) / layout.spread(L[layout.heads])
    out[layout.heads] = w0
    return out.reshape(d.shape)


def _margin(layout: _BatchLayout, u: np.ndarray) -> np.ndarray:
    """Distance-like interiority measure per member, the smallest over the
    columns of u: positive iff every column is strictly inside K."""
    U = layout.columns(u)
    radius = np.sqrt(layout.unit_sum((U * layout.tail) ** 2))
    return layout.member_min(U[layout.heads] - radius)


def _max_step(layout: _BatchLayout, u: np.ndarray, du: np.ndarray) -> np.ndarray:
    """Largest alpha per member with u + alpha du still in K, over the
    columns of the stacks u and du (each column of u strictly interior).
    Runs under the caller's ``np.errstate``."""
    U, dU = layout.columns(u), layout.columns(du)
    J = layout.jsign
    # per unit, first positive root of c2 a^2 + 2 c1 a + c0 = 0, if any
    c2 = layout.unit_sum(dU * dU * J)
    c1 = layout.unit_sum(U * dU * J)
    c0 = np.maximum(layout.unit_sum(U * U * J), 0.0)
    if layout.lp.size:
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


def _csr_pair(M: np.ndarray) -> tuple[tuple, tuple]:
    """The CSR forms (data, indices, indptr) of M and of M': the arrays
    ``scipy.sparse.csr_array(M)`` and ``csr_array(M).T.tocsr()`` hold,
    found by one ``flatnonzero`` and one stable sort by column."""
    rows, cols = M.shape
    flat = np.flatnonzero(M != 0)
    row, col = np.divmod(flat, cols)
    data = M.ravel()[flat]
    order = np.argsort(col, kind="stable")

    def csr(data, indices, lead, size):
        indptr = np.searchsorted(lead, np.arange(size + 1))
        return data, indices.astype(np.int32), indptr.astype(np.int32)

    return csr(data, col, row, rows), csr(data[order], row[order], col[order], cols)


def _block_diagonal(blocks: list, cols: list[int]) -> scipy.sparse.csr_array:
    """The block-diagonal CSR matrix of CSR blocks (data, indices, indptr)
    with ``cols`` columns each, every row keeping its block's nonzeros in
    their order."""
    ends = np.cumsum([0] + [len(data) for data, _, _ in blocks[:-1]])
    starts = np.cumsum([0] + cols[:-1])
    data = np.concatenate([data for data, _, _ in blocks])
    indices = np.concatenate([indices + start for (_, indices, _), start
                              in zip(blocks, starts)])
    indptr = np.concatenate([[0]] + [indptr[1:] + end for (_, _, indptr), end
                                     in zip(blocks, ends)])
    return scipy.sparse.csr_array((data, indices, indptr.astype(np.int32)),
                                  shape=(len(indptr) - 1, sum(cols)))


class _KktBlock:
    """One member's share of a KKT plan, taken from its cone rows G (laid
    out by ``layout``) once: the CSR forms of G and of G', the number of
    variables ``n``, and per layout class the restricted blocks
    G_k[:, support_k] of its units, stacked as (count, dim, s), with their
    column supports (count, s)."""

    def __init__(self, G: np.ndarray, layout: _ConeLayout):
        self.csr, self.csr_t = _csr_pair(G)
        self.n = G.shape[1]
        self.classes = []
        for _, units, dim, start in layout.classes:
            rows = G[start : start + units * dim].reshape(units, dim, self.n)
            cols = np.nonzero(np.any(rows != 0, axis=1))[1].reshape(units, -1)
            self.classes.append((np.take_along_axis(rows, cols[:, None, :], axis=2), cols))


class _KktPlan:
    """Structure of the reduced KKT systems of the members of a batch that
    still run, given as their :class:`_KktBlock`, in the order ``layout``
    lays them out.

    The plan holds the members' cone rows G as one block-diagonal CSR
    matrix, with its transpose, for the matrix-vector products: each row
    keeps its nonzeros in the order of the member's own CSR form, so every
    product rounds as the member's own product.  ``x`` segments the
    member-major variables, and ``sizes`` lists each member's n.

    For a member's Gram matrix G' W^-2 G: W is block diagonal over cone
    units, so W_k^-1 G_k is zero outside the column support of the unit's
    rows G_k, and

        G' W^-2 G = sum_k T_k' T_k,   T_k = W_k^-1 G_k[:, support_k].

    The units of one layout class share dimension and support size, so
    their restricted blocks G_k[:, support_k] stack, over the members of
    the layout's group, into one dense (members x count, dim, s) array.
    Each iteration scales the stacks, takes batched Grams T_k' T_k and
    scatter-adds them into the group's span of one flat array of every
    member's n x n matrix, with one bincount per group over the flat
    indices precomputed here.  Each bin
    receives its member's terms in the member's own order, so each
    member's matrix is the one a solo solve assembles: the arithmetic of a
    dense (W^-1 G)' (W^-1 G) in another summation order, without forming
    W^-1 G.
    """

    def __init__(self, blocks: list[_KktBlock], layout: _BatchLayout):
        self.members = len(blocks)
        counts = [count for _, count in layout.groups]
        firsts = [0, *itertools.accumulate(counts)]
        self.x = _Segments([blocks[first].n for first in firsts[:-1]], counts)
        self.sizes = self.x.sizes.tolist()
        self.G = _block_diagonal([block.csr for block in blocks], self.sizes)
        self.Gt = _block_diagonal([block.csr_t for block in blocks],
                                  layout.rows.sizes.tolist())
        self.gram_bounds = [0, *itertools.accumulate(n * n for n in self.sizes)]
        # per group: its class stacks, each with the span of its Gram terms
        # in the group's list of terms, and the flat index of every term
        # within the group's span lo .. hi of the flat array
        self.groups = []
        row = unit = 0
        for (layout_g, count), first in zip(layout.groups, firsts):
            group = blocks[first : first + count]
            n, m, degree = group[0].n, layout_g.m, layout_g.degree
            lo, hi = self.gram_bounds[first], self.gram_bounds[first + count]
            members = np.arange(count)
            stacks, index, terms = [], [np.zeros(0, dtype=np.intp)], 0
            for c, (head, units, dim, start) in enumerate(layout_g.classes):
                rows = (row + m * members + start)[:, None] + np.arange(units * dim)
                unit_ids = (unit + degree * members + head)[:, None] + np.arange(units)
                stack = np.concatenate([block.classes[c][0] for block in group])
                cols = np.stack([block.classes[c][1] for block in group])
                flat = cols[..., :, None] * n + cols[..., None, :]
                flat += (n * n * members)[:, None, None, None]
                index.append(flat.ravel())
                stacks.append((rows.ravel(), unit_ids.ravel(), dim, stack,
                               terms, terms + flat.size))
                terms += flat.size
            self.groups.append((stacks, np.concatenate(index), lo, hi))
            row, unit = row + count * m, unit + count * degree

    def gram(self, scaling: _Scaling) -> list[np.ndarray]:
        """Each member's G' W^-2 G, as a dense (n, n) array."""
        flat = np.empty(self.gram_bounds[-1])
        for stacks, index, lo, hi in self.groups:
            weights = np.empty(len(index))
            for rows, units, dim, stack, first, end in stacks:
                T = scaling.inverse_blocks(rows, units, dim, stack)
                s = T.shape[2]
                np.matmul(T.transpose(0, 2, 1), T, out=weights[first:end].reshape(-1, s, s))
            flat[lo:hi] = np.bincount(index, weights=weights, minlength=hi - lo)
        return [flat[lo:hi].reshape(n, n) for lo, hi, n
                in zip(self.gram_bounds, self.gram_bounds[1:], self.sizes)]


class _KktSolver:
    """Cholesky factorization of each member's scaled reduced KKT matrix
    G' W^-2 G, used to solve the 2x2 block system

        G'dz = rx,  G dx - W^2 dz = rz

    as (G' W^-2 G) dx = rx + G' W^-2 rz, dz = W^-2 (G dx - rz), for one
    right-hand side or a stack of columns at once.  Static regularization
    adds _REG times each diagonal entry to that entry (Altman & Gondzio
    1999).  Near the end of the path the diagonal spans many orders of
    magnitude; a shift relative to each entry leaves the small ones their
    own digits, where one shift for the whole diagonal would swamp them.
    The regularized matrix is symmetric positive definite.  It is factored
    by LAPACK ``dpotrf`` called directly, as ``scipy.linalg.cho_factor``
    calls it.  Members are listed in ``factored``, or in ``failed`` when
    their factorization fails; the solves skip those.
    """

    # 1e-14, 1e-13 and 1e-12 give the same statuses and iteration count on
    # the fingerprint grid; 1e-11 leaves designs of the regression corpus
    # in NumericalFailure
    _REG = 1e-12
    # Iterative refinement takes the regularization back out.  It runs, at
    # most _REFINE_PASSES times, while some column's residual exceeds
    # _REFINE_TOL times that column's right-hand side (max-norms), member by
    # member.  When it was chosen, 1e-10 left every status and iteration
    # count unchanged on a grid of 174 designs; 1e-9 moved four of them and
    # 1e-11 one.
    _REFINE_TOL = 1e-10
    _REFINE_PASSES = 2

    def __init__(self, plan: _KktPlan, scaling: _Scaling):
        self.plan, self.scaling = plan, scaling
        self.factors: list[np.ndarray] = []
        self.factored: list[int] = []
        self.failed: list[int] = []
        for k, H in enumerate(plan.gram(scaling)):
            # a variable that no cone row touches has a zero diagonal
            # entry, which a relative shift would leave singular
            diagonal = H.reshape(-1)[:: len(H) + 1]
            diagonal += self._REG * np.where(diagonal > 0, diagonal, 1.0)
            factor, info = dpotrf(H, lower=False, clean=False)
            self.factors.append(factor)
            (self.failed if info else self.factored).append(k)

    def _base_solve(self, rx, rz, members=None):
        """(dx, dz, G dx), solved for the ``members`` given (by default
        every member that factored); the other members' dx are zeros."""
        plan = self.plan
        top = rx + plan.Gt @ self.scaling.apply_sq(rz, invert=True)
        members = self.factored if members is None else members
        if len(members) == plan.members == 1:
            dx = dpotrs(self.factors[0], top, lower=False)[0]
        else:
            dx = np.zeros_like(top)
            for k in members:
                plan.x.rows(dx, k)[...] = dpotrs(self.factors[k], plan.x.rows(top, k),
                                                 lower=False)[0]
        Gdx = plan.G @ dx
        return dx, self.scaling.apply_sq(Gdx - rz, invert=True), Gdx

    def solve(self, rx, rz):
        """(dx, dz) for right-hand sides given as vectors, or as column
        stacks of shapes (variables, k) and (cone rows, k)."""
        plan, K = self.plan, self.plan.members
        X, Z = plan.x, self.scaling.layout.rows
        dx, dz, Gdx = self._base_solve(rx, rz)
        bound = self._REFINE_TOL * np.maximum(X.max_abs(rx), Z.max_abs(rz))
        pending = self.factored
        for refinement in range(self._REFINE_PASSES):
            if refinement:
                Gdx = plan.G @ dx
            res_x = rx - plan.Gt @ dz
            res_z = rz - (Gdx - self.scaling.apply_sq(dz))
            ok = np.maximum(X.max_abs(res_x), Z.max_abs(res_z)) <= bound
            ok = ok.reshape(K, -1).all(axis=1)
            pending = [k for k in pending if not ok[k]]
            if not pending:
                break
            cx, cz, _ = self._base_solve(res_x, res_z, pending)
            if len(pending) == K:
                dx, dz = dx + cx, dz + cz
                continue
            for k in pending:  # the other members keep their solves
                X.rows(dx, k)[...] += X.rows(cx, k)
                Z.rows(dz, k)[...] += Z.rows(cz, k)
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
    runs on the cone-only program in w.  A cone-only program without cone
    rows is decided by its objective alone.

    Every other program then runs through one interior-point loop, as one
    block-diagonal program, whatever its size and cone layout: the loop
    pays its per-iteration interpreter cost once for all of them.  Programs
    that share the number of variables and the cone layout (unit dimensions
    and column-support sizes) form a group, whose Gram blocks stack.  Every
    step length, stopping test and certificate stays per program, every
    floating-point operation of a member is the one its solo solve makes,
    and a program leaves the loop at the first convergence test after it
    returns.
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
    if groups:
        _interior_point(list(groups.values()), settings)
    for group in groups.values():
        for member in group:
            solutions[member.index] = member.lift(member.solution)
    return solutions


@dataclass(eq=False)
class _Member:
    """One program's cone-only form, minimize c'w + offset subject to
    h - G w in K with the cone rows permuted by :func:`_split_rows` and G
    held by ``block``, and its interior-point state.  The program's x is
    x0 + N w, or w itself when ``N`` is None.  ``solution`` is set when the
    member returns."""

    index: int
    c: np.ndarray
    block: _KktBlock
    h: np.ndarray
    layout: _ConeLayout
    offset: float = 0.0
    x0: np.ndarray | None = None
    N: np.ndarray | None = None
    tau: float = 1.0
    kappa: float = 1.0
    best: Solution | None = None   # the iterate with the best merit so far
    best_merit: float = np.inf
    stall: int = 0                 # iterations since the merit last improved
    solution: Solution | None = None

    def __post_init__(self):
        self.norm_c = max(1.0, float(np.max(np.abs(self.c))))
        self.norm_h = max(1.0, float(np.max(np.abs(self.h)))) if len(self.h) else 1.0

    def lift(self, solution: Solution) -> Solution:
        if self.N is None:
            return solution
        return replace(solution, x=self.x0 + self.N @ solution.x)


def _member(index: int, c: np.ndarray, program: ConeProgram, **reduction) -> _Member:
    G, h, layout = _split_rows(program)
    return _Member(index, c, _KktBlock(G, layout), h, layout, **reduction)


def _reduce(index: int, program: ConeProgram, settings: SolverSettings):
    """The program's cone-only form as a :class:`_Member`, or its Solution
    when the Zero rows, or the lack of cone rows, decide it."""
    zero = np.repeat([isinstance(cone, Zero) for cone in program.cones],
                     [cone.dim for cone in program.cones])
    if not zero.any():
        member = _member(index, program.objective, program)
    else:
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
        member = _member(index, reduced.objective, reduced,
                         offset=float(c @ x0), x0=x0, N=N)
    if member.layout.m:
        return member
    # no cone rows: every w is feasible, so the program is bounded iff c = 0
    w = np.zeros(len(member.c))
    if np.linalg.norm(member.c) == 0.0:
        return member.lift(Solution(SolveStatus.OPTIMAL, w, member.offset, 0.0, 0))
    return member.lift(Solution(SolveStatus.DUAL_INFEASIBLE, w, -np.inf, np.inf, 0))


class _Batch:
    """The members an interior-point loop still runs, in layout groups,
    with their row layout and KKT plan."""

    def __init__(self, groups: list[list[_Member]]):
        self._lay_out(groups)

    def _lay_out(self, groups: list[list[_Member]]):
        self.groups = groups
        self.members = [member for group in groups for member in group]
        self.plan = None  # the old plan goes before the next is built
        if self.members:
            self.layout = _BatchLayout([(group[0].layout, len(group)) for group in groups])
            self.plan = _KktPlan([member.block for member in self.members], self.layout)

    def drop_returned(self):
        """Drop every member that has returned: None if none has, otherwise
        the masks of the members that stay, of their variables and of their
        cone rows.  The layout and the plan are rebuilt for the rest."""
        keep = [member.solution is None for member in self.members]
        if all(keep):
            return None
        masks = (keep, np.repeat(keep, self.plan.x.sizes),
                 np.repeat(keep, self.layout.rows.sizes))
        self._lay_out([group for group in ([member for member in group
                                            if member.solution is None]
                                           for group in self.groups) if group])
        return masks


def _step_limit(step, tau, dtau, kappa, dkappa):
    """The largest step toward the cone boundary, tau = 0 or kappa = 0."""
    return min(step, -tau / dtau if dtau < 0 else np.inf,
               -kappa / dkappa if dkappa < 0 else np.inf)


def _interior_point(groups: list[list[_Member]], settings: SolverSettings) -> None:
    """The interior-point loop on groups of cone-only programs, each group
    sharing one layout, run as one member-major block program; sets each
    member's ``solution``.

    Vectors hold the members' entries one member after another, and every
    array operation acts on each member's entries as that member's solo
    solve would.  The scalars of each member (tau, kappa, mu, step lengths,
    stopping tests, certificates, stall counts) are computed member by
    member, with the expressions and scalar types of a solo solve.
    Members leave at one point per iteration, right after the convergence
    tests: the entries of every returned member leave every array and the
    KKT plan is rebuilt without them.  A member that stops later, because
    its Gram matrix cannot be factored or its step search fails, takes no
    step and leaves at the next iteration's compaction, so the Gram
    matrices are assembled and factored once per iteration.  A member's
    ``offset`` is added to the objective values the gap test compares and
    the Solution reports: c'x0 when the program is the reduction of one
    with Zero rows, so the gap is that of the original objective.
    """
    batch = _Batch(groups)
    live = batch.members
    for member in live:
        member.best = Solution(SolveStatus.MAX_ITERATIONS, np.zeros(len(member.c)),
                               np.nan, np.inf, settings.max_iter)
    c = np.concatenate([member.c for member in live])
    h = np.concatenate([member.h for member in live])
    e = batch.layout.identity()
    x = np.zeros(len(c))
    # the pair (s, z) as the one (rows, 2) stack the cone kernels take, and
    # its columns also as contiguous vectors, whose dot products round as
    # contiguous ones do
    sz = np.column_stack([e, e])
    s, z = e.copy(), e.copy()
    interior = _margin(batch.layout, sz)

    def certificate(k: int, tol: float) -> SolveStatus | None:
        """PrimalInfeasible if member k's z is a Farkas certificate,
        DualInfeasible if its x is an improving ray, at relative tolerance
        ``tol``.  Reads the products Gx and Gtz of the current iterate."""
        member, X, Z = live[k], batch.plan.x, batch.layout.rows
        hz = -hz_dot[k]
        if hz > 1e-12 and np.isfinite(Z.rows(z, k)).all():
            if float(np.abs(X.rows(Gtz, k)).max()) <= tol * member.norm_c * hz:
                return SolveStatus.PRIMAL_INFEASIBLE
        cx = -cx_dot[k]
        if cx > 1e-12 and np.isfinite(X.rows(x, k)).all() and np.isfinite(Z.rows(s, k)).all():
            if float(np.abs(Z.rows(Gx, k) + Z.rows(s, k)).max()) <= tol * member.norm_h * cx:
                return SolveStatus.DUAL_INFEASIBLE
        return None

    def stop(k: int) -> None:
        """Progress has stalled: accept a modestly looser certificate if one
        is in hand, otherwise report numerical failure at the best iterate."""
        member = live[k]
        status = certificate(k, max(1e3 * settings.feas_tol, 1e-6))
        if status is not None:
            member.solution = _infeasible(status, member.best.x, iteration)
        else:
            best = member.best
            member.solution = Solution(SolveStatus.NUMERICAL_FAILURE, best.x,
                                       best.objective_value, best.duality_gap, iteration)

    with np.errstate(all="ignore"):
        for iteration in range(settings.max_iter):
            layout = batch.layout
            X, Z = batch.plan.x, layout.rows
            # residuals of the homogeneous system; the two products also
            # feed the convergence tests and the certificates
            Gx, Gtz = batch.plan.G @ x, batch.plan.Gt @ z
            tau = [member.tau for member in live]
            kappa = [member.kappa for member in live]
            tau_n, tau_m = X.spread(tau), Z.spread(tau)
            r_dual = Gtz + c * tau_n                  # -> 0
            r_cone = Gx + s - h * tau_m               # -> 0
            cx_dot, hz_dot, sz_dot = X.dots(c, x), Z.dots(h, z), Z.dots(s, z)
            r_gap = [float(cx_dot[k] + hz_dot[k] + kappa[k])  # -> 0
                     for k in range(len(live))]
            mu = [(sz_dot[k] + tau[k] * kappa[k]) / (member.layout.degree + 1)
                  for k, member in enumerate(live)]
            finite = X.all(np.isfinite(r_dual)) & Z.all(np.isfinite(r_cone))

            # --- convergence tests on the de-homogenized point ---
            # the primal bound is the cone shortfall of the implied slack
            # h - G xh, absolute so that the residuals() audit holds
            # verbatim; dual feasibility is judged relative to the dual
            # iterate's magnitude
            xh, zh = x / tau_n, z / tau_m
            shortfall = -_margin(layout, h - Gx / tau_m)
            dres = X.max_abs(Gtz / tau_n + c)
            zh_max = Z.max_abs(zh)
            pobj_dot, dobj_dot = X.dots(c, xh), Z.dots(h, zh)
            for k, member in enumerate(live):
                if member.solution is not None:  # stopped late last iteration
                    continue
                if not (finite[k] and math.isfinite(r_gap[k]) and math.isfinite(mu[k])):
                    stop(k)
                    continue
                pres = max(shortfall[k], 0.0)
                dual_scale = member.norm_c * (1.0 + float(zh_max[k]))
                pobj = float(pobj_dot[k]) + member.offset
                dobj = float(-dobj_dot[k]) + member.offset
                relgap = abs(pobj - dobj) / max(1.0, abs(pobj), abs(dobj))
                if pres <= settings.feas_tol and dres[k] <= settings.feas_tol * dual_scale \
                        and relgap <= settings.gap_tol:
                    member.solution = Solution(SolveStatus.OPTIMAL, X.rows(xh, k), pobj,
                                               relgap, iteration)
                    continue

                merit = max(pres, dres[k] / dual_scale, relgap)
                if merit < 0.9 * member.best_merit:
                    member.best_merit = merit
                    member.best = Solution(SolveStatus.MAX_ITERATIONS, X.rows(xh, k),
                                           pobj, relgap, iteration)
                    member.stall = 0
                else:
                    member.stall += 1

                status = certificate(k, settings.feas_tol)
                if status is not None:
                    member.solution = _infeasible(status, X.rows(xh, k), iteration)
                # degenerate instances stop making progress once mu bottoms
                # out; bail out before the scaled KKT system turns to noise
                elif mu[k] < 1e-18 or interior[k] < 1e-40 or member.stall >= 15:
                    stop(k)

            kkt = None  # the plan it holds goes before the next is built
            kept = batch.drop_returned()
            if kept is not None:
                live = batch.members
                if not live:
                    break
                keep, on_x, on_z = kept
                layout = batch.layout
                X, Z = batch.plan.x, layout.rows
                x, c, Gtz, r_dual = x[on_x], c[on_x], Gtz[on_x], r_dual[on_x]
                s, z, h, Gx, r_cone = s[on_z], z[on_z], h[on_z], Gx[on_z], r_cone[on_z]
                sz = sz[on_z]
                tau, kappa, r_gap, mu, cx_dot, hz_dot = (
                    [v for v, stays in zip(values, keep) if stays]
                    for values in (tau, kappa, r_gap, mu, cx_dot, hz_dot))
            scaling = _Scaling(layout, sz)
            kkt = _KktSolver(batch.plan, scaling)
            for k in kkt.failed:  # takes no step, and leaves next iteration
                stop(k)
            K = len(live)
            lam = scaling.apply(z)
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

            def direction(w_dst, dkappa_target, x0, z0):
                cx0, hz0 = X.dots(c, x0), Z.dots(h, z0)
                dtau, dkappa = [0.0] * K, [0.0] * K
                for k in range(K):
                    num = -r_gap[k] - dkappa_target[k] / tau[k] - (cx0[k] + hz0[k])
                    dtau[k] = num / den[k]
                    dkappa[k] = (dkappa_target[k] - kappa[k] * dtau[k]) / tau[k]
                dx = x0 + X.spread(dtau) * x1
                dz = z0 + Z.spread(dtau) * z1
                ds = w_dst - scaling.apply_sq(dz)
                return dx, dz, dtau, ds, dkappa

            # predictor, solved together with the d_tau column
            w_dst_aff, rz_aff = cone_rhs(-lam_sq)
            cols_x, cols_z = kkt.solve(np.column_stack([-c, -r_dual]),
                                       np.column_stack([h, rz_aff]))
            x1, z1 = cols_x[:, 0], cols_z[:, 0]
            cx1, hz1 = X.dots(c, x1), Z.dots(h, z1)
            den = [(cx1[k] + hz1[k]) - kappa[k] / tau[k] for k in range(K)]
            _, dza, dtaua, dsa, dkappaa = direction(
                w_dst_aff, [-tau[k] * kappa[k] for k in range(K)], cols_x[:, 1], cols_z[:, 1])
            step = _max_step(layout, sz, np.column_stack([dsa, dza]))
            alpha_aff = [min(_step_limit(step[k], tau[k], dtaua[k], kappa[k], dkappaa[k]), 1.0)
                         for k in range(K)]
            a_m = Z.spread(alpha_aff)
            sz_aff = Z.dots(s + a_m * dsa, z + a_m * dza)
            sigma_mu, dkappa_target = [0.0] * K, [0.0] * K
            for k in range(K):
                a = alpha_aff[k]
                mu_aff = (sz_aff[k] + (tau[k] + a * dtaua[k]) * (kappa[k] + a * dkappaa[k])) \
                    / (live[k].layout.degree + 1)
                sigma = min(max((mu_aff / mu[k]) ** 3, 1e-8), 0.999)
                sigma_mu[k] = sigma * mu[k]
                dkappa_target[k] = -tau[k] * kappa[k] - dtaua[k] * dkappaa[k] + sigma_mu[k]

            # corrector
            corr = _jordan_product(layout, scaling.apply(dsa, invert=True), scaling.apply(dza))
            w_dst, rz = cone_rhs(-lam_sq - corr + Z.spread(sigma_mu) * layout.head)
            dx, dz, dtau, ds, dkappa = direction(
                w_dst, dkappa_target, *kkt.solve(-r_dual, rz))

            finite = X.all(np.isfinite(dx)) & Z.all(np.isfinite(ds))
            dsz = np.column_stack([ds, dz])
            step = _max_step(layout, sz, dsz)
            alpha = [0.0] * K
            searching = []
            for k, member in enumerate(live):
                if member.solution is not None:  # its factorization failed
                    continue
                if not (math.isfinite(dtau[k]) and math.isfinite(dkappa[k]) and finite[k]):
                    stop(k)
                    continue
                alpha[k] = min(0.99 * _step_limit(step[k], tau[k], dtau[k], kappa[k],
                                                  dkappa[k]), 1.0)
                if math.isfinite(alpha[k]):
                    searching.append(k)
                else:
                    stop(k)
                    alpha[k] = 0.0

            # keep iterates strictly interior despite floating-point step
            # rounding: each member halves its own step until it is; the
            # last pass's margins are those of the accepted iterate, which
            # the next convergence test reads
            for _ in range(40):
                sz_new = sz + np.reshape(Z.spread(alpha), (-1, 1)) * dsz
                inside = _margin(layout, sz_new)
                for k in list(searching):
                    if (tau[k] + alpha[k] * dtau[k] > 0 and kappa[k] + alpha[k] * dkappa[k] > 0
                            and inside[k] > 0):
                        searching.remove(k)
                    else:
                        alpha[k] *= 0.5
                if not searching:
                    break
            for k, member in enumerate(live):
                if member.solution is not None:
                    continue
                if k in searching or alpha[k] <= 1e-13:
                    stop(k)
                    alpha[k] = 0.0
                else:
                    member.tau = tau[k] + alpha[k] * dtau[k]
                    member.kappa = kappa[k] + alpha[k] * dkappa[k]

            x += X.spread(alpha) * dx
            sz, interior = sz_new, inside
            s, z = sz[:, 0].copy(), sz[:, 1].copy()
        else:
            for member in live:
                if member.solution is None:
                    member.solution = member.best


def _infeasible(status: SolveStatus, x: np.ndarray, iteration: int) -> Solution:
    value = np.nan if status == SolveStatus.PRIMAL_INFEASIBLE else -np.inf
    return Solution(status, x, value, np.inf, iteration)
