"""Standard-form second-order cone programs and an interior-point solver.

Problem form:

    minimize    objective . x
    subject to  offset - constraint_matrix @ x  in  K_1 x K_2 x ... x K_r

where each cone K is either Nonnegative(d) (componentwise nonnegative) or
SecondOrder(d) (the first slack entry dominates the Euclidean norm of the
remaining d - 1 entries).  An equality a'x = b is written as the two
Nonnegative rows a'x - b >= 0 and b - a'x >= 0.

The solver runs a Mehrotra predictor-corrector interior-point method on the
homogeneous self-dual embedding of the primal-dual pair, with Nesterov-Todd
scaling for the nonnegative and second-order blocks.  Infeasible and
unbounded problems are reported through approximate Farkas certificates,
never through exceptions.

Each iteration's Newton system is reduced to G' W^-2 G.  The cone rows are
kept in CSR form for matrix-vector products, and the Gram matrix is
assembled from dense blocks restricted to the columns each cone touches,
one product per cone, or one product over the union of their columns for a
class of equal cones whose columns mostly coincide, so the work follows
the constraint matrix's nonzeros rather than its full size.  Each
program's nonzero pattern is read once per process: the first program with
a pattern (its cone dimensions, shape and A != 0) has it analysed, which
orders the cones and gives the CSR index arrays, the Gram column supports
and one member's Gram scatter index, and every program with that pattern,
in the same call or a later one, only gathers its values at the places the
analysis names.  The key is the exact mask, so a zero in the data (a
radius or kappa of 0, an exact-zero channel entry) makes its own pattern,
and a cached analysis gives the bits a fresh one gives.  The reduced
matrix is positive definite and is factored densely by Cholesky.
Each iteration runs two solves with the factorization: the predictor's
right-hand side together with the column that carries the step in tau,
then the corrector.  Iterative refinement runs only while a solve's residual is
large against its right-hand side.

The cone algebra (scaling, Jordan products, step lengths) is one segmented
pass over all cone rows, with per-cone sums taken by ``np.add.reduceat``,
so its cost in numpy calls does not grow with the number of distinct cone
dimensions.  Problems here are desk-scale (at most a few hundred
variables, a few thousand cone rows).

``solve_batch`` runs all its programs through one loop as one
block-diagonal program, member-major, whatever their sizes and cone
layouts: one segmented kernel and one sparse product serve every member,
and the Gram blocks of the members that share a pattern stack into one
batched product per cone class, while each member keeps its own step
lengths, stopping tests and Cholesky factor.  Each per-member quantity
of the loop (tau, kappa, mu, step lengths, stall counts, status, best
iterate) is one array with an entry per member.  Returned members leave
every array, under one mask, right after the convergence tests, where
their Solutions are built; the next KKT plan is put together from the
cached patterns and the members' stacked values, so a compaction slices
arrays and derives no structure.  Every operation acts on a member's
entries as that member's solo solve does, so each member's result is bit
for bit the one :func:`solve` gives it alone; ``solve`` is the batch of
one.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse
from scipy.linalg.lapack import dpotrf, dpotrs


class ConeProgramError(ValueError):
    """Raised when a ConeProgram violates its structural invariants."""


@dataclass(frozen=True)
class Nonnegative:
    """Componentwise-nonnegative block."""

    dim: int


@dataclass(frozen=True)
class SecondOrder:
    """Lorentz block: slack[0] >= ||slack[1:]||_2.  dim >= 1."""

    dim: int


Cone = Nonnegative | SecondOrder


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
    design-level tolerances (1e-4 .. 1e-3) are free of solver noise.  A
    tolerance must be a finite number > 0 and ``max_iter`` an integer
    >= 1; other values raise ValueError."""

    feas_tol: float = 1e-8
    gap_tol: float = 1e-8
    max_iter: int = 200

    def __post_init__(self):
        for name in ("feas_tol", "gap_tol"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a finite number > 0, got {value!r}")
        max_iter = self.max_iter
        if isinstance(max_iter, bool) or not isinstance(max_iter, numbers.Integral) \
                or max_iter < 1:
            raise ValueError(f"max_iter must be an integer >= 1, got {max_iter!r}")


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
        elif isinstance(cone, Nonnegative):
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

    A Nonnegative block uses the largest componentwise violation; a
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
        if isinstance(cone, Nonnegative):
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
# The cone rows are permuted into [nonnegative | second-order], with
# second-order blocks sorted by dimension:
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
    consecutive entries, and the members of one group have one size.

    Per-member reductions are ``reduceat`` from each member's first entry,
    arrays of per-member values go back to the entries through
    ``np.repeat``, and dot products run as one ``np.matmul`` stack of
    (1, size) @ (size, 1) products per group, which is the BLAS dot of each
    member's vectors: each rounds as that member's own ``a @ b``.  A batch
    of one skips the repeat and the stack: ``spread`` gives its one value
    and ``dots`` one ``a @ b``.
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

    def spread(self, values: np.ndarray):
        """Per-member values repeated over each member's entries; the one
        value itself for a single member."""
        return values[0] if len(values) == 1 else np.repeat(values, self.sizes)

    def all(self, v: np.ndarray) -> np.ndarray:
        return np.logical_and.reduceat(v, self.starts)

    def max_abs(self, v: np.ndarray) -> np.ndarray:
        """Largest absolute entry per member, per column for a column stack."""
        return np.maximum.reduceat(np.abs(v), self.starts, axis=0)

    def dots(self, a: np.ndarray, b: np.ndarray):
        """Per-member dot products of member-major vectors, as an array;
        the one product itself for a single member."""
        if len(self.sizes) == 1:
            return a @ b
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


class _ConeLayout:
    """The cone layout of one program.  Its rows hold one unit per
    nonnegative row, then one per second-order block, sorted by dimension,
    then by the size of their column support in G.  A batch lays out its
    members' rows with :class:`_BatchLayout`.

    ``m`` and ``degree`` count its rows and units.  ``classes`` are its runs
    of units with equal dimension and equal nonzero support size, as
    ``(first_unit, count, dim, start)`` with ``start`` the first row.  They
    drive the Gram assembly in :class:`_KktPlan`.
    """

    def __init__(self, unit_dims: np.ndarray, unit_support: np.ndarray):
        self.unit_dims, self.unit_support = _readonly(unit_dims), _readonly(unit_support)
        self.m = int(unit_dims.sum())
        self.degree = len(unit_dims)
        self.classes: list[tuple[int, int, int, int]] = []
        first = start = 0
        for (dim, size), run in itertools.groupby(zip(unit_dims.tolist(),
                                                      unit_support.tolist())):
            count = len(list(run))
            if size:
                self.classes.append((first, count, dim, start))
            first, start = first + count, start + count * dim


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

    def inverse_blocks(self, w: np.ndarray, scale: np.ndarray, U: np.ndarray) -> np.ndarray:
        """W^-1 applied to stacked column blocks U of shape (count, dim, k):
        block i belongs to the unit whose scaling point is ``w[i]`` and
        whose W^-1 carries the factor ``scale[i]``."""
        w0, w1 = w[:, 0], w[:, 1:]
        u0, u1 = U[:, 0], U[:, 1:]
        # V(w)^-1 = V(Jw), block by block
        dot = np.einsum("nd,ndk->nk", w1, u1)
        coef = dot / (1.0 + w0)[:, None] - u0
        res = np.empty_like(U)
        res[:, 0] = w0[:, None] * u0 - dot
        res[:, 1:] = u1 + w1[:, :, None] * coef[:, None]
        return res * scale.reshape(-1, 1, 1)


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


def _csr_index(indices: np.ndarray, lead: np.ndarray, size: int) -> tuple:
    """(indices, indptr) of a CSR matrix with ``size`` rows whose nonzeros,
    in storage order, lie in the rows ``lead`` and the columns ``indices``."""
    indptr = np.searchsorted(lead, np.arange(size + 1))
    return _readonly(indices.astype(np.int32)), _readonly(indptr.astype(np.int32))


class _Pattern:
    """Everything a program's nonzero pattern determines, found
    once per pattern and shared, read-only, by every program that has it.

    Built from the unit dimensions (one unit per nonnegative row, one per
    second-order block, in program order) and the pattern ``nonzero`` (A !=
    0) in one pass: each unit's column cover, the columns its rows touch,
    gives its support size for the stable (dimension, support) sort of
    :class:`_ConeLayout`, and the cover of each layout class gives the
    column supports of its units.  It holds:

    * ``rows``: the program row of each cone row, in layout order, and
      ``layout``, the :class:`_ConeLayout`;
    * ``at``: where G's nonzeros lie in A's entries (row-major), in CSR
      order, and ``t_order``, their order in G' (a stable sort by column);
      ``csr`` and ``csr_t``, the (indices, indptr) of G and G', the arrays
      ``scipy.sparse.csr_array(G)`` and ``csr_array(G).T.tocsr()`` hold;
    * ``classes``: per layout class, where its units' dense blocks lie in
      A's entries, as an array (units, dim, width), how many products of
      the form T'T the class's Gram share takes, and the span of their
      terms in a member's list of ``terms``.  A class whose units' column
      supports have a small union U, |U|^2 <= units * s^2 for supports of
      size s, is stacked: its blocks are G_k[:, U], which A holds as zeros
      outside each unit's own support, and one product over all its units
      gives its |U|^2 terms.  Every other class keeps its restricted
      blocks G_k[:, support_k] and takes one product, of s^2 terms, per
      unit.  Which classes stack follows from the pattern alone;
    * ``index``: the flat index in the n x n Gram matrix of each of a
      member's terms, which one bincount per member sums.
    """

    def __init__(self, dims: np.ndarray, nonzero: np.ndarray):
        m, n = nonzero.shape
        self.n = n
        starts = np.cumsum(dims) - dims
        cover = np.logical_or.reduceat(nonzero, starts, axis=0)
        support = cover.sum(axis=1)
        order = np.lexsort((support, dims))
        self.rows = _readonly(_row_ranges(starts[order], dims[order]))
        self.layout = _ConeLayout(dims[order], support[order])
        cover = cover[order]
        row, col = np.divmod(np.flatnonzero(nonzero[self.rows]), n)
        self.at = _readonly(self.rows[row] * n + col)
        self.t_order = _readonly(np.argsort(col, kind="stable"))
        self.csr = _csr_index(col, row, m)
        self.csr_t = _csr_index(row[self.t_order], col[self.t_order], n)
        self.classes, index, self.terms = [], [np.zeros(0, dtype=np.intp)], 0
        for first, units, dim, start in self.layout.classes:
            covers = cover[first : first + units]
            union = np.flatnonzero(covers.any(axis=0))
            s = int(self.layout.unit_support[first])
            if union.size ** 2 <= units * s * s:
                products, cols = 1, union[None, :]
            else:
                products, cols = units, np.nonzero(covers)[1].reshape(units, s)
            at = self.rows[start : start + units * dim].reshape(units, dim, 1) * n
            index.append((cols[:, :, None] * n + cols[:, None, :]).ravel())
            self.classes.append((_readonly(at + cols[:, None, :]), products,
                                 self.terms, self.terms + index[-1].size))
            self.terms += index[-1].size
        self.index = _readonly(np.concatenate(index))


# how many patterns a process keeps (least recently used goes first); a
# design program's pattern depends on its method, size and perturbation
# mode, and on exact zeros in its data
_PATTERNS = 32


@functools.lru_cache(maxsize=_PATTERNS)
def _pattern(shape: tuple[int, int], dims: bytes, bits: bytes) -> _Pattern:
    """The :class:`_Pattern` of a program of ``shape`` whose unit
    dimensions are the intp bytes ``dims`` and whose pattern A != 0 is
    ``np.packbits`` of it: analysed on first use, then shared."""
    nonzero = np.unpackbits(np.frombuffer(bits, dtype=np.uint8), count=shape[0] * shape[1])
    return _Pattern(np.frombuffer(dims, dtype=np.intp), nonzero.reshape(shape).view(bool))


def _block_diagonal(parts: list[tuple[np.ndarray, tuple, int]]) -> scipy.sparse.csr_array:
    """The block-diagonal CSR matrix of the blocks of each part (values,
    (indices, indptr), width): row k of ``values`` holds the CSR data of
    one block, and the blocks of a part share the pattern (indices, indptr)
    and ``width`` columns.  Every row keeps its block's nonzeros in their
    order."""
    data, indices, indptr = [], [], [np.zeros(1, dtype=np.intp)]
    cols = nnz = 0
    for values, (index, pointer), width in parts:
        count, size = values.shape
        blocks = np.arange(count)
        data.append(values.ravel())
        indices.append((index + (cols + width * blocks)[:, None]).ravel())
        indptr.append((pointer[1:] + (nnz + size * blocks)[:, None]).ravel())
        cols, nnz = cols + count * width, nnz + count * size
    indptr = np.concatenate(indptr)
    return scipy.sparse.csr_array((np.concatenate(data), np.concatenate(indices), indptr),
                                  shape=(len(indptr) - 1, cols))


@dataclass(eq=False)
class _Group:
    """Loop members that share one :class:`_Pattern`, with their values
    stacked member by member: ``data`` and ``data_t`` (members, nnz) hold
    the CSR data of each member's G and G', and ``blocks`` holds, per
    layout class, every member's blocks as (members, units, dim, width).
    The group owns these values; its members no longer hold them."""

    pattern: _Pattern
    members: list
    data: np.ndarray
    data_t: np.ndarray
    blocks: list

    @classmethod
    def of(cls, members: list["_Member"]) -> "_Group":
        """The group of ``members``, which share one pattern; takes their
        values over."""
        pattern = members[0].pattern
        data = np.stack([member.data for member in members])
        blocks = [np.stack(blocks) for blocks in zip(*(m.blocks for m in members))]
        for member in members:
            member.data = member.blocks = None
        return cls(pattern, members, data, data[:, pattern.t_order], blocks)

    def take(self, keep: np.ndarray) -> "_Group":
        """The group of the members the mask ``keep`` marks."""
        members = [member for member, stays in zip(self.members, keep.tolist()) if stays]
        return _Group(self.pattern, members, self.data[keep], self.data_t[keep],
                      [blocks[keep] for blocks in self.blocks])


class _KktPlan:
    """The members an interior-point loop still runs, as :class:`_Group` s
    of members that share a pattern, with their row layout and the
    structure of their reduced KKT systems.  ``live`` lists the members in
    order, ``members`` counts them, ``layout`` lays out their cone rows and
    ``x`` segments their variables, with ``sizes`` each member's n.  A plan
    is put together from its groups' patterns and stacked values, with
    member offsets; nothing is derived member by member.

    The plan holds the members' cone rows G as one block-diagonal CSR
    matrix, with its transpose, for the matrix-vector products: each row
    keeps its nonzeros in the order of the member's own CSR form, so every
    product rounds as the member's own product.

    For a member's Gram matrix G' W^-2 G: W is block diagonal over cone
    units, so W_k^-1 G_k is zero outside the column support of the unit's
    rows G_k, and

        G' W^-2 G = sum_k T_k' T_k,   T_k = W_k^-1 G_k[:, support_k].

    The units of one layout class share dimension and support size, so
    their blocks stack, over the members of a group, into one dense
    (members x units, dim, width) array, which each iteration scales by
    W^-1 in one pass.  A class whose pattern stacks it (see
    :class:`_Pattern`) has blocks G_k[:, U] over the union U of its units'
    supports, and each member takes one product T'T of its
    (units x dim, |U|) stack of them; every other class takes one product
    T_k' T_k per unit.  The products go, as batched Grams, into a (members,
    terms) array of every member's terms, and one bincount per member over
    the pattern's flat indices sums its row into its n x n matrix.  Each
    entry receives its member's terms in the member's own order, so each
    member's matrix is the one a solo solve assembles: the arithmetic of a
    dense (W^-1 G)' (W^-1 G) in another summation order, without forming
    W^-1 G.
    """

    def __init__(self, groups: list[_Group]):
        self.groups = groups
        self.live = [member for group in groups for member in group.members]
        self.members = len(self.live)
        counts = [len(group.members) for group in groups]
        patterns = [group.pattern for group in groups]
        self.layout = _BatchLayout([(pattern.layout, count)
                                    for pattern, count in zip(patterns, counts)])
        self.x = _Segments([pattern.n for pattern in patterns], counts)
        self.sizes = self.x.sizes.tolist()
        self.G = _block_diagonal([(group.data, group.pattern.csr, group.pattern.n)
                                  for group in groups])
        self.Gt = _block_diagonal([(group.data_t, group.pattern.csr_t, group.pattern.layout.m)
                                   for group in groups])
        self.starts, row, unit = [], 0, 0  # each group's first cone row and unit
        for pattern, count in zip(patterns, counts):
            self.starts.append((row, unit))
            row, unit = row + count * pattern.layout.m, unit + count * pattern.layout.degree

    def survivors(self, keep: np.ndarray):
        """The groups of the members that the mask ``keep`` marks, for the
        next plan, and the masks of their variables and of their cone
        rows."""
        groups, first = [], 0
        for group in self.groups:
            stays = keep[first : first + len(group.members)]
            first += len(stays)
            if stays.all():
                groups.append(group)
            elif stays.any():
                groups.append(group.take(stays))
        return groups, np.repeat(keep, self.sizes), np.repeat(keep, self.layout.rows.sizes)

    def gram(self, scaling: _Scaling) -> list[np.ndarray]:
        """Each member's G' W^-2 G, as a dense (n, n) array."""
        grams = []
        for group, (row, unit) in zip(self.groups, self.starts):
            count, pattern = len(group.members), group.pattern
            m, degree = pattern.layout.m, pattern.layout.degree
            # the group's scaling points and unit factors of W^-1, per member
            w = scaling.w[row : row + count * m].reshape(count, m)
            scale = scaling.unit_scale[True][unit : unit + count * degree].reshape(count, degree)
            weights = np.empty((count, pattern.terms))
            for (first, units, dim, start), blocks, (_, products, lo, hi) in zip(
                    pattern.layout.classes, group.blocks, pattern.classes):
                width = blocks.shape[-1]
                T = scaling.inverse_blocks(w[:, start : start + units * dim].reshape(-1, dim),
                                           scale[:, first : first + units],
                                           blocks.reshape(-1, dim, width))
                T = T.reshape(count, products, -1, width)
                np.matmul(T.transpose(0, 1, 3, 2), T,
                          out=weights[:, lo:hi].reshape(count, products, width, width))
            n = pattern.n
            grams += [np.bincount(pattern.index, weights=terms, minlength=n * n).reshape(n, n)
                      for terms in weights]
        return grams


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
    calls it.  The mask ``failed`` marks the members whose factorization
    fails; the solves skip them.
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
        self.failed = np.zeros(plan.members, dtype=bool)
        for k, H in enumerate(plan.gram(scaling)):
            # a variable that no cone row touches has a zero diagonal
            # entry, which a relative shift would leave singular
            diagonal = H.reshape(-1)[:: len(H) + 1]
            diagonal += self._REG * np.where(diagonal > 0, diagonal, 1.0)
            factor, info = dpotrf(H, lower=False, clean=False)
            self.factors.append(factor)
            self.failed[k] = info != 0

    def _base_solve(self, rx, rz, members=None):
        """(dx, dz, G dx), solved for the members the mask ``members``
        marks (by default every member that factored); the other members'
        dx are zeros."""
        plan = self.plan
        top = rx + plan.Gt @ self.scaling.apply_sq(rz, invert=True)
        members = ~self.failed if members is None else members
        if plan.members == 1 and members[0]:
            dx = dpotrs(self.factors[0], top, lower=False)[0]
        else:
            dx = np.zeros_like(top)
            for k in np.flatnonzero(members).tolist():
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
        pending = ~self.failed
        for refinement in range(self._REFINE_PASSES):
            if refinement:
                Gdx = plan.G @ dx
            res_x = rx - plan.Gt @ dz
            res_z = rz - (Gdx - self.scaling.apply_sq(dz))
            ok = np.maximum(X.max_abs(res_x), Z.max_abs(res_z)) <= bound
            pending &= ~ok.reshape(K, -1).all(axis=1)
            if not np.count_nonzero(pending):
                break
            cx, cz, _ = self._base_solve(res_x, res_z, pending)
            # in place: the other members keep their solves, -0.0 included;
            # a member's entries are contiguous in C order
            for S, d, c in ((X, dx, cx), (Z, dz, cz)):
                on = np.repeat(pending, S.sizes * (d.size // len(d))).reshape(d.shape)
                np.add(d, c, out=d, where=on)
        return dx, dz


def _row_ranges(starts: np.ndarray, dims: np.ndarray) -> np.ndarray:
    """Concatenation of the row ranges start .. start + dim - 1."""
    offsets = np.cumsum(dims) - dims
    return np.repeat(starts - offsets, dims) + np.arange(int(dims.sum()))


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

    A program without cone rows is decided by its objective alone.  Every
    other program runs through one interior-point loop, as one
    block-diagonal program, whatever its size and cone layout: the loop
    pays its per-iteration interpreter cost once for all of them.  Programs
    that share a nonzero pattern (unit dimensions, shape and A != 0) share
    one cached :class:`_Pattern` and form a group, whose Gram blocks stack.
    ``programs`` may be any iterable; each program is let go once its
    member is built, so a generator never has them all alive.  Every
    step length, stopping test and certificate stays per program, every
    floating-point operation of a member is the one its solo solve makes,
    and a program leaves the loop at the first convergence test after it
    returns.
    """
    settings = settings or SolverSettings()
    solutions: list[Solution | None] = []
    groups: dict[_Pattern, list[_Member]] = {}
    # each program is dropped once its member holds what the loop needs
    for member in (_reduce(index, program) for index, program in enumerate(programs)):
        if isinstance(member, Solution):
            solutions.append(member)
        else:
            solutions.append(None)
            groups.setdefault(member.pattern, []).append(member)
    if groups:
        _interior_point(list(groups.values()), settings, solutions)
    return solutions


@dataclass(eq=False)
class _Member:
    """One program as the loop takes it, minimize c'x subject to h - G x
    in K with the cone rows permuted as ``pattern.layout`` lays them out.
    G is held as its values at the places its :class:`_Pattern` names,
    until the member's :class:`_Group` takes them over: ``data``, the CSR
    data of G, and ``blocks``, per layout class the dense blocks of its
    units as (units, dim, width).  The interior-point loop keeps the
    member's iterate, scalars and result in its own arrays."""

    index: int
    c: np.ndarray
    pattern: _Pattern
    data: np.ndarray | None
    blocks: list | None
    h: np.ndarray


def _reduce(index: int, program: ConeProgram):
    """The program as a :class:`_Member`, or its Solution when it has no
    cone rows; raises ConeProgramError for an invalid program.  The
    member's :class:`_Pattern` is looked up by the unit dimensions and
    A != 0 (one unit per nonnegative row, SecondOrder(1) included, and one
    per second-order block), and its values are gathered at the places the
    pattern names."""
    validate(program)
    A, b, c = program.constraint_matrix, program.offset, program.objective
    if not program.num_rows:
        # every x is feasible, so the program is bounded iff c = 0
        x = np.zeros(len(c))
        if np.linalg.norm(c) == 0.0:
            return Solution(SolveStatus.OPTIMAL, x, 0.0, 0.0, 0)
        return Solution(SolveStatus.DUAL_INFEASIBLE, x, -np.inf, np.inf, 0)
    unit_dims: list[int] = []
    for cone in program.cones:
        if isinstance(cone, SecondOrder) and cone.dim > 1:
            unit_dims.append(cone.dim)
        else:
            unit_dims.extend([1] * cone.dim)
    pattern = _pattern(A.shape, np.asarray(unit_dims, dtype=np.intp).tobytes(),
                       np.packbits(A != 0).tobytes())
    values = A.ravel()
    return _Member(index, c, pattern, values[pattern.at],
                   [values[at] for at, _, _, _ in pattern.classes], b[pattern.rows])


def _step_limit(step, tau, dtau, kappa, dkappa):
    """The largest step per member toward the cone boundary, tau = 0 or
    kappa = 0.  Runs under the caller's ``np.errstate``."""
    return np.minimum(np.minimum(step, np.where(dtau < 0, -tau / dtau, np.inf)),
                      np.where(dkappa < 0, -kappa / dkappa, np.inf))


# the objective value and duality gap a Farkas certificate reports
_CERTIFIED = {SolveStatus.PRIMAL_INFEASIBLE: (np.nan, np.inf),
              SolveStatus.DUAL_INFEASIBLE: (-np.inf, np.inf)}


def _interior_point(groups: list[list[_Member]], settings: SolverSettings,
                    solutions: list[Solution | None]) -> None:
    """The interior-point loop on groups of programs with cone rows, each
    group sharing one pattern, run as one member-major block program;
    writes each member's Solution into ``solutions`` at the member's index.

    Vectors hold the members' entries one member after another, and every
    array operation acts on each member's entries as that member's solo
    solve would.  Each per-member quantity (tau, kappa, mu, step lengths,
    stopping tests, certificates, stall counts) is one array with an entry
    per member, computed by the expression a solo solve evaluates, in the
    same order; only sigma's cube is taken member by member, because numpy's
    array power can round otherwise than its scalar power.  Each member's
    result is arrays too: its status and the iteration it returned at, which
    ``finish`` sets, and its best iterate (x, objective and gap at the best
    merit so far; x alone at a certificate, whose objective and gap
    ``_CERTIFIED`` gives).  Members leave at one point per iteration, right
    after the convergence tests: ``leave`` builds their Solutions and one
    mask drops their entries from every array; the next :class:`_KktPlan` is
    built from the members that stay, and after the loop the rest leave the
    same way.  A member that stops later, because its Gram matrix cannot be
    factored or its step search fails, takes no step and leaves at the next
    iteration's compaction, so the Gram matrices are assembled and factored
    once per iteration.
    """
    plan = _KktPlan([_Group.of(members) for members in groups])
    live, X, Z = plan.live, plan.x, plan.layout.rows
    c = np.concatenate([member.c for member in live])
    h = np.concatenate([member.h for member in live])
    norm_c, norm_h = np.maximum(1.0, X.max_abs(c)), np.maximum(1.0, Z.max_abs(h))
    degree = np.array([member.pattern.layout.degree + 1.0 for member in live])
    tau, kappa = np.ones(plan.members), np.ones(plan.members)
    best_merit = np.full(plan.members, np.inf)  # the merit of each member's best
    stall = np.zeros(plan.members, dtype=int)   # iterations since it improved
    done = np.zeros(plan.members, dtype=bool)   # the member has its status
    # from a list: np.full would store each status as a truncated str
    status = np.array([SolveStatus.MAX_ITERATIONS] * plan.members, dtype=object)
    returned_at = np.full(plan.members, settings.max_iter)
    best_obj, best_gap = np.full(plan.members, np.nan), np.full(plan.members, np.inf)
    e = plan.layout.identity()
    x, best_x = np.zeros(len(c)), np.zeros(len(c))
    # the pair (s, z) as the one (rows, 2) stack the cone kernels take, and
    # its columns also as contiguous vectors, whose dot products round as
    # contiguous ones do
    sz = np.column_stack([e, e])
    s, z = e.copy(), e.copy()
    interior = _margin(plan.layout, sz)

    def certificates(tol: float):
        """Masks of the members whose z is a Farkas certificate of primal
        infeasibility, and of the others whose x is an improving ray, at
        relative tolerance ``tol``.  Reads the products Gx and Gtz of the
        current iterate."""
        hz, cx = -hz_dot, -cx_dot
        primal = (hz > 1e-12) & Z.all(np.isfinite(z)) & (X.max_abs(Gtz) <= tol * norm_c * hz)
        dual = (cx > 1e-12) & X.all(np.isfinite(x)) & Z.all(np.isfinite(s)) \
            & (Z.max_abs(Gx + s) <= tol * norm_h * cx)
        return primal, dual & ~primal

    def finish(members: np.ndarray, outcome: SolveStatus) -> None:
        """The masked members return with status ``outcome`` now."""
        status[members] = outcome
        returned_at[members] = iteration
        done[members] = True

    def stop(members: np.ndarray) -> None:
        """Progress has stalled for the masked members: each accepts a
        modestly looser certificate if one is in hand, otherwise reports
        numerical failure at its best iterate."""
        if not np.count_nonzero(members):
            return
        primal, dual = certificates(max(1e3 * settings.feas_tol, 1e-6))
        finish(members & primal, SolveStatus.PRIMAL_INFEASIBLE)
        finish(members & dual, SolveStatus.DUAL_INFEASIBLE)
        finish(members & ~(primal | dual), SolveStatus.NUMERICAL_FAILURE)

    def leave(members: np.ndarray) -> None:
        """Stores the masked members' Solutions, in their programs' variables."""
        for k in np.flatnonzero(members):
            objective, gap = _CERTIFIED.get(status[k], (best_obj[k], best_gap[k]))
            solutions[live[k].index] = Solution(
                status[k], X.rows(best_x, k), float(objective), float(gap), int(returned_at[k]))

    with np.errstate(all="ignore"):
        for iteration in range(settings.max_iter):
            layout = plan.layout
            # residuals of the homogeneous system; the two products also
            # feed the convergence tests and the certificates
            Gx, Gtz = plan.G @ x, plan.Gt @ z
            tau_n, tau_m = X.spread(tau), Z.spread(tau)
            r_dual = Gtz + c * tau_n                  # -> 0
            r_cone = Gx + s - h * tau_m               # -> 0
            cx_dot, hz_dot = X.dots(c, x), Z.dots(h, z)
            r_gap = cx_dot + hz_dot + kappa           # -> 0
            mu = (Z.dots(s, z) + tau * kappa) / degree
            finite = X.all(np.isfinite(r_dual)) & Z.all(np.isfinite(r_cone)) \
                & np.isfinite(r_gap) & np.isfinite(mu)

            # --- convergence tests on the de-homogenized point ---
            # the primal bound is the cone shortfall of the implied slack
            # h - G xh, absolute so that the residuals() audit holds
            # verbatim; dual feasibility is judged relative to the dual
            # iterate's magnitude.  A member that stopped late last
            # iteration is not tested.
            xh, zh = x / tau_n, z / tau_m
            pres = np.maximum(-_margin(layout, h - Gx / tau_m), 0.0)
            dres = X.max_abs(Gtz / tau_n + c)
            dual_scale = norm_c * (1.0 + Z.max_abs(zh))
            pobj = X.dots(c, xh)
            dobj = -Z.dots(h, zh)
            relgap = np.abs(pobj - dobj) / np.maximum(np.maximum(1.0, np.abs(pobj)),
                                                      np.abs(dobj))
            tested = ~done & finite
            optimal = tested & (pres <= settings.feas_tol) \
                & (dres <= settings.feas_tol * dual_scale) & (relgap <= settings.gap_tol)
            tested &= ~optimal
            # fmax: a NaN dual or gap term is passed over, not propagated
            merit = np.fmax(np.fmax(pres, dres / dual_scale), relgap)
            improved = tested & (merit < 0.9 * best_merit)
            np.copyto(best_merit, merit, where=improved)
            stall += 1
            np.copyto(stall, 0, where=improved)
            primal, dual = certificates(settings.feas_tol)
            primal, dual = tested & primal, tested & dual
            better = optimal | improved
            np.copyto(best_x, xh, where=X.spread(better | primal | dual))
            np.copyto(best_obj, pobj, where=better)
            np.copyto(best_gap, relgap, where=better)
            finish(optimal, SolveStatus.OPTIMAL)
            finish(primal, SolveStatus.PRIMAL_INFEASIBLE)
            finish(dual, SolveStatus.DUAL_INFEASIBLE)
            # degenerate instances stop making progress once mu bottoms
            # out; bail out before the scaled KKT system turns to noise
            stop(~done & (~finite | (mu < 1e-18) | (interior < 1e-40) | (stall >= 15)))

            kkt = None  # it holds the plan
            if np.count_nonzero(done):
                if done.all():
                    break
                leave(done)
                keep = ~done
                groups, on_x, on_z = plan.survivors(keep)
                plan = None  # the old plan goes before the next is built
                plan = _KktPlan(groups)
                live, layout = plan.live, plan.layout
                X, Z = plan.x, layout.rows
                x, c, Gtz, r_dual = x[on_x], c[on_x], Gtz[on_x], r_dual[on_x]
                s, z, h, Gx, r_cone = s[on_z], z[on_z], h[on_z], Gx[on_z], r_cone[on_z]
                sz, best_x = sz[on_z], best_x[on_x]
                (tau, kappa, r_gap, mu, cx_dot, hz_dot, norm_c, norm_h, degree,
                 best_merit, stall, done, status, returned_at, best_obj,
                 best_gap) = (values[keep] for values in (
                    tau, kappa, r_gap, mu, cx_dot, hz_dot, norm_c, norm_h, degree,
                    best_merit, stall, done, status, returned_at, best_obj, best_gap))
            scaling = _Scaling(layout, sz)
            kkt = _KktSolver(plan, scaling)
            stop(kkt.failed)  # they take no step, and leave next iteration
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
                num = -r_gap - dkappa_target / tau - (X.dots(c, x0) + Z.dots(h, z0))
                dtau = num / den
                dkappa = (dkappa_target - kappa * dtau) / tau
                dx = x0 + X.spread(dtau) * x1
                dz = z0 + Z.spread(dtau) * z1
                ds = w_dst - scaling.apply_sq(dz)
                return dx, dz, dtau, ds, dkappa

            # predictor, solved together with the d_tau column
            w_dst_aff, rz_aff = cone_rhs(-lam_sq)
            cols_x, cols_z = kkt.solve(np.column_stack([-c, -r_dual]),
                                       np.column_stack([h, rz_aff]))
            x1, z1 = cols_x[:, 0], cols_z[:, 0]
            den = (X.dots(c, x1) + Z.dots(h, z1)) - kappa / tau
            _, dza, dtaua, dsa, dkappaa = direction(w_dst_aff, -tau * kappa,
                                                    cols_x[:, 1], cols_z[:, 1])
            step = _max_step(layout, sz, np.column_stack([dsa, dza]))
            alpha_aff = np.minimum(_step_limit(step, tau, dtaua, kappa, dkappaa), 1.0)
            a_m = Z.spread(alpha_aff)
            mu_aff = (Z.dots(s + a_m * dsa, z + a_m * dza)
                      + (tau + alpha_aff * dtaua) * (kappa + alpha_aff * dkappaa)) / degree
            cube = np.array([ratio ** 3 for ratio in mu_aff / mu])  # scalar powers
            sigma_mu = np.minimum(np.maximum(cube, 1e-8), 0.999) * mu
            dkappa_target = -tau * kappa - dtaua * dkappaa + sigma_mu

            # corrector
            corr = _jordan_product(layout, scaling.apply(dsa, invert=True), scaling.apply(dza))
            w_dst, rz = cone_rhs(-lam_sq - corr + Z.spread(sigma_mu) * layout.head)
            dx, dz, dtau, ds, dkappa = direction(
                w_dst, dkappa_target, *kkt.solve(-r_dual, rz))

            dsz = np.column_stack([ds, dz])
            step = _max_step(layout, sz, dsz)
            alpha = np.minimum(0.99 * _step_limit(step, tau, dtau, kappa, dkappa), 1.0)
            stop(~done & ~(X.all(np.isfinite(dx)) & Z.all(np.isfinite(ds)) & np.isfinite(dtau)
                           & np.isfinite(dkappa) & np.isfinite(alpha)))
            np.copyto(alpha, 0.0, where=done)

            # keep iterates strictly interior despite floating-point step
            # rounding: each member halves its own step until it is; the
            # last pass's margins are those of the accepted iterate, which
            # the next convergence test reads
            searching = ~done
            for _ in range(40):
                sz_new = sz + np.reshape(Z.spread(alpha), (-1, 1)) * dsz
                inside = _margin(layout, sz_new)
                searching &= ~((tau + alpha * dtau > 0) & (kappa + alpha * dkappa > 0)
                               & (inside > 0))
                np.multiply(alpha, 0.5, out=alpha, where=searching)
                if not np.count_nonzero(searching):
                    break
            stop(searching | ~done & (alpha <= 1e-13))
            np.copyto(alpha, 0.0, where=done)
            tau, kappa = tau + alpha * dtau, kappa + alpha * dkappa

            x += X.spread(alpha) * dx
            sz, interior = sz_new, inside
            s, z = sz[:, 0].copy(), sz[:, 1].copy()
    leave(np.ones(plan.members, dtype=bool))
