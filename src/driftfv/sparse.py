"""Two-point operators, sparse linear solves, and M-matrix verification.

``tpfa_operator`` assembles every system as a block-diagonal
``TpfaOperator`` (one block for Poisson and Newton, two for the densities N
and P), applied without a matrix and laid out in CSC only to be factored.
``check_m_matrix`` reads its entries as they are.  ``algebra`` holds what
every operator on one mesh shares: the unit Laplacian, its minimum-degree
LU factor, and that factor's fill order, in which ``factor`` lays out and
factors every block.  ``solve`` can hold a factor and reuse it for a nearby
system by iterative refinement, which goes on while the residual's observed
contraction per step, kept up over the steps left, would still reach
rounding-level backward error, and gives way to a fresh factorization as
soon as it would not; ``correct``, the Picard loop's inexact inner solve,
takes one correction per block on its held factor, or a full ``solve``.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import Mesh, _read_only

# Strictness margin for column diagonal dominance, relative to the diagonal.
_DOMINANCE_MARGIN = 1e-14
# Fill-reducing column ordering of the Laplacian's LU factor, which orders
# its mesh; an operator laid out in that fill order is factored in the order
# it comes in.  SuperLU's supernode relaxation and panel width: the small
# supernodes of a two-point stencil's factor gain nothing from wide panels,
# which only slow the factorization (same fill).
_ORDERING = "MMD_AT_PLUS_A"
_ORDERED = "NATURAL"
_RELAX = 1
_PANEL_SIZE = 1
# Refinement on a factor: at most this many correction steps, and
# acceptance at this many machine epsilons of normwise backward error.  One
# step is a triangular solve and an operator product; a fresh factorization
# of a Newton Jacobian costs about 8 steps at 16x16, 12 at 32x32 and 15 at
# 64x64, so an accepted refinement costs at most about as much as the
# factorization it saves.
_REFINE_MAX = 8
_BACKWARD_ERROR_EPS = 16.0
# A one-step correction on a held factor is kept only if it cuts the residual
# to at most this share; a factor that contracts less is refreshed.
_CORRECT_CONTRACTION = 0.2
# The backward error of a fresh solve, relative to ||b||_inf.
_ROUNDING = _BACKWARD_ERROR_EPS * np.finfo(float).eps


class SolverError(RuntimeError):
    """Linear solve failed or did not reach the required residual."""


class HeldFactor:
    """LU factor kept from one solve for the next, nearby system."""

    __slots__ = ("lu",)

    def __init__(self):
        self.lu = None


class OrderedFactor:
    """LU factor of a matrix permuted symmetrically into the cell order q;
    ``solve`` takes and returns vectors in natural order."""

    __slots__ = ("lu", "q", "rank")

    def __init__(self, lu, q, rank):
        self.lu = lu
        self.q = q
        self.rank = rank

    def solve(self, b):
        return self.lu.solve(b[self.q])[self.rank]


def factor(A: "TpfaOperator") -> OrderedFactor:
    """LU factor of the one-block operator A, laid out in its mesh's fill
    order (``algebra``) and factored in that order."""
    shared = algebra(A.mesh)
    return OrderedFactor(_splu(A.tocsc(ordered=True), _ORDERED), shared.q, shared.rank)


def _splu(A, ordering):
    try:
        return spla.splu(A, permc_spec=ordering, relax=_RELAX,
                         panel_size=_PANEL_SIZE)
    except RuntimeError as exc:
        raise SolverError(f"direct solve failed: {exc}") from exc


def solve(A: "TpfaOperator", b, held: "HeldFactor | None" = None) -> np.ndarray:
    """Solve the one-block operator system A x = b to rounding-level
    backward error, and to residual ||Ax-b||_inf <= max(1e-12, 1e-12 ||b||_inf).

    With a ``held`` factor from an earlier system, x comes from iterative
    refinement on that factor (``_refine``).  Refinement stops as soon as
    the residual's contraction per step, kept up over the steps left, could
    not reach its bound; then, or without a held factor, A is factored
    afresh, refined alike on the new factor, and the new factor is kept in
    ``held``.  A is applied without a matrix and laid out only to be
    factored.
    """
    _require_operator("solve", A)
    if A.blocks != 1:
        raise ValueError(f"solve takes a one-block operator, not {A.blocks} blocks")
    b = np.asarray(b, dtype=float)
    b_norm = np.max(np.abs(b), initial=0.0)
    tol = max(1e-12, 1e-12 * b_norm)
    if held is not None and held.lu is not None:
        x = _refine(A, b, b_norm, tol, held.lu)
        if x is not None:
            return x
        # Drop the old factor before the new one exists: never hold both.
        held.lu = None
    lu = factor(A)
    x = _refine(A, b, b_norm, tol, lu)
    if x is None:
        raise SolverError("solve on a fresh factor did not reach rounding-level "
                          "backward error")
    if held is not None:
        held.lu = lu
    return x


def _require_operator(name, A):
    if not isinstance(A, TpfaOperator):
        raise TypeError(f"{name} takes a TpfaOperator, not {type(A).__name__}")


def _refine(A, b, b_norm, tol, lu):
    """Iterative refinement of A x = b on the factor of A or of a nearby
    matrix.

    Such refinement contracts the residual at a steady rate (Higham, IMA J.
    Numer. Anal. 17, 1997), taken after each correction as the ratio of the
    last two residuals.  Returns x once its residual meets the backward-error
    bound, or None as soon as that rate, kept up over the steps left before
    ``_REFINE_MAX``, could not bring it there.
    """
    a_norm = np.max(abs(A) @ np.ones(A.shape[1]), initial=0.0)
    x = lu.solve(b)
    prev = np.inf
    for step in range(_REFINE_MAX + 1):
        r = b - A @ x
        res = np.max(np.abs(r), initial=0.0)
        bound = min(tol, _ROUNDING * (a_norm * np.max(np.abs(x), initial=0.0) + b_norm))
        if res <= bound:
            return x
        # Before the first correction prev is inf and the rate 0; a NaN
        # residual fails the test, and at the cap no step is left.
        rate = res / prev
        if not (rate < 1.0 and res * rate ** (_REFINE_MAX - step) <= bound):
            return None
        x = x + lu.solve(r)
        prev = res


def correct(A, b, x0, held) -> np.ndarray:
    """Solve block-diagonal A x = b inexactly, block by block, from x0.

    b and x0 hold one row per block of A, and ``held`` one ``HeldFactor``
    per block.  Each block with a held factor takes one correction
    x0 + LU^{-1}(b - A x0), from one residual of the stacked x0.  It is kept
    only if it is nonnegative and its residual ||b - A x||_inf is at most
    ``_CORRECT_CONTRACTION`` times that of x0, or at most the rounding level
    16 eps ||b||_inf of the block.  Every other block drops its factor and
    is solved in full by ``solve`` on a fresh one, which it then holds.
    Returns x, shaped like x0.
    """
    x = x0.copy()
    kept = np.array([h.lu is not None for h in held])
    if kept.any():
        r0 = b - (A @ x0.ravel()).reshape(x0.shape)
        for s, h in enumerate(held):
            if kept[s]:
                x[s] += h.lu.solve(r0[s])
        # A is block-diagonal: the residual of a block depends on that block only.
        r = np.abs(b - (A @ x.ravel()).reshape(x.shape)).max(axis=1)
        kept &= ((x.min(axis=1) >= 0.0)
                 & ((r <= _CORRECT_CONTRACTION * np.abs(r0).max(axis=1))
                    | (r <= _ROUNDING * np.abs(b).max(axis=1))))
    for s, h in enumerate(held):
        if not kept[s]:
            h.lu = None
            x[s] = solve(A.block(s), b[s], h)
    return x


@dataclass
class MMatrixReport:
    is_m_matrix: bool
    violations: list = field(default_factory=list)

    def __bool__(self):
        return self.is_m_matrix


def check_m_matrix(A: "TpfaOperator") -> MMatrixReport:
    """Structural M-matrix check: diag > 0, offdiag <= 0, strict column
    dominance; each kind of violation names up to 10 cells."""
    _require_operator("check_m_matrix", A)
    diag, off = A.diagonal, A.offdiagonal
    cols = A.mesh.block_stencil(A.blocks).offdiagonal_cols
    violations = [f"nonpositive diagonal at {i}: {diag[i]:g}"
                  for i in np.nonzero(diag <= 0.0)[0][:10]]
    for j in np.unique(cols[off > 0.0])[:10]:
        violations.append(f"positive off-diagonal in column {j}")
    offsum = np.bincount(cols, weights=np.abs(off), minlength=len(diag))
    weak = np.nonzero(diag - offsum < _DOMINANCE_MARGIN * np.abs(diag))[0]
    for j in weak[:10]:
        violations.append(
            f"column {j} not strictly diagonally dominant: diag={diag[j]:g} offsum={offsum[j]:g}")
    return MMatrixReport(is_m_matrix=not violations, violations=violations)


class TpfaOperator:
    """The block-diagonal two-point operator of ``tpfa_operator``, applied
    without a matrix.

    Holds the diagonal of every block, stacked, and the off-diagonal entries
    of every block in the mesh's stencil order, (K, L) and then (L, K) for
    each interior edge.  ``A @ u`` gathers each block of u across the interior
    edges in one ``take`` and sums each cell's entries with one ``bincount``;
    ``block(s)`` is block s as a one-block operator, and ``tocsc()`` lays
    the entries out in CSC form, with ``ordered`` permuted into the mesh's
    fill order (``algebra``) for a factorization.
    """

    __slots__ = ("mesh", "diagonal", "offdiagonal")

    def __init__(self, mesh: Mesh, diagonal, offdiagonal):
        self.mesh = mesh
        self.diagonal = diagonal
        self.offdiagonal = offdiagonal

    @property
    def blocks(self) -> int:
        return len(self.diagonal) // self.mesh.n_cells

    @property
    def shape(self):
        return (len(self.diagonal), len(self.diagonal))

    def __matmul__(self, x):
        stencil = self.mesh.block_stencil(self.blocks)
        return self.diagonal * x + np.bincount(
            stencil.offdiagonal_rows,
            weights=self.offdiagonal * x.take(stencil.offdiagonal_cols),
            minlength=len(self.diagonal))

    def block(self, s: int) -> "TpfaOperator":
        """Block s (a view of its entries) as a one-block operator."""
        n = self.mesh.n_cells
        m = len(self.offdiagonal) // self.blocks
        return TpfaOperator(self.mesh, self.diagonal[s * n:(s + 1) * n],
                            self.offdiagonal[s * m:(s + 1) * m])

    def __abs__(self) -> "TpfaOperator":
        return TpfaOperator(self.mesh, np.abs(self.diagonal), np.abs(self.offdiagonal))

    def tocsc(self, ordered: bool = False):
        """The matrix in CSC form; with ``ordered`` (one block only),
        permuted symmetrically into the mesh's fill order."""
        values = np.concatenate([self.diagonal, self.offdiagonal])
        if ordered:
            order, indices, indptr = algebra(self.mesh).layout
            return sp.csc_matrix((values[order], indices, indptr), shape=self.shape)
        stencil = self.mesh.block_stencil(self.blocks)
        cells = np.arange(len(self.diagonal))
        return sp.csc_matrix((values, (np.concatenate([cells, stencil.offdiagonal_rows]),
                                       np.concatenate([cells, stencil.offdiagonal_cols]))),
                             shape=self.shape)


def tpfa_operator(mesh: Mesh, a_fwd, a_bwd, diag, u_dirichlet):
    """Block-diagonal two-point operator and its Dirichlet right-hand side.

    One block per row of ``u_dirichlet`` (shape (blocks, n_dirichlet), or
    (n_dirichlet,) for one block).  Returns (A, g), A a ``TpfaOperator`` on
    the stacked cell values of all blocks and g stacked alike, such that in
    each block, with u_{K,sigma} the neighbor or Dirichlet value across sigma,
        sum_sigma tau (a_fwd u_K - a_bwd u_{K,sigma}) + diag_K u_K
    is (A @ u - g)_K.  ``a_fwd`` and ``a_bwd`` hold one weight per active
    edge (``mesh.active_edges``: interior, then Dirichlet; Neumann edges
    carry no flux) seen from the first incident cell K, the second cell L
    seeing them swapped; ``diag`` holds one per cell.  Each takes one row
    per block; a single row or a scalar serves every block, so unit weights
    and zero ``diag`` give the Laplacian.
    """
    u_dir = np.atleast_2d(u_dirichlet)
    blocks = len(u_dir)
    n, ni = mesh.n_cells, len(mesh.interior_edges)
    stencil = mesh.block_stencil(blocks)
    # One row (or a scalar) broadcasts over the blocks in every use below.
    t_fwd = mesh.active_tau * a_fwd
    t_bwd = mesh.active_tau * a_bwd
    # bincount adds in input order: diag_K first, then K's edge terms.
    terms = np.empty((blocks, n + len(mesh.active_tau) + ni))
    terms[:, :n] = diag
    terms[:, n:n + ni] = t_fwd[..., :ni]
    terms[:, n + ni:n + 2 * ni] = t_bwd[..., :ni]
    terms[:, n + 2 * ni:] = t_fwd[..., ni:]
    diagonal = np.bincount(stencil.diagonal_cells, weights=terms.ravel(),
                           minlength=blocks * n)
    offdiagonal = np.empty((blocks, 2 * ni))
    np.negative(t_bwd[..., :ni], out=offdiagonal[:, :ni])
    np.negative(t_fwd[..., :ni], out=offdiagonal[:, ni:])
    g = np.bincount(stencil.dirichlet_cells, weights=(t_bwd[..., ni:] * u_dir).ravel(),
                    minlength=blocks * n)
    return TpfaOperator(mesh, diagonal, offdiagonal.ravel()), g


class MeshAlgebra:
    """The linear algebra that every two-point operator on one mesh shares.

    ``laplacian`` is the unit-weight two-point Laplacian in CSC, read-only:
    every Poisson system on the mesh is lambda^2 times it, with Dirichlet
    data only in the right-hand side.  ``laplacian_lu`` is its LU factor,
    ordered by minimum degree; ``q`` lists the cells in that factor's column
    order and ``rank`` gives the place of each cell in it.  The order depends
    only on the sparsity pattern, which every two-point operator on the mesh
    shares, so it serves them all: ``layout`` is the CSC layout of the
    stencil permuted symmetrically into it (``_stencil_layout``).
    """

    __slots__ = ("laplacian", "laplacian_lu", "q", "rank", "layout")

    def __init__(self, mesh: Mesh):
        L, _ = tpfa_operator(mesh, 1.0, 1.0, 0.0, np.zeros(mesh.n_dirichlet))
        self.laplacian = L.tocsc()
        _read_only(self.laplacian.data)
        self.laplacian_lu = _splu(self.laplacian, _ORDERING)
        # Index arrays of the platform's intp gather fastest.
        self.rank = _read_only(self.laplacian_lu.perm_c.astype(np.intp))
        self.q = _read_only(np.argsort(self.rank))
        self.layout = _stencil_layout(mesh, self.rank)


# Built on first use and dropped with its mesh; no entry refers to its mesh.
_ALGEBRA: "weakref.WeakKeyDictionary[Mesh, MeshAlgebra]" = weakref.WeakKeyDictionary()


def algebra(mesh: Mesh) -> MeshAlgebra:
    """The mesh's ``MeshAlgebra``, built once per mesh."""
    shared = _ALGEBRA.get(mesh)
    if shared is None:
        shared = _ALGEBRA[mesh] = MeshAlgebra(mesh)
    return shared


def _stencil_layout(mesh: Mesh, rank):
    """CSC layout of the one-block stencil permuted symmetrically, cell i to
    row and column ``rank[i]``: (order, indices, indptr).

    The stencil's entries are listed as the diagonal, then (K, L) and then
    (L, K) for each interior edge; ``values[order]`` is that list in CSC
    order (by column, rows sorted within a column).
    """
    n = mesh.n_cells
    cells = np.arange(n)
    stencil = mesh.block_stencil(1)
    rows = rank[np.concatenate([cells, stencil.offdiagonal_rows])]
    cols = rank[np.concatenate([cells, stencil.offdiagonal_cols])]
    # Column, then row: one integer key sorts by both.
    order = np.argsort(cols.astype(np.int64) * n + rows)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(cols, minlength=n), out=indptr[1:])
    # Every assembled matrix shares these arrays; none may edit them.
    return (_read_only(order), _read_only(rows[order].astype(np.int32)),
            _read_only(indptr))
