"""Two-point operators, sparse linear solves, and M-matrix verification.

Every system is the two-point operator of ``tpfa_operator``, the one
assembly entry point: a block-diagonal ``TpfaOperator`` with one block per
coefficient row (the Poisson and Newton systems have one block, the
transient density systems two, N and P), holding the diagonal and the
off-diagonal edge weights of all blocks stacked.  Its product ``A @ u`` with
the stacked vector is one gather and one ``bincount`` over index arrays
cached on the mesh; ``A.block(s)`` is block s as a one-block operator, and
its CSC form is laid out (``tocsc()``) only when a direct LU factorization
or ``check_m_matrix`` needs it.  ``solve`` and ``check_m_matrix`` take an
operator or a matrix.  ``check_m_matrix`` verifies the structural
properties (positive diagonal, nonpositive off-diagonal, strict column
diagonal dominance) that give entrywise-nonnegative inverses.

Every factorization is fill-reduced by the minimum-degree ordering of
A^T + A (``MMD_AT_PLUS_A``), which keeps the fill of the two-point
stencil's LU below that of SuperLU's default COLAMD, and uses the narrowest
supernode panels (``relax`` and ``panel_size`` 1): the stencil's supernodes
are small, so wider panels only add work, and the fill is the same.  Every
operator on a mesh shares the stencil's sparsity pattern, so minimum degree
runs once per mesh, on the Laplacian of ``Mesh.laplacian_lu``, and the mesh
keeps that order (``Mesh.fill_order``).  ``factor`` lays a ``TpfaOperator``
out permuted into it, in the one gather of ``tocsc(ordered=True)``, and
factors it in that order as it stands (``NATURAL``); the factor permutes b in
and x out, so it solves in natural order.  ``solve`` can keep
the factor of one system in a ``HeldFactor`` and reuse it for the next,
nearby system as the preconditioner of iterative refinement (at most 5
steps, each of which must halve the residual).  It accepts the refined x only at the normwise
backward error a fresh LU solve delivers,
    ||b - A x||_inf <= min(tol, 16 eps (||A||_inf ||x||_inf + ||b||_inf)),
and otherwise factors A afresh, so x is still the exact solution of A x = b
perturbed at rounding level.

``correct`` is the inexact inner solve of the transient Picard loop: one
correction x0 + LU^{-1}(b - A x0) of the current iterate x0 on the held
factor of each block, from one residual of the stacked iterate, kept for a
block only if it is nonnegative and cuts that block's residual to at most a
fifth, or to the rounding level 16 eps ||b||_inf of that block, which no
correction can undercut.  It needs only ``A @ x``, so a block reaches its
CSC form only when its correction is refused.  Such an x is not the
solution of an M-matrix system; its nonnegativity comes from that test.  A
refused block drops its held factor, and the caller falls back to ``solve`` on that block, which
then factors it afresh at once: refinement on a factor that contracts the
residual by less than a fifth per step cannot reach rounding-level backward
error in ``_REFINE_MAX`` steps.  ``check_m_matrix`` can still cover every
assembled block.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import Mesh

# Strictness margin for column diagonal dominance, relative to the diagonal.
_DOMINANCE_MARGIN = 1e-14
# Fill-reducing column ordering of an LU factorization, and SuperLU's
# supernode relaxation and panel width: the small supernodes of a two-point
# stencil's factor gain nothing from wide panels, which only slow the
# factorization (same fill).  An operator laid out in its mesh's fill order
# is factored in the order it comes in.
_ORDERING = "MMD_AT_PLUS_A"
_ORDERED = "NATURAL"
_RELAX = 1
_PANEL_SIZE = 1
# Refinement with a held factor: at most this many correction steps, each of
# which must cut the residual by at least the given factor, and acceptance at
# this many machine epsilons of normwise backward error.
_REFINE_MAX = 5
_REFINE_CONTRACTION = 0.5
_BACKWARD_ERROR_EPS = 16.0
# A one-step correction on a held factor is kept only if it cuts the residual
# to at most this share; a factor that contracts less is refreshed.
_CORRECT_CONTRACTION = 0.2


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


def factor(A):
    """LU factor of A, fill-reduced by minimum degree.

    A one-block ``TpfaOperator`` is laid out in its mesh's ``fill_order`` and
    factored in that order, as an ``OrderedFactor``; any other A, a square
    matrix, is ordered by minimum degree of its own.
    """
    if isinstance(A, TpfaOperator) and A.blocks == 1:
        q, rank = A.mesh.fill_order
        return OrderedFactor(_splu(A.tocsc(ordered=True), _ORDERED), q, rank)
    return _splu(_csc(A), _ORDERING)


def _splu(A, ordering):
    try:
        return spla.splu(A, permc_spec=ordering, relax=_RELAX,
                         panel_size=_PANEL_SIZE)
    except RuntimeError as exc:
        raise SolverError(f"direct solve failed: {exc}") from exc


def solve(A, b, held: "HeldFactor | None" = None) -> np.ndarray:
    """Solve A x = b to residual ||Ax-b||_inf <= max(1e-12, 1e-12 ||b||_inf).

    With a ``held`` factor from an earlier system, x comes from iterative
    refinement on that factor and is accepted only at rounding-level
    backward error; otherwise, or when it is not accepted, A is factored
    afresh and the new factor is kept in ``held``.  An operator is applied
    without a matrix and laid out only to be factored.
    """
    if not isinstance(A, TpfaOperator):
        A = sp.csc_matrix(A)
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
    x = lu.solve(b)
    res = np.max(np.abs(A @ x - b), initial=0.0)
    if res > tol:
        # One step of iterative refinement before giving up.
        x = x + lu.solve(b - A @ x)
        res = np.max(np.abs(A @ x - b), initial=0.0)
        if res > tol:
            raise SolverError(f"solve residual {res:.3e} exceeds tolerance {tol:.3e}")
    if held is not None:
        held.lu = lu
    return x


def _refine(A, b, b_norm, tol, lu):
    """Iterative refinement of A x = b on the factor of a nearby matrix.

    Returns x once its residual meets the backward-error bound, or None when
    the refinement cap is reached or a step fails to contract the residual.
    """
    a_norm = np.max(abs(A) @ np.ones(A.shape[1]), initial=0.0)
    eps = _BACKWARD_ERROR_EPS * np.finfo(float).eps
    x = lu.solve(b)
    prev = np.inf
    for step in range(_REFINE_MAX + 1):
        r = b - A @ x
        res = np.max(np.abs(r), initial=0.0)
        if res <= min(tol, eps * (a_norm * np.max(np.abs(x), initial=0.0) + b_norm)):
            return x
        if step == _REFINE_MAX or res > _REFINE_CONTRACTION * prev:
            return None
        x = x + lu.solve(r)
        prev = res


def correct(A, b, x0, held):
    """One correction x0 + LU^{-1}(b - A x0) of a guess on the held factor.

    ``held`` is a ``HeldFactor``, or one per block of a block-diagonal A
    (a ``TpfaOperator``), each correcting its own block: one residual of the
    stacked x0 and one triangular solve per block.  A block's corrected x
    is kept only if it is nonnegative and its residual ||b - A x||_inf is at
    most ``_CORRECT_CONTRACTION`` times that of x0, or at most the rounding
    level 16 eps ||b||_inf of the block; a block whose correction is refused
    drops its held factor.  Returns the kept x, or with one
    factor per block a list with the kept x of each block and None where
    nothing is held or a test fails; None when nothing is kept.
    """
    helds = (held,) if isinstance(held, HeldFactor) else tuple(held)
    if all(h.lu is None for h in helds):
        return None
    m = len(x0) // len(helds)
    r0 = b - A @ x0
    # A block without a factor keeps x0; its test below fails on `held`.
    x = x0 + np.concatenate([np.zeros(m) if h.lu is None
                             else h.lu.solve(r0[s * m:(s + 1) * m])
                             for s, h in enumerate(helds)])
    # A is block-diagonal: the residual of a block depends on that block only.
    r = np.max(np.abs(b - A @ x).reshape(-1, m), axis=1)
    floor = _BACKWARD_ERROR_EPS * np.finfo(float).eps * np.max(
        np.abs(b).reshape(-1, m), axis=1)
    kept = ((np.min(x.reshape(-1, m), axis=1) >= 0.0)
            & ((r <= _CORRECT_CONTRACTION * np.max(np.abs(r0).reshape(-1, m), axis=1))
               | (r <= floor))
            & [h.lu is not None for h in helds])
    for h, ok in zip(helds, kept):
        if not ok:
            h.lu = None
    if not kept.any():
        return None
    if isinstance(held, HeldFactor):
        return x
    return [x[s * m:(s + 1) * m] if ok else None for s, ok in enumerate(kept)]


@dataclass
class MMatrixReport:
    is_m_matrix: bool
    violations: list = field(default_factory=list)

    def __bool__(self):
        return self.is_m_matrix


def check_m_matrix(A) -> MMatrixReport:
    """Structural M-matrix check: diag > 0, offdiag <= 0, strict column dominance."""
    A = _csc(A)
    diag = A.diagonal()
    violations = []
    for i in np.nonzero(diag <= 0.0)[0][:10]:
        violations.append(f"nonpositive diagonal at {i}: {diag[i]:g}")

    coo = A.tocoo()
    off = coo.row != coo.col
    pos_off = off & (coo.data > 0.0)
    for j in np.unique(coo.col[pos_off])[:10]:
        violations.append(f"positive off-diagonal in column {j}")
    offsum = np.bincount(coo.col[off], weights=np.abs(coo.data[off]),
                         minlength=A.shape[1])
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
    ``block(s)``
    is block s as a one-block operator, and ``tocsc()`` lays the entries out
    in CSC form for an M-matrix check, or with ``ordered`` permuted into the
    mesh's ``fill_order`` for a factorization.
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
        blocks = self.blocks
        rows = self.mesh.block_stencil(blocks).offdiagonal_rows
        gathered = np.take(x.reshape(blocks, -1), self.mesh.stencil_cols, axis=1)
        return self.diagonal * x + np.bincount(
            rows, weights=self.offdiagonal * gathered.ravel(),
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
        permuted symmetrically into the mesh's ``fill_order``."""
        if self.blocks != 1:
            return sp.block_diag([self.block(s).tocsc() for s in range(self.blocks)],
                                 format="csc")
        mesh = self.mesh
        order, indices, indptr = mesh.ordered_stencil_csc if ordered else mesh.stencil_csc
        data = np.concatenate([self.diagonal, self.offdiagonal])[order]
        return sp.csc_matrix((data, indices, indptr), shape=self.shape)


def _csc(A):
    """A as a CSC matrix; an operator lays out its entries."""
    return A.tocsc() if isinstance(A, TpfaOperator) else sp.csc_matrix(A)


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
