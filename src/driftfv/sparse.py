"""Two-point operators, sparse linear solves, and M-matrix verification.

Every system is the two-point operator of ``tpfa_operator``: a
``TpfaOperator`` holding the diagonal and the off-diagonal edge weights,
whose product ``A @ u`` is computed edge by edge with index arrays cached
on the mesh.  Its CSC form is laid out only when a direct LU factorization
or ``check_m_matrix`` needs it (``tpfa_system`` returns that form at once);
``solve`` and ``check_m_matrix`` take either form.  ``check_m_matrix``
verifies the structural properties (positive diagonal, nonpositive
off-diagonal, strict column diagonal dominance) that give
entrywise-nonnegative inverses.

Every factorization uses the minimum-degree ordering of A^T + A
(``MMD_AT_PLUS_A``), which keeps the fill of the two-point stencil's LU
below that of SuperLU's default COLAMD.  ``solve`` can keep the factor of
one system in a ``HeldFactor`` and reuse it for the next, nearby system as
the preconditioner of iterative refinement (at most 5 steps, each of which
must halve the residual).  It accepts the refined x only at the normwise
backward error a fresh LU solve delivers,
    ||b - A x||_inf <= min(tol, 16 eps (||A||_inf ||x||_inf + ||b||_inf)),
and otherwise factors A afresh, so x is still the exact solution of A x = b
perturbed at rounding level.

``correct`` is the inexact inner solve of the transient Picard loop: one
correction x0 + LU^{-1}(b - A x0) of the current iterate x0 on the held
factor, kept only if it is nonnegative and at least halves the residual.
It needs only ``A @ x``, so an operator reaches its CSC form only when
the correction is refused.  Such an x is not the solution of an M-matrix
system; its nonnegativity comes from that test, and when the test fails
the caller falls back to ``solve``.  ``check_m_matrix`` can still cover
every assembled operator.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import Mesh

# Strictness margin for column diagonal dominance, relative to the diagonal.
_DOMINANCE_MARGIN = 1e-14
# Fill-reducing column ordering of every LU factorization.
_ORDERING = "MMD_AT_PLUS_A"
# Refinement with a held factor: at most this many correction steps, each of
# which must cut the residual by at least the given factor, and acceptance at
# this many machine epsilons of normwise backward error.
_REFINE_MAX = 5
_REFINE_CONTRACTION = 0.5
_BACKWARD_ERROR_EPS = 16.0


class SolverError(RuntimeError):
    """Linear solve failed or did not reach the required residual."""


class HeldFactor:
    """LU factor kept from one solve for the next, nearby system."""

    __slots__ = ("lu",)

    def __init__(self):
        self.lu = None


def factor(A):
    """LU factor of a square CSC matrix, fill-reduced by minimum degree."""
    try:
        return spla.splu(A, permc_spec=_ORDERING)
    except RuntimeError as exc:
        raise SolverError(f"direct solve failed: {exc}") from exc


def solve(A, b, held: "HeldFactor | None" = None) -> np.ndarray:
    """Solve A x = b to residual ||Ax-b||_inf <= max(1e-12, 1e-12 ||b||_inf).

    With a ``held`` factor from an earlier system, x comes from iterative
    refinement on that factor and is accepted only at rounding-level
    backward error; otherwise, or when it is not accepted, A is factored
    afresh and the new factor is kept in ``held``.
    """
    A = _csc(A)
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
    a_norm = np.max(np.bincount(A.indices, weights=np.abs(A.data),
                                minlength=A.shape[0]), initial=0.0)
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


def correct(A, b, x0, held: HeldFactor) -> "np.ndarray | None":
    """One correction x0 + LU^{-1}(b - A x0) of a guess on the held factor.

    Returns the corrected x only if it is nonnegative and its residual
    ||b - A x||_inf is at most ``_REFINE_CONTRACTION`` times that of x0;
    returns None when nothing is held or either test fails.
    """
    if held.lu is None:
        return None
    r0 = b - A @ x0
    x = x0 + held.lu.solve(r0)
    if not np.all(x >= 0.0):
        return None
    res = np.max(np.abs(b - A @ x), initial=0.0)
    if not res <= _REFINE_CONTRACTION * np.max(np.abs(r0), initial=0.0):
        return None
    return x


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
    """The two-point operator A of ``tpfa_operator``, applied without a matrix.

    Holds A's diagonal and its off-diagonal entries in the mesh's stencil
    order, (K, L) and then (L, K) for each interior edge.  ``A @ u`` gathers
    u across the interior edges and sums each cell's entries with one
    ``bincount``; ``tocsc()`` lays the same entries out in CSC form for a
    factorization or an M-matrix check.
    """

    __slots__ = ("mesh", "diagonal", "offdiagonal")

    def __init__(self, mesh: Mesh, diagonal, offdiagonal):
        self.mesh = mesh
        self.diagonal = diagonal
        self.offdiagonal = offdiagonal

    @property
    def shape(self):
        return (self.mesh.n_cells, self.mesh.n_cells)

    def __matmul__(self, x):
        rows, cols = self.mesh.stencil_offdiagonal
        return self.diagonal * x + np.bincount(
            rows, weights=self.offdiagonal * x[cols], minlength=self.mesh.n_cells)

    def tocsc(self):
        order, indices, indptr = self.mesh.stencil_csc
        data = np.concatenate([self.diagonal, self.offdiagonal])[order]
        return sp.csc_matrix((data, indices, indptr), shape=self.shape)


def _csc(A):
    """A as a CSC matrix; an operator lays out its entries."""
    return A.tocsc() if isinstance(A, TpfaOperator) else sp.csc_matrix(A)


def tpfa_operator(mesh: Mesh, a_fwd, a_bwd, diag, u_dirichlet):
    """Two-point operator and its Dirichlet right-hand side.

    Returns (A, g), A a ``TpfaOperator``, such that, with u_{K,sigma} the
    neighbor or Dirichlet value across sigma,
        sum_sigma tau (a_fwd u_K - a_bwd u_{K,sigma}) + diag_K u_K
    is (A @ u_cells - g)_K; Neumann edges carry no flux.  ``a_fwd`` and
    ``a_bwd`` are per-edge weights seen from the first incident cell K (the
    second cell L sees them swapped), ``diag`` is per cell; scalars
    broadcast, so unit weights and zero ``diag`` give the Laplacian.
    """
    n = mesh.n_cells
    it, de = mesh.interior_edges, mesh.dirichlet_edges
    t_fwd = mesh.edge_tau * a_fwd
    t_bwd = mesh.edge_tau * a_bwd
    # bincount adds in input order: diag_K first, then K's edge terms.
    diagonal = np.bincount(
        mesh.stencil_diagonal_cells,
        weights=np.concatenate([np.broadcast_to(diag, (n,)), t_fwd[it],
                                t_bwd[it], t_fwd[de]]),
        minlength=n)
    A = TpfaOperator(mesh, diagonal, np.concatenate([-t_bwd[it], -t_fwd[it]]))
    g = np.bincount(mesh.edge_cells[de, 0], weights=t_bwd[de] * u_dirichlet,
                    minlength=n)
    return A, g


def tpfa_system(mesh: Mesh, a_fwd, a_bwd, diag, u_dirichlet):
    """``tpfa_operator`` with A in CSC form."""
    A, g = tpfa_operator(mesh, a_fwd, a_bwd, diag, u_dirichlet)
    return A.tocsc(), g
