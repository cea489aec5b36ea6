"""Sparse assembly, linear solves, and M-matrix verification.

Thin layer over scipy.sparse: every system is the two-point operator of
``tpfa_system``, assembled straight into CSC form and solved by a direct
LU factorization, and ``check_m_matrix`` verifies the structural
properties (positive diagonal, nonpositive off-diagonal, strict column
diagonal dominance) that give entrywise-nonnegative inverses.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import Mesh

# Strictness margin for column diagonal dominance, relative to the diagonal.
_DOMINANCE_MARGIN = 1e-14


class SolverError(RuntimeError):
    """Linear solve failed or did not reach the required residual."""


def solve(A, b) -> np.ndarray:
    """Solve A x = b to residual ||Ax-b||_inf <= max(1e-12, 1e-12 ||b||_inf)."""
    A = sp.csc_matrix(A)
    b = np.asarray(b, dtype=float)
    tol = max(1e-12, 1e-12 * np.max(np.abs(b), initial=0.0))
    try:
        lu = spla.splu(A)
        x = lu.solve(b)
    except RuntimeError as exc:
        raise SolverError(f"direct solve failed: {exc}") from exc
    res = np.max(np.abs(A @ x - b), initial=0.0)
    if res > tol:
        # One step of iterative refinement before giving up.
        x = x + lu.solve(b - A @ x)
        res = np.max(np.abs(A @ x - b), initial=0.0)
        if res > tol:
            raise SolverError(f"solve residual {res:.3e} exceeds tolerance {tol:.3e}")
    return x


@dataclass
class MMatrixReport:
    is_m_matrix: bool
    violations: list = field(default_factory=list)

    def __bool__(self):
        return self.is_m_matrix


def check_m_matrix(A) -> MMatrixReport:
    """Structural M-matrix check: diag > 0, offdiag <= 0, strict column dominance."""
    A = sp.csc_matrix(A)
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


def tpfa_system(mesh: Mesh, a_fwd, a_bwd, diag, u_dirichlet):
    """Two-point operator in CSC form and its Dirichlet right-hand side.

    Returns (A, g) such that, with u_{K,sigma} the neighbor or Dirichlet
    value across sigma,
        sum_sigma tau (a_fwd u_K - a_bwd u_{K,sigma}) + diag_K u_K
    is (A @ u_cells - g)_K; Neumann edges carry no flux.  ``a_fwd`` and
    ``a_bwd`` are per-edge weights seen from the first incident cell K (the
    second cell L sees them swapped), ``diag`` is per cell; scalars
    broadcast, so unit weights and zero ``diag`` give the Laplacian.
    """
    n = mesh.n_cells
    k = mesh.edge_cells[:, 0]
    ell = mesh.edge_cells[:, 1]
    it, de = mesh.interior_edges, mesh.dirichlet_edges
    t_fwd = mesh.edge_tau * a_fwd
    t_bwd = mesh.edge_tau * a_bwd
    # bincount adds in input order: diag_K first, then K's edge terms.
    diagonal = np.bincount(
        np.concatenate([np.arange(n), k[it], ell[it], k[de]]),
        weights=np.concatenate([np.broadcast_to(diag, (n,)), t_fwd[it],
                                t_bwd[it], t_fwd[de]]),
        minlength=n)
    order, indices, indptr = mesh.stencil_csc
    data = np.concatenate([diagonal, -t_bwd[it], -t_fwd[it]])[order]
    A = sp.csc_matrix((data, indices, indptr), shape=(n, n))
    g = np.bincount(k[de], weights=t_bwd[de] * u_dirichlet, minlength=n)
    return A, g
