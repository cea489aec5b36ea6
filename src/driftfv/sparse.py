"""Sparse assembly, linear solves, and M-matrix verification.

Thin layer over scipy.sparse: systems are CSR matrices, solved by a direct
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
    A = sp.csr_matrix(A)
    b = np.asarray(b, dtype=float)
    tol = max(1e-12, 1e-12 * np.max(np.abs(b), initial=0.0))
    try:
        lu = spla.splu(sp.csc_matrix(A))
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


def tpfa_laplacian(mesh: Mesh):
    """Two-point-flux stiffness matrix and Dirichlet coupling.

    Returns (L, D) with L the theta x theta matrix of -sum tau Du and D the
    theta x theta^D matrix such that the discrete Laplace operator applied to
    u is L @ u_cells - D @ u_dirichlet.
    """
    rows, cols, vals = [], [], []
    drows, dcols, dvals = [], [], []
    k = mesh.edge_cells[:, 0]
    ell = mesh.edge_cells[:, 1]
    tau = mesh.edge_tau
    for e in mesh.interior_edges:
        rows += [k[e], k[e], ell[e], ell[e]]
        cols += [k[e], ell[e], ell[e], k[e]]
        vals += [tau[e], -tau[e], tau[e], -tau[e]]
    for e in mesh.dirichlet_edges:
        rows.append(k[e]); cols.append(k[e]); vals.append(tau[e])
        drows.append(k[e]); dcols.append(mesh.dirichlet_index[e]); dvals.append(tau[e])
    n = mesh.n_cells
    L = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    D = sp.csr_matrix((dvals, (drows, dcols)), shape=(n, max(mesh.n_dirichlet, 1)))
    return L, D
