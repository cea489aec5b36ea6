import numpy as np
import pytest
import scipy.sparse as sp

from driftfv.mesh import build_cartesian
from driftfv.sparse import (MMatrixReport, SolverError, check_m_matrix, solve,
                            tpfa_laplacian)


def test_solve_identity():
    A = sp.identity(2, format="csr")
    assert np.allclose(solve(A, np.array([3.0, 4.0])), [3.0, 4.0])


def test_solve_2x2():
    A = sp.csr_matrix(np.array([[2.0, -1.0], [-1.0, 2.0]]))
    assert np.allclose(solve(A, np.array([1.0, 1.0])), [1.0, 1.0])


def test_solve_singular_raises():
    A = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SolverError):
        solve(A, np.array([1.0, 0.0]))


def test_check_m_matrix_examples():
    assert check_m_matrix(sp.identity(3, format="csr")).is_m_matrix
    good = sp.csr_matrix(np.array([[2.0, -1.0], [-1.0, 2.0]]))
    assert check_m_matrix(good)
    bad = sp.csr_matrix(np.array([[2.0, -3.0], [-1.0, 1.0]]))
    report = check_m_matrix(bad)
    assert not report.is_m_matrix
    assert report.violations


def test_check_m_matrix_positive_offdiag():
    A = sp.csr_matrix(np.array([[2.0, 0.5], [-0.1, 2.0]]))
    report = check_m_matrix(A)
    assert not report
    assert any("positive off-diagonal" in v for v in report.violations)


def test_m_matrix_inverse_nonnegative():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = 10
        off = -rng.random((n, n)) * 0.05
        np.fill_diagonal(off, 0.0)
        diag = np.abs(off).sum(axis=0) + rng.random(n) + 0.1
        A = sp.csr_matrix(off + np.diag(diag))
        assert check_m_matrix(A)
        x = solve(A, rng.random(n))
        assert np.all(x >= -1e-13)


def test_tpfa_laplacian_3cell():
    # 1x3 strip, left/right Dirichlet with data 0 and 1: exact linear profile.
    pred = lambda x, y: x < 1e-12 or x > 1.0 - 1e-12
    mesh = build_cartesian(3, 1, dirichlet_predicate=pred)
    L, D = tpfa_laplacian(mesh)
    u_dir = np.zeros(mesh.n_dirichlet)
    for j, e in enumerate(mesh.dirichlet_edges):
        mid_x = 0.5 * (mesh.edge_p1[e, 0] + mesh.edge_p2[e, 0])
        u_dir[j] = 0.0 if mid_x < 0.5 else 1.0
    u = solve(sp.csr_matrix(L), D @ u_dir)
    order = np.argsort(mesh.cell_centers[:, 0])
    assert np.allclose(u[order], [1.0 / 6.0, 0.5, 5.0 / 6.0])


def test_tpfa_laplacian_plus_mass_is_m_matrix():
    # The bare stiffness is only weakly dominant in columns of cells without
    # boundary edges; any positive diagonal shift makes it strictly so.
    mesh = build_cartesian(5, 4)
    L, _ = tpfa_laplacian(mesh)
    assert not check_m_matrix(sp.csr_matrix(L - sp.diags(np.full(mesh.n_cells, 1e-12))))
    shifted = sp.csr_matrix(L + sp.identity(mesh.n_cells))
    assert check_m_matrix(shifted)


def test_tpfa_constants_harmonic():
    mesh = build_cartesian(6, 6)
    L, D = tpfa_laplacian(mesh)
    u = np.full(mesh.n_cells, 3.7)
    u_dir = np.full(mesh.n_dirichlet, 3.7)
    assert np.allclose(L @ u - D @ u_dir, 0.0, atol=1e-12)
