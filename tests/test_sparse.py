import numpy as np
import pytest
import scipy.sparse as sp

from driftfv.mesh import build_cartesian, import_triangulation
from driftfv.problem import contact_predicate
from driftfv.sparse import (MMatrixReport, SolverError, check_m_matrix, solve,
                            tpfa_system)


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


def _laplacian(mesh, u_dir=None):
    """Unit-weight two-point system: the Laplacian and its Dirichlet data."""
    if u_dir is None:
        u_dir = np.zeros(mesh.n_dirichlet)
    return tpfa_system(mesh, 1.0, 1.0, 0.0, u_dir)


def test_tpfa_laplacian_3cell():
    # 1x3 strip, left/right Dirichlet with data 0 and 1: exact linear profile.
    pred = lambda x, y: x < 1e-12 or x > 1.0 - 1e-12
    mesh = build_cartesian(3, 1, dirichlet_predicate=pred)
    u_dir = np.zeros(mesh.n_dirichlet)
    for j, e in enumerate(mesh.dirichlet_edges):
        mid_x = 0.5 * (mesh.edge_p1[e, 0] + mesh.edge_p2[e, 0])
        u_dir[j] = 0.0 if mid_x < 0.5 else 1.0
    L, g = _laplacian(mesh, u_dir)
    u = solve(L, g)
    order = np.argsort(mesh.cell_centers[:, 0])
    assert np.allclose(u[order], [1.0 / 6.0, 0.5, 5.0 / 6.0])


def test_tpfa_laplacian_plus_mass_is_m_matrix():
    # The bare stiffness is only weakly dominant in columns of cells without
    # boundary edges; any positive diagonal shift makes it strictly so.
    mesh = build_cartesian(5, 4)
    L, _ = _laplacian(mesh)
    assert not check_m_matrix(L - sp.diags(np.full(mesh.n_cells, 1e-12)))
    shifted = L + sp.identity(mesh.n_cells)
    assert check_m_matrix(shifted)


def test_tpfa_constants_harmonic():
    mesh = build_cartesian(6, 6)
    L, g = _laplacian(mesh, np.full(mesh.n_dirichlet, 3.7))
    u = np.full(mesh.n_cells, 3.7)
    assert np.allclose(L @ u - g, 0.0, atol=1e-12)


def _reference_laplacian(mesh):
    """Per-edge assembly: (L, D) with L u - D u^D the two-point Laplacian."""
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


def _hexagon_fan():
    """Perturbed hexagon fan of acute triangles (non-unit transmissibilities)."""
    angles = np.arange(6) * np.pi / 3.0 + 0.07
    radii = np.array([1.0, 0.93, 1.05, 0.97, 1.02, 0.95])
    nodes = [(0.04, -0.03)] + list(zip(radii * np.cos(angles), radii * np.sin(angles)))
    triangles = [(0, 1 + i, 1 + (i + 1) % 6) for i in range(6)]
    labels = {(1 + i, 1 + (i + 1) % 6): "dirichlet" if i < 2 else "neumann"
              for i in range(6)}
    return import_triangulation(nodes, triangles, labels)


@pytest.mark.parametrize("mesh, rtol", [
    # Power-of-two spacing: every tau is exactly 1 or 2, so sums are exact.
    (build_cartesian(16, 16, dirichlet_predicate=contact_predicate), 0.0),
    (build_cartesian(7, 5, domain=(0.0, 1.0, 0.0, 0.7)), 1e-14),
    (_hexagon_fan(), 1e-14)], ids=["square", "cartesian-7x5", "hexagon"])
def test_tpfa_system_matches_per_edge_reference(mesh, rtol):
    u_dir = np.random.default_rng(5).uniform(-1.0, 2.0, mesh.n_dirichlet)
    A, g = _laplacian(mesh, u_dir)
    assert A.format == "csc" and A.has_sorted_indices
    L, D = _reference_laplacian(mesh)
    scale = np.max(np.abs(L.toarray()))
    assert np.max(np.abs(A.toarray() - L.toarray())) <= rtol * scale
    assert np.max(np.abs(g - D @ u_dir)) <= rtol * np.max(np.abs(D @ u_dir))
    # The layout is the mesh's, built once and shared by every assembly.
    assert np.shares_memory(A.indices, _laplacian(mesh)[0].indices)
