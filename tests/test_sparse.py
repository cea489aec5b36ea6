import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from driftfv.mesh import build_cartesian, import_triangulation
from driftfv.problem import contact_predicate
from driftfv.sparse import (HeldFactor, MMatrixReport, OrderedFactor, SolverError,
                            TpfaOperator, check_m_matrix, correct, factor, solve,
                            tpfa_operator)


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


def _random_m_matrix(rng, n=40):
    off = -rng.random((n, n)) * 0.05
    np.fill_diagonal(off, 0.0)
    diag = np.abs(off).sum(axis=0) + rng.random(n) + 0.1
    return sp.csc_matrix(off + np.diag(diag))


def _backward_error_bound(A, x, b):
    eps = np.finfo(float).eps
    a_norm = np.max(np.abs(A.toarray()).sum(axis=1))
    tol = max(1e-12, 1e-12 * np.max(np.abs(b)))
    return min(tol, 16.0 * eps * (a_norm * np.max(np.abs(x)) + np.max(np.abs(b))))


def test_held_factor_reused_for_nearby_matrix(splu_calls):
    rng = np.random.default_rng(11)
    A1 = _random_m_matrix(rng)
    A2 = A1.copy()
    A2.data *= 1.0 + 1e-6 * rng.uniform(-1.0, 1.0, A2.nnz)
    b1, b2 = rng.random(A1.shape[0]), rng.random(A1.shape[0])
    held = HeldFactor()
    solve(A1, b1, held)
    first = held.lu
    x = solve(A2, b2, held)
    assert [spec for _, spec in splu_calls] == ["MMD_AT_PLUS_A"]
    assert held.lu is first
    assert np.max(np.abs(b2 - A2 @ x)) <= _backward_error_bound(A2, x, b2)
    assert np.max(np.abs(x - solve(A2, b2))) <= 1e-12


def test_held_factor_of_unrelated_matrix_is_replaced(splu_calls):
    rng = np.random.default_rng(12)
    A1, A2 = _random_m_matrix(rng), _random_m_matrix(rng)
    b = rng.random(A1.shape[0])
    held = HeldFactor()
    solve(A1, b, held)
    first = held.lu
    x = solve(A2, b, held)
    assert len(splu_calls) == 2
    assert held.lu is not None and held.lu is not first
    assert np.allclose(x, np.linalg.solve(A2.toarray(), b), rtol=0.0, atol=1e-12)


class _CountingFactor:
    """The factor of A, counting its triangular solves."""

    def __init__(self, A):
        self.lu, self.solves = factor(sp.csc_matrix(A)), 0

    def solve(self, b):
        self.solves += 1
        return self.lu.solve(b)


@pytest.mark.parametrize("diagonal, b, solves", [
    # Unrelated: the first correction doubles the residual.
    ([3.0, 3.0], [1.0, 1.0], 2),
    # Too distant: halving the residual per step cannot reach rounding level
    # in the 7 steps left after the first correction.
    ([1.5, 1.5], [1.0, 1.0], 2),
    # 100-fold per step while the first entry dominates the residual, then
    # 16-fold, which cannot reach rounding level in the 5 steps left.
    ([1.01, 1.5], [1.0, 1e-6], 4)])
def test_refinement_gives_up_at_the_first_rate_that_cannot_reach_rounding(
        splu_calls, diagonal, b, solves):
    # Refinement of diag(c) x = b on the factor of I contracts each entry of
    # the residual by |1 - c| per step.
    held = HeldFactor()
    held.lu = counting = _CountingFactor(sp.identity(2))
    x = solve(sp.diags(diagonal), np.array(b), held)
    assert counting.solves == solves
    assert len(splu_calls) == 2 and held.lu is not counting
    assert np.allclose(x, np.divide(b, diagonal), rtol=1e-15, atol=0.0)


def test_refinement_runs_on_while_its_rate_reaches_rounding(splu_calls):
    # A 100-fold cut per step reaches rounding level after 7 corrections,
    # within _REFINE_MAX: the held factor is kept and nothing more is factored.
    held = HeldFactor()
    held.lu = counting = _CountingFactor(sp.identity(2))
    A, b = sp.diags([1.01, 1.01]), np.ones(2)
    x = solve(A, b, held)
    assert counting.solves == 8
    assert len(splu_calls) == 1 and held.lu is counting
    assert np.max(np.abs(b - A @ x)) <= _backward_error_bound(A, x, b)


def test_singular_matrix_with_held_factor_raises_and_drops_it():
    held = HeldFactor()
    solve(sp.identity(2, format="csc"), np.array([1.0, 2.0]), held)
    assert held.lu is not None
    A = sp.csc_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SolverError):
        solve(A, np.array([1.0, 0.0]), held)
    assert held.lu is None


def _held(A):
    held = HeldFactor()
    held.lu = factor(sp.csc_matrix(A))
    return held


def _correct(A, b, x0, held):
    """``correct`` of one block: A, b and x0 as one system."""
    return correct(A, b[None], x0[None], (held,))[0]


def test_correction_on_nearby_factor_is_accepted():
    rng = np.random.default_rng(13)
    A1 = _random_m_matrix(rng)
    A2 = A1.copy()
    A2.data *= 1.0 + 1e-3 * rng.uniform(-1.0, 1.0, A2.nnz)
    b, x0 = rng.random(A1.shape[0]), rng.random(A1.shape[0])
    held = _held(A1)
    first = held.lu
    x = _correct(A2, b, x0, held)
    assert held.lu is first
    assert np.all(x >= 0.0)
    assert np.max(np.abs(b - A2 @ x)) <= 0.5 * np.max(np.abs(b - A2 @ x0))
    assert np.allclose(x, x0 + first.solve(b - A2 @ x0), rtol=0.0, atol=1e-15)


def test_correction_needs_a_held_factor(splu_calls):
    # Without a held factor nothing is corrected: the block is solved on a
    # fresh factor, which it then holds.
    A, b = sp.identity(3, format="csc"), np.ones(3)
    held = HeldFactor()
    x = _correct(A, b, np.zeros(3), held)
    assert len(splu_calls) == 1 and held.lu is not None
    assert np.array_equal(x, solve(A, b))


def test_correction_rejected_unless_residual_halves():
    # Held factor of I for the system 3 I x = b: from x0 = 0 the correction
    # is x = b >= 0 with residual -2 b, twice the residual b of x0, so the
    # block is solved afresh instead.
    A, b = 3.0 * sp.identity(3, format="csc"), np.array([1.0, 2.0, 3.0])
    held = _held(sp.identity(3))
    first = held.lu
    assert np.allclose(_correct(A, b, np.zeros(3), held), b / 3.0)
    assert held.lu is not first
    # A held factor of A itself solves exactly: residual 0, accepted.
    held = _held(A)
    first = held.lu
    assert np.allclose(_correct(A, b, np.zeros(3), held), b / 3.0)
    assert held.lu is first


def test_correction_kept_only_if_the_residual_falls_five_fold():
    # Held factor of I for c I x = b from x0 = 0: the correction is x = b,
    # whose residual (1 - c) b is |1 - c| times that of x0.
    b = np.array([1.0, 2.0, 3.0])
    refused = _held(sp.identity(3))
    first = refused.lu
    x = _correct(1.3 * sp.identity(3, format="csc"), b, np.zeros(3), refused)
    # A refused correction drops its factor, and the block is factored afresh.
    assert refused.lu is not None and refused.lu is not first
    assert np.allclose(1.3 * x, b, rtol=0.0, atol=1e-15)
    kept = _held(sp.identity(3))
    first = kept.lu
    assert np.array_equal(
        _correct(1.1 * sp.identity(3, format="csc"), b, np.zeros(3), kept), b)
    assert kept.lu is first


def test_correction_at_rounding_level_is_kept():
    # From x0 = 1 - 4 eps the residual of I x = 1 is 4 eps.  On the factor of
    # 10 I the correction cuts it to 3.5 eps only, not five-fold, but that is
    # within the rounding level 16 eps ||b||_inf, which no correction can
    # undercut: the correction is kept, and so is the factor.
    eps = np.finfo(float).eps
    b = np.ones(3)
    held = _held(10.0 * sp.identity(3))
    first = held.lu
    x = _correct(sp.identity(3, format="csc"), b, np.full(3, 1.0 - 4.0 * eps), held)
    assert held.lu is first
    assert 0.2 * 4.0 * eps < np.max(np.abs(b - x)) <= 16.0 * eps


def test_correction_rejected_with_a_negative_entry():
    # The exact solution has a negative entry: the residual vanishes, but
    # the corrected x may not enter the density iteration, so the block is
    # solved afresh instead.
    A, b = sp.identity(2, format="csc"), np.array([1.0, -1e-300])
    held = _held(A)
    first = held.lu
    _correct(A, b, np.zeros(2), held)
    assert held.lu is not first
    held = _held(A)
    first = held.lu
    assert np.array_equal(_correct(A, np.array([1.0, 0.0]), np.zeros(2), held),
                          [1.0, 0.0])
    assert held.lu is first


def test_block_correction_tests_each_block_on_its_own():
    mesh = build_cartesian(3, 3)
    n, n_active = mesh.n_cells, len(mesh.active_edges)
    diag = np.stack([np.ones(n), np.full(n, 3.0)])
    A, _ = tpfa_operator(mesh, 1.0, 1.0, diag, np.zeros((2, mesh.n_dirichlet)))
    assert A.blocks == 2 and A.shape == (2 * n, 2 * n)
    # Block 0 holds its own factor and is solved exactly.  Block 1 holds the
    # factor of I: its correction from 0 is b_1 with residual (I - A_1) b_1,
    # over half of b_1, though under half of the stacked residual's norm.
    b = np.stack([np.ones(n), np.full(n, 0.01)])
    held = (_held(A.block(0).tocsc()), _held(sp.identity(n)))
    first = [h.lu for h in held]
    x = correct(A, b, np.zeros((2, n)), held)
    assert x.shape == (2, n)
    assert held[0].lu is first[0]
    assert np.allclose(A.block(0) @ x[0], b[0], rtol=0.0, atol=1e-14)
    # Block 1 is refused and solved on a fresh factor.
    assert held[1].lu is not first[1]
    assert np.allclose(A.block(1) @ x[1], b[1], rtol=0.0, atol=1e-14)
    # Nothing kept in any block: each block is factored afresh, as for one.
    refused = (HeldFactor(), _held(sp.identity(n)))
    first = refused[1].lu
    x = correct(A, b, np.zeros((2, n)), refused)
    assert refused[0].lu is not None and refused[1].lu is not first
    assert np.allclose(A @ x.ravel(), b.ravel(), rtol=0.0, atol=1e-14)


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
    L, g = tpfa_operator(mesh, 1.0, 1.0, 0.0, u_dir)
    return L.tocsc(), g


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


@pytest.mark.parametrize("mesh", [
    build_cartesian(9, 7, dirichlet_predicate=contact_predicate), _hexagon_fan()],
    ids=["cartesian-contacts", "hexagon"])
def test_operator_product_matches_csc_system(mesh):
    # Both meshes carry interior, Dirichlet and Neumann edges.
    assert len(mesh.neumann_edges) and mesh.n_dirichlet and len(mesh.interior_edges)
    rng = np.random.default_rng(17)
    for _ in range(5):
        n_active = len(mesh.active_edges)
        a_fwd, a_bwd = rng.random(n_active), rng.random(n_active)
        diag = rng.random(mesh.n_cells)
        u_dir = rng.uniform(0.0, 2.0, mesh.n_dirichlet)
        A, g = tpfa_operator(mesh, a_fwd, a_bwd, diag, u_dir)
        C, g_csc = tpfa_operator(mesh, a_fwd, a_bwd, diag, u_dir)
        C = C.tocsc()
        assert isinstance(A, TpfaOperator) and A.shape == C.shape
        assert np.array_equal(g, g_csc)
        assert (A.tocsc() != C).nnz == 0
        u = rng.uniform(-1.0, 1.0, mesh.n_cells)
        scale = np.max(abs(C) @ np.abs(u))
        assert np.max(np.abs(A @ u - C @ u)) <= 1e-14 * scale
        # solve and check_m_matrix take the operator as they take its matrix.
        b = rng.random(mesh.n_cells)
        assert np.max(np.abs(solve(A, b) - solve(C, b))) <= 1e-13
        assert check_m_matrix(A).is_m_matrix == check_m_matrix(C).is_m_matrix


@pytest.mark.parametrize("mesh", [
    build_cartesian(24, 24, dirichlet_predicate=contact_predicate), _hexagon_fan()],
    ids=["cartesian-contacts", "hexagon"])
def test_narrow_panel_factor_has_default_fill_and_solves_to_tolerance(mesh):
    rng = np.random.default_rng(23)
    n_active = len(mesh.active_edges)
    A, _ = tpfa_operator(mesh, rng.uniform(0.5, 2.0, n_active),
                         rng.uniform(0.5, 2.0, n_active),
                         rng.uniform(0.1, 1.0, mesh.n_cells),
                         np.zeros(mesh.n_dirichlet))
    A = A.tocsc()
    lu = factor(A)
    wide = spla.splu(A, permc_spec="MMD_AT_PLUS_A")
    assert lu.L.nnz + lu.U.nnz <= wide.L.nnz + wide.U.nnz
    # Nor does it store more entries: wide relaxed supernodes pad with zeros.
    assert lu.nnz <= wide.nnz
    for _ in range(3):
        b = rng.uniform(-1.0, 1.0, mesh.n_cells)
        tol = max(1e-12, 1e-12 * np.max(np.abs(b)))
        assert np.max(np.abs(A @ lu.solve(b) - b)) <= tol


@pytest.mark.parametrize("mesh", [
    build_cartesian(24, 24, dirichlet_predicate=contact_predicate), _hexagon_fan()],
    ids=["cartesian-contacts", "hexagon"])
def test_ordered_factor_has_minimum_degree_fill_and_solves_to_tolerance(mesh):
    rng = np.random.default_rng(29)
    n_active = len(mesh.active_edges)
    A, _ = tpfa_operator(mesh, rng.uniform(0.5, 2.0, n_active),
                         rng.uniform(0.5, 2.0, n_active),
                         rng.uniform(0.1, 1.0, mesh.n_cells),
                         np.zeros(mesh.n_dirichlet))
    # An operator is laid out in the mesh's order, taken from the Laplacian;
    # its CSC matrix is ordered by a minimum-degree run of its own.
    lu, mmd = factor(A), factor(A.tocsc())
    assert isinstance(lu, OrderedFactor) and not isinstance(mmd, OrderedFactor)
    assert lu.lu.nnz == mmd.nnz
    C = A.tocsc()
    for _ in range(3):
        b = rng.uniform(-1.0, 1.0, mesh.n_cells)
        tol = max(1e-12, 1e-12 * np.max(np.abs(b)))
        x = lu.solve(b)
        assert np.max(np.abs(C @ x - b)) <= tol
        assert np.max(np.abs(x - mmd.solve(b))) <= 1e-13 * np.max(np.abs(x))


def test_ordered_layout_is_the_matrix_permuted_symmetrically():
    mesh = build_cartesian(6, 5, dirichlet_predicate=contact_predicate)
    rng = np.random.default_rng(31)
    n_active = len(mesh.active_edges)
    A, _ = tpfa_operator(mesh, rng.random(n_active), rng.random(n_active),
                         rng.random(mesh.n_cells), np.zeros(mesh.n_dirichlet))
    q, rank = mesh.fill_order
    assert np.array_equal(q[rank], np.arange(mesh.n_cells))
    B = A.tocsc(ordered=True)
    assert B.has_sorted_indices
    assert np.array_equal(B.toarray(), A.tocsc().toarray()[np.ix_(q, q)])
