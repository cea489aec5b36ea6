import functools
import gc
import re
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from driftfv.mesh import NEUMANN, build_cartesian, import_triangulation
from driftfv.problem import contact_predicate
from driftfv.sparse import (HeldFactor, MMatrixReport, OrderedFactor, SolverError,
                            TpfaOperator, algebra, check_m_matrix, correct, factor,
                            solve, tpfa_operator)


@functools.lru_cache(maxsize=None)
def _strip(n):
    """A 1 x n strip of cells, its ``algebra`` built: cell i borders cell
    i + 1 across interior edge i."""
    mesh = build_cartesian(n, 1)
    algebra(mesh)
    return mesh


def _strip_operator(matrix):
    """The 2x2 or tridiagonal ``matrix`` as a one-block operator on a strip."""
    a = np.asarray(matrix, dtype=float)
    mesh = _strip(len(a))
    k, ell = mesh.edge_cells[mesh.interior_edges].T
    A = TpfaOperator(mesh, np.diag(a).copy(), np.concatenate([a[k, ell], a[ell, k]]))
    assert np.array_equal(A.tocsc().toarray(), a)
    return A


def test_solve_identity():
    A = _strip_operator(np.identity(2))
    assert np.allclose(solve(A, np.array([3.0, 4.0])), [3.0, 4.0])


def test_solve_2x2():
    A = _strip_operator([[2.0, -1.0], [-1.0, 2.0]])
    assert np.allclose(solve(A, np.array([1.0, 1.0])), [1.0, 1.0])


def test_solve_singular_raises():
    A = _strip_operator([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(SolverError):
        solve(A, np.array([1.0, 0.0]))


@pytest.mark.parametrize("fn", [lambda A: solve(A, np.ones(2)), check_m_matrix],
                         ids=["solve", "check_m_matrix"])
def test_matrices_are_refused_by_type(fn):
    with pytest.raises(TypeError, match="TpfaOperator, not csr_matrix"):
        fn(sp.identity(2, format="csr"))
    with pytest.raises(TypeError, match="not ndarray"):
        fn(np.identity(2))


def test_solve_refuses_a_block_operator():
    # Factors are laid out one block at a time; correct solves block by block.
    mesh = _strip(2)
    A, _ = tpfa_operator(mesh, 1.0, 1.0, 1.0, np.zeros((2, mesh.n_dirichlet)))
    with pytest.raises(ValueError, match="one-block operator, not 2 blocks"):
        solve(A, np.ones(4))


def _random_m_operator(rng, mesh, scale=0.05):
    """A one-block operator on ``mesh`` with off-diagonal entries in
    (-scale, 0] and every column strictly diagonally dominant."""
    cols = mesh.block_stencil(1).offdiagonal_cols
    off = -scale * rng.random(len(cols))
    diag = (np.bincount(cols, weights=-off, minlength=mesh.n_cells)
            + rng.random(mesh.n_cells) + 0.1)
    return TpfaOperator(mesh, diag, off)


def _perturbed(rng, A, rel):
    """A with every entry scaled by a factor within 1 +- rel."""
    return TpfaOperator(A.mesh, A.diagonal * (1.0 + rel * rng.uniform(-1.0, 1.0, A.shape[0])),
                        A.offdiagonal * (1.0 + rel * rng.uniform(-1.0, 1.0, len(A.offdiagonal))))


_MESH_40 = build_cartesian(8, 5)


def _backward_error_bound(A, x, b):
    eps = np.finfo(float).eps
    a_norm = np.max(np.abs(A.tocsc().toarray()).sum(axis=1))
    tol = max(1e-12, 1e-12 * np.max(np.abs(b)))
    return min(tol, 16.0 * eps * (a_norm * np.max(np.abs(x)) + np.max(np.abs(b))))


def test_held_factor_reused_for_nearby_matrix(splu_calls):
    rng = np.random.default_rng(11)
    A1 = _random_m_operator(rng, _MESH_40)
    A2 = _perturbed(rng, A1, 1e-6)
    b1, b2 = rng.random(A1.shape[0]), rng.random(A1.shape[0])
    algebra(_MESH_40)
    before = len(splu_calls)
    held = HeldFactor()
    solve(A1, b1, held)
    first = held.lu
    x = solve(A2, b2, held)
    # One factorization, laid out in the mesh's minimum-degree order.
    assert [spec for _, spec in splu_calls[before:]] == ["NATURAL"]
    assert held.lu is first
    assert np.max(np.abs(b2 - A2 @ x)) <= _backward_error_bound(A2, x, b2)
    assert np.max(np.abs(x - solve(A2, b2))) <= 1e-12


def test_held_factor_of_unrelated_matrix_is_replaced(splu_calls):
    rng = np.random.default_rng(12)
    A1, A2 = _random_m_operator(rng, _MESH_40), _random_m_operator(rng, _MESH_40)
    b = rng.random(A1.shape[0])
    algebra(_MESH_40)
    before = len(splu_calls)
    held = HeldFactor()
    solve(A1, b, held)
    first = held.lu
    x = solve(A2, b, held)
    assert len(splu_calls) - before == 2
    assert held.lu is not None and held.lu is not first
    assert np.allclose(x, np.linalg.solve(A2.tocsc().toarray(), b), rtol=0.0, atol=1e-12)


class _CountingFactor:
    """The factor of A, counting its triangular solves."""

    def __init__(self, A):
        self.lu, self.solves = factor(A), 0

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
    A = _strip_operator(np.diag(diagonal))
    before = len(splu_calls)
    held = HeldFactor()
    held.lu = counting = _CountingFactor(_strip_operator(np.identity(2)))
    x = solve(A, np.array(b), held)
    assert counting.solves == solves
    assert len(splu_calls) - before == 2 and held.lu is not counting
    assert np.allclose(x, np.divide(b, diagonal), rtol=1e-15, atol=0.0)


def test_refinement_runs_on_while_its_rate_reaches_rounding(splu_calls):
    # A 100-fold cut per step reaches rounding level after 7 corrections,
    # within _REFINE_MAX: the held factor is kept and nothing more is factored.
    A, b = _strip_operator(np.diag([1.01, 1.01])), np.ones(2)
    before = len(splu_calls)
    held = HeldFactor()
    held.lu = counting = _CountingFactor(_strip_operator(np.identity(2)))
    x = solve(A, b, held)
    assert counting.solves == 8
    assert len(splu_calls) - before == 1 and held.lu is counting
    assert np.max(np.abs(b - A @ x)) <= _backward_error_bound(A, x, b)


def test_singular_matrix_with_held_factor_raises_and_drops_it():
    held = HeldFactor()
    solve(_strip_operator(np.identity(2)), np.array([1.0, 2.0]), held)
    assert held.lu is not None
    A = _strip_operator([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(SolverError):
        solve(A, np.array([1.0, 0.0]), held)
    assert held.lu is None


def _held(A):
    held = HeldFactor()
    held.lu = factor(A)
    return held


def _correct(A, b, x0, held):
    """``correct`` of one block: A, b and x0 as one system."""
    return correct(A, b[None], x0[None], (held,))[0]


def test_correction_on_nearby_factor_is_accepted():
    rng = np.random.default_rng(13)
    A1 = _random_m_operator(rng, _MESH_40)
    A2 = _perturbed(rng, A1, 1e-3)
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
    A, b = _strip_operator(np.identity(3)), np.ones(3)
    before = len(splu_calls)
    held = HeldFactor()
    x = _correct(A, b, np.zeros(3), held)
    assert len(splu_calls) - before == 1 and held.lu is not None
    assert np.array_equal(x, solve(A, b))


def test_correction_rejected_unless_residual_halves():
    # Held factor of I for the system 3 I x = b: from x0 = 0 the correction
    # is x = b >= 0 with residual -2 b, twice the residual b of x0, so the
    # block is solved afresh instead.
    A, b = _strip_operator(3.0 * np.identity(3)), np.array([1.0, 2.0, 3.0])
    held = _held(_strip_operator(np.identity(3)))
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
    refused = _held(_strip_operator(np.identity(3)))
    first = refused.lu
    x = _correct(_strip_operator(1.3 * np.identity(3)), b, np.zeros(3), refused)
    # A refused correction drops its factor, and the block is factored afresh.
    assert refused.lu is not None and refused.lu is not first
    assert np.allclose(1.3 * x, b, rtol=0.0, atol=1e-15)
    kept = _held(_strip_operator(np.identity(3)))
    first = kept.lu
    assert np.array_equal(
        _correct(_strip_operator(1.1 * np.identity(3)), b, np.zeros(3), kept), b)
    assert kept.lu is first


def test_correction_at_rounding_level_is_kept():
    # From x0 = 1 - 4 eps the residual of I x = 1 is 4 eps.  On the factor of
    # 10 I the correction cuts it to 3.5 eps only, not five-fold, but that is
    # within the rounding level 16 eps ||b||_inf, which no correction can
    # undercut: the correction is kept, and so is the factor.
    eps = np.finfo(float).eps
    b = np.ones(3)
    held = _held(_strip_operator(10.0 * np.identity(3)))
    first = held.lu
    x = _correct(_strip_operator(np.identity(3)), b, np.full(3, 1.0 - 4.0 * eps), held)
    assert held.lu is first
    assert 0.2 * 4.0 * eps < np.max(np.abs(b - x)) <= 16.0 * eps


def test_correction_rejected_with_a_negative_entry():
    # The exact solution has a negative entry: the residual vanishes, but
    # the corrected x may not enter the density iteration, so the block is
    # solved afresh instead.
    A, b = _strip_operator(np.identity(2)), np.array([1.0, -1e-300])
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
    identity = TpfaOperator(mesh, np.ones(n), np.zeros(len(A.block(1).offdiagonal)))
    held = (_held(A.block(0)), _held(identity))
    first = [h.lu for h in held]
    x = correct(A, b, np.zeros((2, n)), held)
    assert x.shape == (2, n)
    assert held[0].lu is first[0]
    assert np.allclose(A.block(0) @ x[0], b[0], rtol=0.0, atol=1e-14)
    # Block 1 is refused and solved on a fresh factor.
    assert held[1].lu is not first[1]
    assert np.allclose(A.block(1) @ x[1], b[1], rtol=0.0, atol=1e-14)
    # Nothing kept in any block: each block is factored afresh, as for one.
    refused = (HeldFactor(), _held(identity))
    first = refused[1].lu
    x = correct(A, b, np.zeros((2, n)), refused)
    assert refused[0].lu is not None and refused[1].lu is not first
    assert np.allclose(A @ x.ravel(), b.ravel(), rtol=0.0, atol=1e-14)


def test_check_m_matrix_examples():
    assert check_m_matrix(_strip_operator(np.identity(3))).is_m_matrix
    good = _strip_operator([[2.0, -1.0], [-1.0, 2.0]])
    assert check_m_matrix(good)
    bad = _strip_operator([[2.0, -3.0], [-1.0, 1.0]])
    report = check_m_matrix(bad)
    assert not report.is_m_matrix
    assert report.violations


def test_check_m_matrix_positive_offdiag():
    A = _strip_operator([[2.0, 0.5], [-0.1, 2.0]])
    report = check_m_matrix(A)
    assert not report
    assert any("positive off-diagonal" in v for v in report.violations)


def _dense_violations(D, margin=1e-14):
    """Cells named by the M-matrix definition on the dense matrix D:
    (nonpositive diagonal, column with a positive off-diagonal entry, column
    not strictly diagonally dominant), up to 10 of each."""
    diag = np.diag(D)
    off = D - np.diag(diag)
    offsum = np.abs(off).sum(axis=0)
    return (np.nonzero(diag <= 0.0)[0][:10].tolist(),
            np.nonzero((off > 0.0).any(axis=0))[0][:10].tolist(),
            np.nonzero(diag - offsum < margin * np.abs(diag))[0][:10].tolist())


def _named_cells(report):
    """The cells a report names, in ``_dense_violations`` order."""
    named = ([], [], [])
    for v in report.violations:
        kind = (0 if v.startswith("nonpositive diagonal")
                else 1 if v.startswith("positive off-diagonal") else 2)
        named[kind].append(int(re.search(r"\d+", v).group()))
    return named


# Multiples of 1/4: every column sum is exact in any order, so the dense
# definition and the operator's check see the same sums.
_ENTRIES = st.integers(-12, 12).map(lambda k: k / 4.0)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_check_m_matrix_agrees_with_the_dense_definition(data):
    nx, ny = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    blocks = data.draw(st.integers(1, 2))
    mesh = build_cartesian(nx, ny)
    stencil = mesh.block_stencil(blocks)
    n = blocks * mesh.n_cells
    m = len(stencil.offdiagonal_rows)
    # Mostly M-matrices with a margin, then entries of either sign anywhere.
    off = np.array(data.draw(st.lists(_ENTRIES, min_size=m, max_size=m)))
    if data.draw(st.booleans()):
        off = -np.abs(off)
    diag = np.array(data.draw(st.lists(_ENTRIES, min_size=n, max_size=n)))
    if data.draw(st.booleans()):
        diag = np.bincount(stencil.offdiagonal_cols, weights=np.abs(off),
                           minlength=n) + np.abs(diag)
    A = TpfaOperator(mesh, diag, off)
    D = np.diag(diag)
    D[stencil.offdiagonal_rows, stencil.offdiagonal_cols] = off
    want = _dense_violations(D)
    report = check_m_matrix(A)
    assert _named_cells(report) == want
    assert report.is_m_matrix == (not any(want))


def test_m_matrix_inverse_nonnegative():
    rng = np.random.default_rng(4)
    mesh = build_cartesian(5, 2)
    for _ in range(20):
        A = _random_m_operator(rng, mesh)
        assert check_m_matrix(A)
        x = solve(A, rng.random(mesh.n_cells))
        assert np.all(x >= -1e-13)


def _laplacian(mesh, u_dir=None):
    """Unit-weight two-point system: the Laplacian operator and its
    Dirichlet data."""
    if u_dir is None:
        u_dir = np.zeros(mesh.n_dirichlet)
    return tpfa_operator(mesh, 1.0, 1.0, 0.0, u_dir)


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
    assert not check_m_matrix(TpfaOperator(mesh, L.diagonal - 1e-12, L.offdiagonal))
    shifted = TpfaOperator(mesh, L.diagonal + 1.0, L.offdiagonal)
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
    for j, e in enumerate(mesh.dirichlet_edges):
        rows.append(k[e]); cols.append(k[e]); vals.append(tau[e])
        drows.append(k[e]); dcols.append(j); dvals.append(tau[e])
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
    C = A.tocsc()
    assert C.format == "csc" and C.has_sorted_indices
    L, D = _reference_laplacian(mesh)
    scale = np.max(np.abs(L.toarray()))
    assert np.max(np.abs(C.toarray() - L.toarray())) <= rtol * scale
    assert np.max(np.abs(g - D @ u_dir)) <= rtol * np.max(np.abs(D @ u_dir))
    # The layout a factorization takes is the mesh's, built once and shared
    # by every assembly.
    assert np.shares_memory(A.tocsc(ordered=True).indices,
                            _laplacian(mesh)[0].tocsc(ordered=True).indices)


@pytest.mark.parametrize("mesh", [
    build_cartesian(9, 7, dirichlet_predicate=contact_predicate), _hexagon_fan()],
    ids=["cartesian-contacts", "hexagon"])
def test_operator_product_matches_csc_system(mesh):
    # Both meshes carry interior, Dirichlet and Neumann edges.
    assert (len(np.nonzero(mesh.edge_kind == NEUMANN)[0]) and mesh.n_dirichlet
            and len(mesh.interior_edges))
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
        # solve and check_m_matrix give what the operator's matrix gives.
        b = rng.random(mesh.n_cells)
        assert np.max(np.abs(solve(A, b) - np.linalg.solve(C.toarray(), b))) <= 1e-13
        assert check_m_matrix(A).is_m_matrix == (not any(_dense_violations(C.toarray())))


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
    lu = factor(A)
    # SuperLU's default supernode relaxation and panel width, same order.
    wide = spla.splu(A.tocsc(ordered=True), permc_spec="NATURAL")
    assert lu.lu.L.nnz + lu.lu.U.nnz <= wide.L.nnz + wide.U.nnz
    # Nor does it store more entries: wide relaxed supernodes pad with zeros.
    assert lu.lu.nnz <= wide.nnz
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
    # its CSC matrix is ordered here by a minimum-degree run of its own.
    C = A.tocsc()
    lu = factor(A)
    mmd = spla.splu(C, permc_spec="MMD_AT_PLUS_A", relax=1, panel_size=1)
    assert isinstance(lu, OrderedFactor)
    assert lu.lu.nnz == mmd.nnz
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
    shared = algebra(mesh)
    q, rank = shared.q, shared.rank
    assert np.array_equal(q[rank], np.arange(mesh.n_cells))
    assert np.array_equal(rank, shared.laplacian_lu.perm_c)
    B = A.tocsc(ordered=True)
    assert B.has_sorted_indices
    assert np.array_equal(B.toarray(), A.tocsc().toarray()[np.ix_(q, q)])


def test_algebra_is_built_once_per_mesh_and_dropped_with_it(splu_calls):
    mesh = build_cartesian(4, 3)
    shared = algebra(mesh)
    assert algebra(mesh) is shared
    assert algebra(build_cartesian(4, 3)) is not shared
    assert [spec for _, spec in splu_calls] == ["MMD_AT_PLUS_A"] * 2
    assert not shared.laplacian.data.flags.writeable
    # The mesh keeps geometry and stencil indices only.
    for value in vars(mesh).values():
        assert not sp.issparse(value) and not isinstance(value, spla.SuperLU)
    dropped = weakref.ref(mesh)
    del mesh
    gc.collect()
    assert dropped() is None
