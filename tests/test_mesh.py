import numpy as np
import pytest

from driftfv.mesh import (DIRICHLET, INTERIOR, NEUMANN, Mesh, MeshError,
                          build_cartesian, import_triangulation, norm_l2,
                          read_mesh_file, seminorm_h1, validate, write_mesh_file)


def test_cartesian_2x1_geometry():
    mesh = build_cartesian(2, 1)
    assert mesh.n_cells == 2
    assert np.allclose(mesh.cell_measures, 0.5)
    it = mesh.interior_edges
    assert len(it) == 1
    e = it[0]
    assert mesh.edge_measures[e] == pytest.approx(1.0)
    assert mesh.edge_d[e] == pytest.approx(0.5)
    assert mesh.edge_tau[e] == pytest.approx(2.0)


def test_cartesian_1x1_all_dirichlet():
    mesh = build_cartesian(1, 1)
    assert mesh.n_cells == 1
    assert len(mesh.dirichlet_edges) == 4
    assert len(mesh.interior_edges) == 0
    assert np.allclose(mesh.edge_tau, 2.0)


def test_cartesian_3x1_left_right_dirichlet():
    pred = lambda x, y: x < 1e-12 or x > 1.0 - 1e-12
    mesh = build_cartesian(3, 1, dirichlet_predicate=pred)
    assert mesh.n_dirichlet == 2
    for e in mesh.dirichlet_edges:
        assert mesh.edge_d[e] == pytest.approx(1.0 / 6.0)
        assert mesh.edge_tau[e] == pytest.approx(6.0)
    for e in mesh.interior_edges:
        assert mesh.edge_tau[e] == pytest.approx(3.0)


def test_cartesian_xi_2x2():
    mesh = build_cartesian(2, 2)
    assert mesh.xi == pytest.approx(0.5)


def _xi_per_incidence(mesh):
    """Reference xi: one cell-edge incidence at a time."""
    ratios = []
    for e in range(mesh.n_edges):
        for c in mesh.edge_cells[e]:
            if c < 0:
                continue
            p1, p2 = mesh.edge_p1[e], mesh.edge_p2[e]
            t = p2 - p1
            x = mesh.cell_centers[c]
            cross = t[0] * (x[1] - p1[1]) - t[1] * (x[0] - p1[0])
            ratios.append(abs(cross) / np.hypot(t[0], t[1]) / mesh.edge_d[e])
    return min(ratios)


def test_xi_matches_per_incidence_reference():
    cartesian = build_cartesian(5, 3, domain=(0.0, 2.0, 0.0, 0.7),
                                dirichlet_predicate=lambda x, y: y < 1e-12)
    assert cartesian.xi == _xi_per_incidence(cartesian)
    # Perturbed hexagon fan of acute triangles: incidences differ in xi.
    angles = np.arange(6) * np.pi / 3.0 + 0.07
    radii = np.array([1.0, 0.93, 1.05, 0.97, 1.02, 0.95])
    nodes = [(0.04, -0.03)] + list(zip(radii * np.cos(angles), radii * np.sin(angles)))
    triangles = [(0, 1 + i, 1 + (i + 1) % 6) for i in range(6)]
    labels = {(1 + i, 1 + (i + 1) % 6): "dirichlet" if i < 2 else "neumann"
              for i in range(6)}
    triangulation = import_triangulation(nodes, triangles, labels)
    assert triangulation.xi == _xi_per_incidence(triangulation)
    assert 0.0 < triangulation.xi < 0.5


def test_cell_measures_sum_to_domain():
    mesh = build_cartesian(7, 5, domain=(0.0, 2.0, -1.0, 1.0))
    assert np.sum(mesh.cell_measures) == pytest.approx(4.0, rel=1e-12)


def test_validate_cartesian_ok():
    report = validate(build_cartesian(4, 3))
    assert report.ok
    assert report.worst_orthogonality_defect < 1e-12
    assert "ok" in str(report)


def test_validate_flags_perturbed_center():
    mesh = build_cartesian(2, 1)
    e = mesh.interior_edges[0]
    k = mesh.edge_cells[e, 0]
    # Tangential perturbation breaks orthogonality on the interior edge.
    mesh.cell_centers[k] += np.array([0.0, 0.3 * mesh.edge_d[e]])
    report = validate(mesh)
    assert not report.ok
    assert any(eid == e for eid, _ in report.bad_edges)


def test_discrete_function_edge_values():
    mesh = build_cartesian(2, 1)
    u = np.array([1.0, 3.0])
    u_dirichlet = np.full(mesh.n_dirichlet, 5.0)
    other = mesh.edge_other_values(u, u_dirichlet)
    du = mesh.edge_differences(u, u_dirichlet)
    e = mesh.interior_edges[0]
    k, ell = mesh.edge_cells[e]
    assert other[e] == u[ell]
    assert du[e] == u[ell] - u[k]
    for e in mesh.dirichlet_edges:
        assert other[e] == 5.0


def test_edge_other_values_match_per_edge_loop():
    pred = lambda x, y: y < 1e-12 or (y > 1.0 - 1e-12 and x < 0.5)
    mesh = build_cartesian(4, 3, dirichlet_predicate=pred)
    assert len(mesh.neumann_edges) and mesh.n_dirichlet
    rng = np.random.default_rng(3)
    u, u_dir = rng.random(mesh.n_cells), rng.random(mesh.n_dirichlet)
    want = []
    for e, (k, ell) in enumerate(mesh.edge_cells):
        if e in mesh.interior_edges:
            want.append(u[ell])
        elif e in mesh.dirichlet_edges:
            want.append(u_dir[mesh.dirichlet_index[e]])
        else:
            want.append(u[k])
    assert np.array_equal(mesh.edge_other_values(u, u_dir), want)
    assert np.array_equal(mesh.edge_other_values(u, 0.5)[mesh.dirichlet_edges],
                          np.full(mesh.n_dirichlet, 0.5))


def test_seminorm_zero_iff_constant():
    mesh = build_cartesian(3, 3)
    assert seminorm_h1(mesh, np.full(mesh.n_cells, 2.5), 2.5) == 0.0
    rng = np.random.default_rng(7)
    assert seminorm_h1(mesh, rng.random(mesh.n_cells),
                       rng.random(mesh.n_dirichlet)) > 0.0


def test_empirical_poincare():
    mesh = build_cartesian(8, 8)
    rng = np.random.default_rng(0)
    ratios = []
    for _ in range(100):
        u = rng.standard_normal(mesh.n_cells)
        ratios.append(norm_l2(mesh, u) / seminorm_h1(mesh, u, 0.0))
    assert max(ratios) < 10.0


def _rhombus():
    """Two equilateral triangles sharing the horizontal edge (0,0)-(1,0)."""
    s3 = np.sqrt(3.0)
    nodes = [(0.0, 0.0), (1.0, 0.0), (0.5, s3 / 2.0), (0.5, -s3 / 2.0)]
    triangles = [(0, 1, 2), (0, 3, 1)]
    labels = {(0, 2): "dirichlet", (1, 2): "dirichlet",
              (0, 3): "neumann", (1, 3): "neumann"}
    return nodes, triangles, labels


def test_import_rhombus_triangulation():
    mesh = import_triangulation(*_rhombus())
    assert mesh.n_cells == 2
    # Circumcenters of unit equilateral triangles: (0.5, +-1/(2 sqrt 3)).
    assert np.allclose(sorted(mesh.cell_centers[:, 1]),
                       [-1.0 / (2.0 * np.sqrt(3.0)), 1.0 / (2.0 * np.sqrt(3.0))])
    e = mesh.interior_edges[0]
    assert mesh.edge_d[e] == pytest.approx(1.0 / np.sqrt(3.0))
    assert mesh.edge_tau[e] == pytest.approx(np.sqrt(3.0))
    for e in mesh.dirichlet_edges:
        assert mesh.edge_d[e] == pytest.approx(1.0 / (2.0 * np.sqrt(3.0)))
        assert mesh.edge_tau[e] == pytest.approx(2.0 * np.sqrt(3.0))
    assert mesh.xi == pytest.approx(0.5)


def test_import_rejects_right_triangle_pair():
    # Unit square split along the diagonal: both circumcenters coincide at
    # the hypotenuse midpoint, so the interior center distance vanishes.
    nodes = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    triangles = [(0, 1, 2), (0, 2, 3)]
    labels = {(0, 1): "dirichlet", (1, 2): "dirichlet",
              (2, 3): "dirichlet", (0, 3): "dirichlet"}
    with pytest.raises(MeshError):
        import_triangulation(nodes, triangles, labels)


def test_import_rejects_union_jack():
    # Four right triangles around the center node: each circumcenter falls
    # on the boundary edge, giving a zero center-to-edge distance.
    nodes = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.5, 0.5)]
    triangles = [(0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4)]
    labels = {(0, 1): "dirichlet", (1, 2): "dirichlet",
              (2, 3): "dirichlet", (0, 3): "dirichlet"}
    with pytest.raises(MeshError):
        import_triangulation(nodes, triangles, labels)


def test_import_requires_labels():
    nodes, triangles, labels = _rhombus()
    del labels[(0, 2)]
    with pytest.raises(MeshError, match="unlabeled"):
        import_triangulation(nodes, triangles, labels)


def test_mesh_file_round_trip(tmp_path):
    mesh = import_triangulation(*_rhombus())
    path = tmp_path / "rhombus.mesh"
    write_mesh_file(mesh, path)
    back = read_mesh_file(path)
    assert back.n_cells == mesh.n_cells
    assert np.allclose(np.sort(back.edge_tau), np.sort(mesh.edge_tau))
    assert back.n_dirichlet == mesh.n_dirichlet


def test_degenerate_domain_rejected():
    with pytest.raises(MeshError):
        build_cartesian(2, 2, domain=(0.0, 0.0, 0.0, 1.0))
    with pytest.raises(MeshError):
        build_cartesian(0, 1)


def test_edge_kinds_partition():
    preset_pred = lambda x, y: y < 1e-12
    mesh = build_cartesian(4, 4, dirichlet_predicate=preset_pred)
    kinds = mesh.edge_kind
    assert set(np.unique(kinds)) <= {INTERIOR, DIRICHLET, NEUMANN}
    assert (len(mesh.interior_edges) + len(mesh.dirichlet_edges)
            + len(mesh.neumann_edges)) == mesh.n_edges
    assert mesh.n_dirichlet == 4
