import ast
import pathlib

import numpy as np
import pytest
from scipy.spatial import Delaunay

import driftfv.mesh

from driftfv.mesh import (DIRICHLET, INTERIOR, NEUMANN, Mesh, MeshError,
                          ValidationReport, build_cartesian,
                          import_triangulation, norm_l2, read_mesh_file,
                          seminorm_h1, validate, write_mesh_file)
from driftfv.problem import contact_predicate


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


def _hexagon():
    """Perturbed hexagon fan of acute triangles: incidences differ in xi."""
    angles = np.arange(6) * np.pi / 3.0 + 0.07
    radii = np.array([1.0, 0.93, 1.05, 0.97, 1.02, 0.95])
    nodes = [(0.04, -0.03)] + list(zip(radii * np.cos(angles), radii * np.sin(angles)))
    triangles = [(0, 1 + i, 1 + (i + 1) % 6) for i in range(6)]
    labels = {(1 + i, 1 + (i + 1) % 6): "dirichlet" if i < 2 else "neumann"
              for i in range(6)}
    return import_triangulation(nodes, triangles, labels)


def test_xi_matches_per_incidence_reference():
    cartesian = build_cartesian(5, 3, domain=(0.0, 2.0, 0.0, 0.7),
                                dirichlet_predicate=lambda x, y: y < 1e-12)
    assert cartesian.xi == _xi_per_incidence(cartesian)
    triangulation = _hexagon()
    assert triangulation.xi == _xi_per_incidence(triangulation)
    assert 0.0 < triangulation.xi < 0.5


def test_xi_is_computed_on_first_read():
    mesh = build_cartesian(5, 3, domain=(0.0, 2.0, 0.0, 0.7),
                           dirichlet_predicate=lambda x, y: y < 1e-12)
    assert "xi" not in mesh.__dict__
    assert validate(mesh).xi == _xi_per_incidence(mesh)
    assert mesh.__dict__["xi"] == mesh.xi == _xi_per_incidence(mesh)
    # Bad geometry still fails at construction, before xi is ever read.
    args = _mesh_args(mesh)
    args["cell_centers"][0] = np.inf
    with pytest.raises(MeshError, match="non-finite cell centers"):
        Mesh(**args)
    args = _mesh_args(mesh)
    args["cell_centers"][1] = args["cell_centers"][0]
    with pytest.raises(MeshError, match="zero center distance"):
        Mesh(**args)


def test_cell_measures_sum_to_domain():
    mesh = build_cartesian(7, 5, domain=(0.0, 2.0, -1.0, 1.0))
    assert np.sum(mesh.cell_measures) == pytest.approx(4.0, rel=1e-12)


def test_validate_cartesian_ok():
    report = validate(build_cartesian(4, 3))
    assert report.ok
    assert report.worst_orthogonality_defect < 1e-12
    assert "ok" in str(report)


def test_validate_flags_perturbed_center():
    mesh = _perturbed_center()
    report = validate(mesh)
    assert not report.ok
    assert any(eid == mesh.interior_edges[0] for eid, _ in report.bad_edges)


def test_discrete_function_edge_values():
    mesh = build_cartesian(2, 1)
    u = np.array([1.0, 3.0])
    u_dirichlet = np.full(mesh.n_dirichlet, 5.0)
    first, other = mesh.active_cells
    values = np.concatenate([u, u_dirichlet])
    # The one interior edge comes first, then the Dirichlet edges.
    k, ell = mesh.edge_cells[mesh.interior_edges[0]]
    assert values[other[0]] == u[ell]
    assert values[other[0]] - values[first[0]] == u[ell] - u[k]
    for j in range(mesh.n_dirichlet):
        assert values[other[1 + j]] == 5.0


def test_active_cells_match_per_edge_loop():
    pred = lambda x, y: y < 1e-12 or (y > 1.0 - 1e-12 and x < 0.5)
    mesh = build_cartesian(4, 3, dirichlet_predicate=pred)
    assert len(np.nonzero(mesh.edge_kind == NEUMANN)[0]) and mesh.n_dirichlet
    rng = np.random.default_rng(3)
    u, u_dir = rng.random(mesh.n_cells), rng.random(mesh.n_dirichlet)
    # (K, u_{K,sigma}, tau) per flux-carrying edge, interior edges first;
    # Dirichlet edge j is the j-th Dirichlet edge of the edge list.
    interior, dirichlet = [], []
    for e, (k, ell) in enumerate(mesh.edge_cells):
        if mesh.edge_kind[e] == INTERIOR:
            interior.append((k, u[ell], mesh.edge_tau[e]))
        elif mesh.edge_kind[e] == DIRICHLET:
            dirichlet.append((k, u_dir[len(dirichlet)], mesh.edge_tau[e]))
    want = np.array(interior + dirichlet)
    first, other = mesh.active_cells
    assert np.array_equal(first, want[:, 0])
    assert np.array_equal(np.concatenate([u, u_dir])[other], want[:, 1])
    assert np.array_equal(mesh.active_tau, want[:, 2])
    # One Dirichlet value serves every Dirichlet edge.
    assert seminorm_h1(mesh, u, 0.5) == seminorm_h1(mesh, u, np.full(mesh.n_dirichlet, 0.5))


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
    # A Delaunay mesh with both boundary kinds comes back bit for bit.
    mesh = import_triangulation(*_hex_delaunay(4))
    write_mesh_file(mesh, path)
    _assert_same_mesh(read_mesh_file(path), mesh)


def _coincident_node():
    """The rhombus with an unused copy of node 0 as a fifth node."""
    nodes, triangles, labels = _rhombus()
    return nodes + [nodes[0]], triangles, labels


@pytest.mark.parametrize("make", [lambda: _hex_delaunay(4), lambda: _hex_delaunay(16),
                                  _coincident_node], ids=["hex4", "hex16", "coincident"])
def test_mesh_file_rewrites_byte_for_byte(tmp_path, make):
    # A boundary side is written as its own node pair, so a node with
    # another's coordinates cannot stand in for it.
    first, second = tmp_path / "first.mesh", tmp_path / "second.mesh"
    write_mesh_file(import_triangulation(*make()), first)
    write_mesh_file(read_mesh_file(first), second)
    assert first.read_bytes() == second.read_bytes()


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
            + len(np.nonzero(mesh.edge_kind == NEUMANN)[0])) == mesh.n_edges
    assert mesh.n_dirichlet == 4


def _loop_cartesian(nx, ny, domain=(0.0, 1.0, 0.0, 1.0), dirichlet_predicate=None):
    """Reference builder: one node, cell and edge at a time."""
    x0, x1, y0, y1 = domain
    if dirichlet_predicate is None:
        dirichlet_predicate = lambda x, y: True
    dx = (x1 - x0) / nx
    dy = (y1 - y0) / ny
    xs = x0 + dx * np.arange(nx + 1)
    ys = y0 + dy * np.arange(ny + 1)
    node_id = lambda i, j: j * (nx + 1) + i
    points = np.array([(xs[i], ys[j]) for j in range(ny + 1) for i in range(nx + 1)])
    cid = lambda i, j: j * nx + i
    cell_nodes = []
    centers = np.empty((nx * ny, 2))
    for j in range(ny):
        for i in range(nx):
            cell_nodes.append((node_id(i, j), node_id(i + 1, j),
                               node_id(i + 1, j + 1), node_id(i, j + 1)))
            centers[cid(i, j)] = (x0 + (i + 0.5) * dx, y0 + (j + 0.5) * dy)
    measures = np.full(nx * ny, dx * dy)
    kind, cells, ends = [], [], []

    def add(kd, k, ell, a, b):
        kind.append(kd)
        cells.append((k, ell))
        ends.append((a, b))

    def bkind(mx, my):
        return DIRICHLET if dirichlet_predicate(mx, my) else NEUMANN

    for j in range(ny):
        for i in range(nx + 1):
            a, b = node_id(i, j), node_id(i, j + 1)
            if i == 0:
                add(bkind(xs[0], ys[j] + 0.5 * dy), cid(0, j), -1, a, b)
            elif i == nx:
                add(bkind(xs[nx], ys[j] + 0.5 * dy), cid(nx - 1, j), -1, a, b)
            else:
                add(INTERIOR, cid(i - 1, j), cid(i, j), a, b)
    for j in range(ny + 1):
        for i in range(nx):
            a, b = node_id(i, j), node_id(i + 1, j)
            if j == 0:
                add(bkind(xs[i] + 0.5 * dx, ys[0]), cid(i, 0), -1, a, b)
            elif j == ny:
                add(bkind(xs[i] + 0.5 * dx, ys[ny]), cid(i, ny - 1), -1, a, b)
            else:
                add(INTERIOR, cid(i, j - 1), cid(i, j), a, b)
    return Mesh(points, cell_nodes, centers, measures,
                np.array(kind), np.array(cells), np.array(ends))


_MESH_ARRAYS = ("points", "cell_nodes", "cell_centers", "cell_measures",
                "edge_kind", "edge_cells", "edge_nodes", "edge_p1", "edge_p2",
                "edge_measures", "edge_d", "edge_tau", "dirichlet_edges",
                "interior_edges", "active_edges", "active_tau")


def _bottom_only(domain):
    y0 = domain[2]
    return lambda x, y: y < y0 + 1e-12


@pytest.mark.parametrize("predicate", ["default", "contacts", "bottom"])
@pytest.mark.parametrize("nx, ny, domain", [
    (1, 1, (0.0, 1.0, 0.0, 1.0)), (2, 1, (0.0, 1.0, 0.0, 1.0)),
    (1, 3, (0.0, 1.0, 0.0, 1.0)), (7, 13, (0.0, 1.0, 0.0, 1.0)),
    (32, 32, (0.0, 1.0, 0.0, 1.0)), (5, 3, (-0.3, 2.1, 0.1, 0.8))])
def test_cartesian_matches_loop_builder(nx, ny, domain, predicate):
    pred = {"default": None, "contacts": contact_predicate,
            "bottom": _bottom_only(domain)}[predicate]
    mesh = build_cartesian(nx, ny, domain=domain, dirichlet_predicate=pred)
    _assert_same_mesh(mesh, _loop_cartesian(nx, ny, domain=domain,
                                            dirichlet_predicate=pred))
    assert mesh.cell_nodes.shape == (nx * ny, 4)


def _assert_same_mesh(mesh, want):
    for name in _MESH_ARRAYS:
        got, ref = getattr(mesh, name), getattr(want, name)
        assert got.dtype == ref.dtype, name
        assert got.shape == ref.shape, name
        assert np.array_equal(got, ref), name
    for got, ref in zip(mesh.active_cells, want.active_cells):
        assert got.dtype == ref.dtype and np.array_equal(got, ref)
    got, ref = (np.nonzero(m.edge_kind == NEUMANN)[0] for m in (mesh, want))
    assert got.dtype == ref.dtype and np.array_equal(got, ref)
    assert (mesh.n_cells, mesh.n_edges, mesh.n_dirichlet) == (
        want.n_cells, want.n_edges, want.n_dirichlet)
    assert mesh.xi == want.xi


def _loop_circumcenter(a, b, c):
    ax, ay = a
    bx, by = b
    cx, cy = c
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if abs(d) < 1e-300:
        raise MeshError("degenerate triangle")
    ux = ((ax * ax + ay * ay) * (by - cy) + (bx * bx + by * by) * (cy - ay)
          + (cx * cx + cy * cy) * (ay - by)) / d
    uy = ((ax * ax + ay * ay) * (cx - bx) + (bx * bx + by * by) * (ax - cx)
          + (cx * cx + cy * cy) * (bx - ax)) / d
    return np.array([ux, uy])


def _loop_triangulation(nodes, triangles, boundary_labels):
    """Reference importer: one triangle at a time, then the sides gathered
    in a dictionary and walked one at a time in sorted order."""
    nodes = np.asarray(nodes, dtype=float)
    triangles = [tuple(int(v) for v in t) for t in triangles]
    labels = {tuple(sorted(k)): v for k, v in boundary_labels.items()}
    centers = np.array([_loop_circumcenter(nodes[a], nodes[b], nodes[c])
                        for a, b, c in triangles])
    measures = np.array([
        0.5 * abs((nodes[b][0] - nodes[a][0]) * (nodes[c][1] - nodes[a][1])
                  - (nodes[c][0] - nodes[a][0]) * (nodes[b][1] - nodes[a][1]))
        for a, b, c in triangles])
    side_owner = {}
    for t, (a, b, c) in enumerate(triangles):
        for u, v in ((a, b), (b, c), (c, a)):
            key = (u, v) if u < v else (v, u)
            side_owner.setdefault(key, []).append(t)
    kind, cells, ends = [], [], []
    for (u, v), owners in sorted(side_owner.items()):
        if len(owners) == 2:
            kind.append(INTERIOR)
            cells.append((owners[0], owners[1]))
        elif len(owners) == 1:
            lab = labels.get((u, v))
            if lab is None:
                raise MeshError(f"unlabeled boundary side {(u, v)}")
            if lab not in ("dirichlet", "neumann"):
                raise MeshError(f"unknown boundary label {lab!r} on side {(u, v)}")
            kind.append(DIRICHLET if lab == "dirichlet" else NEUMANN)
            cells.append((owners[0], -1))
        else:
            raise MeshError(f"non-conforming side {(u, v)} shared by {len(owners)} triangles")
        ends.append((u, v))
    return Mesh(nodes, triangles, centers, measures,
                np.array(kind), np.array(cells), np.array(ends))


def _hex_delaunay(m):
    """Delaunay triangulation of a hexagonal lattice m spacings wide, odd
    rows shifted by half a spacing: Dirichlet on the bottom and top rows,
    Neumann on the jagged left and right sides."""
    h, rows = 1.0 / m, int(m / (np.sqrt(3.0) / 2.0))
    j, i = np.divmod(np.arange((rows + 1) * (m + 1)), m + 1)
    nodes = np.column_stack([(i + 0.5 * (j % 2)) * h, j * h * np.sqrt(3.0) / 2.0])
    triangles = Delaunay(nodes).simplices
    sides = np.sort(np.stack([triangles, np.roll(triangles, -1, axis=1)], axis=-1), axis=-1)
    pairs, counts = np.unique(sides.reshape(-1, 2), axis=0, return_counts=True)
    y = nodes[:, 1]
    labels = {(int(a), int(b)): "dirichlet" if y[a] == y[b] and y[a] in (0.0, y.max())
              else "neumann" for a, b in pairs[counts == 1]}
    return nodes, triangles, labels


@pytest.mark.parametrize("shuffle", [False, True])
@pytest.mark.parametrize("m", [4, 8, 16])
def test_triangulation_matches_loop_importer(m, shuffle):
    nodes, triangles, labels = _hex_delaunay(m)
    if shuffle:
        # Triangles reordered, and each one's vertices rotated.
        rng = np.random.default_rng(m)
        triangles = np.array([np.roll(t, r) for t, r in zip(
            triangles[rng.permutation(len(triangles))], rng.integers(0, 3, len(triangles)))])
    mesh = import_triangulation(nodes, triangles, labels)
    want = _loop_triangulation(nodes, triangles, labels)
    assert 0 < want.n_dirichlet < want.n_edges - len(want.interior_edges)
    _assert_same_mesh(mesh, want)


def _fan():
    """Rhombus 0-1-2-3 with two more triangles on side (1, 2), which three
    triangles then share."""
    nodes = [(0.0, 0.0), (1.0, 0.0), (0.5, 0.9), (0.5, -0.9), (1.2, 0.8), (1.5, 0.1)]
    triangles = [(0, 1, 2), (0, 3, 1), (1, 2, 4), (1, 2, 5)]
    labels = {side: "dirichlet" for side in
              ((0, 2), (0, 3), (1, 3), (1, 4), (2, 4), (1, 5), (2, 5))}
    return nodes, triangles, labels


def _without(make, side):
    nodes, triangles, labels = make()
    del labels[side]
    return nodes, triangles, labels


def _relabeled(make, side, label):
    nodes, triangles, labels = make()
    labels[side] = label
    return nodes, triangles, labels


@pytest.mark.parametrize("case, message", [
    (lambda: _without(_rhombus, (1, 3)), "unlabeled boundary side (1, 3)"),
    (lambda: _relabeled(_rhombus, (0, 3), "robin"),
     "unknown boundary label 'robin' on side (0, 3)"),
    (_fan, "non-conforming side (1, 2) shared by 3 triangles"),
    # The first bad side in sorted-pair order is reported.
    (lambda: _without(_fan, (0, 2)), "unlabeled boundary side (0, 2)"),
    (lambda: _without(_fan, (2, 5)), "non-conforming side (1, 2) shared by 3 triangles"),
    (lambda: ([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], [(0, 1, 2)], {}),
     "degenerate triangle")])
def test_import_errors_match_loop_importer(case, message):
    for importer in (import_triangulation, _loop_triangulation):
        with pytest.raises(MeshError) as info:
            importer(*case())
        assert str(info.value) == message


@pytest.mark.parametrize("index", [-1, 7, 3.9])
def test_import_rejects_bad_node_index(index):
    # At 4 nodes: -1 would index the last node from the end, 7 no node,
    # and 3.9 would be truncated to node 3.
    nodes, triangles, labels = _rhombus()
    with pytest.raises(MeshError) as info:
        import_triangulation(nodes, [triangles[0], (0, index, 1)], labels)
    assert str(info.value) == (f"triangle 1 has node indices (0, {index}, 1): "
                               "each must be an integer in [0, 4)")


def test_cartesian_asks_the_predicate_at_each_boundary_midpoint_once():
    def asked(builder):
        seen = []
        builder(7, 4, domain=(0.1, 0.8, -0.3, 0.4),
                dirichlet_predicate=lambda x, y: seen.append((x, y)) or True)
        return sorted(seen)

    seen = asked(build_cartesian)
    assert len(set(seen)) == len(seen) == 2 * (7 + 4)
    assert seen == asked(_loop_cartesian)


@pytest.mark.parametrize("domain", [(0.0, np.inf, 0.0, 1.0), (0.0, 1.0, np.nan, 1.0),
                                    (-np.inf, 1.0, 0.0, 1.0)])
def test_nonfinite_domain_rejected(domain):
    with pytest.raises(MeshError, match="finite"):
        build_cartesian(2, 2, domain=domain)


@pytest.mark.parametrize("n", [2.5, 2.0, True, "2"])
def test_non_integer_cell_count_rejected(n):
    with pytest.raises(MeshError, match="integers"):
        build_cartesian(n, 2)
    with pytest.raises(MeshError, match="integers"):
        build_cartesian(2, n)


def test_numpy_integer_cell_count_accepted():
    assert build_cartesian(np.int64(3), np.int32(2)).n_cells == 6


def test_overflowing_domain_rejected():
    # Finite corners whose distance overflows.
    with pytest.raises(MeshError, match="finite"):
        build_cartesian(2, 2, domain=(-1e308, 1e308, 0.0, 1.0))


def _mesh_args(mesh):
    return {name: getattr(mesh, name).copy() for name in (
        "points", "cell_nodes", "cell_centers", "cell_measures", "edge_kind",
        "edge_cells", "edge_nodes")}


@pytest.mark.parametrize("field, what", [("points", "node coordinates"),
                                         ("cell_centers", "cell centers"),
                                         ("cell_measures", "cell measures")])
def test_mesh_rejects_nonfinite_geometry(field, what):
    args = _mesh_args(build_cartesian(2, 1))
    args[field].flat[-1] = np.nan
    with pytest.raises(MeshError, match=f"non-finite {what}"):
        Mesh(**args)


def test_mesh_rejects_nonfinite_edge_geometry():
    # Finite end points 2e308 apart: the edge's length overflows to inf.
    ref = build_cartesian(2, 1)

    def stretched(edge):
        args = _mesh_args(ref)
        a, b = ref.edge_nodes[edge]
        args["points"][a, 1], args["points"][b, 1] = -1e308, 1e308
        return args

    # An interior edge's d joins the two centers, so only its tau is inf.
    with np.errstate(over="ignore"), pytest.raises(
            MeshError, match="non-finite transmissibilities"):
        Mesh(**stretched(ref.interior_edges[0]))
    # A boundary edge's d is measured to the edge's line: inf/inf.
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            MeshError, match="non-finite center distances"):
        Mesh(**stretched(ref.dirichlet_edges[0]))


@pytest.mark.parametrize("index", [-1, 6, 3.9])
@pytest.mark.parametrize("field, row", [("cell_nodes", "cell"), ("edge_nodes", "edge")])
def test_mesh_rejects_bad_node_index(field, row, index):
    # At 6 nodes: -1 would index the last node from the end, 6 no node,
    # and 3.9 would be truncated to node 3.
    args = _mesh_args(build_cartesian(2, 1))
    args[field] = args[field].astype(float)
    args[field][1, 1] = index
    shown = ", ".join(f"{i:g}" for i in args[field][1])
    with pytest.raises(MeshError) as info:
        Mesh(**args)
    assert str(info.value) == (f"{row} 1 has node indices ({shown}): "
                               "each must be an integer in [0, 6)")


def test_mesh_file_with_nan_node_rejected(tmp_path):
    path = tmp_path / "nan.mesh"
    path.write_text("nodes 3\n0 0\nnan 1\n0 1\ntriangles 1\n0 1 2\n"
                    "boundary 3\n0 1 dirichlet\n1 2 dirichlet\n0 2 dirichlet\n")
    with pytest.raises(MeshError, match="non-finite"):
        read_mesh_file(path)


def _loop_validate(mesh, angle_tol=1e-8):
    """Reference admissibility check: one interior edge at a time."""
    bad = []
    worst = 0.0
    for e in mesh.interior_edges:
        k, ell = mesh.edge_cells[e]
        seg = mesh.cell_centers[ell] - mesh.cell_centers[k]
        tan = mesh.edge_p2[e] - mesh.edge_p1[e]
        sn = abs(np.dot(seg, tan)) / (np.hypot(*seg) * np.hypot(*tan))
        defect = np.arcsin(min(sn, 1.0))
        worst = max(worst, defect)
        if defect > angle_tol:
            bad.append((int(e), f"center segment not orthogonal (defect {defect:.3e} rad)"))
        v1 = mesh.cell_centers[k] - mesh.edge_p1[e]
        v2 = mesh.cell_centers[ell] - mesh.edge_p1[e]
        c1 = tan[0] * v1[1] - tan[1] * v1[0]
        c2 = tan[0] * v2[1] - tan[1] * v2[0]
        if c1 * c2 >= 0.0:
            bad.append((int(e), "cell centers on the same side of the edge"))
    for e in np.nonzero((mesh.edge_tau <= 0) | (mesh.edge_d <= 0))[0]:
        bad.append((int(e), "nonpositive transmissibility or distance"))
    if mesh.n_dirichlet == 0:
        bad.append((-1, "no Dirichlet boundary edges"))
    if mesh.xi <= 0.0:
        bad.append((-1, f"nonpositive regularity parameter xi={mesh.xi:g}"))
    return ValidationReport(ok=not bad, worst_orthogonality_defect=float(worst),
                            xi=float(mesh.xi), bad_edges=bad)


def _perturbed_center():
    # Tangential perturbation breaks orthogonality on the interior edge.
    mesh = build_cartesian(2, 1)
    e = mesh.interior_edges[0]
    mesh.cell_centers[mesh.edge_cells[e, 0]] += np.array([0.0, 0.3 * mesh.edge_d[e]])
    return mesh


def _same_side():
    # Cell 1's center moved right of and along its edge with cell 2: that
    # edge is skew with both centers on one side, the edge with cell 0 skew.
    mesh = build_cartesian(3, 1, dirichlet_predicate=lambda x, y: x < 1e-12)
    mesh.cell_centers[1] = (0.7, 0.6)
    return mesh


def _coincident_centers():
    # Edited after construction, which rejects it: the defect is 0/0.
    mesh = build_cartesian(3, 1)
    mesh.cell_centers[1] = mesh.cell_centers[2]
    return mesh


@pytest.mark.parametrize("make", [_hexagon, _perturbed_center, _same_side,
                                  _coincident_centers, lambda: build_cartesian(6, 5)])
def test_validate_matches_per_edge_loop(make):
    mesh = make()
    with np.errstate(invalid="ignore"):
        report, want = validate(mesh), _loop_validate(mesh)
    assert report == want
    assert str(report) == str(want)


def test_validate_same_side_lists_both_defects_in_edge_order():
    report = validate(_same_side())
    assert not report.ok
    assert [e for e, _ in report.bad_edges] == [1, 2, 2]
    assert report.bad_edges[-1][1] == "cell centers on the same side of the edge"


def test_mesh_module_imports_nothing_from_sparse():
    # sparse builds on mesh: the Laplacian, its factor and the CSC layouts
    # belong to sparse.algebra, so mesh must not reach back, not even in a
    # function body, nor import scipy.sparse.
    tree = ast.parse(pathlib.Path(driftfv.mesh.__file__).read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [f"{'.' * node.level}{node.module or ''}.{alias.name}"
                         for alias in node.names]
    assert imported and "numpy" in imported
    assert not [name for name in imported if "sparse" in name.split(".")]
