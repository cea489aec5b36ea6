"""Admissible two-point-flux meshes and discrete functions.

A mesh is admissible when, for every interior edge, the segment joining the
two neighboring cell centers is orthogonal to the edge.  Cartesian grids with
centroid centers and Delaunay triangulations with circumcenter centers both
qualify.  Each edge carries a transmissibility tau = m(sigma)/d_sigma, and the
mesh stores the regularity parameter xi = min d(x_K, sigma)/d_sigma over all
cell-edge incidences.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# Edge kind codes.
INTERIOR = 0
DIRICHLET = 1
NEUMANN = 2

_KIND_NAMES = {INTERIOR: "interior", DIRICHLET: "dirichlet", NEUMANN: "neumann"}


class MeshError(ValueError):
    """Raised when a mesh is structurally invalid or not admissible."""


def _point_line_distance(x, p1, p2):
    """Perpendicular distance from point(s) x to the line through p1, p2."""
    t = p2 - p1
    nrm = np.hypot(t[..., 0], t[..., 1])
    cross = t[..., 0] * (x[..., 1] - p1[..., 1]) - t[..., 1] * (x[..., 0] - p1[..., 0])
    return np.abs(cross) / nrm


class Mesh:
    """Two-point-flux finite-volume mesh (2D); geometry in flat numpy arrays."""

    def __init__(self, points, cell_nodes, cell_centers, cell_measures,
                 edge_kind, edge_cells, edge_p1, edge_p2):
        self.points = np.asarray(points, dtype=float)
        self.cell_nodes = [tuple(c) for c in cell_nodes]
        self.cell_centers = np.asarray(cell_centers, dtype=float)
        self.cell_measures = np.asarray(cell_measures, dtype=float)
        self.edge_kind = np.asarray(edge_kind, dtype=np.int8)
        self.edge_cells = np.asarray(edge_cells, dtype=np.int64)
        self.edge_p1 = np.asarray(edge_p1, dtype=float)
        self.edge_p2 = np.asarray(edge_p2, dtype=float)

        if np.any(self.cell_measures <= 0.0):
            raise MeshError("nonpositive cell measure")

        self.edge_measures = np.hypot(*(self.edge_p2 - self.edge_p1).T)
        if np.any(self.edge_measures <= 0.0):
            raise MeshError("nonpositive edge measure")

        self.n_cells = len(self.cell_measures)
        self.n_edges = len(self.edge_kind)

        # d_sigma: center-to-center for interior edges, center-to-edge else.
        interior = self.edge_kind == INTERIOR
        k = self.edge_cells[:, 0]
        ell = self.edge_cells[:, 1]
        d = np.empty(self.n_edges)
        xk = self.cell_centers[k]
        d[interior] = np.hypot(*(self.cell_centers[ell[interior]] - xk[interior]).T)
        bnd = ~interior
        d[bnd] = _point_line_distance(xk[bnd], self.edge_p1[bnd], self.edge_p2[bnd])
        if np.any(d <= 0.0):
            raise MeshError("zero center distance on edge(s) %s"
                            % np.nonzero(d <= 0.0)[0].tolist())
        self.edge_d = d
        self.edge_tau = self.edge_measures / d

        # Dirichlet edge numbering (order of appearance in the edge list).
        self.dirichlet_edges = np.nonzero(self.edge_kind == DIRICHLET)[0]
        self.neumann_edges = np.nonzero(self.edge_kind == NEUMANN)[0]
        self.interior_edges = np.nonzero(interior)[0]
        self.dirichlet_index = np.full(self.n_edges, -1, dtype=np.int64)
        self.dirichlet_index[self.dirichlet_edges] = np.arange(len(self.dirichlet_edges))
        self.n_dirichlet = len(self.dirichlet_edges)

        # xi = min d(x_K, sigma)/d_sigma over every cell-edge incidence.
        cells = np.concatenate([k, ell[self.interior_edges]])
        edges = np.concatenate([np.arange(self.n_edges), self.interior_edges])
        self.xi = float(np.min(
            _point_line_distance(self.cell_centers[cells], self.edge_p1[edges],
                                 self.edge_p2[edges]) / d[edges]))

    @cached_property
    def stencil_csc(self):
        """CSC layout of the two-point stencil: (order, indices, indptr).

        The stencil's entries are listed as the diagonal, then (K, L) and
        then (L, K) for each interior edge; ``values[order]`` is that list
        in CSC order (by column, rows sorted within a column).
        """
        it = self.interior_edges
        cells = np.arange(self.n_cells)
        rows = np.concatenate([cells, self.edge_cells[it, 0], self.edge_cells[it, 1]])
        cols = np.concatenate([cells, self.edge_cells[it, 1], self.edge_cells[it, 0]])
        order = np.lexsort((rows, cols))
        indptr = np.zeros(self.n_cells + 1, dtype=np.int32)
        np.cumsum(np.bincount(cols, minlength=self.n_cells), out=indptr[1:])
        layout = (order, rows[order].astype(np.int32), indptr)
        # Every assembled matrix shares these arrays; none may edit them.
        for arr in layout:
            arr.flags.writeable = False
        return layout

    # -- discrete-function plumbing ---------------------------------------

    def edge_other_values(self, cell_values, dirichlet_values) -> np.ndarray:
        """u_{K,sigma} per edge with K the first incident cell.

        Interior: opposite cell value; Dirichlet: edge value; Neumann: own
        cell value (zero-flux mirror).
        """
        vals = cell_values[self.edge_cells[:, 0]].copy()
        it = self.interior_edges
        vals[it] = cell_values[self.edge_cells[it, 1]]
        vals[self.dirichlet_edges] = dirichlet_values
        return vals

    def edge_differences(self, u: "DiscreteFunction") -> np.ndarray:
        """Du_{K,sigma} = u_{K,sigma} - u_K per edge (K = first cell)."""
        return (self.edge_other_values(u.cell_values, u.dirichlet_values)
                - u.cell_values[self.edge_cells[:, 0]])


@dataclass
class DiscreteFunction:
    """Cell values plus Dirichlet edge values of one discrete unknown."""
    cell_values: np.ndarray
    dirichlet_values: np.ndarray

    def __post_init__(self):
        self.cell_values = np.asarray(self.cell_values, dtype=float)
        self.dirichlet_values = np.asarray(self.dirichlet_values, dtype=float)

    def copy(self) -> "DiscreteFunction":
        return DiscreteFunction(self.cell_values.copy(), self.dirichlet_values.copy())

    @classmethod
    def constant(cls, mesh: Mesh, value: float) -> "DiscreteFunction":
        return cls(np.full(mesh.n_cells, value), np.full(mesh.n_dirichlet, value))


def norm_l2(mesh: Mesh, cell_values: np.ndarray) -> float:
    """Discrete L2 norm: sqrt(sum m(K) u_K^2)."""
    return float(np.sqrt(np.sum(mesh.cell_measures * np.asarray(cell_values) ** 2)))


def seminorm_h1(mesh: Mesh, u: DiscreteFunction) -> float:
    """Discrete H1 seminorm: sqrt(sum_sigma tau_sigma (D_sigma u)^2)."""
    du = mesh.edge_differences(u)
    return float(np.sqrt(np.sum(mesh.edge_tau * du ** 2)))


# -- construction ----------------------------------------------------------

def build_cartesian(nx: int, ny: int, domain=(0.0, 1.0, 0.0, 1.0),
                    dirichlet_predicate=None) -> Mesh:
    """Uniform Cartesian mesh on an axis-aligned rectangle.

    ``dirichlet_predicate(x, y)`` classifies boundary edges by their midpoint;
    default is all-Dirichlet.
    """
    if nx < 1 or ny < 1:
        raise MeshError("nx, ny must be >= 1")
    x0, x1, y0, y1 = domain
    if not (x1 > x0 and y1 > y0):
        raise MeshError("degenerate domain")
    if dirichlet_predicate is None:
        dirichlet_predicate = lambda x, y: True

    dx = (x1 - x0) / nx
    dy = (y1 - y0) / ny
    xs = x0 + dx * np.arange(nx + 1)
    ys = y0 + dy * np.arange(ny + 1)

    # Nodes on the (nx+1) x (ny+1) grid, row-major by j.
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

    kind, cells, p1, p2 = [], [], [], []

    def add(kd, k, ell, a, b):
        kind.append(kd)
        cells.append((k, ell))
        p1.append(a)
        p2.append(b)

    def bkind(mx, my):
        return DIRICHLET if dirichlet_predicate(mx, my) else NEUMANN

    # Vertical edges.
    for j in range(ny):
        for i in range(nx + 1):
            a = (xs[i], ys[j])
            b = (xs[i], ys[j + 1])
            if i == 0:
                add(bkind(xs[0], ys[j] + 0.5 * dy), cid(0, j), -1, a, b)
            elif i == nx:
                add(bkind(xs[nx], ys[j] + 0.5 * dy), cid(nx - 1, j), -1, a, b)
            else:
                add(INTERIOR, cid(i - 1, j), cid(i, j), a, b)
    # Horizontal edges.
    for j in range(ny + 1):
        for i in range(nx):
            a = (xs[i], ys[j])
            b = (xs[i + 1], ys[j])
            if j == 0:
                add(bkind(xs[i] + 0.5 * dx, ys[0]), cid(i, 0), -1, a, b)
            elif j == ny:
                add(bkind(xs[i] + 0.5 * dx, ys[ny]), cid(i, ny - 1), -1, a, b)
            else:
                add(INTERIOR, cid(i, j - 1), cid(i, j), a, b)

    return Mesh(points, cell_nodes, centers, measures,
                np.array(kind), np.array(cells), np.array(p1), np.array(p2))


def _circumcenter(a, b, c):
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


def import_triangulation(nodes, triangles, boundary_labels) -> Mesh:
    """Mesh from a conforming triangulation with circumcenter cell centers.

    ``boundary_labels`` maps each boundary side, as a sorted node-index pair,
    to ``"dirichlet"`` or ``"neumann"``.  Configurations where a circumcenter
    lies on or outside its triangle (so that some center distance vanishes or
    orthogonality fails) are rejected.
    """
    nodes = np.asarray(nodes, dtype=float)
    triangles = [tuple(int(v) for v in t) for t in triangles]
    labels = {tuple(sorted(k)): v for k, v in boundary_labels.items()}

    centers = np.array([_circumcenter(nodes[a], nodes[b], nodes[c])
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

    kind, cells, p1, p2 = [], [], [], []
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
        p1.append(nodes[u])
        p2.append(nodes[v])

    mesh = Mesh(nodes, triangles, centers, measures,
                np.array(kind), np.array(cells), np.array(p1), np.array(p2))
    report = validate(mesh)
    if not report.ok:
        raise MeshError("triangulation is not admissible: "
                        + "; ".join(r for _, r in report.bad_edges[:5]))
    return mesh


# -- validation ------------------------------------------------------------

@dataclass
class ValidationReport:
    ok: bool
    worst_orthogonality_defect: float
    xi: float
    bad_edges: list = field(default_factory=list)

    def __str__(self):
        lines = [f"mesh validation: {'ok' if self.ok else 'FAILED'}",
                 f"  worst orthogonality defect: {self.worst_orthogonality_defect:.3e} rad",
                 f"  regularity xi: {self.xi:.6g}"]
        for eid, reason in self.bad_edges:
            lines.append(f"  edge {eid}: {reason}")
        return "\n".join(lines)


def validate(mesh: Mesh, angle_tol: float = 1e-8) -> ValidationReport:
    """Check admissibility: orthogonality, positive distances, Dirichlet part."""
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
        # Centers must lie on opposite sides of the edge.
        v1 = mesh.cell_centers[k] - mesh.edge_p1[e]
        v2 = mesh.cell_centers[ell] - mesh.edge_p1[e]
        c1 = tan[0] * v1[1] - tan[1] * v1[0]
        c2 = tan[0] * v2[1] - tan[1] * v2[0]
        if c1 * c2 >= 0.0:
            bad.append((int(e), "cell centers on the same side of the edge"))
    if np.any(mesh.edge_tau <= 0.0) or np.any(mesh.edge_d <= 0.0):
        for e in np.nonzero((mesh.edge_tau <= 0) | (mesh.edge_d <= 0))[0]:
            bad.append((int(e), "nonpositive transmissibility or distance"))
    if mesh.n_dirichlet == 0:
        bad.append((-1, "no Dirichlet boundary edges"))
    xi = mesh.xi
    if xi <= 0.0:
        bad.append((-1, f"nonpositive regularity parameter xi={xi:g}"))
    return ValidationReport(ok=not bad, worst_orthogonality_defect=float(worst),
                            xi=float(xi), bad_edges=bad)


# -- plain-text mesh file format ------------------------------------------

def read_mesh_file(path) -> Mesh:
    """Read a triangulation from the plain-text node/element format.

    Layout: ``nodes N`` then N ``x y`` lines, ``triangles M`` then M
    ``i j k`` lines (0-based node indices), ``boundary K`` then K
    ``i j dirichlet|neumann`` lines.
    """
    with open(path, encoding="utf-8") as f:
        tokens = f.read().split()
    pos = 0

    def expect(word):
        nonlocal pos
        if pos >= len(tokens) or tokens[pos] != word:
            raise MeshError(f"mesh file: expected '{word}' header")
        pos += 1
        n = int(tokens[pos]); pos += 1
        return n

    n = expect("nodes")
    nodes = np.array([float(t) for t in tokens[pos:pos + 2 * n]]).reshape(n, 2)
    pos += 2 * n
    m = expect("triangles")
    tris = [tuple(int(t) for t in tokens[pos + 3 * i:pos + 3 * i + 3]) for i in range(m)]
    pos += 3 * m
    k = expect("boundary")
    labels = {}
    for i in range(k):
        a, b, lab = tokens[pos + 3 * i:pos + 3 * i + 3]
        labels[(int(a), int(b))] = lab
    return import_triangulation(nodes, tris, labels)


def write_mesh_file(mesh: Mesh, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"nodes {len(mesh.points)}\n")
        for x, y in mesh.points:
            f.write("%.17g %.17g\n" % (x, y))
        f.write(f"triangles {mesh.n_cells}\n")
        for nodes in mesh.cell_nodes:
            if len(nodes) != 3:
                raise MeshError("mesh file format only covers triangulations")
            f.write("%d %d %d\n" % nodes)
        bnd = [(e, _KIND_NAMES[k]) for e, k in enumerate(mesh.edge_kind) if k != INTERIOR]
        f.write(f"boundary {len(bnd)}\n")
        node_of = {tuple(p): i for i, p in enumerate(map(tuple, mesh.points))}
        for e, lab in bnd:
            a = node_of[tuple(mesh.edge_p1[e])]
            b = node_of[tuple(mesh.edge_p2[e])]
            f.write(f"{a} {b} {lab}\n")
