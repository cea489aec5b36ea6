"""Admissible two-point-flux meshes and discrete norms.

A mesh is admissible when, for every interior edge, the segment joining the
two neighboring cell centers is orthogonal to the edge.  Cartesian grids with
centroid centers and Delaunay triangulations with circumcenter centers both
qualify.  Each edge carries a transmissibility tau = m(sigma)/d_sigma, and the
mesh gives the regularity parameter xi = min d(x_K, sigma)/d_sigma over all
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


def _require_finite(name, values):
    """``values``, once checked finite; a NaN or inf passes every sign test."""
    if not np.all(np.isfinite(values)):
        raise MeshError(f"non-finite {name}")
    return values


def _node_indices(rows, n_nodes, row, width=None):
    """``rows`` as int64 rows of node indices, each an integer in
    [0, n_nodes); ``row`` names one row in the error, ``width`` its length."""
    idx = np.asarray(rows, dtype=float)
    if idx.ndim != 2 or width not in (None, idx.shape[1]):
        count = f"{width} " if width else ""
        raise MeshError(f"{row}s must be rows of {count}node indices, not {idx.shape}")
    bad = np.flatnonzero(~((idx == np.floor(idx)) & (idx >= 0) & (idx < n_nodes)))
    if len(bad):
        t = bad[0] // idx.shape[1]
        shown = ", ".join(f"{i:g}" for i in idx[t])
        raise MeshError(f"{row} {t} has node indices ({shown}): "
                        f"each must be an integer in [0, {n_nodes})")
    return idx.astype(np.int64)


def _edge_cells(edge_cells, edge_kind, n_cells):
    """``edge_cells`` as int64 (K, L) rows, one per edge: K an integer in
    [0, n_cells); L another such integer on an interior edge, -1 on a
    boundary edge."""
    cells = np.asarray(edge_cells, dtype=float)
    if cells.shape != (len(edge_kind), 2):
        raise MeshError(f"edge cells must be one (K, L) row per edge, not {cells.shape}")
    k, ell = cells.T
    interior = edge_kind == INTERIOR
    index = (cells == np.floor(cells)) & (cells >= 0) & (cells < n_cells)
    ok = index[:, 0] & np.where(interior, index[:, 1] & (ell != k), ell == -1)
    bad = np.flatnonzero(~ok)
    if len(bad):
        e = bad[0]
        rule = ("K and L must be two different integers" if interior[e]
                else "L must be -1 and K an integer")
        raise MeshError(f"{_KIND_NAMES.get(edge_kind[e], 'boundary')} edge {e} has "
                        f"cells ({k[e]:g}, {ell[e]:g}): {rule} in [0, {n_cells})")
    return cells.astype(np.int64)


def _format_rows(fmt, rows) -> str:
    """``fmt`` once per row of ``rows``, filled in one formatting operation."""
    return fmt * len(rows) % tuple(np.ravel(rows).tolist())


def _read_only(arr):
    """``arr``, made read-only: a mesh shares its index arrays with every caller."""
    arr.flags.writeable = False
    return arr


class Mesh:
    """Two-point-flux finite-volume mesh (2D): geometry in flat numpy arrays
    and the cell indices of its stencil.  The linear algebra on the mesh is
    ``sparse.algebra``'s.

    Cells and edges are named by their node indices into ``points``:
    ``edge_nodes`` holds the two end nodes of each edge, and ``edge_p1``,
    ``edge_p2`` are their coordinates."""

    def __init__(self, points, cell_nodes, cell_centers, cell_measures,
                 edge_kind, edge_cells, edge_nodes):
        self.points = np.asarray(points, dtype=float)
        self.cell_nodes = _node_indices(cell_nodes, len(self.points), "cell")
        self.cell_centers = np.asarray(cell_centers, dtype=float)
        self.cell_measures = np.asarray(cell_measures, dtype=float)
        self.n_cells = len(self.cell_measures)
        self.edge_kind = np.asarray(edge_kind, dtype=np.int8)
        self.edge_cells = _edge_cells(edge_cells, self.edge_kind, self.n_cells)
        # Each edge is its two end nodes; their coordinates are gathered once.
        self.edge_nodes = _node_indices(edge_nodes, len(self.points), "edge", 2)
        self.edge_p1, self.edge_p2 = self.points.take(self.edge_nodes.T, axis=0)

        for name, values in (("node coordinates", self.points),
                             ("cell centers", self.cell_centers),
                             ("cell measures", self.cell_measures)):
            _require_finite(name, values)
        if np.any(self.cell_measures <= 0.0):
            raise MeshError("nonpositive cell measure")

        self.edge_measures = np.hypot(*(self.edge_p2 - self.edge_p1).T)
        if np.any(self.edge_measures <= 0.0):
            raise MeshError("nonpositive edge measure")

        self.n_edges = len(self.edge_kind)

        # d_sigma: center-to-center for interior edges, center-to-edge else.
        interior = self.edge_kind == INTERIOR
        k, ell = self.edge_cells.T
        d = np.empty(self.n_edges)
        xk = self.cell_centers[k]
        d[interior] = np.hypot(*(self.cell_centers[ell[interior]] - xk[interior]).T)
        bnd = ~interior
        d[bnd] = _point_line_distance(xk[bnd], self.edge_p1[bnd], self.edge_p2[bnd])
        if np.any(d <= 0.0):
            raise MeshError("zero center distance on edge(s) %s"
                            % np.nonzero(d <= 0.0)[0].tolist())
        _require_finite("center distances", d)
        self.edge_d = d
        self.edge_tau = _require_finite("transmissibilities", self.edge_measures / d)

        # Dirichlet edge j is the j-th Dirichlet edge in the edge list.
        self.dirichlet_edges = np.nonzero(self.edge_kind == DIRICHLET)[0]
        self.interior_edges = np.nonzero(interior)[0]
        self.n_dirichlet = len(self.dirichlet_edges)
        self._block_stencils = {}

    @cached_property
    def xi(self) -> float:
        """Regularity xi = min d(x_K, sigma)/d_sigma over every cell-edge
        incidence, computed on first read: no solve needs it, only
        ``validate``."""
        k, ell = self.edge_cells.T
        cells = np.concatenate([k, ell[self.interior_edges]])
        edges = np.concatenate([np.arange(self.n_edges), self.interior_edges])
        return float(np.min(
            _point_line_distance(self.cell_centers[cells], self.edge_p1[edges],
                                 self.edge_p2[edges]) / self.edge_d[edges]))

    # -- two-point stencil ------------------------------------------------
    #
    # The active edges are those that carry flux: the interior edges, then
    # the Dirichlet edges.  Neumann edges carry none, so they get no
    # coefficients and add nothing to any edge sum: every edge sum of the
    # library gathers with ``active_cells`` and weighs with ``active_tau``.

    @cached_property
    def active_edges(self):
        """Edge ids of the interior edges, then of the Dirichlet edges."""
        return _read_only(np.concatenate([self.interior_edges, self.dirichlet_edges]))

    @cached_property
    def active_tau(self):
        """Transmissibility of each active edge."""
        return _read_only(self.edge_tau[self.active_edges])

    @cached_property
    def active_cells(self):
        """(first, other) per active edge: K, the first incident cell, and the
        index of u_{K,sigma} in [cell values, Dirichlet values] (the second
        cell of an interior edge, n_cells + j for Dirichlet edge j)."""
        return (_read_only(self.edge_cells[self.active_edges, 0]),
                _read_only(np.concatenate([self.edge_cells[self.interior_edges, 1],
                                           self.n_cells + np.arange(self.n_dirichlet)])))

    def block_stencil(self, blocks: int) -> "BlockStencil":
        """Cell indices of ``blocks`` stacked copies of the stencil, block s
        on cells s*n_cells .. (s+1)*n_cells - 1.  Built once per block count;
        read-only."""
        stencil = self._block_stencils.get(blocks)
        if stencil is None:
            stencil = self._block_stencils[blocks] = BlockStencil(self, blocks)
        return stencil


class BlockStencil:
    """Cells that the sums over ``blocks`` stacked copies of a mesh's
    two-point stencil add into.

    Block s of each array is block 0 shifted by s*n_cells, so one
    ``bincount`` over all blocks sums each block's entries in the same order
    as over one, and one ``take`` gathers the values of all blocks.
    """

    __slots__ = ("diagonal_cells", "offdiagonal_rows", "offdiagonal_cols",
                 "dirichlet_cells")

    def __init__(self, mesh: Mesh, blocks: int):
        n, ni = mesh.n_cells, len(mesh.interior_edges)
        first, other = mesh.active_cells
        k, ell, kd = first[:ni], other[:ni], first[ni:]

        def stack(*parts):
            one = np.concatenate(parts)
            return _read_only(np.concatenate([one + s * n for s in range(blocks)]))

        # Cell of each diagonal term: every cell, then K and L of each
        # interior edge, then K of each Dirichlet edge.
        self.diagonal_cells = stack(np.arange(n), k, ell, kd)
        # Row and column of each off-diagonal entry: (K, L) for each
        # interior edge, then (L, K) for each.
        self.offdiagonal_rows = stack(k, ell)
        self.offdiagonal_cols = stack(ell, k)
        self.dirichlet_cells = stack(kd)


def norm_l2(mesh: Mesh, cell_values: np.ndarray) -> float:
    """Discrete L2 norm: sqrt(sum m(K) u_K^2)."""
    return float(np.sqrt(np.sum(mesh.cell_measures * np.asarray(cell_values) ** 2)))


def seminorm_h1(mesh: Mesh, cell_values, dirichlet_values) -> float:
    """Discrete H1 seminorm: sqrt(sum_sigma tau_sigma (D_sigma u)^2) over the
    active edges; ``dirichlet_values`` is one value per Dirichlet edge or one
    for all of them."""
    first, other = mesh.active_cells
    u = np.empty(mesh.n_cells + mesh.n_dirichlet)
    u[:mesh.n_cells], u[mesh.n_cells:] = cell_values, dirichlet_values
    return float(np.sqrt(np.sum(mesh.active_tau * (u[other] - u[first]) ** 2)))


# -- construction ----------------------------------------------------------

def build_cartesian(nx: int, ny: int, domain=(0.0, 1.0, 0.0, 1.0),
                    dirichlet_predicate=None) -> Mesh:
    """Uniform Cartesian mesh on an axis-aligned rectangle.

    ``dirichlet_predicate(x, y)`` classifies boundary edges by their midpoint;
    default is all-Dirichlet.  It is called once per boundary edge, with
    scalars.  Nodes and cells are numbered row-major by j; the edges are the
    vertical ones, row by row, then the horizontal ones.  A vertical edge
    runs from its lower node to its upper one, (node[j, i], node[j+1, i]),
    and a horizontal edge from its left node to its right one,
    (node[j, i], node[j, i+1]).
    """
    for n in (nx, ny):
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
            raise MeshError(f"nx, ny must be integers, got {n!r}")
    if nx < 1 or ny < 1:
        raise MeshError("nx, ny must be >= 1")
    x0, x1, y0, y1 = domain
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite([x0, x1, y0, y1, x1 - x0, y1 - y0])
    if not finite.all():
        raise MeshError(f"domain and its extent must be finite, got {tuple(domain)!r}")
    if not (x1 > x0 and y1 > y0):
        raise MeshError("degenerate domain")
    if dirichlet_predicate is None:
        dirichlet_predicate = lambda x, y: True

    dx = (x1 - x0) / nx
    dy = (y1 - y0) / ny
    xs = x0 + dx * np.arange(nx + 1)
    ys = y0 + dy * np.arange(ny + 1)

    # Nodes on the (nx+1) x (ny+1) grid, row-major by j.
    points = np.column_stack([np.tile(xs, ny + 1), np.repeat(ys, nx + 1)])
    node = np.arange((nx + 1) * (ny + 1)).reshape(ny + 1, nx + 1)
    cell_nodes = np.stack([node[:-1, :-1], node[:-1, 1:], node[1:, 1:],
                           node[1:, :-1]], axis=-1).reshape(-1, 4)
    centers = np.column_stack([
        np.tile(x0 + (np.arange(nx) + 0.5) * dx, ny),
        np.repeat(y0 + (np.arange(ny) + 0.5) * dy, nx)])
    measures = np.full(nx * ny, dx * dy)
    cell = np.arange(nx * ny).reshape(ny, nx)

    def bkind(mx, my):
        return [DIRICHLET if dirichlet_predicate(x, y) else NEUMANN
                for x, y in zip(mx, my)]

    # Vertical edges, (ny, nx+1): K the cell left of the edge (right of it
    # on the left boundary), L the cell right of it; boundary edges first
    # and last in each row.
    v_kind = np.full((ny, nx + 1), INTERIOR)
    ymid = ys[:-1] + 0.5 * dy
    v_kind[:, 0] = bkind(np.full(ny, xs[0]), ymid)
    v_kind[:, nx] = bkind(np.full(ny, xs[nx]), ymid)
    v_cells = np.full((ny, nx + 1, 2), -1)
    v_cells[:, :, 0] = cell[:, np.maximum(np.arange(nx + 1) - 1, 0)]
    v_cells[:, 1:nx, 1] = cell[:, 1:]
    v_nodes = np.stack([node[:-1], node[1:]], axis=-1)

    # Horizontal edges, (ny+1, nx): K the cell below (above it on the
    # bottom boundary), L the cell above.
    h_kind = np.full((ny + 1, nx), INTERIOR)
    xmid = xs[:-1] + 0.5 * dx
    h_kind[0] = bkind(xmid, np.full(nx, ys[0]))
    h_kind[ny] = bkind(xmid, np.full(nx, ys[ny]))
    h_cells = np.full((ny + 1, nx, 2), -1)
    h_cells[:, :, 0] = cell[np.maximum(np.arange(ny + 1) - 1, 0)]
    h_cells[1:ny, :, 1] = cell[1:]
    h_nodes = np.stack([node[:, :-1], node[:, 1:]], axis=-1)

    return Mesh(points, cell_nodes, centers, measures,
                np.concatenate([v_kind.ravel(), h_kind.ravel()]),
                np.concatenate([v_cells.reshape(-1, 2), h_cells.reshape(-1, 2)]),
                np.concatenate([v_nodes.reshape(-1, 2), h_nodes.reshape(-1, 2)]))


def import_triangulation(nodes, triangles, boundary_labels) -> Mesh:
    """Mesh from a conforming triangulation with circumcenter cell centers.

    ``triangles`` holds three node indices per triangle, each an integer in
    [0, len(nodes)).  ``boundary_labels`` maps each boundary side, as a
    node-index pair in either order, to ``"dirichlet"`` or ``"neumann"``.
    The edges are the distinct sides, ordered by their sorted node pair
    (u, v), u < v, which is also ``edge_nodes``; K of an
    interior edge is the lower-numbered of its two triangles.
    Configurations where a circumcenter lies on or outside its triangle (so
    that some center distance vanishes or orthogonality fails) are rejected.
    """
    # Checked before the circumcenters, whose arithmetic inf would poison.
    nodes = _require_finite("node coordinates", np.asarray(nodes, dtype=float))
    tri = _node_indices(triangles, len(nodes), "triangle", 3)
    labels = {tuple(sorted(k)): v for k, v in boundary_labels.items()}

    # Circumcenters and areas of all triangles at once, in the operation
    # order of the per-triangle reference in the tests: bit for bit.  Huge
    # coordinates overflow here; Mesh refuses the non-finite centers.
    (ax, ay), (bx, by), (cx, cy) = (nodes[tri[:, i]].T for i in range(3))
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if np.any(np.abs(d) < 1e-300):
        raise MeshError("degenerate triangle")
    a2, b2, c2 = ax * ax + ay * ay, bx * bx + by * by, cx * cx + cy * cy
    centers = np.column_stack([(a2 * (by - cy) + b2 * (cy - ay) + c2 * (ay - by)) / d,
                               (a2 * (cx - bx) + b2 * (ax - cx) + c2 * (bx - ax)) / d])
    measures = 0.5 * np.abs((bx - ax) * (cy - ay) - (cx - ax) * (by - ay))

    # Sides (a, b), (b, c), (c, a) of each triangle in turn, as sorted node
    # pairs; a stable sort groups equal pairs with their triangles ascending.
    ends = np.roll(tri, -1, axis=1)
    lo, hi = np.minimum(tri, ends).ravel(), np.maximum(tri, ends).ravel()
    key = lo * len(nodes) + hi
    order = np.argsort(key, kind="stable")
    start = np.flatnonzero(np.diff(key[order], prepend=-1))
    count = np.diff(start, append=len(order))
    owner = order // 3
    u, v = lo[order[start]], hi[order[start]]

    kind = np.full(len(start), INTERIOR)
    for e in np.flatnonzero(count != 2):
        side = (int(u[e]), int(v[e]))
        if count[e] > 2:
            raise MeshError(f"non-conforming side {side} shared by {count[e]} triangles")
        lab = labels.get(side)
        if lab is None:
            raise MeshError(f"unlabeled boundary side {side}")
        if lab not in ("dirichlet", "neumann"):
            raise MeshError(f"unknown boundary label {lab!r} on side {side}")
        kind[e] = DIRICHLET if lab == "dirichlet" else NEUMANN
    cells = np.column_stack([owner[start],
                             np.where(count == 2, owner[start + count - 1], -1)])

    mesh = Mesh(nodes, tri, centers, measures, kind, cells, np.column_stack([u, v]))
    report = validate(mesh)
    if not report.ok:
        raise MeshError("triangulation is not admissible: "
                        + "; ".join(r for _, r in report.bad_edges[:5]))
    return mesh


# -- validation ------------------------------------------------------------

_ANGLE_TOL = 1e-8  # largest admissible orthogonality defect, radians


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


def validate(mesh: Mesh) -> ValidationReport:
    """Check admissibility: orthogonality, positive distances, Dirichlet part."""
    e = mesh.interior_edges
    k, ell = mesh.edge_cells[e].T
    seg = mesh.cell_centers[ell] - mesh.cell_centers[k]
    tan = mesh.edge_p2[e] - mesh.edge_p1[e]
    # One BLAS dot per edge, the arithmetic of np.dot on each pair.
    dot = (seg[:, None, :] @ tan[:, :, None])[:, 0, 0]
    sn = np.abs(dot) / (np.hypot(seg[:, 0], seg[:, 1]) * np.hypot(tan[:, 0], tan[:, 1]))
    defect = np.arcsin(np.minimum(sn, 1.0))
    # fmax skips a NaN defect (coincident centers), as the same-side test flags them.
    worst = np.fmax.reduce(defect, initial=0.0)
    # Centers must lie on opposite sides of the edge.
    v1 = mesh.cell_centers[k] - mesh.edge_p1[e]
    v2 = mesh.cell_centers[ell] - mesh.edge_p1[e]
    c1 = tan[:, 0] * v1[:, 1] - tan[:, 1] * v1[:, 0]
    c2 = tan[:, 0] * v2[:, 1] - tan[:, 1] * v2[:, 0]
    skew = defect > _ANGLE_TOL
    same_side = c1 * c2 >= 0.0
    bad = []
    for i in np.nonzero(skew | same_side)[0]:
        if skew[i]:
            bad.append((int(e[i]), "center segment not orthogonal "
                                   f"(defect {defect[i]:.3e} rad)"))
        if same_side[i]:
            bad.append((int(e[i]), "cell centers on the same side of the edge"))
    for j in np.nonzero((mesh.edge_tau <= 0) | (mesh.edge_d <= 0))[0]:
        bad.append((int(j), "nonpositive transmissibility or distance"))
    if mesh.n_dirichlet == 0:
        bad.append((-1, "no Dirichlet boundary edges"))
    xi = mesh.xi
    if xi <= 0.0:
        bad.append((-1, f"nonpositive regularity parameter xi={xi:g}"))
    return ValidationReport(ok=not bad, worst_orthogonality_defect=float(worst),
                            xi=float(xi), bad_edges=bad)


# -- plain-text mesh file format ------------------------------------------

def _parse_tokens(tokens, dtype, what):
    """``tokens`` as one array of ``dtype``.  A bad token gets the message of
    its Python cast; an integer past int64 is kept, as a Python int, for the
    node-index checks to refuse."""
    try:
        try:
            return np.array(tokens, dtype=dtype)
        except OverflowError:
            return np.array([int(t) for t in tokens])
    except ValueError as exc:
        raise MeshError(f"mesh file: bad {what}: {exc}") from None


def read_mesh_file(path) -> Mesh:
    """Read a triangulation from the plain-text node/element format.

    Layout: ``nodes N`` then N ``x y`` lines, ``triangles M`` then M
    ``i j k`` lines (0-based node indices), ``boundary K`` then K
    ``i j dirichlet|neumann`` lines.
    """
    try:
        with open(path, encoding="utf-8") as f:
            tokens = f.read().split()
    except UnicodeDecodeError as exc:
        raise MeshError(f"mesh file: not UTF-8 text: {exc}") from None
    pos = 0

    def take(count, what, dtype=None):
        """The next ``count`` tokens; as one array of ``dtype`` when given."""
        nonlocal pos
        chunk = tokens[pos:pos + count]
        pos += count
        if len(chunk) < count:
            raise MeshError(f"mesh file: ends early, {what} missing")
        return chunk if dtype is None else _parse_tokens(chunk, dtype, what)

    def expect(word, least):
        if take(1, f"'{word}' header") != [word]:
            raise MeshError(f"mesh file: expected '{word}' header")
        count = int(take(1, f"'{word}' count", int)[0])
        if count < least:
            raise MeshError(f"mesh file: '{word}' count must be >= {least}")
        return count

    n = expect("nodes", 3)
    nodes = take(2 * n, "node coordinates", float).reshape(n, 2)
    m = expect("triangles", 1)
    tris = take(3 * m, "triangle node indices", int).reshape(m, 3)
    k = expect("boundary", 0)
    rows = tokens[pos:pos + 3 * k]
    # As if read line by line: a bad index comes before a missing line, and
    # the message of a missing line names the first item it lacks.
    sides = _parse_tokens([t for i, t in enumerate(rows) if i % 3 < 2], int,
                          "boundary side")
    take(3 * k, "boundary label" if len(rows) % 3 == 2 else "boundary side")
    labels = dict(zip(map(tuple, sides.reshape(k, 2).tolist()), rows[2::3]))
    return import_triangulation(nodes, tris, labels)


def write_mesh_file(mesh: Mesh, path) -> None:
    """Write a triangulation in the plain-text node/element format that
    ``read_mesh_file`` reads: the nodes, the triangles, then each boundary
    edge as its two node indices and its kind."""
    if mesh.cell_nodes.shape[1] != 3:
        raise MeshError("mesh file format only covers triangulations")
    bnd = mesh.edge_kind != INTERIOR
    sides = zip(mesh.edge_nodes[bnd].tolist(), mesh.edge_kind[bnd].tolist())
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"nodes {len(mesh.points)}\n")
        f.write(_format_rows("%.17g %.17g\n", mesh.points))
        f.write(f"triangles {mesh.n_cells}\n")
        f.write(_format_rows("%d %d %d\n", mesh.cell_nodes))
        f.write(f"boundary {np.count_nonzero(bnd)}\n")
        f.write("".join(f"{a} {b} {_KIND_NAMES[k]}\n" for (a, b), k in sides))
