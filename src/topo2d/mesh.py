"""Structured 2D meshes for rectangular and trapezoidal design domains.

Generates bilinear quad grids and linear/quadratic triangulations (two- or
four-way cell splits) with full edge topology, supports uniform red
refinement of triangle meshes, boundary-edge classification against a load
case, one lookup of an edge in its elements (edge_ends), and VTK export.

Node numbering is lexicographic by (y, x); auxiliary nodes (cell centers,
refinement midpoints, quadratic midsides) are appended in deterministic
order so repeated generation is bit-for-bit reproducible. Element numbering
follows two tables, which export's raster locator descends too: CELL_SPLITS
gives the triangles of one grid cell, RED_CHILDREN the four children of a
refined triangle.
"""

import dataclasses
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .fem import ELEMENT_NODES, LOCAL_EDGES, REF_CORNERS, check_family

# edge kinds
INTERIOR = 0
DIRICHLET = 1
NEUMANN = 2

SHAPES = ("rectangle", "trapezoid")
TRIANGULATIONS = ("two_split", "cross_split")

_GEOM_TOL = 1e-12

#: counterclockwise triangles of one grid cell per split, over the cell's
#: (n00, n10, n11, n01, centre); cell c owns elements c*m to (c+1)*m - 1
CELL_SPLITS = {
    "two_split": ((0, 1, 2), (0, 2, 3)),
    "cross_split": ((0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4)),
}

#: red refinement's children of a triangle, over its (v0, v1, v2) and then
#: its edge midpoints in LOCAL_EDGES["p1"] order; children of e are 4e..4e+3
RED_CHILDREN = ((0, 3, 5), (3, 1, 4), (5, 4, 2), (3, 4, 5))


@dataclass(frozen=True)
class DomainSpec:
    """Geometry and discretization request for a design domain.

    For shape "trapezoid" the left edge spans the full height and the right
    edge has length right_height, vertically centered; the mesh covers the
    full bounding rectangle and elements outside the trapezoid are passive.
    """

    width: float
    height: float
    nx: int
    ny: int
    shape: str = "rectangle"
    right_height: float | None = None
    triangulation: str = "cross_split"
    refine_level: int = 0

    def validate(self) -> None:
        if self.shape not in SHAPES:
            raise ValueError(f"unknown shape {self.shape!r}, expected one of {SHAPES}")
        if self.triangulation not in TRIANGULATIONS:
            raise ValueError(
                f"unknown triangulation {self.triangulation!r}, "
                f"expected one of {TRIANGULATIONS}"
            )
        if not (self.width > 0.0 and self.height > 0.0):
            raise ValueError("domain dimensions must be positive")
        if self.nx < 1 or self.ny < 1:
            raise ValueError("nx and ny must be at least 1")
        if self.refine_level < 0:
            raise ValueError("refine_level must be nonnegative")
        if self.shape == "trapezoid":
            if self.right_height is None:
                raise ValueError("trapezoid shape requires right_height")
            if not (0.0 < self.right_height <= self.height):
                raise ValueError("right_height must lie in (0, height]")


@dataclass
class Mesh:
    """Finite element mesh with edge topology.

    conn lists vertex nodes first (counterclockwise); p2 rows append the
    midside nodes of the local edges in fem.LOCAL_EDGES["p2"] order, (0,1),
    (1,2), (2,0) as VTK's quadratic triangle expects. Edge arrays record
    endpoint vertices, the p2 midside id (-1 when absent), the edge kind,
    the one or two adjacent elements (-1 in the second slot on the
    boundary) and the edge length. Treat a constructed mesh as read-only.
    """

    family: str
    nodes: np.ndarray
    conn: np.ndarray
    passive: np.ndarray
    spec: DomainSpec
    edge_nodes: np.ndarray
    edge_mid: np.ndarray
    edge_kind: np.ndarray
    edge_elems: np.ndarray
    edge_length: np.ndarray
    areas: np.ndarray
    centroids: np.ndarray
    diameters: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_elements(self) -> int:
        return self.conn.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edge_nodes.shape[0]

    @property
    def n_vertices(self) -> int:
        """Number of vertex (corner) nodes; excludes p2 midsides."""
        if self.family == "p2":
            return int(self.conn[:, :3].max()) + 1
        return self.n_nodes


def _grid_points(width: float, height: float, nx: int, ny: int) -> np.ndarray:
    xs = np.linspace(0.0, width, nx + 1)
    ys = np.linspace(0.0, height, ny + 1)
    gx, gy = np.meshgrid(xs, ys)
    return np.column_stack([gx.ravel(), gy.ravel()])


def _quad_grid(nx: int, ny: int) -> np.ndarray:
    i, j = np.meshgrid(np.arange(nx), np.arange(ny))
    i, j = i.ravel(), j.ravel()
    n00 = j * (nx + 1) + i
    return np.column_stack([n00, n00 + 1, n00 + nx + 2, n00 + nx + 1])


def _unique_edges(conn: np.ndarray, local=LOCAL_EDGES["p1"]):
    """Group the local edges of every element by their vertex pair.

    Slot s = e * len(local) + i stands for local edge i of element e.
    Returns the sorted unique pairs (lo, hi), the pair of every slot
    (E, len(local)), and per pair its first slot and its second one (-1 on
    the boundary). Raises ValueError when more than two slots share a pair.
    """
    ends = conn[:, np.asarray(local)].reshape(-1, 2).astype(np.int64)
    n = int(conn.max()) + 1
    key = ends.min(axis=1) * n + ends.max(axis=1)
    uniq, first, inverse, count = np.unique(key, return_index=True, return_inverse=True,
                                            return_counts=True)
    if np.any(count > 2):
        bad = int(uniq[np.argmax(count > 2)])
        raise ValueError(f"edge {(bad // n, bad % n)} shared by more than two elements")
    _, last = np.unique(key[::-1], return_index=True)
    second = np.where(count == 2, len(key) - 1 - last, -1)
    pairs = np.column_stack([uniq // n, uniq % n])
    return pairs, inverse.reshape(conn.shape[0], len(local)), first, second


def _with_midpoints(points: np.ndarray, tris: np.ndarray,
                    local=LOCAL_EDGES["p1"]) -> tuple[np.ndarray, np.ndarray]:
    """The points with every edge's midpoint appended, and the midpoint ids
    (E, 3) of each triangle's local edges, in the order of local."""
    pairs, slots, _, _ = _unique_edges(tris, local)
    return np.vstack([points, points[pairs].mean(axis=1)]), len(points) + slots


def _refine_triangulation(points: np.ndarray, tris: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One red refinement sweep: each triangle becomes 4 congruent children."""
    points2, mids = _with_midpoints(points, tris)
    return points2, np.hstack([tris, mids])[:, RED_CHILDREN].reshape(-1, 3)


def _triangle_family(family: str, points: np.ndarray,
                     tris: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and connectivity of the p1 or p2 mesh on a triangulation."""
    if family == "p1":
        return points, tris
    nodes, mids = _with_midpoints(points, tris, LOCAL_EDGES["p2"])
    return nodes, np.hstack([tris, mids])


def _trapezoid_bounds(spec: DomainSpec, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper boundary of the trapezoid at abscissa x."""
    y_lo_right = 0.5 * (spec.height - spec.right_height)
    y_hi_right = 0.5 * (spec.height + spec.right_height)
    t = x / spec.width
    return t * y_lo_right, spec.height + t * (y_hi_right - spec.height)


def _passive_flags(spec: DomainSpec, family: str, nodes: np.ndarray, conn: np.ndarray) -> np.ndarray:
    n_el = conn.shape[0]
    if spec.shape != "trapezoid":
        return np.zeros(n_el, dtype=bool)
    tol = _GEOM_TOL * max(spec.width, spec.height)
    if family == "q1":
        cen = nodes[conn].mean(axis=1)
        lo, hi = _trapezoid_bounds(spec, cen[:, 0])
        return (cen[:, 1] < lo - tol) | (cen[:, 1] > hi + tol)
    # triangles: passive only when all vertices fall on the outside of the
    # same bounding line, which guarantees the whole element lies outside
    verts = nodes[conn[:, :3]]
    lo, hi = _trapezoid_bounds(spec, verts[..., 0].ravel())
    below = (verts[..., 1].ravel() < lo - tol).reshape(n_el, 3)
    above = (verts[..., 1].ravel() > hi + tol).reshape(n_el, 3)
    return below.all(axis=1) | above.all(axis=1)


def _build_mesh(family: str, nodes: np.ndarray, conn: np.ndarray,
                passive: np.ndarray, spec: DomainSpec) -> Mesh:
    local = LOCAL_EDGES[family]
    _, _, first, second = _unique_edges(conn, local)
    # number edges by first appearance, oriented as in their first element
    order = np.argsort(first)
    first, second = first[order], second[order]
    edge_nodes = conn[:, np.asarray(local)].reshape(-1, 2)[first].astype(np.int64)
    mids = conn[:, 3:].ravel()[first] if family == "p2" else np.full(len(first), -1)
    edge_mid = mids.astype(np.int64)
    edge_elems = np.column_stack(
        [first // len(local), np.where(second >= 0, second // len(local), -1)])
    delta = nodes[edge_nodes[:, 1]] - nodes[edge_nodes[:, 0]]
    edge_length = np.hypot(delta[:, 0], delta[:, 1])
    edge_kind = np.where(edge_elems[:, 1] < 0, NEUMANN, INTERIOR).astype(np.int8)

    nv = len(REF_CORNERS[family])
    verts = nodes[conn[:, :nv]]
    x, y = verts[..., 0], verts[..., 1]
    xn, yn = np.roll(x, -1, axis=1), np.roll(y, -1, axis=1)
    areas = 0.5 * np.sum(x * yn - xn * y, axis=1)
    if not np.all(areas > 0.0):
        bad = int(np.argmin(areas > 0.0))
        raise ValueError(f"element {bad} is not counterclockwise (area {areas[bad]:g})")
    centroids = verts.mean(axis=1)
    first_v, second_v = np.triu_indices(nv, 1)
    diffs = verts[:, first_v] - verts[:, second_v]
    diameters = np.sqrt((diffs ** 2).sum(axis=-1).max(axis=1))

    return Mesh(
        family=family,
        nodes=nodes,
        conn=conn,
        passive=passive,
        spec=spec,
        edge_nodes=edge_nodes,
        edge_mid=edge_mid,
        edge_kind=edge_kind,
        edge_elems=edge_elems,
        edge_length=edge_length,
        areas=areas,
        centroids=centroids,
        diameters=diameters,
    )


def generate_mesh(spec: DomainSpec, family: str) -> Mesh:
    """Generate a mesh of the requested family over the domain.

    Quad grids honour refine_level by doubling nx and ny per level;
    triangle meshes apply red refinement to the base triangulation.
    """
    check_family(family)
    spec.validate()

    if family == "q1":
        factor = 2 ** spec.refine_level
        nx, ny = spec.nx * factor, spec.ny * factor
        nodes = _grid_points(spec.width, spec.height, nx, ny)
        conn = _quad_grid(nx, ny)
    else:
        points = _grid_points(spec.width, spec.height, spec.nx, spec.ny)
        cells = _quad_grid(spec.nx, spec.ny)
        if spec.triangulation == "cross_split":
            centres = len(points) + np.arange(len(cells))
            points = np.vstack([points, points[cells].mean(axis=1)])
            cells = np.column_stack([cells, centres])
        tris = cells[:, CELL_SPLITS[spec.triangulation]].reshape(-1, 3)
        for _ in range(spec.refine_level):
            points, tris = _refine_triangulation(points, tris)
        nodes, conn = _triangle_family(family, points, tris)

    passive = _passive_flags(spec, family, nodes, conn)
    return _build_mesh(family, nodes, conn, passive, spec)


def refine_uniform(mesh: Mesh) -> Mesh:
    """Red refinement of a triangle mesh: 4 congruent children per element.

    Children inherit the parent's passive flag. Quad meshes are regenerated
    from a finer DomainSpec instead.
    """
    if mesh.family == "q1":
        raise ValueError(
            "refine_uniform applies to triangle meshes; regenerate q1 grids "
            "from a DomainSpec with a higher refine_level"
        )
    points, tris = _refine_triangulation(mesh.nodes[:mesh.n_vertices], mesh.conn[:, :3])
    nodes, conn = _triangle_family(mesh.family, points, tris)
    spec = dataclasses.replace(mesh.spec, refine_level=mesh.spec.refine_level + 1)
    return _build_mesh(mesh.family, nodes, conn, np.repeat(mesh.passive, 4), spec)


def classify_boundary(mesh: Mesh, case) -> Mesh:
    """Label boundary edges from a load case's fixed nodes.

    A boundary edge becomes DIRICHLET when both endpoint vertices are
    fixed, NEUMANN otherwise. `case` is a LoadCase or an array of node ids.
    Returns a new mesh sharing all other arrays.
    """
    fixed = np.asarray(getattr(case, "fixed_nodes", case), dtype=np.int64)
    if np.any((fixed < 0) | (fixed >= mesh.n_nodes)):
        raise ValueError(f"fixed nodes must lie in [0, {mesh.n_nodes})")
    is_fixed = np.zeros(mesh.n_nodes, dtype=bool)
    is_fixed[fixed] = True
    kind = mesh.edge_kind.copy()
    boundary = mesh.edge_elems[:, 1] < 0
    both = is_fixed[mesh.edge_nodes[:, 0]] & is_fixed[mesh.edge_nodes[:, 1]]
    kind[boundary & both] = DIRICHLET
    kind[boundary & ~both] = NEUMANN
    return dataclasses.replace(mesh, edge_kind=kind)


def boundary_node_ids(mesh: Mesh) -> np.ndarray:
    """Ids of all nodes lying on boundary edges, midsides included."""
    boundary = mesh.edge_elems[:, 1] < 0
    ids = [mesh.edge_nodes[boundary].ravel()]
    mids = mesh.edge_mid[boundary]
    ids.append(mids[mids >= 0])
    return np.unique(np.concatenate(ids))


def edge_points(mesh: Mesh, edges: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Points at parameters t (q,) along the given edges, shape (m, q, 2)."""
    a = mesh.nodes[mesh.edge_nodes[edges, 0]]
    b = mesh.nodes[mesh.edge_nodes[edges, 1]]
    return a[:, None, :] + t[None, :, None] * (b - a)[:, None, :]


def edge_ends(mesh: Mesh, edges: np.ndarray,
              side: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each edge's side-th adjacent element (m,), that element's local vertex
    at each edge end (m, 2), and the unit normals (m, 2) pointing out of it.

    Elements are counterclockwise, so the clockwise-rotated tangent points
    outward when the element runs the edge from local vertex i to i + 1
    (mod nv), and is negated otherwise. Raises ValueError when an end is not
    a vertex of the element, when the ends are not adjacent (a q1 diagonal),
    or when the edge has no side-th element.
    """
    edges = np.asarray(edges)
    nv = len(REF_CORNERS[mesh.family])
    elems = mesh.edge_elems[edges, side]
    match = mesh.conn[elems, :nv][:, None, :] == mesh.edge_nodes[edges][:, :, None]
    ends = match.argmax(axis=2)
    step = (ends[:, 1] - ends[:, 0]) % nv
    owned = (elems >= 0) & match.any(axis=2).all(axis=1) & ((step == 1) | (step == nv - 1))
    if not owned.all():
        bad = int(np.argmin(owned))
        raise ValueError(f"edge {edges[bad]} is not an edge of element {elems[bad]}")

    tang = mesh.nodes[mesh.edge_nodes[edges, 1]] - mesh.nodes[mesh.edge_nodes[edges, 0]]
    normal = np.stack([tang[:, 1], -tang[:, 0]], axis=1)
    normal /= np.linalg.norm(normal, axis=1, keepdims=True)
    normal[step != 1] *= -1.0
    return elems, ends, normal


def edge_trace(mesh: Mesh, edges: np.ndarray, t: np.ndarray,
               side: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The edges as seen from their side-th adjacent element.

    Returns the reference coordinates (m, q, 2) of edge_points(mesh, edges, t)
    in that element and the unit normals (m, 2) pointing out of it, both from
    edge_ends: the reference corners at the edge's ends, in the edge's own
    order, hold for either orientation. Raises ValueError as edge_ends does.
    """
    _, ends, normal = edge_ends(mesh, edges, side)
    corners = REF_CORNERS[mesh.family][ends]
    ref = corners[:, None, 0] + t[None, :, None] * (corners[:, None, 1] - corners[:, None, 0])
    return ref, normal


def nearest_node(mesh: Mesh, x: float, y: float) -> int:
    """Id of the node closest to (x, y); ties resolve to the lowest id."""
    d2 = (mesh.nodes[:, 0] - x) ** 2 + (mesh.nodes[:, 1] - y) ** 2
    return int(np.argmin(d2))


_VTK_CELL_TYPE = {"p1": 5, "q1": 9, "p2": 22}


def write_rows(fh, columns, sep: str = " ", end: str = "\n") -> None:
    """One line per row: the reprs of the columns' values, joined by sep.

    One %-format over a row pattern repeated per row formats the whole
    table in C, with each value's type kept (an int column prints as ints).
    """
    cells = [np.asarray(col).tolist() for col in columns]
    row = sep.join(["%r"] * len(cells)) + end
    fh.write(row * len(cells[0]) % tuple(chain.from_iterable(zip(*cells))))


def write_vtk(mesh: Mesh, path, cell_data: dict | None = None) -> None:
    """Write the mesh as legacy ASCII VTK with optional per-element scalars."""
    k = ELEMENT_NODES[mesh.family]
    n_el = mesh.n_elements
    scalars = {}
    for name, values in (cell_data or {}).items():
        scalars[name] = np.asarray(values, dtype=float)
        if scalars[name].shape != (n_el,):
            raise ValueError(f"cell data {name!r} must have one value per element")
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\ntopo2d mesh\nASCII\n"
                 f"DATASET UNSTRUCTURED_GRID\nPOINTS {mesh.n_nodes} double\n")
        write_rows(fh, [mesh.nodes[:, 0], mesh.nodes[:, 1], np.zeros(mesh.n_nodes)])
        fh.write(f"CELLS {n_el} {n_el * (k + 1)}\n")
        write_rows(fh, [np.full(n_el, k), *mesh.conn.T])
        fh.write(f"CELL_TYPES {n_el}\n" + f"{_VTK_CELL_TYPE[mesh.family]}\n" * n_el)
        if scalars:
            fh.write(f"CELL_DATA {n_el}\n")
        for name, values in scalars.items():
            fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            write_rows(fh, [values])
