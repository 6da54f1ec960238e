"""Mesh generation, edge topology, refinement, classification, VTK output."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topo2d.fem import ELEMENT_NODES, edge_quadrature_3pt, reference_coords, shape_functions_at
from topo2d.mesh import (DIRICHLET, INTERIOR, NEUMANN, SHAPES, TRIANGULATIONS,
                         DomainSpec, _build_mesh, boundary_node_ids, classify_boundary,
                         edge_points, edge_trace, generate_mesh, nearest_node,
                         refine_uniform, write_vtk)
from topo2d.presets import build_load_case, preset_domain_spec
from topo2d.solver import LoadCase


def test_q1_grid_counts():
    mesh = generate_mesh(DomainSpec(32.0, 20.0, 32, 20), "q1")
    assert mesh.n_elements == 640
    assert mesh.n_nodes == 33 * 21
    # edges: horizontal runs + vertical runs
    assert mesh.n_edges == 33 * 20 + 32 * 21


def test_two_split_counts():
    mesh = generate_mesh(
        DomainSpec(4.0, 3.0, 4, 3, triangulation="two_split"), "p1")
    assert mesh.n_elements == 24
    assert mesh.n_nodes == 20
    # Euler: V - E + F = 1 for a planar triangulated disc
    assert mesh.n_nodes - mesh.n_edges + mesh.n_elements == 1


def test_cross_split_counts():
    mesh = generate_mesh(
        DomainSpec(4.0, 3.0, 4, 3, triangulation="cross_split"), "p1")
    assert mesh.n_elements == 48
    assert mesh.n_nodes == 20 + 12  # grid nodes plus one center per cell
    assert mesh.n_nodes - mesh.n_edges + mesh.n_elements == 1


def test_numbering_convention_literal():
    # the raster's tie rule (lowest id wins) rests on this exact numbering;
    # grid nodes run (0,0), (1,0), (0,1), (1,1), then the cell centre
    two = generate_mesh(DomainSpec(1.0, 1.0, 1, 1, triangulation="two_split"), "p1")
    np.testing.assert_array_equal(two.conn, [[0, 1, 3], [0, 3, 2]])
    cross = generate_mesh(DomainSpec(1.0, 1.0, 1, 1, triangulation="cross_split"), "p1")
    np.testing.assert_array_equal(cross.conn, [[0, 1, 4], [1, 3, 4], [3, 2, 4], [2, 0, 4]])
    np.testing.assert_array_equal(cross.nodes[4], [0.5, 0.5])
    # red children of (v0, v1, v2): three corners, then the middle one, over
    # the midpoints m01, m12, m20; midpoint ids follow the sorted vertex pairs
    fine = refine_uniform(two)
    np.testing.assert_array_equal(fine.nodes[4:], [[0.5, 0.0], [0.0, 0.5], [0.5, 0.5],
                                                   [1.0, 0.5], [0.5, 1.0]])
    np.testing.assert_array_equal(fine.conn[:4], [[0, 4, 6], [4, 1, 7], [6, 7, 3], [4, 7, 6]])


def test_benchmark_scale_triangle_counts():
    assert generate_mesh(
        DomainSpec(32.0, 20.0, 24, 24, triangulation="cross_split"),
        "p1").n_elements == 2304
    assert generate_mesh(
        DomainSpec(32.0, 20.0, 48, 48, triangulation="cross_split"),
        "p2").n_elements == 9216
    assert generate_mesh(
        DomainSpec(30.0, 30.0, 32, 32, triangulation="cross_split"),
        "p1").n_elements == 4096
    spec = DomainSpec(30.0, 30.0, 32, 32, triangulation="cross_split",
                      refine_level=1)
    assert generate_mesh(spec, "p1").n_elements == 16384


def test_p2_midside_nodes():
    mesh = generate_mesh(
        DomainSpec(2.0, 1.0, 2, 1, triangulation="two_split"), "p2")
    verts = mesh.conn[:, :3]
    mids = mesh.conn[:, 3:]
    slots = [(0, 1), (1, 2), (2, 0)]
    for e in range(mesh.n_elements):
        for s, (a, b) in enumerate(slots):
            expect = 0.5 * (mesh.nodes[verts[e, a]] + mesh.nodes[verts[e, b]])
            np.testing.assert_allclose(mesh.nodes[mids[e, s]], expect,
                                       atol=1e-12)


def test_areas_and_centroids():
    mesh = generate_mesh(
        DomainSpec(4.0, 3.0, 4, 3, triangulation="cross_split"), "p1")
    assert abs(mesh.areas.sum() - 12.0) < 1e-12
    mesh_q = generate_mesh(DomainSpec(4.0, 3.0, 4, 3), "q1")
    np.testing.assert_allclose(mesh_q.areas, 1.0, atol=1e-12)
    np.testing.assert_allclose(mesh_q.diameters, np.sqrt(2.0), atol=1e-12)
    assert abs(mesh_q.centroids[0, 0] - 0.5) < 1e-12
    assert abs(mesh_q.centroids[0, 1] - 0.5) < 1e-12


def edge_oracle(mesh):
    """Independent edge census from raw connectivity."""
    counts = {}
    local = {4: ((0, 1), (1, 2), (2, 3), (3, 0)),
             3: ((0, 1), (1, 2), (2, 0)),
             6: ((0, 1), (1, 2), (2, 0))}[mesh.conn.shape[1]]
    verts = mesh.conn[:, :4] if mesh.conn.shape[1] == 4 else mesh.conn[:, :3]
    for row in verts:
        for a, b in local:
            key = (min(row[a], row[b]), max(row[a], row[b]))
            counts[key] = counts.get(key, 0) + 1
    return counts


@pytest.mark.parametrize("family,tri", [("q1", "two_split"),
                                        ("p1", "two_split"),
                                        ("p1", "cross_split"),
                                        ("p2", "cross_split")])
def test_edge_topology_against_oracle(family, tri):
    mesh = generate_mesh(
        DomainSpec(5.0, 4.0, 5, 4, triangulation=tri), family)
    oracle = edge_oracle(mesh)
    assert mesh.n_edges == len(oracle)
    for e in range(mesh.n_edges):
        key = tuple(sorted(mesh.edge_nodes[e]))
        adjacency = oracle[key]
        if adjacency == 2:
            assert mesh.edge_elems[e, 1] >= 0
        else:
            assert adjacency == 1
            assert mesh.edge_elems[e, 1] == -1
        a, b = mesh.nodes[mesh.edge_nodes[e, 0]], mesh.nodes[mesh.edge_nodes[e, 1]]
        assert abs(mesh.edge_length[e] - np.linalg.norm(b - a)) < 1e-12


def flip_edge_orientation(mesh):
    """The same mesh with every edge stored reversed and its two sides swapped."""
    elems = mesh.edge_elems.copy()
    interior = elems[:, 1] >= 0
    elems[interior] = elems[interior][:, ::-1]
    return dataclasses.replace(mesh, edge_nodes=mesh.edge_nodes[:, ::-1].copy(),
                               edge_elems=elems)


@pytest.mark.parametrize("refine", [0, 1])
@pytest.mark.parametrize("tri", ["two_split", "cross_split"])
@pytest.mark.parametrize("family", ["q1", "p1", "p2"])
def test_edge_trace_against_inverse_map(family, tri, refine):
    base = generate_mesh(
        DomainSpec(3.0, 1.5, 3, 2, triangulation=tri, refine_level=refine), family)
    t, _ = edge_quadrature_3pt()
    for mesh in (base, flip_edge_orientation(base)):
        for side in (0, 1):
            edges = np.flatnonzero(mesh.edge_elems[:, side] >= 0)
            ref, normal = edge_trace(mesh, edges, t, side)
            pts = edge_points(mesh, edges, t)
            elems = mesh.edge_elems[edges, side]
            coords = mesh.nodes[mesh.conn[elems]]
            values, _ = shape_functions_at(family, ref.reshape(-1, 2))
            mapped = np.einsum("mqk,mkc->mqc",
                               values.reshape(len(edges), len(t), -1), coords)
            np.testing.assert_allclose(mapped, pts, rtol=0, atol=1e-12)
            oracle = reference_coords(family, np.repeat(coords, len(t), axis=0),
                                      pts.reshape(-1, 2))
            np.testing.assert_allclose(ref.reshape(-1, 2), oracle, rtol=0, atol=1e-10)

            np.testing.assert_allclose(np.linalg.norm(normal, axis=1), 1.0, atol=1e-12)
            tangent = pts[:, -1] - pts[:, 0]
            assert np.abs(np.einsum("mc,mc->m", normal, tangent)).max() < 1e-12
            mid = pts[:, 1]  # t[1] = 0.5
            assert np.all(np.einsum("mc,mc->m", normal, mid - mesh.centroids[elems]) > 0.0)

    wrong = dataclasses.replace(base, edge_elems=np.roll(base.edge_elems, 1, axis=0))
    # a boundary edge has no second element: the -1 in that slot must refuse,
    # not index the last element (which owns two of them on q1 grids)
    boundary = np.flatnonzero(base.edge_elems[:, 1] < 0)
    owner = base.edge_elems[boundary, 0]
    last = boundary[owner == owner.max()]
    for mesh, edges, side in ((wrong, np.arange(base.n_edges), 0), (base, last, 1)):
        with pytest.raises(ValueError, match="is not an edge of element"):
            edge_trace(mesh, edges, t, side)


def test_trapezoid_passive_q1_matches_centroid_oracle():
    spec = preset_domain_spec("bevel")
    assert spec.shape == "trapezoid"
    mesh = generate_mesh(spec, "q1")
    assert mesh.n_elements == 1200
    # oracle: centroid outside the trapezoid with straight top edge from
    # (0, H) to (W, (H + rH)/2 ... the bevel keeps the mid-height line, so
    # lower and upper bounds are symmetric about y = H/2.
    W, H = spec.width, spec.height
    rh = spec.right_height
    cx, cy = mesh.centroids[:, 0], mesh.centroids[:, 1]
    y_hi = H / 2 + (H / 2 - (H - rh) / 2 * cx / W) * 1.0
    upper = H - (H - rh) / 2 * cx / W
    lower = (H - rh) / 2 * cx / W
    outside = (cy > upper) | (cy < lower)
    np.testing.assert_array_equal(mesh.passive, outside)
    assert 0 < mesh.passive.sum() < mesh.n_elements


def test_trapezoid_passive_triangles_all_vertices_outside():
    spec = preset_domain_spec("bevel", nx=20, ny=15)
    mesh = generate_mesh(spec, "p1")
    W, H = spec.width, spec.height
    rh = spec.right_height

    def above(pt):
        return pt[1] > H - (H - rh) / 2 * pt[0] / W + 1e-9

    def below(pt):
        return pt[1] < (H - rh) / 2 * pt[0] / W - 1e-9

    for e in range(mesh.n_elements):
        pts = mesh.nodes[mesh.conn[e, :3]]
        expect = all(above(p) for p in pts) or all(below(p) for p in pts)
        assert bool(mesh.passive[e]) == expect, e


@pytest.mark.parametrize("family", ["q1", "p1", "p2"])
def test_misoriented_or_nan_element_rejected(family):
    mesh = generate_mesh(DomainSpec(3.0, 1.0, 3, 1), family)
    nv = 4 if family == "q1" else 3
    conn = mesh.conn.copy()
    conn[2, :nv] = conn[2, nv - 1::-1]
    with pytest.raises(ValueError, match=r"element 2 is not counterclockwise \(area -"):
        _build_mesh(family, mesh.nodes, conn, mesh.passive, mesh.spec)
    # NaN compares False with <= 0 as well as with > 0
    nodes = mesh.nodes.copy()
    nodes[mesh.conn[1, 0]] = np.nan
    first = int(np.flatnonzero((mesh.conn == mesh.conn[1, 0]).any(axis=1))[0])
    with pytest.raises(ValueError, match=f"element {first} is not counterclockwise \\(area nan"):
        _build_mesh(family, nodes, mesh.conn, mesh.passive, mesh.spec)
    # a repeated element puts a third element on its interior edges
    conn = np.vstack([mesh.conn, mesh.conn[:1]])
    with pytest.raises(ValueError, match="shared by more than two elements"):
        _build_mesh(family, mesh.nodes, conn, np.append(mesh.passive, False), mesh.spec)


def test_refine_uniform_triangles():
    spec = DomainSpec(4.0, 3.0, 4, 3, triangulation="cross_split")
    for family in ("p1", "p2"):
        mesh = generate_mesh(spec, family)
        fine = refine_uniform(mesh)
        assert fine.n_elements == 4 * mesh.n_elements
        assert abs(fine.areas.sum() - mesh.areas.sum()) < 1e-12
        assert fine.spec.refine_level == mesh.spec.refine_level + 1
        # children inherit the parent's passive flag (none here)
        assert not fine.passive.any()
        # parent vertices survive with identical coordinates
        n_coarse_vertices = mesh.n_vertices
        np.testing.assert_allclose(fine.nodes[:n_coarse_vertices],
                                   mesh.nodes[:n_coarse_vertices], atol=0)


def test_refine_uniform_passive_inheritance():
    spec = preset_domain_spec("bevel", nx=10, ny=8)
    mesh = generate_mesh(spec, "p1")
    fine = refine_uniform(mesh)
    np.testing.assert_array_equal(fine.passive, np.repeat(mesh.passive, 4))


def test_refine_uniform_q1_rejected():
    mesh = generate_mesh(DomainSpec(2.0, 2.0, 2, 2), "q1")
    with pytest.raises(ValueError):
        refine_uniform(mesh)


def test_q1_refine_level_via_spec():
    spec = DomainSpec(2.0, 2.0, 2, 2, refine_level=2)
    mesh = generate_mesh(spec, "q1")
    assert mesh.n_elements == 64  # 2x2 grid doubled twice -> 8x8


def test_generate_mesh_deterministic():
    spec = DomainSpec(6.0, 5.0, 6, 5, triangulation="cross_split")
    a = generate_mesh(spec, "p2")
    b = generate_mesh(spec, "p2")
    np.testing.assert_array_equal(a.conn, b.conn)
    np.testing.assert_array_equal(a.nodes, b.nodes)
    np.testing.assert_array_equal(a.edge_nodes, b.edge_nodes)


def test_classify_boundary_cantilever():
    spec = preset_domain_spec("cantilever", nx=8, ny=5)
    mesh = generate_mesh(spec, "q1")
    case = build_load_case("cantilever", mesh)
    mesh = classify_boundary(mesh, case)
    left = np.isclose(mesh.nodes[mesh.edge_nodes][:, :, 0], 0.0).all(axis=1)
    boundary = mesh.edge_elems[:, 1] == -1
    assert np.all(mesh.edge_kind[left & boundary] == DIRICHLET)
    assert np.all(mesh.edge_kind[~left & boundary] == NEUMANN)
    assert np.all(mesh.edge_kind[~boundary] == INTERIOR)


def test_classify_boundary_bridge_point_supports():
    spec = preset_domain_spec("bridge", nx=8, ny=8)
    mesh = generate_mesh(spec, "p1")
    case = build_load_case("bridge", mesh)
    mesh = classify_boundary(mesh, case)
    boundary = mesh.edge_elems[:, 1] == -1
    # point supports pin single nodes, so no edge has both endpoints fixed
    assert np.all(mesh.edge_kind[boundary] == NEUMANN)


def test_classify_boundary_explicit_nodes():
    mesh = generate_mesh(DomainSpec(2.0, 1.0, 2, 1), "q1")
    bottom = np.where(np.isclose(mesh.nodes[:, 1], 0.0))[0]
    case = LoadCase(fixed_nodes=bottom)
    out = classify_boundary(mesh, case)
    boundary = out.edge_elems[:, 1] == -1
    on_bottom = np.isclose(out.nodes[out.edge_nodes][:, :, 1], 0.0).all(axis=1)
    assert np.all(out.edge_kind[boundary & on_bottom] == DIRICHLET)
    assert np.all(out.edge_kind[boundary & ~on_bottom] == NEUMANN)


def test_boundary_node_ids_p2_includes_midsides():
    mesh = generate_mesh(
        DomainSpec(2.0, 2.0, 2, 2, triangulation="two_split"), "p2")
    ids = boundary_node_ids(mesh)
    pts = mesh.nodes[ids]
    on_rim = (np.isclose(pts[:, 0], 0) | np.isclose(pts[:, 0], 2)
              | np.isclose(pts[:, 1], 0) | np.isclose(pts[:, 1], 2))
    assert on_rim.all()
    # 8 rim vertices ... 2x2 grid: 8 rim grid nodes + 8 rim midsides
    assert len(ids) == 16


def test_nearest_node():
    mesh = generate_mesh(DomainSpec(4.0, 3.0, 4, 3), "q1")
    n = nearest_node(mesh, 4.0, 0.0)
    np.testing.assert_allclose(mesh.nodes[n], [4.0, 0.0], atol=1e-12)
    n = nearest_node(mesh, 3.9, 0.1)
    np.testing.assert_allclose(mesh.nodes[n], [4.0, 0.0], atol=1e-12)


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        DomainSpec(0.0, 1.0, 2, 2).validate()
    with pytest.raises(ValueError):
        DomainSpec(1.0, 1.0, 0, 2).validate()
    with pytest.raises(ValueError):
        DomainSpec(1.0, 1.0, 2, 2, triangulation="fan").validate()
    with pytest.raises(ValueError):
        DomainSpec(1.0, 1.0, 2, 2, shape="hexagon").validate()
    with pytest.raises(ValueError):
        DomainSpec(1.0, 1.0, 2, 2, shape="trapezoid",
                   right_height=2.0).validate()
    with pytest.raises(ValueError, match="refine_level must be nonnegative"):
        DomainSpec(1.0, 1.0, 2, 2, refine_level=-1).validate()
    with pytest.raises(ValueError, match="trapezoid shape requires right_height"):
        DomainSpec(1.0, 1.0, 2, 2, shape="trapezoid").validate()
    with pytest.raises(ValueError):
        generate_mesh(DomainSpec(1.0, 1.0, 2, 2), "q9")


def test_write_vtk_roundtrip(tmp_path):
    mesh = generate_mesh(
        DomainSpec(2.0, 1.0, 2, 1, triangulation="cross_split"), "p1")
    path = tmp_path / "mesh.vtk"
    write_vtk(mesh, path, cell_data={"density": np.linspace(0, 1, mesh.n_elements)})
    text = path.read_text().splitlines()
    assert text[0].startswith("# vtk DataFile")
    ip = text.index([l for l in text if l.startswith("POINTS")][0])
    n_pts = int(text[ip].split()[1])
    assert n_pts == mesh.n_nodes
    pts = []
    for line in text[ip + 1:ip + 1 + n_pts]:
        xs = [float(v) for v in line.split()]
        pts.append(xs[:2])
    np.testing.assert_allclose(np.array(pts), mesh.nodes, atol=1e-12)
    ic = text.index([l for l in text if l.startswith("CELLS")][0])
    n_cells = int(text[ic].split()[1])
    assert n_cells == mesh.n_elements
    first = [int(v) for v in text[ic + 1].split()]
    assert first[0] == 3
    np.testing.assert_array_equal(first[1:], mesh.conn[0])
    assert any(l.startswith("CELL_DATA") for l in text)
    assert any("density" in l for l in text)


def reference_write_vtk(mesh, path, cell_data=None):
    """The one-f-string-per-line writer that write_vtk streams, kept as the
    byte oracle."""
    k = ELEMENT_NODES[mesh.family]
    lines = ["# vtk DataFile Version 3.0", "topo2d mesh", "ASCII",
             "DATASET UNSTRUCTURED_GRID", f"POINTS {mesh.n_nodes} double"]
    lines.extend(f"{float(x)!r} {float(y)!r} 0.0" for x, y in mesh.nodes)
    lines.append(f"CELLS {mesh.n_elements} {mesh.n_elements * (k + 1)}")
    lines.extend(f"{k} " + " ".join(str(n) for n in row) for row in mesh.conn)
    lines.append(f"CELL_TYPES {mesh.n_elements}")
    cell_type = {"p1": 5, "q1": 9, "p2": 22}[mesh.family]
    lines.extend(str(cell_type) for _ in range(mesh.n_elements))
    if cell_data:
        lines.append(f"CELL_DATA {mesh.n_elements}")
        for name, values in cell_data.items():
            lines.append(f"SCALARS {name} double 1")
            lines.append("LOOKUP_TABLE default")
            lines.extend(f"{float(v)!r}" for v in np.asarray(values, dtype=float))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


@pytest.mark.parametrize("family", ["q1", "p1", "p2"])
def test_write_vtk_bytes_match_reference(family, tmp_path):
    spec = DomainSpec(3.0, 2.0, 3, 2, shape="trapezoid", right_height=0.7,
                      triangulation="cross_split", refine_level=1)
    mesh = generate_mesh(spec, family)
    rng = np.random.default_rng(5)
    # awkward floats: many digits, tiny, negative zero, integers as floats
    values = rng.uniform(1e-3, 1.0, mesh.n_elements) / 3.0
    values[:3] = (1e-300, -0.0, 1.0)
    for cell_data in (None, {"density": values, "rank": np.arange(mesh.n_elements)}):
        write_vtk(mesh, tmp_path / "new.vtk", cell_data=cell_data)
        reference_write_vtk(mesh, tmp_path / "ref.vtk", cell_data=cell_data)
        assert (tmp_path / "new.vtk").read_bytes() == (tmp_path / "ref.vtk").read_bytes()

    # a bad array is refused before the file is opened
    with pytest.raises(ValueError, match="one value per element"):
        write_vtk(mesh, tmp_path / "bad.vtk", cell_data={"density": values[:-1]})
    assert not (tmp_path / "bad.vtk").exists()


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(["q1", "p1", "p2"]), nx=st.integers(1, 5), ny=st.integers(1, 5),
       shape=st.sampled_from(SHAPES), tri=st.sampled_from(TRIANGULATIONS),
       refine=st.integers(0, 2), width=st.floats(0.5, 40.0), height=st.floats(0.5, 40.0))
def test_mesh_invariants(family, nx, ny, shape, tri, refine, width, height):
    spec = DomainSpec(width, height, nx, ny, shape=shape, triangulation=tri,
                      right_height=height / 3.0 if shape == "trapezoid" else None,
                      refine_level=refine)
    mesh = generate_mesh(spec, family)

    # the elements tile the bounding rectangle, passive ones included
    assert np.all(mesh.areas > 0.0)
    assert mesh.areas.sum() == pytest.approx(width * height, rel=1e-12)

    # the diameter is the longest distance between two vertices
    verts = mesh.nodes[mesh.conn[:, :4 if family == "q1" else 3]]
    pair_lengths = [np.sqrt(((verts[:, i] - verts[:, j]) ** 2).sum(axis=1))
                    for i in range(verts.shape[1]) for j in range(i)]
    np.testing.assert_array_equal(mesh.diameters, np.max(pair_lengths, axis=0))

    # an edge has one element on the rectangle's boundary, two distinct inside
    ends = mesh.nodes[mesh.edge_nodes]
    on_side = np.zeros(mesh.n_edges, dtype=bool)
    for axis, extent in ((0, width), (1, height)):
        for value in (0.0, extent):
            on_side |= np.all(np.abs(ends[:, :, axis] - value) <= 1e-9 * extent, axis=1)
    first, second = mesh.edge_elems.T
    np.testing.assert_array_equal(second < 0, on_side)
    assert np.all(first[~on_side] != second[~on_side])
    assert np.all((first >= 0) & (first < mesh.n_elements) & (second < mesh.n_elements))
    sides = 4 if family == "q1" else 3
    np.testing.assert_array_equal(
        np.bincount(mesh.edge_elems[mesh.edge_elems >= 0], minlength=mesh.n_elements), sides)

    if family != "q1":
        # base cell c = j*nx + i owns the elements c*m .. (c+1)*m - 1
        m = (4 if tri == "cross_split" else 2) * 4 ** refine
        cell = np.arange(mesh.n_elements) // m
        i, j = cell % nx, cell // nx
        u = mesh.centroids[:, 0] / (width / nx) - i
        v = mesh.centroids[:, 1] / (height / ny) - j
        assert np.all((u > 0.0) & (u < 1.0) & (v > 0.0) & (v < 1.0))
