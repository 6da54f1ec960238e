"""Error estimator: divergence oracles, jump/Neumann identities, reports."""

import csv
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topo2d import estimator
from topo2d.estimator import (ErrorBreakdown, bulk_residual, estimate,
                              jump_residual, neumann_residual,
                              stress_divergence, write_error_report)
from topo2d.fem import Material, edge_quadrature_3pt, elasticity_matrix, gradients_physical
from topo2d.mesh import (DIRICHLET, INTERIOR, NEUMANN, DomainSpec, _build_mesh,
                         classify_boundary, edge_points, edge_trace, generate_mesh)
from topo2d.presets import build_load_case, preset_domain_spec
from topo2d.solver import LoadCase, assemble, solve

MAT = Material()
AMAT = elasticity_matrix(MAT)


def nodal_field(mesh, fx, fy):
    """Interleaved dof vector sampling (fx, fy) at all node coordinates."""
    U = np.empty(2 * mesh.n_nodes)
    U[0::2] = fx(mesh.nodes[:, 0], mesh.nodes[:, 1])
    U[1::2] = fy(mesh.nodes[:, 0], mesh.nodes[:, 1])
    return U


def west_clamped(mesh):
    fixed = np.flatnonzero(np.isclose(mesh.nodes[:, 0], 0.0))
    return LoadCase(fixed_nodes=fixed)


def test_p1_zero_bulk_without_body_force():
    # piecewise-constant stress has no divergence, so the volumetric
    # residual must vanish identically, not merely to roundoff
    mesh = generate_mesh(DomainSpec(4.0, 3.0, 4, 3, triangulation="cross_split"), "p1")
    rng = np.random.default_rng(11)
    U = rng.standard_normal(2 * mesh.n_nodes)
    bulk = bulk_residual(mesh, MAT, U)
    assert np.all(bulk == 0.0)


def test_stress_divergence_p2_quadratic_oracle():
    # u_x = a x^2 + b x y, u_y = c y^2 + d x y gives a constant divergence
    # with closed form in the moduli
    a, b, c, d = 0.03, -0.02, 0.05, 0.04
    mesh = generate_mesh(DomainSpec(3.0, 2.0, 3, 2, triangulation="two_split"), "p2")
    U = nodal_field(mesh, lambda x, y: a * x**2 + b * x * y,
                    lambda x, y: c * y**2 + d * x * y)
    div = stress_divergence(mesh, MAT, U)
    expected_x = 2.0 * a * AMAT[0, 0] + d * (AMAT[0, 1] + AMAT[2, 2])
    expected_y = 2.0 * c * AMAT[0, 0] + b * (AMAT[0, 1] + AMAT[2, 2])
    np.testing.assert_allclose(div[:, 0], expected_x, rtol=1e-12)
    np.testing.assert_allclose(div[:, 1], expected_y, rtol=1e-12)


def test_stress_divergence_q1_bilinear_oracle():
    # the bilinear cross terms u_x = a x y, u_y = b x y are the only source
    # of divergence on axis-aligned rectangles
    a, b = 0.07, -0.03
    mesh = generate_mesh(DomainSpec(4.0, 2.0, 4, 2), "q1")
    U = nodal_field(mesh, lambda x, y: a * x * y, lambda x, y: b * x * y)
    div = stress_divergence(mesh, MAT, U)
    np.testing.assert_allclose(div[:, 0], (AMAT[0, 1] + AMAT[2, 2]) * b, rtol=1e-12)
    np.testing.assert_allclose(div[:, 1], (AMAT[0, 1] + AMAT[2, 2]) * a, rtol=1e-12)


@pytest.mark.parametrize("family,tri", [("q1", "two_split"),
                                        ("p1", "cross_split"),
                                        ("p2", "two_split")])
def test_linear_field_has_no_jumps(family, tri):
    mesh = generate_mesh(DomainSpec(3.0, 3.0, 3, 3, triangulation=tri), family)
    U = nodal_field(mesh, lambda x, y: 0.02 * x + 0.05 * y,
                    lambda x, y: -0.01 * x + 0.03 * y)
    jump = jump_residual(mesh, MAT, U)
    assert np.abs(jump).max() <= 1e-12
    bulk = bulk_residual(mesh, MAT, U)
    assert np.abs(bulk).max() <= 1e-12


def plane_stress_of_triangle(coords, ux, uy):
    """Constant stress of the linear interpolant over one triangle."""
    V = np.column_stack([np.ones(3), coords[:, 0], coords[:, 1]])
    cx = np.linalg.solve(V, ux)
    cy = np.linalg.solve(V, uy)
    strain = np.array([cx[1], cy[2], cx[2] + cy[1]])
    return AMAT @ strain


def test_two_triangle_jump_hand_computed():
    mesh = generate_mesh(DomainSpec(1.0, 1.0, 1, 1, triangulation="two_split"), "p1")
    assert mesh.n_elements == 2
    U = nodal_field(mesh, lambda x, y: x**2, lambda x, y: 0.0 * x)

    interior = np.flatnonzero(mesh.edge_kind == INTERIOR)
    assert len(interior) == 1
    edge = int(interior[0])
    e0, e1 = mesh.edge_elems[edge]
    sig = []
    for e in (e0, e1):
        coords = mesh.nodes[mesh.conn[e]]
        sig.append(plane_stress_of_triangle(coords, U[2 * mesh.conn[e]],
                                            U[2 * mesh.conn[e] + 1]))
    a, b = mesh.nodes[mesh.edge_nodes[edge]]
    tang = b - a
    h = np.linalg.norm(tang)
    normal = np.array([tang[1], -tang[0]]) / h
    ds = sig[0] - sig[1]
    jump_vec = np.array([ds[0] * normal[0] + ds[2] * normal[1],
                         ds[2] * normal[0] + ds[1] * normal[1]])
    expected = h**2 * (jump_vec @ jump_vec)

    jump = jump_residual(mesh, MAT, U)
    np.testing.assert_allclose(jump[edge], expected, rtol=1e-12)
    boundary = np.flatnonzero(mesh.edge_kind != INTERIOR)
    assert np.all(jump[boundary] == 0.0)


def test_jump_orientation_invariance():
    mesh = generate_mesh(DomainSpec(2.0, 2.0, 2, 2, triangulation="cross_split"), "p1")
    rng = np.random.default_rng(5)
    U = rng.standard_normal(2 * mesh.n_nodes)
    base = jump_residual(mesh, MAT, U)

    flipped_nodes = mesh.edge_nodes[:, ::-1].copy()
    flipped_elems = mesh.edge_elems.copy()
    interior = mesh.edge_kind == INTERIOR
    flipped_elems[interior] = flipped_elems[interior][:, ::-1]
    variant = dataclasses.replace(mesh, edge_nodes=flipped_nodes,
                                  edge_elems=flipped_elems)
    np.testing.assert_allclose(jump_residual(variant, MAT, U), base,
                               rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("family,tri", [("q1", "two_split"),
                                        ("p1", "two_split"),
                                        ("p2", "cross_split")])
def test_uniform_tension_matching_traction(family, tri):
    # with g chosen as the exact boundary flux of a uniform stress state the
    # Neumann residual must vanish on every classified edge
    s = 0.42
    mesh = generate_mesh(DomainSpec(3.0, 2.0, 3, 2, triangulation=tri), family)
    mesh = classify_boundary(mesh, west_clamped(mesh))
    U = nodal_field(mesh, lambda x, y: s * x, lambda x, y: 0.0 * x)
    sxx, syy = AMAT[0, 0] * s, AMAT[0, 1] * s

    def traction(points, normal):
        t = np.array([sxx * normal[0], syy * normal[1]])
        return np.tile(t, (len(points), 1))

    res = neumann_residual(mesh, MAT, U, traction)
    assert np.abs(res).max() <= 1e-12
    assert np.any(mesh.edge_kind == NEUMANN)
    assert np.all(res[mesh.edge_kind != NEUMANN] == 0.0)


def solve_cantilever(family, tri, nx, ny):
    mesh = generate_mesh(
        DomainSpec(float(nx), float(ny), nx, ny, triangulation=tri), family)
    fixed = np.flatnonzero(np.isclose(mesh.nodes[:, 0], 0.0))
    corner = int(np.argmin(np.sum((mesh.nodes - [nx, 0.0]) ** 2, axis=1)))
    case = LoadCase(fixed_nodes=fixed, point_loads=((corner, 0.0, -1.0),))
    mesh = classify_boundary(mesh, case)
    system = assemble(mesh, np.ones(mesh.n_elements), 1.0, MAT, case)
    return mesh, case, solve(system).U


@pytest.mark.parametrize("family,tri", [("q1", "two_split"),
                                        ("p1", "cross_split"),
                                        ("p2", "two_split")])
def test_estimate_totals_identity(family, tri):
    mesh, case, U = solve_cantilever(family, tri, 6, 4)
    bd = estimate(mesh, U, MAT, case)
    np.testing.assert_allclose(
        bd.local.sum(), bd.bulk_total + bd.jump_total + bd.neumann_total,
        rtol=1e-13)
    np.testing.assert_allclose(bd.eta_global, np.sqrt(bd.local.sum()), rtol=1e-13)
    np.testing.assert_allclose(
        bd.local, bd.bulk + bd.jump_by_element + bd.neumann_by_element,
        rtol=1e-13, atol=1e-16)
    np.testing.assert_allclose(bd.jump_edges.sum(), bd.jump_total, rtol=1e-13)
    np.testing.assert_allclose(bd.jump_by_element.sum(), bd.jump_total, rtol=1e-12)
    np.testing.assert_allclose(bd.neumann_edges.sum(), bd.neumann_total, rtol=1e-13)
    assert bd.eta_global > 0.0


@pytest.mark.parametrize("family,tri", [("q1", "two_split"),
                                        ("p1", "cross_split"),
                                        ("p2", "two_split")])
def test_estimate_evaluates_stresses_once(family, tri, monkeypatch):
    # the bulk, jump and Neumann terms all read one table of vertex stresses
    mesh, case, U = solve_cantilever(family, tri, 6, 4)
    stresses, calls = estimator._vertex_stresses, []
    monkeypatch.setattr(estimator, "_vertex_stresses",
                        lambda *args: calls.append(args) or stresses(*args))
    estimate(mesh, U, MAT, case)
    assert len(calls) == 1


@pytest.mark.parametrize("family,nx,fix_all,absent", [("q1", 1, False, "jump"),
                                                      ("p2", 2, True, "neumann")])
def test_estimate_without_interior_or_neumann_edges(family, nx, fix_all, absent):
    # a single q1 cell has no interior edge; a p2 mesh with every node fixed
    # has no Neumann edge. The missing term is zero per edge and per element,
    # also when the case holds a traction that no edge samples.
    mesh = generate_mesh(DomainSpec(float(nx), 1.0, nx, 1), family)
    fixed = np.arange(mesh.n_nodes) if fix_all else west_clamped(mesh).fixed_nodes
    case = LoadCase(fixed_nodes=fixed, traction=exact_traction)
    mesh = classify_boundary(mesh, case)
    kind = {"jump": INTERIOR, "neumann": NEUMANN}[absent]
    assert not np.any(mesh.edge_kind == kind)
    U = nodal_field(mesh, lambda x, y: x ** 2 * y, lambda x, y: x * y ** 2)
    bd = estimate(mesh, U, MAT, case)

    for name in ("bulk", "jump_by_element", "neumann_by_element", "local"):
        assert getattr(bd, name).shape == (mesh.n_elements,)
    assert bd.jump_edges.shape == bd.neumann_edges.shape == (mesh.n_edges,)
    assert np.all(getattr(bd, f"{absent}_edges") == 0.0)
    assert np.all(getattr(bd, f"{absent}_by_element") == 0.0)
    assert getattr(bd, f"{absent}_total") == 0.0
    present = "neumann" if absent == "jump" else "jump"
    assert getattr(bd, f"{present}_total") > 0.0

    np.testing.assert_allclose(
        bd.local, bd.bulk + bd.jump_by_element + bd.neumann_by_element, rtol=1e-13)
    np.testing.assert_allclose(
        bd.local.sum(), bd.bulk_total + bd.jump_total + bd.neumann_total, rtol=1e-13)
    np.testing.assert_allclose(bd.eta_global, np.sqrt(bd.local.sum()), rtol=1e-13)


def test_zero_displacement_zero_estimate():
    mesh = generate_mesh(DomainSpec(2.0, 2.0, 2, 2), "q1")
    mesh = classify_boundary(mesh, west_clamped(mesh))
    bd = estimate(mesh, np.zeros(2 * mesh.n_nodes), MAT)
    assert bd.eta_global == 0.0
    assert bd.bulk_total == 0.0 and bd.jump_total == 0.0 and bd.neumann_total == 0.0


def test_p2_polynomial_consistency():
    # manufactured quadratic solution with matching body force and boundary
    # flux: the residual sees an exact strong-form solution and every
    # component collapses to roundoff
    lam, mu = AMAT[0, 1], AMAT[2, 2]
    ax, ay, axy = 0.05, 0.04, 0.02

    def ux(x, y):
        return ax * x**2

    def uy(x, y):
        return ay * y**2 + axy * x * y

    body = (-((lam + 2.0 * mu) * 2.0 * ax + (lam + mu) * axy),
            -(lam + 2.0 * mu) * 2.0 * ay)

    mesh = generate_mesh(DomainSpec(2.0, 2.0, 2, 2, triangulation="two_split"), "p2")
    nodes = mesh.nodes
    east = np.isclose(nodes[:, 0], 2.0)
    corner = np.isclose(nodes[:, 1], 0.0) | np.isclose(nodes[:, 1], 2.0)
    fixed = np.flatnonzero(~east | corner)

    def traction(points, normal):
        x, y = points[:, 0], points[:, 1]
        exx = 2.0 * ax * x
        eyy = 2.0 * ay * y + axy * x
        gxy = axy * y
        sxx = (lam + 2.0 * mu) * exx + lam * eyy
        syy = lam * exx + (lam + 2.0 * mu) * eyy
        sxy = mu * gxy
        return np.column_stack([sxx * normal[0] + sxy * normal[1],
                                sxy * normal[0] + syy * normal[1]])

    case = LoadCase(fixed_nodes=fixed, traction=traction, body_force=body)
    mesh = classify_boundary(mesh, case)
    lift = nodal_field(mesh, ux, uy)
    prescribed = np.zeros(2 * mesh.n_nodes)
    prescribed[2 * fixed] = lift[2 * fixed]
    prescribed[2 * fixed + 1] = lift[2 * fixed + 1]
    system = assemble(mesh, np.ones(mesh.n_elements), 1.0, MAT, case)
    U = solve(system, prescribed=prescribed).U
    np.testing.assert_allclose(U, lift, atol=1e-9)

    bd = estimate(mesh, U, MAT, case)
    assert bd.eta_global <= 1e-7
    assert bd.bulk_total <= 1e-14
    assert bd.jump_total <= 1e-14
    assert bd.neumann_total <= 1e-14


def test_error_report_csv(tmp_path):
    mesh, case, U = solve_cantilever("p1", "two_split", 3, 2)
    bd = estimate(mesh, U, MAT, case)
    path = tmp_path / "error_report.csv"
    write_error_report(bd, mesh, path)

    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["element_id", "h_K", "bulk", "jump_half_sum",
                       "neumann", "eta_sq"]
    body = rows[1:-2]
    assert len(body) == mesh.n_elements
    for e, row in enumerate(body):
        assert int(row[0]) == e
        np.testing.assert_allclose(float(row[5]), bd.local[e], rtol=1e-15)
    total = rows[-2]
    assert total[0] == "TOTAL"
    np.testing.assert_allclose(float(total[2]), bd.bulk_total, rtol=1e-15)
    np.testing.assert_allclose(float(total[3]), bd.jump_total, rtol=1e-15)
    np.testing.assert_allclose(float(total[4]), bd.neumann_total, rtol=1e-15)
    final = rows[-1]
    assert final[0] == "GLOBAL_ETA"
    np.testing.assert_allclose(float(final[5]), bd.eta_global, rtol=1e-15)


def test_estimate_reads_case_body_force():
    # the breakdown must see the body force through the case object; with
    # f = -div sigma the bulk term cancels elementwise
    mesh = generate_mesh(DomainSpec(2.0, 2.0, 2, 2, triangulation="cross_split"), "p2")
    U = nodal_field(mesh, lambda x, y: 0.01 * x**2, lambda x, y: 0.0 * x)
    div = stress_divergence(mesh, MAT, U)
    case = LoadCase(fixed_nodes=np.array([0]),
                    body_force=(-float(div[0, 0]), -float(div[0, 1])))
    mesh = classify_boundary(mesh, case)
    bd = estimate(mesh, U, MAT, case)
    assert bd.bulk_total <= 1e-20


# Exact solution for the reliability check: u = grad Re(z^4)/4 with z
# shifted by +1 in x, so div u = 0 and lap u = 0. It solves the Lame
# equations without body force for any lam and mu.
def exact_displacement(x, y):
    X = x + 1.0
    return X**3 - 3.0 * X * y**2, y**3 - 3.0 * X**2 * y


def exact_strain(x, y):
    X = x + 1.0
    exx = 3.0 * X**2 - 3.0 * y**2
    return np.stack([exx, -exx, -12.0 * X * y], axis=-1)


def exact_traction(points, normal):
    sig = exact_strain(points[:, 0], points[:, 1]) @ AMAT
    return np.column_stack([sig[:, 0] * normal[0] + sig[:, 2] * normal[1],
                            sig[:, 2] * normal[0] + sig[:, 1] * normal[1]])


def _gauss_rule(family):
    """Reference points and weights, Gauss-Legendre 6 per direction.

    The square rule covers the biunit square; the triangle rule collapses
    the unit square onto the reference triangle (Duffy), weight 1 - s.
    """
    g, w = np.polynomial.legendre.leggauss(6)
    a, b = np.meshgrid(g, g, indexing="ij")
    wab = np.outer(w, w).ravel()
    if family == "q1":
        return np.column_stack([a.ravel(), b.ravel()]), wab
    s, t = 0.5 * (a.ravel() + 1.0), 0.5 * (b.ravel() + 1.0)
    return np.column_stack([s, t * (1.0 - s)]), 0.25 * wab * (1.0 - s)


def energy_error(mesh, U):
    """||u - u_h||_E over the mesh, in the test's own quadrature."""
    points, weights = _gauss_rule(mesh.family)
    coords = mesh.nodes[mesh.conn]
    ux, uy = U[2 * mesh.conn], U[2 * mesh.conn + 1]
    total = 0.0
    for point, weight in zip(points, weights):
        values, dphys, det = gradients_physical(
            mesh.family, coords, np.broadcast_to(point, (mesh.n_elements, 2)))
        xy = np.einsum("ek,eka->ea", values, coords)
        gx = np.einsum("ek,eka->ea", ux, dphys)
        gy = np.einsum("ek,eka->ea", uy, dphys)
        e = exact_strain(xy[:, 0], xy[:, 1]) - np.column_stack(
            [gx[:, 0], gy[:, 1], gx[:, 1] + gy[:, 0]])
        total += weight * np.sum(det * np.einsum("ei,ij,ej->e", e, AMAT, e))
    return np.sqrt(total)


def exact_solution_run(family, tri, n):
    mesh = generate_mesh(DomainSpec(1.0, 1.0, n, n, triangulation=tri), family)
    fixed = np.flatnonzero(mesh.nodes[:, 0] == 0.0)
    case = LoadCase(fixed_nodes=fixed, traction=exact_traction)
    mesh = classify_boundary(mesh, case)
    lift = nodal_field(mesh, lambda x, y: exact_displacement(x, y)[0],
                      lambda x, y: exact_displacement(x, y)[1])
    system = assemble(mesh, np.ones(mesh.n_elements), 1.0, MAT, case)
    U = solve(system, prescribed=lift).U
    return estimate(mesh, U, MAT, case).eta_global, energy_error(mesh, U)


@pytest.mark.parametrize("family,tri,order,effectivity", [("q1", "two_split", 1, 5.11),
                                                          ("p1", "cross_split", 1, 2.67),
                                                          ("p1", "two_split", 1, 3.68),
                                                          ("p2", "cross_split", 2, 6.71),
                                                          ("p2", "two_split", 2, 9.84)])
def test_estimator_tracks_exact_error(family, tri, order, effectivity):
    # eta and the true energy error fall at the element's order, and their
    # ratio settles: the estimator is reliable and efficient up to a constant.
    # The constant is pinned loosely, so that losing a whole term shows.
    eta, err = np.array([exact_solution_run(family, tri, n) for n in (8, 16, 32)]).T
    for values in (eta, err):
        rates = np.log2(values[:-1] / values[1:])
        np.testing.assert_allclose(rates, order, atol=0.1)
    ratio = eta / err
    assert abs(ratio[2] / ratio[1] - 1.0) <= 0.03
    np.testing.assert_allclose(ratio[2], effectivity, rtol=0.1)


def gauss_point_tractions(mesh, U, edges, side, t):
    """sigma(u_h) n at parameters t along edges, seen from one side: the
    per-point reference evaluation, (m, q, 2), and the normals (m, 2)."""
    ref, normal = edge_trace(mesh, edges, t, side)
    elems = np.repeat(mesh.edge_elems[edges, side], len(t))
    conn = mesh.conn[elems]
    _, dphys, _ = gradients_physical(mesh.family, mesh.nodes[conn], ref.reshape(-1, 2))
    gx = np.einsum("mk,mka->ma", U[2 * conn], dphys)
    gy = np.einsum("mk,mka->ma", U[2 * conn + 1], dphys)
    sig = np.column_stack([gx[:, 0], gy[:, 1], gx[:, 1] + gy[:, 0]]) @ AMAT
    sig = sig.reshape(len(edges), len(t), 3)
    nx, ny = normal[:, None, 0], normal[:, None, 1]
    return np.stack([sig[..., 0] * nx + sig[..., 2] * ny,
                     sig[..., 2] * nx + sig[..., 1] * ny], axis=2), normal


def gauss_point_edge_residuals(mesh, U, traction):
    """Jump and Neumann terms per edge with a 3-point Gauss rule."""
    t, w = edge_quadrature_3pt()
    jump = np.zeros(mesh.n_edges)
    interior = np.flatnonzero(mesh.edge_kind == INTERIOR)
    plus, _ = gauss_point_tractions(mesh, U, interior, 0, t)
    minus, _ = gauss_point_tractions(mesh, U, interior, 1, t)
    d = plus + minus
    jump[interior] = mesh.edge_length[interior] ** 2 * (np.sum(d * d, axis=2) @ w)
    neumann = np.zeros(mesh.n_edges)
    edges = np.flatnonzero(mesh.edge_kind == NEUMANN)
    flux, normals = gauss_point_tractions(mesh, U, edges, 0, t)
    pts = edge_points(mesh, edges, t)
    r = np.array([traction(p, n) for p, n in zip(pts, normals)]) - flux
    neumann[edges] = mesh.edge_length[edges] ** 2 * (np.sum(r * r, axis=2) @ w)
    return jump, neumann


def oracle_meshes():
    for family in ("q1", "p1", "p2"):
        for tri in ("two_split", "cross_split"):
            for refine in (0, 1):
                spec = DomainSpec(3.0, 2.0, 4, 3, triangulation=tri, refine_level=refine)
                mesh = generate_mesh(spec, family)
                yield f"{family}-{tri}-{refine}", classify_boundary(mesh, west_clamped(mesh))
        spec = preset_domain_spec("bevel", nx=8, ny=6, triangulation="two_split")
        mesh = generate_mesh(spec, family)
        yield f"{family}-bevel", classify_boundary(mesh, build_load_case("bevel", mesh))


@pytest.mark.parametrize("mesh", [pytest.param(m, id=name) for name, m in oracle_meshes()])
def test_edge_residuals_match_gauss_point_oracle(mesh):
    rng = np.random.default_rng(17)
    U = rng.standard_normal(2 * mesh.n_nodes)
    jump, neumann = gauss_point_edge_residuals(mesh, U, exact_traction)
    for got, want in ((jump_residual(mesh, MAT, U), jump),
                      (neumann_residual(mesh, MAT, U, exact_traction), neumann)):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert jump.max() > 0.0 and neumann.max() > 0.0


@settings(max_examples=25, deadline=None)
@given(family=st.sampled_from(["q1", "p1", "p2"]),
       tri=st.sampled_from(["two_split", "cross_split"]),
       seed=st.integers(0, 2**32 - 1))
def test_estimate_invariant_under_element_relabeling(family, tri, seed):
    rng = np.random.default_rng(seed)
    base = generate_mesh(DomainSpec(3.0, 2.0, 3, 2, triangulation=tri), family)
    perm = rng.permutation(base.n_elements)
    relabeled = _build_mesh(family, base.nodes, base.conn[perm], base.passive[perm], base.spec)
    U = rng.standard_normal(2 * base.n_nodes)
    case = LoadCase(fixed_nodes=np.flatnonzero(base.nodes[:, 0] == 0.0),
                    traction=exact_traction)
    before = estimate(classify_boundary(base, case), U, MAT, case)
    after = estimate(classify_boundary(relabeled, case), U, MAT, case)
    np.testing.assert_allclose(after.eta_global, before.eta_global, rtol=1e-12)
    np.testing.assert_allclose(after.local, before.local[perm], rtol=1e-12, atol=1e-14)


def test_edge_terms_refuse_an_edge_its_element_does_not_own():
    mesh = generate_mesh(DomainSpec(2.0, 2.0, 2, 2, triangulation="cross_split"), "p2")
    mesh = classify_boundary(mesh, west_clamped(mesh))
    U = np.zeros(2 * mesh.n_nodes)
    interior = np.flatnonzero(mesh.edge_kind == INTERIOR)
    for side in (0, 1):
        elems = mesh.edge_elems.copy()
        elems[interior, side] = np.roll(elems[interior, side], 1)
        with pytest.raises(ValueError, match="is not an edge of element"):
            jump_residual(dataclasses.replace(mesh, edge_elems=elems), MAT, U)
    elems = mesh.edge_elems.copy()
    elems[:, 0] = np.roll(elems[:, 0], 1)
    with pytest.raises(ValueError, match="is not an edge of element"):
        neumann_residual(dataclasses.replace(mesh, edge_elems=elems), MAT, U)

    # both ends of a q1 diagonal are vertices of the element, but not an edge
    quad = generate_mesh(DomainSpec(2.0, 2.0, 2, 2), "q1")
    quad = classify_boundary(quad, west_clamped(quad))
    edge = np.flatnonzero(quad.edge_kind == NEUMANN)[0]
    nodes = quad.edge_nodes.copy()
    nodes[edge] = quad.conn[quad.edge_elems[edge, 0], [0, 2]]
    with pytest.raises(ValueError, match="is not an edge of element"):
        neumann_residual(dataclasses.replace(quad, edge_nodes=nodes), MAT,
                         np.zeros(2 * quad.n_nodes))
