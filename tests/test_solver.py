"""Assembly and linear solve: oracles, patch tests, solver behavior."""

from unittest import mock

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from topo2d.cli import prepare, resolve_config
from topo2d.fem import Material, elasticity_matrix, element_stiffness
from topo2d.mesh import DomainSpec, classify_boundary, generate_mesh
from topo2d.optimizer import DensityField
from topo2d.solver import (LoadCase, SingularSystemError, StiffnessAssembler,
                           assemble, build_load_vector, constrained_dof_ids,
                           element_dof_matrix, solve)

MAT = Material()


def dense_assembly_oracle(mesh, material, x, penal):
    """Dense scatter-add assembly written independently of the package path."""
    K = np.zeros((2 * mesh.n_nodes, 2 * mesh.n_nodes))
    for e in range(mesh.n_elements):
        ke = element_stiffness(mesh.family, mesh.nodes[mesh.conn[e]], material)
        dofs = []
        for n in mesh.conn[e]:
            dofs.extend((2 * n, 2 * n + 1))
        scale = x[e] ** penal
        for i, gi in enumerate(dofs):
            for j, gj in enumerate(dofs):
                K[gi, gj] += scale * ke[i, j]
    return K


def cantilever_case(mesh):
    fixed = np.where(np.isclose(mesh.nodes[:, 0], 0.0))[0]
    tip = int(np.argmin(np.sum((mesh.nodes - [mesh.nodes[:, 0].max(), 0.0]) ** 2,
                               axis=1)))
    return LoadCase(fixed_nodes=fixed, point_loads=((tip, 0.0, -1.0),))


def test_assembly_matches_dense_oracle():
    rng = np.random.default_rng(3)
    for family, tri in (("q1", "two_split"), ("p1", "cross_split"),
                        ("p2", "two_split")):
        mesh = generate_mesh(
            DomainSpec(3.0, 2.0, 3, 2, triangulation=tri), family)
        x = rng.uniform(0.2, 1.0, mesh.n_elements)
        case = cantilever_case(mesh)
        system = assemble(mesh, x, 3.0, MAT, case)
        oracle = dense_assembly_oracle(mesh, MAT, x, 3.0)
        np.testing.assert_allclose(system.K.toarray(), oracle,
                                   rtol=1e-12, atol=1e-12)


def test_power_law_scaling():
    mesh = generate_mesh(DomainSpec(2.0, 2.0, 2, 2), "q1")
    case = cantilever_case(mesh)
    k_full = assemble(mesh, np.ones(4), 3.0, MAT, case).K.toarray()
    k_half = assemble(mesh, np.full(4, 0.5), 3.0, MAT, case).K.toarray()
    np.testing.assert_allclose(k_half, k_full / 8.0, rtol=1e-12, atol=1e-13)


def test_constrained_dof_ids():
    mesh = generate_mesh(DomainSpec(4.0, 5.0, 4, 5), "q1")
    case = cantilever_case(mesh)
    cd = constrained_dof_ids(case)
    assert len(cd) == 12  # 6 fixed nodes, two components each
    assert len(np.unique(cd)) == len(cd)


def test_element_dof_matrix_interleaving():
    conn = np.array([[3, 7, 5]])
    np.testing.assert_array_equal(element_dof_matrix(conn),
                                  [[6, 7, 14, 15, 10, 11]])


def test_all_constrained_rejected():
    # the node graph to order is empty; both paths reject it before factoring
    for family in ("q1", "p1", "p2"):
        mesh = generate_mesh(DomainSpec(2.0, 1.0, 2, 1), family)
        case = LoadCase(fixed_nodes=np.arange(mesh.n_nodes))
        x = np.ones(mesh.n_elements)
        with pytest.raises(ValueError, match="all degrees of freedom are constrained"):
            solve(assemble(mesh, x, 3.0, MAT, case))
        with pytest.raises(ValueError, match="all degrees of freedom are constrained"):
            StiffnessAssembler(mesh, MAT, case).solve(x, 3.0)


def test_prescribed_values_validated():
    mesh = generate_mesh(DomainSpec(2.0, 1.0, 2, 1), "q1")
    case = cantilever_case(mesh)
    system = assemble(mesh, np.ones(mesh.n_elements), 3.0, MAT, case)
    with pytest.raises(ValueError, match=f"hold {2 * mesh.n_nodes} finite"):
        solve(system, prescribed=np.zeros(3))
    prescribed = np.zeros(2 * mesh.n_nodes)
    prescribed[2 * case.fixed_nodes[0]] = np.nan
    with pytest.raises(ValueError, match="finite"):
        solve(system, prescribed=prescribed)


def test_unconstrained_system_is_singular():
    mesh = generate_mesh(DomainSpec(2.0, 1.0, 2, 1), "q1")
    case = LoadCase(fixed_nodes=np.array([], dtype=int))
    system = assemble(mesh, np.ones(2), 3.0, MAT, case)
    with pytest.raises(SingularSystemError):
        solve(system)


def test_single_triangle_dense_oracle_solution():
    mesh = generate_mesh(
        DomainSpec(1.0, 1.0, 1, 1, triangulation="two_split"), "p1")
    # constrain the two nodes of the hypotenuse-free bottom edge
    fixed = np.where(np.isclose(mesh.nodes[:, 1], 0.0))[0]
    top = np.where(np.isclose(mesh.nodes[:, 1], 1.0))[0]
    case = LoadCase(fixed_nodes=fixed,
                    point_loads=tuple((int(n), 0.3, -0.7) for n in top))
    system = assemble(mesh, np.ones(mesh.n_elements), 3.0, MAT, case)
    result = solve(system)
    K = dense_assembly_oracle(mesh, MAT, np.ones(mesh.n_elements), 3.0)
    free = np.setdiff1d(np.arange(2 * mesh.n_nodes), constrained_dof_ids(case))
    u = np.zeros(2 * mesh.n_nodes)
    u[free] = np.linalg.solve(K[np.ix_(free, free)], system.F[free])
    np.testing.assert_allclose(result.U, u, rtol=1e-10, atol=1e-12)


def test_zero_load_zero_solution():
    mesh = generate_mesh(DomainSpec(3.0, 2.0, 3, 2), "q1")
    fixed = np.where(np.isclose(mesh.nodes[:, 0], 0.0))[0]
    system = assemble(mesh, np.ones(mesh.n_elements), 3.0, MAT,
                      LoadCase(fixed_nodes=fixed))
    result = solve(system)
    np.testing.assert_array_equal(result.U, 0.0)
    assert result.compliance == 0.0


def test_linearity_in_load():
    mesh = generate_mesh(DomainSpec(3.0, 2.0, 3, 2), "q1")
    case = cantilever_case(mesh)
    x = np.full(mesh.n_elements, 0.7)
    system = assemble(mesh, x, 3.0, MAT, case)
    u1 = solve(system).U
    system.F = 2.5 * system.F
    u2 = solve(system).U
    np.testing.assert_allclose(u2, 2.5 * u1, rtol=1e-12, atol=1e-14)


def test_compliance_identity():
    mesh = generate_mesh(DomainSpec(4.0, 2.0, 4, 2), "q1")
    case = cantilever_case(mesh)
    system = assemble(mesh, np.full(mesh.n_elements, 0.6), 3.0, MAT, case)
    result = solve(system)
    assert abs(result.compliance - system.F @ result.U) < 1e-13
    assert abs(result.compliance
               - result.U @ (system.K @ result.U)) < 1e-10 * result.compliance


def test_assembly_invariant_under_element_permutation():
    import dataclasses
    mesh = generate_mesh(
        DomainSpec(3.0, 3.0, 3, 3, triangulation="cross_split"), "p1")
    case = cantilever_case(mesh)
    x = np.linspace(0.3, 1.0, mesh.n_elements)
    k_ref = assemble(mesh, x, 3.0, MAT, case).K.toarray()
    perm = np.random.default_rng(11).permutation(mesh.n_elements)
    shuffled = dataclasses.replace(
        mesh, conn=mesh.conn[perm], passive=mesh.passive[perm],
        areas=mesh.areas[perm], centroids=mesh.centroids[perm],
        diameters=mesh.diameters[perm],
        edge_elems=np.zeros_like(mesh.edge_elems))
    k_perm = assemble(shuffled, x[perm], 3.0, MAT, case).K.toarray()
    np.testing.assert_allclose(k_perm, k_ref, rtol=1e-13, atol=1e-14)


def linear_patch_displacement(nodes):
    # u = (0.02x + 0.03y + 0.01, -0.01x + 0.04y - 0.02)
    u = np.empty(2 * len(nodes))
    u[0::2] = 0.02 * nodes[:, 0] + 0.03 * nodes[:, 1] + 0.01
    u[1::2] = -0.01 * nodes[:, 0] + 0.04 * nodes[:, 1] - 0.02
    return u


@pytest.mark.parametrize("family,tri", [("p1", "two_split"),
                                        ("p1", "cross_split"),
                                        ("q1", "two_split")])
def test_linear_patch(family, tri):
    # prescribe the exact linear field on the boundary; interior must
    # reproduce it to machine precision (zero body force, zero residual)
    mesh = generate_mesh(
        DomainSpec(2.0, 2.0, 3, 3, triangulation=tri), family)
    from topo2d.mesh import boundary_node_ids
    rim = boundary_node_ids(mesh)
    exact = linear_patch_displacement(mesh.nodes)
    prescribed = np.zeros(2 * mesh.n_nodes)
    cd = np.stack([2 * rim, 2 * rim + 1], axis=1).ravel()
    prescribed[cd] = exact[cd]
    case = LoadCase(fixed_nodes=rim)
    system = assemble(mesh, np.ones(mesh.n_elements), 1.0, MAT, case)
    result = solve(system, prescribed=prescribed)
    np.testing.assert_allclose(result.U, exact, atol=1e-10)


def quadratic_patch_field(nodes):
    # u_x = 0.05 x^2, u_y = 0.04 y^2 + 0.02 xy
    u = np.empty(2 * len(nodes))
    u[0::2] = 0.05 * nodes[:, 0] ** 2
    u[1::2] = 0.04 * nodes[:, 1] ** 2 + 0.02 * nodes[:, 0] * nodes[:, 1]
    return u


def quadratic_patch_body_force(material):
    # f = -div sigma(u_exact): with u_x = 0.05x^2, u_y = 0.04y^2 + 0.02xy,
    # div_x = (lam+2mu)*0.1 + (lam+mu)*0.02, div_y = (lam+2mu)*0.08
    lam, mu = material.lam, material.mu
    fx = -((lam + 2 * mu) * 0.1 + (lam + mu) * 0.02)
    fy = -((lam + 2 * mu) * 0.08)
    return (fx, fy)


def test_quadratic_patch_p2():
    mesh = generate_mesh(
        DomainSpec(2.0, 2.0, 2, 2, triangulation="cross_split"), "p2")
    from topo2d.mesh import boundary_node_ids
    rim = boundary_node_ids(mesh)
    exact = quadratic_patch_field(mesh.nodes)
    prescribed = np.zeros(2 * mesh.n_nodes)
    cd = np.stack([2 * rim, 2 * rim + 1], axis=1).ravel()
    prescribed[cd] = exact[cd]
    case = LoadCase(fixed_nodes=rim,
                    body_force=quadratic_patch_body_force(MAT))
    mesh = classify_boundary(mesh, case)
    system = assemble(mesh, np.ones(mesh.n_elements), 1.0, MAT, case)
    result = solve(system, prescribed=prescribed)
    np.testing.assert_allclose(result.U, exact, atol=1e-10)


def test_quadratic_patch_p2_neumann_side():
    # same exact field, but the east side is loaded via its true traction
    mesh = generate_mesh(
        DomainSpec(2.0, 2.0, 2, 2, triangulation="cross_split"), "p2")
    from topo2d.mesh import boundary_node_ids
    rim_all = boundary_node_ids(mesh)
    east = rim_all[np.isclose(mesh.nodes[rim_all, 0], 2.0)]
    strict_east = east[(~np.isclose(mesh.nodes[east, 1], 0.0))
                       & (~np.isclose(mesh.nodes[east, 1], 2.0))]
    rim = np.setdiff1d(rim_all, strict_east)
    exact = quadratic_patch_field(mesh.nodes)
    prescribed = np.zeros(2 * mesh.n_nodes)
    cd = np.stack([2 * rim, 2 * rim + 1], axis=1).ravel()
    prescribed[cd] = exact[cd]
    A = elasticity_matrix(MAT)

    def traction(points, normal):
        # sigma(u_exact) . n with eps = (0.1x, 0.08y + 0.02x, 0.02y)
        eps = np.stack([0.1 * points[:, 0],
                        0.08 * points[:, 1] + 0.02 * points[:, 0],
                        0.02 * points[:, 1]], axis=1)
        sig = eps @ A
        return np.stack([sig[:, 0] * normal[0] + sig[:, 2] * normal[1],
                         sig[:, 2] * normal[0] + sig[:, 1] * normal[1]],
                        axis=1)

    case = LoadCase(fixed_nodes=rim, traction=traction,
                    body_force=quadratic_patch_body_force(MAT))
    mesh = classify_boundary(mesh, case)
    system = assemble(mesh, np.ones(mesh.n_elements), 1.0, MAT, case)
    result = solve(system, prescribed=prescribed)
    np.testing.assert_allclose(result.U, exact, atol=1e-9)


def test_body_force_load_vector():
    # constant body force integrates to total force = f * area, partitioned
    # by shape functions
    mesh = generate_mesh(
        DomainSpec(2.0, 1.0, 2, 1, triangulation="cross_split"), "p1")
    case = LoadCase(fixed_nodes=np.array([], dtype=int), body_force=(0.0, -2.0))
    F = build_load_vector(mesh, case)
    assert abs(F[0::2].sum()) < 1e-13
    assert abs(F[1::2].sum() - (-2.0) * 2.0) < 1e-12


def test_point_load_validation():
    mesh = generate_mesh(DomainSpec(1.0, 1.0, 1, 1), "q1")
    case = LoadCase(fixed_nodes=np.array([0]), point_loads=((99, 0.0, 1.0),))
    with pytest.raises(ValueError):
        build_load_vector(mesh, case)


def test_fixed_nodes_validated():
    mesh = generate_mesh(DomainSpec(1.0, 1.0, 1, 1), "q1")
    for fixed in ([0, 99], [-1, 0]):
        with pytest.raises(ValueError, match="fixed nodes must lie in"):
            StiffnessAssembler(mesh, MAT, LoadCase(fixed_nodes=np.array(fixed)))


def test_refinement_softens_structure():
    # nested spaces: compliance grows monotonically with refinement
    from topo2d.mesh import refine_uniform
    spec = DomainSpec(8.0, 5.0, 8, 5, triangulation="two_split")
    mesh = generate_mesh(spec, "p1")
    values = []
    for _ in range(3):
        case = cantilever_case(mesh)
        system = assemble(mesh, np.ones(mesh.n_elements), 3.0, MAT, case)
        values.append(solve(system).compliance)
        mesh = refine_uniform(mesh)
    assert values[0] < values[1] < values[2]


def test_density_validation():
    mesh = generate_mesh(DomainSpec(2.0, 1.0, 2, 1), "q1")
    case = cantilever_case(mesh)
    with pytest.raises(ValueError):
        assemble(mesh, np.ones(5), 3.0, MAT, case)  # wrong length
    with pytest.raises(ValueError):
        assemble(mesh, np.array([1.0, np.nan]), 3.0, MAT, case)
    with pytest.raises(ValueError):
        assemble(mesh, np.array([1.0, 1.5]), 3.0, MAT, case)


def test_density_field_accepted_by_assemble():
    mesh = generate_mesh(DomainSpec(2.0, 1.0, 2, 1), "q1")
    case = cantilever_case(mesh)
    field = DensityField.uniform(mesh, 0.5, x_min=1e-3)
    system = assemble(mesh, field, 3.0, MAT, case)
    assert system.K.shape == (2 * mesh.n_nodes, 2 * mesh.n_nodes)


def test_assembler_strain_energies_match_definition():
    mesh = generate_mesh(
        DomainSpec(3.0, 2.0, 3, 2, triangulation="cross_split"), "p1")
    case = cantilever_case(mesh)
    asm = StiffnessAssembler(mesh, MAT, case)
    x = np.full(mesh.n_elements, 0.8)
    result = asm.solve(x, 3.0)
    sed = asm.strain_energies(result.U)
    total = (x ** 3.0 * sed).sum()
    assert abs(total - result.compliance) < 1e-10 * abs(result.compliance)
    for e in (0, mesh.n_elements // 2):
        ke = element_stiffness("p1", mesh.nodes[mesh.conn[e]], MAT)
        dofs = element_dof_matrix(mesh.conn[e][None])[0]
        ue = result.U[dofs]
        assert abs(sed[e] - ue @ ke @ ue) < 1e-12


@pytest.mark.parametrize("family,tri", [("q1", "two_split"), ("p1", "cross_split"),
                                        ("p2", "two_split")])
def test_assembler_reduced_solve_matches_oracle(family, tri):
    # the optimizer's path (fixed reduced pattern, one factorization per
    # solve) against the dense oracle and the assemble/solve path
    mesh = generate_mesh(DomainSpec(4.0, 3.0, 4, 3, triangulation=tri), family)
    x = np.random.default_rng(5).uniform(0.05, 1.0, mesh.n_elements)
    case = cantilever_case(mesh)
    asm = StiffnessAssembler(mesh, MAT, case)
    K = asm.reduced_matrix(x, 3.0)
    oracle = dense_assembly_oracle(mesh, MAT, x, 3.0)[np.ix_(asm.free, asm.free)]
    np.testing.assert_allclose(K.toarray(), oracle, rtol=1e-12, atol=1e-12)

    result = asm.solve(x, 3.0)
    reference = solve(assemble(mesh, x, 3.0, MAT, case))
    np.testing.assert_allclose(result.U, reference.U, rtol=1e-10, atol=1e-12)
    np.testing.assert_array_equal(result.U, reference.U)
    assert abs(result.compliance - reference.compliance) < 1e-10 * reference.compliance
    assert result.residual_norm <= 1e-8

    unloaded = StiffnessAssembler(mesh, MAT, LoadCase(fixed_nodes=case.fixed_nodes))
    np.testing.assert_array_equal(unloaded.solve(x, 3.0).U, 0.0)

    floating = StiffnessAssembler(
        mesh, MAT, LoadCase(fixed_nodes=np.array([], dtype=int),
                            point_loads=case.point_loads))
    with pytest.raises(SingularSystemError):
        floating.solve(x, 3.0)


def recorded_splu(factors):
    """spla.splu that appends (permc_spec, nnz of L+U) of every factor to factors."""
    splu = spla.splu

    def recording_splu(K, **kwargs):
        lu = splu(K, **kwargs)
        factors.append((kwargs.get("permc_spec"), lu.nnz))
        return lu
    return recording_splu


def dof_minimum_degree_solve(mesh, x, penal, case):
    """U from a fresh minimum-degree factor of the natural-order reduced matrix."""
    system = assemble(mesh, x, penal, MAT, case)
    free = np.setdiff1d(np.arange(2 * mesh.n_nodes), constrained_dof_ids(case))
    lu = spla.splu(system.K[free][:, free].tocsc(), permc_spec="MMD_AT_PLUS_A",
                   diag_pivot_thresh=0.0)
    U = np.zeros(2 * mesh.n_nodes)
    U[free] = lu.solve(system.F[free])
    return U, lu.nnz


@pytest.mark.parametrize("family,tri", [("q1", "two_split"), ("p1", "cross_split"),
                                        ("p2", "two_split")])
def test_every_factorization_runs_in_natural_order(family, tri):
    # the assembler orders its free nodes once, before the first factor; every
    # factorization is NATURAL and solves like a dof-level minimum-degree one
    mesh = generate_mesh(DomainSpec(4.0, 3.0, 8, 6, triangulation=tri), family)
    case = cantilever_case(mesh)
    rng = np.random.default_rng(7)
    asm = StiffnessAssembler(mesh, MAT, case)
    factors = []
    for step in range(3):
        x = rng.uniform(0.05, 1.0, mesh.n_elements)
        with mock.patch.object(spla, "splu", recorded_splu(factors)):
            result = asm.solve(x, 3.0)
        reference, _ = dof_minimum_degree_solve(mesh, x, 3.0, case)
        assert np.abs(result.U - reference).max() <= 1e-12 * np.abs(reference).max()
        if step == 0:
            free = asm.free.copy()
            earlier = asm.reduced_matrix(x, 3.0)
            snapshot = (earlier.toarray(), earlier.indices.copy(), earlier.indptr.copy())
        np.testing.assert_array_equal(asm.free, free)
    # matrices returned earlier share the pattern, which later solves leave as it is
    np.testing.assert_array_equal(earlier.toarray(), snapshot[0])
    np.testing.assert_array_equal(earlier.indices, snapshot[1])
    np.testing.assert_array_equal(earlier.indptr, snapshot[2])

    # the zero-load probe and the singularity check run on the same path
    unloaded = StiffnessAssembler(mesh, MAT, LoadCase(fixed_nodes=case.fixed_nodes))
    floating = StiffnessAssembler(mesh, MAT, LoadCase(fixed_nodes=np.array([], dtype=int)))
    with mock.patch.object(spla, "splu", recorded_splu(factors)):
        for _ in range(2):
            np.testing.assert_array_equal(unloaded.solve(x, 3.0).U, 0.0)
            with pytest.raises(SingularSystemError):
                floating.solve(x, 3.0)
    assert [spec for spec, _ in factors] == ["NATURAL"] * 7


@pytest.mark.parametrize("flags", [
    {"problem": "cantilever", "elem": "q1", "nx": 8, "ny": 6},
    {"problem": "cantilever", "elem": "p1", "nx": 8, "ny": 6},
    {"problem": "cantilever", "elem": "p2", "nx": 8, "ny": 6, "triangulation": "two"},
    {"problem": "cantilever", "elem": "p2", "nx": 24, "ny": 15},
    {"problem": "bridge", "elem": "p1", "refine": 1},
    {"problem": "bevel", "elem": "q1"},
    {"problem": "cantilever", "elem": "q1", "nx": 160, "ny": 100},
], ids=["q1-8x6", "p1-8x6", "p2-8x6", "p2-24x15", "bridge-p1-refine1", "bevel-q1",
        "q1-160x100"])
def test_node_order_fills_like_dof_minimum_degree(flags):
    # ordering nodes instead of dofs costs at most 10 % more fill; on the
    # bevel q1 it is 6.4 % more, on q1 160x100 19 % less
    mesh, case, material, _ = prepare(resolve_config(flags))
    x = np.ones(mesh.n_elements)
    factors = []
    with mock.patch.object(spla, "splu", recorded_splu(factors)):
        StiffnessAssembler(mesh, material, case).solve(x, 1.0)
    _, dof_fill = dof_minimum_degree_solve(mesh, x, 1.0, case)
    assert factors[0][1] <= 1.10 * dof_fill


@pytest.mark.parametrize("family,tri", [("q1", "two_split"), ("p1", "cross_split"),
                                        ("p2", "two_split")])
def test_factor_fill_does_not_grow_with_design_contrast(family, tri, monkeypatch):
    # K_ff is SPD, so the factorization keeps its diagonal pivots: a
    # 0/1-like design fills exactly as much as a uniform one, where row
    # swaps would add fill as the contrast grows
    fills = []
    splu = spla.splu

    def recording_splu(K, **kwargs):
        lu = splu(K, **kwargs)
        fills.append(lu.nnz)
        return lu

    monkeypatch.setattr(spla, "splu", recording_splu)
    mesh = generate_mesh(DomainSpec(4.0, 3.0, 8, 6, triangulation=tri), family)
    asm = StiffnessAssembler(mesh, MAT, cantilever_case(mesh))
    # penal 1 keeps the stiffness contrast at 1e3, within the residual check
    asm.solve(np.ones(mesh.n_elements), 1.0)
    design = np.random.default_rng(7).choice([1e-3, 1.0], mesh.n_elements)
    asm.solve(design, 1.0)
    assert fills[0] == fills[1]


@pytest.mark.parametrize("family,tri", [("q1", "two_split"), ("p1", "cross_split"),
                                        ("p2", "two_split")])
def test_renumbered_free_dofs_stay_in_node_pairs(family, tri):
    # the elimination order renumbers whole nodes: each node keeps its x dof
    # directly before its y dof, only the node order changes
    mesh = generate_mesh(DomainSpec(4.0, 3.0, 8, 6, triangulation=tri), family)
    case = cantilever_case(mesh)
    free = np.setdiff1d(np.arange(2 * mesh.n_nodes), constrained_dof_ids(case))
    asm = StiffnessAssembler(mesh, MAT, case)
    x = np.random.default_rng(3).uniform(0.05, 1.0, mesh.n_elements)
    for _ in range(2):
        asm.solve(x, 3.0)
    assert np.all(asm.free[0::2] % 2 == 0)
    np.testing.assert_array_equal(asm.free[1::2], asm.free[0::2] + 1)
    np.testing.assert_array_equal(np.sort(asm.free), free)
    assert not np.array_equal(asm.free, free)


def _support_nodes(mesh, supports):
    px, py = mesh.nodes.T
    if supports == "west":
        return np.flatnonzero(np.isclose(px, 0.0))
    if supports == "bottom":
        return np.flatnonzero(np.isclose(py, 0.0))
    corners = [(0.0, 0.0), (px.max(), 0.0), (0.0, py.max())]
    return np.array([np.argmin(np.hypot(px - cx, py - cy)) for cx, cy in corners])


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(["q1", "p1", "p2"]),
       tri=st.sampled_from(["two_split", "cross_split"]),
       nx=st.integers(1, 6), ny=st.integers(1, 6), refine=st.integers(0, 1),
       supports=st.sampled_from(["west", "bottom", "corners"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_renumbered_factor_matches_a_fresh_order(family, tri, nx, ny, refine,
                                                 supports, seed):
    # the natural-order factor of the node-ordered pattern solves the same
    # system as a fresh dof-level minimum-degree factor
    mesh = generate_mesh(DomainSpec(float(nx), float(ny), nx, ny, triangulation=tri,
                                    refine_level=refine), family)
    corner = int(np.argmin(np.hypot(mesh.nodes[:, 0] - nx, mesh.nodes[:, 1] - ny)))
    case = LoadCase(fixed_nodes=_support_nodes(mesh, supports),
                    point_loads=((corner, 1.0, -1.0),))
    rng = np.random.default_rng(seed)
    asm = StiffnessAssembler(mesh, MAT, case)
    x = rng.uniform(0.05, 1.0, mesh.n_elements)
    factors = []
    with mock.patch.object(spla, "splu", recorded_splu(factors)):
        asm.solve(rng.uniform(0.05, 1.0, mesh.n_elements), 3.0)
        result = asm.solve(x, 3.0)
    reference, _ = dof_minimum_degree_solve(mesh, x, 3.0, case)
    assert [spec for spec, _ in factors] == ["NATURAL", "NATURAL"]
    assert factors[0][1] == factors[1][1]
    # the two factors eliminate in different orders and round differently:
    # on slender domains at this contrast each solve is only good to about
    # 1e-10 relative (its own residual), so 1e-12 would test the rounding
    assert np.abs(result.U - reference).max() <= 1e-9 * np.abs(reference).max()
    assert np.all(asm.free[0::2] % 2 == 0)
    np.testing.assert_array_equal(asm.free[1::2], asm.free[0::2] + 1)


@settings(max_examples=30, deadline=None)
@given(family=st.sampled_from(["q1", "p1", "p2"]),
       tri=st.sampled_from(["two_split", "cross_split"]),
       nx=st.integers(1, 4), ny=st.integers(1, 4), refine=st.integers(0, 1),
       seed=st.integers(0, 2 ** 32 - 1))
def test_unconstrained_stiffness_is_psd_with_rigid_null_space(family, tri, nx, ny,
                                                              refine, seed):
    mesh = generate_mesh(DomainSpec(float(nx), float(ny), nx, ny, triangulation=tri,
                                    refine_level=refine), family)
    x = np.random.default_rng(seed).uniform(0.2, 1.0, mesh.n_elements)
    case = LoadCase(fixed_nodes=np.array([], dtype=int))
    K = assemble(mesh, x, 3.0, MAT, case).K.toarray()
    scale = np.abs(K).max()
    np.testing.assert_allclose(K, K.T, rtol=0.0, atol=1e-13 * scale)
    eigs = np.linalg.eigvalsh(0.5 * (K + K.T))
    tol = 1e-10 * eigs[-1]
    assert eigs[0] >= -tol
    assert int((eigs <= tol).sum()) == 3
    # the null space is spanned by the two translations and the rotation
    rigid = np.zeros((2 * mesh.n_nodes, 3))
    rigid[0::2, 0] = 1.0
    rigid[1::2, 1] = 1.0
    rigid[0::2, 2] = -mesh.nodes[:, 1]
    rigid[1::2, 2] = mesh.nodes[:, 0]
    assert np.abs(K @ rigid).max() <= 1e-10 * scale * max(nx, ny)


def _free_node_pairs(conn, free_nodes):
    """Ordered pairs (I, J) of free nodes that share an element, I == J included."""
    free = set(free_nodes.tolist())
    return {(i, j) for row in conn.tolist() for i in row for j in row
            if i in free and j in free}


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(["q1", "p1", "p2"]),
       tri=st.sampled_from(["two_split", "cross_split"]),
       nx=st.integers(1, 4), ny=st.integers(1, 4), refine=st.integers(0, 1),
       pinned=st.sampled_from(["none", "all but one", "some"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_reduced_pattern_under_arbitrary_supports(family, tri, nx, ny, refine, pinned,
                                                  seed):
    # the fixed reduced pattern holds exactly the 2x2 blocks of free node
    # pairs that share an element, whichever nodes are pinned, and solves
    # leave it and the free-node order as they were
    mesh = generate_mesh(DomainSpec(float(nx), float(ny), nx, ny, triangulation=tri,
                                    refine_level=refine), family)
    rng = np.random.default_rng(seed)
    count = {"none": 0, "all but one": mesh.n_nodes - 1,
             "some": rng.integers(0, mesh.n_nodes)}[pinned]
    fixed = np.sort(rng.permutation(mesh.n_nodes)[:count])
    corner = int(np.argmin(np.hypot(mesh.nodes[:, 0] - nx, mesh.nodes[:, 1] - ny)))
    west = np.flatnonzero(np.isclose(mesh.nodes[:, 0], 0.0))
    folded = np.setdiff1d(np.union1d(fixed, west), [corner])

    for nodes, loads in ((fixed, ()), (folded, ((corner, 1.0, -1.0),))):
        asm = StiffnessAssembler(mesh, MAT, LoadCase(fixed_nodes=nodes, point_loads=loads))
        free = np.setdiff1d(np.arange(2 * mesh.n_nodes), constrained_dof_ids(asm.case))
        if loads:
            order = asm.free.copy()
            for _ in range(2):
                asm.solve(rng.uniform(0.05, 1.0, mesh.n_elements), 3.0)
            np.testing.assert_array_equal(asm.free, order)
        np.testing.assert_array_equal(np.sort(asm.free), free)
        x = rng.uniform(0.05, 1.0, mesh.n_elements)
        K = asm.reduced_matrix(x, 3.0)
        assert K.has_canonical_format
        assert K.nnz == 4 * len(_free_node_pairs(mesh.conn, free[0::2] // 2))
        oracle = dense_assembly_oracle(mesh, MAT, x, 3.0)[np.ix_(asm.free, asm.free)]
        np.testing.assert_allclose(K.toarray(), oracle, rtol=1e-12, atol=1e-12)
