"""Element-level checks: shape functions, quadrature, B matrices, stiffness."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topo2d.fem import (ELEMENT_NODES, FAMILIES, LOCAL_EDGES, REF_CORNERS,
                        REF_MEASURE, Material, QuadratureRule, b_matrix,
                        edge_quadrature_3pt, elasticity_matrix,
                        element_energies, element_stiffness,
                        element_stiffness_batch,
                        gradients_physical, quad_quadrature_2x2,
                        quadrature_rule, reference_coords, shape_functions,
                        shape_functions_at, strain_energy, tri_quadrature_7pt)

RNG = np.random.default_rng(20240315)


def random_ref_points(family, n=100):
    if family == "q1":
        return RNG.uniform(-1.0, 1.0, size=(n, 2))
    a = RNG.uniform(0.0, 1.0, size=(n, 2))
    flip = a.sum(axis=1) > 1.0
    a[flip] = 1.0 - a[flip][:, ::-1]
    return a


@pytest.mark.parametrize("family", FAMILIES)
def test_partition_of_unity(family):
    pts = random_ref_points(family)
    vals, grads = shape_functions_at(family, pts)
    assert vals.shape == (100, ELEMENT_NODES[family])
    np.testing.assert_allclose(vals.sum(axis=1), 1.0, atol=1e-13)
    np.testing.assert_allclose(grads.sum(axis=1), 0.0, atol=1e-12)


@pytest.mark.parametrize("family", FAMILIES)
def test_kronecker_at_nodes(family):
    if family == "q1":
        nodes = np.array([(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)])
    elif family == "p1":
        nodes = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    else:
        nodes = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0),
                          (0.5, 0.0), (0.5, 0.5), (0.0, 0.5)])
    vals, _ = shape_functions_at(family, nodes)
    np.testing.assert_allclose(vals, np.eye(len(nodes)), atol=1e-14)


def test_p2_midside_value():
    vals, _ = shape_functions("p2", (0.5, 0.0))
    np.testing.assert_allclose(vals, [0, 0, 0, 1, 0, 0], atol=1e-14)


def test_tri_quadrature_monomial_exactness():
    # Exact integrals over the unit reference triangle: a! b! / (a + b + 2)!
    rule = tri_quadrature_7pt()
    assert abs(rule.weights.sum() - 1.0) < 1e-14
    for a in range(6):
        for b in range(6 - a):
            exact = (math.factorial(a) * math.factorial(b)
                     / math.factorial(a + b + 2))
            approx = 0.5 * np.sum(
                rule.weights * rule.points[:, 0] ** a * rule.points[:, 1] ** b)
            assert abs(approx - exact) < 1e-12, (a, b)


def test_quad_quadrature_monomial_exactness():
    # 2x2 Gauss integrates degree-3 monomials exactly on [-1, 1]^2.
    rule = quad_quadrature_2x2()
    assert abs(rule.weights.sum() - 1.0) < 1e-14
    for a in range(4):
        for b in range(4):
            fx = 0.0 if a % 2 else 2.0 / (a + 1)
            fy = 0.0 if b % 2 else 2.0 / (b + 1)
            approx = 4.0 * np.sum(
                rule.weights * rule.points[:, 0] ** a * rule.points[:, 1] ** b)
            assert abs(approx - fx * fy) < 1e-12, (a, b)


def test_edge_quadrature_polynomials():
    t, w = edge_quadrature_3pt()
    assert abs(w.sum() - 1.0) < 1e-14
    for k in range(6):
        assert abs(np.sum(w * t ** k) - 1.0 / (k + 1)) < 1e-13, k


def skewed_triangle():
    return np.array([(0.2, -0.1), (2.3, 0.4), (0.7, 1.9)])


def skewed_p2():
    v = skewed_triangle()
    mids = np.array([0.5 * (v[0] + v[1]), 0.5 * (v[1] + v[2]),
                     0.5 * (v[2] + v[0])])
    return np.vstack([v, mids])


def skewed_quad():
    return np.array([(0.0, 0.0), (2.1, 0.2), (2.4, 1.8), (-0.3, 1.5)])


def test_b_matrix_uniaxial_strain_p1():
    coords = skewed_triangle()
    B = b_matrix("p1", coords, (1.0 / 3.0, 1.0 / 3.0))
    # u_x = x, u_y = 0 -> strain (1, 0, 0)
    u = np.zeros(6)
    u[0::2] = coords[:, 0]
    np.testing.assert_allclose(B @ u, [1.0, 0.0, 0.0], atol=1e-13)


def test_b_matrix_rigid_rotation_gives_zero_strain():
    for family, coords in (("p1", skewed_triangle()), ("q1", skewed_quad()),
                           ("p2", skewed_p2())):
        pts = random_ref_points(family, 5)
        for p in pts:
            B = b_matrix(family, coords, p)
            u = np.zeros(2 * len(coords))
            u[0::2] = -coords[:, 1]
            u[1::2] = coords[:, 0]
            np.testing.assert_allclose(B @ u, 0.0, atol=1e-12)


def test_b_matrix_p2_quadratic_field():
    coords = skewed_p2()
    rule = tri_quadrature_7pt()
    u = np.zeros(12)
    u[0::2] = coords[:, 0] ** 2  # u_x = x^2 -> eps_xx = 2x
    for p in rule.points:
        B = b_matrix("p2", coords, p)
        x = shape_functions("p2", p)[0] @ coords[:, 0]
        np.testing.assert_allclose(B @ u, [2.0 * x, 0.0, 0.0], atol=1e-12)


def quad_stiffness_oracle(coords, material, n_gauss):
    """Gauss-Legendre stiffness for a single Q1 element.

    Uses its own bilinear shape derivatives rather than anything from the
    package, so it cross-checks the batched contraction in
    element_stiffness_batch.
    """
    A = elasticity_matrix(material)
    g, w = np.polynomial.legendre.leggauss(n_gauss)
    K = np.zeros((8, 8))
    signs = np.array([(-1, -1), (1, -1), (1, 1), (-1, 1)], dtype=float)
    for xi, wx in zip(g, w):
        for eta, wy in zip(g, w):
            dref = np.stack([0.25 * signs[:, 0] * (1 + signs[:, 1] * eta),
                             0.25 * signs[:, 1] * (1 + signs[:, 0] * xi)],
                            axis=1)
            J = dref.T @ coords
            dphys = dref @ np.linalg.inv(J).T
            B = np.zeros((3, 8))
            B[0, 0::2] = dphys[:, 0]
            B[1, 1::2] = dphys[:, 1]
            B[2, 0::2] = dphys[:, 1]
            B[2, 1::2] = dphys[:, 0]
            K += wx * wy * np.linalg.det(J) * B.T @ A @ B
    return K


def test_q1_stiffness_matches_dense_oracle():
    # On affine geometry (rectangle, parallelogram) the 2x2 product rule is
    # exact, so dense quadrature must agree with the production value.
    mat = Material()
    for coords in (np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]),
                   np.array([(0.0, 0.0), (2.0, 0.5), (2.6, 2.1), (0.6, 1.6)])):
        K = element_stiffness("q1", coords, mat)
        np.testing.assert_allclose(K, quad_stiffness_oracle(coords, mat, 10),
                                   rtol=1e-12, atol=1e-12)


def test_q1_stiffness_general_quad_same_rule():
    # A non-parallelogram quad has a rational integrand; compare against the
    # oracle running the identical 2x2 rule to isolate the B-matrix path.
    mat = Material()
    K = element_stiffness("q1", skewed_quad(), mat)
    np.testing.assert_allclose(K, quad_stiffness_oracle(skewed_quad(), mat, 2),
                               rtol=1e-12, atol=1e-12)


def stiffness_oracle(family, coords, material, rule):
    """sum_q w_q ref det(J) B^T A B for one element, one point at a time."""
    A = elasticity_matrix(material)
    k = len(coords)
    K = np.zeros((2 * k, 2 * k))
    _, grads = shape_functions_at(family, rule.points)
    for dref, weight in zip(grads, rule.weights):
        J = coords.T @ dref
        det = np.linalg.det(J)
        assert det > 0.0
        dphys = dref @ np.linalg.inv(J)
        B = np.zeros((3, 2 * k))
        B[0, 0::2] = dphys[:, 0]
        B[1, 1::2] = dphys[:, 1]
        B[2, 0::2] = dphys[:, 1]
        B[2, 1::2] = dphys[:, 0]
        K += weight * REF_MEASURE[family] * det * B.T @ A @ B
    return K


def reference_nodes(family):
    corners = REF_CORNERS[family]
    if family != "p2":
        return corners.copy()
    mids = [0.5 * (corners[i] + corners[j]) for i, j in LOCAL_EDGES["p2"]]
    return np.vstack([corners, mids])


def random_element(family, rng):
    """A positively oriented element: a perturbed reference element under a
    random orientation-preserving affine map. Q1 corners move by up to 0.3
    (a convex non-parallelogram), P2 midside nodes by up to 0.04."""
    nodes = reference_nodes(family)
    if family == "q1":
        nodes += rng.uniform(-0.3, 0.3, size=nodes.shape)
    elif family == "p2":
        nodes[3:] += rng.uniform(-0.04, 0.04, size=(3, 2))
    th = rng.uniform(0.0, 2.0 * np.pi)
    rot = np.array([(np.cos(th), -np.sin(th)), (np.sin(th), np.cos(th))])
    shear = np.array([(rng.uniform(0.2, 3.0), rng.uniform(-1.0, 1.0)),
                      (0.0, rng.uniform(0.2, 3.0))])
    return nodes @ (rot @ shear).T + rng.uniform(-5.0, 5.0, size=2)


def gauss_3x3():
    g, w = np.polynomial.legendre.leggauss(3)
    points = np.array([(x, y) for y in g for x in g])
    return QuadratureRule(points, np.outer(w, w).ravel() / 4.0)


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(FAMILIES),
       model=st.sampled_from(["lame", "plane_stress"]),
       dense=st.booleans(),
       n_el=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1))
def test_stiffness_batch_matches_pointwise_oracle(family, model, dense, n_el, seed):
    # the per-element, per-point loop fixes the dof layout (u1x, u1y, u2x, ...)
    # that the solver's scatter tables rely on
    rng = np.random.default_rng(seed)
    mat = Material(E=rng.uniform(0.5, 5.0), nu=rng.uniform(-0.5, 0.45), model=model)
    rule = quadrature_rule(family)
    if dense:
        rule = gauss_3x3() if family == "q1" else tri_quadrature_7pt()
    coords = np.stack([random_element(family, rng) for _ in range(n_el)])
    K = element_stiffness_batch(family, coords, mat, rule=rule)
    assert K.shape == (n_el, 2 * len(coords[0]), 2 * len(coords[0]))
    assert K.flags.c_contiguous
    oracle = np.stack([stiffness_oracle(family, c, mat, rule) for c in coords])
    np.testing.assert_allclose(K, oracle, rtol=0.0, atol=1e-12 * np.abs(oracle).max())


def test_p1_stiffness_constant_integrand():
    # P1 strain is constant, so the one-point rule and the 7-point rule agree.
    mat = Material(E=2.5, nu=0.2)
    coords = skewed_triangle()[None]
    k_default = element_stiffness_batch("p1", coords, mat)
    k_dense = element_stiffness_batch("p1", coords, mat,
                                      rule=tri_quadrature_7pt())
    np.testing.assert_allclose(k_default, k_dense, rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("family", FAMILIES)
def test_stiffness_symmetry_and_rigid_modes(family):
    mat = Material()
    coords = {"p1": skewed_triangle(), "q1": skewed_quad(),
              "p2": skewed_p2()}[family]
    K = element_stiffness(family, coords, mat)
    np.testing.assert_allclose(K, K.T, atol=1e-13)
    w = np.linalg.eigvalsh(K)
    assert np.all(w > -1e-11)
    # exactly three rigid body modes: two translations plus one rotation
    assert np.sum(np.abs(w) < 1e-9 * w.max()) == 3


@pytest.mark.parametrize("family", FAMILIES)
def test_stiffness_translation_invariance(family):
    mat = Material()
    coords = {"p1": skewed_triangle(), "q1": skewed_quad(),
              "p2": skewed_p2()}[family]
    K0 = element_stiffness(family, coords, mat)
    K1 = element_stiffness(family, coords + np.array([3.7, -1.2]), mat)
    np.testing.assert_allclose(K0, K1, rtol=1e-11, atol=1e-11)


@pytest.mark.parametrize("family", FAMILIES)
def test_stiffness_rotation_congruence(family):
    # Rotating the element geometry is congruent to rotating the dof basis.
    mat = Material()
    coords = {"p1": skewed_triangle(), "q1": skewed_quad(),
              "p2": skewed_p2()}[family]
    th = 0.83
    R = np.array([(np.cos(th), -np.sin(th)), (np.sin(th), np.cos(th))])
    K0 = element_stiffness(family, coords, mat)
    K1 = element_stiffness(family, coords @ R.T, mat)
    n = len(coords)
    T = np.kron(np.eye(n), R)
    np.testing.assert_allclose(K1, T @ K0 @ T.T, rtol=1e-10, atol=1e-10)


def test_strain_energy_uniaxial():
    # u_x = x, u_y = 0 over the unit square: energy = A[0,0] * area / ... with
    # the 1/2 convention folded out; strain_energy returns u K u (no half),
    # so the value is A00 * area for unit strain.
    mat = Material()
    A00 = elasticity_matrix(mat)[0, 0]
    assert abs(A00 - 1.3461538461538463) < 1e-12
    coords = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    u = np.zeros(8)
    u[0::2] = coords[:, 0]
    assert abs(strain_energy("q1", coords, mat, u) - A00) < 1e-12
    tri = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    ut = np.zeros(6)
    ut[0::2] = tri[:, 0]
    assert abs(strain_energy("p1", tri, mat, ut) - 0.5 * A00) < 1e-12
    with pytest.raises(ValueError, match="length 6, got \\(8,\\)"):
        strain_energy("p1", tri, mat, u)


@pytest.mark.parametrize("family", FAMILIES)
def test_element_energies_match_three_operand_einsum(family):
    rng = np.random.default_rng(7)
    coords = np.stack([random_element(family, rng) for _ in range(50)])
    kmat = element_stiffness_batch(family, coords, Material())
    u_e = rng.normal(size=(50, 2 * ELEMENT_NODES[family]))
    expected = np.einsum("ei,eij,ej->e", u_e, kmat, u_e)
    np.testing.assert_allclose(element_energies(kmat, u_e), expected, rtol=1e-13,
                               atol=1e-13 * np.abs(expected).max())


def test_elasticity_matrix_models():
    mat = Material(E=1.0, nu=0.3)
    lam = mat.lam
    mu = mat.mu
    assert abs(mu - 1.0 / 2.6) < 1e-15
    assert abs(lam - 0.3 / (1.3 * 0.4)) < 1e-15
    A = elasticity_matrix(mat)
    np.testing.assert_allclose(A, [[lam + 2 * mu, lam, 0],
                                   [lam, lam + 2 * mu, 0],
                                   [0, 0, mu]], rtol=1e-14)
    ps = Material(E=1.0, nu=0.3, model="plane_stress")
    lam_star = 2 * lam * mu / (lam + 2 * mu)
    A2 = elasticity_matrix(ps)
    np.testing.assert_allclose(A2, [[lam_star + 2 * mu, lam_star, 0],
                                    [lam_star, lam_star + 2 * mu, 0],
                                    [0, 0, mu]], rtol=1e-14)
    # plane stress matrix equals the textbook E/(1-nu^2) form
    E, nu = 1.0, 0.3
    coef = E / (1 - nu ** 2)
    np.testing.assert_allclose(
        A2, coef * np.array([[1, nu, 0], [nu, 1, 0], [0, 0, (1 - nu) / 2]]),
        rtol=1e-12)


def test_material_validation():
    with pytest.raises(ValueError):
        Material(E=-1.0)
    with pytest.raises(ValueError):
        Material(nu=0.5)
    with pytest.raises(ValueError):
        Material(model="axisym")


def test_reference_coords_roundtrip():
    for family, coords in (("p1", skewed_triangle()), ("p2", skewed_p2()),
                           ("q1", skewed_quad())):
        ref = random_ref_points(family, 20)
        vals, _ = shape_functions_at(family, ref)
        phys = vals @ coords
        back = reference_coords(family,
                                np.broadcast_to(coords, (20,) + coords.shape),
                                phys)
        np.testing.assert_allclose(back, ref, atol=1e-10)


def test_degenerate_element_rejected():
    coords = np.array([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])  # zero area
    with pytest.raises(ValueError):
        b_matrix("p1", coords, (1.0 / 3.0, 1.0 / 3.0))


def test_clockwise_quad_rejected():
    coords = np.array([(0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 0.0)])
    with pytest.raises(ValueError):
        b_matrix("q1", coords, (0.0, 0.0))


@pytest.mark.parametrize("family", FAMILIES)
def test_nan_element_rejected(family):
    # NaN compares False with <= 0 as well as with > 0, so the orientation
    # checks must accept only a positive determinant
    coords = reference_nodes(family)
    coords[2, 1] = np.nan
    point = quadrature_rule(family).points[0]
    with pytest.raises(ValueError, match="degenerate element 0: Jacobian determinant nan"):
        element_stiffness_batch(family, coords[None], Material())
    with pytest.raises(ValueError, match="degenerate element: Jacobian determinant nan"):
        b_matrix(family, coords, point)


@pytest.mark.parametrize("family", FAMILIES)
def test_batch_names_lowest_degenerate_element(family):
    good = reference_nodes(family)
    clockwise = good * np.array([1.0, -1.0])
    nan = good.copy()
    nan[0, 0] = np.nan
    coords = np.stack([good, good + 1.0, clockwise, nan])
    with pytest.raises(ValueError, match=r"degenerate element 2: Jacobian determinant -"):
        element_stiffness_batch(family, coords, Material())
    with pytest.raises(ValueError, match="degenerate element 3"):
        element_stiffness_batch(family, np.stack([good, good, good, nan]), Material())


def test_wrong_node_count_rejected():
    tri = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    with pytest.raises(ValueError, match=r"q1 elements have 4 nodes.*got \(1, 3, 2\)"):
        element_stiffness("q1", tri, Material())
    with pytest.raises(ValueError, match=r"p2 elements have 6 nodes.*got \(2, 3, 2\)"):
        element_stiffness_batch("p2", np.stack([tri, tri]), Material())
    with pytest.raises(ValueError, match=r"p1 elements have 3 nodes.*got \(3, 2\)"):
        element_stiffness_batch("p1", tri, Material())


def test_b_matrix_wrong_node_count_rejected():
    tri = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    with pytest.raises(ValueError, match=r"q1 elements have 4 nodes.*got \(1, 3, 2\)"):
        b_matrix("q1", tri, (0.0, 0.0))
    with pytest.raises(ValueError, match="p2 elements have 6 nodes"):
        b_matrix("p2", tri, (1.0 / 3.0, 1.0 / 3.0))
    with pytest.raises(ValueError, match="p1 elements have 3 nodes"):
        b_matrix("p1", np.vstack([tri, tri]), (1.0 / 3.0, 1.0 / 3.0))


def test_quadrature_rule_selector():
    assert len(quadrature_rule("p2").weights) == 7
    assert len(quadrature_rule("q1").weights) == 4
    assert len(quadrature_rule("p1").weights) == 1
    with pytest.raises(ValueError):
        quadrature_rule("p3")
