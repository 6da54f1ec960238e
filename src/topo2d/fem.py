"""Element-level building blocks for 2D linear elasticity.

Covers the three supported element families (bilinear quads, linear and
quadratic triangles): material law, reference shape functions, quadrature
rules, strain-displacement matrices and element stiffness integration.

Each element convention is one module table, and the rest derives from it:
the Q1 basis takes its signs from REF_CORNERS, and the triangle bases are
built on the barycentric coordinates of its triangle; P2 midside function j
is 4 lam_a lam_b over the j-th vertex pair of LOCAL_EDGES, which also numbers
the mesh's midside nodes; VOIGT, the engineering strain (eps_xx, eps_yy,
gamma_xy) of a displacement gradient, builds B and the elasticity tensor of
K0. The inverse reference map is one Newton iteration on the shape functions
for every family. Element displacement vectors interleave components as
(u1x, u1y, u2x, ...).

Element stiffness matrices (K0) are integrated for a whole mesh at once,
without a loop over quadrature points: the Jacobians of every element at
every point come from one matrix product, and each det J B^T A B term is the
outer product of the scaled adjugate adj(J) / sqrt(det J) with itself,
contracted first with the elasticity tensor written on displacement
gradients and then with a constant per-family tensor of reference-gradient
products. Both contractions are matrix products, and the second one gives
the matrices in dof order.
"""

from dataclasses import dataclass

import numpy as np

FAMILIES = ("q1", "p1", "p2")

#: nodes per element, by family
ELEMENT_NODES = {"q1": 4, "p1": 3, "p2": 6}

#: measure of the reference element (biunit square / unit triangle)
REF_MEASURE = {"q1": 4.0, "p1": 0.5, "p2": 0.5}

_TRI_CORNERS = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])

#: vertices of the reference element, counterclockwise, by family
REF_CORNERS = {
    "q1": np.array([(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)]),
    "p1": _TRI_CORNERS,
    "p2": _TRI_CORNERS,
}

#: vertex pairs of the local edges, counterclockwise; p2 midsides follow this order
LOCAL_EDGES = {
    "q1": ((0, 1), (1, 2), (2, 3), (3, 0)),
    "p1": ((0, 1), (1, 2), (2, 0)),
    "p2": ((0, 1), (1, 2), (2, 0)),
}

#: VOIGT[I, a, c] = 1 where du_a/dx_c enters Voigt strain I
VOIGT = np.array([
    [[1.0, 0.0], [0.0, 0.0]],  # eps_xx = du_x/dx
    [[0.0, 0.0], [0.0, 1.0]],  # eps_yy = du_y/dy
    [[0.0, 1.0], [1.0, 0.0]],  # gamma_xy = du_x/dy + du_y/dx
])


def check_family(family: str) -> str:
    if family not in FAMILIES:
        raise ValueError(f"unknown element family {family!r}, expected one of {FAMILIES}")
    return family


@dataclass(frozen=True)
class Material:
    """Isotropic linear-elastic material with a selectable 2D reduction.

    model "lame" keeps the 3D Lame parameters (plane-strain behaviour),
    model "plane_stress" substitutes the reduced first parameter
    2*lam*mu/(lam + 2*mu).
    """

    E: float = 1.0
    nu: float = 0.3
    model: str = "lame"

    def __post_init__(self):
        if self.model not in ("lame", "plane_stress"):
            raise ValueError(f"unknown material model {self.model!r}")
        if not (self.E > 0.0):
            raise ValueError("Young's modulus must be positive")
        if not (-1.0 < self.nu < 0.5):
            raise ValueError("Poisson ratio must lie in (-1, 0.5)")

    @property
    def mu(self) -> float:
        return self.E / (2.0 * (1.0 + self.nu))

    @property
    def lam(self) -> float:
        lam3d = self.E * self.nu / ((1.0 + self.nu) * (1.0 - 2.0 * self.nu))
        if self.model == "plane_stress":
            return 2.0 * lam3d * self.mu / (lam3d + 2.0 * self.mu)
        return lam3d


def elasticity_matrix(material: Material) -> np.ndarray:
    """3x3 matrix mapping Voigt strain (eps_xx, eps_yy, gamma_xy) to stress."""
    lam, mu = material.lam, material.mu
    return np.array(
        [
            [lam + 2.0 * mu, lam, 0.0],
            [lam, lam + 2.0 * mu, 0.0],
            [0.0, 0.0, mu],
        ]
    )


@dataclass(frozen=True)
class QuadratureRule:
    """Points on the reference element with area-normalized weights.

    Weights sum to one, so integrals evaluate as
    area_e * sum_i w_i f(p_i) on affine elements.
    """

    points: np.ndarray
    weights: np.ndarray


def tri_quadrature_7pt() -> QuadratureRule:
    """Symmetric 7-point triangle rule, exact for polynomials up to degree 5."""
    s15 = np.sqrt(15.0)
    a = (6.0 + s15) / 21.0
    b = (6.0 - s15) / 21.0
    wa = (155.0 + s15) / 1200.0
    wb = (155.0 - s15) / 1200.0
    points = np.array(
        [
            (1.0 / 3.0, 1.0 / 3.0),
            (a, a),
            (1.0 - 2.0 * a, a),
            (a, 1.0 - 2.0 * a),
            (b, b),
            (1.0 - 2.0 * b, b),
            (b, 1.0 - 2.0 * b),
        ]
    )
    weights = np.array([9.0 / 40.0, wa, wa, wa, wb, wb, wb])
    return QuadratureRule(points, weights)


def quad_quadrature_2x2() -> QuadratureRule:
    """Tensor 2x2 Gauss rule on the biunit square (degree 3 per axis)."""
    g = 1.0 / np.sqrt(3.0)
    points = np.array([(-g, -g), (g, -g), (g, g), (-g, g)])
    weights = np.full(4, 0.25)
    return QuadratureRule(points, weights)


def quadrature_rule(family: str) -> QuadratureRule:
    """Default integration rule for a family."""
    check_family(family)
    if family == "q1":
        return quad_quadrature_2x2()
    if family == "p1":
        # constant integrand: a single centroid point is the area formula
        return QuadratureRule(np.array([[1.0 / 3.0, 1.0 / 3.0]]), np.array([1.0]))
    return tri_quadrature_7pt()


def edge_quadrature_3pt() -> tuple[np.ndarray, np.ndarray]:
    """3-point Gauss rule on [0, 1]; weights sum to one."""
    g = np.sqrt(3.0 / 5.0)
    t = np.array([(1.0 - g) / 2.0, 0.5, (1.0 + g) / 2.0])
    w = np.array([5.0, 8.0, 5.0]) / 18.0
    return t, w


def shape_functions_at(family: str, points) -> tuple[np.ndarray, np.ndarray]:
    """Shape function values and reference gradients at many points.

    Parameters
    ----------
    points : (m, 2) array of reference coordinates.

    Returns
    -------
    values : (m, n) array, gradients : (m, n, 2) array.
    """
    check_family(family)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    x, y = pts[:, 0], pts[:, 1]

    if family == "q1":
        sx, sy = REF_CORNERS["q1"].T
        values = 0.25 * (1.0 + np.outer(x, sx)) * (1.0 + np.outer(y, sy))
        gx = 0.25 * sx[None, :] * (1.0 + np.outer(y, sy))
        gy = 0.25 * sy[None, :] * (1.0 + np.outer(x, sx))
        return values, np.stack([gx, gy], axis=2)

    # barycentric coordinates of the reference triangle and their gradients
    lam = np.stack([1.0 - x - y, x, y], axis=1)
    dlam = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    if family == "p1":
        return lam, np.broadcast_to(dlam, (len(pts), 3, 2)).copy()
    # p2: lam_i (2 lam_i - 1) at the vertices, then 4 lam_i lam_j at the
    # midside of each local edge (i, j)
    i, j = np.array(LOCAL_EDGES["p2"]).T
    values = np.hstack([lam * (2.0 * lam - 1.0), 4.0 * lam[:, i] * lam[:, j]])
    grads = np.hstack([(4.0 * lam - 1.0)[:, :, None] * dlam,
                       4.0 * (lam[:, i, None] * dlam[j] + lam[:, j, None] * dlam[i])])
    return values, grads


def shape_functions(family: str, ref_point) -> tuple[np.ndarray, np.ndarray]:
    """Values and reference gradients at a single reference point."""
    values, grads = shape_functions_at(family, [ref_point])
    return values[0], grads[0]


def gradients_physical(family: str, coords: np.ndarray, points: np.ndarray):
    """Shape values, physical gradients and Jacobian determinants, batched.

    coords has shape (m, k, 2) and points (m, 2); one point per element.
    Returns values (m, k), gradients (m, k, 2) and det (m,).
    """
    values, dref = shape_functions_at(family, points)
    inv, det = inverse_jacobian(coords, dref)
    return values, dref @ inv, det


def inverse_jacobian(coords: np.ndarray, dref: np.ndarray):
    """Inverse (m, 2, 2) and determinant (m,) of the reference map's Jacobian.

    coords (m, k, 2); reference gradients dref (m, k, 2), or (k, 2) for all.
    A singular Jacobian returns its adjugate, so callers can report det = 0.
    """
    jac = np.swapaxes(coords, 1, 2) @ dref
    det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
    inv = np.empty_like(jac)
    inv[:, 0, 0] = jac[:, 1, 1]
    inv[:, 0, 1] = -jac[:, 0, 1]
    inv[:, 1, 0] = -jac[:, 1, 0]
    inv[:, 1, 1] = jac[:, 0, 0]
    safe = np.where(det == 0.0, 1.0, det)
    return inv / safe[:, None, None], det


def _check_coords(family: str, coords: np.ndarray) -> np.ndarray:
    """coords itself, once it is (E, k, 2) for the family's k nodes."""
    k = ELEMENT_NODES[check_family(family)]
    if coords.ndim != 3 or coords.shape[1:] != (k, 2):
        raise ValueError(
            f"{family} elements have {k} nodes: expected coords of shape (E, {k}, 2), "
            f"got {coords.shape}"
        )
    return coords


def b_matrix(family: str, coords, ref_point) -> np.ndarray:
    """Strain-displacement matrix (3, 2k) at one reference point.

    Raises ValueError if coords is not (k, 2) for the family's k nodes, or
    on a degenerate (non-positively oriented) element.
    """
    coords = _check_coords(family, np.asarray(coords, dtype=float)[None])
    point = np.asarray(ref_point, dtype=float)[None]
    _, dphys, det = gradients_physical(family, coords, point)
    if not det[0] > 0.0:
        raise ValueError(f"degenerate element: Jacobian determinant {det[0]:g}")
    return np.einsum("Iac,kc->Ika", VOIGT, dphys[0]).reshape(3, -1)


def _elasticity_gradient_tensor(material: Material) -> np.ndarray:
    """C[(c, d), (a, b)] = sum_IJ VOIGT[I, a, c] A[I, J] VOIGT[J, b, d], shape (4, 4).

    sum_cd dN_i/dx_c C[c, d, a, b] dN_j/dx_d is entry (2i + a, 2j + b) of
    B^T A B.
    """
    return np.einsum("iac,ij,jbd->cdab", VOIGT, elasticity_matrix(material),
                     VOIGT).reshape(4, 4)


def _reference_tensor(family: str, rule: QuadratureRule) -> np.ndarray:
    """R[(a', b', q, x, y), (i, a, j, b)], shape (16 Q, 4 k^2).

    R = w_q ref dN_i/dr_x dN_j/dr_y delta_aa' delta_bb' at the rule's points;
    the columns are the dofs (2i + a, 2j + b) of the element matrix, in order.
    """
    _, dref = shape_functions_at(family, rule.points)
    n_q, k = dref.shape[:2]
    weights = rule.weights * REF_MEASURE[family]
    block = np.einsum("q,qix,qjy->qxyij", weights, dref, dref)
    tensor = np.zeros((2, 2, n_q, 2, 2, k, 2, k, 2))
    for a in range(2):
        for b in range(2):
            tensor[a, b, :, :, :, :, a, :, b] = block
    return tensor.reshape(16 * n_q, 4 * k * k)


def element_stiffness_batch(
    family: str, coords: np.ndarray, material: Material, rule: QuadratureRule | None = None
) -> np.ndarray:
    """Stiffness matrices for a batch of elements; coords (E, k, 2) -> (E, 2k, 2k).

    Integration uses area-normalized weights, area_e * sum_q w_q B^T A B,
    exact on affine elements (straight triangles, rectangles). With J the
    Jacobian at point q, det J B^T A B is the contraction of the outer
    product of W = adj(J) / sqrt(det J) with itself against two constant
    tensors, ``_elasticity_gradient_tensor`` C and ``_reference_tensor`` R.
    The batch runs as three matrix products over all elements and points at
    once: (2Q, k) @ (k, 2E) for the Jacobians and (4, 4) @ (4, 4QE) for C
    against W (x) W, with the elements on the last axis, then
    (E, 16Q) @ (16Q, 4k^2) against R, whose rows are already the matrices
    (E, 2k, 2k) in dof order (u1x, u1y, u2x, ...).

    Raises ValueError if coords is not (E, k, 2) for the family's k nodes,
    and names the lowest element whose Jacobian determinant is not positive
    (or is NaN) at some quadrature point.
    """
    coords = _check_coords(family, np.asarray(coords, dtype=float))
    k = ELEMENT_NODES[family]
    if rule is None:
        rule = quadrature_rule(family)
    n_el, n_q = len(coords), len(rule.weights)
    _, dref = shape_functions_at(family, rule.points)
    # elements run along the last axis: jac[q, x, a, e] = d x_a / d r_x
    jac = (dref.transpose(0, 2, 1).reshape(2 * n_q, k)
           @ coords.transpose(1, 2, 0).reshape(k, 2 * n_el)).reshape(n_q, 2, 2, n_el)
    j00, j01, j10, j11 = jac[:, 0, 0], jac[:, 1, 0], jac[:, 0, 1], jac[:, 1, 1]
    det = j00 * j11 - j01 * j10
    bad = ~(det > 0.0)
    if bad.any():
        e = int(np.argmax(bad.any(axis=0)))
        raise ValueError(
            f"degenerate element {e}: Jacobian determinant {det[bad[:, e], e][0]:g}"
        )
    # adj[c, q, x, e] = adj(J)[x, c] / sqrt(det J), so that
    # adj[c, x] adj[d, y] = det J inv(J)[x, c] inv(J)[y, d]
    scale = 1.0 / np.sqrt(det)
    adj = np.empty((2, n_q, 2, n_el))
    np.multiply(j11, scale, out=adj[0, :, 0])
    np.multiply(j10, -scale, out=adj[0, :, 1])
    np.multiply(j01, -scale, out=adj[1, :, 0])
    np.multiply(j00, scale, out=adj[1, :, 1])
    outer = adj[:, None, :, :, None] * adj[None, :, :, None, :]
    weighted = _elasticity_gradient_tensor(material).T @ outer.reshape(4, -1)
    del outer
    return (weighted.reshape(16 * n_q, n_el).T
            @ _reference_tensor(family, rule)).reshape(n_el, 2 * k, 2 * k)


def element_stiffness(
    family: str, coords, material: Material, rule: QuadratureRule | None = None
) -> np.ndarray:
    """Stiffness matrix of a single element."""
    return element_stiffness_batch(
        family, np.asarray(coords, dtype=float)[None], material, rule=rule
    )[0]


def element_energies(kmat: np.ndarray, u_e: np.ndarray) -> np.ndarray:
    """Quadratic forms u_e^T K_e u_e for a batch; kmat (E, n, n), u_e (E, n)."""
    return np.einsum("ei,ei->e", (kmat @ u_e[:, :, None])[:, :, 0], u_e)


def strain_energy(family: str, coords, material: Material, u_e) -> float:
    """Quadratic form u_e^T K_e u_e for one element."""
    u_e = np.asarray(u_e, dtype=float)
    k = ELEMENT_NODES[check_family(family)]
    if u_e.shape != (2 * k,):
        raise ValueError(f"expected displacement vector of length {2 * k}, got {u_e.shape}")
    kmat = element_stiffness(family, coords, material)
    return float(element_energies(kmat[None], u_e[None])[0])


def reference_coords(family: str, coords: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Map physical points into element reference coordinates, batched.

    coords (m, k, 2), points (m, 2) -> (m, 2). Every family runs the same
    Newton iteration on the map sum_k N_k(ref) x_k given by
    ``shape_functions_at``: at most 4 steps from the origin, stopping once
    no point moves by more than 1e-12. One step is exact on affine elements
    (triangles, and the rectangles produced by the mesh generator), so they
    stop after the second.
    """
    check_family(family)
    coords = np.asarray(coords, dtype=float)
    points = np.asarray(points, dtype=float)
    ref = np.zeros_like(points)
    for _ in range(4):
        values, dref = shape_functions_at(family, ref)
        res = points - np.einsum("mk,mka->ma", values, coords)
        inv, _ = inverse_jacobian(coords, dref)
        step = np.einsum("mab,mb->ma", inv, res)
        ref += step
        if np.all(np.abs(step) <= 1e-12):
            break
    return ref
