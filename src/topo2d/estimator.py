"""Residual-based a posteriori error estimation for the elasticity solve.

Per element K the indicator collects the volumetric residual of the strong
form, half of each shared interior stress jump, and the traction mismatch
on Neumann edges:

    eta_K^2 = h_K^2 ||f + div sigma||_K^2
            + 1/2 sum_{interior e in dK} h_e ||jump(sigma n)||_e^2
            + sum_{neumann e in dK} h_e ||g - sigma n||_e^2

so that sum_K eta_K^2 counts every interior edge exactly once and the
global estimate is eta = sqrt(sum_K eta_K^2). Element diameters h_K are the
longest vertex-pair distances; h_e is the edge length.

Evaluation exploits that all generated elements are affine images of the
reference element (straight triangles, axis-aligned rectangles): the
discrete stress divergence is constant per element and edge traces are
integrated exactly with a 3-point Gauss rule.
"""

from dataclasses import dataclass

import numpy as np

from . import fem, mesh as meshmod
from .export import write_columns


@dataclass
class ErrorBreakdown:
    """Per-element and aggregate estimator output.

    local holds eta_K^2 per element; jump_edges / neumann_edges hold the
    weighted squared edge residuals h_e ||.||^2 (zero on edges of other
    kinds); jump_by_element and neumann_by_element are the per-element
    shares entering local.
    """

    bulk: np.ndarray
    jump_edges: np.ndarray
    neumann_edges: np.ndarray
    jump_by_element: np.ndarray
    neumann_by_element: np.ndarray
    local: np.ndarray
    bulk_total: float
    jump_total: float
    neumann_total: float
    eta_global: float


def _stress_at(mesh: meshmod.Mesh, material: fem.Material, U: np.ndarray,
               elems: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Voigt stress of the discrete solution at reference points.

    elems (m,) selects the element evaluating each of ref (m, 2).
    """
    conn = mesh.conn[elems]
    _, dphys, _ = fem.gradients_physical(mesh.family, mesh.nodes[conn], ref)
    ux = U[2 * conn]
    uy = U[2 * conn + 1]
    exx = np.einsum("mk,mk->m", dphys[:, :, 0], ux)
    eyy = np.einsum("mk,mk->m", dphys[:, :, 1], uy)
    gxy = np.einsum("mk,mk->m", dphys[:, :, 1], ux) + np.einsum(
        "mk,mk->m", dphys[:, :, 0], uy
    )
    strain = np.stack([exx, eyy, gxy], axis=1)
    return strain @ fem.elasticity_matrix(material)


def stress_divergence(mesh: meshmod.Mesh, material: fem.Material,
                      U: np.ndarray) -> np.ndarray:
    """div sigma(u_h) per element, shape (E, 2).

    Constant on every element for the supported families on affine
    geometry, so a single evaluation at the reference centroid is exact.
    """
    coords = mesh.nodes[mesh.conn]
    n_el = mesh.n_elements
    center = np.full((n_el, 2), 1.0 / 3.0)
    if mesh.family == "q1":
        center = np.zeros((n_el, 2))
    _, dref = fem.shape_functions_at(mesh.family, center)
    inv, _ = fem.inverse_jacobian(coords, dref)

    href = fem.shape_function_hessians(mesh.family)
    hphys = np.einsum("eca,kcd,edb->ekab", inv, href, inv)
    ux = U[2 * mesh.conn]
    uy = U[2 * mesh.conn + 1]
    hux = np.einsum("ek,ekab->eab", ux, hphys)
    huy = np.einsum("ek,ekab->eab", uy, hphys)

    lam, mu = material.lam, material.mu
    lam2 = lam + 2.0 * mu
    div = np.empty((n_el, 2))
    div[:, 0] = lam2 * hux[:, 0, 0] + (lam + mu) * huy[:, 0, 1] + mu * hux[:, 1, 1]
    div[:, 1] = lam2 * huy[:, 1, 1] + (lam + mu) * hux[:, 0, 1] + mu * huy[:, 0, 0]
    return div


def bulk_residual(mesh: meshmod.Mesh, material: fem.Material, U: np.ndarray,
                  body_force=(0.0, 0.0)) -> np.ndarray:
    """h_K^2 ||f + div sigma||_K^2 per element.

    Identically zero for p1 meshes without body force: the stress is
    piecewise constant there.
    """
    residual = stress_divergence(mesh, material, U)
    residual += np.asarray(body_force, dtype=float)[None, :]
    sq = np.einsum("ec,ec->e", residual, residual)
    return mesh.diameters ** 2 * mesh.areas * sq


def _edge_tractions(mesh: meshmod.Mesh, material: fem.Material, U: np.ndarray,
                    edges: np.ndarray, side: int,
                    t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sigma(u_h) . n at parameters t along the edges, traced from one side.

    Returns tractions (ne, q, 2) and the unit normals n (ne, 2) pointing out
    of the side-th adjacent element.
    """
    ref, normal = meshmod.edge_trace(mesh, edges, t, side)
    n_e, n_q = ref.shape[:2]
    elems = np.repeat(mesh.edge_elems[edges, side], n_q)
    sigma = _stress_at(mesh, material, U, elems, ref.reshape(-1, 2))
    sigma = sigma.reshape(n_e, n_q, 3)
    nx, ny = normal[:, 0:1], normal[:, 1:2]
    tx = sigma[:, :, 0] * nx + sigma[:, :, 2] * ny
    ty = sigma[:, :, 2] * nx + sigma[:, :, 1] * ny
    return np.stack([tx, ty], axis=2), normal


def jump_residual(mesh: meshmod.Mesh, material: fem.Material,
                  U: np.ndarray) -> np.ndarray:
    """h_e ||jump(sigma n)||_e^2 per edge; zero on boundary edges.

    The jump adds the tractions seen from both sides with their own
    outward normals, making the value independent of element labeling.
    """
    values = np.zeros(mesh.n_edges)
    interior = np.flatnonzero(mesh.edge_kind == meshmod.INTERIOR)
    if len(interior) == 0:
        return values
    if np.any(mesh.edge_elems[interior, 1] < 0):
        raise RuntimeError("interior edge missing its second adjacent element")
    t, w = fem.edge_quadrature_3pt()
    plus, _ = _edge_tractions(mesh, material, U, interior, 0, t)
    minus, _ = _edge_tractions(mesh, material, U, interior, 1, t)
    jump = plus + minus
    sq = np.einsum("eqc,eqc->eq", jump, jump)
    values[interior] = mesh.edge_length[interior] ** 2 * (sq @ w)
    return values


def neumann_residual(mesh: meshmod.Mesh, material: fem.Material, U: np.ndarray,
                     traction=None) -> np.ndarray:
    """h_e ||g - sigma n||_e^2 per edge; zero off the Neumann boundary."""
    values = np.zeros(mesh.n_edges)
    neumann = np.flatnonzero(mesh.edge_kind == meshmod.NEUMANN)
    if len(neumann) == 0:
        return values
    t, w = fem.edge_quadrature_3pt()
    flux, normals = _edge_tractions(mesh, material, U, neumann, 0, t)
    residual = -flux
    if traction is not None:
        pts = meshmod.edge_points(mesh, neumann, t)
        residual += np.array([traction(p, n) for p, n in zip(pts, normals)], dtype=float)
    sq = np.einsum("eqc,eqc->eq", residual, residual)
    values[neumann] = mesh.edge_length[neumann] ** 2 * (sq @ w)
    return values


def estimate(mesh: meshmod.Mesh, U: np.ndarray, material: fem.Material,
             case=None) -> ErrorBreakdown:
    """Assemble the full error breakdown for a discrete solution.

    The load case, when given, supplies the body force and the Neumann
    traction; point loads enter the load vector only and do not appear in
    edge data.
    """
    body = getattr(case, "body_force", (0.0, 0.0)) if case is not None else (0.0, 0.0)
    traction = getattr(case, "traction", None) if case is not None else None

    bulk = bulk_residual(mesh, material, U, body)
    jump = jump_residual(mesh, material, U)
    neumann = neumann_residual(mesh, material, U, traction)

    jump_share = np.zeros(mesh.n_elements)
    interior = np.flatnonzero(mesh.edge_kind == meshmod.INTERIOR)
    np.add.at(jump_share, mesh.edge_elems[interior, 0], 0.5 * jump[interior])
    np.add.at(jump_share, mesh.edge_elems[interior, 1], 0.5 * jump[interior])
    neumann_share = np.zeros(mesh.n_elements)
    nsel = np.flatnonzero(mesh.edge_kind == meshmod.NEUMANN)
    np.add.at(neumann_share, mesh.edge_elems[nsel, 0], neumann[nsel])

    local = bulk + jump_share + neumann_share
    return ErrorBreakdown(
        bulk=bulk,
        jump_edges=jump,
        neumann_edges=neumann,
        jump_by_element=jump_share,
        neumann_by_element=neumann_share,
        local=local,
        bulk_total=float(bulk.sum()),
        jump_total=float(jump.sum()),
        neumann_total=float(neumann.sum()),
        eta_global=float(np.sqrt(local.sum())),
    )


def write_error_report(breakdown: ErrorBreakdown, mesh: meshmod.Mesh, path) -> None:
    """Per-element indicator table with totals and the global estimate."""
    write_columns(
        path, ["element_id", "h_K", "bulk", "jump_half_sum", "neumann", "eta_sq"],
        [np.arange(mesh.n_elements), mesh.diameters, breakdown.bulk,
         breakdown.jump_by_element, breakdown.neumann_by_element, breakdown.local],
        trailer=[["TOTAL", "", repr(breakdown.bulk_total), repr(breakdown.jump_total),
                  repr(breakdown.neumann_total), repr(float(breakdown.local.sum()))],
                 ["GLOBAL_ETA", "", "", "", "", repr(breakdown.eta_global)]],
    )
