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
reference element (straight triangles, axis-aligned rectangles), on which
sigma(u_h) is affine. An estimate evaluates sigma once, at every element's
own vertices; that table gives the constant stress divergence and, at the
ends that mesh.edge_ends finds, every edge trace. One edge rule serves both
edge terms: the residual is linear along an edge, so its end values,
interpolated to a 3-point Gauss rule, integrate its square exactly.
"""

from dataclasses import dataclass

import numpy as np

from . import fem, mesh as meshmod
from .export import write_columns
from .solver import LoadCase, edge_tractions

_NO_SUPPORTS = np.empty(0, dtype=np.int64)


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


def _vertex_stresses(mesh: meshmod.Mesh, material: fem.Material,
                     U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Voigt stress of the discrete solution at every element's vertices.

    Returns the stresses (E, nv, 3), vertices in local order, and the inverse
    Jacobians (E, 2, 2). The elements are affine, so one inverse serves the
    whole element.
    """
    conn = mesh.conn
    _, dref = fem.shape_functions_at(mesh.family, fem.REF_CORNERS[mesh.family])
    inv, _ = fem.inverse_jacobian(mesh.nodes[conn], dref[0])
    gx = np.tensordot(U[2 * conn], dref, axes=(1, 1)) @ inv
    gy = np.tensordot(U[2 * conn + 1], dref, axes=(1, 1)) @ inv
    # fem.VOIGT written out: contracting with it doubled this routine's time
    strain = np.stack([gx[..., 0], gy[..., 1], gx[..., 1] + gy[..., 0]], axis=2)
    return strain @ fem.elasticity_matrix(material), inv


def _divergence(mesh: meshmod.Mesh, sigma: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """div sigma per element from the vertex stresses and inverse Jacobians."""
    step = 2.0 if mesh.family == "q1" else 1.0
    dref = np.stack([sigma[:, 1] - sigma[:, 0], sigma[:, -1] - sigma[:, 0]], axis=2) / step
    grad = dref @ inv
    return np.stack([grad[:, 0, 0] + grad[:, 2, 1], grad[:, 2, 0] + grad[:, 1, 1]], axis=1)


def _edge_residuals(mesh: meshmod.Mesh, sigma: np.ndarray, traction) -> np.ndarray:
    """h_e ||(sigma_0 - sigma_1) n_0 - g||_e^2 on every non-Dirichlet edge.

    n_0 is side 0's outward normal; sigma_1 = 0 on boundary edges and g = 0
    on interior ones. Dirichlet edges hold zero.
    """
    edges = np.flatnonzero(mesh.edge_kind != meshmod.DIRICHLET)
    inside = mesh.edge_kind[edges] == meshmod.INTERIOR
    e0, v0, normal = meshmod.edge_ends(mesh, edges, 0)
    e1, v1, _ = meshmod.edge_ends(mesh, edges[inside], 1)
    ends = sigma[e0[:, None], v0]
    ends[inside] -= sigma[e1[:, None], v1]
    t, w = fem.edge_quadrature_3pt()
    s = ends[:, :1] + t[None, :, None] * (ends[:, 1:] - ends[:, :1])
    nx, ny = normal[:, None, 0], normal[:, None, 1]
    r = np.stack([s[..., 0] * nx + s[..., 2] * ny, s[..., 2] * nx + s[..., 1] * ny], axis=2)
    if traction is not None:
        pts = meshmod.edge_points(mesh, edges[~inside], t)
        r[~inside] -= edge_tractions(traction, pts, normal[~inside])
    values = np.zeros(mesh.n_edges)
    values[edges] = mesh.edge_length[edges] ** 2 * (np.einsum("eqc,eqc->eq", r, r) @ w)
    return values


def stress_divergence(mesh: meshmod.Mesh, material: fem.Material,
                      U: np.ndarray) -> np.ndarray:
    """div sigma(u_h) per element, shape (E, 2).

    sigma(u_h) is affine on every element (on rectangles eps_xx varies with
    y only, eps_yy with x only), so the vertex differences along the two
    reference axes, a step of 2 on Q1 and 1 on triangles, fix its gradient.
    """
    return _divergence(mesh, *_vertex_stresses(mesh, material, U))


def bulk_residual(mesh: meshmod.Mesh, material: fem.Material, U: np.ndarray,
                  body_force=(0.0, 0.0)) -> np.ndarray:
    """h_K^2 ||f + div sigma||_K^2 per element.

    Identically zero for p1 meshes without body force: the stress is
    piecewise constant there.
    """
    return estimate(mesh, U, material, LoadCase(_NO_SUPPORTS, body_force=body_force)).bulk


def jump_residual(mesh: meshmod.Mesh, material: fem.Material, U: np.ndarray) -> np.ndarray:
    """h_e ||jump(sigma n)||_e^2 per edge; zero on boundary edges.

    The jump (sigma_0 - sigma_1) n_0 does not depend on which side is
    first. An interior edge without a second element raises ValueError.
    """
    return estimate(mesh, U, material).jump_edges


def neumann_residual(mesh: meshmod.Mesh, material: fem.Material, U: np.ndarray,
                     traction=None) -> np.ndarray:
    """h_e ||g - sigma n||_e^2 per edge; zero off the Neumann boundary."""
    return estimate(mesh, U, material, LoadCase(_NO_SUPPORTS, traction=traction)).neumann_edges


def estimate(mesh: meshmod.Mesh, U: np.ndarray, material: fem.Material,
             case=None) -> ErrorBreakdown:
    """Assemble the full error breakdown for a discrete solution.

    The load case, when given, supplies the body force and the Neumann
    traction; point loads enter the load vector only and do not appear in
    edge data.
    """
    body = getattr(case, "body_force", (0.0, 0.0))
    sigma, inv = _vertex_stresses(mesh, material, U)
    residual = _divergence(mesh, sigma, inv) + np.asarray(body, dtype=float)[None, :]
    bulk = mesh.diameters ** 2 * mesh.areas * np.einsum("ec,ec->e", residual, residual)
    edges = _edge_residuals(mesh, sigma, getattr(case, "traction", None))
    interior = mesh.edge_kind == meshmod.INTERIOR
    jump = np.where(interior, edges, 0.0)
    neumann = np.where(mesh.edge_kind == meshmod.NEUMANN, edges, 0.0)

    # each term is zero off its own edges; an interior edge's two halves are
    # summed side 0 first, then side 1
    jump_share = np.bincount(
        np.concatenate([mesh.edge_elems[interior, 0], mesh.edge_elems[interior, 1]]),
        weights=np.tile(0.5 * jump[interior], 2), minlength=mesh.n_elements)
    neumann_share = np.bincount(mesh.edge_elems[:, 0], weights=neumann, minlength=mesh.n_elements)
    local = bulk + jump_share + neumann_share
    return ErrorBreakdown(
        bulk=bulk, jump_edges=jump, neumann_edges=neumann, jump_by_element=jump_share,
        neumann_by_element=neumann_share, local=local, bulk_total=float(bulk.sum()),
        jump_total=float(jump.sum()), neumann_total=float(neumann.sum()),
        eta_global=float(np.sqrt(local.sum())))


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
