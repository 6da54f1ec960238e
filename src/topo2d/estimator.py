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
sigma(u_h) is affine: its values at each element's own vertices give the
constant stress divergence and, at the end vertices and outward normal
that mesh.edge_ends finds, every edge trace. The jump is linear along an
edge and integrated in closed form from its two end values; the Neumann
term samples g at 3 Gauss points per edge.
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


def _vertex_stresses(mesh: meshmod.Mesh, material: fem.Material, U: np.ndarray,
                     elems=slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """Voigt stress of the discrete solution at the selected elements' vertices.

    Returns the stresses (m, nv, 3), vertices in local order, and the inverse
    Jacobians (m, 2, 2). The elements are affine, so one inverse serves the
    whole element.
    """
    conn = mesh.conn[elems]
    _, dref = fem.shape_functions_at(mesh.family, fem.REF_CORNERS[mesh.family])
    inv, _ = fem.inverse_jacobian(mesh.nodes[conn], dref[0])
    gx = np.tensordot(U[2 * conn], dref, axes=(1, 1)) @ inv
    gy = np.tensordot(U[2 * conn + 1], dref, axes=(1, 1)) @ inv
    # fem.VOIGT written out: contracting with it doubled this routine's time
    strain = np.stack([gx[..., 0], gy[..., 1], gx[..., 1] + gy[..., 0]], axis=2)
    return strain @ fem.elasticity_matrix(material), inv


def _traction(sigma: np.ndarray, normal: np.ndarray) -> np.ndarray:
    """sigma . n for stresses (m, q, 3) and one normal (m, 2) per row."""
    nx, ny = normal[:, None, 0], normal[:, None, 1]
    return np.stack([sigma[..., 0] * nx + sigma[..., 2] * ny,
                     sigma[..., 2] * nx + sigma[..., 1] * ny], axis=2)


def stress_divergence(mesh: meshmod.Mesh, material: fem.Material,
                      U: np.ndarray) -> np.ndarray:
    """div sigma(u_h) per element, shape (E, 2).

    sigma(u_h) is affine on every element (on rectangles eps_xx varies with
    y only, eps_yy with x only), so the vertex differences along the two
    reference axes, a step of 2 on Q1 and 1 on triangles, fix its gradient.
    """
    sigma, inv = _vertex_stresses(mesh, material, U)
    step = 2.0 if mesh.family == "q1" else 1.0
    dref = np.stack([sigma[:, 1] - sigma[:, 0], sigma[:, -1] - sigma[:, 0]], axis=2) / step
    grad = dref @ inv
    return np.stack([grad[:, 0, 0] + grad[:, 2, 1], grad[:, 2, 0] + grad[:, 1, 1]], axis=1)


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


def jump_residual(mesh: meshmod.Mesh, material: fem.Material,
                  U: np.ndarray) -> np.ndarray:
    """h_e ||jump(sigma n)||_e^2 per edge; zero on boundary edges.

    The jump (sigma_0 - sigma_1) n_0 does not depend on which side is
    first. It is linear along the edge, so with end values a and b the
    integral is h_e^2 / 3 (|a|^2 + a.b + |b|^2). An interior edge without
    a second element raises ValueError.
    """
    values = np.zeros(mesh.n_edges)
    interior = np.flatnonzero(mesh.edge_kind == meshmod.INTERIOR)
    sigma, _ = _vertex_stresses(mesh, material, U)
    e0, v0, normal = meshmod.edge_ends(mesh, interior, 0)
    e1, v1, _ = meshmod.edge_ends(mesh, interior, 1)
    jump = _traction(sigma[e0[:, None], v0] - sigma[e1[:, None], v1], normal)
    a, b = jump[:, 0], jump[:, 1]
    sq = np.einsum("ec,ec->e", a, a + b) + np.einsum("ec,ec->e", b, b)
    values[interior] = mesh.edge_length[interior] ** 2 / 3.0 * sq
    return values


def neumann_residual(mesh: meshmod.Mesh, material: fem.Material, U: np.ndarray,
                     traction=None) -> np.ndarray:
    """h_e ||g - sigma n||_e^2 per edge; zero off the Neumann boundary."""
    values = np.zeros(mesh.n_edges)
    neumann = np.flatnonzero(mesh.edge_kind == meshmod.NEUMANN)
    t, w = fem.edge_quadrature_3pt()
    elems, ends, normals = meshmod.edge_ends(mesh, neumann, 0)
    sigma, _ = _vertex_stresses(mesh, material, U, elems)
    sigma = np.take_along_axis(sigma, ends[:, :, None], axis=1)
    sigma = sigma[:, :1] + t[None, :, None] * (sigma[:, 1:] - sigma[:, :1])
    residual = -_traction(sigma, normals)
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
    body = getattr(case, "body_force", (0.0, 0.0))
    traction = getattr(case, "traction", None)

    bulk = bulk_residual(mesh, material, U, body)
    jump = jump_residual(mesh, material, U)
    neumann = neumann_residual(mesh, material, U, traction)

    # each term is zero off its own edges; an interior edge's two halves are
    # summed side 0 first, then side 1
    interior = mesh.edge_kind == meshmod.INTERIOR
    jump_share = np.bincount(
        np.concatenate([mesh.edge_elems[interior, 0], mesh.edge_elems[interior, 1]]),
        weights=np.tile(0.5 * jump[interior], 2), minlength=mesh.n_elements)
    neumann_share = np.bincount(mesh.edge_elems[:, 0], weights=neumann,
                                minlength=mesh.n_elements)

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
