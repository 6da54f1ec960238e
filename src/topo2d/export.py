"""Output writers: density rasters (binary PGM), CSV tables, VTK files.

Rasters map density to grayscale as 255 * (1 - x), so solid material is
black. Quad grids raster one pixel per cell; triangulations are sampled
by point-in-element lookup at 8 pixels per unit length.
"""

import csv
import os

import numpy as np
from scipy.spatial import cKDTree

from .mesh import Mesh, write_vtk

PIXELS_PER_UNIT = 8

REPORT_COLUMNS = [
    "element_type",
    "num_elements",
    "final_objective",
    "iterations",
    "bulk_residual",
    "internal_jump_residual",
    "neumann_residual",
    "local_eta_sq",
    "global_eta",
]


def density_to_gray(x: np.ndarray) -> np.ndarray:
    gray = np.rint(255.0 * (1.0 - np.asarray(x, dtype=float)))
    return np.clip(gray, 0, 255).astype(np.uint8)


def write_pgm(image: np.ndarray, path) -> None:
    """Binary (P5) grayscale image; image rows run top to bottom."""
    image = np.ascontiguousarray(image, dtype=np.uint8)
    height, width = image.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(image.tobytes())


def _locate_triangles(mesh: Mesh, points: np.ndarray) -> np.ndarray:
    """Containing element per query point via the 8 nearest-centroid candidates."""
    verts = mesh.nodes[mesh.conn[:, :3]]
    tree = cKDTree(mesh.centroids)
    # a list of ranks keeps the result 2-D even when only one element exists
    _, candidates = tree.query(points, k=list(range(1, min(8, mesh.n_elements) + 1)))
    found = candidates[:, 0].copy()
    todo = np.ones(len(points), dtype=bool)
    tol = 1e-9
    for slot in range(candidates.shape[1]):
        if not todo.any():
            break
        tri = candidates[:, slot]
        v0, v1, v2 = verts[tri, 0], verts[tri, 1], verts[tri, 2]
        d1, d2, dp = v1 - v0, v2 - v0, points - v0
        det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        l1 = (dp[:, 0] * d2[:, 1] - dp[:, 1] * d2[:, 0]) / det
        l2 = (d1[:, 0] * dp[:, 1] - d1[:, 1] * dp[:, 0]) / det
        inside = (l1 >= -tol) & (l2 >= -tol) & (l1 + l2 <= 1.0 + tol)
        hit = todo & inside
        found[hit] = tri[hit]
        todo &= ~inside
    return found


def density_raster(mesh: Mesh, x: np.ndarray) -> np.ndarray:
    """Grayscale image of a density field, top row at the top of the domain."""
    x = np.asarray(x, dtype=float)
    spec = mesh.spec
    if mesh.family == "q1":
        factor = 2 ** spec.refine_level
        grid = x.reshape(spec.ny * factor, spec.nx * factor)
        return density_to_gray(grid[::-1])

    width_px = max(1, int(round(spec.width * PIXELS_PER_UNIT)))
    height_px = max(1, int(round(spec.height * PIXELS_PER_UNIT)))
    px = (np.arange(width_px) + 0.5) * spec.width / width_px
    py = (np.arange(height_px) + 0.5) * spec.height / height_px
    gx, gy = np.meshgrid(px, py)
    elems = _locate_triangles(mesh, np.column_stack([gx.ravel(), gy.ravel()]))
    image = density_to_gray(x[elems]).reshape(height_px, width_px)
    return image[::-1]


def write_columns(path, header: list[str], columns, trailer=()) -> None:
    """CSV table from per-column arrays: one repr per cell, then trailer rows.

    Rows stream out without building the table. Numeric cells never need
    quoting, so the bytes equal those of a csv.writer row loop over the
    same reprs, CRLF line endings included.
    """
    cells = [map(repr, np.asarray(col).tolist()) for col in columns]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(",".join(row) + "\r\n" for row in zip(*cells))
        fh.writelines(",".join(row) + "\r\n" for row in trailer)


def write_density_csv(mesh: Mesh, x: np.ndarray, path) -> None:
    write_columns(path, ["element_id", "centroid_x", "centroid_y", "density"],
                  [np.arange(mesh.n_elements), mesh.centroids[:, 0],
                   mesh.centroids[:, 1], np.asarray(x, dtype=float)])


def export_density(mesh: Mesh, x: np.ndarray, out_dir) -> list[str]:
    """Write density.pgm, density.csv and density.vtk; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    pgm, csv_path, vtk_path = (os.path.join(out_dir, f"density.{ext}")
                               for ext in ("pgm", "csv", "vtk"))
    write_pgm(density_raster(mesh, x), pgm)
    write_density_csv(mesh, x, csv_path)
    write_vtk(mesh, vtk_path, cell_data={"density": x})
    return [pgm, csv_path, vtk_path]


def report_row(family: str, n_elements: int, compliance: float, iterations: int,
               breakdown=None) -> list[str]:
    """One benchmark summary row; the five error columns come from an
    estimator.ErrorBreakdown and stay empty without one."""
    row = [family.upper(), str(int(n_elements)), repr(float(compliance)), str(int(iterations))]
    if breakdown is None:
        row.extend([""] * 5)
    else:
        row.extend(
            [
                repr(breakdown.bulk_total),
                repr(breakdown.jump_total),
                repr(breakdown.neumann_total),
                repr(float(breakdown.local.sum())),
                repr(breakdown.eta_global),
            ]
        )
    return row


def append_report(path, row: list[str]) -> None:
    """Append a summary row, writing the header once and checking it after."""
    exists = os.path.exists(path)
    if exists:
        with open(path, newline="") as fh:
            header = next(csv.reader(fh), None)
        if header != REPORT_COLUMNS:
            raise ValueError(
                f"report schema mismatch in {path}: found {header}, "
                f"expected {REPORT_COLUMNS}"
            )
    with open(path, "a", newline="") as fh:
        writer = csv.writer(fh)
        if not exists:
            writer.writerow(REPORT_COLUMNS)
        writer.writerow(row)
