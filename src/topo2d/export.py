"""Output writers: density rasters (binary PGM), CSV tables, VTK files.

Rasters map density to grayscale as 255 * (1 - x), so solid material is
black. Quad grids raster one pixel per cell; triangulations are sampled
by point-in-element lookup at 8 pixels per unit length.
"""

import csv
import os

import numpy as np

from .mesh import Mesh, write_rows, write_vtk

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
    """Lowest-numbered element containing each point, at barycentric tolerance 1e-9.

    Base cell c = j*nx + i of the generator's grid owns elements c*m to
    (c+1)*m - 1, and red refinement puts the children of element e at
    4e..4e+3. So each point picks its cell, then its base triangle, then one
    child per refine level, from barycentrics in unit-cell coordinates; a
    point within the tolerance of a shared side takes the lower id, so that
    rounding in the cell coordinates cannot move it.
    """
    spec = mesh.spec
    nx, ny, levels = spec.nx, spec.ny, spec.refine_level
    cross = spec.triangulation == "cross_split"
    per_cell = 4 if cross else 2
    m = per_cell * 4 ** levels
    if m * nx * ny != mesh.n_elements:
        raise ValueError(f"mesh has {mesh.n_elements} elements, not the {m * nx * ny} "
                         "its spec generates; cannot locate points in it")
    tol = 1e-9
    sx, sy = points[:, 0] * (nx / spec.width), points[:, 1] * (ny / spec.height)
    i = np.clip(np.ceil(sx - tol) - 1, 0, nx - 1)
    j = np.clip(np.ceil(sy - tol) - 1, 0, ny - 1)
    u, v = sx - i, sy - j
    if cross:
        # bottom, right, top and left triangles around the cell centre
        d1, d2 = v - u, u + v - 1.0
        k = np.where(d1 <= tol, np.where(d2 <= tol, 0, 1), np.where(d2 >= -tol, 2, 3))
        bary = np.stack([(-d2, -d1, 2.0 * v), (-d1, d2, 2.0 - 2.0 * u),
                         (d2, d1, 2.0 - 2.0 * v), (d1, -d2, 2.0 * u)])
    else:
        k = np.where(v <= u + tol, 0, 1)
        bary = np.stack([(1.0 - u, u - v, v), (1.0 - v, u, v - u)])
    bary = bary[k, :, np.arange(len(k))].T
    elem = (j * nx + i).astype(np.int64) * per_cell + k
    for _ in range(levels):
        bary *= 2.0
        corner_hit = bary >= 1.0 - tol
        child = np.where(corner_hit.any(axis=0), corner_hit.argmax(axis=0), 3)
        # corner child c: (2l0, 2l1, 2l2) less one at c; middle: (1-2l2, 1-2l0, 1-2l1)
        corner = child < 3
        bary[child[corner], np.flatnonzero(corner)] -= 1.0
        bary[:, ~corner] = 1.0 - bary[[2, 0, 1]][:, ~corner]
        elem = 4 * elem + child
    return elem


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

    Numeric cells never need quoting, so the bytes equal those of a
    csv.writer row loop over the same reprs, CRLF line endings included.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        write_rows(fh, columns, ",", "\r\n")
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
