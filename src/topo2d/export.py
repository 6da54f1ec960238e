"""Output writers: density rasters (binary PGM), CSV tables, VTK files.

Rasters map density to grayscale as 255 * (1 - x), so solid material is
black. Quad grids raster one pixel per cell; triangulations are sampled
at 8 pixels per unit length, each pixel in the lowest-numbered element
holding its centre, found by descending mesh.CELL_SPLITS and
mesh.RED_CHILDREN.
"""

import csv
import os

import numpy as np

from .fem import LOCAL_EDGES, REF_CORNERS
from .mesh import CELL_SPLITS, RED_CHILDREN, Mesh, write_rows, write_vtk

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


def _first_holding(corners: np.ndarray, rows, ref: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each point ref (n, 2), the lowest triangle of rows (index triples
    into corners) whose barycentrics are all >= -1e-9 (the first when none
    holds it), and the point's reference coordinates in that triangle."""
    verts = corners[np.asarray(rows)]
    frames = np.concatenate([np.ones((len(verts), 1, 3)), verts.transpose(0, 2, 1)], axis=1)
    inverse = np.linalg.inv(frames)
    bary = inverse[:, :, 1:] @ ref.T
    bary += inverse[:, :, :1]
    k = np.argmax(bary.min(axis=1) >= -1e-9, axis=0)
    return k, bary[k, 1:, np.arange(len(k))]


def _locate_triangles(mesh: Mesh, points: np.ndarray) -> np.ndarray:
    """Lowest-numbered element containing each point, at barycentric tolerance 1e-9.

    Base cell c = j*nx + i of the generator's grid owns elements c*m to
    (c+1)*m - 1, split as mesh.CELL_SPLITS says, and red refinement puts the
    children of element e at 4e..4e+3 as mesh.RED_CHILDREN says. So each
    point picks its cell, then its base triangle in unit-cell coordinates,
    then one child per refine level in reference coordinates; a point within
    the tolerance of a shared side takes the lower id, so that rounding in
    the cell coordinates cannot move it.
    """
    spec = mesh.spec
    nx, ny, levels = spec.nx, spec.ny, spec.refine_level
    split = CELL_SPLITS[spec.triangulation]
    m = len(split) * len(RED_CHILDREN) ** levels
    if m * nx * ny != mesh.n_elements:
        raise ValueError(f"mesh has {mesh.n_elements} elements, not the {m * nx * ny} "
                         "its spec generates; cannot locate points in it")
    tol = 1e-9
    sx, sy = points[:, 0] * (nx / spec.width), points[:, 1] * (ny / spec.height)
    i = np.clip(np.ceil(sx - tol) - 1, 0, nx - 1)
    j = np.clip(np.ceil(sy - tol) - 1, 0, ny - 1)
    # the points the tables index: the unit cell's corners and centre, and
    # the reference triangle's vertices and edge midpoints
    cell_points = np.vstack([(REF_CORNERS["q1"] + 1.0) / 2.0, [(0.5, 0.5)]])
    tri = REF_CORNERS["p1"]
    tri_points = np.vstack([tri, tri[np.array(LOCAL_EDGES["p1"])].mean(axis=1)])
    k, ref = _first_holding(cell_points, split, np.column_stack([sx - i, sy - j]))
    elem = (j * nx + i).astype(np.int64) * len(split) + k
    for _ in range(levels):
        child, ref = _first_holding(tri_points, RED_CHILDREN, ref)
        elem = len(RED_CHILDREN) * elem + child
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


def check_report(path) -> bool:
    """Whether a report exists at path; raises ValueError if its header is
    not REPORT_COLUMNS, so a run can refuse it before doing any work."""
    if not os.path.exists(path):
        return False
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), None)
    if header != REPORT_COLUMNS:
        raise ValueError(f"report schema mismatch in {path}: found {header}, "
                         f"expected {REPORT_COLUMNS}")
    return True


def append_report(path, row: list[str]) -> None:
    """Append a summary row, writing the header once and checking it after."""
    exists = check_report(path)
    with open(path, "a", newline="") as fh:
        writer = csv.writer(fh)
        if not exists:
            writer.writerow(REPORT_COLUMNS)
        writer.writerow(row)
