"""Benchmark problem definitions.

Three classic compliance benchmarks on unit-cell domains:

* cantilever: rectangle, west edge clamped, unit downward tip load at the
  east-bottom corner;
* bridge: square, bottom corners pinned, unit downward load at the bottom
  center;
* bevel: trapezoid whose right edge is a third of the left height
  (vertically centered), west edge clamped, unit downward load at the east
  mid-height.

All use E = 1, nu = 0.3 and a (0, -1) point load; volume fractions are
0.4, 0.3 and 0.5 respectively.
"""

from dataclasses import dataclass

import numpy as np

from .mesh import DomainSpec, Mesh, nearest_node
from .solver import LoadCase

BEVEL_RIGHT_RATIO = 1.0 / 3.0


@dataclass(frozen=True)
class Preset:
    name: str
    width: float
    height: float
    volfrac: float
    shape: str = "rectangle"


PRESETS = {
    "cantilever": Preset("cantilever", 32.0, 20.0, 0.4),
    "bridge": Preset("bridge", 30.0, 30.0, 0.3),
    "bevel": Preset("bevel", 40.0, 30.0, 0.5, shape="trapezoid"),
}


def preset_domain_spec(
    problem: str,
    width: float | None = None,
    height: float | None = None,
    nx: int | None = None,
    ny: int | None = None,
    triangulation: str = "cross_split",
    refine_level: int = 0,
    bevel_ratio: float = BEVEL_RIGHT_RATIO,
) -> DomainSpec:
    """Domain for a preset; grid counts default to one cell per unit."""
    preset = PRESETS[problem]
    width = preset.width if width is None else float(width)
    height = preset.height if height is None else float(height)
    return DomainSpec(
        width=width,
        height=height,
        nx=int(round(width)) if nx is None else nx,
        ny=int(round(height)) if ny is None else ny,
        shape=preset.shape,
        right_height=bevel_ratio * height if preset.shape == "trapezoid" else None,
        triangulation=triangulation,
        refine_level=refine_level,
    )


def build_load_case(problem: str, mesh: Mesh) -> LoadCase:
    """Resolve the preset's supports and point load on a concrete mesh."""
    if problem not in PRESETS:
        raise ValueError(f"unknown problem {problem!r}, expected one of {sorted(PRESETS)}")
    spec = mesh.spec
    if problem in ("cantilever", "bevel"):
        tol = 1e-9 * max(spec.width, spec.height)
        fixed = np.flatnonzero(np.abs(mesh.nodes[:, 0]) <= tol)
        load_y = 0.0 if problem == "cantilever" else 0.5 * spec.height
        load = nearest_node(mesh, spec.width, load_y)
    else:
        fixed = np.array(
            [nearest_node(mesh, 0.0, 0.0), nearest_node(mesh, spec.width, 0.0)],
            dtype=np.int64,
        )
        load = nearest_node(mesh, 0.5 * spec.width, 0.0)
    # a load on a support would vanish from the reduced system
    if load in fixed:
        raise ValueError(f"{problem}: the load node {load} is also a support on this mesh; "
                         "use a finer grid")
    return LoadCase(fixed_nodes=fixed, point_loads=((load, 0.0, -1.0),))
