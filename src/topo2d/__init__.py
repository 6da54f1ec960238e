"""topo2d: density-based topology optimization on 2D finite element meshes.

The package couples a small linear elasticity solver (bilinear quads, linear
and quadratic triangles) with SIMP compliance minimization and a residual
type a posteriori error estimator. The ``topo2d`` console script exposes the
benchmark problems; the modules below are importable for scripting.
"""

from .estimator import ErrorBreakdown, estimate, stress_divergence, write_error_report
from .fem import (Material, element_stiffness, elasticity_matrix,
                  shape_functions, strain_energy)
from .mesh import (DomainSpec, Mesh, classify_boundary, generate_mesh,
                   nearest_node, refine_uniform, write_vtk)
from .optimizer import (DensityField, IterationRecord, OptimizeResult,
                        SensitivityFilter, SimpConfig, oc_update, optimize,
                        sensitivity_filter)
from .presets import build_load_case, preset_domain_spec
from .solver import (LoadCase, SingularSystemError, SolveError, SolveResult,
                     assemble, solve)

__version__ = "0.1.0"

__all__ = [
    "DomainSpec",
    "Mesh",
    "generate_mesh",
    "refine_uniform",
    "classify_boundary",
    "nearest_node",
    "write_vtk",
    "Material",
    "elasticity_matrix",
    "element_stiffness",
    "shape_functions",
    "strain_energy",
    "LoadCase",
    "SolveResult",
    "SingularSystemError",
    "SolveError",
    "assemble",
    "solve",
    "ErrorBreakdown",
    "estimate",
    "stress_divergence",
    "write_error_report",
    "SimpConfig",
    "DensityField",
    "IterationRecord",
    "OptimizeResult",
    "SensitivityFilter",
    "sensitivity_filter",
    "oc_update",
    "optimize",
    "preset_domain_spec",
    "build_load_case",
    "__version__",
]
