"""Compliance minimization with penalized densities.

The loop follows the classic pattern: solve, evaluate compliance and its
density gradient, smooth the gradient with a distance-weighted sensitivity
filter over element centroids, update densities with the optimality
criteria rule under a volume constraint, and stop once the largest density
change falls below the convergence tolerance.
"""

import time
from dataclasses import dataclass, field, fields

import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree

from . import fem, mesh as meshmod
from .export import write_columns
from .solver import LoadCase, SolveError, StiffnessAssembler, element_dof_matrix


class BisectionError(SolveError):
    """Raised when the volume-constraint bisection fails to converge."""


@dataclass(frozen=True)
class SimpConfig:
    """Penalization and update parameters for one optimization run."""

    volfrac: float
    penal: float = 3.0
    rmin: float = 1.5
    move: float = 0.2
    damping: float = 0.5
    conv_tol: float = 0.01
    max_iters: int = 500
    x_min: float = 1e-3

    def validate(self) -> None:
        for name, value in vars(self).items():
            # conv_tol = inf is allowed: it stops the loop after one iteration
            if np.isnan(value) or (np.isinf(value) and name != "conv_tol"):
                raise ValueError(f"{name} must be finite (got {value})")
        if not 0.0 < self.volfrac <= 1.0:
            raise ValueError("volfrac must lie in (0, 1]")
        if self.penal < 1.0:
            raise ValueError("penal must be at least 1")
        if self.rmin <= 0.0 or self.move <= 0.0 or self.damping <= 0.0:
            raise ValueError("rmin, move and damping must be positive")
        if self.conv_tol < 0.0:
            raise ValueError(f"conv_tol must be nonnegative (got {self.conv_tol:g})")
        if self.damping > 1.0:
            # above one the OC step amplifies, and lam ** -damping can overflow
            raise ValueError(f"damping must lie in (0, 1] (got {self.damping:g})")
        if not 0.0 < self.x_min < 1.0:
            raise ValueError("x_min must lie in (0, 1)")
        if self.volfrac < self.x_min:
            raise ValueError(f"volfrac {self.volfrac:g} is below the density floor "
                             f"x_min {self.x_min:g}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass
class DensityField:
    """Element densities with passive mask and element volumes.

    Passive elements stay pinned at x_min; the volume fraction is taken
    over the active subdomain only.
    """

    x: np.ndarray
    passive: np.ndarray
    volumes: np.ndarray
    x_min: float = 1e-3

    @classmethod
    def uniform(cls, mesh: meshmod.Mesh, volfrac: float, x_min: float = 1e-3) -> "DensityField":
        x = np.full(mesh.n_elements, float(volfrac))
        x[mesh.passive] = x_min
        return cls(x=x, passive=mesh.passive.copy(), volumes=mesh.areas.copy(), x_min=x_min)

    def volume_fraction(self) -> float:
        active = ~self.passive
        return float(
            (self.x[active] * self.volumes[active]).sum() / self.volumes[active].sum()
        )


@dataclass
class IterationRecord:
    loop: int
    compliance: float
    rchange: float
    volume: float
    wall_time: float


@dataclass
class OptimizeResult:
    field: DensityField
    history: list
    compliance: float
    iterations: int


def element_strain_energies(mesh: meshmod.Mesh, material: fem.Material,
                            U: np.ndarray) -> np.ndarray:
    """Per-element u_e^T K0_e u_e at unit density."""
    k0 = fem.element_stiffness_batch(mesh.family, mesh.nodes[mesh.conn], material)
    return fem.element_energies(k0, U[element_dof_matrix(mesh.conn)])


def _penalized_compliance(x: np.ndarray, sed: np.ndarray, penal: float):
    """Compliance and its density gradient from unit-density strain energies."""
    compliance = float(((x ** penal) * sed).sum())
    dc = -penal * x ** (penal - 1.0) * sed
    return compliance, dc


def compliance_and_sensitivity(mesh: meshmod.Mesh, densities, U: np.ndarray,
                               penal: float, material: fem.Material):
    """Compliance sum_e x^p u^T K0 u and its density gradient -p x^(p-1) u^T K0 u."""
    x = np.asarray(getattr(densities, "x", densities), dtype=float)
    return _penalized_compliance(x, element_strain_energies(mesh, material, U), penal)


def characteristic_size(mesh: meshmod.Mesh) -> float:
    """Filter length unit: cell width for quad grids, sqrt of the mean
    element area for triangulations."""
    if mesh.family == "q1":
        xs = mesh.nodes[mesh.conn[0], 0]
        return float(xs.max() - xs.min())
    return float(np.sqrt(mesh.areas.mean()))


class SensitivityFilter:
    """Distance-weighted averaging of x*dc over element centroid neighborhoods.

    Weights are the linear hat max(0, r - dist) with r = rmin times the
    characteristic element size; the neighborhood structure is built once
    per mesh with a KD-tree.
    """

    def __init__(self, mesh: meshmod.Mesh, rmin: float):
        radius = rmin * characteristic_size(mesh)
        centroids = mesh.centroids
        n_el = len(centroids)
        pairs = cKDTree(centroids).query_pairs(radius, output_type="ndarray")
        dist = np.linalg.norm(centroids[pairs[:, 0]] - centroids[pairs[:, 1]], axis=1)
        weight = radius - dist
        i = np.concatenate([pairs[:, 0], pairs[:, 1], np.arange(n_el)])
        j = np.concatenate([pairs[:, 1], pairs[:, 0], np.arange(n_el)])
        w = np.concatenate([weight, weight, np.full(n_el, radius)])
        self.weights = sp.csr_matrix((w, (i, j)), shape=(n_el, n_el))
        self.row_sums = np.asarray(self.weights.sum(axis=1)).ravel()

    def apply(self, x: np.ndarray, dc: np.ndarray) -> np.ndarray:
        return (self.weights @ (x * dc)) / (x * self.row_sums)


def sensitivity_filter(mesh: meshmod.Mesh, x: np.ndarray, dc: np.ndarray,
                       rmin: float) -> np.ndarray:
    """One-shot convenience wrapper around SensitivityFilter."""
    return SensitivityFilter(mesh, rmin).apply(x, dc)


def oc_update(x: np.ndarray, dc: np.ndarray, volumes: np.ndarray,
              config: SimpConfig, passive: np.ndarray | None = None) -> np.ndarray:
    """Optimality criteria step under the active-volume constraint.

    The Lagrange multiplier is found by bisection until the constraint is
    met to 1e-6 of the active volume. Passive elements weigh nothing in the
    volume, and both their bounds are x_min, so every step leaves them there.
    Raises ValueError on an invalid config.
    """
    config.validate()
    x = np.asarray(x, dtype=float)
    dc = np.asarray(dc, dtype=float)
    volumes = np.asarray(volumes, dtype=float)
    if passive is None:
        passive = np.zeros_like(x, dtype=bool)
    scale = np.abs(dc).max()
    if np.any(dc > 1e-12 * max(scale, 1.0)):
        raise ValueError("compliance sensitivities must be nonpositive")

    weights = np.where(passive, 0.0, volumes)
    v0 = weights.sum()
    target = config.volfrac * v0
    lower = np.where(passive, config.x_min, np.maximum(config.x_min, x - config.move))
    upper = np.where(passive, config.x_min, np.minimum(1.0, x + config.move))
    # x (-dc / (lam v))^damping = base lam^-damping
    base = x * (-np.minimum(dc, 0.0) / volumes) ** config.damping

    def candidate(lam: float) -> np.ndarray:
        return np.clip(base * lam ** -config.damping, lower, upper)

    lo, hi = 1e-10, 1e10
    for _ in range(30):
        if candidate(lo) @ weights >= target:
            break
        lo /= 10.0
    for _ in range(30):
        if candidate(hi) @ weights <= target:
            break
        hi *= 10.0

    for _ in range(200):
        lam = 0.5 * (lo + hi)
        xn = candidate(lam)
        vol = xn @ weights
        if abs(vol - target) <= 1e-6 * v0:
            return xn
        if vol > target:
            lo = lam
        else:
            hi = lam
    raise BisectionError(
        f"volume bisection did not converge after 200 iterations "
        f"(bracket [{lo:.6e}, {hi:.6e}], volume error {abs(vol - target) / v0:.3e})"
    )


def optimize(mesh: meshmod.Mesh, case: LoadCase, material: fem.Material,
             config: SimpConfig, callback=None, log=None) -> OptimizeResult:
    """Run the density update loop until convergence or max_iters.

    The convergence test runs after each update, so conv_tol = inf stops
    after exactly one iteration. callback, when given, receives
    (loop, densities) after every update. log, when given, receives one
    formatted progress line per iteration.
    """
    config.validate()
    assembler = StiffnessAssembler(mesh, material, case)
    filt = SensitivityFilter(mesh, config.rmin)
    field_ = DensityField.uniform(mesh, config.volfrac, config.x_min)
    x = field_.x
    volumes = field_.volumes
    history: list[IterationRecord] = []

    loop = 0
    while True:
        loop += 1
        started = time.perf_counter()
        x_old = x
        result = assembler.solve(x, config.penal)
        compliance, dc = _penalized_compliance(
            x, assembler.strain_energies(result.U), config.penal)
        dc_filtered = filt.apply(x, dc)
        x = field_.x = oc_update(x_old, dc_filtered, volumes, config,
                                 passive=field_.passive)
        rchange = float(np.abs(x - x_old).max() / x_old.max())
        volume = field_.volume_fraction()
        history.append(
            IterationRecord(loop, float(compliance), float(rchange), volume,
                            time.perf_counter() - started)
        )
        if log is not None:
            log(
                f"it {loop:4d}  obj {compliance:12.6f}  vol {volume:.4f}  "
                f"change {rchange:.5f}"
            )
        if callback is not None:
            callback(loop, x.copy())
        if rchange <= config.conv_tol or loop >= config.max_iters:
            break

    return OptimizeResult(field=field_, history=history,
                          compliance=history[-1].compliance, iterations=loop)


def write_history_csv(history, path) -> None:
    """Per-iteration log: loop, compliance, rchange, volume, wall_time."""
    names = [f.name for f in fields(IterationRecord)]
    write_columns(path, names, [[getattr(rec, name) for rec in history] for name in names])
