"""Global assembly of density-penalized stiffness, load vectors and solves.

Dirichlet conditions are enforced by elimination: the system is reduced to
free degrees of freedom, solved with a sparse direct factorization, and
expanded back.

Every solve reduces K through StiffnessAssembler. At its first reduced
matrix it numbers the free nodes once, in minimum degree order of their
graph, and fixes the CSC pattern of the reduced matrix in that order
together with the slot of every element-matrix entry in it. Each assembly
is one weighted bincount into that pattern, and SuperLU factors every
reduced matrix in NATURAL order. The pattern comes from numbered 2x2 node
blocks that scipy lays out in CSC order; entries on a pinned node share one
sentinel slot. asm.free, and the free_dofs of apply_dirichlet, stay in node
pairs (x then y). The full K is built only when GlobalSystem.K is read;
prescribed values are lifted into the right-hand side element by element.
StiffnessAssembler.solve and solve() share one sequence. Every solve is
checked once against its own relative residual; a zero right-hand side is
checked by solving a fixed probe instead.
"""

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import fem, mesh as meshmod

#: solves are rejected when the free-dof relative residual exceeds this
RESIDUAL_TOL = 1e-8


class SolveError(RuntimeError):
    """A numerical failure of the linear solve or of the density update."""


class SingularSystemError(SolveError):
    """Raised when the reduced system is singular or a solve fails its checks."""


@dataclass(frozen=True)
class LoadCase:
    """Supports and loads for one problem.

    fixed_nodes lists node ids with both displacement components pinned to
    zero. point_loads holds (node_id, fx, fy) triples. traction, when set,
    is a callable g(points, normal) -> (m, 2) evaluated per Neumann edge,
    and body_force is a domain-constant vector.
    """

    fixed_nodes: np.ndarray
    point_loads: tuple = ()
    traction: object = None
    body_force: tuple[float, float] = (0.0, 0.0)


def element_dof_matrix(conn: np.ndarray) -> np.ndarray:
    """Interleaved dof indices per element, shape (E, 2k)."""
    n_el, k = conn.shape
    dofs = np.empty((n_el, 2 * k), dtype=np.int64)
    dofs[:, 0::2] = 2 * conn
    dofs[:, 1::2] = 2 * conn + 1
    return dofs


@dataclass
class GlobalSystem:
    """Stiffness K(x) = sum_e x_e^p K0_e of an assembler, and a load vector.

    F is the system's own copy of the load vector; callers may replace it
    and solve() uses the replacement. K is built only when read.
    """

    assembler: "StiffnessAssembler"
    x: np.ndarray
    penal: float
    F: np.ndarray

    @property
    def K(self) -> sp.csc_matrix:
        asm = self.assembler
        n_el, w = asm.edofs.shape
        rows = np.broadcast_to(asm.edofs[:, :, None], (n_el, w, w)).ravel()
        cols = np.broadcast_to(asm.edofs[:, None, :], (n_el, w, w)).ravel()
        data = asm.scaled_data(self.x, self.penal)
        return sp.coo_matrix((data, (rows, cols)), shape=(asm.ndof, asm.ndof)).tocsc()


@dataclass
class SolveResult:
    U: np.ndarray
    residual_norm: float
    compliance: float


def constrained_dof_ids(case: LoadCase) -> np.ndarray:
    fixed = np.asarray(case.fixed_nodes, dtype=np.int64)
    return np.sort(np.concatenate([2 * fixed, 2 * fixed + 1]))


def build_load_vector(mesh: meshmod.Mesh, case: LoadCase) -> np.ndarray:
    """Point loads plus consistent body-force and traction contributions."""
    F = np.zeros(2 * mesh.n_nodes)
    for node, fx, fy in case.point_loads:
        node = int(node)
        if not 0 <= node < mesh.n_nodes:
            raise ValueError(f"point load node {node} outside [0, {mesh.n_nodes})")
        F[2 * node] += fx
        F[2 * node + 1] += fy

    body = np.asarray(case.body_force, dtype=float)
    if np.any(body != 0.0):
        rule = fem.quadrature_rule(mesh.family)
        values, _ = fem.shape_functions_at(mesh.family, rule.points)
        # integral of each shape function over the element, per unit area
        coef = rule.weights @ values
        contrib = mesh.areas[:, None] * coef[None, :]
        dofs = element_dof_matrix(mesh.conn)
        np.add.at(F, dofs[:, 0::2], contrib * body[0])
        np.add.at(F, dofs[:, 1::2], contrib * body[1])

    edges = np.flatnonzero(mesh.edge_kind == meshmod.NEUMANN)
    if case.traction is not None and len(edges):
        t, w = fem.edge_quadrature_3pt()
        pts = meshmod.edge_points(mesh, edges, t)
        ref, normals = meshmod.edge_trace(mesh, edges, t)
        # the traction callable sees one edge at a time: points (q, 2), normal (2,)
        g = np.array([case.traction(p, n) for p, n in zip(pts, normals)], dtype=float)
        conn = mesh.conn[mesh.edge_elems[edges, 0]]
        values, _ = fem.shape_functions_at(mesh.family, ref.reshape(-1, 2))
        values = values.reshape(len(edges), len(t), -1)
        weight = mesh.edge_length[edges, None] * w[None, :]
        fe = np.einsum("mq,mqk,mqc->mkc", weight, values, g)
        np.add.at(F, element_dof_matrix(conn), fe.reshape(len(edges), -1))
    return F


def _density_array(densities, n_elements: int) -> np.ndarray:
    x = getattr(densities, "x", densities)
    x = np.asarray(x, dtype=float)
    if x.shape != (n_elements,):
        raise ValueError(f"expected {n_elements} densities, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("densities must be finite")
    floor = getattr(densities, "x_min", None)
    lo = floor if floor is not None else 0.0
    if np.any(x < lo - 1e-12) or np.any(x > 1.0 + 1e-12) or np.any(x <= 0.0):
        raise ValueError(f"densities must lie in [{lo:g}, 1]")
    return x


class StiffnessAssembler:
    """Caches element stiffness and scatter indices for repeated assembly.

    Element matrices are density independent; each assembly only rescales
    them by x^p and sums into sparse storage, so the optimizer pays the
    element integration cost once per mesh. The reduced (free-dof) matrix
    keeps one CSC pattern for the life of the assembler, built with the
    position of every element-matrix entry in its data array.
    """

    def __init__(self, mesh: meshmod.Mesh, material: fem.Material, case: LoadCase):
        self.mesh = mesh
        self.material = material
        self.case = case
        coords = mesh.nodes[mesh.conn]
        self.k0 = fem.element_stiffness_batch(mesh.family, coords, material)
        self.edofs = element_dof_matrix(mesh.conn)
        self.ndof = 2 * mesh.n_nodes

        self.F = build_load_vector(mesh, case)
        self.constrained = constrained_dof_ids(case)
        if np.any((self.constrained < 0) | (self.constrained >= self.ndof)):
            raise ValueError(f"fixed nodes must lie in [0, {mesh.n_nodes})")

    @property
    def free(self) -> np.ndarray:
        """Free dofs in elimination order, in (x, y) node pairs."""
        return self._reduced_pattern[0]

    @functools.cached_property
    def _reduced_pattern(self):
        """(free, indices, indptr, slot) of the reduced matrix, built once.

        Supports pin whole nodes, so the pattern is made of 2x2 blocks of free
        node pairs that share an element: only node pairs are sorted, a
        quarter of the dof pairs.
        """
        n_el, k = self.mesh.conn.shape
        nodes = np.setdiff1d(np.arange(self.mesh.n_nodes), self.case.fixed_nodes)
        n_free = len(nodes)
        rank = np.full(self.mesh.n_nodes, -1, dtype=np.int64)
        rank[nodes] = np.arange(n_free)
        rank = rank[self.mesh.conn]
        pair_ok = (rank[:, :, None] >= 0) & (rank[:, None, :] >= 0)
        keys, pair = np.unique((rank[:, None, :] * n_free + rank[:, :, None])[pair_ok],
                               return_inverse=True)
        # minimum degree needs only the graph: the incomplete LU of a
        # diagonally dominant matrix on it finds the order without the fill
        # of a full factor. perm holds each free node's new place.
        rows, cols = keys % n_free, keys // n_free
        graph = sp.csc_matrix((np.where(rows == cols, n_free, -1.0), (rows, cols)),
                              shape=(n_free, n_free))
        perm = spla.spilu(graph, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                          drop_tol=1.0, fill_factor=1.0).perm_c
        nodes = nodes[np.argsort(perm)]
        # column-major keys sort node pairs by column node, then row node
        keys, renumbered = np.unique(perm[cols] * n_free + perm[rows], return_inverse=True)
        pair = renumbered[pair]
        # number the 4 entries of every block and let scipy lay them out: a
        # block row of K^T is a CSC column of K, so block b holds the number
        # of entry (2I+a, 2J+c) at [c, a]
        nnz = 4 * len(keys)
        numbers = np.arange(nnz)
        indptr = np.searchsorted(keys, n_free * np.arange(n_free + 1))
        pattern = sp.bsr_matrix((numbers.reshape(-1, 2, 2), keys % n_free, indptr),
                                shape=(2 * n_free, 2 * n_free)).tocsr()
        # in scipy's own index dtype, so every reduced matrix shares them as they are
        indices, indptr = pattern.indices, pattern.indptr
        # the inverse of the data permutation (numbers doubles as 0..nnz-1)
        # is each entry's slot; pairs on a pinned node share the slot past
        # the end, in block len(keys)
        where = np.full(nnz + 4, nnz)
        where[pattern.data] = numbers
        del numbers, pattern
        block = np.full((n_el, k, k), len(keys))
        block[pair_ok] = pair
        # element dof (2p+a, 2q+c) flattens in the (p, a, q, c) order of k0
        slot = np.empty((n_el, k, 2, k, 2), dtype=np.int64)
        for a, c in np.ndindex(2, 2):
            slot[:, :, a, :, c] = where.reshape(-1, 2, 2)[:, c, a][block]
        return (2 * nodes[:, None] + [0, 1]).ravel(), indices, indptr, slot.ravel()

    def scaled_data(self, x: np.ndarray, penal: float) -> np.ndarray:
        return (self.k0 * (x ** penal)[:, None, None]).ravel()

    def global_system(self, x: np.ndarray, penal: float) -> GlobalSystem:
        return GlobalSystem(self, np.array(x, dtype=float), penal, self.F.copy())

    def reduced_matrix(self, x: np.ndarray, penal: float) -> sp.csc_matrix:
        free, indices, indptr, slot = self._reduced_pattern
        nnz = len(indices)
        data = np.bincount(slot, weights=self.scaled_data(x, penal), minlength=nnz + 1)
        return sp.csc_matrix((data[:nnz], indices, indptr), shape=(len(free), len(free)))

    def solve(self, x: np.ndarray, penal: float) -> SolveResult:
        return solve(self.global_system(x, penal))

    def strain_energies(self, U: np.ndarray) -> np.ndarray:
        """Per-element u_e^T K0_e u_e at unit density."""
        return fem.element_energies(self.k0, U[self.edofs])


def assemble(mesh: meshmod.Mesh, densities, penal: float,
             material: fem.Material, case: LoadCase) -> GlobalSystem:
    """Assemble K(x) = sum_e x_e^p K0_e and the load vector for a case."""
    x = _density_array(densities, mesh.n_elements)
    return StiffnessAssembler(mesh, material, case).global_system(x, penal)


def apply_dirichlet(system: GlobalSystem, prescribed: np.ndarray | None = None):
    """Reduce the system to free dofs by elimination.

    prescribed, when given, holds 2 * n_nodes finite values; those at the
    constrained dofs lift into the right-hand side. The lift is taken element
    by element: each element adds x_e^p K0_e u_e, with u zero off the
    constrained dofs, and the sum is kept on the free dofs. Returns (K_ff,
    rhs, free_dofs), in the assembler's elimination order asm.free.
    """
    asm = system.assembler
    rhs = np.asarray(system.F, dtype=float)
    if prescribed is not None:
        prescribed = np.asarray(prescribed, dtype=float)
        if prescribed.shape != (asm.ndof,) or not np.all(np.isfinite(prescribed)):
            raise ValueError(f"prescribed must hold {asm.ndof} finite values (2 per node), "
                             f"got shape {prescribed.shape}")
        u_c = np.zeros(asm.ndof)
        u_c[asm.constrained] = prescribed[asm.constrained]
        if np.any(u_c):
            f_e = (system.x ** system.penal)[:, None] * np.einsum(
                "eij,ej->ei", asm.k0, u_c[asm.edofs])
            rhs = rhs - np.bincount(asm.edofs.ravel(), weights=f_e.ravel(),
                                    minlength=asm.ndof)
    return asm.reduced_matrix(system.x, system.penal), rhs[asm.free], asm.free


def _relative_residual(K: sp.csc_matrix, u: np.ndarray, b: np.ndarray) -> float:
    norm_b = np.linalg.norm(b)
    return float(np.linalg.norm(K @ u - b) / (norm_b if norm_b > 0.0 else 1.0))


def _solve_reduced(K_ff: sp.csc_matrix, rhs: np.ndarray):
    """Solve K_ff u = rhs; returns (u, relative residual) once the checks pass.

    Residual comparisons are written as ``not resid <= tol`` so that a NaN
    residual fails them.
    """
    if K_ff.shape[0] == 0:
        raise ValueError("all degrees of freedom are constrained")
    try:
        # K_ff is SPD, so diagonal pivots are stable, as in Cholesky; row
        # swaps would only let the fill grow with the design's contrast
        lu = spla.splu(K_ff, permc_spec="NATURAL", diag_pivot_thresh=0.0)
    except RuntimeError as exc:
        raise SingularSystemError(f"direct factorization failed: {exc}") from exc
    # a zero rhs would mask a (numerically) singular factorization, so
    # probe the factor with a fixed right-hand side in that case
    zero_rhs = not np.any(rhs)
    probe = np.sin(np.arange(1, len(rhs) + 1, dtype=float)) if zero_rhs else rhs
    u = lu.solve(probe)
    resid = _relative_residual(K_ff, u, probe)
    if not np.all(np.isfinite(u)) or not resid <= RESIDUAL_TOL:
        pivots = np.abs(lu.U.diagonal())
        smallest = float(pivots.min()) if len(pivots) else 0.0
        raise SingularSystemError(
            "reduced system is singular or ill-conditioned "
            f"(smallest pivot {smallest:.3e}, probe residual {resid:.3e})"
        )
    return (np.zeros_like(rhs), 0.0) if zero_rhs else (u, resid)


def solve(system: GlobalSystem, prescribed: np.ndarray | None = None) -> SolveResult:
    """Solve K U = F with constrained dofs eliminated.

    SuperLU factorizes the reduced system (deterministic for identical
    inputs). Raises SingularSystemError when the reduced system is singular
    or the residual check fails.
    """
    asm = system.assembler
    K_ff, rhs, free = apply_dirichlet(system, prescribed)
    u_f, residual_norm = _solve_reduced(K_ff, rhs)
    U = np.zeros(asm.ndof)
    U[free] = u_f
    if prescribed is not None:
        U[asm.constrained] = np.asarray(prescribed, dtype=float)[asm.constrained]
    return SolveResult(U=U, residual_norm=residual_norm, compliance=float(system.F @ U))
