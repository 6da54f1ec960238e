"""Global assembly of density-penalized stiffness, load vectors and solves.

Dirichlet conditions are enforced by elimination: the system is reduced to
free degrees of freedom, solved with a sparse direct factorization, and
expanded back.

Every solve reduces K through StiffnessAssembler. At its first reduced
matrix it numbers the free nodes once, by nested dissection on the mesh
lines that no element crosses, with minimum degree order of their graph
inside each block, and fixes the CSC pattern of the reduced matrix in that
order together with the slot of every element-matrix entry in it. Each assembly
is one weighted bincount into that pattern, and SuperLU factors every
reduced matrix in NATURAL order. The pattern comes from numbered 2x2 node
blocks that scipy lays out in CSC order; entries on a pinned node share one
sentinel slot. asm.free stays in node pairs (x then y). The full K is built
only when GlobalSystem.K is read. apply_dirichlet returns u_c, the
prescribed values on the constrained dofs and zero elsewhere; they lift into
the right-hand side as K u_c, and solve() writes the reduced solution into
u_c at asm.free to form U. Loads are built node by component, (n_nodes, 2),
and flattened to dof order. StiffnessAssembler.solve and solve() share one
sequence. Every solve is checked once against its own relative residual; a
zero right-hand side is checked by solving a fixed probe instead.
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
    return (2 * conn[:, :, None] + np.arange(2)).reshape(len(conn), -1)


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


def edge_tractions(traction, points: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """The traction g on each edge, (m, q, 2) for points (m, q, 2), normals (m, 2).

    The callable sees one edge at a time: points (q, 2), normal (2,). A NaN
    or infinite value raises ValueError.
    """
    g = np.array([traction(p, n) for p, n in zip(points, normals)], dtype=float)
    g = g.reshape(points.shape)
    if not np.all(np.isfinite(g)):
        raise ValueError("traction must be finite on every Neumann edge")
    return g


def build_load_vector(mesh: meshmod.Mesh, case: LoadCase) -> np.ndarray:
    """Point loads plus consistent body-force and traction contributions.
    A load on a node outside the mesh, or a NaN or infinite load, raises ValueError."""
    F = np.zeros((mesh.n_nodes, 2))
    for node, fx, fy in case.point_loads:
        node = int(node)
        if not 0 <= node < mesh.n_nodes:
            raise ValueError(f"point load node {node} outside [0, {mesh.n_nodes})")
        if not np.all(np.isfinite((fx, fy))):
            raise ValueError(f"point load on node {node} must be finite, got ({fx}, {fy})")
        F[node] += (fx, fy)

    body = np.asarray(case.body_force, dtype=float)
    if not np.all(np.isfinite(body)):
        raise ValueError(f"body force must be finite, got {tuple(body.tolist())}")
    if np.any(body != 0.0):
        rule = fem.quadrature_rule(mesh.family)
        values, _ = fem.shape_functions_at(mesh.family, rule.points)
        # integral of each shape function over the element, per unit area
        coef = rule.weights @ values
        contrib = mesh.areas[:, None] * coef[None, :]
        np.add.at(F, mesh.conn, contrib[:, :, None] * body)

    edges = np.flatnonzero(mesh.edge_kind == meshmod.NEUMANN)
    if case.traction is not None and len(edges):
        t, w = fem.edge_quadrature_3pt()
        pts = meshmod.edge_points(mesh, edges, t)
        ref, normals = meshmod.edge_trace(mesh, edges, t)
        g = edge_tractions(case.traction, pts, normals)
        conn = mesh.conn[mesh.edge_elems[edges, 0]]
        values, _ = fem.shape_functions_at(mesh.family, ref.reshape(-1, 2))
        values = values.reshape(len(edges), len(t), -1)
        weight = mesh.edge_length[edges, None] * w[None, :]
        fe = np.einsum("mq,mqk,mqc->mkc", weight, values, g)
        np.add.at(F, conn, fe)
    return F.ravel()


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
        self.case = case
        coords = mesh.nodes[mesh.conn]
        self.k0 = fem.element_stiffness_batch(mesh.family, coords, material)
        # freeing an untouched K0-sized block raises glibc's mmap threshold to
        # its size, so the K0-sized array of every scaled_data call comes from
        # the heap rather than from fresh pages
        np.empty(self.k0.size)
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
        uses = np.bincount(self.mesh.conn.ravel(), minlength=self.mesh.n_nodes)
        orphans = nodes[uses[nodes] == 0]
        if len(orphans):
            raise SingularSystemError(f"free node {orphans[0]} belongs to no element")
        n_free = len(nodes)
        rank = np.full(self.mesh.n_nodes, -1, dtype=np.int64)
        rank[nodes] = np.arange(n_free)
        rank = rank[self.mesh.conn]
        pair_ok = (rank[:, :, None] >= 0) & (rank[:, None, :] >= 0)
        rows = np.broadcast_to(rank[:, :, None], pair_ok.shape)[pair_ok]
        cols = np.broadcast_to(rank[:, None, :], pair_ok.shape)[pair_ok]
        # minimum degree needs only the graph: the incomplete LU of a
        # diagonally dominant matrix on it finds the order without the fill
        # of a full factor (repeated pairs sum, so the diagonal still
        # dominates). perm holds each free node's minimum degree place.
        graph = sp.csc_matrix((np.where(rows == cols, n_free, -1.0), (rows, cols)),
                              shape=(n_free, n_free))
        perm = spla.spilu(graph, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                          drop_tol=1.0, fill_factor=1.0).perm_c
        # nested dissection on mesh lines: a node coordinate m that no element
        # spans (min < m < max on that axis) separates the nodes on its two
        # sides, and the domain's two ends always qualify. place holds each
        # free node's coordinate in units of these lines (even on a line, odd
        # between two) and box each node's box, [low, high] per axis
        place = np.empty((2, n_free), dtype=np.int64)
        box = np.empty((2, 2, n_free), dtype=np.int64)
        for axis in range(2):
            values, index = np.unique(self.mesh.nodes[:, axis], return_inverse=True)
            span, n = index[self.mesh.conn], len(values)
            crossed = np.cumsum(np.bincount(span.min(1) + 1, minlength=n + 1)
                                - np.bincount(span.max(1), minlength=n + 1))[:n]
            on_line = crossed == 0
            line_place = 2 * np.cumsum(on_line) - 1 - on_line
            place[axis] = line_place[index[nodes]]
            box[:, axis] = line_place[[0, -1], None]
        # level by level, every live box splits at its middle interior line on
        # its wider axis, which has more lines (x on a tie): each node records
        # 0 (low side), 1 (high side) or 2 (on the cut, where it stops); a box
        # with no interior line (high - low == 2) is a leaf block
        bounds, at_node = box.reshape(2, -1), np.arange(n_free)
        live = np.ones(n_free, dtype=bool)
        digits = []
        while True:
            width = box[1] - box[0]
            at = at_node + n_free * (width[1] > width[0])
            low, high, pos = bounds[0, at], bounds[1, at], place.ravel()[at]
            live &= high - low > 2
            if not live.any():
                break
            cut = low + 2 * ((high - low) // 4)
            digits.append(np.where(live, np.where(pos == cut, np.int8(2), pos > cut), 0))
            live &= pos != cut
            bounds[0, at] = np.where(pos > cut, cut, low)
            bounds[1, at] = np.where(pos < cut, cut, high)
        # separators follow both halves; inside a block the MMD rank decides.
        # perm becomes each free node's place, in int64 so the pair keys below
        # cannot overflow
        order = np.lexsort([perm, *digits[::-1]])
        perm = np.empty_like(order)
        perm[order] = np.arange(n_free)
        nodes = nodes[order]
        # column-major keys sort node pairs by column node, then row node
        keys, pair = np.unique(perm[cols] * n_free + perm[rows], return_inverse=True)
        del rows, cols, graph
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

    prescribed, when given, holds 2 * n_nodes finite values. u_c holds them
    at the constrained dofs and zero elsewhere; they lift into the
    right-hand side as F - K u_c, kept on the free dofs. Returns (K_ff,
    rhs, u_c), K_ff and rhs in the assembler's elimination order asm.free.
    """
    asm = system.assembler
    rhs = np.asarray(system.F, dtype=float)
    u_c = np.zeros(asm.ndof)
    if prescribed is not None:
        prescribed = np.asarray(prescribed, dtype=float)
        if prescribed.shape != (asm.ndof,) or not np.all(np.isfinite(prescribed)):
            raise ValueError(f"prescribed must hold {asm.ndof} finite values (2 per node), "
                             f"got shape {prescribed.shape}")
        u_c[asm.constrained] = prescribed[asm.constrained]
        rhs = rhs - system.K @ u_c
    return asm.reduced_matrix(system.x, system.penal), rhs[asm.free], u_c


def _solve_reduced(K_ff: sp.csc_matrix, rhs: np.ndarray):
    """Solve K_ff u = rhs; returns (u, relative residual) once the checks pass.

    Residual comparisons are written as ``not resid <= tol`` so that a NaN
    residual fails them.
    """
    if K_ff.shape[0] == 0:
        raise ValueError("all degrees of freedom are constrained")
    try:
        # K_ff is SPD, so diagonal pivots are stable, as in Cholesky; row
        # swaps would only let the fill grow with the design's contrast.
        # Small supernodes factor faster than SuperLU's defaults on every
        # family; relax=160, panel_size=80 once crashed scipy 1.17's SuperLU.
        lu = spla.splu(K_ff, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                       relax=2, panel_size=2)
    except RuntimeError as exc:
        raise SingularSystemError(f"direct factorization failed: {exc}") from exc
    # a zero rhs would mask a (numerically) singular factorization, so
    # probe the factor with a fixed right-hand side in that case; either
    # probe has a nonzero entry, so its norm divides the residual
    zero_rhs = not np.any(rhs)
    probe = np.sin(np.arange(1, len(rhs) + 1, dtype=float)) if zero_rhs else rhs
    u = lu.solve(probe)
    resid = float(np.linalg.norm(K_ff @ u - probe) / np.linalg.norm(probe))
    if not np.all(np.isfinite(u)) or not resid <= RESIDUAL_TOL:
        smallest = float(np.abs(lu.U.diagonal()).min())
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
    K_ff, rhs, U = apply_dirichlet(system, prescribed)
    U[system.assembler.free], residual_norm = _solve_reduced(K_ff, rhs)
    return SolveResult(U=U, residual_norm=residual_norm, compliance=float(system.F @ U))
