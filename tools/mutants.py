"""Mutation register: deliberate faults that the named tests must catch.

Usage, from the repository root:  python3 tools/mutants.py [NAME ...]

Each entry replaces one exact text, which must occur exactly once, in one
file of a temporary copy of the tree (never the working tree), and runs
only the tests named with it, with ``pytest -x``. The mutant is killed when
those tests fail. Before any mutant runs, the named tests must pass on the
unmutated copy, so a broken test cannot pass for a kill. Names given on the
command line select entries by substring. Exits 1 if any mutant survives,
no longer applies (its text is gone or not unique) or makes pytest itself
fail, and 0 when every selected mutant is killed.

Register a mutant for each new check, and move it along when a refactor
moves its text. A surviving mutant is a missing test.
"""

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "bench", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple


FEM, MESH = "src/topo2d/fem.py", "src/topo2d/mesh.py"
SOLVER, OPTIMIZER = "src/topo2d/solver.py", "src/topo2d/optimizer.py"
ESTIMATOR, CLI = "src/topo2d/estimator.py", "src/topo2d/cli.py"
EXPORT = "src/topo2d/export.py"

MUTANTS = [
    # free-node order and NATURAL factorization
    Mutant("node order skipped", SOLVER,
           "fill_factor=1.0).perm_c\n",
           "fill_factor=1.0).perm_c\n        perm = np.arange(n_free)\n",
           ("tests/test_solver.py::test_mesh_without_interior_line_keeps_minimum_degree_order",)),
    Mutant("separators ordered before their halves", SOLVER,
           "np.where(pos == cut, np.int8(2), pos > cut)",
           "np.where(pos == cut, np.int8(-1), pos > cut)",
           ("tests/test_solver.py::test_dissection_blocks_are_separated",)),
    Mutant("line crossing test made inclusive", SOLVER,
           "np.bincount(span.min(1) + 1, minlength=n + 1)\n"
           "                                - np.bincount(span.max(1), minlength=n + 1)",
           "np.bincount(span.min(1), minlength=n + 1)\n"
           "                                - np.bincount(span.max(1) + 1, minlength=n + 1)",
           ("tests/test_solver.py::test_dissection_cuts_the_bridge_fill",)),
    Mutant("blocks ordered naturally, not by MMD rank", SOLVER,
           "np.lexsort([perm, *digits[::-1]])", "np.lexsort([np.arange(n_free), *digits[::-1]])",
           ("tests/test_solver.py::test_dissection_blocks_are_separated",)),
    Mutant("node places kept in int32", SOLVER,
           "perm = np.empty_like(order)", "perm = np.empty_like(order, dtype=np.int32)",
           ("tests/test_solver.py::test_reduced_pattern_past_int32_node_pair_keys",)),
    Mutant("boxes cut at their first interior line", SOLVER,
           "cut = low + 2 * ((high - low) // 4)", "cut = low + 2",
           ("tests/test_solver.py::test_dissection_blocks_are_separated",)),
    Mutant("node pairs not renumbered", SOLVER,
           "np.unique(perm[cols] * n_free + perm[rows]", "np.unique(cols * n_free + rows",
           ("tests/test_solver.py::test_assembler_reduced_solve_matches_oracle",)),
    Mutant("K factored in MMD_AT_PLUS_A order", SOLVER,
           'spla.splu(K_ff, permc_spec="NATURAL"', 'spla.splu(K_ff, permc_spec="MMD_AT_PLUS_A"',
           ("tests/test_solver.py::test_every_factorization_runs_in_natural_order",)),
    Mutant("fixed nodes outside the mesh accepted", SOLVER,
           "        if np.any((self.constrained < 0) | (self.constrained >= self.ndof)):",
           "        if False:",
           ("tests/test_solver.py::test_fixed_nodes_validated",)),
    Mutant("bad prescribed vector accepted", SOLVER,
           "        if prescribed.shape != (asm.ndof,) or not np.all(np.isfinite(prescribed)):",
           "        if False:",
           ("tests/test_solver.py::test_prescribed_values_validated",)),
    Mutant("free node outside every element accepted", SOLVER,
           "        if len(orphans):", "        if False:",
           ("tests/test_solver.py::test_free_node_outside_every_element_is_singular",)),
    Mutant("fixed nodes outside the mesh labelled", MESH,
           "    if np.any((fixed < 0) | (fixed >= mesh.n_nodes)):", "    if False:",
           ("tests/test_solver.py::test_fixed_nodes_validated",)),
    # boundary data: loads node by component, the lift through K
    Mutant("Dirichlet lift added, not subtracted", SOLVER,
           "        rhs = rhs - system.K @ u_c", "        rhs = rhs + system.K @ u_c",
           ("tests/test_solver.py::test_linear_patch",)),
    Mutant("prescribed values left out of U", SOLVER,
           "    K_ff, rhs, U = apply_dirichlet(system, prescribed)\n",
           "    K_ff, rhs, U = apply_dirichlet(system, prescribed)\n    U[:] = 0.0\n",
           ("tests/test_solver.py::test_linear_patch",)),
    Mutant("body-force components swapped", SOLVER,
           "contrib[:, :, None] * body)", "contrib[:, :, None] * body[::-1])",
           ("tests/test_solver.py::test_body_force_load_vector",)),
    Mutant("non-finite point load accepted", SOLVER,
           "        if not np.all(np.isfinite((fx, fy))):", "        if False:",
           ("tests/test_solver.py::test_non_finite_loads_rejected",)),
    Mutant("non-finite body force accepted", SOLVER,
           "    if not np.all(np.isfinite(body)):", "    if False:",
           ("tests/test_solver.py::test_non_finite_loads_rejected",)),
    Mutant("non-finite traction accepted", SOLVER,
           "    if not np.all(np.isfinite(g)):", "    if False:",
           ("tests/test_solver.py::test_non_finite_loads_rejected",)),
    Mutant("point-load components swapped", SOLVER,
           "        F[node] += (fx, fy)", "        F[node] += (fy, fx)",
           ("tests/test_solver.py::test_point_loads_add_at_their_node_dofs",)),
    Mutant("dof table interleave reversed", SOLVER,
           "(2 * conn[:, :, None] + np.arange(2))", "(2 * conn[:, :, None] + np.arange(2)[::-1])",
           ("tests/test_solver.py::test_element_dof_matrix_interleaving",)),
    # the solve check
    Mutant("zero-load probe replaced by rhs", SOLVER,
           "    probe = np.sin(np.arange(1, len(rhs) + 1, dtype=float)) if zero_rhs else rhs\n",
           "    probe = rhs\n",
           ("tests/test_solver.py::test_every_factorization_runs_in_natural_order",)),
    Mutant("factorization failure escapes as RuntimeError", SOLVER,
           "    except RuntimeError as exc:", "    except ValueError as exc:",
           ("tests/test_solver.py::test_factorization_failure_is_singular_system_error",
            "tests/test_bench_cli.py::test_sweep_runs_every_line_then_reports_a_failure")),
    # element stiffness as matrix products, and element geometry checks
    Mutant("NaN determinant passes the K0 check", FEM,
           "    bad = ~(det > 0.0)", "    bad = det <= 0.0",
           ("tests/test_fem.py::test_nan_element_rejected",)),
    Mutant("adjugate entries swapped", FEM,
           "    np.multiply(j10, -scale, out=adj[0, :, 1])\n"
           "    np.multiply(j01, -scale, out=adj[1, :, 0])",
           "    np.multiply(j01, -scale, out=adj[0, :, 1])\n"
           "    np.multiply(j10, -scale, out=adj[1, :, 0])",
           ("tests/test_fem.py::test_q1_stiffness_matches_dense_oracle",)),
    Mutant("R delta on the wrong axis", FEM,
           "tensor[a, b, :, :, :, :, a, :, b] = block",
           "tensor[a, b, :, :, :, :, b, :, a] = block",
           ("tests/test_fem.py::test_q1_stiffness_matches_dense_oracle",)),
    Mutant("x and y swapped in R", FEM,
           '"q,qix,qjy->qxyij"', '"q,qix,qjy->qyxij"',
           ("tests/test_fem.py::test_q1_stiffness_matches_dense_oracle",)),
    Mutant("no K0 shape check", FEM,
           "    coords = _check_coords(family, np.asarray(coords, dtype=float))\n",
           "    coords = np.asarray(coords, dtype=float)\n",
           ("tests/test_fem.py::test_wrong_node_count_rejected",)),
    Mutant("NaN area passes the mesh check", MESH,
           "    if not np.all(areas > 0.0):", "    if np.any(areas <= 0.0):",
           ("tests/test_mesh.py::test_misoriented_or_nan_element_rejected",)),
    Mutant("diameters from consecutive vertices", MESH,
           "    first_v, second_v = np.triu_indices(nv, 1)",
           "    first_v, second_v = np.arange(nv), (np.arange(nv) + 1) % nv",
           ("tests/test_mesh.py::test_areas_and_centroids",)),
    Mutant("highest bad element named", FEM,
           "        e = int(np.argmax(bad.any(axis=0)))",
           "        e = int(n_el - 1 - np.argmax(bad.any(axis=0)[::-1]))",
           ("tests/test_fem.py::test_batch_names_lowest_degenerate_element",)),
    # OC update and the b_matrix check
    Mutant("passive cells free to grow", OPTIMIZER,
           "    upper = np.where(passive, config.x_min, np.minimum(1.0, x + config.move))",
           "    upper = np.minimum(1.0, x + config.move)",
           ("tests/test_optimizer.py::test_oc_passive_elements_pinned",)),
    Mutant("passive volumes weighted", OPTIMIZER,
           "    weights = np.where(passive, 0.0, volumes)", "    weights = volumes",
           ("tests/test_optimizer.py::test_oc_passive_elements_pinned",)),
    Mutant("damping fixed at 0.5 in the step", OPTIMIZER,
           "    base = x * (-np.minimum(dc, 0.0) / volumes) ** config.damping",
           "    base = x * (-np.minimum(dc, 0.0) / volumes) ** 0.5",
           ("tests/test_optimizer.py::test_oc_update_matches_masked_oracle",)),
    Mutant("no b_matrix shape check", FEM,
           "    coords = _check_coords(family, np.asarray(coords, dtype=float)[None])",
           "    coords = np.asarray(coords, dtype=float)[None]",
           ("tests/test_fem.py::test_b_matrix_wrong_node_count_rejected",)),
    Mutant("wrong energy operand", FEM,
           '    return np.einsum("ei,ei->e", (kmat @ u_e[:, :, None])[:, :, 0], u_e)',
           '    return np.einsum("ei,ei->e", (kmat @ u_e[:, :, None])[:, :, 0], np.abs(u_e))',
           ("tests/test_fem.py::test_element_energies_match_three_operand_einsum",)),
    # element conventions derived from fem's tables
    Mutant("p2 local edges permuted", FEM,
           '    "p2": ((0, 1), (1, 2), (2, 0)),', '    "p2": ((0, 1), (2, 0), (1, 2)),',
           ("tests/test_fem.py::test_kronecker_at_nodes",
            "tests/test_mesh.py::test_p2_midside_nodes")),
    Mutant("VOIGT shear entry missing", FEM,
           "    [[0.0, 1.0], [1.0, 0.0]],  # gamma_xy",
           "    [[0.0, 1.0], [0.0, 0.0]],  # gamma_xy",
           ("tests/test_fem.py::test_b_matrix_rigid_rotation_gives_zero_strain",)),
    Mutant("p2 midside gradient from one end only", FEM,
           "lam[:, i, None] * dlam[j] + lam[:, j, None] * dlam[i]",
           "lam[:, i, None] * dlam[j] + lam[:, j, None] * dlam[j]",
           ("tests/test_fem.py::test_partition_of_unity",)),
    Mutant("inverse map stops after one Newton step", FEM,
           "    for _ in range(4):\n        values, dref = shape_functions_at(family, ref)",
           "    for _ in range(1):\n        values, dref = shape_functions_at(family, ref)",
           ("tests/test_fem.py::test_reference_coords_roundtrip",)),
    Mutant("p2 edge midsides read in reverse", MESH,
           "conn[:, 3:].ravel()", "conn[:, 3:][:, ::-1].ravel()",
           ("tests/test_mesh.py::test_boundary_node_ids_p2_includes_midsides",)),
    # one table per mesh split and per red refinement, read by the raster locator
    Mutant("cross-split rows permuted", MESH,
           '    "cross_split": ((0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4)),',
           '    "cross_split": ((1, 2, 4), (0, 1, 4), (2, 3, 4), (3, 0, 4)),',
           ("tests/test_mesh.py::test_numbering_convention_literal",)),
    Mutant("locator tolerance dropped", EXPORT,
           "bary.min(axis=1) >= -1e-9", "bary.min(axis=1) >= 0.0",
           ("tests/test_bench_cli.py::test_triangle_locator_matches_brute_force",
            "tests/test_bench_cli.py::test_triangle_locator_on_grid_cells")),
    Mutant("highest holding triangle taken", EXPORT,
           "    k = np.argmax(bary.min(axis=1) >= -1e-9, axis=0)\n",
           "    k = len(verts) - 1 - np.argmax((bary.min(axis=1) >= -1e-9)[::-1], axis=0)\n",
           ("tests/test_bench_cli.py::test_triangle_locator_matches_brute_force",)),
    Mutant("midpoints reversed in the child maps", EXPORT,
           'tri[np.array(LOCAL_EDGES["p1"])].mean(axis=1)',
           'tri[np.array(LOCAL_EDGES["p1"])].mean(axis=1)[::-1]',
           ("tests/test_bench_cli.py::test_triangle_locator_matches_brute_force",)),
    Mutant("locator cell column not clipped", EXPORT,
           "    i = np.clip(np.ceil(sx - tol) - 1, 0, nx - 1)",
           "    i = np.ceil(sx - tol) - 1",
           ("tests/test_bench_cli.py::test_triangle_locator_matches_brute_force",)),
    # the one edge residual behind the jump and Neumann terms
    Mutant("second side's stress not subtracted", ESTIMATOR,
           "    ends[inside] -= sigma[e1[:, None], v1]\n", "",
           ("tests/test_estimator.py::test_linear_field_has_no_jumps",)),
    Mutant("traction added, not subtracted", ESTIMATOR,
           "        r[~inside] -= edge_tractions(", "        r[~inside] += edge_tractions(",
           ("tests/test_estimator.py::test_uniform_tension_matching_traction",)),
    Mutant("edge interpolation anchored at the far end", ESTIMATOR,
           "    s = ends[:, :1] + t[None, :, None]", "    s = ends[:, 1:] + t[None, :, None]",
           ("tests/test_estimator.py::test_edge_residuals_match_gauss_point_oracle",)),
    Mutant("boundary edges kept in the jump term", ESTIMATOR,
           "    jump = np.where(interior, edges, 0.0)", "    jump = edges",
           ("tests/test_estimator.py::test_two_triangle_jump_hand_computed",)),
    # the CLI contract: exit 0, 1 or 2, and one stderr line on failure
    Mutant("ValueError escapes main", CLI,
           "    except (ValueError, OSError) as exc:", "    except OSError as exc:",
           ("tests/test_bench_cli.py::test_cli_contract_on_random_configs",)),
    Mutant("bevel ratio left to the domain check", CLI,
           "    if not 0.0 < cfg.bevel_ratio <= 1.0:", "    if False:",
           ("tests/test_bench_cli.py::test_sweep_checks_every_line_before_running",)),
    Mutant("flag keys skip the unknown-key check", CLI,
           "for key, value in (layer or {}).items() if value is not None}",
           "for key, value in (layer or {}).items()\n"
           "              if value is not None and (layer is not layers[0] or key in _FIELDS)}",
           ("tests/test_bench_cli.py::test_resolve_config_precedence",)),
    Mutant("sweep line merged over the file values", CLI,
           "cfg = resolve_config(flags, values, file_values)",
           "cfg = resolve_config(flags, {**(file_values or {}), **values})",
           ("tests/test_bench_cli.py::test_main_exit_codes",)),
    Mutant("report header checked only on append", CLI,
           '    export.check_report(os.path.join(cfg.out, "report.csv"))\n', "",
           ("tests/test_bench_cli.py::test_mismatched_report_refused_before_any_work",)),
    Mutant("q1 gridded by --grid", CLI,
           'grid = None if cfg.elem == "q1" else cfg.grid', "grid = cfg.grid",
           ("tests/test_bench_cli.py::test_prepare_element_counts",)),
    Mutant("argparse prints its own usage block", CLI,
           "    parser.error = refuse\n", "",
           ("tests/test_bench_cli.py::test_main_exit_codes",)),
    Mutant("infinite domain size accepted", MESH,
           "0.0 < self.width < np.inf and 0.0 < self.height < np.inf",
           "self.width > 0.0 and self.height > 0.0",
           ("tests/test_mesh.py::test_non_finite_domain_size_rejected",)),
    # sweep output
    Mutant("stale combined sweep report kept", CLI,
           'open(os.path.join(base_out, name), "w"', 'open(os.path.join(base_out, name), "a"',
           ("tests/test_bench_cli.py::test_sweep_runs_and_combined_report",)),
    Mutant("failed sweep line recorded as ok", CLI,
           '"failed" if report is None else "ok"', '"ok"',
           ("tests/test_bench_cli.py::test_sweep_runs_every_line_then_reports_a_failure",)),
    Mutant("empty sweep out accepted", CLI,
           "    os.makedirs(base_out, exist_ok=True)", "    pass",
           ("tests/test_bench_cli.py::test_main_exit_codes",)),
]


def pytest(tree: Path, tests) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=tree, capture_output=True, text=True)


def fresh_copy(base: Path, name: str) -> Path:
    tree = base / name
    tree.mkdir()
    for item in COPIED:
        source = ROOT / item
        if source.is_dir():
            shutil.copytree(source, tree / item,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        else:
            shutil.copy2(source, tree / item)
    return tree


def main(argv) -> int:
    selected = [m for m in MUTANTS if not argv or any(word in m.name for word in argv)]
    if not selected:
        print(f"no mutant matches {argv}")
        return 1
    failures = 0
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="topo2d-mutants-") as tmp:
        base = Path(tmp)
        baseline = pytest(fresh_copy(base, "baseline"),
                          sorted({test for m in selected for test in m.tests}))
        if baseline.returncode != 0:
            print("the named tests fail on the unmutated tree:\n"
                  + (baseline.stdout + baseline.stderr)[-2000:])
            return 1
        print(f"named tests pass unmutated ({time.perf_counter() - start:.0f} s)")
        for index, mutant in enumerate(selected):
            began = time.perf_counter()
            tree = fresh_copy(base, f"mutant_{index:02d}")
            target = tree / mutant.path
            text = target.read_text()
            count = text.count(mutant.old)
            if count != 1:
                status = f"NOT APPLIED (text found {count} times)"
            else:
                target.write_text(text.replace(mutant.old, mutant.new))
                result = pytest(tree, mutant.tests)
                status = {0: "SURVIVED", 1: "killed"}.get(
                    result.returncode, f"PYTEST ERROR (exit {result.returncode})")
            shutil.rmtree(tree)
            failures += status != "killed"
            print(f"{status:>10}  {mutant.name} ({mutant.path}, "
                  f"{time.perf_counter() - began:.1f} s)", flush=True)
    print(f"{len(selected) - failures} of {len(selected)} mutants killed "
          f"in {time.perf_counter() - start:.0f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
