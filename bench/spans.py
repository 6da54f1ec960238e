"""Span recording by attribute replacement, installed in a child process only.

A span is (id, name, start, end, parent, run id). Spans nest strictly because
the program is single threaded, so a span's self time is its duration minus
the durations of its direct children, and the self times of all spans sum to
the root span's duration. Each span name belongs to exactly one per-layer
time metric (``SPAN_METRIC``); a layer metric is the sum of its spans' self
times, so the layer times partition the traced run.
"""

import functools
import time

# span name -> per-layer time metric that receives the span's self time
SPAN_METRIC = {
    "cli.run": "cli.run_self_s",
    "cli.estimate_solid": "cli.estimate_solid_s",
    "cli.prepare": "mesh.build_s",
    "fem.element_stiffness_batch": "fem.k0_s",
    "StiffnessAssembler.__init__": "solver.setup_s",
    "StiffnessAssembler.scaled_data": "solver.assemble_s",
    "StiffnessAssembler.global_system": "solver.assemble_s",
    "StiffnessAssembler.reduced_matrix": "solver.assemble_s",
    "solver.assemble": "solver.assemble_s",
    "solver.apply_dirichlet": "solver.assemble_s",
    "StiffnessAssembler.solve": "solver.solve_self_s",
    "solver.solve": "solver.solve_self_s",
    "splu": "solver.factor_s",
    "SuperLU.solve": "solver.trisolve_s",
    "optimizer.optimize": "optimizer.loop_self_s",
    "StiffnessAssembler.strain_energies": "optimizer.sensitivity_s",
    "SensitivityFilter.__init__": "optimizer.filter_build_s",
    "SensitivityFilter.apply": "optimizer.filter_s",
    "optimizer.oc_update": "optimizer.oc_s",
    "estimator.estimate": "estimator.estimate_s",
    "estimator.bulk_residual": "estimator.bulk_s",
    "estimator.jump_residual": "estimator.jump_s",
    "estimator.neumann_residual": "estimator.neumann_s",
    "estimator.write_error_report": "export.error_report_s",
    "export.export_density": "export.density_s",
    "export.write_pgm": "export.density_s",
    "export.write_density_csv": "export.density_s",
    "export.write_vtk": "export.density_s",
    "export.density_raster": "export.raster_s",
    "optimizer.write_history_csv": "export.history_s",
    "export.report_row": "export.report_s",
    "export.append_report": "export.report_s",
}

LAYER_TIME_METRICS = sorted(set(SPAN_METRIC.values()))


class Tracer:
    """In-memory span recorder; spans are written out once the run ends."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.mesh = None
        self._stack = []

    def call(self, name, fn, args=(), kwargs=None, after=None):
        """Run fn inside a span; after(span, result, args) runs once it closes."""
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "run_id": self.run_id, "start": 0.0, "end": 0.0}
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
        if after is not None:
            after(span, result, args)
        return result

    def wrap(self, owner, attr, name, after=None):
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self.call(name, original, args, kwargs, after)

        setattr(owner, attr, traced)


class _TracedFactor:
    """SuperLU stand-in whose solve is traced; other attributes pass through."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        return self._tracer.call("SuperLU.solve", self._lu.solve, args, kwargs)

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


def _record_mesh(tracer):
    def after(span, result, args):
        from topo2d.mesh import INTERIOR, NEUMANN
        mesh = result[0]
        tracer.mesh = mesh
        span["mesh"] = {"mesh.elements": mesh.n_elements, "mesh.nodes": mesh.n_nodes,
                        "mesh.edges": mesh.n_edges,
                        "estimator.interior_edges": int((mesh.edge_kind == INTERIOR).sum()),
                        "estimator.neumann_edges": int((mesh.edge_kind == NEUMANN).sum())}
    return after


def install_phase_marks(tracer, cli):
    """The two spans the untraced runs need to split a run into phases."""
    tracer.wrap(cli, "prepare", "cli.prepare", _record_mesh(tracer))
    tracer.wrap(cli, "optimize", "optimizer.optimize")


def install_full(tracer, cli):
    """Wrap the public functions and methods of every layer the CLI calls.

    Names are replaced where the caller looks them up: ``cli`` imported
    ``assemble``, ``solve``, ``estimate`` and the writers by name, ``export``
    imported ``write_vtk`` from ``mesh``, and the solver calls
    ``scipy.sparse.linalg.splu`` through the module.
    """
    import scipy.sparse.linalg as spla
    from topo2d import estimator, export, fem, optimizer, solver

    install_phase_marks(tracer, cli)
    targets = [
        (cli, "estimate_solid", "cli.estimate_solid"),
        (cli, "assemble", "solver.assemble"),
        (cli, "solve", "solver.solve"),
        (cli, "estimate", "estimator.estimate"),
        (cli, "write_error_report", "estimator.write_error_report"),
        (cli, "write_history_csv", "optimizer.write_history_csv"),
        (solver, "apply_dirichlet", "solver.apply_dirichlet"),
        (fem, "element_stiffness_batch", "fem.element_stiffness_batch"),
        (optimizer.SensitivityFilter, "apply", "SensitivityFilter.apply"),
        (optimizer, "oc_update", "optimizer.oc_update"),
    ]
    targets += [(solver.StiffnessAssembler, attr, f"StiffnessAssembler.{attr}")
                for attr in ("__init__", "scaled_data", "global_system",
                             "reduced_matrix", "solve", "strain_energies")]
    targets += [(estimator, attr, f"estimator.{attr}")
                for attr in ("bulk_residual", "jump_residual", "neumann_residual")]
    targets += [(export, attr, f"export.{attr}")
                for attr in ("export_density", "density_raster", "write_pgm",
                             "write_density_csv", "write_vtk", "report_row",
                             "append_report")]
    for owner, attr, name in targets:
        tracer.wrap(owner, attr, name)

    def record_filter(span, result, args):
        span["filter_nnz"] = int(args[0].weights.nnz)
    tracer.wrap(optimizer.SensitivityFilter, "__init__", "SensitivityFilter.__init__",
                record_filter)

    splu = spla.splu

    def traced_splu(K, *args, **kwargs):
        def after(span, lu, _args):
            span["factor"] = {"ndof": int(K.shape[0]), "nnz_K": int(K.nnz),
                              "nnz_LU": int(lu.nnz)}
        lu = tracer.call("splu", splu, (K,) + args, kwargs, after)
        return _TracedFactor(lu, tracer)

    spla.splu = traced_splu


def self_times(spans):
    """Span id -> duration minus the durations of its direct children."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans):
    """Per-layer times and counts derived from one traced run's spans."""
    own = self_times(spans)
    metrics = dict.fromkeys(LAYER_TIME_METRICS, 0.0)
    counts = {"fem.k0_calls": 0, "solver.solve_calls": 0}
    factors = []
    for s in spans:
        metrics[SPAN_METRIC[s["name"]]] += own[s["id"]]
        if s["name"] == "fem.element_stiffness_batch":
            counts["fem.k0_calls"] += 1
        elif s["name"] in ("StiffnessAssembler.solve", "solver.solve"):
            counts["solver.solve_calls"] += 1
        elif s["name"] == "splu":
            factors.append(s["factor"])
        elif s["name"] == "SensitivityFilter.__init__":
            counts["optimizer.filter_nnz"] = s["filter_nnz"]
        elif s["name"] == "cli.prepare":
            counts.update(s["mesh"])
    if factors:
        # every factorization of a run shares one pattern; pivoting can change
        # the fill, so the largest one is reported
        nnz_lu = max(f["nnz_LU"] for f in factors)
        counts.update({"solver.ndof_free": factors[0]["ndof"],
                       "solver.nnz_K": factors[0]["nnz_K"],
                       "solver.nnz_LU": nnz_lu,
                       "solver.fill_ratio": nnz_lu / factors[0]["nnz_K"]})
    metrics.update(counts)
    return metrics
