"""One benchmark repetition: a single ``topo2d.cli.run`` in a fresh interpreter.

Usage: python3 child.py JOB.json

The job file names the checkout root, the CLI options, the output directory,
the run id, whether to trace every layer, and where to write the result. The
result holds the run's spans, the facts the correctness check needs and the
environment block. The exit code is 0 when the run completed.
"""

import csv
import dataclasses
import json
import os
import platform
import resource
import sys
import traceback

import numpy as np
import scipy

from spans import Tracer, install_full, install_phase_marks


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _facts(cfg, report, tracer):
    """Everything the parent checks or measures, read back from the outputs."""
    history = _read_csv(os.path.join(cfg.out, "history.csv"))
    report_rows = _read_csv(os.path.join(cfg.out, "report.csv"))
    density = _read_csv(os.path.join(cfg.out, "density.csv"))
    mesh = tracer.mesh
    x = np.array([float(row[3]) for row in density[1:]])
    active = ~mesh.passive
    volume = float(x[active] @ mesh.areas[active] / mesh.areas[active].sum())
    return {
        "history_header": history[0],
        "history": [[float(v) for v in row] for row in history[1:]],
        "report_header": report_rows[0],
        "report_row": report_rows[-1],
        "density_rows": len(x),
        "density_volume": volume,
        "n_elements": mesh.n_elements,
        "compliance": report.compliance,
        "iterations": report.iterations,
        "eta_global": report.breakdown.eta_global if report.breakdown else None,
        "output_bytes": sum(os.path.getsize(p) for p in report.outputs),
    }


def _environment(cfg):
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads": {k: os.environ.get(k) for k in sorted(os.environ)
                    if k.endswith("_NUM_THREADS")},
        "config": dataclasses.asdict(cfg),
    }


def main(job_path):
    with open(job_path) as fh:
        job = json.load(fh)
    src = os.path.join(job["root"], "src")
    sys.path.insert(0, src)
    import topo2d
    from topo2d import cli

    if os.path.dirname(os.path.dirname(os.path.abspath(topo2d.__file__))) != src:
        raise SystemExit(f"topo2d imported from {topo2d.__file__}, not from {src}")

    tracer = Tracer(job["run_id"])
    (install_full if job["trace"] else install_phase_marks)(tracer, cli)
    cfg = cli.resolve_config(job["flags"])
    result = {"ok": False, "spans": tracer.spans, "env": _environment(cfg)}
    try:
        report = tracer.call("cli.run", cli.run, (cfg,))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result.update(_facts(cfg, report, tracer), ok=True)
    except Exception:  # the run's failure is the measurement, so record it
        result["error"] = traceback.format_exc()
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
