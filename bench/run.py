"""Benchmark of the topo2d CLI path: end-to-end metrics and a traced per-layer run.

Usage, from the repository root:

    python3 bench/run.py --workload opt-p2-cantilever --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 40 --trace 0

Each repetition resolves the workload's CLI options with
``topo2d.cli.resolve_config`` and runs ``topo2d.cli.run`` once in a fresh
Python process (``child.py``), with BLAS/OpenMP pinned to one thread. Load is
a closed loop with one client: repetitions run one after another for about
``--seconds`` seconds, at least one. ``--trace 0`` prints the end-to-end
metrics of BENCHMARK.json as medians over the repetitions; ``--trace 1``
alternates untraced and traced repetitions and prints the per-layer metrics
of the traced repetition with the median run time, plus the tracing overhead:
the median, over back-to-back pairs, of traced minus untraced run time.
Every repetition's outputs are checked (see ``check``); a failed check counts
the repetition as failed. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Workload configs, seed-0 references and tolerances live in ``spec.json``.
Outputs are written under ``.bench_work/`` in the repository root and deleted
after each repetition; one JSON record per invocation (environment block,
every repetition's samples and failures, the traced spans) is kept in
``.bench_work/results/``.
"""

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
# a repetition still running this many seconds after a workload's --seconds
# is stopped and counted as failed, so a hung child cannot stall the benchmark
HANG_MARGIN_S = 120
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

sys.path.insert(0, str(HERE))
from spans import layer_metrics  # noqa: E402


def load_spec():
    with open(HERE / "spec.json") as fh:
        spec = json.load(fh)
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    spec["units"] = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    spec["end_to_end_names"] = [m["name"] for m in bench["end_to_end"]]
    spec["per_layer_names"] = [m["name"] for m in bench["per_layer"]]
    return spec


def workload_flags(workload, seed, halfwidth):
    """CLI options for one seed: the preset volfrac at seed 0, a draw otherwise."""
    flags = dict(workload["config"])
    volfrac = workload["volfrac"]
    if seed != 0:
        volfrac = round(volfrac + random.Random(seed).uniform(-halfwidth, halfwidth), 6)
    flags["volfrac"] = volfrac
    return flags


def run_child(flags, trace, run_id, timeout):
    """One repetition in a fresh interpreter; returns its result or an error."""
    out = WORK / run_id
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    job = {"root": str(ROOT), "flags": dict(flags, out=str(out / "out"), quiet=True),
           "trace": trace, "run_id": run_id, "result": str(out / "result.json")}
    (out / "job.json").write_text(json.dumps(job))
    env = dict(os.environ, **dict.fromkeys(THREAD_VARS, "1"))
    stderr = ""
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(out / "job.json")],
                              env=env, capture_output=True, text=True,
                              timeout=timeout)
        stderr = proc.stderr[-2000:]
        result = json.loads((out / "result.json").read_text())
        if proc.returncode != 0 and "error" not in result:
            result["error"] = f"exit code {proc.returncode}: {stderr}"
    except subprocess.TimeoutExpired:
        result = {"ok": False, "error": f"timed out after {timeout:.0f} s"}
    except (OSError, ValueError) as exc:
        result = {"ok": False, "error": f"no result ({exc}): {stderr}"}
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return result


def phases(result):
    """run_s, setup_s and post_s of one repetition, from its phase spans."""
    spans = {s["name"]: s for s in result["spans"] if s["name"] in ("cli.run", "optimizer.optimize")}
    run, opt = spans["cli.run"], spans["optimizer.optimize"]
    loop_s = sum(row[4] for row in result["history"])
    return {
        "run_s": run["end"] - run["start"],
        "setup_s": (opt["start"] - run["start"]) + (opt["end"] - opt["start"] - loop_s),
        "post_s": run["end"] - opt["end"],
    }


def _close(value, reference, rel):
    return abs(value - reference) <= rel * abs(reference)


def check(result, flags, spec, reference=None):
    """Failures of one repetition; an empty list means it passed.

    Invariants hold for every seed: the run completed, the pinned CSV
    headers, the volume constraint in history.csv and in density.csv, the
    report row agreeing with the history, convergence or the iteration cap,
    and on estimate runs the decomposition bulk + jump + neumann = sum(local).
    With a reference (seed 0), compliance, iterations and eta must match it.
    """
    if not result.get("ok"):
        return [f"run failed: {result.get('error', 'no result')}"]
    tol = spec["tolerance"]
    failures = []
    if result["history_header"] != spec["schemas"]["history.csv"]:
        failures.append(f"history.csv header {result['history_header']}")
    if result["report_header"] != spec["schemas"]["report.csv"]:
        failures.append(f"report.csv header {result['report_header']}")
    history = result["history"]
    last = history[-1]
    volfrac = flags["volfrac"]
    for source, volume in (("history.csv", last[3]), ("density.csv", result["density_volume"])):
        if abs(volume - volfrac) > tol["volume_abs"]:
            failures.append(f"{source} volume fraction {volume!r} misses {volfrac}")
    if result["density_rows"] != result["n_elements"]:
        failures.append(f"density.csv has {result['density_rows']} rows "
                        f"for {result['n_elements']} elements")
    row = dict(zip(spec["schemas"]["report.csv"], result["report_row"]))
    compliance, iterations = result["compliance"], result["iterations"]
    if float(row["final_objective"]) != compliance or compliance != last[1]:
        failures.append("report.csv, history.csv and the run disagree on compliance")
    if int(row["iterations"]) != iterations or len(history) != iterations:
        failures.append("report.csv, history.csv and the run disagree on iterations")
    if not (math.isfinite(compliance) and compliance > 0.0):
        failures.append(f"compliance {compliance!r}")
    cfg = result["env"]["config"]
    if cfg["volfrac"] != volfrac:
        failures.append(f"resolved volfrac {cfg['volfrac']} != requested {volfrac}")
    if not (last[2] <= cfg["conv_tol"] or iterations == cfg["max_iters"]):
        failures.append(f"stopped after {iterations} iterations with change {last[2]}")
    eta = None
    if flags.get("estimate_error"):
        parts = [float(row[k]) for k in ("bulk_residual", "internal_jump_residual",
                                         "neumann_residual")]
        local = float(row["local_eta_sq"])
        eta = float(row["global_eta"])
        if not _close(sum(parts), local, tol["decomposition_rel"]):
            failures.append(f"bulk + jump + neumann = {sum(parts)!r} != sum(local) {local!r}")
        if not _close(eta * eta, local, tol["decomposition_rel"]):
            failures.append(f"global_eta^2 {eta * eta!r} != sum(local) {local!r}")
    if reference is not None:
        rel = tol["reference_rel"]
        if not _close(compliance, reference["compliance"], rel):
            failures.append(f"compliance {compliance!r} != reference {reference['compliance']!r}")
        if iterations != reference["iterations"]:
            failures.append(f"iterations {iterations} != reference {reference['iterations']}")
        if reference["eta_global"] is not None and not _close(eta, reference["eta_global"], rel):
            failures.append(f"eta {eta!r} != reference {reference['eta_global']!r}")
    return failures


def _p90(values):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def bench(name, workload, seed, seconds, trace, spec):
    """Run one workload for about `seconds` and summarise it (see module doc)."""
    flags = workload_flags(workload, seed, spec["volfrac_halfwidth"])
    reference = workload["reference"] if seed == 0 else None
    records = []  # (kind, result, failures)
    started = time.perf_counter()

    def attempt(kind, run_flags, traced, ref):
        timeout = max(1.0, started + seconds + HANG_MARGIN_S - time.perf_counter())
        result = run_child(run_flags, traced, f"{name}-s{seed}-{len(records)}", timeout)
        failures = check(result, run_flags, spec, ref)
        if result.get("ok") and not failures:
            result.update(phases(result))
            if traced:
                result["layers"] = layer_metrics(result["spans"])
                layer_sum = sum(v for k, v in result["layers"].items() if k.endswith("_s"))
                if abs(layer_sum - result["run_s"]) > 1e-9 * max(1.0, result["run_s"]):
                    failures.append(f"layer self times sum to {layer_sum!r}, "
                                    f"traced run_s is {result['run_s']!r}")
        records.append((kind, result, failures))
        return result

    durations = []
    pairs = []  # (untraced, traced) repetitions run back to back, both passed
    while True:
        rep_started = time.perf_counter()
        untraced = attempt("full", flags, False, reference)
        if trace:
            traced = attempt("traced", flags, True, reference)
            if not (records[-2][2] or records[-1][2]):
                pairs.append((untraced, traced))
        durations.append(time.perf_counter() - rep_started)
        if time.perf_counter() - started + statistics.median(durations) > seconds:
            break

    def passed(kind):
        return [r for k, r, f in records if k == kind and not f]

    full = passed("full")
    metrics = {}
    if full and not trace:
        walls = [row[4] for r in full for row in r["history"]]
        metrics = {
            "run_s": statistics.median(r["run_s"] for r in full),
            "setup_s": statistics.median(r["setup_s"] for r in full),
            "iter_s": statistics.median(walls),
            "iter_p90_s": _p90(walls),
            "iterations": statistics.median(r["iterations"] for r in full),
            "post_s": statistics.median(r["post_s"] for r in full),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in full),
        }
    by_time = sorted(passed("traced"), key=lambda r: r["run_s"])
    chosen = by_time[(len(by_time) - 1) // 2] if by_time else None
    if pairs:
        metrics = dict.fromkeys(spec["per_layer_names"], 0)
        metrics.update(chosen["layers"])
        metrics.update({
            "optimizer.iterations": chosen["iterations"],
            "export.bytes": chosen["output_bytes"],
            "trace.run_s": chosen["run_s"],
            "trace.untraced_run_s": statistics.median(r["run_s"] for r in full),
            "trace.overhead_s": statistics.median(t["run_s"] - u["run_s"] for u, t in pairs),
            "trace.spans": len(chosen["spans"]),
        })
    names = spec["per_layer_names"] if trace else spec["end_to_end_names"]
    env = dict(next((r["env"] for k, r, f in records if "env" in r), {}),
               git_sha=git_sha(), workload=name, seed=seed, flags=flags)
    failed = sum(1 for _, _, f in records if f)
    return {
        "correct": failed == 0 and bool(metrics),
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": metrics.get(k, 0), "unit": spec["units"][k]} for k in names},
        "env": env,
        "failures": [f"{kind} repetition {i}: {msg}" for i, (kind, _, fs) in enumerate(records)
                     for msg in fs],
        "samples": [{"kind": kind, **{k: r.get(k) for k in
                     ("run_s", "setup_s", "post_s", "iterations", "peak_rss_mb",
                      "compliance", "eta_global", "output_bytes")}}
                    for kind, r, _ in records],
        "spans": chosen["spans"] if chosen else [],
    }


def report(name, summary, seed, trace):
    """Print a readable table and keep the full record under .bench_work/results."""
    print(f"== {name}  seed {seed}  trace {trace}  "
          f"attempted {summary['attempted']}  failed {summary['failed']}")
    for key, metric in summary["metrics"].items():
        print(f"  {key:28s} {metric['value']:>16.6f} {metric['unit']}")
    for failure in summary["failures"]:
        print(f"  FAILED {failure}")
    print("env " + json.dumps(summary["env"], sort_keys=True))
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"{name}-seed{seed}-trace{trace}.json", "w") as fh:
        json.dump(summary, fh, indent=1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "topo2d" / "cli.py").is_file():
        print(f"error: no topo2d source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    names = list(spec["workloads"]) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in spec["workloads"]]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; choose from "
              f"{sorted(spec['workloads'])} or 'all'", file=sys.stderr)
        return 2

    summaries = {}
    for name in names:
        summaries[name] = bench(name, spec["workloads"][name], args.seed, args.seconds,
                                bool(args.trace), spec)
        report(name, summaries[name], args.seed, args.trace)
    if len(names) == 1:
        metrics = summaries[names[0]]["metrics"]
    else:
        metrics = {f"{n}:{k}": v for n, s in summaries.items() for k, v in s["metrics"].items()}
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries.values()),
        "attempted": sum(s["attempted"] for s in summaries.values()),
        "failed": sum(s["failed"] for s in summaries.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
