"""Self-test of the benchmark on tiny versions of every workload.

Usage, from the repository root:  python3 bench/selftest.py

For each workload it checks that an untraced run prints every end-to-end
metric and a traced run every per-layer metric, each with its unit, that the
traced layer times sum to the traced run time, and that the correctness check
is live: the run passes against its own compliance (and eta) as reference and
fails when that reference is perturbed. It also checks that the benchmark
refuses to run, printing no result, where the topo2d source is missing.
Exits 0 when every check holds.
"""

import copy
import shutil
import subprocess
import sys

import run

TINY = {
    "opt-p2-cantilever": {"nx": 8, "ny": 5, "max_iters": 5},
    "opt-p1-bridge": {"nx": 10, "ny": 10, "refine": 0, "max_iters": 5},
    "estimate-q1-large": {"nx": 32, "ny": 20},
}


def expect(condition, message):
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def expect_metrics(summary, names, units, label):
    expect(set(summary["metrics"]) == set(names), f"{label}: metric names {sorted(summary['metrics'])}")
    for name in names:
        metric = summary["metrics"][name]
        expect(metric["unit"] == units[name], f"{label}: {name} unit {metric['unit']!r}")
        expect(isinstance(metric["value"], (int, float)), f"{label}: {name} value {metric['value']!r}")


def check_workload(name, spec):
    workload = copy.deepcopy(spec["workloads"][name])
    workload["config"].update(TINY[name])
    workload["reference"] = None

    plain = run.bench(name, workload, 0, 0.0, False, spec)
    expect(plain["correct"] and plain["failed"] == 0, f"{name}: {plain['failures']}")
    expect_metrics(plain, spec["end_to_end_names"], spec["units"], name)
    expect(all(m["value"] > 0 for m in plain["metrics"].values()), f"{name}: a zero end-to-end metric")

    traced = run.bench(name, workload, 0, 0.0, True, spec)
    expect(traced["correct"], f"{name} traced: {traced['failures']}")
    expect_metrics(traced, spec["per_layer_names"], spec["units"], f"{name} traced")
    layers = traced["metrics"]
    layer_sum = sum(m["value"] for k, m in layers.items()
                    if m["unit"] == "s" and not k.startswith("trace."))
    expect(abs(layer_sum - layers["trace.run_s"]["value"]) < 1e-9,
           f"{name}: layer times sum to {layer_sum}, traced run_s {layers['trace.run_s']['value']}")
    estimating = bool(workload["config"].get("estimate_error"))
    expect(layers["fem.k0_calls"]["value"] == 1 + estimating, f"{name}: fem.k0_calls")
    expect(layers["solver.solve_calls"]["value"]
           == plain["metrics"]["iterations"]["value"] + estimating, f"{name}: solver.solve_calls")

    full = next(s for s in plain["samples"] if s["kind"] == "full")
    workload["reference"] = {"compliance": full["compliance"], "iterations": full["iterations"],
                             "eta_global": full["eta_global"]}
    again = run.bench(name, workload, 0, 0.0, False, spec)
    expect(again["correct"], f"{name}: fails against its own reference: {again['failures']}")
    perturbed = [("compliance", 1.0 + 1e-6)] + ([("eta_global", 1.0 + 1e-6)] if estimating else [])
    for key, factor in perturbed:
        bad = copy.deepcopy(workload)
        bad["reference"][key] *= factor
        result = run.bench(name, bad, 0, 0.0, False, spec)
        expect(not result["correct"] and result["failed"] >= 1,
               f"{name}: a perturbed reference {key} still passes")
    print(f"selftest {name}: ok")


def check_refuses_without_source():
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", "--workload",
                               "opt-p2-cantilever", "--seed", "0", "--seconds", "1",
                               "--trace", "0"], cwd=bare, capture_output=True, text=True,
                              timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           f"runs without source: exit {proc.returncode}, stdout {proc.stdout!r}")
    print("selftest refuses without source: ok")


def main():
    spec = run.load_spec()
    for name in spec["workloads"]:
        check_workload(name, spec)
    check_refuses_without_source()
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
