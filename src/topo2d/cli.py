"""Command-line front end for the benchmark problems.

Options resolve in precedence order: explicit flags > sweep line > config
file > preset defaults. Config files are flat key=value text mirroring the
flags; a sweep file holds one such assignment list per line. Its runs
execute in one worker pool of min(lines, --jobs or half the cores) workers
(--jobs at least 0), each into its own output directory. A line whose
solve fails does not stop the others: every line runs, sweep_status.csv
records each line's status, sweep_report.csv holds the rows of the lines
that succeeded, and the sweep exits 1 if any line failed.
"""

import argparse
import csv
import os
import sys
from dataclasses import asdict, dataclass, field, fields
from multiprocessing import Pool, cpu_count
from typing import get_args

import numpy as np

from . import export
from .estimator import ErrorBreakdown, estimate, write_error_report
from .fem import Material
from .mesh import Mesh, classify_boundary, generate_mesh
from .optimizer import SimpConfig, optimize, write_history_csv
from .presets import BEVEL_RIGHT_RATIO, PRESETS, build_load_case, preset_domain_spec
from .solver import LoadCase, SolveError, assemble, solve

_TRIANGULATION = {"two": "two_split", "cross": "cross_split"}
_MATERIAL = {"lame": "lame", "plane-stress": "plane_stress", "plane_stress": "plane_stress"}


def _option(default, help, choices=None, minimum=None):
    """A RunConfig field; help, choices and minimum feed the parser and validation."""
    return field(default=default,
                 metadata={"help": help, "choices": choices, "minimum": minimum})


@dataclass
class RunConfig:
    """One run's options: the single table that the parser, config files,
    sweep lines, defaults and validation all read.

    A field's type coerces its flag or file value; metadata holds the
    allowed values or the lower bound, and the help text, to which the
    parser adds any default that is not None. nx, ny and volfrac default
    to the preset's when left None.
    """

    problem: str | None = _option(None, "benchmark problem (required)", tuple(sorted(PRESETS)))
    elem: str = _option("q1", "q1 quadrilaterals, or p1 or p2 triangles", ("q1", "p1", "p2"))
    nx: int | None = _option(
        None, "domain width in unit cells and q1 grid (default: the preset's)", minimum=1)
    ny: int | None = _option(
        None, "domain height in unit cells and q1 grid (default: the preset's)", minimum=1)
    grid: int | None = _option(
        None, "triangle grid subdivisions per side (default: nx by ny)", minimum=1)
    triangulation: str = _option(
        "cross", "two triangles per grid cell, or cross: four", tuple(_TRIANGULATION))
    refine: int = _option(0, "uniform refinement levels", minimum=0)
    volfrac: float | None = _option(None, "target volume fraction (default: the preset's)")
    penal: float = _option(SimpConfig.penal, "SIMP penalization exponent")
    rmin: float = _option(SimpConfig.rmin, "filter radius in element sizes")
    move: float = _option(SimpConfig.move, "largest density change per OC update")
    conv_tol: float = _option(SimpConfig.conv_tol, "stop at this relative density change")
    max_iters: int = _option(SimpConfig.max_iters, "iteration limit", minimum=1)
    material: str = _option("lame", "lame (plane strain) or plane-stress", tuple(_MATERIAL))
    estimate_error: bool = _option(False, "estimate the solid design's error (error_report.csv)")
    out: str = _option("out", "output directory")
    bevel_ratio: float = _option(
        BEVEL_RIGHT_RATIO, "right-edge height as a fraction of the left (bevel only)")
    snapshot_every: int = _option(0, "write a density raster every N iterations", minimum=0)
    quiet: bool = _option(False, "print nothing but errors")


_FIELDS = {f.name: f for f in fields(RunConfig)}


def _option_type(f):
    """The field's type without its `| None`."""
    return next((t for t in get_args(f.type) if t is not type(None)), f.type)


@dataclass
class RunReport:
    config: dict
    family: str
    n_elements: int
    compliance: float
    iterations: int
    breakdown: ErrorBreakdown | None
    outputs: list


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topo2d",
        description="2D compliance minimization benchmarks with optional "
        "a posteriori error estimation.",
    )
    for f in _FIELDS.values():
        flag, kind, help = "--" + f.name.replace("_", "-"), _option_type(f), f.metadata["help"]
        if kind is bool:
            parser.add_argument(flag, action="store_true", default=None, help=help)
            continue
        if f.default is not None:
            shown = f"{f.default:g}" if kind is float else f.default
            help += f" (default: {shown})"
        # a string: resolve_config coerces and checks flags and file values alike
        choices = f.metadata["choices"]
        parser.add_argument(flag, help=help, metavar=choices and "{" + ",".join(choices) + "}")
    parser.add_argument("--config", help="key=value file supplying defaults for flags")
    parser.add_argument("--sweep", help="file with one key=value run per line")
    parser.add_argument("--jobs", type=int, help="parallel workers for --sweep")

    def refuse(message):  # main prints every argument error as one error: line
        raise ValueError(message)
    parser.error = refuse
    return parser


def _assignment_lines(path, split: bool):
    """Yield {key: value} for each non-blank line of a key=value file.

    '#' starts a comment. With split, a line holds whitespace-separated
    key=value tokens; otherwise it is one assignment, spaces allowed around
    '='. Dashes in keys become underscores.
    """
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            values = {}
            for token in line.split() if split else [line]:
                if "=" not in token:
                    raise ValueError(f"{path}:{lineno}: expected key=value, got {token!r}")
                key, _, value = token.partition("=")
                values[key.strip().replace("-", "_")] = value.strip()
            yield values


def parse_config_file(path) -> dict:
    values = {}
    for line_values in _assignment_lines(path, split=False):
        values.update(line_values)
    return values


def _coerce(key: str, value):
    if key not in _FIELDS:
        raise ValueError(f"unknown option {key!r}")
    target = _option_type(_FIELDS[key])
    if target is bool and isinstance(value, str):
        lowered = value.lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"option {key!r}: cannot parse boolean from {value!r}")
    try:
        return target(value)
    except ValueError:
        raise ValueError(
            f"option {key!r}: cannot parse {target.__name__} from {value!r}") from None


def resolve_config(flags: dict, file_values: dict | None = None) -> RunConfig:
    """Merge flags over config-file entries over preset defaults.

    Every key must name a field; a file value is checked even if a flag overrides it.
    """
    merged = {key: _coerce(key, value) for key, value in (file_values or {}).items()}
    merged.update((key, _coerce(key, value)) for key, value in flags.items() if value is not None)

    for name, f in _FIELDS.items():
        choices, minimum = f.metadata["choices"], f.metadata["minimum"]
        value = merged.get(name, f.default)
        flag = "--" + name.replace("_", "-")
        if choices is not None and value not in choices:
            raise ValueError(f"{flag} must be one of {list(choices)} (got {value!r})")
        if minimum is not None and value is not None and value < minimum:
            raise ValueError(f"{flag} must be at least {minimum} (got {value})")
    preset = PRESETS[merged["problem"]]
    for key, default in (("nx", int(round(preset.width))),
                         ("ny", int(round(preset.height))),
                         ("volfrac", preset.volfrac)):
        if merged.get(key) is None:
            merged[key] = default
    return RunConfig(**merged)


def prepare(cfg: RunConfig):
    """Validate a config and build its mesh, classified boundary and load case."""
    simp = SimpConfig(**{f.name: getattr(cfg, f.name)
                         for f in fields(SimpConfig) if f.name in _FIELDS})
    simp.validate()
    if not 0.0 < cfg.bevel_ratio <= 1.0:
        raise ValueError(f"--bevel-ratio must lie in (0, 1] (got {cfg.bevel_ratio:g})")
    # q1 ignores --grid; the preset then grids one cell per unit of nx by ny
    grid = None if cfg.elem == "q1" else cfg.grid
    spec = preset_domain_spec(
        cfg.problem,
        width=float(cfg.nx),
        height=float(cfg.ny),
        nx=grid,
        ny=grid,
        triangulation=_TRIANGULATION[cfg.triangulation],
        refine_level=cfg.refine,
        bevel_ratio=cfg.bevel_ratio,
    )
    mesh = generate_mesh(spec, cfg.elem)
    case = build_load_case(cfg.problem, mesh)
    mesh = classify_boundary(mesh, case)
    material = Material(E=1.0, nu=0.3, model=_MATERIAL[cfg.material])
    return mesh, case, material, simp


def _config_lines(cfg: RunConfig) -> str:
    pairs = asdict(cfg)
    pairs = {k: v for k, v in pairs.items() if v is not None and k != "quiet"}
    return "\n".join(f"{key}={value}" for key, value in sorted(pairs.items())) + "\n"


def estimate_solid(mesh: Mesh, case: LoadCase, material: Material) -> ErrorBreakdown:
    """Solve the fully solid design (density one everywhere) and estimate."""
    system = assemble(mesh, np.ones(mesh.n_elements), 1.0, material, case)
    result = solve(system)
    return estimate(mesh, result.U, material, case)


def run(cfg: RunConfig) -> RunReport:
    """Execute one optimization run and write its outputs."""
    mesh, case, material, simp = prepare(cfg)
    say = (lambda _msg: None) if cfg.quiet else print
    say(
        f"{cfg.problem}: {cfg.elem} mesh with {mesh.n_elements} elements "
        f"({mesh.n_nodes} nodes), volfrac {simp.volfrac:g}"
    )

    os.makedirs(cfg.out, exist_ok=True)
    outputs = []

    callback = None
    if cfg.snapshot_every > 0:
        snap_dir = os.path.join(cfg.out, "snapshots")
        os.makedirs(snap_dir, exist_ok=True)

        def callback(loop, densities):
            if loop % cfg.snapshot_every == 0:
                path = os.path.join(snap_dir, f"iter_{loop:04d}.pgm")
                export.write_pgm(export.density_raster(mesh, densities), path)

    result = optimize(mesh, case, material, simp, callback=callback, log=say)
    say(f"finished after {result.iterations} iterations, "
        f"objective {result.compliance:.6f}")

    breakdown = None
    if cfg.estimate_error:
        breakdown = estimate_solid(mesh, case, material)
        say(
            "solid-domain estimate: "
            f"bulk {breakdown.bulk_total:.6g}, jump {breakdown.jump_total:.6g}, "
            f"neumann {breakdown.neumann_total:.6g}, eta {breakdown.eta_global:.6g}"
        )
        err_path = os.path.join(cfg.out, "error_report.csv")
        write_error_report(breakdown, mesh, err_path)
        outputs.append(err_path)

    config_path = os.path.join(cfg.out, "config.txt")
    with open(config_path, "w") as fh:
        fh.write(_config_lines(cfg))
    outputs.append(config_path)

    outputs.extend(export.export_density(mesh, result.field.x, cfg.out))
    history_path = os.path.join(cfg.out, "history.csv")
    write_history_csv(result.history, history_path)
    outputs.append(history_path)

    report_path = os.path.join(cfg.out, "report.csv")
    export.append_report(
        report_path,
        export.report_row(cfg.elem, mesh.n_elements, result.compliance,
                          result.iterations, breakdown),
    )
    outputs.append(report_path)

    say("outputs:")
    for path in outputs:
        say(f"  {path}")
    return RunReport(
        config=asdict(cfg),
        family=cfg.elem,
        n_elements=mesh.n_elements,
        compliance=result.compliance,
        iterations=result.iterations,
        breakdown=breakdown,
        outputs=outputs,
    )


def _run_line(cfg: RunConfig):
    """One sweep line: (its RunReport, "") or (None, the message of its solver failure)."""
    try:
        return run(cfg), ""
    except SolveError as exc:
        return None, str(exc)


def run_sweep(sweep_path, flags: dict, jobs: int, file_values: dict | None = None) -> list:
    """Run every sweep line, layered over the config-file entries, in one worker pool.

    Writes sweep_status.csv (index, status, message) for every line and
    sweep_report.csv for the lines that succeeded, then raises SolveError,
    naming the first failed line, if any line's solve failed.
    """
    configs = []
    file_values = file_values or {}
    base_out = flags.get("out") or file_values.get("out", RunConfig.out)
    for values in _assignment_lines(sweep_path, split=True):
        for key in ("out", "quiet"):
            if key in values:
                raise ValueError(f"option {key!r} is set per run by --sweep; "
                                 "remove it from the sweep line")
        cfg = resolve_config(flags, {**file_values, **values})
        # every line, its mesh and load case too, is checked before the
        # first run writes anything
        prepare(cfg)
        cfg.out = os.path.join(base_out, f"run_{len(configs):03d}")
        cfg.quiet = True
        configs.append(cfg)

    if not configs:
        raise ValueError(f"sweep file {sweep_path} contains no runs")
    with Pool(min(len(configs), jobs or max(1, cpu_count() // 2))) as pool:
        outcomes = pool.map(_run_line, configs)

    status, rows = [["index", "status", "message"]], [export.REPORT_COLUMNS]
    for index, (report, message) in enumerate(outcomes):
        status.append([index, "failed" if report is None else "ok", message])
        if report is None:
            print(f"run_{index:03d}: failed: {message}")
            continue
        rows.append(export.report_row(report.family, report.n_elements,
                                      report.compliance, report.iterations, report.breakdown))
        print(
            f"run_{index:03d}: {report.config['problem']} {report.family} "
            f"{report.n_elements} elements, objective {report.compliance:.6f}, "
            f"{report.iterations} iterations"
        )
    for name, table in (("sweep_status.csv", status), ("sweep_report.csv", rows)):
        with open(os.path.join(base_out, name), "w", newline="") as fh:
            csv.writer(fh).writerows(table)
    print(f"combined report: {os.path.join(base_out, 'sweep_report.csv')}")
    failed = [row for row in status[1:] if row[1] == "failed"]
    if failed:
        index, _, message = failed[0]
        raise SolveError(f"{len(failed)} of {len(outcomes)} sweep runs failed; "
                         f"first run_{index:03d}: {message}")
    return [report for report, _ in outcomes]


def main(argv=None) -> int:
    parser = build_parser()
    try:
        flags = vars(parser.parse_args(argv))
        config_path = flags.pop("config")
        sweep_path = flags.pop("sweep")
        jobs = flags.pop("jobs") or 0
        if jobs < 0:
            raise ValueError(f"--jobs must be at least 0 (got {jobs})")
        file_values = parse_config_file(config_path) if config_path else None
        if sweep_path:
            run_sweep(sweep_path, flags, jobs, file_values)
        else:
            run(resolve_config(flags, file_values))
        return 0
    except (ValueError, OSError) as exc:
        parser.exit(2, f"error: {exc}\n")
    except MemoryError as exc:
        parser.exit(2, f"error: out of memory: {exc}\n")
    except SolveError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
