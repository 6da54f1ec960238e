"""Benchmark front end: exports, presets, config resolution, end-to-end runs."""

import csv
import dataclasses
import io
import os
from contextlib import redirect_stderr
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from topo2d import export
from topo2d.cli import (RunConfig, _config_lines, _option_type, build_parser,
                        estimate_solid, main, parse_config_file, prepare,
                        resolve_config, run, run_sweep)
from topo2d.estimator import estimate, write_error_report
from topo2d.export import (REPORT_COLUMNS, append_report, density_raster,
                           density_to_gray, report_row, write_density_csv,
                           write_pgm)
from topo2d.mesh import DomainSpec, generate_mesh, refine_uniform
from topo2d.presets import PRESETS, build_load_case, preset_domain_spec


def read_pgm(path):
    with open(path, "rb") as fh:
        data = fh.read()
    magic, dims, maxval, rest = data.split(b"\n", 3)
    assert magic == b"P5"
    assert maxval == b"255"
    width, height = map(int, dims.split())
    pixels = np.frombuffer(rest, dtype=np.uint8, count=width * height)
    return pixels.reshape(height, width)


def test_pgm_solid_and_void_values(tmp_path):
    mesh = generate_mesh(DomainSpec(4.0, 2.0, 4, 2), "q1")
    solid = tmp_path / "solid.pgm"
    write_pgm(density_raster(mesh, np.ones(8)), solid)
    assert np.all(read_pgm(solid) == 0)

    void = tmp_path / "void.pgm"
    write_pgm(density_raster(mesh, np.full(8, 1e-3)), void)
    assert np.all(read_pgm(void) == 255)


def test_pgm_raster_orientation(tmp_path):
    # element order runs bottom row first; the raster puts the top of the
    # domain in the first image row
    mesh = generate_mesh(DomainSpec(2.0, 2.0, 2, 2), "q1")
    x = np.array([1.0, 0.0, 0.0, 1.0])
    path = tmp_path / "checker.pgm"
    write_pgm(density_raster(mesh, x), path)
    # top-left pixel shows the top-left element, which is void here
    np.testing.assert_array_equal(read_pgm(path),
                                  [[255, 0], [0, 255]])


def test_triangle_raster_constant_field():
    mesh = generate_mesh(DomainSpec(3.0, 2.0, 3, 2, triangulation="cross_split"), "p1")
    image = density_raster(mesh, np.full(mesh.n_elements, 0.3))
    assert image.shape == (16, 24)  # 8 pixels per unit
    assert np.all(image == density_to_gray(np.array([0.3]))[0])


def lowest_containing_element(mesh, points, tol=1e-9):
    """Brute force: the lowest element id whose barycentrics at each point
    are all at least -tol, or -1 when none is."""
    found = np.full(len(points), -1)
    for e, (v0, v1, v2) in enumerate(mesh.nodes[mesh.conn[:, :3]]):
        d1, d2, dp = v1 - v0, v2 - v0, points - v0
        det = d1[0] * d2[1] - d1[1] * d2[0]
        l1 = (dp[:, 0] * d2[1] - dp[:, 1] * d2[0]) / det
        l2 = (d1[0] * dp[:, 1] - d1[1] * dp[:, 0]) / det
        inside = (l1 >= -tol) & (l2 >= -tol) & (l1 + l2 <= 1.0 + tol)
        found[inside & (found < 0)] = e
    return found


def raster_points(spec):
    """Pixel centres as density_raster samples them, plus the domain's
    corners and side midpoints."""
    width_px = int(round(spec.width * export.PIXELS_PER_UNIT))
    height_px = int(round(spec.height * export.PIXELS_PER_UNIT))
    gx, gy = np.meshgrid((np.arange(width_px) + 0.5) * spec.width / width_px,
                         (np.arange(height_px) + 0.5) * spec.height / height_px)
    w, h = spec.width, spec.height
    rim = [[0, 0], [w, 0], [0, h], [w, h], [w / 2, 0], [w, h / 2], [w / 2, h], [0, h / 2]]
    return np.vstack([np.column_stack([gx.ravel(), gy.ravel()]), rim])


@pytest.mark.parametrize("shape", ["rectangle", "trapezoid"])
@pytest.mark.parametrize("refine", [0, 1, 2])
@pytest.mark.parametrize("tri", ["two_split", "cross_split"])
@pytest.mark.parametrize("family", ["p1", "p2"])
def test_triangle_locator_matches_brute_force(family, tri, refine, shape):
    # the raster's tie rule: a centre on a shared edge takes the lowest id
    spec = DomainSpec(6.0, 4.0, 6, 4, shape=shape, triangulation=tri, refine_level=refine,
                      right_height=4.0 / 3.0 if shape == "trapezoid" else None)
    mesh = generate_mesh(spec, family)
    points = raster_points(spec)
    expected = lowest_containing_element(mesh, points)
    assert np.all(expected >= 0)
    np.testing.assert_array_equal(export._locate_triangles(mesh, points), expected)


@pytest.mark.parametrize("tri", ["two", "cross"])
def test_triangle_locator_on_grid_cells(tri):
    # --grid 13 on a 10 by 10 domain: cell coordinates round, so pixel
    # centres on a diagonal and nodes on a cell side land a rounding error
    # off it, and only the tolerance keeps the lowest id. refine_uniform
    # must keep the numbering the locator descends.
    cfg = resolve_config({"problem": "bridge", "elem": "p1", "nx": 10, "ny": 10,
                          "grid": 13, "triangulation": tri})
    mesh = prepare(cfg)[0]
    for candidate in (mesh, refine_uniform(mesh)):
        points = np.vstack([raster_points(mesh.spec), candidate.nodes])
        np.testing.assert_array_equal(export._locate_triangles(candidate, points),
                                      lowest_containing_element(candidate, points))


def test_triangle_locator_rejects_foreign_numbering():
    mesh = generate_mesh(DomainSpec(3.0, 2.0, 3, 2, triangulation="two_split"), "p1")
    trimmed = dataclasses.replace(mesh, conn=mesh.conn[:-1])
    with pytest.raises(ValueError, match="11 elements"):
        density_raster(trimmed, np.ones(trimmed.n_elements))


def test_density_csv_roundtrip(tmp_path):
    mesh = generate_mesh(DomainSpec(2.0, 1.0, 2, 1), "q1")
    x = np.array([0.25, 0.75])
    path = tmp_path / "density.csv"
    write_density_csv(mesh, x, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["element_id", "centroid_x", "centroid_y", "density"]
    assert len(rows) == 3
    for e, row in enumerate(rows[1:]):
        assert int(row[0]) == e
        assert float(row[1]) == mesh.centroids[e, 0]
        assert float(row[3]) == x[e]


def _csv_writer_rows(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in rows:
            writer.writerow(row)


def test_column_writer_matches_csv_writer_rows(tmp_path):
    cfg = resolve_config({"problem": "cantilever", "nx": 6, "ny": 4})
    mesh, case, material, _ = prepare(cfg)
    bd = estimate_solid(mesh, case, material)
    x = np.linspace(1e-3, 1.0, mesh.n_elements) ** 3

    write_density_csv(mesh, x, tmp_path / "density.csv")
    _csv_writer_rows(tmp_path / "density_ref.csv", [
        ["element_id", "centroid_x", "centroid_y", "density"],
        *([e, repr(float(mesh.centroids[e, 0])), repr(float(mesh.centroids[e, 1])),
           repr(float(x[e]))] for e in range(mesh.n_elements)),
    ])
    assert ((tmp_path / "density.csv").read_bytes()
            == (tmp_path / "density_ref.csv").read_bytes())

    write_error_report(bd, mesh, tmp_path / "error_report.csv")
    _csv_writer_rows(tmp_path / "error_report_ref.csv", [
        ["element_id", "h_K", "bulk", "jump_half_sum", "neumann", "eta_sq"],
        *([e, repr(float(mesh.diameters[e])), repr(float(bd.bulk[e])),
           repr(float(bd.jump_by_element[e])), repr(float(bd.neumann_by_element[e])),
           repr(float(bd.local[e]))] for e in range(mesh.n_elements)),
        ["TOTAL", "", repr(bd.bulk_total), repr(bd.jump_total),
         repr(bd.neumann_total), repr(float(bd.local.sum()))],
        ["GLOBAL_ETA", "", "", "", "", repr(bd.eta_global)],
    ])
    report = (tmp_path / "error_report.csv").read_bytes()
    assert report == (tmp_path / "error_report_ref.csv").read_bytes()
    assert report.count(b"\r\n") == mesh.n_elements + 3


def test_report_append_and_schema_guard(tmp_path):
    path = tmp_path / "report.csv"
    append_report(path, report_row("q1", 8, 1.25, 3))
    append_report(path, report_row("p1", 16, 2.5, 4))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == REPORT_COLUMNS
    assert len(rows) == 3
    assert rows[1][0] == "Q1" and rows[2][0] == "P1"
    # no estimate requested: the five error columns stay empty
    assert rows[1][4:] == [""] * 5

    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["something", "else"])
    with pytest.raises(ValueError):
        append_report(path, report_row("q1", 8, 1.25, 3))


def test_report_row_with_breakdown():
    from topo2d.fem import Material
    from topo2d.solver import LoadCase, assemble, solve
    from topo2d.mesh import classify_boundary

    mesh = generate_mesh(DomainSpec(3.0, 2.0, 3, 2), "q1")
    fixed = np.flatnonzero(np.isclose(mesh.nodes[:, 0], 0.0))
    case = LoadCase(fixed_nodes=fixed, point_loads=((3, 0.0, -1.0),))
    mesh = classify_boundary(mesh, case)
    U = solve(assemble(mesh, np.ones(6), 1.0, Material(), case)).U
    bd = estimate(mesh, U, Material(), case)
    row = report_row("p2", 6, 3.5, 7, bd)
    assert row[0] == "P2"
    assert float(row[4]) == bd.bulk_total
    assert float(row[8]) == bd.eta_global


def test_preset_domain_specs():
    cant = preset_domain_spec("cantilever")
    assert (cant.width, cant.height, cant.nx, cant.ny) == (32.0, 20.0, 32, 20)
    assert cant.shape == "rectangle"

    bridge = preset_domain_spec("bridge")
    assert (bridge.width, bridge.height) == (30.0, 30.0)

    bevel = preset_domain_spec("bevel")
    assert bevel.shape == "trapezoid"
    assert bevel.right_height == pytest.approx(10.0)
    assert (PRESETS["cantilever"].volfrac, PRESETS["bridge"].volfrac,
            PRESETS["bevel"].volfrac) == (0.4, 0.3, 0.5)


def test_preset_load_cases():
    mesh = generate_mesh(preset_domain_spec("cantilever"), "q1")
    case = build_load_case("cantilever", mesh)
    assert len(case.fixed_nodes) == 21  # full west edge
    assert np.all(np.isclose(mesh.nodes[case.fixed_nodes, 0], 0.0))
    node, fx, fy = case.point_loads[0]
    np.testing.assert_allclose(mesh.nodes[node], [32.0, 0.0])
    assert (fx, fy) == (0.0, -1.0)

    mesh = generate_mesh(preset_domain_spec("bridge"), "q1")
    case = build_load_case("bridge", mesh)
    np.testing.assert_allclose(np.sort(mesh.nodes[case.fixed_nodes], axis=0),
                               [[0.0, 0.0], [30.0, 0.0]])
    node, _, _ = case.point_loads[0]
    np.testing.assert_allclose(mesh.nodes[node], [15.0, 0.0])

    mesh = generate_mesh(preset_domain_spec("bevel"), "q1")
    case = build_load_case("bevel", mesh)
    node, _, _ = case.point_loads[0]
    np.testing.assert_allclose(mesh.nodes[node], [40.0, 15.0])

    with pytest.raises(ValueError):
        build_load_case("arch", mesh)


def test_prepare_element_counts():
    cfg = resolve_config({"problem": "bridge", "elem": "p1", "grid": 32,
                          "refine": 1, "max_iters": 1})
    mesh, case, material, simp = prepare(cfg)
    assert mesh.n_elements == 16384
    assert mesh.family == "p1"

    cfg = resolve_config({"problem": "cantilever", "elem": "q1",
                          "nx": 64, "ny": 40})
    mesh, _, _, _ = prepare(cfg)
    assert mesh.n_elements == 2560

    cfg = resolve_config({"problem": "cantilever", "elem": "p2", "grid": 24})
    mesh, _, _, simp = prepare(cfg)
    assert mesh.n_elements == 2304
    assert simp.volfrac == 0.4

    # q1 ignores --grid and grids nx by ny
    cfg = resolve_config({"problem": "cantilever", "elem": "q1", "grid": 8})
    mesh, _, _, _ = prepare(cfg)
    assert mesh.n_elements == 640


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "problem=cantilever\n"
        "max-iters = 7   # trailing comment\n"
        "\n"
        "volfrac=0.35\n"
    )
    values = parse_config_file(path)
    assert values == {"problem": "cantilever", "max_iters": "7",
                      "volfrac": "0.35"}

    bad = tmp_path / "bad.cfg"
    bad.write_text("not a pair\n")
    with pytest.raises(ValueError):
        parse_config_file(bad)


def test_resolve_config_precedence():
    flags = {"problem": "cantilever", "volfrac": 0.3}
    file_values = {"nx": "10", "volfrac": "0.25", "rmin": "2.0"}
    cfg = resolve_config(flags, file_values)
    assert cfg.volfrac == 0.3  # flag beats file
    assert cfg.nx == 10  # file beats preset default
    assert cfg.ny == 20  # preset default
    assert cfg.rmin == 2.0
    assert cfg.elem == "q1"

    with pytest.raises(ValueError):
        resolve_config({})
    with pytest.raises(ValueError):
        resolve_config({"problem": "cantilever", "elem": "q3"})
    with pytest.raises(ValueError):
        resolve_config({"problem": "cantilever"}, {"unknown_key": "1"})
    # a flag key is checked as a file key is
    with pytest.raises(ValueError, match="unknown option 'nxx'"):
        resolve_config({"problem": "cantilever", "nxx": 5})

    # flag > sweep line > file > preset, and a None flag masks nothing
    cfg = resolve_config({"problem": "cantilever", "volfrac": 0.3, "rmin": None},
                         {"volfrac": "0.35", "rmin": "1.5", "nx": "8"},
                         {"volfrac": "0.25", "rmin": "2.0", "nx": "10", "penal": "4"})
    assert (cfg.volfrac, cfg.rmin, cfg.nx, cfg.penal, cfg.ny) == (0.3, 1.5, 8, 4.0, 20)
    # every layer is parsed, even under a higher one that sets the same key
    for line, file_values in (({"nx": "6"}, {"nx": "abc"}), ({}, {"rmin": "x"}),
                              ({"nx": "abc"}, {"nx": "6"})):
        with pytest.raises(ValueError, match="cannot parse"):
            resolve_config({"problem": "cantilever", "nx": 5, "rmin": 2.0}, line, file_values)


def test_main_end_to_end(tmp_path):
    out = tmp_path / "out"
    rc = main(["--problem", "cantilever", "--nx", "8", "--ny", "5",
               "--max-iters", "3", "--quiet", "--out", str(out)])
    assert rc == 0
    for name in ("config.txt", "density.pgm", "density.csv", "density.vtk",
                 "history.csv", "report.csv"):
        assert (out / name).exists()
    config = (out / "config.txt").read_text()
    assert "nx=8" in config and "problem=cantilever" in config
    with open(out / "report.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 2
    assert rows[1][0] == "Q1" and rows[1][1] == "40"
    assert rows[1][4:] == [""] * 5


def test_main_with_estimate_error(tmp_path):
    out = tmp_path / "out"
    rc = main(["--problem", "bridge", "--nx", "8", "--ny", "8", "--elem", "p1",
               "--grid", "4", "--max-iters", "2", "--quiet",
               "--estimate-error", "--out", str(out)])
    assert rc == 0
    assert (out / "error_report.csv").exists()
    with open(out / "report.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert all(cell != "" for cell in rows[1])
    assert float(rows[1][4]) == 0.0  # p1 without body force has no bulk term


def test_main_config_file_and_flag_override(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("problem=cantilever\nnx=6\nny=4\nmax-iters=2\n")
    out = tmp_path / "out"
    rc = main(["--config", str(cfg_file), "--nx", "5", "--quiet",
               "--out", str(out)])
    assert rc == 0
    config = (out / "config.txt").read_text()
    assert "nx=5" in config  # flag wins
    assert "ny=4" in config  # file wins over preset


def test_main_snapshots(tmp_path):
    out = tmp_path / "out"
    rc = main(["--problem", "cantilever", "--nx", "6", "--ny", "4",
               "--max-iters", "4", "--snapshot-every", "2", "--quiet",
               "--out", str(out)])
    assert rc == 0
    snaps = sorted(os.listdir(out / "snapshots"))
    assert snaps == ["iter_0002.pgm", "iter_0004.pgm"]


def test_main_exit_codes(tmp_path, capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        main(["--problem", "arch"])
    assert exc.value.code == 2

    with pytest.raises(SystemExit) as exc:
        main(["--problem", "cantilever", "--config",
              str(tmp_path / "missing.cfg")])
    assert exc.value.code == 2

    with pytest.raises(SystemExit) as exc:
        main(["--problem", "cantilever", "--triangulation", "fan"])
    assert exc.value.code == 2

    # an unreadable config or sweep path, or an out path that is a file
    taken = tmp_path / "taken.txt"
    taken.write_text("")
    for args in (["--config", str(tmp_path)], ["--sweep", str(tmp_path)],
                 ["--out", str(taken)]):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["--problem", "cantilever", "--nx", "6", "--ny", "4",
                  "--max-iters", "1", "--quiet", *args])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")

    # jobs is a flag only: a config file or sweep line naming it is refused
    cfg_file = tmp_path / "jobs.cfg"
    cfg_file.write_text("nx=6\nny=4\nmax-iters=1\njobs=2\n")
    sweep = tmp_path / "jobs_sweep.txt"
    sweep.write_text("nx=6 ny=4 max-iters=1 jobs=2\n")
    for source in (["--config", str(cfg_file)], ["--sweep", str(sweep)]):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["--problem", "cantilever", "--quiet",
                  "--out", str(tmp_path / "jobs"), *source])
        assert exc.value.code == 2
        assert capsys.readouterr().err == "error: unknown option 'jobs'\n"

    # a negative worker count is refused, not read as "auto"
    valid_sweep = tmp_path / "valid_sweep.txt"
    valid_sweep.write_text("nx=6 ny=4 max-iters=1\n")
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["--problem", "cantilever", "--sweep", str(valid_sweep), "--jobs", "-1",
              "--out", str(tmp_path / "negative_jobs")])
    assert exc.value.code == 2
    assert capsys.readouterr().err == "error: --jobs must be at least 0 (got -1)\n"
    assert not (tmp_path / "negative_jobs").exists()

    # argparse's own complaints leave through the same one-line exit
    for args in (["--jobs", "abc"], ["--jobs"], ["--nx"], ["--bogus", "1"]):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["--problem", "cantilever", "--sweep", str(valid_sweep),
                  "--out", str(tmp_path / "parse_error"), *args])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: "), err
        assert not (tmp_path / "parse_error").exists()

    # a sweep sets each run's out and quiet itself, so a sweep line naming
    # either is refused before any run writes
    for key, value in (("out", str(tmp_path / "line_out")), ("quiet", "false")):
        sweep = tmp_path / f"{key}_sweep.txt"
        sweep.write_text(f"nx=6 ny=4 max-iters=1 {key}={value}\n")
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["--problem", "cantilever", "--sweep", str(sweep),
                  "--out", str(tmp_path / "sweep_base")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"'{key}'" in err
        assert not (tmp_path / "sweep_base").exists()
        assert not (tmp_path / "line_out").exists()

    # non-finite, infeasible or negative values are rejected before any solve
    for flag, value in (("--rmin", "nan"), ("--volfrac", "1e-9"),
                        ("--penal", "nan"), ("--snapshot-every", "-2")):
        with pytest.raises(SystemExit) as exc:
            main(["--problem", "cantilever", "--nx", "6", "--ny", "4",
                  "--quiet", "--out", str(tmp_path / "bad"), flag, value])
        assert exc.value.code == 2

    # a preset load that lands on a support would vanish from the system
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["--problem", "bridge", "--elem", "p1", "--nx", "1", "--ny", "1",
              "--max-iters", "2", "--quiet", "--out", str(tmp_path / "tiny")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "bridge" in err and "load node 0" in err

    # a file value that does not parse names its option, under a flag or a
    # sweep line that sets the same key too, and a sweep file with no run
    # line is refused
    cfg_file = tmp_path / "abc.cfg"
    cfg_file.write_text("nx=abc\n")
    bool_file = tmp_path / "maybe.cfg"
    bool_file.write_text("quiet=maybe\n")
    estimate_file = tmp_path / "estimate.cfg"
    estimate_file.write_text("estimate-error=maybe\n")
    sweep = tmp_path / "abc_sweep.txt"
    sweep.write_text("nx=6 ny=4 max-iters=1 volfrac=abc\n")
    estimate_sweep = tmp_path / "estimate_sweep.txt"
    estimate_sweep.write_text("nx=6 ny=4 max-iters=1 estimate-error=1\n")
    empty = tmp_path / "empty_sweep.txt"
    empty.write_text("# no runs\n\n")
    nx_abc = "option 'nx': cannot parse int from 'abc'"
    estimate_maybe = "option 'estimate_error': cannot parse boolean from 'maybe'"
    for source, message in (
            (["--config", str(cfg_file)], nx_abc),
            (["--config", str(cfg_file), "--nx", "6"], nx_abc),
            (["--config", str(cfg_file), "--sweep", str(valid_sweep)], nx_abc),
            (["--config", str(bool_file)], "option 'quiet': cannot parse boolean from 'maybe'"),
            (["--config", str(estimate_file), "--estimate-error"], estimate_maybe),
            (["--config", str(estimate_file), "--sweep", str(estimate_sweep)], estimate_maybe),
            (["--sweep", str(sweep)], "option 'volfrac': cannot parse float from 'abc'"),
            (["--sweep", str(empty)], f"sweep file {empty} contains no runs")):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["--problem", "cantilever", "--quiet",
                  "--out", str(tmp_path / "abc"), *source])
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "abc").exists()

    # an empty out is refused by a single run and by a sweep alike, and
    # neither writes into the working directory
    workdir = tmp_path / "empty_out"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    for source in ([], ["--sweep", str(valid_sweep)]):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["--problem", "cantilever", "--nx", "6", "--ny", "4", "--max-iters", "1",
                  "--quiet", "--out", "", *source])
        assert exc.value.code == 2
        assert capsys.readouterr().err == "error: [Errno 2] No such file or directory: ''\n"
        assert os.listdir(workdir) == []


def test_every_option_has_help():
    for action in build_parser()._actions:
        if action.dest != "help":
            assert action.help, action.option_strings


def test_option_lower_bounds_exit_two(tmp_path, capsys):
    # the bounds live in the option table and hold for flags and files alike
    cfg_file = tmp_path / "refine.cfg"
    cfg_file.write_text("refine=-1\n")
    cases = [(["--nx", "0"], "--nx must be at least 1 (got 0)"),
             (["--ny", "-1"], "--ny must be at least 1 (got -1)"),
             (["--grid", "0"], "--grid must be at least 1 (got 0)"),
             (["--max-iters", "0"], "--max-iters must be at least 1 (got 0)"),
             (["--refine", "-1"], "--refine must be at least 0 (got -1)"),
             (["--snapshot-every", "-2"], "--snapshot-every must be at least 0 (got -2)"),
             (["--config", str(cfg_file)], "--refine must be at least 0 (got -1)")]
    for args, message in cases:
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["--problem", "cantilever", "--elem", "p1", "--quiet",
                  "--out", str(tmp_path / "bad"), *args])
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "bad").exists()


def test_out_of_choice_values_exit_two_with_one_line(tmp_path, capsys):
    # resolve_config is the one place that checks choices: a flag outside
    # them gets the same single line as a config-file value, not a usage block
    cases = [(["--elem", "q3"], "--elem must be one of ['q1', 'p1', 'p2'] (got 'q3')"),
             (["--triangulation", "fan"],
              "--triangulation must be one of ['two', 'cross'] (got 'fan')"),
             (["--material", "steel"], "--material must be one of "
              "['lame', 'plane-stress', 'plane_stress'] (got 'steel')"),
             (["--problem", "arch"],
              "--problem must be one of ['bevel', 'bridge', 'cantilever'] (got 'arch')")]
    for args, message in cases:
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["--problem", "cantilever", "--quiet", "--out", str(tmp_path / "bad"), *args])
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "bad").exists()
    help_text = build_parser().format_help()
    assert "--elem {q1,p1,p2}" in help_text and "--triangulation {two,cross}" in help_text


def test_main_bisection_failure_exits_one(tmp_path, monkeypatch, capsys):
    import topo2d.optimizer

    def failing_update(*args, **kwargs):
        raise topo2d.optimizer.BisectionError("volume bisection did not converge")

    monkeypatch.setattr(topo2d.optimizer, "oc_update", failing_update)
    rc = main(["--problem", "cantilever", "--nx", "6", "--ny", "4",
               "--max-iters", "2", "--quiet", "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "bisection" in err and "Traceback" not in err


def _check_sweep_runs_and_combined_report(tmp_path, capsys, jobs):
    sweep = tmp_path / "sweep.txt"
    sweep.write_text(
        "# two tiny runs\n"
        "elem=q1 nx=6 ny=4 max-iters=2\n"
        "elem=p1 nx=6 ny=4 grid=4 max-iters=2\n"
    )
    out = tmp_path / "out"
    # a second sweep into the same out replaces the combined report
    for _ in range(2):
        rc = main(["--problem", "cantilever", "--sweep", str(sweep),
                   "--jobs", jobs, "--out", str(out)])
        assert rc == 0
        assert (out / "run_000" / "report.csv").exists()
        assert (out / "run_001" / "report.csv").exists()
        with open(out / "sweep_report.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == REPORT_COLUMNS
        assert [row[0] for row in rows[1:]] == ["Q1", "P1"]
        assert rows[2][1] == "64"  # 4x4 cross-split cells
        with open(out / "sweep_status.csv", newline="") as fh:
            assert list(csv.reader(fh))[1:] == [["0", "ok", ""], ["1", "ok", ""]]
        captured = capsys.readouterr()
        assert "run_000" in captured.out and "run_001" in captured.out


def test_sweep_runs_and_combined_report(tmp_path, capsys):
    _check_sweep_runs_and_combined_report(tmp_path, capsys, "1")


def test_sweep_runs_and_combined_report_with_two_workers(tmp_path, capsys):
    # the same sweep through a real two-worker pool
    _check_sweep_runs_and_combined_report(tmp_path, capsys, "2")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_runs_every_line_then_reports_a_failure(tmp_path, capsys, jobs):
    # x ** 1e6 underflows to 0, so the second line's solve is exactly
    # singular; the other lines still run and keep their report rows, with
    # one pool or worker count
    sweep = tmp_path / "sweep.txt"
    sweep.write_text("elem=q1 nx=6 ny=4 max-iters=2\nnx=6 ny=4 max-iters=2 penal=1e6\n"
                     "elem=p1 nx=6 ny=4 max-iters=2\n")
    out = tmp_path / "out"
    capsys.readouterr()
    rc = main(["--problem", "cantilever", "--sweep", str(sweep),
               "--jobs", jobs, "--out", str(out)])
    assert rc == 1
    singular = "direct factorization failed: Factor is exactly singular"
    assert capsys.readouterr().err == (f"solver failure: 1 of 3 sweep runs failed; "
                                       f"first run_001: {singular}\n")
    with open(out / "sweep_status.csv", newline="") as fh:
        assert list(csv.reader(fh)) == [["index", "status", "message"], ["0", "ok", ""],
                                         ["1", "failed", singular], ["2", "ok", ""]]
    with open(out / "sweep_report.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == REPORT_COLUMNS
    assert [row[0] for row in rows[1:]] == ["Q1", "P1"]
    for index in (0, 2):
        with open(out / f"run_{index:03d}" / "report.csv", newline="") as fh:
            assert list(csv.reader(fh))[1] == rows[1 + index // 2]


class _RecordingPool:
    """Stands in for multiprocessing.Pool: records the worker count asked
    for and maps in-process."""

    sizes = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, func, items):
        return [func(item) for item in items]


def test_sweep_pool_has_at_most_one_worker_per_line(tmp_path, monkeypatch):
    from multiprocessing import cpu_count

    import topo2d.cli

    monkeypatch.setattr(topo2d.cli, "Pool", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    sweep = tmp_path / "sweep.txt"
    sweep.write_text("nx=6 ny=4 max-iters=1\nnx=6 ny=4 max-iters=1 volfrac=0.3\n")
    for jobs in ("64", "0"):
        rc = main(["--problem", "cantilever", "--sweep", str(sweep),
                   "--jobs", jobs, "--out", str(tmp_path / f"jobs{jobs}")])
        assert rc == 0
        assert (tmp_path / f"jobs{jobs}" / "sweep_report.csv").exists()
    assert _RecordingPool.sizes == [2, min(2, max(1, cpu_count() // 2))]


def test_sweep_lines_layer_over_config_file(tmp_path):
    # precedence: flag > sweep line > config file > preset
    out = tmp_path / "out"
    cfg_file = tmp_path / "base.cfg"
    cfg_file.write_text(f"max_iters=1\nnx=6\nny=4\nvolfrac=0.45\nout={out}\n")
    sweep = tmp_path / "sweep.txt"
    sweep.write_text("elem=q1\nelem=q1 volfrac=0.35\n")
    rc = main(["--problem", "cantilever", "--config", str(cfg_file),
               "--sweep", str(sweep), "--jobs", "1", "--ny", "5"])
    assert rc == 0
    configs = [parse_config_file(out / f"run_{i:03d}" / "config.txt") for i in (0, 1)]
    for values in configs:
        assert (values["max_iters"], values["nx"], values["ny"]) == ("1", "6", "5")
    assert [values["volfrac"] for values in configs] == ["0.45", "0.35"]


def test_sweep_checks_every_line_before_running(tmp_path, capsys):
    # a line whose SIMP parameters or domain are invalid stops the sweep
    # before the first run writes anything
    cases = [("cantilever", "volfrac=0.0001",
              "error: volfrac 0.0001 is below the density floor x_min 0.001\n"),
             ("bevel", "bevel-ratio=2",
              "error: --bevel-ratio must lie in (0, 1] (got 2)\n")]
    for problem, bad, message in cases:
        sweep = tmp_path / f"{problem}_lines.txt"
        sweep.write_text(f"nx=6 ny=4 max-iters=1\nnx=6 ny=4 max-iters=1 {bad}\n")
        out = tmp_path / problem
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["--problem", problem, "--sweep", str(sweep), "--jobs", "1",
                  "--out", str(out)])
        assert exc.value.code == 2
        assert capsys.readouterr().err == message
        assert not (out / "run_000").exists()
        assert not (out / "sweep_report.csv").exists()


def test_run_returns_report(tmp_path):
    cfg = resolve_config({"problem": "cantilever", "nx": 6, "ny": 4,
                          "max_iters": 2, "quiet": True,
                          "out": str(tmp_path / "r")})
    report = run(cfg)
    assert report.family == "q1"
    assert report.n_elements == 24
    assert report.compliance > 0.0
    assert report.config["nx"] == 6
    assert any(path.endswith("report.csv") for path in report.outputs)


def test_build_parser_defaults_are_none():
    args = build_parser().parse_args(["--problem", "cantilever"])
    assert args.nx is None and args.volfrac is None and args.quiet is None


def _option_values():
    """Valid values for every RunConfig field; choices come from the table."""
    ranges = {
        "nx": st.integers(1, 64), "ny": st.integers(1, 64),
        "grid": st.none() | st.integers(1, 64), "refine": st.integers(0, 3),
        "volfrac": st.floats(0.01, 1.0), "penal": st.floats(1.0, 5.0),
        "rmin": st.floats(0.5, 4.0), "move": st.floats(0.01, 1.0),
        "conv_tol": st.floats(0.0, 0.1), "max_iters": st.integers(1, 1000),
        "estimate_error": st.booleans(),
        "out": st.text("abcxyz0189_-./", min_size=1, max_size=12),
        "bevel_ratio": st.floats(0.1, 1.0), "snapshot_every": st.integers(0, 10),
        "quiet": st.booleans(),
    }
    for f in fields(RunConfig):
        if f.metadata["choices"] is not None:
            ranges[f.name] = st.sampled_from(f.metadata["choices"])
    assert set(ranges) == {f.name for f in fields(RunConfig)}
    return st.builds(RunConfig, **ranges)


@settings(max_examples=100, deadline=None)
@given(cfg=_option_values())
def test_config_round_trip(tmp_path_factory, cfg):
    path = tmp_path_factory.getbasetemp() / "round_trip.cfg"
    path.write_text(_config_lines(cfg))
    values = parse_config_file(path)
    assert resolve_config({"quiet": cfg.quiet}, values) == cfg


def _bad_values():
    """(option, value) pairs that every problem refuses: NaN, +-inf and
    values outside each numeric option's range."""
    out_of_range = {
        "volfrac": st.floats(max_value=0.0) | st.floats(min_value=1.0, exclude_min=True),
        "penal": st.floats(max_value=1.0, exclude_max=True),
        "rmin": st.floats(max_value=0.0),
        "move": st.floats(max_value=0.0),
        "conv_tol": st.floats(max_value=0.0, exclude_max=True),
        "bevel_ratio": st.floats(max_value=0.0) | st.floats(min_value=1.0, exclude_min=True),
    }
    numeric = [f for f in fields(RunConfig) if _option_type(f) in (int, float)]
    for f in numeric:
        if _option_type(f) is int:
            out_of_range[f.name] = st.integers(max_value=f.metadata["minimum"] - 1)
    assert set(out_of_range) == {f.name for f in numeric}

    def values(name):
        # conv_tol = inf is valid: it stops after one iteration
        nonfinite = ["nan", "-inf"] + ([] if name == "conv_tol" else ["inf"])
        return st.tuples(st.just(name),
                         st.sampled_from(nonfinite) | out_of_range[name].map(repr))

    return st.sampled_from(sorted(out_of_range)).flatmap(values)


@settings(max_examples=100, deadline=None)
@given(problem=st.sampled_from(sorted(PRESETS)), elem=st.sampled_from(["q1", "p2"]),
       bad=_bad_values())
def test_bad_option_values_exit_two(tmp_path_factory, problem, elem, bad):
    # the bad value as a flag, then from a config file under a sweep line:
    # both exit 2 with the same one line and write nothing
    name, value = bad
    base = tmp_path_factory.mktemp("bad_option")
    cfg_file, sweep = base / "bad.cfg", base / "lines.txt"
    cfg_file.write_text(f"nx=6\nny=4\nmax-iters=1\n{name}={value}\n")
    sweep.write_text(f"elem={elem}\n")
    messages = []
    for options in ([f"--elem={elem}", "--nx=6", "--ny=4", "--max-iters=1",
                     f"--{name.replace('_', '-')}={value}"],
                    ["--config", str(cfg_file), "--sweep", str(sweep)]):
        err = io.StringIO()
        with redirect_stderr(err), pytest.raises(SystemExit) as exc:
            main(["--problem", problem, "--quiet", "--out", str(base / "out"), *options])
        assert exc.value.code == 2
        messages.append(err.getvalue())
        assert not (base / "out").exists()
    message = messages[0]
    assert message.count("\n") == 1 and message.startswith("error: "), message
    assert "Traceback" not in message
    assert messages[1] == message


@st.composite
def _cli_flags(draw):
    """Flags for main: meshes of at most 3x3 cells, one or two iterations, and
    up to two SIMP values that are 0, negative, NaN, infinite or out of range."""
    simp = {"volfrac": (st.floats(0.05, 1.0), ["1.5"]),
            "penal": (st.floats(1.0, 5.0), ["0.5"]),
            "rmin": (st.floats(0.5, 3.0), []),
            "move": (st.floats(0.05, 1.0), []),
            "conv_tol": (st.floats(0.0, 0.1), ["-0.01"])}
    spoiled = draw(st.sets(st.sampled_from(sorted(simp)), max_size=2))
    flags = {name: draw(st.sampled_from(["0", "-1", "nan", "inf", "-inf"] + extra)
                        if name in spoiled else valid.map(repr))
             for name, (valid, extra) in simp.items()}
    flags.update(problem=draw(st.sampled_from(sorted(PRESETS))),
                 elem=draw(st.sampled_from(["q1", "p1", "p2"])),
                 triangulation=draw(st.sampled_from(["two", "cross"])),
                 nx=draw(st.integers(1, 3)), ny=draw(st.integers(1, 3)),
                 max_iters=draw(st.integers(1, 2)))
    return flags, draw(st.booleans())


@settings(max_examples=30, deadline=None)
@given(flags_and_estimate=_cli_flags())
def test_cli_contract_on_random_configs(tmp_path_factory, flags_and_estimate):
    # every run exits 0, 1 or 2; a failure prints one stderr line and no
    # traceback, and a success writes finite reports
    flags, estimate_error = flags_and_estimate
    out = tmp_path_factory.mktemp("cli_contract") / "out"
    argv = [f"--{name.replace('_', '-')}={value}" for name, value in flags.items()]
    argv += ["--quiet", "--out", str(out)] + (["--estimate-error"] if estimate_error else [])
    err = io.StringIO()
    with redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    event(f"exit {code}")
    assert code in (0, 1, 2)
    message = err.getvalue()
    if code != 0:
        assert message.count("\n") == 1, message
        assert message.startswith(("error: ", "solver failure: ")), message
        assert "Traceback" not in message
        return
    with open(out / "report.csv", newline="") as fh:
        (row,) = list(csv.DictReader(fh))
    numbers = [value for key, value in row.items() if key != "element_type" and value]
    with open(out / "history.csv", newline="") as fh:
        history = list(csv.DictReader(fh))
    assert 1 <= len(history) <= flags["max_iters"]
    numbers += [value for line in history for value in line.values()]
    assert np.all(np.isfinite(np.array(numbers, dtype=float)))


def test_out_of_memory_exits_two(tmp_path, monkeypatch, capsys):
    # an oversized grid fails in the mesh build; the stand-in raises there
    # without allocating anything large
    import topo2d.cli

    def oversized(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB for an array with shape "
                          "(10000200001, 2) and data type float64")

    monkeypatch.setattr(topo2d.cli, "generate_mesh", oversized)
    with pytest.raises(SystemExit) as exc:
        main(["--problem", "cantilever", "--nx", "100000", "--ny", "100000",
              "--max-iters", "1", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: out of memory: Unable to allocate")
    assert not (tmp_path / "out").exists()


def test_sweep_refuses_load_on_support_before_running(tmp_path, capsys):
    # the load node is found on the line's mesh, so that mesh is built and
    # checked before the first run writes anything
    sweep = tmp_path / "lines.txt"
    sweep.write_text("problem=cantilever nx=6 ny=4 max-iters=1\n"
                     "problem=bridge elem=p1 nx=1 ny=1 max-iters=1\n")
    out = tmp_path / "out"
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["--sweep", str(sweep), "--jobs", "1", "--out", str(out)])
    assert exc.value.code == 2
    assert capsys.readouterr().err == ("error: bridge: the load node 0 is also a support "
                                       "on this mesh; use a finer grid\n")
    assert not (out / "run_000").exists()


def test_mismatched_report_refused_before_any_work(tmp_path, capsys):
    # a report.csv of another schema where a run would append stops that run,
    # or the whole sweep, before any mesh is built or any output written
    stale = b"a,b\n1,2\n"
    single, sweep_out = tmp_path / "single", tmp_path / "sweep"
    for report in (single / "report.csv", sweep_out / "run_001" / "report.csv"):
        report.parent.mkdir(parents=True)
        report.write_bytes(stale)
    sweep = tmp_path / "lines.txt"
    sweep.write_text("nx=6 ny=4 max-iters=1\nelem=p1 nx=6 ny=4 max-iters=1\n")
    for out, report, source in (
            (single, single / "report.csv", ["--nx", "6", "--ny", "4", "--max-iters", "1"]),
            (sweep_out, sweep_out / "run_001" / "report.csv", ["--sweep", str(sweep)])):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["--problem", "cantilever", "--quiet", "--jobs", "1", "--out", str(out),
                  *source])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (f"error: report schema mismatch in {report}: "
                                           f"found ['a', 'b'], expected {REPORT_COLUMNS}\n")
        assert report.read_bytes() == stale
    assert sorted(path.relative_to(tmp_path).as_posix() for path in tmp_path.rglob("*")) == [
        "lines.txt", "single", "single/report.csv", "sweep", "sweep/run_001",
        "sweep/run_001/report.csv"]


def test_benchmark_selftest_estimate_workload(monkeypatch):
    # the benchmark wraps topo2d functions by name to trace them; a tiny
    # traced and untraced run of the estimating workload fails when one of
    # those names is renamed or its checks no longer hold
    bench_dir = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
    monkeypatch.syspath_prepend(bench_dir)
    import run
    import selftest

    selftest.check_workload("estimate-q1-large", run.load_spec())


@pytest.mark.parametrize("workload", ["opt-p2-cantilever", "opt-p1-bridge"])
def test_benchmark_selftest_opt_workloads(monkeypatch, workload):
    # the same tiny traced and untraced runs on the optimizing workloads,
    # which pin one K0 integration (fem.k0_calls) and one solve per iteration
    bench_dir = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
    monkeypatch.syspath_prepend(bench_dir)
    import run
    import selftest

    selftest.check_workload(workload, run.load_spec())
