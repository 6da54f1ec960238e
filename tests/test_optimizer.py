"""Optimization loop: sensitivities, filter weights, OC update, history."""

import csv

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from topo2d.cli import prepare, resolve_config
from topo2d.fem import Material
from topo2d.mesh import DomainSpec, classify_boundary, generate_mesh
from topo2d.optimizer import (BisectionError, DensityField, SensitivityFilter,
                              SimpConfig, compliance_and_sensitivity,
                              element_strain_energies, oc_update, optimize,
                              sensitivity_filter, write_history_csv)
from topo2d.solver import LoadCase, StiffnessAssembler, assemble, solve

MAT = Material()


def cantilever(nx, ny, family="q1", tri="two_split"):
    mesh = generate_mesh(
        DomainSpec(float(nx), float(ny), nx, ny, triangulation=tri), family)
    fixed = np.flatnonzero(np.isclose(mesh.nodes[:, 0], 0.0))
    corner = int(np.argmin(np.sum((mesh.nodes - [nx, 0.0]) ** 2, axis=1)))
    case = LoadCase(fixed_nodes=fixed, point_loads=((corner, 0.0, -1.0),))
    return classify_boundary(mesh, case), case


def test_compliance_equals_external_work():
    mesh, case = cantilever(4, 3)
    x = np.full(mesh.n_elements, 0.7)
    system = assemble(mesh, x, 3.0, MAT, case)
    U = solve(system).U
    c, _ = compliance_and_sensitivity(mesh, x, U, 3.0, MAT)
    np.testing.assert_allclose(c, system.F @ U, rtol=1e-12)


def test_sensitivity_at_unit_density():
    mesh, case = cantilever(3, 3, family="p1", tri="cross_split")
    x = np.ones(mesh.n_elements)
    U = solve(assemble(mesh, x, 3.0, MAT, case)).U
    sed = element_strain_energies(mesh, MAT, U)
    _, dc = compliance_and_sensitivity(mesh, x, U, 3.0, MAT)
    np.testing.assert_allclose(dc, -3.0 * sed, rtol=1e-13)


def test_filter_passes_constant_through():
    mesh, _ = cantilever(5, 4)
    filt = SensitivityFilter(mesh, rmin=2.5)
    x = np.full(mesh.n_elements, 0.4)
    dc = np.full(mesh.n_elements, -7.25)
    np.testing.assert_allclose(filt.apply(x, dc), dc, rtol=1e-13)


def test_filter_tiny_radius_is_identity():
    # radius below the centroid spacing leaves only the self weight
    mesh, _ = cantilever(5, 3)
    rng = np.random.default_rng(2)
    x = rng.uniform(0.2, 1.0, mesh.n_elements)
    dc = -rng.uniform(0.5, 2.0, mesh.n_elements)
    np.testing.assert_allclose(sensitivity_filter(mesh, x, dc, rmin=0.25), dc,
                               rtol=1e-13)


def test_filter_hand_weights_on_row_of_three():
    # unit cells, centroid spacing 1, rmin 1.5: neighbor weight 0.5, self
    # weight 1.5; row sums are 2.0 / 2.5 / 2.0
    mesh, _ = cantilever(3, 1)
    assert mesh.n_elements == 3
    order = np.argsort(mesh.centroids[:, 0])
    x = np.ones(3)
    dc = np.array([-1.0, -4.0, -9.0])
    filtered = sensitivity_filter(mesh, x, dc[np.argsort(order)], 1.5)[order]
    d0, d1, d2 = dc
    expected = np.array([
        (1.5 * d0 + 0.5 * d1) / 2.0,
        (0.5 * d0 + 1.5 * d1 + 0.5 * d2) / 2.5,
        (0.5 * d1 + 1.5 * d2) / 2.0,
    ])
    np.testing.assert_allclose(filtered, expected, rtol=1e-13)

    scaled = np.array([0.5, 1.0, 0.25])
    xs = scaled[np.argsort(order)]
    filtered = sensitivity_filter(mesh, xs, dc[np.argsort(order)], 1.5)[order]
    s0, s1, s2 = scaled
    expected = np.array([
        (1.5 * s0 * d0 + 0.5 * s1 * d1) / (2.0 * s0),
        (0.5 * s0 * d0 + 1.5 * s1 * d1 + 0.5 * s2 * d2) / (2.5 * s1),
        (0.5 * s1 * d1 + 1.5 * s2 * d2) / (2.0 * s2),
    ])
    np.testing.assert_allclose(filtered, expected, rtol=1e-13)


def test_oc_uniform_sensitivity_fixed_point():
    cfg = SimpConfig(volfrac=0.35)
    n = 12
    x = np.full(n, 0.35)
    xn = oc_update(x, np.full(n, -2.0), np.ones(n), cfg)
    np.testing.assert_allclose(xn, 0.35, atol=2e-6)


def test_oc_move_limits_and_bounds():
    cfg = SimpConfig(volfrac=0.5, move=0.2, x_min=1e-3)
    rng = np.random.default_rng(9)
    n = 40
    x = rng.uniform(0.05, 0.95, n)
    dc = -rng.uniform(0.01, 50.0, n)
    volumes = rng.uniform(0.5, 2.0, n)
    xn = oc_update(x, dc, volumes, cfg)
    assert np.all(xn <= np.minimum(1.0, x + cfg.move) + 1e-12)
    assert np.all(xn >= np.maximum(cfg.x_min, x - cfg.move) - 1e-12)


def test_oc_volume_constraint_met():
    cfg = SimpConfig(volfrac=0.42)
    rng = np.random.default_rng(17)
    n = 60
    x = np.full(n, 0.42)
    dc = -rng.uniform(0.1, 10.0, n)
    volumes = rng.uniform(0.2, 3.0, n)
    v0 = volumes.sum()
    # at 1e-30 the multiplier lies far below the initial bracket
    for scale in (1.0, 1e-30):
        xn = oc_update(x, dc * scale, volumes, cfg)
        assert abs((xn * volumes).sum() - cfg.volfrac * v0) <= 1e-6 * v0


def test_oc_unreachable_volume_raises_bisection_error():
    # every element can grow by move at most: 0.2 + 0.2 < 0.9
    cfg = SimpConfig(volfrac=0.9, move=0.2)
    with pytest.raises(BisectionError, match="did not converge"):
        oc_update(np.full(8, 0.2), np.full(8, -1.0), np.ones(8), cfg)


def test_oc_passive_elements_pinned():
    cfg = SimpConfig(volfrac=0.5)
    n = 20
    passive = np.zeros(n, dtype=bool)
    passive[::4] = True
    x = np.full(n, 0.5)
    x[passive] = cfg.x_min
    rng = np.random.default_rng(1)
    dc = -rng.uniform(0.5, 5.0, n)
    volumes = np.ones(n)
    xn = oc_update(x, dc, volumes, cfg, passive=passive)
    assert np.all(xn[passive] == cfg.x_min)
    active = ~passive
    target = cfg.volfrac * volumes[active].sum()
    assert abs((xn[active] * volumes[active]).sum() - target) <= 1e-6 * volumes[active].sum()


@settings(max_examples=100, deadline=None)
@given(cells=st.lists(st.tuples(st.one_of(st.just(0.0), st.floats(-1e3, -1e-3)),
                                st.floats(1e-2, 1e2), st.booleans()),
                      min_size=1, max_size=40),
       volfrac=st.floats(SimpConfig(volfrac=1.0).x_min, 1.0))
def test_oc_update_meets_volume_target(cells, volfrac):
    cfg = SimpConfig(volfrac=volfrac)
    dc, volumes, passive = (np.array(column) for column in zip(*cells))
    active = ~passive
    assume(active.any())
    x = np.where(passive, cfg.x_min, volfrac)
    v0 = volumes[active].sum()
    # elements with dc = 0 fall to their lower move limit, so the target
    # must stay reachable by the others
    reach = np.where(dc < 0.0, np.minimum(1.0, x + cfg.move),
                     np.maximum(cfg.x_min, x - cfg.move))
    assume((reach * volumes)[active].sum() >= volfrac * v0)
    xn = oc_update(x, dc, volumes, cfg, passive=passive)
    assert abs((xn * volumes)[active].sum() - volfrac * v0) <= 1e-6 * v0
    assert np.all(xn[passive] == cfg.x_min)
    assert np.all((xn >= cfg.x_min) & (xn <= 1.0))


def masked_oc_update(x, dc, volumes, config, passive):
    """Reference OC update: an active mask, boolean gathers and a passive
    reset in every bisection step, against which oc_update's one clipped
    product per step is checked."""
    active = ~passive
    v0 = volumes[active].sum()
    target = config.volfrac * v0
    lower = np.maximum(config.x_min, x - config.move)
    upper = np.minimum(1.0, x + config.move)

    def candidate(lam):
        ratio = (-dc / (lam * volumes)) ** config.damping
        xn = np.clip(x * ratio, lower, upper)
        xn[passive] = config.x_min
        return xn

    def active_volume(xn):
        return float((xn[active] * volumes[active]).sum())

    lo, hi = 1e-10, 1e10
    for _ in range(30):
        if active_volume(candidate(lo)) >= target:
            break
        lo /= 10.0
    for _ in range(30):
        if active_volume(candidate(hi)) <= target:
            break
        hi *= 10.0
    for _ in range(200):
        lam = 0.5 * (lo + hi)
        xn = candidate(lam)
        vol = active_volume(xn)
        if abs(vol - target) <= 1e-6 * v0:
            return xn
        if vol > target:
            lo = lam
        else:
            hi = lam
    raise BisectionError("oracle bisection did not converge")


@settings(max_examples=200, deadline=None)
@given(cells=st.lists(st.tuples(st.one_of(st.just(0.0), st.floats(-1e3, -1e-3)),
                                st.floats(1e-2, 1e2),
                                st.floats(SimpConfig(volfrac=1.0).x_min, 1.0),
                                st.booleans()),
                      min_size=1, max_size=40),
       no_passive=st.booleans(),
       volfrac=st.floats(SimpConfig(volfrac=1.0).x_min, 1.0),
       move=st.sampled_from([0.05, 0.2, 0.5]),
       damping=st.sampled_from([0.3, 0.5, 1.0]))
def test_oc_update_matches_masked_oracle(cells, no_passive, volfrac, move, damping):
    cfg = SimpConfig(volfrac=volfrac, move=move, damping=damping)
    dc, volumes, x, passive = (np.array(column) for column in zip(*cells))
    if no_passive:
        passive = np.zeros_like(passive)
    active = ~passive
    assume(active.any())
    v0 = volumes[active].sum()
    # the target must lie between the volumes of the lowest and the highest
    # reachable designs; elements with dc = 0 stay at their lower move limit
    lower = np.maximum(cfg.x_min, x - cfg.move)
    reach = np.where(dc < 0.0, np.minimum(1.0, x + cfg.move), lower)
    assume((lower * volumes)[active].sum() <= volfrac * v0 <= (reach * volumes)[active].sum())
    expected = masked_oc_update(x, dc, volumes, cfg, passive)
    xn = oc_update(x, dc, volumes, cfg, passive=None if no_passive else passive)
    for design in (expected, xn):
        assert abs((design * volumes)[active].sum() - volfrac * v0) <= 1e-6 * v0
    np.testing.assert_allclose(xn, expected, rtol=0.0, atol=1e-9)
    assert np.all(xn[passive] == cfg.x_min)


def test_oc_rejects_positive_sensitivities():
    cfg = SimpConfig(volfrac=0.5)
    with pytest.raises(ValueError):
        oc_update(np.full(4, 0.5), np.array([-1.0, -1.0, 0.5, -1.0]),
                  np.ones(4), cfg)


def test_simp_config_validation():
    with pytest.raises(ValueError):
        SimpConfig(volfrac=0.0).validate()
    with pytest.raises(ValueError):
        SimpConfig(volfrac=0.4, penal=0.5).validate()
    with pytest.raises(ValueError):
        SimpConfig(volfrac=0.4, move=-0.1).validate()
    with pytest.raises(ValueError):
        SimpConfig(volfrac=0.4, x_min=0.0).validate()
    with pytest.raises(ValueError):
        SimpConfig(volfrac=0.4, max_iters=0).validate()
    for field in ("volfrac", "penal", "rmin", "move", "damping", "conv_tol", "x_min"):
        with pytest.raises(ValueError, match=field):
            SimpConfig(**{"volfrac": 0.4, field: np.nan}).validate()
    for field in ("penal", "rmin", "move", "damping"):
        with pytest.raises(ValueError, match=field):
            SimpConfig(**{"volfrac": 0.4, field: np.inf}).validate()
    with pytest.raises(ValueError, match="x_min"):
        SimpConfig(volfrac=1e-4, x_min=1e-3).validate()
    with pytest.raises(ValueError, match="conv_tol"):
        SimpConfig(volfrac=0.4, conv_tol=-1.0).validate()
    SimpConfig(volfrac=0.4).validate()
    SimpConfig(volfrac=0.4, conv_tol=np.inf).validate()


def test_damping_above_one_rejected():
    SimpConfig(volfrac=0.4, damping=1.0).validate()
    with pytest.raises(ValueError, match=r"damping must lie in \(0, 1\] \(got 40\)"):
        SimpConfig(volfrac=0.4, damping=40.0).validate()


def test_oc_update_validates_its_config():
    # called directly, without optimize's validate: lam ** -40 would
    # overflow into an OverflowError
    with pytest.raises(ValueError, match="damping"):
        oc_update(np.full(4, 0.4), np.full(4, -1.0), np.ones(4),
                  SimpConfig(volfrac=0.4, damping=40.0))


def test_optimize_stops_after_one_iteration_with_inf_tol():
    mesh, case = cantilever(6, 4)
    cfg = SimpConfig(volfrac=0.4, conv_tol=np.inf, max_iters=50)
    result = optimize(mesh, case, MAT, cfg)
    assert result.iterations == 1
    assert len(result.history) == 1


def test_optimize_respects_max_iters():
    mesh, case = cantilever(6, 4)
    cfg = SimpConfig(volfrac=0.4, conv_tol=0.0, max_iters=4)
    result = optimize(mesh, case, MAT, cfg)
    assert result.iterations == 4


def test_optimize_volume_held_each_iteration():
    mesh, case = cantilever(8, 5)
    cfg = SimpConfig(volfrac=0.45, max_iters=25)
    result = optimize(mesh, case, MAT, cfg)
    for rec in result.history:
        assert abs(rec.volume - 0.45) <= 1e-4
    f = result.field
    active = ~f.passive
    vol = (f.x[active] * f.volumes[active]).sum() / f.volumes[active].sum()
    assert abs(vol - 0.45) <= 1e-4


def test_optimize_deterministic():
    mesh, case = cantilever(7, 4, family="p1", tri="cross_split")
    cfg = SimpConfig(volfrac=0.4, max_iters=12, conv_tol=0.0)
    a = optimize(mesh, case, MAT, cfg)
    b = optimize(mesh, case, MAT, cfg)
    assert [r.compliance for r in a.history] == [r.compliance for r in b.history]
    np.testing.assert_array_equal(a.field.x, b.field.x)


def test_optimize_callback_and_log():
    mesh, case = cantilever(5, 3)
    seen = []
    lines = []
    cfg = SimpConfig(volfrac=0.4, max_iters=3, conv_tol=0.0)
    result = optimize(mesh, case, MAT, cfg, callback=lambda i, x: seen.append((i, x.copy())),
                      log=lines.append)
    assert [i for i, _ in seen] == [1, 2, 3]
    assert len(lines) == 3
    assert all("obj" in line for line in lines)
    np.testing.assert_array_equal(seen[-1][1], result.field.x)


def test_density_field_uniform_respects_passive():
    spec = DomainSpec(40.0, 30.0, 8, 6, shape="trapezoid", right_height=10.0)
    mesh = generate_mesh(spec, "q1")
    assert mesh.passive.any()
    field = DensityField.uniform(mesh, 0.5)
    assert np.all(field.x[mesh.passive] == field.x_min)
    assert np.all(field.x[~mesh.passive] == 0.5)
    np.testing.assert_allclose(field.volume_fraction(), 0.5, rtol=1e-12)


@pytest.mark.parametrize("flags", [
    {"problem": "cantilever", "elem": "q1", "nx": 8, "ny": 5},
    {"problem": "cantilever", "elem": "p1", "nx": 8, "ny": 5},
    {"problem": "cantilever", "elem": "p2", "nx": 8, "ny": 5},
    {"problem": "bridge", "elem": "p1", "nx": 10, "ny": 10, "refine": 1},
])
def test_uniform_first_solve_is_the_scaled_solid_solve(flags):
    # with no passive cells the start is x = v everywhere, so
    # K(x, p) = v^p K(1, 1) and v^p times the first solution is the solid one
    mesh, case, material, simp = prepare(resolve_config(flags))
    x0 = DensityField.uniform(mesh, simp.volfrac, simp.x_min).x
    assert np.all(x0 == simp.volfrac)
    first = StiffnessAssembler(mesh, material, case).solve(x0, simp.penal).U
    solid = solve(assemble(mesh, np.ones(mesh.n_elements), 1.0, material, case)).U
    error = np.abs(simp.volfrac ** simp.penal * first - solid).max()
    assert error <= 1e-10 * np.abs(solid).max()


def test_default_bevel_start_is_not_uniform():
    mesh, _, _, simp = prepare(resolve_config({"problem": "bevel"}))
    x0 = DensityField.uniform(mesh, simp.volfrac, simp.x_min).x
    assert not np.all(x0 == simp.volfrac)


def test_history_csv_roundtrip(tmp_path):
    mesh, case = cantilever(5, 3)
    cfg = SimpConfig(volfrac=0.4, max_iters=3, conv_tol=0.0)
    result = optimize(mesh, case, MAT, cfg)
    path = tmp_path / "history.csv"
    write_history_csv(result.history, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["loop", "compliance", "rchange", "volume", "wall_time"]
    assert len(rows) == 1 + len(result.history)
    for rec, row in zip(result.history, rows[1:]):
        assert int(row[0]) == rec.loop
        assert float(row[1]) == rec.compliance
        assert float(row[2]) == rec.rchange
