from dataclasses import replace

import numpy as np
import pytest

import cdcrdyn as cd
from cdcrdyn.kinematics import compute_energies


def test_theta_field_zero(basis6, grid):
    theta = basis6.eval(grid.nodes) @ np.zeros(6)
    assert np.all(theta == 0)


def test_theta_field_constant_curvature(raw1, grid):
    kappa = 2.5
    theta = raw1.eval(grid.nodes) @ np.array([kappa * 0.4])
    assert np.allclose(theta, kappa * grid.nodes)


def test_theta_field_linearity(basis6, grid, rng):
    c1 = rng.normal(size=6)
    c2 = rng.normal(size=6)
    a, b = 0.7, -1.3
    phi = basis6.eval(grid.nodes)
    combo = phi @ (a * c1 + b * c2)
    parts = a * (phi @ c1) + b * (phi @ c2)
    assert np.allclose(combo, parts)


def test_tendon_displacement_constant_curvature(case1, grid):
    kappa = 2.5
    theta = kappa * grid.nodes
    got = cd.tendon_displacement(theta, kappa * 0.4, case1, grid)
    assert got == pytest.approx(0.5 * 0.11 * kappa * 0.4, rel=1e-12)
    assert got == pytest.approx(0.055, rel=1e-12)


def test_tendon_displacement_zero(case1, grid):
    assert cd.tendon_displacement(np.zeros_like(grid.nodes), 0.0, case1, grid) == 0.0


def test_tendon_displacement_matches_direct_quadrature(grid):
    # cubic spacing: by-parts form against direct quadrature of (1/2) int W theta_s
    model = cd.build_case_model("case3")
    kappa = 2.5
    theta = kappa * grid.nodes
    by_parts = cd.tendon_displacement(theta, kappa * model.length, model, grid)
    direct = 0.5 * grid.integrate(model.eval_W(grid.nodes) * kappa)
    assert abs(by_parts - direct) < 1e-8


def test_energies_at_rest(case1, grid):
    zero = np.zeros_like(grid.nodes)
    en = compute_energies(zero, zero, zero, case1, grid)
    assert en.t_rot == en.t_x == en.t_y == en.u_bend == 0.0
    assert abs(en.g_pot) < 1e-15


def test_bending_energy_constant_curvature(case1_noload, grid):
    # U_b = (1/2) E I kappa^2 L
    kappa = 2.5
    theta = kappa * grid.nodes
    en = compute_energies(theta, np.zeros_like(theta), np.full_like(theta, kappa),
                          case1_noload, grid)
    expected = 0.5 * 2e9 * 1.26e-11 * kappa**2 * 0.4
    assert en.u_bend == pytest.approx(expected, rel=1e-12)
    assert en.u_bend == pytest.approx(0.0315, rel=1e-12)


def test_rigid_rotation_translational_energy(case1, grid):
    # theta = 0, theta_t = w: M_y(s) = w s, T_y = rho A w^2 L^3 / 6
    omega = 1.7
    zero = np.zeros_like(grid.nodes)
    en = compute_energies(zero, np.full_like(zero, omega), zero, case1, grid)
    rho = case1.material.density
    expected = 0.5 * rho * 1.26e-5 * omega**2 * 0.4**3 / 3
    assert en.t_y == pytest.approx(expected, rel=1e-10)
    assert en.t_x == 0.0


def test_kinetic_energy_consistent_with_velocity_field(case1, basis6, grid, rng):
    # M_x, M_y must reproduce the backbone velocity: differentiate positions
    # numerically in time and compare the translational kinetic energy
    c = rng.normal(0, 0.3, 6)
    c_t = rng.normal(0, 0.5, 6)
    dt = 1e-6
    s = grid.nodes
    phi = basis6.eval(s)
    theta0 = phi @ c
    theta1 = phi @ (c + dt * c_t)
    x0 = grid.cumulative_from_start(np.cos(theta0))
    y0 = grid.cumulative_from_start(np.sin(theta0))
    x1 = grid.cumulative_from_start(np.cos(theta1))
    y1 = grid.cumulative_from_start(np.sin(theta1))
    vx = (x1 - x0) / dt
    vy = (y1 - y0) / dt
    rho = case1.material.density
    a_n = case1.eval_A(s)
    t_trans_fd = 0.5 * rho * grid.integrate(a_n * (vx**2 + vy**2))
    theta_t = phi @ c_t
    en = compute_energies(theta0, theta_t, basis6.deriv(s) @ c, case1, grid)
    assert abs((en.t_x + en.t_y) - t_trans_fd) / t_trans_fd < 0.01


@pytest.mark.parametrize("solver", ["galerkin", "sd"])
@pytest.mark.parametrize("sid", ["case1_step", "case2_sinusoid", "caseC"])
def test_recorded_shapes_are_integrated_tangents(sid, solver):
    # every shape row ends at the record's tip, and its points are ds apart
    scenario = replace(cd.scenario_by_id(sid), horizon=0.5)
    record = cd.run_scenario(scenario, solver)
    assert record.ok
    rows = np.searchsorted(record.t, record.shape_t)
    assert np.array_equal(record.t[rows], record.shape_t)
    gap = np.hypot(record.shape_x[:, -1] - record.tip_x[rows],
                   record.shape_y[:, -1] - record.tip_y[rows])
    assert gap.max() <= 1e-4
    seg = np.hypot(np.diff(record.shape_x, axis=1), np.diff(record.shape_y, axis=1))
    assert np.abs(seg / np.diff(record.shape_s) - 1.0).max() <= 1e-3
