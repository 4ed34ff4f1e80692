import math

import numpy as np
import pytest

import cdcrdyn as cd
from cdcrdyn.actuation import ActuationProfile
from cdcrdyn.sdsolver import GridState, SDWorkspace, pde_accel

TWO_PI = 2 * math.pi
L, E, I, A, W = 0.4, 2e9, 1.26e-11, 1.26e-5, 0.11


def _rest(n):
    s = np.linspace(0, L, n)
    return GridState(0.0, np.zeros(n), np.zeros(n))


def test_accel_zero_at_rest(case1_noload):
    options = cd.SolverOptions(sd_nodes=101)
    accel = pde_accel(_rest(101), case1_noload, 0.0, cd.FORCE, options)
    assert np.all(accel == 0.0)


def test_static_constant_curvature_equilibrium(case1_noload):
    # theta = kappa* s with kappa* = -dF W/(2 E I) solves the static PDE with
    # its natural boundary condition; the discrete residual must be tiny
    # against the from-rest acceleration the same input produces
    options = cd.SolverOptions(sd_nodes=101)
    d_f = 1.0
    kappa = -d_f * W / (2 * E * I)
    s = np.linspace(0, L, 101)
    state = GridState(0.0, kappa * s, np.zeros(101))
    residual = pde_accel(state, case1_noload, d_f, cd.FORCE, options)
    kick = pde_accel(_rest(101), case1_noload, d_f, cd.FORCE, options)
    assert np.abs(residual).max() <= 1e-3 * np.abs(kick).max()


def test_doubling_density_halves_acceleration(case1_noload):
    heavy = cd.RobotModel(
        length=case1_noload.length, profile_I=case1_noload.profile_I,
        profile_A=case1_noload.profile_A, profile_W=case1_noload.profile_W,
        material=cd.MaterialParams(E, 2 * case1_noload.material.density, 16.0),
        load=case1_noload.load)
    options = cd.SolverOptions(sd_nodes=101)
    a_light = pde_accel(_rest(101), case1_noload, 3.0, cd.FORCE, options)
    a_heavy = pde_accel(_rest(101), heavy, 3.0, cd.FORCE, options)
    assert np.allclose(a_light, 2 * a_heavy, rtol=1e-10)


def test_simulate_zero_inputs(case1_noload):
    options = cd.SolverOptions(t_end=0.02, sd_nodes=61, sd_dt=1e-4)
    record = cd.sd_simulate(case1_noload, ActuationProfile.linear(0.0), options)
    assert np.all(record.states == 0.0)
    assert record.ok


def test_clamped_end_pinned(case1):
    options = cd.SolverOptions(t_end=0.1, sd_nodes=61, sd_dt=1e-4)
    record = cd.sd_simulate(case1, ActuationProfile.step(3.0), options)
    assert np.all(record.states[:, 0] == 0.0)


def test_natural_boundary_residual(case1):
    options = cd.SolverOptions(t_end=0.2, sd_nodes=81, sd_dt=1e-4)
    profile = ActuationProfile.offset_sinusoid(1.5, 0.3, TWO_PI, 1.0)
    record = cd.sd_simulate(case1, profile, options)
    d_f = profile.value(record.t)
    residual = np.abs(E * I * record.theta_s_L + 0.5 * d_f * W)
    assert residual.max() <= 1e-6 * E * I / L


@pytest.mark.slow
def test_step_input_settles_to_constant_curvature(case1_noload):
    options = cd.SolverOptions(t_end=5.0, sd_nodes=101, sd_dt=2e-4)
    record = cd.sd_simulate(case1_noload, ActuationProfile.step(3.0), options)
    s = np.linspace(0, L, options.sd_nodes)
    kappa = np.gradient(record.states[-1], s)
    inner = (s >= 0.05 * L) & (s <= 0.95 * L)
    kappa = kappa[inner]
    target = -3.0 * W / (2 * E * I)
    assert np.abs(kappa - kappa.mean()).max() <= 0.02 * abs(kappa.mean())
    assert abs(kappa.mean() - target) <= 0.02 * abs(target)


@pytest.mark.slow
def test_grid_refinement_converged(case1):
    profile = ActuationProfile.offset_sinusoid(1.5, 0.3, TWO_PI, 1.0)
    tips = {}
    for n in (101, 201):
        options = cd.SolverOptions(t_end=3.0, sd_nodes=n, sd_dt=2e-4)
        rec = cd.sd_simulate(case1, profile, options, scenario_id="case1_sinusoid")
        tips[n] = np.array([rec.tip_x[-1], rec.tip_y[-1]])
    change = np.linalg.norm(tips[101] - tips[201]) / np.linalg.norm(tips[201])
    assert change < 0.005


def test_displacement_mode_tracks_command(case1):
    options = cd.SolverOptions(t_end=1.0, sd_nodes=81, sd_dt=2e-4)
    profile = ActuationProfile.linear(0.008, mode=cd.DISPLACEMENT)
    record = cd.sd_simulate(case1, profile, options)
    err = np.abs(record.delta_l - record.command)
    assert err[record.t >= 0.2].max() <= 0.02 * np.abs(record.command).max()


def test_nc_detection(case1):
    options = cd.SolverOptions(t_end=0.5, sd_nodes=61, sd_dt=1e-3)
    record = cd.sd_simulate(case1, ActuationProfile.step(1e9), options)
    assert not record.ok
    assert record.nc_reason.startswith("angle limit exceeded")


def test_matches_galerkin_on_short_run(case1):
    # brief cross-check; the full sweep lives in the acceptance suite
    profile = ActuationProfile.linear(1.0)
    g_rec = cd.simulate(case1, profile, cd.SolverOptions(t_end=0.5),
                        scenario_id="case1_linear")
    s_rec = cd.sd_simulate(case1, profile,
                           cd.SolverOptions(t_end=0.5, sd_nodes=101, sd_dt=1e-4),
                           scenario_id="case1_linear")
    metrics = cd.compare_records(g_rec, s_rec)
    assert metrics["tip_rmse"] <= 0.05 * case1.length
    assert metrics["shape_rmse"] < 0.5


def test_workspace_takes_drag_only(case1):
    # drag is the one law, spelt exactly; an undamped run is damping_coeff = 0
    for name in ("none", "Drag"):
        with pytest.raises(cd.ConfigurationError, match="damping_coeff = 0"):
            SDWorkspace(case1, 51, name)


def test_workspace_trapezoid_grid(case1):
    ws = SDWorkspace(case1, 101)
    assert ws.grid.integrate(np.ones(101)) == pytest.approx(L, abs=1e-12)
    f = ws.s.copy()
    cum = ws.grid.cumulative_from_start(f)
    assert cum[-1] == pytest.approx(L**2 / 2, rel=1e-4)
