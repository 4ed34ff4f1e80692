"""Reconstruction of the continuous configuration and the recorded diagnostics.

Pure functions from sampled bending-angle fields to tendon displacement, the
energy split and the closed-form cable multipliers.  Each takes one field or a
stack of fields along its last axis, so a solver's recorded samples are
post-processed in one pass (``sampled_record``), used identically for modal
and nodal solver states; that pass also integrates the unit tangent into the
Cartesian backbone snapshots.  The closed-form multipliers are record
diagnostics only; no solver step applies them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .actuation import ActuationProfile, DISPLACEMENT
from .basis import QuadratureGrid
from .errors import SolverFault
from .geometry import RobotModel
from .records import SimulationRecord

SHAPE_SAMPLES = 101  # uniform output grid for shapes, decoupled from assembly
SHAPE_STRIDE = 10    # a shape row every SHAPE_STRIDE-th recorded sample
LAMBDA_EPSILON = 1e-8  # |denominator| below which lambda_substituted falls back


def cumtrapz(y, x):
    """Cumulative trapezoid of y(x) starting at 0."""
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(y)
    out[..., 1:] = np.cumsum(0.5 * (y[..., 1:] + y[..., :-1]) * np.diff(x), axis=-1)
    return out


@dataclass
class BackboneShape:
    s: np.ndarray
    x: np.ndarray
    y: np.ndarray


@dataclass
class EnergyBreakdown:
    t_rot: float
    t_x: float
    t_y: float
    u_bend: float
    g_pot: float


def tendon_displacement(theta, theta_L, model: RobotModel, grid: QuadratureGrid) -> float:
    """Differential cable displacement implied by a bending-angle field.

    Uses the integrated-by-parts form W(L)theta(L)/2 - (1/2) int W_s theta ds,
    which avoids differentiating the sampled field.  A stack of fields along
    the last axis, with one theta_L each, gives one displacement each.
    """
    ws = model.eval_W_s(grid.nodes)
    wl = model.eval_W(model.length)
    return 0.5 * (wl * theta_L - grid.integrate(ws * np.asarray(theta, dtype=float)))


def compute_energies(theta, theta_t, theta_s, model: RobotModel,
                     grid: QuadratureGrid) -> EnergyBreakdown:
    """Energy split for consistently sampled theta, theta_t, theta_s fields.

    Stacks of fields along the last axis give one value per field in each term.
    """
    theta = np.asarray(theta, dtype=float)
    theta_t = np.asarray(theta_t, dtype=float)
    theta_s = np.asarray(theta_s, dtype=float)
    rho = model.material.density
    e_mod = model.material.youngs_modulus
    i_n = model.eval_I(grid.nodes)
    a_n = model.eval_A(grid.nodes)
    sn, cs = np.sin(theta), np.cos(theta)
    m_x = grid.cumulative_from_start(theta_t * sn)
    m_y = grid.cumulative_from_start(theta_t * cs)
    t_rot = 0.5 * rho * grid.integrate(i_n * theta_t**2)
    t_x = 0.5 * rho * grid.integrate(a_n * m_x**2)
    t_y = 0.5 * rho * grid.integrate(a_n * m_y**2)
    u_bend = 0.5 * e_mod * grid.integrate(i_n * theta_s**2)
    x_pos = grid.cumulative_from_start(cs)
    y_pos = grid.cumulative_from_start(sn)
    g_pot = (model.load.q_x * grid.integrate(grid.nodes - x_pos)
             - model.load.q_y * grid.integrate(y_pos))
    return EnergyBreakdown(t_rot=t_rot, t_x=t_x, t_y=t_y, u_bend=u_bend, g_pot=g_pot)


# -- closed-form cable multiplier ------------------------------------------
#
# ``plant`` is the solver's Assembly or SDWorkspace: anything carrying the
# model and the tip values il = I(L), wl = W(L).  Every argument may be a
# scalar or an array; the forms apply elementwise.


def lambda_boundary(theta_s_L, plant):
    """Multiplier from the tip moment balance alone: 2 E I(L) theta_s(L) / W(L)."""
    e_mod = plant.model.material.youngs_modulus
    return 2.0 * e_mod * plant.il * theta_s_L / plant.wl


def lambda_substituted(theta_L, theta_s_L, int_ws_theta, delta_l, plant):
    """Closed-form multiplier with the constraint substituted in.

    lambda = 2 E I(L) theta_s(L) theta(L) / (2 delta_l + int W_s theta ds),
    regularized: a denominator below LAMBDA_EPSILON in magnitude falls back to
    the boundary form, and a fully rested state returns 0.  Raises SolverFault
    on a non-finite value.
    """
    den = 2.0 * delta_l + int_ws_theta
    e_mod = plant.model.material.youngs_modulus
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = np.where(np.abs(den) < LAMBDA_EPSILON, lambda_boundary(theta_s_L, plant),
                       2.0 * e_mod * plant.il * theta_s_L * theta_L / den)
    lam = np.where((theta_L == 0.0) & (theta_s_L == 0.0), 0.0, lam)
    bad = ~np.isfinite(lam)
    if np.any(bad):
        raise SolverFault("non-finite multiplier (denominator "
                          f"{np.broadcast_to(den, lam.shape)[bad][0]:.3e})")
    return lam[()]


# -- one record from the recorded samples -------------------------------------


def sampled_record(plant, profile: ActuationProfile, *, t, states, rates,
                   accels, gamma, theta, theta_t, theta_s, theta_L, theta_s_L,
                   diagnostic, shape_angles, **run) -> SimulationRecord:
    """Build one run's SimulationRecord from all its recorded samples at once.

    ``plant`` is the solver's Assembly or SDWorkspace (model, grid, il, wl).
    theta, theta_t and theta_s are the angle fields of the S samples on
    ``plant.grid``, stacked (S, n); theta_L and theta_s_L are (S,).  The
    multiplier diagnostics are evaluated on ``diagnostic`` = (theta_L,
    theta_s_L, theta field) with the command at each sample's time.
    ``shape_angles(states, s)`` maps states to angles at arc lengths s.
    ``run`` carries the identity and loop fields (scenario_id, solver,
    fidelity, compute_seconds, nc_step, nc_reason).
    """
    model, grid = plant.model, plant.grid
    command = np.asarray(profile.value(t), dtype=float)
    d_theta_L, d_theta_s_L, d_theta = diagnostic
    lambda_pre = lambda_boundary(d_theta_s_L, plant)
    if profile.mode == DISPLACEMENT:
        lambda_post = lambda_substituted(
            d_theta_L, d_theta_s_L, grid.integrate(model.eval_W_s(grid.nodes) * d_theta),
            command, plant)
    else:
        lambda_post = np.zeros_like(t)
    energy = compute_energies(theta, theta_t, theta_s, model, grid)
    # a shape row at every SHAPE_STRIDE-th sample and at the last one
    keep = np.r_[np.arange(0, t.size - 1, SHAPE_STRIDE), t.size - 1]
    s_shape = np.linspace(0.0, model.length, SHAPE_SAMPLES)
    shape_theta = shape_angles(states[keep], s_shape)
    return SimulationRecord(
        mode=profile.mode, t=t, states=states, rates=rates, accels=accels,
        tip_x=grid.integrate(np.cos(theta)), tip_y=grid.integrate(np.sin(theta)),
        theta_L=theta_L, theta_s_L=theta_s_L,
        delta_l=tendon_displacement(theta, theta_L, model, grid), gamma=gamma,
        lambda_pre=lambda_pre, lambda_post=lambda_post,
        t_rot=energy.t_rot, t_x=energy.t_x, t_y=energy.t_y, u_bend=energy.u_bend,
        g_pot=energy.g_pot, shape_t=t[keep], shape_s=s_shape, shape_theta=shape_theta,
        shape_x=cumtrapz(np.cos(shape_theta), s_shape),
        shape_y=cumtrapz(np.sin(shape_theta), s_shape), command=command, **run)
