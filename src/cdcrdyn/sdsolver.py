"""Finite-difference reference solver for the full governing moment-balance PDE.

The PDE is discretized on N uniform arc-length nodes (method of lines).  The
bending-acceleration field appears inside nested inertia integrals, so every
step assembles the dense N x N coupling operator (via trapezoid cumulative
sums, O(N^2)) and solves one linear system for theta_tt.  The bending term
[E I theta_s]_s and the damping term are folded into the same solve
semi-implicitly: evaluated at the end-of-step state predicted from the
unknown acceleration, which keeps the scheme stable at practical dt without
changing the semi-implicit Euler update order.  Fully explicit stepping of
the stiff bending operator would require dt below ~2 h / (pi sqrt(E/rho)),
about 3e-6 s at N = 201 for the baseline rig.

Boundary conditions: theta(0) = 0 pinned exactly; the natural tip moment
balance is enforced each step through a ghost node carrying the prescribed
tip slope  theta_s(L) = -Delta_F W(L) / (2 E I(L))  (force input) or
+lambda W(L) / (2 E I(L))  (displacement input).

Displacement input prescribes the cable displacement as a constraint on the
nodal field; the multiplier is solved from the constrained dynamics with
Baumgarte stabilization, mirroring the modal solver.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .actuation import ActuationProfile, DISPLACEMENT, FORCE
from .errors import ConfigurationError, SolverFault
from .galerkin import NC_ANGLE_LIMIT, SolverOptions, divergence_reason
from .geometry import RobotModel
from .kinematics import compute_energies, cumtrapz, shape_grid
from .records import SimulationRecord


@dataclass
class GridState:
    t: float
    theta: np.ndarray
    theta_t: np.ndarray


class TrapezoidGrid:
    """Uniform nodal grid exposing the same integration surface as QuadratureGrid."""

    def __init__(self, nodes: np.ndarray):
        self.nodes = np.asarray(nodes, dtype=float)
        h = np.diff(self.nodes)
        w = np.zeros_like(self.nodes)
        w[:-1] += 0.5 * h
        w[1:] += 0.5 * h
        self.weights = w
        self.length = float(self.nodes[-1])

    def integrate(self, f):
        return self.weights @ f

    def cumulative_from_start(self, f):
        return cumtrapz(np.asarray(f, dtype=float), self.nodes)

    def cumulative_to_end(self, f):
        c = self.cumulative_from_start(f)
        return c[..., -1:] - c


class SDWorkspace:
    """Precomputed grid data for one (model, N) pair."""

    def __init__(self, model: RobotModel, n_nodes: int, damping_model: str = "drag"):
        if n_nodes < 51:
            raise ConfigurationError("SD solver needs at least 51 nodes")
        self.model = model
        self.damping_model = damping_model
        self.n = n_nodes
        self.s = np.linspace(0.0, model.length, n_nodes)
        self.h = self.s[1] - self.s[0]
        self.grid = TrapezoidGrid(self.s)
        self.i_n = model.eval_I(self.s)
        self.a_n = model.eval_A(self.s)
        self.w_n = model.eval_W(self.s)
        self.ws_n = model.eval_W_s(self.s)
        self.is_n = np.gradient(self.i_n, self.s)
        self.qx, self.qy = model.cumulative_load(self.s)
        self.rho = model.material.density
        self.e_mod = model.material.youngs_modulus
        self.c_damp = model.material.damping_coeff
        self.i_l = model.eval_I(model.length)
        self.w_l = model.eval_W(model.length)
        # theta_s(L) per unit source: force source is Delta_F, displacement is lambda
        self.slope_per_force = -self.w_l / (2.0 * self.e_mod * self.i_l)
        self.slope_per_lambda = +self.w_l / (2.0 * self.e_mod * self.i_l)

        n, h = n_nodes, self.h
        # forward trapezoid prefix as an explicit matrix (constant)
        fwd = np.zeros((n, n))
        for k in range(1, n):
            fwd[k, :k + 1] = h
            fwd[k, 0] = 0.5 * h
            fwd[k, k] = 0.5 * h
        self.fwd_mat = fwd
        self.wtr = self.grid.weights
        # state-independent cores of the nested double integrals:
        # (Bwd diag(A) Fwd) for the inertia coupling, (Bwd Fwd) for drag
        bwd = self.wtr[None, :] - fwd
        self.core_inertia = bwd @ (self.a_n[:, None] * fwd)
        self.core_drag = bwd @ fwd
        self._lhs_cache = {}

        # [E I theta_s]_s stencil; row 0 pinned, last row uses the ghost node
        stiff = np.zeros((n, n))
        e = self.e_mod
        for k in range(1, n - 1):
            stiff[k, k - 1] = e * (self.i_n[k] / h**2 - self.is_n[k] / (2 * h))
            stiff[k, k] = -2 * e * self.i_n[k] / h**2
            stiff[k, k + 1] = e * (self.i_n[k] / h**2 + self.is_n[k] / (2 * h))
        stiff[n - 1, n - 2] = 2 * e * self.i_n[n - 1] / h**2
        stiff[n - 1, n - 1] = -2 * e * self.i_n[n - 1] / h**2
        self.stiff = stiff
        # load applied through the ghost node per unit prescribed tip slope
        self.bc_gain = e * (self.is_n[n - 1] + 2 * self.i_n[n - 1] / h)

        # interior actuation load per unit source + its boundary contribution
        self.u_force = 0.5 * self.ws_n.copy()
        self.u_force[n - 1] += self.bc_gain * self.slope_per_force
        self.u_lambda = -0.5 * self.ws_n.copy()
        self.u_lambda[n - 1] += self.bc_gain * self.slope_per_lambda

        # cable displacement as a linear functional of nodal theta (by parts)
        w_sd = -0.5 * self.wtr * self.ws_n
        w_sd[n - 1] += 0.5 * self.w_l
        self.w_sd = w_sd

    # cumulative helpers -----------------------------------------------------

    def _fwd_v(self, v):
        out = np.zeros_like(v)
        out[1:] = np.cumsum(0.5 * self.h * (v[1:] + v[:-1]))
        return out

    def _bwd_v(self, v):
        c = self._fwd_v(v)
        return c[-1] - c

    # physics pieces -----------------------------------------------------------

    def coupling_matrix(self, sn, cs, weight=None):
        """Nested-inertia operator as a dense matrix via the precomputed core."""
        core = self.core_drag if weight is None else self.core_inertia
        return (sn[:, None] * core * sn[None, :]
                + cs[:, None] * core * cs[None, :])

    def coupling_apply(self, sn, cs, weight, v):
        """Same operator applied to a known vector, O(N)."""
        inner_s = self._fwd_v(sn * v)
        inner_c = self._fwd_v(cs * v)
        if weight is not None:
            inner_s = weight * inner_s
            inner_c = weight * inner_c
        return sn * self._bwd_v(inner_s) + cs * self._bwd_v(inner_c)

    def _lhs_core(self, dt_implicit: float):
        """Constant pieces of the acceleration-solve matrix for one dt."""
        key = float(dt_implicit)
        hit = self._lhs_cache.get(key)
        if hit is not None:
            return hit
        base = self.rho * np.diag(self.i_n)
        core = self.rho * self.core_inertia
        if dt_implicit > 0.0:
            base = base - dt_implicit**2 * self.stiff
            if self.damping_model == "drag":
                core = core + dt_implicit * self.c_damp * self.core_drag
            elif self.damping_model == "pointwise":
                base = base + dt_implicit * self.c_damp * np.eye(self.n)
        self._lhs_cache[key] = (base, core)
        return base, core

    def assemble(self, theta, theta_t, dt_implicit: float):
        """LHS matrix and source-free RHS of the acceleration solve."""
        sn, cs = np.sin(theta), np.cos(theta)
        base, core = self._lhs_core(dt_implicit)
        scaled = core * sn[None, :]
        scaled *= sn[:, None]
        lhs = base + scaled
        scaled = core * cs[None, :]
        scaled *= cs[:, None]
        lhs += scaled
        tt2 = theta_t**2
        j_vel = (sn * self._bwd_v(self.a_n * self._fwd_v(tt2 * cs))
                 - cs * self._bwd_v(self.a_n * self._fwd_v(tt2 * sn)))
        q_vec = self.qy * cs - self.qx * sn
        if self.damping_model == "drag":
            damp_rhs = self.c_damp * self.coupling_apply(sn, cs, None, theta_t)
        elif self.damping_model == "pointwise":
            damp_rhs = self.c_damp * theta_t
        else:
            damp_rhs = np.zeros_like(theta)
        if dt_implicit > 0.0:
            rhs = self.stiff @ (theta + dt_implicit * theta_t)
        else:
            rhs = self.stiff @ theta
        rhs = rhs + q_vec - damp_rhs - self.rho * j_vel
        return lhs, rhs


def pde_accel(state: GridState, model: RobotModel, input_value: float, mode: str,
              options: SolverOptions, workspace: SDWorkspace | None = None) -> np.ndarray:
    """Instantaneous nodal acceleration from the governing PDE.

    ``input_value`` is Delta_F (force mode) or lambda (displacement mode); the
    implicit theta_tt coupling is resolved by one dense solve.
    """
    ws = workspace or SDWorkspace(model, options.sd_nodes, options.damping_model)
    lhs, rhs = ws.assemble(state.theta, state.theta_t, dt_implicit=0.0)
    u = ws.u_force if mode == FORCE else ws.u_lambda
    rhs = rhs + input_value * u
    accel = np.zeros(ws.n)
    try:
        accel[1:] = np.linalg.solve(lhs[1:, 1:], rhs[1:])
    except np.linalg.LinAlgError as exc:
        raise SolverFault(f"singular system matrix: {exc}") from exc
    if not np.all(np.isfinite(accel)):
        raise SolverFault("non-finite acceleration in SD solve")
    return accel


def sd_simulate(model: RobotModel, profile: ActuationProfile, options: SolverOptions,
                scenario_id: str = "") -> SimulationRecord:
    """Run the finite-difference solver from rest; record like the modal solver."""
    ws = SDWorkspace(model, options.sd_nodes, options.damping_model)
    dt = options.sd_dt
    n_steps = int(round(options.t_end / dt))
    # sample at roughly the modal solver's record period
    stride = max(1, int(round(options.dt * options.output_stride / dt)))
    n_samples = n_steps // stride + 1

    t_axis = np.arange(n_steps + 1) * dt
    cmd = np.asarray(profile.value(t_axis), dtype=float)
    if profile.mode == DISPLACEMENT:
        cmd_rate = np.asarray(profile.rate(t_axis), dtype=float)
        cmd_accel = np.asarray(profile.accel(t_axis), dtype=float)
        alpha = options.constraint_gain

    n = ws.n
    theta = np.zeros(n)
    theta_t = np.zeros(n)
    t_s = np.zeros(n_samples)
    states = np.zeros((n_samples, n))
    rates = np.zeros((n_samples, n))
    accels = np.zeros((n_samples, n))
    gam_s = np.zeros(n_samples)
    slope_s = np.zeros(n_samples)
    applied = 0.0
    last_accel = np.zeros(n)

    def boundary_slope(source):
        return (ws.slope_per_force if profile.mode == FORCE
                else ws.slope_per_lambda) * source

    states[0] = theta
    rates[0] = theta_t
    gam_s[0] = -0.5 * cmd[0] if profile.mode == FORCE else 0.0
    slope_s[0] = boundary_slope(cmd[0] if profile.mode == FORCE else 0.0)

    compute_seconds = 0.0
    nc_step = None
    nc_reason = ""
    sample_idx = 0
    for k in range(1, n_steps + 1):
        tic = time.perf_counter()
        lhs, rhs = ws.assemble(theta, theta_t, dt_implicit=dt)
        try:
            if profile.mode == FORCE:
                rhs = rhs + cmd[k] * ws.u_force
                accel = np.linalg.solve(lhs[1:, 1:], rhs[1:])
                applied = cmd[k]
                gam = -0.5 * applied
            else:
                target = (cmd_accel[k]
                          + 2.0 * alpha * (cmd_rate[k] - ws.w_sd @ theta_t)
                          + alpha * alpha * (cmd[k] - ws.w_sd @ theta))
                sol = np.linalg.solve(lhs[1:, 1:],
                                      np.column_stack([rhs[1:], ws.u_lambda[1:]]))
                w1 = ws.w_sd[1:]
                lam = (target - w1 @ sol[:, 0]) / (w1 @ sol[:, 1])
                accel = sol[:, 0] + lam * sol[:, 1]
                applied = lam
                gam = 0.5 * lam
        except np.linalg.LinAlgError as exc:
            compute_seconds += time.perf_counter() - tic
            nc_step = k
            nc_reason = f"singular system matrix: {exc}"
            break
        theta_t[1:] = theta_t[1:] + dt * accel
        theta[1:] = theta[1:] + dt * theta_t[1:]
        compute_seconds += time.perf_counter() - tic
        last_accel[1:] = accel
        if not np.all(np.isfinite(theta)) or np.max(np.abs(theta)) > NC_ANGLE_LIMIT:
            nc_step = k
            nc_reason = divergence_reason(theta)
            break
        if k % stride == 0:
            sample_idx += 1
            t_s[sample_idx] = k * dt
            states[sample_idx] = theta
            rates[sample_idx] = theta_t
            accels[sample_idx] = last_accel
            gam_s[sample_idx] = gam
            slope_s[sample_idx] = boundary_slope(applied)

    used = sample_idx + 1
    t_s = t_s[:used]
    states = states[:used]
    rates = rates[:used]
    accels = accels[:used]
    gam_s = gam_s[:used]
    slope_s = slope_s[:used]

    # post-processing outside the timed region
    tip_x = np.array([ws.grid.integrate(np.cos(row)) for row in states])
    tip_y = np.array([ws.grid.integrate(np.sin(row)) for row in states])
    theta_l = states[:, -1]
    delta_l = states @ ws.w_sd
    lam_pre = 2.0 * ws.e_mod * ws.i_l * slope_s / ws.w_l
    if profile.mode == DISPLACEMENT:
        den = 2.0 * np.interp(t_s, t_axis, cmd) + states @ (ws.wtr * ws.ws_n)
        num = 2.0 * ws.e_mod * ws.i_l * slope_s * theta_l
        with np.errstate(divide="ignore", invalid="ignore"):
            lam_post = np.where(np.abs(den) < options.lambda_epsilon, lam_pre, num / den)
    else:
        lam_post = np.zeros_like(lam_pre)
    energies = [compute_energies(states[i], rates[i],
                                 np.gradient(states[i], ws.s), model, ws.grid)
                for i in range(used)]
    s_shape = shape_grid(model.length)
    keep = [i for i in range(used) if i % options.shape_stride == 0 or i == used - 1]
    shape_theta = np.vstack([np.interp(s_shape, ws.s, states[i]) for i in keep])
    return SimulationRecord(
        scenario_id=scenario_id, solver="sd", mode=profile.mode, fidelity="pde",
        t=t_s, states=states, rates=rates, accels=accels,
        tip_x=tip_x, tip_y=tip_y, theta_L=theta_l, theta_s_L=slope_s,
        delta_l=delta_l, gamma=gam_s, lambda_pre=lam_pre, lambda_post=lam_post,
        t_rot=np.array([e.t_rot for e in energies]),
        t_x=np.array([e.t_x for e in energies]),
        t_y=np.array([e.t_y for e in energies]),
        u_bend=np.array([e.u_bend for e in energies]),
        g_pot=np.array([e.g_pot for e in energies]),
        shape_t=t_s[keep], shape_s=s_shape, shape_theta=shape_theta,
        shape_x=cumtrapz(np.cos(shape_theta), s_shape),
        shape_y=cumtrapz(np.sin(shape_theta), s_shape),
        compute_seconds=compute_seconds, nc_step=nc_step, nc_reason=nc_reason,
        command=np.interp(t_s, t_axis, cmd),
    )
