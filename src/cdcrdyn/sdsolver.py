"""Finite-difference reference solver for the full governing moment-balance PDE.

The PDE is discretized on N uniform arc-length nodes (method of lines).  The
bending-acceleration field appears inside nested inertia integrals, so every
step assembles the dense N x N coupling operator (via trapezoid cumulative
sums, O(N^2)) and solves one linear system for theta_tt.  The bending term
[E I theta_s]_s and the drag term (the model's ``damping_coeff``; 0 runs
undamped) are folded into the same solve semi-implicitly: evaluated at the
end-of-step state predicted from the unknown acceleration, which keeps the
scheme stable at practical dt without changing the semi-implicit Euler
update order.  Fully explicit stepping of the stiff bending operator would
require dt below ~2 h / (pi sqrt(E/rho)), about 3e-6 s at N = 201 for the
baseline rig.

Boundary conditions: theta(0) = 0 pinned exactly; the natural tip moment
balance is enforced each step through a ghost node carrying the prescribed
tip slope  theta_s(L) = -Delta_F W(L) / (2 E I(L))  (force input) or
+lambda W(L) / (2 E I(L))  (displacement input).

Displacement input prescribes the cable displacement as a constraint on the
nodal field; the multiplier is solved from the constrained dynamics by the
Baumgarte-stabilized solve the modal solver shares
(``records.constrained_solve``).

``sd_simulate`` runs its step through the shared ``records.run_loop`` and
builds its record with ``kinematics.sampled_record``, as the modal solver does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .actuation import ActuationProfile, FORCE
from .basis import stacked_product
from .errors import ConfigurationError, SolverFault
from .galerkin import SolverOptions
from .geometry import RobotModel
from .kinematics import cumtrapz, sampled_record
from .records import SimulationRecord, constrained_solve, run_loop, solve


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

    def integrate(self, f):
        """Integral of f over [0, L], along the last axis of f."""
        return stacked_product(self.weights, f)

    def cumulative_from_start(self, f):
        """Integral of f over [0, s_k], along the last axis of f."""
        return cumtrapz(np.asarray(f, dtype=float), self.nodes)


class SDWorkspace:
    """Precomputed grid data for one (model, N) pair."""

    def __init__(self, model: RobotModel, n_nodes: int, damping_model: str = "drag"):
        if damping_model != "drag":
            raise ConfigurationError(f"unknown damping model {damping_model!r}: drag is the "
                                     "only one; set damping_coeff = 0 to run undamped")
        if n_nodes < 51:
            raise ConfigurationError("SD solver needs at least 51 nodes")
        self.model = model
        self.n = n_nodes
        self.s = np.linspace(0.0, model.length, n_nodes)
        self.h = self.s[1] - self.s[0]
        self.grid = TrapezoidGrid(self.s)
        self.i_n = model.eval_I(self.s)
        self.a_n = model.eval_A(self.s)
        self.ws_n = model.eval_W_s(self.s)
        self.is_n = np.gradient(self.i_n, self.s)
        self.qx, self.qy = model.cumulative_load(self.s)
        self.rho = model.material.density
        self.e_mod = model.material.youngs_modulus
        self.c_damp = model.material.damping_coeff
        self.il = model.eval_I(model.length)
        self.wl = model.eval_W(model.length)
        # theta_s(L) per unit source: force source is Delta_F, displacement is lambda
        self.slope_per_force = -self.wl / (2.0 * self.e_mod * self.il)
        self.slope_per_lambda = +self.wl / (2.0 * self.e_mod * self.il)

        n, h = n_nodes, self.h
        # forward trapezoid prefix as an explicit matrix (constant)
        fwd = np.zeros((n, n))
        for k in range(1, n):
            fwd[k, :k + 1] = h
            fwd[k, 0] = 0.5 * h
            fwd[k, k] = 0.5 * h
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
        w_sd[n - 1] += 0.5 * self.wl
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

    def coupling_apply(self, sn, cs, v):
        """The drag coupling operator applied to a known vector, O(N)."""
        return sn * self._bwd_v(self._fwd_v(sn * v)) + cs * self._bwd_v(self._fwd_v(cs * v))

    def _lhs_core(self, dt_implicit: float):
        """Constant pieces of the acceleration-solve matrix for one dt."""
        key = float(dt_implicit)
        hit = self._lhs_cache.get(key)
        if hit is not None:
            return hit
        # Built in this order for glibc's heap, not the arithmetic: the step's
        # N x N temporaries then reuse freed heap.  As one expression each, the
        # N = 201 step ran ~40% slower, its pages trimmed and faulted back each
        # step (alike with the malloc trim and mmap thresholds pinned).
        base = self.rho * np.diag(self.i_n)
        core = self.rho * self.core_inertia
        base = base - dt_implicit**2 * self.stiff
        core = core + dt_implicit * self.c_damp * self.core_drag
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
        damp_rhs = self.c_damp * self.coupling_apply(sn, cs, theta_t)
        rhs = self.stiff @ (theta + dt_implicit * theta_t)
        rhs = rhs + q_vec - damp_rhs - self.rho * j_vel
        return lhs, rhs


def pde_accel(state: GridState, model: RobotModel, input_value: float, mode: str,
              options: SolverOptions, workspace: SDWorkspace | None = None) -> np.ndarray:
    """Instantaneous nodal acceleration from the governing PDE.

    ``input_value`` is Delta_F (force mode) or lambda (displacement mode); the
    implicit theta_tt coupling is resolved by one dense solve.
    """
    ws = workspace or SDWorkspace(model, options.sd_nodes)
    lhs, rhs = ws.assemble(state.theta, state.theta_t, dt_implicit=0.0)
    u = ws.u_force if mode == FORCE else ws.u_lambda
    rhs = rhs + input_value * u
    accel = np.zeros(ws.n)
    accel[1:] = solve(lhs[1:, 1:], rhs[1:])
    if not np.all(np.isfinite(accel)):
        raise SolverFault("non-finite acceleration in SD solve")
    return accel


def sd_simulate(model: RobotModel, profile: ActuationProfile, options: SolverOptions,
                scenario_id: str = "") -> SimulationRecord:
    """Run the finite-difference solver from rest; record like the modal solver."""
    ws = SDWorkspace(model, options.sd_nodes)
    dt = options.sd_dt
    n_steps = int(round(options.t_end / dt))
    # sample at roughly the modal solver's record period
    stride = max(1, int(round(options.dt * options.output_stride / dt)))

    t_axis = np.arange(n_steps + 1) * dt
    cmd, cmd_rate, cmd_accel = profile.command(t_axis)

    theta = np.zeros(ws.n)
    theta_t = np.zeros(ws.n)
    # sample 0: rest, with the t = 0 source (Delta_F; lambda is 0 at rest)
    first = (theta, theta_t, np.zeros(ws.n), cmd[0] if profile.mode == FORCE else 0.0)

    def advance(k):
        nonlocal theta, theta_t
        lhs, rhs = ws.assemble(theta, theta_t, dt_implicit=dt)
        accel = np.zeros(ws.n)
        if profile.mode == FORCE:
            rhs = rhs + cmd[k] * ws.u_force
            accel[1:] = solve(lhs[1:, 1:], rhs[1:])
            applied = cmd[k]
        else:
            accel[1:], applied = constrained_solve(
                lhs[1:, 1:], rhs[1:], ws.u_lambda[1:], ws.w_sd[1:],
                (cmd[k], cmd_rate[k], cmd_accel[k]), ws.w_sd @ theta, ws.w_sd @ theta_t)
        theta_t = theta_t + dt * accel
        theta = theta + dt * theta_t
        return theta, theta_t, accel, applied

    kept, compute_seconds, nc_step, nc_reason = run_loop(
        n_steps, stride, advance, lambda: np.max(np.abs(theta)))
    states, rates, accels, applied = (np.array(col) for col in zip(first, *kept))
    if profile.mode == FORCE:
        gamma, slope = -0.5 * applied, ws.slope_per_force * applied
    else:
        gamma, slope = 0.5 * applied, ws.slope_per_lambda * applied
    return sampled_record(
        ws, profile, t=t_axis[::stride][:len(states)], states=states,
        rates=rates, accels=accels, gamma=gamma, theta=states, theta_t=rates,
        theta_s=np.gradient(states, ws.s, axis=-1), theta_L=states[:, -1],
        theta_s_L=slope, diagnostic=(states[:, -1], slope, states),
        shape_angles=lambda rows, s: np.array([np.interp(s, ws.s, row) for row in rows]),
        scenario_id=scenario_id, solver="sd", fidelity="pde",
        compute_seconds=compute_seconds, nc_step=nc_step, nc_reason=nc_reason)
