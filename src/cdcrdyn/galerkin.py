"""Reduced-order dynamic model: modal assembly and explicit time stepping.

The bending angle is expanded as theta(s, t) = Phi(s)^T c(t).  Each step
assembles, from the previous state, the configuration-dependent inertia
coupling K, the Coriolis/centrifugal vector h, the distributed load vector
f_Q and the actuation load, then solves one small dense system for the modal
acceleration and advances with semi-implicit Euler (velocity first).  All
nested double integrals run as one forward plus one backward cumulative pass
over the quadrature grid; the Assembly folds them, with the cross-section
area between them, into one n x n operator ``core``.

The default grid is 4 panels of 10 Gauss-Legendre points (n = 40), a rule
exact to degree 19 per panel.  ``scripts/grid_sweep.py`` found it closer
to a 32 x 10 grid than the earlier 16 x 5 (n = 80) at every order of the
orthonormal basis.  With the raw monomial basis it is up to 1.7x farther at
m = 4, 6 and 8, and two m = 6 cells (up to 3.1x the round-off floor) pass
only through the script's 10x floor factor (README, "Quadrature grid").
Its steps cost 22-28% less (BENCH_4.json).

``assemble_state_fields`` is the reference assembly of K, h, f_Q and the
drag matrix (``assemble_K/h/fQ`` read it).  Steps run through a
``Stepper`` instead, built on first use for each (dt, fidelity, input mode)
and cached on the Assembly, which fixes the fidelity and the input mode when
it is built, not per step.  A step is a few fused products on node-contiguous
layouts and one m x m solve, with the same system up to round-off; its
operators and layouts are in the Stepper's docstring.  Step-path products use
``ndarray.dot``: the same BLAS call and bits as ``@``, at less cost per call
(``step_us_p50`` on disp_track 35.2 -> 30.5 us, BENCH_5.json); the solve
skips ``np.linalg.solve``'s wrapper for its LAPACK gufunc (``records.solve``,
force_long 27.2 -> 24.0 us, disp_track 30.4 -> 26.9 us, BENCH_7.json).  One
state product, node-contiguous layouts and smaller folds took a force step
from 34 to 30 numpy calls and a displacement step from 39 to 34 (products,
ufuncs and operators; slices and views 10 -> 13), and bare ``step()`` from
24.6 to 22.2 us on case2_step and from 31.4 to 27.5 us on caseD (medians of
40 interleaved blocks of 300 calls, one process, 2-vCPU VM; perfbench pairs
in BENCH_8.json).  Every product and ufunc of a step writes into a workspace
built with its Stepper, so a step allocates only its new z, the solve's
result and the new ModalState: ``step_us_p50`` 24.7 -> 20.1 us on disp_track
and 22.4 -> 18.6 us on force_long (BENCH_9.json).
``Stepper.advance(state, command)`` takes the commanded (value, rate, accel)
at the step's end: ``step`` evaluates ``profile.command`` once per call,
``simulate`` once per run, on every step time at once.

Two assembly fidelities are provided:

* ``consistent`` - the weak form of the governing PDE with the natural tip
                   boundary condition applied: adds the bending stiffness
                   S = E int I Phi_s Phi_s^T ds and the boundary-consistent
                   actuation load Gamma * [W(L) Phi(L) - int W_s Phi ds].
* ``literal``    - the integrated-equation discretization, force input only
                   (its displacement-input Stepper raises ConfigurationError): no
                   bending-stiffness matrix, actuation load Gamma W(0) int(Phi).

Dissipation is one Rayleigh term, the drag R = c/2 int (x_t^2 + y_t^2) ds
with c the model's ``damping_coeff``; c = 0 is an undamped run.  Stiffness
and drag are treated semi-implicitly (evaluated at the end-of-step
velocity/position predicted from the unknown acceleration), which keeps the
default dt stable without changing the update order.

Displacement input enforces the cable constraint w_cable . c = delta_l(t) by
the Baumgarte-stabilized KKT solve the SD solver shares
(``records.constrained_solve``).  The closed-form multipliers
(``kinematics.lambda_boundary``/``lambda_substituted``) are diagnostics the
record pass evaluates on the state each recorded step started from.

``simulate`` and ``step`` go through the same cached Stepper; ``simulate``
drives it through the shared ``records.run_loop`` and builds its record with
``kinematics.sampled_record``, as the SD solver does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .actuation import ActuationProfile, DISPLACEMENT, FORCE
from .basis import (BASIS_KINDS, ModalBasis, QuadratureGrid, make_quadrature,
                    stacked_product)
from .errors import ConfigurationError, SolverFault
from .geometry import RobotModel
from .kinematics import sampled_record
from .records import SimulationRecord, constrained_solve, run_loop, solve

FIDELITIES = ("literal", "consistent")


@dataclass
class SolverOptions:
    """Numeric options for both solvers (the SD knobs ride along)."""

    dt: float = 1e-3
    t_end: float = 3.0
    fidelity: str = "consistent"
    m: int = 6
    basis_kind: str = "orthonormal"
    panels: int = 4
    points_per_panel: int = 10
    output_stride: int = 10
    sd_nodes: int = 201
    sd_dt: float = 2e-4
    damping_model: ClassVar[str] = "drag"    # the only law, read by perfbench

    def __post_init__(self):
        for name in ("dt", "sd_dt", "t_end"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite")
        if not self.dt > 0:
            raise ConfigurationError("dt must be positive")
        if self.t_end < 0:
            raise ConfigurationError("t_end must be non-negative")
        if self.fidelity not in FIDELITIES:
            raise ConfigurationError(f"unknown fidelity {self.fidelity!r}")
        if self.m < 1:
            raise ConfigurationError("m must be at least 1")
        if self.basis_kind not in BASIS_KINDS:
            raise ConfigurationError(f"unknown basis kind {self.basis_kind!r}")
        if self.panels < 1 or self.points_per_panel < 2:
            raise ConfigurationError("need at least 1 panel and 2 points per panel")
        if self.output_stride < 1:
            raise ConfigurationError("output_stride must be at least 1")
        if self.sd_nodes < 51:
            raise ConfigurationError("sd_nodes must be at least 51")
        if not self.sd_dt > 0:
            raise ConfigurationError("sd_dt must be positive")


class ModalState:
    """The modal state at time t and the acceleration of the step that reached it.

    The state is one array ``z = [c; c_t]``; ``c`` and ``c_t`` are views of it.
    ``ModalState(t, c, c_t, c_tt_last)`` copies c and c_t into a new z.
    """

    __slots__ = ("t", "z", "c", "c_t", "c_tt_last")

    def __init__(self, t, c, c_t, c_tt_last):
        m = len(c)
        z = np.empty(2 * m)
        z[:m] = c
        z[m:] = c_t
        self.t, self.z, self.c, self.c_t, self.c_tt_last = t, z, z[:m], z[m:], c_tt_last

    @classmethod
    def rest(cls, m: int) -> "ModalState":
        return cls(0.0, np.zeros(m), np.zeros(m), np.zeros(m))


def _state(t, z, c, c_t, c_tt_last) -> ModalState:
    # a ModalState on a z the step wrote, c and c_t its views, without a copy
    state = object.__new__(ModalState)
    state.t, state.z, state.c, state.c_t, state.c_tt_last = t, z, c, c_t, c_tt_last
    return state


@dataclass
class Assembly:
    """State-independent caches for one (model, basis, grid) triple."""

    model: RobotModel
    basis: ModalBasis
    grid: QuadratureGrid
    phi: np.ndarray          # (n, m)
    dphi: np.ndarray         # (n, m)
    phi_L: np.ndarray        # (m,)
    dphi_L: np.ndarray       # (m,)
    qx_nodes: np.ndarray
    qy_nodes: np.ndarray
    wl: float
    il: float
    mass: np.ndarray         # (m, m) rho * int I Phi Phi^T
    stiffness: np.ndarray    # (m, m) E * int I Phi_s Phi_s^T
    b_literal: np.ndarray    # (m,) W(0) * int Phi
    b_consistent: np.ndarray  # (m,) W(L) Phi(L) - int W_s Phi
    w_cable: np.ndarray      # (m,) d(delta_l)/dc = (1/2) int W Phi_s
    core: np.ndarray         # (n, n) bwd diag(A) fwd: int_s^L A(xi) int_0^xi . dxi
    steppers: dict = field(default_factory=dict, init=False, repr=False)  # (dt, fidelity, mode)
    damping_model: ClassVar[str] = "drag"    # the only law, read by perfbench


def _mass_matrix(rho, weights, i_n, phi) -> np.ndarray:
    m = rho * phi.T @ (weights[:, None] * i_n[:, None] * phi)
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise ConfigurationError("mass matrix is not positive definite") from exc
    return m


def assemble_mass(model: RobotModel, basis: ModalBasis, grid: QuadratureGrid) -> np.ndarray:
    """Rotational mass matrix rho * int I(s) Phi Phi^T ds."""
    return _mass_matrix(model.material.density, grid.weights, model.eval_I(grid.nodes),
                        basis.eval(grid.nodes))


def make_assembly(model: RobotModel, basis: ModalBasis, grid: QuadratureGrid,
                  damping_model: str = "drag") -> Assembly:
    if damping_model != "drag":
        raise ConfigurationError(f"unknown damping model {damping_model!r}: drag is the "
                                 "only one; set damping_coeff = 0 to run undamped")
    nodes = grid.nodes
    wq = grid.weights
    # one basis pass over the nodes and the tip, copied out in the layouts that
    # separate eval/deriv calls return, so every later product keeps its bits
    values, slopes = basis.eval_and_deriv(np.append(nodes, model.length))
    phi, dphi = np.asfortranarray(values[:-1]), np.asfortranarray(slopes[:-1])
    phi_l, dphi_l = values[-1].copy(), slopes[-1].copy()
    i_n = model.eval_I(nodes)
    a_n = model.eval_A(nodes)
    w_n = model.eval_W(nodes)
    ws_n = model.eval_W_s(nodes)
    qx, qy = model.cumulative_load(nodes)
    e_mod = model.material.youngs_modulus
    mass = _mass_matrix(model.material.density, wq, i_n, phi)
    stiff = e_mod * dphi.T @ (wq[:, None] * i_n[:, None] * dphi)
    wl = model.eval_W(model.length)
    return Assembly(
        model=model, basis=basis, grid=grid,
        phi=phi, dphi=dphi, phi_L=phi_l, dphi_L=dphi_l,
        qx_nodes=qx, qy_nodes=qy,
        wl=wl, il=model.eval_I(model.length),
        mass=mass, stiffness=stiff,
        b_literal=model.eval_W(0.0) * (wq @ phi),
        b_consistent=wl * phi_l - phi.T @ (wq * ws_n),
        w_cable=0.5 * (wq * w_n) @ dphi,
        core=grid.bwd @ (a_n[:, None] * grid.fwd),
    )


def assemble_state_fields(theta, theta_t, asm: Assembly):
    """K, h, f_Q and the drag matrix for sampled angle fields.

    K is assembled by cumulative passes as
        K = int [sin(theta) Xi_sin + cos(theta) Xi_cos] ds,
        Xi_trig(s) = [int_s^L A(xi) int_0^xi Phi trig(theta) ] Phi^T(s),
    h is the theta_t^2 (Coriolis/centrifugal) projection, and the drag
    damping matrix shares the inner prefix integrals of K.  All four nested
    integrals are columns of one product of ``asm.core`` with the stacked
    block [Phi sin | Phi cos | theta_t^2 cos | theta_t^2 sin].
    """
    grid = asm.grid
    wq = grid.weights
    n, m = asm.phi.shape
    sn = np.sin(theta)
    cs = np.cos(theta)
    tt2 = np.asarray(theta_t) ** 2
    x = np.empty((n, 2 * m + 2))
    np.multiply(asm.phi, sn[:, None], out=x[:, :m])
    np.multiply(asm.phi, cs[:, None], out=x[:, m:2 * m])
    np.multiply(tt2, cs, out=x[:, 2 * m])
    np.multiply(tt2, sn, out=x[:, 2 * m + 1])
    nested = asm.core @ x                             # int_s^L A int_0^xi (column)
    rs, rc = nested[:, :m], nested[:, m:2 * m]
    j_s, j_c = nested[:, 2 * m], nested[:, 2 * m + 1]
    coupling = rs.T @ (asm.phi * (wq * sn)[:, None]) + rc.T @ (asm.phi * (wq * cs)[:, None])
    coriolis = asm.phi.T @ (wq * (sn * j_s - cs * j_c))
    f_q = asm.phi.T @ (wq * (asm.qy_nodes * cs - asm.qx_nodes * sn))
    prefix = grid.fwd @ x[:, :2 * m]                  # int_0^s Phi [sin | cos]
    ps, pc = prefix[:, :m], prefix[:, m:]
    damping = asm.model.material.damping_coeff * (ps.T @ (wq[:, None] * ps)
                                                  + pc.T @ (wq[:, None] * pc))
    return coupling, coriolis, f_q, damping


def _fields(c, c_t, asm: Assembly):
    return asm.phi @ c, asm.phi @ c_t


def assemble_K(c, asm: Assembly) -> np.ndarray:
    theta, _ = _fields(np.asarray(c, float), np.zeros(asm.basis.order), asm)
    return assemble_state_fields(theta, np.zeros_like(theta), asm)[0]


def assemble_h(c, c_t, asm: Assembly) -> np.ndarray:
    theta, theta_t = _fields(np.asarray(c, float), np.asarray(c_t, float), asm)
    return assemble_state_fields(theta, theta_t, asm)[1]


def assemble_fQ(c, asm: Assembly) -> np.ndarray:
    theta, _ = _fields(np.asarray(c, float), np.zeros(asm.basis.order), asm)
    return assemble_state_fields(theta, np.zeros_like(theta), asm)[2]


# -- stepping ----------------------------------------------------------------


class Stepper:
    """The step of one (Assembly, dt, fidelity, input mode), its fixed pieces built once.

    With X = [Phi sin(theta) | Phi cos(theta)], W = diag(grid weights) and
    F = ``grid.fwd``, the step matrix M + rho K + dt D (+ dt^2 S) is ``lhs0``
    plus the sum of the two diagonal m x m blocks of X^T H X, where
        G    = c F^T W F                    (drag, c the model's damping_coeff),
        H    = rho core^T W + dt G,
        lhs0 = M + dt^2 S                   (S if consistent, else zero).
    One product of the state operator
        [[Phi, 0], [0, -Phi], [0, Phi], [S, dt S], [w^T, 0], [0, w^T]]
    with z = [c; c_t] gives theta, -theta_t, theta_t, the stiffness part of
    the rhs, w . c and w . c_t (w the cable direction).  Node-indexed arrays
    keep the n nodes on their contiguous axis: [sin; cos] is (2, n), X^T is
    (m, 2, n), and the Coriolis, drag and load block is (2, 2n + 2),
        [theta_t^2 (-cos; sin) | theta_t (sin; cos) | I],
    so its one product with the (2n + 2, n) field operator
    [rho W core | -G | -q_x W ; q_y W]^T adds the distributed load through
    the two identity columns.  The fidelity fixes S and the actuation vector,
    the input mode how ``advance(state, command)`` turns the commanded
    (value, rate, accel) at the step's end into the acceleration and gamma.
    ``system`` gives the (lhs, rhs) that ``assemble_state_fields`` and the step
    algebra give, up to round-off.

    Every buffer a step writes, and every view it reads, is built once with
    the Stepper (its workspace), so a step allocates only its new z, the
    solve's result and the new ModalState.  ``system`` returns views of the
    workspace, which the next call overwrites.  The Steppers cached on one
    Assembly share no lock: they must not be stepped from two threads at once.
    """

    def __init__(self, asm: Assembly, dt: float, fidelity: str, mode: str):
        consistent = fidelity == "consistent"
        if mode == DISPLACEMENT and not consistent:
            raise ConfigurationError(f"{fidelity} fidelity takes force input only")
        wq = asm.grid.weights
        rho = asm.model.material.density
        phi, w = asm.phi, asm.w_cable
        n, m = phi.shape
        self.m, self.dt, self.w_cable = m, dt, w
        self.load = asm.b_consistent if consistent else asm.b_literal
        stiffness = asm.stiffness if consistent else np.zeros_like(asm.stiffness)
        self.lhs0 = asm.mass + dt * dt * stiffness
        self.dt_m = np.full(m, dt)
        zero, zero_w = np.zeros((n, m)), np.zeros(m)
        self.state_op = np.block([[phi, zero], [zero, -phi], [zero, phi],
                                  [stiffness, dt * stiffness], [w, zero_w], [zero_w, w]])
        self.phi_t = np.ascontiguousarray(phi.T)[:, None, :]
        fwd = asm.grid.fwd
        c_drag = asm.model.material.damping_coeff
        g = fwd.T @ ((c_drag * wq)[:, None] * fwd)     # G = c F^T W F
        rho_core = (rho * wq)[:, None] * asm.core
        self.h_t = np.ascontiguousarray((rho_core.T + dt * g).T)
        self.field_op = np.vstack([rho_core.T, -g.T, -wq * asm.qx_nodes, wq * asm.qy_nodes])
        self._accel = _force_accel if mode == FORCE else _displacement_accel
        # the workspace: each buffer a step writes and each view it reads
        self.u = u = np.empty(3 * n + m + 2)           # state_op . z
        self.theta, self.theta_t = u[:n], u[2 * n:3 * n]
        self.rates = u[n:3 * n].reshape(2, n)          # (-theta_t; theta_t)
        self.s_rows, self.w_z = u[3 * n:3 * n + m], u[3 * n + m:]
        self.sc = np.empty((2, n))                     # [sin; cos] of theta
        self.sin, self.cos = self.sc
        self.xt = np.empty((m, 2, n))                  # X^T
        self.x_m, self.x_2m = self.xt.reshape(m, 2 * n), self.xt.reshape(2 * m, n)
        self.hx = np.empty((2 * m, n))                 # (H X)^T, its rows as xt's
        self.hx_t = self.hx.reshape(m, 2 * n).T
        self.lhs = np.empty((m, m))
        self.y = np.zeros((2, 2 * n + 2))              # Coriolis | drag | I
        self.y[:, 2 * n:] = np.eye(2)
        self.coriolis, self.drag = self.y[:, :n], self.y[:, n:2 * n]
        self.drag_swapped = self.drag[::-1]
        self.yf = np.empty((2, n))                     # y . field_op
        self.yf_flat = self.yf.reshape(2 * n)
        rhs_w = np.empty((2, m))                       # [rhs; w]
        rhs_w[1] = w
        self.rhs, self.rhs_load = rhs_w[0], rhs_w.T    # [rhs | w], the KKT operand
        self.load_term = np.empty(m)                   # gamma * load, force input

    def system(self, z):
        """(lhs, rhs) of the acceleration solve, before the actuation load, and
        (w . c, w . c_t), for the state z = [c; c_t]: views of the workspace,
        which the next call overwrites."""
        # Step-path products use ndarray.dot, not @: on these 1-D and 2-D
        # operands it makes the same BLAS call with the same bits, at
        # 0.4-0.6 us less fixed cost per call, up to half of a product's time.
        self.state_op.dot(z, out=self.u)
        np.sin(self.theta, out=self.sin)
        np.cos(self.theta, out=self.cos)
        np.multiply(self.phi_t, self.sc, out=self.xt)
        self.x_2m.dot(self.h_t, out=self.hx)
        lhs = self.x_m.dot(self.hx_t, out=self.lhs)
        lhs += self.lhs0
        np.multiply(self.sc, self.theta_t, out=self.drag)           # theta_t [sin; cos]
        np.multiply(self.drag_swapped, self.rates, out=self.coriolis)
        self.y.dot(self.field_op, out=self.yf)
        rhs = self.x_m.dot(self.yf_flat, out=self.rhs)
        rhs -= self.s_rows
        return lhs, rhs, self.w_z

    def advance(self, state: ModalState, command):
        """The next state from ``state`` under the commanded (value, rate, accel)
        at the step's end, and the applied boundary coefficient gamma."""
        lhs, rhs, w_z = self.system(state.z)
        c_tt, gam = self._accel(self, lhs, rhs, w_z, command)
        # semi-implicit Euler into one new z: c_t + dt c_tt, then c + dt c_t_new
        m = self.m
        z = np.empty(2 * m)
        c, c_t = z[:m], z[m:]
        np.multiply(c_tt, self.dt_m, out=c_t)
        c_t += state.c_t
        np.multiply(c_t, self.dt_m, out=c)
        c += state.c
        return _state(state.t + self.dt, z, c, c_t, c_tt), gam


# The acceleration and gamma of one step, per input mode.  A Stepper holds the
# plain function, not a bound method, so it is in no reference cycle and is
# freed with its Assembly.
def _force_accel(stp: Stepper, lhs, rhs, w_z, command):
    gam = -0.5 * command[0]
    rhs += np.multiply(stp.load, gam, out=stp.load_term)
    return solve(lhs, rhs), gam


def _displacement_accel(stp: Stepper, lhs, rhs, w_z, command):
    # rhs is row 0 of the [rhs; w] block whose transpose is stp.rhs_load
    w_x, w_v = w_z.tolist()
    c_tt, lam = constrained_solve(lhs, stp.rhs_load, stp.w_cable, command, w_x, w_v)
    return c_tt, 0.5 * lam


def stepper(asm: Assembly, dt: float, fidelity: str, mode: str) -> Stepper:
    """The Assembly's cached Stepper for (dt, fidelity, mode), built on first use;
    raises ConfigurationError on displacement input under the literal fidelity."""
    key = (float(dt), fidelity, mode)
    hit = asm.steppers.get(key)
    if hit is None:
        hit = asm.steppers[key] = Stepper(asm, *key)
    return hit


def step(state: ModalState, asm: Assembly, profile: ActuationProfile,
         options: SolverOptions) -> ModalState:
    """One semi-implicit Euler step under ``profile.command`` at its end; raises
    SolverFault on a non-finite result and ConfigurationError on displacement
    input under the literal fidelity."""
    dt = options.dt
    new_state, _ = stepper(asm, dt, options.fidelity, profile.mode).advance(
        state, profile.command(state.t + dt))
    z = new_state.z
    # any inf or nan entry makes z . z non-finite; only an overflow of finite
    # entries needs the entry-wise check
    if not math.isfinite(z.dot(z)) and not np.isfinite(z).all():
        raise SolverFault("non-finite modal state")
    return new_state


def simulate(model: RobotModel, profile: ActuationProfile, options: SolverOptions,
             scenario_id: str = "", assembly: Assembly | None = None) -> SimulationRecord:
    """Run the modal solver from rest and record the requested time series.

    The input is evaluated once, on every step time, before the loop; the
    times are accumulated as the loop's own t + dt, so each keeps its bits.
    ``compute_seconds`` covers the steps only; the record is built after the
    loop, in one pass over the kept samples.
    """
    asm = assembly if assembly is not None else make_assembly(
        model, ModalBasis(options.m, model.length, options.basis_kind),
        make_quadrature(options.panels, options.points_per_panel, model.length))
    advance_one = stepper(asm, options.dt, options.fidelity, profile.mode).advance
    n_steps = int(round(options.t_end / options.dt))
    times = np.full(n_steps + 1, float(options.dt))
    times[0] = 0.0
    commands = zip(*(part.tolist() for part in profile.command(np.add.accumulate(times))))
    value_0 = next(commands)[0]
    state = ModalState.rest(asm.basis.order)
    # sample 0: the rest state, its own diagnostic state, the t = 0 coefficient
    first = (state.c, state, -0.5 * value_0 if profile.mode == FORCE else 0.0)

    def advance(k):
        # run_loop calls k = 1, 2, ... in order, so the next command is step k's
        nonlocal state
        prev = state
        state, gam = advance_one(prev, next(commands))
        return prev.c, state, gam

    kept, compute_seconds, nc_step, nc_reason = run_loop(
        n_steps, options.output_stride, advance, lambda: abs(asm.phi_L.dot(state.c)))
    c_pre, sampled, gam = zip(first, *kept)
    c_pre = np.array(c_pre)
    c = np.array([st.c for st in sampled])
    c_t = np.array([st.c_t for st in sampled])
    return sampled_record(
        asm, profile, t=np.array([st.t for st in sampled]), states=c, rates=c_t,
        accels=np.array([st.c_tt_last for st in sampled]), gamma=np.array(gam),
        theta=stacked_product(asm.phi, c), theta_t=stacked_product(asm.phi, c_t),
        theta_s=stacked_product(asm.dphi, c), theta_L=stacked_product(asm.phi_L, c),
        theta_s_L=stacked_product(asm.dphi_L, c),
        # diagnostics on the state each step started from
        diagnostic=(stacked_product(asm.phi_L, c_pre), stacked_product(asm.dphi_L, c_pre),
                    stacked_product(asm.phi, c_pre)),
        shape_angles=lambda states, s: stacked_product(asm.basis.eval(s), states),
        scenario_id=scenario_id, solver="galerkin", fidelity=options.fidelity,
        compute_seconds=compute_seconds, nc_step=nc_step, nc_reason=nc_reason)
