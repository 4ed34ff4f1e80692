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
``Stepper`` instead, built on first use for each (dt, fidelity) and cached on
the Assembly: it precomputes H = rho core^T W + dt G, with the drag operator
G = c F^T W F, the rhs operator [rho W core | -G] and the constant part of
the step matrix, so a step is a few fused products and one m x m solve, with
the same system up to round-off.  Step-path products use ``ndarray.dot``:
the same BLAS call and bits as ``@``, at less cost per call (``step_us_p50``
on disp_track 35.2 -> 30.5 us, BENCH_5.json).  The fidelity is fixed when
the Stepper is built, not branched on per step.  A step evaluates its input
once, ``profile.command(t)`` at the step's end: the force value, or the
commanded displacement with its rate and acceleration.

Two assembly fidelities are provided:

* ``consistent`` - the weak form of the governing PDE with the natural tip
                   boundary condition applied: adds the bending stiffness
                   S = E int I Phi_s Phi_s^T ds and the boundary-consistent
                   actuation load Gamma * [W(L) Phi(L) - int W_s Phi ds].
* ``literal``    - the integrated-equation discretization, force input only
                   (a displacement-input step raises ConfigurationError): no
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


@dataclass
class ModalState:
    t: float
    c: np.ndarray
    c_t: np.ndarray
    c_tt_last: np.ndarray

    @classmethod
    def rest(cls, m: int) -> "ModalState":
        return cls(0.0, np.zeros(m), np.zeros(m), np.zeros(m))


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
    steppers: dict = field(default_factory=dict, init=False, repr=False)  # (dt, fidelity)
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
    """The step of one (Assembly, dt, fidelity), its fixed pieces built once.

    With X = [Phi sin(theta) | Phi cos(theta)], W = diag(grid weights) and
    F = ``grid.fwd``, the step matrix M + rho K + dt D (+ dt^2 S) is ``lhs0``
    plus the sum of the two diagonal m x m blocks of X^T H X, where
        G    = c F^T W F                    (drag, c the model's damping_coeff),
        H    = rho core^T W + dt G,
        lhs0 = M + dt^2 S                   (S if consistent, else zero).
    The drag force D c_t = X^T G [theta_t sin | theta_t cos] (blocks summed)
    rides in the rhs field with the Coriolis term, as one product of the
    (n, 2n) operator [rho W core | -G].  The fidelity fixes S and the
    actuation vector.  ``system`` gives the (lhs, rhs) that
    ``assemble_state_fields`` and the step algebra give, up to round-off;
    ``advance`` adds the input from one ``profile.command`` call.
    """

    def __init__(self, asm: Assembly, dt: float, fidelity: str):
        wq = asm.grid.weights
        rho = asm.model.material.density
        self.dt, self.fidelity = dt, fidelity
        self.consistent = fidelity == "consistent"
        self.phi, self.w_cable = asm.phi, asm.w_cable
        self.load = asm.b_consistent if self.consistent else asm.b_literal
        stiffness = asm.stiffness if self.consistent else np.zeros_like(asm.stiffness)
        self.lhs0 = asm.mass + dt * dt * stiffness
        # the rhs terms linear in the state, S c + dt S c_t
        self.s_c = stiffness
        self.s_ct = dt * stiffness
        fwd = asm.grid.fwd
        c_drag = asm.model.material.damping_coeff
        g = fwd.T @ ((c_drag * wq)[:, None] * fwd)     # G = c F^T W F
        rho_core = (rho * wq)[:, None] * asm.core
        self.h = rho_core.T + dt * g
        # the rhs field on [sin | cos] is this (n, 2n) operator on
        # [theta_t^2 (-cos | sin) ; theta_t (sin | cos)], plus [-q_x | q_y] W
        self.field_op = np.hstack([rho_core, -g])
        self.q_w = np.column_stack([-wq * asm.qx_nodes, wq * asm.qy_nodes])
        self._phi2 = np.repeat(asm.phi, 2, axis=0)    # each row twice, as sc.ravel()

    def system(self, c, c_t):
        """(lhs, rhs) of the acceleration solve, before the actuation load."""
        # Step-path products use ndarray.dot, not @: on these 1-D and 2-D
        # operands it makes the same BLAS call with the same bits, at
        # 0.4-0.6 us less fixed cost per call, up to half of a product's time.
        n, m = self.phi.shape
        theta = self.phi.dot(c)
        theta_t = self.phi.dot(c_t)
        sc = np.empty((n, 2))                          # [sin | cos] of theta
        np.sin(theta, out=sc[:, 0])
        np.cos(theta, out=sc[:, 1])
        x2 = self._phi2 * sc.reshape(-1, 1)            # X, its rows as (n, 2, m)
        hx = self.h.dot(x2.reshape(n, 2 * m))
        # as (2n, m), the rows pair each X block with its H X block
        lhs = x2.T.dot(hx.reshape(2 * n, m))
        lhs += self.lhs0
        y = np.empty((2 * n, 2))
        np.multiply(sc, theta_t[:, None], out=y[n:])   # theta_t [sin | cos]
        np.multiply(y[n:, ::-1], theta_t[:, None], out=y[:n])
        y[:n, 0] *= -1.0                               # theta_t^2 [-cos | sin]
        fld = self.field_op.dot(y)
        fld += self.q_w
        rhs = x2.T.dot(fld.reshape(-1))
        rhs -= self.s_c.dot(c)
        rhs -= self.s_ct.dot(c_t)
        return lhs, rhs

    def advance(self, state: ModalState, profile: ActuationProfile):
        """The next state and the applied boundary coefficient gamma."""
        lhs, rhs = self.system(state.c, state.c_t)
        dt = self.dt
        t_next = state.t + dt
        command = profile.command(t_next)
        if profile.mode == DISPLACEMENT:
            if not self.consistent:
                raise ConfigurationError(f"{self.fidelity} fidelity takes force input only")
            w = self.w_cable
            c_tt, lam = constrained_solve(lhs, rhs, w, w, command, w.dot(state.c),
                                          w.dot(state.c_t))
            gam = 0.5 * lam
        else:
            gam = -0.5 * command[0]
            rhs += gam * self.load
            c_tt = solve(lhs, rhs)
        c_t_new = state.c_t + dt * c_tt
        c_new = state.c + dt * c_t_new
        return ModalState(t=t_next, c=c_new, c_t=c_t_new, c_tt_last=c_tt), gam


def stepper(asm: Assembly, dt: float, fidelity: str) -> Stepper:
    """The Assembly's cached Stepper for (dt, fidelity), built on first use."""
    key = (float(dt), fidelity)
    hit = asm.steppers.get(key)
    if hit is None:
        hit = asm.steppers[key] = Stepper(asm, *key)
    return hit


def step(state: ModalState, asm: Assembly, profile: ActuationProfile,
         options: SolverOptions) -> ModalState:
    """One semi-implicit Euler step; raises SolverFault on a non-finite result
    and ConfigurationError on displacement input under the literal fidelity."""
    new_state, _ = stepper(asm, options.dt, options.fidelity).advance(state, profile)
    c, c_t = new_state.c, new_state.c_t
    # any inf or nan entry makes c . c_t non-finite; only an overflow of finite
    # entries needs the entry-wise check
    if not math.isfinite(c.dot(c_t)) and not (np.isfinite(c).all() and np.isfinite(c_t).all()):
        raise SolverFault("non-finite modal state")
    return new_state


def simulate(model: RobotModel, profile: ActuationProfile, options: SolverOptions,
             scenario_id: str = "", assembly: Assembly | None = None) -> SimulationRecord:
    """Run the modal solver from rest and record the requested time series.

    ``compute_seconds`` covers the steps only; the record is built after the
    loop, in one pass over the kept samples.
    """
    asm = assembly if assembly is not None else make_assembly(
        model, ModalBasis(options.m, model.length, options.basis_kind),
        make_quadrature(options.panels, options.points_per_panel, model.length))
    state = ModalState.rest(asm.basis.order)
    # sample 0: the rest state, its own diagnostic state, the t = 0 coefficient
    first = (state.c, state, -0.5 * profile.value(0.0) if profile.mode == FORCE else 0.0)

    advance_one = stepper(asm, options.dt, options.fidelity).advance

    def advance(k):
        nonlocal state
        prev = state
        state, gam = advance_one(prev, profile)
        return prev.c, state, gam

    kept, compute_seconds, nc_step, nc_reason = run_loop(
        int(round(options.t_end / options.dt)), options.output_stride, advance,
        lambda: abs(asm.phi_L.dot(state.c)))
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
