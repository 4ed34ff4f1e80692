"""Reduced-order dynamic model: modal assembly and explicit time stepping.

The bending angle is expanded as theta(s, t) = Phi(s)^T c(t).  Each step
assembles, from the previous state, the configuration-dependent inertia
coupling K, the Coriolis/centrifugal vector h, the distributed load vector
f_Q and the actuation load, then solves one small dense system for the modal
acceleration and advances with semi-implicit Euler (velocity first).  All
nested double integrals run as one forward plus one backward cumulative pass
over the quadrature grid; the Assembly folds them, with the cross-section
area between them, into one n x n operator, so the state-dependent part of a
step is one product with an n x (2m + 2) block plus an m x m solve.

Two assembly fidelities are provided:

* ``literal``    - the integrated-equation discretization: no
                   bending-stiffness matrix, actuation load spread as
                   Gamma * W(0) * int(Phi).
* ``consistent`` - the weak form of the governing PDE with the natural tip
                   boundary condition applied: adds the bending stiffness
                   S = E int I Phi_s Phi_s^T ds and the boundary-consistent
                   actuation load Gamma * [W(L) Phi(L) - int W_s Phi ds].

Stiffness and damping contributions are treated semi-implicitly (evaluated at
the end-of-step velocity/position predicted from the unknown acceleration),
which keeps the default dt stable without changing the update order.

Displacement-input runs under the consistent fidelity enforce the cable
constraint through the multiplier computed from the constrained dynamics
(KKT solve with Baumgarte stabilization).  The closed-form multiplier
expressions (``lambda_pre``/``lambda_post``) are diagnostics there: ``step``
does not evaluate them, and ``simulate`` evaluates them only at recorded
samples.  Under the literal fidelity the substituted closed form is the
applied displacement-mode load, so that step evaluates it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .actuation import ActuationProfile, DISPLACEMENT, FORCE
from .basis import ModalBasis, QuadratureGrid, make_quadrature
from .errors import ConfigurationError, SolverFault
from .geometry import RobotModel
from .kinematics import compute_energies, cumtrapz, shape_grid, tendon_displacement
from .records import SimulationRecord

FIDELITIES = ("literal", "consistent")
DAMPING_MODELS = ("drag", "pointwise", "none")
NC_ANGLE_LIMIT = 1e3  # rad; beyond this a run is marked non-converged


def divergence_reason(angles) -> str:
    """Why angles failed the non-convergence check: non-finite or past the limit."""
    if not np.all(np.isfinite(angles)):
        return "non-finite state"
    return (f"angle limit exceeded: |theta| = {np.max(np.abs(angles)):.3g} rad "
            f"> {NC_ANGLE_LIMIT:g} rad")


@dataclass
class SolverOptions:
    """Numeric options for both solvers (the SD knobs ride along)."""

    dt: float = 1e-3
    t_end: float = 3.0
    fidelity: str = "consistent"
    lambda_epsilon: float = 1e-8
    m: int = 6
    basis_kind: str = "orthonormal"
    panels: int = 16
    points_per_panel: int = 5
    damping_model: str = "drag"
    constraint_gain: float = 20.0   # Baumgarte gain for displacement input, 1/s
    output_stride: int = 10
    shape_stride: int = 10          # shape snapshot every shape_stride-th sample
    sd_nodes: int = 201
    sd_dt: float = 2e-5

    def __post_init__(self):
        if not self.dt > 0:
            raise ConfigurationError("dt must be positive")
        if self.t_end < 0:
            raise ConfigurationError("t_end must be non-negative")
        if self.fidelity not in FIDELITIES:
            raise ConfigurationError(f"unknown fidelity {self.fidelity!r}")
        if not self.lambda_epsilon > 0:
            raise ConfigurationError("lambda_epsilon must be positive")
        if self.m < 1:
            raise ConfigurationError("m must be at least 1")
        if self.damping_model not in DAMPING_MODELS:
            raise ConfigurationError(f"unknown damping model {self.damping_model!r}")
        if self.output_stride < 1 or self.shape_stride < 1:
            raise ConfigurationError("strides must be at least 1")
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
    damping_model: str
    phi: np.ndarray          # (n, m)
    dphi: np.ndarray         # (n, m)
    phi_L: np.ndarray        # (m,)
    dphi_L: np.ndarray       # (m,)
    int_phi: np.ndarray      # (m,)
    i_nodes: np.ndarray
    a_nodes: np.ndarray
    w_nodes: np.ndarray
    ws_nodes: np.ndarray
    qx_nodes: np.ndarray
    qy_nodes: np.ndarray
    w0: float
    wl: float
    il: float
    mass: np.ndarray         # (m, m) rho * int I Phi Phi^T
    stiffness: np.ndarray    # (m, m) E * int I Phi_s Phi_s^T
    damping0: np.ndarray     # (m, m) constant damping matrix (pointwise model)
    b_literal: np.ndarray    # (m,) W(0) * int Phi
    b_consistent: np.ndarray  # (m,) W(L) Phi(L) - int W_s Phi
    w_cable: np.ndarray      # (m,) d(delta_l)/dc = (1/2) int W Phi_s
    core: np.ndarray         # (n, n) bwd diag(A) fwd: int_s^L A(xi) int_0^xi . dxi


def assemble_mass(model: RobotModel, basis: ModalBasis, grid: QuadratureGrid) -> np.ndarray:
    """Rotational mass matrix rho * int I(s) Phi Phi^T ds."""
    phi = basis.eval(grid.nodes)
    i_n = model.eval_I(grid.nodes)
    m = model.material.density * phi.T @ (grid.weights[:, None] * i_n[:, None] * phi)
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise ConfigurationError("mass matrix is not positive definite") from exc
    return m


def make_assembly(model: RobotModel, basis: ModalBasis, grid: QuadratureGrid,
                  damping_model: str = "drag") -> Assembly:
    if damping_model not in DAMPING_MODELS:
        raise ConfigurationError(f"unknown damping model {damping_model!r}")
    nodes = grid.nodes
    wq = grid.weights
    phi = basis.eval(nodes)
    dphi = basis.deriv(nodes)
    i_n = model.eval_I(nodes)
    a_n = model.eval_A(nodes)
    w_n = model.eval_W(nodes)
    ws_n = model.eval_W_s(nodes)
    qx, qy = model.cumulative_load(nodes)
    e_mod = model.material.youngs_modulus
    c_damp = model.material.damping_coeff
    mass = assemble_mass(model, basis, grid)
    stiff = e_mod * dphi.T @ (wq[:, None] * i_n[:, None] * dphi)
    if damping_model == "pointwise":
        damping0 = c_damp * phi.T @ (wq[:, None] * phi)
    else:
        damping0 = np.zeros((basis.order, basis.order))
    phi_l = basis.eval(model.length)
    dphi_l = basis.deriv(model.length)
    int_phi = wq @ phi
    wl = model.eval_W(model.length)
    return Assembly(
        model=model, basis=basis, grid=grid, damping_model=damping_model,
        phi=phi, dphi=dphi, phi_L=phi_l, dphi_L=dphi_l, int_phi=int_phi,
        i_nodes=i_n, a_nodes=a_n, w_nodes=w_n, ws_nodes=ws_n,
        qx_nodes=qx, qy_nodes=qy,
        w0=model.eval_W(0.0), wl=wl, il=model.eval_I(model.length),
        mass=mass, stiffness=stiff, damping0=damping0,
        b_literal=model.eval_W(0.0) * int_phi,
        b_consistent=wl * phi_l - phi.T @ (wq * ws_n),
        w_cable=0.5 * (wq * w_n) @ dphi,
        core=grid.bwd @ (a_n[:, None] * grid.fwd),
    )


def assemble_state_fields(theta, theta_t, asm: Assembly):
    """K, h, f_Q and the velocity-damping matrix for sampled angle fields.

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
    if asm.damping_model == "drag":
        c_damp = asm.model.material.damping_coeff
        prefix = grid.fwd @ x[:, :2 * m]              # int_0^s Phi [sin | cos]
        ps, pc = prefix[:, :m], prefix[:, m:]
        damping = c_damp * (ps.T @ (wq[:, None] * ps) + pc.T @ (wq[:, None] * pc))
    else:
        damping = asm.damping0
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


# -- boundary actuation coefficient ----------------------------------------


def lambda_boundary(theta_s_L: float, asm: Assembly) -> float:
    """Multiplier from the tip moment balance alone: 2 E I(L) theta_s(L) / W(L)."""
    e_mod = asm.model.material.youngs_modulus
    return 2.0 * e_mod * asm.il * theta_s_L / asm.wl


def lambda_substituted(theta_L: float, theta_s_L: float, int_ws_theta: float,
                       delta_l: float, asm: Assembly, eps: float) -> float:
    """Closed-form multiplier with the constraint substituted in.

    lambda = 2 E I(L) theta_s(L) theta(L) / (2 delta_l + int W_s theta ds),
    regularized: near-zero denominator falls back to the boundary form, and a
    fully rested state returns 0.
    """
    if theta_L == 0.0 and theta_s_L == 0.0:
        return 0.0
    den = 2.0 * delta_l + int_ws_theta
    if abs(den) < eps:
        return lambda_boundary(theta_s_L, asm)
    e_mod = asm.model.material.youngs_modulus
    lam = 2.0 * e_mod * asm.il * theta_s_L * theta_L / den
    if not np.isfinite(lam):
        raise SolverFault(f"non-finite multiplier (denominator {den:.3e})")
    return lam


def _substituted_multiplier(c, delta_l: float, asm: Assembly, eps: float) -> float:
    """lambda_substituted evaluated on the modal coefficients c."""
    return lambda_substituted(float(asm.phi_L @ c), float(asm.dphi_L @ c),
                              float(asm.grid.integrate(asm.ws_nodes * (asm.phi @ c))),
                              delta_l, asm, eps)


def gamma(t: float, state: ModalState, asm: Assembly, profile: ActuationProfile,
          options: SolverOptions) -> float:
    """Boundary actuation coefficient: -Delta_F/2 (force) or +lambda/2 (displacement).

    Displacement mode evaluates the closed-form multiplier from the current
    state.  The consistent-fidelity solver enforces the cable constraint and
    applies its own multiplier instead; ``simulate`` records this closed form
    as the ``lambda_post`` diagnostic.
    """
    if profile.mode == FORCE:
        return -0.5 * profile.value(t)
    return 0.5 * _substituted_multiplier(state.c, profile.value(t), asm,
                                         options.lambda_epsilon)


def assemble_fl(t: float, state: ModalState, asm: Assembly, profile: ActuationProfile,
                options: SolverOptions) -> np.ndarray:
    """Actuation load vector for the requested fidelity."""
    g = gamma(t, state, asm, profile, options)
    return g * (asm.b_literal if options.fidelity == "literal" else asm.b_consistent)


# -- stepping ----------------------------------------------------------------


def _advance(state: ModalState, asm: Assembly, profile: ActuationProfile,
             options: SolverOptions):
    dt = options.dt
    t_next = state.t + dt
    theta, theta_t = _fields(state.c, state.c_t, asm)
    coupling, coriolis, f_q, damping = assemble_state_fields(theta, theta_t, asm)
    rho = asm.model.material.density
    lhs = asm.mass + rho * coupling + dt * damping
    rhs = f_q - rho * coriolis - damping @ state.c_t
    consistent = options.fidelity == "consistent"
    if consistent:
        lhs = lhs + dt * dt * asm.stiffness
        rhs = rhs - asm.stiffness @ (state.c + dt * state.c_t)

    try:
        if profile.mode == DISPLACEMENT and consistent:
            # Constrained dynamics: the cable is a prescribed-displacement
            # constraint w_cable . c = delta_l(t); solve for the multiplier
            # that keeps the Baumgarte-stabilized acceleration-level
            # constraint.
            alpha = options.constraint_gain
            w = asm.w_cable
            target = (profile.accel(t_next)
                      + 2.0 * alpha * (profile.rate(t_next) - w @ state.c_t)
                      + alpha * alpha * (profile.value(t_next) - w @ state.c))
            sol = np.linalg.solve(lhs, np.column_stack([rhs, w]))
            denom = float(w @ sol[:, 1])
            if abs(denom) < 1e-30:
                raise SolverFault("degenerate cable-constraint direction")
            lam = (target - float(w @ sol[:, 0])) / denom
            c_tt = sol[:, 0] + lam * sol[:, 1]
            gam = 0.5 * lam
        else:
            if profile.mode == FORCE:
                gam = -0.5 * profile.value(t_next)
            else:
                gam = 0.5 * _substituted_multiplier(state.c, profile.value(t_next), asm,
                                                    options.lambda_epsilon)
            rhs = rhs + gam * (asm.b_literal if options.fidelity == "literal"
                               else asm.b_consistent)
            c_tt = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError as exc:
        raise SolverFault(f"singular system matrix: {exc}") from exc

    c_t_new = state.c_t + dt * c_tt
    c_new = state.c + dt * c_t_new
    new_state = ModalState(t=t_next, c=c_new, c_t=c_t_new, c_tt_last=c_tt)
    return new_state, gam


def step(state: ModalState, asm: Assembly, profile: ActuationProfile,
         options: SolverOptions) -> ModalState:
    """One semi-implicit Euler step; raises SolverFault on a non-finite result."""
    new_state, _ = _advance(state, asm, profile, options)
    if not np.all(np.isfinite(new_state.c)) or not np.all(np.isfinite(new_state.c_t)):
        raise SolverFault("non-finite modal state")
    return new_state


def simulate(model: RobotModel, profile: ActuationProfile, options: SolverOptions,
             scenario_id: str = "", assembly: Assembly | None = None) -> SimulationRecord:
    """Run the modal solver from rest and record the requested time series.

    Wall-clock bookkeeping covers assembly and solve work only; recording and
    I/O stay outside the timed segments.
    """
    basis = assembly.basis if assembly is not None else ModalBasis(
        options.m, model.length, options.basis_kind)
    grid = assembly.grid if assembly is not None else make_quadrature(
        options.panels, options.points_per_panel, model.length)
    asm = assembly if assembly is not None else make_assembly(
        model, basis, grid, options.damping_model)

    n_steps = int(round(options.t_end / options.dt))
    stride = options.output_stride
    n_samples = n_steps // stride + 1
    m = basis.order

    t_s = np.zeros(n_samples)
    states = np.zeros((n_samples, m))
    rates = np.zeros((n_samples, m))
    accels = np.zeros((n_samples, m))
    scalars = {name: np.zeros(n_samples) for name in
               ("tip_x", "tip_y", "theta_L", "theta_s_L", "delta_l", "gamma",
                "lambda_pre", "lambda_post", "t_rot", "t_x", "t_y",
                "u_bend", "g_pot", "command")}
    s_shape = shape_grid(model.length)
    phi_shape = basis.eval(s_shape)
    shape_rows = []

    def record(idx, st, gam, prev=None):
        """Store st; prev is the state the step to st started from."""
        theta = asm.phi @ st.c
        theta_t = asm.phi @ st.c_t
        theta_s = asm.dphi @ st.c
        t_s[idx] = st.t
        states[idx] = st.c
        rates[idx] = st.c_t
        accels[idx] = st.c_tt_last
        sc = scalars
        sc["tip_x"][idx] = grid.integrate(np.cos(theta))
        sc["tip_y"][idx] = grid.integrate(np.sin(theta))
        theta_l = float(asm.phi_L @ st.c)
        sc["theta_L"][idx] = theta_l
        sc["theta_s_L"][idx] = float(asm.dphi_L @ st.c)
        sc["delta_l"][idx] = tendon_displacement(theta, theta_l, model, grid)
        sc["gamma"][idx] = gam
        if prev is not None:
            # diagnostics on the pre-step state, with the command at the step's end
            sc["lambda_pre"][idx] = lambda_boundary(float(asm.dphi_L @ prev.c), asm)
            if profile.mode == DISPLACEMENT:
                sc["lambda_post"][idx] = _substituted_multiplier(
                    prev.c, profile.value(st.t), asm, options.lambda_epsilon)
        en = compute_energies(theta, theta_t, theta_s, model, grid)
        sc["t_rot"][idx] = en.t_rot
        sc["t_x"][idx] = en.t_x
        sc["t_y"][idx] = en.t_y
        sc["u_bend"][idx] = en.u_bend
        sc["g_pot"][idx] = en.g_pot
        sc["command"][idx] = profile.value(st.t)
        if idx % options.shape_stride == 0 or idx == n_samples - 1:
            shape_rows.append((st.t, phi_shape @ st.c))

    state = ModalState.rest(m)
    gam0 = gamma(0.0, state, asm, profile, options)
    record(0, state, gam0)

    compute_seconds = 0.0
    nc_step = None
    nc_reason = ""
    sample_idx = 0
    for k in range(1, n_steps + 1):
        prev = state
        tic = time.perf_counter()
        try:
            state, gam = _advance(prev, asm, profile, options)
        except SolverFault as fault:
            compute_seconds += time.perf_counter() - tic
            fault.step = k
            nc_step = k
            nc_reason = str(fault)
            break
        compute_seconds += time.perf_counter() - tic
        theta_l = asm.phi_L @ state.c
        bad = (not np.all(np.isfinite(state.c))
               or np.max(np.abs(theta_l)) > NC_ANGLE_LIMIT)
        if bad:
            nc_step = k
            nc_reason = divergence_reason(theta_l)
            break
        if k % stride == 0:
            sample_idx += 1
            record(sample_idx, state, gam, prev)

    used = sample_idx + 1
    shape_t = np.array([row[0] for row in shape_rows])
    shape_theta = (np.vstack([row[1] for row in shape_rows])
                   if shape_rows else np.zeros((0, s_shape.size)))
    shape_x = cumtrapz(np.cos(shape_theta), s_shape) if shape_theta.size else shape_theta
    shape_y = cumtrapz(np.sin(shape_theta), s_shape) if shape_theta.size else shape_theta
    return SimulationRecord(
        scenario_id=scenario_id, solver="galerkin", mode=profile.mode,
        fidelity=options.fidelity,
        t=t_s[:used], states=states[:used], rates=rates[:used], accels=accels[:used],
        tip_x=scalars["tip_x"][:used], tip_y=scalars["tip_y"][:used],
        theta_L=scalars["theta_L"][:used], theta_s_L=scalars["theta_s_L"][:used],
        delta_l=scalars["delta_l"][:used], gamma=scalars["gamma"][:used],
        lambda_pre=scalars["lambda_pre"][:used], lambda_post=scalars["lambda_post"][:used],
        t_rot=scalars["t_rot"][:used], t_x=scalars["t_x"][:used], t_y=scalars["t_y"][:used],
        u_bend=scalars["u_bend"][:used], g_pot=scalars["g_pot"][:used],
        shape_t=shape_t, shape_s=s_shape, shape_theta=shape_theta,
        shape_x=shape_x, shape_y=shape_y,
        compute_seconds=compute_seconds, nc_step=nc_step, nc_reason=nc_reason,
        command=scalars["command"][:used],
    )
