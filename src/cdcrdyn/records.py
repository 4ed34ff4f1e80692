"""Simulation output record and the stepping pieces shared by both solvers.

``run_loop`` drives a solver's one-step function: it times the steps, stops a
run at a SolverFault or at the non-convergence check, and keeps every
stride-th step's output.  Each solver then builds its ``SimulationRecord``
from the kept samples in one pass (``kinematics.sampled_record``).

``solve`` (force input) and ``constrained_solve`` (displacement input, the
Baumgarte-stabilized cable constraint; Baumgarte, 1972) are the acceleration
solves of both solvers' steps.  ``solve`` calls numpy's LAPACK ``gesv``
gufunc directly: on the modal step's 6 x 6 system ``np.linalg.solve`` spends
~3.5 of its ~5 us in its Python wrapper (array conversion, type promotion
and a per-call ``errstate``), ~12% of a force step.  The gufunc is the call
that wrapper makes, so every finite result has the same bits.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg._umath_linalg import solve as _gesv_matrix, solve1 as _gesv_vector

from .errors import SolverFault

NC_ANGLE_LIMIT = 1e3  # rad; beyond this a run is marked non-converged
CONSTRAINT_GAIN = 20.0  # 1/s; Baumgarte gain of the displacement-input constraint


def solve(lhs, rhs):
    """np.linalg.solve of float64 operands, a singular matrix raised as a SolverFault.

    ``rhs`` is a vector or an (m, k) matrix.  The gufunc runs under the
    caller's floating-point error state, not an ``np.errstate``, which would
    cost most of the saving: on a singular matrix LAPACK returns NaN and numpy
    emits one RuntimeWarning ("invalid value encountered in solve1").  A
    result that is not finite, or that warning raised as an error, re-solves
    through ``np.linalg.solve``: it raises the LinAlgError turned into the
    SolverFault here, or returns the same non-finite result.  (A finite
    result with entries above ~1e154 overflows the check, with numpy's
    overflow warning, and re-solves to the same result.)
    """
    try:
        x = (_gesv_vector if rhs.ndim == 1 else _gesv_matrix)(lhs, rhs, signature="dd->d")
        flat = x.ravel()
        if math.isfinite(flat.dot(flat)):       # any inf or nan makes it non-finite
            return x
    except (RuntimeWarning, FloatingPointError):
        pass
    try:
        return np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError as exc:
        raise SolverFault(f"singular system matrix: {exc}") from exc


def constrained_solve(lhs, rhs, load, w, command, w_x, w_v):
    """(a, lam) solving lhs a = rhs + lam load with w . a on the Baumgarte target.

    ``command`` is the commanded (value, rate, accel) at the step's end;
    ``w_x``, ``w_v`` are w . x and w . x_t at its start.
    """
    value, rate, accel = command
    alpha = CONSTRAINT_GAIN
    target = accel + 2.0 * alpha * (rate - w_v) + alpha * alpha * (value - w_x)
    sol = solve(lhs, np.array([rhs, load]).T)
    w_free, w_load = w.dot(sol).tolist()
    if abs(w_load) < 1e-30:
        raise SolverFault("degenerate cable-constraint direction")
    lam = (target - w_free) / w_load
    return sol[:, 0] + lam * sol[:, 1], lam


def divergence_reason(peak: float) -> str:
    """Why a peak |angle| failed the non-convergence check."""
    if not math.isfinite(peak):
        return "non-finite state"
    return f"angle limit exceeded: |theta| = {peak:.3g} rad > {NC_ANGLE_LIMIT:g} rad"


def run_loop(n_steps: int, stride: int, advance, peak):
    """Call advance(k) for k = 1..n_steps and keep every stride-th result.

    Only the advance calls are timed.  A SolverFault raised by advance stops
    the run with its message; after each step the float peak() the solver
    exposes (its largest |angle|) must be finite and within NC_ANGLE_LIMIT,
    or the run stops there.
    Returns (kept, compute_seconds, nc_step, nc_reason); nc_step is None and
    nc_reason empty when every step ran.
    """
    kept = []
    compute_seconds = 0.0
    for k in range(1, n_steps + 1):
        tic = time.perf_counter()
        try:
            out = advance(k)
        except SolverFault as fault:
            return kept, compute_seconds + time.perf_counter() - tic, k, str(fault)
        compute_seconds += time.perf_counter() - tic
        top = peak()
        if not top <= NC_ANGLE_LIMIT:       # a NaN fails the comparison too
            return kept, compute_seconds, k, divergence_reason(top)
        if k % stride == 0:
            kept.append(out)
    return kept, compute_seconds, None, ""


@dataclass
class SimulationRecord:
    scenario_id: str
    solver: str                 # "galerkin" | "sd"
    mode: str                   # "force" | "displacement"
    fidelity: str
    t: np.ndarray               # (S,)
    states: np.ndarray          # (S, dof): modal coefficients or nodal angles
    rates: np.ndarray           # (S, dof)
    accels: np.ndarray          # (S, dof)
    tip_x: np.ndarray
    tip_y: np.ndarray
    theta_L: np.ndarray
    theta_s_L: np.ndarray       # boundary slope as the solver enforces/sees it
    delta_l: np.ndarray         # tendon displacement reconstructed from the state
    gamma: np.ndarray           # boundary actuation coefficient actually applied
    lambda_pre: np.ndarray      # multiplier from the boundary form (diagnostic)
    lambda_post: np.ndarray     # multiplier from the constraint-substituted form
    t_rot: np.ndarray
    t_x: np.ndarray
    t_y: np.ndarray
    u_bend: np.ndarray
    g_pot: np.ndarray
    shape_t: np.ndarray         # (K,)
    shape_s: np.ndarray         # (P,)
    shape_theta: np.ndarray     # (K, P)
    shape_x: np.ndarray
    shape_y: np.ndarray
    compute_seconds: float = 0.0
    nc_step: int | None = None
    nc_reason: str = ""         # why the run stopped early; empty when it converged
    command: np.ndarray = field(default=None)  # commanded input series, if any

    @property
    def ok(self) -> bool:
        return self.nc_step is None

    @property
    def kinetic(self):
        return self.t_rot + self.t_x + self.t_y

    @property
    def mechanical(self):
        return self.kinetic + self.u_bend + self.g_pot
