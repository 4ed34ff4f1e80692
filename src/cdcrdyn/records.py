"""Simulation output record shared by both solvers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


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
