"""Planar cable-driven continuum robot dynamics.

Reduced-order modal solver with analytical per-step derivatives, a
finite-difference reference solver for the same governing PDE, and a
scenario/benchmark harness with CSV/SVG output.
"""

from .actuation import ActuationProfile, profile_from_csv, DISPLACEMENT, FORCE
from .basis import ModalBasis, QuadratureGrid, make_quadrature
from .config import (RunConfig, model_from_config, parse_config,
                     profile_from_config, scenario_from_config, serialize_config)
from .errors import ConfigurationError, DomainError, SolverFault
from .galerkin import (Assembly, ModalState, SolverOptions, assemble_K,
                       assemble_fQ, assemble_h, assemble_mass,
                       assemble_state_fields, make_assembly, simulate, step)
from .geometry import (DistributedLoad, GeometryProfile, MaterialParams,
                       RobotModel, build_case_model, derived_density, GRAVITY)
from .kinematics import (BackboneShape, EnergyBreakdown, compute_energies,
                         lambda_boundary, lambda_substituted, tendon_displacement)
from .records import SimulationRecord
from .recordio import (format_benchmark_table, read_record_csv, record_shapes,
                       write_benchmark_csv, write_record_csv, write_shape_svg)
from .scenarios import (Scenario, SpeedupReport, builtin_suite, compare_records,
                        run_benchmark, run_scenario, scenario_by_id, speedup)
from .sdsolver import GridState, SDWorkspace, TrapezoidGrid, pde_accel, sd_simulate

__version__ = "0.1.0"

__all__ = [
    "ActuationProfile", "profile_from_csv", "FORCE", "DISPLACEMENT",
    "ModalBasis", "QuadratureGrid", "make_quadrature", "RunConfig",
    "model_from_config", "parse_config", "profile_from_config",
    "scenario_from_config", "serialize_config", "ConfigurationError",
    "DomainError", "SolverFault", "Assembly", "ModalState", "SolverOptions",
    "assemble_K", "assemble_fQ", "assemble_h", "assemble_mass",
    "assemble_state_fields", "lambda_boundary", "lambda_substituted",
    "make_assembly", "simulate", "step", "DistributedLoad", "GeometryProfile",
    "MaterialParams", "RobotModel", "build_case_model", "derived_density",
    "GRAVITY", "BackboneShape", "EnergyBreakdown", "compute_energies",
    "tendon_displacement", "SimulationRecord",
    "format_benchmark_table", "read_record_csv", "record_shapes",
    "write_benchmark_csv", "write_record_csv", "write_shape_svg", "Scenario",
    "SpeedupReport", "builtin_suite", "compare_records", "run_benchmark",
    "run_scenario", "scenario_by_id", "speedup", "GridState", "SDWorkspace",
    "TrapezoidGrid", "pde_accel", "sd_simulate",
]
