"""Named simulation scenarios, record comparison metrics and the benchmark.

The builtin suite covers the force-input studies on the three geometry
variants (linear, sinusoidal and step inputs each), the displacement-input
study on the uniform and tapered rods, and the four displacement profiles
used for hardware validation (slow ramp, step, ramp-plus-sinusoid and
decaying sinusoid).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .actuation import ActuationProfile, DISPLACEMENT
from .errors import ConfigurationError, SolverFault
from .galerkin import SolverOptions, simulate
from .geometry import RobotModel, build_case_model
from .records import SimulationRecord
from .sdsolver import sd_simulate

TWO_PI = 2.0 * math.pi
FORCE_HORIZON = 3.0
DISPLACEMENT_HORIZON = 5.0


@dataclass
class Scenario:
    id: str
    model: RobotModel
    profile: ActuationProfile
    horizon: float
    options: SolverOptions

    def __post_init__(self):
        if not self.horizon > 0:
            raise ConfigurationError("scenario horizon must be positive")
        if self.options.fidelity == "literal" and self.profile.mode == DISPLACEMENT:
            raise ConfigurationError("literal fidelity takes force input only")
        self.options = replace(self.options, t_end=self.horizon)  # horizon is the only t_end


@dataclass
class ScenarioTiming:
    scenario_id: str
    t_ref: float | None       # SD wall-clock (None if non-converged)
    t_test: float | None      # Galerkin wall-clock
    speedup: float | None
    reason: str = ""          # why a non-converged scenario stopped


@dataclass
class SpeedupReport:
    rows: list
    mean_speedup: float | None


def _scenario(sid, case, profile, horizon, base: SolverOptions | None = None) -> Scenario:
    return Scenario(id=sid, model=build_case_model(case), profile=profile,
                    horizon=horizon, options=base or SolverOptions())


def builtin_suite(base_options: SolverOptions | None = None) -> list[Scenario]:
    """The full study set: 9 force runs, 2 displacement-study runs, 4 validation runs."""
    mk = ActuationProfile
    scen = []
    force_inputs = {
        "case1": [
            ("linear", mk.linear(1.0)),
            ("sinusoid", mk.offset_sinusoid(1.5, 0.3, TWO_PI, 1.0)),
            ("step", mk.step(3.0)),
        ],
        "case2": [
            ("linear", mk.linear(2.75)),
            ("sinusoid", mk.offset_sinusoid(5.0, 3.0, TWO_PI, 1.0)),
            ("step", mk.step(13.75)),
        ],
        "case3": [
            ("linear", mk.linear(3.16)),
            ("sinusoid", mk.offset_sinusoid(5.0, 3.0, TWO_PI, 1.0)),
            ("step", mk.step(8.0)),
        ],
    }
    for case, inputs in force_inputs.items():
        for name, prof in inputs:
            scen.append(_scenario(f"{case}_{name}", case, prof, FORCE_HORIZON, base_options))
    # displacement-input study: same ramp on the uniform and tapered rods
    ramp = mk.linear(0.048, -0.048, mode=DISPLACEMENT)
    scen.append(_scenario("case4_classic", "case4", ramp, FORCE_HORIZON, base_options))
    scen.append(_scenario("case4_taper", "case2", ramp, FORCE_HORIZON, base_options))
    # displacement validation profiles
    scen.append(_scenario("caseA", "case1", mk.linear(0.008, mode=DISPLACEMENT),
                          DISPLACEMENT_HORIZON, base_options))
    scen.append(_scenario("caseB", "case1", mk.step(0.14, mode=DISPLACEMENT),
                          DISPLACEMENT_HORIZON, base_options))
    scen.append(_scenario("caseC", "case1",
                          mk.ramp_then_sinusoid(0.04, 2.0, 0.08, 0.018, TWO_PI),
                          DISPLACEMENT_HORIZON, base_options))
    scen.append(_scenario("caseD", "case1",
                          mk.decaying_sinusoid(0.046, 0.12, 0.35, TWO_PI, 4.0, 0.046),
                          DISPLACEMENT_HORIZON, base_options))
    return scen


def scenario_by_id(sid: str, base_options: SolverOptions | None = None) -> Scenario:
    for scenario in builtin_suite(base_options):
        if scenario.id == sid:
            return scenario
    raise ConfigurationError(f"unknown scenario id {sid!r}")


def run_scenario(scenario: Scenario, solver: str = "galerkin") -> SimulationRecord:
    if solver == "galerkin":
        return simulate(scenario.model, scenario.profile, scenario.options,
                        scenario_id=scenario.id)
    if solver == "sd":
        return sd_simulate(scenario.model, scenario.profile, scenario.options,
                           scenario_id=scenario.id)
    raise ConfigurationError(f"unknown solver {solver!r}")


# -- comparison metrics -------------------------------------------------------


def compare_records(a: SimulationRecord, b: SimulationRecord):
    """Tip RMSE, max tip error and shape RMSE over the shared time support."""
    if a.scenario_id != b.scenario_id:
        raise ConfigurationError("records belong to different scenarios")
    lo = max(a.t[0], b.t[0])
    hi = min(a.t[-1], b.t[-1])
    if hi <= lo:
        raise ConfigurationError("records have disjoint time supports")
    times = np.unique(np.concatenate([a.t, b.t]))
    times = times[(times >= lo) & (times <= hi)]

    def tips(rec):
        return (np.interp(times, rec.t, rec.tip_x),
                np.interp(times, rec.t, rec.tip_y))

    ax, ay = tips(a)
    bx, by = tips(b)
    dist = np.hypot(ax - bx, ay - by)
    tip_rmse = float(np.sqrt(np.mean(dist**2)))
    tip_max = float(np.max(dist))

    shape_rmse = float("nan")
    if a.shape_theta.size and b.shape_theta.size and a.shape_s.size == b.shape_s.size:
        slo = max(a.shape_t[0], b.shape_t[0])
        shi = min(a.shape_t[-1], b.shape_t[-1])
        st = np.unique(np.concatenate([a.shape_t, b.shape_t]))
        st = st[(st >= slo) & (st <= shi)]
        if st.size:
            def shapes(rec):
                out = np.empty((st.size, rec.shape_s.size))
                for j in range(rec.shape_s.size):
                    out[:, j] = np.interp(st, rec.shape_t, rec.shape_theta[:, j])
                return out
            diff = shapes(a) - shapes(b)
            shape_rmse = float(np.sqrt(np.mean(diff**2)))
    return {"tip_rmse": tip_rmse, "tip_max": tip_max, "shape_rmse": shape_rmse}


def speedup(t_ref: float, t_test: float) -> float:
    """Normalized runtime reduction (t_ref - t_test) / t_ref."""
    if not t_ref > 0:
        raise ConfigurationError("reference time must be positive")
    return (t_ref - t_test) / t_ref


def run_benchmark(suite: list[Scenario], repeats: int = 3) -> SpeedupReport:
    """Median-of-repeats wall-clock comparison, Galerkin versus SD.

    The first repeat is discarded as warmup.  A diverged run marks the
    scenario as non-converged, keeps why it stopped on the row's ``reason``
    and excludes it from the mean.  Scenarios run sequentially; timing comes
    from each record's own compute clock, which excludes I/O and record
    handling.
    """
    if repeats < 3:
        raise ConfigurationError("benchmark needs at least 3 repeats")
    rows = []
    speedups = []
    for scenario in suite:
        medians = {}
        reason = ""
        for solver in ("sd", "galerkin"):
            times = []
            for _ in range(repeats):
                try:
                    rec = run_scenario(scenario, solver)
                except SolverFault as fault:
                    reason = f"{solver}: {fault}"
                    break
                if not rec.ok:
                    reason = f"{solver}: step {rec.nc_step}: {rec.nc_reason}"
                    break
                times.append(rec.compute_seconds)
            if reason:
                break
            medians[solver] = float(np.median(times[1:]))
        if reason:
            rows.append(ScenarioTiming(scenario.id, None, None, None, reason))
            continue
        gain = speedup(medians["sd"], medians["galerkin"])
        rows.append(ScenarioTiming(scenario.id, medians["sd"], medians["galerkin"], gain))
        speedups.append(gain)
    mean = float(np.mean(speedups)) if speedups else None
    return SpeedupReport(rows=rows, mean_speedup=mean)
