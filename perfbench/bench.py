"""Workloads, timed passes and end-to-end metrics of the cdcrdyn benchmark.

Every workload runs in one process as a closed loop: each solver run starts
after the previous one returns.  A *pass* runs every run of the workload once
(set-up, solve, post-processing, file I/O, output checks) and then drives the
modal solver through the public ``step()`` in a closed loop from rest, one
call per controller tick, over each run's horizon, STEP_REPEATS times.
Passes repeat until the time budget is spent.

The seed draws each scenario's input amplitude (a scale of the builtin
profile), the run order and, in ``sweep_io``, which run gets which modal
order and fidelity.  The solver receives only the generated ``Scenario`` and
``ActuationProfile`` objects.
"""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import tempfile
from dataclasses import dataclass, field, replace

import numpy as np

import cdcrdyn as cd
from spans import NullTracer, Tracer, clock

DT = 1e-3                    # modal step: the SolverOptions default
M_DEFAULT = 6
SD_NODES, SD_DT = 201, 2e-4  # the acceptance-3/4 SD settings
SCALE_RANGE = (0.98, 1.02)   # input-amplitude scale drawn per scenario
ACCEPT3_TIP_RMSE = 0.05      # acceptance-3 limit, share of the rod length
# The CSVs keep 9 significant digits: each value is rounded by at most 5e-9
# of its size, so a read-back may differ by up to CSV_REL of the largest
# value it carries (twice that rounding, for the tip's hypot and the RMS).
CSV_REL = 1e-8

# Time-step error probe.  A force jump at t = 0 rings the stiffest mode for
# about 0.15 s, and no affordable reference step resolves that ring (halving
# dt/8 moves the tip by ~18% of the error there), so the error is read after
# it has decayed.  dt/8 is the coarsest reference for which halving moves a
# first-order solution by < 1/10 of the error: (1/16) / (7/8) = 0.071.
TIP_WINDOW = (0.2, 0.25)     # s
TIP_REF_DIV = 8

FORCE_IDS = tuple(f"case{c}_{k}" for c in (1, 2, 3)
                  for k in ("linear", "sinusoid", "step"))
DISP_IDS = ("case4_classic", "case4_taper", "caseA", "caseB", "caseC", "caseD")
CROSS_IDS = ("case1_linear", "case1_sinusoid", "case2_linear",
             "case2_sinusoid", "case3_linear", "case3_sinusoid")
# geometry case behind each builtin scenario (see cdcrdyn.builtin_suite)
CASE_OF = {**{sid: sid.split("_")[0] for sid in FORCE_IDS},
           "case4_classic": "case4", "case4_taper": "case2",
           "caseA": "case1", "caseB": "case1", "caseC": "case1", "caseD": "case1"}

# Horizon [s] per workload (why each exists: BENCHMARK.json).  Horizons are
# cut from the builtin 3-5 s so that a run repeats each pass 10-20 times; the
# step-latency metric needs that many repetitions of every call (end_to_end).
WORKLOADS = {
    "force_long": 0.2,   # stepping ~75% of the solve phase: the assembly kernel
    "disp_track": 0.2,   # plus KKT solve, profile calls, multiplier diagnostics
    "sweep_io": 0.05,    # set-up, stride-1 recording and file I/O dominate
    "sd_oracle": 0.03,   # SD at N=201: ~1 ms per SD step, 5 SD steps per modal one
}
SWEEP_M = (4, 6, 8, 10)
# closed step() loops per run and pass, each from rest.  More loops per pass
# bunch a call's repetitions in time, and a busy spell of the host then
# covers all of them; three per pass, over 10-20 passes, held steadiest.
STEP_REPEATS = 3
MIN_PASSES = 3               # even when --seconds is spent sooner


@dataclass
class RunSpec:
    scenario: cd.Scenario     # options carry m, dt, stride, fidelity, horizon
    case: str
    solver: str = "galerkin"  # or "sd"
    io: bool = False


@dataclass
class Workload:
    name: str
    runs: list
    probes: list              # scenarios behind tip_err_mm
    tip_window: tuple         # s, where the tip error is read


def _scaled_profile(profile, k):
    return replace(profile, slope=k * profile.slope, offset=k * profile.offset,
                   amplitude=k * profile.amplitude,
                   hold_value=k * profile.hold_value)


def build_workload(name: str, seed: int, horizon_scale: float = 1.0) -> Workload:
    """Generate a workload's runs from the seed (same seed, same inputs)."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    rng = np.random.default_rng(seed)
    horizon = WORKLOADS[name] * horizon_scale
    ids = {"force_long": FORCE_IDS, "disp_track": DISP_IDS,
           "sweep_io": FORCE_IDS + DISP_IDS, "sd_oracle": CROSS_IDS}[name]
    suite = {s.id: s for s in cd.builtin_suite()}
    order = [ids[i] for i in rng.permutation(len(ids))]
    profiles = {sid: _scaled_profile(suite[sid].profile, rng.uniform(*SCALE_RANGE))
                for sid in order}

    def scenario(sid, h, **opts):
        base = suite[sid]
        options = replace(base.options, t_end=h, dt=DT, **opts)
        return cd.Scenario(id=sid, model=base.model, profile=profiles[sid],
                           horizon=h, options=options)

    runs = []
    if name == "sweep_io":
        # a fixed multiset of modal orders per pass keeps set-up cost per
        # pass independent of the seed; the seed assigns them to scenarios
        ms = [SWEEP_M[i % len(SWEEP_M)] for i in range(len(order))]
        ms = [ms[i] for i in rng.permutation(len(ms))]
        # literal fidelity alternates over the force-input runs only: with
        # displacement input it diverges within 40 steps at m >= 8
        flip = int(rng.integers(2))
        for i, sid in enumerate(order):
            literal = sid in FORCE_IDS and (order.index(sid) + flip) % 2 == 0
            fid = "literal" if literal else "consistent"
            runs.append(RunSpec(scenario(sid, horizon, m=ms[i], fidelity=fid,
                                         output_stride=1), CASE_OF[sid], io=True))
    else:
        for sid in order:
            sc = scenario(sid, horizon, m=M_DEFAULT, output_stride=10,
                          sd_nodes=SD_NODES, sd_dt=SD_DT)
            runs.append(RunSpec(sc, CASE_OF[sid]))
            if name == "sd_oracle":
                runs.append(RunSpec(sc, CASE_OF[sid], solver="sd"))
    window = tuple(t * horizon_scale for t in TIP_WINDOW)
    probes = [scenario(sid, window[1], m=M_DEFAULT, fidelity="consistent",
                       output_stride=10) for sid in sorted(profiles)]
    return Workload(name, runs, probes, window)


# -- one pass ------------------------------------------------------------------


@dataclass
class RunOutcome:
    spec: RunSpec
    record: object = None        # kept for the latest traced pass only
    asm: object = None
    setup: float = 0.0
    sim_wall: float = 0.0
    block: float = 0.0           # the run's share of the pass wall
    compute: float = 0.0         # record.compute_seconds
    samples: int = 0
    span_id: int | None = None   # the solver-call span, when traced
    failed: bool = False
    reason: str = ""


@dataclass
class PassResult:
    wall: float = 0.0            # solve phase: set-up, solve, post, I/O, checks
    total: float = 0.0           # solve phase plus the step-latency loops
    runs: list = field(default_factory=list)
    latencies: list = field(default_factory=list)  # per repeat, every call
    step_loops: int = 0
    step_failures: int = 0
    bytes: int = 0
    gaps: dict = field(default_factory=dict)   # sid -> modal-vs-SD tip RMSE


def _finite(rec):
    return bool(np.all(np.isfinite(rec.states)) and np.all(np.isfinite(rec.tip_x))
                and np.all(np.isfinite(rec.tip_y)))


def _solve(spec, tr, tmpdir, res, index):
    sc, o = spec.scenario, spec.scenario.options
    out = RunOutcome(spec)
    try:
        if spec.solver == "galerkin":
            t0 = clock()
            model = tr.call("geometry.build_case_model", cd.build_case_model, spec.case)
            basis = tr.call("basis.ModalBasis", cd.ModalBasis, o.m, model.length,
                            o.basis_kind)
            grid = tr.call("basis.make_quadrature", cd.make_quadrature, o.panels,
                           o.points_per_panel, model.length)
            out.asm = tr.call("galerkin.make_assembly", cd.make_assembly, model,
                              basis, grid, o.damping_model)
            t1 = clock()
            out.setup = t1 - t0
            out.record = tr.call("galerkin.simulate", cd.simulate, model, sc.profile,
                                 o, sc.id, assembly=out.asm)
            out.sim_wall = clock() - t1
        else:
            # sd_simulate builds its own workspace; this timed copy of that
            # build is the SD set-up and stays out of the pass wall
            t0 = clock()
            tr.call("sdsolver.SDWorkspace", cd.SDWorkspace, sc.model, o.sd_nodes,
                    o.damping_model)
            out.setup = clock() - t0
            t1 = clock()
            out.record = tr.call("sdsolver.sd_simulate", cd.sd_simulate, sc.model,
                                 sc.profile, o, sc.id)
            out.sim_wall = clock() - t1
    except cd.SolverFault as fault:
        out.failed, out.reason = True, f"SolverFault: {fault}"
        return out
    if getattr(tr, "spans", None):
        out.span_id = len(tr.spans) - 1
    rec = out.record
    out.compute, out.samples = rec.compute_seconds, rec.t.size
    if not rec.ok:
        out.failed, out.reason = True, f"non-converged at step {rec.nc_step}"
    elif not _finite(rec):
        out.failed, out.reason = True, "non-finite state"
    elif spec.io:
        path = os.path.join(tmpdir, f"{index:03d}_{sc.id}.csv")
        svg = path[:-4] + ".svg"
        tr.call("recordio.write_record_csv", cd.write_record_csv, rec, path)
        shapes = tr.call("recordio.record_shapes", cd.record_shapes, rec)
        tr.call("recordio.write_shape_svg", cd.write_shape_svg, shapes, svg,
                sc.model.length)
        back = tr.call("recordio.read_record_csv", cd.read_record_csv, path)
        back.scenario_id = rec.scenario_id
        cmp = tr.call("scenarios.compare_records", cd.compare_records, rec, back)
        for p in (path, path[:-4] + "_shapes.csv", svg):
            res.bytes += os.path.getsize(p)
        tip_tol = CSV_REL * max(1.0, float(np.max(np.abs(rec.tip_x), initial=0.0)),
                                float(np.max(np.abs(rec.tip_y), initial=0.0)))
        shape_tol = CSV_REL * max(1.0, float(np.max(np.abs(rec.shape_theta), initial=0.0)))
        if not (cmp["tip_max"] <= tip_tol and cmp["shape_rmse"] <= shape_tol):
            out.failed, out.reason = True, f"CSV read-back differs: {cmp}"
    return out


def run_pass(wl: Workload, tr, tmpdir: str, number: int = 0) -> PassResult:
    res = PassResult()
    t_start = clock()
    with tr.span("pass"):
        for i, spec in enumerate(wl.runs):
            t_run = clock()
            with tr.span("run:" + spec.scenario.id, run_id=f"{number}/{spec.solver}:{i}"):
                out = _solve(spec, tr, tmpdir, res, i)
            res.runs.append(out)
            if spec.solver == "sd" and not out.failed:
                modal = res.runs[-2]
                if not modal.failed:
                    with tr.span("oracle:" + spec.scenario.id):
                        cmp = tr.call("scenarios.compare_records", cd.compare_records,
                                      modal.record, out.record)
                    res.gaps[spec.scenario.id] = cmp["tip_rmse"]
                    limit = ACCEPT3_TIP_RMSE * spec.scenario.model.length
                    if not cmp["tip_rmse"] <= limit:
                        out.failed = True
                        out.reason = f"SD gap {cmp['tip_rmse']:.3e} m > {limit:.3e} m"
            # sd_simulate rebuilds the workspace timed as SD set-up
            out.block = clock() - t_run - (out.setup if spec.solver == "sd" else 0.0)
        res.wall = sum(o.block for o in res.runs)
        for r in range(STEP_REPEATS):
            loops = []
            for i, out in enumerate(res.runs):
                if out.spec.solver != "galerkin" or out.asm is None:
                    continue
                sc, o = out.spec.scenario, out.spec.scenario.options
                res.step_loops += 1
                lat = np.empty(int(round(sc.horizon / o.dt)))
                with tr.span("steploop:" + sc.id, run_id=f"{number}/step{r}:{i}"):
                    state = cd.ModalState.rest(o.m)
                    try:
                        for k in range(lat.size):
                            t0 = clock()
                            state = tr.call("galerkin.step", cd.step, state, out.asm,
                                            sc.profile, o)
                            lat[k] = clock() - t0
                    except cd.SolverFault:
                        res.step_failures += 1
                        lat = lat[:k]
                loops.append(lat)
            res.latencies.append(np.concatenate(loops))
    res.total = clock() - t_start
    return res


# -- time-step error -------------------------------------------------------------


def tip_error(wl: Workload):
    """Max tip error of the workload's scenarios at DT against dt/8.

    Compared on the workload's tip window.  The scenario with the largest
    error is run again at dt/16; that must move its tip by less than a tenth
    of the error.
    """
    lo = wl.tip_window[0]

    def run(sc, div):
        o = replace(sc.options, dt=sc.options.dt / div,
                    output_stride=sc.options.output_stride * div)
        return cd.simulate(sc.model, sc.profile, o, scenario_id=sc.id)

    def dist(a, b):
        keep = a.t >= lo - 1e-9
        return float(np.max(np.hypot(a.tip_x - b.tip_x, a.tip_y - b.tip_y)[keep]))

    worst = (-1.0, None, None)
    for sc in wl.probes:
        rec, ref = run(sc, 1), run(sc, TIP_REF_DIV)
        if not (rec.ok and ref.ok):
            raise cd.SolverFault(f"tip-error probe of {sc.id} did not converge")
        err = dist(rec, ref)
        if err > worst[0]:
            worst = (err, sc, ref)
    err, sc, ref = worst
    move = dist(ref, run(sc, 2 * TIP_REF_DIV))
    return {"tip_err_m": err, "worst": sc.id, "halving_move_m": move,
            "converged": move < 0.1 * err,
            "ref_dt": DT / TIP_REF_DIV, "check_dt": DT / (2 * TIP_REF_DIV),
            "window_s": list(wl.tip_window)}


# -- statistics --------------------------------------------------------------------


def dist_summary(samples):
    """Median and the highest percentile with at least ten samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    out = {"median": statistics.median(xs) if n else float("nan"), "n": n}
    if n >= 11:
        out[f"p{100 * (n - 10) / n:.4g}"] = xs[n - 11]
    return out


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- the measurement --------------------------------------------------------------


def measure(wl: Workload, seconds: float, trace: bool, workdir: str):
    """Warm up, then run passes until ``seconds`` is spent.

    With ``trace`` the passes alternate untraced and traced, so the traced
    passes can be compared with the untraced ones for the tracing overhead.
    """
    tmpdir = tempfile.mkdtemp(prefix="io-", dir=workdir)
    try:
        warm = build_workload(wl.name, 0, horizon_scale=0.5)
        run_pass(warm, NullTracer(), tmpdir)
        tracer = Tracer() if trace else None
        plain, traced = [], []
        t0 = clock()
        while len(plain) + len(traced) < MIN_PASSES or clock() - t0 < seconds:
            number = len(plain) + len(traced)
            if trace and len(plain) > len(traced):
                if traced:
                    _release(traced[-1])
                traced.append(run_pass(wl, tracer, tmpdir, number))
            else:
                plain.append(_release(run_pass(wl, NullTracer(), tmpdir, number)))
        return plain, traced, tracer, tmpdir
    except BaseException:
        shutil.rmtree(tmpdir, ignore_errors=True)
        raise


def _release(res):
    """Drop a finished pass's records, so memory does not grow with passes."""
    for out in res.runs:
        out.record = out.asm = None
    return res


def count_outcomes(passes):
    attempted = failed = 0
    reasons = []
    for p in passes:
        attempted += len(p.runs) + p.step_loops
        failed += p.step_failures
        for out in p.runs:
            if out.failed:
                failed += 1
                reasons.append(f"{out.spec.solver}:{out.spec.scenario.id}: {out.reason}")
    return attempted, failed, reasons


def _best(per_pass):
    """Each unit's fastest repetition: per_pass[k][i] -> min over passes k."""
    return np.min(np.array(per_pass, dtype=float), axis=0)


def end_to_end(wl: Workload, passes, tip):
    """End-to-end metrics from untraced passes: {name: (value, unit, detail)}.

    Every pass repeats the same runs and the same step() calls on the same
    inputs.  On a shared machine a repetition can only be slowed by other
    load, so each run and each call is timed by its fastest repetition, and
    the timings are built from those; the medians over passes, which also
    carry the machine's load, are kept in the details.  Only the call-level
    figure is fine-grained enough to hold steady from run to run on a busy
    two-core host; BENCHMARK.json gates setup_s, step_us_p50, tip_err_mm and
    peak_rss_mb, and the rest is reported.
    """
    def raw(values):
        return {"median_over_passes": statistics.median(values), **dist_summary(values)}

    horizon = sum(o.spec.scenario.horizon for o in passes[0].runs)
    setups = _best([[o.setup for o in p.runs] for p in passes])
    blocks = _best([[o.block for o in p.runs] for p in passes])
    sims = _best([[o.sim_wall for o in p.runs] for p in passes])
    calls = [lat * 1e6 for p in passes for lat in p.latencies]
    if len({c.size for c in calls}) == 1:
        per_call = _best(calls)
    else:                      # a step loop failed: no call-by-call match
        per_call = np.concatenate(calls)
    pooled = np.concatenate(calls)
    m = {
        "setup_s": (float(np.mean(setups)), "s",
                    raw([statistics.fmean(o.setup for o in p.runs) for p in passes])),
        "wall_s": (float(blocks.sum()), "s", raw([p.wall for p in passes])),
        "rtf": (horizon / float(sims.sum()), "sim-s/wall-s",
                raw([horizon / sum(o.sim_wall for o in p.runs) for p in passes])),
        "step_us_p50": (float(np.percentile(per_call, 50)), "us",
                        {"pooled_p50": float(np.percentile(pooled, 50)),
                         **dist_summary(per_call.tolist())}),
        "step_us_p99": (float(np.percentile(per_call, 99)), "us",
                        {"pooled_p99": float(np.percentile(pooled, 99))}),
        "tip_err_mm": (tip["tip_err_m"] * 1e3, "mm", tip),
        "peak_rss_mb": (peak_rss_mb(), "MB", {}),
    }
    for key in ("setup_s", "wall_s", "rtf"):
        m[key][2]["passes"] = len(passes)
    if wl.name == "sd_oracle":
        m.update(sd_metrics(passes))
    return m


def sd_metrics(passes):
    """Acceptance-3/4 figures of sd_oracle (they exist on no other workload)."""
    t = {"sd": {}, "galerkin": {}}
    for p in passes:
        for o in p.runs:
            if not o.failed:
                t[o.spec.solver].setdefault(o.spec.scenario.id, []).append(o.compute)
    gains = []
    for sid, sd_times in t["sd"].items():
        if sid not in t["galerkin"]:
            continue
        t_sd = statistics.median(sd_times)
        t_gal = statistics.median(t["galerkin"][sid])
        gains.append((t_sd - t_gal) / t_sd)
    gaps = passes[0].gaps
    return {
        "speedup_vs_sd": (statistics.fmean(gains), "ratio",
                          {"per_scenario": dict(zip(t["sd"], gains))}),
        "sd_gap_mm": (max(gaps.values()) * 1e3, "mm",
                      {"per_scenario_mm": {k: v * 1e3 for k, v in gaps.items()}}),
    }
