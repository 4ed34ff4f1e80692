"""Per-layer metrics of the traced run, and where each should show end to end.

The layers are the modules of ``cdcrdyn``.  Calls the benchmark makes itself
(set-up, solver calls, I/O, comparisons) are timed from their spans in the
traced passes.  Calls that happen inside ``simulate`` are timed by replaying
the recorded states (``record.states``, ``rates``, ``accels``) through the
public function from outside.  A workload that never calls a layer gets that
layer's per-call cost replayed on its own records, so every metric exists on
every workload; the trace-accounting shares show whether the layer counts
there at all.
"""

from __future__ import annotations

import os
import statistics
from collections import defaultdict

import numpy as np

import cdcrdyn as cd
from bench import SD_DT, SD_NODES, dist_summary
from spans import END, NAME, PARENT, START, account, clock, layer_of, within

REPLAY_STATES = 12     # recorded states replayed per record

# metric -> (unit, better, what is timed or counted, should move ... on ...)
PER_LAYER = {
    "basis.modal_basis_ms": ("ms", "lower", "ModalBasis(m, L), exact-rational Gram-Schmidt",
                             "setup_s on all workloads; wall_s on sweep_io"),
    "basis.quadrature_ms": ("ms", "lower", "make_quadrature(16, 5, L)",
                            "setup_s on all workloads; wall_s on sweep_io"),
    "geometry.build_case_model_ms": ("ms", "lower", "build_case_model(case)",
                                     "setup_s on all workloads; wall_s on sweep_io"),
    "geometry.eval_scalar_us": ("us", "lower", "RobotModel.eval_I(L) / eval_W(L) at a scalar",
                                "step_us_p50 and rtf on disp_track, less on force_long"),
    "actuation.value_us": ("us", "lower", "profile.value(t), plus rate/accel in displacement mode",
                           "step_us_p50 on disp_track"),
    "galerkin.make_assembly_ms": ("ms", "lower", "make_assembly",
                                  "setup_s; wall_s on sweep_io"),
    "galerkin.assemble_state_fields_us": ("us", "lower", "assemble_state_fields on recorded states",
                                          "step_us_p50, rtf, wall_s on force_long and disp_track"),
    "galerkin.asf_gflops": ("GFLOP/s", "higher", "computed flops of one assemble_state_fields call / its time",
                            "per-call overhead bound when low; as assemble_state_fields_us"),
    "galerkin.step_us": ("us", "lower", "step() replayed from recorded ModalStates",
                         "step_us_p50 on force_long and disp_track"),
    "galerkin.step_self_us": ("us", "lower", "step_us - assemble_state_fields_us, same states",
                              "step_us_p50 on disp_track more than on force_long"),
    "galerkin.loop_s": ("s", "lower", "sum of record.compute_seconds per pass",
                        "rtf on force_long and disp_track"),
    "galerkin.record_s": ("s", "lower", "simulate wall - compute_seconds per pass",
                          "wall_s on sweep_io; no move in step_us_* anywhere"),
    "galerkin.steps": ("count", "lower", "modal steps per pass (exact)",
                       "must not move unless dt changes"),
    "galerkin.samples": ("count", "lower", "modal output samples per pass (exact)",
                         "must not move unless the output stride changes"),
    "kinematics.compute_energies_us": ("us", "lower", "compute_energies on recorded states",
                                       "wall_s on sweep_io"),
    "kinematics.tendon_displacement_us": ("us", "lower", "tendon_displacement on recorded states",
                                          "wall_s on sweep_io"),
    "sdsolver.workspace_ms": ("ms", "lower", "SDWorkspace(model, 201)",
                              "setup_s on sd_oracle"),
    "sdsolver.assemble_us": ("us", "lower", "SDWorkspace.assemble(theta, theta_t, dt) on recorded states",
                             "speedup_vs_sd on sd_oracle (denominator)"),
    "sdsolver.pde_accel_us": ("us", "lower", "pde_accel: assemble plus the dense N x N solve",
                              "speedup_vs_sd on sd_oracle (denominator)"),
    "sdsolver.steps": ("count", "lower", "SD steps per pass (exact)",
                       "must not move under modal-only changes"),
    "recordio.write_csv_ms": ("ms", "lower", "write_record_csv per record",
                              "wall_s on sweep_io only"),
    "recordio.write_svg_ms": ("ms", "lower", "record_shapes + write_shape_svg per record",
                              "wall_s on sweep_io only"),
    "recordio.read_csv_ms": ("ms", "lower", "read_record_csv per record",
                             "wall_s on sweep_io only"),
    "recordio.bytes": ("count", "lower", "bytes written per pass (exact)",
                       "wall_s on sweep_io only"),
    "scenarios.compare_records_ms": ("ms", "lower", "compare_records per call",
                                     "wall_s on sweep_io and sd_oracle (small)"),
    "trace.overhead_pct": ("%", "lower", "traced minus untraced pass wall, share of untraced",
                           "nothing end to end; a check on the per-layer figures"),
}

# sd_oracle only: no other workload runs the SD loop
SD_ONLY = {
    "sdsolver.loop_s": ("s", "sum of SD compute_seconds per pass", "speedup_vs_sd; not under modal-only changes"),
    "sdsolver.post_s": ("s", "SD wall - compute_seconds per pass", "speedup_vs_sd; not under modal-only changes"),
}


def asf_flops(n: int, m: int, drag: bool) -> int:
    """Multiply-adds of assemble_state_fields counted from array shapes.

    Four n x n cumulative passes on n x m blocks (8 n^2 m), four on vectors
    (8 n^2), the two m x n x m coupling products (4 n m^2), drag damping
    (4 n m^2) and the O(n m) / O(n) elementwise work.
    """
    flops = 8 * n * n * m + 8 * n * n + 4 * n * m * m + 12 * n * m + 20 * n + 3 * m * m
    if drag:
        flops += 4 * n * m * m + 2 * n * m + 2 * m * m
    return flops


def _timed(tr, samples, name, fn, *args, key=None):
    """Call through the tracer and keep the call's duration as a sample."""
    out = tr.call(name, fn, *args)
    span = tr.spans[-1]
    samples[key or name].append(span[END] - span[START])
    return out


def replay(tr, outcomes, tmpdir, samples, need_io, need_compare):
    """Time in-solver calls on recorded states; fills ``samples`` (seconds)."""
    workspaces = {}
    for i, out in enumerate(outcomes):
        rec, sc = out.record, out.spec.scenario
        if rec is None:
            continue
        model, o, prof = sc.model, sc.options, sc.profile
        picks = np.unique(np.linspace(0, rec.t.size - 1, REPLAY_STATES).astype(int))
        if out.spec.case not in workspaces:
            workspaces[out.spec.case] = _timed(tr, samples, "sdsolver.SDWorkspace",
                                               cd.SDWorkspace, model, SD_NODES,
                                               o.damping_model)
        ws = workspaces[out.spec.case]
        L = model.length
        calls = ((prof.value, prof.rate, prof.accel) if prof.mode == cd.DISPLACEMENT
                 else (prof.value,))
        for j in picks:
            _timed(tr, samples, "geometry.eval_I", model.eval_I, L)
            _timed(tr, samples, "geometry.eval_W", model.eval_W, L)
            t = float(rec.t[j])
            for fn in calls:
                _timed(tr, samples, "actuation." + fn.__name__, fn, t)
            samples["actuation.per_step"].append(
                sum(samples["actuation." + fn.__name__][-1] for fn in calls))
            if out.spec.solver == "galerkin":
                asm = out.asm
                c, c_t = rec.states[j], rec.rates[j]
                theta, theta_t, theta_s = asm.phi @ c, asm.phi @ c_t, asm.dphi @ c
                _timed(tr, samples, "galerkin.assemble_state_fields",
                       cd.assemble_state_fields, theta, theta_t, asm)
                asf = samples["galerkin.assemble_state_fields"][-1]
                samples["galerkin.asf_flops_per_s"].append(
                    asf_flops(asm.grid.nodes.size, c.size, asm.damping_model == "drag") / asf)
                state = cd.ModalState(t, c.copy(), c_t.copy(), rec.accels[j].copy())
                # kept apart from the closed-loop step() spans of the passes
                _timed(tr, samples, "galerkin.step", cd.step, state, asm, prof, o,
                       key="galerkin.step:replay")
                samples["galerkin.step_self"].append(samples["galerkin.step:replay"][-1] - asf)
                _timed(tr, samples, "kinematics.compute_energies", cd.compute_energies,
                       theta, theta_t, theta_s, model, asm.grid)
                _timed(tr, samples, "kinematics.tendon_displacement",
                       cd.tendon_displacement, theta, float(asm.phi_L @ c), model, asm.grid)
                basis_sd = asm.basis.eval(ws.s)
                th_sd, tht_sd = basis_sd @ c, basis_sd @ c_t
            else:
                th_sd, tht_sd = rec.states[j], rec.rates[j]
            _timed(tr, samples, "sdsolver.assemble", ws.assemble, th_sd, tht_sd, SD_DT)
            source = (-2.0 if prof.mode == cd.FORCE else 2.0) * float(rec.gamma[j])
            _timed(tr, samples, "sdsolver.pde_accel", cd.pde_accel,
                   cd.GridState(t, th_sd, tht_sd), model, source, prof.mode, o, ws)
        if need_io:
            path = os.path.join(tmpdir, f"replay_{i:03d}.csv")
            _timed(tr, samples, "recordio.write_record_csv", cd.write_record_csv, rec, path)
            shapes = _timed(tr, samples, "recordio.record_shapes", cd.record_shapes, rec)
            _timed(tr, samples, "recordio.write_shape_svg", cd.write_shape_svg, shapes,
                   path[:-4] + ".svg", L)
            samples["recordio.svg"].append(samples["recordio.record_shapes"][-1]
                                           + samples["recordio.write_shape_svg"][-1])
            _timed(tr, samples, "recordio.read_record_csv", cd.read_record_csv, path)
        if need_compare:
            _timed(tr, samples, "scenarios.compare_records", cd.compare_records, rec, rec)


def span_samples(spans):
    """Durations by span name, plus record_shapes + write_shape_svg per run."""
    samples = defaultdict(list)
    svg = defaultdict(float)
    for s in spans:
        d = s[END] - s[START]
        samples[s[NAME]].append(d)
        if s[NAME] in ("recordio.record_shapes", "recordio.write_shape_svg"):
            svg[s[PARENT]] += d
    samples["recordio.svg"] = list(svg.values())
    return samples


# timing metric -> (sample name, scale): the median of those call samples
FROM_SAMPLES = {
    "basis.modal_basis_ms": ("basis.ModalBasis", 1e3),
    "basis.quadrature_ms": ("basis.make_quadrature", 1e3),
    "geometry.build_case_model_ms": ("geometry.build_case_model", 1e3),
    "geometry.eval_scalar_us": ("geometry.eval_scalar", 1e6),
    "actuation.value_us": ("actuation.per_step", 1e6),
    "galerkin.make_assembly_ms": ("galerkin.make_assembly", 1e3),
    "galerkin.assemble_state_fields_us": ("galerkin.assemble_state_fields", 1e6),
    "galerkin.asf_gflops": ("galerkin.asf_flops_per_s", 1e-9),
    "galerkin.step_us": ("galerkin.step:replay", 1e6),
    "galerkin.step_self_us": ("galerkin.step_self", 1e6),
    "kinematics.compute_energies_us": ("kinematics.compute_energies", 1e6),
    "kinematics.tendon_displacement_us": ("kinematics.tendon_displacement", 1e6),
    "sdsolver.workspace_ms": ("sdsolver.SDWorkspace", 1e3),
    "sdsolver.assemble_us": ("sdsolver.assemble", 1e6),
    "sdsolver.pde_accel_us": ("sdsolver.pde_accel", 1e6),
    "recordio.write_csv_ms": ("recordio.write_record_csv", 1e3),
    "recordio.write_svg_ms": ("recordio.svg", 1e3),
    "recordio.read_csv_ms": ("recordio.read_record_csv", 1e3),
    "scenarios.compare_records_ms": ("scenarios.compare_records", 1e3),
}


def per_layer(plain, traced, tracer, tmpdir):
    """Per-layer metrics {name: value} and {name: sample distribution}."""
    samples = span_samples(within(tracer.spans, ("pass",)))
    has_io = bool(samples.get("recordio.write_record_csv"))
    has_cmp = bool(samples.get("scenarios.compare_records"))
    with tracer.span("replay"):
        replay(tracer, traced[-1].runs, tmpdir, samples,
               need_io=not has_io, need_compare=not has_cmp)
    samples["geometry.eval_scalar"] = samples["geometry.eval_I"] + samples["geometry.eval_W"]
    passes = plain + traced

    def per_pass(fn):
        values = [fn(p) for p in passes]
        return statistics.median(values), dist_summary(values)

    def ok(p, solver):
        return [o for o in p.runs if o.spec.solver == solver and not o.failed]

    def n_steps(outs):
        return sum(int(round(o.spec.scenario.horizon / (o.spec.scenario.options.dt
                   if o.spec.solver == "galerkin" else o.spec.scenario.options.sd_dt)))
                   for o in outs)

    out = {}
    for metric, (name, scale) in FROM_SAMPLES.items():
        xs = [x * scale for x in samples[name]]
        out[metric] = (statistics.median(xs), dist_summary(xs))
    out["galerkin.loop_s"] = per_pass(lambda p: sum(o.compute for o in ok(p, "galerkin")))
    out["galerkin.record_s"] = per_pass(
        lambda p: sum(o.sim_wall - o.compute for o in ok(p, "galerkin")))
    if ok(passes[0], "sd"):
        out["sdsolver.loop_s"] = per_pass(lambda p: sum(o.compute for o in ok(p, "sd")))
        out["sdsolver.post_s"] = per_pass(
            lambda p: sum(o.sim_wall - o.compute for o in ok(p, "sd")))
    exact = {"galerkin.steps": n_steps(ok(passes[0], "galerkin")),
             "galerkin.samples": sum(o.samples for o in ok(passes[0], "galerkin")),
             "sdsolver.steps": n_steps(ok(passes[0], "sd")),
             "recordio.bytes": passes[0].bytes}
    out.update((k, (v, {})) for k, v in exact.items())
    overhead = (statistics.median(p.total for p in traced)
                / statistics.median(p.total for p in plain) - 1.0) * 100.0
    out["trace.overhead_pct"] = (overhead, {"traced_passes": len(traced),
                                            "untraced_passes": len(plain)})
    return ({k: v for k, (v, _) in out.items()}, {k: d for k, (_, d) in out.items()})


def accounting(traced, tracer):
    """Self-time share of the traced wall per layer, for the traced passes.

    A solver call's self time is split into its stepping loop (the record's
    compute_seconds) and the rest (recording and post-processing).  The
    benchmark's own code is the uncovered residual.  Returns the traced wall,
    {row: s}, {layer: s}, and the same wall and rows for the solve phase
    alone (the runs, without the step-latency loops).
    """
    loops = {}
    for p in traced:
        for o in p.runs:
            if o.span_id is not None and not o.failed:
                loops[o.span_id] = o.compute
    passes = within(tracer.spans, ("pass",))
    wall, rows = account(passes, loops)
    by_layer = defaultdict(float)
    for name, secs in rows.items():
        by_layer[layer_of(name)] += secs
    solve = account(within(passes, ("run:", "oracle:")), loops)
    return wall, rows, dict(by_layer), solve


def split_check(workload, rows, wall):
    """The predicted split of the solve phase at the seed commit: (statement, holds)."""
    share = {k: v / wall for k, v in rows.items()}
    stepping = share.get("galerkin.loop", 0.0)
    if workload == "sd_oracle":
        sd = sum(v for k, v in share.items() if layer_of(k) == "sdsolver")
        return f"sdsolver {sd:.1%} of the solve phase > 50%", sd > 0.5
    if workload == "sweep_io":
        other = (sum(v for k, v in share.items() if layer_of(k) in ("basis", "geometry", "recordio"))
                 + share.get("galerkin.make_assembly", 0.0) + share.get("galerkin.simulate", 0.0))
        return (f"set-up + recording + recordio {other:.1%} of the solve phase > "
                f"stepping {stepping:.1%}", other > stepping)
    return f"galerkin stepping {stepping:.1%} of the solve phase > 50%", stepping > 0.5
