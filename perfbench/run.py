"""Benchmark of the cdcrdyn solvers, end to end and per module.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload force_long --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one process
                                                     # (peak_rss_mb: process peak so far)

Workloads: force_long, disp_track, sweep_io, sd_oracle (see bench.WORKLOADS
and BENCHMARK.json).  ``--trace 0`` measures the end-to-end metrics with
tracing off; ``--trace 1`` alternates untraced and traced passes and reports
the per-layer metrics, the trace accounting and the tracing overhead.  Every
metric is printed by name with its unit; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.  Spans
and the full result are written under .perfbench_out/ in the checkout.  The
exit code is 0 when every output check passed, 1 when one failed and 2 when
the checkout has no cdcrdyn sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

# Small dense products dominate a modal step, and a second BLAS thread only
# adds hand-off cost and noise there, so the process pins BLAS to one thread
# before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"


def _git_commit():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def _blas_runtime_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if it says."""
    import ctypes
    import glob
    import numpy as np
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed, bench):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS, "blas_threads_runtime": _blas_runtime_threads(),
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
        "platform": platform.platform(), "seed": seed, "git_commit": _git_commit(),
        "dt": bench.DT, "sd_dt": bench.SD_DT, "sd_nodes": bench.SD_NODES,
        "m": {"sweep_io": list(bench.SWEEP_M), "other": bench.M_DEFAULT},
        "tip_ref_dt": bench.DT / bench.TIP_REF_DIV,
        "tip_check_dt": bench.DT / (2 * bench.TIP_REF_DIV),
        "tip_window_s": list(bench.TIP_WINDOW),
    }


def _fmt_detail(detail):
    flat = {}
    for k, v in detail.items():
        if isinstance(v, dict):
            flat.update((f"{k}.{kk}", vv) for kk, vv in v.items())
        elif not isinstance(v, list):
            flat[k] = v
    return ", ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                     for k, v in flat.items())


def run_workload(name, seed, seconds, trace, declared, horizon_scale=1.0):
    """Measure one workload; returns (contract result, full result)."""
    import bench
    import layers

    wl = bench.build_workload(name, seed, horizon_scale)
    tip = None if trace else bench.tip_error(wl)
    OUT.mkdir(exist_ok=True)
    plain, traced, tracer, tmpdir = bench.measure(wl, seconds, trace, str(OUT))
    try:
        attempted, failed, reasons = bench.count_outcomes(plain + traced)
        full = {"workload": name, "seed": seed, "trace": int(trace),
                "passes": {"untraced": len(plain), "traced": len(traced)},
                "failures": reasons}
        metrics = {}
        if trace:
            values, dists = layers.per_layer(plain, traced, tracer, tmpdir)
            wall, rows, by_layer, (solve_wall, solve_rows) = layers.accounting(traced, tracer)
            note, holds = layers.split_check(name, solve_rows, solve_wall)
            for key, value in values.items():
                unit, _, what, moves = (layers.PER_LAYER.get(key)
                                        or (layers.SD_ONLY[key][0], "", *layers.SD_ONLY[key][1:]))
                print(f"[{name}] {key} = {value:.6g} {unit}   ({_fmt_detail(dists[key])})"
                      f"  # {what} | should move: {moves}")
            print(f"[{name}] trace accounting: traced wall {wall:.4f} s over "
                  f"{len(traced)} traced passes; self time by layer:")
            for layer, secs in sorted(by_layer.items(), key=lambda kv: -kv[1]):
                print(f"[{name}]   {layer:<12} {secs:9.4f} s {100 * secs / wall:6.2f} %")
            print(f"[{name}]   (<layer>.loop is the solver's stepping loop, from "
                  "record.compute_seconds; the solver call's own row is the rest: "
                  "recording and post-processing)")
            for row, secs in sorted(rows.items(), key=lambda kv: -kv[1]):
                print(f"[{name}]     {row:<34} {secs:9.4f} s {100 * secs / wall:6.2f} %")
            print(f"[{name}] uncovered residual (benchmark code) "
                  f"{100 * by_layer.get('(benchmark)', 0.0) / wall:.2f} %; tracing overhead "
                  f"{values['trace.overhead_pct']:.2f} % of the untraced pass wall")
            print(f"[{name}] solve phase (runs without the step-latency loops): "
                  f"{solve_wall:.4f} s; predicted split: {note}: "
                  f"{'holds' if holds else 'DOES NOT HOLD'}")
            full.update(per_layer=values, distributions=dists, traced_wall_s=wall,
                        self_time_s=rows, self_time_by_layer_s=by_layer,
                        solve_phase_wall_s=solve_wall, solve_phase_self_time_s=solve_rows,
                        split_check={"statement": note, "holds": holds})
            tracer.write(OUT / f"spans-{name}-seed{seed}.json")
            for key, spec in declared["per_layer"].items():
                metrics[key] = {"value": values[key], "unit": spec["unit"]}
        else:
            attempted += 1   # the tip-error reference must pass its halving check
            if not tip["converged"]:
                reasons.append(f"tip_err reference not converged: {tip}")
                failed += 1
            e2e = bench.end_to_end(wl, plain, tip)
            for key, (value, unit, detail) in e2e.items():
                gate = "" if key in declared["end_to_end"] else "  [reported, not gated]"
                print(f"[{name}] {key} = {value:.6g} {unit}   ({_fmt_detail(detail)}){gate}")
            print(f"[{name}] fail_ratio = {failed / attempted:.6g} fraction ({failed}/{attempted})")
            full.update(end_to_end={k: {"value": v, "unit": u, "detail": d}
                                    for k, (v, u, d) in e2e.items()},
                        fail_ratio=failed / attempted)
            for key, spec in declared["end_to_end"].items():
                metrics[key] = {"value": e2e[key][0], "unit": spec["unit"]}
        for reason in reasons:
            print(f"[{name}] FAILED {reason}")
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    full["result"] = result
    return result, full


def load_declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"workloads": [w["name"] for w in spec["workloads"]],
            "run_seconds": spec["run_seconds"],
            "end_to_end": {m["name"]: m for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m for m in spec["per_layer"]}}


def main(argv=None):
    if not (ROOT / "src" / "cdcrdyn" / "__init__.py").is_file():
        print(f"perfbench: no cdcrdyn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = load_declared()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=declared["workloads"] + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=declared["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import bench

    env = environment(args.seed, bench)
    print("# environment " + json.dumps(env))
    names = declared["workloads"] if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result, full = run_workload(name, args.seed, args.seconds, bool(args.trace), declared)
        full["environment"] = env
        (OUT / f"result-{name}-trace{args.trace}-seed{args.seed}.json").write_text(
            json.dumps(full, indent=1, default=str))
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
