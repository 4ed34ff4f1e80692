"""Self-test of the benchmark at tiny horizons.

    python3 perfbench/selftest.py

For every workload, untraced and traced, it checks that each metric declared
in BENCHMARK.json is emitted with its declared unit and a finite value; that
every traced span lies inside its parent; and that self times are >= 0 and
sum to the traced wall.  It also checks that the command fails, without a
result line, in a directory holding only BENCHMARK.json and perfbench/.
Exit code 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import run

HORIZON_SCALE = 0.5    # force_long runs 0.1 s, sd_oracle 0.015 s


def check_metrics(metrics, declared, label):
    errors = []
    if set(metrics) != set(declared):
        errors.append(f"{label}: metrics {sorted(set(metrics) ^ set(declared))} "
                      "differ from BENCHMARK.json")
    for name, spec in declared.items():
        got = metrics.get(name)
        if got is None:
            continue
        if got.get("unit") != spec["unit"]:
            errors.append(f"{label}: {name} unit {got.get('unit')!r} != {spec['unit']!r}")
        if not isinstance(got.get("value"), (int, float)) or not math.isfinite(got["value"]):
            errors.append(f"{label}: {name} value {got.get('value')!r} is not a finite number")
    return errors


def check_spans(path, label):
    from spans import END, PARENT, START, check_nesting, self_times
    with open(path) as fh:
        spans = [[s["id"], s["parent"], s["run"], s["name"], s["start"], s["end"]]
                 for s in json.load(fh)]
    errors = [f"{label}: span {n} outside its parent" for n in check_nesting(spans)]
    own = self_times(spans)
    if min(own.values()) < -1e-9:
        errors.append(f"{label}: negative self time {min(own.values()):.3e} s")
    wall = sum(s[END] - s[START] for s in spans if s[PARENT] is None)
    if not math.isclose(sum(own.values()), wall, rel_tol=1e-9, abs_tol=1e-9):
        errors.append(f"{label}: self times sum to {sum(own.values()):.9f} s, "
                      f"traced wall is {wall:.9f} s")
    return errors


def check_bare_directory():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                               "force_long", "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main():
    declared = run.load_declared()
    sys.path[:0] = [str(run.ROOT / "src")]
    from layers import PER_LAYER
    errors = []
    if set(PER_LAYER) != set(declared["per_layer"]) or any(
            PER_LAYER[k][:2] != (v["unit"], v["better"]) for k, v in declared["per_layer"].items()
            if k in PER_LAYER):
        errors.append("per-layer table in layers.py and BENCHMARK.json disagree")
    for name in declared["workloads"]:
        for trace in (False, True):
            label = f"{name} trace={int(trace)}"
            result, full = run.run_workload(name, 3, 0.0, trace, declared, HORIZON_SCALE)
            # at these horizons the tip window falls in the start-up ring, so
            # the reference's halving check may fail; nothing else may
            errors += [f"{label}: {r}" for r in full["failures"]
                       if not r.startswith("tip_err reference not converged")]
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{label}: result keys {sorted(result)}")
            if result["attempted"] < 1:
                errors.append(f"{label}: nothing attempted")
            kind = "per_layer" if trace else "end_to_end"
            errors += check_metrics(result["metrics"], declared[kind], label)
            if trace:
                errors += check_spans(run.OUT / f"spans-{name}-seed3.json", label)
            print(f"selftest: {label}: attempted {result['attempted']}, "
                  f"failed {result['failed']}", flush=True)
    errors += check_bare_directory()
    for e in errors:
        print("selftest FAILED:", e)
    print("selftest", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
