"""Sweep the modal quadrature grid: tip accuracy against a fine grid, and step cost.

    PYTHONPATH=src python scripts/grid_sweep.py [--out sweep.json]
        [--fingerprint tests/data/fingerprint.npz]

Every grid of PANELS x POINTS Gauss-Legendre points with
10 <= n = panels * points_per_panel <= 80 (fewer nodes than modes leave the
mass matrix singular) runs the 15 builtin scenarios at modal
orders 4, 6, 8 and 10 with both basis kinds over HORIZON seconds (the
other settings are each scenario's defaults).  For each grid the script
reports:

* per cell (scenario, m, basis kind): the largest tip distance, in mm, over
  the recorded samples from a run on the reference grid, 32 x 10 (n = 320);
* the round-off floor of each basis kind and order: the largest distance,
  over the 15 builtins, between two grids that are both converged, 32 x 10
  and 40 x 8.  One pair samples the round-off noise of a cell only once, so
  the floor is taken over the whole column.  A cell whose distance is
  within FLOOR_FACTOR of its floor has reached the floor and says nothing
  about the grid;
* the microseconds per ``step()`` (fastest of BATCHES batches of BATCH calls,
  case1_step from a state 0.3 s into its run) at each modal order.

A grid is as accurate as a baseline grid when, in every cell, its distance is
at most the baseline's or within FLOOR_FACTOR of the floor.  The grids with
fewer nodes than the default that are as accurate as BASELINE are then run on
the ``modal/*`` runs of the fingerprint file, whose every key they must keep
within its 1e-10 tolerance.  Run it with one BLAS thread
(``OPENBLAS_NUM_THREADS=1``); a full sweep takes several minutes.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import cdcrdyn as cd
from cdcrdyn.galerkin import ModalState

sys.path.insert(0, str(Path(__file__).resolve().parent))
import make_fingerprint  # noqa: E402

HORIZON = 1.0
MAX_NODES = 80
REFERENCE = (32, 10)
SECOND_REFERENCE = (40, 8)
BASELINE = (16, 5)
ORDERS = (4, 6, 8, 10)
KINDS = ("orthonormal", "raw_monomial")
FLOOR_FACTOR = 10.0
BATCH, BATCHES = 200, 7
PANELS = (1, 2, 3, 4, 5, 6, 8, 10, 12, 16)
POINTS = (4, 5, 6, 7, 8, 9, 10)
REL_TOL = 1e-10


def _cell_runs(grid):
    """Tip trajectories, keyed 'scenario/m/kind', of every cell on one grid
    (None for a run that stopped early)."""
    panels, points = grid
    out = {}
    for sc in cd.builtin_suite():
        for m in ORDERS:
            for kind in KINDS:
                options = replace(sc.options, m=m, basis_kind=kind, panels=panels,
                                  points_per_panel=points)
                rec = cd.run_scenario(replace(sc, horizon=HORIZON, options=options))
                out[f"{sc.id}/{m}/{kind}"] = (np.array([rec.tip_x, rec.tip_y])
                                              if rec.ok else None)
    return out


def _distance_mm(tips, ref):
    if tips is None or ref is None or tips.shape != ref.shape:
        return float("inf")
    return 1e3 * float(np.max(np.hypot(*(tips - ref))))


def _column(cell):
    _, m, kind = cell.split("/")
    return f"{kind}/m{m}"


def _columns(row):
    """A row of cell distances reduced to its largest per basis kind and order."""
    out = {f"{kind}/m{m}": 0.0 for kind in KINDS for m in ORDERS}
    for cell, d in row.items():
        out[_column(cell)] = max(out[_column(cell)], d)
    return out


def _step_us(grid):
    """Fastest mean microseconds of one ``step()`` call, per modal order."""
    sc = cd.scenario_by_id("case1_step")
    out = {}
    for m in ORDERS:
        options = replace(sc.options, m=m, panels=grid[0], points_per_panel=grid[1])
        asm = cd.make_assembly(sc.model, cd.ModalBasis(m, sc.model.length),
                               cd.make_quadrature(grid[0], grid[1], sc.model.length))
        start = ModalState.rest(m)
        for _ in range(300):
            start = cd.step(start, asm, sc.profile, options)
        best = float("inf")
        for _ in range(BATCHES):
            state = start
            tic = time.perf_counter()
            for _ in range(BATCH):
                state = cd.step(state, asm, sc.profile, options)
            best = min(best, (time.perf_counter() - tic) / BATCH)
        out[m] = 1e6 * best
    return out


def _as_accurate(row, baseline, floors):
    """Whether a grid's cells are each no worse than the baseline's, or at the
    floor of their column."""
    return all(d <= max(baseline[cell], FLOOR_FACTOR * floors[_column(cell)])
               for cell, d in row.items())


def _fingerprint_shift(grid, path):
    """Largest modal/* deviation from the stored fingerprint, in units of each
    key's tolerance (<= 1 keeps the file), and whether every run stops alike."""
    with np.load(path) as data:
        stored = dict(data)
    worst, same_stop = 0.0, True
    for name, _, sc in make_fingerprint.runs():
        if not name.startswith("modal/"):
            continue
        options = replace(sc.options, panels=grid[0], points_per_panel=grid[1])
        got = make_fingerprint.channels(cd.run_scenario(replace(sc, options=options)))
        same_stop &= bool(got.pop("nc_step") == stored[f"{name}/nc_step"])
        for ch, value in got.items():
            ref = stored[f"{name}/{ch}"]
            if value.shape != ref.shape:
                return float("inf"), False
            tol = REL_TOL * np.max(np.abs(ref), initial=0.0)
            dev = np.max(np.abs(value - ref), initial=0.0)
            worst = max(worst, dev / tol if tol > 0 else (0.0 if dev == 0 else float("inf")))
    return float(worst), bool(same_stop)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--fingerprint", type=Path, default=make_fingerprint.OUTPUT)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    default = (cd.SolverOptions().panels, cd.SolverOptions().points_per_panel)
    grids = sorted({(p, q) for p in PANELS for q in POINTS
                    if max(ORDERS) <= p * q <= MAX_NODES}
                   | {BASELINE, default}, key=lambda g: (g[0] * g[1], g))
    ref = _cell_runs(REFERENCE)
    second = _cell_runs(SECOND_REFERENCE)
    floors = _columns({cell: _distance_mm(second[cell], ref[cell]) for cell in ref})
    print("floor (mm)" + " " * 39 + " ".join(f"{v:8.1e}" for v in floors.values()))

    def distances(grid):
        runs = _cell_runs(grid)
        return {cell: _distance_mm(runs[cell], ref[cell]) for cell in ref}

    baseline = distances(BASELINE)
    table = []
    for grid in grids:
        row = baseline if grid == BASELINE else distances(grid)
        entry = {"panels": grid[0], "points_per_panel": grid[1], "nodes": grid[0] * grid[1],
                 "max_tip_mm": _columns(row),
                 "step_us": {f"m{m}": us for m, us in _step_us(grid).items()},
                 "as_accurate_as_baseline": _as_accurate(row, baseline, floors)}
        if entry["as_accurate_as_baseline"] and entry["nodes"] < default[0] * default[1]:
            entry["fingerprint_tolerances"], entry["fingerprint_same_stops"] = \
                _fingerprint_shift(grid, args.fingerprint)
        table.append(entry)
        print(f"{grid[0]:3d} x {grid[1]:2d} (n = {entry['nodes']:3d}): step "
              + " ".join(f"{v:6.1f}" for v in entry["step_us"].values()) + " us; max tip mm "
              + " ".join(f"{v:8.1e}" for v in entry["max_tip_mm"].values())
              + ("; as accurate as %d x %d" % BASELINE if entry["as_accurate_as_baseline"]
                 else "")
              + (f"; fingerprint {entry['fingerprint_tolerances']:.2f} tol"
                 if "fingerprint_tolerances" in entry else ""), flush=True)
    result = {
        "horizon_s": HORIZON, "reference": list(REFERENCE),
        "second_reference": list(SECOND_REFERENCE), "baseline": list(BASELINE),
        "default": list(default), "floor_factor": FLOOR_FACTOR,
        "columns": {"max_tip_mm": "largest tip distance from the reference, over the 15 "
                                  "builtins, per basis kind and modal order",
                    "step_us": f"fastest of {BATCHES} batches of {BATCH} step() calls, "
                               "case1_step, per modal order"},
        "floor_mm": floors,
        "grids": table,
    }
    if args.out:
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
