"""Write the behaviour fingerprint: reference trajectories of both solvers.

    PYTHONPATH=src python scripts/make_fingerprint.py [output.npz]

The default output is ``tests/data/fingerprint.npz``; ``tests/test_fingerprint.py``
reruns the same runs and compares every stored channel within 1e-10 of that
channel's largest magnitude.  The runs:

* the 15 builtin scenarios on the modal solver at their default settings;
* the 9 force-input builtins at literal fidelity, stride 1, over 0.3 s, at
  modal orders 4-10 (the runs the ``sweep_io`` benchmark workload makes);
* three builtins on the SD solver (N = 51, sd_dt = 2e-4, 0.5 s).

``literal/case2_step`` is unstable: its shape angles grow to tens of radians
within the 0.3 s.  Yet a change that only reorders floating-point operations
moves it no more than the other runs.  The modal step that forms theta,
theta_t, the stiffness term and w . c from one product with z = [c; c_t]
and lays node-indexed arrays out node-contiguous reassociates most of a
step's sums; ``scripts/fingerprint_shift.py`` on the stored file and one
regenerated with that step reported:

    literal: 56/207 keys bit-identical; largest shift 2.52e-12 (literal/case2_step/rates); nc_step unchanged
    modal: 83/345 keys bit-identical; largest shift 5.46e-12 (modal/case1_linear/accels); nc_step unchanged
    sd: 69/69 keys bit-identical; largest shift 0; nc_step unchanged

All are well inside the 1e-10 tolerance, so the stored file was kept.  Nor
are the literal runs converged in the quadrature grid: moving the default grid
from 16 x 5 to 4 x 10 Gauss-Legendre points moved six of the nine by more
than their own size (up to 1.9 times, ``literal/case1_step/u_bend``), while
every modal run moved by at most 6.7e-11 of its size.  Their stored values
pin one grid's behaviour, not a converged trajectory.

Every record channel is kept at every 10th sample and at the last one; shape
channels at every 10th shape row and arc-length point, and the last of each.  A change that moves the
numerics on purpose regenerates the file and reports the measured shift,
which ``scripts/fingerprint_shift.py OLD.npz NEW.npz`` prints per key family.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

import cdcrdyn as cd

OUTPUT = Path(__file__).resolve().parent.parent / "tests" / "data" / "fingerprint.npz"
EVERY = 10
LITERAL_HORIZON = 0.3
LITERAL_ORDERS = (4, 6, 8, 10)
SD_IDS = ("case2_sinusoid", "caseC", "case4_taper")
SD_OPTIONS = dict(t_end=0.5, sd_nodes=51, sd_dt=2e-4)
SAMPLE_CHANNELS = ("t", "states", "rates", "accels", "tip_x", "tip_y", "theta_L",
                   "theta_s_L", "delta_l", "gamma", "lambda_pre", "lambda_post",
                   "t_rot", "t_x", "t_y", "u_bend", "g_pot", "command")
SHAPE_CHANNELS = ("shape_theta", "shape_x", "shape_y")


def runs():
    """(name, solver, scenario) for every fingerprinted run."""
    suite = cd.builtin_suite()
    out = [(f"modal/{sc.id}", "galerkin", sc) for sc in suite]
    force = [sc for sc in suite if sc.profile.mode == cd.FORCE]
    for i, sc in enumerate(force):
        options = replace(sc.options, fidelity="literal", output_stride=1,
                          m=LITERAL_ORDERS[i % len(LITERAL_ORDERS)])
        out.append((f"literal/{sc.id}", "galerkin",
                    replace(sc, horizon=LITERAL_HORIZON, options=options)))
    for sc in suite:
        if sc.id in SD_IDS:
            out.append((f"sd/{sc.id}", "sd",
                        replace(sc, horizon=SD_OPTIONS["t_end"],
                                options=replace(sc.options, **SD_OPTIONS))))
    return out


def _rows(size: int) -> np.ndarray:
    return np.r_[np.arange(0, size - 1, EVERY), size - 1] if size else np.arange(0)


def channels(rec) -> dict:
    """The kept rows of one record's channels, keyed by channel, plus nc_step
    (-1: converged)."""
    out = {}
    rows = _rows(rec.t.size)
    for ch in SAMPLE_CHANNELS:
        out[ch] = np.asarray(getattr(rec, ch))[rows]
    rows = _rows(rec.shape_t.size)
    out["shape_t"] = rec.shape_t[rows]
    cols = _rows(rec.shape_s.size)
    for ch in SHAPE_CHANNELS:
        out[ch] = np.asarray(getattr(rec, ch))[rows][:, cols]
    out["nc_step"] = np.array(-1 if rec.nc_step is None else rec.nc_step)
    return out


def fingerprint() -> dict:
    """Channel arrays keyed '<run>/<channel>', plus '<run>/nc_step'."""
    out = {}
    for name, solver, scenario in runs():
        rec = cd.run_scenario(scenario, solver)
        out.update((f"{name}/{ch}", value) for ch, value in channels(rec).items())
    return out


def main(argv) -> int:
    path = Path(argv[1]) if len(argv) > 1 else OUTPUT
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, **fingerprint())
    print(f"wrote {path} ({path.stat().st_size} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
