"""The acceleration solves both solvers' steps share (``records``)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cdcrdyn.errors import SolverFault
from cdcrdyn.records import CONSTRAINT_GAIN, constrained_solve, solve

SRC = Path(__file__).resolve().parent.parent / "src"


def test_solve_raises_on_a_singular_matrix():
    lhs = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SolverFault, match="singular system matrix"):
        solve(lhs, np.ones(2))


def test_constrained_solve_raises_on_a_degenerate_direction():
    # w . lhs^-1 load = e2 . e1 = 0
    lhs, load, w = np.eye(3), np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
    with pytest.raises(SolverFault, match="degenerate cable-constraint direction"):
        constrained_solve(lhs, np.ones(3), load, w, (0.1, 0.2, 0.3), 0.0, 0.0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_constrained_solve_meets_the_system_and_the_baumgarte_target(seed):
    rng = np.random.default_rng(seed)
    m = 6
    a_rand = rng.standard_normal((m, m))
    lhs = a_rand @ a_rand.T + m * np.eye(m)
    rhs, load, w = rng.standard_normal((3, m))
    (value, rate, accel), (w_x, w_v) = rng.standard_normal(3), rng.standard_normal(2)
    a, lam = constrained_solve(lhs, rhs, load, w, (value, rate, accel), w_x, w_v)
    alpha = CONSTRAINT_GAIN
    target = accel + 2 * alpha * (rate - w_v) + alpha ** 2 * (value - w_x)
    rhs_full = rhs + lam * load
    assert np.abs(lhs @ a - rhs_full).max() <= 1e-12 * np.abs(rhs_full).max()
    assert abs(w @ a - target) <= 1e-12 * abs(target)


def test_import_loads_no_scipy():
    """scipy.linalg's LAPACK wrappers solve the step's m x m system faster than
    np.linalg.solve, but importing them about doubles the process's resident
    memory; the package stays on numpy alone."""
    code = ("import sys, cdcrdyn, cdcrdyn.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(SRC)}).stdout
    assert out.strip() == "[]"
