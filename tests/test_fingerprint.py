"""Both solvers reproduce the stored reference trajectories.

``tests/data/fingerprint.npz`` is written by ``scripts/make_fingerprint.py``,
which defines the runs; every stored channel must match within REL_TOL of its
largest magnitude, and each run must stop (or not) at the same step.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
import make_fingerprint  # noqa: E402

REL_TOL = 1e-10
RUNS = [name for name, _, _ in make_fingerprint.runs()]


@pytest.fixture(scope="module")
def stored():
    with np.load(make_fingerprint.OUTPUT) as data:
        return dict(data)


@pytest.fixture(scope="module")
def current():
    return make_fingerprint.fingerprint()


def test_fingerprint_covers_the_same_runs(stored, current):
    assert sorted(stored) == sorted(current)


@pytest.mark.parametrize("run", RUNS)
def test_fingerprint(run, stored, current):
    assert current[f"{run}/nc_step"] == stored[f"{run}/nc_step"]
    for key in sorted(k for k in stored if k.startswith(run + "/")):
        ref, got = stored[key], current[key]
        assert got.shape == ref.shape, key
        tol = REL_TOL * np.max(np.abs(ref), initial=0.0)
        assert np.max(np.abs(got - ref), initial=0.0) <= tol, key
