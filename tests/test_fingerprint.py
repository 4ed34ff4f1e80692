"""Both solvers reproduce the stored reference trajectories.

``tests/data/fingerprint.npz`` is written by ``scripts/make_fingerprint.py``,
which defines the runs; every stored channel must match within REL_TOL of its
largest magnitude, and each run must stop (or not) at the same step.
The last tests check ``scripts/fingerprint_shift.py``, which reports how far
one fingerprint file moved from another.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
import fingerprint_shift  # noqa: E402
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


def _shift_report(tmp_path, old, new):
    np.savez(tmp_path / "old.npz", **old)
    np.savez(tmp_path / "new.npz", **new)
    return fingerprint_shift.main(["", str(tmp_path / "old.npz"), str(tmp_path / "new.npz")])


def test_fingerprint_shift_on_an_identical_copy(stored, tmp_path, capsys):
    assert _shift_report(tmp_path, stored, dict(stored)) == 0
    lines = capsys.readouterr().out.splitlines()
    families = {key.split("/")[0] for key in stored}
    assert len(lines) == len(families)
    for line in lines:
        family, rest = line.split(": ", 1)
        n = sum(key.split("/")[0] == family for key in stored)
        assert rest == f"{n}/{n} keys bit-identical; largest shift 0; nc_step unchanged"


def test_fingerprint_shift_on_a_perturbed_copy(stored, tmp_path, capsys):
    key, run = "modal/case1_step/tip_x", "sd/caseC"
    new = dict(stored)
    new[key] = stored[key].copy()
    new[key][3] += 1e-6 * np.abs(stored[key]).max()
    new[f"{run}/nc_step"] = np.array(7)
    assert _shift_report(tmp_path, stored, new) == 1
    out = capsys.readouterr().out
    n_modal = sum(k.startswith("modal/") for k in stored)
    assert f"modal: {n_modal - 1}/{n_modal} keys bit-identical; largest shift 1e-06 ({key});" \
           " nc_step unchanged" in out
    assert f"nc_step {run} -1 -> 7" in out
