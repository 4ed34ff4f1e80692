"""The acceleration solves both solvers' steps share (``records``)."""

import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import cdcrdyn as cd
from cdcrdyn import galerkin, sdsolver
from cdcrdyn.errors import SolverFault
from cdcrdyn.records import CONSTRAINT_GAIN, constrained_solve, solve

SRC = Path(__file__).resolve().parent.parent / "src"


SINGULAR = np.array([[1.0, 2.0], [2.0, 4.0]])


def _well_conditioned(rng, m):
    a_rand = rng.standard_normal((m, m))
    return a_rand + m * np.eye(m)


@pytest.mark.parametrize("m", [4, 6, 10])
@pytest.mark.parametrize("k", [None, 2])
def test_solve_matches_np_linalg_solve_bit_for_bit(m, k):
    rng = np.random.default_rng(100 * m + (k or 0))
    for _ in range(20):
        lhs = _well_conditioned(rng, m)
        rhs = rng.standard_normal(m if k is None else (m, k))
        x = solve(lhs, rhs)
        assert x.shape == rhs.shape
        assert np.array_equal(x, np.linalg.solve(lhs, rhs))


@pytest.mark.parametrize("k", [None, 2])
def test_solve_on_the_sd_steps_strided_view_matches_np_linalg_solve(k):
    # the SD step solves lhs[1:, 1:] of its N x N matrix, a non-contiguous view
    rng = np.random.default_rng(51)
    n = 51
    lhs = _well_conditioned(rng, n)
    rhs = rng.standard_normal(n if k is None else (n, k))
    view = lhs[1:, 1:]
    assert not view.flags.c_contiguous
    assert np.array_equal(solve(view, rhs[1:]), np.linalg.solve(view, rhs[1:]))


def test_solve_of_a_matrix_with_nan_matches_np_linalg_solve():
    lhs = np.eye(3)
    lhs[1, 1] = np.nan
    expected = np.linalg.solve(lhs, np.ones(3))
    assert not np.isfinite(expected).all()
    assert np.array_equal(solve(lhs, np.ones(3)), expected, equal_nan=True)


def test_solve_whose_solution_overflows_matches_np_linalg_solve():
    lhs, rhs = np.diag([1e-300, 1.0]), np.array([1e300, 1.0])
    expected = np.linalg.solve(lhs, rhs)
    assert np.array_equal(expected, [np.inf, 1.0])
    assert np.array_equal(solve(lhs, rhs), expected)
    rhs2 = np.column_stack([rhs, -rhs])
    assert np.array_equal(solve(lhs, rhs2), np.linalg.solve(lhs, rhs2))


def _assert_singular_fault(rhs, gufunc):
    # the gufunc's one warning, then the wrapper's LinAlgError as a SolverFault
    with pytest.warns(RuntimeWarning) as caught:
        with pytest.raises(SolverFault) as info:
            solve(SINGULAR, rhs)
    assert [str(w.message) for w in caught] == [f"invalid value encountered in {gufunc}"]
    assert str(info.value) == "singular system matrix: Singular matrix"


def test_solve_raises_on_a_singular_matrix():
    _assert_singular_fault(np.ones(2), "solve1")


def test_solve_raises_on_a_singular_matrix_with_two_columns():
    _assert_singular_fault(np.ones((2, 2)), "solve")


@pytest.mark.parametrize("rhs", [np.ones(2), np.ones((2, 2))], ids=["vector", "m_by_2"])
def test_solve_raises_solver_fault_when_warnings_are_errors(rhs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverFault, match="singular system matrix: Singular matrix"):
            solve(SINGULAR, rhs)
    with np.errstate(invalid="raise"):
        with pytest.raises(SolverFault, match="singular system matrix: Singular matrix"):
            solve(SINGULAR, rhs)


def test_step_path_does_not_call_np_linalg_solve(monkeypatch):
    """Every finite step solves through the gufunc, not np.linalg.solve."""
    def wrapper_called(*args, **kwargs):
        raise AssertionError("np.linalg.solve called on the step path")

    monkeypatch.setattr(np.linalg, "solve", wrapper_called)
    short = cd.SolverOptions(sd_nodes=51)
    for sid in ("case2_sinusoid", "caseD"):
        scenario = replace(cd.scenario_by_id(sid, short), horizon=0.05)
        for solver in ("galerkin", "sd"):
            record = cd.run_scenario(scenario, solver)
            assert record.ok, (sid, solver, record.nc_reason)
            assert np.isfinite(record.states).all()
        asm = cd.make_assembly(scenario.model, cd.ModalBasis(6, scenario.model.length),
                               cd.make_quadrature(4, 10, scenario.model.length))
        state = cd.ModalState.rest(6)
        for _ in range(300):
            state = cd.step(state, asm, scenario.profile, short)
        assert state.t == pytest.approx(0.3)


def test_step_path_does_not_stack_arrays(monkeypatch):
    """A modal step writes into the arrays it allocates; none is stacked per step."""
    options = cd.SolverOptions()
    loops = []
    for sid in ("case2_step", "caseD"):       # force and displacement input
        scenario = cd.scenario_by_id(sid, options)
        asm = cd.make_assembly(scenario.model, cd.ModalBasis(6, scenario.model.length),
                               cd.make_quadrature(4, 10, scenario.model.length))
        galerkin.stepper(asm, options.dt, options.fidelity, scenario.profile.mode)
        loops.append((asm, scenario.profile))

    def stacked(*args, **kwargs):
        raise AssertionError("arrays stacked on the step path")

    for name in ("concatenate", "stack", "hstack", "vstack", "column_stack", "block"):
        monkeypatch.setattr(np, name, stacked)
    for asm, profile in loops:
        state = cd.ModalState.rest(6)
        for _ in range(200):
            state = cd.step(state, asm, profile, options)
        assert state.t == pytest.approx(0.2) and np.isfinite(state.z).all()


@pytest.mark.parametrize("solver", ["galerkin", "sd"])
@pytest.mark.parametrize("sid", ["case1_step", "caseA"])
def test_singular_step_matrix_ends_the_run(monkeypatch, solver, sid):
    owner, name = ((galerkin.Stepper, "system") if solver == "galerkin"
                   else (sdsolver.SDWorkspace, "assemble"))
    system = getattr(owner, name)

    def singular_system(self, *args, **kwargs):
        lhs, *rest = system(self, *args, **kwargs)
        return (0.0 * lhs, *rest)

    monkeypatch.setattr(owner, name, singular_system)
    scenario = replace(cd.scenario_by_id(sid, cd.SolverOptions(sd_nodes=51)), horizon=0.01)
    with pytest.warns(RuntimeWarning, match="invalid value encountered in solve"):
        record = cd.run_scenario(scenario, solver)
    assert record.nc_step == 1
    assert record.nc_reason == "singular system matrix: Singular matrix"


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
    memory; ``solve`` gets the same speed from numpy's own gufunc."""
    code = ("import sys, cdcrdyn, cdcrdyn.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(SRC)}).stdout
    assert out.strip() == "[]"
