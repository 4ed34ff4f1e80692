"""Behaviour both solvers share through the common stepping loop and record pass."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cdcrdyn as cd
from cdcrdyn.actuation import ActuationProfile
from cdcrdyn.kinematics import SHAPE_STRIDE

SOLVERS = ("galerkin", "sd")
HORIZON = 0.05


def _run(solver, model, profile, options):
    if solver == "galerkin":
        return cd.simulate(model, profile, options)
    return cd.sd_simulate(model, profile, options)


@pytest.mark.parametrize("solver", SOLVERS)
def test_shape_rows_end_at_last_sample(case1, solver):
    # a steep ramp drives theta(L) past the angle limit after several recorded
    # samples, off the regular shape-row grid; the shape rows still end at the
    # last recorded sample
    options = cd.SolverOptions(t_end=1.0, sd_nodes=61, sd_dt=1e-3)
    record = _run(solver, case1, ActuationProfile.linear(3000.0), options)
    assert record.nc_reason.startswith("angle limit exceeded")
    assert (record.t.size - 1) % SHAPE_STRIDE != 0
    assert record.shape_t[-1] == record.t[-1]


@st.composite
def robots(draw):
    """Random valid taper/cubic geometry with no distributed load."""
    d0 = draw(st.floats(0.003, 0.007))
    d1 = draw(st.floats(0.6, 1.0)) * d0
    w0 = draw(st.floats(0.02, 0.12))
    w1 = draw(st.floats(0.0, 0.8)) * w0
    # exact zero keeps undamped runs covered
    material = cd.MaterialParams(cd.geometry.BASE_YOUNGS_MODULUS,
                                 draw(st.floats(100.0, 30000.0)),
                                 draw(st.one_of(st.just(0.0), st.floats(0.0, 30.0))))
    return cd.RobotModel(
        length=draw(st.floats(0.2, 0.5)),
        profile_I=cd.GeometryProfile.diameter_taper(d0, d1),
        profile_A=cd.GeometryProfile.diameter_taper(d0, d1),
        profile_W=cd.GeometryProfile.cubic_spacing(w0, w1),
        material=material, load=cd.DistributedLoad(0.0, 0.0))


OPTIONS = cd.SolverOptions(t_end=HORIZON, output_stride=5, sd_nodes=51, sd_dt=2e-4)


@settings(max_examples=24, deadline=None)
@given(model=robots(), mode=st.sampled_from((cd.FORCE, cd.DISPLACEMENT)),
       solver=st.sampled_from(SOLVERS))
def test_rest_invariance(model, mode, solver):
    record = _run(solver, model, ActuationProfile.linear(0.0, mode=mode), OPTIONS)
    assert record.ok
    assert np.all(record.states == 0.0)
    assert np.all(record.rates == 0.0)


@settings(max_examples=24, deadline=None)
@given(model=robots(), mode=st.sampled_from((cd.FORCE, cd.DISPLACEMENT)),
       solver=st.sampled_from(SOLVERS), amplitude=st.floats(0.2, 1.0))
def test_mirror_symmetry(model, mode, solver, amplitude):
    # with no distributed load a negated input bends the rod the other way
    scale = 0.01 if mode == cd.DISPLACEMENT else 1.0
    profile = ActuationProfile.offset_sinusoid(scale * amplitude, 0.5 * scale * amplitude,
                                               20.0, mode=mode)
    mirrored = replace(profile, offset=-profile.offset, amplitude=-profile.amplitude)
    rec = _run(solver, model, profile, OPTIONS)
    mir = _run(solver, model, mirrored, OPTIONS)
    assert rec.ok and mir.ok
    scale = np.abs(rec.states).max()
    assert scale > 0
    assert np.abs(rec.states + mir.states).max() <= 1e-12 * scale


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("solver", SOLVERS)
def test_overflow_stops_the_run_as_non_finite(case1, solver):
    # a force of 1e308 overflows the first step's load to inf: the check stops
    # the run on the non-finite state, not on the angle limit
    options = cd.SolverOptions(t_end=HORIZON, sd_nodes=51, sd_dt=2e-4)
    record = _run(solver, case1, ActuationProfile.step(1e308), options)
    assert record.nc_step == 1
    assert record.nc_reason == "non-finite state"
