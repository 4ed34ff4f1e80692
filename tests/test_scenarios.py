import math

import numpy as np
import pytest

import cdcrdyn as cd
from cdcrdyn.actuation import ActuationProfile
from cdcrdyn.errors import ConfigurationError
from cdcrdyn.scenarios import Scenario, run_benchmark, run_scenario

TWO_PI = 2 * math.pi


def test_suite_contents():
    suite = cd.builtin_suite()
    ids = [s.id for s in suite]
    assert len(ids) == len(set(ids))
    # 9 force runs + 2 displacement-study runs + validation cases A-D
    assert len(suite) == 15
    assert "case1_step" in ids and "caseA" in ids

    by_id = {s.id: s for s in suite}
    step1 = by_id["case1_step"]
    assert step1.profile.mode == cd.FORCE
    assert step1.profile.value(0.5) == 3.0
    case_a = by_id["caseA"]
    assert case_a.profile.mode == cd.DISPLACEMENT
    assert case_a.profile.value(2.0) == pytest.approx(0.016)
    assert case_a.horizon == 5.0
    assert by_id["case4_taper"].model.profile_I.kind == "taper"
    assert by_id["case4_classic"].model.profile_I.kind == "constant"


def test_suite_profiles_match_hand_formulas(rng):
    # independent re-evaluation of every study input at random times
    hand = {
        "case1_linear": lambda t: t,
        "case1_sinusoid": lambda t: 1.5 - 0.3 * np.sin(TWO_PI * (t - 1)),
        "case1_step": lambda t: np.where(t >= 0, 3.0, 0.0),
        "case2_linear": lambda t: 2.75 * t,
        "case2_sinusoid": lambda t: 5 - 3 * np.sin(TWO_PI * (t - 1)),
        "case2_step": lambda t: np.where(t >= 0, 13.75, 0.0),
        "case3_linear": lambda t: 3.16 * t,
        "case3_sinusoid": lambda t: 5 - 3 * np.sin(TWO_PI * (t - 1)),
        "case3_step": lambda t: np.where(t >= 0, 8.0, 0.0),
        "case4_classic": lambda t: 0.048 * (t - 1),
        "case4_taper": lambda t: 0.048 * (t - 1),
        "caseA": lambda t: 0.008 * t,
        "caseB": lambda t: np.where(t >= 0, 0.14, 0.0),
        "caseC": lambda t: np.where(t < 2, 0.04 * t,
                                    0.08 + 0.018 * np.sin(TWO_PI * (t - 2))),
        "caseD": lambda t: np.where(t < 4,
                                    0.046 - 0.12 * np.exp(-0.35 * t) * np.sin(TWO_PI * t),
                                    0.046),
    }
    suite = {s.id: s for s in cd.builtin_suite()}
    assert set(hand) == set(suite)
    for sid, fn in hand.items():
        t = rng.uniform(0.0, suite[sid].horizon, 10)
        assert np.allclose(suite[sid].profile.value(t), fn(t), rtol=1e-12, atol=1e-15), sid


def test_scenario_by_id():
    scenario = cd.scenario_by_id("case2_linear")
    assert scenario.model.profile_A.kind == "taper"
    with pytest.raises(ConfigurationError):
        cd.scenario_by_id("case99_warp")


def _tiny_record(scenario_id="x", tip_shift=0.0, t_end=1.0, n=11):
    t = np.linspace(0, t_end, n)
    zeros = np.zeros(n)
    empty = np.zeros((n, 0))
    shape_s = np.linspace(0, 0.4, 5)
    shape_theta = np.zeros((2, 5))
    return cd.SimulationRecord(
        scenario_id=scenario_id, solver="galerkin", mode="force", fidelity="consistent",
        t=t, states=empty, rates=empty, accels=empty,
        tip_x=0.1 * t + tip_shift, tip_y=np.sin(t), theta_L=zeros.copy(),
        theta_s_L=zeros.copy(), delta_l=zeros.copy(), gamma=zeros.copy(),
        lambda_pre=zeros.copy(), lambda_post=zeros.copy(),
        t_rot=zeros.copy(), t_x=zeros.copy(), t_y=zeros.copy(),
        u_bend=zeros.copy(), g_pot=zeros.copy(),
        shape_t=np.array([0.0, t_end]), shape_s=shape_s, shape_theta=shape_theta,
        shape_x=shape_theta.copy(), shape_y=shape_theta.copy(),
        compute_seconds=0.01)


def test_compare_identical_records():
    rec = _tiny_record()
    metrics = cd.compare_records(rec, rec)
    assert metrics["tip_rmse"] == 0.0
    assert metrics["tip_max"] == 0.0
    assert metrics["shape_rmse"] == 0.0


def test_compare_constant_offset():
    a = _tiny_record()
    b = _tiny_record(tip_shift=0.005)
    metrics = cd.compare_records(a, b)
    assert metrics["tip_max"] == pytest.approx(0.005, rel=1e-12)
    assert metrics["tip_rmse"] == pytest.approx(0.005, rel=1e-12)
    assert cd.compare_records(b, a) == metrics  # symmetric


def test_compare_is_pseudometric():
    a = _tiny_record()
    b = _tiny_record(tip_shift=0.003)
    c = _tiny_record(tip_shift=0.008)
    d_ab = cd.compare_records(a, b)["tip_rmse"]
    d_bc = cd.compare_records(b, c)["tip_rmse"]
    d_ac = cd.compare_records(a, c)["tip_rmse"]
    assert d_ac <= d_ab + d_bc + 1e-15


def test_compare_rejects_mismatched_scenarios():
    with pytest.raises(ConfigurationError):
        cd.compare_records(_tiny_record("a"), _tiny_record("b"))


def test_compare_rejects_disjoint_supports():
    a = _tiny_record(t_end=1.0)
    b = _tiny_record(t_end=1.0)
    b.t = b.t + 5.0
    with pytest.raises(ConfigurationError):
        cd.compare_records(a, b)


def test_speedup_reference_values():
    assert cd.speedup(2.662, 0.213) == pytest.approx(0.9200, abs=1e-4)
    assert cd.speedup(1.0, 1.0) == 0.0
    assert cd.speedup(0.523, 0.213) == pytest.approx(0.5927, abs=1e-4)
    with pytest.raises(ConfigurationError):
        cd.speedup(0.0, 0.1)
    with pytest.raises(ConfigurationError):
        cd.speedup(-1.0, 0.1)


def _quick_scenario(sid="quick", height=3.0, t_end=0.05):
    model = cd.build_case_model("case1")
    options = cd.SolverOptions(t_end=t_end, sd_nodes=61, sd_dt=1e-4)
    return Scenario(id=sid, model=model, profile=ActuationProfile.step(height),
                    horizon=t_end, options=options)


def test_benchmark_empty_suite():
    report = run_benchmark([], repeats=3)
    assert report.rows == []
    assert report.mean_speedup is None


def test_benchmark_quick_suite():
    report = run_benchmark([_quick_scenario()], repeats=3)
    assert len(report.rows) == 1
    row = report.rows[0]
    assert row.speedup is not None and 0.0 < row.speedup < 1.0
    assert row.t_test < row.t_ref
    assert report.mean_speedup == pytest.approx(row.speedup)


def test_benchmark_marks_nc():
    bad = _quick_scenario(sid="diverges", height=1e9, t_end=0.2)
    bad.options.fidelity = "literal"
    report = run_benchmark([bad], repeats=3)
    assert report.rows[0].speedup is None
    assert report.mean_speedup is None


def test_benchmark_keeps_nc_reason(tmp_path, monkeypatch):
    bad = _quick_scenario(sid="diverges", height=1e9, t_end=0.02)
    report = run_benchmark([bad], repeats=3)
    row = report.rows[0]
    assert row.speedup is None
    assert row.reason.startswith("sd: step 1: angle limit exceeded")
    table = cd.format_benchmark_table(report)
    assert f"NC  {row.reason}" in table
    # the CSV columns do not carry the reason
    path = tmp_path / "bench.csv"
    cd.write_benchmark_csv(report, str(path))
    assert path.read_text() == "scenario,t_sd,t_galerkin,speedup\ndiverges,NC,NC,NC\n"

    def faulty(scenario, solver):
        if solver == "galerkin":
            raise cd.SolverFault("singular system matrix: test")
        return run_scenario(scenario, solver)

    monkeypatch.setattr("cdcrdyn.scenarios.run_scenario", faulty)
    row = run_benchmark([_quick_scenario()], repeats=3).rows[0]
    assert row.speedup is None
    assert row.reason == "galerkin: singular system matrix: test"


def test_literal_displacement_scenario_is_a_config_error():
    options = cd.SolverOptions(fidelity="literal")
    with pytest.raises(ConfigurationError, match="force input only"):
        Scenario(id="x", model=cd.build_case_model("case1"),
                 profile=ActuationProfile.linear(0.008, mode=cd.DISPLACEMENT),
                 horizon=0.05, options=options)


def test_benchmark_needs_three_repeats():
    with pytest.raises(ConfigurationError):
        run_benchmark([], repeats=2)


def test_timing_monotone_in_work():
    model = cd.build_case_model("case1")
    profile = ActuationProfile.linear(1.0)
    t_short = cd.simulate(model, profile, cd.SolverOptions(t_end=1.0)).compute_seconds
    t_long = cd.simulate(model, profile, cd.SolverOptions(t_end=2.0)).compute_seconds
    assert t_long >= 2.0 * 0.75 * t_short
