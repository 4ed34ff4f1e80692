import configparser
import pathlib
import re

import pytest
from hypothesis import given, settings, strategies as st

import cdcrdyn as cd
from cdcrdyn.config import (_OPTION_KEYS, RunConfig, model_from_config,
                            parse_config, profile_from_config,
                            scenario_from_config, serialize_config)
from cdcrdyn.errors import ConfigurationError


def test_minimal_config_gets_defaults():
    cfg = parse_config("[run]\nscenario = case1_step\nsolver = both\n")
    assert cfg.scenario == "case1_step"
    assert cfg.solver == "both"
    assert cfg.options.m == 6 and cfg.options.dt == 1e-3 and cfg.options.sd_nodes == 201
    assert cfg.options.fidelity == "consistent"


def test_negative_dt_names_key():
    with pytest.raises(ConfigurationError, match="dt"):
        parse_config("[galerkin]\ndt = -1\n")


def test_unknown_key_rejected():
    with pytest.raises(ConfigurationError, match="frobnicate"):
        parse_config("[run]\nfrobnicate = yes\n")


def test_unknown_section_rejected():
    with pytest.raises(ConfigurationError, match="telemetry"):
        parse_config("[telemetry]\nx = 1\n")


def test_parse_error_reports_line():
    with pytest.raises(ConfigurationError, match="line"):
        parse_config("[run\nscenario = case1_step\n")


def test_inline_step_profile():
    cfg = parse_config("[profile]\nkind = step\nheight = 3\nt0 = 0\n")
    prof = profile_from_config(cfg)
    assert prof.kind == "step"
    assert prof.value(0.5) == 3.0


def test_comments_are_ignored():
    cfg = parse_config("# top comment\n[run]\nscenario = caseA  # trailing\n")
    assert cfg.scenario == "caseA"


def test_model_overrides():
    cfg = parse_config("[model]\ncase = case1\nq_y = 0\ndamping_coeff = 2.0\n")
    model = model_from_config(cfg)
    assert model.load.q_y == 0.0
    assert model.material.damping_coeff == 2.0
    # density stays derived from the baseline when q_y is overridden to zero
    assert model.material.density > 0


def test_scenario_from_config_builtin():
    cfg = parse_config("[run]\nscenario = case3_step\nhorizon = 0.5\n")
    scenario = scenario_from_config(cfg)
    assert scenario.id == "case3_step"
    assert scenario.horizon == 0.5
    assert scenario.options.t_end == 0.5


def test_scenario_from_config_inline():
    text = """
[run]
scenario = inline
horizon = 0.25

[model]
case = case2

[profile]
mode = displacement
kind = linear
slope = 0.01
"""
    scenario = scenario_from_config(parse_config(text))
    assert scenario.id == "inline"
    assert scenario.model.profile_I.kind == "taper"
    assert scenario.profile.mode == "displacement"


def test_inline_requires_profile():
    with pytest.raises(ConfigurationError):
        scenario_from_config(parse_config("[run]\nscenario = inline\n"))


def test_profile_missing_parameter_named():
    with pytest.raises(ConfigurationError, match="offset"):
        profile_from_config(parse_config("[profile]\nkind = offset_sinusoid\nomega = 1\n"))


def test_tabulated_profile_via_csv(tmp_path):
    csv_path = tmp_path / "drive.csv"
    csv_path.write_text("0.0,0.0\n1.0,0.01\n2.0,0.02\n")
    cfg = parse_config(f"[profile]\nmode = displacement\nkind = tabulated\n"
                       f"csv = {csv_path}\n")
    prof = profile_from_config(cfg)
    assert prof.kind == "tabulated" and prof.mode == "displacement"
    assert prof.value(1.5) == pytest.approx(0.015)


_scenarios = st.sampled_from([s.id for s in cd.builtin_suite()])
_solvers = st.sampled_from(["galerkin", "sd", "both"])
_fidelities = st.sampled_from(["literal", "consistent"])
_floats = st.floats(min_value=1e-6, max_value=1e3, allow_nan=False,
                    allow_infinity=False)


@settings(max_examples=1000, deadline=None)
@given(scenario=_scenarios, solver=_solvers, fidelity=_fidelities,
       dt=st.floats(min_value=1e-5, max_value=1e-2), m=st.integers(1, 10),
       repeats=st.integers(1, 20), stride=st.integers(1, 50),
       horizon=st.one_of(st.none(), _floats),
       qy=st.floats(min_value=-5, max_value=5, allow_nan=False))
def test_config_roundtrip(scenario, solver, fidelity, dt, m, repeats, stride,
                          horizon, qy):
    cfg = RunConfig(scenario=scenario, solver=solver, repeats=repeats,
                    horizon=horizon,
                    options=cd.SolverOptions(fidelity=fidelity, dt=dt, m=m,
                                             output_stride=stride),
                    model={"case": "case1", "q_y": qy},
                    profile={"kind": "step", "height": 3.0, "t0": 0.0})
    assert parse_config(serialize_config(cfg)) == cfg


def test_roundtrip_default_config():
    cfg = RunConfig()
    assert parse_config(serialize_config(cfg)) == cfg


def test_readme_config_example_is_live():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    block = re.search(r"```ini\n(.*?)```", readme.read_text(), re.S).group(1)
    cfg = parse_config(block)
    assert cfg.scenario == "caseA" and cfg.horizon == 5.0
    assert parse_config(serialize_config(cfg)) == cfg
    # every solver setting is documented
    documented = configparser.ConfigParser(inline_comment_prefixes=("#",))
    documented.read_string(block)
    assert set(_OPTION_KEYS) <= {(section, key) for section in documented.sections()
                                 for key in documented[section]}
    # and its [galerkin] and [sd] values are the defaults, so a default change
    # cannot leave the example stale
    defaults = cd.SolverOptions()
    for (section, key), (name, _) in _OPTION_KEYS.items():
        if section in ("galerkin", "sd"):
            assert getattr(cfg.options, name) == getattr(defaults, name), (section, key)
