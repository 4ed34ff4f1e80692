import configparser
import inspect
import math
import pathlib
import re

import pytest
from hypothesis import given, settings, strategies as st

import cdcrdyn as cd
from cdcrdyn.actuation import PROFILE_KINDS
from cdcrdyn.config import (_OPTION_KEYS, _PROFILE_KEYS, RunConfig, model_from_config,
                            parse_config, profile_from_config,
                            scenario_from_config, serialize_config)
from cdcrdyn.errors import ConfigurationError
from cdcrdyn.geometry import CASE_IDS


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


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_q_y_override_density_rule(case_id):
    base = cd.build_case_model(case_id)

    def density(extra):
        return model_from_config(parse_config(f"[model]\ncase = {case_id}\n{extra}")).material.density

    # a taper does not move the reference area: doubling q_y doubles the density
    assert math.isclose(density(f"q_y = {2 * base.load.q_y!r}\n"), 2 * base.material.density,
                        rel_tol=1e-12)
    # a constant area override sets it
    area = 2e-5
    got = density(f"q_y = 2.9588\narea = {area!r}\nsecond_moment = 1e-11\n")
    assert math.isclose(got, 2.9588 / (area * cd.GRAVITY), rel_tol=1e-12)


def test_q_y_override_density_case2_matches_case1_taper():
    def model(text):
        return model_from_config(parse_config("[model]\n" + text + "q_y = 2.9588\n"))

    case2 = model("case = case2\n")
    tapered = model("case = case1\ntaper_d0 = 0.006\ntaper_d1 = 0.005\n")
    assert case2 == tapered
    assert math.isclose(case2.material.density, 23937.349, rel_tol=1e-7)


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


# each kind's [profile] keys, the direct constructor call they must equal, and a
# key the kind does not take
_KIND_CASES = {
    "linear": ({"slope": 0.5, "offset": 0.25},
               lambda mode, csv: cd.ActuationProfile.linear(0.5, offset=0.25, mode=mode),
               "t0"),
    "offset_sinusoid": ({"offset": 1.0, "amplitude": 0.5, "omega": 3.0, "t_shift": 0.1},
                        lambda mode, csv: cd.ActuationProfile.offset_sinusoid(
                            1.0, 0.5, 3.0, t_shift=0.1, mode=mode),
                        "height"),
    "step": ({"height": 3.0, "t0": 0.2},
             lambda mode, csv: cd.ActuationProfile.step(3.0, t0=0.2, mode=mode),
             "slope"),
    "ramp_then_sinusoid": ({"slope": 0.02, "t_switch": 0.5, "offset": 0.01,
                            "amplitude": 0.004, "omega": 6.0},
                           lambda mode, csv: cd.ActuationProfile.ramp_then_sinusoid(
                               0.02, 0.5, 0.01, 0.004, 6.0, mode=mode),
                           "t_shift"),
    "decaying_sinusoid": ({"offset": 0.01, "amplitude": 0.005, "decay_rate": 2.0,
                           "omega": 8.0, "t_cut": 1.5, "hold_value": 0.01},
                          lambda mode, csv: cd.ActuationProfile.decaying_sinusoid(
                              0.01, 0.005, 2.0, 8.0, 1.5, 0.01, mode=mode),
                          "t_switch"),
    "tabulated": ({"csv": None},
                  lambda mode, csv: cd.profile_from_csv(csv, mode=mode),
                  "hold_value"),
}


@pytest.mark.parametrize("mode", ["force", "displacement", None])
@pytest.mark.parametrize("kind", PROFILE_KINDS)
def test_profile_section_equals_its_constructor(tmp_path, kind, mode):
    keys, direct, foreign = _KIND_CASES[kind]
    csv_path = tmp_path / "drive.csv"
    csv_path.write_text("0.0,0.0\n1.0,0.01\n2.0,0.02\n")
    keys = {k: (csv_path if v is None else v) for k, v in keys.items()}
    text = f"[profile]\nkind = {kind}\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
    if mode is not None:
        text += f"mode = {mode}\n"
    # an unset mode is force, also for the kinds whose constructor defaults to displacement
    assert profile_from_config(parse_config(text)) == direct(mode or "force", csv_path)
    # a key the kind does not take is refused, not dropped
    with pytest.raises(ConfigurationError, match=foreign):
        profile_from_config(parse_config(text + f"{foreign} = 1\n"))
    # and a missing one is named in INI terms
    first = next(iter(keys))
    without = text.replace(f"{first} = {keys[first]}\n", "")
    with pytest.raises(ConfigurationError, match=f"'{first}'"):
        profile_from_config(parse_config(without))


def test_profile_keys_are_the_constructor_parameters():
    params = {name for kind in PROFILE_KINDS if kind != "tabulated"
              for name in inspect.signature(getattr(cd.ActuationProfile, kind)).parameters}
    assert set(_PROFILE_KEYS) == params | {"kind", "mode", "csv"}


@pytest.mark.parametrize("text, keys", [
    ("second_moment = 1e-12\ntaper_d0 = 0.006\ntaper_d1 = 0.004\n",
     ("second_moment", "taper_d0")),
    ("area = 1e-5\ntaper_d0 = 0.006\ntaper_d1 = 0.004\n", ("area", "taper_d0")),
    ("cable_spacing = 0.01\nspacing_w0 = 0.01\nspacing_w1 = 0.005\n",
     ("cable_spacing", "spacing_w0")),
], ids=["second_moment_taper", "area_taper", "cable_spacing_cubic"])
def test_contradictory_model_overrides_rejected(text, keys):
    with pytest.raises(ConfigurationError) as info:
        model_from_config(parse_config("[model]\n" + text))
    assert all(key in str(info.value) for key in keys)


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
