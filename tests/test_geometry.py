import math
import re

import numpy as np
import pytest

import cdcrdyn as cd
from cdcrdyn.errors import ConfigurationError, DomainError


def test_constant_profiles_baseline(case1):
    s = np.linspace(0, case1.length, 7)
    assert np.allclose(case1.eval_I(s), 1.26e-11)
    assert np.allclose(case1.eval_A(s), 1.26e-5)
    assert np.allclose(case1.eval_W(s), 0.11)
    assert np.allclose(case1.eval_W_s(s), 0.0)


def test_taper_second_moment_at_base():
    model = cd.build_case_model("case2")
    expected = (math.pi / 64) * 0.006**4
    assert math.isclose(model.eval_I(0.0), expected, rel_tol=1e-12)
    assert math.isclose(expected, 6.3617e-11, rel_tol=1e-4)


def test_taper_area_at_tip():
    model = cd.build_case_model("case2")
    expected = (math.pi / 4) * 0.005**2
    assert math.isclose(model.eval_A(model.length), expected, rel_tol=1e-12)
    assert math.isclose(expected, 1.9635e-5, rel_tol=1e-4)


def test_degenerate_taper_is_constant():
    prof = cd.GeometryProfile.diameter_taper(0.004, 0.004)
    base = cd.build_case_model("case1")
    model = cd.RobotModel(length=base.length, profile_I=prof, profile_A=prof,
                          profile_W=base.profile_W, material=base.material,
                          load=base.load)
    s = np.linspace(0, base.length, 11)
    assert np.allclose(model.eval_I(s), (math.pi / 64) * 0.004**4)
    assert np.allclose(model.eval_A(s), (math.pi / 4) * 0.004**2)


def test_cubic_spacing_values():
    model = cd.build_case_model("case3")
    assert math.isclose(model.eval_W(0.0), 0.04, rel_tol=1e-12)
    assert math.isclose(model.eval_W(model.length), 0.01, rel_tol=1e-12)
    # gradient: -3 w1 s^2 / L^3
    assert math.isclose(model.eval_W_s(model.length), -3 * 0.03 / 0.4, rel_tol=1e-12)
    assert model.eval_W_s(0.0) == 0.0


def test_cumulative_load_closed_form(case1):
    qx, qy = case1.cumulative_load(0.0)
    assert qx == 0.0
    assert math.isclose(qy, 0.59176, rel_tol=1e-12)
    _, qy_mid = case1.cumulative_load(0.2)
    assert math.isclose(qy_mid, 0.29588, rel_tol=1e-12)
    assert case1.cumulative_load(case1.length) == (0.0, 0.0)


def test_cumulative_load_monotone(case1):
    s = np.linspace(0, case1.length, 1001)
    _, qy = case1.cumulative_load(s)
    assert np.all(np.diff(qy) <= 0)
    assert qy[-1] == 0.0


def test_domain_errors(case1):
    for bad in (-1e-6, case1.length + 1e-6):
        with pytest.raises(DomainError):
            case1.eval_I(bad)
        with pytest.raises(DomainError):
            case1.eval_W_s(bad)
        with pytest.raises(DomainError):
            case1.cumulative_load(bad)


def test_case_builders():
    c1 = cd.build_case_model("case1")
    assert c1.length == 0.4
    assert c1.material.youngs_modulus == 2e9
    assert c1.material.damping_coeff == 16.0
    assert c1.load.q_y == 1.4794 and c1.load.q_x == 0.0
    c2 = cd.build_case_model("case2")
    assert c2.profile_I.kind == "taper" and c2.profile_A.kind == "taper"
    assert c2.profile_W.kind == "constant"  # only the geometry changes
    c3 = cd.build_case_model("case3")
    assert c3.profile_W.kind == "cubic"
    assert c3.profile_I.kind == "constant"
    c4 = cd.build_case_model("case4")
    assert c4.profile_I == c1.profile_I and c4.profile_W == c1.profile_W
    with pytest.raises(ConfigurationError):
        cd.build_case_model("case9")


def test_default_density_reconstruction(case1):
    assert math.isclose(case1.material.density, 1.4794 / (1.26e-5 * 9.81), rel_tol=1e-12)
    assert math.isclose(case1.material.density, 1.1968e4, rel_tol=1e-4)


@pytest.mark.parametrize("case_id", ["case1", "case2", "case3", "case4"])
def test_profiles_positive_everywhere(case_id, rng):
    model = cd.build_case_model(case_id)
    s = rng.uniform(0, model.length, 1000)
    assert np.all(model.eval_I(s) > 0)
    assert np.all(model.eval_A(s) > 0)
    assert np.all(model.eval_W(s) > 0)


_TAPER = cd.GeometryProfile.diameter_taper(0.006, 0.005)
_CUBIC = cd.GeometryProfile.cubic_spacing(0.04, 0.03)
_UNKNOWN = cd.GeometryProfile(kind="bogus", value=1e-5)


@pytest.mark.parametrize("role, prof", [
    ("W", _TAPER), ("I", _CUBIC), ("A", _CUBIC),
    ("I", _UNKNOWN), ("A", _UNKNOWN), ("W", _UNKNOWN),
], ids=lambda v: v if isinstance(v, str) else v.kind)
def test_profile_kind_role_validation(case1, role, prof):
    fields = dict(length=case1.length, profile_I=case1.profile_I, profile_A=case1.profile_A,
                  profile_W=case1.profile_W, material=case1.material, load=case1.load)
    message = f"profile kind {prof.kind!r} not valid for {role}(s)"
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        cd.RobotModel(**{**fields, f"profile_{role}": prof})


@pytest.mark.parametrize("length", [0.4, 2.5])
def test_arc_length_check_is_shared(length):
    # every profile through its formula, and a basis, on one rod
    c2, c3 = cd.build_case_model("case2"), cd.build_case_model("case3")
    model = cd.RobotModel(length=length, profile_I=c2.profile_I, profile_A=c2.profile_A,
                          profile_W=c3.profile_W, material=c2.material, load=c2.load)
    basis = cd.ModalBasis(4, length)
    message = f"^{re.escape(f'arc length outside [0, {length}]')}$"
    tol = 1e-12 * max(1.0, length)
    for fn in (model.eval_I, model.eval_A, model.eval_W, model.eval_W_s,
               model.cumulative_load, basis.eval, basis.deriv, basis.eval_and_deriv):
        for bad in (-1e-9, length + 1e-9):
            for s in (bad, np.array([0.0, bad])):
                with pytest.raises(DomainError, match=message):
                    fn(s)
        for edge in (-1e-13, length + 1e-13, -0.9 * tol, length + 0.9 * tol):
            fn(edge)


def test_material_validation():
    with pytest.raises(ConfigurationError):
        cd.MaterialParams(-1.0, 1000.0, 16.0)
    with pytest.raises(ConfigurationError):
        cd.MaterialParams(2e9, 0.0, 16.0)
    with pytest.raises(ConfigurationError):
        cd.MaterialParams(2e9, 1000.0, -0.5)
    for bad in ((math.inf, 1000.0, 16.0), (2e9, math.inf, 16.0), (2e9, 1000.0, math.nan),
                (2e9, 1000.0, math.inf)):
        with pytest.raises(ConfigurationError):
            cd.MaterialParams(*bad)


def test_model_rejects_non_finite_geometry(case1):
    fields = dict(length=case1.length, profile_I=case1.profile_I, profile_A=case1.profile_A,
                  profile_W=case1.profile_W, material=case1.material, load=case1.load)
    for name, value in (("length", math.inf), ("profile_I", cd.GeometryProfile.constant(math.inf)),
                        ("profile_A", cd.GeometryProfile.constant(math.inf)),
                        ("profile_W", cd.GeometryProfile.cubic_spacing(0.04, math.inf))):
        with pytest.raises(ConfigurationError):
            cd.RobotModel(**{**fields, name: value})


def test_taper_diameters_must_be_positive():
    # a sign change puts a zero diameter, a hinge, between the model's probe points
    for d0, d1 in ((0.006, -0.005), (-0.006, 0.005), (-0.006, -0.005), (0.0, 0.005),
                   (0.006, 0.0), (math.inf, 0.004), (0.006, math.nan)):
        with pytest.raises(ConfigurationError, match="taper diameters"):
            cd.GeometryProfile.diameter_taper(d0, d1)
