"""Run configuration: strict INI-style parsing, defaults and serialization.

Sections: [run] scenario selection and output, [galerkin] modal solver
numerics, [sd] finite-difference numerics, [model] case selection plus
parameter overrides, [profile] an inline actuation profile.  Unknown sections
or keys are errors; values are validated with the offending key named.

The solver settings live on one ``SolverOptions`` (``RunConfig.options``),
which holds their defaults and validates them.  ``_OPTION_KEYS`` is the one
table that maps each INI key onto its ``SolverOptions`` field.
"""

from __future__ import annotations

import configparser
import inspect
import io
import math
from dataclasses import dataclass, field

from .actuation import FORCE, ActuationProfile, PROFILE_KINDS, profile_from_csv
from .errors import ConfigurationError
from .galerkin import SolverOptions
from .geometry import (GRAVITY, GeometryProfile, MaterialParams, DistributedLoad,
                       RobotModel, build_case_model, derived_density, CASE_IDS)
from .scenarios import Scenario, scenario_by_id

# (section, key) -> (SolverOptions field, type)
_OPTION_KEYS = {
    ("run", "fidelity"): ("fidelity", str),
    ("run", "output_stride"): ("output_stride", int),
    ("galerkin", "m"): ("m", int),
    ("galerkin", "dt"): ("dt", float),
    ("galerkin", "panels"): ("panels", int),
    ("galerkin", "points_per_panel"): ("points_per_panel", int),
    ("galerkin", "basis"): ("basis_kind", str),
    ("sd", "nodes"): ("sd_nodes", int),
    ("sd", "dt"): ("sd_dt", float),
}
_RUN_KEYS = {
    "scenario": str, "solver": str, "out": str, "repeats": int, "horizon": float,
}
_MODEL_KEYS = {
    "case": str, "length": float, "youngs_modulus": float, "density": float,
    "damping_coeff": float, "q_x": float, "q_y": float, "cable_spacing": float,
    "second_moment": float, "area": float, "taper_d0": float, "taper_d1": float,
    "spacing_w0": float, "spacing_w1": float,
}
_PROFILE_KEYS = {
    "mode": str, "kind": str, "slope": float, "offset": float,
    "amplitude": float, "omega": float, "t_shift": float, "height": float,
    "t0": float, "t_switch": float, "decay_rate": float, "t_cut": float,
    "hold_value": float, "csv": str,
}
_SECTIONS = {
    "run": _RUN_KEYS, "galerkin": {}, "sd": {},
    "model": _MODEL_KEYS, "profile": _PROFILE_KEYS,
}
_SOLVER_CHOICES = ("galerkin", "sd", "both")


@dataclass
class RunConfig:
    scenario: str = "case1_linear"
    solver: str = "both"
    out_dir: str = "out"
    repeats: int = 3
    horizon: float | None = None
    options: SolverOptions = field(default_factory=SolverOptions)
    model: dict = field(default_factory=dict)
    profile: dict = field(default_factory=dict)


def _convert(section, key, raw, typ):
    try:
        return typ(raw)
    except ValueError as exc:
        raise ConfigurationError(f"[{section}] {key}: cannot parse {raw!r}") from exc


def _text(value) -> str:
    return value if isinstance(value, str) else repr(value)


def parse_config(text: str) -> RunConfig:
    parser = configparser.ConfigParser(
        comment_prefixes=("#",), inline_comment_prefixes=("#",),
        interpolation=None,
    )
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigurationError(f"config parse error: {exc}") from exc

    cfg = RunConfig()
    options = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigurationError(f"unknown config section [{section}]")
        schema = _SECTIONS[section]
        for key, raw in parser.items(section):
            if (section, key) in _OPTION_KEYS:
                name, typ = _OPTION_KEYS[section, key]
                options[name] = _convert(section, key, raw, typ)
            elif key not in schema:
                raise ConfigurationError(f"unknown key {key!r} in section [{section}]")
            elif section == "run":
                setattr(cfg, {"out": "out_dir"}.get(key, key),
                        _convert(section, key, raw, schema[key]))
            else:
                getattr(cfg, section)[key] = _convert(section, key, raw, schema[key])
    cfg.options = SolverOptions(**options)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    if cfg.solver not in _SOLVER_CHOICES:
        raise ConfigurationError(f"solver must be one of {_SOLVER_CHOICES}")
    if cfg.repeats < 1:
        raise ConfigurationError("repeats must be at least 1")
    if cfg.horizon is not None and not 0 < cfg.horizon < math.inf:
        raise ConfigurationError("horizon must be positive and finite")
    if "case" in cfg.model and cfg.model["case"] not in CASE_IDS:
        raise ConfigurationError(f"[model] case must be one of {CASE_IDS}")
    if "kind" in cfg.profile and cfg.profile["kind"] not in PROFILE_KINDS:
        raise ConfigurationError(f"[profile] kind must be one of {PROFILE_KINDS}")
    if "mode" in cfg.profile and cfg.profile["mode"] not in ("force", "displacement"):
        raise ConfigurationError("[profile] mode must be force or displacement")


def serialize_config(cfg: RunConfig) -> str:
    sections = {"run": {"scenario": cfg.scenario, "solver": cfg.solver,
                        "out": cfg.out_dir, "repeats": repr(cfg.repeats)}}
    if cfg.horizon is not None:
        sections["run"]["horizon"] = repr(cfg.horizon)
    for (section, key), (name, _) in _OPTION_KEYS.items():
        sections.setdefault(section, {})[key] = _text(getattr(cfg.options, name))
    for name in ("model", "profile"):
        data = getattr(cfg, name)
        if data:
            sections[name] = {k: _text(v) for k, v in data.items()}
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict(sections)
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()


def model_from_config(cfg: RunConfig) -> RobotModel:
    ov = cfg.model
    base = build_case_model(ov.get("case", "case1"))
    length = ov.get("length", base.length)
    prof_i, prof_a, prof_w = base.profile_I, base.profile_A, base.profile_W
    for key, varied in (("second_moment", "taper_d"), ("area", "taper_d"),
                        ("cable_spacing", "spacing_w")):
        for other in (varied + "0", varied + "1"):
            if key in ov and other in ov:
                raise ConfigurationError(f"[model] {key} and {other} contradict: set one")
    if "second_moment" in ov:
        prof_i = GeometryProfile.constant(ov["second_moment"])
    if "area" in ov:
        if not 0 < ov["area"] < math.inf:
            # refused before a q_y override's density divides by it
            raise ConfigurationError("A(s) must stay finite and positive on [0, L]")
        prof_a = GeometryProfile.constant(ov["area"])
    if "cable_spacing" in ov:
        prof_w = GeometryProfile.constant(ov["cable_spacing"])
    if "taper_d0" in ov or "taper_d1" in ov:
        try:
            d0, d1 = ov["taper_d0"], ov["taper_d1"]
        except KeyError as exc:
            raise ConfigurationError("taper needs both taper_d0 and taper_d1") from exc
        prof_i = GeometryProfile.diameter_taper(d0, d1)
        prof_a = GeometryProfile.diameter_taper(d0, d1)
    if "spacing_w0" in ov or "spacing_w1" in ov:
        try:
            w0, w1 = ov["spacing_w0"], ov["spacing_w1"]
        except KeyError as exc:
            raise ConfigurationError("cubic spacing needs spacing_w0 and spacing_w1") from exc
        prof_w = GeometryProfile.cubic_spacing(w0, w1)
    load = DistributedLoad(q_x=ov.get("q_x", base.load.q_x),
                           q_y=ov.get("q_y", base.load.q_y))
    density = ov.get("density")
    if density is None:
        if load.q_y != base.load.q_y and abs(load.q_y) > 0:
            # the [model] area, else the area behind the case's own density
            area = ov.get("area", base.load.q_y / (base.material.density * GRAVITY))
            density = derived_density(abs(load.q_y), area)
        else:
            density = base.material.density
    material = MaterialParams(
        youngs_modulus=ov.get("youngs_modulus", base.material.youngs_modulus),
        density=density,
        damping_coeff=ov.get("damping_coeff", base.material.damping_coeff),
    )
    return RobotModel(length=length, profile_I=prof_i, profile_A=prof_a,
                      profile_W=prof_w, material=material, load=load)


def profile_from_config(cfg: RunConfig) -> ActuationProfile | None:
    """[profile] built by the constructor its kind names, its keys as keyword
    arguments: ``ActuationProfile.<kind>``, or ``profile_from_csv`` on the
    ``csv`` file for ``tabulated``.  ``mode`` is force unless set.  A missing
    key, or one the kind does not take, is a ConfigurationError naming it."""
    if not cfg.profile:
        return None
    kwargs = {"mode": FORCE, **cfg.profile}
    kind = kwargs.pop("kind", None)
    if kind not in PROFILE_KINDS:
        raise ConfigurationError(f"[profile] kind must be one of {PROFILE_KINDS}")
    build = ((lambda csv, mode: profile_from_csv(csv, mode=mode)) if kind == "tabulated"
             else getattr(ActuationProfile, kind))
    try:
        inspect.signature(build).bind(**kwargs)
    except TypeError as exc:
        raise ConfigurationError(f"[profile] kind {kind!r}: {exc}") from None
    return build(**kwargs)


def scenario_from_config(cfg: RunConfig) -> Scenario:
    """Builtin scenario by id, or an inline one from [model]/[profile].

    [model], [profile] and the [run] horizon override a builtin's own.
    """
    profile = profile_from_config(cfg)
    if cfg.scenario == "inline":
        if profile is None:
            raise ConfigurationError("inline scenario needs a [profile] section")
        sid, model, horizon = "inline", model_from_config(cfg), 3.0
    else:
        builtin = scenario_by_id(cfg.scenario)
        sid, horizon, profile = builtin.id, builtin.horizon, profile or builtin.profile
        model = model_from_config(cfg) if cfg.model else builtin.model
    return Scenario(id=sid, model=model, profile=profile,
                    horizon=cfg.horizon or horizon, options=cfg.options)
