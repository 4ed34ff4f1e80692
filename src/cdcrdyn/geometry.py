"""Physical plant description for a planar cable-driven continuum robot.

The robot backbone is an inextensible planar rod parameterized by arc length
s in [0, L], with spatially varying second moment of area I(s), cross-section
area A(s) and cable spacing W(s), a uniform distributed load (q_x, q_y) and
viscous damping.  Each profile is a constant, a linear diameter taper (I and
A) or a cubic spacing reduction (W).  ``_FORMULAS`` is the one statement of
which kind serves which role and how it is evaluated; a constant serves every
role.  ``check_arc_length`` is the one statement of which arc lengths are
valid.  Everything here is immutable after construction so models can be
shared freely between concurrent scenario runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

from .errors import ConfigurationError, DomainError

GRAVITY = 9.81  # m/s^2

# Baseline rig parameters (uniform rod).
BASE_LENGTH = 0.40          # m
BASE_DIAMETER = 0.004       # m
BASE_YOUNGS_MODULUS = 2e9   # Pa
BASE_CABLE_SPACING = 0.11   # m
BASE_SECOND_MOMENT = 1.26e-11   # m^4
BASE_AREA = 1.26e-5         # m^2
BASE_LOAD_Y = 1.4794        # N/m
BASE_LOAD_X = 0.0           # N/m
BASE_DAMPING = 16.0         # viscous coefficient, see MaterialParams

# Case-specific geometry variations.
TAPER_D0 = 0.006            # m, base diameter of the tapered rod
TAPER_D1 = 0.005            # m, tip diameter of the tapered rod
CUBIC_W0 = 0.04             # m, cable spacing at the base
CUBIC_W1 = 0.03             # m, cubic spacing reduction toward the tip

CASE_IDS = ("case1", "case2", "case3", "case4")


def derived_density(q_y: float, area: float) -> float:
    """Effective lumped density making the gravity load q_y = rho*A*g consistent."""
    return q_y / (area * GRAVITY)


@dataclass(frozen=True)
class MaterialParams:
    youngs_modulus: float   # Pa
    density: float          # kg/m^3 (effective, backbone plus disks)
    damping_coeff: float    # viscous coefficient c

    def __post_init__(self):
        if not 0 < self.youngs_modulus < math.inf:
            raise ConfigurationError("youngs_modulus must be positive and finite")
        if not 0 < self.density < math.inf:
            raise ConfigurationError("density must be positive and finite")
        if not 0 <= self.damping_coeff < math.inf:
            raise ConfigurationError("damping_coeff must be non-negative and finite")


@dataclass(frozen=True)
class GeometryProfile:
    """One spatial profile: constant, diameter taper or cubic spacing.

    A diameter taper stores the end diameters, both positive and finite.
    Which role each kind serves, and its formula there, is ``_FORMULAS``.
    """

    kind: str
    value: float = 0.0
    d0: float = 0.0
    d1: float = 0.0
    w0: float = 0.0
    w1: float = 0.0

    def __post_init__(self):
        # a diameter that changes sign passes through zero, a hinge in the rod
        if self.kind == "taper" and not (0 < self.d0 < math.inf and 0 < self.d1 < math.inf):
            raise ConfigurationError("taper diameters must be positive and finite")

    @classmethod
    def constant(cls, value: float) -> "GeometryProfile":
        return cls(kind="constant", value=value)

    @classmethod
    def diameter_taper(cls, d0: float, d1: float) -> "GeometryProfile":
        return cls(kind="taper", d0=d0, d1=d1)

    @classmethod
    def cubic_spacing(cls, w0: float, w1: float) -> "GeometryProfile":
        return cls(kind="cubic", w0=w0, w1=w1)


@dataclass(frozen=True)
class DistributedLoad:
    q_x: float = 0.0    # N/m
    q_y: float = 0.0    # N/m

    def __post_init__(self):
        if not (math.isfinite(self.q_x) and math.isfinite(self.q_y)):
            raise ConfigurationError("distributed load must be finite")


# (role, kind) -> value at arc lengths s on a rod of length L.  A constant
# profile is its own value for every role, with slope W_s = 0.
_FORMULAS = {
    ("I", "taper"): lambda p, s, L: (np.pi / 64.0) * (p.d0 + (p.d1 - p.d0) * s / L) ** 4,
    ("A", "taper"): lambda p, s, L: (np.pi / 4.0) * (p.d0 + (p.d1 - p.d0) * s / L) ** 2,
    ("W", "cubic"): lambda p, s, L: p.w0 - p.w1 * (s / L) ** 3,
    ("W_s", "cubic"): lambda p, s, L: -3.0 * p.w1 * s**2 / L**3,
}


def check_arc_length(s, length: float) -> np.ndarray:
    """s as a float array; DomainError if any entry lies outside [0, length]
    by more than 1e-12 max(1, length)."""
    s = np.asarray(s, dtype=float)
    tol = 1e-12 * max(1.0, length)
    if np.any(s < -tol) or np.any(s > length + tol):
        raise DomainError(f"arc length outside [0, {length}]")
    return s


@dataclass(frozen=True)
class RobotModel:
    length: float
    profile_I: GeometryProfile
    profile_A: GeometryProfile
    profile_W: GeometryProfile
    material: MaterialParams
    load: DistributedLoad = field(default_factory=DistributedLoad)

    def __post_init__(self):
        if not 0 < self.length < math.inf:
            raise ConfigurationError("length must be positive and finite")
        for name, prof in (("I", self.profile_I), ("A", self.profile_A),
                           ("W", self.profile_W)):
            if prof.kind != "constant" and (name, prof.kind) not in _FORMULAS:
                raise ConfigurationError(
                    f"profile kind {prof.kind!r} not valid for {name}(s)"
                )
        probe = np.linspace(0.0, self.length, 257)
        with np.errstate(all="ignore"):     # an inf or nan sample only fails the check
            for fn, name in ((self.eval_I, "I"), (self.eval_A, "A"), (self.eval_W, "W")):
                values = fn(probe)          # min and max propagate nan
                if not (0 < values.min() and values.max() < math.inf):
                    raise ConfigurationError(
                        f"{name}(s) must stay finite and positive on [0, L]")

    # -- profile evaluation ------------------------------------------------

    def _eval(self, role: str, prof: GeometryProfile, s):
        s = check_arc_length(s, self.length)
        if prof.kind == "constant":
            out = np.full_like(s, 0.0 if role == "W_s" else prof.value)
        else:
            out = _FORMULAS[role, prof.kind](prof, s, self.length)
        return out if out.ndim else float(out)

    def eval_I(self, s):
        """Second moment of area I(s) in m^4."""
        return self._eval("I", self.profile_I, s)

    def eval_A(self, s):
        """Cross-sectional area A(s) in m^2."""
        return self._eval("A", self.profile_A, s)

    def eval_W(self, s):
        """Cable spacing W(s) in m."""
        return self._eval("W", self.profile_W, s)

    def eval_W_s(self, s):
        """Spacing gradient dW/ds."""
        return self._eval("W_s", self.profile_W, s)

    def cumulative_load(self, s):
        """Remaining distributed load (Q_x, Q_y) = integral of q over [s, L]."""
        s = check_arc_length(s, self.length)
        rem = self.length - s
        qx = self.load.q_x * rem
        qy = self.load.q_y * rem
        if rem.ndim:
            return qx, qy
        return float(qx), float(qy)


def build_case_model(case_id: str) -> RobotModel:
    """Baseline rig with the per-case geometry substitution.

    case1: uniform rod, case2: linearly tapered diameter, case3: cubic cable
    spacing, case4: same geometry as case1 (displacement-actuated case).
    """
    if case_id not in CASE_IDS:
        raise ConfigurationError(f"unknown case id {case_id!r}")
    material = MaterialParams(BASE_YOUNGS_MODULUS, derived_density(BASE_LOAD_Y, BASE_AREA),
                              BASE_DAMPING)
    load = DistributedLoad(q_x=BASE_LOAD_X, q_y=BASE_LOAD_Y)
    prof_i = GeometryProfile.constant(BASE_SECOND_MOMENT)
    prof_a = GeometryProfile.constant(BASE_AREA)
    prof_w = GeometryProfile.constant(BASE_CABLE_SPACING)
    if case_id == "case2":
        prof_i = GeometryProfile.diameter_taper(TAPER_D0, TAPER_D1)
        prof_a = GeometryProfile.diameter_taper(TAPER_D0, TAPER_D1)
    elif case_id == "case3":
        prof_w = GeometryProfile.cubic_spacing(CUBIC_W0, CUBIC_W1)
    return RobotModel(
        length=BASE_LENGTH,
        profile_I=prof_i,
        profile_A=prof_a,
        profile_W=prof_w,
        material=material,
        load=load,
    )
