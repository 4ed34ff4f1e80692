"""Time-varying actuation inputs: differential cable force or cable displacement.

A profile is an immutable value object evaluatable at scalar or array times.
First and second time derivatives are provided analytically per kind; the
displacement-mode solver needs them for constraint stabilization.  Each kind
is written once, as (value, rate, accel) on its pieces before and from
``t_shift``.  ``command(t)`` returns all three: for a float t it branches in
Python and calls numpy ufuncs on floats (about a microsecond), which is what a
modal step calls, once per step; ``value``, ``rate`` and ``accel`` are its
three parts, on floats or arrays.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

FORCE = "force"
DISPLACEMENT = "displacement"
_MODES = (FORCE, DISPLACEMENT)
_SCALARS = ("slope", "offset", "amplitude", "omega", "decay_rate", "t_shift", "hold_value")


@dataclass(frozen=True)
class ActuationProfile:
    mode: str
    kind: str
    slope: float = 0.0
    offset: float = 0.0
    amplitude: float = 0.0
    omega: float = 0.0
    decay_rate: float = 0.0
    t_shift: float = 0.0      # phase origin / step onset / ramp switch / decay cutoff
    hold_value: float = 0.0
    times: tuple = ()
    values: tuple = ()

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ConfigurationError(f"unknown actuation mode {self.mode!r}")
        if self.kind not in PROFILE_KINDS:
            raise ConfigurationError(f"unknown profile kind {self.kind!r}")
        if self.decay_rate < 0:
            raise ConfigurationError("decay_rate must be non-negative")
        for name in _SCALARS:   # so every piece returns floats
            object.__setattr__(self, name, float(getattr(self, name)))
        if not all(math.isfinite(getattr(self, name)) for name in _SCALARS):
            raise ConfigurationError("profile parameters must be finite")
        if self.kind == "tabulated":
            if len(self.times) != len(self.values) or len(self.times) < 2:
                raise ConfigurationError("tabulated profile needs matching t/value samples")
            if not (np.all(np.isfinite(self.times)) and np.all(np.isfinite(self.values))):
                raise ConfigurationError("tabulated samples must be finite")
            if any(b <= a for a, b in zip(self.times, self.times[1:])):
                raise ConfigurationError("tabulated samples must be strictly increasing in t")

    # -- constructors --------------------------------------------------------

    @classmethod
    def linear(cls, slope, offset=0.0, mode=FORCE):
        return cls(mode=mode, kind="linear", slope=slope, offset=offset)

    @classmethod
    def offset_sinusoid(cls, offset, amplitude, omega, t_shift=0.0, mode=FORCE):
        """offset - amplitude*sin(omega*(t - t_shift))."""
        return cls(mode=mode, kind="offset_sinusoid", offset=offset,
                   amplitude=amplitude, omega=omega, t_shift=t_shift)

    @classmethod
    def step(cls, height, t0=0.0, mode=FORCE):
        """height*u(t - t0) with the right-continuous convention u(0) = 1."""
        return cls(mode=mode, kind="step", amplitude=height, t_shift=t0)

    @classmethod
    def ramp_then_sinusoid(cls, slope, t_switch, offset, amplitude, omega, mode=DISPLACEMENT):
        """slope*t before t_switch, offset + amplitude*sin(omega*(t - t_switch)) after."""
        return cls(mode=mode, kind="ramp_then_sinusoid", slope=slope,
                   t_shift=t_switch, offset=offset, amplitude=amplitude, omega=omega)

    @classmethod
    def decaying_sinusoid(cls, offset, amplitude, decay_rate, omega, t_cut, hold_value,
                          mode=DISPLACEMENT):
        """offset - amplitude*exp(-decay_rate*t)*sin(omega*t) before t_cut, hold after."""
        return cls(mode=mode, kind="decaying_sinusoid", offset=offset,
                   amplitude=amplitude, decay_rate=decay_rate, omega=omega,
                   t_shift=t_cut, hold_value=hold_value)

    @classmethod
    def tabulated(cls, times, values, mode=FORCE):
        return cls(mode=mode, kind="tabulated",
                   times=tuple(float(t) for t in times),
                   values=tuple(float(v) for v in values))

    # -- evaluation -----------------------------------------------------------

    def command(self, t):
        """(value, rate, accel) at t: floats for a float t, arrays otherwise.

        A float t takes one piece of the kind, chosen by a Python branch on
        t_shift, with numpy ufuncs on floats; this is the per-step call.  Array
        times evaluate both pieces and pick with np.where.
        """
        early, late = _PIECES[self.kind]
        if not isinstance(t, float):
            t = np.asarray(t, dtype=float)
            if t.ndim:
                before = early(self, t)
                after = before if late is early else late(self, t)
                return tuple(np.where(t < self.t_shift, b, a) for b, a in zip(before, after))
            t = float(t)
        return (early if t < self.t_shift else late)(self, t)

    def value(self, t):
        return self.command(t)[0]

    def rate(self, t):
        """d(value)/dt; step jumps are handled at the position level, not here."""
        return self.command(t)[1]

    def accel(self, t):
        """d^2(value)/dt^2 away from kinks."""
        return self.command(t)[2]


# Each kind's (value, rate, accel) as functions of t, a float or an array, on
# its piece before t_shift and on its piece from t_shift on.
def _sinusoid(p, t, amplitude):
    phase = p.omega * (t - p.t_shift)
    sn = np.sin(phase)
    return (p.offset + amplitude * sn, amplitude * p.omega * np.cos(phase),
            -amplitude * p.omega**2 * sn)


def _decaying_sinusoid(p, t):
    d, w = p.decay_rate, p.omega
    env = p.amplitude * np.exp(-d * t)
    sn, cs = np.sin(w * t), np.cos(w * t)
    return (p.offset - env * sn, env * (d * sn - w * cs),
            env * ((w**2 - d**2) * sn + 2.0 * d * w * cs))


def _tabulated(p, t):
    tt, vv, ta = np.array(p.times), np.array(p.values), np.asarray(t)
    j = np.minimum(np.maximum(np.searchsorted(tt, ta, side="right"), 1), len(tt) - 1)
    slope = (vv[j] - vv[j - 1]) / (tt[j] - tt[j - 1])
    parts = (np.interp(ta, tt, vv), np.where((ta <= tt[0]) | (ta >= tt[-1]), 0.0, slope), 0.0)
    return tuple(float(x) for x in parts) if isinstance(t, float) else parts


_PIECES = {   # kind -> (piece for t < t_shift, piece for t >= t_shift)
    "linear": (lambda p, t: (p.slope * t + p.offset, p.slope, 0.0),) * 2,
    "offset_sinusoid": (lambda p, t: _sinusoid(p, t, -p.amplitude),) * 2,
    "step": (lambda p, t: (0.0, 0.0, 0.0), lambda p, t: (p.amplitude, 0.0, 0.0)),
    "ramp_then_sinusoid": (lambda p, t: (p.slope * t, p.slope, 0.0),
                           lambda p, t: _sinusoid(p, t, p.amplitude)),
    "decaying_sinusoid": (_decaying_sinusoid, lambda p, t: (p.hold_value, 0.0, 0.0)),
    "tabulated": (_tabulated,) * 2,
}
PROFILE_KINDS = tuple(_PIECES)


def profile_from_csv(path, mode=FORCE) -> ActuationProfile:
    """Load a tabulated profile from a two-column (t, value) CSV file."""
    times, values = [], []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].lstrip().startswith("#"):
                continue
            try:
                times.append(float(row[0]))
                values.append(float(row[1]))
            except (IndexError, ValueError) as exc:
                raise ConfigurationError(f"bad tabulated row {row!r} in {path}") from exc
    return ActuationProfile.tabulated(times, values, mode=mode)
