"""Time-varying actuation inputs: differential cable force or cable displacement.

A profile is an immutable value object evaluatable at scalar or array times.
First and second time derivatives are provided analytically per kind; the
displacement-mode solver needs them for constraint stabilization.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

FORCE = "force"
DISPLACEMENT = "displacement"
_MODES = (FORCE, DISPLACEMENT)
PROFILE_KINDS = (
    "linear",
    "offset_sinusoid",
    "step",
    "ramp_then_sinusoid",
    "decaying_sinusoid",
    "tabulated",
)


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
        scalars = (self.slope, self.offset, self.amplitude, self.omega,
                   self.decay_rate, self.t_shift, self.hold_value)
        if not all(np.isfinite(scalars)):
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

    def value(self, t):
        t = np.asarray(t, dtype=float)
        k = self.kind
        if k == "linear":
            out = self.slope * t + self.offset
        elif k == "offset_sinusoid":
            out = self.offset - self.amplitude * np.sin(self.omega * (t - self.t_shift))
        elif k == "step":
            out = np.where(t >= self.t_shift, self.amplitude, 0.0)
        elif k == "ramp_then_sinusoid":
            out = np.where(
                t < self.t_shift,
                self.slope * t,
                self.offset + self.amplitude * np.sin(self.omega * (t - self.t_shift)),
            )
        elif k == "decaying_sinusoid":
            out = np.where(
                t < self.t_shift,
                self.offset - self.amplitude * np.exp(-self.decay_rate * t) * np.sin(self.omega * t),
                self.hold_value,
            )
        else:
            out = np.interp(t, self.times, self.values)
        return out if out.ndim else float(out)

    def rate(self, t):
        """d(value)/dt; step jumps are handled at the position level, not here."""
        t = np.asarray(t, dtype=float)
        k = self.kind
        if k == "linear":
            out = np.full_like(t, self.slope)
        elif k == "offset_sinusoid":
            out = -self.amplitude * self.omega * np.cos(self.omega * (t - self.t_shift))
        elif k == "step":
            out = np.zeros_like(t)
        elif k == "ramp_then_sinusoid":
            out = np.where(
                t < self.t_shift,
                self.slope,
                self.amplitude * self.omega * np.cos(self.omega * (t - self.t_shift)),
            )
        elif k == "decaying_sinusoid":
            env = self.amplitude * np.exp(-self.decay_rate * t)
            out = np.where(
                t < self.t_shift,
                env * (self.decay_rate * np.sin(self.omega * t) - self.omega * np.cos(self.omega * t)),
                0.0,
            )
        else:
            tt = np.asarray(self.times)
            vv = np.asarray(self.values)
            slopes = np.diff(vv) / np.diff(tt)
            idx = np.clip(np.searchsorted(tt, t, side="right") - 1, 0, len(slopes) - 1)
            out = np.where((t <= tt[0]) | (t >= tt[-1]), 0.0, slopes[idx])
        return out if out.ndim else float(out)

    def accel(self, t):
        """d^2(value)/dt^2 away from kinks."""
        t = np.asarray(t, dtype=float)
        k = self.kind
        if k == "offset_sinusoid":
            out = self.amplitude * self.omega**2 * np.sin(self.omega * (t - self.t_shift))
        elif k == "ramp_then_sinusoid":
            out = np.where(
                t < self.t_shift,
                0.0,
                -self.amplitude * self.omega**2 * np.sin(self.omega * (t - self.t_shift)),
            )
        elif k == "decaying_sinusoid":
            env = self.amplitude * np.exp(-self.decay_rate * t)
            d, w = self.decay_rate, self.omega
            out = np.where(
                t < self.t_shift,
                env * ((w**2 - d**2) * np.sin(w * t) + 2.0 * d * w * np.cos(w * t)),
                0.0,
            )
        else:
            out = np.zeros_like(t)
        return out if out.ndim else float(out)


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
