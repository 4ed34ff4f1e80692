import math

import numpy as np
import pytest

import cdcrdyn as cd
from cdcrdyn.actuation import ActuationProfile
from cdcrdyn.errors import ConfigurationError

TWO_PI = 2 * math.pi


def test_offset_sinusoid_at_phase_origin():
    prof = ActuationProfile.offset_sinusoid(1.5, 0.3, TWO_PI, 1.0)
    assert prof.value(1.0) == pytest.approx(1.5, abs=1e-15)


def test_case_d_hold_value():
    prof = ActuationProfile.decaying_sinusoid(0.046, 0.12, 0.35, TWO_PI, 4.0, 0.046,
                                              mode=cd.DISPLACEMENT)
    assert prof.value(5.0) == 0.046


def test_linear_through_origin():
    assert ActuationProfile.linear(0.008, mode=cd.DISPLACEMENT).value(0.0) == 0.0


def test_linear_with_offset():
    prof = ActuationProfile.linear(0.048, -0.048, mode=cd.DISPLACEMENT)
    assert prof.value(0.0) == pytest.approx(-0.048)
    assert prof.value(1.0) == pytest.approx(0.0)
    assert prof.value(2.5) == pytest.approx(0.048 * 1.5)


def test_step_is_right_continuous():
    prof = ActuationProfile.step(3.0, 0.0)
    assert prof.value(0.5) == 3.0
    assert prof.value(0.0) == 3.0  # u(0) = 1
    assert prof.value(-1e-9) == 0.0


def _all_profiles():
    return {
        "linear": ActuationProfile.linear(0.8, -0.2),
        "offset_sinusoid": ActuationProfile.offset_sinusoid(1.5, 0.3, TWO_PI, 1.0),
        "ramp_then_sinusoid": ActuationProfile.ramp_then_sinusoid(0.04, 2.0, 0.08, 0.018, TWO_PI),
        "decaying_sinusoid": ActuationProfile.decaying_sinusoid(0.046, 0.12, 0.35, TWO_PI, 4.0, 0.046),
        "tabulated": ActuationProfile.tabulated([0.0, 1.0, 2.5, 6.0], [0.0, 0.3, -0.2, 0.5]),
    }


def test_continuity_everywhere_except_step(rng):
    # every non-step kind is (at least piecewise-) Lipschitz: a 1e-9 probe
    # perturbation moves the value by no more than ~|slope| * 1e-9
    t = rng.uniform(0.0, 6.0, 1_000_000)
    eps = 1e-9
    for name, prof in _all_profiles().items():
        jump = np.abs(prof.value(t + eps) - prof.value(t))
        assert jump.max() < 1e-6, name


def test_ramp_sinusoid_continuous_at_switch():
    prof = ActuationProfile.ramp_then_sinusoid(0.04, 2.0, 0.08, 0.018, TWO_PI)
    assert 0.04 * 2.0 == 0.08
    assert prof.value(2.0 - 1e-12) == pytest.approx(prof.value(2.0), abs=1e-12)


def test_decaying_sinusoid_continuous_at_cut():
    prof = ActuationProfile.decaying_sinusoid(0.046, 0.12, 0.35, TWO_PI, 4.0, 0.046)
    inner = 0.046 - 0.12 * math.exp(-1.4) * math.sin(8 * math.pi)
    assert abs(inner - 0.046) < 1e-15
    assert prof.value(4.0 - 1e-12) == pytest.approx(0.046, abs=1e-11)


def test_rates_match_finite_differences(rng):
    # probe away from kinks (switch/cut times) so the analytic branch applies
    eps = 1e-6
    for name, prof in _all_profiles().items():
        if name == "tabulated":
            continue
        t = rng.uniform(0.05, 6.0, 200)
        t = t[np.abs(t - prof.t_shift) > 1e-2]
        fd_rate = (prof.value(t + eps) - prof.value(t - eps)) / (2 * eps)
        assert np.allclose(prof.rate(t), fd_rate, rtol=1e-5, atol=1e-6), name
        fd_acc = (prof.rate(t + eps) - prof.rate(t - eps)) / (2 * eps)
        assert np.allclose(prof.accel(t), fd_acc, rtol=1e-4, atol=1e-5), name


def test_tabulated_clamps_at_ends():
    prof = ActuationProfile.tabulated([1.0, 2.0], [5.0, 7.0])
    assert prof.value(0.0) == 5.0
    assert prof.value(3.0) == 7.0
    assert prof.value(1.5) == pytest.approx(6.0)
    assert prof.rate(1.5) == pytest.approx(2.0)
    assert prof.rate(0.0) == 0.0  # clamped regions are flat


def test_profile_csv_roundtrip(tmp_path):
    path = tmp_path / "input.csv"
    path.write_text("# t, value\n0.0,0.0\n1.0,0.25\n2.0,0.1\n")
    prof = cd.profile_from_csv(path, mode=cd.DISPLACEMENT)
    assert prof.kind == "tabulated" and prof.mode == cd.DISPLACEMENT
    assert prof.value(1.0) == 0.25


def test_validation_errors():
    with pytest.raises(ConfigurationError):
        ActuationProfile.tabulated([0.0, 0.0], [1.0, 2.0])
    # a NaN time would pass the ordering check: every comparison with NaN is false
    for times, values in (([0.0, math.nan, 2.0], [0.0, 1.0, 2.0]),
                          ([0.0, 1.0], [0.0, math.nan]),
                          ([0.0, math.inf], [0.0, 1.0]),
                          ([0.0, 1.0], [-math.inf, 1.0])):
        with pytest.raises(ConfigurationError):
            ActuationProfile.tabulated(times, values)
    with pytest.raises(ConfigurationError):
        ActuationProfile(mode="force", kind="nope")
    with pytest.raises(ConfigurationError):
        ActuationProfile(mode="sideways", kind="linear")
    with pytest.raises(ConfigurationError):
        ActuationProfile.decaying_sinusoid(0.0, 1.0, -0.1, 1.0, 1.0, 0.0)


def _six_kinds():
    return {**_all_profiles(), "step": ActuationProfile.step(3.0, 0.7)}


def _reference_series(prof, t):
    """(value, rate, accel) on an array of times, each kind's closed form
    written out vectorized with np.where, independent of the pieces."""
    a, w, d, ts, k = prof.amplitude, prof.omega, prof.decay_rate, prof.t_shift, prof.kind
    zero = np.zeros_like(t)
    if k == "linear":
        return prof.slope * t + prof.offset, np.full_like(t, prof.slope), zero
    if k == "offset_sinusoid":
        ph = w * (t - ts)
        return prof.offset - a * np.sin(ph), -a * w * np.cos(ph), a * w**2 * np.sin(ph)
    if k == "step":
        return np.where(t >= ts, a, 0.0), zero, zero
    if k == "ramp_then_sinusoid":
        ph, before = w * (t - ts), t < ts
        return (np.where(before, prof.slope * t, prof.offset + a * np.sin(ph)),
                np.where(before, prof.slope, a * w * np.cos(ph)),
                np.where(before, 0.0, -a * w**2 * np.sin(ph)))
    if k == "decaying_sinusoid":
        env, before = a * np.exp(-d * t), t < ts
        return (np.where(before, prof.offset - a * np.exp(-d * t) * np.sin(w * t), prof.hold_value),
                np.where(before, env * (d * np.sin(w * t) - w * np.cos(w * t)), 0.0),
                np.where(before, env * ((w**2 - d**2) * np.sin(w * t)
                                        + 2.0 * d * w * np.cos(w * t)), 0.0))
    tt, vv = np.asarray(prof.times), np.asarray(prof.values)
    slopes = np.diff(vv) / np.diff(tt)
    idx = np.clip(np.searchsorted(tt, t, side="right") - 1, 0, len(slopes) - 1)
    return (np.interp(t, tt, vv),
            np.where((t <= tt[0]) | (t >= tt[-1]), 0.0, slopes[idx]), zero)


def test_command_matches_array_methods_bit_for_bit(rng):
    # random times, t = 0, the shift itself, the tabulated samples and times
    # outside their range
    for name, prof in _six_kinds().items():
        t = np.concatenate([rng.uniform(-1.0, 8.0, 400), prof.times,
                            [0.0, prof.t_shift, np.nextafter(prof.t_shift, -1.0), -0.5, 7.5]])
        series = (prof.value(t), prof.rate(t), prof.accel(t))
        for got, want in zip(series, _reference_series(prof, t)):
            assert got.dtype == float and np.array_equal(got, want), name
        assert all(np.array_equal(a, b) for a, b in zip(prof.command(t), series)), name
        for i, ti in enumerate(t.tolist()):
            cmd = prof.command(ti)
            assert all(isinstance(x, float) for x in cmd), name
            assert cmd == (series[0][i], series[1][i], series[2][i]), (name, ti)
            assert cmd == (prof.value(ti), prof.rate(ti), prof.accel(ti)), (name, ti)
        # a 0-d array or an int time takes the float path
        assert prof.command(np.float64(1.0)) == prof.command(np.array(1.0)) == prof.command(1)


def test_scalar_parameters_are_floats():
    prof = ActuationProfile.step(3, 1)
    assert prof.command(2.0) == (3.0, 0.0, 0.0)
    assert all(type(x) is float for x in prof.command(2.0))
