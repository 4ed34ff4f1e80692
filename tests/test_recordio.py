import numpy as np
import pytest

import cdcrdyn as cd
from cdcrdyn.recordio import (RECORD_HEADER, format_benchmark_table,
                              read_record_csv, record_shapes, shapes_path,
                              write_benchmark_csv, write_record_csv,
                              write_shape_svg)
from cdcrdyn.scenarios import ScenarioTiming, SpeedupReport


def _empty_record():
    zeros = np.zeros(0)
    empty = np.zeros((0, 0))
    return cd.SimulationRecord(
        scenario_id="empty", solver="galerkin", mode="force", fidelity="consistent",
        t=zeros, states=empty, rates=empty, accels=empty,
        tip_x=zeros, tip_y=zeros, theta_L=zeros, theta_s_L=zeros,
        delta_l=zeros, gamma=zeros, lambda_pre=zeros, lambda_post=zeros,
        t_rot=zeros, t_x=zeros, t_y=zeros, u_bend=zeros, g_pot=zeros,
        shape_t=zeros, shape_s=zeros, shape_theta=empty,
        shape_x=empty, shape_y=empty, compute_seconds=0.0)


def test_empty_record_writes_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_record_csv(_empty_record(), str(path))
    assert path.read_text() == RECORD_HEADER + "\n"


def test_record_csv_roundtrip(tmp_path, case1):
    record = cd.simulate(case1, cd.ActuationProfile.step(3.0),
                         cd.SolverOptions(t_end=0.2), scenario_id="case1_step")
    path = tmp_path / "rec.csv"
    write_record_csv(record, str(path))
    header = path.read_text().splitlines()[0]
    assert header == RECORD_HEADER
    loaded = read_record_csv(str(path))
    for name in ("t", "tip_x", "tip_y", "theta_L", "delta_l", "gamma",
                 "t_rot", "t_x", "t_y", "u_bend"):
        got = getattr(loaded, name)
        want = getattr(record, name)
        assert np.allclose(got, want, rtol=1e-8, atol=1e-12), name
    # shapes sibling round-trips too
    assert np.allclose(loaded.shape_theta, record.shape_theta, rtol=1e-8, atol=1e-12)
    assert loaded.ok


def test_record_csv_locale_independent(tmp_path, case1):
    record = cd.simulate(case1, cd.ActuationProfile.step(3.0),
                         cd.SolverOptions(t_end=0.05))
    path = tmp_path / "rec.csv"
    write_record_csv(record, str(path))
    text = path.read_text()
    assert ";" not in text
    for line in text.splitlines()[1:]:
        assert len(line.split(",")) == 11


def test_nc_record_flags_last_row(tmp_path, case1):
    record = cd.simulate(case1, cd.ActuationProfile.step(1e9),
                         cd.SolverOptions(t_end=1.0, fidelity="literal"))
    assert not record.ok
    path = tmp_path / "nc.csv"
    write_record_csv(record, str(path))
    last = path.read_text().splitlines()[-1]
    assert last.endswith(",0")
    assert read_record_csv(str(path)).nc_step is not None


def test_svg_single_straight_shape(tmp_path):
    s = np.linspace(0, 0.4, 21)
    shape = cd.BackboneShape(s, s, np.zeros_like(s))
    path = tmp_path / "shape.svg"
    write_shape_svg([(0.0, shape)], str(path), length=0.4)
    text = path.read_text()
    assert text.count("<polyline") == 1
    assert "t=0s" in text
    # straight rod: endpoints map to the centerline, tip at x = L
    assert 'points="' in text


def test_svg_five_snapshots(tmp_path):
    s = np.linspace(0, 0.4, 21)
    shapes = [(0.1 * k, cd.BackboneShape(s, s * np.cos(0.2 * k), s * np.sin(0.2 * k)))
              for k in range(5)]
    path = tmp_path / "family.svg"
    write_shape_svg(shapes, str(path), length=0.4)
    text = path.read_text()
    assert text.count("<polyline") == 5
    assert text.count("<text") == 5


def test_svg_requires_shapes(tmp_path):
    with pytest.raises(cd.ConfigurationError):
        write_shape_svg([], str(tmp_path / "x.svg"))


def test_record_shapes_reconstruction(case1):
    record = cd.simulate(case1, cd.ActuationProfile.step(3.0),
                         cd.SolverOptions(t_end=0.2))
    shapes = record_shapes(record)
    assert len(shapes) == record.shape_t.size
    t0, first = shapes[0]
    assert t0 == 0.0
    assert np.allclose(first.x, record.shape_s)  # straight start


def test_benchmark_serialization(tmp_path):
    report = SpeedupReport(
        rows=[ScenarioTiming("case1_linear", 2.662, 0.213, cd.speedup(2.662, 0.213)),
              ScenarioTiming("case2_step", None, None, None)],
        mean_speedup=0.92)
    path = tmp_path / "bench.csv"
    write_benchmark_csv(report, str(path))
    text = path.read_text()
    assert "case2_step,NC,NC,NC" in text
    table = format_benchmark_table(report)
    assert "NC" in table and "0.9200" in table
    # aligned columns: all rows share the header width
    lines = table.splitlines()
    assert all(len(line) <= len(lines[0]) + 2 for line in lines)


def test_shapes_path_naming():
    assert shapes_path("out/rec.csv") == "out/rec_shapes.csv"
    assert shapes_path("rec") == "rec_shapes.csv"
