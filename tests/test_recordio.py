from dataclasses import replace

import numpy as np
import pytest

import cdcrdyn as cd
from cdcrdyn.recordio import (RECORD_HEADER, SHAPES_HEADER, format_benchmark_table,
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
    # the steep ramp of README's "Output formats" example stops at step 70
    record = cd.simulate(case1, cd.ActuationProfile.linear(3000.0),
                         cd.SolverOptions(t_end=1.0, output_stride=1))
    assert record.nc_step == 70
    path = tmp_path / "nc.csv"
    write_record_csv(record, str(path))
    last = path.read_text().splitlines()[-1]
    assert last.endswith(",0")
    back = read_record_csv(str(path))
    # the index of the last row, not the solver's step count
    assert back.nc_step == back.t.size - 1 == 69


def _per_value_csv(header, rows):
    return "\n".join([header] + [",".join(format(float(v), ".9g") for v in row)
                                 for row in rows]) + "\n"


def test_record_csv_bytes_match_per_value_format(tmp_path, case1):
    # an early stop flags its last row 0; its shapes file holds every snapshot
    record = cd.simulate(case1, cd.ActuationProfile.linear(3000.0),
                         cd.SolverOptions(t_end=1.0, output_stride=1))
    assert record.nc_step is not None and record.shape_t.size > 1
    n = record.t.size
    series = ("t", "tip_x", "tip_y", "theta_L", "delta_l", "gamma",
              "t_rot", "t_x", "t_y", "u_bend")
    rows = [[getattr(record, name)[i] for name in series] + [float(i < n - 1)]
            for i in range(n)]
    path = tmp_path / "nc.csv"
    write_record_csv(record, str(path))
    assert path.read_bytes() == _per_value_csv(RECORD_HEADER, rows).encode()
    shape_rows = [(t, s, record.shape_x[k, j], record.shape_y[k, j],
                   record.shape_theta[k, j])
                  for k, t in enumerate(record.shape_t)
                  for j, s in enumerate(record.shape_s)]
    assert (tmp_path / "nc_shapes.csv").read_bytes() == \
        _per_value_csv(SHAPES_HEADER, shape_rows).encode()
    # no snapshots: no shapes file; values at the edges of %.9g format alike
    edges = np.resize([-0.0, 1e-300, -1e300, 0.1 + 0.2, 123456789.5, 5e-324], n)
    bare = replace(record, nc_step=None, tip_y=edges, shape_t=np.zeros(0),
                   shape_s=np.zeros(0), shape_theta=np.zeros((0, 0)),
                   shape_x=np.zeros((0, 0)), shape_y=np.zeros((0, 0)))
    rows = [row[:2] + [edges[i]] + row[3:10] + [1.0] for i, row in enumerate(rows)]
    path = tmp_path / "bare.csv"
    write_record_csv(bare, str(path))
    assert path.read_bytes() == _per_value_csv(RECORD_HEADER, rows).encode()
    assert not (tmp_path / "bare_shapes.csv").exists()


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
