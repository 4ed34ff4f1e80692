"""Result serialization: record CSV, shape CSV, SVG snapshots, benchmark tables.

All numeric output uses 9 significant digits with '.' decimal points,
independent of locale.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .kinematics import BackboneShape
from .records import SimulationRecord
from .scenarios import SpeedupReport

RECORD_HEADER = "t,tip_x,tip_y,theta_L,delta_l,gamma,T_rot,T_x,T_y,U_b,compute_flag"
SHAPES_HEADER = "t,s,x,y,theta"
_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
               "#8c564b", "#17becf", "#7f7f7f")


def _fmt(value: float) -> str:
    return format(float(value), ".9g")


def shapes_path(path: str) -> str:
    stem = path[:-4] if path.endswith(".csv") else path
    return stem + "_shapes.csv"


def write_record_csv(record: SimulationRecord, path: str) -> None:
    """One row per output sample; shape snapshots go to a sibling _shapes.csv."""
    lines = [RECORD_HEADER]
    n = record.t.size
    for i in range(n):
        flag = 0.0 if (record.nc_step is not None and i == n - 1) else 1.0
        lines.append(",".join(_fmt(v) for v in (
            record.t[i], record.tip_x[i], record.tip_y[i], record.theta_L[i],
            record.delta_l[i], record.gamma[i], record.t_rot[i], record.t_x[i],
            record.t_y[i], record.u_bend[i], flag)))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    if record.shape_theta.size:
        rows = [SHAPES_HEADER]
        for k, t in enumerate(record.shape_t):
            for j, s in enumerate(record.shape_s):
                rows.append(",".join(_fmt(v) for v in (
                    t, s, record.shape_x[k, j], record.shape_y[k, j],
                    record.shape_theta[k, j])))
        with open(shapes_path(path), "w", newline="") as fh:
            fh.write("\n".join(rows) + "\n")


def _numeric_rows(lines, header: str, path: str) -> np.ndarray:
    """Data lines below ``header`` as a (rows, fields) array; ConfigurationError if malformed."""
    width = header.count(",") + 1
    rows = []
    for row, line in enumerate(lines, start=1):
        cells = line.split(",")
        if len(cells) != width:
            raise ConfigurationError(
                f"{path}: data row {row} has {len(cells)} fields, expected {width}")
        try:
            rows.append([float(v) for v in cells])
        except ValueError as exc:
            raise ConfigurationError(f"{path}: data row {row}: {exc}") from None
    return np.array(rows, dtype=float).reshape(-1, width)


def read_record_csv(path: str) -> SimulationRecord:
    """Load a record written by write_record_csv (series and shapes only).

    A malformed record or shape file raises ConfigurationError, and so does a
    record with no data rows or whose t is not finite and strictly increasing.
    The read-back ``nc_step`` is the index of the last row when that row is
    flagged ``compute_flag = 0``, not the solver's step count: a modal
    ``linear(3000)`` run at stride 1 that stops at step 70 reads back with 69.
    """
    with open(path, newline="") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != RECORD_HEADER:
        raise ConfigurationError(f"{path} is not a simulation record CSV")
    data = _numeric_rows(lines[1:], RECORD_HEADER, path)
    n = data.shape[0]
    if n == 0:
        raise ConfigurationError(f"{path}: record has no data rows")
    if not (np.all(np.isfinite(data[:, 0])) and np.all(np.diff(data[:, 0]) > 0)):
        raise ConfigurationError(f"{path}: t must be finite and strictly increasing")
    empty = np.zeros((n, 0))
    zeros = np.zeros(n)
    shape_t = np.zeros(0)
    shape_s = np.zeros(0)
    shape_theta = np.zeros((0, 0))
    shape_x = np.zeros((0, 0))
    shape_y = np.zeros((0, 0))
    spath = shapes_path(path)
    try:
        with open(spath, newline="") as fh:
            slines = [ln.strip() for ln in fh if ln.strip()]
        if slines and slines[0] == SHAPES_HEADER:
            sdata = _numeric_rows(slines[1:], SHAPES_HEADER, spath)
            shape_t, idx = np.unique(sdata[:, 0], return_index=True)
            shape_t = sdata[np.sort(idx), 0]
            shape_s = sdata[sdata[:, 0] == shape_t[0], 1] if shape_t.size else shape_s
            k, p = shape_t.size, shape_s.size
            if k * p != sdata.shape[0]:
                raise ConfigurationError(f"{spath}: snapshots have unequal row counts")
            shape_x = sdata[:, 2].reshape(k, p)
            shape_y = sdata[:, 3].reshape(k, p)
            shape_theta = sdata[:, 4].reshape(k, p)
    except FileNotFoundError:
        pass
    return SimulationRecord(
        scenario_id="", solver="csv", mode="", fidelity="",
        t=data[:, 0], states=empty, rates=empty, accels=empty,
        tip_x=data[:, 1], tip_y=data[:, 2], theta_L=data[:, 3],
        theta_s_L=zeros.copy(), delta_l=data[:, 4], gamma=data[:, 5],
        lambda_pre=zeros.copy(), lambda_post=zeros.copy(),
        t_rot=data[:, 6], t_x=data[:, 7], t_y=data[:, 8], u_bend=data[:, 9],
        g_pot=zeros.copy(),
        shape_t=shape_t, shape_s=shape_s, shape_theta=shape_theta,
        shape_x=shape_x, shape_y=shape_y,
        compute_seconds=0.0,
        nc_step=(n - 1 if data[-1, 10] == 0.0 else None),
    )


def record_shapes(record: SimulationRecord):
    """Backbone snapshots stored in a record, as (time, BackboneShape) pairs."""
    return [(float(t), BackboneShape(s=record.shape_s, x=record.shape_x[k],
                                      y=record.shape_y[k]))
            for k, t in enumerate(record.shape_t)]


def write_shape_svg(shapes, path: str, length: float | None = None) -> None:
    """Self-contained SVG: one time-labeled polyline per backbone snapshot.

    ``shapes`` is a sequence of (time, BackboneShape); the viewport is fitted
    to [-L, L] x [-L, L].
    """
    shapes = list(shapes)
    if not shapes:
        raise ConfigurationError("need at least one shape to plot")
    if length is None:
        length = max(float(sh.s[-1]) for _, sh in shapes)
    size = 640.0
    margin = 40.0
    scale = (size - 2 * margin) / (2 * length)

    def to_screen(x, y):
        return margin + (x + length) * scale, margin + (length - y) * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" height="{size:.0f}" '
        f'viewBox="0 0 {size:.0f} {size:.0f}">',
        f'<rect width="{size:.0f}" height="{size:.0f}" fill="white"/>',
    ]
    ox, oy = to_screen(0.0, 0.0)
    parts.append(f'<line x1="{margin}" y1="{oy:.2f}" x2="{size - margin}" y2="{oy:.2f}" '
                 'stroke="#cccccc" stroke-width="1"/>')
    parts.append(f'<line x1="{ox:.2f}" y1="{margin}" x2="{ox:.2f}" y2="{size - margin}" '
                 'stroke="#cccccc" stroke-width="1"/>')
    for i, (t, sh) in enumerate(shapes):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        pts = " ".join(f"{px:.2f},{py:.2f}" for px, py in
                       (to_screen(x, y) for x, y in zip(sh.x, sh.y)))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     'stroke-width="1.5"/>')
        lx, ly = to_screen(sh.x[-1], sh.y[-1])
        parts.append(f'<text x="{lx + 4:.2f}" y="{ly:.2f}" font-size="11" '
                     f'fill="{color}">t={t:.3g}s</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def write_benchmark_csv(report: SpeedupReport, path: str) -> None:
    lines = ["scenario,t_sd,t_galerkin,speedup"]
    for row in report.rows:
        if row.speedup is None:
            lines.append(f"{row.scenario_id},NC,NC,NC")
        else:
            lines.append(f"{row.scenario_id},{_fmt(row.t_ref)},{_fmt(row.t_test)},"
                         f"{_fmt(row.speedup)}")
    if report.mean_speedup is not None:
        lines.append(f"mean,,,{_fmt(report.mean_speedup)}")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def format_benchmark_table(report: SpeedupReport) -> str:
    """Aligned plain-text timing table (SD and modal rows per scenario); a
    non-converged row names, after its NC cells, the solver and why it stopped."""
    header = f"{'Scenario':<16}{'SD [s]':>12}{'Galerkin [s]':>14}{'Speedup':>10}"
    rule = "-" * len(header)
    lines = [header, rule]
    for row in report.rows:
        if row.speedup is None:
            reason = f"  {row.reason}" if row.reason else ""
            lines.append(f"{row.scenario_id:<16}{'NC':>12}{'NC':>14}{'NC':>10}{reason}")
        else:
            lines.append(f"{row.scenario_id:<16}{row.t_ref:>12.4f}"
                         f"{row.t_test:>14.4f}{row.speedup:>10.4f}")
    lines.append(rule)
    mean = "NC" if report.mean_speedup is None else f"{report.mean_speedup:.4f}"
    lines.append(f"{'mean speedup':<16}{'':>12}{'':>14}{mean:>10}")
    return "\n".join(lines)
