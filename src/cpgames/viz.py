"""Deterministic SVG phase portraits and CSV export.

Unit-square plots show 2x2 two-population dynamics (axis = probability of
each player's first action); simplex plots show 3-action single-population
dynamics on an equilateral triangle.  Documents are plain SVG 1.1 text with
fixed number formatting, so identical inputs yield identical bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedDimension
from .games import BimatrixGame, SingleGame
from .dynamics import FieldSample, Trajectory, _n_steps, integrate_batch, sample_field_grid
from .solver import enumerate_nash_bimatrix, enumerate_rest_points
from .stability import classify_rest_point

MARKER_CLASSES = {
    "nash_stable": "marker-nash-stable",
    "nash_unstable": "marker-nash-unstable",
    "rest_non_nash": "marker-rest",
}

_STYLE = """\
.frame { stroke: #888888; stroke-width: 1; fill: none; }
.label { font: 14px sans-serif; fill: #333333; }
.arrow { stroke: #4878cf; stroke-width: 1; fill: none; }
.trajectory { stroke: #222222; stroke-width: 1; fill: none; opacity: 0.75; }
.marker-nash-stable { fill: #f5c518; stroke: #8a6d00; stroke-width: 1.5; }
.marker-nash-unstable { fill: none; stroke: #e07b00; stroke-width: 2; }
.marker-rest { fill: none; stroke: #2e8b57; stroke-width: 2; }"""

DEFAULT_GRID_SQUARE = 15
DEFAULT_GRID_SIMPLEX = 20
ARROW_FILL = 0.8  # max-velocity arrow length as a fraction of grid spacing
TRAJ_MAX_POINTS = 400


@dataclass
class PlotSpec:
    """Rendering options; fields left at None fall back to per-kind defaults."""

    kind: str  # "square" | "simplex"
    grid_resolution: int | None = None
    trajectory_starts: object = "lattice"  # "lattice" | list of states | None
    markers: list | None = None  # [(coords, marker_class)]; None = derive from solver
    width_px: int = 600
    height_px: int = 600
    dt: float = 0.01
    t_max: float = 50.0


def _fmt(v: float) -> str:
    return f"{v:.4f}"


def _fmt17(v: float) -> str:
    return f"{float(v):.17g}"


def _svg_open(spec: PlotSpec) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {spec.width_px} {spec.height_px}" '
        f'width="{spec.width_px}" height="{spec.height_px}">',
        f"<style>\n{_STYLE}\n</style>",
    ]


def _arrow_path(x1, y1, x2, y2) -> str:
    """Line segment plus a small two-stroke head at the tip."""
    angle = math.atan2(y2 - y1, x2 - x1)
    head = 0.35 * math.hypot(x2 - x1, y2 - y1)
    parts = [f"M {_fmt(x1)} {_fmt(y1)} L {_fmt(x2)} {_fmt(y2)}"]
    for sign in (-1.0, 1.0):
        a = angle + math.pi + sign * 0.45
        parts.append(f"M {_fmt(x2)} {_fmt(y2)} L {_fmt(x2 + head * math.cos(a))} {_fmt(y2 + head * math.sin(a))}")
    return " ".join(parts)


def _render_arrows(lines, samples, to_px, spacing_px):
    max_speed = 0.0
    vecs = []
    for sample in samples:
        pos = _plot_coords(sample)
        vel = _plot_velocity(sample)
        speed = math.hypot(*vel)
        max_speed = max(max_speed, speed)
        vecs.append((pos, vel, speed))
    if max_speed <= 0.0:
        return
    scale = ARROW_FILL * spacing_px / max_speed
    for pos, vel, speed in vecs:
        if speed < 1e-15:
            continue
        cx, cy = to_px(*pos)
        # SVG y grows downward; flip the vertical velocity component.
        dx, dy = vel[0] * scale, -vel[1] * scale
        path = _arrow_path(cx - dx / 2, cy - dy / 2, cx + dx / 2, cy + dy / 2)
        lines.append(f'<path class="arrow" d="{path}"/>')


def _plot_coords(sample: FieldSample):
    if len(sample.points) == 2:
        return sample.points[0][0], sample.points[1][0]
    p = sample.points[0]
    return _bary_to_xy(p)


def _plot_velocity(sample: FieldSample):
    if len(sample.velocities) == 2:
        return sample.velocities[0][0], sample.velocities[1][0]
    # Tangent vectors map by the linear part, all of _bary_to_xy (corner 0 = origin).
    return _bary_to_xy(sample.velocities[0])


# Equilateral triangle with unit side: corner 0 bottom-left, corner 1
# bottom-right, corner 2 top.
_TRI = ((0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0))


def _bary_to_xy(p):
    x = p[0] * _TRI[0][0] + p[1] * _TRI[1][0] + p[2] * _TRI[2][0]
    y = p[0] * _TRI[0][1] + p[1] * _TRI[1][1] + p[2] * _TRI[2][1]
    return x, y


def _square_lattice_starts():
    return [((i / 6.0, 1.0 - i / 6.0), (j / 6.0, 1.0 - j / 6.0))
            for i in range(1, 6) for j in range(1, 6)]


def _simplex_lattice_starts(step: int = 5):
    starts = []
    for i in range(1, step):
        for j in range(1, step - i):
            k = step - i - j
            starts.append((i / step, j / step, k / step))
    return starts


def _trajectories(system: str, game, spec: PlotSpec, lattice):
    """Every (steps // TRAJ_MAX_POINTS)-th state and the final state of each
    trajectory start (`lattice()` by default), integrated together."""
    starts = spec.trajectory_starts
    if starts == "lattice":
        starts = lattice()
    if starts is None or len(starts) == 0:
        return []
    stride = max(1, _n_steps(spec.dt, spec.t_max) // TRAJ_MAX_POINTS)
    return integrate_batch(system, game, starts, spec.dt, spec.t_max, stride).swapaxes(0, 1)


def _trim(points):
    """Drop the final point when it repeats the last strided one."""
    return points[:-1] if np.array_equal(points[-2], points[-1]) else points


def _polyline(lines, coords_px):
    pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in coords_px)
    lines.append(f'<polyline class="trajectory" points="{pts}"/>')


def _marker(lines, cls: str, cx: float, cy: float):
    lines.append(f'<circle class="{MARKER_CLASSES[cls]}" cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="6"/>')


def plot_unit_square(g: BimatrixGame, spec: PlotSpec | None = None) -> str:
    """Directional field, trajectories and equilibrium markers of the coupled
    dynamics of a 2x2 game, on [0,1]^2 with axes = P(first action)."""
    if g.n_rows != 2 or g.n_cols != 2:
        raise UnsupportedDimension(f"unit-square plots need a 2x2 game, got {g.n_rows}x{g.n_cols}")
    spec = spec or PlotSpec(kind="square")
    res = DEFAULT_GRID_SQUARE if spec.grid_resolution is None else spec.grid_resolution
    margin = 50.0
    side = min(spec.width_px, spec.height_px) - 2 * margin

    def to_px(u, v):
        return margin + u * side, spec.height_px - margin - v * side

    lines = _svg_open(spec)
    x0, y0 = to_px(0, 0)
    x1, y1 = to_px(1, 1)
    lines.append(f'<rect class="frame" x="{_fmt(min(x0, x1))}" y="{_fmt(min(y0, y1))}" '
                 f'width="{_fmt(abs(x1 - x0))}" height="{_fmt(abs(y1 - y0))}"/>')
    lines.append(f'<text class="label" x="{_fmt(spec.width_px / 2)}" y="{_fmt(spec.height_px - 12)}" '
                 f'text-anchor="middle">P1: P({g.row_actions[0]})</text>')
    lines.append(f'<text class="label" x="14" y="{_fmt(spec.height_px / 2)}" text-anchor="middle" '
                 f'transform="rotate(-90 14 {_fmt(spec.height_px / 2)})">P2: P({g.col_actions[0]})</text>')

    samples = sample_field_grid("coupled", g, res)
    _render_arrows(lines, samples, to_px, side / (res - 1))

    for states in _trajectories("coupled", g, spec, _square_lattice_starts):
        pts = states[:, [0, 2]]  # P(first action) of each player
        _polyline(lines, [to_px(u, v) for u, v in _trim(pts)])

    for coords, cls in _square_markers(g, spec):
        _marker(lines, cls, *to_px(*coords))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _square_markers(g: BimatrixGame, spec: PlotSpec):
    if spec.markers is not None:
        return spec.markers
    markers = []
    for eq in enumerate_nash_bimatrix(g):
        cls_info = classify_rest_point("coupled", g, (eq.x, eq.y), nash_status=True)
        cls = "nash_stable" if cls_info.category == "ess_stable" else "nash_unstable"
        markers.append(((float(eq.x.probs[0]), float(eq.y.probs[0])), cls))
    return markers


def plot_simplex(s: SingleGame, spec: PlotSpec | None = None) -> str:
    """Directional field, trajectories and rest-point markers of a 3-action
    single-population game on the probability triangle."""
    if s.n != 3:
        raise UnsupportedDimension(f"simplex plots need a 3-action game, got {s.n}")
    spec = spec or PlotSpec(kind="simplex")
    res = DEFAULT_GRID_SIMPLEX if spec.grid_resolution is None else spec.grid_resolution
    margin = 60.0
    side = min(spec.width_px, spec.height_px) - 2 * margin

    def to_px(u, v):
        return margin + u * side, spec.height_px - margin - v * side

    lines = _svg_open(spec)
    corners_px = [to_px(*_TRI[i]) for i in range(3)]
    pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in corners_px)
    lines.append(f'<polygon class="frame" points="{pts}"/>')
    anchors = [("end", 12, 16), ("start", -12, 16), ("middle", 0, -10)]
    for idx, (anchor, dx, dy) in enumerate(anchors):
        cx, cy = corners_px[idx]
        lines.append(f'<text class="label" x="{_fmt(cx + dx)}" y="{_fmt(cy + dy)}" '
                     f'text-anchor="{anchor}">{s.actions[idx]}</text>')

    samples = sample_field_grid("single", s, res)
    _render_arrows(lines, samples, to_px, side / res)

    for states in _trajectories("single", s, spec, _simplex_lattice_starts):
        coords = [_bary_to_xy(p) for p in _trim(states)]
        _polyline(lines, [to_px(u, v) for u, v in coords])

    for coords, cls in _simplex_markers(s, spec):
        _marker(lines, cls, *to_px(*_bary_to_xy(coords)))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _simplex_markers(s: SingleGame, spec: PlotSpec):
    if spec.markers is not None:
        return spec.markers
    markers = []
    for rp in enumerate_rest_points(s):
        cls_info = classify_rest_point("single", s, rp.point, nash_status=rp.is_nash)
        if not rp.is_nash:
            cls = "rest_non_nash"
        elif cls_info.category == "ess_stable":
            cls = "nash_stable"
        else:
            cls = "nash_unstable"
        markers.append((tuple(float(p) for p in rp.point.probs), cls))
    return markers


def export_csv(data) -> str:
    """Bit-exact CSV for a Trajectory or a list of FieldSamples.

    Trajectories use header t,x1..xn[,y1..ym]; field samples use p1..pk
    followed by v1..vk over the concatenated populations.  Floats carry 17
    significant digits so a re-parse reproduces them exactly.
    """
    if isinstance(data, Trajectory):
        n = data.xs.shape[1]
        header = ["t"] + [f"x{i + 1}" for i in range(n)]
        if data.ys is not None:
            header += [f"y{j + 1}" for j in range(data.ys.shape[1])]
        rows = [",".join(header)]
        for idx in range(data.n_states):
            vals = [data.times[idx], *data.xs[idx]]
            if data.ys is not None:
                vals += list(data.ys[idx])
            rows.append(",".join(_fmt17(v) for v in vals))
        return "\n".join(rows) + "\n"
    samples = list(data)
    if not samples:
        return "p1,v1\n"
    k = sum(len(p) for p in samples[0].points)
    header = [f"p{i + 1}" for i in range(k)] + [f"v{i + 1}" for i in range(k)]
    rows = [",".join(header)]
    for sample in samples:
        flat = [v for block in sample.points for v in block]
        flat += [v for block in sample.velocities for v in block]
        rows.append(",".join(_fmt17(v) for v in flat))
    return "\n".join(rows) + "\n"
