"""Deterministic SVG phase portraits and CSV export.

Unit-square plots show 2x2 two-population dynamics (axis = probability of
each player's first action); simplex plots show 3-action single-population
dynamics on an equilateral triangle.  One renderer draws both: a plot kind
supplies its margin, grid cell count, frame lines, the columns of the
stacked state it plots with a linear map from them to the plane, its start
lattice and its markers.  A trajectory drops its final point when the
plotted columns repeat the last recorded point: P(first action) of each
player on the square, the whole state on the simplex.  Documents are plain
SVG 1.1 text with fixed number formatting, so identical inputs yield
identical bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TooLarge, UnsupportedDimension
from .games import BimatrixGame, SingleGame
from .dynamics import Trajectory, _n_steps, integrate_batch, sample_field_grid
from .solver import enumerate_nash_bimatrix, enumerate_rest_points
from .stability import classify_rest_point

_STYLE = """\
.frame { stroke: #888888; stroke-width: 1; fill: none; }
.label { font: 14px sans-serif; fill: #333333; }
.arrow { stroke: #4878cf; stroke-width: 1; fill: none; }
.trajectory { stroke: #222222; stroke-width: 1; fill: none; opacity: 0.75; }
.marker-nash-stable { fill: #f5c518; stroke: #8a6d00; stroke-width: 1.5; }
.marker-nash-unstable { fill: none; stroke: #e07b00; stroke-width: 2; }
.marker-rest { fill: none; stroke: #2e8b57; stroke-width: 2; }"""

SIZE_PX = 600  # width and height of every plot
PLOT_DT = 0.01  # RK4 step of the plotted trajectories
DEFAULT_GRID_SQUARE = 15
DEFAULT_GRID_SIMPLEX = 20
ARROW_FILL = 0.8  # max-velocity arrow length as a fraction of grid spacing
ARROW_MIN_SPEED = 1e-15  # grid samples slower than this get no arrow
TRAJ_MAX_POINTS = 400


@dataclass
class PlotSpec:
    """Rendering options; a grid_resolution of None falls back to the plot's
    default.  `kind` is not read: each plot function draws its own kind."""

    kind: str  # "square" | "simplex"
    grid_resolution: int | None = None
    trajectory_starts: object = "lattice"  # "lattice" | list of states | None
    t_max: float = 50.0


def _fmt(v: float) -> str:
    return f"{v:.4f}"


def _fmt17(v: float) -> str:
    return f"{float(v):.17g}"


def _points(coords_px) -> str:
    return " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in coords_px)


def _arrow_path(x1, y1, x2, y2) -> str:
    """Line segment plus a small two-stroke head at the tip."""
    angle = math.atan2(y2 - y1, x2 - x1)
    head = 0.35 * math.hypot(x2 - x1, y2 - y1)
    parts = [f"M {_fmt(x1)} {_fmt(y1)} L {_fmt(x2)} {_fmt(y2)}"]
    for sign in (-1.0, 1.0):
        a = angle + math.pi + sign * 0.45
        parts.append(f"M {_fmt(x2)} {_fmt(y2)} L {_fmt(x2 + head * math.cos(a))} {_fmt(y2 + head * math.sin(a))}")
    return " ".join(parts)


def _portrait(system: str, game, spec: PlotSpec, res: int, *, cells: int, margin: float,
              frame, columns, to_plane, lattice, markers) -> str:
    """The SVG document of one plot kind: head, `frame(game, to_px)`, arrows on
    the `sample_field_grid` grid of resolution `res` (`cells` cells a side),
    trajectories, `markers(game)` and the close.  `columns` picks the plotted
    entries of a stacked state and `to_plane` maps them linearly into the unit
    plot; markers come as (plotted entries, CSS class)."""
    side = SIZE_PX - 2 * margin
    if cells > side:  # before sampling: the grid's cost grows as res^2
        raise TooLarge(f"grid resolution {res} puts arrows less than 1 px apart; "
                       f"at most {res - cells + int(side)} fits this plot")

    def to_px(u, v):
        return margin + u * side, SIZE_PX - margin - v * side

    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {SIZE_PX} {SIZE_PX}" '
             f'width="{SIZE_PX}" height="{SIZE_PX}">', f"<style>\n{_STYLE}\n</style>", *frame(game, to_px)]

    points, velocities = sample_field_grid(system, game, res)
    points = points[:, columns]
    planar = [to_plane(velocity) for velocity in velocities[:, columns].tolist()]
    speeds = [math.hypot(*vel) for vel in planar]
    max_speed = max([0.0, *speeds])  # 0.0 first, so a NaN speed is never the max
    if max_speed > 0.0:
        spacing = side / cells
        scale = ARROW_FILL * spacing / max_speed
        for point, vel, speed in zip(points, planar, speeds):
            if speed < ARROW_MIN_SPEED:
                continue
            cx, cy = to_px(*to_plane(point))
            # SVG y grows downward; flip the vertical velocity component.
            dx, dy = vel[0] * scale, -vel[1] * scale
            path = _arrow_path(cx - dx / 2, cy - dy / 2, cx + dx / 2, cy + dy / 2)
            lines.append(f'<path class="arrow" d="{path}"/>')
    del points, velocities, planar, speeds  # before the join: about 30 MB at a grid of 501

    # Every (steps // TRAJ_MAX_POINTS)-th state and the final state of each start.
    starts = spec.trajectory_starts
    if isinstance(starts, str) and starts == "lattice":
        starts = lattice()
    if starts is not None and len(starts) > 0:
        stride = max(1, _n_steps(PLOT_DT, spec.t_max) // TRAJ_MAX_POINTS)
        for states in integrate_batch(system, game, starts, PLOT_DT, spec.t_max, stride).swapaxes(0, 1):
            pts = states[:, columns]
            if np.array_equal(pts[-2], pts[-1]):  # equal in the plotted columns, not the whole state
                pts = pts[:-1]
            lines.append(f'<polyline class="trajectory" points="{_points(to_px(*to_plane(p)) for p in pts)}"/>')

    for coords, cls in markers(game):
        cx, cy = to_px(*to_plane(coords))
        lines.append(f'<circle class="{cls}" cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="6"/>')
    lines.append("</svg>\n")
    return "\n".join(lines)


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


def plot_unit_square(g: BimatrixGame, spec: PlotSpec | None = None) -> str:
    """Directional field, trajectories and equilibrium markers of the coupled
    dynamics of a 2x2 game, on [0,1]^2 with axes = P(first action)."""
    if g.n_rows != 2 or g.n_cols != 2:
        raise UnsupportedDimension(f"unit-square plots need a 2x2 game, got {g.n_rows}x{g.n_cols}")
    spec = spec or PlotSpec(kind="square")
    res = DEFAULT_GRID_SQUARE if spec.grid_resolution is None else spec.grid_resolution
    # Entries 0 and 2 of (x, y) are P(first action) of each player; `tuple`
    # maps them to the plane as they are.
    return _portrait("coupled", g, spec, res, cells=res - 1, margin=50.0, frame=_square_frame,
                     columns=[0, 2], to_plane=tuple, lattice=_square_lattice_starts,
                     markers=_square_markers)


def _square_frame(g: BimatrixGame, to_px):
    x0, y0 = to_px(0, 0)
    x1, y1 = to_px(1, 1)
    mid = _fmt(SIZE_PX / 2)
    return [f'<rect class="frame" x="{_fmt(min(x0, x1))}" y="{_fmt(min(y0, y1))}" '
            f'width="{_fmt(abs(x1 - x0))}" height="{_fmt(abs(y1 - y0))}"/>',
            f'<text class="label" x="{mid}" y="{_fmt(SIZE_PX - 12)}" '
            f'text-anchor="middle">P1: P({g.row_actions[0]})</text>',
            f'<text class="label" x="14" y="{mid}" text-anchor="middle" '
            f'transform="rotate(-90 14 {mid})">P2: P({g.col_actions[0]})</text>']


def _square_markers(g: BimatrixGame):
    # a coupled equilibrium is a sink exactly when it is strict (Selten 1980),
    # so the exact flag decides at any payoff scale
    for eq in enumerate_nash_bimatrix(g):
        cls = "marker-nash-stable" if eq.is_strict else "marker-nash-unstable"
        yield (float(eq.x.probs[0]), float(eq.y.probs[0])), cls


def plot_simplex(s: SingleGame, spec: PlotSpec | None = None) -> str:
    """Directional field, trajectories and rest-point markers of a 3-action
    single-population game on the probability triangle."""
    if s.n != 3:
        raise UnsupportedDimension(f"simplex plots need a 3-action game, got {s.n}")
    spec = spec or PlotSpec(kind="simplex")
    res = DEFAULT_GRID_SIMPLEX if spec.grid_resolution is None else spec.grid_resolution
    # Tangent vectors map by the linear part, all of _bary_to_xy (corner 0 = origin).
    return _portrait("single", s, spec, res, cells=res, margin=60.0, frame=_simplex_frame,
                     columns=[0, 1, 2], to_plane=_bary_to_xy, lattice=_simplex_lattice_starts,
                     markers=_simplex_markers)


def _simplex_frame(s: SingleGame, to_px):
    corners_px = [to_px(*corner) for corner in _TRI]
    lines = [f'<polygon class="frame" points="{_points(corners_px)}"/>']
    anchors = [("end", 12, 16), ("start", -12, 16), ("middle", 0, -10)]
    for (cx, cy), action, (anchor, dx, dy) in zip(corners_px, s.actions, anchors):
        lines.append(f'<text class="label" x="{_fmt(cx + dx)}" y="{_fmt(cy + dy)}" '
                     f'text-anchor="{anchor}">{action}</text>')
    return lines


def _simplex_markers(s: SingleGame):
    for rp in enumerate_rest_points(s):
        if not rp.is_nash:  # the class whatever the spectrum, so not classified
            cls = "marker-rest"
        elif classify_rest_point("single", s, rp.point, nash_status=True).category == "ess_stable":
            cls = "marker-nash-stable"
        else:
            cls = "marker-nash-unstable"
        yield tuple(float(p) for p in rp.point.probs), cls


def export_csv(traj: Trajectory) -> str:
    """Bit-exact CSV of a Trajectory, with header t,x1..xn[,y1..ym].  Floats
    carry 17 significant digits so a re-parse reproduces them exactly."""
    n = traj.xs.shape[1]
    header = ["t"] + [f"x{i + 1}" for i in range(n)]
    if traj.ys is not None:
        header += [f"y{j + 1}" for j in range(traj.ys.shape[1])]
    rows = [",".join(header)]
    for idx in range(traj.n_states):
        vals = [traj.times[idx], *traj.xs[idx]]
        if traj.ys is not None:
            vals += list(traj.ys[idx])
        rows.append(",".join(_fmt17(v) for v in vals))
    return "\n".join(rows) + "\n"
