"""SVG structure, marker placement, determinism; CSV export round-trips."""

import math
import re

import numpy as np
import pytest

from cpgames import (
    PlotSpec,
    UnsupportedDimension,
    ValidationError,
    counterpart_games,
    export_csv,
    integrate,
    make_bimatrix,
    pad_to_square,
    plot_simplex,
    plot_unit_square,
    sample_field_grid,
)
from cpgames.viz import _bary_to_xy, _TRI


def marker_positions(svg, cls):
    out = []
    for m in re.finditer(rf'<circle class="{cls}" cx="([-0-9.]+)" cy="([-0-9.]+)"', svg):
        out.append((float(m.group(1)), float(m.group(2))))
    return out


def from_px(pt, margin=50.0, height=600, side=500.0):
    return ((pt[0] - margin) / side, (height - margin - pt[1]) / side)


class TestUnitSquare:
    def test_bos_markers(self, bos):
        svg = plot_unit_square(bos, PlotSpec(kind="square", trajectory_starts=None))
        stable = [from_px(p) for p in marker_positions(svg, "marker-nash-stable")]
        unstable = [from_px(p) for p in marker_positions(svg, "marker-nash-unstable")]
        assert sorted(stable) == [(0.0, 0.0), (1.0, 1.0)]
        assert len(unstable) == 1
        assert abs(unstable[0][0] - 0.6) < 1e-3 and abs(unstable[0][1] - 0.4) < 1e-3

    def test_pd_single_marker(self, pd):
        svg = plot_unit_square(pd, PlotSpec(kind="square", trajectory_starts=None))
        stable = [from_px(p) for p in marker_positions(svg, "marker-nash-stable")]
        assert stable == [(0.0, 0.0)]  # axes encode P(C); (D,D) sits at the origin
        assert marker_positions(svg, "marker-nash-unstable") == []

    def test_pd_defect_first_variant(self):
        # with Defect listed first the axes encode P(D) and the marker moves to (1,1)
        g = make_bimatrix("pd-flipped", ["D", "C"], ["D", "C"],
                          [[1, 5], [0, 3]], [[1, 0], [5, 3]])
        svg = plot_unit_square(g, PlotSpec(kind="square", trajectory_starts=None))
        stable = [from_px(p) for p in marker_positions(svg, "marker-nash-stable")]
        assert stable == [(1.0, 1.0)]

    def test_has_arrows_and_trajectories(self, pd):
        svg = plot_unit_square(pd, PlotSpec(kind="square", t_max=5.0))
        assert svg.count('class="arrow"') == 225 - 4  # corners have zero velocity
        assert svg.count('class="trajectory"') == 25

    def test_wrong_dimension(self, fullsupport):
        with pytest.raises(UnsupportedDimension):
            plot_unit_square(fullsupport, PlotSpec(kind="square"))

    def test_grid_zero_rejected(self, bos):
        # 0 is a resolution, not "use the default"
        with pytest.raises(ValidationError, match="resolution must be at least 2"):
            plot_unit_square(bos, PlotSpec(kind="square", grid_resolution=0, trajectory_starts=None))

    def test_byte_deterministic(self, bos):
        spec = PlotSpec(kind="square", t_max=5.0)
        assert plot_unit_square(bos, spec) == plot_unit_square(bos, spec)


class TestSimplex:
    def test_rps_plot(self, rps):
        cp1, _ = counterpart_games(rps)
        svg = plot_simplex(cp1, PlotSpec(kind="simplex", t_max=20.0))
        assert svg.count('class="trajectory"') == 6
        unstable = marker_positions(svg, "marker-nash-unstable")
        assert len(unstable) == 1  # centroid, a center
        cx, cy = unstable[0]
        gx, gy = _bary_to_xy([1 / 3, 1 / 3, 1 / 3])
        assert abs(cx - (60 + gx * 480)) < 0.01 and abs(cy - (600 - 60 - gy * 480)) < 0.01

    def test_extended_bos_cp2_markers(self, bos_extended):
        padded, _ = pad_to_square(bos_extended)
        _, cp2 = counterpart_games(padded)
        svg = plot_simplex(cp2, PlotSpec(kind="simplex", trajectory_starts=None))
        assert len(marker_positions(svg, "marker-nash-stable")) == 1   # strict O corner
        assert len(marker_positions(svg, "marker-nash-unstable")) == 1  # tied M corner
        assert len(marker_positions(svg, "marker-rest")) == 2  # R corner + O-R face point

    def test_leduc_cp1_single_stable_marker(self, leduc):
        cp1, _ = counterpart_games(leduc)
        svg = plot_simplex(cp1, PlotSpec(kind="simplex", trajectory_starts=None))
        stable = marker_positions(svg, "marker-nash-stable")
        assert len(stable) == 1
        gx, gy = _bary_to_xy([9 / 28, 0, 19 / 28])
        assert abs(stable[0][0] - (60 + gx * 480)) < 0.01
        assert abs(stable[0][1] - (600 - 60 - gy * 480)) < 0.01
        assert svg.count("marker-nash-unstable") == 1  # style block only

    def test_corner_labels(self, leduc):
        cp1, _ = counterpart_games(leduc)
        svg = plot_simplex(cp1, PlotSpec(kind="simplex", trajectory_starts=None))
        for label in cp1.actions:
            assert f">{label}</text>" in svg

    def test_wrong_dimension(self, bos):
        cp1, _ = counterpart_games(bos)
        with pytest.raises(UnsupportedDimension):
            plot_simplex(cp1, PlotSpec(kind="simplex"))

    def test_grid_zero_rejected(self, rps):
        cp1, _ = counterpart_games(rps)
        with pytest.raises(ValidationError, match="resolution must be at least 2"):
            plot_simplex(cp1, PlotSpec(kind="simplex", grid_resolution=0, trajectory_starts=None))

    def test_byte_deterministic(self, rps):
        cp1, _ = counterpart_games(rps)
        spec = PlotSpec(kind="simplex", t_max=10.0)
        assert plot_simplex(cp1, spec) == plot_simplex(cp1, spec)


class TestBarycentric:
    def test_vertices_and_centroid(self):
        for i in range(3):
            p = [0.0, 0.0, 0.0]
            p[i] = 1.0
            assert _bary_to_xy(p) == _TRI[i]
        cx, cy = _bary_to_xy([1 / 3, 1 / 3, 1 / 3])
        tx = sum(v[0] for v in _TRI) / 3
        ty = sum(v[1] for v in _TRI) / 3
        assert math.isclose(cx, tx) and math.isclose(cy, ty)


class TestCsv:
    def test_trajectory_header_and_rows(self, pd):
        traj = integrate("coupled", pd, ([0.9, 0.1], [0.9, 0.1]), dt=0.01, t_max=0.03)
        text = export_csv(traj)
        lines = text.strip().split("\n")
        assert lines[0] == "t,x1,x2,y1,y2"
        assert len(lines) == 5  # header + 4 states for a 3-step run

    def test_single_trajectory_header(self, rps):
        traj = integrate("cp1", rps, [0.5, 0.3, 0.2], dt=0.01, t_max=0.02)
        assert export_csv(traj).split("\n")[0] == "t,x1,x2,x3"

    def test_roundtrip_bit_exact(self, rps):
        traj = integrate("cp1", rps, [0.5, 0.3, 0.2], dt=0.01, t_max=1.0)
        lines = export_csv(traj).strip().split("\n")
        parsed = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.array_equal(parsed[:, 0], traj.times)
        assert np.array_equal(parsed[:, 1:], traj.xs)

    def test_field_csv(self, pd):
        samples = sample_field_grid("coupled", pd, 3)
        text = export_csv(samples)
        lines = text.strip().split("\n")
        assert lines[0] == "p1,p2,p3,p4,v1,v2,v3,v4"
        assert len(lines) == 10

    def test_empty_field_list(self):
        assert export_csv([]) == "p1,v1\n"

    def test_lf_line_endings(self, pd):
        traj = integrate("coupled", pd, ([0.9, 0.1], [0.9, 0.1]), dt=0.01, t_max=0.02)
        text = export_csv(traj)
        assert "\r" not in text and text.endswith("\n")
