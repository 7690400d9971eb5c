"""SVG structure, marker placement, determinism; CSV export round-trips."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from cpgames import (
    PlotSpec,
    TooLarge,
    UnsupportedDimension,
    ValidationError,
    counterpart_games,
    enumerate_rest_points,
    export_csv,
    integrate,
    make_bimatrix,
    pad_to_square,
    plot_simplex,
    plot_unit_square,
)
from cpgames import viz
from cpgames.viz import _bary_to_xy, _TRI
from conftest import count_calls


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

    def test_markers_do_not_change_with_payoff_scale(self, bos):
        # BoS x 1e-8 has BoS's equilibria and orbits on a slower clock, so its
        # 2 strict equilibria are sinks; their tangent eigenvalues (-2e-8,
        # -3e-8) sit inside the float spectrum's 1e-7 tolerance
        scale = Fraction(1, 10**8)
        slow = make_bimatrix("bos-slow", bos.row_actions, bos.col_actions,
                             [[v * scale for v in row] for row in bos.row_payoffs],
                             [[v * scale for v in row] for row in bos.col_payoffs])
        spec = PlotSpec(kind="square", trajectory_starts=None)
        markers = [re.findall(r"<circle [^>]*>", plot_unit_square(g, spec)) for g in (bos, slow)]
        assert markers[1] == markers[0]
        assert [m.count("marker-nash-stable") for m in markers[1]] == [1, 1, 0]

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


def test_nan_speed_never_scales_the_arrows(bos, monkeypatch):
    # a NaN velocity at the first sample (a corner, so no arrow otherwise)
    # gets a NaN arrow, and every other arrow keeps its length
    spec = PlotSpec(kind="square", grid_resolution=5, trajectory_starts=None)
    expected = re.findall(r'<path class="arrow" d="[^"]*"/>', plot_unit_square(bos, spec))
    points, velocities = viz.sample_field_grid("coupled", bos, 5)
    velocities[0] = np.nan
    monkeypatch.setattr(viz, "sample_field_grid", lambda *args: (points, velocities))
    got = re.findall(r'<path class="arrow" d="[^"]*"/>', plot_unit_square(bos, spec))
    assert "nan" in got[0] and got[1:] == expected


@pytest.mark.parametrize("kind, largest", [("square", 501), ("simplex", 480)])
def test_grid_bound_checked_before_sampling(bos, rps, monkeypatch, kind, largest):
    # a grid whose arrows sit less than 1 px apart is refused before it is
    # sampled, as sampling costs the resolution squared; the largest grid
    # that fits reaches the sampler
    class Sampled(Exception):
        pass

    def sampler(*args):
        raise Sampled

    monkeypatch.setattr(viz, "sample_field_grid", sampler)
    plot, game = (plot_unit_square, bos) if kind == "square" else (plot_simplex, counterpart_games(rps)[0])
    with pytest.raises(Sampled):
        plot(game, PlotSpec(kind=kind, grid_resolution=largest, trajectory_starts=None))
    for res in (largest + 1, 10**9):
        with pytest.raises(TooLarge, match=f"at most {largest} fits"):
            plot(game, PlotSpec(kind=kind, grid_resolution=res, trajectory_starts=None))


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

    def test_array_starts_plot_as_list(self, rps):
        # starts given as a numpy array plot the same bytes as the equal list
        cp1, _ = counterpart_games(rps)
        starts = [[0.2, 0.3, 0.5], [0.6, 0.1, 0.3]]
        as_list = plot_simplex(cp1, PlotSpec(kind="simplex", trajectory_starts=starts))
        assert plot_simplex(cp1, PlotSpec(kind="simplex", trajectory_starts=np.array(starts))) == as_list
        assert as_list.count('class="trajectory"') == 2

    def test_only_nash_rest_points_classified(self, all_games, monkeypatch):
        # a non-Nash rest point is marked rest_non_nash whatever its
        # spectrum, so only the Nash ones are classified: 16 of the 38 rest
        # points of the 8 bundled triangles
        calls = count_calls(monkeypatch, viz, "classify_rest_point")
        nash = total = 0
        for g in all_games.values():
            if g.n_rows == 3 or g.n_cols == 3:
                for cp in counterpart_games(pad_to_square(g)[0]):
                    plot_simplex(cp, PlotSpec(kind="simplex", trajectory_starts=None))
                    rest = enumerate_rest_points(cp)
                    nash, total = nash + sum(rp.is_nash for rp in rest), total + len(rest)
        assert (len(calls), nash, total) == (16, 16, 38)


class TestTrimRule:
    """A trajectory drops its final point only when the plotted columns repeat
    the last recorded point: P(first action) of each player on the square,
    the whole state on the simplex."""

    @staticmethod
    def plot_record(monkeypatch, plot, game, kind, *record):
        # one (records, starts, N) array in place of the integration
        monkeypatch.setattr(viz, "integrate_batch", lambda *args: np.array(record))
        svg = plot(game, PlotSpec(kind=kind, grid_resolution=2, trajectory_starts=["stub", "stub"]))
        return [pts.split(" ") for pts in re.findall(r'class="trajectory" points="([^"]*)"', svg)]

    def test_square_trims_on_plotted_columns(self, bos, monkeypatch):
        up = math.nextafter
        lines = self.plot_record(
            monkeypatch, plot_unit_square, bos, "square",
            [[0.5, 0.5, 0.5, 0.5], [0.5, 0.5, 0.5, 0.5]],
            [[0.6, 0.4, 0.3, 0.7], [0.6, 0.4, 0.3, 0.7]],
            # start 0 changes only columns 1 and 3, start 1 changes a plotted column
            [[0.6, up(0.4, 1.0), 0.3, up(0.7, 1.0)], [0.6, 0.4, up(0.3, 1.0), 0.7]])
        assert [len(pts) for pts in lines] == [2, 3]

    def test_simplex_trims_on_whole_state(self, rps, monkeypatch):
        cp1, _ = counterpart_games(rps)
        lines = self.plot_record(
            monkeypatch, plot_simplex, cp1, "simplex",
            [[1 / 3, 1 / 3, 1 / 3], [1 / 3, 1 / 3, 1 / 3]],
            [[0.2, 0.3, 0.5], [0.2, 0.3, 0.5]],
            # start 0 repeats exactly; one ulp in start 1's column 0 (the
            # origin corner) leaves its plotted point unchanged
            [[0.2, 0.3, 0.5], [math.nextafter(0.2, 1.0), 0.3, 0.5]])
        assert [len(pts) for pts in lines] == [2, 3]
        assert lines[1][1] == lines[1][2]


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

    def test_roundtrip_bit_exact(self, rps, fullsupport):
        for traj in (integrate("cp1", rps, [0.5, 0.3, 0.2], dt=0.01, t_max=1.0),
                     integrate("coupled", fullsupport, ([0.2, 0.5, 0.3], [0.4, 0.4, 0.2]), t_max=1.0)):
            lines = export_csv(traj).strip().split("\n")
            parsed = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
            states = traj.xs if traj.ys is None else np.hstack([traj.xs, traj.ys])
            assert np.array_equal(parsed[:, 0], traj.times)
            assert np.array_equal(parsed[:, 1:], states)

    def test_lf_line_endings(self, pd):
        traj = integrate("coupled", pd, ([0.9, 0.1], [0.9, 0.1]), dt=0.01, t_max=0.02)
        text = export_csv(traj)
        assert "\r" not in text and text.endswith("\n")
