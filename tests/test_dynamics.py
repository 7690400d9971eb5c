"""Replicator fields, RK4 integration, grids: tangency, invariance, order."""

import math
import random

import numpy as np
import pytest

from cpgames import (
    DomainEscape,
    UnsupportedDimension,
    ValidationError,
    counterpart_games,
    enumerate_nash_bimatrix,
    integrate,
    integrate_batch,
    rd_coupled_field,
    rd_counterpart_fields,
    rd_single_field,
    sample_field_grid,
)


def rand_simplex(rng, n):
    cuts = sorted(rng.random() for _ in range(n - 1))
    parts = [cuts[0]] + [b - a for a, b in zip(cuts, cuts[1:])] + [1 - cuts[-1]]
    return np.array(parts)


def reference_field(system, game):
    """The field as 1-D products on one state, the arithmetic that batched
    evaluation must reproduce bit for bit; returns (field, dims)."""
    if system == "coupled":
        a, b, n = game.a_float(), game.b_float(), game.n_rows

        def f(s):
            x, y = s[:n], s[n:]
            ay, xb = a @ y, x @ b
            return np.concatenate([x * (ay - x @ ay), y * (xb - xb @ y)])

        return f, (n, game.n_cols)
    cp1, cp2 = counterpart_games(game)
    m = (cp1 if system == "cp1" else cp2).m_float()
    return (lambda x: x * (m @ x - x @ (m @ x))), (m.shape[0],)


def reference_rk4(system, game, start, dt, steps):
    """RK4 on one start with 1-D products, as integration ran before batching."""
    f, dims = reference_field(system, game)
    state = np.hstack(start).astype(np.float64)
    states = [state]
    for _ in range(steps):
        k1 = f(state)
        k2 = f(state + 0.5 * dt * k1)
        k3 = f(state + 0.5 * dt * k2)
        k4 = f(state + dt * k3)
        state = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        assert state.min() >= -1e-9
        state = np.where((state < 0.0) & (state >= -1e-12), 0.0, state)
        state = np.concatenate([p / p.sum() for p in np.split(state, np.cumsum(dims)[:-1])])
        states.append(state)
    return np.array(states)


class TestFields:
    def test_rps_centroid_is_rest(self, rps):
        cp1, _ = counterpart_games(rps)
        v = rd_single_field(cp1, [1 / 3, 1 / 3, 1 / 3])
        assert np.allclose(v, 0, atol=1e-15)

    def test_bos_cp1_hand_value(self, bos):
        cp1, _ = counterpart_games(bos)
        v = rd_single_field(cp1, [0.5, 0.5])
        assert np.allclose(v, [0.125, -0.125])

    def test_vertices_are_rest_points(self, leduc):
        cp1, _ = counterpart_games(leduc)
        for i in range(3):
            e = np.zeros(3)
            e[i] = 1.0
            assert np.allclose(rd_single_field(cp1, e), 0)

    def test_coupled_hand_value(self, bos):
        vx, vy = rd_coupled_field(bos, [0.5, 0.5], [0.5, 0.5])
        assert np.allclose(vx, [0.125, -0.125])
        assert np.allclose(vy, [-0.125, 0.125])

    def test_coupled_rest_at_equilibria(self, pd, bos):
        for g in (pd, bos):
            for c in enumerate_nash_bimatrix(g):
                vx, vy = rd_coupled_field(g, c.x, c.y)
                assert np.abs(vx).max() < 1e-15 and np.abs(vy).max() < 1e-15

    def test_equilibria_are_exact_rest_points(self, all_games):
        # exact-arithmetic check of the bracket terms: in-support fitness
        # equals the average payoff, so every velocity component vanishes
        from cpgames.games import _mat_vec, _vec_mat, _dot
        for g in all_games.values():
            for c in enumerate_nash_bimatrix(g):
                ay = _mat_vec(g.row_payoffs, c.y.probs)
                xb = _vec_mat(c.x.probs, g.col_payoffs)
                avg_a = _dot(c.x.probs, ay)
                avg_b = _dot(xb, c.y.probs)
                for i, p in enumerate(c.x.probs):
                    assert p * (ay[i] - avg_a) == 0
                for j, q in enumerate(c.y.probs):
                    assert q * (xb[j] - avg_b) == 0

    def test_counterpart_fields(self, bos, leduc):
        vy, vx = rd_counterpart_fields(bos, [0.6, 0.4], [0.4, 0.6])
        assert np.abs(vy).max() < 1e-15  # (2/5,3/5) is CP1's mixed equilibrium
        assert np.abs(vx).max() < 1e-15  # (3/5,2/5) is CP2's
        vy, vx = rd_counterpart_fields(leduc, [29 / 35, 0, 6 / 35], [9 / 28, 0, 19 / 28])
        assert np.abs(vy).max() < 1e-12 and np.abs(vx).max() < 1e-12

    def test_tangency_random_states(self, all_games):
        from cpgames import pad_to_square
        rng = random.Random(99)
        for g in all_games.values():
            square = g if g.is_square else pad_to_square(g)[0]
            cp1, cp2 = counterpart_games(square)
            for _ in range(200):
                x = rand_simplex(rng, g.n_rows)
                y = rand_simplex(rng, g.n_cols)
                vx, vy = rd_coupled_field(g, x, y)
                assert abs(vx.sum()) <= 1e-12 and abs(vy.sum()) <= 1e-12
                s = rand_simplex(rng, cp1.n)
                assert abs(rd_single_field(cp1, s).sum()) <= 1e-12
                assert abs(rd_single_field(cp2, s).sum()) <= 1e-12


class TestIntegrate:
    def test_pd_converges_to_defect(self, pd):
        traj = integrate("coupled", pd, ([0.9, 0.1], [0.9, 0.1]), dt=0.01, t_max=50)
        assert np.abs(traj.xs[-1] - [0, 1]).max() < 1e-3
        assert np.abs(traj.ys[-1] - [0, 1]).max() < 1e-3

    def test_rest_point_stays_constant(self, bos):
        traj = integrate("coupled", bos, ([0.6, 0.4], [0.4, 0.6]), dt=0.01, t_max=10)
        assert np.abs(traj.xs - [0.6, 0.4]).max() < 1e-12
        assert np.abs(traj.ys - [0.4, 0.6]).max() < 1e-12

    def test_face_invariance_exact(self, leduc):
        traj = integrate("coupled", leduc, ([0.5, 0.0, 0.5], [0.3, 0.0, 0.7]),
                         dt=0.01, t_max=20)
        assert np.all(traj.xs[:, 1] == 0.0)
        assert np.all(traj.ys[:, 1] == 0.0)

    def test_support_never_grows(self, rps):
        cp1, _ = counterpart_games(rps)
        traj = integrate("cp1", rps, [0.0, 0.4, 0.6], dt=0.01, t_max=5)
        assert np.all(traj.xs[:, 0] == 0.0)

    def test_rps_conserved_quantity(self, rps):
        traj = integrate("cp1", rps, [0.5, 0.3, 0.2], dt=0.01, t_max=100)
        q = np.log(traj.xs).mean(axis=1)
        assert np.abs(q - q[0]).max() < 1e-6

    def test_rk4_order(self, bos):
        start = ([0.60001, 0.39999], [0.40001, 0.59999])
        ref = integrate("coupled", bos, start, dt=0.001, t_max=10)
        ref_final = np.concatenate([ref.xs[-1], ref.ys[-1]])
        errs = {}
        for dt in (0.02, 0.01):
            t = integrate("coupled", bos, start, dt=dt, t_max=10)
            errs[dt] = np.abs(np.concatenate([t.xs[-1], t.ys[-1]]) - ref_final).max()
        assert errs[0.02] / errs[0.01] >= 12.0

    def test_leduc_zero_sum_conservation(self, leduc):
        xstar = np.array([29 / 35, 0, 6 / 35])
        ystar = np.array([9 / 28, 0, 19 / 28])
        traj = integrate("coupled", leduc, ([0.5, 0, 0.5], [0.5, 0, 0.5]),
                         dt=0.01, t_max=100)
        live_x, live_y = xstar > 0, ystar > 0
        q = np.log(traj.xs[:, live_x]) @ xstar[live_x] + np.log(traj.ys[:, live_y]) @ ystar[live_y]
        assert np.abs(q - q[0]).max() < 1e-5

    def test_records_every_step(self, pd):
        traj = integrate("coupled", pd, ([0.5, 0.5], [0.5, 0.5]), dt=0.1, t_max=1)
        assert traj.n_states == 11
        assert traj.times[0] == 0.0 and math.isclose(traj.times[-1], 1.0)

    def test_bad_init_rejected(self, pd):
        with pytest.raises(ValidationError):
            integrate("coupled", pd, ([0.5, 0.6], [0.5, 0.5]))
        with pytest.raises(ValidationError):
            integrate("coupled", pd, ([-0.1, 1.1], [0.5, 0.5]))
        # NaN fails every comparison, so a NaN start must be caught explicitly
        with pytest.raises(ValidationError):
            integrate("coupled", pd, ([math.nan, 1.0], [0.5, 0.5]))
        with pytest.raises(ValidationError):
            integrate_batch("coupled", pd, [([0.5, 0.5], [0.5, 0.5]), ([0.5, 0.5], [1.0, math.nan])])

    def test_domain_escape_on_huge_step(self, pd):
        with pytest.raises(DomainEscape):
            integrate("coupled", pd, ([0.9, 0.1], [0.9, 0.1]), dt=40.0, t_max=4000.0)

    def test_batch_matches_single_starts_bit_for_bit(self, bos, leduc, fullsupport):
        # BoS lattice starts such as ((1/2, 1/2), (1/2, 1/2)) lie on the
        # separatrix, where one ulp decides which equilibrium is reached.
        # The last start begins 1e-13 below the face, so the clamp runs.
        lattice = [([i / 6, 1 - i / 6], [j / 6, 1 - j / 6]) for i in range(1, 6) for j in range(1, 6)]
        simplex = [(i / 5, j / 5, (5 - i - j) / 5) for i in range(1, 5) for j in range(1, 5 - i)]
        mixed = [([0.2, 0.5, 0.3], [0.4, 0.4, 0.2]), ([0.6, 0.1, 0.3], [0.1, 0.1, 0.8]),
                 ([1 + 1e-13, -1e-13, 0.0], [0.3, 0.3, 0.4])]
        for system, game, starts in (("coupled", bos, lattice), ("cp1", leduc, simplex),
                                     ("cp2", leduc, simplex), ("coupled", fullsupport, mixed)):
            rec = integrate_batch(system, game, starts, dt=0.01, t_max=3)
            for k, start in enumerate(starts):
                traj = integrate(system, game, start, dt=0.01, t_max=3)
                one = traj.xs if traj.ys is None else np.hstack([traj.xs, traj.ys])
                assert np.array_equal(rec[:-1, k], one), (system, start)
                assert np.array_equal(rec[-1, k], one[-1])
                assert np.array_equal(one, reference_rk4(system, game, start, 0.01, 300)), (system, start)
        assert integrate("coupled", fullsupport, mixed[2], t_max=0.01).xs[1, 1] == 0.0

    def test_strided_record(self, pd, rps):
        for system, game, start in (("coupled", pd, ([0.9, 0.1], [0.2, 0.8])),
                                    ("cp1", rps, [0.5, 0.3, 0.2])):
            traj = integrate(system, game, start, dt=0.01, t_max=1)
            full = traj.xs if traj.ys is None else np.hstack([traj.xs, traj.ys])
            for stride in (1, 7, 10, 100, 150):
                rec = integrate_batch(system, game, [start], dt=0.01, t_max=1, stride=stride)
                assert np.array_equal(rec[:, 0], np.vstack([full[::stride], full[-1:]]))

    def test_batch_escape_of_one_start(self, pd):
        rest, escaping = ([1.0, 0.0], [1.0, 0.0]), ([0.9, 0.1], [0.9, 0.1])
        integrate_batch("coupled", pd, [rest, rest], dt=40.0, t_max=4000.0)
        for starts in ([rest, escaping], [escaping, rest]):
            with pytest.raises(DomainEscape):
                integrate_batch("coupled", pd, starts, dt=40.0, t_max=4000.0)

    def test_batch_validation(self, pd):
        with pytest.raises(ValidationError):
            integrate_batch("coupled", pd, [([0.5, 0.5], [0.5, 0.5]), ([0.5, 0.6], [0.5, 0.5])])
        with pytest.raises(ValidationError):
            integrate_batch("coupled", pd, [])
        with pytest.raises(ValidationError):
            integrate_batch("coupled", pd, [([0.5, 0.5], [0.5, 0.5])], stride=0)

    def test_states_stay_on_simplex(self, fullsupport):
        traj = integrate("coupled", fullsupport,
                         ([0.2, 0.5, 0.3], [0.4, 0.4, 0.2]), dt=0.01, t_max=30)
        assert np.abs(traj.xs.sum(axis=1) - 1).max() < 1e-9
        assert np.abs(traj.ys.sum(axis=1) - 1).max() < 1e-9
        assert traj.xs.min() >= 0 and traj.ys.min() >= 0


class TestGrids:
    def test_pd_square_grid(self, pd):
        samples = sample_field_grid("coupled", pd, 15)
        assert len(samples) == 225
        for s in samples:
            for v in s.velocities:
                assert abs(v.sum()) <= 1e-12

    def test_bos_corner_zero_velocity(self, bos):
        samples = sample_field_grid("coupled", bos, 3)
        corner = next(s for s in samples
                      if s.points[0][0] == 0.0 and s.points[1][0] == 0.0)
        assert np.allclose(corner.velocities[0], 0) and np.allclose(corner.velocities[1], 0)

    def test_rps_simplex_grid(self, rps):
        samples = sample_field_grid("cp1", rps, 20)
        assert len(samples) == 231
        for s in samples:
            assert abs(s.velocities[0].sum()) <= 1e-12
        cp1, _ = counterpart_games(rps)
        assert np.allclose(rd_single_field(cp1, [1 / 3, 1 / 3, 1 / 3]), 0, atol=1e-15)
        # at an exactly representable lattice resolution the centroid is sampled
        for s in sample_field_grid("cp1", rps, 21):
            if np.allclose(s.points[0], 1 / 3):
                assert np.allclose(s.velocities[0], 0, atol=1e-15)
                break
        else:
            pytest.fail("centroid missing from resolution-21 lattice")

    def test_grid_matches_pointwise_fields(self, pd, bos, rps, leduc):
        for g in (pd, bos):
            f, _ = reference_field("coupled", g)
            for sample in sample_field_grid("coupled", g, 15):
                vx, vy = rd_coupled_field(g, *sample.points)
                assert np.array_equal(sample.velocities[0], vx)
                assert np.array_equal(sample.velocities[1], vy)
                assert np.array_equal(np.hstack([vx, vy]), f(np.hstack(sample.points)))
        for g in (rps, leduc):
            for system, s in zip(("cp1", "cp2"), counterpart_games(g)):
                f, _ = reference_field(system, g)
                for grid in (sample_field_grid(system, g, 20), sample_field_grid("single", s, 7)):
                    for sample in grid:
                        v = rd_single_field(s, sample.points[0])
                        assert np.array_equal(sample.velocities[0], v)
                        assert np.array_equal(v, f(sample.points[0]))

    def test_unsupported_dimensions(self, fullsupport, bos):
        with pytest.raises(UnsupportedDimension):
            sample_field_grid("coupled", fullsupport, 10)  # 3x3 coupled has no grid
        cp1, _ = counterpart_games(bos)
        with pytest.raises(UnsupportedDimension):
            sample_field_grid("single", cp1, 10)  # 2-action simplex grid undefined
