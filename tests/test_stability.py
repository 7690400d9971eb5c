"""Jacobian correctness against finite differences; stability taxonomy."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from cpgames import (
    MixedStrategy,
    NotNash,
    NotRestPoint,
    SingleGame,
    ValidationError,
    classify_rest_point,
    counterpart_games,
    enumerate_nash_bimatrix,
    enumerate_nash_single,
    enumerate_rest_points,
    make_bimatrix,
    pad_to_square,
    rd_coupled_field,
    rd_jacobian,
    rd_single_field,
    two_species_ess_check,
)
from cpgames.decomposition import random_game
from cpgames.stability import tangent_eigenvalues


def fd_jacobian(f, z, h=1e-6):
    """Central-difference oracle for the Jacobian of f at z."""
    z = np.asarray(z, dtype=float)
    n = z.shape[0]
    m = f(z).shape[0]
    jac = np.empty((m, n))
    for j in range(n):
        dz = np.zeros(n)
        dz[j] = h
        jac[:, j] = (f(z + dz) - f(z - dz)) / (2 * h)
    return jac


def orthonormal_tangent_eigenvalues(jacobian, dims):
    """Oracle: the tangent spectrum as P^T J P, with P an orthonormal basis of
    each population's zero-sum subspace, as `tangent_eigenvalues` computed it
    before it read the restriction on the basis e_i - e_last off J."""
    proj = np.zeros((sum(dims), sum(dims) - len(dims)))
    r_off = c_off = 0
    for n in dims:
        for k in range(1, n):
            col = np.zeros(n)
            col[:k] = 1.0
            col[k] = -k
            proj[r_off:r_off + n, c_off + k - 1] = col / np.sqrt(k * (k + 1))
        r_off += n
        c_off += n - 1
    return np.linalg.eigvals(proj.T @ jacobian @ proj)


def assert_same_spectrum(jacobian, dims):
    """`tangent_eigenvalues` equals the orthonormal oracle within 1e-12, each
    eigenvalue matched to its nearest counterpart."""
    rest = list(orthonormal_tangent_eigenvalues(jacobian, dims))
    got = tangent_eigenvalues(jacobian, dims)
    assert len(got) == len(rest)
    for z in got:
        k = min(range(len(rest)), key=lambda i: abs(rest[i] - z))
        assert abs(rest.pop(k) - z) < 1e-12, (z, got)


def single_fd(s, x):
    return fd_jacobian(lambda z: rd_single_field(s, z), x)


def coupled_fd(g, x, y):
    n = g.n_rows

    def f(z):
        vx, vy = rd_coupled_field(g, z[:n], z[n:])
        return np.concatenate([vx, vy])

    return fd_jacobian(f, np.concatenate([x, y]))


def bundled_rest_points(all_games):
    """Every rest point of every bundled counterpart plus all coupled equilibria."""
    singles, coupleds = [], []
    for g in all_games.values():
        square = g if g.is_square else pad_to_square(g)[0]
        for s in counterpart_games(square):
            for rp in enumerate_rest_points(s):
                singles.append((s, np.array(rp.point.probs, dtype=float)))
        for c in enumerate_nash_bimatrix(g):
            coupleds.append((g, np.array(c.x.probs, dtype=float), np.array(c.y.probs, dtype=float)))
    return singles, coupleds


class TestJacobianMatchesFiniteDifferences:
    def test_all_bundled_rest_points(self, all_games):
        singles, coupleds = bundled_rest_points(all_games)
        assert singles and coupleds
        for s, x in singles:
            analytic = rd_jacobian("single", s, x)
            assert np.abs(analytic - single_fd(s, x)).max() < 1e-5
        for g, x, y in coupleds:
            analytic = rd_jacobian("coupled", g, (x, y))
            assert np.abs(analytic - coupled_fd(g, x, y)).max() < 1e-5

    def test_random_rest_points(self):
        rng = random.Random(31)
        checked = 0
        while checked < 60:
            n = rng.choice([2, 3])
            s = SingleGame("t", tuple(f"a{i}" for i in range(n)),
                           tuple(tuple(Fraction(rng.randint(-5, 5)) for _ in range(n)) for _ in range(n)))
            for rp in enumerate_rest_points(s):
                if rp.continuum:
                    continue
                x = np.array(rp.point.probs, dtype=float)
                jac = rd_jacobian("single", s, x)
                assert np.abs(jac - single_fd(s, x)).max() < 1e-5
                assert_same_spectrum(jac, (n,))
                checked += 1

    def test_random_coupled_equilibria(self):
        # non-square games give the A and B^T blocks of the fitness map
        # different shapes, so a swapped or untransposed block cannot pass
        rng = random.Random(37)
        shapes = [(2, 2), (3, 3), (2, 3), (3, 2), (2, 4)]
        checked = dict.fromkeys(shapes, 0)
        while min(checked.values()) < 10:
            m, n = rng.choice(shapes)
            g = make_bimatrix("t", [f"r{i}" for i in range(m)], [f"c{j}" for j in range(n)],
                              [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)],
                              [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)])
            for c in enumerate_nash_bimatrix(g):
                x, y = np.array(c.x.probs, dtype=float), np.array(c.y.probs, dtype=float)
                jac = rd_jacobian("coupled", g, (x, y))
                assert np.abs(jac - coupled_fd(g, x, y)).max() < 1e-5
                assert_same_spectrum(jac, (m, n))
                checked[m, n] += 1

    def test_not_rest_point_rejected(self, bos):
        with pytest.raises(NotRestPoint):
            rd_jacobian("coupled", bos, ([0.5, 0.5], [0.5, 0.5]))


class TestClassification:
    def test_pd_strict_equilibrium_sink(self, pd):
        cls = classify_rest_point("coupled", pd, (MixedStrategy.exact([0, 1]),
                                                  MixedStrategy.exact([0, 1])), True)
        assert cls.category == "ess_stable" and cls.local_type == "sink"
        assert all(z.imag == 0 and z.real < 0 for z in cls.eigenvalues)
        assert cls.two_species_ess

    def test_rps_centroid_center(self, rps):
        cp1, _ = counterpart_games(rps)
        cls = classify_rest_point("single", cp1, [1 / 3, 1 / 3, 1 / 3], True)
        assert cls.category == "nash_not_ess" and cls.local_type == "center"
        expected = 1 / math.sqrt(3)
        imags = sorted(z.imag for z in cls.eigenvalues)
        assert abs(imags[0] + expected) < 1e-9 and abs(imags[1] - expected) < 1e-9
        assert cls.two_species_ess is False  # a coupled-system notion only

    def test_bos_mixed_saddle(self, bos):
        x = MixedStrategy.exact(["3/5", "2/5"])
        y = MixedStrategy.exact(["2/5", "3/5"])
        cls = classify_rest_point("coupled", bos, (x, y), True)
        assert cls.category == "nash_not_ess" and cls.local_type == "saddle"
        reals = sorted(z.real for z in cls.eigenvalues)
        assert abs(reals[0] + 1.2) < 1e-9 and abs(reals[1] - 1.2) < 1e-9
        assert not cls.two_species_ess

    def test_bos_pure_ess(self, bos):
        for pure in ([1, 0], [0, 1]):
            cls = classify_rest_point("coupled", bos, (MixedStrategy.exact(pure),
                                                       MixedStrategy.exact(pure)), True)
            assert cls.category == "ess_stable" and cls.two_species_ess

    @pytest.mark.parametrize("point, category, local_type, ess", [
        (([1.0, 0.0], [1.0, 0.0]), "ess_stable", "sink", True),
        (([0.0, 1.0], [0.0, 1.0]), "ess_stable", "sink", True),
        (([0.6, 0.4], [0.4, 0.6]), "nash_not_ess", "saddle", False),
    ])
    def test_bos_float_points(self, bos, point, category, local_type, ess):
        # float lists take the float-state branch of the two-species ESS decision
        cls = classify_rest_point("coupled", bos, point, nash_status=True)
        assert (cls.category, cls.local_type, cls.two_species_ess) == (category, local_type, ess)

    def test_bos_float_non_nash_point_raises(self, bos):
        with pytest.raises(NotNash):
            classify_rest_point("coupled", bos, ([1.0, 0.0], [0.0, 1.0]), nash_status=True)

    def test_float_support_threshold(self, bos):
        # at a float coupled point only entries above 1e-9 are played: BoS's
        # (O, O) with off-support entries in (0, 1e-9] is still that strict
        # pure profile, and in BoS scaled by 1/10 (so that the point stays a
        # rest point) an entry of 2e-9 makes the profile mixed
        for off in (1e-10, 3e-10):
            for point in (([1.0 - off, off], [1.0, 0.0]), ([1.0 - off, off], [1.0 - off, off])):
                cls = classify_rest_point("coupled", bos, point, nash_status=True)
                assert (cls.category, cls.two_species_ess) == ("ess_stable", True), point
        tenth = make_bimatrix("bos/10", ["O", "M"], ["O", "M"], [[0.3, 0], [0, 0.2]], [[0.2, 0], [0, 0.3]])
        for off, ess in ((5e-10, True), (2e-9, False)):
            cls = classify_rest_point("coupled", tenth, ([1.0 - off, off], [1.0, 0.0]), nash_status=True)
            assert (cls.category, cls.two_species_ess) == ("ess_stable", ess), off

    def test_nash_slack_applies_to_float_points_only(self, bos):
        # y is 1e-10 off BoS's mixed equilibrium, so the first row gains
        # 2e-10: Nash within the slack at a float point, not at an exact one
        x = MixedStrategy.exact(["3/5", "2/5"])
        off = MixedStrategy.exact([Fraction(2, 5) + Fraction(1, 10**10), Fraction(3, 5) - Fraction(1, 10**10)])
        cls = classify_rest_point("coupled", bos, ([0.6, 0.4], [float(p) for p in off.probs]), True)
        assert (cls.category, cls.two_species_ess) == ("nash_not_ess", False)
        with pytest.raises(NotNash):
            classify_rest_point("coupled", bos, (x, off), True)

    def test_extended_bos_cp2_face_rest_point(self, bos_extended):
        padded, _ = pad_to_square(bos_extended)
        _, cp2 = counterpart_games(padded)
        face = [r for r in enumerate_rest_points(cp2)
                if not r.is_nash and len(r.support) == 2][0]
        cls = classify_rest_point("single", cp2, face.point, nash_status=face.is_nash)
        assert cls.category == "non_nash_rest_point"

    def test_fullsupport_counterpart_equilibria_unstable(self, fullsupport):
        cp1, cp2 = counterpart_games(fullsupport)
        m1 = [c for c in enumerate_nash_single(cp1) if len(c.support_x) == 3][0]
        m2 = [c for c in enumerate_nash_single(cp2) if len(c.support_x) == 3][0]
        for s, c in ((cp1, m1), (cp2, m2)):
            cls = classify_rest_point("single", s, c.x, nash_status=True)
            assert cls.local_type != "sink"
            assert cls.category == "nash_not_ess"

    def test_points_off_the_simplex_rejected(self, rps, bos):
        cp1, _ = counterpart_games(rps)
        nan = float("nan")
        with pytest.raises(ValidationError):
            classify_rest_point("single", cp1, [0, 0, 0], True)
        with pytest.raises(ValidationError):
            classify_rest_point("single", cp1, [nan, nan, nan], True)
        with pytest.raises(ValidationError):
            classify_rest_point("coupled", bos, ([0, 0], [0, 0]), False)
        with pytest.raises(ValidationError):
            rd_jacobian("coupled", bos, ([nan, nan], [1, 0]))
        with pytest.raises(ValidationError):
            rd_jacobian("single", cp1, [0.5, 0.5, 0.5])

    @pytest.mark.parametrize("y, accepted", [
        ((-5e-11, 1 + 5e-11), True),
        ((-9e-10, 1 + 9e-10), True),
        ((0.0, 1 + 5e-10), True),
        ((-2e-9, 1 + 2e-9), False),
        ((0.0, 1 + 2e-9), False),
        ((float("nan"), 1.0), False),
        ((float("inf"), 1.0), False),
    ])
    def test_classify_and_jacobian_share_the_simplex_rule(self, pd, y, accepted):
        point = ((0.0, 1.0), y)  # at or near pd's (D, D)
        if accepted:
            rd_jacobian("coupled", pd, point)
            cls = classify_rest_point("coupled", pd, point, True)
            assert (cls.category, cls.two_species_ess) == ("ess_stable", True)
            return
        for call in (lambda: rd_jacobian("coupled", pd, point),
                     lambda: classify_rest_point("coupled", pd, point, True)):
            with pytest.raises(ValidationError, match="not on the probability simplex"):
                call()

    def test_only_single_and_coupled_systems(self, bos):
        for system in ("cp1", "cp2", "other"):
            with pytest.raises(ValidationError, match="expected 'single' or 'coupled'"):
                rd_jacobian(system, bos, [1, 0])


class TestTwoSpeciesEss:
    def test_bos_examples(self, bos):
        e1 = MixedStrategy.exact([1, 0])
        assert two_species_ess_check(bos, e1, e1)
        x = MixedStrategy.exact(["3/5", "2/5"])
        y = MixedStrategy.exact(["2/5", "3/5"])
        assert not two_species_ess_check(bos, x, y)

    def test_pd_defect(self, pd):
        d = MixedStrategy.exact([0, 1])
        assert two_species_ess_check(pd, d, d)

    def test_requires_nash(self, pd):
        c = MixedStrategy.exact([1, 0])
        with pytest.raises(NotNash):
            two_species_ess_check(pd, c, c)

    def test_strict_implies_sink(self, all_games):
        for g in all_games.values():
            for c in enumerate_nash_bimatrix(g):
                if not c.is_strict:
                    continue
                cls = classify_rest_point("coupled", g, (c.x, c.y), True)
                assert cls.two_species_ess
                assert cls.category == "ess_stable"

    def test_strict_pure_correspondence_random(self):
        # e_i strict in both counterparts <=> (e_i, e_i) strict in the game
        from cpgames.games import is_strict_equilibrium
        rng = random.Random(41)
        for _ in range(100):
            n = rng.choice([2, 3])
            g = random_game(rng, n)
            cp1, cp2 = counterpart_games(g)
            strict1, strict2 = ({c.x.probs for c in enumerate_nash_single(cp) if c.is_strict}
                                for cp in (cp1, cp2))
            for i in range(n):
                e = MixedStrategy.exact([1 if k == i else 0 for k in range(n)])
                both_strict = e.probs in strict1 and e.probs in strict2
                assert both_strict == is_strict_equilibrium(g, e, e)


class TestEigenvalueInvariance:
    def test_relabel_actions(self, fullsupport):
        # simultaneous row+column permutation of a counterpart leaves spectra alone
        cp1, _ = counterpart_games(fullsupport)
        perm = [2, 0, 1]
        relabeled = SingleGame(
            "t", tuple(cp1.actions[p] for p in perm),
            tuple(tuple(cp1.payoffs[perm[i]][perm[j]] for j in range(3)) for i in range(3)))
        for c in enumerate_nash_single(cp1):
            x = np.array(c.x.probs, dtype=float)
            x_perm = np.array([x[p] for p in perm])
            eig_a = tangent_eigenvalues(rd_jacobian("single", cp1, x), (3,))
            eig_b = tangent_eigenvalues(rd_jacobian("single", relabeled, x_perm), (3,))
            a = sorted(eig_a, key=lambda z: (round(z.real, 9), round(z.imag, 9)))
            b = sorted(eig_b, key=lambda z: (round(z.real, 9), round(z.imag, 9)))
            assert max(abs(u - v) for u, v in zip(a, b)) < 1e-9
