"""Support enumeration: equilibria, rest points, degeneracy detection."""

import collections
import dataclasses
import itertools
import json
import math
import random
import tracemalloc
from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from cpgames import (
    EquilibriumCandidate,
    MixedStrategy,
    SingleGame,
    TooLarge,
    counterpart_games,
    decompose,
    detect_degeneracy,
    enumerate_nash_bimatrix,
    enumerate_nash_single,
    enumerate_rest_points,
    is_nash_bimatrix,
    is_nash_single,
    is_strict_equilibrium,
    make_bimatrix,
    pad_to_square,
    serialize_game,
)
import cpgames.solver
from cpgames.cli import BUNDLED_GAMES, load_game, run_cli
from cpgames.decomposition import random_game, report_json
from cpgames.games import integer_form
from cpgames.linsolve import INCONSISTENT, UNDERDETERMINED, UNIQUE, solve_linear
from cpgames.solver import (MAX_ACTIONS, _PLANS, DegeneracyWitness, HalfTable, RestPoint,
                            SupportTable, _equal_size_pairs, _indifference)
from conftest import count_calls, exact_payoffs, matrix_game, tied_games


def F(s):
    return Fraction(s)


def profiles(eqs):
    return {(c.x.probs, c.y.probs) for c in eqs}


def solve_json(capsys, game, *flags):
    """The equilibria `cpg solve GAME --json` prints, with `flags` added."""
    assert run_cli(["solve", str(game), *flags, "--json"]) == 0
    return json.loads(capsys.readouterr().out)


def points(eqs):
    return {c.x.probs for c in eqs}


def reference_witnesses(table):
    """Oracle: the eager degeneracy scan, every equal-size pair's halves read
    from `table` by (k, rows, cols), witnesses in that order."""
    g = table.game
    witnesses = []
    for k in range(1, min(g.n_rows, g.n_cols) + 1):
        for rows in itertools.combinations(range(g.n_rows), k):
            for cols in itertools.combinations(range(g.n_cols), k):
                reasons = []
                for half in (table.y_half(rows, cols), table.x_half(rows, cols)):
                    if half.underdetermined:
                        reason = "continuum" if half.positive else "singular-system"
                    elif half.positive and half.best > k:
                        reason = "excess-best-responses"
                    else:
                        continue
                    if reason not in reasons:
                        reasons.append(reason)
                witnesses += [DegeneracyWitness((rows, cols), r) for r in reasons]
    return tuple(witnesses)


def reference_midpoint(particular, direction):
    """Oracle: the midpoint of the positive segment of the solution line
    particular + t * direction, or None.  The segment is open, and its ends
    are values of t at which a mix entry is 0, so it is the one gap between
    consecutive such values whose midpoint is positive on the mix."""
    ends = sorted({-p / d for p, d in zip(particular[:-1], direction[:-1]) if d})
    for lo, hi in zip(ends, ends[1:]):
        t = (lo + hi) / 2
        point = [p + t * d for p, d in zip(particular, direction)]
        if all(v > 0 for v in point[:-1]):
            return point
    return None


class Facts(NamedTuple):
    """A solved half by value: whether its solutions form a line or more,
    whether it is positive, the count of rows at the top payoff against its
    mix, whether its support rows are among them, its Nash verdict, and for
    a positive half its mix as Fractions in support order and its common
    payoff."""

    underdetermined: bool
    positive: bool
    best: int = 0
    top: bool = False
    nash: bool = False
    mix: tuple | None = None
    payoff: Fraction | None = None


def facts(half, k):
    """The Facts of a table's half on k rows."""
    if not half.positive:
        return Facts(half.underdetermined, False, half.best, half.top, half.nash)
    return Facts(half.underdetermined, True, half.best, half.top, half.nash,
                 half.strategy(k, range(k)).probs, half.payoff)


def reference_solve(table, rows, cols):
    """Oracle: a half's Facts by Fraction elimination, as (elimination's
    status, Facts).  The mix is the unique solution, or a singular half's
    `reference_midpoint` when its solutions form a line, and the payoff is
    elimination's common-payoff unknown there.  The best responses are then
    decided with the mix scaled by the common denominator of its entries,
    and only a unique half may be Nash.  The status tells the inconsistent
    halves from the unique ones that are not positive, which the half
    itself does not."""
    res = solve_linear(*_indifference(table.mat, rows, cols, table.scale))
    if res.status == INCONSISTENT:
        return res.status, Facts(False, False)
    if res.status == UNDERDETERMINED:
        point = reference_midpoint(res.solution, res.nullspace[0]) if len(res.nullspace) == 1 else None
        if point is None:
            return res.status, Facts(True, False)
    elif all(v > 0 for v in res.solution[:-1]):
        point = res.solution
    else:
        return res.status, Facts(False, False)
    y = point[:-1]
    scale = math.lcm(*(v.denominator for v in y))
    weights = [(j, v.numerator * (scale // v.denominator)) for j, v in zip(cols, y)]
    payoffs = [sum(row[j] * w for j, w in weights) for row in table.mat]
    high = max(payoffs)
    top = payoffs[rows[0]] == high
    return res.status, Facts(res.status == UNDERDETERMINED, True, payoffs.count(high), top,
                             top and res.status == UNIQUE, tuple(y), point[-1])


def reference_half(table, rows, cols):
    """Oracle: the Facts of `reference_solve`."""
    return reference_solve(table, rows, cols)[1]


def fraction_det(rows):
    """Oracle: the determinant of a square list of rows, by Fraction
    elimination with row swaps; 1 for no rows."""
    a = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for i in range(len(a)):
        pivot = next((r for r in range(i, len(a)) if a[r][i]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != i:
            a[i], a[pivot] = a[pivot], a[i]
            det = -det
        det *= a[i][i]
        for r in range(i + 1, len(a)):
            f = a[r][i] / a[i][i]
            for j in range(i, len(a)):
                a[r][j] -= f * a[i][j]
    return det


def reference_cofactors(mat, rows, cols):
    """Oracle: a half's integers as the table read them before difference
    minors, c_j = sum_i (-1)^(i+j) minor(rows - r_i, cols - c_j) of M."""
    return [sum((-1) ** (i + j) * fraction_det([[mat[r][col] for col in cols if col != cj]
                                                 for r in rows if r != ri])
                for i, ri in enumerate(rows))
            for j, cj in enumerate(cols)]


@st.composite
def matrices(draw, kinds, sizes=st.integers(1, 6)):
    """A matrix of `sizes` rows and columns whose Fraction entries are all
    drawn from one of the strategies `kinds`."""
    m, n, kind = draw(sizes), draw(sizes), draw(st.sampled_from(kinds))
    return [[Fraction(draw(kind)) for _ in range(n)] for _ in range(m)]


def cyclic_matrix(m, n):
    """An m x n matrix of entries in [-3, 3] that tie across rows and columns."""
    return [[Fraction((5 * i + 3 * j) % 7 - 3) for j in range(n)] for i in range(m)]


def seeded_game(rng, name):
    """A game with 1-4 actions a side and payoffs of at most 1, 2, 5 or 1000
    in size, over denominator 1 or 3."""
    m, n = rng.randint(1, 4), rng.randint(1, 4)
    r, den = rng.choice([1, 2, 5, 1000]), rng.choice([1, 1, 3])

    def mat():
        return [[Fraction(rng.randint(-r, r), den) for _ in range(n)] for _ in range(m)]

    return make_bimatrix(name, [f"r{k}" for k in range(m)], [f"c{k}" for k in range(n)],
                         mat(), mat())


def count_halves(monkeypatch):
    """Route `HalfTable._solve` through a counter, one call per half solved;
    returns the call list."""
    return count_calls(monkeypatch, HalfTable, "_solve")


def full_vector(n, support, mix):
    """The exact strategy on n actions with `mix` at `support`, through
    MixedStrategy's own check."""
    probs = [Fraction(0)] * n
    for i, v in zip(support, mix):
        probs[i] = v
    return MixedStrategy(tuple(probs), "exact")


def unpruned_enumeration(g):
    """Oracle: `enumerate_nash_bimatrix` without the dominance filter.  Both
    halves of every equal-size pair of a fresh table are read, as
    `_bimatrix_candidate` reads them, and each pair whose halves are both Nash
    yields its equilibrium."""
    table = SupportTable(g)
    found = []
    for k in range(1, min(g.n_rows, g.n_cols) + 1):
        for rows in itertools.combinations(range(g.n_rows), k):
            for cols in itertools.combinations(range(g.n_cols), k):
                yh, xh = facts(table.y_half(rows, cols), k), facts(table.x_half(rows, cols), k)
                if not (yh.nash and xh.nash):
                    continue
                found.append(EquilibriumCandidate(
                    x=full_vector(g.n_rows, rows, xh.mix), y=full_vector(g.n_cols, cols, yh.mix),
                    support_x=rows, support_y=cols,
                    is_strict=k == 1 and yh.best == 1 and xh.best == 1,
                    payoffs=(yh.payoff, xh.payoff)))
    return found


def unpruned_single(s):
    """Oracle: `enumerate_nash_single` and `enumerate_rest_points` without
    the support pruning.  Every support's half is read from a fresh
    `HalfTable`, and each positive one is a rest point, a continuum
    midpoint when the half is singular, whose Nash flag is checked against
    the game; the unique Nash ones are the equilibria.  Returns
    (equilibria, rest points)."""
    table = HalfTable(*s.int_payoffs)
    nash, rest = [], []
    for k in range(1, s.n + 1):
        for supp in itertools.combinations(range(s.n), k):
            half = facts(table.get(supp, supp), k)
            if not half.positive:
                continue
            x = full_vector(s.n, supp, half.mix)
            is_nash = is_nash_single(s, x)
            rest.append(RestPoint(x, supp, is_nash, half.payoff, half.underdetermined))
            if is_nash and not half.underdetermined:
                nash.append(EquilibriumCandidate(x, None, supp, None, k == 1 and half.best == 1,
                                                 half.payoff))
    return nash, rest


def bitmask(indices):
    return sum(1 << i for i in indices)


def assert_filter_matches_oracle(g):
    """The pruned enumeration equals the unpruned scan on `g`, the symmetric
    equilibria and rest points of its padded counterparts equal theirs, and
    every rest point has the Nash flag of an exact check.  Returns the
    numbers of equal-size pairs and of counterpart supports the filters
    skip."""
    table = SupportTable(g)
    assert enumerate_nash_bimatrix(g, table=table) == unpruned_enumeration(g), serialize_game(g)
    skipped = sum(bool(bitmask(rows) & ~table._y.undominated(bitmask(cols))
                       or bitmask(cols) & ~table._x.undominated(bitmask(rows)))
                  for k in range(1, min(g.n_rows, g.n_cols) + 1)
                  for rows, cols in itertools.product(itertools.combinations(range(g.n_rows), k),
                                                      itertools.combinations(range(g.n_cols), k)))
    supports = 0
    for cp in counterpart_games(pad_to_square(g)[0]):
        nash, rest = unpruned_single(cp)
        assert enumerate_nash_single(cp) == nash, serialize_game(g)
        assert enumerate_rest_points(cp) == rest, serialize_game(g)
        for rp in rest:
            assert rp.is_nash == is_nash_single(cp, rp.point), (serialize_game(g), rp)
            assert all(rp.point.probs[i] > 0 for i in rp.support)
        cp_table = HalfTable(*cp.int_payoffs)
        supports += sum(cp_table.holds_dominated(want) for want in range(1, 1 << cp.n))
    return skipped, supports


def solved(g):
    """The equilibria of `g` and its degeneracy witnesses as sorted
    (supports, reason) pairs, both read from one table."""
    table = SupportTable(g)
    witnesses = detect_degeneracy(g, table=table).witnesses
    return enumerate_nash_bimatrix(g, table=table), sorted((w.supports, w.reason) for w in witnesses)


def enumeration_order(c):
    return len(c.support_x), c.support_x, c.support_y


def brute_pure_equilibria(g):
    """Independent oracle: check every pure profile directly on the tables."""
    out = set()
    for i in range(g.n_rows):
        for j in range(g.n_cols):
            if all(g.row_payoffs[k][j] <= g.row_payoffs[i][j] for k in range(g.n_rows)) and \
               all(g.col_payoffs[i][l] <= g.col_payoffs[i][j] for l in range(g.n_cols)):
                e_i = tuple(Fraction(int(k == i)) for k in range(g.n_rows))
                e_j = tuple(Fraction(int(k == j)) for k in range(g.n_cols))
                out.add((e_i, e_j))
    return out


class TestBimatrixEnumeration:
    def test_bos_exactly_three(self, bos):
        eqs = enumerate_nash_bimatrix(bos)
        assert profiles(eqs) == {
            ((F(1), F(0)), (F(1), F(0))),
            ((F(0), F(1)), (F(0), F(1))),
            ((F("3/5"), F("2/5")), (F("2/5"), F("3/5"))),
        }
        assert [c.is_strict for c in eqs] == [True, True, False]

    def test_pd_unique(self, pd):
        eqs = enumerate_nash_bimatrix(pd)
        assert profiles(eqs) == {((F(0), F(1)), (F(0), F(1)))}
        assert eqs[0].is_strict

    def test_extended_bos_padded(self, bos_extended):
        padded, _ = pad_to_square(bos_extended)
        eqs = enumerate_nash_bimatrix(padded)
        assert profiles(eqs) == {
            ((F(1), F(0), F(0)), (F(1), F(0), F(0))),
            ((F(0), F(1), F(0)), (F(0), F(0), F(1))),
            ((F("3/5"), F("2/5"), F(0)), (F("2/5"), F(0), F("3/5"))),
        }

    def test_rps_unique_centroid(self, rps):
        eqs = enumerate_nash_bimatrix(rps)
        third = (F("1/3"),) * 3
        assert profiles(eqs) == {(third, third)}

    def test_pure_equilibria_match_brute_force(self):
        rng = random.Random(5)
        for _ in range(40):
            g = random_game(rng, rng.choice([2, 3]))
            found_pure = {(c.x.probs, c.y.probs)
                          for c in enumerate_nash_bimatrix(g)
                          if len(c.support_x) == 1 and len(c.support_y) == 1}
            assert found_pure == brute_pure_equilibria(g)

    def test_payoffs_are_expected_payoffs(self, all_games):
        # an equilibrium's payoffs are its halves' common payoffs, which are
        # x.Ay and x.By, its supports are its support pair and its strictness
        # is read from both halves' best-response counts; checked on direct
        # and reconstructed equilibria of the bundled games, their padded
        # forms and seeded games, square and not
        rng = random.Random(23)
        games = list(all_games.values())
        games += [pad_to_square(g)[0] for g in all_games.values() if not g.is_square]
        games += [random_game(rng, n, name=f"pay-{n}-{i}") for n in (3, 4) for i in range(20)]
        games += [seeded_game(rng, f"pay-{i}") for i in range(60)]
        checked = mixed = 0
        pure = {True: 0, False: 0}  # strict -> pure equilibria met
        reconstructed_nonsquare = 0
        for g in games:
            reconstructed = decompose(g, verify=False).reconstructed
            reconstructed_nonsquare += 0 if g.is_square else len(reconstructed)
            for c in enumerate_nash_bimatrix(g) + list(reconstructed):
                assert c.payoffs == exact_payoffs(g, c.x, c.y), (g.name, c.key())
                assert all(isinstance(v, Fraction) for v in c.payoffs)
                assert c.support_x == c.x.support() and c.support_y == c.y.support(), (g.name, c.key())
                assert c.is_strict == is_strict_equilibrium(g, c.x, c.y), (g.name, c.key())
                checked += 1
                mixed += len(c.support_x) > 1
                if len(c.support_x) == 1:
                    pure[c.is_strict] += 1
        assert checked > 2 * len(games) and mixed > 20
        assert pure[True] > 20 and pure[False] > 20 and reconstructed_nonsquare > 20

    def test_every_candidate_passes_exact_nash(self):
        rng = random.Random(17)
        for _ in range(25):
            g = random_game(rng, 3)
            for c in enumerate_nash_bimatrix(g):
                assert is_nash_bimatrix(g, c.x, c.y, tol=0.0)

    def test_equal_supports_on_nondegenerate(self):
        rng = random.Random(23)
        checked = 0
        while checked < 50:
            g = random_game(rng, rng.choice([2, 3, 4]))
            if detect_degeneracy(g).degenerate:
                continue
            for c in enumerate_nash_bimatrix(g):
                assert len(c.support_x) == len(c.support_y)
            checked += 1

    # The invariance properties run on tied games, where the witnesses and the
    # continuum halves are common.  Swapping the players turns each m x n
    # table into an n x m one, so it reads the minor store in both shapes.
    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(tied_games())
    def test_player_swap_transposes_equilibria_and_witnesses(self, g):
        # (A, B) -> (B^T, A^T): x and y, and the supports, trade places
        swapped = make_bimatrix("swapped", g.col_actions, g.row_actions,
                                [list(col) for col in zip(*g.col_payoffs)],
                                [list(col) for col in zip(*g.row_payoffs)])
        eqs, witnesses = solved(g)
        assert solved(swapped) == (
            sorted((EquilibriumCandidate(c.y, c.x, c.support_y, c.support_x, c.is_strict, c.payoffs[::-1])
                    for c in eqs), key=enumeration_order),
            sorted(((cols, rows), reason) for (rows, cols), reason in witnesses))

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(tied_games(), st.fractions(Fraction(1, 9), 9, max_denominator=9),
           st.fractions(-9, 9, max_denominator=9), st.fractions(Fraction(1, 9), 9, max_denominator=9),
           st.fractions(-9, 9, max_denominator=9))
    @example(load_game("bos"), 2, 3, 5, -1)
    @example(load_game("pd"), 2, 3, 5, -1)
    def test_affine_transform_invariance(self, g, a, b, c, d):
        # A -> a A + b and B -> c B + d with a, c > 0 keep every equilibrium,
        # its supports and strictness, and every witness; the payoffs follow
        transformed = make_bimatrix("affine", g.row_actions, g.col_actions,
                                    [[a * v + b for v in row] for row in g.row_payoffs],
                                    [[c * v + d for v in row] for row in g.col_payoffs])
        eqs, witnesses = solved(g)
        assert solved(transformed) == (
            [dataclasses.replace(e, payoffs=(a * e.payoffs[0] + b, c * e.payoffs[1] + d)) for e in eqs],
            witnesses)

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(tied_games(), st.data())
    def test_action_permutation_permutes_equilibria_and_witnesses(self, g, data):
        # row i of the permuted game is row rp[i] of g, column j column cp[j]
        rp = data.draw(st.permutations(range(g.n_rows)))
        cp = data.draw(st.permutations(range(g.n_cols)))
        permuted = make_bimatrix("permuted", [g.row_actions[i] for i in rp], [g.col_actions[j] for j in cp],
                                 [[g.row_payoffs[i][j] for j in cp] for i in rp],
                                 [[g.col_payoffs[i][j] for j in cp] for i in rp])

        def moved(perm, support):
            return tuple(sorted(perm.index(i) for i in support))

        def mixed(perm, strategy):
            return MixedStrategy(tuple(strategy.probs[i] for i in perm), "exact")

        eqs, witnesses = solved(g)
        assert solved(permuted) == (
            sorted((EquilibriumCandidate(mixed(rp, e.x), mixed(cp, e.y), moved(rp, e.support_x),
                                         moved(cp, e.support_y), e.is_strict, e.payoffs)
                    for e in eqs), key=enumeration_order),
            sorted(((moved(rp, rows), moved(cp, cols)), reason) for (rows, cols), reason in witnesses))

    def test_float_mode_agrees_on_bundled(self, capsys):
        # `cpg solve --float` renders each exact equilibrium within 1e-9
        for name in BUNDLED_GAMES:
            exact = solve_json(capsys, name)
            approx = solve_json(capsys, name, "--float")
            assert len(exact) == len(approx), name
            for ce, cf in zip(exact, approx):
                flat_e = [float(Fraction(p)) for p in ce["x"] + ce["y"]]
                flat_f = cf["x"] + cf["y"]
                assert max(abs(a - b) for a, b in zip(flat_e, flat_f)) < 1e-9, name

    @pytest.mark.parametrize("a, count", [([[1, 0], [0, 1]], 3), ([[0, 1], [1, 0]], 1)])
    def test_float_mode_finds_exact_set_at_wide_payoffs(self, a, count, tmp_path, capsys):
        # Float64 elimination with a scaled pivot threshold rejects valid
        # pivots here, and the column mix puts about 1e-10 on one row, so
        # `cpg solve --float` falls back to the rounded exact mix.
        path = tmp_path / "wide.json"
        path.write_text(serialize_game(make_bimatrix("wide", ["r0", "r1"], ["c0", "c1"], a,
                                                     [[10**10, 0], [0, 1]])))
        exact = solve_json(capsys, path)
        approx = solve_json(capsys, path, "--float")
        assert len(exact) == count
        assert [(c["support_x"], c["support_y"]) for c in approx] == \
            [(c["support_x"], c["support_y"]) for c in exact]
        for ce, cf in zip(exact, approx):
            for e, f in zip(ce["x"] + ce["y"], cf["x"] + cf["y"]):
                assert isinstance(f, float)
                assert abs(float(Fraction(e)) - f) <= 1e-12

    def test_too_large(self):
        g = make_bimatrix("big", [f"r{i}" for i in range(7)], [f"c{i}" for i in range(7)],
                          [[0] * 7 for _ in range(7)], [[0] * 7 for _ in range(7)])
        with pytest.raises(TooLarge):
            enumerate_nash_bimatrix(g)
        s = SingleGame("big", tuple(f"a{i}" for i in range(7)), ((F(0),) * 7,) * 7)
        with pytest.raises(TooLarge):
            enumerate_nash_single(s)
        with pytest.raises(TooLarge):
            enumerate_rest_points(s)
        with pytest.raises(TooLarge):
            detect_degeneracy(g)
        # the cap is checked where the 4**n minor store is allocated, so a
        # table built by hand is refused too, with the matrix's own shape;
        # at 12x12 the two stores would take 2 * 4**12 * 8 bytes, 268 MB
        with pytest.raises(TooLarge, match="payoff matrix is 7x7"):
            SupportTable(g)
        with pytest.raises(TooLarge, match="payoff matrix is 7x3"):
            SupportTable(matrix_game("tall", [[0] * 3] * 7, [[0] * 3] * 7))
        with pytest.raises(TooLarge, match="payoff matrix is 7x2"):
            HalfTable(*integer_form([[F(1), F(0)]] * 7))
        big = matrix_game("big", [[0] * 12] * 12, [[0] * 12] * 12)
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge, match="payoff matrix is 12x12"):
                SupportTable(big)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_sorted_deterministically(self, bos):
        # outputs come in (len sx, len sy, sx, sy) order straight from the
        # support loops, one entry per support pair (rest points: one per
        # support); the inputs are mostly degenerate and partly non-square,
        # so ties and padding are covered
        def assert_ordered(eqs):
            keys = [(len(c.support_x), len(c.support_y or ()), c.support_x, c.support_y or ())
                    for c in eqs]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)

        rng = random.Random(31)
        games = [bos]
        for i in range(60):
            m, n = rng.randint(2, 4), rng.randint(2, 5)
            r = rng.choice([1, 2])
            games.append(make_bimatrix(
                f"t{i}", [f"r{k}" for k in range(m)], [f"c{k}" for k in range(n)],
                [[rng.randint(-r, r) for _ in range(n)] for _ in range(m)],
                [[rng.randint(-r, r) for _ in range(n)] for _ in range(m)]))
        assert sum(detect_degeneracy(g).degenerate for g in games) > 40
        assert sum(g.n_rows != g.n_cols for g in games) > 30
        multi = 0
        for g in games:
            eqs = enumerate_nash_bimatrix(g)
            assert_ordered(eqs)
            multi += len(eqs) > 1
            for cp in counterpart_games(pad_to_square(g)[0]):
                eqs = enumerate_nash_single(cp)
                assert_ordered(eqs)
                multi += len(eqs) > 1
                keys = [(len(r.support), r.support) for r in enumerate_rest_points(cp)]
                assert keys == sorted(set(keys))
        assert multi > 60

    def test_equal_size_pairs_work_gate(self, monkeypatch):
        # a machine-independent work gate: on a degenerate game enumeration
        # reads only the 2 * sum_k C(n, k)^2 equal-size half-systems.  It
        # solves no half of a pair in which some action is weakly dominated
        # on the other side's support, and on random payoffs most larger
        # pairs hold one; of the pairs left, it reads an x half only after
        # its pair's y half is unique, positive and Nash: 91 halves here
        calls = count_halves(monkeypatch)
        g = random_game(random.Random(3), 6)
        assert detect_degeneracy(g).degenerate
        calls.clear()
        eqs = enumerate_nash_bimatrix(g)
        assert len(eqs) == 5
        bound = 2 * sum(math.comb(6, k) ** 2 for k in range(1, 7))
        assert bound == 1846
        assert 0 < len(calls) <= 91

    def test_rest_point_work_gate(self, monkeypatch):
        # a machine-independent work gate: the rest-point scan solves no
        # support on which one of its rows weakly dominates another, so on
        # the counterparts of the same game it solves 41 and 28 of the 63
        # halves, and still finds every rest point
        calls = count_halves(monkeypatch)
        g = random_game(random.Random(3), 6)
        for cp, solved, found in zip(counterpart_games(g), (41, 28), (19, 16)):
            calls.clear()
            rest = enumerate_rest_points(cp)
            assert 0 < len(calls) <= solved < 2 ** 6 - 1
            assert len(rest) == found and rest == unpruned_single(cp)[1]

    def test_degenerate_contract(self):
        # Row T is dominant and the column player is indifferent at T, so every
        # (T, y) is an equilibrium: a continuum.  Only its isolated equal-size
        # profiles, the two pure ones, are reported; (T, (1/2, 1/2)), whose
        # supports differ in size, is an equilibrium that is not.
        m = [[1, 1], [0, 0]]
        g = make_bimatrix("ties", ["T", "B"], ["L", "R"], m, m)
        assert detect_degeneracy(g).degenerate
        assert [(c.x.probs, c.y.probs) for c in enumerate_nash_bimatrix(g)] == [
            ((F(1), F(0)), (F(1), F(0))),
            ((F(1), F(0)), (F(0), F(1))),
        ]
        assert decompose(g).agreement is True
        x, y = MixedStrategy.exact([1, 0]), MixedStrategy.exact(["1/2", "1/2"])
        assert is_nash_bimatrix(g, x, y, tol=0.0)
        assert (x.probs, y.probs) not in profiles(enumerate_nash_bimatrix(g))


class TestDominanceFilter:
    def test_pruned_enumeration_matches_unpruned_scan(self, all_games):
        # seeded games of every kind the filter meets: narrow payoffs with
        # many ties, wide payoffs, duplicated rows and columns, non-square
        # games and their padded squares, degenerate and not
        rng = random.Random(1108)
        games = list(all_games.values())
        games += [random_game(rng, n, name=f"narrow-{n}-{i}") for n in (2, 3, 4, 5) for i in range(8)]
        games += [random_game(rng, 6, name=f"narrow-6-{i}") for i in range(2)]
        for i in range(24):
            m, n = rng.randint(2, 5), rng.randint(2, 5)
            games.append(matrix_game(
                f"wide-{i}", [[rng.randint(-1000, 1000) for _ in range(n)] for _ in range(m)],
                [[rng.randint(-1000, 1000) for _ in range(n)] for _ in range(m)]))
        for i in range(24):
            g = random_game(rng, rng.randint(2, 4), name=f"dup-{i}")
            a, b = [list(r) for r in g.row_payoffs], [list(r) for r in g.col_payoffs]
            if i % 2:  # duplicate a row
                k = rng.randrange(len(a))
                a.append(a[k])
                b.append(b[k])
            else:  # duplicate a column
                k = rng.randrange(len(a[0]))
                a, b = [r + [r[k]] for r in a], [r + [r[k]] for r in b]
            games.append(matrix_game(g.name, a, b))
        for i in range(24):
            m, n = rng.sample(range(1, 6), 2)
            r = rng.choice([1, 5, 1000])
            g = matrix_game(f"rect-{i}", [[rng.randint(-r, r) for _ in range(n)] for _ in range(m)],
                            [[rng.randint(-r, r) for _ in range(n)] for _ in range(m)])
            games += [g, pad_to_square(g)[0]]
        # all ties, so a continuum on every edge; and rows 0 and 1 of A, and
        # of Bᵀ, equal on columns {0, 1}, which must not prune each other
        games.append(matrix_game("ties", [[1] * 3] * 3, [[1] * 3] * 3))
        games.append(matrix_game("equal-rows", [[1, 2, 3], [1, 2, 0], [0, 0, 4]],
                                 [[1, 1, 3], [2, 2, 0], [0, 5, 0]]))
        skipped = [sum(counts) for counts in zip(*map(assert_filter_matches_oracle, games))]
        verdicts = [detect_degeneracy(g).degenerate for g in games]
        assert verdicts.count(True) > 60 and verdicts.count(False) > 30
        assert sum(not g.is_square for g in games) > 40
        assert skipped[0] > 5000 and skipped[1] > 1000  # pairs, counterpart supports
        continua = [[rp.support for cp in counterpart_games(g)
                     for rp in enumerate_rest_points(cp) if rp.continuum] for g in games[-2:]]
        assert continua == [[(0, 1), (0, 2), (1, 2)] * 2, [(0, 1)] * 2]

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 6), st.data())
    def test_filter_property(self, m, n, r, data):
        # the same oracle as a property over small integer games, with a few
        # payoff values in reach, so ties and duplicated actions are common
        entries = st.lists(st.lists(st.integers(-r, r), min_size=n, max_size=n),
                           min_size=m, max_size=m)
        g = matrix_game("prop", data.draw(entries), data.draw(entries))
        assert_filter_matches_oracle(g)
        if not g.is_square:
            assert_filter_matches_oracle(pad_to_square(g)[0])

    def test_weak_dominance_on_the_support(self):
        # row 0 ties row 1 on column 0 and beats it on column 1, so row 1 is
        # pruned on {0, 1} and on {1} but not on {0}, where the rows are
        # equal; row 2 equals row 0 and neither prunes the other
        table = HalfTable(*integer_form([[F(3), F(2)], [F(3), F(1)], [F(3), F(2)]]))
        assert table.undominated(0b11) == 0b101
        assert table.undominated(0b10) == 0b101
        assert table.undominated(0b01) == 0b111


def weakly_dominates(mat, a, b, cols):
    """Row a pays at least as much as row b on each column of `cols` and
    more on one."""
    return all(mat[a][j] >= mat[b][j] for j in cols) and any(mat[a][j] > mat[b][j] for j in cols)


def reference_undominated(mat, want):
    """Oracle for `HalfTable.undominated`: the rows that no row weakly
    dominates on the columns of the bitmask `want`."""
    cols = [j for j in range(len(mat[0])) if want >> j & 1]
    return bitmask(b for b in range(len(mat))
                   if not any(weakly_dominates(mat, a, b, cols) for a in range(len(mat))))


def reference_holds_dominated(mat, want):
    """Oracle for `HalfTable.holds_dominated` on a square matrix: some row of
    the bitmask `want` weakly dominates another on its columns."""
    support = [i for i in range(len(mat)) if want >> i & 1]
    return any(weakly_dominates(mat, a, b, support) for a in support for b in support)


class TestDominanceTables:
    """The per-table dominance lists and the module's Laplace plans against
    their plain loop definitions."""

    def test_plans_match_bit_extraction(self):
        assert len(_PLANS) == 1 << MAX_ACTIONS
        for mask, plan in enumerate(_PLANS):
            expected, bits = [], mask
            while bits:
                bit = bits & -bits
                expected.append((bit.bit_length() - 1, mask ^ bit, len(expected) % 2 == 1))
                bits ^= bit
            assert plan == tuple(expected), mask

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(st.integers(1, MAX_ACTIONS), st.integers(1, MAX_ACTIONS), st.sampled_from([2, 1000]),
           st.booleans(), st.data())
    def test_tables_match_loop_definitions(self, m, n, r, square, data):
        # narrow entries in [-2, 2] tie often, so rows equal on part of a
        # column set, which must not prune each other, are common
        n = m if square else n
        entries = st.lists(st.lists(st.integers(-r, r), min_size=n, max_size=n), min_size=m, max_size=m)
        mat = data.draw(entries)
        table = HalfTable(mat, 1)
        for want in range(1 << n):
            assert table.undominated(want) == reference_undominated(mat, want), (mat, want)
            if square:
                assert table.holds_dominated(want) == reference_holds_dominated(mat, want), (mat, want)


class TestHalfTable:
    def test_integer_decisions_match_fraction_oracle(self):
        # the Facts of every equal-size support pair's half, on seeded
        # payoff matrices, against the Fraction-first oracle; continuum
        # midpoints occur both at the top payoff and below it, and none is
        # Nash.  Two fixed matrices add the singular halves that are not
        # positive: on the full support of the first the solutions form a
        # line, y = (-t, t, 1), with no positive segment, and on that of the
        # second, all zeros, a plane
        rng = random.Random(404)
        mats = [seeded_game(rng, f"half-{i}").row_payoffs for i in range(60)]
        mats += [[[F(0)] * 3, [F(0)] * 3, [F(-1), F(-1), F(0)]], [[F(0)] * 3] * 3]
        seen = set()
        for mat in mats:
            table = HalfTable(*integer_form(mat))
            m, n = len(mat), len(mat[0])
            for k in range(1, min(m, n) + 1):
                for rows in itertools.combinations(range(m), k):
                    for cols in itertools.combinations(range(n), k):
                        half = table.get(rows, cols)
                        status, expected = reference_solve(table, rows, cols)
                        assert facts(half, k) == expected, (mat, rows, cols)
                        seen.add((status, half.positive, half.best > k, half.top, half.nash))
        assert {(INCONSISTENT, False, False, False, False), (UNIQUE, False, False, False, False),
                (UNDERDETERMINED, True, False, True, False), (UNDERDETERMINED, True, False, False, False),
                (UNDERDETERMINED, True, True, True, False), (UNDERDETERMINED, False, False, False, False),
                (UNIQUE, True, False, True, True), (UNIQUE, True, False, False, False),
                (UNIQUE, True, True, True, True)} <= seen

    def test_minor_halves_match_elimination_oracle(self):
        # every equal-size half against the elimination oracle, on
        # matrices of 1-6 actions with small, rational and wide payoffs and
        # forced duplicate or zero rows, or a dominant negative diagonal,
        # whose diagonal halves are positive at every size (the explicit
        # examples make sure of 4x4, 5x5, 6x6, 4x6 and 6x4); the halves cover
        # a singular bordered system (total = 0) and a singular M_rows,cols
        # whose bordered system is not (total != 0, common payoff 0)
        kinds = [st.integers(-3, 3), st.integers(-10**6, 10**6),
                 st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))]
        seen, diagonal_shapes = set(), set()

        # not shrunk: each step would re-check thousands of halves of a 6x6
        @settings(derandomize=True, database=None, deadline=None, max_examples=50,
                  phases=[Phase.explicit, Phase.generate])
        @given(matrices(kinds), st.sampled_from(["", "duplicate", "zero", "diagonal"]))
        @example(cyclic_matrix(4, 4), "diagonal")
        @example(cyclic_matrix(5, 5), "diagonal")
        @example(cyclic_matrix(6, 6), "diagonal")
        @example(cyclic_matrix(4, 6), "diagonal")
        @example(cyclic_matrix(6, 4), "diagonal")
        def check(mat, force):
            m, n = len(mat), len(mat[0])
            mat = [list(row) for row in mat]
            if force == "duplicate" and m > 1:
                mat[-1] = list(mat[0])
            elif force == "zero":
                mat[-1] = [Fraction(0)] * n
            elif force == "diagonal":
                diagonal_shapes.add((m, n))
                for i in range(min(m, n)):
                    mat[i][i] -= 10**7
            table = HalfTable(*integer_form(mat))
            for k in range(1, min(m, n) + 1):
                for rows in itertools.combinations(range(m), k):
                    for cols in itertools.combinations(range(n), k):
                        half = table.get(rows, cols)
                        status, expected = reference_solve(table, rows, cols)
                        assert facts(half, k) == expected, (mat, rows, cols)
                        if force == "diagonal" and rows == cols:
                            assert half.positive, (mat, rows)
                        if status != UNIQUE:
                            seen.add("total = 0")
                        elif solve_linear([[table.mat[r][c] for c in cols] for r in rows],
                                          [0] * k).status != UNIQUE:
                            seen.add("singular, total != 0")

        check()
        assert seen == {"total = 0", "singular, total != 0"}
        assert {(4, 4), (5, 5), (6, 6), (4, 6), (6, 4)} <= diagonal_shapes

    def test_solutions_built_on_first_read(self, monkeypatch):
        # a machine-independent work gate: every reported strategy is built
        # once, from its half's integers, and none runs MixedStrategy's own
        # check.  The verdict and its witnesses build none, each
        # reconstructed equilibrium builds its two, and the rest points
        # build one each, continuum midpoints included
        from_integers = count_calls(monkeypatch, MixedStrategy, "from_integers")
        checked = count_calls(monkeypatch, MixedStrategy, "__post_init__")
        g = random_game(random.Random(1), 4)
        table = SupportTable(g)
        assert detect_degeneracy(g, table=table).witnesses == ()
        assert sum(h.positive for h in table._y.entries.values()) > 30
        assert from_integers == []
        report = decompose(g, table=table)
        assert len(report.reconstructed) == 1
        assert len(from_integers) == 2 * len(report.reconstructed)
        assert sum(len(entry.cp1_equilibria) for entry in report.per_permutation) > 50
        assert checked == []

        segment = [[1, 1, 0], [2, 2, 1], [1, -1, 0]]
        games = [random_game(random.Random(3), 6), matrix_game("ties", [[1] * 3] * 3, [[1] * 3] * 3),
                 matrix_game("segment", segment, segment)]
        midpoints = found = 0
        for s in (s for g in games for s in counterpart_games(g)):
            from_integers.clear()
            rest = enumerate_rest_points(s)
            assert checked == []
            assert len(from_integers) == len(rest)
            midpoints += sum(rp.continuum for rp in rest)
            found += len(rest)
        assert midpoints == 8 and found > 48

    def test_each_minor_computed_once(self, all_games, monkeypatch):
        # a machine-independent work gate: the halves of one table share its
        # minors, so reading every equal-size half of the bundled and seeded
        # games, the degeneracy witnesses and the n! view expands no minor
        # twice
        rng = random.Random(77)
        games = list(all_games.values()) + [random_game(rng, n) for n in (3, 4, 5, 5)]

        def subsets(n):
            return [s for k in range(1, n + 1) for s in itertools.combinations(range(n), k)]

        expanded = count_calls(monkeypatch, HalfTable, "_expand")
        for g in games:
            table = SupportTable(g)
            report_json(decompose(g, table=table if g.is_square else None))
            for rows, cols in itertools.product(subsets(g.n_rows), subsets(g.n_cols)):
                if len(rows) == len(cols):
                    table.y_half(rows, cols)
                    table.x_half(rows, cols)
        assert len(expanded) > 1000
        assert max(collections.Counter(expanded).values()) == 1
        for table in {args[0] for args in expanded}:
            stored = sum(det is not None for det in table._minors) - len(table.mat)  # less the seeds
            assert stored == sum(args[0] is table for args in expanded)

    def test_difference_minor_work_gate(self, monkeypatch):
        # a machine-independent work gate: a half reads k difference minors
        # of its rows, not k^2 minors of M, so enumerating the degenerate 6x6
        # game expands at most 455 minors (932 when halves read the cofactor
        # sums of M), and reading every half fills exactly the slots
        # diff(R, C') with |C'| = |R| - 1, seeds included
        g = random_game(random.Random(3), 6)
        expanded = count_calls(monkeypatch, HalfTable, "_expand")
        table = SupportTable(g)
        enumerate_nash_bimatrix(g, table=table)
        assert 0 < len(expanded) <= 455
        for rows, cols in _equal_size_pairs(6, 6):
            table.y_half(rows, cols)
            table.x_half(rows, cols)
        slots = 2 * sum(math.comb(6, k) * math.comb(6, k - 1) for k in range(1, 7))
        assert slots == 1584
        assert sum(det is not None for half in (table._y, table._x) for det in half._minors) == slots

    def test_difference_minors_match_fraction_determinants(self):
        # every stored slot diff(R, C') against a Fraction determinant of the
        # rows M_r - M_r0, r in R - r0, on C', and every half's integers
        # c_j = (-1)^j diff(R, C - c_j), read from the slots, against the
        # cofactor sums of M, on matrices of 1-6 actions with narrow, wide
        # and rational payoffs, half of them square; the store has
        # 2**(m + n) slots, slot R << n | C' for n the column count, and
        # reading every half stores the slots with |C'| = |R| - 1 and no others
        kinds = [st.integers(-2, 2), st.integers(-10**6, 10**6),
                 st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))]
        sizes = set()

        # not shrunk: each step would re-check thousands of determinants of a 6x6
        @settings(derandomize=True, database=None, deadline=None, max_examples=60,
                  phases=[Phase.generate])
        @given(st.integers(1, 6), st.integers(1, 6), st.booleans(), st.sampled_from(kinds), st.data())
        def check(m, n, square, kind, data):
            n = m if square else n
            table = HalfTable(*integer_form([[Fraction(data.draw(kind)) for _ in range(n)]
                                             for _ in range(m)]))
            mat, minors = table.mat, table._minors
            sizes.add((m, n))
            assert len(minors) == 1 << m + n
            for rows, cols in _equal_size_pairs(m, n):
                table.get(rows, cols)
                base, cmask = bitmask(rows) << n, bitmask(cols)
                c = [(-1) ** j * minors[base | cmask ^ 1 << col] for j, col in enumerate(cols)]
                assert c == reference_cofactors(mat, rows, cols), (mat, rows, cols)
            stored = 0
            for slot, det in enumerate(minors):
                if det is None:
                    continue
                rows = [r for r in range(m) if slot >> n >> r & 1]
                cols = [j for j in range(n) if slot >> j & 1]
                assert len(cols) == len(rows) - 1, (mat, rows, cols)
                low = mat[rows[0]]
                assert det == fraction_det([[mat[r][j] - low[j] for j in cols] for r in rows[1:]]), (mat, rows, cols)
                stored += 1
            assert stored == sum(math.comb(m, k) * math.comb(n, k - 1) for k in range(1, min(m, n) + 1))

        check()
        assert (6, 6) in sizes and any(m < n for m, n in sizes) and any(m > n for m, n in sizes)

    def test_wide_and_tall_tables(self):
        # the minor store puts diff(R, C') at R << n | C' for n the column
        # count, so a store that takes one side for the other goes wrong on
        # one orientation: every equal-size half of 1x6, 6x1, 2x5 and 5x2
        # matrices with tied and zero entries against the elimination
        # oracle, and enumeration and the degeneracy witnesses of a 2x6 and
        # a 6x2 game, whose halves are checked against the oracle too
        rng = random.Random(19)
        for m, n in ((1, 6), (6, 1), (2, 5), (5, 2)):
            for _ in range(5):
                mat = [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(m)]
                table = HalfTable(*integer_form(mat))
                for k in range(1, min(m, n) + 1):
                    for rows in itertools.combinations(range(m), k):
                        for cols in itertools.combinations(range(n), k):
                            assert facts(table.get(rows, cols), k) == reference_half(table, rows, cols), mat
        a = [[1, -1, 0, 2, 0, 1], [-1, 1, 0, -2, 1, 1]]
        b = [[-1, 1, 0, -1, -2, 1], [1, -1, 0, -1, 1, -3]]
        half, zero = F("1/2"), F(0)
        mixed = ((half, half), (half, half) + (zero,) * 4)
        for g, profile in ((matrix_game("wide", a, b), mixed),
                           (matrix_game("tall", [list(c) for c in zip(*b)], [list(c) for c in zip(*a)]),
                            mixed[::-1])):
            table = SupportTable(g)
            eqs = enumerate_nash_bimatrix(g, table=table)
            assert eqs == unpruned_enumeration(g)
            assert profile in profiles(eqs) and len(eqs) == 3
            assert all(is_nash_bimatrix(g, c.x, c.y) for c in eqs)
            witnesses = detect_degeneracy(g, table=table).witnesses
            assert len(witnesses) == 17 and witnesses == reference_witnesses(table)
            for halves in (table._y, table._x):
                for (rows, cols), got in halves.entries.items():
                    assert facts(got, len(rows)) == reference_half(halves, rows, cols), (g.name, rows, cols)

    def test_solve_linear_gets_integer_systems(self, all_games, monkeypatch):
        # exact solve_linear takes integer systems, so every system the
        # solver hands it, from every reader of the tables, has int entries;
        # leduc_empirical has decimal payoffs, the seeded games thirds and
        # twentieths.  Square halves reach it only when singular, so the
        # games in [-2/den, 2/den], full of ties, supply most of its systems
        rng = random.Random(31)
        games = list(all_games.values())
        for r, den in ((20, 3), (20, 20), (2, 3), (2, 20)):
            for i in range(15 if r == 20 else 10):
                low = 1 if r == 20 else 2
                m, n = rng.randint(low, 4), rng.randint(low, 4)
                a = [[Fraction(rng.randint(-r, r), den) for _ in range(n)] for _ in range(m)]
                b = [[Fraction(rng.randint(-r, r), den) for _ in range(n)] for _ in range(m)]
                games.append(make_bimatrix(f"den-{den}-{r}-{i}", [f"r{k}" for k in range(m)],
                                           [f"c{k}" for k in range(n)], a, b))
        halves = count_halves(monkeypatch)
        calls = count_calls(monkeypatch, cpgames.solver, "solve_linear")
        for g in games:
            enumerate_nash_bimatrix(g)
            report_json(decompose(g))  # reads the witnesses and the n! view
            for cp in counterpart_games(pad_to_square(g)[0]):
                enumerate_nash_single(cp)
                enumerate_rest_points(cp)
        assert len(halves) > 1000 and len(calls) > 1000
        for matrix, rhs in calls:
            assert all(type(v) is int for row in matrix for v in row), matrix
            assert all(type(v) is int for v in rhs), rhs


class TestSingleEnumeration:
    def test_bos_cp1(self, bos):
        cp1, cp2 = counterpart_games(bos)
        assert points(enumerate_nash_single(cp1)) == {
            (F(1), F(0)), (F(0), F(1)), (F("2/5"), F("3/5"))}
        assert points(enumerate_nash_single(cp2)) == {
            (F(1), F(0)), (F(0), F(1)), (F("3/5"), F("2/5"))}

    def test_fullsupport_counterparts(self, fullsupport):
        cp1, cp2 = counterpart_games(fullsupport)
        assert points(enumerate_nash_single(cp1)) == {
            (F("2/7"), F("3/7"), F("2/7")),
            (F(0), F(1), F(0)),
            (F("1/2"), F(0), F("1/2")),
        }
        assert points(enumerate_nash_single(cp2)) == {
            (F("1/3"), F("1/3"), F("1/3")),
            (F(0), F(0), F(1)),
            (F("1/2"), F("1/2"), F(0)),
        }

    def test_rps_single(self, rps):
        cp1, _ = counterpart_games(rps)
        assert points(enumerate_nash_single(cp1)) == {(F("1/3"),) * 3}

    def test_strictness_marks(self, bos):
        cp1, _ = counterpart_games(bos)
        strict = {c.x.probs: c.is_strict for c in enumerate_nash_single(cp1)}
        assert strict[(F(1), F(0))] and strict[(F(0), F(1))]
        assert not strict[(F("2/5"), F("3/5"))]

    def test_leduc_cp2_three_equilibria(self, leduc):
        _, cp2 = counterpart_games(leduc)
        assert points(enumerate_nash_single(cp2)) == {
            (F(1), F(0), F(0)),
            (F(0), F(0), F(1)),
            (F("29/35"), F(0), F("6/35")),
        }


class TestRestPoints:
    def test_extended_bos_cp2(self, bos_extended):
        padded, _ = pad_to_square(bos_extended)
        _, cp2 = counterpart_games(padded)
        rps_ = enumerate_rest_points(cp2)
        nash = {r.point.probs for r in rps_ if r.is_nash}
        non_nash = {r.point.probs for r in rps_ if not r.is_nash}
        assert nash == {(F(1), F(0), F(0)), (F(0), F(0), F(1))}
        assert non_nash == {(F(0), F(1), F(0)), (F("11/41"), F("30/41"), F(0))}

    def test_fullsupport_cp1_face_rest_points(self, fullsupport):
        cp1, _ = counterpart_games(fullsupport)
        non_nash_faces = {r.point.probs for r in enumerate_rest_points(cp1)
                          if not r.is_nash and len(r.support) == 2}
        assert non_nash_faces == {
            (F("2/3"), F("1/3"), F(0)),   # A-B face
            (F(0), F("1/3"), F("2/3")),   # B-C face
        }

    def test_leduc_cp2_non_nash_face(self, leduc):
        _, cp2 = counterpart_games(leduc)
        non_nash_faces = {r.point.probs for r in enumerate_rest_points(cp2)
                          if not r.is_nash and len(r.support) == 2}
        assert non_nash_faces == {(F("27/34"), F("7/34"), F(0))}  # D-E face

    def test_2x2_closed_form(self):
        # [[a,b],[c,d]] with a>c, d>b: interior rest point x1 = (d-b)/(a-c+d-b)
        a, b, c, d = 5, 1, 2, 3
        s = SingleGame("t", ("p", "q"), ((F(a), F(b)), (F(c), F(d))))
        rest = enumerate_rest_points(s)
        interior = [r for r in rest if len(r.support) == 2]
        assert len(interior) == 1
        x1 = Fraction(d - b, (a - c) + (d - b))
        assert interior[0].point.probs == (x1, 1 - x1)
        assert {r.support for r in rest} == {(0,), (1,), (0, 1)}

    def test_vertices_always_present(self, rps):
        cp1, _ = counterpart_games(rps)
        rest = enumerate_rest_points(cp1)
        vertex_supports = {r.support for r in rest if len(r.support) == 1}
        assert vertex_supports == {(0,), (1,), (2,)}

    def test_nash_subset_equals_single_enumeration(self):
        rng = random.Random(29)
        for _ in range(30):
            n = rng.choice([2, 3])
            s = SingleGame("t", tuple(f"a{i}" for i in range(n)),
                           tuple(tuple(F(rng.randint(-5, 5)) for _ in range(n)) for _ in range(n)))
            nash_rest = {r.point.probs for r in enumerate_rest_points(s) if r.is_nash and not r.continuum}
            nash_direct = {c.x.probs for c in enumerate_nash_single(s)}
            assert nash_rest == nash_direct

    def test_common_payoff_matches_fitness(self, fullsupport):
        cp1, _ = counterpart_games(fullsupport)
        for r in enumerate_rest_points(cp1):
            mx = [sum(cp1.payoffs[i][j] * r.point.probs[j] for j in range(3)) for i in range(3)]
            for i in r.support:
                assert mx[i] == r.common_payoff

    def test_continuum_is_a_nash_rest_point_but_no_equilibrium(self):
        # in the all-ties 2x2 and 3x3 games every state is an equilibrium,
        # and each support of two actions is a continuum whose midpoint is
        # a Nash rest point; the enumerations report isolated equilibria
        # only, so the pure ones, and no continuum midpoint
        for n in (2, 3):
            ones = [[1] * n] * n
            g = matrix_game("ties", ones, ones)
            assert [(c.support_x, c.support_y) for c in enumerate_nash_bimatrix(g)] == [
                ((i,), (j,)) for i in range(n) for j in range(n)]
            pairs = list(itertools.combinations(range(n), 2))
            for cp in counterpart_games(g):
                assert [c.support_x for c in enumerate_nash_single(cp)] == [(i,) for i in range(n)]
                rest = enumerate_rest_points(cp)
                assert [(rp.support, rp.is_nash, rp.continuum) for rp in rest] == (
                    [((i,), True, False) for i in range(n)] + [(pair, True, True) for pair in pairs])
                for rp in rest[n:]:
                    assert sorted(rp.point.probs, reverse=True) == [F("1/2")] * 2 + [F(0)] * (n - 2)
                    assert is_nash_single(cp, rp.point) and rp.common_payoff == 1

    def test_continuum_segment_barycentre(self):
        # All-ties matrix: every edge point is a rest point; each 2-support
        # system is singular and reports the edge midpoint with the flag.
        s = SingleGame("t", ("a", "b"), ((F(1), F(1)), (F(1), F(1))))
        rest = enumerate_rest_points(s)
        flagged = [r for r in rest if r.continuum]
        assert len(flagged) == 1
        assert flagged[0].point.probs == (F("1/2"), F("1/2"))


class TestDegeneracy:
    def test_bos_pd_not_degenerate(self, bos, pd):
        assert not detect_degeneracy(bos).degenerate
        assert not detect_degeneracy(pd).degenerate

    def test_duplicated_rows_degenerate(self):
        g = make_bimatrix("dup", ["r1", "r2"], ["c1", "c2"],
                          [[3, 1], [3, 1]], [[1, 2], [0, 4]])
        report = detect_degeneracy(g)
        assert report.degenerate
        assert any(w.reason == "excess-best-responses" for w in report.witnesses)

    def test_extended_bos_degenerate(self, bos_extended):
        # degenerate even before padding: the R column ties both rows at 1/2
        assert detect_degeneracy(bos_extended).degenerate
        padded, _ = pad_to_square(bos_extended)
        assert detect_degeneracy(padded).degenerate

    def test_padding_always_induces_formal_degeneracy(self):
        # a dummy action pays the opponent identically everywhere, so every
        # padded game has an all-tie best-response witness; equilibria are
        # unaffected because dummies are strictly dominated
        g = make_bimatrix("t", ["r1", "r2"], ["c1", "c2", "c3"],
                          [[3, 1, 0], [0, 2, 4]], [[1, 2, 0], [3, 0, 1]])
        assert not detect_degeneracy(g).degenerate
        padded, _ = pad_to_square(g)
        report = detect_degeneracy(padded)
        assert report.degenerate
        assert any(w.reason == "excess-best-responses" and w.supports[0] == (2,)
                   for w in report.witnesses)

    def test_leduc_fullsupport_not_degenerate(self, leduc, fullsupport):
        assert not detect_degeneracy(leduc).degenerate
        assert not detect_degeneracy(fullsupport).degenerate

    def test_continuum_witness_reads_the_segment(self):
        # rows 0 and 2 of A tie against every mix on columns {0, 2}, so the
        # solutions of that half form a line whose positive segment has the
        # midpoint (1/2, 1/2), while elimination's particular solution, (0, 1),
        # is an end of it; the witness on the pair reads the segment, as the
        # rest point on that support does; row 1 alone earns more there, 3/2
        # against 1/2.  The x half there, Aᵀ's, is inconsistent: column 0
        # pays 1 and column 2 pays 0 against any mix
        a = [[1, 1, 0], [2, 2, 1], [1, -1, 0]]
        g = matrix_game("segment", a, a)
        table = SupportTable(g)
        res = solve_linear(*_indifference(table._y.mat, (0, 2), (0, 2), table._y.scale))
        assert res.solution[:-1] == [0, 1] and len(res.nullspace) == 1
        pair, half = ((0, 2), (0, 2)), F("1/2")
        assert reference_solve(table._x, *pair) == (INCONSISTENT, facts(table.x_half(*pair), 2))
        assert reference_solve(table._y, *pair) == (UNDERDETERMINED, facts(table.y_half(*pair), 2)) == (
            UNDERDETERMINED, (True, True, 1, False, False, (half, half), half))
        witnesses = detect_degeneracy(g, table=table).witnesses
        assert [w.reason for w in witnesses if w.supports == ((0, 2), (0, 2))] == ["continuum"]
        cp1, _ = counterpart_games(g)
        assert [rp for rp in enumerate_rest_points(cp1) if rp.support == (0, 2)] == [
            RestPoint(MixedStrategy.exact(["1/2", 0, "1/2"]), (0, 2), False, F("1/2"), True)]

    def test_witnesses_and_rest_points_read_one_continuum(self):
        # the two readers of a singular half agree: in the game (A, A) the y
        # half of a pair (S, S) is counterpart 1's half on S and the x half
        # is counterpart 2's (Aᵀ), so the witness on (S, S) reads `continuum`
        # exactly when the rest points of one of the counterparts hold a
        # continuum point on S
        seen = collections.Counter()

        @settings(derandomize=True, database=None, deadline=None, max_examples=200)
        @given(st.integers(2, 4), st.integers(1, 2), st.data())
        def check(n, r, data):
            a = data.draw(st.lists(st.lists(st.integers(-r, r), min_size=n, max_size=n),
                                   min_size=n, max_size=n))
            g = matrix_game("prop", a, a)
            reasons = collections.defaultdict(set)
            for w in detect_degeneracy(g).witnesses:
                reasons[w.supports].add(w.reason)
            continua = {rp.support for cp in counterpart_games(g)
                        for rp in enumerate_rest_points(cp) if rp.continuum}
            for k in range(1, n + 1):
                for supp in itertools.combinations(range(n), k):
                    assert ("continuum" in reasons[(supp, supp)]) == (supp in continua), (a, supp)
            seen.update(reason for found in reasons.values() for reason in found)

        check()
        assert seen["continuum"] > 100 and seen["singular-system"] > 10

    def test_lazy_report_matches_eager_scan(self, all_games):
        # the six bundled games, their padded forms and 200 seeded games with
        # 1-5 actions a side; the verdict may stop early, but the witnesses
        # and the written report are those of the eager scan
        rng = random.Random(8)
        games = list(all_games.values())
        for i in range(200):
            sizes = [rng.randint(1, 5), rng.randint(1, 4)]
            rng.shuffle(sizes)
            m, n = sizes
            r = rng.choice([1, 2, 5])
            games.append(make_bimatrix(
                f"t{i}", [f"r{k}" for k in range(m)], [f"c{k}" for k in range(n)],
                [[rng.randint(-r, r) for _ in range(n)] for _ in range(m)],
                [[rng.randint(-r, r) for _ in range(n)] for _ in range(m)]))
        verdicts = []
        for g in games:
            padded, _ = pad_to_square(g)
            for h in (g, padded) if padded is not g else (g,):
                table = SupportTable(h)
                oracle = reference_witnesses(table)
                verdict_first = detect_degeneracy(h, table=table)
                assert verdict_first.degenerate == bool(oracle)
                assert verdict_first.witnesses == oracle
                assert verdict_first.degenerate == bool(oracle)
                assert detect_degeneracy(h, table=table).witnesses == oracle
                verdicts.append(bool(oracle))
            report = decompose(g, verify=False, table=table if padded is g else None)
            assert report_json(report)["degeneracy"] == {
                "degenerate": bool(oracle),
                "witnesses": [{"supports": [list(s) for s in w.supports], "reason": w.reason}
                              for w in oracle],
            }
        assert sum(g.n_rows != g.n_cols for g in games) > 120
        assert verdicts.count(True) > 250 and verdicts.count(False) > 60

    def test_verdict_stops_at_first_witness(self, monkeypatch):
        # a machine-independent work gate: the verdict on this degenerate
        # game reads 26 of its 138 halves, and the witnesses read the rest
        # without solving any half twice
        calls = count_halves(monkeypatch)
        g = random_game(random.Random(5), 4)
        report = detect_degeneracy(g)
        assert report.degenerate
        assert 0 < len(calls) <= 26
        assert len(report.witnesses) > 1
        assert len(calls) == 2 * sum(math.comb(4, k) ** 2 for k in range(1, 5)) == 138


def assert_symmetric_structure(g):
    """In a symmetric game (B = Aᵀ) both counterparts are A, and the diagonal
    equilibria (x, x) are exactly the symmetric equilibria of A, in the same
    order and with the same supports, strictness and payoffs.  The two paths
    share the minor kernel but not the pruning.  Returns how many there are."""
    cp1, cp2 = counterpart_games(g)
    assert cp1.payoffs == cp2.payoffs
    diagonal = [(c.x.probs, c.support_x, c.is_strict, c.payoffs)
                for c in enumerate_nash_bimatrix(g) if c.x.probs == c.y.probs]
    single = [(c.x.probs, c.support_x, c.is_strict, (c.payoffs, c.payoffs))
              for c in enumerate_nash_single(cp1)]
    assert diagonal == single, serialize_game(g)
    return len(single)


def assert_constant_sum_structure(g, total):
    """In a game with A + B = total, every equilibrium pays (u, total - u)
    with u the game's value: the most a row earns against y and the least a
    column concedes against x (the minimax theorem), so all equilibria share
    one payoff pair.  A non-degenerate game has exactly one.  Returns the
    equilibria."""
    eqs = enumerate_nash_bimatrix(g)
    for c in eqs:
        u, v = c.payoffs
        ay = [sum(a * q for a, q in zip(row, c.y.probs)) for row in g.row_payoffs]
        xa = [sum(p * row[j] for p, row in zip(c.x.probs, g.row_payoffs)) for j in range(g.n_cols)]
        assert u + v == total and u == max(ay) == min(xa), (serialize_game(g), c)
    assert len({c.payoffs for c in eqs}) <= 1, serialize_game(g)
    if not detect_degeneracy(g).degenerate:
        assert len(eqs) == 1, serialize_game(g)
    return eqs


class TestStructure:
    def test_symmetric_bundled_games(self, pd, rps):
        for g in (pd, rps):
            assert g.col_payoffs == tuple(zip(*g.row_payoffs))
            assert assert_symmetric_structure(g) == 1

    def test_symmetric_property(self):
        # games (A, Aᵀ) with 1-4 actions and few payoff values, so ties,
        # degenerate games and off-diagonal equilibria are common
        seen = collections.Counter()

        @settings(derandomize=True, database=None, deadline=None, max_examples=200)
        @given(st.integers(1, 4), st.integers(1, 3), st.data())
        def check(n, r, data):
            a = data.draw(st.lists(st.lists(st.integers(-r, r), min_size=n, max_size=n),
                                   min_size=n, max_size=n))
            g = matrix_game("sym", a, [list(col) for col in zip(*a)])
            seen["diagonal"] += assert_symmetric_structure(g)
            seen["off-diagonal"] += sum(c.x.probs != c.y.probs for c in enumerate_nash_bimatrix(g))

        check()
        assert seen["diagonal"] > 300 and seen["off-diagonal"] > 300

    def test_constant_sum_bundled_games(self, rps, leduc):
        for g in (rps, leduc):
            assert {a + b for ra, rb in zip(g.row_payoffs, g.col_payoffs) for a, b in zip(ra, rb)} == {0}
            assert len(assert_constant_sum_structure(g, 0)) == 1
        assert enumerate_nash_bimatrix(leduc)[0].payoffs == (F("1/350"), F("-1/350"))

    def test_constant_sum_property(self):
        # games (A, total - A) of 1-4 x 1-4 actions; the degenerate ones
        # often report several equilibria, which must share one payoff pair
        seen = collections.Counter()

        @settings(derandomize=True, database=None, deadline=None, max_examples=200)
        @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 5), st.integers(-3, 7), st.data())
        def check(m, n, r, total, data):
            a = data.draw(st.lists(st.lists(st.integers(-r, r), min_size=n, max_size=n),
                                   min_size=m, max_size=m))
            g = matrix_game("const", a, [[total - v for v in row] for row in a])
            eqs = assert_constant_sum_structure(g, total)
            seen["several"] += len(eqs) > 1
            seen["non-degenerate"] += not detect_degeneracy(g).degenerate

        check()
        assert seen["several"] > 60 and seen["non-degenerate"] > 30
