"""Counterpart reconstruction: matching, permutations, round-trip agreement."""

import math
import random
from fractions import Fraction

import pytest

from cpgames import (
    EquilibriumCandidate,
    MixedStrategy,
    TheoremViolation,
    TooLarge,
    ValidationError,
    counterpart_games,
    decompose,
    detect_degeneracy,
    enumerate_nash_single,
    is_nash_bimatrix,
    make_bimatrix,
    pad_to_square,
    verify_roundtrip,
)
from conftest import count_calls, permute_columns
import cpgames.decomposition
import cpgames.solver
from cpgames.decomposition import _strip_padding, random_game, report_json


def F(s):
    return Fraction(s)


def profiles(cands):
    return {(c.x.probs, c.y.probs) for c in cands}


def reconstruct_candidates(cp1_eqs, cp2_eqs, perm):
    """The paper's combination step, kept as a test oracle: pair counterpart
    equilibria with matching supports into bimatrix profiles.

    cp1_eqs are single-population equilibria of the column-permuted row
    matrix (the column strategy, in permuted column order); cp2_eqs come from
    the transposed, column-permuted column matrix (the row strategy).  The
    column strategy is mapped back to the original action order.
    """
    out = []
    for x_cand in cp2_eqs:
        for y_cand in cp1_eqs:
            if x_cand.support_x != y_cand.support_x:
                continue
            probs = [Fraction(0)] * len(y_cand.x)
            for j, p in enumerate(y_cand.x.probs):
                probs[perm[j]] = p
            y = MixedStrategy(tuple(probs))
            out.append(EquilibriumCandidate(
                x=x_cand.x, y=y,
                support_x=x_cand.x.support(), support_y=y.support(),
                is_strict=False, payoffs=None,
            ))
    return out


class TestReconstruct:
    def test_bos_identity_full_support(self, bos):
        cp1, cp2 = counterpart_games(bos)
        cands = reconstruct_candidates(enumerate_nash_single(cp1),
                                       enumerate_nash_single(cp2), (0, 1))
        assert ((F("3/5"), F("2/5")), (F("2/5"), F("3/5"))) in profiles(cands)

    def test_fullsupport_identity(self, fullsupport):
        cp1, cp2 = counterpart_games(fullsupport)
        cands = reconstruct_candidates(enumerate_nash_single(cp1),
                                       enumerate_nash_single(cp2), (0, 1, 2))
        # cross-pairs with unequal supports are rejected; only full x full matches
        assert profiles(cands) == {
            ((F("1/3"), F("1/3"), F("1/3")), (F("2/7"), F("3/7"), F("2/7")))}

    def test_extended_bos_swap_unpermutes(self, bos_extended):
        padded, _ = pad_to_square(bos_extended)
        perm = (0, 2, 1)
        gp = permute_columns(padded, perm)
        cp1, cp2 = counterpart_games(gp)
        cands = reconstruct_candidates(enumerate_nash_single(cp1),
                                       enumerate_nash_single(cp2), perm)
        got = profiles(cands)
        assert ((F("3/5"), F("2/5"), F(0)), (F("2/5"), F(0), F("3/5"))) in got
        assert ((F(0), F(1), F(0)), (F(0), F(0), F(1))) in got


class TestDecompose:
    def test_extended_bos_per_permutation(self, bos_extended):
        report = decompose(bos_extended)
        assert report.agreement is True
        assert report.degeneracy.degenerate
        by_perm = {entry.permutation: entry for entry in report.per_permutation}
        identity_pairs = profiles(by_perm[(0, 1, 2)].matched_pairs)
        assert identity_pairs == {((F(1), F(0), F(0)), (F(1), F(0), F(0)))}
        swap_pairs = profiles(by_perm[(0, 2, 1)].matched_pairs)
        assert ((F("3/5"), F("2/5"), F(0)), (F("2/5"), F(0), F("3/5"))) in swap_pairs
        assert ((F(0), F(1), F(0)), (F(0), F(0), F(1))) in swap_pairs
        assert profiles(report.reconstructed) == {
            ((F(1), F(0)), (F(1), F(0), F(0))),
            ((F(0), F(1)), (F(0), F(0), F(1))),
            ((F("3/5"), F("2/5")), (F("2/5"), F(0), F("3/5"))),
        }

    def test_leduc_single_equilibrium(self, leduc):
        report = decompose(leduc)
        assert report.agreement is True
        assert profiles(report.reconstructed) == {
            ((F("29/35"), F(0), F("6/35")), (F("9/28"), F(0), F("19/28")))}
        # CP2's pure equilibria are in its own list but never reconstructed
        _, cp2 = counterpart_games(leduc)
        cp2_points = {c.x.probs for c in enumerate_nash_single(cp2)}
        assert (F(1), F(0), F(0)) in cp2_points and (F(0), F(0), F(1)) in cp2_points
        xs = {c.x.probs for c in report.reconstructed}
        assert (F(1), F(0), F(0)) not in xs and (F(0), F(0), F(1)) not in xs

    def test_symmetric_game_reduces_to_direct(self, pd):
        report = decompose(pd)
        assert report.agreement is True
        assert profiles(report.reconstructed) == {((F(0), F(1)), (F(0), F(1)))}

    def test_every_candidate_verified_on_original(self, bos_extended, leduc):
        for g in (bos_extended, leduc):
            for c in decompose(g, verify=False).reconstructed:
                assert is_nash_bimatrix(g, c.x, c.y)

    def test_no_dummy_mass(self, bos_extended):
        report = decompose(bos_extended)
        rows0 = len(bos_extended.row_actions)
        for c in report.reconstructed:
            assert len(c.x) == rows0

    def test_permutation_invariance(self, fullsupport):
        base = profiles(decompose(fullsupport).reconstructed)
        perm = (2, 0, 1)
        permuted = permute_columns(fullsupport, perm)
        mapped = set()
        for x, y in profiles(decompose(permuted).reconstructed):
            y_orig = [None] * 3
            for j in range(3):
                y_orig[perm[j]] = y[j]
            mapped.add((x, tuple(y_orig)))
        assert mapped == base

    def test_verify_false_skips_direct(self, bos):
        report = decompose(bos, verify=False)
        assert report.direct_solution is None and report.agreement is None

    def test_column_padding_path(self, bos_extended):
        # swap the players: 3x2 game, dummies land on the column side
        g = bos_extended
        swapped = make_bimatrix(
            "swapped", g.col_actions, g.row_actions,
            [[g.col_payoffs[i][j] for i in range(2)] for j in range(3)],
            [[g.row_payoffs[i][j] for i in range(2)] for j in range(3)])
        report = decompose(swapped)
        assert report.padding.player == "col" and report.padding.added_count == 1
        assert report.agreement is True
        # equilibria are the originals with the roles exchanged
        assert profiles(report.reconstructed) == {
            ((F(1), F(0), F(0)), (F(1), F(0))),
            ((F(0), F(0), F(1)), (F(0), F(1))),
            ((F("2/5"), F(0), F("3/5")), (F("3/5"), F("2/5"))),
        }

    def test_too_large_after_padding(self):
        g = make_bimatrix("big", ["r1"], [f"c{i}" for i in range(6)],
                          [[0] * 6], [[0] * 6])
        with pytest.raises(TooLarge):
            decompose(g)

    def test_forward_direction_on_bundled_games(self, all_games):
        # Every equal-support-size equilibrium of the direct solver is recovered.
        for name, g in all_games.items():
            report = decompose(g)
            direct = {(c.x.probs, c.y.probs) for c in report.direct_solution
                      if len(c.support_x) == len(c.support_y)}
            assert profiles(report.reconstructed) == direct, name

    def test_full_support_combinations_are_equilibria(self, all_games):
        # every pairing of full-support counterpart equilibria is an
        # equilibrium of the two-population game
        for g in all_games.values():
            square = g if g.is_square else pad_to_square(g)[0]
            cp1, cp2 = counterpart_games(square)
            full1 = [c for c in enumerate_nash_single(cp1) if len(c.support_x) == cp1.n]
            full2 = [c for c in enumerate_nash_single(cp2) if len(c.support_x) == cp2.n]
            for y_cand in full1:
                for x_cand in full2:
                    assert is_nash_bimatrix(square, x_cand.x, y_cand.x)

    def test_report_json_shape(self, bos):
        doc = report_json(decompose(bos))
        assert set(doc) == {"game", "padding", "degeneracy", "per_permutation",
                            "reconstructed", "direct_solution", "agreement"}
        assert doc["agreement"] is True
        assert len(doc["per_permutation"]) == 2
        eq = doc["reconstructed"][0]
        assert set(eq) == {"x", "y", "support_x", "support_y", "strict", "payoffs"}


class TestEachStepOnce:
    def test_one_enumeration_per_table_and_one_check_per_equilibrium(
            self, bos, rps, bos_extended, monkeypatch):
        # a machine-independent work gate: decompose(verify=True) checks each
        # reconstructed equilibrium exactly once, on the game it is reported
        # for, and enumerates each table once: a square game's one table, or
        # a non-square game's padded and unpadded tables
        checks = count_calls(monkeypatch, cpgames.decomposition, "is_nash_bimatrix")
        enumerations = count_calls(monkeypatch, cpgames.decomposition, "enumerate_nash_bimatrix")
        seeded = random_game(random.Random(1), 4)
        assert not detect_degeneracy(seeded).degenerate
        for g, tables in ((bos, 1), (rps, 1), (seeded, 1), (bos_extended, 2)):
            checks.clear()
            enumerations.clear()
            report = decompose(g, verify=True)
            assert report.agreement is True
            assert len(enumerations) == tables, g.name
            assert len(checks) == len(report.reconstructed) > 0, g.name
            assert all(args[0] is g for args in checks), g.name

    def test_unpadded_table_built_only_to_verify(self, bos_extended, monkeypatch):
        # a work gate: a non-square game's unpadded table serves only the
        # `verify` comparison, so without it only the padded table is built
        tables = count_calls(monkeypatch, cpgames.solver.SupportTable, "__init__")
        for verify, built in ((False, 1), (True, 2)):
            tables.clear()
            decompose(bos_extended, verify=verify)
            assert len(tables) == built, verify

    def test_unpadded_enumeration_that_drops_an_equilibrium_disagrees(
            self, bos_extended, monkeypatch):
        # on a non-square game `agreement` compares the padded table's
        # enumeration with the unpadded one's, so it sees one of them lose
        # an equilibrium
        enumerate_padded = cpgames.decomposition.enumerate_nash_bimatrix

        def drop_first_if_unpadded(game, **kwargs):
            found = enumerate_padded(game, **kwargs)
            return found if game.is_square else found[1:]

        monkeypatch.setattr(cpgames.decomposition, "enumerate_nash_bimatrix",
                            drop_first_if_unpadded)
        report = decompose(bos_extended, verify=True)
        assert len(report.reconstructed) == 3 and len(report.direct_solution) == 2
        assert report.agreement is False


class TestRoundtrip:
    def test_small_sizes_pass(self):
        report = verify_roundtrip(trials=50, size=2, seed=7)
        assert report.passed and report.counterexample is None
        report = verify_roundtrip(trials=40, size=3, seed=42)
        assert report.passed
        assert report.tested + report.discarded_degenerate == 40

    @pytest.mark.parametrize("trials, size, error, prefix", [
        (1, 10**5000, TooLarge, "decomposition capped at 5 actions, got size "),
        (-10**5000, 2, ValidationError, "trials must be non-negative, got "),
        (1, -10**5000, ValidationError, "size must be at least 1, got "),
    ], ids=["huge-size", "huge-negative-trials", "huge-negative-size"])
    def test_unprintable_arguments_refused(self, trials, size, error, prefix):
        # a value past CPython's int-to-str limit is refused with the error a
        # small one gets, not with the limit's ValueError from its message
        with pytest.raises(error) as info:
            verify_roundtrip(trials, size, 1)
        assert str(info.value).startswith(prefix) and len(str(info.value)) < 100

    def test_printable_arguments_keep_their_text(self):
        for trials, size, error, text in (
                (1, 7, TooLarge, "decomposition capped at 5 actions, got size 7"),
                (-3, 2, ValidationError, "trials must be non-negative, got -3"),
                (1, 0, ValidationError, "size must be at least 1, got 0")):
            with pytest.raises(error) as info:
                verify_roundtrip(trials, size, 1)
            assert str(info.value) == text

    def test_degenerate_games_discarded(self):
        # A seed-independent check that the filter counts discards.
        rng = random.Random(0)
        found_degenerate = False
        for _ in range(20):
            g = random_game(rng, 3)
            from cpgames import detect_degeneracy
            if detect_degeneracy(g).degenerate:
                found_degenerate = True
        assert found_degenerate


def _wide_game(seed, n):
    """Square game with payoffs in [-1000, 1000]: non-degenerate for these seeds."""
    rng = random.Random(seed)
    a = [[rng.randint(-1000, 1000) for _ in range(n)] for _ in range(n)]
    b = [[rng.randint(-1000, 1000) for _ in range(n)] for _ in range(n)]
    return make_bimatrix(f"wide-{seed}", [f"R{i}" for i in range(n)],
                         [f"C{j}" for j in range(n)], a, b)


def _rect_game(rng, name):
    """Seeded non-square game with 1-4 actions a side and payoffs in [-5, 5]."""
    m, n = rng.sample(range(1, 5), 2)
    a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
    b = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
    return make_bimatrix(name, [f"R{i}" for i in range(m)], [f"C{j}" for j in range(n)], a, b)


class TestPermutationScan:
    def test_each_half_system_solved_at_most_once(self, monkeypatch):
        # a machine-independent work gate: decompose(verify=True) solves each
        # of the 2 * sum_k C(n, k)^2 equal-size half-systems at most once.
        # The pair scan solves no half of a pair with an action weakly
        # dominated on the other side's support, which holds most pairs of
        # these random payoffs; of the rest it reads an x half only after a
        # Nash y half, and it builds no counterpart equilibrium.  So it solves
        # at most 5 and 49 halves here; reading the n! view and every
        # degeneracy witness solves the rest
        calls = count_calls(monkeypatch, cpgames.solver.HalfTable, "_solve")
        singles = count_calls(monkeypatch, cpgames.decomposition, "_single_candidate")
        for n, g in ((4, random_game(random.Random(1), 4)), (5, _wide_game(0, 5))):
            assert not detect_degeneracy(g).degenerate
            calls.clear()
            singles.clear()
            report = decompose(g, verify=True)
            assert report.agreement is True
            bound = 2 * sum(math.comb(n, k) ** 2 for k in range(1, n + 1))
            assert bound == {4: 138, 5: 502}[n]
            assert 0 < len(calls) <= bound, (n, len(calls))
            assert len(calls) <= {4: 5, 5: 49}[n], (n, len(calls))
            assert not singles
            assert report.per_permutation and report.degeneracy.witnesses == ()
            assert singles
            assert len(calls) == bound, (n, len(calls))

    def test_nondegenerate_decompose_eliminates_nothing(self, monkeypatch):
        # a machine-independent work gate: every square half of a
        # game whose bordered system is non-singular is read off its minors,
        # so on these games decompose hands solve_linear no system
        calls = count_calls(monkeypatch, cpgames.solver, "solve_linear")
        for g in (random_game(random.Random(1), 4), _wide_game(0, 5)):
            assert not detect_degeneracy(g).degenerate
            calls.clear()
            assert decompose(g, verify=True).agreement is True
            assert calls == []

    def test_reconstructed_is_union_of_matched_pairs(self, all_games):
        # the covering argument: the union over permutations of the matched
        # pairs is what the pair scan reconstructs, stripped, in (k, S, T) order
        rng = random.Random(1618)
        games = list(all_games.values())
        games += [random_game(rng, n, name=f"union-{n}-{i}") for n in (3, 4) for i in range(15)]
        games += [_rect_game(rng, f"union-rect-{i}") for i in range(15)]
        found = 0
        for g in games:
            report = decompose(g, verify=False)
            union = {(c.support_x, c.support_y): c
                     for entry in report.per_permutation for c in entry.matched_pairs}
            order = sorted(union, key=lambda pair: (len(pair[0]), pair))
            assert report.reconstructed == tuple(
                _strip_padding(union[pair], g, report.padding) for pair in order), g.name
            found += len(order)
        assert sum(not g.is_square for g in games) > 15
        assert found > len(games)

    def test_scan_matches_single_enumeration(self, all_games):
        # each permutation's counterpart equilibria, read from the support
        # table, equal enumerate_nash_single on the permuted counterparts,
        # and its matched pairs equal the paper's combination step on them
        rng = random.Random(2718)
        games = list(all_games.values())
        games += [random_game(rng, n, name=f"scan-{n}-{i}") for n in (3, 4) for i in range(20)]
        degenerate = matched = 0
        for g in games:
            padded, _ = pad_to_square(g)
            degenerate += detect_degeneracy(padded).degenerate
            for entry in decompose(g, verify=False).per_permutation:
                where = (g.name, entry.permutation)
                cp1, cp2 = counterpart_games(permute_columns(padded, entry.permutation))
                eqs1, eqs2 = enumerate_nash_single(cp1), enumerate_nash_single(cp2)
                assert list(entry.cp1_equilibria) == eqs1, where
                assert list(entry.cp2_equilibria) == eqs2, where
                oracle = reconstruct_candidates(eqs1, eqs2, entry.permutation)
                assert [c.key() for c in entry.matched_pairs] == [c.key() for c in oracle], where
                matched += len(oracle)
        assert 0 < degenerate < len(games)
        assert matched > len(games)


class TestSafetyChecks:
    def test_rejected_pair_raises(self, bos, monkeypatch):
        # the correspondence guarantees every matched pair is an equilibrium;
        # a failed exact check is reported, never dropped
        monkeypatch.setattr("cpgames.decomposition.is_nash_bimatrix", lambda *a, **k: False)
        with pytest.raises(TheoremViolation, match="original game"):
            decompose(bos, verify=False)

    def test_rejected_on_original_raises(self, bos_extended, monkeypatch):
        # the check on the unpadded game stands on its own
        def on_padded_only(g, x, y):
            return g.n_rows == 3
        monkeypatch.setattr("cpgames.decomposition.is_nash_bimatrix", on_padded_only)
        with pytest.raises(TheoremViolation, match="original game"):
            decompose(bos_extended, verify=False)

    def test_dummy_mass_raises(self, bos_extended):
        _, padding = pad_to_square(bos_extended)
        assert padding.player == "row" and padding.added_count == 1
        x = MixedStrategy((F(0), F(0), F(1)))  # all mass on the dummy row
        y = MixedStrategy((F(1), F(0), F(0)))
        cand = EquilibriumCandidate(x=x, y=y, support_x=(2,), support_y=(0,),
                                    is_strict=False, payoffs=None)
        with pytest.raises(TheoremViolation, match="dummy"):
            _strip_padding(cand, bos_extended, padding)
