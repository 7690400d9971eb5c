"""Game model: parsing, serialization, padding, permutation, counterparts."""

import random
import re
from fractions import Fraction

import pytest

from cpgames import (
    MixedStrategy,
    NotSquare,
    ParseError,
    SizeMismatch,
    ValidationError,
    counterpart_games,
    expected_payoffs,
    is_nash_bimatrix,
    is_nash_single,
    make_bimatrix,
    pad_to_square,
    parse_game,
    serialize_game,
    to_fraction,
)
from conftest import permute_columns


def F(s):
    return Fraction(s)


class TestParsing:
    def test_bos_document(self, bos):
        assert bos.row_payoffs[0][0] == 3
        assert bos.col_payoffs[1][1] == 3
        assert bos.row_actions == ("O", "M")

    def test_fraction_and_decimal_entries(self):
        g = parse_game("""{"name": "t", "row_actions": ["a"], "col_actions": ["b"],
            "row_payoffs": [["3/5"]], "col_payoffs": [[0.55]]}""")
        assert g.row_payoffs[0][0] == F("3/5")
        assert g.col_payoffs[0][0] == F("11/20")

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            parse_game("""{"name": "t", "row_actions": ["a", "b"], "col_actions": ["c"],
                "row_payoffs": [[1], [2], [3]], "col_payoffs": [[1], [2], [3]]}""")

    def test_duplicate_labels(self):
        with pytest.raises(ValidationError):
            parse_game("""{"name": "t", "row_actions": ["a", "a"], "col_actions": ["c"],
                "row_payoffs": [[1], [2]], "col_payoffs": [[1], [2]]}""")

    def test_zero_denominator(self):
        with pytest.raises(ValidationError):
            parse_game("""{"name": "t", "row_actions": ["a"], "col_actions": ["b"],
                "row_payoffs": [["1/0"]], "col_payoffs": [[1]]}""")

    def test_malformed_json(self):
        with pytest.raises(ParseError):
            parse_game("{not json")

    def test_unknown_keys_rejected(self):
        with pytest.raises(ParseError):
            parse_game("""{"name": "t", "row_actions": ["a"], "col_actions": ["b"],
                "row_payoffs": [[1]], "col_payoffs": [[1]], "extra": 1}""")

    def test_wrong_field_types(self):
        with pytest.raises(ParseError):
            parse_game("""{"name": 3, "row_actions": ["a"], "col_actions": ["b"],
                "row_payoffs": [[1]], "col_payoffs": [[1]]}""")

    def test_non_finite_rejected(self):
        with pytest.raises(ParseError):
            parse_game("""{"name": "t", "row_actions": ["a"], "col_actions": ["b"],
                "row_payoffs": [[Infinity]], "col_payoffs": [[1]]}""")

    def test_roundtrip_all_bundled(self, all_games):
        for g in all_games.values():
            again = parse_game(serialize_game(g))
            assert again == g

    def test_serialize_is_stable(self, leduc):
        text = serialize_game(leduc)
        assert serialize_game(parse_game(text)) == text


class TestFractions:
    def test_decimal_exact(self):
        assert to_fraction(0.55) == F("11/20")
        assert to_fraction("3/5") == F("3/5")
        assert to_fraction(-2) == -2

    def test_bad_string(self):
        with pytest.raises(ParseError):
            to_fraction("3//5")


class TestPadding:
    def test_extended_bos_dummy_row(self, bos_extended):
        padded, rec = pad_to_square(bos_extended)
        assert padded.n_rows == padded.n_cols == 3
        assert rec.player == "row" and rec.added_count == 1
        assert rec.dummy_payoff == -1  # min entry is 0
        assert padded.row_actions[2] == "D1"
        assert all(v == -1 for v in padded.row_payoffs[2])
        assert all(v == -1 for v in padded.col_payoffs[2])

    def test_square_unchanged(self, bos):
        padded, rec = pad_to_square(bos)
        assert padded == bos
        assert rec.added_count == 0

    def test_dummy_payoff_scales_with_min(self):
        g = make_bimatrix("t", ["r1", "r2", "r3"], ["c1", "c2"],
                          [[-4, 0], [1, 2], [3, 1]], [[0, 2], [1, -3], [2, 0]])
        padded, rec = pad_to_square(g)
        assert rec.player == "col" and rec.dummy_payoff == -5
        assert all(row[2] == -5 for row in padded.row_payoffs)
        assert all(row[2] == -5 for row in padded.col_payoffs)

    def test_padding_preserves_equilibria(self):
        # Oracle: solve both games directly and compare the projected sets.
        from cpgames import enumerate_nash_bimatrix
        rng = random.Random(11)
        for _ in range(12):
            n_rows = rng.choice([2, 3, 4])
            n_cols = rng.choice([3, 4, 5])
            if n_rows == n_cols:
                n_cols += 1
            g = make_bimatrix(
                "t", [f"r{i}" for i in range(n_rows)], [f"c{j}" for j in range(n_cols)],
                [[rng.randint(-5, 5) for _ in range(n_cols)] for _ in range(n_rows)],
                [[rng.randint(-5, 5) for _ in range(n_cols)] for _ in range(n_rows)])
            padded, rec = pad_to_square(g)
            direct = {(c.x.probs, c.y.probs) for c in enumerate_nash_bimatrix(g)}
            projected = set()
            for c in enumerate_nash_bimatrix(padded):
                if rec.player == "row":
                    assert all(p == 0 for p in c.x.probs[n_rows:])
                    projected.add((c.x.probs[:n_rows], c.y.probs))
                else:
                    assert all(p == 0 for p in c.y.probs[n_cols:])
                    projected.add((c.x.probs, c.y.probs[:n_cols]))
            assert projected == direct


class TestPermutation:
    def test_extended_bos_swap_matches_tables(self, bos_extended):
        padded, _ = pad_to_square(bos_extended)
        swapped = permute_columns(padded, (0, 2, 1))
        assert swapped.col_actions == ("O", "M", "R")
        assert [list(r) for r in swapped.row_payoffs] == [
            [3, 0, F("1/2")], [0, 2, F("1/2")], [-1, -1, -1]]
        assert [list(r) for r in swapped.col_payoffs] == [
            [2, 0, F("1/2")], [0, 3, F("11/20")], [-1, -1, -1]]

    def test_identity(self, bos):
        assert permute_columns(bos, (0, 1)) == bos

    def test_inverse_restores(self):
        rng = random.Random(3)
        g = make_bimatrix("t", ["a", "b", "c"], ["d", "e", "f"],
                          [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)],
                          [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)])
        perm, inverse = (2, 0, 1), (1, 2, 0)
        assert permute_columns(permute_columns(g, perm), inverse) == g

    def test_size_mismatch(self, bos):
        with pytest.raises(SizeMismatch):
            permute_columns(bos, (0, 2, 1))


class TestCounterparts:
    def test_bos_counterparts(self, bos):
        cp1, cp2 = counterpart_games(bos)
        assert [list(r) for r in cp1.payoffs] == [[3, 0], [0, 2]]
        assert [list(r) for r in cp2.payoffs] == [[2, 0], [0, 3]]

    def test_leduc_cp2_is_b_transposed(self, leduc):
        cp1, cp2 = counterpart_games(leduc)
        assert cp1.payoffs == leduc.row_payoffs
        n = 3
        for i in range(n):
            for j in range(n):
                assert cp2.payoffs[i][j] == leduc.col_payoffs[j][i]
        assert cp2.actions == ("D", "E", "F")

    def test_symmetric_game_counterparts_coincide(self, pd):
        cp1, cp2 = counterpart_games(pd)
        assert cp1.payoffs == cp2.payoffs

    def test_not_square(self, bos_extended):
        with pytest.raises(NotSquare):
            counterpart_games(bos_extended)


class TestPayoffsAndNash:
    def test_bos_mixed_payoffs(self, bos):
        x = MixedStrategy.exact(["3/5", "2/5"])
        y = MixedStrategy.exact(["2/5", "3/5"])
        assert expected_payoffs(bos, x, y) == (F("6/5"), F("6/5"))

    def test_pd_defect(self, pd):
        e2 = MixedStrategy.exact([0, 1])
        assert expected_payoffs(pd, e2, e2) == (1, 1)

    def test_pure_profiles_read_entries(self, leduc):
        for i in range(3):
            for j in range(3):
                x = MixedStrategy.exact([1 if k == i else 0 for k in range(3)])
                y = MixedStrategy.exact([1 if k == j else 0 for k in range(3)])
                assert expected_payoffs(leduc, x, y) == (
                    leduc.row_payoffs[i][j], leduc.col_payoffs[i][j])

    def test_is_nash_bimatrix_examples(self, pd, bos):
        defect = MixedStrategy.exact([0, 1])
        coop = MixedStrategy.exact([1, 0])
        assert is_nash_bimatrix(pd, defect, defect)
        assert not is_nash_bimatrix(pd, coop, coop)
        assert is_nash_bimatrix(bos, MixedStrategy.exact(["3/5", "2/5"]),
                                MixedStrategy.exact(["2/5", "3/5"]))

    def test_is_nash_single_examples(self, bos, rps):
        cp1, _ = counterpart_games(bos)
        assert is_nash_single(cp1, MixedStrategy.exact(["2/5", "3/5"]))
        assert not is_nash_single(cp1, MixedStrategy.exact(["1/2", "1/2"]))
        rps_cp1, _ = counterpart_games(rps)
        assert is_nash_single(rps_cp1, MixedStrategy.exact(["1/3", "1/3", "1/3"]))

    def test_nash_invariant_under_affine_transform(self, bos):
        transformed = make_bimatrix(
            "t", bos.row_actions, bos.col_actions,
            [[2 * v + 3 for v in row] for row in bos.row_payoffs],
            [[5 * v - 1 for v in row] for row in bos.col_payoffs])
        profiles = [
            (MixedStrategy.exact([1, 0]), MixedStrategy.exact([1, 0])),
            (MixedStrategy.exact(["3/5", "2/5"]), MixedStrategy.exact(["2/5", "3/5"])),
            (MixedStrategy.exact(["1/2", "1/2"]), MixedStrategy.exact(["1/2", "1/2"])),
            (MixedStrategy.exact([1, 0]), MixedStrategy.exact([0, 1])),
        ]
        for x, y in profiles:
            assert is_nash_bimatrix(bos, x, y) == is_nash_bimatrix(transformed, x, y)

    def test_size_mismatch(self, bos):
        with pytest.raises(SizeMismatch):
            expected_payoffs(bos, MixedStrategy.exact([1, 0, 0]), MixedStrategy.exact([1, 0]))


class TestMixedStrategy:
    def test_exact_validation(self):
        with pytest.raises(ValidationError):
            MixedStrategy.exact(["1/2", "1/3"])
        with pytest.raises(ValidationError):
            MixedStrategy.exact(["-1/2", "3/2"])

    def test_exact_check_on_mixed_denominators(self):
        # 1/2 + 1/3 + 1/12 + 1/20 + 1/30 + 0 = 1 over the common denominator 60
        probs = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 12), Fraction(1, 20),
                 Fraction(1, 30), Fraction(0)]
        assert MixedStrategy(tuple(probs), "exact").probs == tuple(probs)
        for k, delta, total in ((5, 1, "61/60"), (4, -1, "59/60")):
            off = list(probs)
            off[k] += Fraction(delta, 60)
            with pytest.raises(ValidationError, match=f"^probabilities sum to {total}, expected 1$"):
                MixedStrategy(tuple(off), "exact")

    @pytest.mark.parametrize("probs, message", [
        ((Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(-1, 12)), "negative probability -1/12"),
        ((Fraction(1, 2), 0.5), "exact strategy entries must be Fractions"),
        ((1, Fraction(0)), "exact strategy entries must be Fractions"),
        # entries are checked in order: the sign of the first before the type of the second
        ((Fraction(-1, 2), 1.5), "negative probability -1/2"),
    ])
    def test_exact_check_messages(self, probs, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            MixedStrategy(probs, "exact")

    def test_float_clamping(self):
        s = MixedStrategy.from_floats([1.0 + 5e-13, -5e-13])
        assert s.probs[1] == 0.0
        with pytest.raises(ValidationError):
            MixedStrategy.from_floats([0.5, 0.5 + 1e-6])

    def test_support_threshold(self):
        exact = MixedStrategy.exact([1, 0])
        assert exact.support() == (0,)
        nearly = MixedStrategy.from_floats([1.0 - 1e-10, 1e-10])
        assert nearly.support() == (0,)
