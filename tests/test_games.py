"""Game model: parsing, serialization, padding, permutation, counterparts."""

import json
import random
import re
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import cpgames
import cpgames.dynamics
from cpgames import (
    BimatrixGame,
    CpgError,
    MixedStrategy,
    ParseError,
    SingleGame,
    SizeMismatch,
    ValidationError,
    counterpart_games,
    enumerate_nash_bimatrix,
    enumerate_nash_single,
    is_nash_bimatrix,
    is_nash_single,
    make_bimatrix,
    pad_to_square,
    parse_game,
    serialize_game,
    to_fraction,
)
from conftest import (HOSTILE_DOCUMENTS, fraction_is_nash_bimatrix, fraction_is_nash_single,
                      game_text, matrix_game, permute_columns, tied_games)


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

    @pytest.mark.parametrize("name", HOSTILE_DOCUMENTS)
    def test_hostile_document_refused(self, name):
        with pytest.raises((ParseError, ValidationError)):
            parse_game(HOSTILE_DOCUMENTS[name])

    def test_payoff_digit_bound(self):
        # 4,300 digits in a numerator or denominator pass, 4,301 do not,
        # however the payoff is written
        assert parse_game(game_text("9" * 4300)).row_payoffs[0][0] == 10**4300 - 1
        assert parse_game(game_text("1e4299")).row_payoffs[0][0] == 10**4299
        assert parse_game(game_text("5e-4300")).row_payoffs[0][0] == Fraction(1, 2 * 10**4299)
        assert parse_game(game_text("1%se-4300" % ("0" * 4300))).row_payoffs[0][0] == 1
        for payoff in ("1e4300", "1e-4300", "5e-4301"):
            with pytest.raises(ValidationError, match="more than 4300 digits"):
                parse_game(game_text(payoff))
        # refused from the exponent, before 10^3000000 is built
        for payoff in ("1e3000000", "-0.5e-3000000", "1e99999999"):
            with pytest.raises(ValidationError, match="exponent is out of range"):
                parse_game(game_text(payoff))
        # a number written with more digits is refused before int() reads it,
        # where CPython's int-from-str limit (3.10.7 on) would raise
        for payoff in ("0." + "1" * 4301, '"1/%s"' % ("3" * 4301), "1" * 4301):
            with pytest.raises(ValidationError, match="more than 4300 digits"):
                parse_game(game_text(payoff))
        with pytest.raises(ValidationError, match="more than 4300 digits"):
            make_bimatrix("t", ["a"], ["b"], [[10**4300]], [[0]])

    def test_parse_game_raises_only_cpg_errors(self):
        # arbitrary text, arbitrary JSON values, objects over the game's own
        # keys, and games with an arbitrary decimal literal as a payoff: every
        # document gives a game or a CpgError, and a decimal literal of modest
        # exponent gives the payoff Fraction reads from it
        values = st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
            | st.sampled_from(["3/5", "-2/7", "1/0", "1/-2"]),
            lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
            max_leaves=12)
        keys = st.sampled_from(["name", "row_actions", "col_actions", "row_payoffs", "col_payoffs"])
        decimals = st.builds("{}{}{}".format, st.integers(-10**20, 10**20),
                             st.just("") | st.text("0123456789", min_size=1, max_size=20).map(".{}".format),
                             st.just("") | st.integers(-10**8, 10**8).map("e{}".format))
        seen = set()

        documents = st.one_of(st.text(), values.map(json.dumps), st.dictionaries(keys, values).map(json.dumps))

        @settings(derandomize=True, database=None, deadline=None, max_examples=150)
        @given(documents.map(lambda doc: (None, doc)) | decimals.map(lambda d: (d, game_text(d))))
        def check(case):
            literal, doc = case
            try:
                g = parse_game(doc)
            except CpgError as exc:
                seen.add(type(exc))
                return
            seen.add(BimatrixGame)
            exponent = re.search(r"[eE]([-+]?\d+)", literal or "")
            if literal is not None and (exponent is None or abs(int(exponent[1])) < 1000):
                assert g.row_payoffs[0][0] == Fraction(literal), literal

        check()
        assert seen == {BimatrixGame, ParseError, ValidationError}

    def test_roundtrip_all_bundled(self, all_games):
        for g in all_games.values():
            again = parse_game(serialize_game(g))
            assert again == g

    def test_serialize_is_stable(self, leduc):
        text = serialize_game(leduc)
        assert serialize_game(parse_game(text)) == text


# each names a check on the game model that no other test reaches
ONE = make_bimatrix("t", ["a"], ["b"], [[1]], [[1]])
E1 = MixedStrategy.exact([1])
REFUSED = {
    "bool-payoff": (lambda: to_fraction(True), ParseError, "payoff entry has wrong type: True"),
    "inf-payoff": (lambda: to_fraction(float("inf")), ValidationError, "payoff entry must be finite"),
    "list-payoff": (lambda: to_fraction([1]), ParseError, r"payoff entry has wrong type: \[1\]"),
    "no-actions": (lambda: make_bimatrix("t", [], ["c"], [], []), ValidationError,
                   "row_actions must not be empty"),
    "empty-label": (lambda: make_bimatrix("t", ["a", ""], ["c"], [[1], [2]], [[1], [2]]), ValidationError,
                    "row_actions contains an empty or non-string label"),
    "int-label": (lambda: make_bimatrix("t", ["a"], [3], [[1]], [[1]]), ValidationError,
                  "col_actions contains an empty or non-string label"),
    "ragged-row": (lambda: make_bimatrix("t", ["a", "b"], ["c", "d"], [[1, 2], [3]], [[1, 2], [3, 4]]),
                   ValidationError, "row_payoffs has a row of length 1, expected 2"),
    "single-shape": (lambda: SingleGame("t", ("a", "b"), ((F(1), F(2)),)), ValidationError,
                     "payoff matrix must be 2x2 to match the action list"),
    "strategy-mode": (lambda: MixedStrategy((F(1),), "approx"), ValidationError,
                      "unknown arithmetic mode 'approx'"),
    "strategy-empty": (lambda: MixedStrategy((), "exact"), ValidationError,
                       "strategy must have at least one component"),
    "negative-tol": (lambda: is_nash_bimatrix(ONE, E1, E1, tol=-1e-9), ValidationError,
                     "tolerance must be nonnegative"),
    "negative-tol-single": (lambda: is_nash_single(counterpart_games(ONE)[0], E1, tol=-1e-9), ValidationError,
                            "tolerance must be nonnegative"),
    "not-an-object": (lambda: parse_game("[]"), ParseError, "game document must be a JSON object"),
    "missing-keys": (lambda: parse_game('{"name": "t", "row_actions": ["a"]}'), ParseError,
                     "missing keys in game document: col_actions, row_payoffs, col_payoffs"),
    "actions-not-strings": (lambda: parse_game('{"name": "t", "row_actions": ["a", 1], "col_actions": ["b"], '
                                               '"row_payoffs": [[1]], "col_payoffs": [[1]]}'),
                            ParseError, "field 'row_actions' must be an array of strings"),
    "payoffs-not-arrays": (lambda: parse_game('{"name": "t", "row_actions": ["a"], "col_actions": ["b"], '
                                              '"row_payoffs": [[1]], "col_payoffs": [1]}'),
                           ParseError, "field 'col_payoffs' must be an array of arrays"),
}


@pytest.mark.parametrize("name", REFUSED)
def test_malformed_input_refused(name):
    build, error, message = REFUSED[name]
    with pytest.raises(error, match=f"^{message}"):
        build()


class TestFractions:
    def test_decimal_exact(self):
        assert to_fraction(0.55) == F("11/20")
        assert to_fraction("3/5") == F("3/5")
        assert to_fraction(-2) == -2

    def test_bad_string(self):
        with pytest.raises(ParseError):
            to_fraction("3//5")

    @pytest.mark.parametrize("text", ["\u0661/\u0662", "3\n", "1/2\n"])
    def test_ascii_digits_only_whole_string(self, text):
        # int() would read the Arabic-Indic "١/٢" as 1/2 and "3\n" as 3
        with pytest.raises(ParseError):
            to_fraction(text)


def _seeded_padding_examples(test):
    """The padding property's fixed examples: twelve seeded games of 2-4 x
    3-5 actions with payoffs in [-5, 5]."""
    rng = random.Random(11)
    for _ in range(12):
        n_rows, n_cols = rng.choice([2, 3, 4]), rng.choice([3, 4, 5])
        if n_rows == n_cols:
            n_cols += 1
        a, b = ([[rng.randint(-5, 5) for _ in range(n_cols)] for _ in range(n_rows)] for _ in range(2))
        test = example(matrix_game("t", a, b))(test)
    return test


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

    def test_dummy_payoff_is_the_fraction_minimum_less_one(self):
        # the dummy is read off the integer forms, whose common denominators
        # differ between the two matrices here; the minimum lies in either
        rng = random.Random(2027)
        cases, mixed = set(), 0
        for i in range(200):
            m, n = rng.randint(1, 5), rng.randint(1, 5)

            def mat():
                return [[Fraction(rng.randint(-30, 30), rng.choice([1, 2, 3, 7, 10])) for _ in range(n)]
                        for _ in range(m)]

            a, b = mat(), mat()
            g = make_bimatrix(f"g{i}", [f"r{k}" for k in range(m)], [f"c{k}" for k in range(n)], a, b)
            low_a, low_b = min(map(min, a)), min(map(min, b))
            padded, rec = pad_to_square(g)
            assert rec.dummy_payoff == min(low_a, low_b) - 1, (a, b)
            dummies = [payoffs[i][j] for payoffs in (padded.row_payoffs, padded.col_payoffs)
                       for i in range(padded.n_rows) for j in range(padded.n_cols) if i >= m or j >= n]
            assert len(dummies) == 2 * (max(m, n) ** 2 - m * n)
            assert all(v == rec.dummy_payoff for v in dummies)
            cases.add((m == n, low_a < low_b))
            mixed += g.int_row_payoffs[1] != g.int_col_payoffs[1]
        assert len(cases) == 4 and mixed > 100

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(tied_games().filter(lambda g: not g.is_square))
    @_seeded_padding_examples
    def test_padding_preserves_equilibria(self, g):
        # the padded game's equilibria put no mass on a dummy, and with the
        # dummies stripped they are g's, in order, with the same supports,
        # strictness and payoffs: a dummy is strictly dominated, so it is no
        # best response and pads every support pair of g by nothing
        padded, rec = pad_to_square(g)
        stripped = []
        for c in enumerate_nash_bimatrix(padded):
            assert not any(c.x.probs[g.n_rows:] + c.y.probs[g.n_cols:])
            stripped.append(replace(c, x=MixedStrategy(c.x.probs[:g.n_rows], "exact"),
                                    y=MixedStrategy(c.y.probs[:g.n_cols], "exact")))
        assert stripped == enumerate_nash_bimatrix(g)
        assert rec.added_count == abs(g.n_rows - g.n_cols)


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

    def test_non_square_game_is_padded(self, bos_extended):
        # the counterparts of a non-square game, and their fields, are those
        # of its padded game, bit for bit
        padded, _ = pad_to_square(bos_extended)
        assert counterpart_games(bos_extended) == counterpart_games(padded)
        for system in ("cp1", "cp2"):
            got, want = (cpgames.dynamics.integrate(system, g, [0.4, 0.4, 0.2], t_max=2)
                         for g in (bos_extended, padded))
            assert got.times.tobytes() == want.times.tobytes()
            assert got.xs.tobytes() == want.xs.tobytes() and got.ys is want.ys is None
            got, want = (cpgames.dynamics.sample_field_grid(system, g, 20) for g in (bos_extended, padded))
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
            assert got[0].shape == got[1].shape == (231, 3)


class TestPayoffsAndNash:
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

    def test_tol_applies_to_float_strategies_only(self, bos):
        # y is 1e-10 off the mixed equilibrium, so the first row gains 2e-10
        off = MixedStrategy.exact([F("2/5") + F("1/10000000000"), F("3/5") - F("1/10000000000")])
        off_float = MixedStrategy.from_floats(float(p) for p in off.probs)
        x = MixedStrategy.exact(["3/5", "2/5"])
        cp1, _ = counterpart_games(bos)
        assert not is_nash_bimatrix(bos, x, off) and not is_nash_single(cp1, off)
        assert is_nash_bimatrix(bos, x, off_float) and is_nash_single(cp1, off_float)
        assert not is_nash_bimatrix(bos, x, off_float, tol=0.0)
        assert not is_nash_single(cp1, off_float, tol=0.0)

    def test_integer_checks_match_fraction_oracle(self):
        # exact checks against the Fraction oracle: rational payoffs with
        # negative entries, whose denominators differ between A and B, and
        # strategies over mixed denominators; the enumerated equilibria of
        # each game and of its padded counterparts, which are exact ties;
        # and those equilibria with 1/10^9 moved between two entries
        seen = set()
        nudge = Fraction(1, 10**9)

        @settings(derandomize=True, database=None, deadline=None, max_examples=60)
        @given(st.integers(1, 4), st.integers(1, 4), st.data())
        def check(m, n, data):
            def matrix(dens):
                entry = st.builds(Fraction, st.integers(-20, 20), st.sampled_from(dens))
                return data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                                          min_size=m, max_size=m))

            def strategy(k):
                weight = st.builds(Fraction, st.integers(0, 9), st.sampled_from([1, 2, 3, 7]))
                w = data.draw(st.lists(weight, min_size=k, max_size=k))
                w[0] += not any(w)
                return MixedStrategy(tuple(v / sum(w) for v in w), "exact")

            def nudged(s):
                if len(s) == 1:
                    return []
                i = data.draw(st.sampled_from(s.support()))
                j = data.draw(st.sampled_from([k for k in range(len(s)) if k != i]))
                probs = list(s.probs)
                probs[i], probs[j] = probs[i] - nudge, probs[j] + nudge
                return [MixedStrategy(tuple(probs), "exact")]

            g = make_bimatrix("prop", [f"r{k}" for k in range(m)], [f"c{k}" for k in range(n)],
                              matrix([1, 2, 4]), matrix([1, 3, 5]))
            profiles = [("random", strategy(m), strategy(n))]
            for c in enumerate_nash_bimatrix(g):
                profiles.append(("equilibrium", c.x, c.y))
                profiles += [("nudged", x, c.y) for x in nudged(c.x)]
                profiles += [("nudged", c.x, y) for y in nudged(c.y)]
            for kind, x, y in profiles:
                verdict = is_nash_bimatrix(g, x, y)
                assert verdict == fraction_is_nash_bimatrix(g, x, y), (g, x, y)
                seen.add(("bimatrix", kind, verdict))
            for cp in counterpart_games(pad_to_square(g)[0]):
                points = [("random", strategy(cp.n))]
                for c in enumerate_nash_single(cp):
                    points += [("equilibrium", c.x)] + [("nudged", x) for x in nudged(c.x)]
                for kind, x in points:
                    verdict = is_nash_single(cp, x)
                    assert verdict == fraction_is_nash_single(cp, x), (cp, x)
                    seen.add(("single", kind, verdict))

        check()
        assert seen == {(fn, kind, verdict) for fn in ("bimatrix", "single")
                        for kind in ("random", "nudged") for verdict in (True, False)
                        } | {("bimatrix", "equilibrium", True), ("single", "equilibrium", True)}

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
        x3, x2 = MixedStrategy.exact([1, 0, 0]), MixedStrategy.exact([1, 0])
        with pytest.raises(SizeMismatch):
            is_nash_bimatrix(bos, x3, x2)
        with pytest.raises(SizeMismatch):
            is_nash_bimatrix(bos, x2, x3)
        with pytest.raises(SizeMismatch):
            is_nash_single(counterpart_games(bos)[0], x3)


@st.composite
def integer_mixes(draw):
    """(n, support, nums, den): integers in [-12, 12] over a den in
    [-2, 12], on a support of n <= 6 actions in any order, half of them with
    the last entry set so that the sum is right."""
    n = draw(st.integers(1, 6))
    support = tuple(draw(st.permutations(sorted(draw(st.sets(st.integers(0, n - 1)))))))
    den = draw(st.integers(-2, 12))
    nums = draw(st.lists(st.integers(-12, 12), min_size=len(support), max_size=len(support)))
    if nums and draw(st.booleans()):
        nums[-1] = den - sum(nums[:-1])
    return n, support, nums, den


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

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(integer_mixes())
    @example((3, (0, 2), (1, 2), 3))  # accepted
    @example((3, (2, 0), (1, 2), 3))  # accepted, on a permuted support
    @example((3, (0, 1, 2), (-1, -2, 0), -3))  # a negative den: refused, though the Fractions sum to one
    @example((2, (0, 1), (2, -1), 1))  # sums to one, one entry negative
    @example((2, (1,), (1,), 2))  # sums to one half
    @example((1, (), (), 1))  # sums to zero
    @example((2, (0, 1), (0, 0), 0))  # zero denominator
    def test_from_integers_matches_fraction_constructor(self, mix):
        # from_integers(n, support, nums, den) is MixedStrategy of the
        # Fractions nums / den at `support`: the same strategy, or the same
        # ValidationError; a den <= 0, outside its domain, is refused.  It
        # reads the entries in support order, so on a permuted support only
        # the refusal, not the negative entry it names, must agree.  The two
        # share their rule, so an accepted strategy is also checked on its
        # Fractions: nonnegative, summing to one.
        n, support, nums, den = mix

        def outcome(build):
            try:
                return build()
            except ValidationError as exc:
                return str(exc)

        built = outcome(lambda: MixedStrategy.from_integers(n, support, nums, den))
        if den <= 0:
            assert built == f"strategy denominator {den} is not positive"
            return
        probs = [Fraction(0)] * n
        for i, v in zip(support, nums):
            probs[i] = Fraction(v, den)
        expected = outcome(lambda: MixedStrategy(tuple(probs), "exact"))
        if isinstance(expected, str) and list(support) != sorted(support):
            assert isinstance(built, str)
        else:
            assert built == expected
        if isinstance(built, MixedStrategy):
            assert min(built.probs) >= 0 and sum(built.probs) == 1

    def test_float_clamping(self):
        s = MixedStrategy.from_floats([1.0 + 5e-13, -5e-13])
        assert s.probs[1] == 0.0
        with pytest.raises(ValidationError):
            MixedStrategy.from_floats([0.5, 0.5 + 1e-6])

    @pytest.mark.parametrize("values, accepted", [
        ([1.0 + 5e-10, -5e-10], True),  # negative entries down to -1e-9 are clamped
        ([0.5, 0.5 + 9e-10], True),
        ([1.0 + 2e-9, -2e-9], False),
        ([0.5, 0.5 + 2e-9], False),
        ([float("nan"), 1.0], False),
        ([1.0, float("nan")], False),
        ([float("inf"), 1.0], False),
        ([float("-inf"), 1.0], False),
    ])
    def test_one_float_simplex_rule(self, values, accepted):
        # a float strategy and a dynamics state accept the same vectors
        for parse in (MixedStrategy.from_floats, lambda v: cpgames.dynamics._parse_state((2,), v)):
            if accepted:
                parse(values)
            else:
                with pytest.raises(ValidationError, match="not on the probability simplex"):
                    parse(values)
        if accepted and min(values) < 0.0:
            assert min(MixedStrategy.from_floats(values).probs) == 0.0

    def test_support_threshold(self):
        exact = MixedStrategy.exact([1, 0])
        assert exact.support() == (0,)
        nearly = MixedStrategy.from_floats([1.0 - 1e-10, 1e-10])
        assert nearly.support() == (0,)


# Blocks numpy, then imports the package's modules without running its
# __init__ (which imports the dynamics), as a stand-in package on their path.
_WITHOUT_NUMPY = """
import sys, types
from pathlib import Path
sys.modules["numpy"] = None
package = types.ModuleType("cpgames")
package.__path__ = [sys.argv[1]]
sys.modules["cpgames"] = package
from cpgames import decomposition, games, linsolve, solver
g = games.parse_game((Path(sys.argv[1]) / "data" / "bos_extended.json").read_text())
report = decomposition.decompose(g, verify=True)
assert report.agreement and len(report.reconstructed) == 3, report
padded, _ = games.pad_to_square(g)
assert all(solver.enumerate_rest_points(cp) for cp in games.counterpart_games(padded))
assert sys.modules["numpy"] is None
assert not [name for name in sys.modules if name.startswith("numpy.")]
"""


def test_exact_core_runs_without_numpy():
    src = Path(cpgames.__file__).parent
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_NUMPY, str(src)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
