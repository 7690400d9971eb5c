"""Counterpart decomposition pipeline for asymmetric games.

A square game (A, B) splits into the single-population games A and B^T.  For
every column permutation sigma of the padded game, single-population
equilibria of the two counterparts with identical supports combine into
equilibria of the original bimatrix game.

Under sigma, counterpart 1's indifference system on a support S is the y half
of the support pair (S, sigma(S)) of the padded game, and counterpart 2's is
the x half of the same pair, so two counterpart equilibria on S match
exactly when both halves of (S, sigma(S)) are Nash, and the combined profile
depends only on that pair.  The union over sigma of the pairs (S, sigma(S))
is the set of equal-size support pairs, which is exhaustive for
non-degenerate games.  `decompose` therefore reads the solver's direct
enumeration of the padded game, which scans those pairs, sum_k C(n, k)^2 of
them, and checks each matched pair once, on the original game; the n!
per-permutation view is expanded from the same `SupportTable` only when it
is read.  The degeneracy report and the direct solution read that table
too.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field, replace
from functools import cached_property

from .errors import TheoremViolation, TooLarge, ValidationError
from .games import (
    BimatrixGame,
    MixedStrategy,
    PaddingRecord,
    fraction_str,
    is_nash_bimatrix,
    make_bimatrix,
    pad_to_square,
    serialize_game,
)
from .solver import (
    DegeneracyReport,
    EquilibriumCandidate,
    SupportTable,
    candidate_json,
    detect_degeneracy,
    enumerate_nash_bimatrix,
    _single_candidate,
)

# The scan reads sum_k C(n, k)^2 support pairs; the cap bounds the n! rows of
# `per_permutation` (120 at 5), which `report_json` and the CLI table expand.
MAX_DECOMPOSE_ACTIONS = 5

# The most games one round-trip check draws: a draw takes about 0.2 ms at
# sizes 2-5 (Python 3.11), so a run at the cap ends in well under a minute.
MAX_TRIALS = 100_000


@dataclass(frozen=True)
class PermutationAnalysis:
    """Counterpart equilibria and matched pairs for one column permutation."""

    permutation: tuple[int, ...]  # column j of the permuted game is column permutation[j]
    cp1_equilibria: tuple[EquilibriumCandidate, ...]
    cp2_equilibria: tuple[EquilibriumCandidate, ...]
    matched_pairs: tuple[EquilibriumCandidate, ...]  # padded coords, original column order


@dataclass(frozen=True)
class DecompositionReport:
    game: BimatrixGame
    padding: PaddingRecord
    reconstructed: tuple[EquilibriumCandidate, ...]  # original, unpadded coordinates
    direct_solution: tuple[EquilibriumCandidate, ...] | None
    agreement: bool | None
    degeneracy: DegeneracyReport
    padded_table: SupportTable = field(repr=False, compare=False)
    matched: dict = field(repr=False, compare=False)  # (S, T) -> the padded game's equilibrium

    @cached_property
    def per_permutation(self) -> tuple[PermutationAnalysis, ...]:
        """Every column permutation's counterpart equilibria and matched
        pairs, expanded from the padded table on first read.  Both halves of
        every equal-size pair are read, so this solves the halves the scan
        skipped: those of pairs with a dominated action, and x halves after a
        y half that is not Nash."""
        table = self.padded_table
        n = table.game.n_rows
        supports = [s for k in range(1, n + 1) for s in itertools.combinations(range(n), k)]
        row_mixes: dict = {}  # (S, sigma(S)) -> counterpart 2's equilibrium
        entries = []
        for mapping in itertools.permutations(range(n)):
            eqs1, eqs2, pairs = [], [], []
            for s in supports:
                cols = tuple(sorted(mapping[j] for j in s))
                yh, xh = table.y_half(s, cols), table.x_half(s, cols)
                if yh.nash:  # counterpart 1's state is y in permuted column order:
                    # the mix's entry for column cols[i] sits at the j with mapping[j] == cols[i]
                    state = yh.strategy(n, tuple(sorted(s, key=mapping.__getitem__)))
                    eqs1.append(_single_candidate(state, s, yh))
                if xh.nash:  # counterpart 2's state is x, the same for every sigma
                    if (s, cols) not in row_mixes:
                        row_mixes[(s, cols)] = _single_candidate(xh.strategy(n, s), s, xh)
                    eqs2.append(row_mixes[(s, cols)])
                if yh.nash and xh.nash:
                    pairs.append(self.matched[(s, cols)])
            entries.append(PermutationAnalysis(
                permutation=mapping,
                cp1_equilibria=tuple(eqs1),
                cp2_equilibria=tuple(eqs2),
                matched_pairs=tuple(pairs),
            ))
        return tuple(entries)


def _strip_padding(cand: EquilibriumCandidate, g: BimatrixGame,
                   padding: PaddingRecord) -> EquilibriumCandidate:
    """The padded game's equilibrium `cand` as an equilibrium of `g`, checked
    exactly on `g`: the one check of each reconstructed equilibrium.  When
    `g` was padded, the dummy coordinates (always the trailing indices of the
    padded side) must carry no probability and are dropped; the supports,
    strictness and payoffs stay `cand`'s, since the dummies are strictly
    dominated and so no best response either.  Passing on `g` is passing on
    the padded game: with no mass on a dummy, each real action earns what it
    earns in `g`, and each dummy earns the dummy payoff, which is less than
    every real entry and so less than the equilibrium payoff."""
    if padding.padded:
        rows0, cols0 = padding.original_dims
        if any(p != 0 for p in cand.x.probs[rows0:] + cand.y.probs[cols0:]):
            raise TheoremViolation("reconstructed candidate puts probability on a dummy action")
        cand = replace(cand, x=MixedStrategy(cand.x.probs[:rows0], "exact"),
                       y=MixedStrategy(cand.y.probs[:cols0], "exact"))
    if not is_nash_bimatrix(g, cand.x, cand.y, tol=0.0):
        raise TheoremViolation(f"candidate x={cand.x.probs} y={cand.y.probs} fails on the original game")
    return cand


def decompose(g: BimatrixGame, verify: bool = True, *,
              table: SupportTable | None = None) -> DecompositionReport:
    """Run the full counterpart pipeline on a (possibly non-square) game.

    Pads to square and reads the solver's enumeration of the padded game's
    support table, which visits the equal-size support pairs (S, T) by
    (k, S, T).  A pair matches when both counterparts have an equilibrium on
    S under the permutations that map S to T, that is when both halves are
    unique, positive and Nash, which is exactly when the enumeration yields
    the padded game's equilibrium on (S, T).  `reconstructed` holds the
    matches in that order with the dummies stripped, each checked once,
    exactly, on `g` (see `_strip_padding`).  A failed check raises
    TheoremViolation since the counterpart correspondence guarantees it
    cannot happen.  `per_permutation`, the n! view of the same matches, is
    built only when first read.

    With `verify`, `direct_solution` is the direct support enumeration of
    `g` (equal-size supports only), and `agreement` says whether it holds
    the same equilibria as `reconstructed`.  On a square game the padded
    game is `g` and the reconstruction is that enumeration, so
    `direct_solution` is `reconstructed`, no table is enumerated twice, and
    `agreement` is True by construction.  On a non-square game `agreement`
    is a real comparison: the padded table's enumeration, dummies stripped,
    against the unpadded table's, which only this comparison reads (or
    builds, when no `table` is given).  The correspondence itself is checked
    against the counterparts' own enumerations under every permutation by
    `test_scan_matches_single_enumeration`.  `degeneracy` is the padded
    game's report, which reads the padded table lazily (see
    SupportTable.degeneracy).  `table`, a SupportTable of `g`, shares solved
    systems with other calls on the same game.
    """
    padded, padding = pad_to_square(g)
    n = padded.n_rows
    if n > MAX_DECOMPOSE_ACTIONS:
        raise TooLarge(f"decomposition capped at {MAX_DECOMPOSE_ACTIONS} actions after padding, got {n}")
    padded_table = (table or SupportTable(g)) if padded is g else SupportTable(padded)

    # (S, T) -> the padded game's equilibrium on it, in (k, S, T) order
    matched = {(c.support_x, c.support_y): c
               for c in enumerate_nash_bimatrix(padded, table=padded_table)}
    reconstructed = [_strip_padding(cand, g, padding) for cand in matched.values()]

    direct = None
    agreement = None
    if verify:
        direct = reconstructed if padded is g else enumerate_nash_bimatrix(g, table=table)
        agreement = {c.key() for c in reconstructed} == {c.key() for c in direct}

    return DecompositionReport(
        game=g,
        padding=padding,
        reconstructed=tuple(reconstructed),
        direct_solution=None if direct is None else tuple(direct),
        agreement=agreement,
        degeneracy=padded_table.degeneracy(),
        padded_table=padded_table,
        matched=matched,
    )


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of the randomized round-trip check of the decomposition."""

    trials: int
    size: int
    seed: int
    tested: int
    discarded_degenerate: int
    passed: bool
    counterexample: dict | None


def random_game(rng: random.Random, size: int, name: str = "random") -> BimatrixGame:
    """Square game with integer payoffs drawn uniformly from [-5, 5]."""
    rows = [f"R{i + 1}" for i in range(size)]
    cols = [f"C{j + 1}" for j in range(size)]
    a = [[rng.randint(-5, 5) for _ in range(size)] for _ in range(size)]
    b = [[rng.randint(-5, 5) for _ in range(size)] for _ in range(size)]
    return make_bimatrix(name, rows, cols, a, b)


def _shown(value: int) -> str:
    """`value` in decimal for a refusal message, or a note in its place when
    it is past CPython's int-to-str limit, whose ValueError would hide the
    refusal."""
    try:
        return str(value)
    except ValueError:
        return "an integer too long to print"


def verify_roundtrip(trials: int, size: int, seed: int) -> VerificationReport:
    """Generate seeded random games, discard degenerate ones, and check that
    the reconstructed equilibrium set matches the direct solver on the rest.
    The games are square, so this reads `decompose`'s `agreement`, which
    holds by construction there (see `decompose`); it exercises the pipeline
    and its one exact check per equilibrium rather than testing the
    correspondence.
    Stops at the first disagreement and reports it as a counterexample.
    Raises ValidationError for `trials` < 0 or `size` < 1, and TooLarge for
    `trials` above MAX_TRIALS or `size` above MAX_DECOMPOSE_ACTIONS, before
    any game is drawn, however many digits the refused value has."""
    if trials < 0:
        raise ValidationError(f"trials must be non-negative, got {_shown(trials)}")
    if trials > MAX_TRIALS:
        raise TooLarge(f"round-trip check capped at {MAX_TRIALS} trials")
    if size < 1:
        raise ValidationError(f"size must be at least 1, got {_shown(size)}")
    if size > MAX_DECOMPOSE_ACTIONS:
        raise TooLarge(f"decomposition capped at {MAX_DECOMPOSE_ACTIONS} actions, got size {_shown(size)}")
    rng = random.Random(seed)
    tested = 0
    discarded = 0
    counterexample = None
    for i in range(trials):
        g = random_game(rng, size, name=f"random-{seed}-{i}")
        table = SupportTable(g)
        if detect_degeneracy(g, table=table).degenerate:
            discarded += 1
            continue
        report = decompose(g, verify=True, table=table)
        tested += 1
        if not report.agreement:
            counterexample = {
                "game": json.loads(serialize_game(g)),
                "reconstructed": [candidate_json(c) for c in report.reconstructed],
                "direct_solution": [candidate_json(c) for c in report.direct_solution],
            }
            break
    return VerificationReport(
        trials=trials,
        size=size,
        seed=seed,
        tested=tested,
        discarded_degenerate=discarded,
        passed=counterexample is None,
        counterexample=counterexample,
    )


def report_json(report: DecompositionReport) -> dict:
    """JSON-ready form of a decomposition report (fraction strings throughout)."""
    def pad_doc(p: PaddingRecord) -> dict:
        return {
            "player": p.player,
            "added_count": p.added_count,
            "dummy_payoff": fraction_str(p.dummy_payoff),
            "original_dims": list(p.original_dims),
        }

    def degeneracy_doc(d: DegeneracyReport) -> dict:
        return {
            "degenerate": d.degenerate,
            "witnesses": [
                {"supports": [list(s) for s in w.supports], "reason": w.reason}
                for w in d.witnesses
            ],
        }

    return {
        "game": json.loads(serialize_game(report.game)),
        "padding": pad_doc(report.padding),
        "degeneracy": degeneracy_doc(report.degeneracy),
        "per_permutation": [
            {
                "permutation": list(entry.permutation),
                "cp1_equilibria": [candidate_json(c) for c in entry.cp1_equilibria],
                "cp2_equilibria": [candidate_json(c) for c in entry.cp2_equilibria],
                "matched_pairs": [candidate_json(c) for c in entry.matched_pairs],
            }
            for entry in report.per_permutation
        ],
        "reconstructed": [candidate_json(c) for c in report.reconstructed],
        "direct_solution": (None if report.direct_solution is None
                            else [candidate_json(c) for c in report.direct_solution]),
        "agreement": report.agreement,
    }
