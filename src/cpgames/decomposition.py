"""Counterpart decomposition of a bimatrix game (A, B) into the
single-population games A and B^T (Tuyls et al., arXiv:1711.05074), and its
randomized round-trip check.

`decompose` reads the equilibria of the padded game's equal-size support
pairs off one `SupportTable`, and expands the n! per-permutation view from
the same table when it is read.  The README's "The method" states the
correspondence this rests on, and the tests that check it.
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
        cand = replace(cand, x=MixedStrategy(cand.x.probs[:rows0]), y=MixedStrategy(cand.y.probs[:cols0]))
    if not is_nash_bimatrix(g, cand.x, cand.y):
        raise TheoremViolation(f"candidate x={cand.x.probs} y={cand.y.probs} fails on the original game")
    return cand


def decompose(g: BimatrixGame, verify: bool = True, *,
              table: SupportTable | None = None) -> DecompositionReport:
    """The counterpart decomposition of a (possibly non-square) game.

    `reconstructed` holds the padded game's matched pairs (S, T), the pairs
    whose two halves are both Nash, by (k, S, T) with the dummies stripped,
    each checked once, exactly, on `g` (see `_strip_padding`); a failed
    check raises TheoremViolation.  `degeneracy` is the padded game's
    report, read lazily off the same table.

    With `verify`, `direct_solution` is `enumerate_nash_bimatrix(g)` and
    `agreement` says whether it holds the equilibria of `reconstructed`.
    On a square game the padded game is `g`, so `direct_solution` is
    `reconstructed` and `agreement` is True by construction.  On a
    non-square game it compares the padded table's enumeration, stripped,
    with the unpadded table's.  `table`, a SupportTable of `g`, shares
    solved halves with other calls on the same game.
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
    """Draw `trials` seeded random square games, discard the degenerate
    ones, and decompose the rest with `verify`, stopping at the first game
    whose `agreement` fails, reported as the counterexample.  On square
    games `agreement` holds by construction (see `decompose`), so what a
    run checks is each reconstructed equilibrium's exact check.
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
