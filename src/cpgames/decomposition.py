"""Counterpart decomposition pipeline for asymmetric games.

A square game (A, B) splits into the single-population games A and B^T.  For
every column permutation of the padded game, single-population equilibria of
the two counterparts with identical supports combine into equilibria of the
original bimatrix game; scanning all permutations covers every configuration
of equal-size supports, which is exhaustive for non-degenerate games.

Under a column permutation sigma, counterpart 1's indifference system on a
support S is the y half of the support pair (S, sigma(S)) of the padded game,
and counterpart 2's is the x half of the same pair.  The scan therefore reads
both counterparts' equilibria from one `SupportTable` instead of building
and solving n! permuted games; the degeneracy report and the direct solution
read the same table.  Two counterpart equilibria on S match exactly when
both halves of (S, sigma(S)) are Nash, and the combined profile depends only
on that pair, so each matched pair is built and verified once, whichever
permutations map S there.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass

from .errors import TheoremViolation, TooLarge, ValidationError
from .games import (
    BimatrixGame,
    MixedStrategy,
    PaddingRecord,
    Permutation,
    expected_payoffs,
    fraction_str,
    is_nash_bimatrix,
    is_strict_equilibrium,
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
    _bimatrix_candidate,
    _single_candidate,
)

MAX_DECOMPOSE_ACTIONS = 5  # n! permutations are scanned; 120 is the ceiling


@dataclass(frozen=True)
class PermutationAnalysis:
    """Counterpart equilibria and matched pairs for one column permutation."""

    permutation: Permutation
    cp1_equilibria: tuple[EquilibriumCandidate, ...]
    cp2_equilibria: tuple[EquilibriumCandidate, ...]
    matched_pairs: tuple[EquilibriumCandidate, ...]  # padded coords, original column order


@dataclass(frozen=True)
class DecompositionReport:
    game: BimatrixGame
    padding: PaddingRecord
    per_permutation: tuple[PermutationAnalysis, ...]
    reconstructed: tuple[EquilibriumCandidate, ...]  # original, unpadded coordinates
    direct_solution: tuple[EquilibriumCandidate, ...] | None
    agreement: bool | None
    degeneracy: DegeneracyReport


def _strip_padding(cand: EquilibriumCandidate, g: BimatrixGame,
                   padding: PaddingRecord) -> EquilibriumCandidate:
    """The padded game's equilibrium `cand` as an equilibrium of `g`: dummy
    coordinates (always the trailing indices of the padded side) are dropped,
    and the result is verified exactly on `g`."""
    rows0, cols0 = padding.original_dims
    if any(p != 0 for p in cand.x.probs[rows0:] + cand.y.probs[cols0:]):
        raise TheoremViolation("reconstructed candidate puts probability on a dummy action")
    x = MixedStrategy(cand.x.probs[:rows0], "exact")
    y = MixedStrategy(cand.y.probs[:cols0], "exact")
    if not is_nash_bimatrix(g, x, y, tol=0.0):
        raise TheoremViolation(f"candidate x={x.probs} y={y.probs} fails on the original game")
    return EquilibriumCandidate(
        kind="bimatrix", x=x, y=y,
        support_x=x.support(), support_y=y.support(),
        is_strict=is_strict_equilibrium(g, x, y),
        payoffs=expected_payoffs(g, x, y),
    )


def decompose(g: BimatrixGame, verify: bool = True, *,
              table: SupportTable | None = None) -> DecompositionReport:
    """Run the full counterpart pipeline on a (possibly non-square) game.

    Pads to square, scans all column permutations, reads both counterparts'
    symmetric equilibria per permutation from the padded game's support
    table, and matches those on the same support S.  A match under sigma is
    the padded game's equilibrium on the support pair (S, sigma(S)), built
    and verified exactly once per pair; it is listed under every permutation
    that maps S there.  `reconstructed` holds the matched pairs with the
    dummies stripped, verified again on `g`, by (support size, support_x,
    support_y).  A failed verification raises TheoremViolation since the
    counterpart correspondence guarantees it cannot happen.  With `verify`
    the direct support-enumeration solution (equal-size supports only) is
    computed as well and compared to set `agreement`.  `degeneracy` is the
    padded game's report, which reads the padded table lazily (see
    SupportTable.degeneracy).  `table`, a SupportTable of `g`, shares solved
    systems with other calls on the same game.
    """
    padded, padding = pad_to_square(g)
    n = padded.n_rows
    if n > MAX_DECOMPOSE_ACTIONS:
        raise TooLarge(f"decomposition capped at {MAX_DECOMPOSE_ACTIONS} actions after padding, got {n}")
    table = table or SupportTable(g)
    padded_table = table if padded is g else SupportTable(padded)
    degeneracy = padded_table.degeneracy()

    supports = [s for k in range(1, n + 1) for s in itertools.combinations(range(n), k)]
    row_mixes: dict = {}  # (S, sigma(S)) -> counterpart 2's equilibrium
    matched: dict = {}  # (S, sigma(S)) -> the padded game's equilibrium on it
    entries = []
    for mapping in itertools.permutations(range(n)):
        eqs1, eqs2, pairs = [], [], []
        for s in supports:
            cols = tuple(sorted(mapping[j] for j in s))
            yh, xh = padded_table.y_half(s, cols), padded_table.x_half(s, cols)
            if yh.nash:  # counterpart 1's state is y in permuted column order
                y = dict(zip(cols, yh.solution))
                eqs1.append(_single_candidate(n, s, [y[mapping[j]] for j in s], yh))
            if xh.nash:  # counterpart 2's state is x, the same for every sigma
                if (s, cols) not in row_mixes:
                    row_mixes[(s, cols)] = _single_candidate(n, s, xh.solution[:-1], xh)
                eqs2.append(row_mixes[(s, cols)])
            if yh.nash and xh.nash:
                if (s, cols) not in matched:
                    cand = matched[(s, cols)] = _bimatrix_candidate(padded_table, s, cols)
                    if not is_nash_bimatrix(padded, cand.x, cand.y, tol=0.0):
                        raise TheoremViolation(f"candidate x={cand.x.probs} y={cand.y.probs} "
                                               "is not an equilibrium of the padded game")
                pairs.append(matched[(s, cols)])
        entries.append(PermutationAnalysis(
            permutation=Permutation(mapping),
            cp1_equilibria=tuple(eqs1),
            cp2_equilibria=tuple(eqs2),
            matched_pairs=tuple(pairs),
        ))

    reconstructed = [_strip_padding(matched[pair], g, padding)
                     for pair in sorted(matched, key=lambda pair: (len(pair[0]), pair))]

    direct = None
    agreement = None
    if verify:
        direct = enumerate_nash_bimatrix(g, table=table)
        agreement = {c.key() for c in reconstructed} == {c.key() for c in direct}

    return DecompositionReport(
        game=g,
        padding=padding,
        per_permutation=tuple(entries),
        reconstructed=tuple(reconstructed),
        direct_solution=None if direct is None else tuple(direct),
        agreement=agreement,
        degeneracy=degeneracy,
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


def verify_roundtrip(trials: int, size: int, seed: int) -> VerificationReport:
    """Generate seeded random games, discard degenerate ones, and check that
    the reconstructed equilibrium set matches the direct solver on the rest.
    Stops at the first disagreement and reports it as a counterexample.
    Raises ValidationError for `trials` < 0 or `size` < 1, and TooLarge for
    `size` above MAX_DECOMPOSE_ACTIONS, before any game is drawn."""
    if trials < 0:
        raise ValidationError(f"trials must be non-negative, got {trials}")
    if size < 1:
        raise ValidationError(f"size must be at least 1, got {size}")
    if size > MAX_DECOMPOSE_ACTIONS:
        raise TooLarge(f"decomposition capped at {MAX_DECOMPOSE_ACTIONS} actions, got size {size}")
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
                "permutation": list(entry.permutation.mapping),
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
