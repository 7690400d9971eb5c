"""Exact support-enumeration solvers: all Nash equilibria of small bimatrix
and single-population games, replicator rest points, and degeneracy detection.

For every candidate support the in-support indifference conditions form a
small linear system; solutions with strictly positive in-support entries that
survive the best-response test are equilibria.  A support pair (rows, cols)
of a bimatrix game (A, B) has two halves: the y half makes the rows in `rows`
indifferent against a column mix on `cols` in A, and the x half is the y half
of B transposed at (cols, rows).  A `SupportTable` solves each half of each
equal-size pair once, on first read, and keeps the facts its readers need:
status, solution, common payoff and the best responses counted in
integers.  Degeneracy detection and direct enumeration visit the equal-size
pairs in one order, and the decomposition reads the direct enumeration of
its padded game, so all of them read one table per game.  Every decision is
made in exact arithmetic, so ties are classified correctly; float mode
(`enumerate_nash_bimatrix(g, "float")`, `cpg solve --float`) only renders
the exact equilibria in float64.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import NamedTuple

from .errors import TooLarge, ValidationError
from .games import (
    FLOAT_SUPPORT_EPS,
    BimatrixGame,
    MixedStrategy,
    SingleGame,
    fraction_str,
    is_nash_single,
    expected_payoffs,
)
from .linsolve import INCONSISTENT, UNDERDETERMINED, UNIQUE, solve_linear

MAX_ACTIONS = 6


@dataclass(frozen=True)
class EquilibriumCandidate:
    """An equilibrium (or verified candidate) with provenance-free payload."""

    x: MixedStrategy
    y: MixedStrategy | None
    support_x: tuple[int, ...]
    support_y: tuple[int, ...] | None
    is_strict: bool
    payoffs: object  # (u, v) for bimatrix, scalar for single, None if not computed

    def key(self):
        """Value identity: the strategy profile, ignoring derived fields."""
        return (self.x.probs, None if self.y is None else self.y.probs)


@dataclass(frozen=True)
class RestPoint:
    """Zero-velocity state of the single-population replicator dynamics."""

    point: MixedStrategy
    support: tuple[int, ...]
    is_nash: bool
    common_payoff: Fraction
    continuum: bool = False  # representative (barycentre) of a solution segment


@dataclass(frozen=True)
class DegeneracyWitness:
    supports: tuple
    reason: str  # "singular-system" | "excess-best-responses" | "continuum"


class DegeneracyReport:
    """A game's degeneracy verdict and witnesses, read from a witness iterator
    in (k, rows, cols) order.  `degenerate` pulls at most one witness, so the
    verdict stops at the first one; `witnesses` completes the scan and keeps
    every witness.  The report reads its table as it goes, so share it within
    one thread only."""

    def __init__(self, witnesses):
        self._pending = iter(witnesses)
        self._found: list[DegeneracyWitness] = []

    @property
    def degenerate(self) -> bool:
        if not self._found:
            self._found.extend(itertools.islice(self._pending, 1))
        return bool(self._found)

    @property
    def witnesses(self) -> tuple[DegeneracyWitness, ...]:
        self._found.extend(self._pending)
        return tuple(self._found)


def _positive(values) -> bool:
    return all(v.numerator > 0 for v in values)  # a Fraction's sign is its numerator's


def _full_vector(n: int, support, values) -> MixedStrategy:
    probs = [Fraction(0)] * n
    for idx, v in zip(support, values):
        probs[idx] = v
    return MixedStrategy(tuple(probs), "exact")


def _indifference(mat, rows, cols, scale=1):
    """The system of the y half at (rows, cols) of `scale` times M: the rows
    earn the common payoff u against y, and y sums to one."""
    system = [[mat[i][j] for j in cols] + [-scale] for i in rows]
    system.append([1] * len(cols) + [0])
    return system, [0] * len(rows) + [1]


def _equal_size_pairs(n_rows: int, n_cols: int):
    """The support pairs (rows, cols) with |rows| = |cols|, by (k, rows, cols):
    the order of every scan of a table and of every enumeration's output."""
    for k in range(1, min(n_rows, n_cols) + 1):
        for rows in itertools.combinations(range(n_rows), k):
            for cols in itertools.combinations(range(n_cols), k):
                yield rows, cols


class Half(NamedTuple):
    """The solved indifference system of one half of a support pair."""

    status: str
    solution: list | None  # the mix in support order, then the common payoff
    nullspace: list  # underdetermined systems only
    positive: bool  # every in-support entry of `solution` is positive
    best: int = 0  # unique and positive: rows earning the top payoff
    nash: bool = False  # ... and the support rows are among them

    @property
    def mixed(self) -> bool:
        """A unique, strictly positive mix on the support."""
        return self.status == UNIQUE and self.positive


# Shared halves without a mix: no reader needs a non-positive solution, and
# not keeping one per entry keeps a 6x6 game's table near half a megabyte.
_NO_MIX = {status: Half(status, None, [], False) for status in (UNIQUE, INCONSISTENT)}


class HalfTable:
    """The y halves of one payoff matrix M by sorted support pair: every row
    in `rows` earns the same payoff u against a column mix y on `cols`, and y
    sums to one.  Each pair is solved once, on first read.

    M is scaled to integers once, here, by the common denominator of its
    entries, which leaves every system's solutions unchanged; every system
    handed to `solve_linear` is then integer, as exact mode requires.
    Positivity and the best-response facts are decided on the solution's
    integer numerators over their positive common denominator, so only the
    halves a reader keeps, positive or underdetermined ones, are made
    `Fraction`s.
    """

    def __init__(self, mat):
        self.entries: dict[tuple, Half] = {}
        self.scale = math.lcm(*(v.denominator for row in mat for v in row))
        self.mat = [[v.numerator * (self.scale // v.denominator) for v in row] for row in mat]

    def get(self, rows: tuple[int, ...], cols: tuple[int, ...]) -> Half:
        half = self.entries.get((rows, cols))
        if half is None:
            half = self.entries[(rows, cols)] = self._solve(rows, cols)
        return half

    def _solve(self, rows, cols) -> Half:
        res = solve_linear(*_indifference(self.mat, rows, cols, self.scale))
        if res.status == INCONSISTENT:
            return _NO_MIX[INCONSISTENT]
        y = res.numerators[:-1]  # y times the positive denominator
        positive = all(v > 0 for v in y)
        if res.status == UNDERDETERMINED:
            return Half(UNDERDETERMINED, res.solution, res.nullspace, positive)
        if not positive:
            return _NO_MIX[UNIQUE]
        payoffs = [sum(row[j] * w for j, w in zip(cols, y)) for row in self.mat]
        top = max(payoffs)
        return Half(UNIQUE, res.solution, [], True, payoffs.count(top), payoffs[rows[0]] == top)


class SupportTable:
    """Both halves of every support pair of one bimatrix game, each solved
    once.  Pass one table to `detect_degeneracy`, `enumerate_nash_bimatrix`
    and `decompose` to share the solved systems between them."""

    def __init__(self, g: BimatrixGame):
        self.game = g
        self._y = HalfTable(g.row_payoffs)
        self._x = HalfTable(tuple(zip(*g.col_payoffs)))

    def y_half(self, rows, cols) -> Half:
        """Rows indifferent in A against the column mix on `cols`."""
        return self._y.get(rows, cols)

    def x_half(self, rows, cols) -> Half:
        """Columns indifferent in B against the row mix on `rows`."""
        return self._x.get(cols, rows)

    def degeneracy(self) -> DegeneracyReport:
        """The game's degeneracy report, scanning the equal-size support
        pairs' halves by (k, rows, cols) as it is read.

        The game is degenerate when some valid mixed strategy admits more
        pure best responses than its support size, or when a support system
        is singular with a whole continuum of solutions.  The verdict stops
        at the first witness and `witnesses` completes the scan; a second
        report re-reads the solved halves and solves nothing again.
        """
        return DegeneracyReport(self._witnesses())

    def _witnesses(self):
        for rows, cols in _equal_size_pairs(self.game.n_rows, self.game.n_cols):
            reasons = []
            for half in (self.y_half(rows, cols), self.x_half(rows, cols)):
                if half.status == UNDERDETERMINED:
                    reason = "continuum" if half.positive else "singular-system"
                elif half.mixed and half.best > len(rows):
                    reason = "excess-best-responses"
                else:
                    continue
                if reason not in reasons:
                    reasons.append(reason)
            for reason in reasons:
                yield DegeneracyWitness((rows, cols), reason)


def _guard_bimatrix(g: BimatrixGame) -> None:
    if g.n_rows > MAX_ACTIONS or g.n_cols > MAX_ACTIONS:
        raise TooLarge(f"support enumeration capped at {MAX_ACTIONS} actions, game is {g.n_rows}x{g.n_cols}")


def _guard_single(s: SingleGame) -> None:
    if s.n > MAX_ACTIONS:
        raise TooLarge(f"support enumeration capped at {MAX_ACTIONS} actions, game has {s.n}")


def _single_candidate(n: int, support, values, half: Half) -> EquilibriumCandidate:
    """The symmetric equilibrium on `support` of a single-population game
    whose indifference system is `half` (unique, positive and Nash), with
    `values` its mix in support order.  It is strict when it is pure and its
    action is the only best response to itself."""
    return EquilibriumCandidate(
        x=_full_vector(n, support, values),
        y=None,
        support_x=support,
        support_y=None,
        is_strict=len(support) == 1 and half.best == 1,
        payoffs=half.solution[-1],
    )


def _bimatrix_candidate(table: SupportTable, rows, cols):
    """The equilibrium on one support pair, or None.  Both halves must be
    unique, positive and Nash; the x half is read only after the y half is.
    The supports are the pair, since both mixes are positive on it.  It is
    strict when it is pure and each player's action is the only best
    response to the other's, as each half's best-response count says."""
    g = table.game
    yh = table.y_half(rows, cols)
    if not yh.nash:
        return None
    xh = table.x_half(rows, cols)
    if not xh.nash:
        return None
    return EquilibriumCandidate(
        x=_full_vector(g.n_rows, rows, xh.solution[:-1]),
        y=_full_vector(g.n_cols, cols, yh.solution[:-1]),
        support_x=rows,
        support_y=cols,
        is_strict=len(rows) == 1 and yh.best == 1 and xh.best == 1,
        payoffs=(yh.solution[-1], xh.solution[-1]),  # x.Ay and x.By: the halves' common payoffs
    )


def _float_mix(mat, rows, cols, exact: MixedStrategy) -> MixedStrategy:
    """The float64 mix on `cols` of the y half at (rows, cols) of M, solved
    and renormalised in float64; the rounded exact mix when that solve finds
    no unique positive mix."""
    res = solve_linear(*_indifference(mat, rows, cols), exact=False)
    if res.status != UNIQUE or not all(v > FLOAT_SUPPORT_EPS for v in res.solution[:-1]):
        return MixedStrategy.from_floats(exact.probs)
    values = dict(zip(cols, res.solution[:-1]))
    total = sum(values.values())  # renormalise away elimination roundoff
    return MixedStrategy.from_floats(values.get(j, 0.0) / total for j in range(len(exact)))


def _render_float(g: BimatrixGame, cand: EquilibriumCandidate) -> EquilibriumCandidate:
    """An exact equilibrium in float64, for `cpg solve --float`."""
    rows, cols = cand.support_x, cand.support_y
    x = _float_mix(g.b_float().T.tolist(), cols, rows, cand.x)
    y = _float_mix(g.a_float().tolist(), rows, cols, cand.y)
    return replace(cand, x=x, y=y, payoffs=expected_payoffs(g, x, y))


def detect_degeneracy(g: BimatrixGame, *, table: SupportTable | None = None) -> DegeneracyReport:
    """Degeneracy report of the game: see `SupportTable.degeneracy`.  Reading
    `.degenerate` stops the scan at the first witness; reading `.witnesses`
    completes it.

    `table`, a SupportTable of `g`, shares its solved systems with other
    calls on the same game.
    """
    _guard_bimatrix(g)
    return (table or SupportTable(g)).degeneracy()


def enumerate_nash_bimatrix(g: BimatrixGame, mode: str = "exact", *,
                            table: SupportTable | None = None) -> list[EquilibriumCandidate]:
    """Every isolated Nash equilibrium on an equal-size support pair, sorted
    by (support size, support_x, support_y).

    Each pair (rows, cols) with |rows| = |cols| yields at most one
    equilibrium, whose supports are exactly the pair; the pairs are visited
    in that order.  A pair with |rows| != |cols| is never read: one of its
    halves has more unknowns than equations, so it has no unique mix.
    Equilibria inside a continuum are not reported, and that includes every
    equilibrium whose supports differ in size; detect_degeneracy flags the
    games that have them.  `table` is a SupportTable of `g` to share (as in
    detect_degeneracy).

    Mode "float" finds the same equilibria and renders each in float64; the
    supports and strictness stay those of the exact equilibrium.
    """
    if mode not in ("exact", "float"):
        raise ValidationError(f"unknown arithmetic mode {mode!r}")
    _guard_bimatrix(g)
    table = table or SupportTable(g)
    found = []
    for rows, cols in _equal_size_pairs(g.n_rows, g.n_cols):
        cand = _bimatrix_candidate(table, rows, cols)
        if cand is not None:
            found.append(cand)
    if mode == "float":
        return [_render_float(g, c) for c in found]
    return found


def enumerate_nash_single(s: SingleGame) -> list[EquilibriumCandidate]:
    """All symmetric Nash equilibria of a single-population game.

    Only single-strategy (symmetric) equilibria are considered: for each
    support solve the indifference system and keep positive solutions whose
    out-of-support fitnesses do not exceed the common payoff.  Supports are
    visited, and equilibria reported, by (size, support).
    """
    _guard_single(s)
    table = HalfTable(s.payoffs)
    found = []
    for k in range(1, s.n + 1):
        for supp in itertools.combinations(range(s.n), k):
            half = table.get(supp, supp)
            if half.mixed and half.nash:
                found.append(_single_candidate(s.n, supp, half.solution[:-1], half))
    return found


def _segment_barycentre(particular, direction):
    """Midpoint of the positive segment {p + t*d > 0} of a 1-dim solution set,
    over the in-support coordinates (the common-payoff unknown rides along)."""
    lo, hi = None, None
    for p, d in zip(particular[:-1], direction[:-1]):
        if d > 0:
            bound = -p / d
            lo = bound if lo is None else max(lo, bound)
        elif d < 0:
            bound = -p / d
            hi = bound if hi is None else min(hi, bound)
        elif p <= 0:
            return None
    if lo is None or hi is None or lo >= hi:
        return None
    t = (lo + hi) / 2
    return [p + t * d for p, d in zip(particular, direction)]


def enumerate_rest_points(s: SingleGame) -> list[RestPoint]:
    """Every interior-of-support rest point of the replicator dynamics.

    A state is a rest point exactly when all in-support fitnesses are equal,
    so each support contributes its indifference-system solution when that
    solution is strictly positive; every vertex qualifies trivially.  A
    singular system with a positive solution segment is reported once, as the
    segment's midpoint flagged `continuum`.  Rest points are reported by
    (support size, support).
    """
    _guard_single(s)
    table = HalfTable(s.payoffs)
    found = []
    for k in range(1, s.n + 1):
        for supp in itertools.combinations(range(s.n), k):
            half = table.get(supp, supp)
            continuum = half.status == UNDERDETERMINED
            if continuum:
                if len(half.nullspace) != 1:
                    continue
                sol = _segment_barycentre(half.solution, half.nullspace[0])
                if sol is None:
                    continue
            elif half.mixed:
                sol = half.solution
            else:
                continue
            vals = sol[:-1]
            if not _positive(vals):
                continue
            x = _full_vector(s.n, supp, vals)
            found.append(RestPoint(point=x, support=supp, is_nash=is_nash_single(s, x),
                                   common_payoff=sol[-1], continuum=continuum))
    return found


def candidate_json(c: EquilibriumCandidate) -> dict:
    """JSON form of an equilibrium: fraction strings in exact mode."""
    def vec(ms):
        return ms.to_jsonable()

    def val(v):
        return fraction_str(v) if isinstance(v, Fraction) else float(v)

    doc = {"x": vec(c.x)}
    if c.y is not None:
        doc["y"] = vec(c.y)
    doc["support_x"] = list(c.support_x)
    if c.support_y is not None:
        doc["support_y"] = list(c.support_y)
    doc["strict"] = c.is_strict
    if c.payoffs is None:
        doc["payoffs"] = None
    elif isinstance(c.payoffs, tuple):
        doc["payoffs"] = [val(v) for v in c.payoffs]
    else:
        doc["payoffs"] = val(c.payoffs)
    return doc
