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
integers.  A square half is read off the integer minors its table shares
(Cramer's rule); only a singular one is eliminated.  Degeneracy detection
and direct enumeration visit the equal-size pairs in one order, and the
decomposition reads the direct enumeration of its padded game, so all of
them read one table per game.  Every decision and
every result is exact, so ties are classified correctly; `cpg solve --float`
renders the exact equilibria in float64 in the CLI.

Direct enumeration, and so `decompose` and `cpg solve`, solves no pair in
which some action is weakly dominated on the other side's support: a Nash
half puts positive weight on every column of its support, and against such
a mix a weakly dominated row earns strictly less, so it is no best response
(conditional dominance, as in Porter, Nudelman & Shoham 2008, "Simple
search methods for finding a Nash equilibrium", GEB 63).  The degeneracy
scan, the n! per-permutation view and the rest points still read every
half, since they report non-Nash halves too.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import TooLarge
from .games import BimatrixGame, MixedStrategy, SingleGame, fraction_str, is_nash_single
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


def _full_vector(n: int, support, values) -> MixedStrategy:
    probs = [Fraction(0)] * n
    for idx, v in zip(support, values):
        probs[idx] = v
    return MixedStrategy(tuple(probs), "exact")


def _indifference(mat, rows, cols, scale):
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


@functools.lru_cache(maxsize=1 << 12)  # a capped game has 2^MAX_ACTIONS index sets
def _bits(indices: tuple[int, ...]) -> int:
    """The bitmask of a tuple of indices."""
    return sum(1 << i for i in indices)


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
    """The y halves of one payoff matrix M by sorted, equal-size support
    pair: every row in `rows` earns the same payoff u against a column mix y
    on `cols`, and y sums to one.  Each pair is solved once, on first read.

    M is scaled to integers once, here, by the common denominator of its
    entries, which leaves every system's solutions unchanged.  A half (k
    rows, k columns) is read off the minors of M, each computed once per
    table: with c_j = sum_i (-1)^(i+j) minor(rows - r_i, cols - c_j),
    total = sum_j c_j is the determinant of its bordered system, so
    total != 0 gives the unique half y = c / total, whose common payoff is
    M_r . c / total for any r in rows.  Positivity and the best responses
    are decided on those integers, so of these halves only the positive
    ones are made `Fraction`s.  A half with total = 0 is singular, so
    inconsistent or underdetermined, and only it goes to `solve_linear`, as
    an integer system.

    `undominated(cols)` answers, without solving anything, which rows can be
    best responses to a mix that is positive on `cols`: direct enumeration
    reads it to skip pairs that cannot be Nash.
    """

    def __init__(self, mat):
        self.entries: dict[tuple, Half] = {}
        self.scale = math.lcm(*(v.denominator for row in mat for v in row))
        self.mat = [[v.numerator * (self.scale // v.denominator) for v in row] for row in mat]
        self._undominated: dict[tuple, int] = {}
        self._minors: dict[tuple[int, int], int] = {}

    @functools.cached_property
    def _beats(self) -> list[tuple[int, int, int]]:
        """(ge, gt, b's bit) for each ordered pair of rows (a, b): ge and gt
        are the bitmasks of the columns where a pays at least, and more than,
        b.  Pairs whose gt is empty are left out: there a dominates b on no
        column set."""
        beats = []
        for b, low in enumerate(self.mat):
            for high in self.mat:
                gt = _bits(tuple(j for j, (p, q) in enumerate(zip(high, low)) if p > q))
                if gt:
                    ge = _bits(tuple(j for j, (p, q) in enumerate(zip(high, low)) if p >= q))
                    beats.append((ge, gt, 1 << b))
        return beats

    def undominated(self, cols: tuple[int, ...]) -> int:
        """The bitmask of the rows that no other row weakly dominates on
        `cols`: pays at least as much on every column of `cols` and more on
        one.  A weakly dominated row earns strictly less than its dominator
        against every mix that is positive on `cols`, so it is in no Nash
        half's support there; rows equal on `cols` do not prune each other."""
        mask = self._undominated.get(cols)
        if mask is None:
            want, mask = _bits(cols), (1 << len(self.mat)) - 1
            for ge, gt, bit in self._beats:
                if gt & want and ge & want == want:
                    mask &= ~bit
            self._undominated[cols] = mask
        return mask

    def get(self, rows: tuple[int, ...], cols: tuple[int, ...]) -> Half:
        half = self.entries.get((rows, cols))
        if half is None:
            half = self.entries[(rows, cols)] = self._solve(rows, cols)
        return half

    def _minor(self, rmask: int, cmask: int) -> int:
        """The determinant of M on the rows and columns of two equal-size
        bitmasks, by Laplace expansion along the lowest row; each is
        computed once and kept."""
        det = self._minors.get((rmask, cmask))
        if det is None:
            det = self._minors[(rmask, cmask)] = self._expand(rmask, cmask)
        return det

    def _expand(self, rmask: int, cmask: int) -> int:
        if not rmask:
            return 1
        low = rmask & -rmask
        row, rest = self.mat[low.bit_length() - 1], rmask ^ low
        det, sign, bits = 0, 1, cmask
        while bits:
            bit = bits & -bits
            v = row[bit.bit_length() - 1]
            if v:
                det += sign * v * self._minor(rest, cmask ^ bit)
            sign, bits = -sign, bits ^ bit
        return det

    def _solve(self, rows, cols) -> Half:
        # c = adj(M_rows,cols) @ 1, and total = sum(c) = det [[M_rows,cols, -1], [1, 0]]
        rmask, cmask = _bits(rows), _bits(cols)
        drop_rows = [(rmask ^ (1 << r), -1 if i % 2 else 1) for i, r in enumerate(rows)]
        c = []
        for j, col in enumerate(cols):
            sub = cmask ^ (1 << col)
            cj = sum(sign * self._minor(rm, sub) for rm, sign in drop_rows)
            c.append(-cj if j % 2 else cj)
        total = sum(c)
        if total:
            if total < 0:
                c, total = [-v for v in c], -total
            if not all(v > 0 for v in c):
                return _NO_MIX[UNIQUE]
            return self._mixed(rows, cols, c, total)
        # a singular bordered system has no unique solution
        res = solve_linear(*_indifference(self.mat, rows, cols, self.scale))
        if res.status == INCONSISTENT:
            return _NO_MIX[INCONSISTENT]
        return Half(UNDERDETERMINED, res.solution, res.nullspace,
                    all(v > 0 for v in res.solution[:-1]))

    def _mixed(self, rows, cols, y, den) -> Half:
        """The unique positive half whose mix is the integers `y` over `den`."""
        payoffs = [sum(row[j] * w for j, w in zip(cols, y)) for row in self.mat]
        top = max(payoffs)
        solution = [Fraction(v, den) for v in y]
        solution.append(Fraction(payoffs[rows[0]], den * self.scale))
        return Half(UNIQUE, solution, [], True, payoffs.count(top), payoffs[rows[0]] == top)


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

    def undominated(self, rows, cols) -> bool:
        """No row of `rows` is weakly dominated on `cols` in A, and no column
        of `cols` on `rows` in B.  A pair that fails this has no Nash half on
        the failing side (see HalfTable.undominated), so it is no equilibrium."""
        return (_bits(rows) & ~self._y.undominated(cols) == 0
                and _bits(cols) & ~self._x.undominated(rows) == 0)

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
    unique, positive and Nash; a pair with a weakly dominated action is
    dropped before either half is read, and the x half is read only after
    the y half is Nash.  The supports are the pair, since both mixes are
    positive on it.  It is strict when it is pure and each player's action is
    the only best response to the other's, as each half's best-response
    count says."""
    g = table.game
    if not table.undominated(rows, cols):
        return None
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


def detect_degeneracy(g: BimatrixGame, *, table: SupportTable | None = None) -> DegeneracyReport:
    """Degeneracy report of the game: see `SupportTable.degeneracy`.  Reading
    `.degenerate` stops the scan at the first witness; reading `.witnesses`
    completes it.

    `table`, a SupportTable of `g`, shares its solved systems with other
    calls on the same game.
    """
    _guard_bimatrix(g)
    return (table or SupportTable(g)).degeneracy()


def enumerate_nash_bimatrix(g: BimatrixGame, *,
                            table: SupportTable | None = None) -> list[EquilibriumCandidate]:
    """Every isolated Nash equilibrium on an equal-size support pair, sorted
    by (support size, support_x, support_y).

    Each pair (rows, cols) with |rows| = |cols| yields at most one
    equilibrium, whose supports are exactly the pair; the pairs are visited
    in that order.  A pair with |rows| != |cols| is never read: one of its
    halves has more unknowns than equations, so it has no unique mix.  Nor
    is a pair in which a row is weakly dominated on `cols` in A or a column
    on `rows` in B: against the other side's mix, positive on the pair, that
    action earns less than its dominator, so it is no best response
    (conditional dominance; Porter, Nudelman & Shoham 2008).  Only the pairs
    left are solved.
    Equilibria inside a continuum are not reported, and that includes every
    equilibrium whose supports differ in size; detect_degeneracy flags the
    games that have them.  `table` is a SupportTable of `g` to share (as in
    detect_degeneracy).
    """
    _guard_bimatrix(g)
    table = table or SupportTable(g)
    found = []
    for rows, cols in _equal_size_pairs(g.n_rows, g.n_cols):
        cand = _bimatrix_candidate(table, rows, cols)
        if cand is not None:
            found.append(cand)
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
    (support size, support).  Every support's half is read, Nash or not; a
    unique point's Nash flag is its half's, decided in integers, and only a
    continuum midpoint is checked against the game.
    """
    _guard_single(s)
    table = HalfTable(s.payoffs)
    found = []
    for k in range(1, s.n + 1):
        for supp in itertools.combinations(range(s.n), k):
            half = table.get(supp, supp)
            if half.mixed:
                x = _full_vector(s.n, supp, half.solution[:-1])
                found.append(RestPoint(x, supp, half.nash, half.solution[-1]))
            elif half.status == UNDERDETERMINED and len(half.nullspace) == 1:
                sol = _segment_barycentre(half.solution, half.nullspace[0])
                if sol is not None:  # strictly inside the segment, so positive
                    x = _full_vector(s.n, supp, sol[:-1])
                    found.append(RestPoint(x, supp, is_nash_single(s, x), sol[-1], continuum=True))
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
